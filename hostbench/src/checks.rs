//! Correctness checks on a cell's outputs. Each returns a description of
//! the first broken property; the runner counts it as one failed
//! operation.

use pmacc::RunReport;
use pmacc_cache::CacheStats;
use pmacc_mem::MemStats;

/// Every transaction of the trace committed.
///
/// # Errors
///
/// Names the shortfall.
pub fn committed(report: &RunReport, expected: u64) -> Result<(), String> {
    let got = report.total_committed();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{got} transactions committed, the trace holds {expected}"
        ))
    }
}

/// The statistics identities: at every cache, hits plus misses equal
/// accesses (misses taken from the reported miss rate), and in each
/// memory channel the writes by cause add up to the write total and to
/// the number of write latencies recorded.
///
/// # Errors
///
/// Names the first identity that fails.
pub fn stats_identities(report: &RunReport) -> Result<(), String> {
    let h = &report.hierarchy;
    let caches =
        h.l1.iter()
            .enumerate()
            .map(|(c, s)| (format!("l1[{c}]"), s))
            .chain(
                h.l2.iter()
                    .enumerate()
                    .map(|(c, s)| (format!("l2[{c}]"), s)),
            )
            .chain(std::iter::once(("llc".to_string(), &h.llc)));
    for (name, s) in caches {
        cache_identity(s).map_err(|e| format!("{name}: {e}"))?;
    }
    mem_identity(&report.nvm).map_err(|e| format!("nvm: {e}"))?;
    mem_identity(&report.dram).map_err(|e| format!("dram: {e}"))
}

fn cache_identity(s: &CacheStats) -> Result<(), String> {
    let (hits, accesses) = (s.accesses.hits(), s.accesses.total());
    // Rounding recovers the integer miss count exactly while accesses
    // stay far below 2^52.
    let misses = (s.miss_rate() * accesses as f64).round() as u64;
    if hits + misses == accesses {
        Ok(())
    } else {
        Err(format!(
            "{hits} hits + {misses} misses != {accesses} accesses"
        ))
    }
}

fn mem_identity(m: &MemStats) -> Result<(), String> {
    let by_cause: u64 = m.writes_by_cause.iter().map(|c| c.value()).sum();
    let total = m.writes();
    let timed = m.write_latency.count();
    if by_cause == total && total == timed {
        Ok(())
    } else {
        Err(format!(
            "writes by cause sum to {by_cause}, total {total}, {timed} write latencies"
        ))
    }
}
