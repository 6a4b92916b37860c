//! Analyzes a trace file (the `pmacc_cpu::text` format, as written by
//! `simulate --dump-trace`): op mix, transaction statistics, write-set
//! size distribution and footprint — the numbers that size a transaction
//! cache for a workload. `tracestat --help` prints the usage.

use std::collections::HashSet;
use std::process::ExitCode;

use pmacc_bench::cli::{self, Args, Spec};
use pmacc_cpu::text::from_text;
use pmacc_cpu::{Op, Trace};

fn percentile(sorted: &[u32], p: usize) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

fn analyze(name: &str, trace: &Trace) {
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut log_records = 0u64;
    let mut flushes = 0u64;
    let mut fences = 0u64;
    let mut compute = 0u64;
    let mut lines: HashSet<u64> = HashSet::new();
    let mut persistent_lines: HashSet<u64> = HashSet::new();
    for op in trace.ops() {
        match *op {
            Op::Compute(n) => compute += u64::from(n),
            Op::Load { addr } => {
                loads += 1;
                lines.insert(addr.line().raw());
            }
            Op::Store { addr, .. } => {
                stores += 1;
                lines.insert(addr.line().raw());
                if addr.is_persistent() {
                    persistent_lines.insert(addr.line().raw());
                }
            }
            Op::LogStore { addr, .. } => {
                log_records += 1;
                lines.insert(addr.line().raw());
            }
            Op::Flush { .. } => flushes += 1,
            Op::Fence | Op::PCommit => fences += 1,
            Op::TxBegin | Op::TxEnd => {}
        }
    }
    let mut sizes = trace.tx_store_counts();
    sizes.sort_unstable();
    let txs = sizes.len().max(1) as u64;

    println!("== {name}");
    println!("  ops                {}", trace.op_count());
    println!("  transactions       {}", trace.transactions());
    println!(
        "  per tx             {:.1} ops, {:.1} loads, {:.1} stores",
        trace.op_count() as f64 / txs as f64,
        loads as f64 / txs as f64,
        stores as f64 / txs as f64
    );
    println!(
        "  op mix             {loads} loads, {stores} stores, {compute} compute, \
         {log_records} log records, {flushes} clwb, {fences} fences"
    );
    println!(
        "  write-set size     p50 {}, p90 {}, p99 {}, max {}",
        percentile(&sizes, 50),
        percentile(&sizes, 90),
        percentile(&sizes, 99),
        sizes.last().copied().unwrap_or(0)
    );
    println!(
        "  TC sizing hint     {} B/core covers the p99 write set \
         (one 64 B entry per store)",
        (u64::from(percentile(&sizes, 99)) * 64).next_power_of_two()
    );
    println!(
        "  footprint          {} lines touched ({} KiB), {} persistent-dirty",
        lines.len(),
        lines.len() * 64 / 1024,
        persistent_lines.len()
    );
    if let Err(e) = trace.validate() {
        println!("  WARNING: {e}");
    }
}

fn spec() -> Spec {
    Spec {
        name: "tracestat",
        flags: Vec::new(),
        positional: Some("FILE [FILE ...]"),
        notes: "FILE is a trace in the pmacc_cpu::text format\n".into(),
    }
}

fn main() -> ExitCode {
    cli::main(&spec(), run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.positionals().is_empty() {
        return Err("no trace file given (see --help)".into());
    }
    for file in args.positionals() {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let trace = from_text(&text).map_err(|e| format!("{file}: {e}"))?;
        analyze(file, &trace);
    }
    Ok(ExitCode::SUCCESS)
}
