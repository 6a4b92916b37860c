//! Open-system service hooks: request timestamping, admission control
//! and queue-pressure backpressure for [`crate::System`].
//!
//! The closed-loop simulator replays each core's trace as fast as the
//! machine allows. In service mode every transaction in the trace is one
//! *request* with an externally assigned arrival cycle: a core idles
//! until the next request arrives, defers admission while the scheme's
//! persistence queues are saturated (backpressure), sheds requests whose
//! queueing delay exceeds a deadline (admission control), and records
//! per-request sojourn/wait/service times — plus a stall-cycle
//! attribution split between the transaction-cache drain path and NVM
//! queue pressure — into [`pmacc_telemetry::Log2Histogram`]s.
//!
//! The hooks are engaged with [`crate::System::enable_serve`] and read
//! back with [`crate::System::serve_stats`]; a system without a
//! [`ServeConfig`] behaves exactly as before (closed loop).

use pmacc_cpu::{CoreStats, Op, StallKind};
use pmacc_telemetry::Log2Histogram;
use pmacc_types::{ConfigError, Cycle, SimError};

use crate::System;

/// Cycles a core waits before re-testing admission when the transaction
/// cache or the NVM write queue is saturated.
pub const SERVE_RETRY: Cycle = 32;

/// Open-system service configuration for one run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-core absolute arrival cycles, one per transaction in that
    /// core's trace, non-decreasing. `arrivals[c][k]` is when request
    /// `k` (the `k`-th transaction of core `c`'s trace) reaches the
    /// server.
    pub arrivals: Vec<Vec<Cycle>>,
    /// Backpressure high watermark on the core's transaction-cache
    /// occupancy, as a fraction of its capacity; new requests are not
    /// admitted at or above it. Never triggers on schemes without a TC.
    pub tc_high: f64,
    /// Backpressure high watermark on the NVM write queue, as a fraction
    /// of its depth.
    pub nvm_write_high: f64,
    /// Admission deadline: a request still waiting for admission this
    /// many cycles after its arrival is shed (its transaction is skipped
    /// and counted in [`ServeCoreStats::shed`]). Zero disables shedding.
    pub max_wait: Cycle,
}

impl ServeConfig {
    /// A configuration with the default watermarks (admit below 75% TC
    /// occupancy and 85% NVM write-queue fill) and no admission deadline.
    #[must_use]
    pub fn new(arrivals: Vec<Vec<Cycle>>) -> Self {
        ServeConfig {
            arrivals,
            tc_high: 0.75,
            nvm_write_high: 0.85,
            max_wait: 0,
        }
    }
}

/// Per-core open-system statistics (all cycle values are absolute
/// durations).
#[derive(Debug, Clone, Default)]
pub struct ServeCoreStats {
    /// Sojourn time per completed request: arrival to `TX_END`
    /// retirement.
    pub latency: Log2Histogram,
    /// Queueing delay per completed request: arrival to admission.
    pub wait: Log2Histogram,
    /// Service time per completed request: admission to `TX_END`
    /// retirement.
    pub service: Log2Histogram,
    /// Per-request stall cycles attributed to the persist path
    /// (transaction-cache full, blocking commit flush, pinned-set
    /// blocking).
    pub tc_stall: Log2Histogram,
    /// Per-request stall cycles attributed to NVM/memory queue pressure
    /// (loads, store-buffer back-ups, fences).
    pub nvm_stall: Log2Histogram,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by the admission deadline.
    pub shed: u64,
    /// Admission attempts deferred by queue-pressure backpressure.
    pub backpressure_events: u64,
    /// Total cycles requests spent held back by backpressure.
    pub backpressure_cycles: u64,
}

/// Snapshot of a core's per-kind stall totals, in [`StallKind::all`]
/// order.
pub(crate) fn stall_snapshot(stats: &CoreStats) -> [u64; 7] {
    let mut out = [0u64; 7];
    for (slot, kind) in out.iter_mut().zip(StallKind::all()) {
        *slot = stats.stall(kind);
    }
    out
}

/// Splits a completed request's stall-cycle deltas into the persist-path
/// share (`tc`) and the memory-queue share (`nvm`).
pub(crate) fn attribute_stalls(start: &[u64; 7], end: &[u64; 7]) -> (u64, u64) {
    let mut tc = 0u64;
    let mut nvm = 0u64;
    for (i, kind) in StallKind::all().iter().enumerate() {
        let d = end[i].saturating_sub(start[i]);
        match kind {
            StallKind::TxCacheFull
            | StallKind::CommitFlush
            | StallKind::PinBlocked
            | StallKind::Conflict => tc += d,
            StallKind::Load | StallKind::StoreBufferFull | StallKind::Fence => nvm += d,
        }
    }
    (tc, nvm)
}

/// An admitted request in flight on one core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqTiming {
    pub arrival: Cycle,
    pub admitted: Cycle,
    pub stalls: [u64; 7],
}

/// Service-mode state for one core.
#[derive(Debug)]
pub(crate) struct ServeCore {
    /// Arrival cycle of each request (one per trace transaction).
    pub arrivals: Vec<Cycle>,
    /// Index of each request's `TX_BEGIN` in the *instrumented* trace
    /// (shed requests jump from `starts[k]` to `starts[k + 1]`).
    pub starts: Vec<usize>,
    /// Next request to admit.
    pub next_req: usize,
    /// The admitted, not yet completed request.
    pub cur: Option<ReqTiming>,
    /// Accumulated statistics.
    pub stats: ServeCoreStats,
}

/// Whole-system service-mode state.
#[derive(Debug)]
pub(crate) struct ServeState {
    pub cores: Vec<ServeCore>,
    pub tc_high: f64,
    pub nvm_write_high: f64,
    pub max_wait: Cycle,
}

impl System {
    /// Switches the run into open-system service mode: every transaction
    /// of every core's trace becomes a *request* with the given arrival
    /// cycle. Cores idle until a request arrives, defer admission while
    /// the transaction cache or the NVM write queue is saturated
    /// ([`ServeConfig::tc_high`] / [`ServeConfig::nvm_write_high`]), shed
    /// requests whose queueing delay exceeds [`ServeConfig::max_wait`],
    /// and record per-request latency into the histograms returned by
    /// [`System::serve_stats`].
    ///
    /// Must be called before the first [`System::run`]/
    /// [`System::run_until`] step; intended for runs with
    /// [`crate::RunConfig::warmup_commits`] of zero (a measurement reset would
    /// clear the stall baselines mid-request).
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the arrival vectors do not match
    /// the core count or the per-core transaction counts, or if any
    /// per-core arrival sequence decreases.
    pub fn enable_serve(&mut self, cfg: ServeConfig) -> Result<(), SimError> {
        if cfg.arrivals.len() != self.cfg.cores {
            return Err(ConfigError::new(format!(
                "{} arrival streams supplied for {} cores",
                cfg.arrivals.len(),
                self.cfg.cores
            ))
            .into());
        }
        let mut cores = Vec::with_capacity(self.cfg.cores);
        for (c, arrivals) in cfg.arrivals.into_iter().enumerate() {
            let starts: Vec<usize> = (0..self.traces[c].len())
                .filter(|&i| matches!(self.traces[c].get(i), Some(Op::TxBegin)))
                .collect();
            if arrivals.len() != starts.len() {
                return Err(ConfigError::new(format!(
                    "core {c}: {} arrivals for {} trace transactions",
                    arrivals.len(),
                    starts.len()
                ))
                .into());
            }
            if arrivals.windows(2).any(|w| w[0] > w[1]) {
                return Err(
                    ConfigError::new(format!("core {c}: arrivals must be non-decreasing")).into(),
                );
            }
            cores.push(ServeCore {
                arrivals,
                starts,
                next_req: 0,
                cur: None,
                stats: ServeCoreStats::default(),
            });
        }
        self.serve = Some(ServeState {
            cores,
            tc_high: cfg.tc_high,
            nvm_write_high: cfg.nvm_write_high,
            max_wait: cfg.max_wait,
        });
        Ok(())
    }

    /// The per-core open-system statistics, if the run is in service
    /// mode.
    #[must_use]
    pub fn serve_stats(&self) -> Option<Vec<&ServeCoreStats>> {
        self.serve
            .as_ref()
            .map(|s| s.cores.iter().map(|c| &c.stats).collect())
    }

    /// Whether core `c`'s admission gate sees queue saturation: the
    /// core's transaction cache at or above its high watermark, or the
    /// NVM write queue full / above its fill watermark.
    fn serve_pressure(&self, c: usize) -> bool {
        let Some(s) = self.serve.as_ref() else {
            return false;
        };
        let tc_hot = self.scheme.txcaches().get(c).is_some_and(|tc| {
            tc.capacity() > 0 && tc.occupancy() as f64 >= s.tc_high * tc.capacity() as f64
        });
        let wq = self.cfg.nvm.write_queue as f64;
        let nvm_hot = self.nvm.write_queue_len() as f64 >= s.nvm_write_high * wq;
        tc_hot || nvm_hot
    }

    /// The open-system admission gate, consulted at each request boundary
    /// (`TX_BEGIN`). Returns `true` when the core must not start the
    /// transaction this step: it idles until the request's arrival,
    /// defers under queue pressure, or sheds the request entirely
    /// (jumping its trace segment and burning its transaction serial so
    /// later serials stay aligned with the recovery oracle's write
    /// table).
    pub(crate) fn serve_gate(&mut self, c: usize) -> bool {
        let (k, arrival, max_wait) = {
            let Some(s) = self.serve.as_ref() else {
                return false;
            };
            let sc = &s.cores[c];
            if sc.cur.is_some() {
                return false;
            }
            let Some(&arr) = sc.arrivals.get(sc.next_req) else {
                return false;
            };
            (sc.next_req, arr, s.max_wait)
        };
        let now = self.cores[c].time;
        if now < arrival {
            // No request yet: the core idles (batching in
            // `handle_core_step` turns a long idle into an event-queue
            // jump, not a spin).
            self.cores[c].time = arrival;
            return true;
        }
        if max_wait > 0 && now - arrival > max_wait {
            // Admission control: the request waited past its deadline.
            let end = {
                let s = self.serve.as_ref().expect("serve state checked above");
                s.cores[c]
                    .starts
                    .get(k + 1)
                    .copied()
                    .unwrap_or_else(|| self.traces[c].len())
            };
            self.cores[c].idx = end;
            self.cores[c].regs.skip();
            let s = self.serve.as_mut().expect("serve state checked above");
            s.cores[c].stats.shed += 1;
            s.cores[c].next_req += 1;
            return true;
        }
        if self.serve_pressure(c) {
            // Backpressure: hold the request and retry shortly.
            self.cores[c].time = now + SERVE_RETRY;
            let s = self.serve.as_mut().expect("serve state checked above");
            s.cores[c].stats.backpressure_events += 1;
            s.cores[c].stats.backpressure_cycles += SERVE_RETRY;
            return true;
        }
        // Admit: timestamp the request and snapshot the stall baselines
        // for completion-time attribution.
        let stalls = stall_snapshot(&self.cores[c].stats);
        let s = self.serve.as_mut().expect("serve state checked above");
        s.cores[c].cur = Some(ReqTiming {
            arrival,
            admitted: now,
            stalls,
        });
        s.cores[c].next_req += 1;
        false
    }

    /// Books a completed request's sojourn/wait/service times and its
    /// stall attribution (no-op outside service mode).
    pub(crate) fn serve_complete(&mut self, c: usize) {
        if self.serve.is_none() {
            return;
        }
        let now = self.cores[c].time;
        let end_stalls = stall_snapshot(&self.cores[c].stats);
        let s = self.serve.as_mut().expect("checked above");
        let Some(req) = s.cores[c].cur.take() else {
            return;
        };
        let st = &mut s.cores[c].stats;
        st.completed += 1;
        st.latency.record(now.saturating_sub(req.arrival));
        st.wait.record(req.admitted.saturating_sub(req.arrival));
        st.service.record(now.saturating_sub(req.admitted));
        let (tc, nvm) = attribute_stalls(&req.stalls, &end_stalls);
        st.tc_stall.record(tc);
        st.nvm_stall.record(nvm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_attribution_splits_by_kind() {
        let start = [10, 0, 5, 0, 0, 0, 0];
        let end = [30, 4, 5, 100, 2, 1, 8];
        let (tc, nvm) = attribute_stalls(&start, &end);
        assert_eq!(tc, 100 + 2 + 1 + 8);
        assert_eq!(nvm, 20 + 4);
    }
}
