//! Runs one workload: set-up, then timed passes over its cells until the
//! time budget is spent, with every output checked.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pmacc::recovery::{check_recovery, recover};
use pmacc::{scheme, stride_trace, RunConfig, RunReport, System};
use pmacc_bench::crashgrid::Mutation;
use pmacc_telemetry::{Json, ToJson};
use pmacc_types::SimError;
use pmacc_workloads::{build, build_shared, WorkloadTrace};

use crate::checks;
use crate::host;
use crate::spans::Tracer;
use crate::workload::{build_keys, cells, Cell, Mode, Size, Workload};

/// Everything that selects a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Host time budget of the timed passes (at least one pass runs).
    pub seconds: f64,
    /// Record spans (the per-layer run) instead of the untraced run.
    pub trace: bool,
    /// Cell sizes.
    pub size: Size,
    /// Recovery defect applied to every crash snapshot (the mutation
    /// self-test); `Mutation::None` when benchmarking.
    pub mutation: Mutation,
}

impl Options {
    /// The benchmark's settings for one workload, seed and budget.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Full,
            mutation: Mutation::None,
        }
    }
}

/// One cell's outputs in one pass.
#[derive(Debug, Default)]
pub struct CellOut {
    /// Host seconds the cell took, checks included.
    pub secs: f64,
    /// The run report (`None` if the simulation failed).
    pub report: Option<RunReport>,
    /// FNV-1a digest of the report body without the engine counters.
    pub digest: u64,
    /// Trace ops retired by every system the cell simulated.
    pub ops: u64,
    /// Events processed by every system the cell simulated.
    pub events: u64,
    /// Per crash point: snapshot + recover + check host time, in ms.
    pub point_ms: Vec<f64>,
    /// Per crash point: committed transactions in the journal.
    pub journal_len: Vec<usize>,
    /// Per crash point: words in the durable NVM image.
    pub image_words: Vec<usize>,
}

/// One timed pass over every cell.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds the pass took.
    pub secs: f64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Per-cell outputs, in cell order.
    pub cells: Vec<CellOut>,
    /// Index range of the pass's spans in the tracer.
    pub spans: std::ops::Range<usize>,
}

impl Pass {
    /// Trace ops retired in the pass.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    /// Events processed in the pass.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Crash points checked in the pass.
    #[must_use]
    pub fn points(&self) -> usize {
        self.cells.iter().map(|c| c.point_ms.len()).sum()
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells run plus crash points checked.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one attempt; `what` names it in a failure message.
    fn record(&mut self, result: Result<(), String>, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{}: {e}", what()));
            }
        }
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Run {
    /// The options it ran with.
    pub opts: Options,
    /// The cells.
    pub cells: Vec<Cell>,
    /// Host seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Index ranges of each set-up repetition's spans.
    pub setup_spans: Vec<std::ops::Range<usize>>,
    /// Index range of the instrumentation phase's spans (traced run).
    pub instrument_spans: std::ops::Range<usize>,
    /// The timed passes, in order.
    pub passes: Vec<Pass>,
    /// Attempts and failures.
    pub tally: Tally,
    /// Peak resident set size in MiB after set-up and the first pass
    /// (later passes repeat the same allocations).
    pub peak_rss_mb: f64,
    /// The span recorder (empty in the untraced run).
    pub tracer: Tracer,
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Run {
    let cells = cells(opts.workload, opts.seed, opts.size);
    let mut tracer = Tracer::new(opts.trace);
    let (setup_secs, setup_spans) = setup(&cells, &mut tracer);
    let expected_tx: Vec<u64> = cells
        .iter()
        .map(|c| {
            c.build_keys()
                .iter()
                .map(|(k, p)| build_shared(*k, p).trace.transactions())
                .sum()
        })
        .collect();
    let first = tracer.spans().len();
    if opts.trace {
        instrument_phase(&cells, &mut tracer);
    }
    let instrument_spans = first..tracer.spans().len();

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    // The traced run alternates untraced and traced passes so tracing
    // overhead is measured against the same cells in the same process.
    let min_passes = if opts.trace { 2 } else { 1 };
    // A pass starts only if one more (of the mean length so far) still
    // fits in the budget, so a run takes about `seconds`.
    while passes.len() < min_passes
        || start.elapsed().as_secs_f64() * (passes.len() + 1) as f64 / passes.len() as f64
            <= opts.seconds
    {
        let traced = opts.trace && passes.len() % 2 == 1;
        tracer.set_on(traced);
        let pass = run_pass(
            &cells,
            &expected_tx,
            opts,
            passes.first(),
            &mut tracer,
            &mut tally,
        );
        if passes.is_empty() {
            peak_rss_mb = host::peak_rss_mb();
        }
        passes.push(pass);
    }
    tracer.set_on(false);
    Run {
        opts: opts.clone(),
        cells,
        setup_secs,
        setup_spans,
        instrument_spans,
        passes,
        tally,
        peak_rss_mb,
        tracer,
    }
}

/// Minimum set-up repetitions; `setup_s` is their median.
const SETUP_MIN_SAMPLES: usize = 3;

/// Set-up repetitions stop once they have taken this long in total
/// (after the minimum count), so a cheap set-up is sampled often enough
/// for a steady median.
const SETUP_FLOOR_S: f64 = 0.5;

/// Upper bound on set-up repetitions.
const SETUP_MAX_SAMPLES: usize = 1001;

/// Generates every workload trace the cells need, several times: with
/// the unmemoized `build` (dropped after each repetition) until at least
/// `SETUP_MIN_SAMPLES - 1` repetitions and [`SETUP_FLOOR_S`] have passed, then
/// once through `build_shared`, which fills the memo the timed passes
/// read. Returns each repetition's host seconds and span range.
fn setup(cells: &[Cell], tracer: &mut Tracer) -> (Vec<f64>, Vec<std::ops::Range<usize>>) {
    let keys = build_keys(cells);
    let mut secs: Vec<f64> = Vec::new();
    let mut ranges = Vec::new();
    loop {
        let n = secs.len() + 1;
        let fill = n >= SETUP_MIN_SAMPLES
            && (n >= SETUP_MAX_SAMPLES || secs.iter().sum::<f64>() >= SETUP_FLOOR_S);
        let first = tracer.spans().len();
        let open = tracer.enter("setup", None);
        let t = Instant::now();
        let built: Vec<Arc<WorkloadTrace>> = keys
            .iter()
            .map(|(k, p)| {
                tracer.timed("workloads.build", None, || {
                    if fill {
                        build_shared(*k, p)
                    } else {
                        Arc::new(build(*k, p))
                    }
                })
            })
            .collect();
        secs.push(t.elapsed().as_secs_f64());
        tracer.exit(open);
        ranges.push(first..tracer.spans().len());
        drop(black_box(built));
        if fill {
            return (secs, ranges);
        }
    }
}

/// Times `scheme::instrument` on each cell's per-core traces (the part of
/// `System::for_workload` that depends on the scheme), once per cell.
fn instrument_phase(cells: &[Cell], tracer: &mut Tracer) {
    let open = tracer.enter("instrument", None);
    for (i, cell) in cells.iter().enumerate() {
        let traces: Vec<_> = cell
            .build_keys()
            .iter()
            .enumerate()
            .map(|(core, (k, p))| stride_trace(&build_shared(*k, p).trace, core))
            .collect();
        let out = tracer.timed("scheme.instrument", Some(i), || {
            traces
                .iter()
                .enumerate()
                .map(|(core, t)| scheme::instrument(cell.scheme(), core, t))
                .collect::<Vec<_>>()
        });
        drop(black_box(out));
    }
    tracer.exit(open);
}

/// Runs every cell once. A cell whose report differs from the same
/// cell's in `first` (the first pass) fails: the simulator must be
/// deterministic.
fn run_pass(
    cells: &[Cell],
    expected_tx: &[u64],
    opts: &Options,
    first_pass: Option<&Pass>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Pass {
    let first = tracer.spans().len();
    let open = tracer.enter("pass", None);
    let t = Instant::now();
    let mut outs = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let cell_open = tracer.enter("cell", Some(i));
        let t = Instant::now();
        let mut out = CellOut::default();
        let mut result = run_cell(
            i,
            cell,
            expected_tx[i],
            opts.mutation,
            tracer,
            tally,
            &mut out,
        );
        out.secs = t.elapsed().as_secs_f64();
        tracer.exit(cell_open);
        let then = first_pass
            .map(|p| &p.cells[i])
            .filter(|c| c.report.is_some());
        if result.is_ok() && then.is_some_and(|c| c.digest != out.digest) {
            result = Err("report differs from the first pass's".into());
        }
        tally.record(result, || cell.label.clone());
        outs.push(out);
    }
    let secs = t.elapsed().as_secs_f64();
    tracer.exit(open);
    Pass {
        secs,
        traced: tracer.is_on(),
        cells: outs,
        spans: first..tracer.spans().len(),
    }
}

fn sim(e: SimError) -> String {
    format!("simulation error: {e}")
}

fn run_cell(
    i: usize,
    cell: &Cell,
    expected_tx: u64,
    mutation: Mutation,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut CellOut,
) -> Result<(), String> {
    let c = Some(i);
    let rc = match cell.mode {
        Mode::Run | Mode::RunAndCheck => RunConfig::default(),
        // As the crash campaign runs its injection systems.
        Mode::Sweep(_) => RunConfig {
            sample_period: 0,
            ..RunConfig::default()
        },
    };
    let construct = |tracer: &mut Tracer| {
        tracer
            .timed("system.construct", c, || {
                System::for_workload(cell.machine.clone(), cell.kind, &cell.params, &rc)
            })
            .map_err(sim)
    };
    let mut sys = construct(tracer)?;
    let report = tracer.timed("system.run", c, || sys.run()).map_err(sim)?;
    out.ops += ops_of(&report);
    out.events += report.engine.events_processed;
    match cell.mode {
        Mode::Run => {}
        Mode::RunAndCheck => {
            let r = crash_point(&sys, i, mutation, tracer, out);
            tally.record(r, || format!("{} after quiescence", cell.label));
        }
        Mode::Sweep(n) => {
            drop(sys);
            let mut sweep = construct(tracer)?;
            for at in crash_points(report.cycles, n) {
                tracer
                    .timed("system.run", c, || sweep.run_until(at))
                    .map_err(sim)?;
                let r = crash_point(&sweep, i, mutation, tracer, out);
                tally.record(r, || format!("{} crash at cycle {at}", cell.label));
            }
            let swept = sweep.report();
            out.ops += ops_of(&swept);
            out.events += swept.engine.events_processed;
        }
    }
    let mut body = tracer.timed("report.json", c, || {
        let json = report.to_json();
        black_box(json.to_compact());
        json
    });
    if let Json::Obj(pairs) = &mut body {
        pairs.retain(|(k, _)| k != "engine");
    }
    out.digest = fnv1a(body.to_compact().as_bytes());
    let checked =
        checks::committed(&report, expected_tx).and_then(|()| checks::stats_identities(&report));
    out.report = Some(report);
    checked
}

/// `n` evenly spaced crash cycles over a run of `total` cycles, from the
/// first cycle to the last.
#[must_use]
pub fn crash_points(total: u64, n: usize) -> Vec<u64> {
    let total = total.max(1);
    let n = n.max(2) as u64;
    let mut out: Vec<u64> = (0..n).map(|k| 1 + (total - 1) * k / (n - 1)).collect();
    out.dedup();
    out
}

/// Snapshot, optional mutation, recovery and check at the system's
/// current cycle.
fn crash_point(
    sys: &System,
    i: usize,
    mutation: Mutation,
    tracer: &mut Tracer,
    out: &mut CellOut,
) -> Result<(), String> {
    let c = Some(i);
    let t = Instant::now();
    let mut state = tracer.timed("system.crash_state", c, || sys.crash_state());
    mutation.apply(&mut state);
    let recovered = tracer.timed("recovery.recover", c, || recover(&state));
    let checked = tracer.timed("recovery.check", c, || check_recovery(&state, &recovered));
    out.point_ms.push(t.elapsed().as_secs_f64() * 1e3);
    out.journal_len.push(state.journal.len());
    out.image_words.push(state.nvm.len());
    checked.map_err(|e| e.to_string())
}

fn ops_of(report: &RunReport) -> u64 {
    report.cores.iter().map(|c| c.ops.value()).sum()
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_span_the_run() {
        assert_eq!(crash_points(101, 5), vec![1, 26, 51, 76, 101]);
        assert_eq!(crash_points(1, 4), vec![1]);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
