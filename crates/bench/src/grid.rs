//! The §5 experiment matrix: 4 schemes × 5 workloads on the Table 2
//! machine (capacity-scaled; see `EXPERIMENTS.md`).
//!
//! Every cell is one independent [`System`] run — a (workload, scheme)
//! pair at a [`Scale`] and seed — so the grid fans out over the
//! [`crate::pool`] worker pool; [`run_grid_opts`] takes the worker
//! count explicitly. Results are keyed and ordered
//! deterministically regardless of which worker finished first, so the
//! same seed produces the same [`GridResults`] (and the same rendered
//! `results.md`) at any job count.
//!
//! ```no_run
//! use pmacc_bench::grid::{run_grid_opts, Scale};
//! use pmacc_bench::pool::Options;
//! use pmacc::RunConfig;
//!
//! // The whole 20-cell grid on 4 workers, with per-cell progress lines.
//! let grid = run_grid_opts(
//!     Scale::Quick,
//!     42,
//!     &RunConfig::default(),
//!     &Options { jobs: 4, progress: true },
//! )?;
//! println!("TC mean IPC vs Optimal: {:.3}",
//!     grid.mean_normalized(pmacc_types::SchemeKind::TxCache, pmacc::RunReport::ipc));
//! # Ok::<(), pmacc_types::SimError>(())
//! ```

use std::collections::BTreeMap;

use pmacc::{RunConfig, RunReport, System};

use pmacc_types::{MachineConfig, SchemeKind, SimError};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

use crate::pool::{self, Job, Options};

/// How large the simulated runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// ~1k transactions per core: seconds per grid, for smoke runs, the
    /// CI gates and the host-speed benchmark.
    Quick,
    /// ~5k transactions per core: a couple of minutes for the full grid.
    #[default]
    Default,
    /// ~20k transactions per core: the numbers recorded in
    /// `EXPERIMENTS.md`.
    Full,
}

impl core::fmt::Display for Scale {
    /// The lower-case name used on the CLI and in JSON reports
    /// (`quick`, `default`, `full`).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        })
    }
}

impl Scale {
    /// Workload parameters at this scale.
    #[must_use]
    pub fn params(self, seed: u64) -> WorkloadParams {
        let mut p = WorkloadParams::evaluation(seed);
        match self {
            Scale::Quick => {
                p.num_ops = 1_000;
                p.setup_items = 60_000;
                p.key_space = 200_000;
            }
            Scale::Default => {
                p.num_ops = 5_000;
            }
            Scale::Full => {}
        }
        p
    }

    /// The machine the grid runs on.
    #[must_use]
    pub fn machine(self) -> MachineConfig {
        MachineConfig::dac17_scaled()
    }
}

/// Results of one grid run, keyed by workload then scheme.
#[derive(Debug)]
pub struct GridResults {
    /// The reports.
    pub results: BTreeMap<(WorkloadKind, SchemeKind), RunReport>,
    /// Scale used.
    pub scale: Scale,
}

impl GridResults {
    /// The report for one cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the grid.
    #[must_use]
    pub fn get(&self, kind: WorkloadKind, scheme: SchemeKind) -> &RunReport {
        self.results
            .get(&(kind, scheme))
            .expect("cell was simulated")
    }

    /// A metric for one cell normalized to the Optimal scheme of the same
    /// workload; `f` extracts the metric.
    #[must_use]
    pub fn normalized(
        &self,
        kind: WorkloadKind,
        scheme: SchemeKind,
        f: impl Fn(&RunReport) -> f64,
    ) -> f64 {
        let base = f(self.get(kind, SchemeKind::Optimal));
        if base == 0.0 {
            0.0
        } else {
            f(self.get(kind, scheme)) / base
        }
    }

    /// Arithmetic mean of a normalized metric across all workloads.
    #[must_use]
    pub fn mean_normalized(
        &self,
        scheme: SchemeKind,
        f: impl Fn(&RunReport) -> f64 + Copy,
    ) -> f64 {
        let all = WorkloadKind::all();
        all.iter()
            .map(|k| self.normalized(*k, scheme, f))
            .sum::<f64>()
            / all.len() as f64
    }
}

/// Runs the grid with an explicit worker count: every (workload, scheme)
/// cell becomes one job on the [`crate::pool`] worker pool.
///
/// The result map is keyed, not positional, and the pool returns jobs in
/// submission order, so `GridResults` is identical at any `opts.jobs` —
/// the determinism regression test compares `jobs = 1` against
/// `jobs = 4` bit for bit.
///
/// # Errors
///
/// Returns the first simulation error encountered, in cell submission
/// order.
///
/// # Panics
///
/// If a cell panics, the whole grid fails with a panic naming the
/// offending `workload/scheme` cell and the seed, so it can be replayed
/// serially (`--jobs 1`) or alone (`simulate --workload W --scheme S`).
pub fn run_grid_opts(
    scale: Scale,
    seed: u64,
    run_cfg: &RunConfig,
    opts: &Options,
) -> Result<GridResults, SimError> {
    let mut keys = Vec::new();
    for kind in WorkloadKind::all() {
        for scheme in SchemeKind::all() {
            keys.push((kind, scheme));
        }
    }
    let jobs: Vec<Job<Result<RunReport, SimError>>> = keys
        .iter()
        .map(|&(kind, scheme)| {
            let machine = scale.machine().with_scheme(scheme);
            let run_cfg = *run_cfg;
            Job::new(format!("{kind}/{scheme}"), move || {
                run_cell_with(machine, kind, scale, seed, &run_cfg)
            })
        })
        .collect();
    let reports = pool::run_jobs(jobs, opts.jobs, opts.progress)
        .unwrap_or_else(|p| panic!("grid cell {} (seed {seed}) panicked: {}", p.label, p.message));
    let mut results = BTreeMap::new();
    for (key, report) in keys.into_iter().zip(reports) {
        results.insert(key, report?);
    }
    Ok(GridResults { results, scale })
}

/// Runs an arbitrary list of labelled cells — the ablation sweeps' shape
/// — on the worker pool, returning reports in submission order.
///
/// # Errors
///
/// Returns the first simulation error encountered, in submission order.
///
/// # Panics
///
/// As [`run_grid_opts`]: a panicking cell fails the batch with the cell
/// label and seed named.
pub fn run_cells(
    cells: Vec<(String, MachineConfig, WorkloadKind)>,
    scale: Scale,
    seed: u64,
    run_cfg: &RunConfig,
    opts: &Options,
) -> Result<Vec<RunReport>, SimError> {
    let jobs: Vec<Job<Result<RunReport, SimError>>> = cells
        .into_iter()
        .map(|(label, machine, kind)| {
            let run_cfg = *run_cfg;
            Job::new(label, move || {
                run_cell_with(machine, kind, scale, seed, &run_cfg)
            })
        })
        .collect();
    pool::run_jobs(jobs, opts.jobs, opts.progress)
        .unwrap_or_else(|p| panic!("cell {} (seed {seed}) panicked: {}", p.label, p.message))
        .into_iter()
        .collect()
}

/// Runs one cell of the grid (or an ablation variant of it).
///
/// # Errors
///
/// Returns the simulation error, if any.
pub fn run_cell(
    machine: MachineConfig,
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
) -> Result<RunReport, SimError> {
    run_cell_with(machine, kind, scale, seed, &RunConfig::default())
}

/// Runs one cell under explicit run options.
///
/// # Errors
///
/// Returns the simulation error, if any.
pub fn run_cell_with(
    machine: MachineConfig,
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    run_cfg: &RunConfig,
) -> Result<RunReport, SimError> {
    let params = scale.params(seed);
    let mut sys = System::for_workload(machine, kind, &params, run_cfg)?;
    sys.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_valid_params() {
        for scale in [Scale::Quick, Scale::Default, Scale::Full] {
            let p = scale.params(1);
            assert!(p.num_ops >= 1_000);
            assert!(scale.machine().validate().is_ok());
        }
    }

    #[test]
    fn normalized_is_one_for_optimal() {
        // A tiny synthetic grid with hand-made reports would need a lot of
        // plumbing; instead check the arithmetic on a minimal real run.
        let mut results = BTreeMap::new();
        let mut machine = MachineConfig::small();
        machine.cores = 2;
        for scheme in [SchemeKind::Optimal, SchemeKind::TxCache] {
            let mut p = WorkloadParams::tiny(1);
            p.num_ops = 20;
            let mut sys = pmacc::System::for_workload(
                machine.clone().with_scheme(scheme),
                WorkloadKind::Sps,
                &p,
                &RunConfig::default(),
            )
            .unwrap();
            results.insert((WorkloadKind::Sps, scheme), sys.run().unwrap());
        }
        let grid = GridResults {
            results,
            scale: Scale::Quick,
        };
        let r = grid.normalized(WorkloadKind::Sps, SchemeKind::Optimal, RunReport::ipc);
        assert!((r - 1.0).abs() < 1e-12);
    }
}
