//! The §5 experiment matrix: 5 schemes × 5 workloads on the Table 2
//! machine (capacity-scaled; see `EXPERIMENTS.md`).
//!
//! Every cell is one independent [`System`] run — a (workload, scheme)
//! pair at a [`Scale`] and seed — so the grid fans out over the
//! [`crate::pool`] worker pool; [`run_cells`] is the one runner every
//! simulating figure shares, [`run_keyed`] keys its reports (the grid
//! of [`run_grid_opts`] is one such map), and [`run_named_jobs`] is the
//! pool call that names a panicking cell and its seed. Results are
//! keyed and ordered deterministically regardless of which worker
//! finished first, so the same seed produces the same [`GridResults`]
//! (and the same rendered `results.md`) at any job count.
//!
//! ```no_run
//! use pmacc_bench::grid::{run_grid_opts, Scale};
//! use pmacc_bench::pool::Options;
//! use pmacc::RunConfig;
//!
//! // The whole 25-cell grid on 4 workers, with per-cell progress lines.
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

/// One simulation cell: the machine, the benchmark each core runs and
/// the workload parameters, under a label for progress lines and panic
/// reports.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Progress and panic label (for a grid cell: `workload/scheme`).
    pub label: String,
    /// The simulated machine, scheme included.
    pub machine: MachineConfig,
    /// The benchmark of each core (one entry per core).
    pub kinds: Vec<WorkloadKind>,
    /// Workload generation parameters.
    pub params: WorkloadParams,
}

impl Cell {
    /// A cell running `kind` on every core of `machine`.
    #[must_use]
    pub fn uniform(
        label: String,
        machine: MachineConfig,
        kind: WorkloadKind,
        params: WorkloadParams,
    ) -> Self {
        let kinds = vec![kind; machine.cores];
        Cell {
            label,
            machine,
            kinds,
            params,
        }
    }
}

/// Runs every (workload, scheme) cell of the grid on the worker pool.
///
/// The result map is keyed, not positional, so `GridResults` is
/// identical at any `opts.jobs` — the determinism regression test
/// compares `jobs = 1` against `jobs = 4` bit for bit.
///
/// # Errors
///
/// Returns the first simulation error encountered, in cell submission
/// order.
///
/// # Panics
///
/// As [`run_cells`]: a panicking cell fails the grid with the
/// `workload/scheme` cell and the seed named, so it can be replayed
/// serially (`--jobs 1`) or alone (`simulate --workload W --scheme S`).
pub fn run_grid_opts(
    scale: Scale,
    seed: u64,
    run_cfg: &RunConfig,
    opts: &Options,
) -> Result<GridResults, SimError> {
    let keys = WorkloadKind::all()
        .into_iter()
        .flat_map(|kind| SchemeKind::all().map(|scheme| (kind, scheme)));
    let results = run_keyed(keys, run_cfg, opts, |&(kind, scheme)| {
        let machine = scale.machine().with_scheme(scheme);
        Cell::uniform(format!("{kind}/{scheme}"), machine, kind, scale.params(seed))
    })?;
    Ok(GridResults { results, scale })
}

/// Runs one cell per key, in key order, and returns the reports keyed
/// the same way.
///
/// # Errors
///
/// Returns the first simulation error encountered, in key order.
///
/// # Panics
///
/// As [`run_cells`].
pub fn run_keyed<K: Ord>(
    keys: impl IntoIterator<Item = K>,
    run_cfg: &RunConfig,
    opts: &Options,
    cell: impl Fn(&K) -> Cell,
) -> Result<BTreeMap<K, RunReport>, SimError> {
    let keys: Vec<K> = keys.into_iter().collect();
    let cells = keys.iter().map(cell).collect();
    Ok(keys.into_iter().zip(run_cells(cells, run_cfg, opts)?).collect())
}

/// Runs a list of cells on the worker pool, one job per cell, returning
/// the reports in submission order (so the result is identical at any
/// `opts.jobs`).
///
/// # Errors
///
/// Returns the first simulation error encountered, in submission order.
///
/// # Panics
///
/// As [`run_named_jobs`].
pub fn run_cells(
    cells: Vec<Cell>,
    run_cfg: &RunConfig,
    opts: &Options,
) -> Result<Vec<RunReport>, SimError> {
    let seeds: Vec<(String, u64)> = cells
        .iter()
        .map(|c| (c.label.clone(), c.params.seed))
        .collect();
    let jobs = cells
        .into_iter()
        .map(|cell| {
            let run_cfg = *run_cfg;
            Job::new(cell.label, move || {
                System::for_workload_mix(cell.machine, &cell.kinds, &cell.params, &run_cfg)?.run()
            })
        })
        .collect();
    let seed_of = |label: &str| seeds.iter().find(|(l, _)| l == label).map_or(0, |s| s.1);
    run_named_jobs(jobs, opts, seed_of).into_iter().collect()
}

/// Runs `jobs` on the worker pool, returning their results in submission
/// order.
///
/// # Panics
///
/// If a job panics, the whole batch fails with a panic naming the job's
/// label and its seed (`seed_of` the label), so the cell can be replayed
/// serially (`--jobs 1`) or alone.
pub fn run_named_jobs<T: Send>(
    jobs: Vec<Job<T>>,
    opts: &Options,
    seed_of: impl Fn(&str) -> u64,
) -> Vec<T> {
    pool::run_jobs(jobs, opts.jobs, opts.progress).unwrap_or_else(|p| {
        let seed = seed_of(&p.label);
        panic!("cell {} (seed {seed}) panicked: {}", p.label, p.message)
    })
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
