//! The benchmark's workloads: which simulator cells each one runs, and
//! the workload-generation keys its set-up phase fills.

use core::fmt;
use std::str::FromStr;

use pmacc_bench::crashgrid::CellSpec;
use pmacc_bench::grid::Scale;
use pmacc_types::rng::stream_seed;
use pmacc_types::{MachineConfig, SchemeKind};
use pmacc_workloads::{WorkloadKind, WorkloadParams};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 6–10 grid: the five Table 3 workloads × the five
    /// schemes on the scaled DAC'17 machine at `Scale::Quick` sizes.
    /// Dominated by `System` construction over large initial images.
    GridQuick,
    /// Long traces over small initial images, rbtree and a
    /// quarter-shared hashtable × {optimal, tc, sp, nvllc}: dominated by
    /// the event loop, with MESI coherence traffic on the hashtable.
    LongSim,
    /// Evenly spaced crash points on hashtable for tc, nvllc, sp and
    /// eadr plus one start-gap wear cell: dominated by crash snapshots,
    /// recovery and the recovery check.
    CrashSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    #[must_use]
    pub fn all() -> [Workload; 3] {
        [Workload::GridQuick, Workload::LongSim, Workload::CrashSweep]
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::GridQuick => "grid-quick",
            Workload::LongSim => "long-sim",
            Workload::CrashSweep => "crash-sweep",
        })
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::all()
            .into_iter()
            .find(|w| w.to_string() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (grid-quick, long-sim, crash-sweep)"))
    }
}

/// How large the cells are: `Full` is the benchmark, `Tiny` the same
/// shapes shrunk for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Test-sized cells (well under a second per pass).
    Tiny,
}

/// What a cell does after construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `System::run` to completion.
    Run,
    /// `System::run` to completion, then one crash point after
    /// quiescence: the final durable image must recover to the journal.
    RunAndCheck,
    /// `System::run` to learn the run length, then a fresh system stopped
    /// at this many evenly spaced crash points.
    Sweep(usize),
}

/// One simulator cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable label, `workload/scheme[/variant]`.
    pub label: String,
    /// The simulated machine, scheme included.
    pub machine: MachineConfig,
    /// Table 3 benchmark run on every core.
    pub kind: WorkloadKind,
    /// Generation parameters (per-core seeds derive from `params.seed`).
    pub params: WorkloadParams,
    /// What the cell does after construction.
    pub mode: Mode,
    /// Whether the cell's IPC enters `fig6_abs_err` (cells on the
    /// workload's common machine; `Optimal` is the normalizer).
    pub fig6: bool,
}

impl Cell {
    fn new(machine: MachineConfig, kind: WorkloadKind, params: WorkloadParams, mode: Mode) -> Self {
        Cell {
            label: format!("{kind}/{}", machine.scheme),
            machine,
            kind,
            params,
            mode,
            fig6: true,
        }
    }

    /// The scheme the cell runs.
    #[must_use]
    pub fn scheme(&self) -> SchemeKind {
        self.machine.scheme
    }

    /// The `(kind, params)` key `System::for_workload` builds for each
    /// core (the same per-core seed derivation it uses).
    #[must_use]
    pub fn build_keys(&self) -> Vec<(WorkloadKind, WorkloadParams)> {
        (0..self.machine.cores)
            .map(|core| {
                let mut p = self.params;
                p.seed = stream_seed(self.params.seed, core as u64);
                (self.kind, p)
            })
            .collect()
    }
}

/// The cells of one workload at one seed.
#[must_use]
pub fn cells(workload: Workload, seed: u64, size: Size) -> Vec<Cell> {
    match workload {
        Workload::GridQuick => grid_quick(seed, size),
        Workload::LongSim => long_sim(seed, size),
        Workload::CrashSweep => crash_sweep(seed, size),
    }
}

/// Every distinct generation key the cells need, in first-use order.
#[must_use]
pub fn build_keys(cells: &[Cell]) -> Vec<(WorkloadKind, WorkloadParams)> {
    let mut keys = Vec::new();
    for key in cells.iter().flat_map(Cell::build_keys) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

/// The TC cells (the paper's scheme) end with a crash point after
/// quiescence; the others only run. A check costs time in proportion to
/// the initial image, so checking every scheme would swamp the layers
/// these workloads are meant to load.
fn final_check(scheme: SchemeKind) -> Mode {
    if scheme == SchemeKind::TxCache {
        Mode::RunAndCheck
    } else {
        Mode::Run
    }
}

fn grid_quick(seed: u64, size: Size) -> Vec<Cell> {
    let mut params = Scale::Quick.params(seed);
    if size == Size::Tiny {
        params.num_ops = 60;
        params.setup_items = 300;
        params.key_space = 2_000;
    }
    let mut out = Vec::new();
    for kind in WorkloadKind::all() {
        for scheme in SchemeKind::all() {
            let machine = Scale::Quick.machine().with_scheme(scheme);
            out.push(Cell::new(machine, kind, params, final_check(scheme)));
        }
    }
    out
}

fn long_sim(seed: u64, size: Size) -> Vec<Cell> {
    let (num_ops, setup_items) = match size {
        Size::Full => (8_000, 2_000),
        Size::Tiny => (150, 200),
    };
    let mut out = Vec::new();
    for (kind, sharing) in [(WorkloadKind::Rbtree, 0), (WorkloadKind::Hashtable, 2)] {
        let params = WorkloadParams {
            num_ops,
            setup_items,
            key_space: setup_items as u64 * 10,
            sharing,
            ..WorkloadParams::evaluation(seed)
        };
        for scheme in [
            SchemeKind::Optimal,
            SchemeKind::TxCache,
            SchemeKind::Sp,
            SchemeKind::NvLlc,
        ] {
            let machine = MachineConfig::dac17_scaled().with_scheme(scheme);
            out.push(Cell::new(machine, kind, params, final_check(scheme)));
        }
    }
    out
}

fn crash_sweep(seed: u64, size: Size) -> Vec<Cell> {
    let (params, points) = match size {
        Size::Full => {
            let params = WorkloadParams {
                num_ops: 400,
                setup_items: 2_000,
                key_space: 8_000,
                ..WorkloadParams::evaluation(seed)
            };
            (params, 200)
        }
        Size::Tiny => (WorkloadParams::tiny(seed), 60),
    };
    let kind = WorkloadKind::Hashtable;
    let mut out: Vec<Cell> = [
        SchemeKind::TxCache,
        SchemeKind::NvLlc,
        SchemeKind::Sp,
        SchemeKind::Eadr,
    ]
    .into_iter()
    .map(|scheme| {
        let machine = MachineConfig::small().with_scheme(scheme);
        Cell::new(machine, kind, params, Mode::Sweep(points))
    })
    .collect();
    // The crash campaign's start-gap cell: recovery must also rebuild
    // the wear remap from the snapshot.
    let wear = CellSpec {
        workload: kind,
        scheme: SchemeKind::TxCache,
        cores: MachineConfig::small().cores,
        tc_entries: None,
        sharing: 0,
        wear: true,
    };
    out.push(Cell {
        label: wear.label(),
        fig6: false,
        ..Cell::new(wear.machine(), kind, params, Mode::Sweep(points))
    });
    // Not crash-checked (no persistence): the normalizer for fig6_abs_err.
    let optimal = MachineConfig::small().with_scheme(SchemeKind::Optimal);
    out.push(Cell::new(optimal, kind, params, Mode::Run));
    out
}
