//! Every table and figure of the paper's evaluation, plus the ablations
//! listed in `DESIGN.md`, each registered once in [`EXPERIMENTS`] with a
//! [`Render`] step that says what it reads.
//!
//! The renderers that *run* simulations (the ablation sweeps, recovery,
//! mix, sharing, wear, warm) take the pool [`Options`] and run their cells
//! through [`run_cells`]. Only [`recovery_table`], which crashes its runs
//! midway, and [`ablation_sp_fencing`], which pre-instruments its traces,
//! submit their own jobs to the worker pool. Renderers over an
//! already-computed [`GridResults`] are pure formatting.

use pmacc::energy::{energy_of, EnergyParams};
use pmacc::hwcost::HwOverhead;
use pmacc::recovery::{check_recovery, recover, recovery_cost};
use pmacc::scheme::facts;
use pmacc::scheme::sp::{self, SpMode};
use pmacc::{striped_workloads, RunConfig, RunReport, System};
use pmacc_cpu::StallKind;
use pmacc_types::{MachineConfig, SchemeKind, SimError, WriteCause};
use pmacc_workloads::{build, WorkloadKind, WorkloadParams};

use crate::grid::{run_cells, run_grid_opts, run_keyed, run_named_jobs, Cell, GridResults, Scale};
use crate::pool::{Job, Options};
use crate::table::{norm, FigTable};

/// A named metric extracted from a [`RunReport`].
type Metric = (&'static str, fn(&RunReport) -> f64);

/// One experiment of `reproduce`: its name and its render step.
pub struct Experiment {
    /// The name `reproduce` takes and `--list` prints.
    pub name: &'static str,
    /// What the experiment reads, and how it renders its table.
    pub render: Render,
}

/// An experiment's render step, by what it reads.
pub enum Render {
    /// Nothing beyond the scale and seed.
    Fixed(fn(Scale, u64) -> FigTable),
    /// The shared scheme × workload grid: one metric of every cell
    /// normalized to Optimal on the same workload, a row per workload
    /// plus a mean row.
    Normalized {
        /// Identifier, e.g. "Figure 6".
        id: &'static str,
        /// Title line.
        title: &'static str,
        /// Explanation shown under the title.
        caption: &'static str,
        /// The metric, extracted from one cell's report.
        metric: fn(&RunReport) -> f64,
    },
    /// The shared scheme × workload grid, any other table.
    Grid(fn(&GridResults) -> FigTable),
    /// Its own cells, run on the worker pool.
    Cells(fn(Scale, u64, &Options) -> Result<FigTable, SimError>),
}

impl Experiment {
    const fn new(name: &'static str, render: Render) -> Self {
        Experiment { name, render }
    }

    /// Whether the experiment reads the shared grid.
    #[must_use]
    pub fn reads_grid(&self) -> bool {
        matches!(self.render, Render::Normalized { .. } | Render::Grid(_))
    }

    /// Renders the experiment's table.
    ///
    /// # Errors
    ///
    /// Returns the first simulation error.
    ///
    /// # Panics
    ///
    /// Panics if the experiment reads the grid and `grid` is `None`.
    pub fn render(
        &self,
        scale: Scale,
        seed: u64,
        grid: Option<&GridResults>,
        opts: &Options,
    ) -> Result<FigTable, SimError> {
        let grid = || grid.expect("the grid runs when an experiment reads it");
        match self.render {
            Render::Fixed(f) => Ok(f(scale, seed)),
            Render::Normalized { id, title, caption, metric } => {
                let grid = grid();
                let mut cols = vec!["workload".to_string()];
                cols.extend(SchemeKind::all().iter().map(|s| facts(*s).label.to_string()));
                let mut t = FigTable::new(id, title, caption, cols);
                for kind in WorkloadKind::all() {
                    let mut row = vec![kind.to_string()];
                    for scheme in SchemeKind::all() {
                        row.push(norm(grid.normalized(kind, scheme, metric)));
                    }
                    t.push_row(row);
                }
                let mut mean = vec!["**mean**".to_string()];
                for scheme in SchemeKind::all() {
                    mean.push(norm(grid.mean_normalized(scheme, metric)));
                }
                t.push_row(mean);
                Ok(t)
            }
            Render::Grid(f) => Ok(f(grid())),
            Render::Cells(f) => f(scale, seed, opts),
        }
    }
}

/// Every experiment, in the order a bare `reproduce` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table2", Render::Fixed(|_, _| table2(&MachineConfig::dac17()))),
    Experiment::new("table3", Render::Fixed(table3)),
    Experiment::new("table1", Render::Fixed(|_, _| table1(&MachineConfig::dac17()))),
    Experiment::new("fig6", Render::Normalized {
        id: "Figure 6",
        title: "Performance improvements (IPC), normalized to Optimal",
        caption: "Paper: SP 0.477, TC 0.985, NVLLC 0.878 on average.",
        metric: RunReport::ipc,
    }),
    Experiment::new("fig7", Render::Normalized {
        id: "Figure 7",
        title: "Performance improvements (throughput, tx/cycle), normalized to Optimal",
        caption: "Paper: SP 0.306, TC 0.985, NVLLC ~0.878 on average.",
        metric: RunReport::throughput,
    }),
    Experiment::new("fig8", Render::Normalized {
        id: "Figure 8",
        title: "LLC miss rate, normalized to Optimal",
        caption: "Paper: NVLLC incurs ~6% higher LLC miss rate; TC matches Optimal.",
        metric: RunReport::llc_miss_rate,
    }),
    Experiment::new("fig9", Render::Normalized {
        id: "Figure 9",
        title: "Write traffic to the NVM, normalized to Optimal",
        caption: "Paper: SP ~2x Optimal; TC and NVLLC in between, with TC above NVLLC.",
        metric: |r| r.nvm_write_traffic() as f64,
    }),
    Experiment::new("fig9-breakdown", Render::Grid(fig9_breakdown)),
    Experiment::new("fig10", Render::Normalized {
        id: "Figure 10",
        title: "CPU persistent load latency, normalized to Optimal",
        caption: "Paper: NVLLC 2.4x Optimal and 2.3x TC; TC close to Optimal.",
        metric: RunReport::persistent_load_latency,
    }),
    Experiment::new("stalls", Render::Grid(stalls)),
    // Extension: energy accounting of the grid (write traffic priced by
    // the STT-RAM energy asymmetry — the Figure 9 story in nanojoules).
    Experiment::new("energy", Render::Normalized {
        id: "Extension: energy",
        title: "Memory-system energy, normalized to Optimal",
        caption: "Caches + transaction cache + DRAM + NVM, with STT-RAM's ~4x \
                  write/read energy asymmetry; SP's logging and flushing dominate.",
        metric: |r| energy_of(r, &EnergyParams::dac17()).total_nj(),
    }),
    Experiment::new("endurance", Render::Grid(endurance)),
    Experiment::new("recovery", Render::Cells(recovery_table)),
    Experiment::new("mix", Render::Cells(mix)),
    Experiment::new("warm", Render::Cells(warm)),
    Experiment::new("sharing", Render::Cells(sharing)),
    Experiment::new("wear", Render::Cells(wear)),
    Experiment::new("ablation-size", Render::Cells(ablation_txcache_size)),
    Experiment::new("ablation-overflow", Render::Cells(ablation_overflow)),
    Experiment::new("ablation-nvm", Render::Cells(ablation_nvm_latency)),
    Experiment::new("ablation-coalesce", Render::Cells(ablation_coalesce)),
    Experiment::new("ablation-sp-fencing", Render::Cells(ablation_sp_fencing)),
];

/// The experiment names, in registry order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.name).collect()
}

/// Figure 9's write-traffic *breakdown* by cause — which mechanism each
/// scheme's NVM writes come from (per-workload totals summed over the
/// grid, absolute counts).
#[must_use]
pub fn fig9_breakdown(grid: &GridResults) -> FigTable {
    let mut cols = vec!["scheme".to_string()];
    cols.extend(WriteCause::all().iter().map(|c| c.to_string()));
    cols.push("owed (residual)".into());
    let mut t = FigTable::new(
        "Figure 9 (breakdown)",
        "NVM writes by cause, summed over the five workloads",
        "Eviction = normal write-backs; tc-drain = committed TC entries; \
         log/flush = SP's records and clwb; cow = overflow fall-back.",
        cols,
    );
    for scheme in SchemeKind::all() {
        let mut row = vec![facts(scheme).label.to_string()];
        for cause in WriteCause::all() {
            let total: u64 = WorkloadKind::all()
                .iter()
                .map(|k| grid.get(*k, scheme).nvm_writes_by(cause))
                .sum();
            row.push(total.to_string());
        }
        let owed: u64 = WorkloadKind::all()
            .iter()
            .map(|k| grid.get(*k, scheme).residual_nvm_lines)
            .sum();
        row.push(owed.to_string());
        t.push_row(row);
    }
    t
}

/// The §5.2 transaction-cache stall claim: per-workload fraction of time
/// stalled on a full transaction cache (paper: only `sps`, 0.67%).
#[must_use]
pub fn stalls(grid: &GridResults) -> FigTable {
    let mut t = FigTable::new(
        "§5.2 stalls",
        "Fraction of execution time the CPU stalls on a full transaction cache",
        "Paper: with a 4 KB TC per core, only sps stalls (0.67% of time).",
        vec![
            "workload".into(),
            "TC-full stall fraction".into(),
            "COW overflows".into(),
        ],
    );
    for kind in WorkloadKind::all() {
        let r = grid.get(kind, SchemeKind::TxCache);
        t.push_row(vec![
            kind.to_string(),
            format!("{:.4}%", r.stall_fraction(StallKind::TxCacheFull) * 100.0),
            r.tc_overflows().to_string(),
        ]);
    }
    t
}

/// Extension: NVM write endurance — how hard each scheme hammers its
/// hottest line (NVM cells wear out; a persistence path that rewrites
/// the same line per transaction ages it fastest).
#[must_use]
pub fn endurance(grid: &GridResults) -> FigTable {
    let mut t = FigTable::new(
        "Extension: endurance",
        "NVM wear profile (rbtree + sps, device writes per line)",
        "Hottest-line writes and mean writes per written line; the TC \
         drains every committed store, so hot structure lines (roots, \
         headers) wear faster than under Optimal's cache coalescing.",
        vec![
            "workload / scheme".into(),
            "hottest line writes".into(),
            "mean writes/line".into(),
            "total device writes".into(),
        ],
    );
    for kind in [WorkloadKind::Rbtree, WorkloadKind::Sps] {
        for scheme in SchemeKind::all() {
            let r = grid.get(kind, scheme);
            let hottest = r.nvm.hottest_line().map_or(0, |(_, n)| n);
            t.push_row(vec![
                format!("{kind} / {}", facts(scheme).label),
                hottest.to_string(),
                format!("{:.2}", r.nvm.mean_writes_per_line()),
                r.nvm.writes().to_string(),
            ]);
        }
    }
    t
}

/// Extension: recovery cost after a mid-run crash, per scheme
/// (quantifies §3's "recover using the buffered writes" claim).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn recovery_table(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Extension: recovery",
        "Crash-recovery cost at 50% of an rbtree run",
        "Scan = durable words read (log walk / TC read-out / LLC tag \
         walk); replay = NVM words rewritten. The checker verifies each \
         recovered image is transaction-atomic.",
        vec![
            "scheme".into(),
            "words scanned".into(),
            "words replayed".into(),
            "est. recovery time".into(),
            "consistent?".into(),
        ],
    );
    let params = scale.params(seed);
    let schemes = SchemeKind::all();
    // Each scheme's pair of runs (full, then crashed halfway) is an
    // independent job; the two runs within a job stay sequential because
    // the crash point depends on the full run's cycle count.
    let jobs: Vec<Job<Result<(pmacc::recovery::RecoveryCost, bool), SimError>>> = schemes
        .iter()
        .map(|&scheme| {
            let machine = scale.machine().with_scheme(scheme);
            Job::new(format!("recovery/{scheme}"), move || {
                let build = || {
                    System::for_workload(
                        machine.clone(),
                        WorkloadKind::Rbtree,
                        &params,
                        &RunConfig::default(),
                    )
                };
                let total = build()?.run()?.cycles;
                let mut sys = build()?;
                sys.run_until(total / 2)?;
                let state = sys.crash_state();
                let cost = recovery_cost(&state, &machine);
                let recovered = recover(&state);
                let ok = check_recovery(&state, &recovered).is_ok();
                Ok((cost, ok))
            })
        })
        .collect();
    let rows = run_named_jobs(jobs, opts, |_| seed);
    for (scheme, row) in schemes.iter().zip(rows) {
        let (cost, ok) = row?;
        t.push_row(vec![
            facts(*scheme).label.into(),
            cost.words_scanned.to_string(),
            cost.words_replayed.to_string(),
            format!("{:.1} µs", cost.estimated_ns as f64 / 1000.0),
            if ok { "yes" } else { "NO (by design)" }.into(),
        ]);
    }
    Ok(t)
}

/// Extension: a heterogeneous multiprogrammed mix — one different
/// benchmark per core (graph, rbtree, sps, btree), the workload shape
/// shared-LLC studies use.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn mix(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let kinds = [
        WorkloadKind::Graph,
        WorkloadKind::Rbtree,
        WorkloadKind::Sps,
        WorkloadKind::Btree,
    ];
    let mut t = FigTable::new(
        "Extension: mix",
        "Heterogeneous 4-core mix (graph + rbtree + sps + btree)",
        "Each core runs a different benchmark; schemes normalized to \
         Optimal on the same mix.",
        vec![
            "scheme".into(),
            "IPC (norm)".into(),
            "throughput (norm)".into(),
            "NVM writes (norm)".into(),
            "p-load latency (norm)".into(),
        ],
    );
    let schemes = [
        SchemeKind::Optimal,
        SchemeKind::Sp,
        SchemeKind::TxCache,
        SchemeKind::NvLlc,
    ];
    let reports = run_keyed(schemes, &RunConfig::default(), opts, |&scheme| Cell {
        label: format!("mix/{scheme}"),
        machine: scale.machine().with_scheme(scheme),
        kinds: kinds.to_vec(),
        params: scale.params(seed),
    })?;
    let b = &reports[&SchemeKind::Optimal];
    for scheme in &schemes {
        let r = &reports[scheme];
        t.push_row(vec![
            facts(*scheme).label.into(),
            norm(r.ipc() / b.ipc()),
            norm(r.throughput() / b.throughput()),
            norm(r.nvm_write_traffic() as f64 / b.nvm_write_traffic().max(1) as f64),
            norm(r.persistent_load_latency() / b.persistent_load_latency()),
        ]);
    }
    Ok(t)
}

/// Extension: sharing sweep — per-scheme scaling curves as a growing
/// fraction of each core's persistent-heap lines is drawn from a pool
/// shared by every core (0, 12.5, 25, 50%), on the conflict-sensitive
/// workloads. The 0% column must reproduce the private-working-set
/// numbers exactly: the MESI layer is inert until cores actually share
/// lines. The conflict columns count transactional stores serialized
/// against a remote core's active transaction, snoop invalidations of
/// remote cached copies, and remote invalidations that hit a buffered
/// transaction-cache line (the §4 decoupling: the TC entry survives).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn sharing(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    // Sharing fractions in eighths, with their labels.
    const FRACTIONS: [(u8, &str); 4] = [(0, "0%"), (1, "12.5%"), (2, "25%"), (4, "50%")];
    const KINDS: [WorkloadKind; 3] = [
        WorkloadKind::Sps,
        WorkloadKind::Btree,
        WorkloadKind::Hashtable,
    ];
    let keys = KINDS.into_iter().flat_map(|kind| {
        FRACTIONS.into_iter().flat_map(move |(f, _)| SchemeKind::all().map(move |s| (kind, f, s)))
    });
    let params = |fraction| WorkloadParams {
        sharing: fraction,
        ..scale.params(seed)
    };
    let results = run_keyed(keys, &RunConfig::default(), opts, |&(kind, fraction, scheme)| {
        let machine = scale.machine().with_scheme(scheme);
        let label = format!("sharing/{kind}/sh{fraction}/{scheme}");
        Cell::uniform(label, machine, kind, params(fraction))
    })?;
    // Directory-stress subsection: the same sweep's SPS workload at 16
    // cores, where the LLC sharer-bitmap directory is what keeps snoops
    // O(sharers) instead of O(cores). Two fractions bracket the range
    // (private vs heavily shared); every scheme runs so the normalized
    // IPC column has its own 16-core Optimal base.
    const DIR_CORES: usize = 16;
    const DIR_FRACTIONS: [(u8, &str); 2] = [(0, "0%"), (4, "50%")];
    let dir_keys = DIR_FRACTIONS.into_iter().flat_map(|(f, _)| SchemeKind::all().map(move |s| (f, s)));
    let dir_results = run_keyed(dir_keys, &RunConfig::default(), opts, |&(fraction, scheme)| {
        let mut machine = scale.machine().with_scheme(scheme);
        machine.cores = DIR_CORES;
        let label = format!("sharing/sps16/sh{fraction}/{scheme}");
        Cell::uniform(label, machine, WorkloadKind::Sps, params(fraction))
    })?;
    let mut t = FigTable::new(
        "Extension: sharing",
        "Scaling across shared-line fractions (4 cores; sps also at 16)",
        "IPC normalized to Optimal on the same workload, fraction and \
         core count; conflict columns are raw event counts summed over \
         cores.",
        vec![
            "workload".into(),
            "sharing".into(),
            "scheme".into(),
            "IPC (norm)".into(),
            "tx conflicts".into(),
            "conflict stall".into(),
            "snoop invals".into(),
            "shared fills".into(),
            "TC remote invals".into(),
        ],
    );
    let conflicts = |r: &RunReport| -> u64 {
        r.cores.iter().map(|c| c.tx_conflicts.value()).sum()
    };
    let tc_remote = |r: &RunReport| -> u64 {
        r.tc.iter().map(|c| c.remote_invalidations.value()).sum()
    };
    let cell_row = |workload: String, fraction: &str, scheme, r: &RunReport, base: &RunReport| {
        vec![
            workload,
            fraction.into(),
            facts(scheme).label.into(),
            norm(if base.ipc() == 0.0 { 0.0 } else { r.ipc() / base.ipc() }),
            conflicts(r).to_string(),
            format!("{:.4}%", r.stall_fraction(StallKind::Conflict) * 100.0),
            r.hierarchy.coherence.remote_invalidations.value().to_string(),
            r.hierarchy.coherence.shared_fills.value().to_string(),
            tc_remote(r).to_string(),
        ]
    };
    for kind in KINDS {
        for (fraction, label) in FRACTIONS {
            let base = &results[&(kind, fraction, SchemeKind::Optimal)];
            for scheme in SchemeKind::all() {
                let r = &results[&(kind, fraction, scheme)];
                t.push_row(cell_row(kind.to_string(), label, scheme, r, base));
            }
        }
    }
    // Per-fraction means: the scaling curve of each scheme (counts are
    // summed over the three workloads).
    for (fraction, label) in FRACTIONS {
        for scheme in SchemeKind::all() {
            let mut ipc = 0.0;
            let (mut cf, mut inv, mut fills, mut tcr) = (0u64, 0u64, 0u64, 0u64);
            for kind in KINDS {
                let base = &results[&(kind, fraction, SchemeKind::Optimal)];
                let r = &results[&(kind, fraction, scheme)];
                ipc += if base.ipc() == 0.0 { 0.0 } else { r.ipc() / base.ipc() };
                cf += conflicts(r);
                inv += r.hierarchy.coherence.remote_invalidations.value();
                fills += r.hierarchy.coherence.shared_fills.value();
                tcr += tc_remote(r);
            }
            t.push_row(vec![
                "**mean**".into(),
                label.into(),
                facts(scheme).label.into(),
                norm(ipc / KINDS.len() as f64),
                cf.to_string(),
                "-".into(),
                inv.to_string(),
                fills.to_string(),
                tcr.to_string(),
            ]);
        }
    }
    // 16-core directory-stress rows.
    for (fraction, label) in DIR_FRACTIONS {
        let base = &dir_results[&(fraction, SchemeKind::Optimal)];
        for scheme in SchemeKind::all() {
            let r = &dir_results[&(fraction, scheme)];
            t.push_row(cell_row("sps (16c)".into(), label, scheme, r, base));
        }
    }
    Ok(t)
}

/// Renders a projected lifetime (seconds of simulated write rate until
/// the hottest cell exhausts its budget) as a human-readable duration.
/// Quick-scale projections are tiny — the *ratio between schemes* is
/// the story, not the absolute value.
fn fmt_lifetime(s: f64) -> String {
    if !s.is_finite() {
        return "-".into();
    }
    const YEAR: f64 = 365.25 * 86_400.0;
    if s >= YEAR {
        format!("{:.2} y", s / YEAR)
    } else if s >= 86_400.0 {
        format!("{:.2} d", s / 86_400.0)
    } else if s >= 3_600.0 {
        format!("{:.2} h", s / 3_600.0)
    } else if s >= 60.0 {
        format!("{:.2} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{:.2} s", s)
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Renders a count of workload executions (the ideal-leveling lifetime
/// projection) with an engineering suffix.
fn fmt_runs(r: f64) -> String {
    if !r.is_finite() {
        return "-".into();
    }
    if r >= 1e9 {
        format!("{:.1}G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// Extension: NVM endurance under each scheme, with and without
/// start-gap wear leveling. Two distinct endurance stories emerge:
/// *total traffic* (fig9: SP's logging writes a multiple of TC's NVM
/// traffic, so its ideal-leveled lifetime is proportionally shorter)
/// and *concentration* (TC drains every committed store, so hot
/// structure lines — tree roots, headers — take orders of magnitude
/// more wear than the mean). The leveling-off rows are the ablation
/// baseline: turning the remapper on collapses the max/mean imbalance
/// by rotating hot lines across device rows, at the cost of the
/// relocation writes in the `relocations` column.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn wear(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    use pmacc_types::WearConfig;
    const KINDS: [WorkloadKind; 3] = [
        WorkloadKind::Sps,
        WorkloadKind::Rbtree,
        WorkloadKind::Hashtable,
    ];
    const LEVELS: [bool; 2] = [false, true];
    let budget = WearConfig::start_gap().cell_write_budget;
    // Tighter rotation than the `start_gap()` defaults: these runs are
    // short, and the gap must sweep each region several times before the
    // run ends for the ablation to show — a hot line only sheds wear
    // when the gap passes it, once per `region_lines *
    // gap_write_interval` region writes.
    let leveled = WearConfig {
        leveling: true,
        region_lines: 32,
        gap_write_interval: 4,
        cell_write_budget: budget,
    };
    let keys = KINDS.into_iter().flat_map(|kind| {
        LEVELS.into_iter().flat_map(move |l| SchemeKind::all().map(move |s| (kind, l, s)))
    });
    let lvl_label = |l: bool| if l { "on" } else { "off" };
    let results = run_keyed(keys, &RunConfig::default(), opts, |&(kind, leveling, scheme)| {
        let mut machine = scale.machine().with_scheme(scheme);
        if leveling {
            machine.nvm.wear = leveled;
        }
        let label = format!("wear/{kind}/wl-{}/{scheme}", lvl_label(leveling));
        Cell::uniform(label, machine, kind, scale.params(seed))
    })?;
    let mut t = FigTable::new(
        "Extension: wear",
        "NVM endurance and start-gap wear leveling, per scheme",
        format!(
            "Device writes per line with wear leveling off vs on \
             (start-gap, {} lines per region, gap rotation every {} \
             demand writes). Imbalance = max/mean writes-per-line — the \
             off rows are the ablation baseline the leveler collapses. \
             Hot-line lifetime extrapolates the hottest line's measured \
             write rate against a {budget}-write cell budget; leveled \
             lifetime is the ideal-leveling bound in workload \
             executions (budget x footprint / write traffic), so its \
             ratio between schemes is fig9's NVM-write ratio. \
             Relocations are the leveler's own copy writes.",
            leveled.region_lines, leveled.gap_write_interval,
        ),
        vec![
            "workload".into(),
            "scheme".into(),
            "leveling".into(),
            "NVM writes".into(),
            "max w/line".into(),
            "p99 w/line".into(),
            "mean w/line".into(),
            "imbalance".into(),
            "relocations".into(),
            "hot-line lifetime".into(),
            "leveled lifetime (runs)".into(),
        ],
    );
    let hot_lifetime = |r: &RunReport| {
        pmacc_mem::projected_lifetime_seconds(
            r.nvm.max_writes_per_line(),
            r.cycles,
            pmacc_types::Freq::default(),
            budget,
        )
    };
    for kind in KINDS {
        for leveling in LEVELS {
            for scheme in SchemeKind::all() {
                let r = &results[&(kind, leveling, scheme)];
                t.push_row(vec![
                    kind.to_string(),
                    facts(scheme).label.into(),
                    lvl_label(leveling).into(),
                    r.nvm.writes().to_string(),
                    r.nvm.max_writes_per_line().to_string(),
                    r.nvm.p99_writes_per_line().to_string(),
                    format!("{:.2}", r.nvm.mean_writes_per_line()),
                    format!("{:.1}", r.nvm.wear_imbalance()),
                    r.nvm.relocation_writes.value().to_string(),
                    fmt_lifetime(hot_lifetime(r)),
                    fmt_runs(pmacc_mem::projected_lifetime_runs(
                        r.nvm.writes(),
                        r.nvm.lines_written(),
                        budget,
                    )),
                ]);
            }
        }
    }
    // Per-scheme means across workloads: the lifetime delta between
    // schemes (and the off→on imbalance collapse) at a glance. The
    // leveled-lifetime mean pools traffic and footprint across
    // workloads rather than averaging ratios.
    for leveling in LEVELS {
        for scheme in SchemeKind::all() {
            let (mut writes, mut lines, mut max_w) = (0u64, 0u64, 0u64);
            let (mut imb, mut life) = (0.0f64, 0.0f64);
            for kind in KINDS {
                let r = &results[&(kind, leveling, scheme)];
                writes += r.nvm.writes();
                lines += r.nvm.lines_written();
                max_w = max_w.max(r.nvm.max_writes_per_line());
                imb += r.nvm.wear_imbalance();
                life += hot_lifetime(r);
            }
            let n = KINDS.len() as f64;
            t.push_row(vec![
                "**mean**".into(),
                facts(scheme).label.into(),
                lvl_label(leveling).into(),
                writes.to_string(),
                max_w.to_string(),
                "-".into(),
                "-".into(),
                format!("{:.1}", imb / n),
                "-".into(),
                fmt_lifetime(life / n),
                fmt_runs(pmacc_mem::projected_lifetime_runs(writes, lines, budget)),
            ]);
        }
    }
    Ok(t)
}

/// Extension: the grid measured after a cache warm-up (the first quarter
/// of each run's transactions excluded from statistics). Contrast with
/// the cold-start figures: warm LLC miss rates expose the NVLLC pinning
/// pressure better.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn warm(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let params = scale.params(seed);
    let warmup = (params.num_ops as u64 * scale.machine().cores as u64) / 4;
    let rc = RunConfig {
        warmup_commits: warmup,
        ..RunConfig::default()
    };
    let grid = run_grid_opts(scale, seed, &rc, opts)?;
    let schemes = [SchemeKind::Sp, SchemeKind::TxCache, SchemeKind::NvLlc];
    let mut cols = vec!["metric".to_string()];
    cols.extend(schemes.iter().map(|s| facts(*s).label.to_string()));
    let mut t = FigTable::new(
        "Extension: warm",
        format!(
            "Grid means measured after a {warmup}-transaction warm-up"
        ),
        "Normalized to Optimal, as in Figures 6-10 but excluding the \
         cold-cache region.",
        cols,
    );
    let metrics: [Metric; 4] = [
        ("IPC", RunReport::ipc),
        ("throughput", RunReport::throughput),
        ("LLC miss rate", RunReport::llc_miss_rate),
        ("persistent load latency", RunReport::persistent_load_latency),
    ];
    for (name, metric) in metrics {
        let mut row = vec![name.to_string()];
        row.extend(schemes.iter().map(|s| norm(grid.mean_normalized(*s, metric))));
        t.push_row(row);
    }
    Ok(t)
}

/// Table 1: hardware overhead of the accelerator.
#[must_use]
pub fn table1(machine: &MachineConfig) -> FigTable {
    let hw = HwOverhead::for_machine(machine);
    let mut t = FigTable::new(
        "Table 1",
        "Summary of major hardware overhead",
        format!(
            "Total TC capacity {} KB across {} cores ({:.3}% of the LLC); \
             +{} bit/line in the existing hierarchy, +{} bits/line in the TC array.",
            hw.total_tc_bytes() / 1024,
            hw.cores,
            hw.tc_vs_llc(machine) * 100.0,
            hw.bits_per_hierarchy_line(),
            hw.bits_per_tc_line()
        ),
        vec![
            "component".into(),
            "type".into(),
            "bits/instance".into(),
            "instances".into(),
            "total bits".into(),
        ],
    );
    for row in &hw.rows {
        t.push_row(vec![
            row.component.to_string(),
            row.kind.to_string(),
            row.bits_per_instance.to_string(),
            row.instances.to_string(),
            row.total_bits().to_string(),
        ]);
    }
    t
}

/// Table 2: machine configuration.
#[must_use]
pub fn table2(machine: &MachineConfig) -> FigTable {
    let mut t = FigTable::new(
        "Table 2",
        "Machine configuration",
        "The paper's machine; the figure grid uses the capacity-scaled \
         variant (see EXPERIMENTS.md).",
        vec!["device".into(), "description".into()],
    );
    let c = machine;
    t.push_row(vec![
        "CPU".into(),
        format!(
            "{} cores, {}, {}-issue, out of order (trace-driven)",
            c.cores, c.core.freq, c.core.issue_width
        ),
    ]);
    for (name, cfg, shared) in [
        ("L1 I/D", &c.l1, false),
        ("L2", &c.l2, false),
        ("L3 (LLC)", &c.llc, true),
    ] {
        let size = if cfg.size_bytes >= 1024 * 1024 {
            format!("{} MB", cfg.size_bytes / (1024 * 1024))
        } else {
            format!("{} KB", cfg.size_bytes / 1024)
        };
        t.push_row(vec![
            name.into(),
            format!(
                "{}, {}{}, {} ns, {}-way",
                if shared { "Shared" } else { "Private" },
                size,
                if shared { "" } else { "/core" },
                cfg.latency_ns,
                cfg.ways
            ),
        ]);
    }
    t.push_row(vec![
        "Transaction cache".into(),
        format!(
            "Private, {} KB/core, fully-associative CAM FIFO (STTRAM), {} ns, \
             overflow at {:.0}%",
            c.txcache.size_bytes / 1024,
            c.txcache.latency_ns,
            c.txcache.overflow_threshold * 100.0
        ),
    ]);
    t.push_row(vec![
        "Memory controllers".into(),
        format!(
            "{}/{}-entry read/write queue, 2 controllers, read-first or \
             write drain when the write queue is {:.0}% full",
            c.nvm.read_queue,
            c.nvm.write_queue,
            c.nvm.drain_high * 100.0
        ),
    ]);
    t.push_row(vec![
        "NVM memory (STTRAM)".into(),
        format!(
            "{} ranks, {} banks/rank, {}-ns read, {}-ns write",
            c.nvm.ranks, c.nvm.banks_per_rank, c.nvm.read_ns, c.nvm.write_ns
        ),
    ]);
    t.push_row(vec![
        "DRAM memory".into(),
        format!(
            "DDR3, {} ranks, {} banks/rank, {}-ns access",
            c.dram.ranks, c.dram.banks_per_rank, c.dram.read_ns
        ),
    ]);
    t
}

/// Table 3: workloads, with measured trace statistics at the given scale.
#[must_use]
pub fn table3(scale: Scale, seed: u64) -> FigTable {
    let mut t = FigTable::new(
        "Table 3",
        "Workloads",
        "Five benchmarks similar to the NV-heaps suite; all key-value \
         fields are 64 bits. Trace statistics measured per core instance.",
        vec![
            "name".into(),
            "description".into(),
            "ops/tx (mean)".into(),
            "stores/tx (mean)".into(),
            "write-set p99/max".into(),
            "memory footprint".into(),
        ],
    );
    for kind in WorkloadKind::all() {
        let w = build(kind, &scale.params(seed));
        let txs = w.trace.transactions().max(1);
        let stores = w.trace.ops().iter().filter(|o| o.is_store()).count() as u64;
        let footprint = w.final_image.len() as u64 * 8;
        let mut sizes = w.trace.tx_store_counts();
        sizes.sort_unstable();
        let p99 = sizes[(sizes.len() * 99 / 100).min(sizes.len() - 1)];
        let max = sizes.last().copied().unwrap_or(0);
        t.push_row(vec![
            kind.to_string(),
            kind.description().to_string(),
            format!("{:.1}", w.trace.op_count() as f64 / txs as f64),
            format!("{:.1}", stores as f64 / txs as f64),
            format!("{p99}/{max}"),
            format!("{:.1} MB", footprint as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t
}

/// Ablation A: transaction-cache capacity sweep (the §3 "capacity can be
/// flexibly configured" claim).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_txcache_size(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation A",
        "Transaction-cache capacity sweep (TC scheme)",
        "IPC normalized to the 4 KB configuration; stall fraction and \
         overflow events per size, for the two most TC-hungry workloads.",
        vec![
            "TC size".into(),
            "sps IPC (vs 4 KB)".into(),
            "sps stall%".into(),
            "sps overflows".into(),
            "rbtree IPC (vs 4 KB)".into(),
            "rbtree stall%".into(),
            "rbtree overflows".into(),
        ],
    );
    let sizes: [u64; 6] = [512, 1024, 2048, 4096, 8192, 16384];
    const KINDS: [WorkloadKind; 2] = [WorkloadKind::Sps, WorkloadKind::Rbtree];
    let keys = sizes.iter().flat_map(|&size| KINDS.map(|kind| (size, kind)));
    let reports = run_keyed(keys, &RunConfig::default(), opts, |&(size, kind)| {
        let mut machine = scale.machine().with_scheme(SchemeKind::TxCache);
        machine.txcache.size_bytes = size;
        let label = format!("tc-size {size} B/{kind}");
        Cell::uniform(label, machine, kind, scale.params(seed))
    })?;
    for size in sizes {
        let mut row = vec![format!("{size} B")];
        for kind in KINDS {
            let r = &reports[&(size, kind)];
            row.extend([
                norm(r.ipc() / reports[&(4096, kind)].ipc()),
                format!("{:.3}%", r.stall_fraction(StallKind::TxCacheFull) * 100.0),
                r.tc_overflows().to_string(),
            ]);
        }
        t.push_row(row);
    }
    Ok(t)
}

/// Ablation B: overflow-threshold sweep on a deliberately small TC.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_overflow(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation B",
        "Overflow (COW fall-back) threshold sweep, 512 B TC, rbtree",
        "The §4.1 fall-back triggers once the TC is 'almost filled'; the \
         sweep shows the stall/overflow trade-off around the 90% default.",
        vec![
            "threshold".into(),
            "IPC".into(),
            "TC-full stall%".into(),
            "overflows".into(),
            "COW NVM writes".into(),
        ],
    );
    let thresholds = [0.5, 0.7, 0.9, 1.0];
    let cells = thresholds
        .iter()
        .map(|&threshold| {
            let mut machine = scale.machine().with_scheme(SchemeKind::TxCache);
            machine.txcache.size_bytes = 512;
            machine.txcache.overflow_threshold = threshold;
            let label = format!("overflow {:.0}%/rbtree", threshold * 100.0);
            Cell::uniform(label, machine, WorkloadKind::Rbtree, scale.params(seed))
        })
        .collect();
    let reports = run_cells(cells, &RunConfig::default(), opts)?;
    for (threshold, r) in thresholds.iter().zip(reports) {
        t.push_row(vec![
            format!("{:.0}%", threshold * 100.0),
            format!("{:.4}", r.ipc()),
            format!("{:.3}%", r.stall_fraction(StallKind::TxCacheFull) * 100.0),
            r.tc_overflows().to_string(),
            r.nvm_writes_by(WriteCause::Cow).to_string(),
        ]);
    }
    Ok(t)
}

/// Ablation C: NVM write-latency sensitivity.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_nvm_latency(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation C",
        "NVM technology sensitivity (rbtree)",
        "TC and SP IPC normalized to Optimal at each device latency \
         (STT-RAM write sweep plus a PCM point); the TC advantage grows \
         as writes slow because its persistent path is off the execution \
         critical path.",
        vec![
            "NVM device".into(),
            "SP (norm)".into(),
            "TC (norm)".into(),
            "NVLLC (norm)".into(),
        ],
    );
    let mut sweep: Vec<(String, pmacc_types::MemConfig)> = [38.0, 76.0, 152.0, 304.0]
        .into_iter()
        .map(|write_ns| {
            let mut nvm = scale.machine().nvm;
            nvm.write_ns = write_ns;
            (format!("STT-RAM {write_ns} ns"), nvm)
        })
        .collect();
    sweep.push((
        "PCM 85/350 ns".to_string(),
        pmacc_types::MemConfig::pcm(),
    ));
    let baseline = SchemeKind::Optimal;
    let schemes = [SchemeKind::Sp, SchemeKind::TxCache, SchemeKind::NvLlc];
    let keys = (0..sweep.len())
        .flat_map(|point| [baseline].into_iter().chain(schemes).map(move |s| (point, s)));
    let reports = run_keyed(keys, &RunConfig::default(), opts, |&(point, scheme)| {
        let (label, nvm) = &sweep[point];
        let mut machine = scale.machine().with_scheme(scheme);
        machine.nvm = *nvm;
        let label = format!("nvm {label}/{scheme}");
        Cell::uniform(label, machine, WorkloadKind::Rbtree, scale.params(seed))
    })?;
    for (point, (label, _)) in sweep.iter().enumerate() {
        let opt = reports[&(point, baseline)].ipc();
        let mut row = vec![label.clone()];
        row.extend(schemes.iter().map(|&s| norm(reports[&(point, s)].ipc() / opt)));
        t.push_row(row);
    }
    Ok(t)
}

/// Ablation D: within-transaction write coalescing in the TC (the paper
/// keeps one entry per store).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_coalesce(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation D",
        "Within-transaction coalescing in the transaction cache (btree)",
        "Coalescing merges same-line stores of one transaction into one \
         entry, trading CAM complexity for capacity and drain traffic.",
        vec![
            "coalescing".into(),
            "IPC".into(),
            "TC drain writes".into(),
            "TC inserts".into(),
            "coalesced".into(),
            "overflows".into(),
        ],
    );
    let modes = [false, true];
    let cells = modes
        .iter()
        .map(|&coalesce| {
            let mut machine = scale.machine().with_scheme(SchemeKind::TxCache);
            machine.txcache.coalesce = coalesce;
            let label = format!("coalesce {}/btree", if coalesce { "on" } else { "off" });
            Cell::uniform(label, machine, WorkloadKind::Btree, scale.params(seed))
        })
        .collect();
    let reports = run_cells(cells, &RunConfig::default(), opts)?;
    for (coalesce, r) in modes.into_iter().zip(reports) {
        let inserts: u64 = r.tc.iter().map(|s| s.inserts.value()).sum();
        let coalesced: u64 = r.tc.iter().map(|s| s.coalesced.value()).sum();
        t.push_row(vec![
            if coalesce { "on" } else { "off (paper)" }.into(),
            format!("{:.4}", r.ipc()),
            r.nvm_writes_by(WriteCause::TxCacheDrain).to_string(),
            inserts.to_string(),
            coalesced.to_string(),
            r.tc_overflows().to_string(),
        ]);
    }
    Ok(t)
}

/// Ablation E: SP fence placement — strict per-record ordering (Figure
/// 2(b)) versus the batched Figure 3(a) listing.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_sp_fencing(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation E",
        "SP write-order control: strict vs batched fencing (sps)",
        "Batched = the Figure 3(a) listing (default SP); strict = clwb+\
         sfence per record plus post-commit data flushing (Figure 2(b)).",
        vec![
            "fencing".into(),
            "IPC (vs Optimal)".into(),
            "throughput (vs Optimal)".into(),
            "NVM writes (vs Optimal)".into(),
        ],
    );
    let params = scale.params(seed);
    let machine = scale.machine();
    // One job for the Optimal baseline, one per fencing mode: each SP
    // job builds the same striped per-core workloads as a grid cell,
    // pre-instruments them with the requested mode and runs under the SP
    // runtime (which adds nothing beyond the instrumentation), so the
    // batched row is exactly the grid's SP cell.
    let mut jobs: Vec<Job<Result<RunReport, SimError>>> = Vec::new();
    {
        let machine = machine.clone().with_scheme(SchemeKind::Optimal);
        jobs.push(Job::new("sp-fencing baseline/sps", move || {
            System::for_workload(machine, WorkloadKind::Sps, &params, &RunConfig::default())?.run()
        }));
    }
    let modes = [
        (SpMode::Batched, "batched (Fig. 3a, default)"),
        (SpMode::Strict, "strict (Fig. 2b)"),
    ];
    for (mode, _) in modes {
        let cfg = machine.clone().with_scheme(SchemeKind::Sp);
        jobs.push(Job::new(format!("sp-fencing {mode:?}/sps"), move || {
            let (raw, image) = striped_workloads(&vec![WorkloadKind::Sps; cfg.cores], &params);
            let traces = raw
                .iter()
                .enumerate()
                .map(|(core, t)| sp::instrument_with(core, t, mode))
                .collect();
            System::new_instrumented(cfg, traces, image, &RunConfig::default())?.run()
        }));
    }
    let reports = run_named_jobs(jobs, opts, |_| seed)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let opt = &reports[0];
    for ((_, label), r) in modes.iter().zip(&reports[1..]) {
        t.push_row(vec![
            (*label).into(),
            norm(r.ipc() / opt.ipc()),
            norm(r.throughput() / opt.throughput()),
            norm(r.nvm_write_traffic() as f64 / opt.nvm_write_traffic() as f64),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggest;

    #[test]
    fn registry_names_are_pinned_unique_and_their_own_suggestion() {
        // The run order, `--list` and the `--json` figure order.
        let names = names();
        assert_eq!(
            names,
            [
                "table2",
                "table3",
                "table1",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig9-breakdown",
                "fig10",
                "stalls",
                "energy",
                "endurance",
                "recovery",
                "mix",
                "warm",
                "sharing",
                "wear",
                "ablation-size",
                "ablation-overflow",
                "ablation-nvm",
                "ablation-coalesce",
                "ablation-sp-fencing",
            ]
        );
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate experiment name");
        for name in &names {
            assert_eq!(suggest::closest(name, &names), Some(*name));
        }
    }
}
