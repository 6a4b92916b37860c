//! Turns a [`Run`] into the printed result: the end-to-end metrics (from
//! the untraced passes) or the per-layer metrics (from the traced
//! passes and the deterministic report counters), plus information that
//! is not a metric: per-cell report digests, host metadata and the
//! paper values `fig6_abs_err` compares against.

use std::collections::BTreeMap;

use pmacc::RunReport;
use pmacc_cache::CoherenceStats;
use pmacc_cpu::StallKind;
use pmacc_telemetry::{Json, ToJson};
use pmacc_types::{Counter, Ratio, SchemeKind};

use crate::host;
use crate::run::{Pass, Run};
use crate::spans::{self_times_ns, totals_by_name};

/// Fig. 6 paper averages of IPC normalized to Optimal, as recorded in the
/// repository's `EXPERIMENTS.md` (Figure 6 rows, "paper" column).
pub const PAPER_FIG6: [(SchemeKind, f64); 3] = [
    (SchemeKind::Sp, 0.477),
    (SchemeKind::TxCache, 0.985),
    (SchemeKind::NvLlc, 0.878),
];

/// One named, unit-labelled value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value (an integer for exact counts).
    pub value: Json,
    /// Unit.
    pub unit: &'static str,
}

/// The printed outcome of a run.
#[derive(Debug)]
pub struct Summary {
    /// Operations attempted: cells run plus crash points checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics of the selected mode.
    pub metrics: Vec<Metric>,
    /// Not metrics: digests, host metadata, sample counts.
    pub info: Json,
}

impl Summary {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let v = Json::obj([("value", m.value.clone()), ("unit", m.unit.to_json())]);
            (m.name.clone(), v)
        });
        Json::obj([
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Summarizes a run in its mode (traced or not).
#[must_use]
pub fn summarize(run: &Run) -> Summary {
    let untraced: Vec<&Pass> = run.passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = run.passes.iter().filter(|p| p.traced).collect();
    let metrics = if run.opts.trace {
        per_layer(run, &untraced, &traced)
    } else {
        end_to_end(run, &untraced)
    };
    let first = &run.passes[0];
    let digests = run
        .cells
        .iter()
        .zip(&first.cells)
        .map(|(cell, out)| (cell.label.clone(), format!("{:016x}", out.digest).to_json()));
    let paper = PAPER_FIG6
        .iter()
        .map(|(s, v)| (s.to_string(), v.to_json()))
        .chain([(
            "source".to_string(),
            "EXPERIMENTS.md, Figure 6 rows (paper averages)".to_json(),
        )]);
    let mut info = Json::obj([
        ("workload", run.opts.workload.to_string().to_json()),
        ("seed", run.opts.seed.to_json()),
        ("trace", run.opts.trace.to_json()),
        ("passes", run.passes.len().to_json()),
        ("traced_passes", traced.len().to_json()),
        (
            "pass_secs",
            run.passes
                .iter()
                .map(|p| p.secs)
                .collect::<Vec<_>>()
                .to_json(),
        ),
        ("setup_samples", run.setup_secs.len().to_json()),
        ("crash_point_samples", first.points().to_json()),
        (
            "times",
            "host wall-clock seconds (s, ms, ns); simulated time is in cycles".to_json(),
        ),
        ("host", host::metadata()),
        ("fig6_paper", Json::obj(paper)),
        ("report_digests", Json::obj(digests)),
        ("failures", run.tally.messages.to_json()),
    ]);
    if run.opts.trace {
        info.set("self_time_s", self_time_ranking(run, &traced));
    }
    Summary {
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        metrics,
        info,
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn metric(name: impl Into<String>, value: impl ToJson, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: value.to_json(),
        unit,
    }
}

/// The length of a typical pass: each cell's median host time over the
/// passes, summed. Medians per cell keep a burst of host noise in one
/// pass from moving the result.
#[must_use]
pub fn typical_pass_secs(passes: &[&Pass]) -> f64 {
    let cells = passes.first().map_or(0, |p| p.cells.len());
    (0..cells)
        .map(|c| median(&passes.iter().map(|p| p.cells[c].secs).collect::<Vec<_>>()))
        .sum()
}

fn end_to_end(run: &Run, passes: &[&Pass]) -> Vec<Metric> {
    let setup_s = median(&run.setup_secs);
    let pass_s = typical_pass_secs(passes);
    let first = passes[0];
    // Each point's latency is its median over the passes (every pass
    // checks the same points), so the percentiles rank points, not noise.
    let per_point: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| {
            p.cells
                .iter()
                .flat_map(|c| c.point_ms.iter().copied())
                .collect()
        })
        .collect();
    let n_points = per_point.iter().map(Vec::len).min().unwrap_or(0);
    let point_ms: Vec<f64> = (0..n_points)
        .map(|j| median(&per_point.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .collect();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", setup_s + pass_s, "s"),
        metric("sim_ops_per_s", first.ops() as f64 / pass_s, "1/s"),
        metric("crash_points_per_s", first.points() as f64 / pass_s, "1/s"),
        metric("crash_point_ms_p50", quantile(&point_ms, 0.5), "ms"),
        metric("crash_point_ms_p99", quantile(&point_ms, 0.99), "ms"),
        metric("peak_rss_mb", run.peak_rss_mb, "MB"),
        metric("fig6_abs_err", fig6_abs_err(run), "ratio"),
    ]
}

/// Mean over SP, TC and NVLLC of |mean normalized IPC − paper value|,
/// from the first pass's reports of the cells marked `fig6`.
#[must_use]
pub fn fig6_abs_err(run: &Run) -> f64 {
    let reports = &run.passes[0].cells;
    let ipc = |kind, scheme| {
        run.cells
            .iter()
            .zip(reports)
            .find(|(c, _)| c.fig6 && c.kind == kind && c.scheme() == scheme)
            .and_then(|(_, out)| out.report.as_ref())
            .map(RunReport::ipc)
    };
    let mut errs = Vec::new();
    for (scheme, paper) in PAPER_FIG6 {
        let norms: Vec<f64> = run
            .cells
            .iter()
            .filter(|c| c.fig6 && c.scheme() == scheme)
            .filter_map(|c| Some(ipc(c.kind, scheme)? / ipc(c.kind, SchemeKind::Optimal)?))
            .collect();
        if !norms.is_empty() {
            let mean = norms.iter().sum::<f64>() / norms.len() as f64;
            errs.push((mean - paper).abs());
        }
    }
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// Per-pass span totals by name, `(total_ns, self_ns)`, with the
/// `system.construct` and `system.run` totals also split by scheme
/// (under `<name>.<scheme>`). `own` holds every span's self time.
fn pass_totals(run: &Run, own: &[u64], pass: &Pass) -> BTreeMap<String, (u64, u64)> {
    let spans = &run.tracer.spans()[pass.spans.clone()];
    let mut out: BTreeMap<String, (u64, u64)> = totals_by_name(spans, &own[pass.spans.clone()])
        .into_iter()
        .map(|(k, (t, s, _))| (k.to_string(), (t, s)))
        .collect();
    for s in spans {
        if let (Some(c), "system.construct" | "system.run") = (s.cell, s.name) {
            let key = format!("{}.{}", s.name, run.cells[c].scheme());
            out.entry(key).or_default().0 += s.duration_ns();
        }
    }
    out
}

/// [`pass_totals`] of every traced pass.
fn traced_totals(run: &Run, traced: &[&Pass]) -> Vec<BTreeMap<String, (u64, u64)>> {
    let own = self_times_ns(run.tracer.spans());
    traced.iter().map(|p| pass_totals(run, &own, p)).collect()
}

/// Median over the traced passes of one span name's total time, or of
/// its self time when `own`, in seconds.
fn median_secs(totals: &[BTreeMap<String, (u64, u64)>], name: &str, own: bool) -> f64 {
    let per_pass: Vec<f64> = totals
        .iter()
        .map(|t| {
            let (all, me) = t.get(name).copied().unwrap_or_default();
            (if own { me } else { all }) as f64 * 1e-9
        })
        .collect();
    median(&per_pass)
}

fn range_total(run: &Run, range: &std::ops::Range<usize>, name: &str) -> f64 {
    run.tracer.spans()[range.clone()]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

fn per_layer(run: &Run, untraced: &[&Pass], traced: &[&Pass]) -> Vec<Metric> {
    let totals = traced_totals(run, traced);
    let secs = |name: &str| median_secs(&totals, name, false);
    let self_secs = |name: &str| median_secs(&totals, name, true);
    let per_unit_ns = |count: &dyn Fn(&Pass) -> u64| {
        median(
            &traced
                .iter()
                .zip(&totals)
                .map(|(p, t)| {
                    let run_ns = t.get("system.run").map_or(0, |v| v.0) as f64;
                    run_ns / count(p).max(1) as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    let build: Vec<f64> = run
        .setup_spans
        .iter()
        .map(|r| range_total(run, r, "workloads.build"))
        .collect();
    let mut m = vec![
        metric("workloads.build_s", median(&build), "s"),
        metric("system.construct_s", secs("system.construct"), "s"),
    ];
    for s in SchemeKind::all() {
        m.push(metric(
            format!("system.construct_s.{s}"),
            secs(&format!("system.construct.{s}")),
            "s",
        ));
    }
    m.push(metric(
        "scheme.instrument_s",
        range_total(run, &run.instrument_spans, "scheme.instrument"),
        "s",
    ));
    m.push(metric("system.run_s", secs("system.run"), "s"));
    for s in SchemeKind::all() {
        m.push(metric(
            format!("system.run_s.{s}"),
            secs(&format!("system.run.{s}")),
            "s",
        ));
    }
    m.push(metric(
        "system.run_ns_per_event",
        per_unit_ns(&Pass::events),
        "ns",
    ));
    m.push(metric(
        "system.run_ns_per_op",
        per_unit_ns(&Pass::ops),
        "ns",
    ));
    for (name, span) in [
        ("system.crash_state_s", "system.crash_state"),
        ("recovery.recover_s", "recovery.recover"),
        ("recovery.check_s", "recovery.check"),
        ("report.json_s", "report.json"),
    ] {
        m.push(metric(name, secs(span), "s"));
    }
    m.push(metric(
        "bench.harness_self_s",
        self_secs("cell") + self_secs("pass"),
        "s",
    ));
    let t = typical_pass_secs(traced);
    let u = typical_pass_secs(untraced);
    m.push(metric(
        "trace.overhead_ratio",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
        "ratio",
    ));
    m.extend(counters(run));
    m
}

/// Layers ranked by median self time per traced pass, largest first.
fn self_time_ranking(run: &Run, traced: &[&Pass]) -> Json {
    let totals = traced_totals(run, traced);
    let mut names: Vec<&String> = totals.iter().flat_map(|t| t.keys()).collect();
    names.sort();
    names.dedup();
    let mut ranked: Vec<(String, f64)> = names
        .into_iter()
        // Per-scheme splits repeat their layer's time.
        .filter(|n| !n.starts_with("system.construct.") && !n.starts_with("system.run."))
        .map(|n| (n.clone(), median_secs(&totals, n, true)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    Json::Arr(
        ranked
            .into_iter()
            .map(|(n, s)| Json::obj([("span", n.to_json()), ("self_s", s.to_json())]))
            .collect(),
    )
}

fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn misses(r: Ratio) -> u64 {
    r.total() - r.hits()
}

/// Deterministic counters summed over the first pass's cell reports.
fn counters(run: &Run) -> Vec<Metric> {
    let first = &run.passes[0];
    let reports: Vec<(&RunReport, SchemeKind)> = first
        .cells
        .iter()
        .zip(&run.cells)
        .filter_map(|(o, c)| Some((o.report.as_ref()?, c.scheme())))
        .collect();
    let sum = |f: &dyn Fn(&RunReport) -> u64| -> u64 { reports.iter().map(|(r, _)| f(r)).sum() };
    let mut m = Vec::new();
    for s in SchemeKind::all() {
        let events: u64 = reports
            .iter()
            .filter(|(_, k)| *k == s)
            .map(|(r, _)| r.engine.events_processed)
            .sum();
        m.push(metric(format!("engine.events.{s}"), events, "count"));
    }
    let scheduled = sum(&|r| r.engine.wakes_scheduled);
    let coalesced = sum(&|r| r.engine.wakes_coalesced);
    m.push(metric("engine.wakes_scheduled", scheduled, "count"));
    m.push(metric("engine.wakes_coalesced", coalesced, "count"));
    m.push(metric(
        "engine.idle_cycles_skipped",
        sum(&|r| r.engine.idle_cycles_skipped),
        "cycles",
    ));
    m.push(metric(
        "engine.coalesce_ratio",
        ratio(coalesced, scheduled + coalesced),
        "ratio",
    ));

    m.push(metric(
        "cpu.ops",
        sum(&|r| r.cores.iter().map(|c| c.ops.value()).sum()),
        "count",
    ));
    m.push(metric(
        "cpu.tx_committed",
        sum(&RunReport::total_committed),
        "count",
    ));
    m.push(metric("cpu.cycles", sum(&|r| r.cycles), "cycles"));
    for k in StallKind::all() {
        let stalled = sum(&|r| r.cores.iter().map(|c| c.stall(k)).sum());
        m.push(metric(format!("cpu.stall.{k}"), stalled, "cycles"));
    }

    m.push(metric(
        "cache.l1.misses",
        sum(&|r| r.hierarchy.l1.iter().map(|s| misses(s.accesses)).sum()),
        "count",
    ));
    m.push(metric(
        "cache.l2.misses",
        sum(&|r| r.hierarchy.l2.iter().map(|s| misses(s.accesses)).sum()),
        "count",
    ));
    let llc_total = sum(&|r| r.hierarchy.llc.accesses.total());
    let llc_hits = sum(&|r| r.hierarchy.llc.accesses.hits());
    m.push(metric("cache.llc.accesses", llc_total, "count"));
    m.push(metric(
        "cache.llc.hit_ratio",
        ratio(llc_hits, llc_total),
        "ratio",
    ));
    let coh = |f: &dyn Fn(&CoherenceStats) -> Counter| sum(&|r| f(&r.hierarchy.coherence).value());
    m.push(metric(
        "cache.coherence.remote_invalidations",
        coh(&|c| c.remote_invalidations),
        "count",
    ));
    m.push(metric(
        "cache.coherence.interventions",
        coh(&|c| c.interventions),
        "count",
    ));
    m.push(metric(
        "cache.coherence.shared_fills",
        coh(&|c| c.shared_fills),
        "count",
    ));
    m.push(metric(
        "cache.dropped_llc_writes",
        sum(&|r| r.dropped_llc_writes),
        "count",
    ));

    let tc = |f: &dyn Fn(&pmacc::TcStats) -> u64| sum(&|r| r.tc.iter().map(f).sum());
    let probe_hits = tc(&|t| t.probe_hits.value());
    let probe_misses = tc(&|t| t.probe_misses.value());
    m.push(metric(
        "txcache.inserts",
        tc(&|t| t.inserts.value()),
        "count",
    ));
    m.push(metric("txcache.probe_hits", probe_hits, "count"));
    m.push(metric("txcache.probe_misses", probe_misses, "count"));
    m.push(metric(
        "txcache.probe_hit_ratio",
        ratio(probe_hits, probe_hits + probe_misses),
        "ratio",
    ));
    m.push(metric(
        "txcache.full_rejections",
        tc(&|t| t.full_rejections.value()),
        "count",
    ));
    m.push(metric(
        "txcache.overflows",
        tc(&|t| t.overflows.value()),
        "count",
    ));
    let high_water = reports
        .iter()
        .flat_map(|(r, _)| r.tc.iter().map(|t| t.high_water.value()))
        .max()
        .unwrap_or(0);
    m.push(metric("txcache.high_water", high_water, "count"));

    let nvm_row_hits = sum(&|r| r.nvm.row_hits.hits());
    let nvm_row_total = sum(&|r| r.nvm.row_hits.total());
    let lat_sum = sum(&|r| r.nvm.read_latency.sum());
    let lat_count = sum(&|r| r.nvm.read_latency.count());
    m.push(metric(
        "mem.nvm.reads",
        sum(&|r| r.nvm.reads.value()),
        "count",
    ));
    m.push(metric("mem.nvm.writes", sum(&|r| r.nvm.writes()), "count"));
    m.push(metric(
        "mem.nvm.row_hit_ratio",
        ratio(nvm_row_hits, nvm_row_total),
        "ratio",
    ));
    m.push(metric(
        "mem.nvm.rejected",
        sum(&|r| r.nvm.rejected.value()),
        "count",
    ));
    m.push(metric(
        "mem.nvm.read_latency_mean",
        ratio(lat_sum, lat_count),
        "cycles",
    ));
    m.push(metric(
        "mem.dram.reads",
        sum(&|r| r.dram.reads.value()),
        "count",
    ));
    m.push(metric(
        "mem.dram.writes",
        sum(&|r| r.dram.writes()),
        "count",
    ));

    let mean = |f: &dyn Fn(&crate::run::CellOut) -> &Vec<usize>| {
        let v: Vec<usize> = first
            .cells
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect();
        ratio(v.iter().sum::<usize>() as u64, v.len() as u64)
    };
    m.push(metric("recovery.points", first.points(), "count"));
    m.push(metric(
        "recovery.journal_len_mean",
        mean(&|c| &c.journal_len),
        "count",
    ));
    m.push(metric(
        "recovery.image_words_mean",
        mean(&|c| &c.image_words),
        "words",
    ));
    m
}
