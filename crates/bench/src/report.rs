//! Machine-readable run reports and the regression-gate comparison.
//!
//! Three layers, all built on `pmacc-telemetry`:
//!
//! 1. [`full_report`] assembles everything a `reproduce --json` run
//!    produced — per-cell [`pmacc::RunReport`]s, the rendered figure
//!    tables and the flattened [`key_metrics`] — into one JSON document
//!    (schema [`REPORT_SCHEMA`]).
//! 2. [`key_metrics`] flattens a grid into a
//!    [`MetricsRegistry`]: normalized per-scheme figure means, absolute
//!    per-cell IPC, stall fractions, and NVM write counts by cause.
//!    These are the numbers the regression gate watches.
//! 3. [`baseline_json`] / [`compare_to_baseline`] implement the gate
//!    itself: a checked-in baseline document (schema
//!    [`BASELINE_SCHEMA`]) records one value and one relative tolerance
//!    per metric; a comparison returns the named metrics that moved out
//!    of tolerance, so CI failures say *which* calibration drifted, not
//!    just that something did.
//!
//! Documents are rendered with insertion-ordered objects and sorted
//! registry keys, so the same grid always serializes to the same bytes —
//! the determinism test diffs `--json` output across worker counts.

use core::fmt;

use pmacc_cpu::StallKind;
use pmacc_telemetry::{Json, MetricsRegistry, ToJson};
use pmacc_types::{SchemeKind, WriteCause};
use pmacc_workloads::WorkloadKind;

use crate::figures::{Render, EXPERIMENTS};
use crate::grid::{GridResults, Scale};
use crate::table::FigTable;

/// Schema tag of the `full_report` document.
pub const REPORT_SCHEMA: &str = "pmacc-report-v1";
/// Schema tag of the baseline document the regression gate consumes.
pub const BASELINE_SCHEMA: &str = "pmacc-baseline-v1";
/// Default relative tolerance for gauge (float) metrics.
pub const GAUGE_REL_TOL: f64 = 0.02;
/// Default relative tolerance for counter (integer) metrics, which are
/// coarser-grained and move in bigger steps on small grids.
pub const COUNTER_REL_TOL: f64 = 0.05;

impl ToJson for GridResults {
    /// `{"scale": ..., "cells": [{workload, scheme, report}, ...]}` in
    /// the grid's own deterministic (workload, scheme) key order.
    fn to_json(&self) -> Json {
        let cells = self
            .results
            .iter()
            .map(|((kind, scheme), report)| {
                Json::obj([
                    ("workload", kind.to_string().to_json()),
                    ("scheme", scheme.to_string().to_json()),
                    ("report", report.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("scale", self.scale.to_string().to_json()),
            ("cells", Json::Arr(cells)),
        ])
    }
}

/// Flattens a grid into the named scalar metrics the regression gate
/// tracks.
///
/// Gauges (floats, tolerance [`GAUGE_REL_TOL`]):
///
/// - `fig6/<scheme>/mean` .. `fig10/<scheme>/mean` — the per-figure
///   metric (IPC, throughput, LLC miss rate, NVM write traffic,
///   persistent load latency) normalized to Optimal and averaged over
///   workloads, i.e. the headline bar heights of each figure, taken from
///   the normalized figures of [`EXPERIMENTS`] (the energy
///   extension is not gated);
/// - `ipc/<scheme>/<workload>` — absolute per-cell IPC;
/// - `stall_frac/<scheme>/<kind>` — per-cause stall fraction averaged
///   over workloads (the §5.2 "TC never stalls commits" claim is
///   `stall_frac/tc/txcache-full`);
/// - `wear/<scheme>/{max_wpl,p99_wpl,mean_wpl,imbalance}` — NVM
///   endurance summary over the whole grid: worst-case and p99
///   writes-per-line maxed over workloads, mean writes-per-line and
///   max/mean imbalance averaged over workloads. These gate wear drift
///   by name: a scheme that suddenly hammers one line moves
///   `wear/<scheme>/imbalance` even when total traffic (fig9) holds.
///
/// Counters (integers, tolerance [`COUNTER_REL_TOL`]):
///
/// - `nvm_writes/<scheme>/<cause>` — NVM write traffic by
///   [`WriteCause`], summed over workloads (Figure 9's breakdown);
/// - `cycles/<scheme>` — total simulated cycles over workloads;
/// - `tc_overflows/<scheme>` — COW fall-back events.
///
/// One histogram, `cell_cycles`, records each cell's wall cycles; it is
/// carried in reports for eyeballing but never gated
/// ([`MetricsRegistry::value`] is scalar-only).
#[must_use]
pub fn key_metrics(grid: &GridResults) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for scheme in SchemeKind::all() {
        // Figures 6–10; the energy extension is not gated.
        for fig in EXPERIMENTS.iter().filter(|e| e.name != "energy") {
            if let Render::Normalized { metric, .. } = fig.render {
                let mean = grid.mean_normalized(scheme, metric);
                reg.gauge_set(&format!("{}/{scheme}/mean", fig.name), mean);
            }
        }
        for kind in StallKind::all() {
            let mean = WorkloadKind::all()
                .iter()
                .map(|w| grid.get(*w, scheme).stall_fraction(kind))
                .sum::<f64>()
                / WorkloadKind::all().len() as f64;
            reg.gauge_set(&format!("stall_frac/{scheme}/{kind}"), mean);
        }
        let (mut max_wpl, mut p99_wpl, mut mean_wpl, mut imbalance) = (0u64, 0u64, 0.0, 0.0);
        for workload in WorkloadKind::all() {
            let report = grid.get(workload, scheme);
            max_wpl = max_wpl.max(report.nvm.max_writes_per_line());
            p99_wpl = p99_wpl.max(report.nvm.p99_writes_per_line());
            mean_wpl += report.nvm.mean_writes_per_line();
            imbalance += report.nvm.wear_imbalance();
            reg.gauge_set(&format!("ipc/{scheme}/{workload}"), report.ipc());
            reg.counter_add(&format!("cycles/{scheme}"), report.cycles);
            reg.counter_add(&format!("tc_overflows/{scheme}"), report.tc_overflows());
            reg.histogram_record("cell_cycles", report.cycles);
            // Simulator-effort counters: a scheduling bug that leaves
            // results identical but doubles the event count is still a
            // regression, so the gate pins these too.
            reg.counter_add(&format!("engine/{scheme}/events"), report.engine.events_processed);
            reg.counter_add(
                &format!("engine/{scheme}/wakes_scheduled"),
                report.engine.wakes_scheduled,
            );
            reg.counter_add(
                &format!("engine/{scheme}/wakes_coalesced"),
                report.engine.wakes_coalesced,
            );
            reg.counter_add(
                &format!("engine/{scheme}/idle_skipped"),
                report.engine.idle_cycles_skipped,
            );
            for cause in WriteCause::all() {
                reg.counter_add(
                    &format!("nvm_writes/{scheme}/{cause}"),
                    report.nvm_writes_by(cause),
                );
            }
        }
        let cells = WorkloadKind::all().len() as f64;
        reg.gauge_set(&format!("wear/{scheme}/max_wpl"), max_wpl as f64);
        reg.gauge_set(&format!("wear/{scheme}/p99_wpl"), p99_wpl as f64);
        reg.gauge_set(&format!("wear/{scheme}/mean_wpl"), mean_wpl / cells);
        reg.gauge_set(&format!("wear/{scheme}/imbalance"), imbalance / cells);
    }
    reg
}

/// Assembles the complete machine-readable document for one `reproduce`
/// invocation: meta header, the grid (when one was run), its key
/// metrics, and every rendered figure table.
///
/// Deliberately excludes anything that varies run to run without
/// changing results — worker count, wall-clock time, host — so the
/// document is a pure function of `(scale, seed, experiments)`.
#[must_use]
pub fn full_report(
    scale: Scale,
    seed: u64,
    grid: Option<&GridResults>,
    figures: &[(String, FigTable)],
) -> Json {
    let figs = figures
        .iter()
        .map(|(name, t)| {
            let mut j = t.to_json();
            j.set("experiment", name.to_json());
            j
        })
        .collect();
    Json::obj([
        ("schema", REPORT_SCHEMA.to_json()),
        (
            "meta",
            Json::obj([
                ("scale", scale.to_string().to_json()),
                ("seed", seed.to_json()),
                (
                    "schemes",
                    Json::Arr(
                        SchemeKind::all().iter().map(|s| s.to_string().to_json()).collect(),
                    ),
                ),
                (
                    "workloads",
                    Json::Arr(
                        WorkloadKind::all().iter().map(|w| w.to_string().to_json()).collect(),
                    ),
                ),
            ]),
        ),
        ("grid", grid.map(ToJson::to_json).to_json()),
        ("key_metrics", grid.map(|g| key_metrics(g).to_json()).to_json()),
        ("figures", Json::Arr(figs)),
    ])
}

/// Renders a registry as a baseline document the gate can be run
/// against later: every scalar metric with its value and per-metric
/// relative tolerance ([`GAUGE_REL_TOL`] for gauges,
/// [`COUNTER_REL_TOL`] for counters).
#[must_use]
pub fn baseline_json(reg: &MetricsRegistry, scale: Scale, seed: u64) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for (name, value) in reg.counters() {
        metrics.push((
            name.to_string(),
            Json::obj([
                ("value", value.to_json()),
                ("rel_tol", COUNTER_REL_TOL.to_json()),
            ]),
        ));
    }
    for (name, value) in reg.gauges() {
        metrics.push((
            name.to_string(),
            Json::obj([
                ("value", value.to_json()),
                ("rel_tol", GAUGE_REL_TOL.to_json()),
            ]),
        ));
    }
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    Json::obj([
        ("schema", BASELINE_SCHEMA.to_json()),
        ("scale", scale.to_string().to_json()),
        ("seed", seed.to_json()),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One metric that failed the regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Metric name, e.g. `fig6/tc/mean`.
    pub name: String,
    /// Value recorded in the baseline.
    pub expected: f64,
    /// Value measured by the fresh run; `None` if the run no longer
    /// produces the metric at all.
    pub actual: Option<f64>,
    /// Relative error `|actual - expected| / max(|expected|, 1e-9)`.
    pub rel_err: f64,
    /// Tolerance the error exceeded.
    pub rel_tol: f64,
}

impl fmt::Display for MetricDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.actual {
            Some(a) => write!(
                f,
                "{}: expected {}, got {} (rel err {:.4} > tol {})",
                self.name, self.expected, a, self.rel_err, self.rel_tol
            ),
            None => write!(f, "{}: expected {}, metric missing from run", self.name, self.expected),
        }
    }
}

/// Compares a fresh run's metrics against a parsed baseline document.
///
/// Returns the out-of-tolerance metrics in name order (empty = gate
/// passes). A metric present in the baseline but absent from the run
/// fails with `actual: None`; metrics the run produces but the baseline
/// does not record are ignored, so adding instrumentation never breaks
/// the gate.
///
/// # Errors
///
/// Returns a description when the baseline document is malformed: wrong
/// `schema` tag, missing `metrics` object, or an entry without a finite
/// numeric `value`.
pub fn compare_to_baseline(
    reg: &MetricsRegistry,
    baseline: &Json,
) -> Result<Vec<MetricDiff>, String> {
    let schema = baseline.get("schema").and_then(Json::as_str);
    if schema != Some(BASELINE_SCHEMA) {
        return Err(format!(
            "baseline schema is {schema:?}, expected {BASELINE_SCHEMA:?}; \
             regenerate it with `regress --write-baseline`"
        ));
    }
    let Some(metrics) = baseline.get("metrics").and_then(Json::as_obj) else {
        return Err("baseline has no `metrics` object".to_string());
    };
    let mut diffs = Vec::new();
    for (name, entry) in metrics {
        let Some(expected) = entry.get("value").and_then(Json::as_f64).filter(|v| v.is_finite())
        else {
            return Err(format!("baseline metric `{name}` has no finite `value`"));
        };
        let rel_tol = entry
            .get("rel_tol")
            .and_then(Json::as_f64)
            .unwrap_or(GAUGE_REL_TOL);
        let actual = reg.value(name);
        let rel_err = match actual {
            Some(a) => (a - expected).abs() / expected.abs().max(1e-9),
            None => f64::INFINITY,
        };
        if rel_err > rel_tol {
            diffs.push(MetricDiff {
                name: name.clone(),
                expected,
                actual,
                rel_err,
                rel_tol,
            });
        }
    }
    Ok(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("fig6/tc/mean", 0.95);
        reg.gauge_set("fig9/sp/mean", 2.5);
        reg.counter_add("cycles/tc", 1_000);
        reg
    }

    #[test]
    fn baseline_roundtrip_passes_gate() {
        let reg = tiny_registry();
        let doc = baseline_json(&reg, Scale::Quick, 42);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BASELINE_SCHEMA));
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("quick"));
        // Serialize, reparse, compare against the registry it came from.
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(compare_to_baseline(&reg, &parsed), Ok(Vec::new()));
    }

    #[test]
    fn out_of_tolerance_metric_is_named() {
        let reg = tiny_registry();
        let baseline = baseline_json(&reg, Scale::Quick, 42);
        let mut moved = tiny_registry();
        moved.gauge_set("fig6/tc/mean", 0.95 * 1.10); // +10% >> 2% tol
        let diffs = compare_to_baseline(&moved, &baseline).unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].name, "fig6/tc/mean");
        assert!(diffs[0].rel_err > 0.09 && diffs[0].rel_err < 0.11);
        assert!(diffs[0].to_string().contains("fig6/tc/mean"));
    }

    #[test]
    fn counters_get_the_looser_tolerance() {
        let reg = tiny_registry();
        let baseline = baseline_json(&reg, Scale::Quick, 42);
        let mut moved = tiny_registry();
        moved.counter_add("cycles/tc", 40); // +4%: within 5% counter tol
        assert_eq!(compare_to_baseline(&moved, &baseline), Ok(Vec::new()));
        let mut far = tiny_registry();
        far.counter_add("cycles/tc", 80); // +8%: out
        let diffs = compare_to_baseline(&far, &baseline).unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].name, "cycles/tc");
        assert_eq!(diffs[0].rel_tol, COUNTER_REL_TOL);
    }

    #[test]
    fn missing_metric_fails_with_none() {
        let reg = tiny_registry();
        let baseline = baseline_json(&reg, Scale::Quick, 42);
        let mut empty = MetricsRegistry::new();
        empty.gauge_set("unrelated", 1.0);
        let diffs = compare_to_baseline(&empty, &baseline).unwrap();
        assert_eq!(diffs.len(), 3, "every baseline metric is missing");
        assert!(diffs.iter().all(|d| d.actual.is_none()));
        assert!(diffs[0].to_string().contains("missing"));
    }

    #[test]
    fn extra_run_metrics_are_ignored() {
        let reg = tiny_registry();
        let baseline = baseline_json(&reg, Scale::Quick, 42);
        let mut more = tiny_registry();
        more.gauge_set("brand/new/metric", 123.0);
        assert_eq!(compare_to_baseline(&more, &baseline), Ok(Vec::new()));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        let reg = tiny_registry();
        let wrong_schema = Json::obj([("schema", "something-else".to_json())]);
        assert!(compare_to_baseline(&reg, &wrong_schema)
            .unwrap_err()
            .contains("write-baseline"));
        let no_metrics = Json::obj([("schema", BASELINE_SCHEMA.to_json())]);
        assert!(compare_to_baseline(&reg, &no_metrics).unwrap_err().contains("metrics"));
        let bad_value = Json::obj([
            ("schema", BASELINE_SCHEMA.to_json()),
            (
                "metrics",
                Json::obj([("m", Json::obj([("value", Json::Null)]))]),
            ),
        ]);
        assert!(compare_to_baseline(&reg, &bad_value).unwrap_err().contains("`m`"));
    }

    #[test]
    fn full_report_shape_without_grid() {
        let mut t = FigTable::new("Table 1", "t", "c", vec!["a".into()]);
        t.push_row(vec!["1".into()]);
        let doc = full_report(Scale::Quick, 7, None, &[("table1".to_string(), t)]);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(REPORT_SCHEMA));
        assert_eq!(doc.get("grid"), Some(&Json::Null));
        assert_eq!(doc.get("key_metrics"), Some(&Json::Null));
        let figs = doc.get("figures").and_then(Json::as_arr).unwrap();
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].get("experiment").and_then(Json::as_str), Some("table1"));
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("seed")),
            Some(&Json::Int(7))
        );
        assert!(Json::parse(&doc.to_pretty()).is_ok());
    }
}
