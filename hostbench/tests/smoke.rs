//! Tiny-size smoke test of the benchmark binary: every metric that
//! `BENCHMARK.json` names is printed with its unit, every check passes,
//! and the traced run writes well-formed spans.

use std::path::{Path, PathBuf};
use std::process::Command;

use pmacc_telemetry::Json;

const WORKLOADS: [&str; 3] = ["grid-quick", "long-sim", "crash-sweep"];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary at tiny size; returns the info and result objects.
fn run(workload: &str, trace: bool, spans: &Path) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmacc-hostbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(spans)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.trim_end().lines().collect();
    let info = Json::parse(lines[lines.len() - 2]).expect("info line is JSON");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    (info.get("info").expect("info object").clone(), result)
}

fn spans_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-spans-{workload}.json"))
}

#[test]
fn every_listed_metric_is_printed_and_every_check_passes() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (_, result) = run(workload, trace, &spans_path(workload));
            let keys: Vec<&str> = result
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {result:?}"
            );
            assert_eq!(result.get("failed"), Some(&Json::Int(0)));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in listed(&doc, list) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` not printed"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if !trace {
                    assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
                }
            }
            assert_eq!(
                metrics.as_obj().map(<[_]>::len),
                Some(listed(&doc, list).len())
            );
        }
    }
}

#[test]
fn traced_run_writes_well_formed_spans() {
    for workload in WORKLOADS {
        let path = spans_path(&format!("wf-{workload}"));
        let (info, _) = run(workload, true, &path);
        assert!(info
            .get("self_time_s")
            .and_then(Json::as_arr)
            .is_some_and(|r| !r.is_empty()));
        let doc =
            Json::parse(&std::fs::read_to_string(&path).expect("spans written")).expect("JSON");
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .expect("cells")
            .len();
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty());
        let int = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).map(|v| v as u64);
        let mut child_ns = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            assert!(s
                .get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| !n.is_empty()));
            let (start, end) = (
                int(s, "start_ns").expect("start"),
                int(s, "end_ns").expect("end"),
            );
            assert!(start <= end, "span {i} ends before it starts");
            if let Some(c) = int(s, "cell") {
                assert!((c as usize) < cells, "span {i} names cell {c}");
            }
            if let Some(p) = int(s, "parent") {
                let p = p as usize;
                assert!(p < i, "span {i}: parent {p} opened later");
                let parent = &spans[p];
                assert!(
                    int(parent, "start_ns").unwrap() <= start
                        && end <= int(parent, "end_ns").unwrap()
                );
                child_ns[p] += end - start;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = int(s, "end_ns").unwrap() - int(s, "start_ns").unwrap();
            assert!(child_ns[i] <= dur, "span {i}: negative self time");
        }
    }
}
