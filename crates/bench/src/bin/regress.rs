//! The calibration regression gate: runs a fresh experiment grid and
//! diffs its key metrics against a checked-in baseline.
//!
//! `regress --help` lists the flags. The default baseline is
//! `baselines/metrics-quick.json` (relative to the working directory —
//! CI runs from the repository root). Every baseline entry carries its
//! own relative tolerance; a fresh run whose metrics all land within
//! tolerance exits 0, anything else exits 1 and prints one line per
//! offending metric, by name, to stderr:
//!
//! ```text
//! regress: fig9/tc/mean: expected 0.31, got 0.44 (rel err 0.42 > tol 0.02)
//! ```
//!
//! After an *intentional* calibration change, refresh the baseline with
//! `--write-baseline` (at the scale and seed the gate uses) and commit
//! the result. `--json FILE` writes the fresh run's metrics in the same
//! baseline document format — CI publishes it as `BENCH_pmacc.json` so
//! trends can be tracked across commits.

use std::process::ExitCode;

use pmacc::RunConfig;
use pmacc_bench::cli::{self, Args, Flag, Spec};
use pmacc_bench::grid::{run_grid_opts, Scale};
use pmacc_bench::report;
use pmacc_telemetry::Json;

const DEFAULT_BASELINE: &str = "baselines/metrics-quick.json";

fn spec() -> Spec {
    Spec {
        name: "regress",
        flags: vec![
            Flag::switch("--quick"),
            Flag::switch("--full"),
            Flag::seed(),
            Flag::jobs(),
            Flag::value("--baseline", "FILE"),
            Flag::switch("--write-baseline"),
            Flag::json(),
        ],
        positional: None,
        notes: format!("default baseline: {DEFAULT_BASELINE}\n"),
    }
}

fn main() -> ExitCode {
    cli::main(&spec(), run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scale = args.scale(Scale::Quick);
    let seed = args.seed()?;
    let opts = args.options()?;
    let baseline_path = args.value("--baseline").unwrap_or(DEFAULT_BASELINE);

    eprintln!(
        "regress: running the {scale} grid (seed {seed}) on {} worker(s) ...",
        opts.jobs
    );
    let grid = run_grid_opts(scale, seed, &RunConfig::default(), &opts)
        .map_err(|e| format!("grid failed: {e}"))?;
    let metrics = report::key_metrics(&grid);
    let doc = report::baseline_json(&metrics, scale, seed);

    if let Some(path) = args.json() {
        cli::write_json(path, &doc)?;
    }
    if args.has("--write-baseline") {
        cli::write_json(baseline_path, &doc)?;
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = cli::read_json(baseline_path)
        .map_err(|e| format!("{e}\nregress: create one with `regress --write-baseline`"))?;
    if baseline.get("scale").and_then(Json::as_str) != Some(scale.to_string().as_str()) {
        return Err(format!(
            "baseline {baseline_path} was recorded at scale {:?}, \
             but this run is {scale}; pass the matching scale flag",
            baseline.get("scale").and_then(Json::as_str).unwrap_or("?")
        ));
    }
    let diffs = report::compare_to_baseline(&metrics, &baseline)?;
    if diffs.is_empty() {
        eprintln!("regress: all baseline metrics within tolerance");
        return Ok(ExitCode::SUCCESS);
    }
    for d in &diffs {
        eprintln!("regress: {d}");
    }
    eprintln!(
        "regress: {} metric(s) out of tolerance vs {baseline_path}; \
         if the calibration change is intentional, refresh with \
         `regress --write-baseline`",
        diffs.len()
    );
    Ok(ExitCode::FAILURE)
}
