//! Regenerates every table and figure of the paper.
//!
//! `reproduce --help` lists the flags. With no experiment arguments,
//! everything runs; `--list` prints the experiment names (one per line,
//! the authoritative list — this doc comment deliberately does not
//! repeat it). A mistyped name exits nonzero with a "did you mean"
//! suggestion.
//!
//! Output is markdown on stdout (progress goes to stderr), so
//! `reproduce > results.md` captures a complete report. `--json FILE`
//! additionally writes the machine-readable document assembled by
//! [`pmacc_bench::report::full_report`] — per-cell reports with sampled
//! time series, key metrics, and every rendered table verbatim — for
//! plotting tools and the `regress` gate's `BENCH` artifacts.
//!
//! Independent simulation cells fan out over the `pmacc_bench::pool`
//! worker pool: `--jobs N` (or the `PMACC_JOBS` environment variable)
//! bounds the worker count, defaulting to all available cores. Results
//! — including the `--json` document, byte for byte — are identical at
//! any job count for the same seed.
//!
//! The experiments themselves, in run order, are
//! [`pmacc_bench::figures::EXPERIMENTS`].

use std::process::ExitCode;

use pmacc::RunConfig;
use pmacc_bench::cli::{self, Args, Flag, Spec};
use pmacc_bench::figures::{self, EXPERIMENTS};
use pmacc_bench::grid::{run_grid_opts, Scale};
use pmacc_bench::{report, suggest};

fn spec() -> Spec {
    Spec {
        name: "reproduce",
        flags: vec![
            Flag::switch("--quick"),
            Flag::switch("--full"),
            Flag::json(),
            Flag::seed(),
            Flag::jobs(),
            Flag::switch("--list"),
        ],
        positional: Some("[experiment ...]"),
        notes: format!("experiments: {}\n", figures::names().join(" ")),
    }
}

fn main() -> ExitCode {
    cli::main(&spec(), run)
}

/// The error for an experiment name the registry does not know.
fn unknown(name: &str) -> String {
    let hint = suggest::closest(name, &figures::names())
        .map(|s| format!("; did you mean `{s}`?"))
        .unwrap_or_default();
    format!("unknown experiment `{name}`{hint}\nrun `reproduce --list` for the experiment names")
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.has("--list") {
        for e in EXPERIMENTS {
            println!("{}", e.name);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let scale = args.scale(Scale::Default);
    let seed = args.seed()?;
    let opts = args.options()?;
    let wanted = if args.positionals().is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        args.positionals()
            .iter()
            .map(|w| EXPERIMENTS.iter().find(|e| e.name == w).ok_or_else(|| unknown(w)))
            .collect::<Result<Vec<_>, _>>()?
    };

    println!("# pmacc reproduction report\n");
    println!(
        "Scale: {scale}; seed: {seed}; machine: Table 2, capacity-scaled for the grid.\n"
    );

    // The grid-derived figures share one grid; run it once if any is
    // requested.
    let grid = if wanted.iter().any(|e| e.reads_grid()) {
        eprintln!(
            "running the {scale} scheme x workload grid on {} worker(s) ...",
            opts.jobs
        );
        let grid = run_grid_opts(scale, seed, &RunConfig::default(), &opts)
            .map_err(|e| format!("grid failed: {e}"))?;
        Some(grid)
    } else {
        None
    };

    let mut rendered: Vec<(String, pmacc_bench::FigTable)> = Vec::new();
    for e in wanted {
        eprintln!("rendering {} ...", e.name);
        let t = e
            .render(scale, seed, grid.as_ref(), &opts)
            .map_err(|err| format!("{} failed: {err}", e.name))?;
        print!("{t}");
        rendered.push((e.name.to_string(), t));
    }

    if let Some(path) = args.json() {
        cli::write_json(path, &report::full_report(scale, seed, grid.as_ref(), &rendered))?;
    }
    Ok(ExitCode::SUCCESS)
}
