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
//! time series, key metrics, and every rendered table — for plotting
//! tools and the `regress` gate's `BENCH` artifacts. `--bars` adds a
//! text bar chart under each table and `--csv DIR` writes one CSV per
//! table.
//!
//! Independent simulation cells fan out over the `pmacc_bench::pool`
//! worker pool: `--jobs N` (or the `PMACC_JOBS` environment variable)
//! bounds the worker count, defaulting to all available cores. Results
//! — including the `--json` document, byte for byte — are identical at
//! any job count for the same seed.

use std::process::ExitCode;

use pmacc::RunConfig;
use pmacc_bench::cli::{self, Args, Flag, Spec};
use pmacc_bench::figures;
use pmacc_bench::grid::{run_grid_opts, Scale};
use pmacc_bench::{report, suggest};
use pmacc_types::MachineConfig;

const GRID_EXPERIMENTS: [&str; 9] = [
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig9-breakdown",
    "fig10",
    "stalls",
    "energy",
    "endurance",
];
const ALL_EXPERIMENTS: [&str; 22] = [
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
];

fn spec() -> Spec {
    Spec {
        name: "reproduce",
        flags: vec![
            Flag::switch("--quick"),
            Flag::switch("--full"),
            Flag::switch("--bars"),
            Flag::value("--csv", "DIR"),
            Flag::json(),
            Flag::seed(),
            Flag::jobs(),
            Flag::switch("--list"),
        ],
        positional: Some("[experiment ...]"),
        notes: format!("experiments: {}\n", ALL_EXPERIMENTS.join(" ")),
    }
}

fn main() -> ExitCode {
    cli::main(&spec(), run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.has("--list") {
        for e in ALL_EXPERIMENTS {
            println!("{e}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let scale = args.scale(Scale::Default);
    let seed = args.seed()?;
    let opts = args.options()?;
    for w in args.positionals() {
        if !ALL_EXPERIMENTS.contains(&w.as_str()) {
            let hint = suggest::closest(w, &ALL_EXPERIMENTS)
                .map(|s| format!("; did you mean `{s}`?"))
                .unwrap_or_default();
            return Err(format!(
                "unknown experiment `{w}`{hint}\nrun `reproduce --list` for the experiment names"
            ));
        }
    }
    let wanted: Vec<&str> = if args.positionals().is_empty() {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.positionals().iter().map(String::as_str).collect()
    };

    println!("# pmacc reproduction report\n");
    println!(
        "Scale: {scale}; seed: {seed}; machine: Table 2, capacity-scaled for the grid.\n"
    );

    // The grid-derived figures share one grid; run it once if any is
    // requested.
    let needs_grid = wanted.iter().any(|w| GRID_EXPERIMENTS.contains(w));
    let grid = if needs_grid {
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
    for &w in &wanted {
        eprintln!("rendering {w} ...");
        let table = match w {
            "table1" => Ok(figures::table1(&MachineConfig::dac17())),
            "table2" => Ok(figures::table2(&MachineConfig::dac17())),
            "table3" => Ok(figures::table3(scale, seed)),
            "fig6" => Ok(figures::fig6(grid.as_ref().expect("grid ran"))),
            "fig7" => Ok(figures::fig7(grid.as_ref().expect("grid ran"))),
            "fig8" => Ok(figures::fig8(grid.as_ref().expect("grid ran"))),
            "fig9" => Ok(figures::fig9(grid.as_ref().expect("grid ran"))),
            "fig9-breakdown" => {
                Ok(figures::fig9_breakdown(grid.as_ref().expect("grid ran")))
            }
            "fig10" => Ok(figures::fig10(grid.as_ref().expect("grid ran"))),
            "stalls" => Ok(figures::stalls(grid.as_ref().expect("grid ran"))),
            "energy" => Ok(figures::energy(grid.as_ref().expect("grid ran"))),
            "endurance" => Ok(figures::endurance(grid.as_ref().expect("grid ran"))),
            "recovery" => figures::recovery_table(scale, seed, &opts),
            "mix" => figures::mix(scale, seed, &opts),
            "warm" => figures::warm(scale, seed, &opts),
            "sharing" => figures::sharing(scale, seed, &opts),
            "wear" => figures::wear(scale, seed, &opts),
            "ablation-size" => figures::ablation_txcache_size(scale, seed, &opts),
            "ablation-overflow" => figures::ablation_overflow(scale, seed, &opts),
            "ablation-nvm" => figures::ablation_nvm_latency(scale, seed, &opts),
            "ablation-coalesce" => figures::ablation_coalesce(scale, seed, &opts),
            "ablation-sp-fencing" => figures::ablation_sp_fencing(scale, seed, &opts),
            _ => unreachable!("validated above"),
        };
        let t = table.map_err(|e| format!("{w} failed: {e}"))?;
        print!("{t}");
        if args.has("--bars") {
            println!("```text\n{}```\n", t.to_bars());
        }
        if let Some(dir) = args.value("--csv") {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(format!("{dir}/{w}.csv"), t.to_csv()))
                .map_err(|e| format!("cannot write {dir}/{w}.csv: {e}"))?;
        }
        rendered.push((w.to_string(), t));
    }

    if let Some(path) = args.json() {
        cli::write_json(path, &report::full_report(scale, seed, grid.as_ref(), &rendered))?;
    }
    Ok(ExitCode::SUCCESS)
}
