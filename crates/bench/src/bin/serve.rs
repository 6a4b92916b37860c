//! The open-system service benchmark driver: rate ramps, latency tails
//! and throughput ceilings per persistence scheme.
//!
//! `serve --help` lists the flags. Each scheme is first calibrated
//! closed-loop (its service capacity), then driven as a KV/heap server
//! at a ladder of offered rates under the chosen arrival process. Per-request sojourn/wait/service times
//! land in log2 histograms; the report quotes p50/p99/p99.9 latency, a
//! stall-attributed tail breakdown (transaction-cache drain vs NVM
//! queue pressure), and the per-scheme throughput ceiling.
//!
//! `--json FILE` writes the `pmacc-serve-v1` report — byte-identical at
//! any `--jobs` count; wall-clock goes to stderr only. `--verify FILE`
//! parses an existing report and validates its structure — the second
//! half of the CI gate.
//!
//! Exit status: 0 when the campaign (or verification) succeeds.

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Instant;

use pmacc_bench::cli::{self, choices, Args, Flag, Spec};
use pmacc_bench::serve::{parse_report, run_serve, ArrivalKind, ServeCampaignConfig};
use pmacc_types::SchemeKind;
use pmacc_workloads::WorkloadKind;

fn spec() -> Spec {
    Spec {
        name: "serve",
        flags: vec![
            Flag::switch("--quick"),
            Flag::seed(),
            Flag::jobs(),
            Flag::json(),
            Flag::value("--workload", choices(WorkloadKind::extended())),
            Flag::value("--arrival", choices(ArrivalKind::all())),
            Flag::value("--schemes", format!("LIST of {}", choices(SchemeKind::all()))),
            Flag::value("--cores", "N"),
            Flag::value("--verify", "FILE"),
        ],
        positional: None,
        notes: "--quick is the only campaign scale; LIST is comma-separated\n".into(),
    }
}

fn main() -> ExitCode {
    cli::main(&spec(), run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some(path) = args.value("--verify") {
        let s = parse_report(&cli::read_json(path)?)
            .map_err(|e| format!("{path} failed validation: {e}"))?;
        eprintln!(
            "serve: {path} ok: {} scheme(s), {} rate point(s), {} completed, {} shed",
            s.schemes, s.rate_points, s.total_completed, s.total_shed
        );
        return Ok(ExitCode::SUCCESS);
    }
    let seed = args.seed()?;
    let opts = args.options()?;
    let mut cfg = ServeCampaignConfig::quick(seed);
    if let Some(v) = args.get("--arrival")? {
        cfg.arrival = v;
    }
    if let Some(v) = args.list("--schemes")? {
        cfg.schemes = v;
    }
    if let Some(v) = args.get("--workload")? {
        cfg.workload = v;
    }
    if let Some(v) = args.get::<NonZeroUsize>("--cores")? {
        cfg.cores = v.get();
    }

    eprintln!(
        "serve: ramping {} scheme(s) x {} rate(s) ({} arrivals, {} x{} requests, seed {seed}) \
         on {} worker(s) ...",
        cfg.schemes.len(),
        cfg.load_fractions.len(),
        cfg.arrival,
        cfg.cores,
        cfg.params.num_ops,
        opts.jobs
    );
    let started = Instant::now();
    let report = run_serve(&cfg, &opts).map_err(|e| format!("campaign failed: {e}"))?;
    // Wall-clock goes to stderr only: the JSON report must stay
    // byte-identical across worker counts and machines.
    eprintln!(
        "serve: {} rate point(s) in {:.1}s",
        report.curves.iter().map(|c| c.points.len()).sum::<usize>(),
        started.elapsed().as_secs_f64()
    );

    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>6} {:>7}",
        "scheme", "offered", "achieved", "p50", "p99", "p99.9", "tc-tail", "shed", "ceiling"
    );
    for curve in &report.curves {
        for (i, p) in curve.points.iter().enumerate() {
            let total = p.tc_stall.sum() + p.nvm_stall.sum();
            let tc_share = if total == 0 {
                0.0
            } else {
                p.tc_stall.sum() as f64 / total as f64
            };
            let ceiling = if i == 0 {
                format!("{:.3}", curve.ceiling())
            } else {
                String::new()
            };
            println!(
                "{:<8} {:>9.4} {:>9.4} {:>9} {:>8} {:>8} {:>8.0}% {:>6} {:>7}",
                curve.scheme.to_string(),
                p.offered,
                p.achieved,
                p.latency.percentile(0.50),
                p.latency.percentile(0.99),
                p.latency.percentile(0.999),
                tc_share * 100.0,
                p.shed,
                ceiling
            );
        }
    }

    if let Some(path) = args.json() {
        cli::write_json(path, &report.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}
