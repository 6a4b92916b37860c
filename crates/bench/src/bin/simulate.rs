//! A configurable single-run simulator CLI: pick a scheme, workload,
//! machine and knobs, run it, and get the full measurement report —
//! optionally with a mid-run crash plus recovery check (`--crash-at
//! FRACTION`) or a dump of the generated trace (`--dump-trace FILE`, the
//! input of `tracestat`). `simulate --help` lists the flags.

use std::process::ExitCode;

use pmacc::energy::{energy_of, EnergyParams};
use pmacc::recovery::{check_recovery, recover, recovery_cost};
use pmacc::{RunConfig, System};
use pmacc_bench::cli::{self, choices, Args, Flag, Spec};
use pmacc_cpu::StallKind;
use pmacc_types::{MachineConfig, SchemeKind, WriteCause};
use pmacc_workloads::{build, WorkloadKind, WorkloadParams};

fn spec() -> Spec {
    Spec {
        name: "simulate",
        flags: vec![
            Flag::value("--scheme", choices(SchemeKind::all())),
            Flag::value("--workload", choices(WorkloadKind::extended())),
            Flag::value("--machine", "dac17|scaled|small"),
            Flag::value("--ops", "N"),
            Flag::value("--setup", "N"),
            Flag::value("--keys", "N"),
            Flag::value("--insert-ratio", "PCT"),
            Flag::seed(),
            Flag::value("--tc-size", "BYTES"),
            Flag::switch("--tc-coalesce"),
            Flag::value("--nvm-write-ns", "NS"),
            Flag::value("--crash-at", "FRACTION"),
            Flag::value("--warmup", "COMMITS"),
            Flag::value("--dump-trace", "FILE"),
        ],
        positional: None,
        notes: String::new(),
    }
}

fn main() -> ExitCode {
    cli::main(&spec(), run)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scheme = args.get("--scheme")?.unwrap_or(SchemeKind::TxCache);
    let workload = args.get("--workload")?.unwrap_or(WorkloadKind::Hashtable);
    let mut machine = match args.value("--machine").unwrap_or("scaled") {
        "dac17" => MachineConfig::dac17(),
        "scaled" => MachineConfig::dac17_scaled(),
        "small" => MachineConfig::small(),
        other => return Err(format!("--machine: unknown machine `{other}`")),
    }
    .with_scheme(scheme);
    if let Some(size) = args.get("--tc-size")? {
        machine.txcache.size_bytes = size;
    }
    machine.txcache.coalesce = args.has("--tc-coalesce");
    if let Some(ns) = args.get("--nvm-write-ns")? {
        machine.nvm.write_ns = ns;
    }
    let mut params = WorkloadParams::evaluation(args.seed()?);
    params.num_ops = args.get("--ops")?.unwrap_or(2_000);
    params.setup_items = args.get("--setup")?.unwrap_or(params.setup_items);
    params.key_space = args.get("--keys")?.unwrap_or(params.key_space);
    params.insert_ratio = args.get("--insert-ratio")?.unwrap_or(params.insert_ratio);
    let crash_at: Option<f64> = args.get("--crash-at")?;
    let run_cfg = RunConfig {
        warmup_commits: args.get("--warmup")?.unwrap_or(0),
        ..RunConfig::default()
    };

    if let Some(path) = args.value("--dump-trace") {
        let w = build(workload, &params);
        std::fs::write(path, pmacc_cpu::text::to_text(&w.trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }

    let build_system = || System::for_workload(machine.clone(), workload, &params, &run_cfg);
    let report = build_system().and_then(|mut sys| sys.run()).map_err(|e| e.to_string())?;

    println!("scheme {scheme} workload {workload} cores {}", machine.cores);
    println!("cycles             {}", report.cycles);
    println!("committed tx       {}", report.total_committed());
    println!("IPC                {:.4}", report.ipc());
    println!("tx/cycle           {:.6}", report.throughput());
    println!("LLC miss rate      {:.2}%", report.llc_miss_rate() * 100.0);
    println!("persistent load    {:.1} cycles", report.persistent_load_latency());
    println!("NVM write traffic  {}", report.nvm_write_traffic());
    for cause in WriteCause::all() {
        let n = report.nvm_writes_by(cause);
        if n > 0 {
            println!("    {cause:<10} {n}");
        }
    }
    println!("dropped LLC writes {}", report.dropped_llc_writes);
    println!("residual owed      {}", report.residual_nvm_lines);
    for kind in StallKind::all() {
        let f = report.stall_fraction(kind);
        if f > 0.0 {
            println!("stall {kind:<18} {:.4}%", f * 100.0);
        }
    }
    let e = energy_of(&report, &EnergyParams::dac17());
    println!(
        "energy             {:.1} µJ (memory share {:.0}%)",
        e.total_nj() / 1000.0,
        e.memory_fraction() * 100.0
    );

    if let Some(frac) = crash_at {
        let crash_cycle = (report.cycles as f64 * frac) as u64;
        let mut sys = build_system().expect("same config builds");
        sys.run_until(crash_cycle).map_err(|e| e.to_string())?;
        let state = sys.crash_state();
        let cost = recovery_cost(&state, &machine);
        let recovered = recover(&state);
        println!("--- crash at cycle {crash_cycle} ({:.0}% of the run) ---", frac * 100.0);
        println!("committed at crash {}", state.journal.len());
        println!(
            "recovery: scanned {} words, replayed {} words, ~{:.1} µs",
            cost.words_scanned,
            cost.words_replayed,
            cost.estimated_ns as f64 / 1000.0
        );
        match check_recovery(&state, &recovered) {
            Ok(()) => println!("recovery CONSISTENT (transaction-atomic)"),
            Err(e) => println!("recovery INCONSISTENT: {e}"),
        }
    }
    Ok(ExitCode::SUCCESS)
}
