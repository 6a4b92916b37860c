//! `pmacc-hostbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! [--size <full|tiny>] [--spans <path>]`
//!
//! Prints an information line (report digests, host metadata), then as
//! its last line the result object: `correct`, `attempted`, `failed` and
//! `metrics`. The traced run also writes its spans, by default to
//! `out/spans-<workload>-seed<n>.json` in the package directory.
//! `--size tiny` shrinks every cell for smoke runs.

use std::path::PathBuf;
use std::process::ExitCode;

use pmacc_hostbench::run::{run, Options};
use pmacc_hostbench::summary::summarize;
use pmacc_hostbench::workload::Size;
use pmacc_hostbench::write_spans;
use pmacc_telemetry::Json;

const USAGE: &str = "usage: pmacc-hostbench --workload <grid-quick|long-sim|crash-sweep> \
                     --seed <n> --seconds <n> --trace <0|1> [--size <full|tiny>] [--spans <path>]";

fn parse(args: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let mut opts = Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    );
    opts.size = size;
    Ok((opts, spans))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, spans) = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pmacc-hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = run(&opts);
    let mut summary = summarize(&run);
    if opts.trace {
        let path = spans.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", opts.workload, opts.seed))
        });
        if let Err(e) = write_spans(&run, &path) {
            eprintln!("pmacc-hostbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        summary
            .info
            .set("spans_file", Json::Str(path.display().to_string()));
    }
    for m in &run.tally.messages {
        eprintln!("pmacc-hostbench: FAILED {m}");
    }
    println!(
        "{}",
        Json::obj([("info", summary.info.clone())]).to_compact()
    );
    println!("{}", summary.result_json().to_compact());
    ExitCode::SUCCESS
}
