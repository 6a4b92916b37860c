//! Host facts reported next to the metrics: what the numbers were
//! measured on and built from.

use std::fs;
use std::path::Path;

use pmacc_telemetry::{Json, ToJson};

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model, compiler and source revision.
#[must_use]
pub fn metadata() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj([
        ("nproc", nproc.to_json()),
        ("cpu_model", cpu.to_json()),
        ("rustc", env!("HOSTBENCH_RUSTC").to_json()),
        (
            "git_revision",
            git_revision(&repo)
                .unwrap_or_else(|| "unknown".into())
                .to_json(),
        ),
    ])
}

/// The commit checked out in `repo`, read from `.git` directly (no `git`
/// process); `None` outside a git checkout.
fn git_revision(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}
