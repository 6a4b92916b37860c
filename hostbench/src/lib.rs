//! Host-speed benchmark for the pmacc simulator.
//!
//! One command runs a named workload from a seed: it generates the
//! workload traces (set-up), then repeats timed passes over the
//! workload's simulator cells until its time budget is spent, checking
//! every output. Each layer is timed from outside, around calls into the
//! public functions of `pmacc-workloads` (`build`, `build_shared`),
//! `pmacc` (`System::for_workload`, `System::run`, `System::run_until`,
//! `System::crash_state`, `scheme::instrument`, `recovery::recover`,
//! `recovery::check_recovery`) and the reports (`RunReport::to_json`).
//!
//! The untraced run prints the end-to-end metrics; the traced run
//! records a span around every such call and prints per-layer host times
//! and the reports' deterministic counters. Host time is wall-clock
//! seconds on the machine running the benchmark; simulated time is in
//! cycles and is labelled so.

pub mod checks;
pub mod host;
pub mod run;
pub mod spans;
pub mod summary;
pub mod workload;

use std::fs;
use std::io::Write;
use std::path::Path;

use pmacc_telemetry::{Json, ToJson};

/// Writes the traced run's spans (with the cell labels their `cell`
/// indices refer to) as one JSON document.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_spans(run: &run::Run, path: &Path) -> std::io::Result<()> {
    let doc = Json::obj([
        ("workload", run.opts.workload.to_string().to_json()),
        ("seed", run.opts.seed.to_json()),
        (
            "cells",
            run.cells
                .iter()
                .map(|c| c.label.clone())
                .collect::<Vec<_>>()
                .to_json(),
        ),
        ("spans", run.tracer.spans().to_json()),
    ]);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::File::create(path)?;
    f.write_all(doc.to_compact().as_bytes())?;
    f.flush()
}
