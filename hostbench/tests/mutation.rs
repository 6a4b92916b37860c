//! Mutation self-test: a deliberate recovery defect must raise the
//! benchmark's failure count, proving the counter can see a fault.

use pmacc_bench::crashgrid::Mutation;
use pmacc_hostbench::run::{run, Options};
use pmacc_hostbench::summary::summarize;
use pmacc_hostbench::workload::{Size, Workload};

/// `(failed, attempted)` of a tiny crash sweep under `mutation`.
fn failures(mutation: Mutation) -> (u64, u64) {
    let mut opts = Options::new(Workload::CrashSweep, 5, 0.0, false);
    opts.size = Size::Tiny;
    opts.mutation = mutation;
    let s = summarize(&run(&opts));
    (s.failed, s.attempted)
}

#[test]
fn a_recovery_defect_raises_the_failure_count() {
    let (clean, attempted) = failures(Mutation::None);
    assert_eq!(clean, 0, "the unmutated sweep must pass");
    // Losing a committed transaction-cache entry breaks every TC crash
    // point that falls between a commit and its drain. (Evenly spaced
    // points rarely land inside an eADR transaction's torn-write window,
    // so `keep-uncommitted-eadr` is left to the crash campaign's
    // boundary-clustered points.)
    let (failed, mutated_attempts) = failures(Mutation::DropCommittedTc);
    assert_eq!(
        mutated_attempts, attempted,
        "the same operations are attempted"
    );
    assert!(failed > clean, "failure count stayed at {failed}");
}
