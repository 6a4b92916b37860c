#!/usr/bin/env bash
# Tier-1 verification in one command, fully offline.
#
# The workspace has zero external dependencies, so every step below must
# succeed without registry or network access; --offline makes any
# accidental reintroduction of an external crate fail loudly here.
#
# Knobs (all optional):
#   PMACC_PROP_CASES=N   property-test cases per property (default 64)
#   PMACC_FUZZ_CASES=N   crash-recovery fuzz cases (default 24)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline

# Every harness binary answers --help with its usage and exit status 0;
# the release build above already produced all six.
echo "==> --help on every pmacc-bench binary"
for bin in reproduce regress crashgrid serve simulate tracestat; do
    "${CARGO_TARGET_DIR:-target}/release/$bin" --help > /dev/null \
        || { echo "$bin --help exited nonzero" >&2; exit 1; }
done

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo clippy --all-targets --offline -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps --offline"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# The host-speed benchmark is a package of its own (hostbench/, not a
# workspace member), so the steps above never build it. Its tests run the
# tiny smoke workload and the `drop-committed-tc` mutation self-test,
# which keeps it compiling against the simulator's public types.
echo "==> hostbench tests (tiny smoke run + mutation self-test)"
cargo test --release --offline -q --manifest-path hostbench/Cargo.toml

# Smoke-run the parallel experiment path end to end: a quick-scale grid
# fanned out over the pool (PMACC_JOBS=4 exercises the multi-worker code
# even on small CI boxes) rendered to one figure, plus the JSON emitter.
echo "==> reproduce --quick fig6 (parallel smoke run, 4 workers)"
smoke_json="$(mktemp)"
PMACC_JOBS=4 cargo run --release --offline -q -p pmacc-bench --bin reproduce -- \
    --quick fig6 --json "$smoke_json" > /dev/null
test -s "$smoke_json" || { echo "reproduce --json wrote nothing" >&2; exit 1; }
rm -f "$smoke_json"

# Calibration regression gate: a fresh quick-scale grid's key metrics
# (normalized figure means, per-cell IPC, stall fractions, NVM writes by
# cause) must match baselines/metrics-quick.json within each metric's
# relative tolerance. The same run's metrics are published as
# BENCH_pmacc.json for cross-commit trend tracking. A PR that changes
# calibration *on purpose* refreshes the baseline
# (`regress --write-baseline`, commit the result) — or sets
# PMACC_SKIP_REGRESS=1 while iterating.
if [[ "${PMACC_SKIP_REGRESS:-0}" == "1" ]]; then
    echo "==> regress skipped (PMACC_SKIP_REGRESS=1)"
else
    echo "==> regress --quick (calibration gate, 4 workers)"
    PMACC_JOBS=4 cargo run --release --offline -q -p pmacc-bench --bin regress -- \
        --quick --json BENCH_pmacc.json
fi

# Crash-campaign gate: a quick-scale fault-injection sweep (every scheme
# × workload × {1,2} cores plus the COW-overflow cell, hundreds of
# boundary-clustered crash points per cell) must record zero oracle
# violations in persistent-scheme cells; the report is then re-read with
# --verify to prove the artifact itself parses and validates. Opt out
# with PMACC_SKIP_CRASHGRID=1 while iterating on recovery code.
if [[ "${PMACC_SKIP_CRASHGRID:-0}" == "1" ]]; then
    echo "==> crashgrid skipped (PMACC_SKIP_CRASHGRID=1)"
else
    echo "==> crashgrid --quick (crash-consistency campaign, 4 workers)"
    crashgrid_json="$(mktemp)"
    cargo run --release --offline -q -p pmacc-bench --bin crashgrid -- \
        --quick --jobs 4 --json "$crashgrid_json"
    cargo run --release --offline -q -p pmacc-bench --bin crashgrid -- \
        --verify "$crashgrid_json"
    # Mutation gate: every recovery defect `crashgrid --help` lists must
    # be caught by the oracle on a whole campaign — exit status 1 and at
    # least one recorded violation.
    crashgrid="${CARGO_TARGET_DIR:-target}/release/crashgrid"
    for mutation in $("$crashgrid" --help | sed -n 's/^  --mutate //p' | tr '|' ' '); do
        [[ "$mutation" == "none" ]] && continue
        echo "==> crashgrid --quick --mutate $mutation (must be caught)"
        status=0
        "$crashgrid" --quick --jobs 4 --mutate "$mutation" --json "$crashgrid_json" \
            > /dev/null 2>&1 || status=$?
        violations="$(sed -n 's/.*"total_violations": *\([0-9]*\).*/\1/p' "$crashgrid_json" | head -1)"
        if [[ "$status" != 1 || "${violations:-0}" -lt 1 ]]; then
            echo "crashgrid --mutate $mutation was not caught" \
                "(exit $status, ${violations:-no} violations)" >&2
            exit 1
        fi
    done
    rm -f "$crashgrid_json"
fi

# Service-benchmark gate: the quick-scale open-system campaign (every
# scheme calibrated closed-loop, then rate-ramped into saturation as a
# KV server under Poisson arrivals) must emit a byte-identical
# pmacc-serve-v1 report at --jobs 1 and --jobs 4, and that report must
# match the checked-in baselines/serve-quick.json bit for bit. A PR
# that changes timing or the campaign shape on purpose regenerates the
# baseline (`serve --quick --json baselines/serve-quick.json`, commit
# the result) — or sets PMACC_SKIP_SERVE=1 while iterating.
if [[ "${PMACC_SKIP_SERVE:-0}" == "1" ]]; then
    echo "==> serve skipped (PMACC_SKIP_SERVE=1)"
else
    echo "==> serve --quick (open-system service benchmark, jobs 1 vs 4)"
    serve_one="$(mktemp)"
    serve_four="$(mktemp)"
    cargo run --release --offline -q -p pmacc-bench --bin serve -- \
        --quick --jobs 1 --json "$serve_one" > /dev/null
    cargo run --release --offline -q -p pmacc-bench --bin serve -- \
        --quick --jobs 4 --json "$serve_four" > /dev/null
    cmp "$serve_one" "$serve_four" \
        || { echo "serve report differs between --jobs 1 and --jobs 4" >&2; exit 1; }
    cmp "$serve_four" baselines/serve-quick.json \
        || { echo "serve report drifted from baselines/serve-quick.json" >&2; exit 1; }
    cargo run --release --offline -q -p pmacc-bench --bin serve -- \
        --verify baselines/serve-quick.json
    rm -f "$serve_one" "$serve_four"
fi

# Sharing-sweep gate: the quick-scale cross-core sharing experiment
# (workload × sharing-fraction × scheme, MESI coherence traffic and
# conflict counters, plus the 16-core directory-stress cells that keep
# the LLC sharer-bitmap honest at high core counts) must emit a
# byte-identical JSON report at --jobs 1 and --jobs 4, and that report
# must match the checked-in baselines/sharing-quick.json bit for bit —
# which also pins the coherence layer inert at fraction 0 (those rows
# reproduce the private per-scheme numbers exactly). A PR that changes coherence or timing on
# purpose regenerates the baseline (`reproduce --quick sharing --json
# baselines/sharing-quick.json`, commit the result) — or sets
# PMACC_SKIP_SHARING=1 while iterating.
if [[ "${PMACC_SKIP_SHARING:-0}" == "1" ]]; then
    echo "==> sharing skipped (PMACC_SKIP_SHARING=1)"
else
    echo "==> reproduce --quick sharing (coherence sweep, jobs 1 vs 4)"
    sharing_one="$(mktemp)"
    sharing_four="$(mktemp)"
    PMACC_JOBS=1 cargo run --release --offline -q -p pmacc-bench --bin reproduce -- \
        --quick sharing --json "$sharing_one" > /dev/null
    PMACC_JOBS=4 cargo run --release --offline -q -p pmacc-bench --bin reproduce -- \
        --quick sharing --json "$sharing_four" > /dev/null
    cmp "$sharing_one" "$sharing_four" \
        || { echo "sharing report differs between --jobs 1 and --jobs 4" >&2; exit 1; }
    cmp "$sharing_four" baselines/sharing-quick.json \
        || { echo "sharing report drifted from baselines/sharing-quick.json" >&2; exit 1; }
    rm -f "$sharing_one" "$sharing_four"
fi

# Wear-sweep gate: the quick-scale endurance experiment (workload ×
# scheme × wear-leveling on/off, per-line wear histograms, start-gap
# rotation counters and both lifetime projections) must emit a
# byte-identical JSON report at --jobs 1 and --jobs 4, and that report
# must match the checked-in baselines/wear-quick.json bit for bit —
# which also pins the leveling-off rows to the unremapped memory path
# (those rows must reproduce the plain per-scheme wear profile
# exactly). A PR that changes wear modeling or timing on purpose
# regenerates the baseline (`reproduce --quick wear --json
# baselines/wear-quick.json`, commit the result) — or sets
# PMACC_SKIP_WEAR=1 while iterating.
if [[ "${PMACC_SKIP_WEAR:-0}" == "1" ]]; then
    echo "==> wear skipped (PMACC_SKIP_WEAR=1)"
else
    echo "==> reproduce --quick wear (endurance sweep, jobs 1 vs 4)"
    wear_one="$(mktemp)"
    wear_four="$(mktemp)"
    PMACC_JOBS=1 cargo run --release --offline -q -p pmacc-bench --bin reproduce -- \
        --quick wear --json "$wear_one" > /dev/null
    PMACC_JOBS=4 cargo run --release --offline -q -p pmacc-bench --bin reproduce -- \
        --quick wear --json "$wear_four" > /dev/null
    cmp "$wear_one" "$wear_four" \
        || { echo "wear report differs between --jobs 1 and --jobs 4" >&2; exit 1; }
    cmp "$wear_four" baselines/wear-quick.json \
        || { echo "wear report drifted from baselines/wear-quick.json" >&2; exit 1; }
    rm -f "$wear_one" "$wear_four"
fi

echo "==> ci.sh: all green"
