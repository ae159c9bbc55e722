#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), the full
# workspace test suite, and the lab-orchestrated experiment gates.
# Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> perfbench tests (its own workspace)"
# perfbench/ is a separate workspace, so the workspace test run above
# never compiles it; building and testing it here makes a change that
# breaks the API the benchmark uses fail CI.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> miri (unsafe microkernel + simd + scratch modules)"
# Miri (or cargo-careful as a fallback) over the unsafe kernel modules'
# unit tests. Both need rustup components this offline image may lack,
# so the job is availability-gated rather than required.
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -q -p medsplit-tensor --offline \
        --lib -- microkernel:: simd:: scratch::
elif cargo careful --version >/dev/null 2>&1; then
    cargo careful test -q -p medsplit-tensor --offline --lib
else
    echo "    (skipped: neither cargo-miri nor cargo-careful is installed)"
fi

echo "==> lab ci --smoke (manifest-declared experiment gates)"
# The lab replaces the old hand-written smoke stanzas: every
# experiments/*.lab.toml with `ci = true` runs here.
#
#   kernels_ab.lab.toml  — the scalar-vs-auto ISA A/B, declared as an
#                          `invariant_across = ["isa"]` gate on both the
#                          kernel digest and the plan-cache serving
#                          digest (was the mktemp/cmp stanza).
#   smoke.lab.toml       — the split-training matrix (fault × codec ×
#                          threads) gated against baselines/smoke.json,
#                          with thread-invariance declared on accuracy,
#                          bytes, messages, and makespan.
#   bins_smoke.lab.toml  — trace_report / resilience_bench / fleet_bench
#                          smokes (each still runs its own in-process
#                          asserts) pinned against baselines/bins_smoke.json.
#   hierarchy_chaos.lab.toml — relay-hierarchy training under relay
#                          crashes and region partitions, gated against
#                          baselines/hierarchy_chaos.json with the
#                          failover counters declared thread-invariant.
#
# `lab ci` additionally executes every manifest twice and fails unless
# the metrics digests are bit-identical — the determinism witness.
cargo run -q --release --offline -p medsplit-bench -- lab ci --smoke

echo "==> lab gate negative test (a perturbed baseline must fail)"
# The regression gate is only trustworthy if it actually trips: perturb
# one byte-count in the committed baseline and assert `lab gate` exits
# with 1, the gate-failure code. Any other code (2 is a usage or I/O
# error) means the gate never judged the run.
perturbed="$(mktemp)"
sed 's/total_bytes": 48880/total_bytes": 48881/' baselines/smoke.json > "$perturbed"
if cmp -s baselines/smoke.json "$perturbed"; then
    echo "ci.sh: perturbation was a no-op — update the sed pattern" >&2
    exit 1
fi
status=0
cargo run -q --release --offline -p medsplit-bench -- lab \
    gate experiments/smoke.lab.toml --baseline "$perturbed" >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
    echo "ci.sh: lab gate against a perturbed baseline exited $status, expected 1" >&2
    exit 1
fi
rm -f "$perturbed"
echo "    perturbed baseline correctly rejected"

echo "==> fleet drain/rejoin acceptance (chaos gate)"
# The 4-replica crash + rejoin scenario: one replica dies mid-load,
# in-flight work re-routes to ring successors, the replica rejoins and
# takes its session shard back, and no admitted request is dropped.
cargo test -q --release --offline --test fleet_chaos

echo "ci.sh: all green"
