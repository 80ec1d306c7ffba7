#!/usr/bin/env sh
# Repository CI gate: formatting, lints, full test suite.
#
# Usage: ./ci.sh
# Runs entirely offline against the vendored dependency stubs (see
# vendor/README.md); no network or registry access is required.

set -eu

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace)"
cargo test -q --workspace --offline

echo "== cargo bench --no-run (benches stay compilable)"
cargo bench --no-run --workspace --offline

echo "== chaos smoke: seeded fault plans through fig4_contention"
for chaos_seed in 1 2 3; do
    cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
        --quick --no-cache --chaos-seed "$chaos_seed" > /dev/null
done

echo "== trace smoke: fig4_contention --trace emits valid JSON, digest unchanged"
trace_out=$(cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
    --quick --no-cache --trace /tmp/ragnar-ci-trace.json)
baseline_out=$(cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
    --quick --no-cache)
# The trace file must exist, be non-trivial, and read as a Chrome
# trace_event document.
test -s /tmp/ragnar-ci-trace.json
grep -q '"traceEvents":\[' /tmp/ragnar-ci-trace.json
grep -q '"ph":"X"' /tmp/ragnar-ci-trace.json
# Tracing must not move the artifact digest on the manifest line.
trace_digest=$(printf '%s\n' "$trace_out" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
baseline_digest=$(printf '%s\n' "$baseline_out" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$trace_digest"
test "$trace_digest" = "$baseline_digest"
rm -f /tmp/ragnar-ci-trace.json

echo "== cluster smoke: noisy_neighbor digest is thread-count invariant"
nn_t1=$(cargo run --release --offline -p ragnar-bench --bin noisy_neighbor -- \
    --quick --no-cache --threads 1)
nn_t4=$(cargo run --release --offline -p ragnar-bench --bin noisy_neighbor -- \
    --quick --no-cache --threads 4)
nn_t1_digest=$(printf '%s\n' "$nn_t1" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
nn_t4_digest=$(printf '%s\n' "$nn_t4" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$nn_t1_digest"
test "$nn_t1_digest" = "$nn_t4_digest"

echo "== packet arena: zero allocations per hop, copy only on chaos duplication"
cargo test --release -q --offline -p rdma-verbs --test packet_arena

# nic_storm's gates: calendar digest equals the reference-queue digest,
# and dup_clones == 0.
echo "== perf smoke: every workload's correctness gates at 1/20 size"
cargo run --release --offline --manifest-path crates/bench/examples/perf/Cargo.toml -- --smoke > /dev/null

echo "== perf unit tests (the root workspace never builds this package)"
cargo test --release --offline --manifest-path crates/bench/examples/perf/Cargo.toml

echo "== PDES determinism smoke: noisy_neighbor digest is worker-count invariant"
nn_w1=$(cargo run --release --offline -p ragnar-bench --bin noisy_neighbor -- \
    --quick --no-cache --workers 1)
nn_w8=$(cargo run --release --offline -p ragnar-bench --bin noisy_neighbor -- \
    --quick --no-cache --workers 8)
nn_w1_digest=$(printf '%s\n' "$nn_w1" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
nn_w8_digest=$(printf '%s\n' "$nn_w8" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$nn_w1_digest"
test "$nn_w1_digest" = "$nn_w8_digest"
# The sequential oracle (workers 1) and the thread-invariance run above
# must also agree with each other.
test "$nn_w1_digest" = "$nn_t1_digest"

echo "== supervisor smoke: induced worker crashes heal without moving the digest"
# A seeded exec-fault plan panics/stalls PDES workers mid-window; the
# supervised pool quarantines them and replays the poisoned windows, so
# the digest must stay pinned to the unfaulted sequential oracle.
nn_chaos=$(cargo run --release --offline -p ragnar-bench --bin noisy_neighbor -- \
    --quick --no-cache --workers 8 --exec-chaos-seed 61)
nn_chaos_digest=$(printf '%s\n' "$nn_chaos" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$nn_chaos_digest"
test "$nn_chaos_digest" = "$nn_w1_digest"

echo "== monitor smoke: a clean run under online invariant monitors is digest-pinned"
nn_mon=$(cargo run --release --offline -p ragnar-bench --bin noisy_neighbor -- \
    --quick --no-cache --monitors abort-run)
nn_mon_digest=$(printf '%s\n' "$nn_mon" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$nn_mon_digest"
test "$nn_mon_digest" = "$nn_t1_digest"

echo "== profile smoke: --profile leaves the digest pinned"
prof_out=$(cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
    --quick --no-cache --profile)
prof_digest=$(printf '%s\n' "$prof_out" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$prof_digest"
test "$prof_digest" = "$baseline_digest"
# The profiler actually collected something.
printf '%s\n' "$prof_out" | grep -q '^profile: '

echo "== run-report smoke: report.json / report.md carry the documented shape"
cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
    --quick --force --metrics --profile > /dev/null
test -s results/fig4_contention/report.json
test -s results/fig4_contention/report.md
for key in '"cells":' '"counters":' '"histograms":' '"slo":' '"timing":' '"profile":'; do
    grep -q "$key" results/fig4_contention/report.json
done
grep -q 'Engine phase profile' results/fig4_contention/report.md
grep -q 'Merged latency histograms' results/fig4_contention/report.md

echo "== bench-diff gate: identical reports pass, injected regression trips non-zero"
cp results/fig4_contention/report.json /tmp/ragnar-ci-baseline.json
cargo run --release --offline -p ragnar-bench --bin bench_diff -- \
    /tmp/ragnar-ci-baseline.json results/fig4_contention/report.json > /dev/null
# Perturb one deterministic counter; the 0%-threshold diff must fail.
sed 's/"retries":[0-9]*/"retries":7/' /tmp/ragnar-ci-baseline.json \
    > /tmp/ragnar-ci-regressed.json
if cargo run --release --offline -p ragnar-bench --bin bench_diff -- \
    /tmp/ragnar-ci-baseline.json /tmp/ragnar-ci-regressed.json > /dev/null; then
    echo "bench-diff failed to flag an injected regression"
    exit 1
fi
rm -f /tmp/ragnar-ci-baseline.json /tmp/ragnar-ci-regressed.json

echo "CI OK"
