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

echo "== chaos smoke: seeded fault plans through fig4_contention"
for chaos_seed in 1 2 3; do
    cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
        --quick --no-cache --chaos-seed "$chaos_seed" > /dev/null
done

# A throwaway directory for the smokes' output files, so neither the
# captured results/ nor a fixed /tmp path is overwritten.
smoke_results=$(mktemp -d)

echo "== trace smoke: fig4_contention --trace emits valid JSON, digest unchanged"
trace_file="$smoke_results/trace.json"
trace_out=$(cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
    --quick --no-cache --trace "$trace_file")
baseline_out=$(cargo run --release --offline -p ragnar-bench --bin fig4_contention -- \
    --quick --no-cache)
# The trace file must exist, be non-trivial, and read as a Chrome
# trace_event document.
test -s "$trace_file"
grep -q '"traceEvents":\[' "$trace_file"
grep -q '"ph":"X"' "$trace_file"
# Tracing must not move the artifact digest on the manifest line.
trace_digest=$(printf '%s\n' "$trace_out" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
baseline_digest=$(printf '%s\n' "$baseline_out" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
test -n "$trace_digest"
test "$trace_digest" = "$baseline_digest"

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
    --quick --force --metrics --profile --results "$smoke_results" > /dev/null
smoke_report="$smoke_results/fig4_contention/report.json"
test -s "$smoke_report"
test -s "$smoke_results/fig4_contention/report.md"
for key in '"cells":' '"counters":' '"histograms":' '"slo":' '"timing":' '"profile":'; do
    grep -q "$key" "$smoke_report"
done
grep -q 'Engine phase profile' "$smoke_results/fig4_contention/report.md"
grep -q 'Merged latency histograms' "$smoke_results/fig4_contention/report.md"

rm -rf "$smoke_results"

echo "CI OK"
