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

echo "== build the ragnar binary once; the smokes below call it"
cargo build --release --offline
ragnar=target/release/ragnar
# The artifact digest on a run's manifest line; fails when there is none.
digest() {
    d=$(printf '%s\n' "$1" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
    test -n "$d" && printf '%s\n' "$d"
}

echo "== dispatch smoke: an unknown experiment name fails"
if "$ragnar" nosuch 2> /dev/null; then
    echo "ragnar nosuch exited 0" >&2
    exit 1
fi

echo "== chaos smoke: seeded fault plans through fig4_contention, under the monitors"
# A monitor violation fails its cell, and a failed cell fails the exit code.
for chaos_seed in 1 2 3; do
    "$ragnar" fig4_contention --quick --no-cache \
        --chaos-seed "$chaos_seed" --monitors fail-cell > /dev/null
done

# A throwaway directory for the smokes' output files, so neither the
# captured results/ nor a fixed /tmp path is overwritten.
smoke_results=$(mktemp -d)

echo "== stale-cache smoke: a warm store serves only the build that wrote it"
# The manifest line's config count and cached count.
configs() { printf '%s\n' "$1" | sed -n 's/^\[[^]]*\] \([0-9]*\) configs .*/\1/p'; }
cached() { printf '%s\n' "$1" | sed -n 's/.* \([0-9]*\) cached .*/\1/p'; }
stale_results="$smoke_results/stale"
cold_out=$("$ragnar" fig5_mr_uli --quick --results "$stale_results")
warm_out=$("$ragnar" fig5_mr_uli --quick --results "$stale_results")
test -n "$(configs "$warm_out")"
test "$(cached "$warm_out")" = "$(configs "$warm_out")"
# A copy with one byte appended is another build: every cell misses,
# and the artifacts it recomputes are the same.
ragnar_copy="$smoke_results/ragnar-copy"
cp "$ragnar" "$ragnar_copy"
printf x >> "$ragnar_copy"
other_out=$("$ragnar_copy" fig5_mr_uli --quick --results "$stale_results")
test "$(cached "$other_out")" = 0
test "$(digest "$other_out")" = "$(digest "$cold_out")"
test "$(digest "$warm_out")" = "$(digest "$cold_out")"

echo "== trace smoke: fig4_contention --trace emits valid JSON, digest unchanged"
trace_file="$smoke_results/trace.json"
trace_out=$("$ragnar" fig4_contention --quick --no-cache --trace "$trace_file")
baseline_out=$("$ragnar" fig4_contention --quick --no-cache)
# The trace file must exist, be non-trivial, and read as a Chrome
# trace_event document.
test -s "$trace_file"
grep -q '"traceEvents":\[' "$trace_file"
grep -q '"ph":"X"' "$trace_file"
# Tracing must not move the artifact digest on the manifest line.
baseline_digest=$(digest "$baseline_out")
test "$(digest "$trace_out")" = "$baseline_digest"

echo "== cluster smoke: noisy_neighbor digest is thread-count invariant"
nn_t1=$("$ragnar" noisy_neighbor --quick --no-cache --threads 1)
nn_t4=$("$ragnar" noisy_neighbor --quick --no-cache --threads 4)
nn_t1_digest=$(digest "$nn_t1")
test "$(digest "$nn_t4")" = "$nn_t1_digest"

echo "== packet arena: zero allocations per hop, copy only on chaos duplication"
cargo test --release -q --offline -p rdma-verbs --test packet_arena

# nic_storm's gates: calendar digest equals the reference-queue digest,
# and dup_clones == 0.
echo "== perf smoke: every workload's correctness gates at 1/20 size"
perf_out=$(cargo run --release --offline --manifest-path crates/bench/examples/perf/Cargo.toml -- --smoke)

echo "== memory gate: no workload's peak RSS above 48 MiB at smoke size"
# --smoke runs all four workloads whatever --workload says and prints
# one JSON line each, fabric_incast's 1,024-host set-up among them. With
# every NIC allocating its MPT cache up front, fabric_incast peaked at
# 114 MiB and paper_regen at 152 MiB; with the cache allocated on first
# use they read 38 and 56 MiB; with payloads of untouched memory viewing
# a static zero block rather than copied twice, 26 and 29 MiB.
peaks=$(printf '%s\n' "$perf_out" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9.]*\).*/\1/p')
test "$(printf '%s\n' "$peaks" | wc -l)" -eq 4
printf '%s\n' "$peaks" | awk '{ print "peak_rss_mb " $1 } $1 > 48 { bad = 1 } END { exit bad }'

echo "== perf unit tests (the root workspace never builds this package)"
cargo test --release --offline --manifest-path crates/bench/examples/perf/Cargo.toml

echo "== monitor smoke: a clean run under online invariant monitors is digest-pinned"
nn_mon=$("$ragnar" noisy_neighbor --quick --no-cache --monitors abort-run)
test "$(digest "$nn_mon")" = "$nn_t1_digest"

echo "== profile smoke: --profile leaves the digest pinned"
prof_out=$("$ragnar" fig4_contention --quick --no-cache --profile)
test "$(digest "$prof_out")" = "$baseline_digest"
# The profiler actually collected something.
printf '%s\n' "$prof_out" | grep -q '^profile: '

echo "== run-report smoke: report.json / report.md carry the documented shape"
"$ragnar" fig4_contention --quick --metrics --profile \
    --results "$smoke_results" > /dev/null
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
