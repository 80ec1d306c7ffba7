//! Chaos determinism through the harness: a seeded fault plan must give
//! bit-identical artifacts at any thread count, must actually perturb
//! the experiment, and different chaos seeds must give different
//! fabrics. The companion guarantee — that *no* chaos flags leave the
//! golden digests untouched — is pinned in `golden.rs`.

mod common;

use ragnar_bench::experiments::contention;

/// Quick-mode digest of fig4 with the given extra flags (as in
/// `golden.rs`, minus the pinning).
fn digest(threads: usize, extras: &[&str]) -> String {
    common::quick_digest(&contention::Fig4Contention, threads, extras)
}

#[test]
fn chaos_runs_are_thread_invariant_and_distinct() {
    let clean = digest(1, &[]);
    let chaos_single = digest(1, &["--chaos-seed", "7"]);
    let chaos_parallel = digest(4, &["--chaos-seed", "7"]);
    assert_eq!(
        chaos_single, chaos_parallel,
        "chaos seed 7 digest differs between --threads 1 and --threads 4"
    );
    assert_ne!(
        chaos_single, clean,
        "a seeded fault plan must perturb fig4's artifacts"
    );
    let other = digest(1, &["--chaos-seed", "8"]);
    assert_ne!(
        other, chaos_single,
        "different chaos seeds must give different fabrics"
    );
}
