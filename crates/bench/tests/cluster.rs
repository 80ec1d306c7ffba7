//! Determinism tests for the cluster-scale scenarios: the harness
//! worker-thread count (`--threads`) must never matter. The seed-0
//! quick-mode digests are pinned, so these constants must survive any
//! engine change at any thread count.

mod common;

use common::quick_digest;
use ragnar_bench::experiments::cluster;

/// Pinned digest of the noisy-neighbor quick sweep (seed 0, 32-host
/// pod); every thread count must reproduce it bit-for-bit.
const GOLDEN_NOISY_QUICK_SEED0: &str = "6f9a85cd9e3e5ee020c3e9f0e3cca250";

/// Pinned digest of the bankrupt-covert quick sweep (seed 0, 24 bits).
const GOLDEN_BANKRUPT_QUICK_SEED0: &str = "c7273d3641d381ec92eae1cb83f7e5e0";

/// A pod small enough for the debug-build test budget; the CI smoke
/// run exercises the default 256-host fabric through the `ragnar` binary.
const NOISY_EXTRAS: [&str; 2] = ["--topology", "leaf-spine:hosts=32,leaves=4,spines=2"];
const BANKRUPT_EXTRAS: [&str; 2] = ["--bits", "24"];

#[test]
fn noisy_neighbor_digest_matches_golden_at_every_thread_count() {
    for threads in [1, 2, 8] {
        let digest = quick_digest(&cluster::NoisyNeighbor, threads, &NOISY_EXTRAS);
        assert_eq!(
            digest, GOLDEN_NOISY_QUICK_SEED0,
            "noisy_neighbor digest drifted at --threads {threads}"
        );
    }
}

#[test]
fn bankrupt_covert_digest_matches_golden_at_every_thread_count() {
    for threads in [1, 2, 8] {
        let digest = quick_digest(&cluster::BankruptCovert, threads, &BANKRUPT_EXTRAS);
        assert_eq!(
            digest, GOLDEN_BANKRUPT_QUICK_SEED0,
            "bankrupt_covert digest drifted at --threads {threads}"
        );
    }
}

/// Thread invariance must also hold when a chaos plan perturbs the
/// fabric: every cell draws its faults from its own seeded injector.
#[test]
fn noisy_neighbor_chaos_digest_is_thread_invariant() {
    let extras = [
        "--topology",
        "leaf-spine:hosts=32,leaves=4,spines=2",
        "--chaos-seed",
        "7",
    ];
    let one = quick_digest(&cluster::NoisyNeighbor, 1, &extras);
    let eight = quick_digest(&cluster::NoisyNeighbor, 8, &extras);
    assert_eq!(
        one, eight,
        "noisy_neighbor chaos digest differs between threads 1 and 8"
    );
}
