//! Golden determinism tests: pinned fixed-seed artifact digests.
//!
//! Each test runs one experiment's quick-mode sweep at master seed 0
//! with the cache disabled, folds every artifact's canonical encoding
//! into one content hash, and compares against a digest pinned in this
//! file. The pinned values were captured with the `ReferenceQueue`
//! backend before the calendar queue became the default
//! (`EventQueue` alias in sim-core), so these tests are the acceptance
//! gate for the queue swap: any drift in event ordering — backend
//! change, scheduler change, thread count — shows up as a digest
//! mismatch.
//!
//! If a digest changes because the *experiment itself* legitimately
//! changed, re-pin it by running the test and copying the digest from
//! the failure message — and bump `sim_core::ENGINE_VERSION` (or the
//! experiment's `version()`) so stale caches are invalidated. The
//! workflow is documented in EXPERIMENTS.md.

mod common;

use common::quick_digest;
use ragnar_bench::experiments::{contention, covert, uli};
use ragnar_harness::Experiment;

/// Asserts the digest is pinned AND thread-count invariant.
fn assert_golden(exp: &dyn Experiment, extras: &[&str], pinned: &str) {
    let single = quick_digest(exp, 1, extras);
    assert_eq!(
        single,
        pinned,
        "{} quick-mode digest drifted (was the event order changed? \
         re-pin only for intentional experiment changes)",
        exp.name()
    );
    let parallel = quick_digest(exp, 4, extras);
    assert_eq!(
        single,
        parallel,
        "{} digest differs between --threads 1 and --threads 4",
        exp.name()
    );
}

#[test]
fn fig4_contention_quick_digest_pinned() {
    assert_golden(
        &contention::Fig4Contention,
        &[],
        GOLDEN_FIG4_CONTENTION_QUICK_SEED0,
    );
}

#[test]
fn fig5_mr_uli_quick_digest_pinned() {
    assert_golden(&uli::Fig5MrUli, &[], GOLDEN_FIG5_MR_ULI_QUICK_SEED0);
}

#[test]
fn table5_covert_quick_digest_pinned() {
    // 80 bits per channel keeps the quick gate fast; the error-rate
    // claims of the paper are covered by the fidelity tests at full
    // length.
    assert_golden(
        &covert::Table5Covert,
        &["--bits", "80"],
        GOLDEN_TABLE5_COVERT_QUICK_SEED0,
    );
}

#[test]
fn pythia_compare_quick_digest_pinned() {
    // The one artifact whose bytes depend on the MPT cache's eviction
    // order (Pythia's evict+reload baseline).
    assert_golden(
        &covert::PythiaCompare,
        &[],
        GOLDEN_PYTHIA_COMPARE_QUICK_SEED0,
    );
}

/// Pinned digests, captured at master seed 0 with the ReferenceQueue
/// backend (pre-calendar engine) and identical under the calendar
/// queue.
const GOLDEN_FIG4_CONTENTION_QUICK_SEED0: &str = "1b17dd9b64584f994538ce521501af66";
const GOLDEN_FIG5_MR_ULI_QUICK_SEED0: &str = "26562aed89784d7becfe780cf259eb7a";
const GOLDEN_TABLE5_COVERT_QUICK_SEED0: &str = "bc6d71c0b219cde00862d55fa1ce7590";
const GOLDEN_PYTHIA_COMPARE_QUICK_SEED0: &str = "8a2c7bc85effc47805c984b8ab52a9e0";
