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
//! the failure message. Nothing needs bumping for the result cache: its
//! keys carry the build fingerprint, so the rebuilt binary never reads
//! the old entries. The workflow is documented in EXPERIMENTS.md.

mod common;

use common::quick_digest;
use ragnar_bench::experiments::{contention, covert, side, uli};
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

#[test]
fn fig12_fingerprint_quick_digest_pinned() {
    assert_golden(
        &side::Fig12Fingerprint,
        &[],
        GOLDEN_FIG12_FINGERPRINT_QUICK_SEED0,
    );
}

#[test]
fn fig13_classifier_quick_digest_pinned() {
    // The one experiment whose quick sweep is smaller than its full one
    // (fewer and shorter training traces).
    assert_golden(
        &side::Fig13Classifier,
        &[],
        GOLDEN_FIG13_CLASSIFIER_QUICK_SEED0,
    );
}

#[test]
fn fig13_snoop_quick_digest_pinned() {
    // Its traces are per-probe latencies, so a shift in the NIC
    // pipeline's timing shows in its bytes.
    assert_golden(&side::Fig13Snoop, &[], GOLDEN_FIG13_SNOOP_QUICK_SEED0);
}

/// Pinned digests, captured at master seed 0 with the ReferenceQueue
/// backend (pre-calendar engine) and identical under the calendar
/// queue.
const GOLDEN_FIG4_CONTENTION_QUICK_SEED0: &str = "1b17dd9b64584f994538ce521501af66";
const GOLDEN_FIG5_MR_ULI_QUICK_SEED0: &str = "26562aed89784d7becfe780cf259eb7a";
const GOLDEN_TABLE5_COVERT_QUICK_SEED0: &str = "bc6d71c0b219cde00862d55fa1ce7590";
const GOLDEN_PYTHIA_COMPARE_QUICK_SEED0: &str = "8a2c7bc85effc47805c984b8ab52a9e0";
/// Captured under the calendar queue, with the published Fig 12 and
/// Fig 13 quick numbers corrected to what these artifacts print.
const GOLDEN_FIG12_FINGERPRINT_QUICK_SEED0: &str = "e0d6979965bd3b7fea9bceffe0bbef14";
const GOLDEN_FIG13_CLASSIFIER_QUICK_SEED0: &str = "2923c5ff5530be8c383713ed602eb558";
/// Captured under the calendar queue, before ingress admission became
/// one NIC step.
const GOLDEN_FIG13_SNOOP_QUICK_SEED0: &str = "5ca88167e5c63169c4e17ce61b421948";
