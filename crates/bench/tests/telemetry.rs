//! Telemetry must be a pure observer: turning it on cannot move a
//! single artifact bit, its flags cannot reach cache keys, and the
//! trace it produces must itself be deterministic — the same seed gives
//! a byte-identical Chrome trace at any thread count.

mod common;

use common::{artifact_digest, quick_cli, quick_digest, run_quick};
use ragnar_bench::experiments::{cluster, contention, uli};
use ragnar_harness::executor::TelemetrySpec;
use ragnar_harness::hash::content_hash;
use ragnar_harness::{Experiment, RunRecord, Value};
use ragnar_telemetry::{chrome_trace_json, profile, Target, TargetSet, TraceCell};

/// Pinned quick-mode digests, mirrored from `golden.rs`: the telemetry
/// runs below must reproduce them exactly.
const GOLDEN_FIG4_CONTENTION_QUICK_SEED0: &str = "1b17dd9b64584f994538ce521501af66";
const GOLDEN_FIG5_MR_ULI_QUICK_SEED0: &str = "26562aed89784d7becfe780cf259eb7a";

fn full_telemetry() -> TelemetrySpec {
    TelemetrySpec {
        trace: true,
        filter: TargetSet::ALL,
        metrics: true,
        monitors: None,
    }
}

fn trace_json(records: &[RunRecord]) -> String {
    let cells: Vec<TraceCell<'_>> = records
        .iter()
        .filter_map(|r| {
            r.telemetry.as_ref().map(|t| TraceCell {
                label: r.config.label(),
                index: r.index,
                events: &t.events,
            })
        })
        .collect();
    chrome_trace_json(&cells)
}

/// Tracing + metrics on: the artifacts still hash to the pinned golden
/// digests. Telemetry on vs off is bit-invariant.
#[test]
fn telemetry_leaves_golden_digests_unchanged() {
    let fig4 = run_quick(&contention::Fig4Contention, 4, &[], full_telemetry());
    assert_eq!(artifact_digest(&fig4), GOLDEN_FIG4_CONTENTION_QUICK_SEED0);
    let fig5 = run_quick(&uli::Fig5MrUli, 4, &[], full_telemetry());
    assert_eq!(artifact_digest(&fig5), GOLDEN_FIG5_MR_ULI_QUICK_SEED0);
}

/// Same seed ⇒ byte-identical trace JSON at 1 and 4 worker threads, and
/// the trace spans at least the four core layers (with chaos enabled so
/// fault events appear).
#[test]
fn trace_digest_is_thread_count_invariant_and_covers_layers() {
    let extras = ["--chaos-seed", "1"];
    let serial = run_quick(&uli::Fig5MrUli, 1, &extras, full_telemetry());
    let parallel = run_quick(&uli::Fig5MrUli, 4, &extras, full_telemetry());
    let json_serial = trace_json(&serial);
    let json_parallel = trace_json(&parallel);
    assert!(!json_serial.is_empty());
    assert_eq!(
        content_hash(json_serial.as_bytes()),
        content_hash(json_parallel.as_bytes()),
        "trace digest differs between --threads 1 and --threads 4"
    );

    let mut targets = std::collections::BTreeSet::new();
    for r in &serial {
        for e in &r.telemetry.as_ref().expect("telemetry on").events {
            targets.insert(e.target.name());
        }
    }
    for required in [
        Target::SimCore.name(),
        Target::RnicModel.name(),
        Target::RdmaVerbs.name(),
        Target::Chaos.name(),
    ] {
        assert!(
            targets.contains(required),
            "trace is missing events from layer '{required}' (got {targets:?})"
        );
    }
}

/// The exporter's output is well-formed Chrome `trace_event` JSON: it
/// parses, has the documented shape, and every event record carries the
/// fields ui.perfetto.dev requires.
#[test]
fn trace_json_parses_with_chrome_schema() {
    let records = run_quick(&uli::Fig5MrUli, 2, &[], full_telemetry());
    let v = Value::parse(&trace_json(&records)).expect("trace JSON parses");
    assert_eq!(v.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
    let events = match v.get("traceEvents") {
        Some(Value::Array(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        assert!(
            matches!(ph, "X" | "i" | "C" | "M"),
            "unexpected phase {ph:?}"
        );
        assert!(e.get("pid").is_some() && e.get("name").is_some());
        if ph != "M" {
            assert!(e.get("ts").is_some(), "non-metadata event without ts: {e}");
        }
        if ph == "X" {
            assert!(e.get("dur").is_some(), "span without dur: {e}");
        }
    }
}

/// `--trace` / `--trace-filter` / `--metrics` are excluded from cache
/// keys by construction: they parse into dedicated CLI fields (never
/// `extras`, so `Experiment::params` cannot fold them into configs) and
/// per-cell keys are bit-identical with telemetry on and off.
#[test]
fn telemetry_flags_do_not_change_cache_keys() {
    let plain = quick_cli(&[]);
    let traced = quick_cli(&[
        "--trace",
        "/tmp/unused.json",
        "--trace-filter",
        "sim-core,rnic-model",
        "--metrics",
    ]);
    assert!(
        traced.extras().is_empty(),
        "telemetry flags leaked into extras"
    );
    let exp = &contention::Fig4Contention;
    assert_eq!(exp.params(&plain), exp.params(&traced));

    let off = run_quick(exp, 2, &[], TelemetrySpec::default());
    let on = run_quick(exp, 2, &[], full_telemetry());
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.cache_key, b.cache_key);
        assert_eq!(a.seed, b.seed);
    }
}

/// The 32-host pod used by the cluster determinism tests — small enough
/// for the debug-build test budget.
const NOISY_EXTRAS: [&str; 2] = ["--topology", "leaf-spine:hosts=32,leaves=4,spines=2"];

/// Runs the noisy-neighbor quick sweep on `threads` harness threads and
/// returns the Chrome trace JSON.
fn noisy_trace(threads: usize, spec: TelemetrySpec, extras: &[&str]) -> String {
    let records = run_quick(&cluster::NoisyNeighbor, threads, extras, spec);
    trace_json(&records)
}

/// The PFC track: pause spans appear on per-port lanes when the sweep
/// includes a PFC-enabled cell, and the full trace stays byte-identical
/// across harness thread counts.
#[test]
fn pfc_pause_spans_are_present_and_thread_invariant() {
    let serial = noisy_trace(1, full_telemetry(), &NOISY_EXTRAS);
    assert!(
        serial.contains("\"pfc_pause\""),
        "noisy-neighbor trace has no pfc_pause spans"
    );
    let parallel = noisy_trace(4, full_telemetry(), &NOISY_EXTRAS);
    assert_eq!(
        content_hash(serial.as_bytes()),
        content_hash(parallel.as_bytes()),
        "PFC track drifted between --threads 1 and --threads 4"
    );
}

/// The profiler is a pure observer too: with phase timing armed, the
/// golden artifact digest is unchanged (the profiler sees wall-clock,
/// the simulation never sees the profiler).
#[test]
fn profiler_leaves_golden_digest_unchanged() {
    profile::reset();
    profile::set_enabled(true);
    let fig4 = quick_digest(&contention::Fig4Contention, 2, &[]);
    profile::set_enabled(false);
    assert_eq!(fig4, GOLDEN_FIG4_CONTENTION_QUICK_SEED0);
    let snap = profile::snapshot();
    assert!(
        !snap.is_empty() && snap.total_ns() > 0,
        "profiler armed across a sweep but recorded nothing"
    );
}

/// With metrics on, every executed cell carries a metrics report with
/// real samples in it, and the manifest surfaces per-cell event counts.
#[test]
fn metrics_reports_are_attached_to_every_cell() {
    let records = run_quick(&uli::Fig5MrUli, 2, &[], full_telemetry());
    for r in &records {
        let t = r.telemetry.as_ref().expect("telemetry attached");
        assert!(
            t.total_events > 0,
            "cell [{}] traced no events",
            r.config.label()
        );
        let m = t.metrics.as_ref().expect("metrics report attached");
        assert!(
            m.histogram_samples() > 0 || !m.counters.is_empty(),
            "cell [{}] recorded no metrics",
            r.config.label()
        );
    }
    let manifest =
        ragnar_harness::Manifest::from_records("fig5_mr_uli", 0, 2, &records, vec![], 1.0);
    assert_eq!(manifest.cells.len(), records.len());
    assert!(manifest.telemetry_events > 0);
    assert!(manifest.cells.iter().all(|c| c.events > 0));
    assert_eq!(manifest.cache_hit_rate(), 0.0);
    assert!(manifest.summary_line().contains("trace events"));
}
