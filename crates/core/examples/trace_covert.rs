//! Worked observability example: capture a Perfetto timeline of one
//! Grain-IV intra-MR covert transmission.
//!
//! ```text
//! cargo run --release -p ragnar-core --example trace_covert
//! ```
//!
//! Then open the produced `trace_covert.json` at <https://ui.perfetto.dev>
//! (or `chrome://tracing`). Each host is a process track; lane 0 is the
//! device (wire hops, TPU/PU pipeline spans, faults) and lane *n* is
//! QP *n* (completions, ULI samples, retransmits).

use ragnar_core::covert::intra_mr::{default_config, run};
use ragnar_core::covert::parse_bits;
use ragnar_telemetry::{chrome_trace_json, Session, TargetSet, TraceCell};
use rdma_verbs::DeviceKind;

fn main() {
    let kind = DeviceKind::ConnectX4;
    let bits = parse_bits("1011001110001011");
    let cfg = default_config(kind);

    // Install a tracing session on this thread: every simulation, NIC,
    // probe and injector constructed inside `run` picks it up ambiently.
    let session = Session::new(TargetSet::ALL, 1 << 20, true);
    let guard = session.install();
    let result = run(kind, &bits, &cfg);
    drop(guard);
    let report = session.finish();

    println!(
        "sent {} bits on {kind}, {} errors ({:.2}%); captured {} trace events",
        result.report.bits_sent,
        result.report.bit_errors,
        result.report.error_rate() * 100.0,
        report.total_events,
    );
    if let Some(m) = &report.metrics {
        for (name, h) in &m.histograms {
            println!(
                "  {name}: n={}  p50={:.1} ns  p99={:.1} ns  max={:.1} ns",
                h.count,
                h.p50 as f64 / 1e3,
                h.p99 as f64 / 1e3,
                h.max as f64 / 1e3,
            );
        }
    }

    let cells = [TraceCell {
        label: format!("intra_mr {kind}"),
        index: 0,
        events: &report.events,
    }];
    let path = "trace_covert.json";
    std::fs::write(path, chrome_trace_json(&cells)).expect("write trace");
    println!("wrote {path} — load it in https://ui.perfetto.dev");
}
