//! Chrome `trace_event` JSON export, loadable in `ui.perfetto.dev` or
//! `chrome://tracing`.
//!
//! Track layout: one *process* per (harness cell, simulated host) pair
//! — pid `cell_index * 256 + host + 1`, with the run-global/harness
//! track at `cell_index * 256` — and one *thread* per actor lane (tid 0
//! is the device, tid `n` is QP `n`). Timestamps are sim-time
//! microseconds (`ts_ps / 1e6`), durations likewise; `displayTimeUnit`
//! is ns so Perfetto renders at the scale the simulation lives at.
//!
//! The output is deterministic: metadata tracks are emitted in sorted
//! (pid, tid) order and events in record order, so a byte-level digest
//! of the JSON doubles as a trace digest.

use std::collections::BTreeSet;

use crate::event::{ActorId, Event, EventKind};
use crate::intern::DecimalInterner;
use crate::json;

/// One harness cell's slice of the trace.
#[derive(Debug, Clone)]
pub struct TraceCell<'a> {
    /// Human label for the cell (the config label).
    pub label: String,
    /// The cell's index in config order; spaces the pid ranges.
    pub index: usize,
    /// The cell's events, in record order.
    pub events: &'a [Event],
}

/// Hosts per cell in the pid space (lane tracks live under each).
const PID_STRIDE: usize = 256;

fn pid_of(cell_index: usize, actor: ActorId) -> u64 {
    let host_slot = if actor.host == ActorId::GLOBAL_HOST {
        0
    } else {
        (actor.host as usize % (PID_STRIDE - 1)) + 1
    };
    (cell_index * PID_STRIDE + host_slot) as u64
}

fn push_ts(ts_ps: u64, out: &mut String) {
    // Picoseconds → trace_event microseconds, shortest-roundtrip.
    json::float(ts_ps as f64 / 1e6, out);
}

/// Renders cells (in order) as one Chrome `trace_event` JSON document.
pub fn chrome_trace_json(cells: &[TraceCell<'_>]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |entry: &str, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(entry);
    };

    // Metadata: name every process/thread track that appears, sorted.
    let mut tracks: BTreeSet<(u64, u64, usize, ActorId)> = BTreeSet::new();
    for cell in cells {
        for event in cell.events {
            tracks.insert((
                pid_of(cell.index, event.actor),
                u64::from(event.actor.lane),
                cell.index,
                event.actor,
            ));
        }
    }
    // A trace has a handful of distinct pids/tids but emits each once
    // per event; render every integer once and reuse the bytes.
    let mut ids = DecimalInterner::new();
    let mut named_pids: BTreeSet<u64> = BTreeSet::new();
    for &(pid, tid, cell_index, actor) in &tracks {
        let label = &cells
            .iter()
            .find(|c| c.index == cell_index)
            .expect("track from a known cell")
            .label;
        if named_pids.insert(pid) {
            let mut entry = String::new();
            entry.push_str("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
            entry.push_str(ids.get(pid));
            entry.push_str(",\"args\":{\"name\":");
            let pname = if actor.host == ActorId::GLOBAL_HOST {
                format!("cell{cell_index} [{label}] run")
            } else {
                format!("cell{cell_index} [{label}] host{}", actor.host)
            };
            json::string(&pname, &mut entry);
            entry.push_str("}}");
            emit(&entry, &mut out);
        }
        let mut entry = String::new();
        entry.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
        entry.push_str(ids.get(pid));
        entry.push_str(",\"tid\":");
        entry.push_str(ids.get(tid));
        entry.push_str(",\"args\":{\"name\":");
        let tname = if actor.host == ActorId::GLOBAL_HOST {
            // Run-track lanes: 0 is the run itself, lane n+1 is port
            // lane n (PFC pause spans).
            if actor.lane == 0 {
                "run".to_string()
            } else {
                format!("lane{}", actor.lane - 1)
            }
        } else if actor.lane == 0 {
            "device".to_string()
        } else {
            format!("qp{}", actor.lane)
        };
        json::string(&tname, &mut entry);
        entry.push_str("}}");
        emit(&entry, &mut out);
    }

    // The events themselves, cell by cell in record order.
    for cell in cells {
        for event in cell.events {
            let mut entry = String::with_capacity(128);
            entry.push_str("{\"name\":");
            json::string(event.name, &mut entry);
            entry.push_str(",\"cat\":");
            json::string(event.target.name(), &mut entry);
            match event.kind {
                EventKind::Span { dur_ps } => {
                    entry.push_str(",\"ph\":\"X\",\"dur\":");
                    push_ts(dur_ps, &mut entry);
                }
                EventKind::Instant => {
                    entry.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                }
                EventKind::Counter { .. } => {
                    entry.push_str(",\"ph\":\"C\"");
                }
            }
            entry.push_str(",\"ts\":");
            push_ts(event.ts_ps, &mut entry);
            entry.push_str(",\"pid\":");
            entry.push_str(ids.get(pid_of(cell.index, event.actor)));
            entry.push_str(",\"tid\":");
            entry.push_str(ids.get(u64::from(event.actor.lane)));
            if let Some(value) = event.kind.counter_value() {
                entry.push_str(",\"args\":{\"value\":");
                json::float(value, &mut entry);
                entry.push('}');
            } else if !event.args.is_empty() {
                entry.push_str(",\"args\":");
                json::args_object(&event.args, &mut entry);
            }
            entry.push('}');
            emit(&entry, &mut out);
        }
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ArgValue, Target};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                target: Target::RdmaVerbs,
                name: "wire",
                actor: ActorId::qp(0, 1),
                ts_ps: 2_000_000,
                kind: EventKind::Span { dur_ps: 500_000 },
                args: vec![("bytes", ArgValue::U64(64))],
            },
            Event {
                target: Target::Chaos,
                name: "fault",
                actor: ActorId::device(1),
                ts_ps: 3_000_000,
                kind: EventKind::Instant,
                args: vec![("drop", ArgValue::Bool(true))],
            },
            Event {
                target: Target::SimCore,
                name: "queue_depth",
                actor: ActorId::GLOBAL,
                ts_ps: 4_000_000,
                kind: EventKind::counter(17.0),
                args: vec![],
            },
        ]
    }

    #[test]
    fn export_contains_tracks_and_all_phases() {
        let events = sample_events();
        let cells = [TraceCell {
            label: "device=cx4".to_string(),
            index: 0,
            events: &events,
        }];
        let text = chrome_trace_json(&cells);
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        for needle in [
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"process_name\"",
            "\"thread_name\"",
            "\"cat\":\"rdma-verbs\"",
            "\"cat\":\"chaos\"",
            "\"cat\":\"sim-core\"",
            // 2_000_000 ps = 2 µs.
            "\"ts\":2,",
            "\"dur\":0.5,",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        // Deterministic: same input, same bytes.
        assert_eq!(text, chrome_trace_json(&cells));
    }

    #[test]
    fn pid_space_separates_cells_hosts_and_run_track() {
        assert_eq!(pid_of(0, ActorId::GLOBAL), 0);
        assert_eq!(pid_of(0, ActorId::device(0)), 1);
        assert_eq!(pid_of(0, ActorId::device(1)), 2);
        assert_eq!(pid_of(1, ActorId::GLOBAL), 256);
        assert_eq!(pid_of(1, ActorId::qp(0, 5)), 257);
    }
}
