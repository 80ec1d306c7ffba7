//! The metric catalogue and one workload's measured report.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a test keeps the two in step.

use std::collections::BTreeMap;

use ragnar_harness::Value;
use ragnar_telemetry::profile::{Phase, ProfileReport};

use crate::stats::Better;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest tolerated worsening, as a share of the base median.
    pub bound: f64,
}

/// What a user of the simulator sees, reported by every workload. The
/// timing bounds sit at the widest the benchmark format allows: the
/// 2-vCPU host this was built on drifted by up to 20 % between two
/// series of ten runs (README.md).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "unit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Per-layer rows of the traced run, named `<layer>.<metric>`. A layer a
/// workload never reaches reports 0. `experiments.<name>.cells_ms` rows
/// follow, one per registry entry.
const LAYERS: [(&str, &str, Better); 41] = [
    ("sim_core.events_per_unit", "count", Better::Lower),
    ("sim_core.ns_per_event", "ns", Better::Lower),
    ("sim_core.churn_ns_per_op", "ns", Better::Lower),
    ("rnic_model.wqes_per_unit", "count", Better::Higher),
    ("rnic_model.tpu_lookups_per_unit", "count", Better::Lower),
    ("rnic_model.cqes_per_unit", "count", Better::Higher),
    ("rnic_model.arena_allocs_per_unit", "count", Better::Lower),
    ("rnic_model.arena_high_water", "count", Better::Lower),
    ("rnic_model.retransmit_ratio", "ratio", Better::Lower),
    ("rdma_verbs.run_until_ms_per_unit", "ms", Better::Lower),
    ("rdma_verbs.post_send_ns", "ns", Better::Lower),
    ("rdma_verbs.take_completions_ns", "ns", Better::Lower),
    (
        "rdma_verbs.coalesced_hops_per_unit",
        "count",
        Better::Higher,
    ),
    ("rdma_verbs.build_ms", "ms", Better::Lower),
    ("rdma_verbs.add_host_us", "us", Better::Lower),
    ("topology.from_spec_ms", "ms", Better::Lower),
    ("topology.sent_per_unit", "count", Better::Lower),
    ("topology.delivered_per_unit", "count", Better::Higher),
    ("topology.dropped_per_unit", "count", Better::Lower),
    ("topology.pfc_pauses_per_unit", "count", Better::Lower),
    ("pdes.speedup", "x", Better::Higher),
    ("pdes.out_cook_calls_per_unit", "count", Better::Higher),
    ("pdes.merge_drain_calls_per_unit", "count", Better::Lower),
    ("pdes.worker_idle_ms_per_unit", "ms", Better::Lower),
    ("harness.params_ms", "ms", Better::Lower),
    ("harness.cold_cells_ms", "ms", Better::Lower),
    ("harness.cold_idle_ms", "ms", Better::Lower),
    ("harness.warm_idle_ms", "ms", Better::Lower),
    ("harness.warm_load_us_per_cell", "us", Better::Lower),
    ("harness.warm_hit_ratio", "ratio", Better::Higher),
    ("harness.regen_cold_s", "s", Better::Lower),
    ("harness.regen_warm_s", "s", Better::Lower),
    ("profile.queue_schedule_ms_per_unit", "ms", Better::Lower),
    (
        "profile.queue_schedule_calls_per_unit",
        "count",
        Better::Lower,
    ),
    ("profile.queue_pop_ms_per_unit", "ms", Better::Lower),
    ("profile.queue_pop_calls_per_unit", "count", Better::Lower),
    ("profile.execute_ms_per_unit", "ms", Better::Lower),
    ("profile.arena_alloc_ms_per_unit", "ms", Better::Lower),
    ("profile.arena_free_ms_per_unit", "ms", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.unattributed_pct", "%", Better::Lower),
];

/// One reported metric.
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The metrics a run reports, in print order: every end-to-end metric,
/// or with `traced` every per-layer one.
pub fn rows(traced: bool) -> Vec<Row> {
    if !traced {
        return END_TO_END
            .iter()
            .map(|m| Row {
                name: m.name.to_string(),
                unit: m.unit,
                better: m.better,
            })
            .collect();
    }
    let fixed = LAYERS.iter().map(|&(name, unit, better)| Row {
        name: name.to_string(),
        unit,
        better,
    });
    let experiments = ragnar_bench::experiments::registry()
        .into_iter()
        .map(|e| Row {
            name: format!("experiments.{}.cells_ms", e.name()),
            unit: "ms",
            better: Better::Lower,
        });
    fixed.chain(experiments).collect()
}

/// A measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub n: usize,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Measured>,
    /// Deterministic work counts, equal across commits for one seed.
    pub counts: BTreeMap<String, u64>,
    pub digests: BTreeMap<String, String>,
    pub gate_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.insert(name.to_string(), Measured { value, n });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    /// Records a failed correctness gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// The engine profiler's in-situ rows, per unit over `units` units.
    pub fn set_profile(&mut self, p: &ProfileReport, units: usize) {
        let get = |phase: Phase| {
            p.phases
                .iter()
                .find(|(q, _)| *q == phase)
                .map(|(_, t)| *t)
                .unwrap_or_default()
        };
        let per = |x: f64| x / units.max(1) as f64;
        let ms = |phase: Phase| per(get(phase).ns as f64 / 1e6);
        let calls = |phase: Phase| per(get(phase).calls as f64);
        self.set(
            "profile.queue_schedule_ms_per_unit",
            ms(Phase::QueueSchedule),
            units,
        );
        self.set(
            "profile.queue_schedule_calls_per_unit",
            calls(Phase::QueueSchedule),
            units,
        );
        self.set("profile.queue_pop_ms_per_unit", ms(Phase::QueuePop), units);
        self.set(
            "profile.queue_pop_calls_per_unit",
            calls(Phase::QueuePop),
            units,
        );
        self.set("profile.execute_ms_per_unit", ms(Phase::Execute), units);
        self.set(
            "profile.arena_alloc_ms_per_unit",
            ms(Phase::ArenaAlloc),
            units,
        );
        self.set(
            "profile.arena_free_ms_per_unit",
            ms(Phase::ArenaFree),
            units,
        );
        self.set("pdes.out_cook_calls_per_unit", calls(Phase::OutCook), units);
        self.set(
            "pdes.merge_drain_calls_per_unit",
            calls(Phase::MergeDrain),
            units,
        );
        self.set("pdes.worker_idle_ms_per_unit", ms(Phase::WorkerIdle), units);
    }

    /// The `{"name": {"value": v, "unit": u}}` object of [`rows`]`(traced)`,
    /// with each sample count when `with_samples`. A per-layer row the
    /// workload never measured reads 0; a missing end-to-end metric is a
    /// bug.
    pub fn metrics_value(&self, traced: bool, with_samples: bool) -> Value {
        let mut out = Value::object();
        for row in rows(traced) {
            let m = match self.metrics.get(&row.name) {
                Some(m) => *m,
                None if traced => Measured { value: 0.0, n: 0 },
                None => panic!("end-to-end metric {} was not measured", row.name),
            };
            let mut v = Value::object();
            v.set("value", m.value);
            v.set("unit", row.unit);
            if with_samples {
                v.set("n", m.n);
            }
            out.set(&row.name, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics `perf` prints,
    /// with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(row.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(row.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                row.get("better").and_then(Value::as_str),
                Some(m.better.name())
            );
            assert_eq!(
                row.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        let ours = rows(true);
        assert_eq!(layers.len(), ours.len());
        for (row, l) in layers.iter().zip(&ours) {
            assert_eq!(
                row.get("name").and_then(Value::as_str),
                Some(l.name.as_str())
            );
            assert_eq!(row.get("unit").and_then(Value::as_str), Some(l.unit));
            assert_eq!(
                row.get("better").and_then(Value::as_str),
                Some(l.better.name())
            );
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
