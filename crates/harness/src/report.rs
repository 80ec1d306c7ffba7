//! Run reports: the per-invocation `report.json` / `report.md` pair.
//!
//! A manifest records *that* a sweep ran; the run report explains *what
//! it observed*. It is assembled after the sweep from the in-memory run
//! records (including telemetry salvaged from timed-out cells), the
//! manifest, and — when `--profile` was on — the engine phase profiler,
//! and written next to the manifest under `results/<experiment>/`.
//!
//! Layout discipline: everything outside the `"timing"` section is
//! deterministic (counters, exact bucket-merged histograms, event
//! counts, outcome tallies — pure functions of seed and config), so two
//! runs of the same build agree field for field. Wall-clock material
//! (stage timings, the phase profile) lives only under `"timing"`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use ragnar_telemetry::profile::ProfileReport;
use ragnar_telemetry::{Histogram, HistogramSummary};

use crate::experiment::{Outcome, RunRecord};
use crate::manifest::Manifest;
use crate::value::Value;

/// How many counters the markdown report lists (the JSON keeps all).
const TOP_COUNTERS: usize = 20;

/// One histogram merged exactly across every cell that recorded it
/// (bucket-level merge of the lossless sidecar wire form, not an
/// average of per-cell quantiles).
#[derive(Debug, Clone)]
pub struct MergedHistogram {
    /// Metric name.
    pub name: String,
    /// Cells that contributed samples.
    pub cells: usize,
    /// The merged summary (values in picoseconds).
    pub summary: HistogramSummary,
}

/// One row of the SLO table: a latency-quantile artifact metric,
/// grouped by the tenant/role prefix experiments use
/// (`victim_p99_ns`, `bystander_p99_ns`, …).
#[derive(Debug, Clone)]
pub struct SloRow {
    /// The config's human label.
    pub label: String,
    /// Tenant/role the quantile describes (metric-name prefix).
    pub tenant: String,
    /// Quantile name (`p50`, `p99`, …).
    pub quantile: String,
    /// The observed value, nanoseconds.
    pub value_ns: f64,
}

/// The assembled report (see the module docs).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The manifest of the invocation the report describes.
    pub manifest: Manifest,
    /// Counters summed across all cells' metrics reports.
    pub counters: Vec<(String, u64)>,
    /// Histograms bucket-merged across cells.
    pub histograms: Vec<MergedHistogram>,
    /// Per-tenant latency-SLO rows harvested from artifact metrics.
    pub slo: Vec<SloRow>,
    /// Cells whose telemetry was salvaged from a failed/timed-out run
    /// (their metrics cover only the portion that ran).
    pub incomplete_cells: usize,
    /// The engine phase profile, when `--profile` was on.
    pub profile: Option<ProfileReport>,
}

impl RunReport {
    /// Assembles the report from the sweep's records and manifest.
    pub fn build(
        manifest: &Manifest,
        records: &[RunRecord],
        profile: Option<ProfileReport>,
    ) -> RunReport {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut merged: BTreeMap<String, (usize, Histogram)> = BTreeMap::new();
        let mut incomplete_cells = 0usize;
        for r in records {
            if r.outcome.is_failure() && r.telemetry.is_some() {
                incomplete_cells += 1;
            }
            let Some(m) = r.telemetry.as_ref().and_then(|t| t.metrics.as_ref()) else {
                continue;
            };
            for (name, v) in &m.counters {
                *counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, wire) in &m.hist_buckets {
                let slot = merged
                    .entry(name.clone())
                    .or_insert_with(|| (0, Histogram::default()));
                slot.0 += 1;
                slot.1.merge(&wire.rebuild());
            }
        }
        let histograms = merged
            .into_iter()
            .map(|(name, (cells, h))| MergedHistogram {
                name,
                cells,
                summary: h.summary(),
            })
            .collect();
        RunReport {
            manifest: manifest.clone(),
            counters: counters.into_iter().collect(),
            histograms,
            slo: slo_rows(records),
            incomplete_cells,
            profile,
        }
    }

    /// The report as a JSON value (see the module docs for the
    /// deterministic-vs-timing split).
    pub fn to_value(&self) -> Value {
        let m = &self.manifest;
        let mut v = Value::object();
        v.set("experiment", m.experiment.as_str());
        v.set("seed", m.seed);
        v.set("artifact_digest", m.artifact_digest.as_str());
        let mut cells = Value::object();
        cells.set("total", m.total);
        cells.set("executed", m.executed);
        cells.set("cached", m.cached);
        cells.set("failed", m.failed);
        cells.set("timed_out", m.timed_out);
        cells.set("skipped", m.skipped);
        cells.set("aborted", m.aborted);
        cells.set("incomplete_telemetry", self.incomplete_cells);
        v.set("cells", cells);
        v.set("telemetry_events", m.telemetry_events);
        let mut counters = Value::object();
        for (name, value) in &self.counters {
            counters.set(name, *value);
        }
        v.set("counters", counters);
        let mut hists = Value::object();
        for h in &self.histograms {
            let s = &h.summary;
            let mut entry = Value::object();
            entry.set("cells", h.cells);
            entry.set("count", s.count);
            entry.set("min_ps", s.min);
            entry.set("max_ps", s.max);
            entry.set("mean_ps", s.mean);
            entry.set("p50_ps", s.p50);
            entry.set("p90_ps", s.p90);
            entry.set("p99_ps", s.p99);
            hists.set(&h.name, entry);
        }
        v.set("histograms", hists);
        let slo: Vec<Value> = self
            .slo
            .iter()
            .map(|row| {
                let mut r = Value::object();
                r.set("label", row.label.as_str());
                r.set("tenant", row.tenant.as_str());
                r.set("quantile", row.quantile.as_str());
                r.set("value_ns", row.value_ns);
                r
            })
            .collect();
        v.set("slo", Value::Array(slo));
        // Everything wall-clock lives under "timing" so report diffs
        // can skip it wholesale.
        let mut timing = Value::object();
        timing.set("wall_ms", m.wall_ms);
        let mut stages = Value::object();
        for (name, ms) in &m.stages {
            stages.set(name, *ms);
        }
        timing.set("stage_ms", stages);
        if let Some(p) = &self.profile {
            let mut phases = Value::object();
            for (phase, total) in &p.phases {
                let mut entry = Value::object();
                entry.set("ns", total.ns);
                entry.set("calls", total.calls);
                phases.set(phase.name(), entry);
            }
            timing.set("profile", phases);
        }
        v.set("timing", timing);
        v
    }

    /// Renders the human-readable companion (`report.md`).
    pub fn to_markdown(&self) -> String {
        let m = &self.manifest;
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "# {} — run report\n\nseed {}, {} configs ({} run, {} cached, {} failed), digest `{}`\n",
            m.experiment,
            m.seed,
            m.total,
            m.executed,
            m.cached,
            m.failed,
            &m.artifact_digest[..16.min(m.artifact_digest.len())],
        ));

        out.push_str("\n## Supervision\n\n");
        out.push_str(&format!(
            "| timed out | skipped | aborted | salvaged telemetry |\n\
             |---|---|---|---|\n\
             | {} | {} | {} | {} |\n",
            m.timed_out, m.skipped, m.aborted, self.incomplete_cells,
        ));
        out.push_str(&format!(
            "\nCache: {} of {} cells served from the store ({:.0}% hit rate).\n",
            m.cached,
            m.total,
            m.cache_hit_rate() * 100.0
        ));

        if let Some(p) = &self.profile {
            out.push_str("\n## Engine phase profile\n\n");
            let total = p.total_ns().max(1);
            out.push_str("| phase | time (ms) | share | calls |\n|---|---|---|---|\n");
            let mut phases: Vec<_> = p.phases.iter().collect();
            phases.sort_by_key(|p| std::cmp::Reverse(p.1.ns));
            for (phase, t) in phases {
                if t.calls == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "| {} | {:.2} | {:.1}% | {} |\n",
                    phase.name(),
                    t.ns as f64 / 1e6,
                    t.ns as f64 * 100.0 / total as f64,
                    t.calls
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str(&format!(
                "\n## Top counters (of {})\n\n",
                self.counters.len()
            ));
            out.push_str("| counter | total |\n|---|---|\n");
            let mut top: Vec<_> = self.counters.iter().collect();
            top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (name, value) in top.into_iter().take(TOP_COUNTERS) {
                out.push_str(&format!("| {name} | {value} |\n"));
            }
        }

        if !self.histograms.is_empty() {
            out.push_str("\n## Merged latency histograms\n\n");
            out.push_str(
                "| histogram | cells | samples | p50 (ns) | p90 (ns) | p99 (ns) | max (ns) |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            for h in &self.histograms {
                let s = &h.summary;
                out.push_str(&format!(
                    "| {} | {} | {} | {:.0} | {:.0} | {:.0} | {:.0} |\n",
                    h.name,
                    h.cells,
                    s.count,
                    s.p50 as f64 / 1e3,
                    s.p90 as f64 / 1e3,
                    s.p99 as f64 / 1e3,
                    s.max as f64 / 1e3,
                ));
            }
        }

        if !self.slo.is_empty() {
            out.push_str("\n## Per-tenant latency SLOs\n\n");
            out.push_str("| config | tenant | quantile | latency (ns) |\n|---|---|---|---|\n");
            for row in &self.slo {
                out.push_str(&format!(
                    "| {} | {} | {} | {:.0} |\n",
                    row.label, row.tenant, row.quantile, row.value_ns
                ));
            }
        }
        out
    }

    /// Writes `report.json` and `report.md` under
    /// `results/<experiment>/` (latest wins, like the manifest).
    pub fn write(&self, results_root: &Path) -> io::Result<()> {
        let dir = results_root.join(&self.manifest.experiment);
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("report.json"), self.to_value().encode())?;
        std::fs::write(dir.join("report.md"), self.to_markdown())?;
        Ok(())
    }
}

/// Harvests per-tenant latency-quantile rows from artifact metrics:
/// any numeric metric named `<tenant>_p<NN>_ns` becomes a row.
fn slo_rows(records: &[RunRecord]) -> Vec<SloRow> {
    let mut rows = Vec::new();
    for r in records {
        let Outcome::Done(artifact) = &r.outcome else {
            continue;
        };
        let Value::Object(entries) = &artifact.metrics else {
            continue;
        };
        for (key, value) in entries {
            let Some((tenant, quantile)) = parse_slo_key(key) else {
                continue;
            };
            let Some(value_ns) = value.as_f64() else {
                continue;
            };
            rows.push(SloRow {
                label: r.config.label(),
                tenant: tenant.to_string(),
                quantile: quantile.to_string(),
                value_ns,
            });
        }
    }
    rows
}

/// Splits `victim_p99_ns` into `("victim", "p99")`; `None` for metrics
/// that are not latency quantiles.
fn parse_slo_key(key: &str) -> Option<(&str, &str)> {
    let stem = key.strip_suffix("_ns")?;
    let (tenant, quantile) = stem.rsplit_once('_')?;
    let digits = quantile.strip_prefix('p')?;
    (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())).then_some((tenant, quantile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Artifact, Config};
    use ragnar_telemetry::{Metrics, SessionReport};

    fn record_with_metrics(i: usize, m: &Metrics, artifact: Artifact) -> RunRecord {
        RunRecord {
            index: i,
            config: Config::new().with("i", i as u64),
            seed: i as u64,
            cache_key: format!("k{i}"),
            outcome: Outcome::Done(artifact),
            from_cache: false,
            elapsed_ms: 1.0,
            telemetry: Some(SessionReport {
                metrics: m.report(),
                ..Default::default()
            }),
            repro: None,
        }
    }

    #[test]
    fn merges_counters_and_histograms_across_cells() {
        let m1 = Metrics::new();
        m1.counter_add("wire.dropped_packets", 3);
        for i in 0..50 {
            m1.record_ns("qp_completion_ns", 100.0 + f64::from(i));
        }
        let m2 = Metrics::new();
        m2.counter_add("wire.dropped_packets", 4);
        for i in 0..50 {
            m2.record_ns("qp_completion_ns", 5000.0 + f64::from(i));
        }
        let records = vec![
            record_with_metrics(0, &m1, Artifact::text("a")),
            record_with_metrics(1, &m2, Artifact::text("b")),
        ];
        let manifest = Manifest::from_records("unit", 0, 1, &records, vec![], 1.0);
        let report = RunReport::build(&manifest, &records, None);
        assert_eq!(
            report.counters,
            vec![("wire.dropped_packets".to_string(), 7)]
        );
        assert_eq!(report.histograms.len(), 1);
        let h = &report.histograms[0];
        assert_eq!((h.name.as_str(), h.cells), ("qp_completion_ns", 2));
        assert_eq!(h.summary.count, 100);
        // The merge is exact: extremes come from different cells.
        assert_eq!(h.summary.min, 100_000);
        assert_eq!(h.summary.max, 5_049_000);
        // Bucket-merged quantiles match a single histogram fed both
        // cells' samples.
        let reference = Metrics::new();
        for i in 0..50 {
            reference.record_ns("qp_completion_ns", 100.0 + f64::from(i));
            reference.record_ns("qp_completion_ns", 5000.0 + f64::from(i));
        }
        let (_, expect) = &reference.report().expect("report").histograms[0];
        assert_eq!(h.summary, *expect);
    }

    #[test]
    fn slo_rows_come_from_quantile_metrics_only() {
        let artifact = Artifact::text("x")
            .with_metric("victim_p50_ns", 1200.0)
            .with_metric("victim_p99_ns", 9800.0)
            .with_metric("bystander_p99_ns", 1300.0)
            .with_metric("dropped_packets", 7u64)
            .with_metric("raw_bps", 1e9);
        let m = Metrics::new();
        let records = vec![record_with_metrics(0, &m, artifact)];
        let manifest = Manifest::from_records("unit", 0, 1, &records, vec![], 1.0);
        let report = RunReport::build(&manifest, &records, None);
        let rows: Vec<(&str, &str, f64)> = report
            .slo
            .iter()
            .map(|r| (r.tenant.as_str(), r.quantile.as_str(), r.value_ns))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("victim", "p50", 1200.0),
                ("victim", "p99", 9800.0),
                ("bystander", "p99", 1300.0),
            ]
        );
        assert_eq!(
            parse_slo_key("attacker_p999_ns"),
            Some(("attacker", "p999"))
        );
        assert_eq!(parse_slo_key("uli_latency_ns"), None);
        assert_eq!(parse_slo_key("p99_ns"), None);
        assert_eq!(parse_slo_key("x_pq_ns"), None);
    }

    #[test]
    fn json_shape_and_write() {
        let m = Metrics::new();
        m.counter_add("c", 1);
        m.record_ns("h_ns", 42.0);
        let records = vec![record_with_metrics(
            0,
            &m,
            Artifact::text("x").with_metric("victim_p99_ns", 10.0),
        )];
        let manifest = Manifest::from_records("unit-report", 3, 2, &records, vec![], 4.0);
        let report = RunReport::build(
            &manifest,
            &records,
            Some(ragnar_telemetry::profile::snapshot()),
        );
        let v = report.to_value();
        assert_eq!(
            v.get("experiment").and_then(Value::as_str),
            Some("unit-report")
        );
        assert_eq!(v.get("seed").and_then(Value::as_i64), Some(3));
        assert!(v.get("artifact_digest").is_some());
        let cells = v.get("cells").expect("cells");
        assert_eq!(cells.get("total").and_then(Value::as_i64), Some(1));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Value::as_i64),
            Some(1)
        );
        let h = v
            .get("histograms")
            .and_then(|h| h.get("h_ns"))
            .expect("hist");
        assert_eq!(h.get("count").and_then(Value::as_i64), Some(1));
        assert!(h.get("p99_ps").is_some());
        // Wall-clock material lives only under "timing".
        let timing = v.get("timing").expect("timing");
        assert!(timing.get("wall_ms").is_some());
        assert!(timing.get("profile").is_some());
        // Round-trips through the parser.
        let encoded = v.encode();
        Value::parse(&encoded).expect("report.json parses");

        let md = report.to_markdown();
        assert!(md.contains("# unit-report — run report"));
        assert!(md.contains("## Merged latency histograms"));
        assert!(md.contains("victim"));

        let root = std::env::temp_dir().join(format!("ragnar-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        report.write(&root).expect("write");
        assert!(root.join("unit-report/report.json").is_file());
        assert!(root.join("unit-report/report.md").is_file());
        let _ = std::fs::remove_dir_all(&root);
    }
}
