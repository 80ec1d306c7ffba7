//! Run manifests: the per-invocation record of what a sweep did.
//!
//! One manifest is written per harness invocation to
//! `results/<experiment>/manifest.json` (latest wins) and appended to
//! `results/<experiment>/manifest-history.jsonl`, so both "what just
//! happened" and "how did this change over time" stay answerable. The
//! manifest carries wall time, per-stage timings, run/cached/failed
//! counts and the run's artifact digest — the digest is how the
//! determinism guarantee (same artifacts at any `--threads`) is
//! checked end to end.

use std::io::{self, Write as _};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::experiment::{Outcome, RunRecord};
use crate::hash::content_hash;
use crate::value::Value;

/// Summary of one harness invocation.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Experiment name.
    pub experiment: String,
    /// Master seed the sweep ran with.
    pub seed: u64,
    /// Worker thread count used.
    pub threads: usize,
    /// Total configs in the sweep.
    pub total: usize,
    /// Configs actually executed this invocation.
    pub executed: usize,
    /// Configs served from the result cache.
    pub cached: usize,
    /// Configs that did not produce an artifact (error, panic, timeout
    /// or skip); this is what drives the process exit code.
    pub failed: usize,
    /// Configs that overran the cell watchdog.
    pub timed_out: usize,
    /// Configs never started because the sweep aborted first.
    pub skipped: usize,
    /// Whether a `[monitor-abort]` violation stopped the sweep early.
    pub aborted: bool,
    /// End-to-end wall time of the invocation, ms.
    pub wall_ms: f64,
    /// Per-stage wall timings `(stage, ms)` in execution order.
    pub stages: Vec<(String, f64)>,
    /// Hash over every artifact hash in config order — identical runs
    /// produce identical digests, whatever the thread count.
    pub artifact_digest: String,
    /// Unix timestamp (ms) when the invocation started.
    pub started_unix_ms: u64,
    /// Per-cell wall-time / cache-hit / event-count stats, config order.
    pub cells: Vec<CellStat>,
    /// Telemetry events accepted across all cells (0 with telemetry off).
    pub telemetry_events: u64,
}

/// One cell's slice of the manifest.
#[derive(Debug, Clone)]
pub struct CellStat {
    /// The config's human label.
    pub label: String,
    /// Whether the artifact came from the result cache.
    pub from_cache: bool,
    /// Wall time producing (or loading) the artifact, ms.
    pub elapsed_ms: f64,
    /// Telemetry events the cell's session accepted.
    pub events: u64,
    /// Events evicted from the trace ring (0 unless the cell overflowed).
    pub dropped_events: u64,
    /// Samples recorded across the cell's metrics histograms.
    pub metric_samples: u64,
    /// Ready-to-paste minimal-repro command for failed cells.
    pub repro: Option<String>,
}

impl Manifest {
    /// Builds a manifest from the sweep's records and timings.
    pub fn from_records(
        experiment: &str,
        seed: u64,
        threads: usize,
        records: &[RunRecord],
        stages: Vec<(String, f64)>,
        wall_ms: f64,
    ) -> Manifest {
        let cached = records.iter().filter(|r| r.from_cache).count();
        let failed = records.iter().filter(|r| r.outcome.is_failure()).count();
        let timed_out = records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::TimedOut { .. }))
            .count();
        let skipped = records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Skipped { .. }))
            .count();
        let aborted = records.iter().any(|r| match &r.outcome {
            Outcome::Failed { message, .. } => message.starts_with("[monitor-abort]"),
            Outcome::Skipped { .. } => true,
            _ => false,
        });
        // Digest: artifact content hashes in config order, failures
        // folded in by message so they also reproduce.
        let mut material = String::new();
        for r in records {
            match &r.outcome {
                Outcome::Done(a) => {
                    material.push_str(&content_hash(a.to_value().encode().as_bytes()));
                }
                Outcome::Failed { message, .. } => {
                    material.push_str("failed:");
                    material.push_str(message);
                }
                Outcome::TimedOut { timeout_ms } => {
                    material.push_str(&format!("timed-out:{timeout_ms}"));
                }
                Outcome::Skipped { reason } => {
                    material.push_str("skipped:");
                    material.push_str(reason);
                }
            }
            material.push('\n');
        }
        let cells: Vec<CellStat> = records
            .iter()
            .map(|r| {
                let (events, dropped, samples) = match &r.telemetry {
                    Some(t) => (
                        t.total_events,
                        t.dropped_events,
                        t.metrics
                            .as_ref()
                            .map(|m| m.histogram_samples())
                            .unwrap_or(0),
                    ),
                    None => (0, 0, 0),
                };
                CellStat {
                    label: r.config.label(),
                    from_cache: r.from_cache,
                    elapsed_ms: r.elapsed_ms,
                    events,
                    dropped_events: dropped,
                    metric_samples: samples,
                    repro: r.repro.clone(),
                }
            })
            .collect();
        let telemetry_events = cells.iter().map(|c| c.events).sum();
        Manifest {
            experiment: experiment.to_string(),
            seed,
            threads,
            total: records.len(),
            executed: records.len() - cached - skipped,
            cached,
            failed,
            timed_out,
            skipped,
            aborted,
            wall_ms,
            stages,
            artifact_digest: content_hash(material.as_bytes()),
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            cells,
            telemetry_events,
        }
    }

    /// Fraction of configs served from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cached as f64 / self.total as f64
        }
    }

    /// The manifest as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("experiment", self.experiment.as_str());
        v.set("seed", self.seed);
        v.set("threads", self.threads);
        v.set("configs_total", self.total);
        v.set("configs_executed", self.executed);
        v.set("configs_cached", self.cached);
        v.set("configs_failed", self.failed);
        v.set("configs_timed_out", self.timed_out);
        v.set("configs_skipped", self.skipped);
        v.set("aborted", self.aborted);
        v.set("wall_ms", self.wall_ms);
        let mut stages = Value::object();
        for (name, ms) in &self.stages {
            stages.set(name, *ms);
        }
        v.set("stage_ms", stages);
        v.set("artifact_digest", self.artifact_digest.as_str());
        v.set("started_unix_ms", self.started_unix_ms);
        v.set("cache_hit_rate", self.cache_hit_rate());
        v.set("telemetry_events", self.telemetry_events);
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|c| {
                let mut cell = Value::object();
                cell.set("label", c.label.as_str());
                cell.set("from_cache", c.from_cache);
                cell.set("elapsed_ms", c.elapsed_ms);
                cell.set("events", c.events);
                cell.set("dropped_events", c.dropped_events);
                cell.set("metric_samples", c.metric_samples);
                if let Some(repro) = &c.repro {
                    cell.set("repro", repro.as_str());
                }
                cell
            })
            .collect();
        v.set("cells", Value::Array(cells));
        v
    }

    /// Writes `manifest.json` (replace) and appends to
    /// `manifest-history.jsonl` under `results/<experiment>/`.
    pub fn write(&self, results_root: &Path) -> io::Result<()> {
        let dir = results_root.join(&self.experiment);
        std::fs::create_dir_all(&dir)?;
        let encoded = self.to_value().encode();
        std::fs::write(dir.join("manifest.json"), &encoded)?;
        let mut history = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("manifest-history.jsonl"))?;
        writeln!(history, "{encoded}")?;
        Ok(())
    }

    /// One-line console summary.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "[{}] {} configs in {:.1} ms on {} threads — {} run, {} cached ({:.0}% hit), {} failed; digest {}",
            self.experiment,
            self.total,
            self.wall_ms,
            self.threads,
            self.executed,
            self.cached,
            self.cache_hit_rate() * 100.0,
            self.failed,
            &self.artifact_digest[..16.min(self.artifact_digest.len())],
        );
        if self.timed_out > 0 {
            line.push_str(&format!("; {} timed out", self.timed_out));
        }
        if self.aborted {
            line.push_str(&format!("; ABORTED ({} skipped)", self.skipped));
        }
        if self.telemetry_events > 0 {
            line.push_str(&format!("; {} trace events", self.telemetry_events));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Artifact, Config};

    fn record(i: usize, rendered: &str, cached: bool) -> RunRecord {
        RunRecord {
            index: i,
            config: Config::new().with("i", i as u64),
            seed: i as u64,
            cache_key: format!("k{i}"),
            outcome: Outcome::Done(Artifact::text(rendered)),
            from_cache: cached,
            elapsed_ms: 1.0,
            telemetry: None,
            repro: None,
        }
    }

    fn with_outcome(mut r: RunRecord, outcome: Outcome) -> RunRecord {
        r.from_cache = false;
        r.outcome = outcome;
        r
    }

    #[test]
    fn counts_and_digest_are_content_based() {
        let a = vec![record(0, "x", false), record(1, "y", true)];
        let m1 = Manifest::from_records("unit", 1, 4, &a, vec![], 10.0);
        assert_eq!((m1.total, m1.executed, m1.cached, m1.failed), (2, 1, 1, 0));
        // Same artifacts, different scheduling metadata → same digest.
        let b = vec![record(0, "x", true), record(1, "y", false)];
        let m2 = Manifest::from_records("unit", 1, 1, &b, vec![], 99.0);
        assert_eq!(m1.artifact_digest, m2.artifact_digest);
        // Different artifact content → different digest.
        let c = vec![record(0, "x", false), record(1, "z", false)];
        let m3 = Manifest::from_records("unit", 1, 4, &c, vec![], 10.0);
        assert_ne!(m1.artifact_digest, m3.artifact_digest);
    }

    #[test]
    fn supervision_outcomes_are_counted_and_folded_into_the_digest() {
        let mut timed_out =
            with_outcome(record(1, "", false), Outcome::TimedOut { timeout_ms: 50 });
        timed_out.repro = Some("unit --seed 1 --no-cache --only \"i=1\"".to_string());
        let records = vec![
            record(0, "x", false),
            timed_out,
            with_outcome(
                record(2, "", false),
                Outcome::Skipped {
                    reason: "[monitor-abort] planted".to_string(),
                },
            ),
        ];
        let m = Manifest::from_records("unit", 1, 2, &records, vec![], 10.0);
        assert_eq!((m.total, m.executed, m.failed), (3, 2, 2));
        assert_eq!((m.timed_out, m.skipped), (1, 1));
        assert!(m.aborted);
        let line = m.summary_line();
        assert!(
            line.contains("1 timed out") && line.contains("ABORTED"),
            "{line}"
        );
        // New outcome kinds are digest material: a different timeout or
        // skip reason is a different run.
        let other = vec![
            record(0, "x", false),
            with_outcome(record(1, "", false), Outcome::TimedOut { timeout_ms: 99 }),
            records[2].clone(),
        ];
        let m2 = Manifest::from_records("unit", 1, 2, &other, vec![], 10.0);
        assert_ne!(m.artifact_digest, m2.artifact_digest);
        // The repro command survives into the JSON cells.
        let v = m.to_value();
        let cells = match v.get("cells") {
            Some(Value::Array(cells)) => cells,
            other => panic!("cells missing: {other:?}"),
        };
        assert_eq!(
            cells[1].get("repro").and_then(Value::as_str),
            Some("unit --seed 1 --no-cache --only \"i=1\"")
        );
        assert_eq!(v.get("aborted").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn write_produces_manifest_and_history() {
        let root =
            std::env::temp_dir().join(format!("ragnar-harness-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let records = vec![record(0, "x", false)];
        let m = Manifest::from_records("unit", 1, 1, &records, vec![("run".into(), 5.0)], 6.0);
        m.write(&root).expect("write");
        m.write(&root).expect("write twice");
        let manifest = std::fs::read_to_string(root.join("unit/manifest.json")).expect("read");
        let v = Value::parse(&manifest).expect("parse");
        assert_eq!(v.get("configs_total").and_then(Value::as_i64), Some(1));
        let history =
            std::fs::read_to_string(root.join("unit/manifest-history.jsonl")).expect("read");
        assert_eq!(history.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
