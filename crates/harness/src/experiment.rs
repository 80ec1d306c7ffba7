//! The [`Experiment`] abstraction: a named, parameterised, seedable
//! unit of reproduction that every figure/table of the paper implements.

use crate::cli::Cli;
use crate::value::Value;

/// One point in an experiment's parameter space.
///
/// A config is an ordered set of key → JSON-value pairs. Its
/// [`canonical`](Config::canonical) encoding (keys sorted) is what gets
/// hashed into the cache key and what the per-config seed is derived
/// from, so a config *is* its content — construction order, threads and
/// scheduling cannot change identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    entries: Vec<(String, Value)>,
}

impl Config {
    /// An empty config.
    pub fn new() -> Config {
        Config::default()
    }

    /// Builder-style insert.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Config {
        self.set(key, value);
        self
    }

    /// Inserts or replaces a key.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Fetches a raw value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Fetches a string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Fetches an unsigned integer field.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Value::as_i64).map(|i| i as u64)
    }

    /// Fetches a float field.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// Fetches a bool field.
    pub fn bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
    }

    /// The canonical JSON encoding: an object with keys sorted
    /// byte-lexicographically. This string is the config's identity for
    /// hashing and seed derivation.
    pub fn canonical(&self) -> String {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(sorted).encode()
    }

    /// A short human-readable `key=value` label for logs and manifests.
    pub fn label(&self) -> String {
        if self.entries.is_empty() {
            return "default".to_string();
        }
        self.entries
            .iter()
            .map(|(k, v)| match v {
                Value::Str(s) => format!("{k}={s}"),
                other => format!("{k}={other}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The underlying entries, in insertion order.
    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    /// Rebuilds a config from a parsed JSON object (cache loads).
    pub fn from_value(v: &Value) -> Option<Config> {
        match v {
            Value::Object(entries) => Some(Config {
                entries: entries.clone(),
            }),
            _ => None,
        }
    }
}

/// The result of running one config: a rendered report fragment plus
/// structured metrics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Artifact {
    /// Human-readable output for this config.
    pub rendered: String,
    /// Structured measurements, for programmatic consumers and tests.
    pub metrics: Value,
}

impl Artifact {
    /// An artifact that is only rendered text.
    pub fn text(rendered: impl Into<String>) -> Artifact {
        Artifact {
            rendered: rendered.into(),
            metrics: Value::object(),
        }
    }

    /// Builder-style metric insert.
    pub fn with_metric(mut self, key: &str, value: impl Into<Value>) -> Artifact {
        if !matches!(self.metrics, Value::Object(_)) {
            self.metrics = Value::object();
        }
        self.metrics.set(key, value);
        self
    }

    /// Canonical JSON encoding of the whole artifact; its hash is the
    /// basis of the run's determinism digest.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::object();
        obj.set("rendered", self.rendered.as_str());
        obj.set("metrics", self.metrics.clone());
        obj
    }

    /// Rebuilds an artifact from its JSON encoding (cache loads).
    pub fn from_value(v: &Value) -> Option<Artifact> {
        Some(Artifact {
            rendered: v.get("rendered")?.as_str()?.to_string(),
            metrics: v.get("metrics")?.clone(),
        })
    }
}

/// How one config's run ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The config produced an artifact.
    Done(Artifact),
    /// The config failed; sweeps record and continue.
    Failed {
        /// The error (or panic) message.
        message: String,
        /// Whether the failure was a caught panic rather than an `Err`.
        panicked: bool,
    },
    /// Every attempt overran the cell watchdog (`--cell-timeout`).
    TimedOut {
        /// The watchdog budget each attempt was given, in ms.
        timeout_ms: u64,
    },
    /// The cell never ran: an earlier cell's monitor demanded a
    /// whole-sweep abort before this one was picked up.
    Skipped {
        /// Why the sweep stopped scheduling cells.
        reason: String,
    },
}

impl Outcome {
    /// The artifact, if the run succeeded.
    pub fn artifact(&self) -> Option<&Artifact> {
        match self {
            Outcome::Done(a) => Some(a),
            _ => None,
        }
    }

    /// Whether the cell counts against the sweep (anything but `Done`).
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Done(_))
    }
}

/// The full record of one executed (or cache-served) config.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Position of the config in [`Experiment::params`] order; records
    /// are always returned sorted by this, whatever the schedule did.
    pub index: usize,
    /// The config that ran.
    pub config: Config,
    /// The derived per-config seed it ran with.
    pub seed: u64,
    /// The content-addressed cache key.
    pub cache_key: String,
    /// How the run ended.
    pub outcome: Outcome,
    /// Whether the artifact came from the result cache.
    pub from_cache: bool,
    /// Wall time spent producing (or loading) the artifact, in ms.
    pub elapsed_ms: f64,
    /// What the cell's telemetry session observed (`None` when telemetry
    /// was off or the artifact came from the cache). Never part of the
    /// artifact or its digest.
    pub telemetry: Option<ragnar_telemetry::SessionReport>,
    /// A ready-to-paste minimal-repro command for failed and timed-out
    /// cells (`None` otherwise).
    pub repro: Option<String>,
}

/// A reproducible experiment: the unit the harness schedules, caches
/// and reports on.
///
/// Implementations must be [`Sync`]: `run` is called concurrently from
/// the executor's worker threads with distinct configs.
pub trait Experiment: Sync {
    /// Stable experiment name; doubles as the `results/<name>/` cache
    /// namespace and the name `ragnar <name>` runs it by.
    fn name(&self) -> &'static str;

    /// One-line description shown by `--help`.
    fn description(&self) -> &'static str {
        ""
    }

    /// The parameter space to sweep for this invocation. `cli` carries
    /// the shared flags (`--quick`) plus experiment-specific ones
    /// (e.g. fig4's `--full`).
    fn params(&self, cli: &Cli) -> Vec<Config>;

    /// Runs one config with a deterministically derived seed, returning
    /// the artifact or an error message. Panics are caught by the
    /// executor and recorded as failures.
    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String>;

    /// Renders the final report from all records, in `params()` order.
    /// The default concatenates each artifact's rendered fragment.
    fn summarize(&self, records: &[RunRecord], out: &mut String) {
        for record in records {
            if let Outcome::Done(artifact) = &record.outcome {
                out.push_str(&artifact.rendered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_order_insensitive() {
        let a = Config::new().with("b", 2u64).with("a", 1u64);
        let b = Config::new().with("a", 1u64).with("b", 2u64);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), r#"{"a":1,"b":2}"#);
        // ...but identity still distinguishes values.
        let c = Config::new().with("a", 1u64).with("b", 3u64);
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn config_accessors() {
        let c = Config::new()
            .with("op", "read")
            .with("len", 512u64)
            .with("scale", 0.5)
            .with("on", true);
        assert_eq!(c.str("op"), Some("read"));
        assert_eq!(c.u64("len"), Some(512));
        assert_eq!(c.f64("scale"), Some(0.5));
        assert_eq!(c.bool("on"), Some(true));
        assert_eq!(c.str("missing"), None);
        assert_eq!(c.label(), "op=read len=512 scale=0.5 on=true");
    }

    #[test]
    fn artifact_roundtrip() {
        let a = Artifact::text("table\n").with_metric("bps", 63_600u64);
        let back = Artifact::from_value(&a.to_value()).expect("roundtrip");
        assert_eq!(back, a);
    }
}
