//! The metrics registry: named counters, gauges and latency histograms
//! behind a cloneable, disabled-by-default handle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::histogram::{Histogram, HistogramSummary};
use crate::json;

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A cloneable handle to a metrics registry. A disabled handle (the
/// default) is a `None` inside: every operation is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    shared: Option<Arc<Mutex<Registry>>>,
}

impl Metrics {
    /// A handle that records nothing.
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// A fresh, enabled registry.
    pub fn new() -> Metrics {
        Metrics {
            shared: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Locks the registry, recovering from poison: counters and maps
    /// stay structurally valid even if a holder panicked mid-update, and
    /// telemetry must never turn one panic into a double panic.
    fn lock(shared: &Arc<Mutex<Registry>>) -> MutexGuard<'_, Registry> {
        shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(shared) = &self.shared {
            let mut reg = Metrics::lock(shared);
            match reg.counters.get_mut(name) {
                Some(slot) => *slot += delta,
                None => {
                    reg.counters.insert(name.to_string(), delta);
                }
            }
        }
    }

    /// Sets the named gauge to its latest observed value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(shared) = &self.shared {
            Metrics::lock(shared).gauges.insert(name.to_string(), value);
        }
    }

    /// Records a nanosecond latency sample into the named log-linear
    /// histogram (stored at picosecond resolution).
    pub fn record_ns(&self, name: &str, value_ns: f64) {
        if let Some(shared) = &self.shared {
            let ps = (value_ns * 1e3).max(0.0).round() as u64;
            let mut reg = Metrics::lock(shared);
            reg.histograms
                .entry(name.to_string())
                .or_default()
                .record(ps);
        }
    }

    /// Snapshots the registry into a report (`None` when disabled).
    pub fn report(&self) -> Option<MetricsReport> {
        let shared = self.shared.as_ref()?;
        let reg = Metrics::lock(shared);
        Some(MetricsReport {
            counters: reg.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: reg.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
            hist_buckets: reg
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramBuckets::of(h)))
                .collect(),
        })
    }
}

/// The lossless wire form of one histogram: sparse `(index, count)`
/// bucket pairs plus the exact aggregates, enough to rebuild the
/// histogram bit-for-bit on the other side of a sidecar file (see
/// [`Histogram::from_parts`]). This is what makes cross-cell merging
/// exact instead of re-bucketing summary quantiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramBuckets {
    /// Non-empty buckets as `(bucket index, sample count)`.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of recorded picosecond values.
    pub sum_ps: u128,
    /// Exact minimum (picoseconds; 0 when empty).
    pub min_ps: u64,
    /// Exact maximum (picoseconds).
    pub max_ps: u64,
}

impl HistogramBuckets {
    /// Captures the wire form of a live histogram.
    pub fn of(h: &Histogram) -> HistogramBuckets {
        HistogramBuckets {
            buckets: h.sparse_buckets(),
            count: h.count(),
            sum_ps: h.sum(),
            min_ps: h.min(),
            max_ps: h.max(),
        }
    }

    /// Rebuilds the histogram this wire form was captured from.
    pub fn rebuild(&self) -> Histogram {
        Histogram::from_parts(
            &self.buckets,
            self.count,
            self.sum_ps,
            self.min_ps,
            self.max_ps,
        )
    }
}

/// A point-in-time snapshot of a metrics registry, ready for JSON
/// export. Keys are sorted (BTreeMap order), so the encoding is
/// deterministic and content-hashable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-value gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name. Values are picoseconds.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Lossless histogram bucket data, sorted by name (same order as
    /// `histograms`), for exact cross-cell merging.
    pub hist_buckets: Vec<(String, HistogramBuckets)>,
}

impl MetricsReport {
    /// Total events/samples recorded across all histograms.
    pub fn histogram_samples(&self) -> u64 {
        self.histograms.iter().map(|(_, h)| h.count).sum()
    }

    /// Encodes the report as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_tagged(false)
    }

    /// Encodes the report as compact JSON, optionally tagging it
    /// `"incomplete": true` — the salvage-path marker for metrics
    /// harvested from failed or timed-out cells, whose counts only
    /// cover the portion of the cell that actually ran.
    pub fn to_json_tagged(&self, incomplete: bool) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        if incomplete {
            out.push_str("\"incomplete\":true,");
        }
        out.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::string(k, &mut out);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::string(k, &mut out);
            out.push(':');
            json::float(*v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::string(k, &mut out);
            out.push_str(&format!(
                ":{{\"count\":{},\"min_ps\":{},\"max_ps\":{},\"mean_ps\":",
                h.count, h.min, h.max
            ));
            json::float(h.mean, &mut out);
            out.push_str(&format!(
                ",\"p50_ps\":{},\"p90_ps\":{},\"p99_ps\":{}",
                h.p50, h.p90, h.p99
            ));
            // Lossless bucket data rides along (same-name entry; reports
            // assembled by hand may omit it).
            if let Some((_, b)) = self.hist_buckets.iter().find(|(name, _)| name == k) {
                out.push_str(&format!(",\"sum_ps\":{},\"buckets\":[", b.sum_ps));
                for (j, (idx, n)) in b.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{idx},{n}]"));
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        m.counter_add("x", 1);
        m.gauge_set("g", 2.0);
        m.record_ns("h", 3.0);
        assert!(!m.enabled());
        assert!(m.report().is_none());
    }

    #[test]
    fn report_is_sorted_and_complete() {
        let m = Metrics::new();
        m.counter_add("z.count", 2);
        m.counter_add("a.count", 1);
        m.counter_add("z.count", 3);
        m.gauge_set("depth", 4.0);
        for i in 0..100 {
            m.record_ns("lat", 100.0 + i as f64);
        }
        let r = m.report().expect("enabled");
        assert_eq!(
            r.counters,
            vec![("a.count".to_string(), 1), ("z.count".to_string(), 5)]
        );
        assert_eq!(r.gauges, vec![("depth".to_string(), 4.0)]);
        assert_eq!(r.histograms.len(), 1);
        let (name, h) = &r.histograms[0];
        assert_eq!(name, "lat");
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 199_000); // 199 ns in ps
        assert_eq!(r.histogram_samples(), 100);
        // Clones share the registry.
        let clone = m.clone();
        clone.counter_add("a.count", 1);
        assert_eq!(m.report().expect("enabled").counters[0].1, 2);
    }

    #[test]
    fn json_shape() {
        let m = Metrics::new();
        m.counter_add("c", 7);
        m.record_ns("h", 1.5);
        let text = m.report().expect("report").to_json();
        assert!(text.starts_with("{\"counters\":{\"c\":7}"));
        assert!(text.contains("\"h\":{\"count\":1,\"min_ps\":1500,\"max_ps\":1500"));
        // Lossless buckets ride along for cross-cell merging.
        assert!(text.contains("\"sum_ps\":1500,\"buckets\":[["), "{text}");
        assert!(!text.contains("\"incomplete\""));
    }

    #[test]
    fn incomplete_tag_marks_salvaged_sidecars() {
        let m = Metrics::new();
        m.counter_add("c", 1);
        let r = m.report().expect("report");
        let tagged = r.to_json_tagged(true);
        assert!(
            tagged.starts_with("{\"incomplete\":true,\"counters\":"),
            "{tagged}"
        );
        assert_eq!(r.to_json_tagged(false), r.to_json());
    }

    #[test]
    fn bucket_wire_form_roundtrips() {
        let m = Metrics::new();
        for i in 0..1000u64 {
            m.record_ns("lat", 50.0 + (i * i % 9973) as f64);
        }
        let r = m.report().expect("report");
        let (_, wire) = &r.hist_buckets[0];
        let rebuilt = wire.rebuild();
        let (_, summary) = &r.histograms[0];
        assert_eq!(rebuilt.summary(), *summary);
    }
}
