//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside, around the benchmark's calls into each
//! layer's public API. Every span names its unit (the identifier all of
//! one unit's spans share) and its parent. High-frequency calls
//! (`post_send`, `take_completions`, `add_host`) are folded into one
//! child span per unit carrying the call count and summed time; those
//! sit on their own track so the main track nests cleanly in Perfetto.
//! With recording off every method just runs its closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub unit: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
    pub folded: bool,
}

/// Time and call count accumulated for one folded high-frequency call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fold {
    pub ns: u64,
    pub calls: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Clock reads the recorder made, for its overhead estimate.
    clock_reads: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            clock_reads: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }

    fn now_ns(&mut self) -> u64 {
        self.clock_reads += 1;
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a unit's root span; close it with [`Recorder::close`].
    /// `None` when off.
    pub fn open(&mut self, name: &'static str, unit: u32) -> Option<SpanId> {
        self.enabled.then(|| self.push(name, unit, None))
    }

    fn push(&mut self, name: &'static str, unit: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            dur_ns: 0,
            calls: 1,
            folded: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            let span = &mut self.spans[id];
            span.dur_ns = end - span.start_ns;
        }
    }

    /// Runs `f` inside a child span of `parent`; with no parent (off) it
    /// just runs `f`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = parent.map(|p| {
            let unit = self.spans[p].unit;
            self.push(name, unit, Some(p))
        });
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f`, adding its time to `fold` when recording.
    #[inline]
    pub fn fold<R>(&mut self, fold: &mut Fold, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        fold.ns += t0.elapsed().as_nanos() as u64;
        fold.calls += 1;
        self.clock_reads += 2;
        out
    }

    /// Records `fold` as one child span of `parent`, starting at the
    /// parent's start (its time is a sum, not an interval).
    pub fn push_fold(&mut self, name: &'static str, parent: Option<SpanId>, fold: Fold) {
        let Some(p) = parent else {
            return;
        };
        if fold.calls == 0 {
            return;
        }
        let (unit, start_ns) = (self.spans[p].unit, self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            unit,
            parent,
            start_ns,
            dur_ns: fold.ns,
            calls: fold.calls,
            folded: true,
        });
    }

    /// Per span name: (total ns, calls, total self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns;
            e.1 += s.calls;
            e.2 += s.dur_ns.saturating_sub(child_ns[i]);
        }
        out
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        child
    }

    /// Mean share (in %) of each root span's time that no child span
    /// covers: the benchmark's own glue between layer calls.
    pub fn unattributed_pct(&self) -> f64 {
        let child = self.child_ns();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.dur_ns > 0)
            .map(|(i, s)| s.dur_ns.saturating_sub(child[i]) as f64 / s.dur_ns as f64)
            .collect();
        if shares.is_empty() {
            return 0.0;
        }
        100.0 * shares.iter().sum::<f64>() / shares.len() as f64
    }

    /// This recorder's spans as Chrome `trace_event` entries (one
    /// complete "X" event each) for process `pid`, folded spans on
    /// track 2; join them with [`chrome_json`].
    pub fn chrome_events(&self, pid: usize, workload: &str) -> Vec<String> {
        let child = self.child_ns();
        let mut out = vec![
            format!("{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":1,\"args\":{{\"name\":\"perf {workload}\"}}}}"),
            format!("{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":1,\"args\":{{\"name\":\"layer calls\"}}}}"),
            format!("{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":2,\"args\":{{\"name\":\"folded calls (summed time)\"}}}}"),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or("unit");
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{cat}\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"unit\":{},\"parent\":{parent},\"calls\":{},\"self_us\":{:.3}}}}}",
                s.name,
                if s.folded { 2 } else { 1 },
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.unit,
                s.calls,
                s.dur_ns.saturating_sub(child[i]) as f64 / 1e3,
            ));
        }
        out
    }
}

/// A Chrome `trace_event` JSON document (loadable in Perfetto).
pub fn chrome_json(events: &[String]) -> String {
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Measured cost of one recorder clock read, in ns: the median of five
/// batches of 100k reads.
pub fn clock_read_ns() -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut r = Recorder::new(true);
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(r.now_ns());
            }
            std::hint::black_box(acc);
            t0.elapsed().as_nanos() as f64 / 100_000.0
        })
        .collect();
    crate::stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_folds() {
        let mut r = Recorder::new(true);
        let unit = r.open("unit", 0);
        r.span("a.child", unit, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mut fold = Fold::default();
        for _ in 0..3 {
            r.fold(&mut fold, || std::hint::black_box(1 + 1));
        }
        r.push_fold("b.folded", unit, fold);
        r.close(unit);
        let totals = r.totals();
        let (unit_ns, _, unit_self) = totals["unit"];
        let (child_ns, child_calls, child_self) = totals["a.child"];
        assert_eq!(child_calls, 1);
        assert_eq!(child_ns, child_self, "a leaf's self time is its span");
        assert_eq!(totals["b.folded"].1, 3);
        assert_eq!(unit_self, unit_ns - child_ns - totals["b.folded"].0);
        assert!(r.unattributed_pct() < 50.0);
        let json = chrome_json(&r.chrome_events(1, "test"));
        assert!(ragnar_harness::Value::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let unit = r.open("unit", 0);
        assert_eq!(r.span("x", unit, || 7), 7);
        let mut fold = Fold::default();
        r.fold(&mut fold, || ());
        r.push_fold("y", unit, fold);
        r.close(unit);
        assert!(r.spans().is_empty());
        assert_eq!(fold.calls, 0);
    }
}
