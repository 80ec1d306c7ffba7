//! The per-thread run context and the leveled log facade.
//!
//! The harness runs each experiment cell under one installed
//! [`RunCtx`]; everything the cell constructs — simulations, NICs,
//! event queues, fault injectors — captures the context's [`Tracer`],
//! [`Metrics`] and monitor config at construction time. No context
//! installed means both handles are disabled, monitors are off, and
//! instrumentation costs one branch.
//!
//! The context is thread-local, so two cells on two threads never see
//! each other's tracer or monitors, and nothing needs resetting after
//! a sweep: the guard restores the previous context on drop.

use std::cell::RefCell;

use crate::event::{ActorId, ArgValue, Event, Level, Target, TargetSet};
use crate::metrics::{Metrics, MetricsReport};
use crate::monitor::MonitorConfig;
use crate::tracer::Tracer;

/// Everything a cell observes through: its tracer, its metrics registry
/// and its online-monitor config. None of it enters configs or cache
/// keys — a run context observes a cell, it never parameterizes one.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Where trace events go (disabled by default).
    pub tracer: Tracer,
    /// Where counters and histograms go (disabled by default).
    pub metrics: Metrics,
    /// Online invariant monitors for simulations built under this
    /// context; `None` (the default) runs unmonitored.
    pub monitors: Option<MonitorConfig>,
}

thread_local! {
    static CURRENT: RefCell<RunCtx> = RefCell::new(RunCtx::default());
}

impl RunCtx {
    /// The context installed on this thread (the empty default when none
    /// is).
    pub fn current() -> RunCtx {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Installs this context on the current thread until the returned
    /// guard drops, restoring whatever was installed before (contexts
    /// nest).
    #[must_use = "the context uninstalls when the guard drops"]
    pub fn install(self) -> Installed {
        let prev = CURRENT.with(|c| c.replace(self));
        Installed { prev }
    }
}

/// The tracer installed on this thread (disabled when none is).
pub fn tracer() -> Tracer {
    CURRENT.with(|c| c.borrow().tracer.clone())
}

/// The metrics handle installed on this thread (disabled when none is).
pub fn metrics() -> Metrics {
    CURRENT.with(|c| c.borrow().metrics.clone())
}

/// Guard returned by [`RunCtx::install`]; restores the previous context
/// on drop, so drop it on the thread that installed it.
pub struct Installed {
    prev: RunCtx,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        CURRENT.with(|c| c.replace(prev));
    }
}

/// One configured tracing+metrics session: builds the handles and
/// harvests a [`SessionReport`] at the end.
pub struct Session {
    tracer: Tracer,
    metrics: Metrics,
}

impl Session {
    /// A session buffering up to `capacity` events of `filter`'s targets
    /// in a ring, with metrics on or off. [`TargetSet::EMPTY`] makes a
    /// metrics-only session.
    pub fn new(filter: TargetSet, capacity: usize, with_metrics: bool) -> Session {
        Session {
            tracer: Tracer::new(filter, capacity),
            metrics: if with_metrics {
                Metrics::new()
            } else {
                Metrics::disabled()
            },
        }
    }

    /// A run context carrying this session's handles and no monitors.
    pub fn ctx(&self) -> RunCtx {
        RunCtx {
            tracer: self.tracer.clone(),
            metrics: self.metrics.clone(),
            monitors: None,
        }
    }

    /// Installs [`Session::ctx`] on the current thread (see
    /// [`RunCtx::install`]).
    #[must_use = "the session uninstalls when the guard drops"]
    pub fn install(&self) -> Installed {
        self.ctx().install()
    }

    /// Harvests the buffered events, drop and total counts, and the
    /// metrics report.
    pub fn finish(self) -> SessionReport {
        let total_events = self.tracer.events_recorded();
        let (events, dropped_events) = self.tracer.drain();
        SessionReport {
            total_events,
            events,
            dropped_events,
            metrics: self.metrics.report(),
        }
    }
}

/// What one session observed.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Buffered events in record order.
    pub events: Vec<Event>,
    /// Events evicted from the ring after it filled.
    pub dropped_events: u64,
    /// Events accepted by the filter (buffered + evicted).
    pub total_events: u64,
    /// The metrics snapshot, when the session had metrics enabled.
    pub metrics: Option<MetricsReport>,
}

/// The leveled log facade behind the [`warn!`](crate::warn) /
/// [`info!`](crate::info) macros. Warnings always reach stderr;
/// both levels additionally become `log` instant events when the
/// ambient tracer accepts [`Target::Harness`].
pub fn log(level: Level, message: String) {
    let t = tracer();
    if t.enabled(Target::Harness) {
        t.record(Event {
            target: Target::Harness,
            name: "log",
            actor: ActorId::GLOBAL,
            ts_ps: 0,
            kind: crate::event::EventKind::Instant,
            args: vec![
                ("level", ArgValue::Str(level.name())),
                ("message", ArgValue::Text(message.clone())),
            ],
        });
    }
    if level >= Level::Warn {
        eprintln!("warning: {message}");
    }
}

/// Writes a transient progress line to stderr. Unlike [`log`], progress
/// is never recorded as a trace event: it is wall-clock by nature
/// (rates, ETAs) and would break byte-identical trace determinism if it
/// entered a session.
pub fn progress(message: String) {
    eprintln!("progress: {message}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_nest_and_restore() {
        assert!(!tracer().enabled(Target::Harness));
        let outer = Session::new(TargetSet::ALL, 64, true);
        {
            let _g1 = outer.install();
            tracer().instant(Target::Harness, "outer", ActorId::GLOBAL, 1, &[]);
            let inner = Session::new(TargetSet::ALL, 64, false);
            {
                let _g2 = inner.install();
                tracer().instant(Target::Harness, "inner", ActorId::GLOBAL, 2, &[]);
                metrics().counter_add("x", 1);
            }
            let inner_report = inner.finish();
            assert_eq!(inner_report.events.len(), 1);
            assert_eq!(inner_report.events[0].name, "inner");
            assert!(inner_report.metrics.is_none());
            // Outer session restored after the inner guard dropped.
            tracer().instant(Target::Harness, "outer2", ActorId::GLOBAL, 3, &[]);
            metrics().counter_add("outer", 2);
        }
        assert!(!tracer().enabled(Target::Harness));
        let report = outer.finish();
        assert_eq!(
            report.events.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec!["outer", "outer2"]
        );
        let m = report.metrics.expect("metrics");
        assert_eq!(m.counters, vec![("outer".to_string(), 2)]);
        assert_eq!(report.total_events, 2);
    }

    #[test]
    fn info_is_silent_without_session() {
        // Must not panic or print; just exercises the no-session path.
        crate::info!("nothing to see");
    }

    #[test]
    fn log_records_event_under_session() {
        let session = Session::new(TargetSet::ALL, 8, false);
        {
            let _g = session.install();
            crate::info!("cell {} done", 3);
        }
        let report = session.finish();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "log");
    }

    #[test]
    fn run_ctx_is_per_thread_and_restored() {
        let monitors = Some(MonitorConfig {
            policy: crate::ViolationPolicy::FailCell,
            every_events: 8,
        });
        {
            let _g = RunCtx {
                monitors,
                ..RunCtx::default()
            }
            .install();
            assert_eq!(RunCtx::current().monitors, monitors);
            let other = std::thread::spawn(|| RunCtx::current().monitors)
                .join()
                .expect("join");
            assert_eq!(other, None, "a context leaked to another thread");
        }
        assert_eq!(RunCtx::current().monitors, None);
    }
}
