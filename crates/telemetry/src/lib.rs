//! Structured tracing and metrics for the Ragnar reproduction, keyed to
//! **simulated time**.
//!
//! Every layer of the stack — the event core, the RNIC datapath model,
//! the verbs fabric, the chaos injector, the measurement harness — emits
//! typed span/instant/counter events tagged with a [`Target`] (the
//! emitting crate), a stable [`ActorId`] (host + lane), and a
//! picosecond sim-time timestamp. Events flow into the [`Tracer`]'s
//! bounded in-memory ring; scalar observables flow into a [`Metrics`]
//! registry of counters, gauges and log-linear HDR-style latency
//! [`Histogram`]s.
//!
//! # Zero overhead when disabled
//!
//! Instrumentation points hold a cloned [`Tracer`] / [`Metrics`] handle
//! captured at construction. A disabled handle is `None` inside; the
//! guard is a single branch, no allocation, no locking. All pinned
//! golden digests are bit-identical with telemetry on or off because
//! the subsystem only *observes* — it never draws randomness or
//! schedules events.
//!
//! # Determinism
//!
//! Events carry only sim-time and stable actor ids — no wall clock, no
//! thread ids — and each harness cell records into its own session, so
//! a merged trace (cells concatenated in config order) is byte-identical
//! at any `--threads` count for a fixed seed.
//!
//! # The run context
//!
//! The harness installs one [`RunCtx`] per cell attempt into a
//! thread-local: the cell's tracer, metrics and online-monitor config
//! ([`MonitorConfig`]). Code constructed inside the cell picks it up via
//! [`RunCtx::current`] (or [`tracer()`] / [`metrics()`]). Outside the
//! harness, [`Session::install`] does the same for examples and tests:
//!
//! ```
//! use ragnar_telemetry::{Session, Target, TargetSet, ActorId};
//!
//! let session = Session::new(TargetSet::ALL, 1024, true);
//! {
//!     let _guard = session.install();
//!     let t = ragnar_telemetry::tracer();
//!     t.instant(Target::Harness, "hello", ActorId::GLOBAL, 42_000, &[]);
//! }
//! let report = session.finish();
//! assert_eq!(report.events.len(), 1);
//! ```

#![warn(missing_docs)]

mod event;
mod histogram;
mod intern;
mod json;
mod metrics;
mod monitor;
mod perfetto;
pub mod profile;
mod scope;
mod tracer;

pub use event::{ActorId, ArgValue, Event, EventKind, Level, Target, TargetSet};
pub use histogram::{Histogram, HistogramSummary};
pub use intern::PrefixedInterner;
pub use metrics::{HistogramBuckets, Metrics, MetricsReport};
pub use monitor::{MonitorConfig, ViolationPolicy};
pub use perfetto::{chrome_trace_json, TraceCell};
pub use scope::{log, metrics, progress, tracer, Installed, RunCtx, Session, SessionReport};
pub use tracer::Tracer;

/// Logs a warning through the leveled facade: always written to stderr,
/// and additionally recorded as a `log` instant event when a tracing
/// session is installed on the current thread.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log($crate::Level::Warn, format!($($arg)*))
    };
}

/// Logs an informational message: recorded as a `log` instant event when
/// a session is installed, silently dropped otherwise (keeps `--quick`
/// runs clean on stdout/stderr).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log($crate::Level::Info, format!($($arg)*))
    };
}
