//! # sim-core — deterministic discrete-event simulation engine
//!
//! The foundation of the Ragnar reproduction: a picosecond-resolution
//! simulation clock ([`SimTime`], [`SimDuration`]), a deterministic
//! future-event list (the [`EventSchedule`] trait with two backends —
//! the hot-path hierarchical [`CalendarQueue`] and the heap-based
//! [`ReferenceQueue`] ordering oracle; [`EventQueue`] aliases the
//! default backend), seeded randomness ([`SimRng`]), an
//! order-sensitive event-stream fingerprint ([`Digest64`]),
//! queueing primitives for contended hardware resources
//! ([`ServiceResource`], [`BankedResource`], [`LinkResource`]), and the
//! statistics used by the paper's measurement methodology
//! ([`OnlineStats`], [`Summary`], [`pearson`], [`linear_fit`],
//! [`TimeSeries`]).
//!
//! Both queue backends guarantee the same total event order — earliest
//! timestamp first, FIFO among equal timestamps — which is what makes
//! every experiment bit-reproducible from its seed regardless of
//! backend or thread count (see `tests/differential.rs`).
//!
//! Everything in this crate is intentionally domain-agnostic: the RNIC
//! microarchitecture lives in `rnic-model`, and the verbs software stack in
//! `rdma-verbs`.
//!
//! # Examples
//!
//! Simulate two jobs contending for one server and measure the queueing
//! delay of the second — the primitive behind every volatile channel in
//! the paper:
//!
//! ```
//! use sim_core::{ServiceResource, SimDuration, SimTime};
//!
//! let mut unit = ServiceResource::new();
//! let now = SimTime::ZERO;
//! let first = unit.reserve(now, SimDuration::from_nanos(300));
//! let second = unit.reserve(now, SimDuration::from_nanos(300));
//! assert_eq!(first.wait_since(now), SimDuration::ZERO);
//! assert_eq!(second.wait_since(now), SimDuration::from_nanos(300));
//! ```

#![warn(missing_docs)]

mod calendar;
mod digest;
mod fxmap;
mod queue;
mod resource;
mod rng;
mod stats;
mod supervise;
mod time;

pub use calendar::CalendarQueue;
pub use digest::Digest64;
pub use fxmap::{FxHashMap, FxHashSet, FxHasher};
pub use queue::{EventHandle, EventSchedule, ReferenceQueue};
pub use supervise::{
    install_panic_gate, panic_payload_message, supervised_section, thread_is_supervised,
    SupervisedGuard,
};

/// The default event-queue backend used by the simulation hot path.
///
/// Aliases [`CalendarQueue`]; [`ReferenceQueue`] remains available as
/// the ordering oracle for differential tests and A/B benchmarks.
pub type EventQueue<E> = CalendarQueue<E>;

/// Version of the event-core engine, threaded into harness cache keys.
///
/// Bump this whenever a change to the engine could alter event ordering
/// or artifact bytes (it shouldn't — that is what the differential and
/// golden tests pin — but cached results from before the change must
/// still be treated as misses). History: 1 = global `BinaryHeap` event
/// queue, 2 = hierarchical calendar queue.
pub const ENGINE_VERSION: u32 = 2;
pub use resource::{BankedResource, LinkResource, Reservation, ServiceResource};
pub use rng::{derive_seed, SimRng};
pub use stats::{
    linear_fit, pearson, percentile_sorted, LineFit, OnlineStats, Summary, TimeSeries,
};
pub use time::{SimDuration, SimTime};
