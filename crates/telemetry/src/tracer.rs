//! The cloneable [`Tracer`] handle instrumentation points hold.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{ActorId, ArgValue, Event, EventKind, Target, TargetSet};

/// A bounded in-memory ring: keeps the most recent `capacity` events and
/// counts the overflow, so a pathological cell bounds its own memory
/// instead of the whole sweep's.
#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

struct TracerShared {
    filter: TargetSet,
    ring: Mutex<Ring>,
}

impl TracerShared {
    /// Locks the ring, recovering from poison: a panicking harness
    /// worker must report its own panic, not die again on an opaque
    /// `PoisonError` while draining telemetry. The ring's invariants
    /// hold under poison — every mutation leaves it consistent.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handle to one tracing session. Instrumented types capture a clone
/// at construction; a disabled handle (the default) makes every
/// operation a single branch on a `None`.
///
/// Callers building argument vectors should guard on
/// [`Tracer::enabled`] first so the disabled path allocates nothing:
///
/// ```
/// # use ragnar_telemetry::{Tracer, Target, ActorId};
/// let tracer = Tracer::disabled();
/// if tracer.enabled(Target::RdmaVerbs) {
///     tracer.span(Target::RdmaVerbs, "wire", ActorId::device(0), 0, 100,
///                 &[("bytes", 64u64.into())]);
/// }
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// A handle that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A handle buffering up to `capacity` events (min 1) of `filter`'s
    /// targets, evicting the oldest once full.
    pub fn new(filter: TargetSet, capacity: usize) -> Tracer {
        Tracer {
            shared: Some(Arc::new(TracerShared {
                filter,
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            })),
        }
    }

    /// Whether events for `target` are recorded — the hot-path guard.
    #[inline]
    pub fn enabled(&self, target: Target) -> bool {
        match &self.shared {
            Some(shared) => shared.filter.contains(target),
            None => false,
        }
    }

    /// Events accepted by the filter so far (buffered + evicted).
    pub fn events_recorded(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| {
            let ring = s.lock();
            ring.events.len() as u64 + ring.dropped
        })
    }

    /// Records a raw event.
    pub fn record(&self, event: Event) {
        if let Some(shared) = &self.shared {
            if !shared.filter.contains(event.target) {
                return;
            }
            let mut ring = shared.lock();
            if ring.events.len() >= ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(event);
        }
    }

    /// Removes and returns every buffered event, oldest first, with the
    /// count of events evicted before them.
    pub(crate) fn drain(&self) -> (Vec<Event>, u64) {
        self.shared.as_ref().map_or((Vec::new(), 0), |s| {
            let mut ring = s.lock();
            (ring.events.drain(..).collect(), ring.dropped)
        })
    }

    /// Records a span: work on `actor` starting at `ts_ps` for `dur_ps`.
    pub fn span(
        &self,
        target: Target,
        name: &'static str,
        actor: ActorId,
        ts_ps: u64,
        dur_ps: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        if self.enabled(target) {
            self.record(Event {
                target,
                name,
                actor,
                ts_ps,
                kind: EventKind::Span { dur_ps },
                args: args.to_vec(),
            });
        }
    }

    /// Records an instant marker.
    pub fn instant(
        &self,
        target: Target,
        name: &'static str,
        actor: ActorId,
        ts_ps: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        if self.enabled(target) {
            self.record(Event {
                target,
                name,
                actor,
                ts_ps,
                kind: EventKind::Instant,
                args: args.to_vec(),
            });
        }
    }

    /// Records a sampled counter value (a Perfetto counter track).
    pub fn counter(
        &self,
        target: Target,
        name: &'static str,
        actor: ActorId,
        ts_ps: u64,
        value: f64,
    ) {
        if self.enabled(target) {
            self.record(Event {
                target,
                name,
                actor,
                ts_ps,
                kind: EventKind::counter(value),
                args: Vec::new(),
            });
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.shared {
            Some(shared) => f
                .debug_struct("Tracer")
                .field("filter", &shared.filter)
                .field("recorded", &self.events_recorded())
                .finish(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> Event {
        Event {
            target: Target::Harness,
            name: "t",
            actor: ActorId::GLOBAL,
            ts_ps: i,
            kind: EventKind::Instant,
            args: vec![],
        }
    }

    fn timestamps(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.ts_ps).collect()
    }

    #[test]
    fn filter_drops_unselected_targets() {
        let tracer = Tracer::new(TargetSet::EMPTY.with(Target::Chaos), 16);
        assert!(tracer.enabled(Target::Chaos));
        assert!(!tracer.enabled(Target::SimCore));
        tracer.instant(Target::Chaos, "fault", ActorId::GLOBAL, 1, &[]);
        tracer.instant(Target::SimCore, "depth", ActorId::GLOBAL, 2, &[]);
        assert_eq!(tracer.events_recorded(), 1);
        assert_eq!(tracer.drain().0.len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        tracer.span(Target::Harness, "x", ActorId::GLOBAL, 0, 1, &[]);
        assert_eq!(tracer.events_recorded(), 0);
        assert!(!tracer.enabled(Target::Harness));
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let tracer = Tracer::new(TargetSet::ALL, 3);
        for i in 0..5 {
            tracer.record(ev(i));
        }
        assert_eq!(tracer.events_recorded(), 5);
        let (events, dropped) = tracer.drain();
        assert_eq!(dropped, 2);
        assert_eq!(timestamps(&events), vec![2, 3, 4]);
        assert!(tracer.drain().0.is_empty());
    }

    #[test]
    fn poisoned_ring_still_records_and_drains() {
        let tracer = Tracer::new(TargetSet::ALL, 8);
        tracer.record(ev(1));
        // Poison the mutex: a harness worker panics while holding the
        // ring lock (simulated by panicking under the guard).
        let poisoner = tracer.clone();
        let result = std::thread::spawn(move || {
            let shared = poisoner.shared.as_ref().expect("enabled");
            let _guard = shared.ring.lock().expect("not yet poisoned");
            panic!("worker dies holding the ring");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread must have panicked");
        let shared = tracer.shared.as_ref().expect("enabled");
        assert!(shared.ring.lock().is_err(), "mutex is poisoned");
        // The ring must keep working: record, count, drain.
        tracer.record(ev(2));
        assert_eq!(tracer.events_recorded(), 2);
        let (events, dropped) = tracer.drain();
        assert_eq!(dropped, 0);
        assert_eq!(timestamps(&events), vec![1, 2]);
    }
}
