//! The deterministic event-scheduling contract and the reference
//! (binary-heap) backend.
//!
//! Two interchangeable backends implement [`EventSchedule`]:
//!
//! * [`ReferenceQueue`] (this module) — a `BinaryHeap` future-event list.
//!   Simple, obviously correct, and the ordering oracle the differential
//!   test layer checks the fast backend against.
//! * [`CalendarQueue`](crate::CalendarQueue) — the hierarchical calendar
//!   queue used on the hot path ([`EventQueue`](crate::EventQueue) is an
//!   alias for it).
//!
//! Both guarantee the same total order: events fire by timestamp, and
//! events scheduled for the same instant fire in the order they were
//! scheduled (seq-number FIFO). That guarantee is what makes every
//! simulation — and therefore every harness artifact digest — bit-exact
//! across backends, thread counts and machines.

use crate::time::SimTime;
use ragnar_telemetry::profile::{self, Phase};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A ticket for a scheduled event, returned by
/// [`EventSchedule::schedule`] and accepted by
/// [`EventSchedule::cancel`].
///
/// Handles are only meaningful for the queue that issued them. A handle
/// whose event has already fired, been cancelled, or been cleared is
/// *stale*: cancelling it returns `false` and has no effect (slots are
/// generation-checked, so a recycled slot never aliases an old handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl EventHandle {
    /// Sentinel slot for backends that do not use slot storage.
    pub(crate) const NO_SLOT: u32 = u32::MAX;
}

/// A deterministic future-event list: the scheduling contract of the
/// simulation engine.
///
/// The contract every backend upholds:
///
/// * `pop` yields events in non-decreasing timestamp order;
/// * events with equal timestamps fire in the order they were scheduled
///   (insertion-seq FIFO), so the simulation is deterministic regardless
///   of backend internals;
/// * the clock ([`now`](EventSchedule::now)) is the timestamp of the most
///   recently popped event, and scheduling into the past panics;
/// * cancellation is *lazy*: a cancelled event is unlinked when the
///   backend next encounters it, never eagerly searched for.
pub trait EventSchedule<E> {
    /// The current simulation clock: the timestamp of the most recently
    /// popped event (or zero before any event fired).
    fn now(&self) -> SimTime;

    /// Number of pending (non-cancelled) events.
    fn len(&self) -> usize;

    /// True if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped since construction.
    fn events_processed(&self) -> u64;

    /// Schedules `event` to fire at absolute time `at`, returning a
    /// handle usable with [`cancel`](EventSchedule::cancel).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock: scheduling into
    /// the past would silently corrupt causality.
    fn schedule(&mut self, at: SimTime, event: E) -> EventHandle;

    /// Lazily cancels a pending event. Returns `true` if the event was
    /// still pending (it will never fire), `false` for a stale handle.
    fn cancel(&mut self, handle: EventHandle) -> bool;

    /// Timestamp of the earliest pending event. Takes `&mut self` so
    /// backends may discard already-cancelled entries while peeking.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Removes and returns the earliest pending event, advancing the
    /// clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Removes and returns the earliest event only if it fires at or
    /// before `deadline`.
    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Like [`pop`](EventSchedule::pop), but also exposes the event's
    /// insertion sequence number — the FIFO tiebreak among equal
    /// timestamps.
    fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)>;

    /// Drops all pending events without touching the clock.
    fn clear(&mut self);
}

/// An event scheduled at a particular instant.
///
/// Ordering is by time, then by insertion sequence number, so two events
/// scheduled for the same instant always fire in the order they were
/// scheduled.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Ordering is deliberately inverted — smallest (at, seq) compares
        // greatest — because the only consumer is ReferenceQueue's
        // std::collections::BinaryHeap, which is a max-heap and must pop
        // the earliest event first. The calendar backend does not use
        // this impl; it orders raw (at, seq) keys directly.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference event-queue backend: a `BinaryHeap` future-event list.
///
/// This is the original engine implementation, kept as the ordering
/// oracle for the differential test layer and as the baseline of the
/// event-core microbenches. `O(log n)` schedule/pop; cancellation is
/// lazy (cancelled entries are skipped at pop time) but *registering* a
/// cancellation is `O(n)`, which is fine for an oracle and keeps the
/// schedule/pop hot path free of bookkeeping.
///
/// # Examples
///
/// ```
/// use sim_core::{EventSchedule, ReferenceQueue, SimTime};
///
/// let mut q = ReferenceQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// q.schedule(SimTime::from_nanos(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Seqs cancelled but still buried in the heap; drained on contact.
    cancelled: HashSet<u64>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation clock (see [`EventSchedule::now`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped since construction.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at `at` (see [`EventSchedule::schedule`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let _p = profile::enter(Phase::QueueSchedule);
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={now}",
            at = at.as_picos(),
            now = self.now.as_picos()
        );
        let seq = self.seq;
        // The u64 seq counter cannot wrap in practice (one event per
        // simulated picosecond for half a year of wall time), but a wrap
        // would silently break same-instant FIFO, so debug builds assert.
        self.seq = self.seq.wrapping_add(1);
        debug_assert!(self.seq != 0, "event seq counter wrapped");
        self.heap.push(Scheduled { at, seq, event });
        EventHandle {
            seq,
            slot: EventHandle::NO_SLOT,
        }
    }

    /// Lazily cancels a pending event (see [`EventSchedule::cancel`]).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        // O(n) pending check: exactness matters (the differential layer
        // compares cancel outcomes across backends), oracle speed does not.
        let pending =
            self.heap.iter().any(|s| s.seq == handle.seq) && !self.cancelled.contains(&handle.seq);
        if pending {
            self.cancelled.insert(handle.seq);
        }
        pending
    }

    /// Timestamp of the earliest pending event, discarding cancelled
    /// entries encountered on the way.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(s) = self.heap.peek() {
            if self.cancelled.is_empty() || !self.cancelled.remove(&s.seq) {
                return Some(s.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Removes and returns the earliest pending event, advancing the
    /// clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(at, _, e)| (at, e))
    }

    /// Removes and returns the earliest event only if it fires at or
    /// before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// [`pop`](ReferenceQueue::pop) with the insertion sequence number
    /// exposed (see [`EventSchedule::pop_with_seq`]).
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let _p = profile::enter(Phase::QueuePop);
        loop {
            let s = self.heap.pop()?;
            if !self.cancelled.is_empty() && self.cancelled.remove(&s.seq) {
                continue;
            }
            debug_assert!(s.at >= self.now, "event queue time went backwards");
            self.now = s.at;
            self.popped += 1;
            return Some((s.at, s.seq, s.event));
        }
    }

    /// Drops all pending events without touching the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }
}

impl<E> EventSchedule<E> for ReferenceQueue<E> {
    fn now(&self) -> SimTime {
        ReferenceQueue::now(self)
    }
    fn len(&self) -> usize {
        ReferenceQueue::len(self)
    }
    fn events_processed(&self) -> u64 {
        ReferenceQueue::events_processed(self)
    }
    fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        ReferenceQueue::schedule(self, at, event)
    }
    fn cancel(&mut self, handle: EventHandle) -> bool {
        ReferenceQueue::cancel(self, handle)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        ReferenceQueue::peek_time(self)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        ReferenceQueue::pop(self)
    }
    fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        ReferenceQueue::pop_with_seq(self)
    }
    fn clear(&mut self) {
        ReferenceQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_tracks_pops() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_nanos(3), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(3));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_nanos(10), 'a');
        q.schedule(SimTime::from_nanos(20), 'b');
        assert_eq!(
            q.pop_before(SimTime::from_nanos(15)),
            Some((SimTime::from_nanos(10), 'a'))
        );
        assert_eq!(q.pop_before(SimTime::from_nanos(15)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_nanos(4), ());
        q.pop();
        q.schedule(SimTime::from_nanos(8), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(4));
    }

    #[test]
    fn cancel_semantics() {
        let mut q = ReferenceQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 'a');
        let b = q.schedule(SimTime::from_nanos(2), 'b');
        let c = q.schedule(SimTime::from_nanos(3), 'c');
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel is stale");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 'a')));
        assert!(!q.cancel(a), "fired handle is stale");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 'c')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.events_processed(), 2, "cancelled events never fire");
        let _ = c;
    }

    #[test]
    fn cancelled_head_skipped_by_peek() {
        let mut q = ReferenceQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 'a');
        q.schedule(SimTime::from_nanos(2), 'b');
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 'b')));
    }
}
