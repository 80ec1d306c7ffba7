//! The hierarchical calendar-queue event core — the hot scheduling path
//! of the simulator.
//!
//! [`CalendarQueue`] replaces the global binary heap with three
//! time-bucketed wheels (256 slots each) plus an overflow heap for
//! events beyond the wheel horizon:
//!
//! * **level 0** — one slot per bucket of `2^shift` picoseconds
//!   (default 4.096 ns), covering the next 256 ticks;
//! * **level 1** — one slot per 256 ticks, covering the next 2^16 ticks;
//! * **level 2** — one slot per 2^16 ticks, covering the next 2^24 ticks
//!   (~68 ms at the default bucket width);
//! * **overflow** — a small min-heap for the rare far-future event
//!   (retransmission timers of second-scale covert-channel bit periods).
//!
//! Buckets are intrusive singly-linked lists over a slab of event cells,
//! so steady-state schedule/pop performs **no allocation**: a cell is
//! carved from the free list, threaded through at most one list per
//! wheel level, and returned on pop. Events due in the bucket the cursor
//! currently points at sit in a descending sorted vec (`current`)
//! ordered by exact `(timestamp, seq)`, which is what preserves the
//! engine's same-instant FIFO guarantee bit-for-bit: the wheels only
//! ever decide *roughly when* an event is considered, the `(at, seq)`
//! key alone decides *in which order* it fires. Cancellation is lazy: a cancelled
//! cell stays linked wherever it is and is reclaimed when the queue next
//! touches it.
//!
//! Amortized cost is O(1) per schedule/pop: each cell descends through
//! at most two cascades before reaching the current-bucket heap, whose
//! size is bounded by the events sharing one bucket (a few, at
//! simulation densities). The [`ReferenceQueue`](crate::ReferenceQueue)
//! ordering oracle and the differential property suite
//! (`tests/differential.rs`) pin the equivalence.
//!
//! # Examples
//!
//! ```
//! use sim_core::{CalendarQueue, SimTime};
//!
//! let mut q = CalendarQueue::new();
//! q.schedule(SimTime::from_nanos(20), "late");
//! q.schedule(SimTime::from_nanos(10), "early");
//! let h = q.schedule(SimTime::from_nanos(15), "cancelled");
//! assert!(q.cancel(h));
//!
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
//! assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```

use crate::queue::{EventHandle, EventSchedule};
use crate::time::SimTime;
use ragnar_telemetry::profile::{self, Phase};
use ragnar_telemetry::{ActorId, Target, Tracer};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Slots per wheel level.
const SLOTS: usize = 256;
/// Mask extracting a slot index from a tick.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Ticks covered by levels 0–1.
const L1_TICKS: u64 = 1 << 16;
/// Ticks covered by the whole wheel hierarchy; beyond lies the overflow
/// heap.
const HORIZON_TICKS: u64 = 1 << 24;
/// Null link in the slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// One event cell in the slab arena.
///
/// `event == None` marks a cancelled (or free) cell; `next` doubles as
/// the bucket-list link and the free-list link.
#[derive(Debug)]
struct Cell<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
    next: u32,
}

/// Ordering key for the current bucket and the overflow heap: exact
/// event order, `(timestamp, seq)`, with the slot id carried along.
/// `seq` is unique per queue, so the slot never participates in an
/// ordering decision; it is included only to keep `Ord` total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    at_ps: u64,
    seq: u64,
    slot: u32,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at_ps
            .cmp(&other.at_ps)
            .then_with(|| self.seq.cmp(&other.seq))
            .then_with(|| self.slot.cmp(&other.slot))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The cursor bucket's events in exact `(at, seq)` order, kept as an
/// ascending sorted ring: the earliest entry lives at the front, so the
/// hot pop advances a head cursor (no shift at all), and a same-bucket
/// insert is one binary search plus a tail-side shift. The shape
/// matters: events scheduled *into* the cursor bucket mid-drain land
/// near the back (they fire after what is already pending), so the
/// common insert shifts only a handful of entries. This beats a binary heap on both ends: no cache-hostile
/// sift-down per pop, and a wheel-bucket refill sorts the batch once
/// instead of paying n heap pushes.
#[derive(Debug, Default)]
struct CurrentBucket {
    /// Ascending from `head`; `[..head]` is already-popped garbage,
    /// reclaimed when the bucket empties or resorts.
    entries: Vec<HeapEntry>,
    head: usize,
}

impl CurrentBucket {
    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.entries.len()
    }

    #[inline]
    fn peek(&self) -> Option<HeapEntry> {
        self.entries.get(self.head).copied()
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapEntry> {
        let e = self.entries.get(self.head).copied()?;
        self.head += 1;
        if self.head == self.entries.len() {
            self.entries.clear();
            self.head = 0;
        }
        Some(e)
    }

    /// Inserts one entry, keeping the ascending order. Entries fired
    /// into the cursor bucket mid-drain mostly land near the tail, so
    /// the shift is short.
    #[inline]
    fn insert(&mut self, e: HeapEntry) {
        let pos = self.head + self.entries[self.head..].partition_point(|x| *x < e);
        self.entries.insert(pos, e);
    }

    /// Appends without ordering; the caller must [`Self::resort`]
    /// before the next peek or pop.
    #[inline]
    fn append_unsorted(&mut self, e: HeapEntry) {
        self.entries.push(e);
    }

    /// Restores the ascending invariant after a batch of appends,
    /// dropping the popped prefix.
    fn resort(&mut self) {
        self.entries.drain(..self.head);
        self.head = 0;
        self.entries.sort_unstable();
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }
}

/// The hierarchical calendar queue (see the module docs).
///
/// Drop-in compatible with [`ReferenceQueue`](crate::ReferenceQueue):
/// both implement [`EventSchedule`] and produce identical event
/// sequences. [`EventQueue`](crate::EventQueue) aliases this type.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// Bucket width is `1 << shift` picoseconds.
    shift: u32,
    /// Tick whose bucket has been drained into `current`; all wheel
    /// cells have a strictly later tick, all `current` cells an equal or
    /// earlier one.
    cursor: u64,
    /// Intrusive list heads, `level * SLOTS + slot`.
    wheels: Vec<u32>,
    /// Cells resident per level (cancelled cells included).
    level_count: [usize; 3],
    /// Events due at or before the cursor tick, in exact `(at, seq)`
    /// order (earliest at the tail).
    current: CurrentBucket,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<HeapEntry>>,
    slab: Vec<Cell<E>>,
    free_head: u32,
    /// Pending, non-cancelled events.
    live: usize,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// Ambient telemetry handle captured at construction; disabled
    /// outside a tracing session, where it costs one branch per
    /// [`Self::TELEMETRY_STRIDE`] operations.
    tracer: Tracer,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Default bucket width: 2^12 ps = 4.096 ns, comparable to the
    /// serialization time of one 64 B frame at 200 Gbps — the event
    /// density the RNIC model generates.
    pub const DEFAULT_BUCKET_SHIFT: u32 = 12;

    /// Creates an empty queue with the default bucket width and the
    /// clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_bucket_shift(Self::DEFAULT_BUCKET_SHIFT)
    }

    /// Creates an empty queue whose buckets span `1 << shift`
    /// picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `shift > 32` (buckets beyond ~4 ms defeat the wheels).
    pub fn with_bucket_shift(shift: u32) -> Self {
        assert!(shift <= 32, "bucket shift {shift} out of range");
        CalendarQueue {
            shift,
            cursor: 0,
            wheels: vec![NIL; 3 * SLOTS],
            level_count: [0; 3],
            current: CurrentBucket::default(),
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free_head: NIL,
            live: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            tracer: ragnar_telemetry::tracer(),
        }
    }

    /// Pops/schedules between queue-depth counter samples (power of
    /// two): dense enough for a depth timeline, sparse enough that the
    /// trace stays a small fraction of the event count.
    pub const TELEMETRY_STRIDE: u64 = 1 << 10;

    /// Emits a `queue_depth` counter sample every
    /// [`Self::TELEMETRY_STRIDE`]-th call when tracing is enabled.
    #[inline]
    fn sample_depth(&self, tick: u64) {
        if tick & (Self::TELEMETRY_STRIDE - 1) == 0 && self.tracer.enabled(Target::SimCore) {
            self.tracer.counter(
                Target::SimCore,
                "queue_depth",
                ActorId::GLOBAL,
                self.now.as_picos(),
                self.live as f64,
            );
        }
    }

    /// The current simulation clock (see [`EventSchedule::now`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
        let slot = self.alloc(at, seq, event);
        self.place(slot, at.as_picos(), seq);
        self.live += 1;
        self.sample_depth(seq);
        EventHandle { seq, slot }
    }

    /// Lazily cancels a pending event (see [`EventSchedule::cancel`]).
    ///
    /// O(1): the cell is emptied in place and reclaimed whenever the
    /// queue next walks over it.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slab.get_mut(handle.slot as usize) {
            Some(cell) if cell.seq == handle.seq && cell.event.is_some() => {
                cell.event = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the earliest pending event, reclaiming cancelled
    /// cells encountered at the head.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            self.refill();
            let entry = self.current.peek()?;
            let slot = entry.slot;
            if self.slab[slot as usize].event.is_some() {
                return Some(self.slab[slot as usize].at);
            }
            self.current.pop();
            self.free(slot);
        }
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

    /// [`pop`](CalendarQueue::pop) with the insertion sequence number
    /// exposed (see [`EventSchedule::pop_with_seq`]).
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let _p = profile::enter(Phase::QueuePop);
        loop {
            self.refill();
            let entry = self.current.pop()?;
            let cell = &mut self.slab[entry.slot as usize];
            debug_assert_eq!(cell.seq, entry.seq, "current entry aliases a recycled cell");
            let Some(event) = cell.event.take() else {
                // Cancelled after entering the current bucket.
                self.free(entry.slot);
                continue;
            };
            let at = cell.at;
            self.free(entry.slot);
            self.live -= 1;
            debug_assert!(at >= self.now, "event queue time went backwards");
            self.now = at;
            self.popped += 1;
            self.sample_depth(self.popped);
            return Some((at, entry.seq, event));
        }
    }

    /// Drops all pending events without touching the clock.
    ///
    /// The seq counter keeps rising across `clear`, so handles issued
    /// before the clear stay stale forever.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free_head = NIL;
        self.wheels.fill(NIL);
        self.level_count = [0; 3];
        self.current.clear();
        self.overflow.clear();
        self.live = 0;
        self.cursor = self.now.as_picos() >> self.shift;
    }

    // ---- slab arena ----

    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let cell = &mut self.slab[slot as usize];
            self.free_head = cell.next;
            cell.at = at;
            cell.seq = seq;
            cell.event = Some(event);
            cell.next = NIL;
            slot
        } else {
            let slot = u32::try_from(self.slab.len()).expect("slab exceeds u32 slots");
            assert!(slot != NIL, "slab full");
            self.slab.push(Cell {
                at,
                seq,
                event: Some(event),
                next: NIL,
            });
            slot
        }
    }

    fn free(&mut self, slot: u32) {
        let cell = &mut self.slab[slot as usize];
        debug_assert!(cell.event.is_none(), "freeing a live cell");
        cell.next = self.free_head;
        self.free_head = slot;
    }

    // ---- wheel plumbing ----

    /// Files a cell by its tick relative to the cursor: due cells go to
    /// the `current` heap, near cells to the finest wheel that can hold
    /// them, far cells to the overflow heap.
    fn place(&mut self, slot: u32, at_ps: u64, seq: u64) {
        let tick = at_ps >> self.shift;
        if tick <= self.cursor {
            self.current.insert(HeapEntry { at_ps, seq, slot });
            return;
        }
        let d = tick - self.cursor;
        let (level, idx) = if d < SLOTS as u64 {
            (0, (tick & SLOT_MASK) as usize)
        } else if d < L1_TICKS {
            (1, ((tick >> 8) & SLOT_MASK) as usize)
        } else if d < HORIZON_TICKS {
            (2, ((tick >> 16) & SLOT_MASK) as usize)
        } else {
            self.overflow.push(Reverse(HeapEntry { at_ps, seq, slot }));
            return;
        };
        let head = level * SLOTS + idx;
        self.slab[slot as usize].next = self.wheels[head];
        self.wheels[head] = slot;
        self.level_count[level] += 1;
    }

    /// Moves the level-0 bucket at `idx` (the cursor's bucket) into the
    /// `current` heap, reclaiming cancelled cells.
    fn drain_l0(&mut self, idx: usize) {
        let mut cur = std::mem::replace(&mut self.wheels[idx], NIL);
        while cur != NIL {
            let next = self.slab[cur as usize].next;
            self.level_count[0] -= 1;
            let cell = &self.slab[cur as usize];
            if cell.event.is_some() {
                debug_assert_eq!(cell.at.as_picos() >> self.shift, self.cursor);
                self.current.append_unsorted(HeapEntry {
                    at_ps: cell.at.as_picos(),
                    seq: cell.seq,
                    slot: cur,
                });
            } else {
                self.free(cur);
            }
            cur = next;
        }
        self.current.resort();
    }

    /// Redistributes one upper-level bucket into the finer wheels (or
    /// `current`), reclaiming cancelled cells.
    fn cascade(&mut self, level: usize, idx: usize) {
        let mut cur = std::mem::replace(&mut self.wheels[level * SLOTS + idx], NIL);
        while cur != NIL {
            let cell = &self.slab[cur as usize];
            let next = cell.next;
            let (at_ps, seq, live) = (cell.at.as_picos(), cell.seq, cell.event.is_some());
            self.level_count[level] -= 1;
            if live {
                self.place(cur, at_ps, seq);
            } else {
                self.free(cur);
            }
            cur = next;
        }
    }

    /// Moves the cursor to tick `w`, cascading the destination window's
    /// upper-level buckets and draining the destination level-0 bucket.
    ///
    /// The caller guarantees no wheel cell lies strictly between the old
    /// cursor and `w` (that is what the refill scans establish), so only
    /// the destination's cascades are due.
    fn advance_to(&mut self, w: u64) {
        debug_assert!(w > self.cursor);
        let cross16 = (w >> 16) != (self.cursor >> 16);
        let cross8 = (w >> 8) != (self.cursor >> 8);
        self.cursor = w;
        if cross16 && self.level_count[2] > 0 {
            self.cascade(2, ((w >> 16) & SLOT_MASK) as usize);
        }
        if cross8 && self.level_count[1] > 0 {
            self.cascade(1, ((w >> 8) & SLOT_MASK) as usize);
        }
        if self.level_count[0] > 0 {
            self.drain_l0((w & SLOT_MASK) as usize);
        }
    }

    /// Advances the cursor until the `current` heap holds the earliest
    /// pending events (or the queue is known empty).
    fn refill(&mut self) {
        loop {
            if !self.current.is_empty() {
                return;
            }
            // Pull overflow cells that have come inside the wheel
            // horizon as the cursor advanced.
            while let Some(&Reverse(top)) = self.overflow.peek() {
                if (top.at_ps >> self.shift).saturating_sub(self.cursor) >= HORIZON_TICKS {
                    break;
                }
                self.overflow.pop();
                if self.slab[top.slot as usize].event.is_some() {
                    self.place(top.slot, top.at_ps, top.seq);
                } else {
                    self.free(top.slot);
                }
            }
            if !self.current.is_empty() {
                return;
            }
            if self.level_count.iter().all(|&c| c == 0) {
                // Wheels empty: re-anchor at the overflow minimum (the
                // next loop iteration transfers it), or report empty.
                match self.overflow.peek() {
                    Some(&Reverse(top)) => self.cursor = top.at_ps >> self.shift,
                    None => return,
                }
                continue;
            }
            // Nearest cell in the rest of the cursor's level-0 window.
            if self.level_count[0] > 0 {
                let base = self.cursor & !SLOT_MASK;
                let from = (self.cursor & SLOT_MASK) + 1;
                if let Some(s) = (from..SLOTS as u64).find(|&s| self.wheels[s as usize] != NIL) {
                    self.cursor = base + s;
                    self.drain_l0(s as usize);
                    continue;
                }
            }
            // Otherwise land on the start of the next window that can
            // hold cells. Level-k cells always sit within the cursor's
            // level-(k+1) window or the one after it (insertion keeps
            // their distance under the level span), so one scan per
            // level suffices.
            let w = if self.level_count[0] > 0 {
                // Level-0 cells wrapped into the next 256-tick window.
                (self.cursor | SLOT_MASK) + 1
            } else if self.level_count[1] > 0 {
                let base = self.cursor & !(L1_TICKS - 1);
                let from = ((self.cursor >> 8) & SLOT_MASK) + 1;
                (from..SLOTS as u64)
                    .find(|&s| self.wheels[SLOTS + s as usize] != NIL)
                    .map_or(base + L1_TICKS, |s| base + (s << 8))
            } else {
                let base = self.cursor & !(HORIZON_TICKS - 1);
                let from = ((self.cursor >> 16) & SLOT_MASK) + 1;
                (from..SLOTS as u64)
                    .find(|&s| self.wheels[2 * SLOTS + s as usize] != NIL)
                    .map_or(base + HORIZON_TICKS, |s| base + (s << 16))
            };
            self.advance_to(w);
        }
    }
}

impl<E> EventSchedule<E> for CalendarQueue<E> {
    fn now(&self) -> SimTime {
        CalendarQueue::now(self)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    fn events_processed(&self) -> u64 {
        CalendarQueue::events_processed(self)
    }
    fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        CalendarQueue::schedule(self, at, event)
    }
    fn cancel(&mut self, handle: EventHandle) -> bool {
        CalendarQueue::cancel(self, handle)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::pop(self)
    }
    fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        CalendarQueue::pop_with_seq(self)
    }
    fn clear(&mut self) {
        CalendarQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = CalendarQueue::new();
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
    fn clear_keeps_clock_and_reuses_slab() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_nanos(4), ());
        q.pop();
        q.schedule(SimTime::from_nanos(8), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(4));
        q.schedule(SimTime::from_nanos(6), ());
        assert_eq!(q.pop(), Some((SimTime::from_nanos(6), ())));
    }

    #[test]
    fn cancel_semantics() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 'a');
        let b = q.schedule(SimTime::from_nanos(2), 'b');
        q.schedule(SimTime::from_nanos(3), 'c');
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel is stale");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 'a')));
        assert!(!q.cancel(a), "fired handle is stale");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 'c')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.events_processed(), 2, "cancelled events never fire");
    }

    #[test]
    fn recycled_slot_does_not_alias_old_handle() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), 1u32);
        q.pop();
        // The freed cell is recycled for a new event; the old handle
        // must stay stale.
        let b = q.schedule(SimTime::from_nanos(2), 2u32);
        assert_eq!(a.slot, b.slot, "slab should reuse the freed slot");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
    }

    #[test]
    fn spans_wheel_levels_and_overflow() {
        // One event per decade of distance: same bucket, level 0, 1, 2,
        // and the overflow heap (bucket = 4.096 ns; overflow beyond
        // ~68.7 ms).
        let mut q = CalendarQueue::new();
        let times: Vec<SimTime> = [
            1u64 << 10,
            1 << 14,
            1 << 22,
            1 << 30,
            1 << 38,
            1 << 44,
            1 << 46,
        ]
        .iter()
        .map(|&ps| SimTime::from_picos(ps))
        .collect();
        // Schedule in reverse to exercise every placement path.
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn dense_same_bucket_collisions_stay_fifo() {
        let mut q = CalendarQueue::new();
        // Many events inside one bucket, some at identical picoseconds.
        for i in 0..500u64 {
            q.schedule(SimTime::from_picos(4096 + (i % 7)), i);
        }
        let mut out = Vec::new();
        while let Some((at, i)) = q.pop() {
            out.push((at, i));
        }
        let mut expect: Vec<(SimTime, u64)> = (0..500u64)
            .map(|i| (SimTime::from_picos(4096 + (i % 7)), i))
            .collect();
        expect.sort_by_key(|&(at, i)| (at, i));
        assert_eq!(out, expect);
    }

    #[test]
    fn interleaved_schedule_pop_across_rollover() {
        // Pops interleaved with schedules that keep landing just past
        // the level-0 window, forcing repeated wraps and cascades.
        let mut q = CalendarQueue::new();
        let mut t = 0u64;
        q.schedule(SimTime::from_picos(t), 0u64);
        let mut popped = 0u64;
        for i in 1..=2000u64 {
            let (at, _) = q.pop().expect("event pending");
            popped += 1;
            t = at.as_picos() + (1 << 12) * 300 + i % 13;
            q.schedule(SimTime::from_picos(t), i);
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 2001);
    }
}
