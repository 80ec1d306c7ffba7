//! Differential tests: `CalendarQueue` against the `ReferenceQueue`
//! ordering oracle.
//!
//! Arbitrary interleaved schedule/pop/cancel/pop_before programs are run
//! against both backends in lock-step; every observable — popped
//! `(time, event)` pairs, cancel outcomes, peeked timestamps, lengths,
//! clocks — must be identical. This is the proof obligation behind
//! swapping the default [`sim_core::EventQueue`] alias to the calendar
//! backend: artifact digests downstream are bit-stable only if the two
//! queues are observationally equivalent.

use proptest::prelude::*;
use sim_core::{CalendarQueue, EventHandle, ReferenceQueue, SimTime};

/// Bucket width of the default calendar configuration, in picoseconds.
const BUCKET_PS: u64 = 1 << CalendarQueue::<()>::DEFAULT_BUCKET_SHIFT;

/// Shapes a raw u64 into a schedule offset that exercises every
/// placement path: same-instant collisions, same-bucket collisions,
/// level-0/1/2 wheel distances, bucket/window rollover boundaries, and
/// the overflow heap.
fn shape_offset(raw: u64) -> u64 {
    let class = raw % 8;
    let jitter = (raw >> 3) % BUCKET_PS;
    match class {
        0 => 0,                                              // same instant
        1 => jitter,                                         // same or adjacent bucket
        2 => BUCKET_PS * (1 + (raw >> 3) % 255),             // level 0
        3 => BUCKET_PS * 256 * (1 + (raw >> 3) % 255),       // level 1
        4 => BUCKET_PS * (1 << 16) * (1 + (raw >> 3) % 255), // level 2
        5 => BUCKET_PS * (1 << 24) + jitter,                 // just past the horizon → overflow
        // Exact rollover boundaries: one tick / one window / one round.
        6 => [
            BUCKET_PS,
            BUCKET_PS * 256,
            BUCKET_PS * (1 << 16),
            BUCKET_PS * (1 << 24),
        ][((raw >> 3) % 4) as usize],
        _ => (raw >> 3) % (BUCKET_PS * (1 << 25)), // anywhere, incl. far overflow
    }
}

/// Runs one interleaved program against both backends, asserting
/// lock-step equivalence of every observable.
fn run_program(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut refq: ReferenceQueue<u64> = ReferenceQueue::new();
    let mut handles: Vec<(EventHandle, EventHandle)> = Vec::new();
    let mut next_id = 0u64;

    for &(op, raw) in ops {
        match op % 6 {
            // Schedule (twice as likely as each other op).
            0 | 1 => {
                let at = SimTime::from_picos(cal.now().as_picos() + shape_offset(raw));
                let hc = cal.schedule(at, next_id);
                let hr = refq.schedule(at, next_id);
                handles.push((hc, hr));
                next_id += 1;
            }
            // Pop.
            2 => {
                prop_assert_eq!(cal.pop(), refq.pop());
            }
            // Cancel a pseudo-randomly chosen previously issued handle
            // (possibly already fired or already cancelled — outcomes
            // must still agree).
            3 => {
                if !handles.is_empty() {
                    let (hc, hr) = handles[(raw as usize) % handles.len()];
                    prop_assert_eq!(cal.cancel(hc), refq.cancel(hr));
                }
            }
            // Pop with a deadline.
            4 => {
                let deadline = SimTime::from_picos(cal.now().as_picos() + shape_offset(raw));
                prop_assert_eq!(cal.pop_before(deadline), refq.pop_before(deadline));
            }
            // Peek.
            _ => {
                prop_assert_eq!(cal.peek_time(), refq.peek_time());
            }
        }
        prop_assert_eq!(cal.len(), refq.len());
        prop_assert_eq!(cal.now(), refq.now());
    }

    // Drain both queues fully; the tails must match element-for-element.
    loop {
        let (a, b) = (cal.pop(), refq.pop());
        prop_assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    prop_assert_eq!(cal.events_processed(), refq.events_processed());
    Ok(())
}

proptest! {
    /// Arbitrary interleaved schedule/pop/cancel/pop_before programs
    /// produce identical event sequences from both backends.
    #[test]
    fn calendar_matches_reference_on_arbitrary_programs(
        ops in prop::collection::vec((0u8..=255, 0u64..=u64::MAX), 1..400)
    ) {
        run_program(&ops)?;
    }

    /// Mass same-timestamp collisions: hundreds of events at identical
    /// instants interleaved with pops and cancels stay FIFO on both
    /// backends.
    #[test]
    fn calendar_matches_reference_on_mass_collisions(
        ops in prop::collection::vec((0u8..=255, 0u64..=u64::MAX), 1..300)
    ) {
        // Restrict offsets to classes 0/1 (same instant / same bucket)
        // by collapsing the raw value's class selector.
        let collided: Vec<(u8, u64)> =
            ops.iter().map(|&(op, raw)| (op, (raw & !7) | (raw % 2))).collect();
        run_program(&collided)?;
    }

    /// Bucket-rollover boundaries: offsets pinned to exact tick, window,
    /// and round edges, where cascade bookkeeping is most delicate.
    #[test]
    fn calendar_matches_reference_on_rollover_boundaries(
        ops in prop::collection::vec((0u8..=255, 0u64..=u64::MAX), 1..300)
    ) {
        let edges: Vec<(u8, u64)> =
            ops.iter().map(|&(op, raw)| (op, (raw & !7) | 6)).collect();
        run_program(&edges)?;
    }
}

/// Deterministic rollover torture: schedule–pop cycles that repeatedly
/// cross level-0 windows, level-1 windows, and the wheel horizon, with
/// cancellations of both pending and fired events.
#[test]
fn deterministic_rollover_and_cancel_torture() {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut refq: ReferenceQueue<u64> = ReferenceQueue::new();
    let mut handles = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64; // deterministic LCG-ish stream
    for round in 0..5_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let off = shape_offset(x);
        let at = SimTime::from_picos(cal.now().as_picos() + off);
        handles.push((cal.schedule(at, round), refq.schedule(at, round)));
        if round % 3 == 0 {
            assert_eq!(cal.pop(), refq.pop(), "round {round}");
        }
        if round % 7 == 0 && !handles.is_empty() {
            let (hc, hr) = handles[(x as usize) % handles.len()];
            assert_eq!(cal.cancel(hc), refq.cancel(hr), "round {round}");
        }
        assert_eq!(cal.len(), refq.len(), "round {round}");
    }
    loop {
        let (a, b) = (cal.pop(), refq.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// A deadline stop moves the calendar's cursor to the next pending
/// event without moving the clock; a closed loop of about 1,000 events
/// below that cursor must then pop in the reference order. Repeated
/// over several stops, each followed by cancels of pending events.
#[test]
fn schedules_below_a_stopped_cursor_match_reference() {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut refq: ReferenceQueue<u64> = ReferenceQueue::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut id = 0u64;
    for stop in 0..4u64 {
        let base = cal.now().as_picos();
        // The far event sits in level 1, level 2 or the overflow heap.
        let far = SimTime::from_picos(base + (BUCKET_PS << (10 + 7 * (stop % 3))));
        cal.schedule(far, id);
        refq.schedule(far, id);
        id += 1;
        let deadline = SimTime::from_picos(base + BUCKET_PS * 100);
        assert_eq!(cal.pop_before(deadline), refq.pop_before(deadline));
        let mut handles = Vec::new();
        for i in 0..1_000u64 {
            let at = SimTime::from_picos(cal.now().as_picos() + rand() % (BUCKET_PS * 300));
            handles.push((cal.schedule(at, id), refq.schedule(at, id)));
            id += 1;
            if i % 4 == 3 {
                assert_eq!(
                    cal.pop_before(far),
                    refq.pop_before(far),
                    "stop {stop} pop {i}"
                );
            }
            if i % 11 == 0 {
                let (hc, hr) = handles[rand() as usize % handles.len()];
                assert_eq!(cal.cancel(hc), refq.cancel(hr), "stop {stop} cancel {i}");
            }
            assert_eq!(cal.len(), refq.len());
        }
        // Drain everything below the far event, then leave it pending
        // for the next stop's deadline to peek again.
        loop {
            let (a, b) = (cal.pop_before(far), refq.pop_before(far));
            assert_eq!(a, b, "stop {stop} drain");
            if a.is_none() || cal.peek_time() == Some(far) {
                break;
            }
        }
    }
    loop {
        let (a, b) = (cal.pop(), refq.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert_eq!(cal.events_processed(), refq.events_processed());
}

/// `clear` resets both backends to an equivalent state and stale
/// handles remain stale on both.
#[test]
fn clear_equivalence() {
    let mut cal: CalendarQueue<u32> = CalendarQueue::new();
    let mut refq: ReferenceQueue<u32> = ReferenceQueue::new();
    let hc = cal.schedule(SimTime::from_nanos(10), 1);
    let hr = refq.schedule(SimTime::from_nanos(10), 1);
    cal.schedule(SimTime::from_nanos(20), 2);
    refq.schedule(SimTime::from_nanos(20), 2);
    cal.pop();
    refq.pop();
    cal.clear();
    refq.clear();
    assert_eq!(cal.len(), refq.len());
    assert_eq!(cal.now(), refq.now());
    assert_eq!(cal.cancel(hc), refq.cancel(hr), "stale after clear");
    let at = SimTime::from_nanos(15);
    cal.schedule(at, 3);
    refq.schedule(at, 3);
    assert_eq!(cal.pop(), refq.pop());
    assert_eq!(cal.pop(), refq.pop());
}
