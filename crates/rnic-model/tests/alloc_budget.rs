//! Allocation budget of one NIC: a host that never looks up an MR must
//! not pay for the MPT cache.
//!
//! This file is its own test binary so the counting global allocator
//! sees only this crate's work. The counters are per thread, so tests
//! running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rnic_model::{DeviceProfile, HostId, Rnic};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + bytes));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's guarantees are passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's guarantees are passed on to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: the caller's guarantees are passed on to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's guarantees are passed on to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made and heap bytes left live by `f` on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

fn profiles() -> [(&'static str, DeviceProfile); 3] {
    [
        ("CX-4", DeviceProfile::connectx4()),
        ("CX-5", DeviceProfile::connectx5()),
        ("CX-6", DeviceProfile::connectx6()),
    ]
}

#[test]
fn new_nic_stays_within_budget() {
    for (name, profile) in profiles() {
        let (nic, allocs, live) = measure(|| Rnic::new(HostId(3), profile, 1));
        assert!(allocs <= 8, "{name}: Rnic::new made {allocs} allocations");
        assert!(live <= 4096, "{name}: Rnic::new left {live} B live");
        drop(nic);
    }
}

#[test]
fn first_mpt_access_allocates_once() {
    for (name, profile) in profiles() {
        let nic = Rnic::new(HostId(3), profile, 1);
        let mut cache = nic.tpu().mpt_cache().clone();
        let (hit, allocs, _) = measure(|| cache.access(7));
        assert!(!hit, "{name}: a fresh cache cannot hit");
        assert_eq!(allocs, 1, "{name}: first access made {allocs} allocations");
        let (_, allocs, _) = measure(|| cache.access(8));
        assert_eq!(allocs, 0, "{name}: later accesses must not allocate");
    }
}
