//! Engine self-profiler: scoped wall-clock timers attributing run time
//! to engine **phases** (queue pop, app execute, PDES OutEntry cooking,
//! merge-heap drain, worker idle, arena alloc/free, chaos injection,
//! telemetry flush).
//!
//! # Zero overhead when disabled
//!
//! The profiler is gated by one process-wide `AtomicBool` read with
//! `Relaxed` ordering. When disabled, [`enter`] is a single load + branch
//! returning an inert guard — no clock read, no thread-local access, no
//! allocation — so instrumented hot loops cost one predictable branch
//! (the `nic_storm` workload of the `perf` benchmark, named in
//! `BENCHMARK.json`, times that instrumented loop with the profiler
//! off). When enabled, spans read raw TSC ticks (`rdtsc`
//! on x86_64) instead of `clock_gettime`, and tick→ns conversion is
//! deferred to [`snapshot`], keeping the armed cost per span to roughly
//! two counter reads.
//!
//! # Determinism
//!
//! Profile data is **wall-clock** and therefore never allowed anywhere
//! near artifacts, digests, or cache keys: it is aggregated out-of-band
//! in per-thread slots and only ever surfaces in `report.json` /
//! `report.md` timing sections, which the `bench-diff` gate explicitly
//! skips. The `--profile` flag parses into its own CLI field (never
//! `extras`), so it is excluded from cache keys by construction.
//!
//! # Threading
//!
//! Each thread accumulates into its own lock-free slot array
//! (registered once, on first use, into a global registry), so PDES
//! worker threads profile without contending with the coordinator.
//! [`snapshot`] folds all threads' slots into one [`ProfileReport`].
//! Nested spans are **inclusive**: a `QueuePop` span opened inside an
//! `Execute` span bills both phases for the overlap.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// --- timestamp source ---------------------------------------------------
//
// Spans on the hottest paths (queue pop, arena alloc) wrap operations of
// a few nanoseconds, so the clock read *is* the profiler's enabled-mode
// overhead. On x86_64 a span costs two `rdtsc` reads (~5 ns each)
// accumulating raw ticks; ticks are converted to nanoseconds once, at
// `snapshot()`, using a wall-clock anchor taken when the profiler was
// armed — the longer the run, the more accurate the ratio. Other
// architectures fall back to `Instant` against a process epoch (ticks
// are already nanoseconds and the anchor ratio self-calibrates to ~1).

#[cfg(target_arch = "x86_64")]
#[inline]
fn tick_now() -> u64 {
    // SAFETY: `rdtsc` reads the timestamp counter; no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn tick_now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// `(wall-clock, tick)` pair captured when the profiler was last armed
/// or reset; `snapshot` derives the ns-per-tick ratio from it.
static ANCHOR: Mutex<Option<(Instant, u64)>> = Mutex::new(None);

fn set_anchor() {
    let mut anchor = ANCHOR.lock().unwrap_or_else(|p| p.into_inner());
    *anchor = Some((Instant::now(), tick_now()));
}

/// Nanoseconds per tick, measured across the whole armed window.
fn ns_per_tick() -> f64 {
    let anchor = ANCHOR.lock().unwrap_or_else(|p| p.into_inner());
    let Some((wall0, tick0)) = *anchor else {
        return 1.0;
    };
    let ticks = tick_now().wrapping_sub(tick0);
    if ticks == 0 {
        return 1.0;
    }
    let ns = wall0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    ns as f64 / ticks as f64
}

/// An engine phase wall-clock is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Event-queue inserts (`schedule`) on either backend.
    QueueSchedule = 0,
    /// Event-queue pops (`pop_before` / `pop_with_seq_before`).
    QueuePop = 1,
    /// Application/NIC event execution (the simulation's real work).
    Execute = 2,
    /// PDES worker-side OutEntry cooking (`process_group`).
    OutCook = 3,
    /// PDES coordinator merge-heap drain (ordered replay of worker
    /// output streams).
    MergeDrain = 4,
    /// PDES worker threads blocked waiting for the next job (barrier /
    /// idle time).
    WorkerIdle = 5,
    /// Packet-arena allocations (`insert`).
    ArenaAlloc = 6,
    /// Packet-arena frees (`take` / `free`).
    ArenaFree = 7,
    /// Chaos fault-injection verdicts on the wire hop.
    Chaos = 8,
    /// Telemetry session finish / trace serialization / report writing.
    Flush = 9,
}

impl Phase {
    /// Every phase, in stable order.
    pub const ALL: [Phase; 10] = [
        Phase::QueueSchedule,
        Phase::QueuePop,
        Phase::Execute,
        Phase::OutCook,
        Phase::MergeDrain,
        Phase::WorkerIdle,
        Phase::ArenaAlloc,
        Phase::ArenaFree,
        Phase::Chaos,
        Phase::Flush,
    ];

    /// The phase's canonical snake_case name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueueSchedule => "queue_schedule",
            Phase::QueuePop => "queue_pop",
            Phase::Execute => "execute",
            Phase::OutCook => "out_cook",
            Phase::MergeDrain => "merge_drain",
            Phase::WorkerIdle => "worker_idle",
            Phase::ArenaAlloc => "arena_alloc",
            Phase::ArenaFree => "arena_free",
            Phase::Chaos => "chaos",
            Phase::Flush => "flush",
        }
    }
}

const PHASES: usize = Phase::ALL.len();

/// One phase's per-thread accumulator, packed so a span update touches
/// one cache line.
#[derive(Default)]
struct PhaseSlot {
    ticks: AtomicU64,
    calls: AtomicU64,
}

/// Per-thread accumulation slots. Only the owning thread writes — and
/// because writes are single-owner, they are plain `Relaxed` load+store
/// pairs, not RMWs; `snapshot` reads from any thread and may observe a
/// span's tick/call update half-applied, which a profiler tolerates.
struct ThreadSlots {
    slots: [PhaseSlot; PHASES],
}

impl ThreadSlots {
    fn new() -> Self {
        ThreadSlots {
            slots: std::array::from_fn(|_| PhaseSlot::default()),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlots>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlots>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadSlots> = {
        let slots = Arc::new(ThreadSlots::new());
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.push(Arc::clone(&slots));
        slots
    };
}

/// Turns the profiler on or off process-wide. The harness flips this
/// from `--profile`; it is never derived from anything that enters a
/// cache key.
pub fn set_enabled(enabled: bool) {
    if enabled {
        set_anchor();
    }
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the profiler is currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every thread's accumulated phase totals (the threads
/// themselves stay registered).
pub fn reset() {
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    for slots in reg.iter() {
        for slot in &slots.slots {
            slot.ticks.store(0, Ordering::Relaxed);
            slot.calls.store(0, Ordering::Relaxed);
        }
    }
    set_anchor();
}

/// An in-flight scoped phase timer. Billing happens on drop.
pub struct SpanGuard {
    // `None` when the profiler is disabled: the drop is then a no-op
    // and `enter` never touched the clock.
    armed: Option<(Phase, u64)>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((phase, start)) = self.armed.take() {
            let ticks = tick_now().wrapping_sub(start);
            LOCAL.with(|slots| {
                let slot = &slots.slots[phase as usize];
                let t = slot.ticks.load(Ordering::Relaxed);
                slot.ticks.store(t.wrapping_add(ticks), Ordering::Relaxed);
                let c = slot.calls.load(Ordering::Relaxed);
                slot.calls.store(c + 1, Ordering::Relaxed);
            });
        }
    }
}

/// Opens a scoped timer billing wall-clock to `phase` until the guard
/// drops. When the profiler is disabled this is one atomic load and a
/// branch — the returned guard is inert.
#[inline]
pub fn enter(phase: Phase) -> SpanGuard {
    if ENABLED.load(Ordering::Relaxed) {
        SpanGuard {
            armed: Some((phase, tick_now())),
        }
    } else {
        SpanGuard { armed: None }
    }
}

/// One phase's aggregated totals across all threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotal {
    /// Total wall-clock nanoseconds billed to the phase.
    pub ns: u64,
    /// Number of spans recorded.
    pub calls: u64,
}

/// Aggregated profile across every thread that ever recorded a span.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Per-phase totals indexed by [`Phase::ALL`] order.
    pub phases: Vec<(Phase, PhaseTotal)>,
}

impl ProfileReport {
    /// Total nanoseconds across every phase (phases overlap when
    /// nested, so this can exceed elapsed wall-clock).
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.ns).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|(_, t)| t.calls == 0)
    }

    /// Renders the report as a JSON object mapping phase name to
    /// `{"ns": .., "calls": ..}` — the `report.json` "profile" section.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (phase, t)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"ns\":{},\"calls\":{}}}",
                phase.name(),
                t.ns,
                t.calls
            ));
        }
        out.push('}');
        out
    }
}

/// Folds every registered thread's slots into one report, in
/// [`Phase::ALL`] order. Phases with zero calls are included (stable
/// shape for report consumers).
pub fn snapshot() -> ProfileReport {
    let ratio = ns_per_tick();
    let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    let phases = Phase::ALL
        .iter()
        .map(|&phase| {
            let mut total = PhaseTotal::default();
            let mut ticks = 0u64;
            for slots in reg.iter() {
                let slot = &slots.slots[phase as usize];
                ticks = ticks.saturating_add(slot.ticks.load(Ordering::Relaxed));
                total.calls += slot.calls.load(Ordering::Relaxed);
            }
            total.ns = (ticks as f64 * ratio) as u64;
            (phase, total)
        })
        .collect();
    ProfileReport { phases }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global state; tests that flip it must not
    // interleave. Serialize through one mutex.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _span = enter(Phase::Execute);
            std::hint::black_box(1 + 1);
        }
        let report = snapshot();
        assert!(report.is_empty(), "disabled profiler must record nothing");
    }

    #[test]
    fn enabled_guard_bills_the_right_phase() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _span = enter(Phase::QueuePop);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _outer = enter(Phase::Execute);
            let _inner = enter(Phase::ArenaAlloc);
        }
        set_enabled(false);
        let report = snapshot();
        let get = |p: Phase| {
            report
                .phases
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, t)| *t)
                .expect("phase present")
        };
        assert_eq!(get(Phase::QueuePop).calls, 1);
        assert!(get(Phase::QueuePop).ns >= 1_000_000, "sleep must be billed");
        assert_eq!(get(Phase::Execute).calls, 1);
        assert_eq!(get(Phase::ArenaAlloc).calls, 1);
        assert_eq!(get(Phase::Chaos).calls, 0);
        assert!(!report.is_empty());
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn worker_threads_fold_into_one_snapshot() {
        let _g = lock();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _span = enter(Phase::WorkerIdle);
                });
            }
        });
        set_enabled(false);
        let report = snapshot();
        let idle = report
            .phases
            .iter()
            .find(|(p, _)| *p == Phase::WorkerIdle)
            .map(|(_, t)| *t)
            .expect("phase present");
        assert_eq!(idle.calls, 4);
        reset();
    }

    #[test]
    fn report_json_shape() {
        let report = ProfileReport {
            phases: vec![(Phase::Execute, PhaseTotal { ns: 5, calls: 2 })],
        };
        assert_eq!(report.to_json(), "{\"execute\":{\"ns\":5,\"calls\":2}}");
        assert_eq!(report.total_ns(), 5);
    }

    #[test]
    fn phase_names_are_stable() {
        for p in Phase::ALL {
            assert!(!p.name().is_empty());
            assert_eq!(p.name(), Phase::ALL[p as usize].name());
        }
    }
}
