//! Online invariant monitors: a clean run under monitors is
//! bit-identical to an unmonitored run (and never raises), while a
//! planted ledger/state bug is caught and handled per the configured
//! violation policy.

use ragnar_telemetry::{Installed, MonitorConfig, RunCtx, ViolationPolicy};
use rdma_verbs::{
    AccessFlags, App, ConnectOptions, Ctx, DeviceProfile, HostId, MrHandle, QpHandle, QpNum,
    Simulation, WorkRequest,
};
use sim_core::{SimDuration, SimTime};

/// Installs a run context carrying `monitors` on this thread. Contexts
/// are thread-local, so the tests run in parallel with no lock.
fn monitored(monitors: Option<MonitorConfig>) -> Installed {
    RunCtx {
        monitors,
        ..RunCtx::default()
    }
    .install()
}

fn cfg(policy: ViolationPolicy, every_events: u64) -> MonitorConfig {
    MonitorConfig {
        policy,
        every_events,
    }
}

/// Small two-host writer: a handful of timed write bursts.
struct Writer {
    qp: QpHandle,
    mr: MrHandle,
    rounds: u32,
}

impl App for Writer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_nanos(100), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let wr_id = u64::from(self.rounds);
        let _ = ctx.post_send(
            self.qp,
            WorkRequest::write(wr_id, 0x10_0000, self.mr.addr(0), self.mr.key, 256),
        );
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.set_timer(SimDuration::from_nanos(800), 0);
        }
    }
}

fn build(seed: u64) -> (Simulation, HostId, QpNum) {
    let mut sim = Simulation::new(seed);
    let a = sim.add_host(DeviceProfile::connectx5());
    let b = sim.add_host(DeviceProfile::connectx5());
    let pd_a = sim.alloc_pd(a);
    let pd_b = sim.alloc_pd(b);
    let mr_b = sim.register_mr(b, pd_b, 1024 * 1024, AccessFlags::remote_all());
    let (qa, _qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
    let app = sim.add_app(Box::new(Writer {
        qp: qa,
        mr: mr_b,
        rounds: 12,
    }));
    sim.own_qp(app, qa);
    (sim, a, qa.qp)
}

/// A clean workload under the strictest policy: no violation fires at
/// any cadence, and the monitored digests match the unmonitored run
/// exactly (monitors observe, never perturb).
#[test]
fn clean_run_under_monitors_is_silent_and_bit_identical() {
    let horizon = SimTime::from_micros(200);
    let baseline = {
        let (mut sim, _, _) = build(5);
        sim.run_until(horizon);
        (sim.events_processed(), sim.order_digest())
    };
    for every in [1u64, 7, 1024] {
        let _guard = monitored(Some(cfg(ViolationPolicy::AbortRun, every)));
        let (mut sim, _, _) = build(5);
        sim.run_until(horizon);
        assert_eq!(
            (sim.events_processed(), sim.order_digest()),
            baseline,
            "monitors perturbed the run at cadence {every}"
        );
        assert_eq!(sim.monitor_violations(), Some(0));
    }
}

/// Under the `Log` policy a planted arena-ledger skew is counted (once
/// per cadence check) and the run completes.
#[test]
fn planted_arena_skew_is_logged() {
    let _guard = monitored(Some(cfg(ViolationPolicy::Log, 8)));
    let (mut sim, _, _) = build(11);
    sim.debug_skew_arena_ledger();
    sim.run_until(SimTime::from_micros(200));
    assert!(
        sim.monitor_violations().unwrap() > 0,
        "ledger skew went unnoticed"
    );
}

/// Under `FailCell` the same skew panics with the `[monitor]` prefix
/// the harness maps to a per-cell failure.
#[test]
fn planted_arena_skew_fails_the_cell() {
    let _guard = monitored(Some(cfg(ViolationPolicy::FailCell, 8)));
    let (mut sim, _, _) = build(13);
    sim.debug_skew_arena_ledger();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until(SimTime::from_micros(200));
    }))
    .expect_err("monitor should have tripped");
    let msg = sim_core::panic_payload_message(err.as_ref());
    assert!(msg.starts_with("[monitor] "), "got: {msg}");
    assert!(msg.contains("arena ledger skew"), "got: {msg}");
}

/// Under `AbortRun` a phantom fabric delivery panics with the
/// `[monitor-abort]` prefix the harness maps to a whole-sweep abort.
#[test]
fn planted_fabric_skew_aborts_the_run() {
    let _guard = monitored(Some(cfg(ViolationPolicy::AbortRun, 4)));
    let (mut sim, _, _) = build(17);
    sim.debug_skew_fabric_ledger();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until(SimTime::from_micros(200));
    }))
    .expect_err("monitor should have tripped");
    let msg = sim_core::panic_payload_message(err.as_ref());
    assert!(msg.starts_with("[monitor-abort] "), "got: {msg}");
    assert!(msg.contains("packet conservation"), "got: {msg}");
}

/// An illegal QP state (outstanding past its bound) is caught by the
/// QP-legality monitor.
#[test]
fn planted_illegal_qp_state_is_caught() {
    let _guard = monitored(Some(cfg(ViolationPolicy::Log, 4)));
    let (mut sim, host, qp) = build(19);
    sim.run_until(SimTime::from_micros(5));
    sim.debug_skew_qp(host, qp);
    sim.run_until(SimTime::from_micros(200));
    assert!(
        sim.monitor_violations().unwrap() > 0,
        "illegal QP state went unnoticed"
    );
}

/// Without a monitor config in the run context there is no monitor
/// state at all.
#[test]
fn no_monitors_without_ambient_config() {
    let (mut sim, _, _) = build(23);
    sim.run_until(SimTime::from_micros(50));
    assert_eq!(sim.monitor_violations(), None);
}

/// A run context stays on its thread: two simulations built at the same
/// time, one under `FailCell` monitors with a planted fabric skew, one
/// with no context. Only the first trips; the second has no monitor
/// state and runs clean.
#[test]
fn contexts_do_not_leak_across_threads() {
    let built = std::sync::Barrier::new(2);
    let horizon = SimTime::from_micros(200);
    std::thread::scope(|s| {
        let monitored_run = s.spawn(|| {
            let _ctx = monitored(Some(cfg(ViolationPolicy::FailCell, 4)));
            let (mut sim, _, _) = build(29);
            built.wait();
            sim.debug_skew_fabric_ledger();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_until(horizon);
            }))
            .expect_err("monitor should have tripped");
            sim_core::panic_payload_message(err.as_ref())
        });
        let bare_run = s.spawn(|| {
            let (mut sim, _, _) = build(29);
            built.wait();
            assert_eq!(sim.monitor_violations(), None, "monitors leaked in");
            sim.run_until(horizon);
            sim.events_processed()
        });
        let msg = monitored_run.join().expect("monitored thread");
        assert!(msg.starts_with("[monitor] "), "got: {msg}");
        assert!(msg.contains("packet conservation"), "got: {msg}");
        assert!(bare_run.join().expect("bare thread") > 0);
    });
}
