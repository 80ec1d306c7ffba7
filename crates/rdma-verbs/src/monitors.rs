//! Online invariant monitors — continuous cross-checks of the fabric's
//! structural invariants *during* a run, not just at quiescence.
//!
//! The chaos oracles ([`ragnar_chaos::FabricStats::conserved`], the WR
//! ledger) validate end states; a corrupted intermediate state that
//! happens to re-balance by the end slips past them. Monitors close that
//! gap: configured by the [`RunCtx`](ragnar_telemetry::RunCtx) a
//! simulation is built under (the harness `--monitors` flag fills it in
//! for every cell), they ride the sequential event loop and evaluate
//!
//! * **time monotonicity** — event timestamps never move backwards
//!   (checked on every event; one comparison),
//! * **arena ledger** — the packet arena's alloc/free ledger agrees with
//!   a direct count of occupied slots ([`PacketArena::occupied_slots`]),
//! * **packet conservation** — the fabric ledger never has more packets
//!   leaving than entering (`delivered + dropped + icrc <= sent + dups`),
//! * **QP-state legality** — every QP satisfies
//!   [`Rnic::check_qp_invariants`] (outstanding within bounds, queues
//!   consistent),
//!
//! the last three on a configurable event cadence
//! ([`ragnar_telemetry::MonitorConfig::every_events`]) because they are
//! O(capacity)/O(QPs), not O(1).
//!
//! Violations follow the configured [`ragnar_telemetry::ViolationPolicy`]:
//! `Log` counts them (and bumps a `monitor.violations` telemetry
//! counter), `FailCell` panics with a `[monitor]` prefix so the harness
//! fails the one cell, `AbortRun` panics with a
//! `[monitor-abort]` prefix the harness recognizes as "stop the whole
//! sweep — the simulator itself is broken".

use ragnar_chaos::FabricStats;
use ragnar_telemetry::{Metrics, MonitorConfig, ViolationPolicy};
use rnic_model::{PacketArena, Rnic};
use sim_core::SimTime;

/// Live state of the online monitors for one simulation.
#[derive(Debug, Clone)]
pub(crate) struct MonitorState {
    cfg: MonitorConfig,
    /// Events observed since the last cadence check.
    since_check: u64,
    /// Timestamp of the previous event (monotonicity check).
    last_at: SimTime,
    /// Violations observed (only reachable under `ViolationPolicy::Log`;
    /// the other policies panic on the first).
    violations: u64,
}

impl MonitorState {
    pub(crate) fn new(cfg: MonitorConfig) -> MonitorState {
        MonitorState {
            cfg,
            since_check: 0,
            last_at: SimTime::ZERO,
            violations: 0,
        }
    }

    /// Violations observed so far (non-zero only under the `Log` policy).
    pub(crate) fn violations(&self) -> u64 {
        self.violations
    }

    /// Per-event hook: monotonicity check plus cadence bookkeeping.
    /// Returns `true` when the caller should run the (costlier) state
    /// checks via [`MonitorState::check_state`].
    pub(crate) fn observe_event(&mut self, at: SimTime, metrics: &Metrics) {
        if at < self.last_at {
            self.raise(
                metrics,
                &format!(
                    "time ran backwards: event at {:?} after {:?}",
                    at, self.last_at
                ),
            );
        }
        self.last_at = at;
        self.since_check += 1;
    }

    /// Whether the cadence has elapsed since the last state check.
    pub(crate) fn cadence_due(&self) -> bool {
        self.since_check >= self.cfg.every_events.max(1)
    }

    /// The O(state) checks, run on cadence: arena ledger vs. slab
    /// occupancy, fabric packet conservation, QP-state legality.
    pub(crate) fn check_state(
        &mut self,
        arena: &PacketArena,
        fabric: &FabricStats,
        nics: &[Rnic],
        metrics: &Metrics,
    ) {
        self.since_check = 0;
        let ledger = arena.live();
        let occupied = arena.occupied_slots();
        if ledger != occupied {
            self.raise(
                metrics,
                &format!(
                    "arena ledger skew: stats say {ledger} live but {occupied} slots occupied"
                ),
            );
        }
        // Mid-run the ledger is allowed to be unbalanced (packets are in
        // flight) but never negative: more packets cannot leave the
        // fabric than entered it.
        let entered = fabric.sent + fabric.duplicates;
        let left = fabric.delivered + fabric.dropped + fabric.icrc_dropped;
        if left > entered {
            self.raise(
                metrics,
                &format!(
                    "packet conservation broken: {left} packets left the fabric, {entered} entered"
                ),
            );
        }
        for nic in nics {
            if let Some(msg) = nic.check_qp_invariants() {
                self.raise(
                    metrics,
                    &format!("illegal QP state on host {}: {msg}", nic.host().0),
                );
            }
        }
    }

    fn raise(&mut self, metrics: &Metrics, msg: &str) {
        match self.cfg.policy {
            ViolationPolicy::Log => {
                self.violations += 1;
                metrics.counter_add("monitor.violations", 1);
            }
            ViolationPolicy::FailCell => panic!("[monitor] {msg}"),
            ViolationPolicy::AbortRun => panic!("[monitor-abort] {msg}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: ViolationPolicy) -> MonitorConfig {
        MonitorConfig {
            policy,
            every_events: 4,
        }
    }

    #[test]
    fn monotonic_time_passes_and_regression_raises() {
        let metrics = Metrics::disabled();
        let mut m = MonitorState::new(cfg(ViolationPolicy::Log));
        m.observe_event(SimTime::from_nanos(10), &metrics);
        m.observe_event(SimTime::from_nanos(10), &metrics);
        m.observe_event(SimTime::from_nanos(20), &metrics);
        assert_eq!(m.violations(), 0);
        m.observe_event(SimTime::from_nanos(5), &metrics);
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn cadence_counts_events() {
        let metrics = Metrics::disabled();
        let mut m = MonitorState::new(cfg(ViolationPolicy::Log));
        for i in 0..3 {
            m.observe_event(SimTime::from_nanos(i), &metrics);
            assert!(!m.cadence_due());
        }
        m.observe_event(SimTime::from_nanos(9), &metrics);
        assert!(m.cadence_due());
        m.check_state(&PacketArena::new(), &FabricStats::default(), &[], &metrics);
        assert!(!m.cadence_due());
        assert_eq!(m.violations(), 0);
    }

    #[test]
    fn arena_skew_is_caught() {
        let metrics = Metrics::disabled();
        let mut m = MonitorState::new(cfg(ViolationPolicy::Log));
        let mut arena = PacketArena::new();
        arena.debug_skew_ledger();
        m.check_state(&arena, &FabricStats::default(), &[], &metrics);
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn conservation_deficit_is_caught() {
        let metrics = Metrics::disabled();
        let mut m = MonitorState::new(cfg(ViolationPolicy::Log));
        let fabric = FabricStats {
            sent: 1,
            duplicates: 0,
            delivered: 2,
            dropped: 0,
            icrc_dropped: 0,
        };
        m.check_state(&PacketArena::new(), &fabric, &[], &metrics);
        assert_eq!(m.violations(), 1);
    }

    #[test]
    fn fail_cell_policy_panics_with_monitor_prefix() {
        let metrics = Metrics::disabled();
        let mut m = MonitorState::new(cfg(ViolationPolicy::FailCell));
        let mut arena = PacketArena::new();
        arena.debug_skew_ledger();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.check_state(&arena, &FabricStats::default(), &[], &metrics);
        }))
        .unwrap_err();
        let msg = sim_core::panic_payload_message(err.as_ref());
        assert!(msg.starts_with("[monitor] "), "got: {msg}");
    }

    #[test]
    fn abort_policy_panics_with_abort_prefix() {
        let metrics = Metrics::disabled();
        let mut m = MonitorState::new(cfg(ViolationPolicy::AbortRun));
        m.observe_event(SimTime::from_nanos(10), &metrics);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.observe_event(SimTime::from_nanos(5), &metrics);
        }))
        .unwrap_err();
        let msg = sim_core::panic_payload_message(err.as_ref());
        assert!(msg.starts_with("[monitor-abort] "), "got: {msg}");
    }
}
