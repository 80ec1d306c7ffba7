//! Online invariant-monitor configuration.
//!
//! The simulator's invariants — arena allocation ledgers, fabric packet
//! conservation, time monotonicity, QP-state legality — were historically
//! checked post-hoc by tests. At cluster scale an hours-long sweep wants
//! them checked *during* the run, so a conservation bug surfaces at the
//! window it happens in, not after the run has burned its budget.
//!
//! This module holds only the domain-agnostic configuration surface: the
//! [`ViolationPolicy`], the [`MonitorConfig`] knob set, and the ambient
//! process-wide installation the harness `--monitors` flag drives. The
//! monitors themselves live with the state they watch
//! (`rdma-verbs::monitors`); violation *raising* is also done there,
//! where telemetry is in scope.
//!
//! Monitoring is observational: it never changes artifacts or cache keys
//! (a violation under `FailCell`/`AbortRun` fails the run loudly rather
//! than producing a different artifact).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// What happens when an online monitor detects an invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationPolicy {
    /// Log the violation (telemetry warning + counter) and continue.
    Log,
    /// Fail the current cell: the monitor panics with a `[monitor]`
    /// message; the harness executor records the cell as failed and the
    /// sweep continues.
    FailCell,
    /// Abort the whole sweep: the monitor panics with a
    /// `[monitor-abort]` message; the executor stops scheduling cells
    /// and salvages what already completed.
    AbortRun,
}

impl ViolationPolicy {
    /// Parses the `--monitors` CLI spelling.
    pub fn parse(s: &str) -> Result<ViolationPolicy, String> {
        match s {
            "log" => Ok(ViolationPolicy::Log),
            "fail-cell" => Ok(ViolationPolicy::FailCell),
            "abort-run" => Ok(ViolationPolicy::AbortRun),
            other => Err(format!(
                "unknown violation policy '{other}' (expected log, fail-cell, or abort-run)"
            )),
        }
    }

    /// The canonical CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationPolicy::Log => "log",
            ViolationPolicy::FailCell => "fail-cell",
            ViolationPolicy::AbortRun => "abort-run",
        }
    }
}

/// Configuration for the online invariant monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// What a detected violation does to the run.
    pub policy: ViolationPolicy,
    /// Evaluate the (non-trivial) invariants every this many processed
    /// events; cheap per-event checks (time monotonicity) always run.
    pub every_events: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            policy: ViolationPolicy::Log,
            every_events: 1024,
        }
    }
}

// Ambient encoding: 0 = off, 1..=3 = policy discriminant + 1.
static AMBIENT_POLICY: AtomicU8 = AtomicU8::new(0);
static AMBIENT_CADENCE: AtomicU64 = AtomicU64::new(1024);

/// Installs (or clears, with `None`) the process-wide monitor config
/// that newly-constructed simulations pick up. The harness sets this
/// from `--monitors <policy>` before dispatching cells; like `--threads`
/// it never reaches configs or cache keys.
pub fn set_ambient_monitors(cfg: Option<MonitorConfig>) {
    match cfg {
        None => AMBIENT_POLICY.store(0, Ordering::Relaxed),
        Some(c) => {
            AMBIENT_CADENCE.store(c.every_events.max(1), Ordering::Relaxed);
            let tag = match c.policy {
                ViolationPolicy::Log => 1,
                ViolationPolicy::FailCell => 2,
                ViolationPolicy::AbortRun => 3,
            };
            AMBIENT_POLICY.store(tag, Ordering::Relaxed);
        }
    }
}

/// The currently-installed ambient monitor config, if any.
pub fn ambient_monitors() -> Option<MonitorConfig> {
    let policy = match AMBIENT_POLICY.load(Ordering::Relaxed) {
        1 => ViolationPolicy::Log,
        2 => ViolationPolicy::FailCell,
        3 => ViolationPolicy::AbortRun,
        _ => return None,
    };
    Some(MonitorConfig {
        policy,
        every_events: AMBIENT_CADENCE.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_roundtrip() {
        for p in [
            ViolationPolicy::Log,
            ViolationPolicy::FailCell,
            ViolationPolicy::AbortRun,
        ] {
            assert_eq!(ViolationPolicy::parse(p.as_str()), Ok(p));
        }
        assert!(ViolationPolicy::parse("explode").is_err());
    }

    #[test]
    fn ambient_install_roundtrip() {
        // Serialized within this test; other tests don't touch the
        // ambient monitor state.
        set_ambient_monitors(Some(MonitorConfig {
            policy: ViolationPolicy::FailCell,
            every_events: 64,
        }));
        let got = ambient_monitors().expect("installed");
        assert_eq!(got.policy, ViolationPolicy::FailCell);
        assert_eq!(got.every_events, 64);
        set_ambient_monitors(None);
        assert_eq!(ambient_monitors(), None);
    }
}
