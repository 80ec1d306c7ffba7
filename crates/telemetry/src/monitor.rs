//! Online invariant-monitor configuration.
//!
//! The simulator's invariants — arena allocation ledgers, fabric packet
//! conservation, time monotonicity, QP-state legality — were historically
//! checked post-hoc by tests. At cluster scale an hours-long sweep wants
//! them checked *during* the run, so a conservation bug surfaces at the
//! window it happens in, not after the run has burned its budget.
//!
//! This module holds only the domain-agnostic configuration surface: the
//! [`ViolationPolicy`] and the [`MonitorConfig`] knob set, which reach a
//! cell through its [`RunCtx`](crate::RunCtx) (the harness `--monitors`
//! flag fills it in). The monitors themselves live with the state they
//! watch (`rdma-verbs::monitors`), which also raises violations.
//!
//! Monitoring is observational: it never changes artifacts or cache keys
//! (a violation under `FailCell`/`AbortRun` fails the run loudly rather
//! than producing a different artifact).

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
}
