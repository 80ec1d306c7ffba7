//! Invariant oracles for chaos runs.
//!
//! These capture the transport contracts that must hold no matter what a
//! fault plan does to the fabric:
//!
//! 1. every posted WR completes **exactly once**, with `Success` or a
//!    typed error ([`WrLedger`]);
//! 2. fabric packet counters balance — nothing is silently created or
//!    destroyed ([`FabricStats::conserved`]);
//! 3. placement and time-monotonicity checks live in the property suites
//!    that drive full simulations.

use rnic_model::CqeStatus;
use std::collections::BTreeMap;

/// Packet bookkeeping of the fabric between all NICs.
///
/// `sent` counts packets handed to the fabric by any NIC (including
/// retransmissions — they are new wire packets); `duplicates` counts
/// extra copies the injector created. Every copy in flight ends up in
/// exactly one of `delivered`, `dropped`, or `icrc_dropped`, so at
/// quiescence the books must balance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets handed to the fabric by the NICs.
    pub sent: u64,
    /// Extra copies created by duplication faults.
    pub duplicates: u64,
    /// Packets delivered intact to a NIC's ingress.
    pub delivered: u64,
    /// Packets dropped on the wire (loss rate, loss bursts, link-down).
    pub dropped: u64,
    /// Packets delivered corrupt and discarded by the receiver's ICRC
    /// check.
    pub icrc_dropped: u64,
}

impl FabricStats {
    /// The conservation invariant: `sent + duplicates = delivered +
    /// dropped + icrc_dropped`. Only meaningful once the event queue has
    /// drained (packets still propagating are counted as sent but not yet
    /// resolved).
    pub fn conserved(&self) -> bool {
        self.sent + self.duplicates == self.delivered + self.dropped + self.icrc_dropped
    }

    /// Packets still in flight (sent or duplicated but not yet resolved).
    pub fn in_flight(&self) -> u64 {
        (self.sent + self.duplicates)
            .saturating_sub(self.delivered + self.dropped + self.icrc_dropped)
    }
}

/// A violation detected by [`WrLedger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// A WR completed more than once.
    DuplicateCompletion {
        /// The offending work-request id.
        wr_id: u64,
        /// The first recorded status.
        first: CqeStatus,
        /// The second, conflicting status.
        second: CqeStatus,
    },
    /// A completion arrived for a WR that was never posted.
    UnknownCompletion {
        /// The unknown work-request id.
        wr_id: u64,
    },
    /// A posted WR never completed.
    MissingCompletion {
        /// The incomplete work-request id.
        wr_id: u64,
    },
}

impl core::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OracleViolation::DuplicateCompletion {
                wr_id,
                first,
                second,
            } => write!(
                f,
                "WR {wr_id} completed twice: first {first:?}, then {second:?}"
            ),
            OracleViolation::UnknownCompletion { wr_id } => {
                write!(f, "completion for never-posted WR {wr_id}")
            }
            OracleViolation::MissingCompletion { wr_id } => {
                write!(f, "WR {wr_id} never completed")
            }
        }
    }
}

impl std::error::Error for OracleViolation {}

/// Tracks the exactly-once completion contract over a set of WRs with
/// unique `wr_id`s.
#[derive(Debug, Clone, Default)]
pub struct WrLedger {
    posted: BTreeMap<u64, Option<CqeStatus>>,
}

impl WrLedger {
    /// A ledger with nothing posted.
    pub fn new() -> Self {
        WrLedger::default()
    }

    /// Records a posted WR. `wr_id`s must be unique per ledger.
    ///
    /// # Panics
    ///
    /// Panics if `wr_id` was already posted (a test-harness bug, not a
    /// simulator bug).
    pub fn posted(&mut self, wr_id: u64) {
        let prev = self.posted.insert(wr_id, None);
        assert!(prev.is_none(), "wr_id {wr_id} posted twice to the ledger");
    }

    /// Records a completion.
    ///
    /// # Errors
    ///
    /// [`OracleViolation::DuplicateCompletion`] if the WR already
    /// completed, [`OracleViolation::UnknownCompletion`] if it was never
    /// posted.
    pub fn completed(&mut self, wr_id: u64, status: CqeStatus) -> Result<(), OracleViolation> {
        match self.posted.get_mut(&wr_id) {
            None => Err(OracleViolation::UnknownCompletion { wr_id }),
            Some(Some(first)) => Err(OracleViolation::DuplicateCompletion {
                wr_id,
                first: *first,
                second: status,
            }),
            Some(slot) => {
                *slot = Some(status);
                Ok(())
            }
        }
    }

    /// The recorded status of one WR, if it completed.
    pub fn status(&self, wr_id: u64) -> Option<CqeStatus> {
        self.posted.get(&wr_id).copied().flatten()
    }

    /// Iterates `(wr_id, status)` over completed WRs.
    pub fn completions(&self) -> impl Iterator<Item = (u64, CqeStatus)> + '_ {
        self.posted.iter().filter_map(|(&id, s)| s.map(|s| (id, s)))
    }

    /// Verifies every posted WR completed exactly once.
    ///
    /// # Errors
    ///
    /// [`OracleViolation::MissingCompletion`] for the first incomplete WR.
    pub fn check_complete(&self) -> Result<(), OracleViolation> {
        for (&wr_id, status) in &self.posted {
            if status.is_none() {
                return Err(OracleViolation::MissingCompletion { wr_id });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_balances() {
        let ok = FabricStats {
            sent: 100,
            duplicates: 5,
            delivered: 90,
            dropped: 10,
            icrc_dropped: 5,
        };
        assert!(ok.conserved());
        assert_eq!(ok.in_flight(), 0);
        let pending = FabricStats {
            sent: 100,
            delivered: 90,
            ..FabricStats::default()
        };
        assert!(!pending.conserved());
        assert_eq!(pending.in_flight(), 10);
    }

    #[test]
    fn ledger_exactly_once() {
        let mut ledger = WrLedger::new();
        ledger.posted(1);
        ledger.posted(2);
        assert!(matches!(
            ledger.check_complete(),
            Err(OracleViolation::MissingCompletion { wr_id: 1 })
        ));
        ledger.completed(1, CqeStatus::Success).expect("first");
        ledger
            .completed(2, CqeStatus::RetryExceeded)
            .expect("first");
        assert!(ledger.check_complete().is_ok());
        assert!(matches!(
            ledger.completed(1, CqeStatus::Success),
            Err(OracleViolation::DuplicateCompletion { wr_id: 1, .. })
        ));
        assert!(matches!(
            ledger.completed(3, CqeStatus::Success),
            Err(OracleViolation::UnknownCompletion { wr_id: 3 })
        ));
        assert_eq!(ledger.status(2), Some(CqeStatus::RetryExceeded));
        assert_eq!(ledger.completions().count(), 2);
    }
}
