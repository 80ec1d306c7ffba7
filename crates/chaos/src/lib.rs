//! # ragnar-chaos — deterministic fault injection for the simulated fabric
//!
//! The paper's channels only matter if they survive a faulty fabric
//! (§V's cross-traffic robustness); this crate makes the fabric break in
//! structured, reproducible ways:
//!
//! * [`FaultPlan`] — a serializable, seed-derived schedule of typed fault
//!   events ([`FaultKind`]): per-link loss bursts, link up/down flaps,
//!   reordering windows, duplication, payload corruption (dropped at the
//!   receiver as an ICRC failure), and NIC stalls.
//! * [`FaultInjector`] — interprets a plan at every link a packet
//!   crosses in `rdma-verbs`, returning a [`Verdict`] per crossing and
//!   folding every fault into a deterministic trace digest.
//! * Invariant oracles — [`FabricStats::conserved`] (packet conservation)
//!   and [`WrLedger`] (every posted WR completes exactly once), checked
//!   by the chaos property suites under randomized plans.
//!
//! Determinism contract: all injector draws come from the plan's own
//! derived RNG stream, so (a) installing a plan never perturbs any other
//! random stream — with no plan installed, golden digests stay bit-exact
//! — and (b) identical plans over identical packet sequences yield
//! identical fault traces regardless of harness thread count.
//!
//! # Examples
//!
//! ```
//! use ragnar_chaos::{FaultInjector, FaultPlan, PlanParams};
//! use rnic_model::HostId;
//! use sim_core::SimTime;
//!
//! let plan = FaultPlan::generate(7, &PlanParams::default());
//! let text = plan.to_text();
//! assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
//!
//! let mut inj = FaultInjector::new(plan);
//! let verdict = inj.verdict(SimTime::from_micros(250), HostId(0), HostId(1));
//! let _ = verdict.drop; // the fabric applies the verdict at the link
//! ```

#![warn(missing_docs)]

mod inject;
mod oracle;
mod plan;

pub use inject::{FaultInjector, InjectorStats, Verdict};
pub use oracle::{FabricStats, OracleViolation, WrLedger};
pub use plan::{FaultEvent, FaultKind, FaultPlan, LinkSelector, PlanParams, PlanParseError};
