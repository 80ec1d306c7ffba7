//! # ragnar-topology — cluster-scale fabrics for the Ragnar testbed
//!
//! The one wire model of `rdma-verbs`, from the two-host testbed to a
//! shared datacenter fabric:
//!
//! * [`TopologySpec`] — a declarative, canonicalizable spec grammar
//!   (`p2p`, `leaf-spine:hosts=256,leaves=8,spines=4`, `fat-tree:k=4`)
//!   suitable for CLI flags and harness cache keys.
//! * [`Topology`] — the built fabric: hosts, switches, directed
//!   [`Link`]s, and per-pair equal-cost route enumeration. `p2p` is an
//!   ideal one-hop crossbar that grows host by host; it is the wire of
//!   every simulation built without a topology.
//! * [`ecmp`] — deterministic flow hashing over equal-cost path sets:
//!   pure-function selection that is identical across thread counts and
//!   invariant under permutation of the candidate set.
//! * [`FabricRuntime`] — per-link occupancy, serialization, per-port
//!   ingress counters, and PFC pause/resume state (the enforcement half
//!   is wired to `ragnar-defense`'s `PfcWatchdog` downstream).
//! * [`traffic`] — open-loop multi-tenant generators
//!   (attacker/victim/bystander populations with seed-derived Poisson
//!   arrival processes).
//!
//! The crate is deliberately free of any dependency on the verbs layer:
//! it describes fabrics and traffic; `rdma-verbs` executes them. Host
//! indices in a topology are, by convention, the `HostId`s of the
//! simulation driving it (host *n* of the spec is `HostId(n)`).

#![warn(missing_docs)]

pub mod ecmp;
mod fabric;
mod port;
mod spec;
pub mod traffic;

pub use ecmp::FlowKey;
pub use fabric::{Link, LinkId, NodeId, Route, Topology, MAX_HOPS, SWITCH_FORWARD};
pub use port::{FabricRuntime, PfcPortConfig, PortCounters};
pub use spec::{SpecError, TopologySpec};
