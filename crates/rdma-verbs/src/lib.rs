//! # rdma-verbs — a verbs-style RDMA software stack over the simulated
//! RNIC fabric
//!
//! Provides the abstractions of the paper's Fig. 1: protection domains,
//! registered memory regions, connected RC queue pairs, work/completion
//! queues, plus an `mlnx_qos` equivalent for ETS traffic-class
//! configuration — all driving [`rnic_model::Rnic`] instances connected
//! through a switch in a deterministic event loop.
//!
//! Attack code, victims and measurement drivers are [`App`]s: event-driven
//! state machines reacting to completions and timers via [`Ctx`].
//!
//! See [`Simulation`] for a complete two-host example.

#![warn(missing_docs)]

mod host;
mod monitors;
mod world;
mod wr;

pub use host::HostSpec;
pub use world::{
    App, AppId, ConnectOptions, Ctx, MrHandle, QpHandle, QueueBackend, Simulation, VerbsError,
};
pub use wr::WorkRequest;

// Re-export the identifiers callers need to interact with the NIC layer.
pub use rnic_model::{
    AccessFlags, ArenaStats, Cqe, CqeStatus, DeviceKind, DeviceProfile, FlowId, HostId, MrKey,
    NakReason, Opcode, PdId, PostError, QpNum, QpTransport, RecvWqe, TrafficClass,
};

// Re-export the fault-injection vocabulary so experiment crates can build
// and install plans without depending on the chaos crate directly.
pub use ragnar_chaos::{
    FabricStats, FaultEvent, FaultKind, FaultPlan, InjectorStats, LinkSelector, PlanParams,
};

// Re-export the fabric vocabulary for the same reason: experiments build
// a `Topology` and hand it to `Simulation::with_topology`.
pub use ragnar_topology::{
    FabricRuntime, FlowKey, Link, LinkId, NodeId, PfcPortConfig, PortCounters, Route, SpecError,
    Topology, TopologySpec,
};
