//! Per-link runtime state: occupancy, serialization, ingress counters,
//! and PFC pause gates.
//!
//! The event core stays in `rdma-verbs`; this module is the pure state
//! machine it calls into for every hop. A link is modeled as a single
//! egress queue with an analytic backlog — `busy_until` tracks when the
//! transmitter drains, and backlog in bytes is what that horizon
//! implies at line rate. That keeps the fabric allocation-free (no
//! queued-packet lists) while still producing head-of-line blocking,
//! serialization under load, and PFC back-pressure. An ideal link (the
//! `p2p` crossbar's) has no such state: a packet crosses it in exactly
//! its latency, and only its counters move.

use crate::fabric::{LinkId, NodeId, Route, Topology};
use rnic_model::TrafficClass;
use sim_core::{SimDuration, SimTime};

/// PFC thresholds applied at every switch egress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcPortConfig {
    /// Backlog (bytes) beyond which the congested hop pauses its
    /// upstream transmitter for the packet's traffic class.
    pub xoff_bytes: u64,
    /// How long one pause frame silences the upstream link. Resume is
    /// implicit at expiry (XON is not modeled as a separate frame).
    pub pause: SimDuration,
}

impl Default for PfcPortConfig {
    fn default() -> Self {
        // ~one jumbo-frame burst at 100 Gb/s; a few microseconds of
        // quiet per pause frame, matching the defense watchdog's scale.
        PfcPortConfig {
            xoff_bytes: 32 * 1024,
            pause: SimDuration::from_micros(2),
        }
    }
}

/// Ingress accounting for one directed link, in the same shape the
/// defense layer's NIC counters use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Bytes carried, split by traffic class.
    pub rx_bytes_per_tc: [u64; TrafficClass::COUNT],
    /// Packets carried.
    pub rx_packets: u64,
    /// Packets chaos dropped *on this link* (multi-hop attribution).
    pub dropped: u64,
    /// Pause frames this link's transmitter received.
    pub pauses_taken: u64,
}

impl PortCounters {
    /// Total bytes across all traffic classes.
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes_per_tc.iter().sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct LinkState {
    busy_until: SimTime,
    paused_until: [SimTime; TrafficClass::COUNT],
}

impl LinkState {
    const IDLE: LinkState = LinkState {
        busy_until: SimTime::ZERO,
        paused_until: [SimTime::ZERO; TrafficClass::COUNT],
    };
}

/// What one hop traversal did, beyond the arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopOutcome {
    /// When the packet lands at the link's `dst` node.
    pub arrival: SimTime,
    /// Pause emitted to the upstream link (`Some` only when PFC is on,
    /// the egress backlog crossed XOFF, and the hop has an upstream).
    pub paused_upstream: Option<LinkId>,
}

/// Mutable fabric state for one simulation: per-link occupancy and
/// counters over an immutable [`Topology`].
#[derive(Debug, Clone)]
pub struct FabricRuntime {
    topo: Topology,
    links: Vec<LinkState>,
    counters: Vec<PortCounters>,
    pfc: Option<PfcPortConfig>,
}

impl FabricRuntime {
    /// Fresh runtime over a built fabric.
    pub fn new(topo: Topology, pfc: Option<PfcPortConfig>) -> FabricRuntime {
        let n = topo.links().len();
        FabricRuntime {
            topo,
            links: vec![LinkState::IDLE; n],
            counters: vec![PortCounters::default(); n],
            pfc,
        }
    }

    /// The fabric this runtime executes.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Grows a `p2p` crossbar by one host (see
    /// [`Topology::add_crossbar_host`]).
    ///
    /// # Panics
    ///
    /// Panics on every other family: their host count is fixed.
    pub fn add_crossbar_host(&mut self) {
        self.topo.add_crossbar_host();
        let n = self.topo.links().len();
        self.links.resize(n, LinkState::IDLE);
        self.counters.resize(n, PortCounters::default());
    }

    /// Whether PFC pause generation is enabled.
    pub fn pfc(&self) -> Option<PfcPortConfig> {
        self.pfc
    }

    /// Analytic egress backlog of a link at `now`, in bytes.
    pub fn backlog_bytes(&self, now: SimTime, link: LinkId) -> u64 {
        let st = &self.links[link.index()];
        if st.busy_until <= now {
            return 0;
        }
        let secs = st.busy_until.saturating_since(now).as_secs_f64();
        (secs * self.topo.link(link).rate_bps as f64 / 8.0) as u64
    }

    /// When transmission for `tc` may next start on a link (pause gate).
    pub fn paused_until(&self, link: LinkId, tc: TrafficClass) -> SimTime {
        self.links[link.index()].paused_until[tc.index()]
    }

    /// Silences a link's transmitter for one traffic class until at
    /// least `until` (later of the existing gate and the new one). Used
    /// both by fabric-emitted XOFF and by the defense watchdog. A no-op
    /// on an ideal link, which has no pause gate.
    pub fn pause_link(&mut self, link: LinkId, tc: TrafficClass, until: SimTime) {
        if self.topo.link(link).is_ideal() {
            return;
        }
        let st = &mut self.links[link.index()];
        if until > st.paused_until[tc.index()] {
            st.paused_until[tc.index()] = until;
            self.counters[link.index()].pauses_taken += 1;
        }
    }

    /// Carries a packet across hop `hop` of `route`, starting no
    /// earlier than `now`: waits out the pause gate and any queue ahead,
    /// serializes at line rate, then propagates (an ideal link only
    /// propagates). Returns the arrival
    /// time at the hop's far node plus any PFC pause it emitted (the
    /// caller owns scheduling, so back-pressure is visible to
    /// telemetry).
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range for the route.
    pub fn traverse(
        &mut self,
        now: SimTime,
        route: &Route,
        hop: usize,
        bytes: u64,
        tc: TrafficClass,
    ) -> HopOutcome {
        let link_id = route.hop(hop).expect("hop within route");
        let link = *self.topo.link(link_id);
        let ctr = &mut self.counters[link_id.index()];
        ctr.rx_packets += 1;
        ctr.rx_bytes_per_tc[tc.index()] += bytes;
        if link.is_ideal() {
            return HopOutcome {
                arrival: now + link.latency,
                paused_upstream: None,
            };
        }
        let st = &mut self.links[link_id.index()];
        let start = now
            .max_of(st.busy_until)
            .max_of(st.paused_until[tc.index()]);
        st.busy_until = start + SimDuration::serialization(bytes, link.rate_bps);
        let arrival = st.busy_until + link.latency;

        let mut paused_upstream = None;
        if let Some(cfg) = self.pfc {
            // Only switch egress queues emit PFC (hosts feel it as the
            // gate on their uplink), and only when there is an upstream
            // hop on this route to pause.
            if hop > 0
                && matches!(link.src, NodeId::Switch(_))
                && self.backlog_bytes(now, link_id) > cfg.xoff_bytes
            {
                let upstream = route.hop(hop - 1).expect("hop-1 within route");
                self.pause_link(upstream, tc, now + cfg.pause);
                paused_upstream = Some(upstream);
            }
        }
        HopOutcome {
            arrival,
            paused_upstream,
        }
    }

    /// Records a chaos drop against the physical link it happened on.
    pub fn note_link_drop(&mut self, link: LinkId) {
        self.counters[link.index()].dropped += 1;
    }

    /// Counters for one link.
    pub fn counters(&self, link: LinkId) -> &PortCounters {
        &self.counters[link.index()]
    }

    /// Counters for every link, indexed by [`LinkId`].
    pub fn all_counters(&self) -> &[PortCounters] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowKey;
    use rnic_model::HostId;

    fn runtime(pfc: Option<PfcPortConfig>) -> FabricRuntime {
        let topo = Topology::from_spec("leaf-spine:hosts=8,leaves=2,spines=2").expect("build");
        FabricRuntime::new(topo, pfc)
    }

    fn cross_leaf_route(rt: &FabricRuntime) -> Route {
        rt.topology().route(
            HostId(0),
            HostId(7),
            FlowKey::new(HostId(0), HostId(7), 1, 2),
        )
    }

    #[test]
    fn hops_serialize_back_to_back() {
        let mut rt = runtime(None);
        let route = cross_leaf_route(&rt);
        let now = SimTime::from_micros(1);
        let a = rt
            .traverse(now, &route, 0, 1024, TrafficClass::new(0))
            .arrival;
        // Same link again: second packet queues behind the first.
        let b = rt
            .traverse(now, &route, 0, 1024, TrafficClass::new(0))
            .arrival;
        assert!(b > a);
        let ser = SimDuration::serialization(1024, rt.topology().link(route.links()[0]).rate_bps);
        assert_eq!(b, a + ser);
        assert_eq!(rt.counters(route.links()[0]).rx_packets, 2);
        assert_eq!(rt.counters(route.links()[0]).rx_bytes(), 2048);
    }

    #[test]
    fn pause_gates_transmission() {
        let mut rt = runtime(None);
        let route = cross_leaf_route(&rt);
        let tc = TrafficClass::new(3);
        let gate = SimTime::from_micros(10);
        // A class with no pause gate transmits immediately.
        let other = rt.traverse(SimTime::from_micros(1), &route, 0, 64, TrafficClass::new(0));
        assert!(other.arrival < gate);
        rt.pause_link(route.links()[0], tc, gate);
        let out = rt.traverse(SimTime::from_micros(1), &route, 0, 64, tc);
        assert!(out.arrival > gate, "transmission must wait out the pause");
    }

    #[test]
    fn xoff_pauses_the_upstream_link() {
        let mut rt = runtime(Some(PfcPortConfig {
            xoff_bytes: 2048,
            pause: SimDuration::from_micros(5),
        }));
        let route = cross_leaf_route(&rt);
        let tc = TrafficClass::new(0);
        let now = SimTime::from_micros(1);
        // Saturate the leaf→spine trunk (hop 1) past XOFF.
        let mut paused = None;
        for _ in 0..8 {
            let out = rt.traverse(now, &route, 1, 4096, tc);
            if out.paused_upstream.is_some() {
                paused = out.paused_upstream;
                break;
            }
        }
        let upstream = paused.expect("saturated trunk must emit XOFF");
        assert_eq!(upstream, route.links()[0], "pause lands on the feeding hop");
        assert!(rt.paused_until(upstream, tc) > now);
        assert_eq!(rt.counters(upstream).pauses_taken, 1);
        // Host uplinks (hop 0) never emit pause: no upstream to silence.
        let out = rt.traverse(now, &route, 0, 4096, tc);
        assert_eq!(out.paused_upstream, None);
    }

    #[test]
    fn drops_attribute_to_links() {
        let mut rt = runtime(None);
        let route = cross_leaf_route(&rt);
        rt.note_link_drop(route.links()[2]);
        rt.note_link_drop(route.links()[2]);
        assert_eq!(rt.counters(route.links()[2]).dropped, 2);
        assert_eq!(rt.counters(route.links()[0]).dropped, 0);
    }

    #[test]
    fn ideal_links_only_propagate_and_count() {
        let mut rt = FabricRuntime::new(Topology::crossbar(2), None);
        let route = rt.topology().route(
            HostId(0),
            HostId(1),
            FlowKey::new(HostId(0), HostId(1), 1, 2),
        );
        let link = route.links()[0];
        let tc = TrafficClass::new(0);
        let now = SimTime::from_micros(1);
        rt.pause_link(link, tc, SimTime::from_millis(1));
        for _ in 0..3 {
            let out = rt.traverse(now, &route, 0, 100_000, tc);
            assert_eq!(out.arrival, now + SimDuration::from_nanos(700));
        }
        assert_eq!(rt.backlog_bytes(now, link), 0);
        assert_eq!(rt.counters(link).rx_packets, 3);
        assert_eq!(rt.counters(link).pauses_taken, 0);
    }

    #[test]
    fn backlog_is_analytic() {
        let mut rt = runtime(None);
        let route = cross_leaf_route(&rt);
        let link = route.links()[0];
        let now = SimTime::from_micros(1);
        assert_eq!(rt.backlog_bytes(now, link), 0);
        rt.traverse(now, &route, 0, 100_000, TrafficClass::new(0));
        let b = rt.backlog_bytes(now, link);
        // The packet is still serializing: backlog ≈ its size.
        assert!(b > 90_000 && b <= 100_000, "backlog {b}");
        assert_eq!(rt.backlog_bytes(SimTime::from_millis(1), link), 0);
    }
}
