//! The built fabric: nodes, directed links, and equal-cost routing.

use crate::ecmp::{self, FlowKey};
use crate::spec::TopologySpec;
use rnic_model::HostId;
use sim_core::SimDuration;

/// A node of the fabric graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A simulated host (index == the simulation's `HostId`).
    Host(u32),
    /// A switch (leaf, spine, edge, aggregation or core).
    Switch(u32),
}

/// Identifies one *directed* link (a cable is two links, one per
/// direction), dense from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One directed physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Propagation latency, including the source switch's forwarding
    /// delay when `src` is a switch.
    pub latency: SimDuration,
    /// Line rate in bits per second (serialization delay). `0` marks an
    /// ideal link (the `p2p` crossbar's): no serialization, no egress
    /// queue and no pause gate.
    pub rate_bps: u64,
}

impl Link {
    /// Whether the link is ideal: it holds no state, so a packet crosses
    /// it in exactly its latency.
    pub fn is_ideal(&self) -> bool {
        self.rate_bps == 0
    }
}

/// The longest path any built fabric produces (fat-tree inter-pod:
/// host→edge→agg→core→agg→edge→host).
pub const MAX_HOPS: usize = 6;

/// A concrete path through the fabric: the ordered physical links a
/// packet traverses from source host to destination host.
///
/// Stored inline (`Copy`) so routing never allocates on the hot path.
/// Unused slots are padded with `LinkId(u32::MAX)`, which makes the
/// derived lexicographic ordering canonical for equal-length routes —
/// the ordering [`crate::ecmp::select`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Route {
    links: [LinkId; MAX_HOPS],
    len: u8,
}

impl Route {
    const PAD: LinkId = LinkId(u32::MAX);

    /// An empty route under construction.
    pub fn empty() -> Route {
        Route {
            links: [Self::PAD; MAX_HOPS],
            len: 0,
        }
    }

    /// Builds a route from hops in order.
    ///
    /// # Panics
    ///
    /// Panics when given more than [`MAX_HOPS`] links.
    pub fn of(links: &[LinkId]) -> Route {
        let mut r = Route::empty();
        for &l in links {
            r.push(l);
        }
        r
    }

    /// Appends a hop.
    ///
    /// # Panics
    ///
    /// Panics when the route is already [`MAX_HOPS`] long.
    pub fn push(&mut self, link: LinkId) {
        assert!((self.len as usize) < MAX_HOPS, "route longer than MAX_HOPS");
        self.links[self.len as usize] = link;
        self.len += 1;
    }

    /// The hops, in traversal order.
    pub fn links(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the route has no hops.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hop at `idx`, if within the route.
    pub fn hop(&self, idx: usize) -> Option<LinkId> {
        self.links().get(idx).copied()
    }
}

/// Family-specific routing indexes.
#[derive(Debug, Clone)]
enum Routing {
    /// The `p2p` ideal crossbar: one link per ordered host pair, laid
    /// out by [`Topology::crossbar_link`]; routes are that one link.
    Crossbar,
    LeafSpine {
        hosts_per_leaf: u32,
        spines: u32,
        /// `leaf_up[l * spines + s]` — leaf `l` to spine `s`.
        leaf_up: Vec<LinkId>,
        /// `spine_down[s * leaves + l]` — spine `s` to leaf `l`.
        spine_down: Vec<LinkId>,
    },
    FatTree {
        k: u32,
        /// `edge_up[(pod*edges + e) * aggs + a]` — edge `e` of `pod` to agg `a`.
        edge_up: Vec<LinkId>,
        /// `agg_down[(pod*aggs + a) * edges + e]`.
        agg_down: Vec<LinkId>,
        /// `agg_up[(pod*aggs + a) * ports + j]` — agg `a` of `pod` to core `(a,j)`.
        agg_up: Vec<LinkId>,
        /// `core_down[(a*ports + j) * pods + pod]` — core `(a,j)` to `pod`'s agg `a`.
        core_down: Vec<LinkId>,
    },
}

/// A built fabric: every node and directed link of the spec, plus the
/// equal-cost routing tables ECMP selects over.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: TopologySpec,
    links: Vec<Link>,
    /// Per host: the (single) uplink into its first switch.
    host_up: Vec<LinkId>,
    /// Per host: the downlink from its first switch.
    host_down: Vec<LinkId>,
    switches: u32,
    routing: Routing,
}

/// Host cable propagation (one direction).
const HOST_LINK_LAT: SimDuration = SimDuration::from_nanos(250);
/// Switch-to-switch trunk propagation (one direction).
const TRUNK_LAT: SimDuration = SimDuration::from_nanos(500);
/// Store-and-forward latency a switch adds before its egress link.
pub const SWITCH_FORWARD: SimDuration = SimDuration::from_nanos(200);
/// A `p2p` crossbar link: 500 ns of wire propagation plus the one switch
/// the pair shares.
const CROSSBAR_LAT: SimDuration = SimDuration::from_nanos(500 + 200);

impl Topology {
    /// Builds the fabric a spec describes.
    pub fn build(spec: &TopologySpec) -> Topology {
        match *spec {
            TopologySpec::PointToPoint { hosts } => Self::crossbar(hosts),
            TopologySpec::LeafSpine {
                hosts,
                leaves,
                spines,
                ..
            } => Self::build_leaf_spine(spec.clone(), hosts, leaves, spines),
            TopologySpec::FatTree { k, .. } => Self::build_fat_tree(spec.clone(), k),
        }
    }

    /// Parses and builds in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::SpecError`] from the parser.
    pub fn from_spec(s: &str) -> Result<Topology, crate::SpecError> {
        Ok(Self::build(&TopologySpec::parse(s)?))
    }

    fn new_shell(spec: TopologySpec) -> Topology {
        Topology {
            spec,
            links: Vec::new(),
            host_up: Vec::new(),
            host_down: Vec::new(),
            switches: 0,
            routing: Routing::Crossbar,
        }
    }

    /// The `p2p` ideal crossbar over `hosts` hosts: one ideal link per
    /// ordered host pair and no switch node.
    pub fn crossbar(hosts: u32) -> Topology {
        let mut t = Self::new_shell(TopologySpec::PointToPoint { hosts: 0 });
        for _ in 0..hosts {
            t.add_crossbar_host();
        }
        t
    }

    /// Appends one host to a `p2p` crossbar, with a link to and from
    /// every earlier host. Earlier link ids do not move, so a crossbar
    /// can grow one host at a time.
    ///
    /// # Panics
    ///
    /// Panics on every other family: their host count is fixed.
    pub fn add_crossbar_host(&mut self) {
        let TopologySpec::PointToPoint { hosts } = &mut self.spec else {
            panic!("topology {} has no port for another host", self.spec);
        };
        let new = *hosts;
        *hosts += 1;
        for old in 0..new {
            for (src, dst) in [(old, new), (new, old)] {
                self.links.push(Link {
                    src: NodeId::Host(src),
                    dst: NodeId::Host(dst),
                    latency: CROSSBAR_LAT,
                    rate_bps: 0,
                });
            }
        }
    }

    /// The crossbar link `src → dst`. Host `hi` appends its links after
    /// the `hi * (hi - 1)` of hosts `0..hi`, as the pair `lo → hi`,
    /// `hi → lo` for each earlier host `lo`.
    fn crossbar_link(src: HostId, dst: HostId) -> LinkId {
        let (lo, hi) = (src.0.min(dst.0), src.0.max(dst.0));
        LinkId(hi * (hi - 1) + 2 * lo + u32::from(src.0 == hi))
    }

    fn add_link(&mut self, src: NodeId, dst: NodeId, base_lat: SimDuration) -> LinkId {
        let forward = if matches!(src, NodeId::Switch(_)) {
            SWITCH_FORWARD
        } else {
            SimDuration::ZERO
        };
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src,
            dst,
            latency: base_lat + forward,
            rate_bps: self.spec.rate_bps(),
        });
        id
    }

    /// Wires host `h` to switch `sw` (both directions), recording the
    /// up/down links in host order.
    fn wire_host(&mut self, h: u32, sw: u32) {
        let up = self.add_link(NodeId::Host(h), NodeId::Switch(sw), HOST_LINK_LAT);
        let down = self.add_link(NodeId::Switch(sw), NodeId::Host(h), HOST_LINK_LAT);
        debug_assert_eq!(self.host_up.len(), h as usize);
        self.host_up.push(up);
        self.host_down.push(down);
    }

    fn build_leaf_spine(spec: TopologySpec, hosts: u32, leaves: u32, spines: u32) -> Topology {
        let mut t = Self::new_shell(spec);
        // Switch ids: leaves first (0..leaves), then spines.
        t.switches = leaves + spines;
        let hosts_per_leaf = hosts / leaves;
        for h in 0..hosts {
            t.wire_host(h, h / hosts_per_leaf);
        }
        let mut leaf_up = Vec::with_capacity((leaves * spines) as usize);
        let mut spine_down = vec![LinkId(u32::MAX); (spines * leaves) as usize];
        for l in 0..leaves {
            for s in 0..spines {
                leaf_up.push(t.add_link(NodeId::Switch(l), NodeId::Switch(leaves + s), TRUNK_LAT));
                spine_down[(s * leaves + l) as usize] =
                    t.add_link(NodeId::Switch(leaves + s), NodeId::Switch(l), TRUNK_LAT);
            }
        }
        t.routing = Routing::LeafSpine {
            hosts_per_leaf,
            spines,
            leaf_up,
            spine_down,
        };
        t
    }

    fn build_fat_tree(spec: TopologySpec, k: u32) -> Topology {
        let mut t = Self::new_shell(spec);
        let half = k / 2;
        let pods = k;
        let edges = half; // edge switches per pod
        let aggs = half; // aggregation switches per pod
        let cores = half * half;
        // Switch ids: per pod [edges then aggs], then cores.
        // pod p: edge e -> p*(edges+aggs)+e ; agg a -> p*(edges+aggs)+edges+a
        // core (a, j) -> pods*(edges+aggs) + a*half + j
        t.switches = pods * (edges + aggs) + cores;
        let edge_sw = |p: u32, e: u32| p * (edges + aggs) + e;
        let agg_sw = |p: u32, a: u32| p * (edges + aggs) + edges + a;
        let core_sw = |a: u32, j: u32| pods * (edges + aggs) + a * half + j;
        // Hosts: half per edge switch, pods*edges*half total, numbered in
        // (pod, edge, slot) order.
        let mut h = 0;
        for p in 0..pods {
            for e in 0..edges {
                for _slot in 0..half {
                    t.wire_host(h, edge_sw(p, e));
                    h += 1;
                }
            }
        }
        let mut edge_up = Vec::with_capacity((pods * edges * aggs) as usize);
        let mut agg_down = vec![LinkId(u32::MAX); (pods * aggs * edges) as usize];
        for p in 0..pods {
            for e in 0..edges {
                for a in 0..aggs {
                    edge_up.push(t.add_link(
                        NodeId::Switch(edge_sw(p, e)),
                        NodeId::Switch(agg_sw(p, a)),
                        TRUNK_LAT,
                    ));
                    agg_down[(((p * aggs) + a) * edges + e) as usize] = t.add_link(
                        NodeId::Switch(agg_sw(p, a)),
                        NodeId::Switch(edge_sw(p, e)),
                        TRUNK_LAT,
                    );
                }
            }
        }
        let mut agg_up = Vec::with_capacity((pods * aggs * half) as usize);
        let mut core_down = vec![LinkId(u32::MAX); (cores * pods) as usize];
        for p in 0..pods {
            for a in 0..aggs {
                for j in 0..half {
                    agg_up.push(t.add_link(
                        NodeId::Switch(agg_sw(p, a)),
                        NodeId::Switch(core_sw(a, j)),
                        TRUNK_LAT,
                    ));
                    core_down[((a * half + j) * pods + p) as usize] = t.add_link(
                        NodeId::Switch(core_sw(a, j)),
                        NodeId::Switch(agg_sw(p, a)),
                        TRUNK_LAT,
                    );
                }
            }
        }
        t.routing = Routing::FatTree {
            k,
            edge_up,
            agg_down,
            agg_up,
            core_down,
        };
        t
    }

    /// The spec the fabric was built from.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.spec.hosts()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> u32 {
        self.switches
    }

    /// Every directed link, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// One link's descriptor.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The host's uplink into its first-hop switch.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not a host of this fabric, or on the `p2p`
    /// crossbar, whose hosts have no switch port.
    pub fn host_uplink(&self, h: HostId) -> LinkId {
        self.host_up[h.0 as usize]
    }

    /// The downlink delivering into host `h`.
    ///
    /// # Panics
    ///
    /// Same contract as [`Topology::host_uplink`].
    pub fn host_downlink(&self, h: HostId) -> LinkId {
        self.host_down[h.0 as usize]
    }

    /// The ECMP-selected route for one flow — a pure function of
    /// `(fabric, src, dst, key)`: identical on every thread, every run.
    ///
    /// Equivalent to `ecmp::select(key, &mut self.equal_cost_routes(..))`
    /// but allocation-free; the equivalence is property-tested.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a host of this fabric, or if
    /// `src == dst` (loopback never reaches the wire).
    pub fn route(&self, src: HostId, dst: HostId, key: FlowKey) -> Route {
        self.route_by(src, dst, || key)
    }

    /// [`Topology::route`], building the flow key only when the pair has
    /// more than one equal-cost route: a single route (every crossbar
    /// pair) needs no hash.
    ///
    /// # Panics
    ///
    /// Same contract as [`Topology::route`].
    pub fn route_by(&self, src: HostId, dst: HostId, key: impl FnOnce() -> FlowKey) -> Route {
        let n = self.fanout(src, dst);
        let idx = if n == 1 { 0 } else { ecmp::index(key(), n) };
        self.route_indexed(src, dst, idx)
    }

    /// Number of equal-cost routes between two hosts.
    fn fanout(&self, src: HostId, dst: HostId) -> usize {
        assert_ne!(src, dst, "loopback route");
        match &self.routing {
            Routing::Crossbar => 1,
            Routing::LeafSpine {
                hosts_per_leaf,
                spines,
                ..
            } => {
                if src.0 / hosts_per_leaf == dst.0 / hosts_per_leaf {
                    1
                } else {
                    *spines as usize
                }
            }
            Routing::FatTree { k, .. } => {
                let half = k / 2;
                let per_pod = half * half;
                let (ps, es) = (src.0 / per_pod, (src.0 % per_pod) / half);
                let (pd, ed) = (dst.0 / per_pod, (dst.0 % per_pod) / half);
                if ps == pd && es == ed {
                    1
                } else if ps == pd {
                    half as usize
                } else {
                    (half * half) as usize
                }
            }
        }
    }

    /// The `idx`-th route of the canonical equal-cost set (`idx` must be
    /// `< fanout(src, dst)`).
    fn route_indexed(&self, src: HostId, dst: HostId, idx: usize) -> Route {
        if let Routing::Crossbar = self.routing {
            return Route::of(&[Self::crossbar_link(src, dst)]);
        }
        let up = self.host_uplink(src);
        let down = self.host_downlink(dst);
        match &self.routing {
            Routing::Crossbar => unreachable!("returned above"),
            Routing::LeafSpine {
                hosts_per_leaf,
                spines,
                leaf_up,
                spine_down,
            } => {
                let ls = src.0 / hosts_per_leaf;
                let ld = dst.0 / hosts_per_leaf;
                if ls == ld {
                    return Route::of(&[up, down]);
                }
                let s = idx as u32;
                let leaves = self.num_hosts() / hosts_per_leaf;
                Route::of(&[
                    up,
                    leaf_up[(ls * spines + s) as usize],
                    spine_down[(s * leaves + ld) as usize],
                    down,
                ])
            }
            Routing::FatTree {
                k,
                edge_up,
                agg_down,
                agg_up,
                core_down,
            } => {
                let half = k / 2;
                let per_pod = half * half;
                let (ps, es) = (src.0 / per_pod, (src.0 % per_pod) / half);
                let (pd, ed) = (dst.0 / per_pod, (dst.0 % per_pod) / half);
                if ps == pd && es == ed {
                    return Route::of(&[up, down]);
                }
                if ps == pd {
                    let a = idx as u32;
                    return Route::of(&[
                        up,
                        edge_up[((ps * half + es) * half + a) as usize],
                        agg_down[((ps * half + a) * half + ed) as usize],
                        down,
                    ]);
                }
                let (a, j) = (idx as u32 / half, idx as u32 % half);
                Route::of(&[
                    up,
                    edge_up[((ps * half + es) * half + a) as usize],
                    agg_up[((ps * half + a) * half + j) as usize],
                    core_down[((a * half + j) * (*k) + pd) as usize],
                    agg_down[((pd * half + a) * half + ed) as usize],
                    down,
                ])
            }
        }
    }

    /// Every equal-cost route between two hosts, in canonical
    /// (lexicographic) order. `route` always returns a member of this
    /// set. Intended for tests, defense sweeps and fabric inspection —
    /// the hot path uses [`Topology::route`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Topology::route`].
    pub fn equal_cost_routes(&self, src: HostId, dst: HostId) -> Vec<Route> {
        (0..self.fanout(src, dst))
            .map(|i| self.route_indexed(src, dst, i))
            .collect()
    }

    /// A one-line human summary of the fabric.
    pub fn describe(&self) -> String {
        format!(
            "{} ({} hosts, {} switches, {} directed links, {:.1}:1 oversubscription)",
            self.spec.canonical(),
            self.num_hosts(),
            self.num_switches(),
            self.links.len(),
            self.spec.oversubscription(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;

    fn connected(t: &Topology, r: &Route, src: HostId, dst: HostId) {
        assert!(!r.is_empty());
        let first = t.link(r.links()[0]);
        assert_eq!(first.src, NodeId::Host(src.0));
        let last = t.link(*r.links().last().expect("non-empty"));
        assert_eq!(last.dst, NodeId::Host(dst.0));
        for w in r.links().windows(2) {
            assert_eq!(
                t.link(w[0]).dst,
                t.link(w[1]).src,
                "hops must chain through shared nodes"
            );
        }
    }

    #[test]
    fn crossbar_routes_are_one_ideal_hop() {
        let t = Topology::from_spec("p2p:hosts=4").expect("build");
        assert_eq!(t.num_hosts(), 4);
        assert_eq!(t.num_switches(), 0);
        assert_eq!(t.links().len(), 4 * 3);
        for s in 0..4u32 {
            for d in 0..4u32 {
                if s == d {
                    continue;
                }
                let r = t.route(
                    HostId(s),
                    HostId(d),
                    FlowKey::new(HostId(s), HostId(d), 1, 2),
                );
                assert_eq!(r.len(), 1);
                connected(&t, &r, HostId(s), HostId(d));
                assert_eq!(t.equal_cost_routes(HostId(s), HostId(d)), vec![r]);
                let link = t.link(r.links()[0]);
                assert!(link.is_ideal());
                assert_eq!(link.latency, SimDuration::from_nanos(700));
            }
        }
    }

    #[test]
    fn crossbar_grows_without_moving_links() {
        let mut grown = Topology::crossbar(0);
        for _ in 0..5 {
            grown.add_crossbar_host();
        }
        let built = Topology::from_spec("p2p:hosts=5").expect("build");
        assert_eq!(grown.links(), built.links());
        assert_eq!(grown.spec(), built.spec());
        // Host 2's links kept their ids when hosts 3 and 4 arrived.
        assert_eq!(Topology::crossbar(3).links(), &built.links()[..6]);
    }

    #[test]
    #[should_panic(expected = "no port for another host")]
    fn fixed_fabrics_do_not_grow() {
        Topology::from_spec("fat-tree:k=2")
            .expect("build")
            .add_crossbar_host();
    }

    #[test]
    fn leaf_spine_structure_and_routes() {
        let t = Topology::from_spec("leaf-spine:hosts=16,leaves=4,spines=2").expect("build");
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.num_switches(), 6);
        // 16 host cables + 4*2 trunks, both directions.
        assert_eq!(t.links().len(), 16 * 2 + 8 * 2);
        // Same leaf: two hops, one path.
        let r = t.route(
            HostId(0),
            HostId(1),
            FlowKey::new(HostId(0), HostId(1), 1, 2),
        );
        assert_eq!(r.len(), 2);
        connected(&t, &r, HostId(0), HostId(1));
        // Cross leaf: four hops, |spines| equal-cost paths.
        let ec = t.equal_cost_routes(HostId(0), HostId(5));
        assert_eq!(ec.len(), 2);
        for r in &ec {
            assert_eq!(r.len(), 4);
            connected(&t, r, HostId(0), HostId(5));
        }
        let chosen = t.route(
            HostId(0),
            HostId(5),
            FlowKey::new(HostId(0), HostId(5), 3, 4),
        );
        assert!(ec.contains(&chosen));
    }

    #[test]
    fn fat_tree_structure_and_routes() {
        let t = Topology::from_spec("fat-tree:k=4").expect("build");
        assert_eq!(t.num_hosts(), 16);
        // 4 pods * 4 switches + 4 cores.
        assert_eq!(t.num_switches(), 20);
        // Same edge: 2 hops.
        let r = t.route(
            HostId(0),
            HostId(1),
            FlowKey::new(HostId(0), HostId(1), 1, 2),
        );
        assert_eq!(r.len(), 2);
        // Same pod, cross edge: 4 hops, k/2 paths.
        let ec = t.equal_cost_routes(HostId(0), HostId(2));
        assert_eq!(ec.len(), 2);
        for r in &ec {
            assert_eq!(r.len(), 4);
            connected(&t, r, HostId(0), HostId(2));
        }
        // Cross pod: 6 hops, (k/2)^2 paths.
        let ec = t.equal_cost_routes(HostId(0), HostId(15));
        assert_eq!(ec.len(), 4);
        for r in &ec {
            assert_eq!(r.len(), 6);
            connected(&t, r, HostId(0), HostId(15));
        }
        // Every chosen route is drawn from the equal-cost set.
        for qp in 0..16u32 {
            let chosen = t.route(
                HostId(0),
                HostId(15),
                FlowKey::new(HostId(0), HostId(15), qp, qp + 1),
            );
            assert!(ec.contains(&chosen));
        }
    }

    #[test]
    fn canonical_route_order_is_sorted() {
        for spec in ["leaf-spine:hosts=16,leaves=4,spines=4", "fat-tree:k=4"] {
            let t = Topology::from_spec(spec).expect("build");
            let ec = t.equal_cost_routes(HostId(0), HostId(t.num_hosts() - 1));
            let mut sorted = ec.clone();
            sorted.sort_unstable();
            assert_eq!(ec, sorted, "{spec}: enumeration must be canonical");
        }
    }

    #[test]
    fn describe_mentions_scale() {
        let t = Topology::build(
            &TopologySpec::parse("leaf-spine:hosts=256,leaves=8,spines=4").expect("parse"),
        );
        let d = t.describe();
        assert!(d.contains("256 hosts"), "{d}");
        assert!(d.contains("8.0:1"), "{d}");
    }
}
