//! The simulated fabric: hosts, their RNICs, the wire between them (a
//! [`Topology`], by default the `p2p` crossbar), and the global event
//! loop that also dispatches application callbacks.

use crate::wr::WorkRequest;
use ragnar_chaos::{FabricStats, FaultInjector, FaultPlan, InjectorStats};
use ragnar_telemetry::profile::{self, Phase};
use ragnar_telemetry::{ActorId, ArgValue, Metrics, Target, Tracer};
use ragnar_topology::{
    FabricRuntime, FlowKey, LinkId, NodeId, PfcPortConfig, PortCounters, Route, Topology,
    SWITCH_FORWARD,
};
use rnic_model::{
    AccessFlags, ArenaStats, Cqe, DeviceProfile, HostMemory, MrEntry, MrKey, NicAction,
    NicCounters, NicEvent, PacketArena, PacketHandle, PdId, PostError, QpConfig, QpNum,
    QpTransport, RecvWqe, ResetError, Rnic, TrafficClass,
};
use sim_core::{CalendarQueue, Digest64, FxHashMap, ReferenceQueue, SimDuration, SimRng, SimTime};

/// Typed error for the user-facing [`Simulation`] and [`Ctx`] verbs APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbsError {
    /// The handle references a host that was never added to the fabric.
    UnknownHost(HostId),
    /// The handle references a QP the NIC does not know.
    UnknownQp,
    /// The QP is in the Error state; recover it with
    /// [`Simulation::recover_qp`] first.
    QpInError,
    /// The send queue is full (`max_send_queue` WQEs outstanding).
    SendQueueFull,
    /// An offset/length pair fell outside a memory region.
    MrOutOfBounds {
        /// Requested offset into the region.
        offset: u64,
        /// The region's registered length.
        len: u64,
    },
    /// [`Simulation::recover_qp`] called on a QP that is not in Error.
    NotInErrorState,
    /// Flushed completions are still draining; run the simulation and
    /// poll them before recovering the QP.
    CompletionsPending,
}

impl core::fmt::Display for VerbsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerbsError::UnknownHost(h) => write!(f, "unknown host {}", h.0),
            VerbsError::UnknownQp => f.write_str("unknown queue pair"),
            VerbsError::QpInError => f.write_str("queue pair is in the Error state"),
            VerbsError::SendQueueFull => f.write_str("send queue full"),
            VerbsError::MrOutOfBounds { offset, len } => {
                write!(f, "offset {offset} beyond MR length {len}")
            }
            VerbsError::NotInErrorState => f.write_str("queue pair is not in the Error state"),
            VerbsError::CompletionsPending => {
                f.write_str("flushed completions still pending; drain the CQ before recovery")
            }
        }
    }
}

impl std::error::Error for VerbsError {}

impl From<PostError> for VerbsError {
    fn from(e: PostError) -> Self {
        match e {
            PostError::UnknownQp => VerbsError::UnknownQp,
            PostError::SendQueueFull => VerbsError::SendQueueFull,
            PostError::QpInError => VerbsError::QpInError,
        }
    }
}

impl From<ResetError> for VerbsError {
    fn from(e: ResetError) -> Self {
        match e {
            ResetError::UnknownQp => VerbsError::UnknownQp,
            ResetError::NotInError => VerbsError::NotInErrorState,
            ResetError::CompletionsPending => VerbsError::CompletionsPending,
        }
    }
}

/// Selects the event-queue backend of a [`Simulation`].
///
/// Both backends are observationally equivalent (sim-core's differential
/// suite proves it); the calendar queue is the fast default, while the
/// reference heap remains available for A/B validation runs and
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical calendar queue — the hot path (default).
    #[default]
    Calendar,
    /// `BinaryHeap`-based ordering oracle.
    Reference,
}

/// The world's event queue, dispatching to the selected backend.
///
/// An enum rather than a generic parameter so that [`Ctx`] and [`App`]
/// stay object-safe and non-generic for every experiment binary.
#[derive(Debug)]
enum WorldQueue {
    Calendar(CalendarQueue<WorldEvent>),
    Reference(ReferenceQueue<WorldEvent>),
}

impl WorldQueue {
    fn new(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Calendar => WorldQueue::Calendar(CalendarQueue::new()),
            QueueBackend::Reference => WorldQueue::Reference(ReferenceQueue::new()),
        }
    }

    fn now(&self) -> SimTime {
        match self {
            WorldQueue::Calendar(q) => q.now(),
            WorldQueue::Reference(q) => q.now(),
        }
    }

    fn schedule(&mut self, at: SimTime, event: WorldEvent) {
        match self {
            WorldQueue::Calendar(q) => {
                q.schedule(at, event);
            }
            WorldQueue::Reference(q) => {
                q.schedule(at, event);
            }
        }
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, WorldEvent)> {
        match self {
            WorldQueue::Calendar(q) => q.pop_before(deadline),
            WorldQueue::Reference(q) => q.pop_before(deadline),
        }
    }

    fn events_processed(&self) -> u64 {
        match self {
            WorldQueue::Calendar(q) => q.events_processed(),
            WorldQueue::Reference(q) => q.events_processed(),
        }
    }
}

/// Identifies an application registered with the [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub usize);

/// Identifies a flow label allocator result.
pub use rnic_model::FlowId;
pub use rnic_model::HostId;

/// A registered memory region handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrHandle {
    /// Host owning the region.
    pub host: HostId,
    /// Remote key.
    pub key: MrKey,
    /// Base virtual address (2 MiB aligned, as with huge pages).
    pub base_va: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Owning protection domain.
    pub pd: PdId,
}

impl MrHandle {
    /// Address of `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the region length.
    pub fn addr(&self, offset: u64) -> u64 {
        assert!(
            offset <= self.len,
            "offset {offset} beyond MR length {}",
            self.len
        );
        self.base_va + offset
    }

    /// Fallible variant of [`MrHandle::addr`].
    ///
    /// # Errors
    ///
    /// Returns [`VerbsError::MrOutOfBounds`] instead of panicking when
    /// `offset` exceeds the region length.
    pub fn try_addr(&self, offset: u64) -> Result<u64, VerbsError> {
        if offset > self.len {
            return Err(VerbsError::MrOutOfBounds {
                offset,
                len: self.len,
            });
        }
        Ok(self.base_va + offset)
    }
}

/// A connected queue-pair endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpHandle {
    /// Local host.
    pub host: HostId,
    /// Local QP number.
    pub qp: QpNum,
    /// Remote host.
    pub peer_host: HostId,
    /// Remote QP number.
    pub peer_qp: QpNum,
}

/// Options for [`Simulation::connect`].
#[derive(Debug, Clone, Copy)]
pub struct ConnectOptions {
    /// Traffic class for both directions.
    pub tc: TrafficClass,
    /// Flow label for both directions.
    pub flow: FlowId,
    /// Max outstanding send WQEs per endpoint.
    pub max_send_queue: usize,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            tc: TrafficClass::new(0),
            flow: FlowId(0),
            max_send_queue: 256,
        }
    }
}

/// Events of the global loop.
#[derive(Debug)]
enum WorldEvent {
    Nic(HostId, NicEvent),
    Deliver {
        host: HostId,
        pkt: PacketHandle,
        /// The fault injector flipped payload bits in flight; the
        /// receiver's ICRC check discards the packet on arrival.
        corrupt: bool,
    },
    /// A packet reaching a queued link of its route. Ideal links (the
    /// `p2p` crossbar's) are crossed inline and never cost a `Hop`.
    Hop {
        route: Route,
        hop: u8,
        pkt: PacketHandle,
        corrupt: bool,
    },
    Timer {
        app: AppId,
        token: u64,
    },
    AppCqe {
        app: AppId,
        host: HostId,
        cqe: Cqe,
    },
}

/// An event-driven application (attacker, victim, or measurement driver).
///
/// Applications never block: they react to completions and timers through
/// the [`Ctx`] handle. Share results with the harness through
/// `Rc<RefCell<…>>` captured at construction.
pub trait App {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// Called when a completion arrives on a QP owned by this app.
    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, host: HostId, cqe: Cqe) {
        let _ = (ctx, host, cqe);
    }

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

/// State shared by the fabric: NICs, the wire, allocators.
struct World {
    queue: WorldQueue,
    /// Slab arena every in-flight wire packet lives in. Events, egress
    /// queues and chaos injection pass [`PacketHandle`]s; the packet's
    /// bytes are written once at build time and read in place until the
    /// NIC that consumes it takes or frees the slot.
    arena: PacketArena,
    /// Reusable action buffer: NIC dispatches append into this instead
    /// of allocating a fresh `Vec` per event (the queue swap removed the
    /// per-event cell allocation; this removes the per-event action
    /// allocation).
    scratch: Vec<NicAction>,
    nics: Vec<Rnic>,
    qp_owner: FxHashMap<(HostId, QpNum), AppId>,
    next_qp: u32,
    next_mr: u32,
    next_pd: u32,
    next_va: Vec<u64>,
    orphan_cqes: Vec<(HostId, Cqe)>,
    stopped: bool,
    rng: SimRng,
    /// Deterministic fault injector evaluated at every link crossing; `None`
    /// (the default) leaves the fabric untouched and every RNG stream
    /// bit-identical to a chaos-free run.
    injector: Option<FaultInjector>,
    /// Fabric-wide packet conservation ledger for the chaos oracles.
    fabric: FabricStats,
    /// The wire: link state and counters over the installed
    /// [`Topology`] (the growing `p2p` crossbar unless
    /// [`Simulation::with_topology`] picked another).
    fabric_rt: FabricRuntime,
    /// Telemetry handles captured from the run context at construction;
    /// disabled handles cost one branch per use.
    tracer: Tracer,
    metrics: Metrics,
    /// Order-sensitive digest folded over every processed event — the
    /// fingerprint that proves two runs executed the same event order.
    order: Digest64,
    /// Online invariant monitors, configured by the run context at
    /// construction; `None` (the default) keeps the event loop's hot
    /// path monitor-free.
    monitors: Option<crate::monitors::MonitorState>,
}

/// Run-track lane ids (tids under the GLOBAL pid): lane 0 is the run
/// itself and `1 + link` carries per-port PFC pause spans.
const PFC_LANE_BASE: u32 = 1;

const HUGE_PAGE: u64 = 2 * 1024 * 1024;

impl World {
    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn nic_ref(&self, host: HostId) -> &Rnic {
        &self.nics[host.0 as usize]
    }

    fn nic_mut(&mut self, host: HostId) -> &mut Rnic {
        &mut self.nics[host.0 as usize]
    }

    /// Folds one processed event into the order digest; the digest is
    /// therefore a fingerprint of the execution order itself.
    fn fold_event(&mut self, at: SimTime, event: &WorldEvent) {
        let d = &mut self.order;
        d.fold(at.as_picos());
        match event {
            WorldEvent::Nic(host, _) => {
                d.fold(1);
                d.fold(u64::from(host.0));
            }
            WorldEvent::Deliver { host, corrupt, .. } => {
                d.fold(2);
                d.fold(u64::from(host.0));
                d.fold(u64::from(*corrupt));
            }
            WorldEvent::Hop { hop, pkt, .. } => {
                d.fold(3);
                d.fold(u64::from(*hop));
                d.fold(u64::from(self.arena.hot(*pkt).dst.0));
            }
            WorldEvent::Timer { app, token } => {
                d.fold(4);
                d.fold(app.0 as u64);
                d.fold(*token);
            }
            WorldEvent::AppCqe { app, host, .. } => {
                d.fold(5);
                d.fold(app.0 as u64);
                d.fold(u64::from(host.0));
            }
        }
    }

    /// Routes a NIC event into the NIC and applies the resulting
    /// actions, reusing the world's scratch buffer.
    fn dispatch_nic(&mut self, host: HostId, event: NicEvent) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let now = self.now();
        // Split field borrows: the NIC slot and the packet arena are
        // disjoint parts of the world.
        let nic = &mut self.nics[host.0 as usize];
        nic.handle_into(now, event, &mut self.arena, &mut scratch);
        self.apply_actions(host, &mut scratch);
        self.scratch = scratch;
    }

    fn apply_actions(&mut self, host: HostId, actions: &mut Vec<NicAction>) {
        for action in actions.drain(..) {
            match action {
                NicAction::Schedule { at, event } => {
                    self.queue.schedule(at, WorldEvent::Nic(host, event));
                }
                NicAction::Transmit { at, pkt } => self.transmit(at, pkt),
                NicAction::Complete { at, cqe } => {
                    if self.metrics.enabled() {
                        self.metrics
                            .record_ns("qp_completion_ns", cqe.latency().as_nanos_f64());
                        self.metrics.counter_add(
                            if cqe.status.is_ok() {
                                "cqe.success"
                            } else {
                                "cqe.failed"
                            },
                            1,
                        );
                    }
                    if self.tracer.enabled(Target::RdmaVerbs) {
                        self.tracer.instant(
                            Target::RdmaVerbs,
                            "cqe",
                            ActorId::qp(host.0, cqe.qp.0),
                            at.as_picos(),
                            &[
                                ("status", ArgValue::Str(cqe.status.name())),
                                ("opcode", ArgValue::Str(cqe.opcode.name())),
                            ],
                        );
                    }
                    match self.qp_owner.get(&(host, cqe.qp)) {
                        Some(&app) => {
                            self.queue
                                .schedule(at, WorldEvent::AppCqe { app, host, cqe });
                        }
                        None => self.orphan_cqes.push((host, cqe)),
                    }
                }
            }
        }
    }

    /// Puts one packet on the wire at `at`: routes it, then sends it on
    /// to its first hop. The flow key is built only for a pair with more
    /// than one equal-cost route, so a crossbar packet never reads its
    /// cold fields.
    fn transmit(&mut self, at: SimTime, pkt: PacketHandle) {
        self.fabric.sent += 1;
        let (src, dst) = {
            let hot = self.arena.hot(pkt);
            (hot.src, hot.dst)
        };
        let arena = &self.arena;
        let route = self.fabric_rt.topology().route_by(src, dst, || {
            let p = arena.get(pkt);
            FlowKey::new(src, dst, p.src_qp.0, p.dst_qp.0)
        });
        self.forward(at, route, 0, pkt, false);
    }

    /// Sends a packet on to hop `hop` of its route at `at`: delivery past
    /// the last hop, an inline [`World::cross`] for an ideal link (it has
    /// no state to wait on, so the crossing can be decided now), else a
    /// `Hop` event for when the packet reaches the link.
    fn forward(&mut self, at: SimTime, route: Route, hop: u8, pkt: PacketHandle, corrupt: bool) {
        match route.hop(usize::from(hop)) {
            None => {
                let host = self.arena.hot(pkt).dst;
                self.queue
                    .schedule(at, WorldEvent::Deliver { host, pkt, corrupt });
            }
            Some(link) if self.fabric_rt.topology().link(link).is_ideal() => {
                self.cross(at, route, hop, pkt, corrupt);
            }
            Some(_) => {
                let event = WorldEvent::Hop {
                    route,
                    hop,
                    pkt,
                    corrupt,
                };
                self.queue.schedule(at, event);
            }
        }
    }

    /// Resets an Error-state QP back to Ready and marks the transition
    /// in the trace (see [`Simulation::recover_qp`]).
    fn recover_qp(&mut self, qp: QpHandle) -> Result<(), VerbsError> {
        let nic = self
            .nics
            .get_mut(qp.host.0 as usize)
            .ok_or(VerbsError::UnknownHost(qp.host))?;
        nic.reset_qp(qp.qp)?;
        if self.tracer.enabled(Target::RdmaVerbs) {
            let now = self.now();
            self.tracer.instant(
                Target::RdmaVerbs,
                "qp_recover",
                ActorId::qp(qp.host.0, qp.qp.0),
                now.as_picos(),
                &[],
            );
        }
        Ok(())
    }

    /// Whether `qp` sits in the Error state (`false` for stale handles).
    fn qp_in_error(&self, qp: QpHandle) -> bool {
        self.nics
            .get(qp.host.0 as usize)
            .and_then(|nic| nic.qp_transport(qp.qp))
            == Some(QpTransport::Error)
    }

    /// Records a drop at the physical link it happened on. The link's
    /// ledger always advances; the per-NIC wire counters only when the
    /// link actually touches that NIC — a drop three hops into the
    /// fabric is neither the sender's egress loss nor the receiver's
    /// ingress loss, so endpoint counters must not claim it.
    fn note_link_drop(&mut self, link: LinkId, src: HostId, dst: HostId) {
        self.fabric.dropped += 1;
        self.fabric_rt.note_link_drop(link);
        let l = *self.fabric_rt.topology().link(link);
        if l.src == NodeId::Host(src.0) {
            self.nic_mut(src).counters_mut().wire_tx_dropped += 1;
        }
        if l.dst == NodeId::Host(dst.0) {
            if let Some(nic) = self.nics.get_mut(dst.0 as usize) {
                nic.counters_mut().wire_rx_dropped += 1;
            }
        }
    }

    /// Carries a packet across hop `hop` of its route, starting at `now`:
    /// the chaos verdict, serialization behind the link's queue and
    /// pause gate (an ideal link has neither), then [`World::forward`]
    /// to the next hop or delivery.
    fn cross(&mut self, now: SimTime, route: Route, hop: u8, pkt: PacketHandle, corrupt: bool) {
        let link = route.hop(hop as usize).expect("hop within route");
        let (src, dst, tc, wire_bytes, msg_id) = {
            let hot = self.arena.hot(pkt);
            (hot.src, hot.dst, hot.tc, hot.wire_bytes, hot.msg_id)
        };
        let mut corrupt = corrupt;
        let mut start = now;
        let mut duplicate = false;
        if let Some(inj) = self.injector.as_mut() {
            let _p = profile::enter(Phase::Chaos);
            // The endpoint-pair plan selectors apply, evaluated once per
            // traversed link, so loss compounds along the path the way
            // real fabrics lose packets.
            let v = inj.verdict(now, src, dst);
            if v.drop {
                self.note_link_drop(link, src, dst);
                self.arena.free(pkt);
                return;
            }
            corrupt |= v.corrupt;
            start += v.extra_delay;
            // Duplication happens where the packet enters the fabric;
            // honoring it at every hop would multiply copies.
            duplicate = v.duplicate && hop == 0;
        }
        let bytes = u64::from(wire_bytes);
        let rt = &mut self.fabric_rt;
        let out = rt.traverse(start, &route, hop as usize, bytes, tc);
        // Capture the pause window while the runtime borrow is live:
        // the span below needs to know when the port resumes.
        let pause_win = out.paused_upstream.map(|up| (up, rt.paused_until(up, tc)));
        if let Some((up, until)) = pause_win {
            if self.metrics.enabled() {
                self.metrics.counter_add("fabric.pfc_xoff", 1);
            }
            if self.tracer.enabled(Target::RdmaVerbs) {
                self.tracer.instant(
                    Target::RdmaVerbs,
                    "pfc_xoff",
                    ActorId::device(src.0),
                    now.as_picos(),
                    &[
                        ("paused_link", u64::from(up.0).into()),
                        ("congested_link", u64::from(link.0).into()),
                        ("tc", u64::from(tc.0).into()),
                    ],
                );
                // Per-port pause/resume span on the run track: one
                // `pfc_pause` span per XOFF, lasting until the pause
                // gate reopens. Rendered as thread `port<link>` of the
                // run process.
                self.tracer.span(
                    Target::RdmaVerbs,
                    "pfc_pause",
                    ActorId {
                        host: ActorId::GLOBAL_HOST,
                        lane: PFC_LANE_BASE + up.0,
                    },
                    now.as_picos(),
                    until.as_picos().saturating_sub(now.as_picos()),
                    &[
                        ("congested_link", u64::from(link.0).into()),
                        ("tc", u64::from(tc.0).into()),
                    ],
                );
            }
        }
        if self.tracer.enabled(Target::RdmaVerbs) {
            self.tracer.span(
                Target::RdmaVerbs,
                "wire_hop",
                ActorId::device(src.0),
                start.as_picos(),
                (out.arrival - start).as_picos(),
                &[
                    ("link", u64::from(link.0).into()),
                    ("hop", u64::from(hop).into()),
                    ("dst", u64::from(dst.0).into()),
                    ("msg_id", msg_id.into()),
                ],
            );
        }
        if duplicate {
            // Copy-on-duplication: the slot is cloned (payload bytes
            // stay shared behind the refcount) only when chaos actually
            // forks the packet. The copy crosses the link again: a queued
            // link serializes it behind the original, and an ideal one,
            // which has no queue, holds it one switch latency.
            self.fabric.duplicates += 1;
            let mut dup_at = self
                .fabric_rt
                .traverse(start, &route, hop as usize, bytes, tc)
                .arrival;
            if self.fabric_rt.topology().link(link).is_ideal() {
                dup_at += SWITCH_FORWARD;
            }
            let dup = self.arena.clone_entry(pkt);
            self.forward(dup_at, route, hop + 1, dup, corrupt);
        }
        self.forward(out.arrival, route, hop + 1, pkt, corrupt);
    }

    fn post_send(&mut self, qp: QpHandle, wr: WorkRequest) -> Result<(), PostError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let now = self.now();
        let res = self
            .nic_mut(qp.host)
            .post_send_into(now, qp.qp, wr.into_wqe(), &mut scratch);
        if res.is_ok() {
            self.apply_actions(qp.host, &mut scratch);
        }
        scratch.clear();
        self.scratch = scratch;
        res
    }

    /// [`World::post_send`] behind the stale-host check that both verbs
    /// front ends ([`Simulation`] and [`Ctx`]) need.
    fn checked_post_send(&mut self, qp: QpHandle, wr: WorkRequest) -> Result<(), VerbsError> {
        if qp.host.0 as usize >= self.nics.len() {
            return Err(VerbsError::UnknownHost(qp.host));
        }
        self.post_send(qp, wr).map_err(VerbsError::from)
    }

    fn post_recv(&mut self, qp: QpHandle, recv: RecvWqe) -> Result<(), VerbsError> {
        let nic = self
            .nics
            .get_mut(qp.host.0 as usize)
            .ok_or(VerbsError::UnknownHost(qp.host))?;
        nic.post_recv(qp.qp, recv).map_err(VerbsError::from)
    }
}

/// The top-level simulation: fabric plus applications.
///
/// # Examples
///
/// One 64 B write between two CX-5 hosts, checked end to end:
///
/// ```
/// use rdma_verbs::{ConnectOptions, Simulation, WorkRequest};
/// use rnic_model::{AccessFlags, DeviceProfile};
/// use sim_core::SimTime;
///
/// let mut sim = Simulation::new(42);
/// let a = sim.add_host(DeviceProfile::connectx5());
/// let b = sim.add_host(DeviceProfile::connectx5());
/// let pd_a = sim.alloc_pd(a);
/// let pd_b = sim.alloc_pd(b);
/// let src = sim.register_mr(a, pd_a, 4096, AccessFlags::remote_all());
/// let dst = sim.register_mr(b, pd_b, 4096, AccessFlags::remote_all());
/// let (qa, _qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
///
/// sim.write_memory(a, src.addr(0), b"ping");
/// sim.post_send(qa, WorkRequest::write(1, src.addr(0), dst.addr(64), dst.key, 4))
///     .expect("post");
/// sim.run_until(SimTime::from_millis(1));
///
/// assert_eq!(sim.read_memory(b, dst.addr(64), 4), b"ping");
/// let done = sim.take_completions();
/// assert_eq!(done.len(), 1);
/// assert!(done[0].1.status.is_ok());
/// ```
pub struct Simulation {
    world: World,
    apps: Vec<Option<Box<dyn App>>>,
    started_count: usize,
}

impl Simulation {
    /// Creates an empty `p2p` crossbar, which [`Simulation::add_host`]
    /// grows, with a deterministic seed and the default (calendar) queue
    /// backend.
    pub fn new(seed: u64) -> Self {
        Self::with_backend(seed, QueueBackend::default())
    }

    /// [`Simulation::new`] with an explicit queue backend — used by
    /// differential validation runs and the event-core benchmarks.
    /// Results are identical across backends for a given seed.
    pub fn with_backend(seed: u64, backend: QueueBackend) -> Self {
        let ctx = ragnar_telemetry::RunCtx::current();
        Simulation {
            world: World {
                queue: WorldQueue::new(backend),
                arena: PacketArena::new(),
                scratch: Vec::new(),
                nics: Vec::new(),
                qp_owner: FxHashMap::default(),
                next_qp: 1,
                next_mr: 1,
                next_pd: 1,
                next_va: Vec::new(),
                orphan_cqes: Vec::new(),
                stopped: false,
                rng: SimRng::derive(seed, "world"),
                injector: None,
                fabric: FabricStats::default(),
                fabric_rt: FabricRuntime::new(Topology::crossbar(0), None),
                tracer: ctx.tracer,
                metrics: ctx.metrics,
                order: Digest64::new(),
                monitors: ctx.monitors.map(crate::monitors::MonitorState::new),
            },
            apps: Vec::new(),
            started_count: 0,
        }
    }

    /// Creates a fabric routed over `topo` instead of the `p2p` crossbar:
    /// on a multi-hop fabric packets take ECMP-selected per-flow paths,
    /// serialize behind per-link queues, and (when `pfc` is set)
    /// generate PFC back-pressure at congested switch egresses.
    ///
    /// Host *n* added via [`Simulation::add_host`] occupies slot *n* of
    /// the topology; add no more hosts than the topology declares (only
    /// a `p2p` crossbar grows past its spec).
    pub fn with_topology(seed: u64, topo: Topology, pfc: Option<PfcPortConfig>) -> Self {
        let mut sim = Self::new(seed);
        sim.world.fabric_rt = FabricRuntime::new(topo, pfc);
        sim
    }

    /// The installed topology. Always `Some`: a simulation built without
    /// one runs on the `p2p` crossbar.
    pub fn topology(&self) -> Option<&Topology> {
        Some(self.world.fabric_rt.topology())
    }

    /// Per-link ingress counters. Always `Some`, as for
    /// [`Simulation::topology`].
    ///
    /// # Panics
    ///
    /// Panics if `link` is not a link of the topology.
    pub fn link_counters(&self, link: LinkId) -> Option<&PortCounters> {
        Some(self.world.fabric_rt.counters(link))
    }

    /// Silences one fabric link's transmitter for a traffic class — the
    /// per-port enforcement half of a PFC defense. No-op on an ideal
    /// link (the `p2p` crossbar's), which has no pause gate.
    pub fn pause_link(&mut self, link: LinkId, tc: TrafficClass, duration: SimDuration) {
        let until = self.world.now() + duration;
        self.world.fabric_rt.pause_link(link, tc, until);
    }

    /// Adds a host with the given RNIC profile; hosts are numbered from 0.
    ///
    /// # Panics
    ///
    /// Panics when a fixed (non-`p2p`) topology has no port left.
    pub fn add_host(&mut self, profile: DeviceProfile) -> HostId {
        let rt = &mut self.world.fabric_rt;
        if self.world.nics.len() == rt.topology().num_hosts() as usize {
            rt.add_crossbar_host();
        }
        let id = HostId(self.world.nics.len() as u32);
        // Derive per-NIC seeds from the world RNG stream deterministically.
        let seed = self.world.rng.next_u64();
        self.world.nics.push(Rnic::new(id, profile, seed));
        self.world.next_va.push(HUGE_PAGE);
        id
    }

    /// Allocates a protection domain on `host`.
    pub fn alloc_pd(&mut self, host: HostId) -> PdId {
        let _ = host;
        let pd = PdId(self.world.next_pd);
        self.world.next_pd += 1;
        pd
    }

    /// Registers a 2 MiB-aligned MR of `len` bytes on `host` (the paper's
    /// setup pins MRs on 2 MB huge pages).
    pub fn register_mr(
        &mut self,
        host: HostId,
        pd: PdId,
        len: u64,
        access: AccessFlags,
    ) -> MrHandle {
        let key = MrKey(self.world.next_mr);
        self.world.next_mr += 1;
        let base = self.world.next_va[host.0 as usize];
        let span = len.div_ceil(HUGE_PAGE).max(1) * HUGE_PAGE;
        self.world.next_va[host.0 as usize] = base + span;
        let entry = MrEntry {
            key,
            pd,
            base_va: base,
            len,
            access,
        };
        self.world.nic_mut(host).register_mr(entry);
        MrHandle {
            host,
            key,
            base_va: base,
            len,
            pd,
        }
    }

    /// Deregisters an MR; returns whether it existed.
    pub fn deregister_mr(&mut self, mr: MrHandle) -> bool {
        self.world.nic_mut(mr.host).deregister_mr(mr.key)
    }

    /// Connects an RC queue pair between two hosts, returning both
    /// endpoints (`a` first).
    pub fn connect(
        &mut self,
        a: HostId,
        pd_a: PdId,
        b: HostId,
        pd_b: PdId,
        opts: ConnectOptions,
    ) -> (QpHandle, QpHandle) {
        let qa = QpNum(self.world.next_qp);
        let qb = QpNum(self.world.next_qp + 1);
        self.world.next_qp += 2;
        self.world.nic_mut(a).create_qp(
            qa,
            QpConfig {
                pd: pd_a,
                tc: opts.tc,
                flow: opts.flow,
                peer_host: b,
                peer_qp: qb,
                max_send_queue: opts.max_send_queue,
            },
        );
        self.world.nic_mut(b).create_qp(
            qb,
            QpConfig {
                pd: pd_b,
                tc: opts.tc,
                flow: opts.flow,
                peer_host: a,
                peer_qp: qa,
                max_send_queue: opts.max_send_queue,
            },
        );
        (
            QpHandle {
                host: a,
                qp: qa,
                peer_host: b,
                peer_qp: qb,
            },
            QpHandle {
                host: b,
                qp: qb,
                peer_host: a,
                peer_qp: qa,
            },
        )
    }

    /// Applies ETS weights on a host's egress scheduler (`mlnx_qos`).
    pub fn set_ets_weights(&mut self, host: HostId, weights: [u32; TrafficClass::COUNT]) {
        self.world.nic_mut(host).set_ets_weights(weights);
    }

    /// Registers an application; its `on_start` runs when the simulation
    /// first advances.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        let id = AppId(self.apps.len());
        self.apps.push(Some(app));
        id
    }

    /// Routes completions of `qp` to `app`.
    pub fn own_qp(&mut self, app: AppId, qp: QpHandle) {
        self.world.qp_owner.insert((qp.host, qp.qp), app);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Immutable access to a host's NIC (counters, TPU, profile).
    pub fn nic(&self, host: HostId) -> &Rnic {
        self.world.nic_ref(host)
    }

    /// Mutable access to a host's NIC (defense knobs, instrumentation).
    pub fn nic_mut(&mut self, host: HostId) -> &mut Rnic {
        self.world.nic_mut(host)
    }

    /// Shorthand for a host's counters.
    pub fn counters(&self, host: HostId) -> &NicCounters {
        self.world.nic_ref(host).counters()
    }

    /// Writes into a host's memory.
    pub fn write_memory(&mut self, host: HostId, addr: u64, data: &[u8]) {
        self.world.nic_mut(host).memory_mut().write(addr, data);
    }

    /// Reads from a host's memory.
    pub fn read_memory(&self, host: HostId, addr: u64, len: u64) -> Vec<u8> {
        self.world.nic_ref(host).memory().read(addr, len)
    }

    /// A host's memory handle.
    pub fn memory_mut(&mut self, host: HostId) -> &mut HostMemory {
        self.world.nic_mut(host).memory_mut()
    }

    /// Installs a deterministic fault plan, replacing any previous one.
    /// The injector draws from its own RNG stream, so installing (or
    /// not installing) a plan never perturbs workload randomness.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        self.world.injector = Some(FaultInjector::new(plan.clone()));
    }

    /// Fabric-wide packet conservation ledger (sent, delivered, dropped,
    /// ICRC-discarded, duplicated). At quiescence
    /// `sent + duplicates == delivered + dropped + icrc_dropped`.
    pub fn fabric_stats(&self) -> FabricStats {
        self.world.fabric
    }

    /// Per-fault-kind injection counts, if a plan is installed.
    pub fn fault_stats(&self) -> Option<InjectorStats> {
        self.world.injector.as_ref().map(|inj| inj.stats())
    }

    /// Order-sensitive digest of every injection decision so far — equal
    /// digests mean bit-identical fault traces. `None` without a plan.
    pub fn fault_trace_digest(&self) -> Option<u64> {
        self.world.injector.as_ref().map(|inj| inj.trace_digest())
    }

    /// Whether `qp` sits in the Error state (fatal transport failure;
    /// posts are rejected until [`Simulation::recover_qp`]).
    pub fn qp_in_error(&self, qp: QpHandle) -> bool {
        self.world.qp_in_error(qp)
    }

    /// Resets an Error-state QP back to Ready — the simulator's stand-in
    /// for the verbs `ERR → RESET → INIT → RTR → RTS` modify-QP ladder.
    /// Flushed completions must be drained (run the simulation and poll
    /// the CQ) before recovery succeeds.
    ///
    /// # Errors
    ///
    /// [`VerbsError::UnknownHost`]/[`VerbsError::UnknownQp`] for stale
    /// handles, [`VerbsError::NotInErrorState`] for a healthy QP, and
    /// [`VerbsError::CompletionsPending`] while flushes are in flight.
    pub fn recover_qp(&mut self, qp: QpHandle) -> Result<(), VerbsError> {
        self.world.recover_qp(qp)
    }

    /// Posts a work request from outside any app (handy in tests and
    /// simple drivers).
    ///
    /// # Errors
    ///
    /// [`VerbsError::UnknownHost`] for a stale handle, otherwise the
    /// NIC's [`PostError`] mapped into [`VerbsError`].
    pub fn post_send(&mut self, qp: QpHandle, wr: WorkRequest) -> Result<(), VerbsError> {
        self.world.checked_post_send(qp, wr)
    }

    /// Posts a receive WQE.
    ///
    /// # Errors
    ///
    /// [`VerbsError::UnknownHost`] for a stale handle, otherwise the
    /// NIC's [`PostError`] mapped into [`VerbsError`].
    pub fn post_recv(&mut self, qp: QpHandle, recv: RecvWqe) -> Result<(), VerbsError> {
        self.world.post_recv(qp, recv)
    }

    /// Completions delivered on QPs not owned by any app, in delivery
    /// order. Draining.
    pub fn take_completions(&mut self) -> Vec<(HostId, Cqe)> {
        std::mem::take(&mut self.world.orphan_cqes)
    }

    /// Starts every app that has not yet run `on_start` (apps may be
    /// added mid-simulation; they start at the next `run_until`).
    fn start_apps(&mut self) {
        while self.started_count < self.apps.len() {
            let i = self.started_count;
            self.started_count += 1;
            self.with_app(AppId(i), |app, ctx| app.on_start(ctx));
        }
    }

    fn with_app(&mut self, id: AppId, f: impl FnOnce(&mut dyn App, &mut Ctx<'_>)) {
        let Some(mut app) = self.apps[id.0].take() else {
            return;
        };
        {
            let mut ctx = Ctx {
                world: &mut self.world,
                app: id,
            };
            f(app.as_mut(), &mut ctx);
        }
        self.apps[id.0] = Some(app);
    }

    /// Runs the event loop until `deadline` (inclusive), the stop flag, or
    /// queue exhaustion. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_apps();
        let mut processed = 0;
        while !self.world.stopped {
            let Some((at, event)) = self.world.queue.pop_before(deadline) else {
                break;
            };
            processed += 1;
            self.world.fold_event(at, &event);
            self.execute_event(at, event);
            if self.world.monitors.is_some() {
                self.observe_monitors(at);
            }
        }
        processed
    }

    /// Runs the online invariant monitors after one event: the O(1)
    /// per-event checks always, the O(state) checks on cadence. Out of
    /// line so the monitor-free hot loop pays one branch.
    #[cold]
    fn observe_monitors(&mut self, at: SimTime) {
        let w = &mut self.world;
        let Some(mon) = w.monitors.as_mut() else {
            return;
        };
        mon.observe_event(at, &w.metrics);
        if mon.cadence_due() {
            mon.check_state(&w.arena, &w.fabric, &w.nics, &w.metrics);
        }
    }

    /// Monitor violations observed so far under the `Log` policy
    /// (`None` when monitors are not installed; the stricter policies
    /// panic on the first violation instead of counting).
    pub fn monitor_violations(&self) -> Option<u64> {
        self.world.monitors.as_ref().map(|m| m.violations())
    }

    /// Skews the packet arena's allocation ledger without touching any
    /// slot — plants the exact inconsistency the arena monitor exists to
    /// catch. Test-only.
    #[doc(hidden)]
    pub fn debug_skew_arena_ledger(&mut self) {
        self.world.arena.debug_skew_ledger();
    }

    /// Records a phantom delivery in the fabric conservation ledger —
    /// more packets leaving than entered. Test-only.
    #[doc(hidden)]
    pub fn debug_skew_fabric_ledger(&mut self) {
        self.world.fabric.delivered += 1;
    }

    /// Forces a QP on `host` into an illegal state (`outstanding`
    /// past its configured bound). Test-only.
    #[doc(hidden)]
    pub fn debug_skew_qp(&mut self, host: HostId, qp: QpNum) {
        self.world.nic_mut(host).debug_skew_qp_outstanding(qp);
    }

    /// Dispatches one event popped at `at`.
    fn execute_event(&mut self, at: SimTime, event: WorldEvent) {
        let _p = profile::enter(Phase::Execute);
        match event {
            WorldEvent::Nic(host, ev) => {
                self.world.dispatch_nic(host, ev);
            }
            WorldEvent::Deliver { host, pkt, corrupt } => {
                if corrupt {
                    // The ICRC check rejects the mangled payload; the
                    // requester's retransmission timer recovers it —
                    // the slot is done the moment the check fails.
                    self.world.fabric.icrc_dropped += 1;
                    self.world.nic_mut(host).counters_mut().icrc_rx_dropped += 1;
                    self.world.arena.free(pkt);
                } else {
                    self.world.fabric.delivered += 1;
                    self.world
                        .dispatch_nic(host, NicEvent::IngressArrival { pkt });
                }
            }
            WorldEvent::Hop {
                route,
                hop,
                pkt,
                corrupt,
            } => self.world.cross(at, route, hop, pkt, corrupt),
            WorldEvent::Timer { app, token } => {
                self.with_app(app, |a, ctx| a.on_timer(ctx, token));
            }
            WorldEvent::AppCqe { app, host, cqe } => {
                self.with_app(app, |a, ctx| a.on_cqe(ctx, host, cqe));
            }
        }
    }

    /// Runs until the queue drains or an app calls [`Ctx::stop`].
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.world.queue.events_processed()
    }

    /// Allocation ledger of the packet arena: slots allocated and freed,
    /// chaos-driven duplications (the only packet copies a run ever
    /// pays), and the high-water mark of simultaneously live packets.
    pub fn packet_arena_stats(&self) -> ArenaStats {
        self.world.arena.stats()
    }

    /// Order-sensitive digest over every processed event `(timestamp,
    /// kind, principal)`. Bit-equal digests mean two runs executed the
    /// same event order — across queue backends, thread counts and
    /// monitors.
    pub fn order_digest(&self) -> u64 {
        self.world.order.value()
    }
}

// Kept only for `crates/bench/examples/perf`; delete at the next
// benchmark change.
#[doc(hidden)]
impl Simulation {
    pub fn run_until_workers(&mut self, deadline: SimTime, _workers: usize) -> u64 {
        self.run_until(deadline)
    }

    pub fn add_send_app(&mut self, app: Box<dyn App + Send>) -> AppId {
        self.add_app(app)
    }

    pub fn set_app_scope(&mut self, _app: AppId, _hosts: &[HostId]) {}

    pub fn coalesced_hops(&self) -> u64 {
        0
    }
}

impl Drop for Simulation {
    /// Folds this fabric's NIC counters into the ambient metrics
    /// registry, so every experiment — including ones that build their
    /// `Simulation` internally — contributes per-direction drop
    /// attribution and event-core churn without explicit plumbing.
    fn drop(&mut self) {
        let m = &self.world.metrics;
        if !m.enabled() {
            return;
        }
        m.counter_add("sim.events_processed", self.events_processed());
        m.counter_add("wire.dropped_packets", self.world.fabric.dropped);
        let pauses = self.world.fabric_rt.all_counters().iter();
        m.counter_add("fabric.pfc_pauses", pauses.map(|c| c.pauses_taken).sum());
        // One interned `nic.*` key per counter name for the whole
        // fabric, instead of a fresh format! per (host, counter) pair.
        let mut nic_keys = ragnar_telemetry::PrefixedInterner::new("nic.");
        for nic in &self.world.nics {
            for (name, v) in nic.counters().snapshot().metric_entries() {
                if v != 0 {
                    m.counter_add(nic_keys.get(name), v);
                }
            }
        }
    }
}

/// The capability handle passed to application callbacks.
pub struct Ctx<'a> {
    world: &'a mut World,
    app: AppId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Posts a work request.
    ///
    /// # Errors
    ///
    /// The NIC's [`PostError`] mapped into [`VerbsError`] (notably
    /// [`VerbsError::SendQueueFull`], which attack loops use for pacing,
    /// and [`VerbsError::QpInError`] after a fatal transport failure).
    pub fn post_send(&mut self, qp: QpHandle, wr: WorkRequest) -> Result<(), VerbsError> {
        self.world.checked_post_send(qp, wr)
    }

    /// Posts a receive WQE.
    ///
    /// # Errors
    ///
    /// The NIC's [`PostError`] mapped into [`VerbsError`].
    pub fn post_recv(&mut self, qp: QpHandle, recv: RecvWqe) -> Result<(), VerbsError> {
        self.world.post_recv(qp, recv)
    }

    /// Whether `qp` sits in the Error state.
    pub fn qp_in_error(&self, qp: QpHandle) -> bool {
        self.world.qp_in_error(qp)
    }

    /// Resets an Error-state QP back to Ready (see
    /// [`Simulation::recover_qp`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::recover_qp`].
    pub fn recover_qp(&mut self, qp: QpHandle) -> Result<(), VerbsError> {
        self.world.recover_qp(qp)
    }

    /// Fires `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.world.now() + delay;
        let app = self.app;
        self.world
            .queue
            .schedule(at, WorldEvent::Timer { app, token });
    }

    /// Stops the event loop after the current callback returns.
    pub fn stop(&mut self) {
        self.world.stopped = true;
    }

    /// A host's counters.
    pub fn counters(&self, host: HostId) -> &NicCounters {
        self.world.nic_ref(host).counters()
    }

    /// A host's NIC.
    pub fn nic(&self, host: HostId) -> &Rnic {
        self.world.nic_ref(host)
    }

    /// Writes into a host's memory.
    pub fn write_memory(&mut self, host: HostId, addr: u64, data: &[u8]) {
        self.world.nic_mut(host).memory_mut().write(addr, data);
    }

    /// Reads from a host's memory.
    pub fn read_memory(&self, host: HostId, addr: u64, len: u64) -> Vec<u8> {
        self.world.nic_ref(host).memory().read(addr, len)
    }

    /// Deterministic app-level randomness, drawn from the world stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    /// Pauses a traffic class on a host's egress for `duration` — the
    /// enforcement half of a PFC defense app.
    pub fn pause_traffic_class(&mut self, host: HostId, tc: TrafficClass, duration: SimDuration) {
        let until = self.now() + duration;
        self.world.nic_mut(host).pause_tc(tc, until);
    }

    /// The installed topology.
    pub fn topology(&self) -> &Topology {
        self.world.fabric_rt.topology()
    }

    /// Per-link ingress counters — what a per-port watchdog app samples.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not a link of the topology.
    pub fn link_counters(&self, link: LinkId) -> &PortCounters {
        self.world.fabric_rt.counters(link)
    }

    /// Silences one fabric link's transmitter for a traffic class — the
    /// per-port enforcement half of a PFC defense app. No-op on an ideal
    /// link.
    pub fn pause_link(&mut self, link: LinkId, tc: TrafficClass, duration: SimDuration) {
        let until = self.now() + duration;
        self.world.fabric_rt.pause_link(link, tc, until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_model::{CqeStatus, NakReason, Opcode};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn two_hosts(
        kind: fn() -> DeviceProfile,
    ) -> (Simulation, QpHandle, QpHandle, MrHandle, MrHandle) {
        let mut sim = Simulation::new(7);
        let a = sim.add_host(kind());
        let b = sim.add_host(kind());
        let pd_a = sim.alloc_pd(a);
        let pd_b = sim.alloc_pd(b);
        let mr_a = sim.register_mr(a, pd_a, 2 * 1024 * 1024, AccessFlags::remote_all());
        let mr_b = sim.register_mr(b, pd_b, 2 * 1024 * 1024, AccessFlags::remote_all());
        let (qa, qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
        (sim, qa, qb, mr_a, mr_b)
    }

    #[test]
    fn read_round_trip_returns_completion() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.write_memory(mr_b.host, mr_b.addr(128), b"secret-data");
        sim.post_send(
            qa,
            WorkRequest::read(9, 0x100000, mr_b.addr(128), mr_b.key, 11),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        let done = sim.take_completions();
        assert_eq!(done.len(), 1);
        let (host, cqe) = done[0];
        assert_eq!(host, qa.host);
        assert_eq!(cqe.wr_id, 9);
        assert_eq!(cqe.opcode, Opcode::Read);
        assert!(cqe.status.is_ok());
        assert!(cqe.latency() > SimDuration::ZERO);
    }

    #[test]
    fn read_places_data_in_local_buffer() {
        let (mut sim, qa, _qb, mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.write_memory(mr_b.host, mr_b.addr(100), b"remote-bytes");
        sim.post_send(
            qa,
            WorkRequest::read(1, mr_a.addr(0), mr_b.addr(100), mr_b.key, 12),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(
            sim.read_memory(mr_a.host, mr_a.addr(0), 12),
            b"remote-bytes"
        );
    }

    #[test]
    fn multi_segment_read_places_all_data() {
        let (mut sim, qa, _qb, mr_a, mr_b) = two_hosts(DeviceProfile::connectx6);
        let payload: Vec<u8> = (0..12_000u32).map(|i| (i % 241) as u8).collect();
        sim.write_memory(mr_b.host, mr_b.addr(0), &payload);
        sim.post_send(
            qa,
            WorkRequest::read(
                1,
                mr_a.addr(0),
                mr_b.addr(0),
                mr_b.key,
                payload.len() as u64,
            ),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(
            sim.read_memory(mr_a.host, mr_a.addr(0), payload.len() as u64),
            payload
        );
    }

    #[test]
    fn write_moves_data() {
        let (mut sim, qa, _qb, mr_a, mr_b) = two_hosts(DeviceProfile::connectx4);
        sim.write_memory(mr_a.host, mr_a.addr(0), b"hello rdma");
        sim.post_send(
            qa,
            WorkRequest::write(1, mr_a.addr(0), mr_b.addr(4096), mr_b.key, 10),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(
            sim.read_memory(mr_b.host, mr_b.addr(4096), 10),
            b"hello rdma"
        );
        assert!(sim.take_completions()[0].1.status.is_ok());
    }

    #[test]
    fn multi_segment_write_round_trip() {
        let (mut sim, qa, _qb, mr_a, mr_b) = two_hosts(DeviceProfile::connectx6);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        sim.write_memory(mr_a.host, mr_a.addr(0), &payload);
        sim.post_send(
            qa,
            WorkRequest::write(
                2,
                mr_a.addr(0),
                mr_b.addr(0),
                mr_b.key,
                payload.len() as u64,
            ),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(
            sim.read_memory(mr_b.host, mr_b.addr(0), payload.len() as u64),
            payload
        );
        let done = sim.take_completions();
        assert_eq!(done.len(), 1, "one completion for the whole message");
    }

    #[test]
    fn protection_violation_yields_remote_error() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        // Read beyond the MR bounds.
        sim.post_send(
            qa,
            WorkRequest::read(3, 0x100000, mr_b.addr(0) + mr_b.len - 4, mr_b.key, 64),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        let done = sim.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].1.status,
            CqeStatus::RemoteError(NakReason::OutOfBounds)
        );
        assert_eq!(sim.nic(mr_b.host).counters().naks_sent, 1);
    }

    #[test]
    fn send_queue_capacity_enforced() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host(DeviceProfile::connectx5());
        let b = sim.add_host(DeviceProfile::connectx5());
        let pd_a = sim.alloc_pd(a);
        let pd_b = sim.alloc_pd(b);
        let mr_b = sim.register_mr(b, pd_b, 1 << 20, AccessFlags::remote_all());
        let (qa, _qb) = sim.connect(
            a,
            pd_a,
            b,
            pd_b,
            ConnectOptions {
                max_send_queue: 4,
                ..ConnectOptions::default()
            },
        );
        for i in 0..4 {
            sim.post_send(qa, WorkRequest::read(i, 0x1000, mr_b.addr(0), mr_b.key, 64))
                .expect("within capacity");
        }
        let err = sim
            .post_send(qa, WorkRequest::read(9, 0x1000, mr_b.addr(0), mr_b.key, 64))
            .expect_err("queue is full");
        assert_eq!(err, VerbsError::SendQueueFull);
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.take_completions().len(), 4);
        // After completion there is room again.
        sim.post_send(
            qa,
            WorkRequest::read(10, 0x1000, mr_b.addr(0), mr_b.key, 64),
        )
        .expect("capacity restored");
    }

    #[test]
    fn atomic_fetch_add_returns_old_value() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.memory_mut(mr_b.host).write_u64(mr_b.addr(256), 41);
        sim.post_send(
            qa,
            WorkRequest::fetch_add(4, 0x1000, mr_b.addr(256), mr_b.key, 1),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        let done = sim.take_completions();
        assert_eq!(done[0].1.atomic_old_value, 41);
        assert_eq!(sim.nic(mr_b.host).memory().read_u64(mr_b.addr(256)), 42);
    }

    #[test]
    fn atomic_cmp_swap_behaviour() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx6);
        sim.memory_mut(mr_b.host).write_u64(mr_b.addr(0), 7);
        sim.post_send(
            qa,
            WorkRequest::cmp_swap(5, 0x1000, mr_b.addr(0), mr_b.key, 7, 100),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.take_completions()[0].1.atomic_old_value, 7);
        assert_eq!(sim.nic(mr_b.host).memory().read_u64(mr_b.addr(0)), 100);
    }

    #[test]
    fn send_recv_round_trip() {
        let (mut sim, qa, qb, mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.write_memory(mr_a.host, mr_a.addr(0), b"two-sided");
        sim.post_recv(
            qb,
            RecvWqe {
                wr_id: 77,
                local_addr: mr_b.addr(512),
                len: 64,
            },
        )
        .expect("post recv");
        sim.post_send(qa, WorkRequest::send(6, mr_a.addr(0), 9))
            .expect("post send");
        sim.run_until(SimTime::from_millis(1));
        let done = sim.take_completions();
        // Send completion at requester + receive completion at responder.
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|(_, c)| c.is_recv && c.wr_id == 77));
        assert_eq!(sim.read_memory(mr_b.host, mr_b.addr(512), 9), b"two-sided");
    }

    #[test]
    fn send_without_recv_naks() {
        let (mut sim, qa, _qb, mr_a, _mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.post_send(qa, WorkRequest::send(8, mr_a.addr(0), 16))
            .expect("post send");
        sim.run_until(SimTime::from_millis(1));
        let done = sim.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(
            done[0].1.status,
            CqeStatus::RemoteError(NakReason::ReceiveNotPosted)
        );
    }

    #[test]
    fn pd_mismatch_rejected() {
        let mut sim = Simulation::new(3);
        let a = sim.add_host(DeviceProfile::connectx5());
        let b = sim.add_host(DeviceProfile::connectx5());
        let pd_a = sim.alloc_pd(a);
        let pd_b = sim.alloc_pd(b);
        let pd_other = sim.alloc_pd(b);
        // MR in a different PD than the QP.
        let mr_b = sim.register_mr(b, pd_other, 1 << 20, AccessFlags::remote_all());
        let (qa, _qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
        sim.post_send(qa, WorkRequest::read(1, 0x1000, mr_b.addr(0), mr_b.key, 8))
            .expect("post");
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(
            sim.take_completions()[0].1.status,
            CqeStatus::RemoteError(NakReason::PdMismatch)
        );
    }

    struct PingPong {
        qp: QpHandle,
        remote: MrHandle,
        remaining: u32,
        latencies: Rc<RefCell<Vec<f64>>>,
    }

    impl App for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.post_send(
                self.qp,
                WorkRequest::read(0, 0x1000, self.remote.addr(0), self.remote.key, 64),
            )
            .expect("post");
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, _host: HostId, cqe: Cqe) {
            self.latencies
                .borrow_mut()
                .push(cqe.latency().as_nanos_f64());
            self.remaining -= 1;
            if self.remaining == 0 {
                ctx.stop();
            } else {
                ctx.post_send(
                    self.qp,
                    WorkRequest::read(0, 0x1000, self.remote.addr(0), self.remote.key, 64),
                )
                .expect("post");
            }
        }
    }

    #[test]
    fn app_driven_ping_pong() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        let latencies = Rc::new(RefCell::new(Vec::new()));
        let app = sim.add_app(Box::new(PingPong {
            qp: qa,
            remote: mr_b,
            remaining: 50,
            latencies: Rc::clone(&latencies),
        }));
        sim.own_qp(app, qa);
        sim.run();
        let lat = latencies.borrow();
        assert_eq!(lat.len(), 50);
        // Steady-state unloaded latency must be stable: skip the cold-start
        // samples (MPT miss, row open, MR context load), then the spread
        // stays within jitter range.
        let warm = &lat[5..];
        let min = warm.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = warm.iter().cloned().fold(0.0, f64::max);
        assert!(min > 0.0);
        assert!(
            max - min < 500.0,
            "unloaded latency spread too wide: {min}..{max}"
        );
        // And the cold first access is visibly more expensive.
        assert!(lat[0] > min, "cold start should exceed steady state");
    }

    #[test]
    fn timer_delivery() {
        struct TimerApp {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl App for TimerApp {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_micros(5), 1);
                ctx.set_timer(SimDuration::from_micros(2), 2);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
                if token == 1 {
                    ctx.stop();
                }
            }
        }
        let mut sim = Simulation::new(5);
        sim.add_host(DeviceProfile::connectx4());
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.add_app(Box::new(TimerApp {
            fired: Rc::clone(&fired),
        }));
        sim.run();
        assert_eq!(*fired.borrow(), vec![2, 1]);
    }

    #[test]
    fn backends_agree_end_to_end() {
        // The same workload on both queue backends must produce
        // bit-identical completion timestamps and event counts — the
        // whole-simulation corollary of sim-core's differential suite.
        let run = |backend: QueueBackend| {
            let mut sim = Simulation::with_backend(7, backend);
            let a = sim.add_host(DeviceProfile::connectx5());
            let b = sim.add_host(DeviceProfile::connectx5());
            let pd_a = sim.alloc_pd(a);
            let pd_b = sim.alloc_pd(b);
            let mr_b = sim.register_mr(b, pd_b, 2 * 1024 * 1024, AccessFlags::remote_all());
            let (qa, _qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
            for i in 0..40 {
                sim.post_send(
                    qa,
                    WorkRequest::read(i, 0x1000, mr_b.addr(64 * (i % 16)), mr_b.key, 64 + 8 * i),
                )
                .expect("post");
            }
            sim.run_until(SimTime::from_millis(2));
            let stamps: Vec<(u64, u64)> = sim
                .take_completions()
                .iter()
                .map(|(_, c)| (c.wr_id, c.completed_at.as_picos()))
                .collect();
            (stamps, sim.events_processed())
        };
        assert_eq!(run(QueueBackend::Calendar), run(QueueBackend::Reference));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx4);
            for i in 0..20 {
                sim.post_send(
                    qa,
                    WorkRequest::read(i, 0x1000, mr_b.addr(64 * i), mr_b.key, 64),
                )
                .expect("post");
            }
            sim.run_until(SimTime::from_millis(1));
            sim.take_completions()
                .iter()
                .map(|(_, c)| c.completed_at.as_picos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// A leaf-spine fabric with one connected QP pair between hosts in
    /// different leaves (the cross-fabric case: 4-hop routes).
    fn fabric_pair(
        seed: u64,
        pfc: Option<ragnar_topology::PfcPortConfig>,
    ) -> (Simulation, QpHandle, MrHandle) {
        let topo = Topology::from_spec("leaf-spine:hosts=8,leaves=2,spines=2").expect("build");
        let mut sim = Simulation::with_topology(seed, topo, pfc);
        let hosts: Vec<HostId> = (0..8)
            .map(|_| sim.add_host(DeviceProfile::connectx5()))
            .collect();
        let (a, b) = (hosts[0], hosts[7]);
        let pd_a = sim.alloc_pd(a);
        let pd_b = sim.alloc_pd(b);
        let mr_b = sim.register_mr(b, pd_b, 2 * 1024 * 1024, AccessFlags::remote_all());
        let (qa, _qb) = sim.connect(a, pd_a, b, pd_b, ConnectOptions::default());
        (sim, qa, mr_b)
    }

    #[test]
    fn fabric_read_round_trip() {
        let (mut sim, qa, mr_b) = fabric_pair(11, None);
        sim.write_memory(mr_b.host, mr_b.addr(0), b"cross-fabric");
        sim.post_send(
            qa,
            WorkRequest::read(1, 0x100000, mr_b.addr(0), mr_b.key, 12),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        let done = sim.take_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].1.status.is_ok());
        assert_eq!(sim.read_memory(qa.host, 0x100000, 12), b"cross-fabric");
        // The route's links carried traffic; counters prove the packets
        // crossed the spine tier rather than a magic direct wire.
        let topo = sim.topology().expect("topology installed");
        let route = topo.route(
            qa.host,
            mr_b.host,
            FlowKey::new(qa.host, mr_b.host, qa.qp.0, qa.peer_qp.0),
        );
        assert_eq!(route.len(), 4);
        for link in route.links() {
            assert!(
                sim.link_counters(*link).expect("counters").rx_packets > 0,
                "link {link:?} saw no packets"
            );
        }
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let run = |seed| {
            let (mut sim, qa, mr_b) = fabric_pair(seed, None);
            for i in 0..20 {
                sim.post_send(
                    qa,
                    WorkRequest::read(i, 0x100000, mr_b.addr(64 * i), mr_b.key, 64),
                )
                .expect("post");
            }
            sim.run_until(SimTime::from_millis(1));
            sim.take_completions()
                .iter()
                .map(|(_, c)| c.completed_at.as_picos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "per-NIC jitter must still vary by seed");
    }

    /// A plan with one fault on every link for `[0, until)`.
    fn plan_of(kind: ragnar_chaos::FaultKind, until: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::empty(9);
        plan.events.push(ragnar_chaos::FaultEvent {
            link: ragnar_chaos::LinkSelector::Any,
            from: SimTime::ZERO,
            until,
            kind,
        });
        plan
    }

    fn total_loss() -> FaultPlan {
        plan_of(
            ragnar_chaos::FaultKind::LossBurst { rate: 1.0 },
            SimTime::MAX,
        )
    }

    #[test]
    fn fabric_loss_attributes_to_the_dropping_link() {
        let (mut sim, qa, mr_b) = fabric_pair(5, None);
        sim.install_fault_plan(&total_loss());
        sim.post_send(
            qa,
            WorkRequest::read(1, 0x100000, mr_b.addr(0), mr_b.key, 64),
        )
        .expect("post");
        sim.run_until(SimTime::from_micros(200));
        let dropped = sim.fabric_stats().dropped;
        assert!(dropped > 0);
        // Total loss fires at the first hop: every drop happens on the
        // sender's uplink and is attributed there — and to the sender's
        // NIC, but never to the receiver, which the packets never reached.
        let uplink = sim.topology().expect("topo").host_uplink(qa.host);
        assert_eq!(
            sim.link_counters(uplink).expect("counters").dropped,
            dropped
        );
        assert_eq!(sim.counters(qa.host).wire_tx_dropped, dropped);
        assert_eq!(sim.counters(mr_b.host).wire_rx_dropped, 0);
    }

    #[test]
    fn crossbar_drops_count_on_both_endpoints_and_the_link() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.install_fault_plan(&plan_of(
            ragnar_chaos::FaultKind::LossBurst { rate: 1.0 },
            SimTime::from_micros(150),
        ));
        sim.post_send(
            qa,
            WorkRequest::read(1, 0x100000, mr_b.addr(0), mr_b.key, 64),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(5));
        let done = sim.take_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].1.status.is_ok(), "retransmission recovered");
        let dropped = sim.fabric_stats().dropped;
        assert!(dropped > 0, "the outage dropped nothing");
        let topo = sim.topology().expect("crossbar");
        let route = topo.route(qa.host, mr_b.host, FlowKey::new(qa.host, mr_b.host, 0, 0));
        assert_eq!(route.len(), 1);
        let link = route.links()[0];
        assert_eq!(topo.link(link).src, NodeId::Host(qa.host.0));
        // Only the requester sent during the outage: each drop is on its
        // one link to the responder, and charged to both of its ends.
        assert_eq!(sim.link_counters(link).expect("counters").dropped, dropped);
        assert_eq!(sim.counters(qa.host).wire_tx_dropped, dropped);
        assert_eq!(sim.counters(mr_b.host).wire_rx_dropped, dropped);
        assert!(sim.fabric_stats().conserved());
    }

    /// Runs the event loop dry, returning the time and host of every
    /// `Deliver` it executes.
    fn deliveries(sim: &mut Simulation) -> Vec<(SimTime, HostId)> {
        let mut out = Vec::new();
        while let Some((at, event)) = sim.world.queue.pop_before(SimTime::MAX) {
            if let WorldEvent::Deliver { host, .. } = event {
                out.push((at, host));
            }
            sim.world.fold_event(at, &event);
            sim.execute_event(at, event);
        }
        out
    }

    #[test]
    fn crossbar_duplicate_trails_the_original_by_200_ns() {
        let (mut sim, qa, _qb, mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.install_fault_plan(&plan_of(
            ragnar_chaos::FaultKind::Duplicate { prob: 1.0 },
            SimTime::MAX,
        ));
        sim.post_send(
            qa,
            WorkRequest::write(1, mr_a.addr(0), mr_b.addr(0), mr_b.key, 64),
        )
        .expect("post");
        let at_responder: Vec<SimTime> = deliveries(&mut sim)
            .into_iter()
            .filter(|&(_, host)| host == mr_b.host)
            .map(|(at, _)| at)
            .collect();
        // The one request packet arrives twice, 200 ns apart.
        assert_eq!(at_responder.len(), 2, "{at_responder:?}");
        assert_eq!(at_responder[1] - at_responder[0], SWITCH_FORWARD);
        let stats = sim.fabric_stats();
        assert!(stats.duplicates > 0);
        assert!(stats.conserved(), "{stats:?}");
        assert_eq!(sim.take_completions().len(), 1);
    }

    #[test]
    fn fabric_mid_path_chaos_drops_skip_endpoint_counters() {
        let (mut sim, qa, mr_b) = fabric_pair(5, None);
        sim.install_fault_plan(&plan_of(
            ragnar_chaos::FaultKind::LossBurst { rate: 0.4 },
            SimTime::from_secs(1),
        ));
        for i in 0..50 {
            sim.post_send(
                qa,
                WorkRequest::read(i, 0x100000, mr_b.addr(0), mr_b.key, 64),
            )
            .expect("post");
        }
        sim.run_until(SimTime::from_millis(5));
        let topo_links = sim.topology().expect("topo").links().len();
        let ledger: u64 = (0..topo_links)
            .map(|l| {
                sim.link_counters(LinkId(l as u32))
                    .expect("counters")
                    .dropped
            })
            .sum();
        assert_eq!(
            ledger,
            sim.fabric_stats().dropped,
            "every drop must land on exactly one physical link"
        );
        // Per-hop verdicts mean some drops occur mid-fabric; those are
        // visible in the ledger but charged to neither endpoint NIC.
        let endpoint_attributed = sim.counters(qa.host).wire_tx_dropped
            + sim.counters(mr_b.host).wire_tx_dropped
            + sim.counters(qa.host).wire_rx_dropped
            + sim.counters(mr_b.host).wire_rx_dropped;
        assert!(
            endpoint_attributed < ledger,
            "mid-path drops leaked into endpoint counters: {endpoint_attributed} vs {ledger}"
        );
    }

    #[test]
    fn fabric_pfc_backpressure_pauses_and_still_completes() {
        let pfc = ragnar_topology::PfcPortConfig {
            xoff_bytes: 4096,
            pause: SimDuration::from_micros(1),
        };
        let (mut sim, qa, mr_b) = fabric_pair(13, Some(pfc));
        // Saturate the shared path: large reads stream responses
        // through the spine toward host 0.
        for i in 0..64 {
            sim.post_send(
                qa,
                WorkRequest::read(i, 0x100000, mr_b.addr(0), mr_b.key, 16 * 1024),
            )
            .expect("post");
        }
        sim.run_until(SimTime::from_millis(20));
        let done = sim.take_completions();
        assert_eq!(done.len(), 64, "PFC must stall, not lose, traffic");
        assert!(done.iter().all(|(_, c)| c.status.is_ok()));
        let topo_links = sim.topology().expect("topo").links().len();
        let pauses: u64 = (0..topo_links)
            .map(|l| {
                sim.link_counters(LinkId(l as u32))
                    .expect("counters")
                    .pauses_taken
            })
            .sum();
        assert!(pauses > 0, "saturated fabric should emit XOFF");
        assert_eq!(sim.fabric_stats().dropped, 0);
    }

    #[test]
    fn counters_track_traffic() {
        let (mut sim, qa, _qb, _mr_a, mr_b) = two_hosts(DeviceProfile::connectx5);
        sim.post_send(
            qa,
            WorkRequest::read(1, 0x1000, mr_b.addr(0), mr_b.key, 1024),
        )
        .expect("post");
        sim.run_until(SimTime::from_millis(1));
        let a = sim.counters(qa.host);
        assert_eq!(a.requests_per_opcode[Opcode::Read.index()], 1);
        assert!(a.tx_packets >= 1);
        assert!(a.rx_bytes >= 1024);
        let b = sim.counters(mr_b.host);
        assert_eq!(b.responder_ops_per_opcode[Opcode::Read.index()], 1);
        assert_eq!(b.tpu_lookups, 1);
        assert!(b.snapshot().tx_bytes > 0);
    }
}
