//! Conservative-sync parallel execution for [`Simulation`] — the
//! rdma-verbs instantiation of the `pdes` engine design.
//!
//! # How a round works
//!
//! With lookahead `L` (the minimum cross-host propagation latency —
//! fiber link latency in fabric mode, wire propagation plus switch
//! latency in the legacy point-to-point world), every already-queued
//! event in the window `[t0, t0 + L)` is *causally independent across
//! hosts*: nothing a NIC does at time `t` inside the window can reach
//! another NIC before the window ends. Each round therefore:
//!
//! 1. pops the window's batch off the real queue, remembering each
//!    event's real insertion sequence number;
//! 2. partitions per-NIC events (`Nic`, `Deliver`) onto worker *groups*
//!    — hosts connected by a shared app footprint are merged so a group
//!    is touched by exactly one worker;
//! 3. workers replay their group's events against the checked-out
//!    [`Rnic`]s in `(time, seq)` order, *cooking* every side effect
//!    (schedules, transmits, completions) into an ordered output stream
//!    instead of applying it;
//! 4. the coordinator merges raw events (hops, timers, app CQEs) and
//!    worker streams on one heap keyed by `(time, seq)` — real
//!    sequence numbers for batch events, *virtual* ones (assigned in
//!    merge order, exactly as the global queue would have) for events
//!    generated mid-round — and applies everything in that order.
//!
//! The merge key reproduces the sequential engine's `(time, insertion
//! seq)` order bit-for-bit, so event-order digests, RNG draws, fault
//! traces, counters and artifact bytes are identical at every worker
//! count; the sequential path stays the differential oracle.
//!
//! # Send apps and barriers
//!
//! Apps registered via [`Simulation::add_send_app`] ship to the worker
//! that owns their host group, exactly like NICs: their batch
//! `Timer`/`AppCqe` events partition onto the group, the worker runs the
//! callbacks against a restricted [`Ctx`] (checked-out NICs, cooked
//! timers and doorbells — no world RNG, no fabric-wide controls), and
//! completions on their QPs materialize worker-side with no
//! synchronization at all.
//!
//! Coordinator apps ([`Simulation::add_app`]) keep full capabilities —
//! the world RNG, `stop`, fabric controls — at a price: a batch
//! `Timer`/`AppCqe` for such an app *barriers* its host group. The
//! group's worker stops before the callback's `(time, seq)` key and
//! every remaining event runs coordinator-side in plain merge order.
//! Completions on QPs owned by a coordinator app raise the same barrier
//! mid-window, since they materialize an `AppCqe` at the completion
//! time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use ragnar_telemetry::profile::{self, Phase};
use ragnar_telemetry::Target;
use rnic_model::{Cqe, NicAction, NicEvent, Packet, PacketArena, PacketHandle, QpNum, Rnic};
use sim_core::{FxHashMap, SimDuration, SimTime};

use super::{
    App, AppBox, AppId, Ctx, CtxWorld, HostId, QpHandle, RoundCtl, RoundItem, RoundKeyed,
    Simulation, VerbsError, WorkRequest, WorkerBackend, World, WorldEvent,
};

/// One partition group's slice of a round's window batch, in real
/// `(time, seq)` order.
type GroupEntries = Vec<(SimTime, u64, HostId, WPayload)>;

/// Worker-side merge key: `(time, tier, n)` where tier 0 carries real
/// batch sequence numbers and tier 1 the worker's own emit counter.
/// Batch events always sort before same-timestamp generated events,
/// exactly like real seqs sort before the round's virtual seqs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WKey {
    at: SimTime,
    tier: u8,
    n: u64,
}

/// A worker-digestible event: per-NIC traffic, or a shipped send app's
/// callback.
///
/// Packets cross the thread boundary *by value*: world-arena handles
/// mean nothing on a worker, so the ship-time conversion detaches the
/// packet from the world arena and the worker re-attaches it into its
/// round-local arena the moment it processes the event (and the
/// coordinator into the world arena, for leftovers and orphans the
/// barrier bounced back). Inside the worker heap every payload stays in
/// this detached form — the kitchen detaches generated events on the
/// way in — so drain-back needs no arena surgery.
enum WPayload {
    /// NIC pipeline event; when the event names a packet, the packet
    /// rides alongside and the event's own handle is dangling until
    /// re-attachment.
    NicEv(NicEvent, Option<Packet>),
    Deliver {
        pkt: Packet,
        corrupt: bool,
    },
    Timer {
        app: AppId,
        token: u64,
    },
    Cqe {
        app: AppId,
        cqe: Cqe,
    },
}

impl WPayload {
    fn kind(&self) -> EvKind {
        match self {
            WPayload::NicEv(..) => EvKind::NicEv,
            WPayload::Deliver { corrupt: false, .. } => EvKind::DeliverOk,
            WPayload::Deliver { corrupt: true, .. } => EvKind::DeliverCorrupt,
            WPayload::Timer { app, token } => EvKind::Timer {
                app: *app,
                token: *token,
            },
            WPayload::Cqe { app, .. } => EvKind::Cqe { app: *app },
        }
    }
}

/// Pulls the packet a NIC event names out of `arena`, leaving the
/// event's handle dangling — the ship-time half of the detach/attach
/// pair. `None` for events that carry no packet.
fn detach_nic_event(arena: &mut PacketArena, ev: &mut NicEvent) -> Option<Packet> {
    ev.packet_handle_mut().map(|h| {
        let pkt = arena.take(*h);
        *h = PacketHandle::DANGLING;
        pkt
    })
}

/// Re-homes a detached NIC event's packet into `arena`, patching the
/// event's handle — the processing-time half of the detach/attach pair.
fn attach_nic_event(arena: &mut PacketArena, ev: &mut NicEvent, pkt: Option<Packet>) {
    if let Some(p) = pkt {
        *ev.packet_handle_mut()
            .expect("sidecar implies a handle slot") = arena.insert(p);
    }
}

struct WItem {
    key: WKey,
    host: HostId,
    payload: WPayload,
}

impl PartialEq for WItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for WItem {}
impl PartialOrd for WItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Where a processed event came from: the popped batch (real seq) or
/// the worker's own emissions (emit id, mapped to a virtual seq by the
/// coordinator at apply time).
enum Src {
    Batch,
    Gen,
}

#[derive(Clone, Copy)]
enum EvKind {
    NicEv,
    DeliverOk,
    DeliverCorrupt,
    Timer { app: AppId, token: u64 },
    Cqe { app: AppId },
}

/// A side effect the worker recorded instead of applying.
enum Cooked {
    /// A generated event (NIC schedule, send-app timer, or a completion
    /// owned by a shipped app) landing inside the window: the worker
    /// queued it locally under `emit`; the coordinator only assigns the
    /// matching virtual seq (or materializes the event, if the worker's
    /// barrier preempted it).
    SchedLocal { emit: u64 },
    /// A generated event beyond the window: goes to the real queue
    /// (packet detached; the coordinator re-attaches into the world
    /// arena).
    SchedOut {
        at: SimTime,
        host: HostId,
        payload: WPayload,
    },
    /// `NicAction::Transmit`: replayed by the coordinator so fabric
    /// routing, loss/chaos RNG draws and hop scheduling happen in exact
    /// merge order. The packet travels by value and re-enters the world
    /// arena at replay.
    Transmit {
        at: SimTime,
        host: HostId,
        pkt: Packet,
    },
    /// `NicAction::Complete` on a QP not owned by an app shipped to this
    /// worker: `emit` is set when a coordinator app owns the QP (the
    /// coordinator materializes the `AppCqe` behind the barrier this
    /// raised); unowned CQEs join `orphan_cqes` at their merge position.
    Complete {
        emit: Option<u64>,
        at: SimTime,
        host: HostId,
        cqe: Cqe,
    },
}

/// One processed event in the worker's output stream, in processing
/// order, with its cooked side effects.
struct OutEntry {
    src: Src,
    /// Merge key second component: the real seq for batch events, the
    /// emit id for generated ones.
    n: u64,
    at: SimTime,
    host: HostId,
    kind: EvKind,
    cooked: Vec<Cooked>,
}

/// Work shipped to one worker: a host group's window slice plus the
/// checked-out NICs and send apps.
struct GroupWork {
    group: u32,
    limit: SimTime,
    /// Stop before this `(time, seq)` batch key, if the group has a
    /// coordinator-app event in the window.
    barrier: Option<(SimTime, u64)>,
    nics: Vec<(HostId, Rnic)>,
    /// Round-local packet arena, pre-seeded with the packets still
    /// queued in the checked-out NICs' egress schedulers (their handles
    /// were re-homed at checkout).
    arena: PacketArena,
    /// Send apps whose scope lives in this group, with their scopes.
    apps: Vec<(AppId, Vec<HostId>, Box<dyn App + Send>)>,
    entries: Vec<(SimTime, u64, HostId, WPayload)>,
}

struct GroupOut {
    group: u32,
    nics: Vec<(HostId, Rnic)>,
    /// The round-local arena, holding exactly the packets still queued
    /// in the returned NICs' egress schedulers; the coordinator re-homes
    /// them back into the world arena.
    arena: PacketArena,
    apps: Vec<(AppId, Box<dyn App + Send>)>,
    stream: Vec<OutEntry>,
    /// Batch events the barrier preempted, returned unprocessed (in
    /// detached form).
    leftovers: Vec<(SimTime, u64, HostId, WPayload)>,
    /// Locally-queued generated events the barrier preempted:
    /// `(emit, at, host, payload)`, in detached form.
    orphans: Vec<(u64, SimTime, HostId, WPayload)>,
}

/// The worker's shared cooking state: where generated events and side
/// effects go. Borrowed field-wise so NIC processing and the send-app
/// `Ctx` backend use one code path.
struct Kitchen<'k> {
    limit: SimTime,
    heap: &'k mut BinaryHeap<Reverse<WItem>>,
    emit: &'k mut u64,
    barrier: &'k mut Option<WKey>,
    /// The round-local arena: generated events detach their packets out
    /// of it on the way into the heap, transmits take them out for the
    /// coordinator replay.
    arena: &'k mut PacketArena,
    qp_owner: &'k FxHashMap<(HostId, QpNum), AppId>,
    /// Send apps shipped to this worker: completions on their QPs
    /// materialize locally instead of barriering.
    group_apps: &'k HashSet<AppId>,
}

impl Kitchen<'_> {
    /// Queues a generated event: locally when inside the window (the
    /// coordinator reserves the matching virtual seq at apply time),
    /// otherwise out to the real queue.
    fn sched(&mut self, at: SimTime, host: HostId, payload: WPayload, out: &mut Vec<Cooked>) {
        if at <= self.limit {
            let e = *self.emit;
            *self.emit += 1;
            self.heap.push(Reverse(WItem {
                key: WKey { at, tier: 1, n: e },
                host,
                payload,
            }));
            out.push(Cooked::SchedLocal { emit: e });
        } else {
            out.push(Cooked::SchedOut { at, host, payload });
        }
    }

    fn cook(&mut self, host: HostId, action: NicAction, out: &mut Vec<Cooked>) {
        match action {
            NicAction::Schedule { at, mut event } => {
                let pkt = detach_nic_event(self.arena, &mut event);
                self.sched(at, host, WPayload::NicEv(event, pkt), out);
            }
            NicAction::Transmit { at, pkt } => {
                let pkt = self.arena.take(pkt);
                out.push(Cooked::Transmit { at, host, pkt });
            }
            NicAction::Complete { at, cqe } => match self.qp_owner.get(&(host, cqe.qp)) {
                // The owning send app runs on this worker: its callback
                // replays here in (time, emit) order — no barrier.
                Some(app) if self.group_apps.contains(app) => {
                    self.sched(at, host, WPayload::Cqe { app: *app, cqe }, out);
                }
                // Coordinator-app owner: the materialized AppCqe is a
                // coordinator callback; barrier the group at its key.
                Some(_) => {
                    let e = *self.emit;
                    *self.emit += 1;
                    let k = WKey { at, tier: 1, n: e };
                    if (*self.barrier).is_none_or(|b| k < b) {
                        *self.barrier = Some(k);
                    }
                    out.push(Cooked::Complete {
                        emit: Some(e),
                        at,
                        host,
                        cqe,
                    });
                }
                None => out.push(Cooked::Complete {
                    emit: None,
                    at,
                    host,
                    cqe,
                }),
            },
        }
    }
}

/// The [`WorkerBackend`] behind a shipped send app's [`Ctx`]: verbs hit
/// the checked-out NICs, side effects go through the [`Kitchen`].
struct Wb<'k> {
    now: SimTime,
    limit: SimTime,
    scope: &'k [HostId],
    nics: &'k mut Vec<(HostId, Rnic)>,
    heap: &'k mut BinaryHeap<Reverse<WItem>>,
    emit: &'k mut u64,
    barrier: &'k mut Option<WKey>,
    arena: &'k mut PacketArena,
    qp_owner: &'k FxHashMap<(HostId, QpNum), AppId>,
    group_apps: &'k HashSet<AppId>,
    scratch: &'k mut Vec<NicAction>,
    cooked: &'k mut Vec<Cooked>,
}

impl WorkerBackend for Wb<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn scope(&self) -> &[HostId] {
        self.scope
    }

    fn set_timer(&mut self, app: AppId, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        // Timers carry no host; file them under the scope's first host
        // (any group member works — the merge key ignores it).
        let home = self
            .scope
            .first()
            .copied()
            .expect("send app scope is non-empty");
        let mut kitchen = Kitchen {
            limit: self.limit,
            heap: &mut *self.heap,
            emit: &mut *self.emit,
            barrier: &mut *self.barrier,
            arena: &mut *self.arena,
            qp_owner: self.qp_owner,
            group_apps: self.group_apps,
        };
        kitchen.sched(at, home, WPayload::Timer { app, token }, self.cooked);
    }

    fn post_send(&mut self, qp: QpHandle, wr: WorkRequest) -> Result<(), VerbsError> {
        let now = self.now;
        let mut scratch = std::mem::take(self.scratch);
        let res = {
            let nic = self
                .nics
                .iter_mut()
                .find(|(h, _)| *h == qp.host)
                .map(|(_, n)| n)
                .expect("scope host checked out to this worker");
            nic.post_send_into(now, qp.qp, wr.into_wqe(), &mut scratch)
        };
        if res.is_ok() {
            let mut kitchen = Kitchen {
                limit: self.limit,
                heap: &mut *self.heap,
                emit: &mut *self.emit,
                barrier: &mut *self.barrier,
                arena: &mut *self.arena,
                qp_owner: self.qp_owner,
                group_apps: self.group_apps,
            };
            for action in scratch.drain(..) {
                kitchen.cook(qp.host, action, self.cooked);
            }
        }
        scratch.clear();
        *self.scratch = scratch;
        res.map_err(VerbsError::from)
    }

    fn nic(&self, host: HostId) -> &Rnic {
        &self
            .nics
            .iter()
            .find(|(h, _)| *h == host)
            .expect("scope host checked out to this worker")
            .1
    }

    fn nic_mut(&mut self, host: HostId) -> &mut Rnic {
        &mut self
            .nics
            .iter_mut()
            .find(|(h, _)| *h == host)
            .expect("scope host checked out to this worker")
            .1
    }
}

/// Replays one group's window slice, cooking side effects.
fn process_group(work: GroupWork, qp_owner: &FxHashMap<(HostId, QpNum), AppId>) -> GroupOut {
    let _p = profile::enter(Phase::OutCook);
    let GroupWork {
        group,
        limit,
        barrier,
        mut nics,
        mut arena,
        apps,
        entries,
    } = work;
    let mut heap: BinaryHeap<Reverse<WItem>> = entries
        .into_iter()
        .map(|(at, seq, host, payload)| {
            Reverse(WItem {
                key: WKey {
                    at,
                    tier: 0,
                    n: seq,
                },
                host,
                payload,
            })
        })
        .collect();
    let mut barrier: Option<WKey> = barrier.map(|(at, seq)| WKey {
        at,
        tier: 0,
        n: seq,
    });
    let group_apps: HashSet<AppId> = apps.iter().map(|(a, _, _)| *a).collect();
    let mut app_map: HashMap<AppId, (Vec<HostId>, Box<dyn App + Send>)> = apps
        .into_iter()
        .map(|(a, scope, b)| (a, (scope, b)))
        .collect();
    let mut emit = 0u64;
    let mut scratch: Vec<NicAction> = Vec::new();
    let mut stream = Vec::new();
    while let Some(Reverse(top)) = heap.peek() {
        if barrier.is_some_and(|b| top.key >= b) {
            break;
        }
        let Reverse(item) = heap.pop().expect("peeked");
        let at = item.key.at;
        let host = item.host;
        let src = match item.key.tier {
            0 => Src::Batch,
            _ => Src::Gen,
        };
        let n = item.key.n;
        let kind = item.payload.kind();
        let mut cooked = Vec::new();
        match item.payload {
            WPayload::Deliver { pkt, corrupt: true } => {
                // ICRC rejection mutates only the receiver's counter;
                // the fabric-wide ledger advances at merge time. The
                // mangled packet dies here, owned.
                drop(pkt);
                let slot = nics
                    .iter_mut()
                    .find(|(h, _)| *h == host)
                    .expect("host NIC in group");
                slot.1.counters_mut().icrc_rx_dropped += 1;
            }
            WPayload::Deliver {
                pkt,
                corrupt: false,
            } => {
                let hp = arena.insert(pkt);
                let slot = nics
                    .iter_mut()
                    .find(|(h, _)| *h == host)
                    .expect("host NIC in group");
                slot.1.handle_into(
                    at,
                    NicEvent::IngressArrival { pkt: hp },
                    &mut arena,
                    &mut scratch,
                );
            }
            WPayload::NicEv(mut ev, pkt) => {
                attach_nic_event(&mut arena, &mut ev, pkt);
                let slot = nics
                    .iter_mut()
                    .find(|(h, _)| *h == host)
                    .expect("host NIC in group");
                slot.1.handle_into(at, ev, &mut arena, &mut scratch);
            }
            WPayload::Timer { app, token } => {
                let (scope, mut a) = app_map
                    .remove(&app)
                    .expect("send app shipped with its group");
                let mut wb = Wb {
                    now: at,
                    limit,
                    scope: &scope,
                    nics: &mut nics,
                    heap: &mut heap,
                    emit: &mut emit,
                    barrier: &mut barrier,
                    arena: &mut arena,
                    qp_owner,
                    group_apps: &group_apps,
                    scratch: &mut scratch,
                    cooked: &mut cooked,
                };
                let mut ctx = Ctx {
                    world: CtxWorld::Worker(&mut wb),
                    app,
                };
                a.on_timer(&mut ctx, token);
                app_map.insert(app, (scope, a));
            }
            WPayload::Cqe { app, cqe } => {
                let (scope, mut a) = app_map
                    .remove(&app)
                    .expect("send app shipped with its group");
                let mut wb = Wb {
                    now: at,
                    limit,
                    scope: &scope,
                    nics: &mut nics,
                    heap: &mut heap,
                    emit: &mut emit,
                    barrier: &mut barrier,
                    arena: &mut arena,
                    qp_owner,
                    group_apps: &group_apps,
                    scratch: &mut scratch,
                    cooked: &mut cooked,
                };
                let mut ctx = Ctx {
                    world: CtxWorld::Worker(&mut wb),
                    app,
                };
                a.on_cqe(&mut ctx, host, cqe);
                app_map.insert(app, (scope, a));
            }
        }
        if !scratch.is_empty() {
            cooked.reserve(scratch.len());
            let mut kitchen = Kitchen {
                limit,
                heap: &mut heap,
                emit: &mut emit,
                barrier: &mut barrier,
                arena: &mut arena,
                qp_owner,
                group_apps: &group_apps,
            };
            for action in scratch.drain(..) {
                kitchen.cook(host, action, &mut cooked);
            }
        }
        stream.push(OutEntry {
            src,
            n,
            at,
            host,
            kind,
            cooked,
        });
    }
    // Heap payloads are already in detached form (batch entries stay
    // detached until processed; the kitchen detaches generated ones on
    // the way in), so the barrier's survivors travel back as-is. The
    // local arena keeps only the packets still queued in the NICs'
    // egress schedulers; the coordinator re-homes those.
    let mut leftovers = Vec::new();
    let mut orphans = Vec::new();
    for Reverse(item) in heap {
        let at = item.key.at;
        let host = item.host;
        match item.key.tier {
            0 => leftovers.push((at, item.key.n, host, item.payload)),
            _ => orphans.push((item.key.n, at, host, item.payload)),
        }
    }
    GroupOut {
        group,
        nics,
        arena,
        apps: app_map.into_iter().map(|(a, (_, b))| (a, b)).collect(),
        stream,
        leftovers,
        orphans,
    }
}

/// Default adaptive-granularity threshold: a partition group whose
/// window batch holds fewer than this many events is cheaper to execute
/// coordinator-side than to ship (channel hop, NIC checkout, per-group
/// stream merge all cost more than replaying a handful of events).
/// Tunable per simulation via
/// [`Simulation::set_parallel_ship_threshold`]; zero ships everything.
pub(super) const DEFAULT_SHIP_THRESHOLD: usize = 16;

/// Base length, in lookahead windows, of the sequential stretch run
/// after a round ships nothing; consecutive empty probes double it (to
/// a 16x cap), so sparse phases cost ever fewer wasted probe rounds
/// while dense traffic re-engages the workers within microseconds.
const SEQ_STRETCH_WINDOWS: u64 = 8;

impl World {
    /// Re-homes a detached worker payload's packet into the world arena
    /// and rebuilds the world event — the coordinator-side inverse of
    /// the ship-time detach.
    fn attach_payload(&mut self, host: HostId, payload: WPayload) -> WorldEvent {
        match payload {
            WPayload::NicEv(mut ev, pkt) => {
                attach_nic_event(&mut self.arena, &mut ev, pkt);
                WorldEvent::Nic(host, ev)
            }
            WPayload::Deliver { pkt, corrupt } => WorldEvent::Deliver {
                host,
                pkt: self.arena.insert(pkt),
                corrupt,
            },
            WPayload::Timer { app, token } => WorldEvent::Timer { app, token },
            WPayload::Cqe { app, cqe } => WorldEvent::AppCqe { app, host, cqe },
        }
    }

    /// The conservative lookahead: the minimum latency any NIC-to-NIC
    /// effect must cross. `None` when the fabric provides no positive
    /// bound (no hosts, or a zero-latency link).
    pub(super) fn lookahead(&self) -> Option<SimDuration> {
        let l = if let Some(rt) = self.fabric_rt.as_ref() {
            rt.topology().links().iter().map(|l| l.latency).min()?
        } else {
            self.nics
                .iter()
                .flatten()
                .map(|n| n.profile().wire_propagation + self.switch_latency)
                .min()?
        };
        (!l.is_zero()).then_some(l)
    }

    /// Union-find over app footprints: hosts sharing an app land in one
    /// group so a single worker owns every NIC that app may touch.
    pub(super) fn host_groups(&self) -> Vec<u32> {
        let n = self.nics.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let up = parent[parent[x as usize] as usize];
                parent[x as usize] = up;
                x = up;
            }
            x
        }
        for scope in self.app_scopes.values() {
            for w in scope.windows(2) {
                let a = find(&mut parent, w[0].0);
                let b = find(&mut parent, w[1].0);
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        (0..n as u32).map(|i| find(&mut parent, i)).collect()
    }
}

impl Simulation {
    /// Whether this configuration can run on the parallel engine
    /// without observable divergence. Telemetry consumers see events in
    /// wall-clock emission order, so any enabled hot-path tracing or
    /// metrics forces the sequential oracle; likewise apps without a
    /// declared scope (their footprint is unknown) and QP ownerships
    /// pointing outside the owner's scope.
    fn parallel_eligible(&self) -> bool {
        let w = &self.world;
        if w.nics.is_empty() {
            return false;
        }
        if w.metrics.enabled() {
            return false;
        }
        // Online invariant monitors want one coherent world state per
        // event — and a run whose invariants are in question belongs on
        // the sequential oracle anyway.
        if w.monitors.is_some() {
            return false;
        }
        for t in [
            Target::SimCore,
            Target::RnicModel,
            Target::RdmaVerbs,
            Target::Chaos,
        ] {
            if w.tracer.enabled(t) {
                return false;
            }
        }
        if (0..self.apps.len()).any(|i| !w.app_scopes.contains_key(&AppId(i))) {
            return false;
        }
        for ((host, _), app) in &w.qp_owner {
            if !w.app_scopes.get(app).is_some_and(|s| s.contains(host)) {
                return false;
            }
        }
        true
    }

    /// Runs the event loop until `deadline` on `workers` threads,
    /// producing bit-identical results to [`Simulation::run_until`] —
    /// same digests, counters, fault traces and artifact bytes at every
    /// worker count. Falls back to the sequential engine when
    /// `workers <= 1` or the configuration is not
    /// [eligible](Simulation::parallel_eligible).
    ///
    /// Returns the number of events processed.
    pub fn run_until_workers(&mut self, deadline: SimTime, workers: usize) -> u64 {
        self.supervisor = None;
        if workers <= 1 || !self.parallel_eligible() {
            return self.run_until(deadline);
        }
        let Some(lookahead) = self.world.lookahead() else {
            return self.run_until(deadline);
        };
        self.start_apps();
        if self.world.stopped {
            return 0;
        }
        self.world.ensure_lane_tracker();
        let before = self.events_processed();
        let host_group = self.world.host_groups();
        let app_group: HashMap<AppId, u32> = self
            .world
            .app_scopes
            .iter()
            .filter_map(|(app, scope)| scope.first().map(|h0| (*app, host_group[h0.0 as usize])))
            .collect();
        // Send apps ship with their group whenever the group has window
        // work, so worker-materialized completions always find their
        // owner on the same thread.
        let mut group_send_apps: HashMap<u32, Vec<(AppId, Vec<HostId>)>> = HashMap::new();
        for (app, g) in &app_group {
            if self.world.app_sendable.get(app.0).copied().unwrap_or(false) {
                let scope = self.world.app_scopes[app].clone();
                group_send_apps.entry(*g).or_default().push((*app, scope));
            }
        }
        for v in group_send_apps.values_mut() {
            v.sort_by_key(|(a, _)| a.0);
        }
        let qp_owner = self.world.qp_owner.clone();
        // Never oversubscribe the machine: extra threads beyond the
        // available cores only add context-switch overhead, and the
        // results are worker-count invariant by construction.
        let threads = workers
            .min(std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1);
        // Ambient supervision (installed by the harness): worker faults
        // are caught, quarantined and healed instead of tearing the run
        // down. When the policy carries an injected-fault hook, drop the
        // ship threshold for the duration so every group batch actually
        // crosses a worker boundary — otherwise small runs inline
        // everything and the injected faults never meet a job.
        let supervision = pdes::ambient_supervision();
        let saved_threshold = match &supervision {
            Some(p) if p.fault_hook.is_some() => {
                Some(std::mem::replace(&mut self.world.ship_threshold, 0))
            }
            _ => None,
        };
        let mut replayed = 0u64;
        let sim = &mut *self;
        let work = |_worker: usize, jobs: Vec<GroupWork>| -> Vec<GroupOut> {
            jobs.into_iter()
                .map(|job| process_group(job, &qp_owner))
                .collect()
        };
        let mut drive_loop = |run: &mut dyn FnMut(Vec<Vec<GroupWork>>) -> Vec<Vec<GroupOut>>| {
            // Adaptive engine selection: a round that ships nothing
            // pays the whole protocol (batch pop, partition, merge
            // heap) for work the plain sequential loop does cheaper.
            // After such a round the next few windows run
            // sequentially, then a round probes the density again.
            // Which engine processes a window never changes results
            // — only wall clock — because a conservative window is
            // causally self-contained either way.
            let mut stretch: u64 = 0;
            let mut backoff = SEQ_STRETCH_WINDOWS;
            while let Some(t0) = sim.world.queue.peek_time() {
                if t0 > deadline {
                    break;
                }
                if stretch > 0 {
                    let limit = SimTime::from_picos(
                        t0.as_picos().saturating_add(stretch * lookahead.as_picos()) - 1,
                    )
                    .min(deadline);
                    stretch = 0;
                    while !sim.world.stopped {
                        let Some((at, event)) = sim.world.queue.pop_before(limit) else {
                            break;
                        };
                        sim.world.fold_event(at, &event);
                        sim.execute_event(event);
                    }
                    if sim.world.stopped {
                        break;
                    }
                    continue;
                }
                let shipped = sim.round(
                    t0,
                    deadline,
                    lookahead,
                    &host_group,
                    &app_group,
                    &group_send_apps,
                    threads,
                    run,
                );
                if shipped == 0 {
                    // Exponential backoff on consecutive empty
                    // probes: sparse phases cost ever fewer wasted
                    // rounds, while one shipped round snaps the
                    // probe cadence back to tight.
                    stretch = backoff;
                    backoff = (backoff * 2).min(SEQ_STRETCH_WINDOWS * 16);
                } else {
                    backoff = SEQ_STRETCH_WINDOWS;
                }
            }
        };
        // Inline replay of a returned batch runs the exact same pure
        // `process_group` a healthy worker would have run — the
        // coordinator *is* the sequential oracle, so digests stay
        // bit-identical through any fault schedule. Without an ambient
        // policy the default one never returns a job.
        let policy = supervision.clone().unwrap_or_default();
        let snap = pdes::pool::scoped_supervised(threads, policy, work, |run, health| {
            let mut adapter = |batches: Vec<Vec<GroupWork>>| -> Vec<Vec<GroupOut>> {
                run(batches)
                    .into_iter()
                    .map(|outcome| match outcome {
                        pdes::JobOutcome::Done(outs) => outs,
                        pdes::JobOutcome::Returned(jobs, _fault) => {
                            replayed += jobs.len() as u64;
                            jobs.into_iter()
                                .map(|j| process_group(j, &qp_owner))
                                .collect()
                        }
                        pdes::JobOutcome::Lost(fault) => {
                            panic!("rdma-verbs worker batch unrecoverable: {fault}")
                        }
                    })
                    .collect()
            };
            drive_loop(&mut adapter);
            health.snapshot()
        });
        if let Some(t) = saved_threshold {
            self.world.ship_threshold = t;
        }
        self.supervisor = supervision.map(|_| super::SupervisorStats {
            health: snap,
            replayed_jobs: replayed,
        });
        self.world.flush_lanes();
        self.events_processed() - before
    }

    /// Executes one conservative round starting at `t0`; returns the
    /// number of events shipped to workers (zero when every group fell
    /// under the ship threshold — the caller's cue to try the plain
    /// sequential loop for the next stretch).
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        t0: SimTime,
        deadline: SimTime,
        lookahead: SimDuration,
        host_group: &[u32],
        app_group: &HashMap<AppId, u32>,
        group_send_apps: &HashMap<u32, Vec<(AppId, Vec<HostId>)>>,
        workers: usize,
        run: &mut dyn FnMut(Vec<Vec<GroupWork>>) -> Vec<Vec<GroupOut>>,
    ) -> usize {
        // Window end, inclusive: strictly before t0 + lookahead.
        let limit = SimTime::from_picos(t0.as_picos().saturating_add(lookahead.as_picos()) - 1)
            .min(deadline);

        // Pop the window's batch, keeping real insertion seqs.
        let mut batch: Vec<(SimTime, u64, WorldEvent)> = Vec::new();
        let mut max_seq = 0u64;
        while let Some((at, seq, ev)) = self.world.queue.pop_with_seq_before(limit) {
            max_seq = max_seq.max(seq);
            batch.push((at, seq, ev));
        }
        let vseq_base = max_seq + 1;

        // Coordinator-app events barrier their host group at the
        // earliest key; send-app events partition like host events.
        let mut barriers: HashMap<u32, (SimTime, u64)> = HashMap::new();
        for (at, seq, ev) in &batch {
            let app = match ev {
                WorldEvent::Timer { app, .. } => Some(*app),
                WorldEvent::AppCqe { app, .. } => Some(*app),
                _ => None,
            };
            let app = app.filter(|a| !self.world.app_sendable.get(a.0).copied().unwrap_or(false));
            if let Some(g) = app.and_then(|a| app_group.get(&a)) {
                let e = barriers.entry(*g).or_insert((*at, *seq));
                if (*at, *seq) < *e {
                    *e = (*at, *seq);
                }
            }
        }

        // Partition: pre-barrier host and send-app events go to workers,
        // the rest stays raw for the coordinator.
        let mut raw: Vec<(SimTime, u64, WorldEvent)> = Vec::new();
        let mut per_group: HashMap<u32, GroupEntries> = HashMap::new();
        for (at, seq, ev) in batch {
            // Each event's destination group and worker payload — or the
            // event itself, when only the coordinator can run it.
            let routed: Result<(u32, HostId, WPayload), WorldEvent> = match ev {
                WorldEvent::Nic(h, mut e) => {
                    let pkt = detach_nic_event(&mut self.world.arena, &mut e);
                    Ok((host_group[h.0 as usize], h, WPayload::NicEv(e, pkt)))
                }
                WorldEvent::Deliver { host, pkt, corrupt } => {
                    let pkt = self.world.arena.take(pkt);
                    Ok((
                        host_group[host.0 as usize],
                        host,
                        WPayload::Deliver { pkt, corrupt },
                    ))
                }
                WorldEvent::Timer { app, token }
                    if self.world.app_sendable.get(app.0).copied().unwrap_or(false) =>
                {
                    let home = self
                        .world
                        .app_scopes
                        .get(&app)
                        .and_then(|s| s.first().copied());
                    match app_group.get(&app).copied().zip(home) {
                        Some((g, home)) => Ok((g, home, WPayload::Timer { app, token })),
                        None => Err(WorldEvent::Timer { app, token }),
                    }
                }
                WorldEvent::AppCqe { app, host, cqe }
                    if self.world.app_sendable.get(app.0).copied().unwrap_or(false) =>
                {
                    match app_group.get(&app).copied() {
                        Some(g) => Ok((g, host, WPayload::Cqe { app, cqe })),
                        None => Err(WorldEvent::AppCqe { app, host, cqe }),
                    }
                }
                other => Err(other),
            };
            match routed {
                Ok((g, h, payload)) if barriers.get(&g).is_none_or(|b| (at, seq) < *b) => {
                    per_group.entry(g).or_default().push((at, seq, h, payload));
                }
                Ok((_, h, payload)) => {
                    let ev = self.world.attach_payload(h, payload);
                    raw.push((at, seq, ev));
                }
                Err(ev) => raw.push((at, seq, ev)),
            }
        }

        // Adaptive granularity: a group whose window batch is too small
        // to amortize the shipping overhead executes coordinator-side
        // through the same code path as post-barrier leftovers — the
        // merge heap orders its events by their real `(time, seq)` keys,
        // so the result is bit-identical either way.
        // With a single pool thread (a one-core machine, after the
        // oversubscription clamp) shipping can never overlap with
        // coordinator work, so every group inlines and the adaptive
        // stretches hand the run to the plain sequential loop — unless
        // a zero threshold explicitly forces the shipping path (the
        // differential suite does, to keep it exercised everywhere).
        let threshold = match self.world.ship_threshold {
            0 => 0,
            _ if workers == 1 => usize::MAX,
            t => t,
        };
        if threshold > 1 {
            // `retain` can't reach `self.world`, so drain the under-
            // threshold groups in two steps: collect, then re-attach.
            let mut inlined: Vec<(SimTime, u64, HostId, WPayload)> = Vec::new();
            per_group.retain(|_, entries| {
                if entries.len() >= threshold {
                    return true;
                }
                inlined.append(entries);
                false
            });
            for (at, seq, h, payload) in inlined {
                let ev = self.world.attach_payload(h, payload);
                raw.push((at, seq, ev));
            }
        }

        // Ship groups to workers (round-robin bundling amortizes the
        // channel round-trip), checking their NICs out of the world.
        let mut groups: Vec<(u32, GroupEntries)> = per_group.into_iter().collect();
        groups.sort_by_key(|(g, _)| *g);
        let mut buckets: Vec<Vec<GroupWork>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, (g, entries)) in groups.into_iter().enumerate() {
            let mut hosts: Vec<HostId> = entries.iter().map(|e| e.2).collect();
            // Check out the group's send apps, and every scope host of
            // theirs: callbacks may post to scope hosts that had no
            // batch events this window.
            let mut apps: Vec<(AppId, Vec<HostId>, Box<dyn App + Send>)> = Vec::new();
            if let Some(list) = group_send_apps.get(&g) {
                for (app, scope) in list {
                    hosts.extend(scope.iter().copied());
                    let boxed = match self.apps[app.0].take() {
                        Some(AppBox::Send(a)) => a,
                        _ => unreachable!("send app missing at checkout"),
                    };
                    apps.push((*app, scope.clone(), boxed));
                }
            }
            hosts.sort_by_key(|h| h.0);
            hosts.dedup();
            // Packets still waiting on arbitration travel with their
            // NIC: re-home them from the world arena into the group's
            // round-local arena.
            let mut arena = PacketArena::new();
            let nics = hosts
                .into_iter()
                .map(|h| {
                    let mut nic = self.world.nics[h.0 as usize]
                        .take()
                        .expect("NIC double checkout");
                    nic.rehome_egress(&mut self.world.arena, &mut arena);
                    (h, nic)
                })
                .collect();
            buckets[i % workers].push(GroupWork {
                group: g,
                limit,
                barrier: barriers.get(&g).copied(),
                nics,
                arena,
                apps,
                entries,
            });
        }
        let shipped: usize = buckets
            .iter()
            .flat_map(|b| b.iter())
            .map(|g| g.entries.len())
            .sum();
        // An all-inlined round skips the pool entirely — no thread
        // wakeups for work the coordinator already holds.
        buckets.retain(|b| !b.is_empty());
        let mut outs: Vec<GroupOut> = if buckets.is_empty() {
            Vec::new()
        } else {
            run(buckets).into_iter().flatten().collect()
        };
        // Return NICs and apps before the merge: post-barrier leftovers
        // and materialized orphans execute coordinator-side and must
        // find both at home. Egress-queued packets re-home back into the
        // world arena, after which the round-local arena must be empty —
        // every other packet either terminated worker-side or travels
        // onward by value (cooked transmits, leftovers, orphans).
        for out in &mut outs {
            let mut arena = std::mem::take(&mut out.arena);
            for (h, mut nic) in out.nics.drain(..) {
                nic.rehome_egress(&mut arena, &mut self.world.arena);
                self.world.nics[h.0 as usize] = Some(nic);
            }
            debug_assert_eq!(arena.live(), 0, "round-local arena drained at return");
            for (a, app) in out.apps.drain(..) {
                self.apps[a.0] = Some(AppBox::Send(app));
            }
        }

        // Merge phase: raw events and leftovers under their real seqs,
        // worker streams behind head-of-stream markers; generated
        // events receive virtual seqs in merge order.
        let mut heap: BinaryHeap<Reverse<RoundKeyed>> = BinaryHeap::new();
        for (at, seq, ev) in raw {
            heap.push(Reverse(RoundKeyed {
                at,
                k2: seq,
                item: RoundItem::Ev(ev),
            }));
        }
        let mut streams: Vec<(u32, VecDeque<OutEntry>)> = Vec::new();
        let mut orphan_gen: HashMap<(u32, u64), (SimTime, HostId, WPayload)> = HashMap::new();
        for out in outs {
            for (at, seq, host, payload) in out.leftovers {
                let ev = self.world.attach_payload(host, payload);
                heap.push(Reverse(RoundKeyed {
                    at,
                    k2: seq,
                    item: RoundItem::Ev(ev),
                }));
            }
            for (emit, at, host, payload) in out.orphans {
                orphan_gen.insert((out.group, emit), (at, host, payload));
            }
            if let Some(head) = out.stream.front_key() {
                let si = streams.len() as u32;
                heap.push(Reverse(RoundKeyed {
                    at: head.0,
                    k2: head.1,
                    item: RoundItem::Marker(si),
                }));
                streams.push((out.group, out.stream.into()));
            }
        }
        // Emit-id → assigned virtual seq, per stream.
        let mut emit_vseq: Vec<HashMap<u64, u64>> =
            streams.iter().map(|_| HashMap::new()).collect();

        self.world.round = Some(RoundCtl {
            limit,
            now: t0,
            vseq: vseq_base,
            heap,
        });
        let _p = profile::enter(Phase::MergeDrain);
        loop {
            let popped = {
                let r = self.world.round.as_mut().expect("round open");
                r.heap.pop()
            };
            let Some(Reverse(keyed)) = popped else { break };
            self.world.round.as_mut().expect("round open").now = keyed.at;
            match keyed.item {
                RoundItem::Ev(ev) => {
                    if keyed.k2 >= vseq_base {
                        self.world.synthetic += 1;
                    }
                    self.world.fold_event(keyed.at, &ev);
                    self.execute_event(ev);
                }
                RoundItem::Marker(si) => {
                    let (group, stream) = &mut streams[si as usize];
                    let group = *group;
                    let entry = stream.pop_front().expect("marker implies an entry");
                    debug_assert_eq!(entry.at, keyed.at);
                    if matches!(entry.src, Src::Gen) {
                        self.world.synthetic += 1;
                    }
                    // Fabric-wide ledger halves of the worker's
                    // receive-side processing.
                    match entry.kind {
                        EvKind::NicEv | EvKind::Timer { .. } | EvKind::Cqe { .. } => {}
                        EvKind::DeliverOk => self.world.fabric.delivered += 1,
                        EvKind::DeliverCorrupt => self.world.fabric.icrc_dropped += 1,
                    }
                    self.fold_worker_entry(&entry);
                    for cook in entry.cooked {
                        match cook {
                            Cooked::SchedLocal { emit } => {
                                match orphan_gen.remove(&(group, emit)) {
                                    // The worker's barrier preempted
                                    // this event: materialize it at its
                                    // virtual seq.
                                    Some((at2, host, payload)) => {
                                        let ev = self.world.attach_payload(host, payload);
                                        let v = self
                                            .world
                                            .enqueue_in_round(at2, ev)
                                            .expect("local schedule within window");
                                        emit_vseq[si as usize].insert(emit, v);
                                    }
                                    // The worker processed it: just
                                    // consume the virtual seq so later
                                    // assignments match the oracle.
                                    None => {
                                        let r = self.world.round.as_mut().expect("round open");
                                        let v = r.vseq;
                                        r.vseq += 1;
                                        emit_vseq[si as usize].insert(emit, v);
                                    }
                                }
                            }
                            Cooked::SchedOut {
                                at: at2,
                                host,
                                payload,
                            } => {
                                debug_assert!(at2 > limit);
                                let ev = self.world.attach_payload(host, payload);
                                self.world.enqueue(at2, ev);
                            }
                            Cooked::Transmit { at: at2, host, pkt } => {
                                let h = self.world.arena.insert(pkt);
                                self.world.transmit(host, at2, h);
                            }
                            Cooked::Complete {
                                emit,
                                at: at2,
                                host,
                                cqe,
                            } => match emit {
                                Some(e) => {
                                    let app = *self
                                        .world
                                        .qp_owner
                                        .get(&(host, cqe.qp))
                                        .expect("ownership checked worker-side");
                                    let ev = WorldEvent::AppCqe { app, host, cqe };
                                    if let Some(v) = self.world.enqueue_in_round(at2, ev) {
                                        emit_vseq[si as usize].insert(e, v);
                                    }
                                }
                                None => self.world.orphan_cqes.push((host, cqe)),
                            },
                        }
                    }
                    if let Some(next) =
                        stream_head(&streams[si as usize].1, &emit_vseq[si as usize])
                    {
                        let r = self.world.round.as_mut().expect("round open");
                        r.heap.push(Reverse(RoundKeyed {
                            at: next.0,
                            k2: next.1,
                            item: RoundItem::Marker(si),
                        }));
                    }
                }
            }
        }
        self.world.round = None;
        debug_assert!(orphan_gen.is_empty(), "orphaned events never applied");
        shipped
    }

    /// Folds a worker-processed event into the order digest with the
    /// exact words [`World::fold_event`] would have used.
    fn fold_worker_entry(&mut self, entry: &OutEntry) {
        if self.world.lanes.is_some() {
            // Same attribution as `World::lane_host_of`: timers bill the
            // coordinator lane, everything else its owning host.
            let host = match entry.kind {
                EvKind::Timer { .. } => None,
                _ => Some(entry.host),
            };
            self.world.note_lane(entry.at, host, 1);
        }
        let d = &mut self.world.order;
        d.fold(entry.at.as_picos());
        match entry.kind {
            EvKind::NicEv => {
                d.fold(1);
                d.fold(u64::from(entry.host.0));
            }
            EvKind::DeliverOk => {
                d.fold(2);
                d.fold(u64::from(entry.host.0));
                d.fold(0);
            }
            EvKind::DeliverCorrupt => {
                d.fold(2);
                d.fold(u64::from(entry.host.0));
                d.fold(1);
            }
            EvKind::Timer { app, token } => {
                d.fold(4);
                d.fold(app.0 as u64);
                d.fold(token);
            }
            EvKind::Cqe { app } => {
                d.fold(5);
                d.fold(app.0 as u64);
                d.fold(u64::from(entry.host.0));
            }
        }
    }
}

/// The merge key of a stream's head entry, translating generated emit
/// ids through the already-assigned virtual seqs (a parent entry is
/// always consumed before its child becomes head, so the mapping is
/// present).
fn stream_head(
    stream: &VecDeque<OutEntry>,
    emit_vseq: &HashMap<u64, u64>,
) -> Option<(SimTime, u64)> {
    let head = stream.front()?;
    let k2 = match head.src {
        Src::Batch => head.n,
        Src::Gen => *emit_vseq
            .get(&head.n)
            .expect("generated head emitted by a consumed parent"),
    };
    Some((head.at, k2))
}

trait FrontKey {
    fn front_key(&self) -> Option<(SimTime, u64)>;
}

impl FrontKey for Vec<OutEntry> {
    /// The first stream entry's merge key: always a batch event (a
    /// worker's first processed event comes from the popped batch), so
    /// the real seq is the key.
    fn front_key(&self) -> Option<(SimTime, u64)> {
        let head = self.first()?;
        match head.src {
            Src::Batch => Some((head.at, head.n)),
            Src::Gen => unreachable!("first processed event must come from the batch"),
        }
    }
}
