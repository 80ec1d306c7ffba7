//! The RNIC datapath state machine: Fig. 3 of the paper in executable
//! form.
//!
//! A [`Rnic`] owns every per-NIC contended resource — PCIe directions,
//! transmit/receive processing units, the translation & protection unit,
//! the atomic unit, the egress port scheduler and the ingress link — plus
//! the host's memory. The verbs layer drives it through [`Rnic::post_send`]
//! / [`Rnic::post_recv`] and a global event loop: every handler returns
//! [`NicAction`]s that the loop turns into future events, fabric
//! hand-offs, or application completions.
//!
//! ## Pipeline
//!
//! Requester Tx: doorbell → WQE fetch (PCIe) → Tx issue arbiter → TxPU
//! (NoC-aware) → [gather DMA for non-inline payloads] → egress scheduler
//! (Tx class) → wire.
//!
//! Responder Rx: ingress link → RxPU (both reserved in one
//! `IngressArrival` step) → TPU (validate + offset-dependent lookup) →
//! DMA (PCIe) → response generation → egress scheduler (Rx class, lower
//! priority) → wire.
//!
//! Requester completion: RxPU → payload DMA → CQE write (PCIe) →
//! completion to the application.

use crate::arbiter::{EgressClass, EgressItem, EgressScheduler};
use crate::arena::{PacketArena, PacketHandle};
use crate::counters::NicCounters;
use crate::device::DeviceProfile;
use crate::memory::HostMemory;
use crate::noc::NocActivation;
use crate::packet::{segment_count, Cqe, CqeStatus, Packet, PacketKind, RecvWqe, Wqe};
use crate::tpu::{MrEntry, TpuAccess, TranslationUnit};
use crate::types::{wire, FlowId, HostId, MrKey, NakReason, Opcode, PdId, QpNum, TrafficClass};
use bytes::Bytes;
use ragnar_telemetry::{ActorId, ArgValue, Target, Tracer};
use sim_core::{FxHashMap, FxHashSet};
use sim_core::{LinkResource, ServiceResource, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Size of a WQE on the PCIe bus.
const WQE_BYTES: u64 = 64;
/// Size of a CQE on the PCIe bus.
const CQE_BYTES: u64 = 64;

/// Configuration of a queue pair at creation time.
#[derive(Debug, Clone, Copy)]
pub struct QpConfig {
    /// Protection domain the QP belongs to.
    pub pd: PdId,
    /// Traffic class stamped on outgoing packets.
    pub tc: TrafficClass,
    /// Application flow label.
    pub flow: FlowId,
    /// Remote host this RC QP is connected to.
    pub peer_host: HostId,
    /// Remote QP number.
    pub peer_qp: QpNum,
    /// Maximum WQEs outstanding (posted, not yet completed).
    pub max_send_queue: usize,
}

/// Transport state of an RC queue pair (the RTS/Error slice of the verbs
/// QP state machine that matters to the datapath).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpTransport {
    /// Ready to send: WQEs flow through the pipeline normally.
    Ready,
    /// A fatal transport error occurred (retry exhaustion, RNR budget
    /// exhaustion). Posted work flushes with [`CqeStatus::Flushed`]; new
    /// posts are rejected until [`Rnic::reset_qp`].
    Error,
}

#[derive(Debug)]
struct QpState {
    config: QpConfig,
    transport: QpTransport,
    sq: VecDeque<Wqe>,
    outstanding: usize,
    recv_queue: VecDeque<RecvWqe>,
    /// Next per-QP WQE sequence assigned at post time.
    next_seq: u64,
    /// Next sequence expected to retire (send completions).
    retire_seq: u64,
    /// Completions waiting for earlier WQEs to retire first.
    retire_hold: std::collections::BTreeMap<u64, (SimTime, Cqe)>,
    /// Monotonic CQE delivery clock for this QP.
    retire_clock: SimTime,
    /// Requester-side WQE ordering: fetch completions are monotonic so
    /// PCIe jitter can never reorder WQEs within the QP.
    wqe_fetch_fence: SimTime,
    /// Requester-side RC ordering: requests enter the egress scheduler
    /// in WQE order (a gathered write cannot be overtaken by a later
    /// inline op).
    requester_order: SimTime,
    /// Responder-side RC ordering: requests leave the TPU in PSN order
    /// even when they hit different banks.
    responder_order: SimTime,
    /// Responder-side RC ordering, DMA stage: host-memory effects of the
    /// QP's requests happen in PSN order (reads snapshot before later
    /// writes land — the anti-dependency).
    responder_dma_order: SimTime,
    /// Responder-side placement ordering: a read (or atomic) must observe
    /// all earlier writes on the QP, even though DMA reads and writes use
    /// different PCIe directions.
    placement_fence: SimTime,
}

/// Clamps `at` to a per-QP ordering fence and advances the fence to it.
fn advance(fence: &mut SimTime, at: SimTime) -> SimTime {
    *fence = at.max_of(*fence);
    *fence
}

/// Why a post was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostError {
    /// The QP number is unknown.
    UnknownQp,
    /// The send queue is full (`max_send_queue` outstanding).
    SendQueueFull,
    /// The QP is in the Error state; [`Rnic::reset_qp`] it first.
    QpInError,
}

impl core::fmt::Display for PostError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PostError::UnknownQp => f.write_str("unknown queue pair"),
            PostError::SendQueueFull => f.write_str("send queue full"),
            PostError::QpInError => f.write_str("queue pair is in the Error state"),
        }
    }
}

impl std::error::Error for PostError {}

/// Why a [`Rnic::reset_qp`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetError {
    /// The QP number is unknown.
    UnknownQp,
    /// The QP is not in the Error state (nothing to recover from).
    NotInError,
    /// Flushed completions are still draining; poll them first so no
    /// completion is lost across the reset.
    CompletionsPending,
}

impl core::fmt::Display for ResetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ResetError::UnknownQp => f.write_str("unknown queue pair"),
            ResetError::NotInError => f.write_str("queue pair is not in the Error state"),
            ResetError::CompletionsPending => {
                f.write_str("flushed completions still pending; drain the CQ before reset")
            }
        }
    }
}

impl std::error::Error for ResetError {}

/// Internal pipeline events of one NIC.
#[derive(Debug, Clone)]
pub enum NicEvent {
    /// A WQE finished its PCIe fetch and is ready for arbitration.
    WqeFetched {
        /// Owning QP.
        qp: QpNum,
        /// The descriptor.
        wqe: Wqe,
    },
    /// Tx issue arbiter tick: try to push the next WQE into the TxPU.
    TxIssue,
    /// TxPU finished processing a WQE.
    TxPuDone {
        /// Owning QP.
        qp: QpNum,
        /// The descriptor.
        wqe: Wqe,
    },
    /// Gather DMA for a non-inline payload finished.
    GatherDone {
        /// Owning QP.
        qp: QpNum,
        /// The descriptor.
        wqe: Wqe,
    },
    /// A request is ready to enter the egress scheduler (in per-QP WQE
    /// order).
    RequestReady {
        /// Owning QP.
        qp: QpNum,
        /// The descriptor.
        wqe: Wqe,
    },
    /// The egress port finished serializing one packet.
    EgressDone,
    /// A packet arrived from the fabric at the ingress link. Its
    /// handler serializes it on the link and admits it to the RxPU in
    /// one step.
    IngressArrival {
        /// The packet (held by the world's [`PacketArena`]).
        pkt: PacketHandle,
    },
    /// RxPU parsing finished.
    RxPuDone {
        /// The packet.
        pkt: PacketHandle,
    },
    /// The TPU lookup for an inbound request finished.
    TpuDone {
        /// The packet.
        pkt: PacketHandle,
    },
    /// A host-memory DMA transaction for this packet finished.
    DmaDone {
        /// The packet.
        pkt: PacketHandle,
    },
    /// The atomic execution unit finished.
    AtomicExecDone {
        /// The packet.
        pkt: PacketHandle,
    },
    /// The CQE DMA write finished; deliver the completion.
    CqeWrite {
        /// The completion.
        cqe: Cqe,
    },
    /// Retransmission timer for an in-flight message.
    RetransmitCheck {
        /// Owning QP.
        qp: QpNum,
        /// The message to check.
        msg_id: u64,
    },
}

/// Effects a NIC handler asks the world to carry out.
#[derive(Debug, Clone)]
pub enum NicAction {
    /// Schedule a future event on this same NIC.
    Schedule {
        /// Absolute fire time.
        at: SimTime,
        /// The event.
        event: NicEvent,
    },
    /// Hand a packet to the fabric at `at` (it departed the egress port).
    Transmit {
        /// Departure instant.
        at: SimTime,
        /// The packet.
        pkt: PacketHandle,
    },
    /// Deliver a completion to the application at `at`.
    Complete {
        /// Delivery instant.
        at: SimTime,
        /// The completion.
        cqe: Cqe,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AssemblyState {
    /// Segments are being assembled in order. `next_seg` is the segment
    /// index the responder (or requester, for responses) will accept
    /// next; `placed` counts segments whose host-memory DMA finished.
    Receiving {
        next_seg: u32,
        placed: u32,
    },
    Failed,
}

/// A requester message awaiting its response, for retransmission.
#[derive(Debug, Clone)]
struct Inflight {
    qp: QpNum,
    wqe: Wqe,
    /// Timeout retransmissions performed so far.
    retries: u32,
    /// Receiver-not-ready NAKs absorbed so far.
    rnr_retries: u32,
}

/// Exponential-backoff cap: the retransmission timeout doubles per retry
/// up to `timeout << RETRY_BACKOFF_CAP`.
const RETRY_BACKOFF_CAP: u32 = 5;
/// Bounded replay caches (atomic results, completed inbound messages).
const REPLAY_CACHE_CAP: usize = 1024;

/// One simulated RDMA NIC plus its host memory.
#[derive(Debug)]
pub struct Rnic {
    host: HostId,
    profile: DeviceProfile,
    rng: SimRng,
    qps: FxHashMap<QpNum, QpState>,
    tpu: TranslationUnit,
    mem: HostMemory,
    pcie_up: ServiceResource,
    pcie_down: ServiceResource,
    tx_pu: ServiceResource,
    rx_pu: ServiceResource,
    atomic_unit: ServiceResource,
    egress: EgressScheduler,
    ingress: LinkResource,
    noc: NocActivation,
    counters: NicCounters,
    msg_seq: u64,
    issue_order: VecDeque<QpNum>,
    tx_issue_scheduled: bool,
    assembly: FxHashMap<(HostId, u64), AssemblyState>,
    recv_targets: FxHashMap<(HostId, u64), RecvWqe>,
    /// In-flight messages awaiting completion, for retransmission.
    inflight: FxHashMap<u64, Inflight>,
    /// Responder replay cache for atomics: a retransmitted atomic must
    /// not execute twice (RC exactly-once semantics), so the old value is
    /// replayed from here. Bounded FIFO per NIC.
    atomic_replay: FxHashMap<(HostId, u64), u64>,
    atomic_replay_order: VecDeque<(HostId, u64)>,
    /// Responder replay cache for writes/sends: a message retransmitted
    /// because its Ack was lost must not complete (or write a recv WQE)
    /// twice; replays are dropped and the last segment re-Acked. Bounded
    /// FIFO per NIC.
    completed_inbound: FxHashSet<(HostId, u64)>,
    completed_inbound_order: VecDeque<(HostId, u64)>,
    /// Ambient telemetry handle captured at construction; disabled
    /// outside a tracing session (one branch per instrumentation site).
    tracer: Tracer,
}

impl Rnic {
    /// Creates a NIC for `host` with the given device profile and RNG
    /// seed stream.
    pub fn new(host: HostId, profile: DeviceProfile, seed: u64) -> Self {
        let mut egress = EgressScheduler::new(profile.port_rate_bps);
        egress.set_bulk_burst(profile.bulk_burst_segments, profile.inline_threshold);
        egress.set_tx_strict_priority(profile.tx_strict_priority);
        let ingress = LinkResource::new(profile.port_rate_bps);
        let tpu = TranslationUnit::new(&profile);
        let noc = NocActivation::new(
            profile.noc_small_threshold,
            profile.noc_flows_to_activate,
            profile.noc_window,
        );
        Rnic {
            host,
            rng: SimRng::derive(seed, &format!("rnic-{}", host.0)),
            qps: FxHashMap::default(),
            tpu,
            mem: HostMemory::new(),
            pcie_up: ServiceResource::new(),
            pcie_down: ServiceResource::new(),
            tx_pu: ServiceResource::new(),
            rx_pu: ServiceResource::new(),
            atomic_unit: ServiceResource::new(),
            egress,
            ingress,
            noc,
            counters: NicCounters::new(),
            msg_seq: 0,
            issue_order: VecDeque::new(),
            tx_issue_scheduled: false,
            assembly: FxHashMap::default(),
            recv_targets: FxHashMap::default(),
            inflight: FxHashMap::default(),
            atomic_replay: FxHashMap::default(),
            atomic_replay_order: VecDeque::new(),
            completed_inbound: FxHashSet::default(),
            completed_inbound_order: VecDeque::new(),
            profile,
            tracer: ragnar_telemetry::tracer(),
        }
    }

    /// Whether datapath tracing is enabled — the per-site guard.
    #[inline]
    fn trace_on(&self) -> bool {
        self.tracer.enabled(Target::RnicModel)
    }

    /// Telemetry actor for one of this NIC's QPs.
    fn actor(&self, qp: QpNum) -> ActorId {
        ActorId::qp(self.host.0, qp.0)
    }

    /// Records a pipeline-stage span covering `start..end` on `qp`.
    fn trace_stage(&self, name: &'static str, qp: QpNum, start: SimTime, end: SimTime) {
        self.tracer.span(
            Target::RnicModel,
            name,
            self.actor(qp),
            start.as_picos(),
            (end - start).as_picos(),
            &[],
        );
    }

    /// Records a TPU translation span with the microarchitectural cost
    /// components that matter for the paper's ULI channel as args.
    fn trace_tpu(&self, pkt: &Packet, access: &TpuAccess) {
        let r = access.reservation;
        self.tracer.span(
            Target::RnicModel,
            "tpu",
            self.actor(pkt.dst_qp),
            r.start.as_picos(),
            (r.end - r.start).as_picos(),
            &[
                ("opcode", ArgValue::Str(pkt.opcode.name())),
                ("mr_switch_ps", access.breakdown.mr_switch.as_picos().into()),
                ("row_miss_ps", access.breakdown.row_miss.as_picos().into()),
                ("mr_offset", access.mr_offset.into()),
            ],
        );
    }

    /// Records a NAK instant on the responder QP.
    fn trace_nak(&self, now: SimTime, pkt: &Packet, reason: NakReason) {
        if self.trace_on() {
            self.tracer.instant(
                Target::RnicModel,
                "nak",
                self.actor(pkt.dst_qp),
                now.as_picos(),
                &[("reason", ArgValue::Str(reason.name()))],
            );
        }
    }

    /// This NIC's host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The device profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Creates (connects) an RC queue pair.
    ///
    /// # Panics
    ///
    /// Panics if the QP number is already in use.
    pub fn create_qp(&mut self, num: QpNum, config: QpConfig) {
        let prev = self.qps.insert(
            num,
            QpState {
                config,
                transport: QpTransport::Ready,
                sq: VecDeque::new(),
                outstanding: 0,
                recv_queue: VecDeque::new(),
                next_seq: 0,
                retire_seq: 0,
                retire_hold: std::collections::BTreeMap::new(),
                retire_clock: SimTime::ZERO,
                wqe_fetch_fence: SimTime::ZERO,
                requester_order: SimTime::ZERO,
                responder_order: SimTime::ZERO,
                responder_dma_order: SimTime::ZERO,
                placement_fence: SimTime::ZERO,
            },
        );
        assert!(prev.is_none(), "QP {num:?} already exists");
    }

    /// Registers a memory region with the translation unit.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered.
    pub fn register_mr(&mut self, entry: MrEntry) {
        self.tpu.register_mr(entry);
    }

    /// Deregisters an MR; returns whether it existed.
    pub fn deregister_mr(&mut self, key: MrKey) -> bool {
        self.tpu.deregister_mr(key)
    }

    /// ETS weights for the egress scheduler (`mlnx_qos` equivalent).
    pub fn set_ets_weights(&mut self, weights: [u32; TrafficClass::COUNT]) {
        self.egress.set_ets_weights(weights);
    }

    /// Pauses a traffic class until `until` (PFC).
    pub fn pause_tc(&mut self, tc: TrafficClass, until: SimTime) {
        self.egress.pause(tc, until);
    }

    /// Counters (Grain-I/II/III observables).
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// Mutable counters — the fabric attributes wire-level drops
    /// (loss, link-down, ICRC) to the NICs on either end of the link.
    pub fn counters_mut(&mut self) -> &mut NicCounters {
        &mut self.counters
    }

    /// Transport state of a QP, or `None` if it does not exist.
    pub fn qp_transport(&self, qp: QpNum) -> Option<QpTransport> {
        self.qps.get(&qp).map(|s| s.transport)
    }

    /// Checks every QP's structural invariants — the legality conditions
    /// the online QP-state monitor samples during a run. Returns a
    /// description of the first violated invariant, or `None` when all
    /// QPs are legal:
    ///
    /// * `outstanding <= max_send_queue` (the admission check's bound);
    /// * `sq.len() <= outstanding` (queued-not-yet-issued WQEs are a
    ///   subset of outstanding ones);
    /// * `retire_seq <= next_seq` (in-order retirement never runs ahead
    ///   of issue).
    pub fn check_qp_invariants(&self) -> Option<String> {
        for (num, qp) in &self.qps {
            if qp.outstanding > qp.config.max_send_queue {
                return Some(format!(
                    "QP {}: outstanding {} exceeds max_send_queue {}",
                    num.0, qp.outstanding, qp.config.max_send_queue
                ));
            }
            if qp.sq.len() > qp.outstanding {
                return Some(format!(
                    "QP {}: send queue holds {} WQEs but only {} outstanding",
                    num.0,
                    qp.sq.len(),
                    qp.outstanding
                ));
            }
            if qp.retire_seq > qp.next_seq {
                return Some(format!(
                    "QP {}: retire_seq {} ran ahead of next_seq {}",
                    num.0, qp.retire_seq, qp.next_seq
                ));
            }
        }
        None
    }

    /// Forces a QP's `outstanding` past its configured bound — plants
    /// precisely the illegal state [`Rnic::check_qp_invariants`] must
    /// catch.
    #[doc(hidden)]
    pub fn debug_skew_qp_outstanding(&mut self, qp: QpNum) {
        if let Some(state) = self.qps.get_mut(&qp) {
            state.outstanding = state.config.max_send_queue + 1;
        }
    }

    /// Recovers a QP from the Error state (the verbs
    /// `Error → Reset → Init → RTR → RTS` cycle collapsed to one step —
    /// the simulator has no modify-qp latency model).
    ///
    /// # Errors
    ///
    /// [`ResetError::UnknownQp`] if the QP does not exist,
    /// [`ResetError::NotInError`] if it is not in the Error state, and
    /// [`ResetError::CompletionsPending`] while flushed completions are
    /// still draining (resetting then would lose them).
    pub fn reset_qp(&mut self, qp: QpNum) -> Result<(), ResetError> {
        let state = self.qps.get_mut(&qp).ok_or(ResetError::UnknownQp)?;
        if state.transport != QpTransport::Error {
            return Err(ResetError::NotInError);
        }
        if state.outstanding != 0 {
            return Err(ResetError::CompletionsPending);
        }
        state.transport = QpTransport::Ready;
        Ok(())
    }

    /// Host memory (for MR initialization and result inspection).
    pub fn memory(&self) -> &HostMemory {
        &self.mem
    }

    /// Mutable host memory.
    pub fn memory_mut(&mut self) -> &mut HostMemory {
        &mut self.mem
    }

    /// The translation unit (for defense/baseline instrumentation).
    pub fn tpu(&self) -> &TranslationUnit {
        &self.tpu
    }

    /// Mutable translation unit (noise-injection mitigation knob).
    pub fn tpu_mut(&mut self) -> &mut TranslationUnit {
        &mut self.tpu
    }

    /// Number of WQEs currently outstanding on a QP.
    pub fn outstanding(&self, qp: QpNum) -> Option<usize> {
        self.qps.get(&qp).map(|q| q.outstanding)
    }

    /// Times the auxiliary NoC lane switched on.
    pub fn noc_activations(&self) -> u64 {
        self.noc.activation_count()
    }

    fn next_msg_id(&mut self) -> u64 {
        self.msg_seq += 1;
        self.msg_seq
    }

    /// Posts a send-queue WQE. Returns the pipeline actions.
    ///
    /// # Errors
    ///
    /// [`PostError::UnknownQp`] if the QP does not exist;
    /// [`PostError::SendQueueFull`] if `max_send_queue` WQEs are already
    /// outstanding.
    pub fn post_send(
        &mut self,
        now: SimTime,
        qp: QpNum,
        wqe: Wqe,
    ) -> Result<Vec<NicAction>, PostError> {
        let mut out = Vec::new();
        self.post_send_into(now, qp, wqe, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`post_send`](Self::post_send): appends
    /// the pipeline actions to `out` (the event loop reuses one scratch
    /// buffer across all dispatches). `out` is untouched on error.
    ///
    /// # Errors
    ///
    /// Same as [`post_send`](Self::post_send).
    pub fn post_send_into(
        &mut self,
        now: SimTime,
        qp: QpNum,
        mut wqe: Wqe,
        out: &mut Vec<NicAction>,
    ) -> Result<(), PostError> {
        let state = self.qps.get_mut(&qp).ok_or(PostError::UnknownQp)?;
        if state.transport == QpTransport::Error {
            return Err(PostError::QpInError);
        }
        if state.outstanding >= state.config.max_send_queue {
            return Err(PostError::SendQueueFull);
        }
        state.outstanding += 1;
        wqe.posted_at = now;
        wqe.seq = state.next_seq;
        state.next_seq += 1;
        let flow = state.config.flow;

        self.counters.requests_per_opcode[wqe.opcode.index()] += 1;
        if wqe.opcode == Opcode::Write {
            self.noc.note_write(now, flow, wqe.len);
        }

        // Doorbell + WQE fetch over PCIe.
        self.counters.wqes_fetched += 1;
        self.counters.pcie_bytes += WQE_BYTES;
        let ser = SimDuration::serialization(WQE_BYTES, self.profile.pcie_rate_bps);
        let res = self.pcie_up.reserve(now, ser);
        // Verbs ordering: WQEs on one QP execute in post order, so fetch
        // completions must be monotonic per QP despite PCIe jitter.
        let delay = self.profile.pcie_delay(&mut self.rng);
        let ready = advance(&mut state.wqe_fetch_fence, res.end + delay);
        out.push(NicAction::Schedule {
            at: ready,
            event: NicEvent::WqeFetched { qp, wqe },
        });
        Ok(())
    }

    /// Posts a receive WQE (for inbound Sends).
    ///
    /// # Errors
    ///
    /// [`PostError::UnknownQp`] if the QP does not exist;
    /// [`PostError::QpInError`] if it is in the Error state.
    pub fn post_recv(&mut self, qp: QpNum, recv: RecvWqe) -> Result<(), PostError> {
        let state = self.qps.get_mut(&qp).ok_or(PostError::UnknownQp)?;
        if state.transport == QpTransport::Error {
            return Err(PostError::QpInError);
        }
        state.recv_queue.push_back(recv);
        Ok(())
    }

    /// Handles one pipeline event, returning follow-up actions. In-flight
    /// packets live in `arena`; events reference them by handle.
    ///
    /// # Panics
    ///
    /// Panics on internal inconsistencies (events for unknown QPs, stale
    /// packet handles), which indicate a bug in the event loop rather
    /// than a recoverable condition.
    pub fn handle(
        &mut self,
        now: SimTime,
        event: NicEvent,
        arena: &mut PacketArena,
    ) -> Vec<NicAction> {
        let mut out = Vec::new();
        self.handle_into(now, event, arena, &mut out);
        out
    }

    /// Allocation-free variant of [`handle`](Self::handle): appends the
    /// follow-up actions to `out`, so the event loop can reuse one
    /// scratch buffer for every dispatch instead of allocating a fresh
    /// `Vec` per event.
    ///
    /// # Panics
    ///
    /// Same as [`handle`](Self::handle).
    pub fn handle_into(
        &mut self,
        now: SimTime,
        event: NicEvent,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        match event {
            NicEvent::WqeFetched { qp, wqe } => {
                let state = self.qps.get_mut(&qp).expect("WQE for unknown QP");
                if state.transport == QpTransport::Error {
                    // The QP failed while this WQE was in its PCIe fetch.
                    self.flush_send_wqe(now, qp, &wqe, out);
                    return;
                }
                if state.sq.is_empty() {
                    self.issue_order.push_back(qp);
                }
                state.sq.push_back(wqe);
                self.schedule_tx_issue(now, now, out);
            }
            NicEvent::TxIssue => {
                self.tx_issue_scheduled = false;
                self.tx_issue(now, out);
            }
            NicEvent::TxPuDone { qp, wqe } => {
                if self.qp_in_error(qp) {
                    self.flush_send_wqe(now, qp, &wqe, out);
                    return;
                }
                let needs_gather =
                    wqe.opcode.carries_request_payload() && wqe.len > self.profile.inline_threshold;
                if needs_gather {
                    self.counters.pcie_bytes += wqe.len;
                    let ser = SimDuration::serialization(wqe.len, self.profile.pcie_rate_bps);
                    let delay = self.profile.pcie_delay(&mut self.rng);
                    let res = self.pcie_up.reserve(now, ser);
                    // Claim the per-QP hand-off slot now so later WQEs of
                    // this QP cannot slip past while the gather runs.
                    let at = self.requester_fence(qp, res.end + delay);
                    out.push(NicAction::Schedule {
                        at,
                        event: NicEvent::GatherDone { qp, wqe },
                    });
                } else {
                    let at = self.requester_fence(qp, now);
                    out.push(NicAction::Schedule {
                        at,
                        event: NicEvent::RequestReady { qp, wqe },
                    });
                }
            }
            NicEvent::GatherDone { qp, wqe } => {
                // The gather claimed the hand-off fence when it started,
                // and this event was inserted before any later WQE's
                // RequestReady, so enqueueing directly preserves FIFO
                // order at equal timestamps.
                self.enqueue_request(now, qp, wqe, arena, out);
            }
            NicEvent::RequestReady { qp, wqe } => {
                self.enqueue_request(now, qp, wqe, arena, out);
            }
            NicEvent::EgressDone => {
                self.egress.complete_transmission();
                self.kick_egress(now, out);
            }
            NicEvent::IngressArrival { pkt } => {
                // The ingress link and the RxPU are FIFO resources that
                // only this arm reserves, and link end times rise in call
                // order, so admitting to the RxPU at the link's end time
                // here is what a separate event at that time would do.
                let hot = *arena.hot(pkt);
                let wire = u64::from(hot.wire_bytes);
                let received = self.ingress.transmit(now, wire).end;
                self.counters.rx_bytes += wire;
                self.counters.rx_packets += 1;
                self.counters.rx_bytes_per_tc[hot.tc.index()] += wire;
                let res = self.rx_pu.reserve(received, self.profile.rx_pu_service);
                if self.trace_on() {
                    self.trace_stage("rx_pu", arena.get(pkt).dst_qp, res.start, res.end);
                }
                out.push(NicAction::Schedule {
                    at: res.end,
                    event: NicEvent::RxPuDone { pkt },
                });
            }
            NicEvent::RxPuDone { pkt } => self.rx_pu_done(now, pkt, arena, out),
            NicEvent::TpuDone { pkt } => self.tpu_done(now, pkt, arena, out),
            NicEvent::DmaDone { pkt } => self.dma_done(now, pkt, arena, out),
            NicEvent::AtomicExecDone { pkt } => self.atomic_done(now, pkt, arena, out),
            NicEvent::CqeWrite { cqe } => {
                if !cqe.is_recv {
                    if let Some(state) = self.qps.get_mut(&cqe.qp) {
                        state.outstanding = state.outstanding.saturating_sub(1);
                    }
                }
                self.counters.cqes_delivered += 1;
                out.push(NicAction::Complete { at: now, cqe });
            }
            NicEvent::RetransmitCheck { qp, msg_id } => {
                self.retransmit_check(now, qp, msg_id, arena, out);
            }
        }
    }

    fn schedule_tx_issue(&mut self, now: SimTime, at: SimTime, out: &mut Vec<NicAction>) {
        let _ = now;
        if !self.tx_issue_scheduled {
            self.tx_issue_scheduled = true;
            out.push(NicAction::Schedule {
                at,
                event: NicEvent::TxIssue,
            });
        }
    }

    fn tx_issue(&mut self, now: SimTime, out: &mut Vec<NicAction>) {
        if self.tx_pu.next_free() > now {
            let at = self.tx_pu.next_free();
            self.schedule_tx_issue(now, at, out);
            return;
        }
        // Round-robin across QPs with pending WQEs.
        let qp = loop {
            match self.issue_order.pop_front() {
                None => return, // nothing pending
                Some(qp) => {
                    if self.qps.get(&qp).is_some_and(|s| !s.sq.is_empty()) {
                        break qp;
                    }
                }
            }
        };
        let state = self.qps.get_mut(&qp).expect("issue for unknown QP");
        let wqe = state.sq.pop_front().expect("non-empty SQ");
        if !state.sq.is_empty() {
            self.issue_order.push_back(qp);
        }

        // Per-WQE TxPU cost, amortized descriptor work for multi-segment
        // messages, NoC speedup when the auxiliary lane is engaged.
        let segs = if wqe.opcode.carries_request_payload() {
            segment_count(wqe.len)
        } else {
            1
        };
        let mut service = self
            .profile
            .tx_pu_service
            .mul_f64(1.0 + 0.25 * (segs as f64 - 1.0));
        if self.noc.is_active(now) {
            service = service.mul_f64(self.profile.noc_speedup);
        }
        let res = self.tx_pu.reserve(now, service);
        if self.trace_on() {
            self.tracer.span(
                Target::RnicModel,
                "tx_pu",
                self.actor(qp),
                res.start.as_picos(),
                (res.end - res.start).as_picos(),
                &[("opcode", ArgValue::Str(wqe.opcode.name()))],
            );
        }
        out.push(NicAction::Schedule {
            at: res.end,
            event: NicEvent::TxPuDone { qp, wqe },
        });
        if !self.issue_order.is_empty() {
            self.schedule_tx_issue(now, res.end, out);
        }
    }

    fn qp_in_error(&self, qp: QpNum) -> bool {
        self.qps
            .get(&qp)
            .is_some_and(|s| s.transport == QpTransport::Error)
    }

    /// Completes a WQE with [`CqeStatus::Flushed`] through the ordered
    /// retirement path (the QP entered the Error state before this WQE
    /// reached the wire).
    fn flush_send_wqe(&mut self, now: SimTime, qp: QpNum, wqe: &Wqe, out: &mut Vec<NicAction>) {
        self.counters.wqes_flushed += 1;
        let cqe = Cqe {
            qp,
            wr_id: wqe.wr_id,
            status: CqeStatus::Flushed,
            opcode: wqe.opcode,
            byte_len: wqe.len,
            posted_at: wqe.posted_at,
            completed_at: now,
            is_recv: false,
            atomic_old_value: 0,
        };
        self.retire_ordered(now, qp, wqe.seq, cqe, out);
    }

    /// Transitions a QP to the Error state: the WQE that hit the fatal
    /// condition completes with `status`, and everything else queued or
    /// in flight on the QP flushes with [`CqeStatus::Flushed`] (send and
    /// receive queues both, matching verbs error semantics).
    fn fail_qp(
        &mut self,
        now: SimTime,
        qp: QpNum,
        trigger_msg: u64,
        status: CqeStatus,
        out: &mut Vec<NicAction>,
    ) {
        if let Some(entry) = self.inflight.remove(&trigger_msg) {
            self.assembly.remove(&(self.host, trigger_msg));
            let cqe = Cqe {
                qp,
                wr_id: entry.wqe.wr_id,
                status,
                opcode: entry.wqe.opcode,
                byte_len: entry.wqe.len,
                posted_at: entry.wqe.posted_at,
                completed_at: now,
                is_recv: false,
                atomic_old_value: 0,
            };
            self.retire_ordered(now, qp, entry.wqe.seq, cqe, out);
        }
        let Some(state) = self.qps.get_mut(&qp) else {
            return;
        };
        if state.transport == QpTransport::Error {
            return;
        }
        state.transport = QpTransport::Error;
        self.counters.qp_fatal_errors += 1;
        if self.trace_on() {
            self.tracer.instant(
                Target::RnicModel,
                "qp_error",
                self.actor(qp),
                now.as_picos(),
                &[
                    ("status", ArgValue::Str(status.name())),
                    ("trigger_msg", trigger_msg.into()),
                ],
            );
        }
        let state = self.qps.get_mut(&qp).expect("state just accessed");
        let queued: Vec<Wqe> = state.sq.drain(..).collect();
        let recvs: Vec<RecvWqe> = state.recv_queue.drain(..).collect();
        // Other messages of this QP still on the wire flush too; their
        // pending RetransmitCheck timers will find no inflight entry.
        let mut wire: Vec<(u64, Wqe)> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.qp == qp)
            .map(|(&m, e)| (m, e.wqe.clone()))
            .collect();
        wire.sort_by_key(|(_, w)| w.seq);
        for (m, _) in &wire {
            self.inflight.remove(m);
            self.assembly.remove(&(self.host, *m));
        }
        for (_, w) in &wire {
            self.flush_send_wqe(now, qp, w, out);
        }
        for w in &queued {
            self.flush_send_wqe(now, qp, w, out);
        }
        for r in recvs {
            self.counters.wqes_flushed += 1;
            let cqe = Cqe {
                qp,
                wr_id: r.wr_id,
                status: CqeStatus::Flushed,
                opcode: Opcode::Send,
                byte_len: r.len,
                posted_at: now,
                completed_at: now,
                is_recv: true,
                atomic_old_value: 0,
            };
            self.schedule_cqe_write(now, cqe, out);
        }
    }

    fn enqueue_request(
        &mut self,
        now: SimTime,
        qp: QpNum,
        wqe: Wqe,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        if self.qp_in_error(qp) {
            self.flush_send_wqe(now, qp, &wqe, out);
            return;
        }
        let msg_id = self.next_msg_id();
        // Arm the retransmission machinery for this message.
        self.inflight.insert(
            msg_id,
            Inflight {
                qp,
                wqe: wqe.clone(),
                retries: 0,
                rnr_retries: 0,
            },
        );
        out.push(NicAction::Schedule {
            at: now + self.profile.retransmit_timeout,
            event: NicEvent::RetransmitCheck { qp, msg_id },
        });
        self.send_request_packets(now, qp, wqe, msg_id, arena, out);
    }

    /// Builds and enqueues the wire packets of one message (also used on
    /// retransmission, where `msg_id` is reused so the responder can
    /// deduplicate).
    fn send_request_packets(
        &mut self,
        now: SimTime,
        qp: QpNum,
        wqe: Wqe,
        msg_id: u64,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        let config = self.qps.get(&qp).expect("unknown QP").config;
        let (kind, seg_cnt, payload) = match wqe.opcode {
            Opcode::Read => (PacketKind::ReadReq, 1u32, Bytes::new()),
            Opcode::Write => (
                PacketKind::WriteSeg,
                segment_count(wqe.len),
                self.mem.read_bytes(wqe.local_addr, wqe.len),
            ),
            Opcode::Send => (
                PacketKind::SendSeg,
                segment_count(wqe.len),
                self.mem.read_bytes(wqe.local_addr, wqe.len),
            ),
            Opcode::AtomicFetchAdd | Opcode::AtomicCmpSwap => {
                (PacketKind::AtomicReq, 1, Bytes::new())
            }
        };
        for seg in 0..seg_cnt {
            let seg_payload = if payload.is_empty() {
                Bytes::new()
            } else {
                let lo = (seg as u64 * wire::MTU) as usize;
                let hi = ((seg as u64 + 1) * wire::MTU).min(wqe.len) as usize;
                // A refcounted view into the gathered message — no copy.
                payload.slice(lo..hi)
            };
            let pkt = Packet {
                src: self.host,
                dst: config.peer_host,
                src_qp: qp,
                dst_qp: config.peer_qp,
                tc: config.tc,
                flow: config.flow,
                kind,
                msg_id,
                seg_idx: seg,
                seg_cnt,
                payload: seg_payload,
                opcode: wqe.opcode,
                total_len: wqe.len,
                remote_addr: wqe.remote_addr,
                rkey: wqe.rkey,
                atomic_args: wqe.atomic_args,
                local_addr: wqe.local_addr,
                wqe_seq: wqe.seq,
                wr_id: wqe.wr_id,
                posted_at: wqe.posted_at,
            };
            let h = arena.insert(pkt);
            self.egress
                .enqueue(EgressClass::TxRequest, EgressItem::of(arena.get(h), h));
        }
        self.kick_egress(now, out);
    }

    fn kick_egress(&mut self, now: SimTime, out: &mut Vec<NicAction>) {
        if let Some((item, ser)) = self.egress.try_grant(now) {
            let finish = now + ser;
            self.counters.tx_bytes += item.wire_bytes;
            self.counters.tx_packets += 1;
            self.counters.tx_bytes_per_tc[item.tc.index()] += item.wire_bytes;
            if item.payload_len > 0 {
                self.counters
                    .note_flow_payload(item.flow, u64::from(item.payload_len));
            }
            out.push(NicAction::Schedule {
                at: finish,
                event: NicEvent::EgressDone,
            });
            out.push(NicAction::Transmit {
                at: finish,
                pkt: item.pkt,
            });
        }
    }

    fn respond(
        &mut self,
        now: SimTime,
        req: &Packet,
        kind: PacketKind,
        payload: Bytes,
        arena: &mut PacketArena,
    ) {
        let seg_cnt = if payload.is_empty() {
            1
        } else {
            segment_count(payload.len() as u64)
        };
        for seg in 0..seg_cnt {
            let seg_payload = if payload.is_empty() {
                Bytes::new()
            } else {
                let lo = (seg as u64 * wire::MTU) as usize;
                let hi = ((seg as u64 + 1) * wire::MTU).min(payload.len() as u64) as usize;
                payload.slice(lo..hi)
            };
            let pkt = Packet {
                src: self.host,
                dst: req.src,
                src_qp: req.dst_qp,
                dst_qp: req.src_qp,
                tc: req.tc,
                flow: req.flow,
                kind,
                msg_id: req.msg_id,
                seg_idx: seg,
                seg_cnt,
                payload: seg_payload,
                opcode: req.opcode,
                total_len: req.total_len,
                remote_addr: req.remote_addr,
                rkey: req.rkey,
                atomic_args: req.atomic_args,
                local_addr: req.local_addr,
                wqe_seq: req.wqe_seq,
                wr_id: req.wr_id,
                posted_at: req.posted_at,
            };
            let h = arena.insert(pkt);
            self.egress
                .enqueue(EgressClass::RxResponse, EgressItem::of(arena.get(h), h));
        }
        let _ = now;
    }

    fn qp_pd(&self, qp: QpNum) -> PdId {
        self.qps
            .get(&qp)
            .map(|s| s.config.pd)
            // Unknown target QP: validation against a PD that matches no MR.
            .unwrap_or(PdId(u32::MAX))
    }

    fn rx_pu_done(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        let kind = arena.get(h).kind;
        match kind {
            PacketKind::ReadReq | PacketKind::AtomicReq => {
                let (dst_qp, opcode, rkey, remote_addr, total_len) = {
                    let p = arena.get(h);
                    (p.dst_qp, p.opcode, p.rkey, p.remote_addr, p.total_len)
                };
                let pd = self.qp_pd(dst_qp);
                let len = if kind == PacketKind::AtomicReq {
                    wire::ATOMIC_LEN
                } else {
                    total_len
                };
                match self
                    .tpu
                    .access(now, &mut self.rng, pd, opcode, rkey, remote_addr, len)
                {
                    Ok(access) => {
                        self.counters.tpu_lookups += 1;
                        if self.trace_on() {
                            self.trace_tpu(arena.get(h), &access);
                        }
                        let at = self.responder_fence(dst_qp, access.reservation.end);
                        out.push(NicAction::Schedule {
                            at,
                            event: NicEvent::TpuDone { pkt: h },
                        });
                    }
                    Err(reason) => {
                        self.counters.naks_sent += 1;
                        // Terminal: the request dies here; only the NAK
                        // (a fresh packet) goes back out.
                        let pkt = arena.take(h);
                        self.trace_nak(now, &pkt, reason);
                        self.respond(now, &pkt, PacketKind::Nak(reason), Bytes::new(), arena);
                        self.kick_egress(now, out);
                    }
                }
            }
            PacketKind::WriteSeg => {
                if self.drop_replayed_inbound(now, h, arena, out) {
                    return;
                }
                let (key, seg_idx, dst_qp) = {
                    let p = arena.get(h);
                    ((p.src, p.msg_id), p.seg_idx, p.dst_qp)
                };
                if seg_idx == 0 {
                    if let Some(AssemblyState::Receiving { next_seg, .. }) =
                        self.assembly.get_mut(&key)
                    {
                        // Go-back-N restart of a message we already
                        // validated: accept from the top without a second
                        // TPU lookup.
                        *next_seg = 1;
                        let at = self.responder_fence(dst_qp, now);
                        out.push(NicAction::Schedule {
                            at,
                            event: NicEvent::TpuDone { pkt: h },
                        });
                        return;
                    }
                    let pd = self.qp_pd(dst_qp);
                    let (opcode, rkey, remote_addr, total_len) = {
                        let p = arena.get(h);
                        (p.opcode, p.rkey, p.remote_addr, p.total_len)
                    };
                    match self.tpu.access(
                        now,
                        &mut self.rng,
                        pd,
                        opcode,
                        rkey,
                        remote_addr,
                        total_len,
                    ) {
                        Ok(access) => {
                            self.counters.tpu_lookups += 1;
                            self.assembly.insert(
                                key,
                                AssemblyState::Receiving {
                                    next_seg: 1,
                                    placed: 0,
                                },
                            );
                            let at = self.responder_fence(dst_qp, access.reservation.end);
                            out.push(NicAction::Schedule {
                                at,
                                event: NicEvent::TpuDone { pkt: h },
                            });
                        }
                        Err(reason) => {
                            self.counters.naks_sent += 1;
                            self.trace_nak(now, arena.get(h), reason);
                            self.assembly.insert(key, AssemblyState::Failed);
                            let pkt = arena.take(h);
                            self.respond(now, &pkt, PacketKind::Nak(reason), Bytes::new(), arena);
                            self.kick_egress(now, out);
                        }
                    }
                } else {
                    match self.assembly.get_mut(&key) {
                        Some(AssemblyState::Failed) => {
                            // Message already NAK'd; drop the segment,
                            // clear state on the last one.
                            if arena.get(h).is_last_segment() {
                                self.assembly.remove(&key);
                            }
                            arena.free(h);
                        }
                        Some(AssemblyState::Receiving { next_seg, .. }) if *next_seg == seg_idx => {
                            *next_seg = seg_idx + 1;
                            let at = self.responder_fence(dst_qp, now);
                            out.push(NicAction::Schedule {
                                at,
                                event: NicEvent::TpuDone { pkt: h },
                            });
                        }
                        _ => {
                            // A gap (earlier segment lost/reordered) or a
                            // segment for an unknown message: go-back-N —
                            // drop and let the requester's timer resend.
                            self.counters.rx_out_of_order_dropped += 1;
                            arena.free(h);
                        }
                    }
                }
            }
            PacketKind::SendSeg => {
                if self.drop_replayed_inbound(now, h, arena, out) {
                    return;
                }
                let (key, seg_idx, dst_qp, total_len) = {
                    let p = arena.get(h);
                    ((p.src, p.msg_id), p.seg_idx, p.dst_qp, p.total_len)
                };
                if seg_idx == 0 {
                    if let Some(AssemblyState::Receiving { next_seg, .. }) =
                        self.assembly.get_mut(&key)
                    {
                        // Restart of a send we already matched to a recv
                        // WQE: keep the claimed recv, accept from the top.
                        *next_seg = 1;
                        let at = self.responder_fence(dst_qp, now);
                        out.push(NicAction::Schedule {
                            at,
                            event: NicEvent::TpuDone { pkt: h },
                        });
                        return;
                    }
                    // A replay of a previously NAK'd send retries the
                    // match: the application may have posted a receive
                    // since (that is what the rnr_retry budget buys).
                    self.assembly.remove(&key);
                    let recv = self
                        .qps
                        .get_mut(&dst_qp)
                        .and_then(|s| s.recv_queue.pop_front());
                    match recv {
                        Some(r) if r.len >= total_len => {
                            self.assembly.insert(
                                key,
                                AssemblyState::Receiving {
                                    next_seg: 1,
                                    placed: 0,
                                },
                            );
                            self.recv_targets.insert(key, r);
                            let at = self.responder_fence(dst_qp, now);
                            out.push(NicAction::Schedule {
                                at,
                                event: NicEvent::TpuDone { pkt: h },
                            });
                        }
                        _ => {
                            self.counters.naks_sent += 1;
                            self.trace_nak(now, arena.get(h), NakReason::ReceiveNotPosted);
                            self.assembly.insert(key, AssemblyState::Failed);
                            let pkt = arena.take(h);
                            self.respond(
                                now,
                                &pkt,
                                PacketKind::Nak(NakReason::ReceiveNotPosted),
                                Bytes::new(),
                                arena,
                            );
                            self.kick_egress(now, out);
                        }
                    }
                } else {
                    match self.assembly.get_mut(&key) {
                        Some(AssemblyState::Failed) => {
                            if arena.get(h).is_last_segment() {
                                self.assembly.remove(&key);
                                self.recv_targets.remove(&key);
                            }
                            arena.free(h);
                        }
                        Some(AssemblyState::Receiving { next_seg, .. }) if *next_seg == seg_idx => {
                            *next_seg = seg_idx + 1;
                            let at = self.responder_fence(dst_qp, now);
                            out.push(NicAction::Schedule {
                                at,
                                event: NicEvent::TpuDone { pkt: h },
                            });
                        }
                        _ => {
                            self.counters.rx_out_of_order_dropped += 1;
                            arena.free(h);
                        }
                    }
                }
            }
            PacketKind::ReadResp | PacketKind::AtomicResp => {
                let (msg_id, seg_idx, payload_len) = {
                    let p = arena.get(h);
                    (p.msg_id, p.seg_idx, p.payload.len() as u64)
                };
                if !self.inflight.contains_key(&msg_id) {
                    // Late or duplicate response: the message already
                    // completed (or was flushed). Dropping here keeps the
                    // exactly-once completion contract.
                    self.counters.rx_duplicate_dropped += 1;
                    arena.free(h);
                    return;
                }
                let key = (self.host, msg_id);
                let accept = match self
                    .assembly
                    .entry(key)
                    .or_insert(AssemblyState::Receiving {
                        next_seg: 0,
                        placed: 0,
                    }) {
                    AssemblyState::Receiving { next_seg, .. } if *next_seg == seg_idx => {
                        *next_seg = seg_idx + 1;
                        true
                    }
                    _ => false,
                };
                if !accept {
                    // Gap in the response stream: go-back-N — the timer
                    // will redrive the whole request.
                    self.counters.rx_out_of_order_dropped += 1;
                    arena.free(h);
                    return;
                }
                // Requester side: DMA the payload down to host memory.
                self.counters.pcie_bytes += payload_len;
                let ser =
                    SimDuration::serialization(payload_len.max(1), self.profile.pcie_rate_bps);
                let delay = self.profile.pcie_delay(&mut self.rng);
                let res = self.pcie_down.reserve(now, ser);
                out.push(NicAction::Schedule {
                    at: res.end + delay,
                    event: NicEvent::DmaDone { pkt: h },
                });
            }
            PacketKind::Ack | PacketKind::Nak(_) => {
                // Terminal on the requester side.
                let pkt = arena.take(h);
                self.requester_response(now, &pkt, out);
            }
        }
    }

    /// Requester-side handling of an Ack or Nak for one of our messages.
    fn requester_response(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<NicAction>) {
        let Some(entry) = self.inflight.get_mut(&pkt.msg_id) else {
            // Duplicate/late response for a message that already
            // completed (its Ack beat this copy, or it was flushed).
            self.counters.rx_duplicate_dropped += 1;
            return;
        };
        match pkt.kind {
            PacketKind::Nak(NakReason::ReceiveNotPosted) => {
                // Receiver-not-ready: the responder had no recv WQE yet.
                // Absorb the NAK within the rnr_retry budget and let the
                // retransmission timer redrive the message — the peer may
                // post a receive in the meantime.
                if entry.rnr_retries < self.profile.rnr_retry_limit {
                    entry.rnr_retries += 1;
                    let qp = entry.qp;
                    self.counters.rnr_naks += 1;
                    if self.trace_on() {
                        self.tracer.instant(
                            Target::RnicModel,
                            "rnr_nak",
                            self.actor(qp),
                            now.as_picos(),
                            &[("msg_id", pkt.msg_id.into())],
                        );
                    }
                    return;
                }
                let qp = entry.qp;
                self.fail_qp(
                    now,
                    qp,
                    pkt.msg_id,
                    CqeStatus::RemoteError(NakReason::ReceiveNotPosted),
                    out,
                );
            }
            PacketKind::Nak(reason) => {
                // Protection NAK (bounds, rkey, PD): complete this WR with
                // the error but keep the QP usable — access violations are
                // the *probe* mechanism of the paper's snooping attack,
                // not a transport failure.
                self.deliver_cqe(now, pkt, CqeStatus::RemoteError(reason), false, 0, out);
            }
            _ => self.deliver_cqe(now, pkt, CqeStatus::Success, false, 0, out),
        }
    }

    /// Responder check for write/send segments: true when the packet
    /// belongs to a message that already completed — a replay caused by a
    /// lost Ack. The data (and any recv WQE consumption) must not be
    /// applied twice; re-Acking the last segment stops the requester.
    /// When it returns true the packet has been consumed from the arena.
    fn drop_replayed_inbound(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) -> bool {
        let key = {
            let p = arena.get(h);
            (p.src, p.msg_id)
        };
        if !self.completed_inbound.contains(&key) {
            return false;
        }
        self.counters.rx_duplicate_dropped += 1;
        let pkt = arena.take(h);
        if pkt.is_last_segment() {
            self.respond(now, &pkt, PacketKind::Ack, Bytes::new(), arena);
            self.kick_egress(now, out);
        }
        true
    }

    fn note_completed_inbound(&mut self, key: (HostId, u64)) {
        if self.completed_inbound.insert(key) {
            self.completed_inbound_order.push_back(key);
            while self.completed_inbound_order.len() > REPLAY_CACHE_CAP {
                if let Some(evict) = self.completed_inbound_order.pop_front() {
                    self.completed_inbound.remove(&evict);
                }
            }
        }
    }

    /// Clamps a responder pipeline event to PSN order for its QP.
    fn responder_fence(&mut self, qp: QpNum, at: SimTime) -> SimTime {
        let state = self.qps.get_mut(&qp).expect("fence on unknown QP");
        advance(&mut state.responder_order, at)
    }

    /// Fires when a message's retransmission timer expires.
    fn retransmit_check(
        &mut self,
        now: SimTime,
        qp: QpNum,
        msg_id: u64,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        let Some(entry) = self.inflight.get(&msg_id).cloned() else {
            return; // completed in time
        };
        if entry.retries >= self.profile.max_retries {
            // Retry budget exhausted: fatal transport error for the QP.
            self.fail_qp(now, qp, msg_id, CqeStatus::RetryExceeded, out);
            return;
        }
        let retries = entry.retries + 1;
        let wqe = entry.wqe.clone();
        self.inflight.insert(msg_id, Inflight { retries, ..entry });
        self.counters.retransmits += 1;
        if self.trace_on() {
            self.tracer.instant(
                Target::RnicModel,
                "retransmit",
                self.actor(qp),
                now.as_picos(),
                &[
                    ("msg_id", msg_id.into()),
                    ("retries", u64::from(retries).into()),
                ],
            );
        }
        // Drop partial response state and resend the whole message; the
        // next check backs off exponentially (IB-style retry pacing) so
        // repeated losses don't flood the fabric.
        self.assembly.remove(&(self.host, msg_id));
        let backoff = self
            .profile
            .retransmit_timeout
            .mul_f64((1u64 << retries.min(RETRY_BACKOFF_CAP)) as f64);
        out.push(NicAction::Schedule {
            at: now + backoff,
            event: NicEvent::RetransmitCheck { qp, msg_id },
        });
        self.send_request_packets(now, qp, wqe, msg_id, arena, out);
    }

    /// Clamps a requester request hand-off to WQE order for its QP.
    fn requester_fence(&mut self, qp: QpNum, at: SimTime) -> SimTime {
        let state = self.qps.get_mut(&qp).expect("fence on unknown QP");
        advance(&mut state.requester_order, at)
    }

    fn tpu_done(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        let (kind, dst_qp, total_len, payload_len) = {
            let p = arena.get(h);
            (p.kind, p.dst_qp, p.total_len, p.payload.len() as u64)
        };
        let state = self.qps.get_mut(&dst_qp).expect("fence on unknown QP");
        match kind {
            PacketKind::ReadReq => {
                // DMA-read the data from host memory, after any earlier
                // write on this QP has been placed (same-QP ordering).
                self.counters.pcie_bytes += total_len;
                let ser = SimDuration::serialization(total_len.max(1), self.profile.pcie_rate_bps);
                let delay = self.profile.pcie_delay(&mut self.rng);
                let res = self.pcie_up.reserve(now, ser);
                let ready = (res.end + delay).max_of(state.placement_fence);
                let at = advance(&mut state.responder_dma_order, ready);
                out.push(NicAction::Schedule {
                    at,
                    event: NicEvent::DmaDone { pkt: h },
                });
            }
            PacketKind::WriteSeg | PacketKind::SendSeg => {
                self.counters.pcie_bytes += payload_len;
                let ser =
                    SimDuration::serialization(payload_len.max(1), self.profile.pcie_rate_bps);
                let delay = self.profile.pcie_delay(&mut self.rng);
                let res = self.pcie_down.reserve(now, ser);
                let placed = advance(&mut state.responder_dma_order, res.end + delay);
                state.placement_fence = state.placement_fence.max_of(placed);
                out.push(NicAction::Schedule {
                    at: placed,
                    event: NicEvent::DmaDone { pkt: h },
                });
            }
            PacketKind::AtomicReq => {
                let res = self.atomic_unit.reserve(
                    now.max_of(state.placement_fence),
                    self.profile.atomic_unit_service,
                );
                let at = advance(&mut state.responder_dma_order, res.end);
                out.push(NicAction::Schedule {
                    at,
                    event: NicEvent::AtomicExecDone { pkt: h },
                });
            }
            _ => unreachable!("TpuDone for non-request packet"),
        }
    }

    fn dma_done(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        // Every DmaDone branch is terminal for the inbound packet: it is
        // consumed here and only fresh packets (responses) re-enter the
        // arena.
        let pkt = arena.take(h);
        match pkt.kind {
            PacketKind::ReadReq => {
                // Responder: data fetched; emit the response segments.
                self.counters.responder_ops_per_opcode[pkt.opcode.index()] += 1;
                let data = self.mem.read_bytes(pkt.remote_addr, pkt.total_len);
                self.respond(now, &pkt, PacketKind::ReadResp, data, arena);
                self.kick_egress(now, out);
            }
            PacketKind::WriteSeg => {
                let addr = pkt.segment_addr();
                self.mem.write(addr, &pkt.payload);
                self.finish_inbound_segment(now, pkt, arena, out);
            }
            PacketKind::SendSeg => {
                let key = (pkt.src, pkt.msg_id);
                if let Some(recv) = self.recv_targets.get(&key).copied() {
                    let addr = recv.local_addr + pkt.seg_idx as u64 * wire::MTU;
                    self.mem.write(addr, &pkt.payload);
                }
                self.finish_inbound_segment(now, pkt, arena, out);
            }
            PacketKind::ReadResp | PacketKind::AtomicResp => {
                // Requester: place the payload into the WQE's local buffer.
                if !pkt.payload.is_empty() {
                    let addr = pkt.local_addr + pkt.seg_idx as u64 * wire::MTU;
                    self.mem.write(addr, &pkt.payload);
                }
                let key = (self.host, pkt.msg_id);
                let done = match self.assembly.get_mut(&key) {
                    Some(AssemblyState::Receiving { placed, .. }) => {
                        *placed += 1;
                        *placed == pkt.seg_cnt
                    }
                    // Assembly cleared between acceptance and DMA (a
                    // timeout resend or a QP flush): don't complete.
                    _ => false,
                };
                if done {
                    self.assembly.remove(&key);
                    let old = if pkt.kind == PacketKind::AtomicResp {
                        let bytes = pkt.payload.to_vec();
                        u64::from_le_bytes(bytes.try_into().unwrap_or([0; 8]))
                    } else {
                        0
                    };
                    self.deliver_cqe(now, &pkt, CqeStatus::Success, false, old, out);
                }
            }
            _ => unreachable!("DmaDone for unexpected packet kind"),
        }
    }

    fn finish_inbound_segment(
        &mut self,
        now: SimTime,
        pkt: Packet,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        let key = (pkt.src, pkt.msg_id);
        // Segments are accepted strictly in order and responder DMAs are
        // fenced per QP, so the whole message is placed exactly when the
        // last segment's DMA lands while the assembly is still live.
        let done = match self.assembly.get_mut(&key) {
            Some(AssemblyState::Receiving { placed, .. }) => {
                *placed += 1;
                pkt.is_last_segment()
            }
            // Already completed (a replayed tail) or NAK'd.
            _ => false,
        };
        if done {
            self.assembly.remove(&key);
            self.note_completed_inbound(key);
            self.counters.responder_ops_per_opcode[pkt.opcode.index()] += 1;
            self.respond(now, &pkt, PacketKind::Ack, Bytes::new(), arena);
            self.kick_egress(now, out);
            if pkt.kind == PacketKind::SendSeg {
                if let Some(recv) = self.recv_targets.remove(&key) {
                    // Receive completion on the responder.
                    let cqe = Cqe {
                        qp: pkt.dst_qp,
                        wr_id: recv.wr_id,
                        status: CqeStatus::Success,
                        opcode: pkt.opcode,
                        byte_len: pkt.total_len,
                        posted_at: pkt.posted_at,
                        completed_at: now,
                        is_recv: true,
                        atomic_old_value: 0,
                    };
                    self.schedule_cqe_write(now, cqe, out);
                }
            }
        }
    }

    fn atomic_done(
        &mut self,
        now: SimTime,
        h: PacketHandle,
        arena: &mut PacketArena,
        out: &mut Vec<NicAction>,
    ) {
        // Execute on host memory; 8 B each way over PCIe is folded into
        // the atomic unit's service time. RC semantics: a retransmitted
        // atomic must not execute twice, so replay the cached result.
        let pkt = arena.take(h);
        self.counters.responder_ops_per_opcode[pkt.opcode.index()] += 1;
        self.counters.pcie_bytes += 16;
        let replay_key = (pkt.src, pkt.msg_id);
        let (compare, operand) = pkt.atomic_args;
        let old = if let Some(&cached) = self.atomic_replay.get(&replay_key) {
            cached
        } else {
            let old = match pkt.opcode {
                Opcode::AtomicFetchAdd => self.mem.fetch_add_u64(pkt.remote_addr, operand),
                Opcode::AtomicCmpSwap => {
                    self.mem.compare_swap_u64(pkt.remote_addr, compare, operand)
                }
                _ => unreachable!("atomic exec for non-atomic opcode"),
            };
            self.atomic_replay.insert(replay_key, old);
            self.atomic_replay_order.push_back(replay_key);
            while self.atomic_replay_order.len() > REPLAY_CACHE_CAP {
                if let Some(evict) = self.atomic_replay_order.pop_front() {
                    self.atomic_replay.remove(&evict);
                }
            }
            old
        };
        self.respond(
            now,
            &pkt,
            PacketKind::AtomicResp,
            Bytes::from(old.to_le_bytes().to_vec()),
            arena,
        );
        self.kick_egress(now, out);
    }

    fn deliver_cqe(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        status: CqeStatus,
        is_recv: bool,
        atomic_old: u64,
        out: &mut Vec<NicAction>,
    ) {
        if !is_recv && self.inflight.remove(&pkt.msg_id).is_none() {
            // The message already completed (duplicate Ack) or was
            // flushed: never deliver a second completion for one WR.
            self.counters.rx_duplicate_dropped += 1;
            return;
        }
        let cqe = Cqe {
            qp: pkt.dst_qp,
            wr_id: pkt.wr_id,
            status,
            opcode: pkt.opcode,
            byte_len: pkt.total_len,
            posted_at: pkt.posted_at,
            completed_at: now,
            is_recv,
            atomic_old_value: atomic_old,
        };
        if is_recv {
            self.schedule_cqe_write(now, cqe, out);
            return;
        }
        self.retire_ordered(now, pkt.dst_qp, pkt.wqe_seq, cqe, out);
    }

    /// RC retirement: send completions are delivered strictly in post
    /// order per QP, so a fast later op waits for its predecessors.
    fn retire_ordered(
        &mut self,
        ready: SimTime,
        qp: QpNum,
        seq: u64,
        cqe: Cqe,
        out: &mut Vec<NicAction>,
    ) {
        let Some(state) = self.qps.get_mut(&qp) else {
            self.schedule_cqe_write(ready, cqe, out);
            return;
        };
        // In-order fast path (the overwhelmingly common case on RC):
        // this is the next WQE and nothing is held back, so no hold-map
        // traffic at all.
        if seq == state.retire_seq && state.retire_hold.is_empty() {
            state.retire_seq += 1;
            let at = ready.max_of(state.retire_clock);
            state.retire_clock = at;
            self.schedule_cqe_write(at, cqe, out);
            return;
        }
        state.retire_hold.insert(seq, (ready, cqe));
        // Drain every WQE that is now retirable before scheduling the
        // writes, so the `qps` borrow ends first; delivery order and
        // timestamps are identical to retiring one at a time.
        let mut due: Vec<(SimTime, Cqe)> = Vec::new();
        while let Some((ready, cqe)) = state.retire_hold.remove(&state.retire_seq) {
            state.retire_seq += 1;
            let at = ready.max_of(state.retire_clock);
            state.retire_clock = at;
            due.push((at, cqe));
        }
        for (at, cqe) in due {
            self.schedule_cqe_write(at, cqe, out);
        }
    }

    fn schedule_cqe_write(&mut self, now: SimTime, mut cqe: Cqe, out: &mut Vec<NicAction>) {
        self.counters.pcie_bytes += CQE_BYTES;
        let ser = SimDuration::serialization(CQE_BYTES, self.profile.pcie_rate_bps);
        let res = self.pcie_down.reserve(now, ser);
        let at = res.end + self.profile.cqe_delivery;
        cqe.completed_at = at;
        out.push(NicAction::Schedule {
            at,
            event: NicEvent::CqeWrite { cqe },
        });
    }
}
