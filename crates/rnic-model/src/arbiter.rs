//! Egress port scheduler: the merged "Tx arbiter / Rx arbiter" of the
//! paper's Fig. 3.
//!
//! Locally-sourced request packets (the logical **Tx arbiter**) take
//! strict priority over responder-generated packets — read responses,
//! atomic responses and ACKs (the logical **Rx arbiter**). This is Key
//! Finding 3 of §IV-B. Within each priority group, traffic classes share
//! the port by deficit-weighted round robin using the ETS weights
//! configured through the `mlnx_qos` equivalent.
//!
//! Queues hold [`EgressItem`]s — a packet [handle](PacketHandle) plus
//! the few header fields the arbiter's grant decisions read (wire size,
//! traffic class, bulk-write eligibility) — so arbitration never moves
//! or touches the full packet, which stays in the
//! [`PacketArena`](crate::PacketArena) from allocation to delivery.

use crate::arena::PacketHandle;
use crate::packet::{Packet, PacketKind};
use crate::types::{FlowId, TrafficClass};
use sim_core::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Which logical arbiter a packet goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressClass {
    /// Locally-initiated requests (higher priority, Key Finding 3).
    TxRequest,
    /// Responder-generated packets (lower priority).
    RxResponse,
}

/// One queued packet, reduced to the handle plus the header fields the
/// scheduler's grant logic reads.
#[derive(Debug, Clone, Copy)]
pub struct EgressItem {
    /// The queued packet.
    pub pkt: PacketHandle,
    /// Cached [`Packet::wire_bytes`].
    pub wire_bytes: u64,
    /// Payload length in bytes (for per-flow accounting).
    pub payload_len: u32,
    /// Traffic class (selects the DWRR queue).
    pub tc: TrafficClass,
    /// Application flow label (for per-flow accounting).
    pub flow: FlowId,
    /// True for write segments — the bulk-burst candidates.
    pub is_write_seg: bool,
    /// Total message length (bulk-burst threshold check).
    pub total_len: u64,
}

impl EgressItem {
    /// Captures the grant-relevant header fields of `pkt` under handle
    /// `h`.
    pub fn of(pkt: &Packet, h: PacketHandle) -> EgressItem {
        EgressItem {
            pkt: h,
            wire_bytes: pkt.wire_bytes(),
            payload_len: u32::try_from(pkt.payload.len()).expect("payload fits u32"),
            tc: pkt.tc,
            flow: pkt.flow,
            is_write_seg: matches!(pkt.kind, PacketKind::WriteSeg),
            total_len: pkt.total_len,
        }
    }
}

#[derive(Debug)]
struct Group {
    queues: [VecDeque<EgressItem>; TrafficClass::COUNT],
    deficit: [i64; TrafficClass::COUNT],
    cursor: usize,
}

impl Group {
    fn new() -> Self {
        Group {
            queues: Default::default(),
            deficit: [0; TrafficClass::COUNT],
            cursor: 0,
        }
    }

    fn is_empty(&self, paused_until: &[SimTime; TrafficClass::COUNT], now: SimTime) -> bool {
        self.queues
            .iter()
            .enumerate()
            .all(|(tc, q)| q.is_empty() || paused_until[tc] > now)
    }

    fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Classic DWRR: sweep classes from the cursor, topping up deficits by
    /// one quantum per full pass, until some head packet fits.
    fn grant(
        &mut self,
        weights: &[u32; TrafficClass::COUNT],
        paused_until: &[SimTime; TrafficClass::COUNT],
        now: SimTime,
    ) -> Option<EgressItem> {
        if self.is_empty(paused_until, now) {
            return None;
        }
        // Bounded: each pass adds ≥ QUANTUM_UNIT × weight ≥ 64 bytes of
        // deficit to some eligible class, and packets are ≤ MTU+headers.
        const QUANTUM_UNIT: i64 = 256;
        loop {
            for step in 0..TrafficClass::COUNT {
                let tc = (self.cursor + step) % TrafficClass::COUNT;
                if self.queues[tc].is_empty() || paused_until[tc] > now {
                    continue;
                }
                let need = self.queues[tc]
                    .front()
                    .map(|p| p.wire_bytes as i64)
                    .unwrap_or(0);
                if self.deficit[tc] >= need {
                    self.deficit[tc] -= need;
                    let item = self.queues[tc].pop_front();
                    if self.queues[tc].is_empty() {
                        // Idle classes don't accumulate deficit.
                        self.deficit[tc] = 0;
                    }
                    self.cursor = tc;
                    return item;
                }
                self.deficit[tc] += QUANTUM_UNIT * i64::from(weights[tc].max(1));
            }
            self.cursor = (self.cursor + 1) % TrafficClass::COUNT;
        }
    }
}

/// The egress port scheduler of one RNIC.
#[derive(Debug)]
pub struct EgressScheduler {
    rate_bps: u64,
    weights: [u32; TrafficClass::COUNT],
    tx: Group,
    rx: Group,
    paused_until: [SimTime; TrafficClass::COUNT],
    busy: bool,
    granted_packets: u64,
    granted_bytes: u64,
    /// Bulk-write burst mode (Key Finding 1): once a non-inline write
    /// segment is granted, up to `bulk_burst` further write segments of
    /// the same traffic class are granted back-to-back, bypassing DWRR.
    bulk_burst: u32,
    bulk_threshold: u64,
    burst_state: Option<(usize, u32)>,
    /// Ablation knob: when false, Tx and Rx groups alternate instead of
    /// Tx taking 3:1 priority (disables Key Finding 3).
    tx_strict_priority: bool,
    rr_toggle: bool,
    tx_streak: u32,
}

impl EgressScheduler {
    /// Creates a scheduler for a port at `rate_bps`, with equal ETS
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn new(rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "port rate must be positive");
        EgressScheduler {
            rate_bps,
            weights: [1; TrafficClass::COUNT],
            tx: Group::new(),
            rx: Group::new(),
            paused_until: [SimTime::ZERO; TrafficClass::COUNT],
            busy: false,
            granted_packets: 0,
            granted_bytes: 0,
            bulk_burst: 0,
            bulk_threshold: u64::MAX,
            burst_state: None,
            tx_strict_priority: true,
            rr_toggle: false,
            tx_streak: 0,
        }
    }

    /// Ablation knob for Key Finding 3: `false` makes the Tx and Rx
    /// groups share the port round-robin instead of Tx-strict.
    pub fn set_tx_strict_priority(&mut self, strict: bool) {
        self.tx_strict_priority = strict;
    }

    /// Enables bulk-write burst grants: writes with a total message length
    /// of at least `threshold` bytes pull up to `burst` same-class write
    /// segments through the port back-to-back. This is the arbiter quirk
    /// behind the Fig.-4 crossover (Key Finding 1).
    pub fn set_bulk_burst(&mut self, burst: u32, threshold: u64) {
        self.bulk_burst = burst;
        self.bulk_threshold = threshold;
    }

    /// Applies ETS bandwidth-share weights (the `mlnx_qos` ETS mode of the
    /// paper's setup). Zero weights are treated as 1.
    pub fn set_ets_weights(&mut self, weights: [u32; TrafficClass::COUNT]) {
        self.weights = weights;
    }

    /// Pauses a traffic class until `until` (PFC hook for the defense
    /// crate).
    pub fn pause(&mut self, tc: TrafficClass, until: SimTime) {
        self.paused_until[tc.index()] = until;
    }

    /// Enqueues a packet into the given logical arbiter.
    pub fn enqueue(&mut self, class: EgressClass, item: EgressItem) {
        let tc = item.tc.index();
        match class {
            EgressClass::TxRequest => self.tx.queues[tc].push_back(item),
            EgressClass::RxResponse => self.rx.queues[tc].push_back(item),
        }
    }

    /// Marks the in-flight packet finished (called from the `EgressDone`
    /// event handler before asking for the next grant).
    pub fn complete_transmission(&mut self) {
        debug_assert!(self.busy, "complete_transmission while idle");
        self.busy = false;
    }

    /// If the port is idle and a packet is eligible, grants it: returns
    /// the item and its serialization time. The caller schedules
    /// `EgressDone` at `now + duration` and the fabric hand-off.
    pub fn try_grant(&mut self, now: SimTime) -> Option<(EgressItem, SimDuration)> {
        if self.busy {
            return None;
        }
        // Bulk-burst continuation: keep draining same-class write segments.
        let item = self.burst_continuation(now).or_else(|| {
            if self.tx_strict_priority {
                // The logical Tx arbiter outranks the Rx arbiter (Key
                // Finding 3) — weighted 3:1 rather than absolute, so
                // responses are squeezed hard but never fully starved.
                const TX_RATIO: u32 = 3;
                let tx_first = self.tx_streak < TX_RATIO;
                let granted = if tx_first {
                    self.tx
                        .grant(&self.weights, &self.paused_until, now)
                        .map(|p| (p, true))
                        .or_else(|| {
                            self.rx
                                .grant(&self.weights, &self.paused_until, now)
                                .map(|p| (p, false))
                        })
                } else {
                    self.rx
                        .grant(&self.weights, &self.paused_until, now)
                        .map(|p| (p, false))
                        .or_else(|| {
                            self.tx
                                .grant(&self.weights, &self.paused_until, now)
                                .map(|p| (p, true))
                        })
                };
                granted.map(|(p, was_tx)| {
                    if was_tx {
                        self.tx_streak += 1;
                    } else {
                        self.tx_streak = 0;
                    }
                    p
                })
            } else {
                // Ablation: alternate between the groups.
                self.rr_toggle = !self.rr_toggle;
                if self.rr_toggle {
                    self.tx
                        .grant(&self.weights, &self.paused_until, now)
                        .or_else(|| self.rx.grant(&self.weights, &self.paused_until, now))
                } else {
                    self.rx
                        .grant(&self.weights, &self.paused_until, now)
                        .or_else(|| self.tx.grant(&self.weights, &self.paused_until, now))
                }
            }
        })?;
        // Arm or clear the burst window.
        if item.is_write_seg && item.total_len >= self.bulk_threshold {
            let left = match self.burst_state.take() {
                Some((tc, left)) if tc == item.tc.index() => left,
                _ => self.bulk_burst,
            };
            if left > 0 {
                self.burst_state = Some((item.tc.index(), left));
            }
        } else {
            self.burst_state = None;
        }
        self.busy = true;
        self.granted_packets += 1;
        self.granted_bytes += item.wire_bytes;
        Some((
            item,
            SimDuration::serialization(item.wire_bytes, self.rate_bps),
        ))
    }

    fn burst_continuation(&mut self, now: SimTime) -> Option<EgressItem> {
        let (tc, left) = self.burst_state?;
        if left == 0 || self.paused_until[tc] > now {
            self.burst_state = None;
            return None;
        }
        let is_bulk_write = self.tx.queues[tc]
            .front()
            .is_some_and(|p| p.is_write_seg && p.total_len >= self.bulk_threshold);
        if !is_bulk_write {
            self.burst_state = None;
            return None;
        }
        self.burst_state = Some((tc, left - 1));
        self.tx.queues[tc].pop_front()
    }

    /// Packets waiting in the Tx (request) group.
    pub fn tx_depth(&self) -> usize {
        self.tx.depth()
    }

    /// Packets waiting in the Rx (response) group.
    pub fn rx_depth(&self) -> usize {
        self.rx.depth()
    }

    /// Total packets granted so far.
    pub fn granted_packets(&self) -> u64 {
        self.granted_packets
    }

    /// Total wire bytes granted so far.
    pub fn granted_bytes(&self) -> u64 {
        self.granted_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PacketArena;
    use crate::packet::{Packet, PacketKind};
    use crate::types::{HostId, MrKey, Opcode, QpNum};
    use bytes::Bytes;

    fn pkt(tc: u8, kind: PacketKind, payload: usize) -> Packet {
        Packet {
            src: HostId(0),
            dst: HostId(1),
            src_qp: QpNum(0),
            dst_qp: QpNum(0),
            tc: TrafficClass::new(tc),
            flow: FlowId(0),
            kind,
            msg_id: 0,
            seg_idx: 0,
            seg_cnt: 1,
            payload: Bytes::from(vec![0u8; payload]),
            opcode: Opcode::Write,
            total_len: payload as u64,
            remote_addr: 0,
            rkey: MrKey(0),
            atomic_args: (0, 0),
            local_addr: 0,
            wqe_seq: 0,
            wr_id: 0,
            posted_at: SimTime::ZERO,
        }
    }

    fn enqueue(s: &mut EgressScheduler, arena: &mut PacketArena, class: EgressClass, p: Packet) {
        let h = arena.insert(p);
        s.enqueue(class, EgressItem::of(arena.get(h), h));
    }

    /// Grants everything eligible, resolving each item back to its
    /// packet through the arena.
    fn drain(s: &mut EgressScheduler, arena: &mut PacketArena, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some((item, _)) = s.try_grant(now) {
            out.push(arena.take(item.pkt));
            s.complete_transmission();
        }
        out
    }

    #[test]
    fn tx_beats_rx_strictly() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        enqueue(
            &mut s,
            &mut a,
            EgressClass::RxResponse,
            pkt(0, PacketKind::ReadResp, 64),
        );
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(0, PacketKind::WriteSeg, 64),
        );
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(0, PacketKind::WriteSeg, 64),
        );
        let order = drain(&mut s, &mut a, SimTime::ZERO);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0].kind, PacketKind::WriteSeg);
        assert_eq!(order[1].kind, PacketKind::WriteSeg);
        assert_eq!(order[2].kind, PacketKind::ReadResp);
        assert_eq!(a.live(), 0, "drain consumed every arena slot");
    }

    #[test]
    fn busy_port_grants_one_at_a_time() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(0, PacketKind::WriteSeg, 64),
        );
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(0, PacketKind::WriteSeg, 64),
        );
        assert!(s.try_grant(SimTime::ZERO).is_some());
        assert!(s.try_grant(SimTime::ZERO).is_none(), "port is busy");
        s.complete_transmission();
        assert!(s.try_grant(SimTime::ZERO).is_some());
    }

    #[test]
    fn ets_weights_share_bandwidth() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        let mut w = [1u32; 8];
        w[0] = 3;
        w[1] = 1;
        s.set_ets_weights(w);
        for _ in 0..400 {
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(0, PacketKind::WriteSeg, 1024),
            );
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(1, PacketKind::WriteSeg, 1024),
            );
        }
        // Grant a window and measure the byte share.
        let mut bytes = [0u64; 8];
        for _ in 0..200 {
            let (item, _) = s.try_grant(SimTime::ZERO).expect("backlog");
            bytes[item.tc.index()] += item.wire_bytes;
            a.free(item.pkt);
            s.complete_transmission();
        }
        let share0 = bytes[0] as f64 / (bytes[0] + bytes[1]) as f64;
        assert!(
            (share0 - 0.75).abs() < 0.08,
            "3:1 weights should give ~75% share, got {share0}"
        );
    }

    #[test]
    fn equal_weights_split_evenly() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        for _ in 0..200 {
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(2, PacketKind::WriteSeg, 512),
            );
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(5, PacketKind::WriteSeg, 512),
            );
        }
        let mut counts = [0u32; 8];
        for _ in 0..100 {
            let (item, _) = s.try_grant(SimTime::ZERO).expect("backlog");
            counts[item.tc.index()] += 1;
            a.free(item.pkt);
            s.complete_transmission();
        }
        assert!((counts[2] as i32 - counts[5] as i32).abs() <= 2);
    }

    #[test]
    fn paused_class_is_skipped() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(0, PacketKind::WriteSeg, 64),
        );
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(1, PacketKind::WriteSeg, 64),
        );
        s.pause(TrafficClass::new(0), SimTime::from_micros(100));
        let order = drain(&mut s, &mut a, SimTime::ZERO);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].tc.index(), 1);
        // After the pause expires the packet flows again.
        let order = drain(&mut s, &mut a, SimTime::from_micros(200));
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].tc.index(), 0);
    }

    #[test]
    fn bulk_writes_burst_through_dwrr() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        s.set_bulk_burst(4, 512);
        // Interleave big writes on TC0 with reads requests on TC1.
        for _ in 0..6 {
            let mut w = pkt(0, PacketKind::WriteSeg, 2048);
            w.total_len = 2048;
            enqueue(&mut s, &mut a, EgressClass::TxRequest, w);
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(1, PacketKind::ReadReq, 0),
            );
        }
        let order = drain(&mut s, &mut a, SimTime::ZERO);
        // Once a bulk write is granted, it pulls a burst of further writes
        // through before the other class gets another grant.
        let first_write = order
            .iter()
            .position(|p| p.kind == PacketKind::WriteSeg)
            .expect("writes granted");
        let burst_len = order[first_write..]
            .iter()
            .take_while(|p| p.kind == PacketKind::WriteSeg)
            .count();
        assert!(
            burst_len >= 4,
            "bulk burst should batch several writes, got run of {burst_len}"
        );
        assert_eq!(order.len(), 12, "nothing is starved forever");
    }

    #[test]
    fn small_writes_do_not_burst() {
        let mut s = EgressScheduler::new(25_000_000_000);
        let mut a = PacketArena::new();
        s.set_bulk_burst(4, 512);
        for _ in 0..6 {
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(0, PacketKind::WriteSeg, 64),
            );
            enqueue(
                &mut s,
                &mut a,
                EgressClass::TxRequest,
                pkt(1, PacketKind::ReadReq, 0),
            );
        }
        let order = drain(&mut s, &mut a, SimTime::ZERO);
        let first_read = order
            .iter()
            .position(|p| p.kind == PacketKind::ReadReq)
            .expect("reads granted");
        assert!(first_read <= 2, "inline writes must interleave fairly");
    }

    #[test]
    fn serialization_time_matches_rate() {
        let mut s = EgressScheduler::new(8_000_000_000_000); // 1 B/ps
        let mut a = PacketArena::new();
        enqueue(
            &mut s,
            &mut a,
            EgressClass::TxRequest,
            pkt(0, PacketKind::SendSeg, 938),
        );
        let (item, dur) = s.try_grant(SimTime::ZERO).expect("grant");
        assert_eq!(dur.as_picos(), item.wire_bytes);
    }
}
