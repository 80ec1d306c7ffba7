//! Direct unit tests of the `Rnic` state machine's edge cases (the happy
//! paths are covered end-to-end through `rdma-verbs`).

use bytes::Bytes;
use rnic_model::{
    AccessFlags, DeviceProfile, MrEntry, MrKey, NicAction, NicEvent, Packet, PacketArena,
    PacketKind, PdId, PostError, QpConfig, QpNum, RecvWqe, Rnic, TrafficClass, Wqe,
};
use rnic_model::{FlowId, HostId, Opcode};
use sim_core::SimTime;

fn nic() -> Rnic {
    let mut n = Rnic::new(HostId(0), DeviceProfile::connectx5(), 42);
    n.create_qp(
        QpNum(1),
        QpConfig {
            pd: PdId(1),
            tc: TrafficClass::new(0),
            flow: FlowId(1),
            peer_host: HostId(1),
            peer_qp: QpNum(2),
            max_send_queue: 2,
        },
    );
    n
}

fn wqe(wr_id: u64) -> Wqe {
    Wqe {
        wr_id,
        opcode: Opcode::Read,
        len: 64,
        local_addr: 0x1000,
        remote_addr: 0x20_0000,
        rkey: MrKey(9),
        atomic_args: (0, 0),
        posted_at: SimTime::ZERO,
        seq: 0,
    }
}

#[test]
fn post_to_unknown_qp_is_rejected() {
    let mut n = nic();
    let err = n
        .post_send(SimTime::ZERO, QpNum(99), wqe(1))
        .expect_err("unknown QP");
    assert_eq!(err, PostError::UnknownQp);
    assert_eq!(
        n.post_recv(
            QpNum(99),
            RecvWqe {
                wr_id: 1,
                local_addr: 0,
                len: 64
            }
        )
        .expect_err("unknown QP"),
        PostError::UnknownQp
    );
}

#[test]
fn send_queue_capacity_is_strict() {
    let mut n = nic();
    assert!(n.post_send(SimTime::ZERO, QpNum(1), wqe(1)).is_ok());
    assert!(n.post_send(SimTime::ZERO, QpNum(1), wqe(2)).is_ok());
    assert_eq!(
        n.post_send(SimTime::ZERO, QpNum(1), wqe(3))
            .expect_err("full"),
        PostError::SendQueueFull
    );
    assert_eq!(n.outstanding(QpNum(1)), Some(2));
    assert_eq!(n.outstanding(QpNum(7)), None);
}

#[test]
fn post_returns_a_wqe_fetch_schedule() {
    let mut n = nic();
    let actions = n
        .post_send(SimTime::from_micros(3), QpNum(1), wqe(1))
        .expect("post");
    assert_eq!(actions.len(), 1);
    match &actions[0] {
        NicAction::Schedule { at, .. } => {
            assert!(*at > SimTime::from_micros(3), "fetch takes PCIe time");
        }
        other => panic!("expected Schedule, got {other:?}"),
    }
    // WQE fetch and PCIe byte accounting happened.
    assert_eq!(n.counters().wqes_fetched, 1);
    assert!(n.counters().pcie_bytes >= 64);
}

#[test]
#[should_panic(expected = "already exists")]
fn duplicate_qp_creation_panics() {
    let mut n = nic();
    n.create_qp(
        QpNum(1),
        QpConfig {
            pd: PdId(1),
            tc: TrafficClass::new(0),
            flow: FlowId(1),
            peer_host: HostId(1),
            peer_qp: QpNum(2),
            max_send_queue: 2,
        },
    );
}

#[test]
#[should_panic(expected = "already registered")]
fn duplicate_mr_registration_panics() {
    let mut n = nic();
    let entry = MrEntry {
        key: MrKey(5),
        pd: PdId(1),
        base_va: 1 << 21,
        len: 4096,
        access: AccessFlags::remote_all(),
    };
    n.register_mr(entry);
    n.register_mr(entry);
}

#[test]
fn mr_deregistration_is_idempotent() {
    let mut n = nic();
    n.register_mr(MrEntry {
        key: MrKey(5),
        pd: PdId(1),
        base_va: 1 << 21,
        len: 4096,
        access: AccessFlags::remote_all(),
    });
    assert!(n.deregister_mr(MrKey(5)));
    assert!(!n.deregister_mr(MrKey(5)));
}

#[test]
fn ets_weights_and_pause_reach_the_scheduler() {
    let mut n = nic();
    let mut w = [1u32; 8];
    w[2] = 5;
    n.set_ets_weights(w);
    // Pausing must not panic and is observable through behaviour tested
    // in the arbiter's own suite; here we only exercise the plumbing.
    n.pause_tc(TrafficClass::new(2), SimTime::from_micros(10));
}

#[test]
fn noc_activation_counter_starts_at_zero() {
    let n = nic();
    assert_eq!(n.noc_activations(), 0);
    assert_eq!(n.host(), HostId(0));
    assert_eq!(n.profile().kind, rnic_model::DeviceKind::ConnectX5);
    assert_eq!(n.tpu().mr_count(), 0);
}

/// An inbound packet for the NIC under test.
fn inbound(kind: PacketKind, payload_len: usize) -> Packet {
    Packet {
        src: HostId(1),
        dst: HostId(0),
        src_qp: QpNum(2),
        dst_qp: QpNum(1),
        tc: TrafficClass::new(0),
        flow: FlowId(1),
        kind,
        msg_id: 1,
        seg_idx: 0,
        seg_cnt: 1,
        payload: Bytes::from(vec![0u8; payload_len]),
        opcode: Opcode::Write,
        total_len: payload_len as u64,
        remote_addr: 0x20_0000,
        rkey: MrKey(9),
        atomic_args: (0, 0),
        local_addr: 0,
        wqe_seq: 0,
        wr_id: 1,
        posted_at: SimTime::ZERO,
    }
}

#[test]
fn back_to_back_arrivals_reach_the_rx_pu_at_hand_computed_times() {
    // ConnectX-5: a 100 Gb/s ingress link (80 ps per byte) and a 25 ns
    // RxPU. A 1,024-byte write segment is 1,102 bytes on the wire
    // (88.16 ns), an Ack 66 bytes (5.28 ns).
    let mut n = nic();
    let mut arena = PacketArena::new();
    let arrivals = [
        (0, inbound(PacketKind::WriteSeg, 1024)),
        (0, inbound(PacketKind::Ack, 0)),
        (0, inbound(PacketKind::Ack, 0)),
        (1_000_000, inbound(PacketKind::Ack, 0)),
    ];
    let mut done = Vec::new();
    for (at_ps, pkt) in arrivals {
        let h = arena.insert(pkt);
        let actions = n.handle(
            SimTime::from_picos(at_ps),
            NicEvent::IngressArrival { pkt: h },
            &mut arena,
        );
        match actions.as_slice() {
            [NicAction::Schedule {
                at,
                event: NicEvent::RxPuDone { pkt },
            }] if *pkt == h => done.push(at.as_picos()),
            other => panic!("expected one RxPuDone, got {other:?}"),
        }
    }
    // Link ends:  88.16, 93.44, 98.72 and 1,005.28 ns.
    // RxPU ends: the write after its link end; each Ack queues behind
    // the RxPU rather than the link; the late Ack finds both idle.
    assert_eq!(done, [113_160, 138_160, 163_160, 1_030_280]);
    assert_eq!(n.counters().rx_packets, 4);
    assert_eq!(n.counters().rx_bytes, 1102 + 3 * 66);
}
