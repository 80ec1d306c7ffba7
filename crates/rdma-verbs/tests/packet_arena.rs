//! Packet-arena regression suite: the slab arena must never copy a
//! payload on the hot path. A packet is allocated exactly once at
//! creation, passes every wire hop and chaos injection point by
//! [`PacketHandle`], and is freed exactly once at its terminal event
//! (delivery, injector drop, or ICRC discard). The only
//! header-row copy a run is allowed to make is for a chaos duplication
//! fault — and even that shares the payload bytes by refcount.
//!
//! These tests pin that contract through the arena's own ledger
//! ([`ArenaStats`]) instead of through allocator instrumentation, so
//! they hold on every platform and under every queue backend.

use rdma_verbs::{
    AccessFlags, ConnectOptions, DeviceProfile, FaultEvent, FaultKind, FaultPlan, LinkSelector,
    QueueBackend, Simulation, Topology, WorkRequest,
};
use sim_core::SimTime;

/// Builds a four-host leaf-spine fabric with two requesters hammering
/// one responder, posts `per_qp` closed-loop reads on each QP, and
/// drains the event queue completely (no timers re-arm, so a generous
/// horizon empties the world).
fn run_fabric(seed: u64, plan: Option<&FaultPlan>) -> Simulation {
    let topo = Topology::from_spec("leaf-spine:hosts=4,leaves=2,spines=2").expect("spec");
    let mut sim = Simulation::with_topology(seed, topo, None);
    if let Some(p) = plan {
        sim.install_fault_plan(p);
    }
    let r0 = sim.add_host(DeviceProfile::connectx5());
    let r1 = sim.add_host(DeviceProfile::connectx5());
    let responder = sim.add_host(DeviceProfile::connectx5());
    let pd0 = sim.alloc_pd(r0);
    let pd1 = sim.alloc_pd(r1);
    let pd_s = sim.alloc_pd(responder);
    let mr = sim.register_mr(responder, pd_s, 1 << 20, AccessFlags::remote_all());
    let (qa, _) = sim.connect(r0, pd0, responder, pd_s, ConnectOptions::default());
    let (qb, _) = sim.connect(r1, pd1, responder, pd_s, ConnectOptions::default());
    let mut wr_id = 0u64;
    for &qp in &[qa, qb] {
        for _ in 0..16 {
            wr_id += 1;
            sim.post_send(
                qp,
                WorkRequest::read(wr_id, 0x1000, mr.addr(0), mr.key, 256),
            )
            .expect("post");
        }
    }
    sim.run_until(SimTime::from_millis(50));
    sim
}

/// The satellite regression: a fault-free run makes ZERO packet copies.
/// Every hop moves a handle; the payload bytes allocated at creation are
/// the only payload bytes that ever exist.
#[test]
fn fault_free_run_never_copies_a_packet() {
    let sim = run_fabric(7, None);
    let stats = sim.packet_arena_stats();
    assert!(stats.allocs > 0, "workload moved no packets");
    assert_eq!(
        stats.dup_clones, 0,
        "a fault-free run cloned a packet: the hot path regressed to copying"
    );
    assert_eq!(
        stats.live(),
        0,
        "arena leak: {} packets allocated, {} freed",
        stats.allocs,
        stats.frees
    );
}

/// Allocations track *packets*, not *hops*: on a multi-hop fabric every
/// transmitted packet crosses several links, yet the arena allocates
/// exactly once per packet handed to the wire. If a hop ever clones,
/// `allocs` outgrows the fabric's `sent + duplicates` ledger.
#[test]
fn allocations_count_packets_not_hops() {
    let sim = run_fabric(11, None);
    let stats = sim.packet_arena_stats();
    let fabric = sim.fabric_stats();
    assert!(fabric.delivered > 0, "nothing crossed the fabric");
    assert!(fabric.conserved(), "fabric ledger unbalanced: {fabric:?}");
    assert_eq!(
        stats.allocs,
        fabric.sent + fabric.duplicates,
        "arena allocated more than once per wire packet (per-hop copy?)"
    );
}

/// Chaos duplication is the *only* copy: the duplicated header row shows
/// up in `dup_clones`, matches the fabric's duplicate count exactly, and
/// both the original and the copy still terminate (no leaks).
#[test]
fn chaos_duplication_is_the_only_copy() {
    let mut plan = FaultPlan::empty(0xd0b);
    plan.events.push(FaultEvent {
        link: LinkSelector::Any,
        from: SimTime::ZERO,
        until: SimTime::from_millis(1),
        kind: FaultKind::Duplicate { prob: 0.4 },
    });
    let sim = run_fabric(13, Some(&plan));
    let stats = sim.packet_arena_stats();
    let fabric = sim.fabric_stats();
    assert!(
        stats.dup_clones > 0,
        "duplication plan produced no duplicates (chance too low for this seed?)"
    );
    assert_eq!(
        stats.dup_clones, fabric.duplicates,
        "every clone must be a chaos duplicate and vice versa"
    );
    assert_eq!(stats.live(), 0, "duplicated packets leaked");
}

/// Wire loss frees the packet at the drop point: allocations and frees
/// balance even when packets never reach their terminal Deliver event.
#[test]
fn lossy_run_frees_dropped_packets() {
    let mut plan = FaultPlan::empty(0x1055);
    plan.events.push(FaultEvent {
        link: LinkSelector::Any,
        from: SimTime::ZERO,
        until: SimTime::from_millis(1),
        kind: FaultKind::LossBurst { rate: 0.2 },
    });
    let sim = run_fabric(17, Some(&plan));
    let stats = sim.packet_arena_stats();
    let fabric = sim.fabric_stats();
    assert!(fabric.dropped > 0, "loss plan dropped nothing");
    assert_eq!(stats.dup_clones, 0, "loss must not clone");
    assert_eq!(stats.live(), 0, "dropped packets leaked");
}

/// The default `p2p` crossbar wire obeys the same ledger on both queue
/// backends.
#[test]
fn crossbar_wire_is_copy_free_on_both_backends() {
    for backend in [QueueBackend::Calendar, QueueBackend::Reference] {
        let mut sim = Simulation::with_backend(19, backend);
        let requester = sim.add_host(DeviceProfile::connectx5());
        let responder = sim.add_host(DeviceProfile::connectx5());
        let pd_r = sim.alloc_pd(requester);
        let pd_s = sim.alloc_pd(responder);
        let mr = sim.register_mr(responder, pd_s, 1 << 20, AccessFlags::remote_all());
        let (qp, _) = sim.connect(requester, pd_r, responder, pd_s, ConnectOptions::default());
        for wr_id in 0..32u64 {
            sim.post_send(
                qp,
                WorkRequest::read(wr_id, 0x1000, mr.addr(0), mr.key, 256),
            )
            .expect("post");
        }
        sim.run_until(SimTime::from_millis(50));
        let stats = sim.packet_arena_stats();
        assert!(stats.allocs > 0, "no packets on {backend:?}");
        assert_eq!(stats.dup_clones, 0, "clone on {backend:?}");
        assert_eq!(stats.live(), 0, "leak on {backend:?}");
    }
}
