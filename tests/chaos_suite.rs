//! Chaos property suite: randomized seeded fault plans against the
//! transport invariant oracles.
//!
//! Every plan is pure data generated from a seed, so each failure here
//! reproduces with nothing but the seed printed in the assertion. The
//! oracles (ISSUE 4):
//!
//! 1. **Exactly-once completion** — every posted WR produces one CQE
//!    (`Success`, `RemoteError`, `RetryExceeded` or `Flushed`), never
//!    zero, never two ([`WrLedger`]).
//! 2. **Placement** — a write whose CQE says `Success` left exactly its
//!    payload in remote memory; a `Success` atomic executed exactly once.
//! 3. **Time monotonicity** — sim time never runs backwards and no CQE
//!    completes before it was posted or after "now".
//! 4. **Fabric conservation** — at quiescence
//!    `sent + duplicates == delivered + dropped + icrc_dropped`
//!    ([`FabricStats::conserved`]): faults may destroy packets, but only
//!    through the accounted channels.
//!
//! The randomized corpus also runs under the online invariant monitors
//! (arena ledger, packet conservation, time monotonicity, QP legality)
//! with the `FailCell` policy, and everything it observes is folded into
//! one pinned word, so any change to the `p2p` wire's fault behaviour
//! shows up as a pin mismatch.

use ragnar::chaos::{FaultPlan, PlanParams, WrLedger};
use ragnar::sim::{Digest64, SimTime};
use ragnar::verbs::{
    AccessFlags, ConnectOptions, CqeStatus, DeviceProfile, FaultEvent, FaultKind, HostId,
    LinkSelector, MrHandle, QpHandle, RecvWqe, Simulation, VerbsError, WorkRequest,
};
use ragnar_telemetry::{MonitorConfig, RunCtx, ViolationPolicy};

/// Ops posted per client: 4 writes, 4 reads, 3 atomics, 3 sends.
const WRITES: u64 = 4;
const READS: u64 = 4;
const ATOMICS: u64 = 3;
const SENDS: u64 = 3;
const OPS_PER_CLIENT: u64 = WRITES + READS + ATOMICS + SENDS;
const PAYLOAD_LEN: u64 = 64;

struct Fleet {
    sim: Simulation,
    server_mr: MrHandle,
    /// Client-side QP handles (requesters).
    qps: Vec<QpHandle>,
    /// Server-side handles of the same connections (for recv posting).
    server_qps: Vec<QpHandle>,
}

/// Three hosts (one server, two clients), one connection per client.
fn fleet(seed: u64) -> Fleet {
    let mut sim = Simulation::new(seed);
    let server = sim.add_host(DeviceProfile::connectx5());
    let clients = [
        sim.add_host(DeviceProfile::connectx5()),
        sim.add_host(DeviceProfile::connectx5()),
    ];
    let pd_s = sim.alloc_pd(server);
    let server_mr = sim.register_mr(server, pd_s, 1 << 21, AccessFlags::remote_all());
    let mut qps = Vec::new();
    let mut server_qps = Vec::new();
    for c in clients {
        let pd_c = sim.alloc_pd(c);
        let (qp, sqp) = sim.connect(
            c,
            pd_c,
            server,
            pd_s,
            ConnectOptions {
                max_send_queue: 64,
                ..ConnectOptions::default()
            },
        );
        qps.push(qp);
        server_qps.push(sqp);
    }
    Fleet {
        sim,
        server_mr,
        qps,
        server_qps,
    }
}

/// Deterministic payload for one write WR.
fn payload(wr_id: u64) -> Vec<u8> {
    (0..PAYLOAD_LEN)
        .map(|i| (wr_id.wrapping_mul(37).wrapping_add(i) % 251) as u8)
        .collect()
}

/// Server-MR offset a write WR targets (distinct per WR, clear of the
/// atomic counter at offset 0).
fn write_offset(wr_id: u64) -> u64 {
    4096 + wr_id * 128
}

/// Posts the mixed workload; returns the ledger of posted wr_ids.
fn post_workload(fl: &mut Fleet) -> WrLedger {
    let mr = fl.server_mr;
    let mut ledger = WrLedger::new();
    for (ci, &qp) in fl.qps.clone().iter().enumerate() {
        let base = ci as u64 * 1000;
        let mut id = base;
        for _ in 0..WRITES {
            let data = payload(id);
            fl.sim.write_memory(qp.host, 0x10_0000 + id * 256, &data);
            fl.sim
                .post_send(
                    qp,
                    WorkRequest::write(
                        id,
                        0x10_0000 + id * 256,
                        mr.addr(write_offset(id)),
                        mr.key,
                        PAYLOAD_LEN,
                    ),
                )
                .expect("post write");
            ledger.posted(id);
            id += 1;
        }
        for _ in 0..READS {
            fl.sim
                .post_send(
                    qp,
                    WorkRequest::read(id, 0x20_0000 + id * 256, mr.addr(0x8000), mr.key, 256),
                )
                .expect("post read");
            ledger.posted(id);
            id += 1;
        }
        for _ in 0..ATOMICS {
            fl.sim
                .post_send(
                    qp,
                    WorkRequest::fetch_add(id, 0x30_0000, mr.addr(0), mr.key, 1),
                )
                .expect("post atomic");
            ledger.posted(id);
            id += 1;
        }
        for s in 0..SENDS {
            // Matching recv first, so sends can't exhaust the RNR budget.
            fl.sim
                .post_recv(
                    fl.server_qps[ci],
                    RecvWqe {
                        wr_id: 90_000 + base + s,
                        local_addr: 0x60_0000 + (base + s) * 256,
                        len: 256,
                    },
                )
                .expect("post recv");
            fl.sim
                .write_memory(qp.host, 0x40_0000 + id * 256, &payload(id));
            fl.sim
                .post_send(qp, WorkRequest::send(id, 0x40_0000 + id * 256, PAYLOAD_LEN))
                .expect("post send");
            ledger.posted(id);
            id += 1;
        }
        assert_eq!(id - base, OPS_PER_CLIENT);
    }
    ledger
}

/// Folds what one fleet run observed on the wire: event order and count,
/// the fault trace, the fabric ledger and every host's drop counters.
fn fold_run(d: &mut Digest64, sim: &Simulation) {
    d.fold(sim.order_digest());
    d.fold(sim.events_processed());
    fold_behaviour(d, sim);
}

/// What one fleet run did, without how many events it took: the fault
/// trace, the fabric ledger and every host's drop counters. A change
/// that only fuses events leaves this fold unchanged.
fn fold_behaviour(d: &mut Digest64, sim: &Simulation) {
    d.fold(sim.fault_trace_digest().unwrap_or(0));
    let f = sim.fabric_stats();
    for word in [f.sent, f.duplicates, f.delivered, f.dropped, f.icrc_dropped] {
        d.fold(word);
    }
    for h in 0..3 {
        let c = sim.counters(HostId(h));
        d.fold(c.wire_tx_dropped);
        d.fold(c.wire_rx_dropped);
        d.fold(c.icrc_rx_dropped);
    }
}

/// Runs one seeded plan through the oracles. Returns the trace digest,
/// the completion statuses in drain order (for the determinism test) and
/// the drained simulation.
fn chaos_round(plan_seed: u64, intensity: f64) -> (u64, Vec<(u64, CqeStatus)>, Simulation) {
    let plan = FaultPlan::generate(
        plan_seed,
        &PlanParams {
            hosts: 3,
            intensity,
            ..PlanParams::default()
        },
    );
    let mut fl = fleet(plan_seed ^ 0x5EED);
    fl.sim
        .memory_mut(fl.server_mr.host)
        .write_u64(fl.server_mr.addr(0), 0);
    fl.sim.install_fault_plan(&plan);
    let mut ledger = post_workload(&mut fl);

    // Far past the 500 µs fault horizon plus full retry exhaustion.
    let mut trail = Vec::new();
    let mut last_now = SimTime::ZERO;
    let drain = |sim: &mut Simulation, ledger: &mut WrLedger, last_now: &mut SimTime| {
        assert!(
            sim.now() >= *last_now,
            "sim time ran backwards [plan {plan_seed}]"
        );
        *last_now = sim.now();
        let mut out = Vec::new();
        for (_, cqe) in sim.take_completions() {
            // Oracle 3: completions live inside [posted_at, now].
            assert!(
                cqe.posted_at <= cqe.completed_at && cqe.completed_at <= sim.now(),
                "CQE time out of range [plan {plan_seed}]: {cqe:?}"
            );
            if cqe.is_recv {
                continue; // recv-side bookkeeping is the responder's
            }
            ledger
                .completed(cqe.wr_id, cqe.status)
                .unwrap_or_else(|v| panic!("oracle violation [plan {plan_seed}]: {v}"));
            out.push(cqe);
        }
        out
    };
    for cqe in drain(&mut fl.sim, &mut ledger, &mut last_now) {
        trail.push((cqe.wr_id, cqe.status));
    }
    fl.sim.run_until(SimTime::from_millis(30));
    for cqe in drain(&mut fl.sim, &mut ledger, &mut last_now) {
        trail.push((cqe.wr_id, cqe.status));
    }

    // Recovery ladder: any QP the plan pushed into Error comes back and
    // serves a fresh read on the (now quiet) fabric.
    let mut recovered = Vec::new();
    for &qp in &fl.qps {
        if fl.sim.qp_in_error(qp) {
            fl.sim
                .recover_qp(qp)
                .unwrap_or_else(|e| panic!("recover_qp [plan {plan_seed}]: {e}"));
            let id = 80_000 + u64::from(qp.host.0);
            fl.sim
                .post_send(
                    qp,
                    WorkRequest::read(
                        id,
                        0x50_0000,
                        fl.server_mr.addr(0x8000),
                        fl.server_mr.key,
                        64,
                    ),
                )
                .expect("post after recovery");
            ledger.posted(id);
            recovered.push(qp);
        }
    }
    fl.sim.run_until(SimTime::from_millis(40));
    for cqe in drain(&mut fl.sim, &mut ledger, &mut last_now) {
        trail.push((cqe.wr_id, cqe.status));
    }
    for &qp in &recovered {
        assert!(
            !fl.sim.qp_in_error(qp),
            "QP stayed in error [plan {plan_seed}]"
        );
        let id = 80_000 + u64::from(qp.host.0);
        assert_eq!(
            ledger.status(id),
            Some(CqeStatus::Success),
            "post-recovery read failed [plan {plan_seed}]"
        );
    }

    // Oracle 1: every posted WR completed exactly once.
    ledger
        .check_complete()
        .unwrap_or_else(|v| panic!("oracle violation [plan {plan_seed}]: {v}"));

    // Oracle 2a: successful writes placed exactly their payload.
    for (wr_id, status) in ledger.completions() {
        if status == CqeStatus::Success && wr_id % 1000 < WRITES {
            assert_eq!(
                fl.sim.read_memory(
                    fl.server_mr.host,
                    fl.server_mr.addr(write_offset(wr_id)),
                    PAYLOAD_LEN
                ),
                payload(wr_id),
                "write {wr_id} misplaced data [plan {plan_seed}]"
            );
        }
    }
    // Oracle 2b: the atomic counter saw each Success fetch-add exactly
    // once; fatally-failed atomics may or may not have landed (their Ack
    // can be the lost packet), but never more than posted.
    let success_atomics = ledger
        .completions()
        .filter(|&(id, st)| {
            st == CqeStatus::Success
                && (WRITES + READS..WRITES + READS + ATOMICS).contains(&(id % 1000))
        })
        .count() as u64;
    let counter = fl
        .sim
        .nic(fl.server_mr.host)
        .memory()
        .read_u64(fl.server_mr.addr(0));
    let posted_atomics = ATOMICS * fl.qps.len() as u64;
    assert!(
        (success_atomics..=posted_atomics).contains(&counter),
        "atomic counter {counter} outside [{success_atomics}, {posted_atomics}] [plan {plan_seed}]"
    );

    // Oracle 4: the fabric books balance once the queue is quiet.
    let stats = fl.sim.fabric_stats();
    assert!(
        stats.conserved(),
        "fabric conservation violated [plan {plan_seed}]: {stats:?}"
    );
    assert!(stats.sent > 0, "workload never touched the wire");

    let digest = fl.sim.fault_trace_digest().expect("plan installed");
    (digest, trail, fl.sim)
}

/// [`fold_run`] over the 60-plan corpus and one clean fleet run on the
/// `p2p` wire. A drift here while [`P2P_BEHAVIOUR_PIN`] holds means only
/// the event order or count changed.
const P2P_CORPUS_PIN: u64 = 0xf69a_52c1_e4b9_1252;

/// [`fold_behaviour`] over the same runs as [`P2P_CORPUS_PIN`]. It moves
/// only when the wire's observable behaviour does, not when the engine
/// reaches the same behaviour in fewer events.
const P2P_BEHAVIOUR_PIN: u64 = 0x1d3b_4e1a_7b55_05bf;

#[test]
fn oracles_hold_across_sixty_randomized_plans() {
    // Every simulation below is built under the monitors; a violation
    // panics with a `[monitor]` message and fails the test.
    let _ctx = RunCtx {
        monitors: Some(MonitorConfig {
            policy: ViolationPolicy::FailCell,
            every_events: 64,
        }),
        ..RunCtx::default()
    }
    .install();
    let mut pin = Digest64::new();
    let mut behaviour = Digest64::new();
    // ≥50 randomized plans (ISSUE 4 acceptance), at three intensities.
    for seed in 0..60u64 {
        let intensity = [0.25, 0.5, 1.0][(seed % 3) as usize];
        let (_, _, sim) = chaos_round(seed, intensity);
        assert_eq!(
            sim.monitor_violations(),
            Some(0),
            "monitors off [plan {seed}]"
        );
        fold_run(&mut pin, &sim);
        fold_behaviour(&mut behaviour, &sim);
    }
    let mut clean = fleet(7);
    post_workload(&mut clean);
    clean.sim.run_until(SimTime::from_millis(10));
    fold_run(&mut pin, &clean.sim);
    fold_behaviour(&mut behaviour, &clean.sim);
    assert_eq!(
        behaviour.value(),
        P2P_BEHAVIOUR_PIN,
        "the p2p wire's observable behaviour moved: {:#018x}",
        behaviour.value()
    );
    assert_eq!(
        pin.value(),
        P2P_CORPUS_PIN,
        "the p2p wire's event order or count moved: {:#018x}",
        pin.value()
    );
}

#[test]
fn identical_plans_reproduce_identical_fault_traces() {
    for seed in [3u64, 19, 44] {
        let (d1, t1, _) = chaos_round(seed, 1.0);
        let (d2, t2, _) = chaos_round(seed, 1.0);
        assert_eq!(d1, d2, "fault trace digest drifted for plan {seed}");
        assert_eq!(t1, t2, "completion trail drifted for plan {seed}");
    }
}

#[test]
fn clean_fabric_reports_no_fault_state() {
    let mut fl = fleet(7);
    let mut ledger = post_workload(&mut fl);
    fl.sim.run_until(SimTime::from_millis(10));
    for (_, cqe) in fl.sim.take_completions() {
        if !cqe.is_recv {
            ledger.completed(cqe.wr_id, cqe.status).expect("once");
            assert_eq!(cqe.status, CqeStatus::Success);
        }
    }
    ledger.check_complete().expect("all complete");
    assert_eq!(fl.sim.fault_trace_digest(), None);
    assert_eq!(fl.sim.fault_stats(), None);
    let stats = fl.sim.fabric_stats();
    assert!(stats.conserved() && stats.dropped == 0 && stats.icrc_dropped == 0);
}

#[test]
fn long_link_down_errors_qp_and_recovery_restores_service() {
    // A hand-written plan: the fabric dies outright for 10 ms — long
    // enough that every backed-off retransmission (the last at 6.3 ms)
    // falls inside the outage — so the requester QP must take a
    // RetryExceeded at 12.7 ms, land in Error, flush its queue, and come
    // back via recover_qp on the then-healthy fabric.
    let plan = FaultPlan {
        seed: 1,
        events: vec![FaultEvent {
            link: LinkSelector::Any,
            from: SimTime::ZERO,
            until: SimTime::from_millis(10),
            kind: FaultKind::LinkDown,
        }],
    };
    let mut fl = fleet(11);
    fl.sim.install_fault_plan(&plan);
    let qp = fl.qps[0];
    let mr = fl.server_mr;
    fl.sim
        .post_send(
            qp,
            WorkRequest::read(1, 0x1000, mr.addr(0x8000), mr.key, 64),
        )
        .expect("post");
    fl.sim
        .post_send(
            qp,
            WorkRequest::read(2, 0x2000, mr.addr(0x8000), mr.key, 64),
        )
        .expect("post");
    fl.sim.run_until(SimTime::from_millis(40));
    let mut done = fl.sim.take_completions();
    done.sort_by_key(|(_, c)| c.wr_id);
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].1.status, CqeStatus::RetryExceeded);
    assert_eq!(done[1].1.status, CqeStatus::Flushed, "queued WR flushed");
    assert!(fl.sim.qp_in_error(qp));
    assert_eq!(
        fl.sim
            .post_send(
                qp,
                WorkRequest::read(3, 0x3000, mr.addr(0x8000), mr.key, 64)
            )
            .expect_err("error-state QP rejects"),
        VerbsError::QpInError
    );

    // Retry exhaustion already carried sim time past the outage window
    // (run_until never advances "now" beyond the last event, so a fresh
    // post happens at the exhaustion instant): recover and serve again.
    fl.sim.recover_qp(qp).expect("recover");
    fl.sim
        .post_send(
            qp,
            WorkRequest::read(3, 0x3000, mr.addr(0x8000), mr.key, 64),
        )
        .expect("post after recovery");
    fl.sim.run_until(SimTime::from_millis(55));
    let redone = fl.sim.take_completions();
    assert_eq!(redone.len(), 1);
    assert_eq!(redone[0].1.status, CqeStatus::Success);
    // The injector saw and dropped wire traffic during the outage.
    let stats = fl.sim.fault_stats().expect("plan installed");
    assert!(stats.dropped > 0, "link-down dropped packets: {stats:?}");
    assert!(fl.sim.fabric_stats().conserved());
}

#[test]
fn corruption_consumes_bandwidth_but_never_corrupts_data() {
    // ICRC semantics: corrupt packets burn wire bandwidth and are
    // discarded at the receiver; retransmission makes the data whole.
    let plan = FaultPlan {
        seed: 9,
        events: vec![FaultEvent {
            link: LinkSelector::Any,
            // Only the first transmissions fall in the window (the first
            // retransmit checks land at 100 µs); redriven copies travel
            // a clean wire, so no message can exhaust its retry budget.
            from: SimTime::ZERO,
            until: SimTime::from_micros(200),
            kind: FaultKind::Corrupt { prob: 0.5 },
        }],
    };
    let mut fl = fleet(13);
    fl.sim.install_fault_plan(&plan);
    let qp = fl.qps[0];
    let mr = fl.server_mr;
    let data: Vec<u8> = (0..9000u32).map(|i| (i % 249) as u8).collect();
    fl.sim.write_memory(qp.host, 0x10_0000, &data);
    let n = 10u64;
    for i in 0..n {
        fl.sim
            .post_send(
                qp,
                WorkRequest::write(
                    i,
                    0x10_0000,
                    mr.addr(0x1_0000 + i * 16384),
                    mr.key,
                    data.len() as u64,
                ),
            )
            .expect("post");
    }
    fl.sim.run_until(SimTime::from_secs(60));
    let done = fl.sim.take_completions();
    assert_eq!(done.len() as u64, n);
    for (_, cqe) in &done {
        assert_eq!(cqe.status, CqeStatus::Success, "wr {}", cqe.wr_id);
    }
    for i in 0..n {
        assert_eq!(
            fl.sim
                .read_memory(mr.host, mr.addr(0x1_0000 + i * 16384), data.len() as u64),
            data,
            "payload {i} survived ICRC drops intact"
        );
    }
    let stats = fl.sim.fabric_stats();
    assert!(stats.icrc_dropped > 0, "corruption exercised: {stats:?}");
    assert!(stats.conserved());
    assert!(
        fl.sim.nic(mr.host).counters().icrc_rx_dropped > 0,
        "receiver counted ICRC drops"
    );
}
