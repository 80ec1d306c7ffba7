//! `nic_storm`: the event hot loop on the legacy two-host wire.
//!
//! Closed loop, 256 outstanding, one thread: 2 CX-5 hosts, 4 RC QPs ×
//! 64 outstanding 256 B reads on one 2 MiB MR, every completion
//! reposted on its own QP, for 300 µs of simulated time per unit. The
//! set-up is that of `examples/storm.rs`, whose round-robin reposting
//! overruns a send queue about once per run; reposting on the
//! completing QP keeps every post accepted. No fabric, PDES or harness
//! code runs here.

use std::time::Instant;

use rdma_verbs::{
    AccessFlags, ConnectOptions, DeviceProfile, MrHandle, QpHandle, QueueBackend, Simulation,
    WorkRequest,
};
use sim_core::SimTime;

use crate::trace::{Fold, Recorder, SpanId};
use crate::{Opts, Unit, UnitCounts};

const HORIZON: SimTime = SimTime::from_micros(300);
const QPS: usize = 4;
const DEPTH: usize = 64;

struct Rig {
    sim: Simulation,
    qps: Vec<QpHandle>,
    mr: MrHandle,
}

fn build(seed: u64, backend: QueueBackend, rec: &mut Recorder, parent: Option<SpanId>) -> Rig {
    let mut sim = rec.span("rdma_verbs.new", parent, || {
        Simulation::with_backend(seed, backend)
    });
    let mut add = Fold::default();
    let requester = rec.fold(&mut add, || sim.add_host(DeviceProfile::connectx5()));
    let responder = rec.fold(&mut add, || sim.add_host(DeviceProfile::connectx5()));
    rec.push_fold("rdma_verbs.add_host", parent, add);
    let (qps, mr) = rec.span("rdma_verbs.wire", parent, || {
        let pd_r = sim.alloc_pd(requester);
        let pd_s = sim.alloc_pd(responder);
        let mr = sim.register_mr(responder, pd_s, 1 << 21, AccessFlags::remote_all());
        let opts = ConnectOptions {
            max_send_queue: DEPTH,
            ..ConnectOptions::default()
        };
        let qps: Vec<QpHandle> = (0..QPS)
            .map(|_| sim.connect(requester, pd_r, responder, pd_s, opts).0)
            .collect();
        (qps, mr)
    });
    Rig { sim, qps, mr }
}

/// Work requests posted, rejected, completed and completed in error.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Wrs {
    posted: u64,
    rejected: u64,
    completed: u64,
    errors: u64,
}

fn drive(rig: &mut Rig, rec: &mut Recorder, parent: Option<SpanId>) -> Wrs {
    let Rig { sim, qps, mr } = rig;
    let (mut posts, mut takes) = (Fold::default(), Fold::default());
    let mut wrs = Wrs::default();
    let mut wr_id = 0u64;
    let mut post = |sim: &mut Simulation, rec: &mut Recorder, qp: QpHandle, wrs: &mut Wrs| {
        wr_id += 1;
        wrs.posted += 1;
        let wr = WorkRequest::read(wr_id, 0x1000, mr.addr(0), mr.key, 256);
        if rec.fold(&mut posts, || sim.post_send(qp, wr)).is_err() {
            wrs.rejected += 1;
        }
    };
    for &qp in qps.iter() {
        for _ in 0..DEPTH {
            post(sim, rec, qp, &mut wrs);
        }
    }
    while sim.now() < HORIZON {
        rec.span("rdma_verbs.run_until", parent, || sim.run_until(HORIZON));
        let completions = rec.fold(&mut takes, || sim.take_completions());
        if completions.is_empty() {
            break;
        }
        for (_, cqe) in completions {
            wrs.completed += 1;
            if !cqe.status.is_ok() {
                wrs.errors += 1;
            }
            // Repost on the completing QP, which keeps every QP at
            // exactly DEPTH outstanding, so no post is ever refused.
            let qp = *qps
                .iter()
                .find(|h| h.qp == cqe.qp)
                .expect("completion on a storm QP");
            post(sim, rec, qp, &mut wrs);
        }
    }
    rec.push_fold("rdma_verbs.post_send", parent, posts);
    rec.push_fold("rdma_verbs.take_completions", parent, takes);
    wrs
}

/// One unit's deterministic outcome: the event-order digest and counts.
fn outcome(sim: &Simulation, wrs: Wrs) -> UnitCounts {
    let mut c = UnitCounts::of(sim, 2);
    c.wrs_posted = wrs.posted;
    c.wrs_completed = wrs.completed;
    c.failed = wrs.rejected + wrs.errors;
    c
}

fn unit(seed: u64, backend: QueueBackend, rec: &mut Recorder, idx: u32) -> Unit {
    let span = rec.open("unit", idx);
    let t0 = Instant::now();
    let mut rig = build(seed, backend, rec, span);
    let t1 = Instant::now();
    let wrs = drive(&mut rig, rec, span);
    let t2 = Instant::now();
    let counts = rec.span("rdma_verbs.counters", span, || outcome(&rig.sim, wrs));
    rec.span("rdma_verbs.drop", span, || drop(rig));
    rec.close(span);
    Unit {
        setup_ns: (t1 - t0).as_nanos() as u64,
        run_ns: (t2 - t1).as_nanos() as u64,
        counts,
    }
}

pub fn run(opts: &Opts, rec: &mut Recorder) -> crate::metrics::Report {
    let seed = opts.seed;
    let mut report = crate::metrics::Report::default();
    let mut off = Recorder::new(false);

    // Gates: the reference heap replays the calendar queue's event order.
    let first = unit(seed, QueueBackend::Calendar, &mut off, 0);
    let reference = unit(seed, QueueBackend::Reference, &mut off, 0);
    report.gate(reference.counts.digest == first.counts.digest, || {
        format!(
            "nic_storm: reference-queue digest {:016x} != calendar {:016x}",
            reference.counts.digest, first.counts.digest
        )
    });
    for _ in 0..opts.scaled(50, 5) {
        unit(seed, QueueBackend::Calendar, &mut off, 0);
    }

    report.gate(first.counts.dup_clones == 0, || {
        format!(
            "nic_storm: {} packet clones in a fault-free run",
            first.counts.dup_clones
        )
    });
    crate::timed_units(
        opts,
        opts.scaled(200, 50),
        &first.counts,
        &mut report,
        rec,
        |rec, i| unit(seed, QueueBackend::Calendar, rec, i),
    );
    if rec.enabled() {
        let n = opts.scaled(20, 5);
        let (_, profile) = crate::profiled(|| {
            for _ in 0..n {
                unit(seed, QueueBackend::Calendar, &mut off, 0);
            }
        });
        report.set_profile(&profile, n);
    }
    report
}
