//! `fabric_incast` and `fabric_incast_w2`: the cluster path.
//!
//! A 1,024-host `fat-tree:k=16` with PFC on, driven open loop: 16
//! victims issue a 512 B read every 1 µs (constant schedule), 64
//! attackers × 2 QPs send Poisson 2 KiB writes at 25 % line rate per QP
//! into 4 sinks, and 256 bystanders send Poisson 1 KiB writes at 10 %
//! line load to partners half the fabric away. This is the *Noisy
//! Neighbor* incast at cluster scale. Each unit builds the fabric and
//! runs it to a fixed horizon on 1 or 2 PDES workers; the two worker
//! counts must agree bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ragnar_topology::traffic::{gap_for_load, OpenLoopGen, Population, TenantRole};
use rdma_verbs::{
    AccessFlags, App, ConnectOptions, Cqe, Ctx, DeviceProfile, HostId, MrHandle, PfcPortConfig,
    QpHandle, Simulation, Topology, WorkRequest,
};
use sim_core::{SimDuration, SimTime};

use crate::trace::{Fold, Recorder, SpanId};
use crate::{Opts, Unit, UnitCounts};

const SPEC: &str = "fat-tree:k=16";
const VICTIMS: u32 = 16;
const ATTACKERS: u32 = 64;
const ATTACKER_QPS: usize = 2;
const SINKS: usize = 4;
const BYSTANDERS: usize = 256;
/// Simulated time per unit, fixed so that a unit's run takes about
/// 100 ms on a 2-core Xeon host and no send queue overflows.
const HORIZON: SimTime = SimTime::from_micros(32);
/// Scratch local buffer (local addresses are not checked against an MR).
const LOCAL_BUF: u64 = 0x20_0000;

#[derive(Default)]
struct Tally {
    posted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
}

/// One open-loop tenant: posts on its QPs round-robin whenever its
/// arrival process says so, never pacing off completions.
struct Tenant {
    qps: Vec<QpHandle>,
    next_qp: usize,
    gen: OpenLoopGen,
    fixed_gap: Option<SimDuration>,
    write: bool,
    msg_len: u64,
    remote: MrHandle,
    tally: Arc<Tally>,
    seq: u64,
}

impl App for Tenant {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.gen.next_at().saturating_since(ctx.now()), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let qp = self.qps[self.next_qp];
        self.next_qp = (self.next_qp + 1) % self.qps.len();
        self.seq += 1;
        let addr = self.remote.addr(0);
        let wr = if self.write {
            WorkRequest::write(self.seq, LOCAL_BUF, addr, self.remote.key, self.msg_len)
        } else {
            WorkRequest::read(self.seq, LOCAL_BUF, addr, self.remote.key, self.msg_len)
        };
        // Statistics only; the run's join orders them before the read.
        self.tally.posted.fetch_add(1, Ordering::Relaxed);
        if ctx.post_send(qp, wr).is_err() {
            self.tally.rejected.fetch_add(1, Ordering::Relaxed);
        }
        self.gen.advance(self.fixed_gap);
        ctx.set_timer(self.gen.next_at().saturating_since(ctx.now()), 0);
    }

    fn on_cqe(&mut self, _ctx: &mut Ctx<'_>, _host: HostId, cqe: Cqe) {
        self.tally.completed.fetch_add(1, Ordering::Relaxed);
        if !cqe.status.is_ok() {
            self.tally.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct TenantSpec {
    host: HostId,
    peer: HostId,
    qps: usize,
    gen: OpenLoopGen,
    fixed_gap: Option<SimDuration>,
    write: bool,
    msg_len: u64,
}

/// The seed-derived tenant mix on a fabric of `hosts` hosts.
fn tenants(hosts: u32, rate_bps: u64, seed: u64) -> Vec<TenantSpec> {
    let pop = Population::sampled(hosts, VICTIMS, ATTACKERS, seed);
    let partner = |h: HostId| HostId((h.0 + hosts / 2) % hosts);
    let attackers = pop.hosts_with(TenantRole::Attacker);
    let mut sinks: Vec<HostId> = Vec::with_capacity(SINKS);
    for h in attackers
        .iter()
        .map(|&a| partner(a))
        .chain(pop.hosts_with(TenantRole::Bystander))
    {
        if sinks.len() < SINKS && pop.role(h) == TenantRole::Bystander && !sinks.contains(&h) {
            sinks.push(h);
        }
    }
    let mut out = Vec::new();
    let probe_gap = SimDuration::from_micros(1);
    for v in pop.hosts_with(TenantRole::Victim) {
        out.push(TenantSpec {
            host: v,
            peer: partner(v),
            qps: 1,
            gen: OpenLoopGen::constant(SimTime::ZERO, probe_gap),
            fixed_gap: Some(probe_gap),
            write: false,
            msg_len: 512,
        });
    }
    let attack_gap = SimDuration::serialization(2048, rate_bps).mul_f64(4.0 / ATTACKER_QPS as f64);
    for (i, a) in attackers.into_iter().enumerate() {
        out.push(TenantSpec {
            host: a,
            peer: sinks[i % SINKS],
            qps: ATTACKER_QPS,
            gen: OpenLoopGen::poisson(seed, &format!("atk-{}", a.0), SimTime::ZERO, attack_gap),
            fixed_gap: None,
            write: true,
            msg_len: 2048,
        });
    }
    let ambient_gap = gap_for_load(0.10, 1024, rate_bps);
    for b in pop
        .hosts_with(TenantRole::Bystander)
        .into_iter()
        .filter(|b| !sinks.contains(b))
        .take(BYSTANDERS)
    {
        out.push(TenantSpec {
            host: b,
            peer: partner(b),
            qps: 1,
            gen: OpenLoopGen::poisson(seed, &format!("bys-{}", b.0), SimTime::ZERO, ambient_gap),
            fixed_gap: None,
            write: true,
            msg_len: 1024,
        });
    }
    out
}

fn wire(sim: &mut Simulation, specs: Vec<TenantSpec>, tally: &Arc<Tally>) {
    for t in specs {
        let pd = sim.alloc_pd(t.host);
        let pd_peer = sim.alloc_pd(t.peer);
        let mr = sim.register_mr(t.peer, pd_peer, 2 << 20, AccessFlags::remote_all());
        let qps: Vec<QpHandle> = (0..t.qps)
            .map(|_| {
                sim.connect(t.host, pd, t.peer, pd_peer, ConnectOptions::default())
                    .0
            })
            .collect();
        let app = sim.add_send_app(Box::new(Tenant {
            qps: qps.clone(),
            next_qp: 0,
            gen: t.gen,
            fixed_gap: t.fixed_gap,
            write: t.write,
            msg_len: t.msg_len,
            remote: mr,
            tally: Arc::clone(tally),
            seq: 0,
        }));
        for qp in qps {
            sim.own_qp(app, qp);
        }
        // Home host only, so the parallel engine can give every tenant
        // its own partition group.
        sim.set_app_scope(app, &[t.host]);
    }
}

fn build(seed: u64, rec: &mut Recorder, parent: Option<SpanId>) -> (Simulation, Arc<Tally>) {
    let topo = rec.span("topology.from_spec", parent, || {
        Topology::from_spec(SPEC).expect("fabric spec parses")
    });
    let hosts = topo.num_hosts();
    let rate = topo.spec().rate_bps();
    let mut sim = rec.span("rdma_verbs.new", parent, || {
        Simulation::with_topology(seed, topo, Some(PfcPortConfig::default()))
    });
    let mut add = Fold::default();
    for _ in 0..hosts {
        rec.fold(&mut add, || sim.add_host(DeviceProfile::connectx5()));
    }
    rec.push_fold("rdma_verbs.add_host", parent, add);
    let tally = Arc::new(Tally::default());
    rec.span("rdma_verbs.wire", parent, || {
        wire(&mut sim, tenants(hosts, rate, seed), &tally)
    });
    (sim, tally)
}

fn unit(seed: u64, workers: usize, rec: &mut Recorder, idx: u32) -> Unit {
    let span = rec.open("unit", idx);
    let t0 = Instant::now();
    let (mut sim, tally) = build(seed, rec, span);
    let t1 = Instant::now();
    rec.span("rdma_verbs.run_until_workers", span, || {
        sim.run_until_workers(HORIZON, workers)
    });
    let t2 = Instant::now();
    let counts = rec.span("rdma_verbs.counters", span, || UnitCounts {
        wrs_posted: tally.posted.load(Ordering::Relaxed),
        wrs_completed: tally.completed.load(Ordering::Relaxed),
        failed: tally.rejected.load(Ordering::Relaxed) + tally.errors.load(Ordering::Relaxed),
        ..UnitCounts::of(&sim, sim.topology().map_or(0, Topology::num_hosts))
    });
    rec.span("rdma_verbs.drop", span, || drop(sim));
    rec.close(span);
    Unit {
        setup_ns: (t1 - t0).as_nanos() as u64,
        run_ns: (t2 - t1).as_nanos() as u64,
        counts,
    }
}

pub fn run(opts: &Opts, workers: usize, rec: &mut Recorder) -> crate::metrics::Report {
    let seed = opts.seed;
    let mut report = crate::metrics::Report::default();
    let mut off = Recorder::new(false);

    // Gate: the other worker count replays this one bit for bit.
    let first = unit(seed, workers, &mut off, 0);
    let other = unit(seed, 3 - workers, &mut off, 0);
    // Arena allocations are the one engine-dependent ledger: the
    // parallel engine re-homes packets that cross a worker boundary.
    let simulated = |c: &UnitCounts| UnitCounts {
        arena_allocs: 0,
        ..*c
    };
    report.gate(simulated(&other.counts) == simulated(&first.counts), || {
        format!(
            "fabric_incast: workers {} vs {} diverged: {:?} vs {:?}",
            3 - workers,
            workers,
            other.counts,
            first.counts
        )
    });
    for _ in 0..opts.scaled(2, 0) {
        unit(seed, workers, &mut off, 0);
    }

    crate::timed_units(
        opts,
        opts.scaled(30, 5),
        &first.counts,
        &mut report,
        rec,
        |rec, i| unit(seed, workers, rec, i),
    );
    if rec.enabled() {
        // PDES speedup: alternating untraced units at 1 and 2 workers.
        let n = opts.scaled(5, 1);
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        for _ in 0..n {
            w1.push(unit(seed, 1, &mut off, 0).run_ns as f64);
            w2.push(unit(seed, 2, &mut off, 0).run_ns as f64);
        }
        let speedup = crate::stats::median(&w1) / crate::stats::median(&w2);
        report.set("pdes.speedup", speedup, n);
        let m = opts.scaled(3, 1);
        let (_, profile) = crate::profiled(|| {
            for _ in 0..m {
                unit(seed, workers, &mut off, 0);
            }
        });
        report.set_profile(&profile, m);
    }
    report
}
