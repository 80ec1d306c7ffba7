//! Cluster-scale scenarios on the multi-hop fabric: the Noisy-Neighbor
//! exhaustion study and the Bankrupt-style remote-memory covert channel.
//!
//! Both experiments place tenants on a [`Topology`] (leaf-spine by
//! default, overridable with `--topology`) and drive them *open-loop*
//! from seed-derived arrival processes, so an overloaded fabric builds
//! queue instead of self-throttling. Tenant placement comes from a
//! `placement_seed` shared by every cell of a sweep — the attacker-QP
//! axis varies load, never geometry, so the quiet baseline is directly
//! comparable.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use ragnar_core::covert::sync::{async_decode, strip_preamble_fuzzy};
use ragnar_core::covert::{binary_entropy, count_errors, parse_bits, random_bits};
use ragnar_harness::{Artifact, Cli, Config, Experiment, RunRecord};
use ragnar_topology::traffic::{gap_for_load, OpenLoopGen, Population, TenantRole};
use rdma_verbs::{
    AccessFlags, App, ConnectOptions, Cqe, Ctx, DeviceProfile, HostId, LinkId, MrHandle,
    PfcPortConfig, QpHandle, Simulation, WorkRequest,
};
use sim_core::{percentile_sorted, SimDuration, SimTime};

use crate::{fmt_bps, fmt_pct, fmt_table};

/// Scratch local buffer used by every tenant (local addresses are not
/// validated against an MR; only the remote side is).
const LOCAL_BUF: u64 = 0x20_0000;

/// Completion-latency samples (ns) shared between apps and the driver.
type Samples = Rc<RefCell<Vec<f64>>>;

/// `(time, latency-ns)` samples for windowed covert decoding.
type TimedSamples = Rc<RefCell<Vec<(SimTime, f64)>>>;

/// One open-loop tenant: posts a fixed-shape verb on its QPs (round-
/// robin) at times dictated by its private arrival process, and records
/// completion latencies if asked. Never paces off completions — a full
/// send queue counts as an overrun and the message is lost.
struct Tenant {
    qps: Vec<QpHandle>,
    next_qp: usize,
    gen: OpenLoopGen,
    /// `Some(gap)` for constant-rate probes, `None` for Poisson.
    fixed_gap: Option<SimDuration>,
    write: bool,
    msg_len: u64,
    remote: MrHandle,
    remote_offset: u64,
    stop_at: SimTime,
    measure_from: SimTime,
    latencies: Option<Samples>,
    timed: Option<TimedSamples>,
    overruns: Rc<RefCell<u64>>,
    seq: u64,
}

impl App for Tenant {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let due = self.gen.next_at();
        ctx.set_timer(due.saturating_since(ctx.now()), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let qp = self.qps[self.next_qp];
        self.next_qp = (self.next_qp + 1) % self.qps.len();
        self.seq += 1;
        let addr = self.remote.addr(self.remote_offset);
        let wr = if self.write {
            WorkRequest::write(self.seq, LOCAL_BUF, addr, self.remote.key, self.msg_len)
        } else {
            WorkRequest::read(self.seq, LOCAL_BUF, addr, self.remote.key, self.msg_len)
        };
        if ctx.post_send(qp, wr).is_err() {
            *self.overruns.borrow_mut() += 1;
        }
        self.gen.advance(self.fixed_gap);
        let due = self.gen.next_at();
        ctx.set_timer(due.saturating_since(ctx.now()), 0);
    }

    fn on_cqe(&mut self, _ctx: &mut Ctx<'_>, _host: HostId, cqe: Cqe) {
        if !cqe.status.is_ok() || cqe.is_recv {
            return;
        }
        let lat_ns = cqe.latency().as_nanos_f64();
        if let Some(samples) = &self.latencies {
            if cqe.completed_at >= self.measure_from && cqe.completed_at <= self.stop_at {
                samples.borrow_mut().push(lat_ns);
            }
        }
        if let Some(timed) = &self.timed {
            // Timestamp at the *post* time. Sender hammers and receiver
            // probes cross the same fabric, so their outbound delays
            // cancel: a probe posted during nominal bit window k samples
            // the remote row-buffer state the sender set for bit k, no
            // matter how long either flight takes.
            timed.borrow_mut().push((cqe.posted_at, lat_ns));
        }
    }
}

/// p-th percentile of unsorted latency samples.
fn pctl(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    percentile_sorted(&sorted, q)
}

fn fmt_us(ns: f64) -> String {
    format!("{:.2} us", ns / 1000.0)
}

// ---------------------------------------------------------------------
// Noisy neighbor
// ---------------------------------------------------------------------

/// Default fabric for the noisy-neighbor sweep: the paper-scale 256-host
/// leaf-spine pod at 8:1 oversubscription.
const NOISY_TOPOLOGY: &str = "leaf-spine:hosts=256,leaves=8,spines=4";
/// Victim hosts (constant-rate probers whose p99 we report).
const VICTIMS: u32 = 4;
/// Attacker hosts the QP budget is spread across.
const ATTACKER_HOSTS: u32 = 8;
/// Bystander hosts carrying ambient load (drawn from the population in
/// ascending host order).
const ACTIVE_BYSTANDERS: usize = 16;
/// Measurement window: ignore completions before the warmup boundary.
const WARMUP: SimTime = SimTime::from_micros(50);
/// Tenants stop generating (and samples stop counting) here.
const MEASURE_END: SimTime = SimTime::from_micros(200);
/// Extra drain time so in-flight traffic settles before teardown.
const HORIZON: SimTime = SimTime::from_micros(220);

/// Noisy-neighbor exhaustion: attacker tenants sweep their aggregate QP
/// count while victims probe across the oversubscribed fabric; the
/// report shows victim p99 completion-latency degradation versus the
/// quiet baseline, with and without PFC back-pressure.
pub struct NoisyNeighbor;

impl Experiment for NoisyNeighbor {
    fn name(&self) -> &'static str {
        "noisy_neighbor"
    }

    fn description(&self) -> &'static str {
        "victim p99 latency vs. attacker QP count on a leaf-spine fabric (--full widens the sweep)"
    }

    fn version(&self) -> u32 {
        // v2: attackers incast one shared sink instead of per-host
        // partners, moving the congestion onto switch egress queues.
        2
    }

    fn params(&self, cli: &Cli) -> Vec<Config> {
        let mut sweeps: Vec<(u64, bool)> = vec![(0, false), (16, false), (64, false), (64, true)];
        if cli.flag("--full") {
            sweeps.extend([(8, false), (32, false), (128, false), (128, true)]);
        }
        let configs = sweeps
            .into_iter()
            .map(|(qps, pfc)| {
                Config::new()
                    .with("topology", NOISY_TOPOLOGY)
                    .with("attacker_qps", qps)
                    .with("pfc", pfc)
                    // Shared across cells: the sweep varies load, not
                    // placement, so degradation is measured against the
                    // same geometry.
                    .with("placement_seed", cli.seed)
            })
            .collect();
        super::topology_configs(super::chaos_configs(configs, cli), cli)
    }

    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
        let topo = super::topology_from(config)?.ok_or("missing topology")?;
        let hosts = topo.num_hosts();
        let rate = topo.spec().rate_bps();
        let n_links = topo.links().len();
        if hosts < 2 * (VICTIMS + ATTACKER_HOSTS) {
            return Err(format!(
                "topology too small for the tenant mix: {hosts} hosts"
            ));
        }
        let attacker_qps = config.u64("attacker_qps").ok_or("missing attacker_qps")?;
        let pfc_on = config.bool("pfc").unwrap_or(false);
        let placement_seed = config
            .u64("placement_seed")
            .ok_or("missing placement_seed")?;

        let mut sim = Simulation::with_topology(seed, topo, pfc_on.then(PfcPortConfig::default));
        if let Some(plan) = super::chaos_plan(config)? {
            sim.install_fault_plan(&plan);
        }
        for _ in 0..hosts {
            sim.add_host(DeviceProfile::connectx5());
        }

        let pop = Population::sampled(hosts, VICTIMS, ATTACKER_HOSTS, placement_seed);
        let victim_lat: Samples = Rc::new(RefCell::new(Vec::new()));
        let bystander_lat: Samples = Rc::new(RefCell::new(Vec::new()));
        let overruns = Rc::new(RefCell::new(0u64));
        // Each tenant targets the host half the fabric away, so flows
        // cross leaves and contend on the oversubscribed trunks.
        let partner = |h: HostId| HostId((h.0 + hosts / 2) % hosts);

        let spawn = |sim: &mut Simulation,
                     host: HostId,
                     peer: Option<HostId>,
                     n_qps: usize,
                     gen: OpenLoopGen,
                     fixed_gap: Option<SimDuration>,
                     write: bool,
                     msg_len: u64,
                     latencies: Option<Samples>| {
            let peer = peer.unwrap_or_else(|| partner(host));
            let pd = sim.alloc_pd(host);
            let pd_peer = sim.alloc_pd(peer);
            let mr = sim.register_mr(peer, pd_peer, 2 << 20, AccessFlags::remote_all());
            let mut qps = Vec::with_capacity(n_qps);
            for _ in 0..n_qps {
                let (qp, _) = sim.connect(host, pd, peer, pd_peer, ConnectOptions::default());
                qps.push(qp);
            }
            let app = sim.add_app(Box::new(Tenant {
                qps: qps.clone(),
                next_qp: 0,
                gen,
                fixed_gap,
                write,
                msg_len,
                remote: mr,
                remote_offset: 0,
                stop_at: MEASURE_END,
                measure_from: WARMUP,
                latencies,
                timed: None,
                overruns: Rc::clone(&overruns),
                seq: 0,
            }));
            for qp in qps {
                sim.own_qp(app, qp);
            }
        };

        // Victims: constant 512 B cross-fabric reads, one per microsecond.
        let probe_gap = SimDuration::from_micros(1);
        for v in pop.hosts_with(TenantRole::Victim) {
            spawn(
                &mut sim,
                v,
                None,
                1,
                OpenLoopGen::constant(SimTime::ZERO, probe_gap),
                Some(probe_gap),
                false,
                512,
                Some(Rc::clone(&victim_lat)),
            );
        }
        // Attackers: the QP budget spread over the attacker hosts, each
        // host offering 25% of line rate per QP in 2 KiB writes, all
        // aimed at ONE shared target host. The incast is the point:
        // host uplinks clip each attacker at line rate, but the flows
        // still converge on the target's leaf, so the congestion sits
        // on switch egress queues — the trunks the victims share, and
        // (with PFC on) the queues that emit XOFF back up the tree.
        if attacker_qps > 0 {
            let atk_hosts = pop.hosts_with(TenantRole::Attacker);
            // Incast onto the first attacker's cross-fabric partner that
            // holds no role of its own, so the sink's uplink traffic
            // never perturbs a victim or another attacker.
            let incast = atk_hosts
                .iter()
                .map(|&a| partner(a))
                .find(|&p| pop.role(p) == TenantRole::Bystander)
                .ok_or("no role-free incast target in the population")?;
            let base = attacker_qps as usize / atk_hosts.len();
            let rem = attacker_qps as usize % atk_hosts.len();
            for (i, a) in atk_hosts.into_iter().enumerate() {
                let n_qps = base + usize::from(i < rem);
                if n_qps == 0 {
                    continue;
                }
                let mean_gap = SimDuration::serialization(2048, rate).mul_f64(4.0 / n_qps as f64);
                spawn(
                    &mut sim,
                    a,
                    Some(incast),
                    n_qps,
                    OpenLoopGen::poisson(seed, &format!("atk-{}", a.0), SimTime::ZERO, mean_gap),
                    None,
                    true,
                    2048,
                    None,
                );
            }
        }
        // Bystanders: light ambient load from a fixed-size sample.
        let ambient_gap = gap_for_load(0.10, 1024, rate);
        for b in pop
            .hosts_with(TenantRole::Bystander)
            .into_iter()
            .take(ACTIVE_BYSTANDERS)
        {
            spawn(
                &mut sim,
                b,
                None,
                1,
                OpenLoopGen::poisson(seed, &format!("bys-{}", b.0), SimTime::ZERO, ambient_gap),
                None,
                true,
                1024,
                Some(Rc::clone(&bystander_lat)),
            );
        }

        sim.run_until(HORIZON);

        let victims = victim_lat.borrow();
        let bystanders = bystander_lat.borrow();
        if victims.is_empty() {
            return Err("no victim completions inside the measure window".into());
        }
        let p50 = pctl(&victims, 0.50);
        let p99 = pctl(&victims, 0.99);
        let bys_p99 = if bystanders.is_empty() {
            f64::NAN
        } else {
            pctl(&bystanders, 0.99)
        };
        let drops = sim.dropped_packets();
        let overrun_count = *overruns.borrow();
        let pauses: u64 = (0..n_links)
            .filter_map(|i| sim.link_counters(LinkId(i as u32)))
            .map(|c| c.pauses_taken)
            .sum();
        let row = [
            attacker_qps.to_string(),
            if pfc_on { "on" } else { "off" }.to_string(),
            fmt_us(p50),
            fmt_us(p99),
            fmt_us(bys_p99),
            drops.to_string(),
            pauses.to_string(),
            overrun_count.to_string(),
        ];
        Ok(Artifact::text(row.join("\t"))
            .with_metric("victim_p50_ns", p50)
            .with_metric("victim_p99_ns", p99)
            .with_metric("bystander_p99_ns", bys_p99)
            .with_metric("victim_samples", victims.len() as u64)
            .with_metric("dropped_packets", drops)
            .with_metric("pfc_pauses", pauses)
            .with_metric("attacker_overruns", overrun_count))
    }

    fn summarize(&self, records: &[RunRecord], out: &mut String) {
        let p99_of = |r: &RunRecord| {
            r.outcome
                .artifact()
                .and_then(|a| a.metrics.get("victim_p99_ns")?.as_f64())
        };
        let baseline = records
            .iter()
            .find(|r| r.config.u64("attacker_qps") == Some(0) && r.config.bool("pfc") != Some(true))
            .and_then(p99_of);
        let mut rows = Vec::new();
        for r in records {
            let mut row: Vec<String> = match r.outcome.artifact() {
                Some(a) => a
                    .rendered
                    .trim_end_matches('\n')
                    .split('\t')
                    .map(str::to_string)
                    .collect(),
                None => continue,
            };
            let vs_quiet = match (baseline, p99_of(r)) {
                (Some(b), Some(p)) if b > 0.0 => format!("{:.2}x", p / b),
                _ => "-".into(),
            };
            row.insert(4, vs_quiet);
            rows.push(row);
        }
        let topology = records
            .first()
            .and_then(|r| r.config.str("topology"))
            .unwrap_or("?");
        out.push_str(&format!(
            "## Noisy neighbor — victim latency vs. attacker QPs ({topology})\n\n"
        ));
        out.push_str(&fmt_table(
            &[
                "attacker QPs",
                "PFC",
                "victim p50",
                "victim p99",
                "p99 vs quiet",
                "bystander p99",
                "drops",
                "pauses",
                "overruns",
            ],
            &rows,
        ));
        out.push_str(
            "\nOpen-loop attackers exhaust the oversubscribed trunks: victim tail\n\
             latency grows with the attacker QP budget even though victims and\n\
             attackers never share a QP, MR or host — only fabric links. PFC\n\
             back-pressure shifts the damage upstream rather than removing it.\n",
        );
    }
}

// ---------------------------------------------------------------------
// Bankrupt covert channel
// ---------------------------------------------------------------------

/// Default fabric for the covert channel: a small leaf-spine pod —
/// sender, receiver and memory server sit on three different leaves.
const BANKRUPT_TOPOLOGY: &str = "leaf-spine:hosts=16,leaves=4,spines=2";
/// Modulation starts here (fabric warmup before the first bit window).
const BANKRUPT_START: SimTime = SimTime::from_micros(20);

/// Bankrupt-style covert channel through a remote memory server: the
/// sender modulates bits by hammering either the receiver's probe row
/// (conflict ⇒ slow probes ⇒ `1`) or a row in a different TPU buffer
/// class (`0`); the receiver threshold-decodes windowed probe-latency
/// means. Neither party ever touches the other's memory — the channel
/// lives entirely in the server NIC's row-buffer state.
pub struct BankruptCovert;

impl Experiment for BankruptCovert {
    fn name(&self) -> &'static str {
        "bankrupt_covert"
    }

    fn description(&self) -> &'static str {
        "remote-memory row-conflict covert channel across the fabric (--bits <n>, --full for more periods)"
    }

    fn params(&self, cli: &Cli) -> Vec<Config> {
        let n_bits = cli.option_u64("--bits").unwrap_or(64);
        let mut periods: Vec<u64> = vec![4_000, 8_000];
        if cli.flag("--full") {
            periods.extend([2_000, 16_000]);
        }
        let configs = periods
            .into_iter()
            .map(|p| {
                Config::new()
                    .with("topology", BANKRUPT_TOPOLOGY)
                    .with("period_ns", p)
                    .with("bits", n_bits)
            })
            .collect();
        super::topology_configs(super::chaos_configs(configs, cli), cli)
    }

    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
        let topo = super::topology_from(config)?.ok_or("missing topology")?;
        let hosts = topo.num_hosts();
        if hosts < 3 {
            return Err(format!("need at least 3 hosts, topology has {hosts}"));
        }
        let period_ns = config.u64("period_ns").ok_or("missing period_ns")?;
        let n_bits = config.u64("bits").ok_or("missing bits")? as usize;
        // The receiver shares no clock with the sender — one-way fabric
        // delays differ per placement — so the payload is framed behind
        // a known preamble and the phase is recovered from the signal.
        // Barker-7: unlike an alternating pattern it cannot alias onto
        // itself when the recovered clock is a whole window off, so the
        // preamble match also absorbs any residual window shift.
        let preamble = parse_bits("1110010");
        let payload = random_bits(n_bits, seed);
        let mut framed = preamble.clone();
        framed.extend(&payload);
        let period = SimDuration::from_nanos(period_ns);
        let total = SimDuration::from_nanos(period_ns * framed.len() as u64);

        let profile = DeviceProfile::connectx5();
        // Row-buffer geometry: rows whose index is congruent mod the
        // buffer count share a buffer. Hammering row `buffers` evicts the
        // probe's row 0; hammering row 1 leaves it resident. Both hammer
        // targets sit one 64 B token into their row so they use a
        // different TPU *bank* than the probe — the channel must come
        // from row state, not from shared bank-queue contention.
        let hot = profile.tpu_row_buffers as u64 * profile.tpu_row_bytes + 64;
        let cold = profile.tpu_row_bytes + 64;

        let mut sim = Simulation::with_topology(seed, topo, None);
        if let Some(plan) = super::chaos_plan(config)? {
            sim.install_fault_plan(&plan);
        }
        for _ in 0..hosts {
            sim.add_host(profile.clone());
        }
        let server = HostId(0);
        let receiver = HostId((hosts / 3).max(1));
        let sender = HostId((2 * hosts / 3).max(2));

        let pd_server = sim.alloc_pd(server);
        let mr = sim.register_mr(server, pd_server, 2 << 20, AccessFlags::remote_all());
        let overruns = Rc::new(RefCell::new(0u64));
        let samples: TimedSamples = Rc::new(RefCell::new(Vec::new()));

        // Receiver: constant-rate 8 B probes of row 0, one every 100 ns —
        // just above the TPU's row-miss service time. During a hot window
        // every probe misses (~105 ns service > 100 ns arrivals), so the
        // probe bank builds a queue that *integrates* the 45 ns penalty
        // into a per-window level far above the jitter floor; a cold
        // window (~60 ns hits) drains it again. Probing starts well
        // before the modulation so the cold-start costs (MPT miss, MR
        // context load) are paid on samples the decoder never sees, and
        // runs one extra period past the payload so the last window has
        // samples.
        let pd_rx = sim.alloc_pd(receiver);
        let (rx_qp, _) = sim.connect(
            receiver,
            pd_rx,
            server,
            pd_server,
            ConnectOptions::default(),
        );
        let probe_gap = SimDuration::from_nanos(100);
        let rx_app = sim.add_app(Box::new(Tenant {
            qps: vec![rx_qp],
            next_qp: 0,
            gen: OpenLoopGen::constant(SimTime::from_micros(10), probe_gap),
            fixed_gap: Some(probe_gap),
            write: false,
            msg_len: 8,
            remote: mr,
            remote_offset: 0,
            stop_at: BANKRUPT_START + total + period,
            measure_from: SimTime::ZERO,
            latencies: None,
            timed: Some(Rc::clone(&samples)),
            overruns: Rc::clone(&overruns),
            seq: 0,
        }));
        sim.own_qp(rx_app, rx_qp);

        // Sender: hammers the bit-selected row with 64 B reads at the
        // same cadence as the probes. The load is identical for both
        // symbols — only the target row differs, so the channel cannot
        // be explained by fabric congestion.
        let pd_tx = sim.alloc_pd(sender);
        let (tx_qp, _) = sim.connect(sender, pd_tx, server, pd_server, ConnectOptions::default());
        let tx_app = sim.add_app(Box::new(Modulator {
            qp: tx_qp,
            remote: mr,
            bits: framed.clone(),
            start: BANKRUPT_START,
            period,
            gap: probe_gap,
            hot,
            cold,
            overruns: Rc::clone(&overruns),
            seq: 0,
        }));
        sim.own_qp(tx_app, tx_qp);

        sim.run_until(BANKRUPT_START + total + SimDuration::from_micros(20));

        // Decode only samples taken while the sender modulated; the
        // earlier warm-up probes would dilute the phase search.
        let samples: Vec<(SimTime, f64)> = samples
            .borrow()
            .iter()
            .copied()
            .filter(|&(t, _)| t >= BANKRUPT_START)
            .collect();
        if samples.is_empty() {
            return Err("no probe samples inside the modulation window".into());
        }
        let (decoded, _clock) = async_decode(&samples, period, true);
        // Fuzzy match: a single bad window inside the preamble, or a
        // recovered clock one window late (clipping the preamble's head),
        // must not desynchronise the whole payload.
        let (n, errors) = match strip_preamble_fuzzy(&decoded, &preamble, 5) {
            Some(got) => {
                let n = got.len().min(payload.len());
                (n, count_errors(&payload[..n], &got[..n]))
            }
            // Preamble never appeared: the channel carried nothing this
            // run. Score it at chance so the effective bandwidth is zero.
            None => (payload.len(), payload.len().div_ceil(2)),
        };
        if n == 0 {
            return Err("capture ended before any payload bit".into());
        }
        let error_rate = errors as f64 / n as f64;
        let raw_bps = 1.0 / period.as_secs_f64();
        let effective_bps = raw_bps * (1.0 - binary_entropy(error_rate));
        let overrun_count = *overruns.borrow();
        let row = [
            format!("{:.1} us", period_ns as f64 / 1000.0),
            fmt_bps(raw_bps),
            format!("{errors}/{n} ({})", fmt_pct(error_rate)),
            fmt_bps(effective_bps),
        ];
        Ok(Artifact::text(row.join("\t"))
            .with_metric("raw_bps", raw_bps)
            .with_metric("error_rate", error_rate)
            .with_metric("effective_bps", effective_bps)
            .with_metric("bits_decoded", n as u64)
            .with_metric("overruns", overrun_count))
    }

    fn summarize(&self, records: &[RunRecord], out: &mut String) {
        let topology = records
            .first()
            .and_then(|r| r.config.str("topology"))
            .unwrap_or("?");
        let n_bits = records
            .first()
            .and_then(|r| r.config.u64("bits"))
            .unwrap_or(0);
        out.push_str(&format!(
            "## Bankrupt covert channel — {n_bits} random bits over {topology}\n\n"
        ));
        out.push_str(&fmt_table(
            &["bit period", "raw BW", "bit errors", "effective BW"],
            &super::tab_rows(records),
        ));
        writeln!(
            out,
            "\nThe sender and receiver share nothing but a third host's memory\n\
             server: row-buffer conflicts inside its NIC TPU modulate probe\n\
             latency across the fabric, reproducing the Bankrupt attack's\n\
             volatile-channel premise on the Ragnar device model."
        )
        .ok();
    }
}

/// The covert sender: each timer tick posts one 64 B read whose target
/// row encodes the current bit, until the payload is exhausted.
struct Modulator {
    qp: QpHandle,
    remote: MrHandle,
    bits: Vec<bool>,
    start: SimTime,
    period: SimDuration,
    gap: SimDuration,
    hot: u64,
    cold: u64,
    overruns: Rc<RefCell<u64>>,
    seq: u64,
}

impl App for Modulator {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start.saturating_since(ctx.now()), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        if now < self.start {
            ctx.set_timer(self.start.saturating_since(now), 0);
            return;
        }
        let idx = ((now - self.start).as_picos() / self.period.as_picos()) as usize;
        let Some(&bit) = self.bits.get(idx) else {
            return;
        };
        let offset = if bit { self.hot } else { self.cold };
        self.seq += 1;
        let wr = WorkRequest::read(
            self.seq,
            LOCAL_BUF,
            self.remote.addr(offset),
            self.remote.key,
            64,
        );
        if ctx.post_send(self.qp, wr).is_err() {
            *self.overruns.borrow_mut() += 1;
        }
        ctx.set_timer(self.gap, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noisy_sweep_shares_placement_and_includes_pfc_cell() {
        let cli = Cli::default();
        let configs = NoisyNeighbor.params(&cli);
        assert_eq!(configs.len(), 4);
        let seeds: Vec<_> = configs.iter().map(|c| c.u64("placement_seed")).collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]));
        assert!(configs
            .iter()
            .any(|c| c.bool("pfc") == Some(true) && c.u64("attacker_qps") == Some(64)));
        assert!(configs
            .iter()
            .all(|c| c.str("topology") == Some(NOISY_TOPOLOGY)));
    }

    #[test]
    fn bankrupt_channel_decodes_on_a_small_fabric() {
        let config = Config::new()
            .with("topology", "leaf-spine:hosts=8,leaves=2,spines=2")
            .with("period_ns", 4_000u64)
            .with("bits", 16u64);
        let artifact = BankruptCovert.run(&config, 7).expect("run succeeds");
        let decoded = artifact
            .metrics
            .get("bits_decoded")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(decoded >= 15.0, "decoded only {decoded} windows");
        let err = artifact
            .metrics
            .get("error_rate")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(err <= 0.25, "row-conflict channel too noisy: {err}");
    }
}
