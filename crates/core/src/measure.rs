//! Measurement drivers shared by every experiment: saturating traffic
//! generators, the ULI probe of §IV-C, and bandwidth samplers.

use ragnar_telemetry as telemetry;
use rdma_verbs::{App, Cqe, Ctx, HostId, MrKey, Opcode, QpHandle, VerbsError, WorkRequest};
use sim_core::{SimDuration, SimTime, TimeSeries};
use std::cell::RefCell;
use std::rc::Rc;

/// A `(remote key, remote address)` target of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Remote MR key.
    pub key: MrKey,
    /// Remote virtual address.
    pub addr: u64,
}

/// Deterministic remote-address generators for traffic flows.
#[derive(Debug, Clone)]
pub enum AddressPattern {
    /// Always the same target.
    Fixed(Target),
    /// Cycle through the listed targets (the paper's "alternately
    /// accessing two addresses").
    Cycle(Vec<Target>),
    /// Stride within one MR: `addr = base + (i % count) * stride`.
    Stride {
        /// MR key.
        key: MrKey,
        /// First address.
        base: u64,
        /// Stride in bytes.
        stride: u64,
        /// Number of distinct addresses.
        count: u64,
    },
}

impl AddressPattern {
    /// The `i`-th target of the pattern.
    ///
    /// # Panics
    ///
    /// Panics if a `Cycle` pattern is empty.
    pub fn target(&self, i: u64) -> Target {
        match self {
            AddressPattern::Fixed(t) => *t,
            AddressPattern::Cycle(ts) => {
                assert!(!ts.is_empty(), "empty cycle pattern");
                ts[(i % ts.len() as u64) as usize]
            }
            AddressPattern::Stride {
                key,
                base,
                stride,
                count,
            } => Target {
                key: *key,
                addr: base + (i % count) * stride,
            },
        }
    }
}

/// Mutable counters of one traffic flow, shared between the app and the
/// harness.
#[derive(Debug, Default)]
pub struct FlowStats {
    /// Successfully completed messages.
    pub completed_msgs: u64,
    /// Successfully completed payload bytes.
    pub completed_bytes: u64,
    /// Completions with remote errors.
    pub errors: u64,
    /// Completion timestamps and byte counts, if recording is enabled.
    pub completions: Option<TimeSeries>,
}

impl FlowStats {
    /// New zeroed stats; `record` enables the per-completion time series.
    pub fn new(record: bool) -> Rc<RefCell<FlowStats>> {
        Rc::new(RefCell::new(FlowStats {
            completions: record.then(TimeSeries::new),
            ..FlowStats::default()
        }))
    }

    /// Mean goodput over `[from, to)` in bits per second, from the counter
    /// totals (requires the window to cover the whole run) — prefer
    /// [`goodput_bps`] for arbitrary windows.
    pub fn total_goodput_bps(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.completed_bytes as f64 * 8.0 / elapsed.as_secs_f64()
    }
}

/// Goodput over `[from, to)` from a recorded completion series, in bits
/// per second.
pub fn goodput_bps(series: &TimeSeries, from: SimTime, to: SimTime) -> f64 {
    let bytes: f64 = series
        .points()
        .iter()
        .filter(|&&(t, _)| t >= from && t < to)
        .map(|&(_, b)| b)
        .sum();
    let secs = (to - from).as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        bytes * 8.0 / secs
    }
}

/// A closed-loop traffic generator: keeps the send queues of all its QPs
/// full with `opcode` messages of `msg_len` bytes following an address
/// pattern. The building block of every competing flow in Fig. 4 and the
/// covert-channel senders.
pub struct SaturatingFlow {
    qps: Vec<QpHandle>,
    opcode: Opcode,
    msg_len: u64,
    pattern: AddressPattern,
    local_addr: u64,
    seq: u64,
    stats: Rc<RefCell<FlowStats>>,
    /// When set, the flow stops reposting (the generator drains).
    paused: Rc<RefCell<bool>>,
}

impl SaturatingFlow {
    /// Creates the generator. `stats` receives completion accounting;
    /// `paused` lets the harness silence the flow (e.g. the covert sender
    /// idles between frames).
    pub fn new(
        qps: Vec<QpHandle>,
        opcode: Opcode,
        msg_len: u64,
        pattern: AddressPattern,
        local_addr: u64,
        stats: Rc<RefCell<FlowStats>>,
        paused: Rc<RefCell<bool>>,
    ) -> Self {
        assert!(!qps.is_empty(), "flow needs at least one QP");
        SaturatingFlow {
            qps,
            opcode,
            msg_len,
            pattern,
            local_addr,
            seq: 0,
            stats,
            paused,
        }
    }

    fn request(&mut self) -> WorkRequest {
        let t = self.pattern.target(self.seq);
        self.seq += 1;
        match self.opcode {
            Opcode::Read => {
                WorkRequest::read(self.seq, self.local_addr, t.addr, t.key, self.msg_len)
            }
            Opcode::Write => {
                WorkRequest::write(self.seq, self.local_addr, t.addr, t.key, self.msg_len)
            }
            Opcode::Send => WorkRequest::send(self.seq, self.local_addr, self.msg_len),
            Opcode::AtomicFetchAdd => {
                WorkRequest::fetch_add(self.seq, self.local_addr, t.addr, t.key, 1)
            }
            Opcode::AtomicCmpSwap => {
                WorkRequest::cmp_swap(self.seq, self.local_addr, t.addr, t.key, 0, 1)
            }
        }
    }

    fn fill(&mut self, ctx: &mut Ctx<'_>, qp: QpHandle) {
        if *self.paused.borrow() {
            return;
        }
        loop {
            let wr = self.request();
            match ctx.post_send(qp, wr) {
                Ok(()) => {}
                Err(VerbsError::SendQueueFull) | Err(VerbsError::QpInError) => {
                    // Undo the sequence advance for the rejected request so
                    // patterns stay phase-accurate.
                    self.seq -= 1;
                    break;
                }
                Err(e) => panic!("unexpected post error: {e}"),
            }
        }
    }
}

impl App for SaturatingFlow {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let qps = self.qps.clone();
        for qp in qps {
            self.fill(ctx, qp);
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, _host: HostId, cqe: Cqe) {
        {
            let mut s = self.stats.borrow_mut();
            if cqe.status.is_ok() {
                s.completed_msgs += 1;
                s.completed_bytes += cqe.byte_len;
                if let Some(ts) = s.completions.as_mut() {
                    ts.push(cqe.completed_at, cqe.byte_len as f64);
                }
            } else {
                s.errors += 1;
            }
        }
        let qp = self
            .qps
            .iter()
            .copied()
            .find(|q| q.qp == cqe.qp)
            .unwrap_or(self.qps[0]);
        self.fill(ctx, qp);
    }
}

/// One ULI observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UliSample {
    /// Completion time.
    pub at: SimTime,
    /// Unit latency increase in nanoseconds:
    /// `Lat_total / (len_sq + 1)` with the queue kept full.
    pub uli_ns: f64,
    /// Raw end-to-end latency in nanoseconds.
    pub latency_ns: f64,
    /// The remote address the probe touched.
    pub addr: u64,
}

/// The §IV-C measurement probe: keeps one QP's send queue at its maximum
/// depth with fixed-size reads following an address pattern and records
/// `ULI ≈ Lat_total / (len_sq + 1)` per completion.
pub struct UliProbe {
    qp: QpHandle,
    depth: u64,
    msg_len: u64,
    pattern: AddressPattern,
    local_addr: u64,
    seq: u64,
    inflight_addr: std::collections::HashMap<u64, u64>,
    samples: Rc<RefCell<Vec<UliSample>>>,
    tracer: telemetry::Tracer,
    metrics: telemetry::Metrics,
}

impl UliProbe {
    /// Creates a probe over `qp`, whose connect options must have set
    /// `max_send_queue = depth`.
    pub fn new(
        qp: QpHandle,
        depth: usize,
        msg_len: u64,
        pattern: AddressPattern,
        local_addr: u64,
        samples: Rc<RefCell<Vec<UliSample>>>,
    ) -> Self {
        assert!(depth > 0, "probe depth must be positive");
        UliProbe {
            qp,
            depth: depth as u64,
            msg_len,
            pattern,
            local_addr,
            seq: 0,
            inflight_addr: std::collections::HashMap::new(),
            samples,
            tracer: telemetry::tracer(),
            metrics: telemetry::metrics(),
        }
    }

    fn post_one(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let t = self.pattern.target(self.seq);
        let wr_id = self.seq;
        self.seq += 1;
        let wr = WorkRequest::read(wr_id, self.local_addr, t.addr, t.key, self.msg_len);
        match ctx.post_send(self.qp, wr) {
            Ok(()) => {
                self.inflight_addr.insert(wr_id, t.addr);
                true
            }
            Err(VerbsError::SendQueueFull) | Err(VerbsError::QpInError) => {
                self.seq -= 1;
                false
            }
            Err(e) => panic!("unexpected post error: {e}"),
        }
    }
}

impl App for UliProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        while self.post_one(ctx) {}
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, _host: HostId, cqe: Cqe) {
        let addr = self.inflight_addr.remove(&cqe.wr_id).unwrap_or(0);
        if cqe.status.is_ok() {
            let lat = cqe.latency().as_nanos_f64();
            let uli = lat / self.depth as f64;
            if self.metrics.enabled() {
                self.metrics.record_ns("uli_ns", uli);
                self.metrics.record_ns("uli_latency_ns", lat);
            }
            if self.tracer.enabled(telemetry::Target::Core) {
                self.tracer.instant(
                    telemetry::Target::Core,
                    "uli_sample",
                    telemetry::ActorId::qp(self.qp.host.0, self.qp.qp.0),
                    cqe.completed_at.as_picos(),
                    &[("uli_ns", uli.into()), ("addr", addr.into())],
                );
            }
            self.samples.borrow_mut().push(UliSample {
                at: cqe.completed_at,
                uli_ns: uli,
                latency_ns: lat,
                addr,
            });
        }
        self.post_one(ctx);
    }
}

/// Samples a host's NIC counters at a fixed interval — the observable a
/// HARMONIC-style defense gets to see.
pub struct CounterSampler {
    host: HostId,
    interval: SimDuration,
    samples: Rc<RefCell<Vec<(SimTime, rnic_model::CounterSnapshot)>>>,
}

impl CounterSampler {
    /// Creates the sampler.
    pub fn new(
        host: HostId,
        interval: SimDuration,
        samples: Rc<RefCell<Vec<(SimTime, rnic_model::CounterSnapshot)>>>,
    ) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        CounterSampler {
            host,
            interval,
            samples,
        }
    }
}

impl App for CounterSampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let snap = ctx.counters(self.host).snapshot();
        self.samples.borrow_mut().push((ctx.now(), snap));
        ctx.set_timer(self.interval, 0);
    }
}

/// Samples a [`FlowStats`] at a fixed interval, producing a bandwidth
/// time series in bits per second — the `ethtool`-style monitor the
/// covert Rx and Algorithm 1 use.
pub struct BandwidthSampler {
    stats: Rc<RefCell<FlowStats>>,
    interval: SimDuration,
    last_bytes: u64,
    series: Rc<RefCell<TimeSeries>>,
}

impl BandwidthSampler {
    /// Creates the sampler.
    pub fn new(
        stats: Rc<RefCell<FlowStats>>,
        interval: SimDuration,
        series: Rc<RefCell<TimeSeries>>,
    ) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        BandwidthSampler {
            stats,
            interval,
            last_bytes: 0,
            series,
        }
    }
}

impl App for BandwidthSampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let bytes = self.stats.borrow().completed_bytes;
        let delta = bytes - self.last_bytes;
        self.last_bytes = bytes;
        let bps = delta as f64 * 8.0 / self.interval.as_secs_f64();
        self.series.borrow_mut().push(ctx.now(), bps);
        ctx.set_timer(self.interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use rdma_verbs::{AccessFlags, DeviceProfile, FlowId, TrafficClass};
    use sim_core::linear_fit;

    #[test]
    fn pattern_generation() {
        let key = MrKey(1);
        let fixed = AddressPattern::Fixed(Target { key, addr: 100 });
        assert_eq!(fixed.target(5).addr, 100);
        let cyc = AddressPattern::Cycle(vec![Target { key, addr: 0 }, Target { key, addr: 64 }]);
        assert_eq!(cyc.target(0).addr, 0);
        assert_eq!(cyc.target(1).addr, 64);
        assert_eq!(cyc.target(2).addr, 0);
        let st = AddressPattern::Stride {
            key,
            base: 1000,
            stride: 8,
            count: 3,
        };
        assert_eq!(st.target(0).addr, 1000);
        assert_eq!(st.target(4).addr, 1008);
    }

    #[test]
    fn saturating_flow_sustains_throughput() {
        let mut tb = Testbed::new(DeviceProfile::connectx5(), 1, 11);
        let mr = tb.server_mr(1 << 21, AccessFlags::remote_all());
        let qp = tb.connect_client_with(0, TrafficClass::new(0), FlowId(1), 32);
        let stats = FlowStats::new(false);
        let paused = Rc::new(RefCell::new(false));
        let app = tb.sim.add_app(Box::new(SaturatingFlow::new(
            vec![qp],
            Opcode::Read,
            4096,
            AddressPattern::Fixed(Target {
                key: mr.key,
                addr: mr.addr(0),
            }),
            0x1000,
            Rc::clone(&stats),
            paused,
        )));
        tb.sim.own_qp(app, qp);
        let horizon = SimTime::from_micros(200);
        tb.sim.run_until(horizon);
        let s = stats.borrow();
        let bps = s.total_goodput_bps(horizon - SimTime::ZERO);
        // 4 KB reads on a 100 Gbps NIC should comfortably exceed 10 Gbps
        // goodput and stay below the line rate.
        assert!(bps > 10e9, "goodput too low: {bps}");
        assert!(bps < 100e9, "goodput above line rate: {bps}");
        assert_eq!(s.errors, 0);
    }

    #[test]
    fn uli_probe_latency_linear_in_depth() {
        // The paper's §IV-C claim: Lat_total = k·(len_sq+1) + C with an
        // excellent linear fit. Sweep the queue depth and fit.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for depth in [64usize, 96, 128, 192, 256] {
            let mut tb = Testbed::new(DeviceProfile::connectx4(), 1, 5);
            let mr = tb.server_mr(1 << 21, AccessFlags::remote_all());
            let qp = tb.connect_client_with(0, TrafficClass::new(0), FlowId(1), depth);
            let samples = Rc::new(RefCell::new(Vec::new()));
            let app = tb.sim.add_app(Box::new(UliProbe::new(
                qp,
                depth,
                64,
                AddressPattern::Fixed(Target {
                    key: mr.key,
                    addr: mr.addr(0),
                }),
                0x1000,
                Rc::clone(&samples),
            )));
            tb.sim.own_qp(app, qp);
            tb.sim
                .run_until(SimTime::from_micros(100 + 20 * depth as u64));
            let s = samples.borrow();
            assert!(s.len() > 50, "expected many samples, got {}", s.len());
            // Discard warm-up, average the rest.
            let lat: Vec<f64> = s.iter().skip(20).map(|x| x.latency_ns).collect();
            let mean = lat.iter().sum::<f64>() / lat.len() as f64;
            xs.push(depth as f64);
            ys.push(mean);
        }
        let fit = linear_fit(&xs, &ys);
        assert!(
            fit.r > 0.999,
            "latency must be linear in queue depth, r = {}",
            fit.r
        );
        assert!(fit.slope > 0.0);
        // The constant term is the unloaded RTT; it must be small relative
        // to the queueing term at the sweep's depths.
        assert!(
            fit.intercept.abs() < fit.slope * 64.0,
            "C = {} should be dominated by k·len_sq = {}",
            fit.intercept,
            fit.slope * 64.0
        );
    }

    #[test]
    fn bandwidth_sampler_tracks_flow() {
        let mut tb = Testbed::new(DeviceProfile::connectx5(), 1, 9);
        let mr = tb.server_mr(1 << 21, AccessFlags::remote_all());
        let qp = tb.connect_client_with(0, TrafficClass::new(0), FlowId(1), 16);
        let stats = FlowStats::new(false);
        let paused = Rc::new(RefCell::new(false));
        let flow = tb.sim.add_app(Box::new(SaturatingFlow::new(
            vec![qp],
            Opcode::Read,
            1024,
            AddressPattern::Fixed(Target {
                key: mr.key,
                addr: mr.addr(0),
            }),
            0x1000,
            Rc::clone(&stats),
            paused,
        )));
        tb.sim.own_qp(flow, qp);
        let series = Rc::new(RefCell::new(TimeSeries::new()));
        tb.sim.add_app(Box::new(BandwidthSampler::new(
            Rc::clone(&stats),
            SimDuration::from_micros(10),
            Rc::clone(&series),
        )));
        tb.sim.run_until(SimTime::from_micros(200));
        let ts = series.borrow();
        assert!(ts.len() >= 15);
        // Steady-state samples are positive and consistent.
        let vals: Vec<f64> = ts.values().into_iter().skip(3).collect();
        assert!(vals.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn counter_sampler_snapshots_grow_monotonically() {
        let mut tb = Testbed::new(DeviceProfile::connectx5(), 1, 21);
        let mr = tb.server_mr(1 << 21, AccessFlags::remote_all());
        let qp = tb.connect_client_with(0, TrafficClass::new(0), FlowId(1), 8);
        let stats = FlowStats::new(false);
        let paused = Rc::new(RefCell::new(false));
        let flow = tb.sim.add_app(Box::new(SaturatingFlow::new(
            vec![qp],
            Opcode::Read,
            256,
            AddressPattern::Fixed(Target {
                key: mr.key,
                addr: mr.addr(0),
            }),
            0x1000,
            stats,
            paused,
        )));
        tb.sim.own_qp(flow, qp);
        let samples = Rc::new(RefCell::new(Vec::new()));
        let host = tb.clients[0];
        tb.sim.add_app(Box::new(CounterSampler::new(
            host,
            SimDuration::from_micros(10),
            Rc::clone(&samples),
        )));
        tb.sim.run_until(SimTime::from_micros(100));
        let s = samples.borrow();
        assert!(s.len() >= 8, "expected ~10 samples, got {}", s.len());
        for w in s.windows(2) {
            assert!(w[1].0 > w[0].0, "timestamps strictly increase");
            assert!(
                w[1].1.tx_packets >= w[0].1.tx_packets,
                "counters are monotone"
            );
        }
        // The sampled host was actually active.
        assert!(s.last().expect("non-empty").1.tx_packets > 0);
    }

    #[test]
    fn paused_flow_goes_quiet() {
        let mut tb = Testbed::new(DeviceProfile::connectx4(), 1, 13);
        let mr = tb.server_mr(1 << 21, AccessFlags::remote_all());
        let qp = tb.connect_client_with(0, TrafficClass::new(0), FlowId(1), 8);
        let stats = FlowStats::new(false);
        let paused = Rc::new(RefCell::new(false));
        let flow = tb.sim.add_app(Box::new(SaturatingFlow::new(
            vec![qp],
            Opcode::Read,
            512,
            AddressPattern::Fixed(Target {
                key: mr.key,
                addr: mr.addr(0),
            }),
            0x1000,
            Rc::clone(&stats),
            Rc::clone(&paused),
        )));
        tb.sim.own_qp(flow, qp);
        tb.sim.run_until(SimTime::from_micros(50));
        *paused.borrow_mut() = true;
        let at_pause = stats.borrow().completed_msgs;
        tb.sim.run_until(SimTime::from_micros(200));
        let after = stats.borrow().completed_msgs;
        // In-flight requests drain (≤ depth more completions), then quiet.
        assert!(after - at_pause <= 8, "paused flow kept sending");
    }
}
