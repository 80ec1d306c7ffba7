//! §VI-A — fingerprinting shuffle/join operations of a distributed
//! database with the Grain-II priority channel (Algorithm 1, Fig. 12).
//!
//! The attacker maintains a small monitored flow against the shared
//! server. During a **shuffle** its bandwidth is depressed *plateau*-like
//! (sustained bulk traffic); during a **join** it dips *tooth*-like
//! (round-based bursts). Algorithm 1's sliding window plus
//! `CorrelationDetect` recovers which operation is running.

use crate::measure::{AddressPattern, BandwidthSampler, FlowStats, SaturatingFlow, Target};
use crate::testbed::Testbed;
use ragnar_workloads::shuffle_join::{DbConfig, DbPhase, DbVictim, PhaseLog};
use rdma_verbs::{AccessFlags, ConnectOptions, DeviceProfile, FlowId, Opcode, TrafficClass};
use sim_core::{pearson, SimDuration, SimTime, TimeSeries};
use std::cell::RefCell;
use std::rc::Rc;

/// The pattern classes Algorithm 1 distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Sustained plateau-like depression.
    Shuffle,
    /// Tooth-like periodic dips.
    Join,
    /// Nothing detected.
    Null,
}

impl Pattern {
    /// The ground-truth label this pattern corresponds to.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Shuffle => "shuffle",
            Pattern::Join => "join",
            Pattern::Null => "idle",
        }
    }
}

/// Algorithm 1's `CorrelationDetect`: matches a bandwidth window against
/// plateau and tooth templates by Pearson correlation.
#[derive(Debug, Clone)]
pub struct CorrelationDetector {
    /// Baseline (uncontended) bandwidth of the monitored flow.
    pub baseline_bps: f64,
    /// Windows whose mean exceeds this fraction of baseline are Null.
    pub depression_threshold: f64,
    /// Join round period candidates to correlate against.
    pub tooth_periods: Vec<usize>,
    /// Minimum template correlation to accept a Join.
    pub min_correlation: f64,
    /// Minimum tooth amplitude relative to baseline to accept a Join
    /// (rejects plateau windows whose sampling quantization happens to
    /// correlate with a square wave).
    pub min_tooth_amplitude: f64,
}

impl CorrelationDetector {
    /// Creates a detector with the given baseline.
    pub fn new(baseline_bps: f64) -> Self {
        CorrelationDetector {
            baseline_bps,
            depression_threshold: 0.85,
            tooth_periods: vec![4, 6, 8, 10, 12, 16],
            min_correlation: 0.55,
            min_tooth_amplitude: 0.3,
        }
    }

    /// Classifies one window of bandwidth samples.
    pub fn detect(&self, window: &[f64]) -> Pattern {
        if window.len() < 4 {
            return Pattern::Null;
        }
        let mean = window.iter().sum::<f64>() / window.len() as f64;
        let hi = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lo = window.iter().cloned().fold(f64::INFINITY, f64::min);
        let thr = self.depression_threshold * self.baseline_bps;
        // Nothing in the window is depressed: no operation running.
        if lo > thr {
            return Pattern::Null;
        }
        // Tooth = dips that *recover* to baseline within the window with
        // real amplitude; plateau = sustained depression.
        let amplitude_ok = (hi - lo) > self.min_tooth_amplitude * self.baseline_bps && hi > thr;
        let mut best_r: f64 = 0.0;
        for &period in &self.tooth_periods {
            if period >= window.len() {
                continue;
            }
            for phase in 0..period {
                let template: Vec<f64> = (0..window.len())
                    .map(|i| {
                        if ((i + phase) % period) < period / 2 {
                            1.0
                        } else {
                            -1.0
                        }
                    })
                    .collect();
                let r = pearson(window, &template);
                best_r = best_r.max(r);
            }
        }
        if amplitude_ok && best_r >= self.min_correlation {
            Pattern::Join
        } else if mean < thr {
            Pattern::Shuffle
        } else {
            Pattern::Null
        }
    }
}

/// Configuration of the fingerprinting experiment.
#[derive(Debug, Clone)]
pub struct FingerprintConfig {
    /// Bandwidth sampling interval (Algorithm 1's monitoring cycle).
    pub sample_interval: SimDuration,
    /// Sliding window length `T_window` in samples.
    pub window_samples: usize,
    /// Victim phase script.
    pub phases: Vec<DbPhase>,
    /// Seed.
    pub seed: u64,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        FingerprintConfig {
            sample_interval: SimDuration::from_micros(10),
            window_samples: 12,
            phases: vec![
                DbPhase::Idle(SimDuration::from_micros(200)),
                DbPhase::Shuffle(SimDuration::from_micros(400)),
                DbPhase::Idle(SimDuration::from_micros(200)),
                DbPhase::Join {
                    rounds: 8,
                    burst: SimDuration::from_micros(30),
                    gap: SimDuration::from_micros(30),
                },
                DbPhase::Idle(SimDuration::from_micros(200)),
            ],
            seed: 0xF12,
        }
    }
}

/// Everything the experiment produced.
#[derive(Debug)]
pub struct FingerprintRun {
    /// The attacker's raw bandwidth trace (the Fig. 12 curve).
    pub monitor: TimeSeries,
    /// Per-window detections `(window end, pattern)`.
    pub detections: Vec<(SimTime, Pattern)>,
    /// Ground-truth phase log from the victim.
    pub truth: PhaseLog,
    /// Fraction of windows classified consistently with ground truth.
    pub accuracy: f64,
}

/// Runs the full §VI-A experiment on `kind`.
pub fn run(kind: rdma_verbs::DeviceKind, cfg: &FingerprintConfig) -> FingerprintRun {
    let profile = DeviceProfile::preset(kind);
    let mut tb = Testbed::new(profile, 2, cfg.seed);
    let mr_victim = tb.server_mr(8 << 20, AccessFlags::remote_all());
    let mr_attacker = tb.server_mr(1 << 21, AccessFlags::remote_all());

    // Victim: the database client on client 0.
    // A shallow send queue keeps the victim's egress backlog small, so
    // phase transitions are visible at the timescale of a join round
    // (deep queues would smear ~100 µs of buffered bulk data over every
    // gap).
    let victim_qp = tb.connect_client(
        0,
        ConnectOptions {
            tc: TrafficClass::new(0),
            flow: FlowId(1),
            max_send_queue: 4,
        },
    );
    let log = Rc::new(RefCell::new(PhaseLog::default()));
    let victim = tb.sim.add_app(Box::new(DbVictim::new(
        victim_qp,
        DbConfig {
            shuffle_msg_len: 16 * 1024,
            join_msg_len: 4 * 1024,
            rkey: mr_victim.key,
            remote_base: mr_victim.base_va,
            remote_len: mr_victim.len,
        },
        cfg.phases.clone(),
        Rc::clone(&log),
    )));
    tb.sim.own_qp(victim, victim_qp);

    // Attacker: small monitored flow on client 1 (Algorithm 1 line 2).
    let attacker_qp = tb.connect_client(
        1,
        ConnectOptions {
            tc: TrafficClass::new(1),
            flow: FlowId(2),
            max_send_queue: 4,
        },
    );
    let stats = FlowStats::new(false);
    let paused = Rc::new(RefCell::new(false));
    let flow = tb.sim.add_app(Box::new(SaturatingFlow::new(
        vec![attacker_qp],
        Opcode::Read,
        1024,
        AddressPattern::Fixed(Target {
            key: mr_attacker.key,
            addr: mr_attacker.addr(0),
        }),
        0x5000,
        Rc::clone(&stats),
        paused,
    )));
    tb.sim.own_qp(flow, attacker_qp);

    let series = Rc::new(RefCell::new(TimeSeries::new()));
    tb.sim.add_app(Box::new(BandwidthSampler::new(
        Rc::clone(&stats),
        cfg.sample_interval,
        Rc::clone(&series),
    )));

    let total: SimDuration = cfg.phases.iter().map(DbPhase::duration).sum();
    tb.sim
        .run_until(SimTime::ZERO + total + cfg.sample_interval * 2);

    let monitor = series.borrow().clone();
    let truth = log.borrow().clone();

    // Calibrate the baseline from the leading idle phase.
    let first_idle_end = truth
        .intervals
        .first()
        .map(|&(_, _, e)| e)
        .unwrap_or(SimTime::ZERO);
    let baseline: Vec<f64> = monitor
        .points()
        .iter()
        .filter(|&&(t, _)| t <= first_idle_end)
        .map(|&(_, v)| v)
        .collect();
    let baseline_bps = if baseline.is_empty() {
        1.0
    } else {
        baseline.iter().sum::<f64>() / baseline.len() as f64
    };
    let detector = CorrelationDetector::new(baseline_bps);

    // Algorithm 1's sliding-window loop, replayed over the recorded
    // series.
    let points = monitor.points();
    let mut detections = Vec::new();
    let mut correct = 0usize;
    let mut judged = 0usize;
    for end in cfg.window_samples..points.len() {
        let window: Vec<f64> = points[end - cfg.window_samples..end]
            .iter()
            .map(|&(_, v)| v)
            .collect();
        let at = points[end - 1].0;
        let p = detector.detect(&window);
        detections.push((at, p));
        // Score a window only when it lies entirely inside one
        // ground-truth interval (boundary windows mix phases).
        let start = points[end - cfg.window_samples].0;
        let label_start = truth.label_at(start);
        let label_end = truth.label_at(at);
        if let (Some(a), Some(b)) = (label_start, label_end) {
            if a == b {
                judged += 1;
                if p.label() == a {
                    correct += 1;
                }
            }
        }
    }
    let accuracy = if judged == 0 {
        0.0
    } else {
        correct as f64 / judged as f64
    };
    FingerprintRun {
        monitor,
        detections,
        truth,
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_verbs::DeviceKind;

    #[test]
    fn detector_distinguishes_shapes() {
        let det = CorrelationDetector::new(100.0);
        // Plateau: uniformly depressed.
        let plateau = vec![40.0; 16];
        assert_eq!(det.detect(&plateau), Pattern::Shuffle);
        // Tooth: alternating full/depressed.
        let tooth: Vec<f64> = (0..16)
            .map(|i| if (i / 4) % 2 == 0 { 95.0 } else { 30.0 })
            .collect();
        assert_eq!(det.detect(&tooth), Pattern::Join);
        // Quiet: no depression.
        let quiet = vec![98.0; 16];
        assert_eq!(det.detect(&quiet), Pattern::Null);
    }

    #[test]
    fn fingerprints_shuffle_and_join_end_to_end() {
        let run = run(DeviceKind::ConnectX4, &FingerprintConfig::default());
        assert!(
            run.accuracy > 0.7,
            "fingerprinting accuracy too low: {}",
            run.accuracy
        );
        // Both operations must actually be detected somewhere.
        assert!(run.detections.iter().any(|&(_, p)| p == Pattern::Shuffle));
        assert!(run.detections.iter().any(|&(_, p)| p == Pattern::Join));
        assert!(run.detections.iter().any(|&(_, p)| p == Pattern::Null));
    }

    #[test]
    fn shuffle_depresses_the_monitor() {
        let run = run(DeviceKind::ConnectX4, &FingerprintConfig::default());
        // Mean bandwidth inside shuffle < mean inside leading idle.
        let idle_end = run.truth.intervals[0].2;
        let (shuffle_start, shuffle_end) = run
            .truth
            .intervals
            .iter()
            .find(|&&(l, _, _)| l == "shuffle")
            .map(|&(_, s, e)| (s, e))
            .expect("shuffle phase present");
        let mean_in = |from, to| {
            run.monitor
                .window_mean(from, to)
                .expect("samples in window")
        };
        let idle_bw = mean_in(SimTime::ZERO + SimDuration::from_micros(30), idle_end);
        let shuffle_bw = mean_in(shuffle_start, shuffle_end);
        assert!(
            shuffle_bw < 0.9 * idle_bw,
            "shuffle should depress the monitored flow: {shuffle_bw} vs {idle_bw}"
        );
    }
}
