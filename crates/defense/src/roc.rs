//! Detector operating characteristics: how well can a HARMONIC-style
//! monitor separate covert senders from honest tenants as its threshold
//! varies?
//!
//! The paper's stealthiness argument is qualitative ("HARMONIC does not
//! take Grain-IV metrics into account"). This study makes it
//! quantitative: sweep the detector threshold and report, per channel,
//! the detection rate achievable at each false-positive rate over a
//! population of honest workloads.

use crate::harmonic::{HarmonicMonitor, Verdict, WindowSignature};
use ragnar_telemetry::{ActorId, Target};

/// One operating point of the detector.
#[derive(Debug, Clone, Copy)]
pub struct RocPoint {
    /// Grain-II coefficient-of-variation threshold in force.
    pub threshold: f64,
    /// Fraction of covert-sender observations flagged.
    pub detection_rate: f64,
    /// Fraction of honest observations flagged.
    pub false_positive_rate: f64,
}

/// Sweeps thresholds over labelled signature sets.
///
/// `covert` and `honest` each hold one windowed-signature series per
/// observed tenant.
///
/// # Panics
///
/// Panics if either population is empty.
pub fn roc_sweep(
    covert: &[Vec<WindowSignature>],
    honest: &[Vec<WindowSignature>],
    thresholds: &[f64],
) -> Vec<RocPoint> {
    assert!(
        !covert.is_empty() && !honest.is_empty(),
        "both populations must be non-empty"
    );
    let tracer = ragnar_telemetry::tracer();
    thresholds
        .iter()
        .map(|&threshold| {
            let monitor = HarmonicMonitor {
                grain2_cv_threshold: threshold,
                grain3_cv_threshold: threshold * 1.5,
                ..HarmonicMonitor::default()
            };
            let flagged = |series: &[Vec<WindowSignature>]| {
                series
                    .iter()
                    .filter(|s| monitor.judge(s) != Verdict::Clean)
                    .count() as f64
                    / series.len() as f64
            };
            let point = RocPoint {
                threshold,
                detection_rate: flagged(covert),
                false_positive_rate: flagged(honest),
            };
            if tracer.enabled(Target::Defense) {
                tracer.instant(
                    Target::Defense,
                    "roc_point",
                    ActorId::GLOBAL,
                    0,
                    &[
                        ("threshold", point.threshold.into()),
                        ("detection_rate", point.detection_rate.into()),
                        ("false_positive_rate", point.false_positive_rate.into()),
                    ],
                );
            }
            point
        })
        .collect()
}

/// Best detection rate achievable at or below the given false-positive
/// budget, or `None` if no threshold satisfies it.
pub fn detection_at_fpr(points: &[RocPoint], max_fpr: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.false_positive_rate <= max_fpr)
        .map(|p| p.detection_rate)
        .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnic_model::Opcode;
    use sim_core::SimTime;

    fn sig(at_us: u64, reads: u64, mean_size: f64, tpu: u64) -> WindowSignature {
        let mut requests_per_opcode = [0u64; Opcode::COUNT];
        requests_per_opcode[Opcode::Read.index()] = reads;
        WindowSignature {
            at: SimTime::from_micros(at_us),
            requests_per_opcode,
            mean_tx_packet_size: mean_size,
            tpu_lookups: tpu,
            pcie_bytes: (mean_size * reads as f64) as u64,
        }
    }

    /// A sender that flips sizes (Grain-II modulation, detectable).
    fn modulating(jitter: f64) -> Vec<WindowSignature> {
        (0..12)
            .map(|i| {
                let size = if i % 2 == 0 { 128.0 } else { 2048.0 } + jitter * i as f64;
                sig(i * 100, 100, size, 100)
            })
            .collect()
    }

    /// A constant-profile tenant (honest or a Grain-IV sender).
    fn constant(base: f64, wobble: f64) -> Vec<WindowSignature> {
        (0..12)
            .map(|i| sig(i * 100, 100, base + wobble * ((i % 3) as f64 - 1.0), 100))
            .collect()
    }

    #[test]
    fn roc_orders_sensitivity() {
        let covert: Vec<_> = (0..10).map(|i| modulating(i as f64)).collect();
        let honest: Vec<_> = (0..10).map(|i| constant(512.0, 5.0 + i as f64)).collect();
        let points = roc_sweep(&covert, &honest, &[0.01, 0.1, 0.5, 2.0]);
        // Tighter thresholds detect more — and false-positive more.
        assert!(points[0].detection_rate >= points[3].detection_rate);
        assert!(points[0].false_positive_rate >= points[3].false_positive_rate);
        // A mid threshold separates these populations perfectly.
        let mid = &points[1];
        assert_eq!(mid.detection_rate, 1.0);
        assert_eq!(mid.false_positive_rate, 0.0);
    }

    #[test]
    fn grain_iv_senders_are_inseparable() {
        // A Grain-IV covert sender has the same constant profile as an
        // honest tenant: at any threshold, detecting it costs the same
        // false-positive rate.
        let covert: Vec<_> = (0..10).map(|i| constant(512.0, 5.0 + i as f64)).collect();
        let honest: Vec<_> = (10..20)
            .map(|i| constant(512.0, 5.0 + (i - 10) as f64))
            .collect();
        let points = roc_sweep(&covert, &honest, &[0.001, 0.005, 0.02, 0.1, 0.5]);
        for p in &points {
            assert!(
                (p.detection_rate - p.false_positive_rate).abs() < 0.21,
                "ROC must hug the diagonal for Grain-IV: {p:?}"
            );
        }
        assert_eq!(detection_at_fpr(&points, 0.0), Some(0.0));
    }

    #[test]
    fn detection_at_fpr_picks_best_feasible() {
        let points = vec![
            RocPoint {
                threshold: 0.1,
                detection_rate: 0.9,
                false_positive_rate: 0.3,
            },
            RocPoint {
                threshold: 0.2,
                detection_rate: 0.7,
                false_positive_rate: 0.05,
            },
            RocPoint {
                threshold: 0.4,
                detection_rate: 0.4,
                false_positive_rate: 0.0,
            },
        ];
        assert_eq!(detection_at_fpr(&points, 0.1), Some(0.7));
        assert_eq!(detection_at_fpr(&points, 0.0), Some(0.4));
        assert_eq!(detection_at_fpr(&points[..1], 0.0), None);
    }
}
