//! Scaling studies along the Fig.-4 axes: how a flow's solo throughput
//! and its contention footprint change with QP count and message size.
//!
//! The paper's pie charts summarize exactly these two axes per opcode
//! pair; this module provides the quantitative curves behind them.

use crate::re::contention::{measure_pair, run_flows, FlowSpec, PairConfig};
use rdma_verbs::{DeviceProfile, Opcode};

/// One point of a solo-throughput scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// The swept parameter value (QP count or message bytes).
    pub x: u64,
    /// Solo goodput in bits per second.
    pub solo_bps: f64,
}

/// Solo goodput of `opcode` flows as the QP count grows (fixed message
/// size). Saturating flows stop scaling once the per-NIC bottleneck —
/// TxPU for small messages, the wire for large ones — is reached, which
/// is why Fig. 4's qp-number axis matters.
pub fn qp_scaling(
    profile: &DeviceProfile,
    opcode: Opcode,
    msg_len: u64,
    qp_counts: &[usize],
    cfg: &PairConfig,
) -> Vec<ScalingPoint> {
    qp_counts
        .iter()
        .map(|&q| ScalingPoint {
            x: q as u64,
            solo_bps: run_flows(profile, &[FlowSpec::client(opcode, msg_len, q)], cfg)[0],
        })
        .collect()
}

/// Solo goodput of `opcode` flows as the message size grows (fixed QP
/// count). The knee of this curve is the pps→bandwidth transition that
/// drives Key Finding 1's crossover.
pub fn size_scaling(
    profile: &DeviceProfile,
    opcode: Opcode,
    sizes: &[u64],
    qp_count: usize,
    cfg: &PairConfig,
) -> Vec<ScalingPoint> {
    sizes
        .iter()
        .map(|&s| ScalingPoint {
            x: s,
            solo_bps: run_flows(profile, &[FlowSpec::client(opcode, s, qp_count)], cfg)[0],
        })
        .collect()
}

/// One row of a contention-footprint sweep: how much damage flow B does
/// to a fixed probe flow A, as B's parameter is swept.
#[derive(Debug, Clone, Copy)]
pub struct FootprintPoint {
    /// B's swept parameter.
    pub x: u64,
    /// A's fractional bandwidth loss under contention with B.
    pub probe_loss: f64,
}

/// Damage inflicted on a fixed read probe by write flows of increasing
/// size — the quantitative version of Fig. 4's blue box.
pub fn write_size_footprint(
    profile: &DeviceProfile,
    sizes: &[u64],
    cfg: &PairConfig,
) -> Vec<FootprintPoint> {
    let probe = FlowSpec::client(Opcode::Read, 512, 1);
    sizes
        .iter()
        .map(|&s| {
            let o = measure_pair(profile, probe, FlowSpec::client(Opcode::Write, s, 1), cfg);
            FootprintPoint {
                x: s,
                probe_loss: o.reduction_a(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn quick() -> PairConfig {
        PairConfig {
            warmup: SimDuration::from_micros(60),
            window: SimDuration::from_micros(120),
            seed: 9,
            depth: 32,
            fault_plan: None,
        }
    }

    #[test]
    fn small_reads_scale_with_qp_count_until_saturation() {
        let profile = DeviceProfile::connectx4();
        let curve = qp_scaling(&profile, Opcode::Read, 64, &[1, 2, 4], &quick());
        assert_eq!(curve.len(), 3);
        // More QPs must never reduce solo throughput materially.
        assert!(curve[1].solo_bps > 0.9 * curve[0].solo_bps);
        assert!(curve[2].solo_bps > 0.9 * curve[1].solo_bps);
    }

    #[test]
    fn size_scaling_has_a_pps_to_bandwidth_knee() {
        let profile = DeviceProfile::connectx4();
        let curve = size_scaling(&profile, Opcode::Write, &[64, 512, 4096], 1, &quick());
        // Small messages are pps-bound (low goodput); large ones approach
        // the line rate.
        assert!(curve[0].solo_bps < curve[1].solo_bps);
        assert!(curve[1].solo_bps < curve[2].solo_bps);
        assert!(
            curve[2].solo_bps > 15e9,
            "4 KB writes should near the 25 Gbps line: {}",
            curve[2].solo_bps
        );
    }

    #[test]
    fn write_footprint_grows_past_the_inline_threshold() {
        let profile = DeviceProfile::connectx4();
        let fp = write_size_footprint(&profile, &[64, 2048], &quick());
        assert!(
            fp[1].probe_loss > fp[0].probe_loss + 0.2,
            "bulk writes must hurt the probe more: {} vs {}",
            fp[0].probe_loss,
            fp[1].probe_loss
        );
    }
}
