//! Device parameter profiles for the modelled network adapters.
//!
//! The public numbers come from the paper's Table III (port speed, PCIe
//! generation/width); the microarchitectural rates are calibration
//! parameters chosen so the reverse-engineered behaviours of §IV emerge at
//! the right operating points (see `DESIGN.md` §4 and the ablation
//! benches).

use sim_core::SimDuration;

/// The ConnectX generations evaluated in the paper (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// ConnectX-4: 25 Gbps, PCIe 3.0 x8.
    ConnectX4,
    /// ConnectX-5: 100 Gbps, PCIe 3.0 x8.
    ConnectX5,
    /// ConnectX-6: 200 Gbps, PCIe 4.0 x16.
    ConnectX6,
}

impl DeviceKind {
    /// All generations, CX-4 to CX-6.
    pub const ALL: [DeviceKind; 3] = [
        DeviceKind::ConnectX4,
        DeviceKind::ConnectX5,
        DeviceKind::ConnectX6,
    ];

    /// Short display name ("CX-4" etc.).
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::ConnectX4 => "CX-4",
            DeviceKind::ConnectX5 => "CX-5",
            DeviceKind::ConnectX6 => "CX-6",
        }
    }
}

impl core::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full parameter sheet of one simulated RNIC.
///
/// Construct via the presets ([`DeviceProfile::connectx4`] …) and tweak
/// fields for ablation studies. All rates are in the stated units; all
/// latencies are [`SimDuration`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Which generation this profile models.
    pub kind: DeviceKind,
    /// Port speed in bits per second (Table III "Speed").
    pub port_rate_bps: u64,
    /// PCIe effective data rate per direction in bits per second
    /// (Table III "PCIe Interface", after encoding/TLP overheads).
    pub pcie_rate_bps: u64,
    /// Fixed PCIe round-trip latency component per DMA transaction.
    pub pcie_latency: SimDuration,
    /// Gaussian jitter (σ) on each PCIe transaction's latency — host-side
    /// arbitration noise. This decoheres the deterministic phase-locking
    /// that closed-loop flows would otherwise settle into.
    pub pcie_jitter_sigma: SimDuration,
    /// Link propagation delay to the switch.
    pub wire_propagation: SimDuration,
    /// Per-WQE processing time of the transmit processing unit.
    pub tx_pu_service: SimDuration,
    /// Per-packet processing time of the receive processing unit.
    pub rx_pu_service: SimDuration,
    /// Base translation & protection unit lookup time (aligned fast path).
    pub tpu_base: SimDuration,
    /// Extra TPU time when the address is not 8 B aligned.
    pub tpu_sub_word_penalty: SimDuration,
    /// Extra TPU time when the address is not 64 B aligned.
    pub tpu_token_penalty: SimDuration,
    /// Extra TPU time per additional 64 B token spanned by the access.
    pub tpu_per_token: SimDuration,
    /// Extra TPU time on a 2048 B row-buffer miss.
    pub tpu_row_miss_penalty: SimDuration,
    /// Number of 64 B-interleaved TPU banks.
    pub tpu_banks: usize,
    /// Number of row buffers (2048 B rows interleave across these).
    pub tpu_row_buffers: usize,
    /// Row size in bytes for the row-buffer model.
    pub tpu_row_bytes: u64,
    /// Extra TPU time to load a different MR's protection context.
    pub mr_context_switch_penalty: SimDuration,
    /// Number of MR protection contexts that stay resident.
    pub mr_context_slots: usize,
    /// Gaussian jitter (σ) added to every TPU access.
    pub tpu_jitter_sigma: SimDuration,
    /// MPT (memory protection table) cache entries.
    pub mpt_cache_entries: usize,
    /// MPT cache associativity.
    pub mpt_cache_ways: usize,
    /// Latency of fetching a missed MPT/MTT entry from host memory.
    pub mpt_miss_penalty: SimDuration,
    /// Writes at or below this size are posted inline through the
    /// doorbell path (no gather DMA). The Fig.-4 crossover point.
    pub inline_threshold: u64,
    /// Extra arbiter burst length granted to bulk (non-inline) writes:
    /// how many segments a granted message may send back-to-back.
    pub bulk_burst_segments: u32,
    /// Packets at or below this size count as "small" for the NoC
    /// activation heuristic.
    pub noc_small_threshold: u64,
    /// Number of distinct small-write flows required to activate the
    /// auxiliary NoC lane.
    pub noc_flows_to_activate: usize,
    /// TxPU service-time multiplier while the NoC lane is active
    /// (< 1.0 = faster).
    pub noc_speedup: f64,
    /// Window used to judge flow activity for NoC activation.
    pub noc_window: SimDuration,
    /// Per-NIC atomic unit service time (atomics serialize here).
    pub atomic_unit_service: SimDuration,
    /// Key Finding 3 ablation: strict Tx-over-Rx egress priority.
    pub tx_strict_priority: bool,
    /// Requester retransmission timeout per message.
    pub retransmit_timeout: SimDuration,
    /// Retransmission attempts before the WQE completes with
    /// [`crate::CqeStatus::RetryExceeded`].
    pub max_retries: u32,
    /// Receiver-not-ready NAKs tolerated per message before the QP
    /// errors out (the verbs `rnr_retry` budget; not time-scaled — it is
    /// a count, not a rate).
    pub rnr_retry_limit: u32,
    /// Send-queue capacity per QP (max WQEs outstanding).
    pub max_send_queue: usize,
    /// CQE DMA write time (completion delivery).
    pub cqe_delivery: SimDuration,
}

impl DeviceProfile {
    /// ConnectX-4 preset: 25 Gbps, PCIe 3.0 x8 (Table III).
    pub fn connectx4() -> Self {
        DeviceProfile {
            kind: DeviceKind::ConnectX4,
            port_rate_bps: 25_000_000_000,
            pcie_rate_bps: 62_000_000_000,
            pcie_latency: SimDuration::from_nanos(300),
            pcie_jitter_sigma: SimDuration::from_nanos(40),
            wire_propagation: SimDuration::from_nanos(500),
            tx_pu_service: SimDuration::from_nanos(95), // ~10.5 Mpps WQE issue
            rx_pu_service: SimDuration::from_nanos(40), // ~25 Mpps
            tpu_base: SimDuration::from_nanos(110),
            tpu_sub_word_penalty: SimDuration::from_nanos(28),
            tpu_token_penalty: SimDuration::from_nanos(55),
            tpu_per_token: SimDuration::from_nanos(9),
            tpu_row_miss_penalty: SimDuration::from_nanos(80),
            tpu_banks: 16,
            tpu_row_buffers: 2,
            tpu_row_bytes: 2048,
            mr_context_switch_penalty: SimDuration::from_nanos(180),
            mr_context_slots: 1,
            tpu_jitter_sigma: SimDuration::from_nanos(18),
            mpt_cache_entries: 2048,
            mpt_cache_ways: 8,
            mpt_miss_penalty: SimDuration::from_nanos(600),
            inline_threshold: 512,
            bulk_burst_segments: 8,
            noc_small_threshold: 256,
            noc_flows_to_activate: 2,
            noc_speedup: 0.45,
            noc_window: SimDuration::from_micros(5),
            atomic_unit_service: SimDuration::from_nanos(250),
            tx_strict_priority: true,
            retransmit_timeout: SimDuration::from_micros(100),
            max_retries: 7,
            rnr_retry_limit: 3,
            max_send_queue: 256,
            cqe_delivery: SimDuration::from_nanos(250),
        }
    }

    /// ConnectX-5 preset: 100 Gbps, PCIe 3.0 x8 (Table III).
    pub fn connectx5() -> Self {
        DeviceProfile {
            kind: DeviceKind::ConnectX5,
            port_rate_bps: 100_000_000_000,
            pcie_rate_bps: 62_000_000_000,
            pcie_latency: SimDuration::from_nanos(250),
            pcie_jitter_sigma: SimDuration::from_nanos(30),
            wire_propagation: SimDuration::from_nanos(500),
            tx_pu_service: SimDuration::from_nanos(40), // ~25 Mpps WQE issue
            rx_pu_service: SimDuration::from_nanos(25), // ~40 Mpps
            tpu_base: SimDuration::from_nanos(60),
            tpu_sub_word_penalty: SimDuration::from_nanos(16),
            tpu_token_penalty: SimDuration::from_nanos(30),
            tpu_per_token: SimDuration::from_nanos(5),
            tpu_row_miss_penalty: SimDuration::from_nanos(45),
            tpu_banks: 16,
            tpu_row_buffers: 2,
            tpu_row_bytes: 2048,
            mr_context_switch_penalty: SimDuration::from_nanos(95),
            mr_context_slots: 1,
            tpu_jitter_sigma: SimDuration::from_nanos(12),
            mpt_cache_entries: 4096,
            mpt_cache_ways: 8,
            mpt_miss_penalty: SimDuration::from_nanos(500),
            inline_threshold: 512,
            bulk_burst_segments: 8,
            noc_small_threshold: 256,
            noc_flows_to_activate: 2,
            noc_speedup: 0.45,
            noc_window: SimDuration::from_micros(5),
            atomic_unit_service: SimDuration::from_nanos(180),
            tx_strict_priority: true,
            retransmit_timeout: SimDuration::from_micros(100),
            max_retries: 7,
            rnr_retry_limit: 3,
            max_send_queue: 256,
            cqe_delivery: SimDuration::from_nanos(200),
        }
    }

    /// ConnectX-6 preset: 200 Gbps, PCIe 4.0 x16 (Table III).
    pub fn connectx6() -> Self {
        DeviceProfile {
            kind: DeviceKind::ConnectX6,
            port_rate_bps: 200_000_000_000,
            pcie_rate_bps: 252_000_000_000,
            pcie_latency: SimDuration::from_nanos(200),
            pcie_jitter_sigma: SimDuration::from_nanos(25),
            wire_propagation: SimDuration::from_nanos(500),
            tx_pu_service: SimDuration::from_nanos(22), // ~45 Mpps WQE issue
            rx_pu_service: SimDuration::from_nanos(12), // ~80 Mpps
            tpu_base: SimDuration::from_nanos(45),
            tpu_sub_word_penalty: SimDuration::from_nanos(12),
            tpu_token_penalty: SimDuration::from_nanos(24),
            tpu_per_token: SimDuration::from_nanos(4),
            tpu_row_miss_penalty: SimDuration::from_nanos(35),
            tpu_banks: 32,
            tpu_row_buffers: 4,
            tpu_row_bytes: 2048,
            mr_context_switch_penalty: SimDuration::from_nanos(70),
            mr_context_slots: 1,
            tpu_jitter_sigma: SimDuration::from_nanos(9),
            mpt_cache_entries: 8192,
            mpt_cache_ways: 16,
            mpt_miss_penalty: SimDuration::from_nanos(420),
            inline_threshold: 512,
            bulk_burst_segments: 8,
            noc_small_threshold: 256,
            noc_flows_to_activate: 2,
            noc_speedup: 0.45,
            noc_window: SimDuration::from_micros(5),
            atomic_unit_service: SimDuration::from_nanos(140),
            tx_strict_priority: true,
            retransmit_timeout: SimDuration::from_micros(100),
            max_retries: 7,
            rnr_retry_limit: 3,
            max_send_queue: 256,
            cqe_delivery: SimDuration::from_nanos(160),
        }
    }

    /// Preset for a device kind.
    pub fn preset(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::ConnectX4 => Self::connectx4(),
            DeviceKind::ConnectX5 => Self::connectx5(),
            DeviceKind::ConnectX6 => Self::connectx6(),
        }
    }

    /// Returns a copy with all *bandwidths and processing rates* scaled
    /// down by `factor` (0 < factor ≤ 1), leaving fixed latencies
    /// untouched.
    ///
    /// Long-running experiments (the 1 s-per-bit Grain-I/II covert channel,
    /// the Fig.-4 sweep) use this to keep simulated event counts tractable
    /// while preserving every contention *ratio*; see `DESIGN.md`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn time_scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1], got {factor}"
        );
        let mut p = self.clone();
        let inv = 1.0 / factor;
        p.port_rate_bps = ((p.port_rate_bps as f64) * factor).round() as u64;
        p.pcie_rate_bps = ((p.pcie_rate_bps as f64) * factor).round() as u64;
        p.tx_pu_service = p.tx_pu_service.mul_f64(inv);
        p.rx_pu_service = p.rx_pu_service.mul_f64(inv);
        p.tpu_base = p.tpu_base.mul_f64(inv);
        p.tpu_sub_word_penalty = p.tpu_sub_word_penalty.mul_f64(inv);
        p.tpu_token_penalty = p.tpu_token_penalty.mul_f64(inv);
        p.tpu_per_token = p.tpu_per_token.mul_f64(inv);
        p.tpu_row_miss_penalty = p.tpu_row_miss_penalty.mul_f64(inv);
        p.mr_context_switch_penalty = p.mr_context_switch_penalty.mul_f64(inv);
        p.tpu_jitter_sigma = p.tpu_jitter_sigma.mul_f64(inv);
        p.mpt_miss_penalty = p.mpt_miss_penalty.mul_f64(inv);
        p.atomic_unit_service = p.atomic_unit_service.mul_f64(inv);
        p.noc_window = p.noc_window.mul_f64(inv);
        // Protocol timers track the slowed data rates (a fixed timeout
        // would misfire under scaled serialization times).
        p.retransmit_timeout = p.retransmit_timeout.mul_f64(inv);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_iii() {
        let c4 = DeviceProfile::connectx4();
        let c5 = DeviceProfile::connectx5();
        let c6 = DeviceProfile::connectx6();
        assert_eq!(c4.port_rate_bps, 25_000_000_000);
        assert_eq!(c5.port_rate_bps, 100_000_000_000);
        assert_eq!(c6.port_rate_bps, 200_000_000_000);
        // PCIe 3.0 x8 for CX-4/5, PCIe 4.0 x16 for CX-6.
        assert_eq!(c4.pcie_rate_bps, c5.pcie_rate_bps);
        assert!(c6.pcie_rate_bps > 3 * c4.pcie_rate_bps);
    }

    #[test]
    fn newer_devices_are_faster() {
        let c4 = DeviceProfile::connectx4();
        let c5 = DeviceProfile::connectx5();
        let c6 = DeviceProfile::connectx6();
        assert!(c5.tx_pu_service < c4.tx_pu_service);
        assert!(c6.tx_pu_service < c5.tx_pu_service);
        assert!(c5.tpu_base < c4.tpu_base);
        assert!(c6.tpu_base < c5.tpu_base);
    }

    #[test]
    fn time_scaling_preserves_latency_and_scales_rates() {
        let base = DeviceProfile::connectx5();
        let scaled = base.time_scaled(0.01);
        assert_eq!(scaled.port_rate_bps, base.port_rate_bps / 100);
        assert_eq!(scaled.pcie_latency, base.pcie_latency);
        assert_eq!(scaled.wire_propagation, base.wire_propagation);
        assert_eq!(
            scaled.tx_pu_service.as_picos(),
            base.tx_pu_service.as_picos() * 100
        );
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        let _ = DeviceProfile::connectx4().time_scaled(0.0);
    }

    #[test]
    fn preset_round_trip() {
        for kind in DeviceKind::ALL {
            assert_eq!(DeviceProfile::preset(kind).kind, kind);
            assert!(!kind.name().is_empty());
        }
    }
}
