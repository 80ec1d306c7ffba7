//! Property-based tests of the RNIC model's invariants.

use proptest::prelude::*;
use rnic_model::{
    AccessFlags, DeviceProfile, MrEntry, MrKey, NakReason, Opcode, PdId, SetAssocCache,
    TranslationUnit,
};
use sim_core::{SimRng, SimTime};

fn tpu_with_mr(len: u64) -> TranslationUnit {
    let mut profile = DeviceProfile::connectx4();
    profile.tpu_jitter_sigma = sim_core::SimDuration::ZERO;
    let mut tpu = TranslationUnit::new(&profile);
    tpu.register_mr(MrEntry {
        key: MrKey(1),
        pd: PdId(0),
        base_va: 0x20_0000,
        len,
        access: AccessFlags::remote_all(),
    });
    tpu
}

proptest! {
    /// Validation accepts exactly the in-bounds, permitted accesses.
    #[test]
    fn tpu_validation_is_exact(addr in 0u64..0x60_0000, len in 1u64..16_384) {
        let mr_len = 2 * 1024 * 1024;
        let tpu = tpu_with_mr(mr_len);
        let base = 0x20_0000u64;
        let result = tpu.validate(PdId(0), Opcode::Read, MrKey(1), addr, len);
        let in_bounds = addr >= base && addr + len <= base + mr_len;
        prop_assert_eq!(result.is_ok(), in_bounds,
            "addr {:#x} len {} in_bounds {}", addr, len, in_bounds);
        if !in_bounds {
            prop_assert_eq!(result.unwrap_err(), NakReason::OutOfBounds);
        }
    }

    /// TPU service never reorders within one bank: reservations are
    /// non-overlapping and monotone.
    #[test]
    fn tpu_bank_reservations_never_overlap(
        offsets in prop::collection::vec(0u64..(1 << 20), 2..60)
    ) {
        let mut tpu = tpu_with_mr(2 * 1024 * 1024);
        let mut rng = SimRng::seed_from(1);
        let now = SimTime::from_micros(1);
        let mut last_end_per_bank = std::collections::HashMap::new();
        for off in offsets {
            let off = off & !7; // keep 8-aligned for simplicity
            let access = tpu
                .access(now, &mut rng, PdId(0), Opcode::Read, MrKey(1), 0x20_0000 + off, 8)
                .expect("in bounds");
            let bank = tpu.bank_of(0x20_0000 + off);
            if let Some(&end) = last_end_per_bank.get(&bank) {
                prop_assert!(access.reservation.start >= end,
                    "bank {} reservation overlapped", bank);
            }
            last_end_per_bank.insert(bank, access.reservation.end);
        }
    }

    /// The breakdown total always bounds the reservation length from
    /// below zero, and tokens spanned match the arithmetic.
    #[test]
    fn tpu_breakdown_consistent(addr_off in 0u64..(1 << 20), len in 1u64..8192) {
        let mut tpu = tpu_with_mr(2 * 1024 * 1024);
        let mut rng = SimRng::seed_from(2);
        let addr = 0x20_0000 + (addr_off % ((2 << 20) - 8192));
        let access = tpu
            .access(SimTime::ZERO, &mut rng, PdId(0), Opcode::Read, MrKey(1), addr, len)
            .expect("in bounds");
        let first = addr / 64;
        let last = (addr + len - 1) / 64;
        prop_assert_eq!(access.breakdown.tokens_spanned as u64, last - first + 1);
        prop_assert_eq!(access.mr_offset, addr - 0x20_0000);
    }

    /// A read-only MR refuses writes and atomics for any address.
    #[test]
    fn read_only_mr_never_writable(addr_off in 0u64..(1 << 20), len in 1u64..4096) {
        let mut profile = DeviceProfile::connectx5();
        profile.tpu_jitter_sigma = sim_core::SimDuration::ZERO;
        let mut tpu = TranslationUnit::new(&profile);
        tpu.register_mr(MrEntry {
            key: MrKey(7),
            pd: PdId(3),
            base_va: 1 << 21,
            len: 2 << 20,
            access: AccessFlags::remote_read_only(),
        });
        let addr = (1 << 21) + (addr_off % ((2 << 20) - 4096));
        for op in [Opcode::Write, Opcode::AtomicFetchAdd, Opcode::AtomicCmpSwap] {
            let r = tpu.validate(PdId(3), op, MrKey(7), addr, len.min(8));
            prop_assert_eq!(r.unwrap_err(), NakReason::AccessDenied);
        }
        prop_assert!(tpu.validate(PdId(3), Opcode::Read, MrKey(7), addr, len).is_ok());
    }

    /// Within one cache set, residency after any access sequence
    /// matches a reference MRU-list LRU model.
    #[test]
    fn cache_matches_reference_lru(picks in prop::collection::vec(0usize..8, 1..300)) {
        let entries = 64;
        let ways = 4;
        let mut cache = SetAssocCache::new(entries, ways);
        // All these tags live in the same set as tag 0 by construction.
        let mut same_set = vec![0u64];
        same_set.extend(cache.eviction_set(0, 7));
        let mut reference: Vec<u64> = Vec::new(); // MRU first
        let mut hits_ref = 0u64;
        for pick in picks {
            let tag = same_set[pick];
            let hit_ref = if let Some(pos) = reference.iter().position(|&t| t == tag) {
                reference.remove(pos);
                reference.insert(0, tag);
                true
            } else {
                reference.insert(0, tag);
                reference.truncate(ways);
                false
            };
            if hit_ref {
                hits_ref += 1;
            }
            let hit_impl = cache.access(tag);
            prop_assert_eq!(hit_impl, hit_ref, "divergence on tag {}", tag);
        }
        prop_assert_eq!(cache.hits(), hits_ref);
        // Final residency matches, too.
        for &t in &reference {
            prop_assert!(cache.probe(t), "reference says {} resident", t);
        }
    }

    /// Eviction sets of any size really conflict with the victim.
    #[test]
    fn eviction_sets_conflict(victim in 0u64..10_000, extra in 0usize..8) {
        let ways = 8;
        let cache = SetAssocCache::new(1024, ways);
        let set = cache.eviction_set(victim, ways + extra);
        prop_assert_eq!(set.len(), ways + extra);
        let mut fresh = SetAssocCache::new(1024, ways);
        fresh.access(victim);
        for &t in &set {
            fresh.access(t);
        }
        prop_assert!(!fresh.probe(victim), "eviction set failed for {}", victim);
    }

    /// Time-scaling preserves every latency and scales every rate.
    #[test]
    fn profile_scaling_invariants(factor_pct in 1u32..=100) {
        let factor = f64::from(factor_pct) / 100.0;
        let base = DeviceProfile::connectx6();
        let scaled = base.time_scaled(factor);
        prop_assert_eq!(scaled.pcie_latency, base.pcie_latency);
        prop_assert_eq!(scaled.tpu_row_bytes, base.tpu_row_bytes);
        prop_assert_eq!(scaled.tpu_banks, base.tpu_banks);
        let expect = (base.port_rate_bps as f64 * factor).round() as u64;
        prop_assert_eq!(scaled.port_rate_bps, expect);
        // Service times scale inversely (within rounding).
        let svc = scaled.tx_pu_service.as_picos() as f64;
        let want = base.tx_pu_service.as_picos() as f64 / factor;
        prop_assert!((svc - want).abs() <= 1.0, "{svc} vs {want}");
    }
}
