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

/// One way of a set; `None` marks an invalid way.
type Way = Option<u64>;

/// The MPT cache as it was first written — one heap `Vec` of ways per
/// set, `None` marking an invalid way — kept as the oracle for the flat,
/// lazily allocated [`SetAssocCache`].
struct NestedLru {
    sets: usize,
    lines: Vec<Vec<Way>>,
    hits: u64,
    misses: u64,
}

impl NestedLru {
    fn new(entries: usize, ways: usize) -> Self {
        let sets = entries / ways;
        NestedLru {
            sets,
            lines: vec![vec![None; ways]; sets],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, tag: u64) -> usize {
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets
    }

    fn access(&mut self, tag: u64) -> bool {
        let set = self.set_of(tag);
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|w| *w == Some(tag)) {
            let line = ways.remove(pos);
            ways.insert(0, line);
            self.hits += 1;
            true
        } else {
            ways.pop();
            ways.insert(0, Some(tag));
            self.misses += 1;
            false
        }
    }

    fn probe(&self, tag: u64) -> bool {
        self.lines[self.set_of(tag)].contains(&Some(tag))
    }

    fn invalidate(&mut self, tag: u64) -> bool {
        let set = self.set_of(tag);
        if let Some(pos) = self.lines[set].iter().position(|w| *w == Some(tag)) {
            self.lines[set][pos] = None;
            let line = self.lines[set].remove(pos);
            self.lines[set].push(line);
            true
        } else {
            false
        }
    }

    fn flush(&mut self) {
        for set in &mut self.lines {
            set.fill(None);
        }
    }
}

/// `(entries, ways)`: a one-set toy, a small cache, and the CX-5 and
/// CX-6 MPT cache geometries.
const GEOMETRIES: [(usize, usize); 4] = [(2, 2), (64, 4), (4096, 8), (8192, 16)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat cache and the nested oracle agree on every return value
    /// and on the hit/miss counters after every call, for access
    /// sequences that keep a few sets over-subscribed.
    #[test]
    fn flat_cache_matches_nested_oracle(
        geometry in 0usize..GEOMETRIES.len(),
        bases in prop::collection::vec(0u64..1_000_000, 1..4),
        ops in prop::collection::vec((0u8..8, 0usize..64), 1..400),
    ) {
        let (entries, ways) = GEOMETRIES[geometry];
        let mut flat = SetAssocCache::new(entries, ways);
        let mut oracle = NestedLru::new(entries, ways);
        // A few colliding sets, each with more tags than ways.
        let mut tags = Vec::new();
        for &base in &bases {
            tags.push(base);
            tags.extend(flat.eviction_set(base, ways + 2));
        }
        for (op, pick) in ops {
            let tag = tags[pick % tags.len()];
            match op {
                0..=4 => prop_assert_eq!(flat.access(tag), oracle.access(tag), "access {}", tag),
                5 => prop_assert_eq!(flat.probe(tag), oracle.probe(tag), "probe {}", tag),
                6 => prop_assert_eq!(flat.invalidate(tag), oracle.invalidate(tag), "invalidate {}", tag),
                _ => {
                    flat.flush();
                    oracle.flush();
                }
            }
            prop_assert_eq!(flat.hits(), oracle.hits);
            prop_assert_eq!(flat.misses(), oracle.misses);
        }
        for &tag in &tags {
            prop_assert_eq!(flat.probe(tag), oracle.probe(tag), "final residency of {}", tag);
        }
    }
}

proptest! {
    /// At the CX-5 preset's real geometry (4,096 entries, 8-way), an
    /// eviction set of 8 evicts the victim and no 7 of those tags do:
    /// a reliable miss oracle reduces to exactly the associativity.
    #[test]
    fn cx5_eviction_set_reduces_to_associativity(victim in 0u64..(1 << 32)) {
        let profile = DeviceProfile::connectx5();
        let fresh = TranslationUnit::new(&profile).mpt_cache().clone();
        let set = fresh.eviction_set(victim, profile.mpt_cache_ways);
        prop_assert_eq!(set.len(), 8);
        let evicts = |tags: &[u64]| {
            let mut cache = fresh.clone();
            cache.access(victim);
            for &t in tags {
                cache.access(t);
            }
            !cache.probe(victim)
        };
        prop_assert!(evicts(&set), "8 conflicting tags must evict {}", victim);
        for skip in 0..set.len() {
            let seven: Vec<u64> = (0..set.len()).filter(|&i| i != skip).map(|i| set[i]).collect();
            prop_assert!(!evicts(&seven), "7 tags evicted {} (without #{})", victim, skip);
        }
    }
}
