//! The translation & protection unit (TPU).
//!
//! This is the dark box of the paper's Fig. 3 whose behaviour §IV-C
//! reverse-engineers: every inbound one-sided operation must look up the
//! target MR's protection context, translate the virtual address, and
//! fetch the spanned 64 B tokens. The unit is shared by all flows hitting
//! the NIC, so its service time is directly observable through ULI — the
//! basis of the Grain-III (inter-MR) and Grain-IV (intra-MR offset)
//! channels.
//!
//! Modelled structure (see `DESIGN.md` §4, "KF4"):
//!
//! * an **MPT cache** for protection entries (misses fetch from host
//!   memory over PCIe);
//! * a small file of **MR protection contexts** (default: one slot) —
//!   switching the active MR costs a reload;
//! * **64 B-interleaved banks** — concurrent same-bank lookups serialize;
//! * **2048 B row buffers** interleaved across a few buffers — a row miss
//!   pays a reload penalty;
//! * a sub-word fast path for 8 B-aligned addresses;
//! * a short **token prefetch** window that discounts accesses landing
//!   near the previous one (the *relative* offset effect of Fig. 8).

use crate::device::DeviceProfile;
use crate::types::{AccessFlags, MrKey, NakReason, Opcode, PdId};
use crate::SetAssocCache;
use sim_core::FxHashMap;
use sim_core::{BankedResource, Reservation, SimDuration, SimRng, SimTime};

/// A registered memory region as seen by the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrEntry {
    /// Remote key.
    pub key: MrKey,
    /// Owning protection domain.
    pub pd: PdId,
    /// Base virtual address (huge-page aligned by the verbs layer).
    pub base_va: u64,
    /// Length in bytes.
    pub len: u64,
    /// Remote access permissions.
    pub access: AccessFlags,
}

/// Cost breakdown of one TPU access, for tests and ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TpuBreakdown {
    /// Base lookup cost.
    pub base: SimDuration,
    /// Sub-word (non-8 B-aligned) penalty, if paid.
    pub sub_word: SimDuration,
    /// Token (non-64 B-aligned) penalty, if paid.
    pub token_misalign: SimDuration,
    /// Cost of the extra 64 B tokens spanned beyond the first.
    pub extra_tokens: SimDuration,
    /// Row-buffer miss penalty, if paid.
    pub row_miss: SimDuration,
    /// MR protection-context switch penalty, if paid.
    pub mr_switch: SimDuration,
    /// MPT cache miss penalty, if paid.
    pub mpt_miss: SimDuration,
    /// Prefetch discount actually applied (subtracted).
    pub prefetch_discount: SimDuration,
    /// Number of 64 B tokens the access spans.
    pub tokens_spanned: u32,
}

impl TpuBreakdown {
    /// Total service time implied by the breakdown (before jitter).
    pub fn total(&self) -> SimDuration {
        let gross = self.base
            + self.sub_word
            + self.token_misalign
            + self.extra_tokens
            + self.row_miss
            + self.mr_switch
            + self.mpt_miss;
        if gross.as_picos() > self.prefetch_discount.as_picos() {
            gross - self.prefetch_discount
        } else {
            SimDuration::ZERO
        }
    }
}

/// Outcome of a validated TPU access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpuAccess {
    /// When the lookup occupied its bank (includes same-bank queueing).
    pub reservation: Reservation,
    /// Cost components.
    pub breakdown: TpuBreakdown,
    /// Offset of the access relative to the MR base.
    pub mr_offset: u64,
}

/// The translation & protection unit of one RNIC.
#[derive(Debug, Clone)]
pub struct TranslationUnit {
    mrs: FxHashMap<MrKey, MrEntry>,
    banks: BankedResource,
    row_buffers: Vec<Option<u64>>,
    resident_mrs: Vec<MrKey>,
    mpt_cache: SetAssocCache,
    last_token: Option<u64>,
    prefetch_reach_tokens: u64,
    prefetch_discount: SimDuration,
    noise_extra_sigma: SimDuration,
    profile: Profile,
    accesses: u64,
}

/// The subset of [`DeviceProfile`] the TPU consumes, copied in so the unit
/// stays self-contained.
#[derive(Debug, Clone)]
struct Profile {
    base: SimDuration,
    sub_word_penalty: SimDuration,
    token_penalty: SimDuration,
    per_token: SimDuration,
    row_miss_penalty: SimDuration,
    row_bytes: u64,
    banks: usize,
    mr_context_slots: usize,
    mr_context_switch_penalty: SimDuration,
    jitter_sigma: SimDuration,
    mpt_miss_penalty: SimDuration,
}

impl TranslationUnit {
    /// Builds the TPU for a device profile.
    pub fn new(profile: &DeviceProfile) -> Self {
        TranslationUnit {
            mrs: FxHashMap::default(),
            banks: BankedResource::new(profile.tpu_banks),
            row_buffers: vec![None; profile.tpu_row_buffers],
            resident_mrs: Vec::with_capacity(profile.mr_context_slots),
            mpt_cache: SetAssocCache::new(profile.mpt_cache_entries, profile.mpt_cache_ways),
            last_token: None,
            prefetch_reach_tokens: 4,
            prefetch_discount: profile.tpu_base / 4,
            noise_extra_sigma: SimDuration::ZERO,
            profile: Profile {
                base: profile.tpu_base,
                sub_word_penalty: profile.tpu_sub_word_penalty,
                token_penalty: profile.tpu_token_penalty,
                per_token: profile.tpu_per_token,
                row_miss_penalty: profile.tpu_row_miss_penalty,
                row_bytes: profile.tpu_row_bytes,
                banks: profile.tpu_banks,
                mr_context_slots: profile.mr_context_slots,
                mr_context_switch_penalty: profile.mr_context_switch_penalty,
                jitter_sigma: profile.tpu_jitter_sigma,
                mpt_miss_penalty: profile.mpt_miss_penalty,
            },
            accesses: 0,
        }
    }

    /// Registers an MR with the NIC.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered or the region is empty.
    pub fn register_mr(&mut self, entry: MrEntry) {
        assert!(entry.len > 0, "cannot register an empty memory region");
        let prev = self.mrs.insert(entry.key, entry);
        assert!(prev.is_none(), "MR key {:?} already registered", entry.key);
    }

    /// Removes an MR; returns whether it existed.
    pub fn deregister_mr(&mut self, key: MrKey) -> bool {
        self.resident_mrs.retain(|k| *k != key);
        self.mpt_cache.invalidate(key.0 as u64);
        self.mrs.remove(&key).is_some()
    }

    /// Looks up an MR entry.
    pub fn mr(&self, key: MrKey) -> Option<&MrEntry> {
        self.mrs.get(&key)
    }

    /// Number of registered MRs.
    pub fn mr_count(&self) -> usize {
        self.mrs.len()
    }

    /// Total validated accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Direct access to the MPT cache (used by the Pythia baseline and
    /// defenses).
    pub fn mpt_cache(&self) -> &SetAssocCache {
        &self.mpt_cache
    }

    /// Injects additional Gaussian latency noise (σ); the §VII mitigation
    /// knob. Zero disables.
    pub fn set_noise_sigma(&mut self, sigma: SimDuration) {
        self.noise_extra_sigma = sigma;
    }

    /// Validates permissions/bounds for an access without performing it.
    ///
    /// # Errors
    ///
    /// Returns the [`NakReason`] the responder would put in its NAK.
    pub fn validate(
        &self,
        qp_pd: PdId,
        opcode: Opcode,
        key: MrKey,
        addr: u64,
        len: u64,
    ) -> Result<&MrEntry, NakReason> {
        let mr = self.mrs.get(&key).ok_or(NakReason::InvalidMrKey)?;
        if mr.pd != qp_pd {
            return Err(NakReason::PdMismatch);
        }
        if !mr.access.permits(opcode) {
            return Err(NakReason::AccessDenied);
        }
        let end = addr.checked_add(len).ok_or(NakReason::OutOfBounds)?;
        if addr < mr.base_va || end > mr.base_va + mr.len {
            return Err(NakReason::OutOfBounds);
        }
        Ok(mr)
    }

    /// Performs a validated lookup at `now`, mutating the unit's volatile
    /// state (row buffers, resident MR contexts, prefetch window, MPT
    /// cache) and reserving the addressed bank.
    ///
    /// # Errors
    ///
    /// Returns the [`NakReason`] if validation fails; volatile state is
    /// untouched in that case.
    #[allow(clippy::too_many_arguments)]
    pub fn access(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        qp_pd: PdId,
        opcode: Opcode,
        key: MrKey,
        addr: u64,
        len: u64,
    ) -> Result<TpuAccess, NakReason> {
        let mr = *self.validate(qp_pd, opcode, key, addr, len)?;
        let mut b = TpuBreakdown {
            base: self.profile.base,
            ..TpuBreakdown::default()
        };

        // MPT protection-entry cache.
        if !self.mpt_cache.access(key.0 as u64) {
            b.mpt_miss = self.profile.mpt_miss_penalty;
        }

        // MR protection-context residency (LRU over a tiny slot file).
        if let Some(pos) = self.resident_mrs.iter().position(|k| *k == key) {
            self.resident_mrs.remove(pos);
        } else {
            b.mr_switch = self.profile.mr_context_switch_penalty;
            if self.resident_mrs.len() >= self.profile.mr_context_slots {
                self.resident_mrs.pop();
            }
        }
        self.resident_mrs.insert(0, key);

        // Alignment fast paths (Key Finding 4: drops at 8 B-aligned
        // addresses, larger drops at 64 B multiples).
        if !addr.is_multiple_of(8) {
            b.sub_word = self.profile.sub_word_penalty;
        }
        if !addr.is_multiple_of(64) {
            b.token_misalign = self.profile.token_penalty;
        }

        // Tokens spanned.
        let first_token = addr / 64;
        let last_token = (addr + len.max(1) - 1) / 64;
        b.tokens_spanned = (last_token - first_token + 1) as u32;
        b.extra_tokens = self.profile.per_token * (b.tokens_spanned as u64 - 1);

        // Row-buffer model: 2048 B rows interleaved over the buffers.
        let row = addr / self.profile.row_bytes;
        let buf = (row % self.row_buffers.len() as u64) as usize;
        if self.row_buffers[buf] != Some(row) {
            b.row_miss = self.profile.row_miss_penalty;
            self.row_buffers[buf] = Some(row);
        }

        // Relative-offset prefetch window (Fig. 8): accesses landing
        // within a few tokens of the previous one are discounted.
        if let Some(prev) = self.last_token {
            let dist = first_token.abs_diff(prev);
            if dist == 0 {
                b.prefetch_discount = self.prefetch_discount;
            } else if dist <= self.prefetch_reach_tokens {
                b.prefetch_discount = self.prefetch_discount / 2;
            }
        }
        self.last_token = Some(first_token);

        // Jitter (model noise + optional mitigation noise).
        let mut service = b.total();
        let sigma =
            self.profile.jitter_sigma.as_picos() as f64 + self.noise_extra_sigma.as_picos() as f64;
        if sigma > 0.0 {
            let j = rng.jitter_ps(sigma);
            let with_jitter = (service.as_picos() as f64 + j).max(0.0);
            service = SimDuration::from_picos(with_jitter.round() as u64);
        }

        let bank = (first_token % self.profile.banks as u64) as usize;
        let reservation = self.banks.reserve(bank, now, service);
        self.accesses += 1;

        Ok(TpuAccess {
            reservation,
            breakdown: b,
            mr_offset: addr - mr.base_va,
        })
    }

    /// The bank index an address maps to (exposed for the side-channel
    /// analysis and tests).
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / 64) % self.profile.banks as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> (TranslationUnit, SimRng) {
        let mut profile = DeviceProfile::connectx4();
        profile.tpu_jitter_sigma = SimDuration::ZERO;
        let mut tpu = TranslationUnit::new(&profile);
        tpu.register_mr(MrEntry {
            key: MrKey(1),
            pd: PdId(0),
            base_va: 0x200000, // 2 MB aligned
            len: 2 * 1024 * 1024,
            access: AccessFlags::remote_all(),
        });
        tpu.register_mr(MrEntry {
            key: MrKey(2),
            pd: PdId(0),
            base_va: 0x600000,
            len: 2 * 1024 * 1024,
            access: AccessFlags::remote_read_only(),
        });
        (tpu, SimRng::seed_from(1))
    }

    fn svc(tpu: &mut TranslationUnit, rng: &mut SimRng, key: u32, addr: u64) -> TpuAccess {
        tpu.access(
            SimTime::ZERO,
            rng,
            PdId(0),
            Opcode::Read,
            MrKey(key),
            addr,
            64,
        )
        .expect("valid access")
    }

    #[test]
    fn protection_checks() {
        let (mut tpu, mut rng) = unit();
        // Unknown key.
        assert_eq!(
            tpu.access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(9),
                0x200000,
                8
            )
            .unwrap_err(),
            NakReason::InvalidMrKey
        );
        // Wrong PD.
        assert_eq!(
            tpu.access(
                SimTime::ZERO,
                &mut rng,
                PdId(5),
                Opcode::Read,
                MrKey(1),
                0x200000,
                8
            )
            .unwrap_err(),
            NakReason::PdMismatch
        );
        // Write to read-only MR.
        assert_eq!(
            tpu.access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Write,
                MrKey(2),
                0x600000,
                8
            )
            .unwrap_err(),
            NakReason::AccessDenied
        );
        // Out of bounds (one past the end).
        assert_eq!(
            tpu.access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x200000 + 2 * 1024 * 1024 - 4,
                8
            )
            .unwrap_err(),
            NakReason::OutOfBounds
        );
        // Below base.
        assert_eq!(
            tpu.access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x1FFFFF,
                8
            )
            .unwrap_err(),
            NakReason::OutOfBounds
        );
    }

    #[test]
    fn alignment_penalties_ordered() {
        let (mut tpu, mut rng) = unit();
        // Warm everything on a throwaway access far away.
        svc(&mut tpu, &mut rng, 1, 0x200000 + 1024 * 1024);
        let aligned = svc(&mut tpu, &mut rng, 1, 0x200000).breakdown;
        let sub8 = svc(&mut tpu, &mut rng, 1, 0x200000 + 4099).breakdown; // not 8-aligned
        let tok = svc(&mut tpu, &mut rng, 1, 0x200000 + 4104).breakdown; // 8- but not 64-aligned
        assert_eq!(aligned.sub_word, SimDuration::ZERO);
        assert_eq!(aligned.token_misalign, SimDuration::ZERO);
        assert!(sub8.sub_word > SimDuration::ZERO);
        assert!(sub8.token_misalign > SimDuration::ZERO);
        assert_eq!(tok.sub_word, SimDuration::ZERO);
        assert!(tok.token_misalign > SimDuration::ZERO);
    }

    #[test]
    fn row_buffer_ping_pong() {
        let (mut tpu, mut rng) = unit();
        let base = 0x200000;
        // Same row: second access hits the open row.
        svc(&mut tpu, &mut rng, 1, base);
        let same_row = svc(&mut tpu, &mut rng, 1, base + 512).breakdown;
        assert_eq!(same_row.row_miss, SimDuration::ZERO);
        // Rows 0 and 2 share a buffer (2 buffers): alternating misses.
        svc(&mut tpu, &mut rng, 1, base + 4096);
        let back = svc(&mut tpu, &mut rng, 1, base).breakdown;
        assert!(back.row_miss > SimDuration::ZERO, "row ping-pong expected");
        // Rows 0 and 1 use different buffers: no conflict.
        svc(&mut tpu, &mut rng, 1, base + 2048);
        let still_open = svc(&mut tpu, &mut rng, 1, base + 64).breakdown;
        assert_eq!(still_open.row_miss, SimDuration::ZERO);
    }

    #[test]
    fn mr_context_switch_cost() {
        let (mut tpu, mut rng) = unit();
        svc(&mut tpu, &mut rng, 1, 0x200000);
        let same = svc(&mut tpu, &mut rng, 1, 0x200040).breakdown;
        assert_eq!(same.mr_switch, SimDuration::ZERO);
        let other = svc(&mut tpu, &mut rng, 2, 0x600000).breakdown;
        assert!(other.mr_switch > SimDuration::ZERO);
        let back = svc(&mut tpu, &mut rng, 1, 0x200080).breakdown;
        assert!(
            back.mr_switch > SimDuration::ZERO,
            "single context slot ping-pongs"
        );
    }

    #[test]
    fn tokens_spanned_counts() {
        let (mut tpu, mut rng) = unit();
        let one = tpu
            .access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x200000,
                64,
            )
            .unwrap();
        assert_eq!(one.breakdown.tokens_spanned, 1);
        let crossing = tpu
            .access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x200020,
                64,
            )
            .unwrap();
        assert_eq!(crossing.breakdown.tokens_spanned, 2);
        let big = tpu
            .access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x200000,
                1024,
            )
            .unwrap();
        assert_eq!(big.breakdown.tokens_spanned, 16);
        assert!(big.breakdown.extra_tokens > SimDuration::ZERO);
    }

    #[test]
    fn same_bank_serializes_different_banks_parallel() {
        let (mut tpu, mut rng) = unit();
        let t = SimTime::from_micros(10);
        let a = tpu
            .access(t, &mut rng, PdId(0), Opcode::Read, MrKey(1), 0x200000, 8)
            .unwrap();
        // Same token → same bank → queues behind `a`.
        let b = tpu
            .access(t, &mut rng, PdId(0), Opcode::Read, MrKey(1), 0x200008, 8)
            .unwrap();
        assert!(b.reservation.start >= a.reservation.end);
        // Different bank → starts immediately.
        let c = tpu
            .access(
                t,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x200000 + 64,
                8,
            )
            .unwrap();
        assert_eq!(c.reservation.start, t);
    }

    #[test]
    fn prefetch_discount_near_previous() {
        let (mut tpu, mut rng) = unit();
        svc(&mut tpu, &mut rng, 1, 0x200000);
        let near = svc(&mut tpu, &mut rng, 1, 0x200000 + 64).breakdown;
        assert!(near.prefetch_discount > SimDuration::ZERO);
        let far = svc(&mut tpu, &mut rng, 1, 0x200000 + 64 * 100).breakdown;
        assert_eq!(far.prefetch_discount, SimDuration::ZERO);
    }

    #[test]
    fn mr_offset_reported() {
        let (mut tpu, mut rng) = unit();
        let a = svc(&mut tpu, &mut rng, 1, 0x200000 + 768);
        assert_eq!(a.mr_offset, 768);
    }

    #[test]
    fn deregister_clears_state() {
        let (mut tpu, mut rng) = unit();
        svc(&mut tpu, &mut rng, 1, 0x200000);
        assert!(tpu.deregister_mr(MrKey(1)));
        assert!(!tpu.deregister_mr(MrKey(1)));
        assert!(tpu
            .access(
                SimTime::ZERO,
                &mut rng,
                PdId(0),
                Opcode::Read,
                MrKey(1),
                0x200000,
                8
            )
            .is_err());
    }

    #[test]
    fn bank_of_is_token_interleaved() {
        let (tpu, _) = unit();
        assert_eq!(tpu.bank_of(0), 0);
        assert_eq!(tpu.bank_of(64), 1);
        assert_eq!(tpu.bank_of(64 * 16), 0); // 16 banks on CX-4
    }
}
