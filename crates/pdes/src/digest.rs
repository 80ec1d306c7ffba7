//! A tiny order-insensitive-free (i.e. strictly order-sensitive) 64-bit
//! fold used to fingerprint event streams and actor states.
//!
//! A parallel run folds the exact same words in the exact same order as
//! a sequential one, so a single `u64` comparison is enough to assert
//! that it reproduced the sequential run bit-for-bit. One xor-multiply
//! round per word with a finalizing xor-shift mix: cheap (the fold sits
//! on the per-event hot path of the engine it fingerprints),
//! deterministic, and sensitive to both value and position.
//!
//! The digest value is never pinned as a constant anywhere — it exists
//! only to be compared against another digest computed by the same
//! code — so the mixing function can change freely; both sides of every
//! comparison move together.

/// Incremental 64-bit stream digest (xor-multiply over words, mixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest64 {
    state: u64,
    words: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier (2^64 / phi): full-period under wrapping
/// multiplication, good high-bit diffusion after the final avalanche.
const MIX_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

impl Digest64 {
    /// A fresh digest (FNV-1a offset basis).
    pub fn new() -> Digest64 {
        Digest64 {
            state: FNV_OFFSET,
            words: 0,
        }
    }

    /// Folds one word into the digest. Order matters: the running state
    /// is multiplied between words, so permutations of equal words
    /// diverge — `((s^a)·K ^ b)·K ≠ ((s^b)·K ^ a)·K`.
    #[inline]
    pub fn fold(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(MIX_PRIME);
        self.words = self.words.wrapping_add(1);
    }

    /// Folds another digest's value into this one.
    #[inline]
    pub fn absorb(&mut self, other: &Digest64) {
        self.fold(other.value());
        self.fold(other.words);
    }

    /// The finalized digest value (does not consume the stream).
    pub fn value(&self) -> u64 {
        // xor-shift avalanche so short streams still differ widely.
        let mut x = self.state ^ self.words;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }

    /// Number of words folded so far.
    pub fn words(&self) -> u64 {
        self.words
    }
}

impl Default for Digest64 {
    fn default() -> Digest64 {
        Digest64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_sensitive() {
        let mut a = Digest64::new();
        a.fold(1);
        a.fold(2);
        let mut b = Digest64::new();
        b.fold(2);
        b.fold(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn deterministic() {
        let mut a = Digest64::new();
        let mut b = Digest64::new();
        for w in [7u64, 0, u64::MAX, 42] {
            a.fold(w);
            b.fold(w);
        }
        assert_eq!(a.value(), b.value());
        assert_eq!(a.words(), 4);
    }

    #[test]
    fn absorb_differs_from_inline() {
        let mut inner = Digest64::new();
        inner.fold(9);
        let mut outer = Digest64::new();
        outer.absorb(&inner);
        let mut plain = Digest64::new();
        plain.fold(9);
        assert_ne!(outer.value(), plain.value());
    }
}
