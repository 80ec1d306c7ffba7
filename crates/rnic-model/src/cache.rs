//! A small set-associative LRU cache model.
//!
//! Used for the RNIC's on-chip MPT/MTT caches. Pythia's persistent-channel
//! baseline attacks exactly this structure; Ragnar's volatile channels do
//! not depend on it, which is why they survive cache-randomization
//! defenses.

/// A set-associative cache with LRU replacement over opaque `u64` tags.
///
/// # Examples
///
/// ```
/// use rnic_model::SetAssocCache;
///
/// let mut c = SetAssocCache::new(4, 2); // 4 entries, 2-way => 2 sets
/// assert!(!c.access(0)); // cold miss
/// assert!(c.access(0));  // hit
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// Set-major `sets × ways` tags, most-recently-used first within
    /// each set (small `ways`, so a shift is cheap and exactly LRU);
    /// [`EMPTY`] marks an invalid way, and invalid ways sit at the LRU
    /// end. Empty until the first install, so a NIC that never looks up
    /// an MR never pays for its cache.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// The invalid-way sentinel; `u64::MAX` is therefore not a valid tag.
const EMPTY: u64 = u64::MAX;

impl SetAssocCache {
    /// Creates a cache with `entries` total lines and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, `entries` is zero, or `entries` is not a
    /// multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries > 0, "cache geometry must be positive");
        assert!(
            entries.is_multiple_of(ways),
            "entries ({entries}) must be a multiple of ways ({ways})"
        );
        SetAssocCache {
            sets: entries / ways,
            ways,
            tags: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, tag: u64) -> usize {
        // Multiplicative hash so adjacent tags spread across sets, then
        // index.
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets
    }

    /// The ways of `tag`'s set (empty before the first install).
    fn set_ways(&mut self, tag: u64) -> &mut [u64] {
        let start = self.set_of(tag) * self.ways;
        self.tags
            .get_mut(start..start + self.ways)
            .unwrap_or(&mut [])
    }

    /// Accesses `tag`: returns `true` on hit. Misses install the tag,
    /// evicting the LRU way of its set.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is `u64::MAX`, the invalid-way sentinel.
    pub fn access(&mut self, tag: u64) -> bool {
        assert_ne!(tag, EMPTY, "u64::MAX is reserved as the invalid tag");
        if self.tags.is_empty() {
            self.tags = vec![EMPTY; self.sets * self.ways];
        }
        let ways = self.set_ways(tag);
        // A hit moves the tag to the MRU way; a miss shifts the LRU way
        // out and installs the tag there.
        let pos = ways.iter().position(|&w| w == tag);
        let end = pos.unwrap_or(ways.len() - 1);
        ways[..=end].rotate_right(1);
        ways[0] = tag;
        self.hits += u64::from(pos.is_some());
        self.misses += u64::from(pos.is_none());
        pos.is_some()
    }

    /// True if `tag` is currently resident (no LRU update, no counter
    /// update).
    pub fn probe(&self, tag: u64) -> bool {
        let start = self.set_of(tag) * self.ways;
        let ways = self.tags.get(start..start + self.ways).unwrap_or(&[]);
        tag != EMPTY && ways.contains(&tag)
    }

    /// Invalidates `tag` if resident; returns whether it was.
    pub fn invalidate(&mut self, tag: u64) -> bool {
        let ways = self.set_ways(tag);
        let Some(pos) = ways.iter().position(|&w| w == tag && w != EMPTY) else {
            return false;
        };
        // Keep invalid ways at the LRU end.
        ways[pos..].rotate_left(1);
        ways[ways.len() - 1] = EMPTY;
        true
    }

    /// Flushes the whole cache.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in `[0, 1]` (zero before any access).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Tags that would evict `victim` when accessed: distinct tags mapping
    /// to the same set. Used by the Pythia baseline to construct eviction
    /// sets, mirroring its reverse-engineering step.
    pub fn eviction_set(&self, victim: u64, count: usize) -> Vec<u64> {
        let set = self.set_of(victim);
        let mut out = Vec::with_capacity(count);
        let mut candidate = victim.wrapping_add(1);
        while out.len() < count {
            if self.set_of(candidate) == set && candidate != victim {
                out.push(candidate);
            }
            candidate = candidate.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut c = SetAssocCache::new(16, 4);
        assert!(!c.access(42));
        assert!(c.access(42));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(2, 2); // one set, 2 ways
        c.access(1);
        c.access(2);
        c.access(1); // 1 becomes MRU, 2 is LRU
        c.access(3); // evicts 2
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn eviction_set_conflicts() {
        let c = SetAssocCache::new(64, 4);
        let victim = 7;
        let ev = c.eviction_set(victim, 8);
        assert_eq!(ev.len(), 8);
        let mut fresh = SetAssocCache::new(64, 4);
        fresh.access(victim);
        for &t in &ev {
            fresh.access(t);
        }
        assert!(
            !fresh.probe(victim),
            "accessing a full eviction set must evict the victim"
        );
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssocCache::new(8, 2);
        c.access(5);
        assert!(c.invalidate(5));
        assert!(!c.probe(5));
        assert!(!c.invalidate(5));
        c.access(6);
        c.flush();
        assert!(!c.probe(6));
    }

    #[test]
    fn untouched_cache_allocates_nothing() {
        let mut c = SetAssocCache::new(4096, 8);
        assert!(!c.probe(1));
        assert!(!c.invalidate(1));
        c.flush();
        assert!(c.tags.is_empty());
        assert!(!c.access(1));
        assert_eq!(c.tags.len(), 4096);
        assert!(!c.probe(EMPTY), "the sentinel is never resident");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_tag_panics() {
        SetAssocCache::new(4, 2).access(EMPTY);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(10, 4);
    }
}
