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
    /// `sets × ways` tags; `None` = invalid. Most-recently-used first
    /// within each set (small `ways`, so a shift is cheap and exactly LRU).
    lines: Vec<Vec<Option<u64>>>,
    hits: u64,
    misses: u64,
}

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
        let sets = entries / ways;
        SetAssocCache {
            sets,
            lines: vec![vec![None; ways]; sets],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, tag: u64) -> usize {
        // Multiplicative hash so adjacent tags spread across sets, then
        // index.
        (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.sets
    }

    /// Accesses `tag`: returns `true` on hit. Misses install the tag,
    /// evicting the LRU way of its set.
    pub fn access(&mut self, tag: u64) -> bool {
        let set = self.set_of(tag);
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|w| *w == Some(tag)) {
            // Move to MRU position.
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

    /// True if `tag` is currently resident (no LRU update, no counter
    /// update).
    pub fn probe(&self, tag: u64) -> bool {
        self.lines[self.set_of(tag)].contains(&Some(tag))
    }

    /// Invalidates `tag` if resident; returns whether it was.
    pub fn invalidate(&mut self, tag: u64) -> bool {
        let set = self.set_of(tag);
        if let Some(pos) = self.lines[set].iter().position(|w| *w == Some(tag)) {
            self.lines[set][pos] = None;
            // Keep invalid lines at LRU end.
            let line = self.lines[set].remove(pos);
            self.lines[set].push(line);
            true
        } else {
            false
        }
    }

    /// Flushes the whole cache.
    pub fn flush(&mut self) {
        for set in &mut self.lines {
            for way in set.iter_mut() {
                *way = None;
            }
        }
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
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(10, 4);
    }
}
