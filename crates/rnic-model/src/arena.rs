//! Generational slab arena for in-flight packets — the copy-free packet
//! hot path.
//!
//! A packet is allocated into the arena exactly once, when the egress
//! scheduler grants it, and every later pipeline stage — wire hops,
//! chaos injection, fabric delivery, the receiver's Rx pipeline — passes
//! an 8-byte [`PacketHandle`] instead of moving or cloning the ~180-byte
//! [`Packet`] (plus payload refcount churn) through the event queue.
//!
//! # Layout
//!
//! Storage is a struct-of-arrays split keyed by access frequency:
//!
//! * the **hot column** ([`HotHeader`]) holds the handful of header
//!   fields every wire hop reads — source, destination, traffic class,
//!   cached wire size, message id — so pure fabric traversal never
//!   touches the full packet row;
//! * the **cold column** holds the full [`Packet`] (including the
//!   refcounted payload), read only by the endpoints' NIC pipelines.
//!
//! # Handle lifetimes
//!
//! Handles are generational: freeing a slot bumps its generation, so a
//! stale handle (a logic bug — e.g. a packet freed twice, or used after
//! delivery) panics deterministically instead of silently aliasing a
//! recycled slot. Ownership is linear by convention: every allocated
//! packet has exactly one live handle flowing through the event graph,
//! and exactly one terminal consumer ([`PacketArena::take`] or
//! [`PacketArena::free`]) — delivery, a chaos/ICRC drop, or a duplicate
//! discard. Chaos duplication is the only copy point:
//! [`PacketArena::clone_entry`] copies the header row and refcounts the
//! payload (copy-on-duplicate; payload bytes are immutable and never
//! deep-copied).
//!
//! [`ArenaStats`] counts allocations, frees, duplicates and the live
//! high-water mark; the regression suite asserts `allocs` scales with
//! *packets built*, not hops traversed, and that `live == 0` at
//! quiescence (no leaks on any drop path).

use crate::packet::Packet;
use crate::types::{FlowId, HostId, TrafficClass};
use ragnar_telemetry::profile::{self, Phase};

/// An 8-byte generational reference to a packet in a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle {
    idx: u32,
    gen: u32,
}

impl PacketHandle {
    /// A handle that matches no slot — the filler for unused entries
    /// (such as the empty tail of a hop batch).
    pub const DANGLING: PacketHandle = PacketHandle {
        idx: u32::MAX,
        gen: u32::MAX,
    };
}

/// The per-hop header fields, kept in their own column so wire
/// traversal reads 32 bytes instead of the full packet row.
#[derive(Debug, Clone, Copy)]
pub struct HotHeader {
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Traffic class stamped on the wire.
    pub tc: TrafficClass,
    /// Cached [`Packet::wire_bytes`] (headers + payload).
    pub wire_bytes: u32,
    /// Application flow label.
    pub flow: FlowId,
    /// Requester-side message identifier.
    pub msg_id: u64,
}

/// Allocation counters for the arena (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Packets allocated ([`PacketArena::insert`]).
    pub allocs: u64,
    /// Packets released ([`PacketArena::take`] / [`PacketArena::free`]).
    pub frees: u64,
    /// Header-row copies made for chaos duplication
    /// ([`PacketArena::clone_entry`]); payload bytes are refcounted,
    /// never copied.
    pub dup_clones: u64,
    /// Maximum simultaneously-live packets observed.
    pub high_water: u64,
}

impl ArenaStats {
    /// Packets currently live (allocated and not yet freed).
    pub fn live(&self) -> u64 {
        self.allocs - self.frees
    }
}

/// Generational slab of in-flight packets (see the module docs).
#[derive(Debug, Default)]
pub struct PacketArena {
    gens: Vec<u32>,
    hot: Vec<HotHeader>,
    cold: Vec<Option<Packet>>,
    free: Vec<u32>,
    stats: ArenaStats,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// An empty arena with slots reserved for `cap` concurrent packets.
    pub fn with_capacity(cap: usize) -> PacketArena {
        PacketArena {
            gens: Vec::with_capacity(cap),
            hot: Vec::with_capacity(cap),
            cold: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            stats: ArenaStats::default(),
        }
    }

    /// Allocation counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Packets currently live.
    pub fn live(&self) -> u64 {
        self.stats.live()
    }

    /// Allocates a slot for `pkt`, caching its hot header fields.
    pub fn insert(&mut self, pkt: Packet) -> PacketHandle {
        let _p = profile::enter(Phase::ArenaAlloc);
        let hot = HotHeader {
            src: pkt.src,
            dst: pkt.dst,
            tc: pkt.tc,
            wire_bytes: u32::try_from(pkt.wire_bytes()).expect("wire size fits u32"),
            flow: pkt.flow,
            msg_id: pkt.msg_id,
        };
        self.stats.allocs += 1;
        self.stats.high_water = self.stats.high_water.max(self.stats.live());
        match self.free.pop() {
            Some(idx) => {
                let i = idx as usize;
                self.hot[i] = hot;
                debug_assert!(self.cold[i].is_none(), "free slot holds a packet");
                self.cold[i] = Some(pkt);
                PacketHandle {
                    idx,
                    gen: self.gens[i],
                }
            }
            None => {
                let idx = u32::try_from(self.gens.len()).expect("arena exceeds u32 slots");
                assert!(idx != u32::MAX, "arena full");
                self.gens.push(0);
                self.hot.push(hot);
                self.cold.push(Some(pkt));
                PacketHandle { idx, gen: 0 }
            }
        }
    }

    #[inline]
    fn check(&self, h: PacketHandle) -> usize {
        let i = h.idx as usize;
        assert!(
            i < self.gens.len() && self.gens[i] == h.gen && self.cold[i].is_some(),
            "stale packet handle {h:?}"
        );
        i
    }

    /// The hot header column for `h`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (freed or detached).
    #[inline]
    pub fn hot(&self, h: PacketHandle) -> &HotHeader {
        let i = self.check(h);
        &self.hot[i]
    }

    /// The full packet for `h` (cold column).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn get(&self, h: PacketHandle) -> &Packet {
        let i = self.check(h);
        self.cold[i].as_ref().expect("checked live")
    }

    /// Removes the packet, returning it by value and retiring the slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn take(&mut self, h: PacketHandle) -> Packet {
        let _p = profile::enter(Phase::ArenaFree);
        let i = self.check(h);
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(h.idx);
        self.stats.frees += 1;
        self.cold[i].take().expect("checked live")
    }

    /// Drops the packet and retires the slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn free(&mut self, h: PacketHandle) {
        drop(self.take(h));
    }

    /// Duplicates an entry (chaos duplication): copies the header row,
    /// refcounts the payload, and returns a handle to the new slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn clone_entry(&mut self, h: PacketHandle) -> PacketHandle {
        let pkt = self.get(h).clone();
        self.stats.dup_clones += 1;
        self.insert(pkt)
    }

    /// Counts slots actually holding a packet — O(capacity), so callers
    /// (the online arena monitor) sample it on a cadence rather than per
    /// event. Always equals [`ArenaStats::live`] unless the ledger and
    /// the slab have diverged, which is exactly the bug the monitor
    /// exists to catch.
    pub fn occupied_slots(&self) -> u64 {
        self.cold.iter().filter(|c| c.is_some()).count() as u64
    }

    /// Skews the allocation ledger without touching any slot — plants
    /// precisely the inconsistency the online arena monitor must catch.
    #[doc(hidden)]
    pub fn debug_skew_ledger(&mut self) {
        self.stats.allocs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::types::{MrKey, Opcode, QpNum};
    use bytes::Bytes;
    use sim_core::SimTime;

    fn pkt(msg_id: u64) -> Packet {
        Packet {
            src: HostId(1),
            dst: HostId(2),
            src_qp: QpNum(3),
            dst_qp: QpNum(4),
            tc: TrafficClass::new(1),
            flow: FlowId(5),
            kind: PacketKind::WriteSeg,
            msg_id,
            seg_idx: 0,
            seg_cnt: 1,
            payload: Bytes::from(vec![7u8; 64]),
            opcode: Opcode::Write,
            total_len: 64,
            remote_addr: 0x1000,
            rkey: MrKey(9),
            atomic_args: (0, 0),
            local_addr: 0x2000,
            wqe_seq: 0,
            wr_id: 11,
            posted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn insert_get_take_roundtrip() {
        let mut arena = PacketArena::new();
        let h = arena.insert(pkt(42));
        assert_eq!(arena.hot(h).msg_id, 42);
        assert_eq!(arena.hot(h).dst, HostId(2));
        assert_eq!(
            u64::from(arena.hot(h).wire_bytes),
            arena.get(h).wire_bytes()
        );
        assert_eq!(arena.live(), 1);
        let p = arena.take(h);
        assert_eq!(p.msg_id, 42);
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.stats().allocs, 1);
        assert_eq!(arena.stats().frees, 1);
    }

    #[test]
    fn slots_recycle_and_generations_guard_staleness() {
        let mut arena = PacketArena::new();
        let a = arena.insert(pkt(1));
        arena.free(a);
        let b = arena.insert(pkt(2));
        // Recycled slot, fresh generation: the old handle is dead.
        assert_eq!(arena.hot(b).msg_id, 2);
        assert_ne!(a, b);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.get(a);
        }));
        assert!(stale.is_err(), "stale handle must panic");
    }

    #[test]
    fn dangling_handle_is_always_stale() {
        let arena = PacketArena::new();
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.hot(PacketHandle::DANGLING);
        }));
        assert!(stale.is_err());
    }

    #[test]
    fn clone_entry_refcounts_payload_and_counts() {
        let mut arena = PacketArena::new();
        let h = arena.insert(pkt(9));
        let d = arena.clone_entry(h);
        assert_eq!(arena.stats().dup_clones, 1);
        assert_eq!(arena.live(), 2);
        // Same backing payload allocation — refcounted, not copied.
        let orig = arena.get(h).payload.as_ref().as_ptr();
        let dup = arena.get(d).payload.as_ref().as_ptr();
        assert_eq!(orig, dup);
        arena.free(h);
        arena.free(d);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn high_water_tracks_peak_liveness() {
        let mut arena = PacketArena::new();
        let hs: Vec<_> = (0..5).map(|i| arena.insert(pkt(i))).collect();
        for h in hs {
            arena.free(h);
        }
        let _ = arena.insert(pkt(99));
        assert_eq!(arena.stats().high_water, 5);
    }
}
