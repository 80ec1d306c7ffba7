//! A sparse byte-addressable host-memory model.
//!
//! Each simulated host owns one [`HostMemory`]; the verbs layer allocates
//! MR backing store from it and applications observe RDMA'd data through
//! it. Pages materialize on the first non-zero write, so multi-gigabyte
//! address spaces cost nothing until used.
//!
//! The NIC gathers payloads with [`HostMemory::read_bytes`]: a range no
//! write ever touched becomes a shared view of a static zero block (no
//! copy, no allocation), and a range that touches a written page is
//! copied once, into the payload's own buffer.

use bytes::{Bytes, BytesMut};
use sim_core::FxHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// What every untouched range reads as. Payloads up to this length (64
/// KiB, above every message the experiments send) view it in place;
/// longer all-zero payloads are allocated like written ones.
static ZEROS: [u8; 16 * PAGE_SIZE as usize] = [0; 16 * PAGE_SIZE as usize];

/// Sparse host DRAM.
///
/// # Examples
///
/// ```
/// use rnic_model::HostMemory;
///
/// let mut mem = HostMemory::new();
/// mem.write(0x200000, b"hello");
/// assert_eq!(mem.read(0x200000, 5), b"hello");
/// ```
#[derive(Debug, Default)]
pub struct HostMemory {
    pages: FxHashMap<u64, Box<[u8]>>,
}

impl HostMemory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `data` starting at virtual address `addr`. A zero chunk
    /// bound for an absent page is skipped: the page already reads as
    /// zero.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (page, in_page, offset, n) in chunks(addr, data.len()) {
            let chunk = &data[offset..offset + n];
            let dst = match self.pages.get_mut(&page) {
                Some(p) => p,
                None if is_zero(chunk) => continue,
                None => self
                    .pages
                    .entry(page)
                    .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice()),
            };
            dst[in_page..in_page + n].copy_from_slice(chunk);
        }
    }

    /// Copies whatever written pages `addr..addr + len` touches into
    /// `out`, which must already read as zero.
    fn fill(&self, addr: u64, out: &mut [u8]) {
        for (page, in_page, offset, n) in chunks(addr, out.len()) {
            if let Some(p) = self.pages.get(&page) {
                out[offset..offset + n].copy_from_slice(&p[in_page..in_page + n]);
            }
        }
    }

    /// Reads `len` bytes starting at `addr` (untouched pages read as zero).
    pub fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        self.fill(addr, &mut out);
        out
    }

    /// Reads `len` bytes starting at `addr` as a payload. A range with no
    /// written page is a view of [`ZEROS`] (no allocation); any other
    /// range is copied once, into one allocation.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Bytes {
        let len = len as usize;
        let untouched = chunks(addr, len).all(|(page, ..)| !self.pages.contains_key(&page));
        if untouched && len <= ZEROS.len() {
            return Bytes::from_static(&ZEROS[..len]);
        }
        let mut out = BytesMut::zeroed(len);
        self.fill(addr, &mut out);
        out.freeze()
    }

    /// Reads a little-endian u64 at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill(addr, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian u64 at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Atomically fetches the u64 at `addr` and adds `delta`; returns the
    /// original value.
    pub fn fetch_add_u64(&mut self, addr: u64, delta: u64) -> u64 {
        let old = self.read_u64(addr);
        self.write_u64(addr, old.wrapping_add(delta));
        old
    }

    /// Atomically compares the u64 at `addr` with `expect` and swaps in
    /// `new` on match; returns the original value.
    pub fn compare_swap_u64(&mut self, addr: u64, expect: u64, new: u64) -> u64 {
        let old = self.read_u64(addr);
        if old == expect {
            self.write_u64(addr, new);
        }
        old
    }

    /// Number of materialized 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// True if every byte of `data` is zero. Tests fixed 64-byte blocks
/// with a branch-free OR-fold the compiler can vectorize, instead of a
/// per-byte early-exit loop.
fn is_zero(data: &[u8]) -> bool {
    let blocks = data.chunks_exact(64);
    let tail = blocks.remainder();
    blocks
        .into_iter()
        .all(|b| b.iter().fold(0, |acc, &x| acc | x) == 0)
        && tail.iter().fold(0, |acc, &x| acc | x) == 0
}

/// Splits `addr..addr + len` at page boundaries into
/// `(page, offset in page, offset in range, length)` chunks.
fn chunks(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut offset = 0usize;
    std::iter::from_fn(move || {
        if offset >= len {
            return None;
        }
        let va = addr + offset as u64;
        let in_page = (va & (PAGE_SIZE - 1)) as usize;
        let n = (PAGE_SIZE as usize - in_page).min(len - offset);
        let chunk = (va >> PAGE_SHIFT, in_page, offset, n);
        offset += n;
        Some(chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_page_write_read() {
        let mut m = HostMemory::new();
        let addr = PAGE_SIZE - 3;
        let data: Vec<u8> = (0..10).collect();
        m.write(addr, &data);
        assert_eq!(m.read(addr, 10), data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn untouched_reads_zero() {
        let m = HostMemory::new();
        assert_eq!(m.read(0xDEAD_0000, 4), vec![0; 4]);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = HostMemory::new();
        m.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(0x1000), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn fetch_add_semantics() {
        let mut m = HostMemory::new();
        m.write_u64(0x40, 10);
        assert_eq!(m.fetch_add_u64(0x40, 5), 10);
        assert_eq!(m.read_u64(0x40), 15);
    }

    #[test]
    fn compare_swap_semantics() {
        let mut m = HostMemory::new();
        m.write_u64(0x40, 10);
        assert_eq!(m.compare_swap_u64(0x40, 10, 99), 10);
        assert_eq!(m.read_u64(0x40), 99);
        assert_eq!(m.compare_swap_u64(0x40, 10, 7), 99);
        assert_eq!(m.read_u64(0x40), 99, "failed CAS must not write");
    }

    #[test]
    fn untouched_read_bytes_views_the_zero_block() {
        let m = HostMemory::new();
        let b = m.read_bytes(0xDEAD_0000, 3 * PAGE_SIZE);
        assert_eq!(b.len(), 3 * PAGE_SIZE as usize);
        assert!(b.iter().all(|&x| x == 0));
        // No allocation: the payload points into the static block.
        assert_eq!(b.as_ptr(), ZEROS.as_ptr());
        assert_eq!(m.resident_pages(), 0);
        // Past the block's length the zeros are allocated instead.
        let long = m.read_bytes(0, ZEROS.len() as u64 + 1);
        assert!(long.iter().all(|&x| x == 0));
        assert_ne!(long.as_ptr(), ZEROS.as_ptr());
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn zero_write_to_an_absent_page_leaves_no_page() {
        let mut m = HostMemory::new();
        m.write(0x5000, &[0; 64]);
        m.write_u64(0x9000, 0);
        assert_eq!(m.resident_pages(), 0);
        // A zero write into a present page still lands.
        m.write_u64(0x5000, 7);
        m.write_u64(0x5000, 0);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u64(0x5000), 0);
    }

    #[test]
    fn one_nonzero_byte_materializes_the_page() {
        // A 2 KiB write whose only non-zero byte sits at a block edge,
        // inside a block, or in the last byte.
        for at in [0usize, 63, 64, 100, 2047] {
            let mut m = HostMemory::new();
            let mut data = vec![0u8; 2048];
            data[at] = 0x5A;
            m.write(0x7000, &data);
            assert_eq!(m.resident_pages(), 1, "non-zero byte at {at}");
            assert_eq!(m.read(0x7000, 2048), data, "non-zero byte at {at}");
        }
        // A chunk shorter than one block, and one with a tail past it.
        for len in [5usize, 70] {
            let mut m = HostMemory::new();
            let mut data = vec![0u8; len];
            data[len - 1] = 1;
            m.write(0x7000, &data);
            assert_eq!(m.read(0x7000, len as u64), data, "length {len}");
        }
    }

    #[test]
    fn all_zero_write_leaves_no_page() {
        let mut m = HostMemory::new();
        m.write(0x7000, &[0; 2048]);
        // Straddling a page boundary: two absent pages, both skipped.
        m.write(2 * PAGE_SIZE - 1024, &[0; 2048]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn zero_view_survives_a_later_write() {
        let mut m = HostMemory::new();
        let before = m.read_bytes(0x3000, 16);
        m.write(0x3000, &[0xAB; 16]);
        assert_eq!(&*before, &[0; 16]);
        assert_eq!(&*m.read_bytes(0x3000, 16), &[0xAB; 16]);
    }

    #[test]
    fn range_over_a_written_and_an_absent_page_reads_back() {
        let mut m = HostMemory::new();
        let data: Vec<u8> = (1..=8).collect();
        m.write(PAGE_SIZE - 8, &data);
        assert_eq!(m.resident_pages(), 1);
        let b = m.read_bytes(PAGE_SIZE - 8, 24);
        assert_eq!(&b[..8], &data[..]);
        assert_eq!(&b[8..], &[0; 16]);
        assert_eq!(m.read(PAGE_SIZE - 8, 24), b.to_vec());
        assert_eq!(m.resident_pages(), 1);
    }
}
