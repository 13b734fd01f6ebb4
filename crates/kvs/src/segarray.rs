//! [`AtomicSegArray`]: a geometrically segmented array of `AtomicU64`
//! whose elements never move — growth maps a new [`Arena`] segment and
//! publishes it once; existing segments stay at their address until drop.
//!
//! The item table ([`crate::item::ItemTable`]) keeps its row, expiry and
//! version words here, and the CLOCK reference bitmap
//! ([`crate::clock::Clock`]) its bits. The elements are atomic because
//! readers write some of them while holding only the shard's *shared*
//! lock: every hit sets its item's reference bit ([`crate::clock::Clock::touch`]),
//! so several readers may store to one bitmap word at once. Every other
//! word is written only under the shard's write lock, and growth happens
//! only there too, so no reader ever races a segment's publication; the
//! address stability is not load-bearing under the lock (DESIGN.md §18).
//! Every segment starts on a page boundary, so slots `2i` and `2i + 1`
//! always share one cache line — the item table keeps an id's row word
//! and expiry word in such a pair so one prefetch carries both.

use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

use crate::arena::Arena;

/// Slots in segment 0; segment `k` holds `BASE << k` slots, so ~22
/// segments cover two slots per `u32` id while small tables stay small.
const SEG_BASE_LOG2: u32 = 12;
const SEG_BASE: usize = 1 << SEG_BASE_LOG2;
/// The largest slot in use is the second of the largest id's pair,
/// `2 * (u32::MAX - 1) + 1`; adding `SEG_BASE` keeps it < 2^34, so its
/// segment index is at most `33 - SEG_BASE_LOG2 = 21`.
const SEGMENTS: usize = (34 - SEG_BASE_LOG2) as usize;

/// What a segment is allocated as: two slots on a 16-byte boundary. Every
/// segment starts at an even index and holds an even number of slots, so
/// the pair `(2i, 2i + 1)` is always one `SlotPair` and never straddles a
/// cache line. Arena memory is page-aligned, so this states the guarantee
/// rather than buying it.
#[repr(C, align(16))]
struct SlotPair([AtomicU64; 2]);

/// A grow-only array of `AtomicU64` with stable element addresses.
///
/// Indexing is geometric: slot `i` lives in segment
/// `k = floor(log2(i + BASE)) - log2(BASE)` at offset `(i + BASE) - 2^(k +
/// log2(BASE))`. Segments are kernel-zeroed [`Arena`]s mapped on first
/// touch by a writer and published once; a slot in a segment not yet
/// mapped reads as "absent" ([`AtomicSegArray::get`] returns `None`),
/// which callers treat as a zero/dead slot. Only the pages of a
/// segment that are written become resident. Slots `2i` and `2i + 1` share
/// a 16-byte-aligned pair, hence a cache line.
#[derive(Default)]
pub struct AtomicSegArray {
    segments: [OnceLock<Arena<SlotPair>>; SEGMENTS],
}

impl std::fmt::Debug for AtomicSegArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let allocated = self.segments.iter().filter(|s| s.get().is_some()).count();
        f.debug_struct("AtomicSegArray")
            .field("segments_allocated", &allocated)
            .finish()
    }
}

#[inline(always)]
fn locate(i: usize) -> (usize, usize) {
    let adj = i + SEG_BASE;
    let k = (usize::BITS - 1 - adj.leading_zeros() - SEG_BASE_LOG2) as usize;
    (k, adj - (SEG_BASE << k))
}

const fn seg_len(k: usize) -> usize {
    SEG_BASE << k
}

impl AtomicSegArray {
    /// An empty array (no segments allocated).
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for index `i`, if its segment has been allocated. Readers
    /// use this: an unallocated segment means the slot was never written,
    /// i.e. holds zero.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&AtomicU64> {
        let (k, off) = locate(i);
        let seg = self.segments.get(k)?.get()?;
        Some(&seg[off / 2].0[off % 2])
    }

    /// The slot for index `i`, mapping its segment (zeroed) if needed.
    /// Safe to race with other callers — the segment is published once —
    /// though the store only grows under the shard write lock.
    pub fn get_or_alloc(&self, i: usize) -> &AtomicU64 {
        let (k, off) = locate(i);
        // SAFETY: zero-validity — an all-zero `SlotPair` is two
        // `AtomicU64`s holding 0.
        let seg = self.segments[k].get_or_init(|| unsafe { Arena::zeroed(seg_len(k) / 2) });
        &seg[off / 2].0[off % 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    #[test]
    fn locate_geometry_is_contiguous_and_in_bounds() {
        // Every index maps into a valid (segment, offset) pair, indexes are
        // dense within a segment, and segment boundaries line up.
        let mut prev = locate(0);
        assert_eq!(prev, (0, 0));
        for i in 1..200_000usize {
            let (k, off) = locate(i);
            assert!(off < seg_len(k), "i={i} -> ({k},{off})");
            let (pk, poff) = prev;
            if k == pk {
                assert_eq!(off, poff + 1, "i={i}");
            } else {
                assert_eq!(k, pk + 1, "i={i}");
                assert_eq!(off, 0, "i={i}");
                assert_eq!(poff, seg_len(pk) - 1, "i={i}");
            }
            prev = (k, off);
        }
        // The largest item id's pair still lands in a tracked segment.
        let (k, off) = locate(2 * (u32::MAX as usize - 1) + 1);
        assert_eq!(k, SEGMENTS - 1);
        assert!(off < seg_len(k));
    }

    #[test]
    fn slot_pairs_share_a_cache_line() {
        let arr = AtomicSegArray::new();
        // First and last pair of segments 0 and 1, and one far out.
        for i in [0usize, 2047, 2048, 6143, 1 << 20] {
            let a = arr.get_or_alloc(2 * i) as *const AtomicU64 as usize;
            let b = arr.get_or_alloc(2 * i + 1) as *const AtomicU64 as usize;
            assert_eq!(a % 16, 0, "pair {i}");
            assert_eq!(b, a + 8, "pair {i}");
            assert_eq!(a / 64, b / 64, "pair {i}");
        }
    }

    #[test]
    fn get_before_alloc_is_none_and_zero_after() {
        let arr = AtomicSegArray::new();
        assert!(arr.get(0).is_none());
        assert!(arr.get(1_000_000).is_none());
        assert_eq!(arr.get_or_alloc(12345).load(Relaxed), 0);
        assert_eq!(arr.get(12345).unwrap().load(Relaxed), 0);
        // Same segment (12345 lives in segment 2 = indices 12288..28671),
        // different slot: allocated and zero. Other segments stay absent.
        assert_eq!(arr.get(12288).unwrap().load(Relaxed), 0);
        assert!(arr.get(0).is_none());
    }

    #[test]
    fn values_round_trip_across_segments() {
        let arr = AtomicSegArray::new();
        let probes = [0usize, 1, 4095, 4096, 12287, 12288, 100_000, 1 << 20];
        for (n, &i) in probes.iter().enumerate() {
            arr.get_or_alloc(i).store(n as u64 + 1, Relaxed);
        }
        for (n, &i) in probes.iter().enumerate() {
            assert_eq!(arr.get(i).unwrap().load(Relaxed), n as u64 + 1, "slot {i}");
        }
    }

    #[test]
    fn element_addresses_are_stable_across_growth() {
        let arr = AtomicSegArray::new();
        let p0 = arr.get_or_alloc(7) as *const AtomicU64;
        for i in (0..500_000).step_by(4096) {
            arr.get_or_alloc(i);
        }
        assert_eq!(p0, arr.get(7).unwrap() as *const AtomicU64);
    }

    #[test]
    fn concurrent_get_or_alloc_single_segment() {
        let arr = Arc::new(AtomicSegArray::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let arr = Arc::clone(&arr);
                std::thread::spawn(move || {
                    for i in 0..1000usize {
                        arr.get_or_alloc(i * 4 + t).fetch_add(1, Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4000usize {
            assert_eq!(arr.get(i).unwrap().load(Relaxed), 1);
        }
    }
}
