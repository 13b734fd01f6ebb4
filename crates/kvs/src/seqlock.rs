//! Seqlock primitives for the store's optimistic read path (DESIGN.md §11).
//!
//! Two building blocks live here:
//!
//! * [`SeqCount`] — an even/odd sequence counter in the classic seqlock
//!   discipline (Linux `seqcount_t`, MemC3's bucket versions, crossbeam's
//!   `SeqLock`): the writer bumps the counter to *odd* before mutating and
//!   back to *even* after; a reader snapshots an even value, copies the
//!   data it needs, and re-checks that the counter is unchanged. A torn
//!   copy is detected, never returned.
//! * [`AtomicSegArray`] — a geometrically segmented array of `AtomicU64`
//!   whose elements **never move**: growth allocates a new segment and
//!   publishes it through an `AtomicPtr`; existing segments stay at their
//!   address until drop. That stability is what makes it legal for
//!   lock-free readers to hold references across a writer's growth — a
//!   `Vec` reallocation would leave them dangling, which no amount of
//!   version re-checking can undo. Every segment starts on a 16-byte
//!   boundary, so slots `2i` and `2i + 1` always share one cache line —
//!   [`crate::item::ItemTable`] keeps an id's row word and expiry word in
//!   such a pair so one prefetch carries both.
//!
//! # Memory ordering
//!
//! The orderings follow the crossbeam/Linux recipe, and the reasoning is
//! worth spelling out once (DESIGN.md §11 has the store-level picture):
//!
//! * **Write begin**: `store(seq + 1, Relaxed)` then `fence(Release)`. The
//!   fence keeps the subsequent data writes from being reordered *before*
//!   the odd store; a reader that still sees the even value can only see
//!   data from before the mutation started or torn data it will reject.
//! * **Write end**: `store(seq + 2, Release)`. The release store keeps the
//!   preceding data writes from sinking *below* the even store, so a
//!   reader that observes the new even value observes the full mutation.
//! * **Read begin**: `load(Acquire)` — synchronizes-with the write-end
//!   release store, making the previous mutation's data visible.
//! * **Read validate**: `fence(Acquire)` then `load(Relaxed)`. The fence
//!   orders the reader's *data loads* before the re-load of the counter:
//!   if the re-load returns the snapshot value, no write overlapped the
//!   copy window, so the copy is consistent.
//!
//! The data copied under a seqlock is still read racily (that is the
//! point), so everything a reader dereferences must be either atomic or
//! reached through storage that cannot be freed mid-read — which is the
//! other half of this module.

use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};

/// Bounded spin while a writer holds the counter odd before the reader
/// gives up and takes the locked path. Writers hold the counter odd for a
/// full store mutation (slab write + index insert + CLOCK), so a long spin
/// only burns cycles the shard lock queue would spend better.
const READ_SPIN: usize = 64;

/// An even/odd seqlock counter. One writer at a time (the store's shard
/// write lock enforces this); any number of concurrent readers.
#[derive(Debug, Default)]
pub struct SeqCount {
    seq: AtomicU64,
}

impl SeqCount {
    /// A fresh counter (even: no writer active).
    pub const fn new() -> Self {
        SeqCount {
            seq: AtomicU64::new(0),
        }
    }

    /// Enter a write critical section: bumps the counter to odd and
    /// returns a guard whose drop bumps it back to even. The caller must
    /// hold whatever exclusion makes it the only writer.
    pub fn begin_write(&self) -> SeqWriteGuard<'_> {
        let seq = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq & 1, 0, "nested seqlock write");
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        SeqWriteGuard { count: self }
    }

    /// Begin an optimistic read: returns an even snapshot to validate
    /// against later, or `None` if a writer held the counter odd for the
    /// whole bounded spin (caller should fall back to the locked path).
    #[inline]
    pub fn read_begin(&self) -> Option<u64> {
        for _ in 0..READ_SPIN {
            let seq = self.seq.load(Ordering::Acquire);
            if seq & 1 == 0 {
                return Some(seq);
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Validate a read window: `true` iff no write overlapped it. All data
    /// loads belonging to the window must happen before this call (the
    /// acquire fence orders them against the counter re-load).
    #[inline]
    pub fn validate(&self, snapshot: u64) -> bool {
        fence(Ordering::Acquire);
        self.seq.load(Ordering::Relaxed) == snapshot
    }
}

/// RAII guard for a [`SeqCount`] write section; drop publishes the even
/// counter with release ordering.
#[derive(Debug)]
pub struct SeqWriteGuard<'a> {
    count: &'a SeqCount,
}

impl Drop for SeqWriteGuard<'_> {
    fn drop(&mut self) {
        let seq = self.count.seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq & 1, 1, "seqlock write guard without odd counter");
        self.count.seq.store(seq.wrapping_add(1), Ordering::Release);
    }
}

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
/// cache line. 16 is the platform allocator's natural alignment, so this
/// states the guarantee without leaving the plain `malloc` path.
#[repr(C, align(16))]
struct SlotPair([AtomicU64; 2]);

/// A grow-only array of `AtomicU64` with stable element addresses.
///
/// Indexing is geometric: slot `i` lives in segment
/// `k = floor(log2(i + BASE)) - log2(BASE)` at offset `(i + BASE) - 2^(k +
/// log2(BASE))`. Segments are allocated zeroed on first touch by a writer
/// and published through an `AtomicPtr`; readers that race the publication
/// simply see "absent" ([`AtomicSegArray::get`] returns `None`), which
/// callers treat as a zero/dead slot. Slots `2i` and `2i + 1` share a
/// 16-byte-aligned pair, hence a cache line.
pub struct AtomicSegArray {
    segments: [AtomicPtr<AtomicU64>; SEGMENTS],
}

impl Default for AtomicSegArray {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AtomicSegArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let allocated = (0..SEGMENTS)
            .filter(|&k| !self.segments[k].load(Ordering::Relaxed).is_null())
            .count();
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

/// A zeroed segment `k` as a raw slot pointer ([`free_segment`] undoes it).
fn alloc_segment(k: usize) -> *mut AtomicU64 {
    let pairs: Box<[SlotPair]> = (0..seg_len(k) / 2)
        .map(|_| SlotPair([AtomicU64::new(0), AtomicU64::new(0)]))
        .collect();
    Box::into_raw(pairs) as *mut AtomicU64
}

/// # Safety
///
/// `seg` must come from `alloc_segment(k)` and have no other owner.
unsafe fn free_segment(seg: *mut AtomicU64, k: usize) {
    let pairs = std::ptr::slice_from_raw_parts_mut(seg as *mut SlotPair, seg_len(k) / 2);
    drop(Box::from_raw(pairs));
}

impl AtomicSegArray {
    /// An empty array (no segments allocated).
    pub fn new() -> Self {
        AtomicSegArray {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// The slot for index `i`, if its segment has been allocated. Readers
    /// use this: an unallocated segment means the slot was never written,
    /// i.e. holds zero.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&AtomicU64> {
        let (k, off) = locate(i);
        let seg = self.segments.get(k)?.load(Ordering::Acquire);
        if seg.is_null() {
            return None;
        }
        // SAFETY: a non-null published segment holds `seg_len(k)` slots,
        // `off < seg_len(k)` by construction, and segments are never freed
        // before `self` drops.
        Some(unsafe { &*seg.add(off) })
    }

    /// The slot for index `i`, allocating its segment (zeroed) if needed.
    /// Safe to race with other callers — publication is a compare-exchange
    /// and losers free their allocation — though the store only grows
    /// under the shard write lock.
    pub fn get_or_alloc(&self, i: usize) -> &AtomicU64 {
        let (k, off) = locate(i);
        let slot = &self.segments[k];
        let mut seg = slot.load(Ordering::Acquire);
        if seg.is_null() {
            let fresh = alloc_segment(k);
            match slot.compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => seg = fresh,
                Err(winner) => {
                    // SAFETY: `fresh` was just allocated above and lost
                    // the race, so this is the only pointer to it.
                    unsafe { free_segment(fresh, k) };
                    seg = winner;
                }
            }
        }
        // SAFETY: as in `get`.
        unsafe { &*seg.add(off) }
    }
}

impl Drop for AtomicSegArray {
    fn drop(&mut self) {
        for (k, slot) in self.segments.iter().enumerate() {
            let seg = slot.load(Ordering::Relaxed);
            if !seg.is_null() {
                // SAFETY: published segments are uniquely owned by `self`
                // and came from `alloc_segment(k)`.
                unsafe { free_segment(seg, k) };
            }
        }
    }
}

// SAFETY: the payload is `AtomicU64` (Send + Sync); the raw pointers are
// only ever published once and freed at drop, so sharing across threads
// adds no hazards beyond the atomics themselves.
unsafe impl Send for AtomicSegArray {}
unsafe impl Sync for AtomicSegArray {}

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
    fn seqcount_write_guard_restores_even() {
        let c = SeqCount::new();
        let s0 = c.read_begin().unwrap();
        {
            let _g = c.begin_write();
            // Writer active: bounded spin gives up rather than hanging.
            assert_eq!(c.read_begin(), None);
        }
        assert!(!c.validate(s0), "write must invalidate older snapshots");
        let s1 = c.read_begin().unwrap();
        assert!(c.validate(s1));
        assert_eq!(s1, s0 + 2);
    }

    /// Threaded smoke for the seqlock protocol itself: a writer mutates a
    /// two-word payload (kept deliberately non-atomic-as-a-pair) while
    /// readers copy it under the seqlock; a validated copy must never mix
    /// two writes. This is the machine-checkable core of the memory-
    /// ordering argument — the store-level tests build on it.
    #[test]
    fn seqlock_readers_never_observe_torn_pairs() {
        struct Cell {
            seq: SeqCount,
            a: AtomicU64,
            b: AtomicU64,
        }
        let cell = Arc::new(Cell {
            seq: SeqCount::new(),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        });
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for v in 1..=20_000u64 {
                    let _g = cell.seq.begin_write();
                    cell.a.store(v, Relaxed);
                    cell.b.store(v.wrapping_mul(0x9E37_79B9), Relaxed);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut committed = 0u64;
                    for _ in 0..20_000 {
                        let Some(snap) = cell.seq.read_begin() else {
                            continue;
                        };
                        let a = cell.a.load(Relaxed);
                        let b = cell.b.load(Relaxed);
                        if cell.seq.validate(snap) {
                            assert_eq!(b, a.wrapping_mul(0x9E37_79B9), "torn pair escaped");
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            // Some reads must commit (the writer finishes long before the
            // readers' 20k attempts on any schedule).
            assert!(r.join().unwrap() > 0);
        }
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
