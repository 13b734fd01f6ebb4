//! CLOCK cache eviction — MemC3's replacement for memcached's LRU lists.
//!
//! MemC3 (NSDI'13) replaces the doubly-linked LRU with a CLOCK ring: one
//! reference bit per item, set on access (cheap, shared-friendly), swept by
//! a rotating hand on eviction. The paper's post-processing phase (§VI-A
//! step 3, "updates its metadata to maintain cache freshness") is this
//! touch operation.
//!
//! # Reader-safe reference bits (seqlock read path)
//!
//! Reference bits are keyed by **item id** in a stable segmented atomic
//! bitmap (word `id / 64`, bit `id % 64`), not by ring position in a
//! growable `Vec`. [`Clock::touch`] therefore only ever dereferences
//! storage that never moves, so lock-free optimistic readers (DESIGN.md
//! §11) may call it concurrently with `admit`/`evict`/`remove` mutations.
//! Relaxed ordering is sufficient: a reference bit is a cache-freshness
//! *hint* — a lost or stale set only perturbs the eviction order, never
//! correctness — and `admit` explicitly sets the bit, so a stale bit left
//! by a racing touch on a dying id is erased when the id is recycled.

use crate::seqlock::AtomicSegArray;
use std::sync::atomic::Ordering;

/// A CLOCK ring over item ids.
#[derive(Debug, Default)]
pub struct Clock {
    entries: Vec<u32>,
    /// Reference bits keyed by item id: word `id / 64`, bit `id % 64`.
    /// Stable addresses — safe for racy `touch` from optimistic readers.
    referenced: AtomicSegArray,
    /// Position of entry in `entries`, by item id (dense ids assumed).
    position: Vec<Option<u32>>,
    hand: usize,
}

#[inline(always)]
fn bit_of(item: u32) -> (usize, u64) {
    ((item / 64) as usize, 1u64 << (item % 64))
}

impl Clock {
    /// Create an empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Track a new item (initially referenced, like a fresh insert).
    pub fn admit(&mut self, item: u32) {
        let pos = self.entries.len() as u32;
        self.entries.push(item);
        let (word, bit) = bit_of(item);
        self.referenced
            .get_or_alloc(word)
            .fetch_or(bit, Ordering::Relaxed);
        if self.position.len() <= item as usize {
            self.position.resize_with(item as usize + 1, || None);
        }
        debug_assert!(self.position[item as usize].is_none(), "double admit");
        self.position[item as usize] = Some(pos);
    }

    /// Mark an item as recently used. Takes `&self` and touches only the
    /// stable atomic bitmap — safe to call from lock-free concurrent
    /// readers racing `admit`/`evict` on other threads. Unknown ids are a
    /// no-op (their bitmap word may not exist yet); ids whose entry is
    /// concurrently dying may leave a stale bit, which `admit` overwrites
    /// on recycle.
    ///
    /// Test before set: `admit` leaves the bit set and only an eviction
    /// sweep clears it, so on a read-mostly store nearly every touch finds
    /// it set already — and a load keeps the bitmap line Shared among
    /// reader threads where an unconditional `lock or` would pull it
    /// Exclusive on every hit. A sweep clearing the bit between the load and
    /// the skipped write loses one reference, which is the hint's licence.
    pub fn touch(&self, item: u32) {
        let (word, bit) = bit_of(item);
        if let Some(w) = self.referenced.get(word) {
            if w.load(Ordering::Relaxed) & bit == 0 {
                w.fetch_or(bit, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn test_and_clear(&self, item: u32) -> bool {
        let (word, bit) = bit_of(item);
        match self.referenced.get(word) {
            Some(w) => w.fetch_and(!bit, Ordering::Relaxed) & bit != 0,
            None => false,
        }
    }

    /// Pick a victim: sweep the hand, clearing reference bits, until an
    /// unreferenced item is found. Returns `None` when the ring is empty.
    pub fn evict(&mut self) -> Option<u32> {
        self.evict_with(|_| false).map(|(item, _)| item)
    }

    /// [`Clock::evict`] with TTL reclamation integrated into the sweep
    /// (DESIGN.md §13): at each hand position the victim test is
    /// dead-first — an item the predicate marks expired is reclaimed
    /// immediately, *before* its reference bit (or any later entry's)
    /// can hand a live item to the caller. Returns the removed item and
    /// whether it was expired. With an always-false predicate this is
    /// bit-for-bit the classic CLOCK sweep. The hand does not advance
    /// past a reclaimed slot, so the entry swapped into it is examined
    /// by the very next sweep.
    pub fn evict_with(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<(u32, bool)> {
        if self.entries.is_empty() {
            return None;
        }
        // At most two sweeps: the first clears every bit.
        for _ in 0..2 * self.entries.len() {
            let pos = self.hand % self.entries.len();
            let item = self.entries[pos];
            if is_expired(item) {
                self.remove_at(pos);
                return Some((item, true));
            }
            self.hand = (self.hand + 1) % self.entries.len();
            if self.test_and_clear(item) {
                continue;
            }
            self.remove_at(pos);
            return Some((item, false));
        }
        // All bits were set and re-set concurrently; evict at the hand.
        let pos = self.hand % self.entries.len();
        let item = self.entries[pos];
        self.remove_at(pos);
        Some((item, false))
    }

    /// Stop tracking an item (e.g. explicit delete).
    pub fn remove(&mut self, item: u32) {
        if let Some(Some(pos)) = self.position.get(item as usize).copied() {
            self.remove_at(pos as usize);
        }
    }

    fn remove_at(&mut self, pos: usize) {
        let item = self.entries[pos];
        self.position[item as usize] = None;
        self.entries.swap_remove(pos);
        if pos < self.entries.len() {
            let moved = self.entries[pos];
            self.position[moved as usize] = Some(pos as u32);
        }
        if self.hand > self.entries.len() {
            self.hand = 0;
        }
    }

    /// Items currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_unreferenced_first() {
        let mut clock = Clock::new();
        for i in 0..4 {
            clock.admit(i);
        }
        // First sweep clears all fresh bits; second finds item 0.
        assert_eq!(clock.evict(), Some(0));
        // Touch 1 so the hand passes it and lands on 2.
        clock.touch(1);
        assert_eq!(clock.evict(), Some(2));
    }

    #[test]
    fn touch_protects_item() {
        let mut clock = Clock::new();
        for i in 0..3 {
            clock.admit(i);
        }
        // One eviction (clears bits + evicts 0).
        assert_eq!(clock.evict(), Some(0));
        clock.touch(1);
        // 2 is unreferenced now, 1 was touched.
        assert_eq!(clock.evict(), Some(2));
        assert_eq!(clock.len(), 1);
    }

    #[test]
    fn touch_sets_a_cleared_bit_and_leaves_a_set_one() {
        let mut clock = Clock::new();
        for i in 0..3 {
            clock.admit(i);
        }
        let bits = |c: &Clock| c.referenced.get(0).unwrap().load(Ordering::Relaxed);
        // Fresh admits are referenced; touching them changes nothing.
        assert_eq!(bits(&clock), 0b111);
        clock.touch(1);
        assert_eq!(bits(&clock), 0b111);
        // One eviction sweeps every bit clear on its way to victim 0 ...
        assert_eq!(clock.evict(), Some(0));
        assert_eq!(bits(&clock), 0);
        // ... and the next touch sets its bit again, so 1 survives exactly
        // one pass: the hand clears it, takes 2, and takes 1 after that.
        clock.touch(1);
        assert_eq!(bits(&clock), 0b010);
        assert_eq!(clock.evict(), Some(2));
        assert_eq!(bits(&clock), 0);
        assert_eq!(clock.evict(), Some(1));
    }

    #[test]
    fn empty_ring_returns_none() {
        let mut clock = Clock::new();
        assert_eq!(clock.evict(), None);
    }

    #[test]
    fn remove_untracks() {
        let mut clock = Clock::new();
        clock.admit(7);
        clock.admit(8);
        clock.remove(7);
        assert_eq!(clock.len(), 1);
        assert_eq!(clock.evict(), Some(8));
        assert!(clock.is_empty());
    }

    #[test]
    fn evict_everything_eventually() {
        let mut clock = Clock::new();
        for i in 0..100 {
            clock.admit(i);
        }
        let mut evicted = std::collections::HashSet::new();
        while let Some(i) = clock.evict() {
            assert!(evicted.insert(i), "item {i} evicted twice");
        }
        assert_eq!(evicted.len(), 100);
    }

    #[test]
    fn touch_unknown_item_is_noop() {
        let clock = Clock::new();
        clock.touch(42); // must not panic
    }

    #[test]
    fn admit_after_evict_reuses_cleanly() {
        let mut clock = Clock::new();
        clock.admit(0);
        clock.admit(1);
        assert!(clock.evict().is_some());
        clock.admit(2);
        assert_eq!(clock.len(), 2);
        let mut drained = vec![];
        while let Some(i) = clock.evict() {
            drained.push(i);
        }
        drained.sort_unstable();
        assert_eq!(drained.len(), 2);
    }

    #[test]
    fn evict_with_reclaims_expired_before_live_victims() {
        let mut clock = Clock::new();
        for i in 0..4 {
            clock.admit(i);
        }
        // All reference bits are fresh, so a plain sweep would need a
        // full lap before finding a live victim — an expired entry
        // mid-ring is reclaimed first because the dead-first test runs
        // before (and regardless of) the reference-bit test.
        assert_eq!(clock.evict_with(|i| i == 2), Some((2, true)));
        assert_eq!(clock.len(), 3);
        // With nothing expired the sweep degenerates to classic CLOCK:
        // bits 0 and 1 were cleared on the way to the corpse, so after
        // the still-referenced tail entry gets its second chance the
        // hand wraps to 0.
        assert_eq!(clock.evict_with(|_| false), Some((0, false)));
        // Draining a ring of corpses reclaims every entry as expired.
        assert_eq!(clock.evict_with(|_| true), Some((1, true)));
        assert_eq!(clock.evict_with(|_| true), Some((3, true)));
        assert_eq!(clock.evict_with(|_| true), None);
    }

    #[test]
    fn stale_touch_bit_is_erased_by_readmit() {
        let mut clock = Clock::new();
        clock.admit(5);
        clock.remove(5);
        // A racing reader may touch a just-removed id; the stale bit must
        // not grant the recycled id extra protection beyond the usual
        // fresh-admit reference.
        clock.touch(5);
        clock.admit(5);
        clock.admit(6);
        // Sweep clears both fresh bits, then 5 (first in ring) goes.
        assert_eq!(clock.evict(), Some(5));
    }
}
