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

/// `position` value of an id the ring does not hold.
const NOT_IN_RING: u32 = u32::MAX;

/// What [`Clock::evict_with`] removed from the ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The evicted item id.
    pub item: u32,
    /// The key hash [`Clock::admit`] recorded for it.
    pub hash: u32,
    /// Whether the sweep's predicate called it expired.
    pub expired: bool,
}

/// A CLOCK ring over item ids.
///
/// A ring entry is `(item id, key hash)`: the hash is what the index needs
/// to drop the victim, and carrying it here means an eviction never reads
/// the victim's slab chunk to re-hash its key (DESIGN.md §12). Per tracked
/// id that is eight bytes of ring and four of `position` — what the id
/// alone plus a `Vec<Option<u32>>` position cost.
#[derive(Debug, Default)]
pub struct Clock {
    entries: Vec<(u32, u32)>,
    /// Reference bits keyed by item id: word `id / 64`, bit `id % 64`.
    /// Stable addresses — safe for racy `touch` from optimistic readers.
    referenced: AtomicSegArray,
    /// Position of entry in `entries`, by item id (dense ids assumed);
    /// [`NOT_IN_RING`] for ids not tracked.
    position: Vec<u32>,
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

    /// Track a new item (initially referenced, like a fresh insert) and
    /// the hash of its key, which [`Clock::evict_with`] hands back.
    pub fn admit(&mut self, item: u32, hash: u32) {
        let pos = self.entries.len() as u32;
        self.entries.push((item, hash));
        let (word, bit) = bit_of(item);
        self.referenced
            .get_or_alloc(word)
            .fetch_or(bit, Ordering::Relaxed);
        if self.position.len() <= item as usize {
            self.position.resize(item as usize + 1, NOT_IN_RING);
        }
        debug_assert_eq!(self.position[item as usize], NOT_IN_RING, "double admit");
        self.position[item as usize] = pos;
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
        self.evict_with(|_| false).map(|v| v.item)
    }

    /// [`Clock::evict`] with TTL reclamation integrated into the sweep
    /// (DESIGN.md §13): at each hand position the victim test is
    /// dead-first — an item the predicate marks expired is reclaimed
    /// immediately, *before* its reference bit (or any later entry's)
    /// can hand a live item to the caller. Returns the removed entry and
    /// whether it was expired. With an always-false predicate this is
    /// bit-for-bit the classic CLOCK sweep. The hand does not advance
    /// past a reclaimed slot, so the entry swapped into it is examined
    /// by the very next sweep.
    pub fn evict_with(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<Victim> {
        if self.entries.is_empty() {
            return None;
        }
        // At most two sweeps: the first clears every bit.
        for _ in 0..2 * self.entries.len() {
            let pos = self.hand % self.entries.len();
            let (item, hash) = self.entries[pos];
            let expired = is_expired(item);
            if !expired {
                self.hand = (self.hand + 1) % self.entries.len();
                if self.test_and_clear(item) {
                    continue;
                }
            }
            self.remove_at(pos);
            return Some(Victim {
                item,
                hash,
                expired,
            });
        }
        // All bits were set and re-set concurrently; evict at the hand.
        let pos = self.hand % self.entries.len();
        let (item, hash) = self.entries[pos];
        self.remove_at(pos);
        Some(Victim {
            item,
            hash,
            expired: false,
        })
    }

    /// The `(item id, key hash)` entry `distance` ring slots ahead of the
    /// hand, wrapping (`0` is the entry the next sweep examines first);
    /// `None` on an empty ring. The eviction look-ahead (DESIGN.md §12)
    /// reads its prefetch targets here; the hand passes entries in this
    /// order until a removal moves the ring's last entry into the gap.
    #[inline]
    pub fn ahead(&self, distance: usize) -> Option<(u32, u32)> {
        let len = self.entries.len();
        if len == 0 {
            return None;
        }
        // The hand rests below `len` (at it, right after a removal at the
        // ring's end) and a look-ahead reaches a few entries, so on the hot
        // path each reduction is a compare, not a division.
        let reduce = |n: usize| if n < len { n } else { n % len };
        Some(self.entries[reduce(reduce(self.hand) + reduce(distance))])
    }

    /// Request the cache line of `item`'s `position` slot, which removing
    /// it from the ring rewrites. A hint only.
    #[inline]
    pub fn prefetch_position(&self, item: u32) {
        if let Some(slot) = self.position.get(item as usize) {
            simdht_simd::prefetch_read(slot);
        }
    }

    /// Stop tracking an item (e.g. explicit delete).
    pub fn remove(&mut self, item: u32) {
        if let Some(&pos) = self.position.get(item as usize) {
            if pos != NOT_IN_RING {
                self.remove_at(pos as usize);
            }
        }
    }

    fn remove_at(&mut self, pos: usize) {
        let (item, _) = self.entries[pos];
        self.position[item as usize] = NOT_IN_RING;
        self.entries.swap_remove(pos);
        if pos < self.entries.len() {
            let (moved, _) = self.entries[pos];
            self.position[moved as usize] = pos as u32;
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

    /// A stand-in key hash, distinct per id.
    fn h(item: u32) -> u32 {
        item.wrapping_mul(0x9E37_79B9) ^ 0x5bd1
    }

    fn victim(item: u32, expired: bool) -> Victim {
        Victim {
            item,
            hash: h(item),
            expired,
        }
    }

    #[test]
    fn evicts_unreferenced_first() {
        let mut clock = Clock::new();
        for i in 0..4 {
            clock.admit(i, h(i));
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
            clock.admit(i, h(i));
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
            clock.admit(i, h(i));
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
        clock.admit(7, h(7));
        clock.admit(8, h(8));
        clock.remove(7);
        assert_eq!(clock.len(), 1);
        assert_eq!(clock.evict(), Some(8));
        assert!(clock.is_empty());
    }

    #[test]
    fn evict_everything_eventually() {
        let mut clock = Clock::new();
        for i in 0..100 {
            clock.admit(i, h(i));
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
        clock.admit(0, h(0));
        clock.admit(1, h(1));
        assert!(clock.evict().is_some());
        clock.admit(2, h(2));
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
            clock.admit(i, h(i));
        }
        // All reference bits are fresh, so a plain sweep would need a
        // full lap before finding a live victim — an expired entry
        // mid-ring is reclaimed first because the dead-first test runs
        // before (and regardless of) the reference-bit test.
        assert_eq!(clock.evict_with(|i| i == 2), Some(victim(2, true)));
        assert_eq!(clock.len(), 3);
        // With nothing expired the sweep degenerates to classic CLOCK:
        // bits 0 and 1 were cleared on the way to the corpse, so after
        // the still-referenced tail entry gets its second chance the
        // hand wraps to 0.
        assert_eq!(clock.evict_with(|_| false), Some(victim(0, false)));
        // Draining a ring of corpses reclaims every entry as expired.
        assert_eq!(clock.evict_with(|_| true), Some(victim(1, true)));
        assert_eq!(clock.evict_with(|_| true), Some(victim(3, true)));
        assert_eq!(clock.evict_with(|_| true), None);
    }

    #[test]
    fn stale_touch_bit_is_erased_by_readmit() {
        let mut clock = Clock::new();
        clock.admit(5, h(5));
        clock.remove(5);
        // A racing reader may touch a just-removed id; the stale bit must
        // not grant the recycled id extra protection beyond the usual
        // fresh-admit reference.
        clock.touch(5);
        clock.admit(5, h(5));
        clock.admit(6, h(6));
        // Sweep clears both fresh bits, then 5 (first in ring) goes.
        assert_eq!(clock.evict(), Some(5));
    }

    /// The obvious ring: reference bits inline, no position table, linear
    /// search on remove.
    #[derive(Default)]
    struct Model {
        ring: Vec<(u32, u32, bool)>,
        hand: usize,
    }

    impl Model {
        fn slot_of(&self, item: u32) -> Option<usize> {
            self.ring.iter().position(|e| e.0 == item)
        }

        fn remove_at(&mut self, pos: usize) {
            self.ring.swap_remove(pos);
            if self.hand > self.ring.len() {
                self.hand = 0;
            }
        }

        fn evict_with(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<Victim> {
            if self.ring.is_empty() {
                return None;
            }
            loop {
                let pos = self.hand % self.ring.len();
                let (item, hash, referenced) = self.ring[pos];
                let expired = is_expired(item);
                if !expired {
                    self.hand = (self.hand + 1) % self.ring.len();
                    if referenced {
                        self.ring[pos].2 = false;
                        continue;
                    }
                }
                self.remove_at(pos);
                return Some(Victim {
                    item,
                    hash,
                    expired,
                });
            }
        }

        fn ahead(&self, distance: usize) -> Option<(u32, u32)> {
            let mut at = self.hand.checked_rem(self.ring.len())?;
            for _ in 0..distance {
                at = (at + 1) % self.ring.len();
            }
            Some((self.ring[at].0, self.ring[at].1))
        }
    }

    fn assert_matches_model(clock: &Clock, model: &Model, at: &str) {
        assert_eq!(clock.len(), model.ring.len(), "{at}: length");
        // `position` and `entries` name each other, and nothing else.
        for (pos, &(item, hash)) in clock.entries.iter().enumerate() {
            assert_eq!(clock.position[item as usize], pos as u32, "{at}: id {item}");
            assert_eq!(hash, h(item), "{at}: id {item} lost its hash");
        }
        let tracked = clock.position.iter().filter(|&&p| p != NOT_IN_RING);
        assert_eq!(tracked.count(), clock.len(), "{at}: stale position slot");
        let len = clock.len();
        for distance in [0, 1, len.saturating_sub(1), len, len + 3, 10 * len + 7] {
            assert_eq!(
                clock.ahead(distance),
                model.ahead(distance),
                "{at}: look-ahead {distance} on a ring of {len}",
            );
        }
    }

    #[test]
    fn matches_a_naive_ring_under_seeded_random_operations() {
        const IDS: u64 = 48;
        for seed in 0..8u64 {
            let mut state = 0xC10C_0000 + seed;
            let mut rng = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let (mut clock, mut model) = (Clock::new(), Model::default());
            assert_matches_model(&clock, &model, "empty ring");
            for op in 0..4000 {
                let item = (rng() % IDS) as u32;
                let at = format!("seed {seed}, op {op}");
                match rng() % 8 {
                    // Admit whatever is not tracked — the ring drains to
                    // empty and to a single entry often enough at 48 ids.
                    0..=2 => {
                        if model.slot_of(item).is_none() {
                            clock.admit(item, h(item));
                            model.ring.push((item, h(item), true));
                        }
                    }
                    3 => {
                        clock.touch(item);
                        if let Some(pos) = model.slot_of(item) {
                            model.ring[pos].2 = true;
                        }
                    }
                    4 => {
                        clock.remove(item);
                        if let Some(pos) = model.slot_of(item) {
                            model.remove_at(pos);
                        }
                    }
                    // Evict, with a different quarter of the ids expired
                    // each time (none, every other time).
                    _ => {
                        let dead = if rng() % 2 == 0 { 0 } else { rng() & rng() };
                        let is_expired = |id: u32| (dead >> id) & 1 != 0;
                        assert_eq!(
                            clock.evict_with(is_expired),
                            model.evict_with(is_expired),
                            "{at}: victim",
                        );
                    }
                }
                assert_matches_model(&clock, &model, &at);
            }
        }
    }

    #[test]
    fn look_ahead_wraps_on_rings_of_none_and_one() {
        let mut clock = Clock::new();
        assert_eq!(clock.ahead(0), None);
        assert_eq!(clock.ahead(17), None);
        clock.admit(9, h(9));
        for distance in [0, 1, 2, 1000] {
            assert_eq!(clock.ahead(distance), Some((9, h(9))));
        }
        clock.admit(4, h(4));
        // Two entries, hand on the first: even distances are 9, odd are 4.
        assert_eq!(clock.ahead(0), Some((9, h(9))));
        assert_eq!(clock.ahead(1), Some((4, h(4))));
        assert_eq!(clock.ahead(1001), Some((4, h(4))));
        assert_eq!(clock.evict(), Some(9));
        assert_eq!(clock.ahead(5), Some((4, h(4))));
        assert_eq!(clock.evict(), Some(4));
        assert_eq!(clock.ahead(0), None);
    }
}
