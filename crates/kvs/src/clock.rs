//! Two-queue cache eviction: a probationary FIFO in front of MemC3's CLOCK.
//!
//! MemC3 (NSDI'13) replaces memcached's doubly-linked LRU with a CLOCK
//! ring: one reference bit per item, set on access (cheap, shared-friendly),
//! swept by a rotating hand on eviction. The paper's post-processing phase
//! (§VI-A step 3, "updates its metadata to maintain cache freshness") is
//! the touch operation.
//!
//! That ring is the *main* queue here, behind a small probationary FIFO
//! after S3-FIFO (Yang et al., SOSP '23). A new item enters the FIFO's
//! tail. An eviction pops the FIFO's head: an item read since it arrived
//! moves to the main ring, one that was not is the victim. The main ring's
//! hand sweeps only while the FIFO holds under a tenth (`FIFO_SHARE`) of
//! the tracked items, so a write that is never read leaves after one trip
//! through the FIFO instead of surviving a full lap of the hand. Both
//! queues share the one reference bitmap.
//!
//! # Read-miss admission
//!
//! In a look-aside cache a key's request and its insert are separate
//! operations: a read misses, then the client writes the key. The read
//! that missed is the evidence that the key is wanted, so it writes an
//! 8-bit tag of the key into a slot of the **wanted filter**
//! ([`Clock::want`]) — one byte per eight items of capacity, slot and tag
//! both taken from a remix of the key hash. A fresh [`Clock::admit`] whose
//! key's tag sits in its slot takes it, and the item enters the FIFO's
//! tail already referenced: its pop promotes it. This is S3-FIFO's ghost
//! queue in look-aside form, fed by readers only, so a write stream that
//! re-inserts evicted keys does not admit itself.
//!
//! A later want for another key of the slot overwrites the tag, so a full
//! filter remembers the latest misses, and an admit whose key nobody asked
//! for matches a stranger's tag about one time in 255 however many keys
//! were missed. A filter of bits would not have that bound: each miss sets a
//! bit that any key sharing it takes as its own, and a steady stream of
//! misses on keys nobody writes would leave most bits set, promoting most
//! fresh writes. Every 8 evictions zero one slot at a rotating cursor, so
//! a want lapses after about as many evictions as the filter has bits.
//!
//! A replaced item hands its queue and reference bit ([`Standing`]) to the
//! new item's [`Clock::admit`], which leaves the filter alone. A removal
//! from the FIFO leaves a tombstone that the pop skips, and the FIFO is
//! compacted in place once tombstones outnumber live entries, so a
//! warmed-up queue allocates nothing.
//!
//! # Reference bits written under a shared lock
//!
//! Readers hold only the shard's *shared* lock, yet every hit sets a
//! reference bit ([`Clock::touch`]) and every miss writes a wanted-filter
//! tag ([`Clock::want`]), so several readers may write one word at once.
//! Both are therefore atomic: the bits are keyed by **item id** in a
//! segmented atomic bitmap (word `id / 64`, bit `id % 64`), and the filter
//! is a slice of `AtomicU8` allocated once, at its full size. The
//! mutations that grow or clear them (`admit`, `evict`, `remove`) run under
//! the write lock, so no reader races them. Relaxed ordering is
//! sufficient: the bit and the tag are cache-freshness *hints* — a lost
//! write between two readers only perturbs the eviction order, never
//! correctness.

use crate::segarray::AtomicSegArray;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};

/// `position` value of an id neither queue holds.
const UNTRACKED: u32 = u32::MAX;
/// `position` bit naming the main ring; clear for the FIFO. The other 31
/// bits are the entry's index in the main ring, or its FIFO sequence
/// number.
const IN_MAIN: u32 = 1 << 31;
/// FIFO sequence numbers count modulo 2^31.
const SEQ: u32 = IN_MAIN - 1;
/// The item id of a FIFO slot whose entry was removed.
const TOMBSTONE: u32 = u32::MAX;
/// The main ring sweeps only while the FIFO holds fewer than one in
/// `FIFO_SHARE` tracked items.
const FIFO_SHARE: usize = 10;
/// The wanted filter's remix of a key hash: odd, and not the shard
/// router's multiplier, whose top bits every key of one shard shares.
const WANT_MUL: u32 = 0x85EB_CA6B;
/// Evictions per wanted-filter slot zeroed: a lap of the cursor takes as
/// many evictions as the filter has bits.
const AGE_EVERY: u64 = 8;

/// What [`Clock::evict_with`] removed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The evicted item id.
    pub item: u32,
    /// The key hash [`Clock::admit`] recorded for it.
    pub hash: u32,
    /// Whether the predicate called it expired.
    pub expired: bool,
}

/// Where a removed item stood — its queue and its reference bit — for the
/// [`Clock::admit`] of the item that replaces it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Standing {
    /// It sat in the main ring (else in the FIFO).
    pub main: bool,
    /// Its reference bit was set.
    pub referenced: bool,
}

/// A probationary FIFO and a CLOCK ring over item ids.
///
/// An entry is `(item id, key hash)`: the hash is what the index needs to
/// drop the victim, and carrying it here means an eviction never reads the
/// victim's slab chunk to re-hash its key (DESIGN.md §12). Per tracked id
/// that is eight bytes of queue and four of `position`, plus the FIFO's
/// tombstones; the wanted filter adds one byte per eight items of capacity.
#[derive(Debug)]
pub struct Clock {
    /// The FIFO, oldest first: live entries and the tombstones removals
    /// left. The entry at index `i` has sequence number `fifo_front + i`
    /// (modulo 2^31), which `position` holds, so popping renumbers nothing.
    fifo: VecDeque<(u32, u32)>,
    fifo_front: u32,
    /// Live (non-tombstone) entries in `fifo`.
    fifo_live: usize,
    /// The main ring and its hand.
    main: Vec<(u32, u32)>,
    hand: usize,
    /// Reference bits keyed by item id: word `id / 64`, bit `id % 64`.
    /// Atomic — readers under the shared lock `touch` them concurrently.
    referenced: AtomicSegArray,
    /// By item id (dense ids assumed): [`IN_MAIN`] and the entry's ring
    /// index, or its FIFO sequence number; [`UNTRACKED`] for ids not held.
    position: Vec<u32>,
    /// The wanted filter: slot `WANT_MUL * hash >> wanted_shift` holds the
    /// tag (the remix's low byte, 0 mapped to 1) of the key a read last
    /// missed there, until a fresh admit of that key takes it; 0 is empty.
    /// Allocated zeroed once; atomic — readers under the shared lock
    /// `want` concurrently.
    wanted: Box<[AtomicU8]>,
    /// `32 - log2(slots)`: the remixed hash's top bits name the slot.
    wanted_shift: u32,
    /// Evictions, ever: every [`AGE_EVERY`]-th zeroes the next filter slot.
    evictions: u64,
    /// FIFO entries moved to the main ring, ever.
    promotions: u64,
    /// Fresh admits that found their key's tag in the wanted filter, ever.
    wanted_admits: u64,
}

#[inline(always)]
fn bit_of(item: u32) -> (usize, u64) {
    ((item / 64) as usize, 1u64 << (item % 64))
}

impl Clock {
    /// Create an empty pair of queues for a shard of `capacity_items`
    /// items, whose wanted filter takes one byte per eight items, rounded
    /// up to a power of two (8 bytes at least).
    pub fn new(capacity_items: usize) -> Self {
        let bits = capacity_items.clamp(64, 1 << 31).next_power_of_two();
        let slots = bits / 8;
        Self {
            fifo: VecDeque::new(),
            fifo_front: 0,
            fifo_live: 0,
            main: Vec::new(),
            hand: 0,
            referenced: AtomicSegArray::default(),
            position: Vec::new(),
            wanted: (0..slots).map(|_| AtomicU8::new(0)).collect(),
            wanted_shift: 32 - slots.trailing_zeros(),
            evictions: 0,
            promotions: 0,
            wanted_admits: 0,
        }
    }

    /// Track a new item and the hash of its key, which
    /// [`Clock::evict_with`] hands back. A fresh item (`None`) enters the
    /// FIFO's tail, referenced if and only if a read wanted its key
    /// ([`Clock::want`]), whose tag it takes; the replacement of a removed
    /// item enters the tail of the queue the old one left, with its
    /// reference bit, and leaves the filter alone.
    pub fn admit(&mut self, item: u32, hash: u32, replaces: Option<Standing>) {
        let standing = replaces.unwrap_or_else(|| {
            let referenced = self.take_want(hash);
            self.wanted_admits += u64::from(referenced);
            Standing {
                main: false,
                referenced,
            }
        });
        // The queue grows before `position` does, as it did when the ring
        // was one `Vec`: the order of the two buffers' reallocations sets
        // how much of a rebuilt store's heap the allocator keeps resident.
        let at = if standing.main {
            self.push_main(item, hash)
        } else {
            self.fifo.push_back((item, hash));
            self.fifo_live += 1;
            self.fifo_front.wrapping_add(self.fifo.len() as u32 - 1) & SEQ
        };
        let (word, bit) = bit_of(item);
        let w = self.referenced.get_or_alloc(word);
        if standing.referenced {
            w.fetch_or(bit, Ordering::Relaxed);
        } else {
            w.fetch_and(!bit, Ordering::Relaxed);
        }
        if self.position.len() <= item as usize {
            self.position.resize(item as usize + 1, UNTRACKED);
        }
        debug_assert_eq!(self.position[item as usize], UNTRACKED, "double admit");
        self.position[item as usize] = at;
    }

    /// Insert at the main ring's tail — the slot the hand reaches last —
    /// and return the new entry's `position` value (which the caller
    /// stores). The entry the hand was about to examine moves to the end
    /// of the ring, still ahead of the hand.
    fn push_main(&mut self, item: u32, hash: u32) -> u32 {
        let len = self.main.len();
        if self.hand >= len {
            self.hand = 0;
        }
        self.main.push((item, hash));
        if len == 0 {
            return IN_MAIN;
        }
        self.main.swap(self.hand, len);
        let (moved, _) = self.main[len];
        self.position[moved as usize] = IN_MAIN | len as u32;
        self.hand += 1;
        IN_MAIN | (self.hand - 1) as u32
    }

    /// Mark an item as recently used. Takes `&self` and touches only the
    /// atomic bitmap, so readers sharing the shard lock may call it at
    /// once. Unknown ids are a no-op (their bitmap word may not exist
    /// yet).
    ///
    /// Test before set: once a read has set the bit only an eviction clears
    /// it, so on a read-mostly store nearly every touch finds it set already
    /// — and a load keeps the bitmap line Shared among reader threads where
    /// an unconditional `lock or` would pull it Exclusive on every hit. An
    /// eviction clearing the bit between the load and the skipped write
    /// loses one reference, which is the hint's licence.
    pub fn touch(&self, item: u32) {
        let (word, bit) = bit_of(item);
        if let Some(w) = self.referenced.get(word) {
            if w.load(Ordering::Relaxed) & bit == 0 {
                w.fetch_or(bit, Ordering::Relaxed);
            }
        }
    }

    /// Record that a read asked for the key of `hash` and did not find it
    /// live, so its next fresh [`Clock::admit`] enters referenced, unless
    /// a want for another key of its slot comes first. Takes `&self` and
    /// touches only the atomic filter, like [`Clock::touch`], with its
    /// test-before-set: a key missed again and again keeps its filter line
    /// Shared.
    pub fn want(&self, hash: u32) {
        let (slot, tag) = self.wanted_slot(hash);
        let s = &self.wanted[slot];
        if s.load(Ordering::Relaxed) != tag {
            s.store(tag, Ordering::Relaxed);
        }
    }

    /// Empty `hash`'s slot if it holds the key's tag; whether it did. The
    /// load first keeps an admit that nobody asked for from writing the
    /// line; a want racing between the load and the store is lost, which
    /// the hint allows.
    fn take_want(&self, hash: u32) -> bool {
        let (slot, tag) = self.wanted_slot(hash);
        let s = &self.wanted[slot];
        let wanted = s.load(Ordering::Relaxed) == tag;
        if wanted {
            s.store(0, Ordering::Relaxed);
        }
        wanted
    }

    #[inline(always)]
    fn wanted_slot(&self, hash: u32) -> (usize, u8) {
        let n = hash.wrapping_mul(WANT_MUL);
        ((n >> self.wanted_shift) as usize, (n as u8).max(1))
    }

    #[inline]
    fn test_and_clear(&self, item: u32) -> bool {
        let (word, bit) = bit_of(item);
        match self.referenced.get(word) {
            Some(w) => w.fetch_and(!bit, Ordering::Relaxed) & bit != 0,
            None => false,
        }
    }

    /// Whether the next eviction sweeps the main ring (else it pops the
    /// FIFO): the ring holds something and the FIFO is under its share.
    #[inline]
    fn sweeps_main(&self) -> bool {
        !self.main.is_empty() && self.fifo_live * FIFO_SHARE < self.len()
    }

    /// Pick a victim with no TTLs in play. Returns `None` when nothing is
    /// tracked.
    pub fn evict(&mut self) -> Option<u32> {
        self.evict_with(|_| false).map(|v| v.item)
    }

    /// Remove one entry under pressure, with TTL reclamation integrated
    /// (DESIGN.md §13): every entry an eviction examines, in either queue,
    /// is first offered to `is_expired`, and an expired one is reclaimed
    /// at once — before its reference bit can count. Otherwise a FIFO pop
    /// promotes a referenced head to the main ring (clearing its bit) and
    /// goes on, or evicts an unreferenced one; a main sweep is classic
    /// CLOCK. Returns the removed entry and whether it was expired, `None`
    /// when nothing is tracked. Every [`AGE_EVERY`]-th removal zeroes the
    /// next slot of the wanted filter.
    pub fn evict_with(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<Victim> {
        let victim = self.pick_victim(is_expired)?;
        self.evictions += 1;
        if self.evictions.is_multiple_of(AGE_EVERY) {
            let slot = (self.evictions / AGE_EVERY - 1) % self.wanted.len() as u64;
            self.wanted[slot as usize].store(0, Ordering::Relaxed);
        }
        Some(victim)
    }

    fn pick_victim(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<Victim> {
        loop {
            if self.sweeps_main() {
                return Some(self.sweep_main(&is_expired));
            }
            let (item, hash) = self.pop_fifo()?;
            let expired = is_expired(item);
            if !expired && self.test_and_clear(item) {
                self.position[item as usize] = self.push_main(item, hash);
                self.promotions += 1;
                continue;
            }
            return Some(Victim {
                item,
                hash,
                expired,
            });
        }
    }

    /// The FIFO's oldest live entry, untracked; `None` on an empty FIFO.
    fn pop_fifo(&mut self) -> Option<(u32, u32)> {
        if self.fifo_live == 0 {
            return None;
        }
        loop {
            let (item, hash) = self.fifo.pop_front().expect("a live entry is queued");
            self.fifo_front = self.fifo_front.wrapping_add(1) & SEQ;
            if item != TOMBSTONE {
                self.fifo_live -= 1;
                self.position[item as usize] = UNTRACKED;
                self.compact_if_sparse();
                return Some((item, hash));
            }
        }
    }

    /// Once tombstones outnumber live entries, drop them, keeping the live
    /// entries' order, and renumber those: amortized O(1) per removal.
    fn compact_if_sparse(&mut self) {
        if self.fifo.len() <= 2 * self.fifo_live {
            return;
        }
        self.fifo.retain(|e| e.0 != TOMBSTONE);
        for (n, &(item, _)) in self.fifo.iter().enumerate() {
            self.position[item as usize] = self.fifo_front.wrapping_add(n as u32) & SEQ;
        }
    }

    /// One CLOCK sweep of the non-empty main ring: the first unreferenced
    /// or expired entry from the hand on. The hand does not advance past a
    /// reclaimed slot, so the entry swapped into it is examined next.
    fn sweep_main(&mut self, is_expired: &impl Fn(u32) -> bool) -> Victim {
        // At most two laps: the first clears every bit.
        for _ in 0..2 * self.main.len() {
            let pos = self.hand % self.main.len();
            let (item, hash) = self.main[pos];
            let expired = is_expired(item);
            if !expired {
                self.hand = (self.hand + 1) % self.main.len();
                if self.test_and_clear(item) {
                    continue;
                }
            }
            self.remove_main(pos);
            return Victim {
                item,
                hash,
                expired,
            };
        }
        // All bits were set and re-set concurrently; evict at the hand.
        let pos = self.hand % self.main.len();
        let (item, hash) = self.main[pos];
        self.remove_main(pos);
        Victim {
            item,
            hash,
            expired: false,
        }
    }

    /// The `(item id, key hash)` entry `distance` places ahead in the queue
    /// the next eviction examines (`0` is the entry it examines first):
    /// the main ring from the hand, wrapping; the FIFO from its head, not
    /// wrapping past its tail. `None` on an empty queue, past the FIFO's
    /// tail, or on a FIFO tombstone. The eviction look-ahead (DESIGN.md
    /// §12) reads its prefetch targets here.
    #[inline]
    pub fn ahead(&self, distance: usize) -> Option<(u32, u32)> {
        if !self.sweeps_main() {
            let entry = self.fifo.get(distance).copied();
            return entry.filter(|e| e.0 != TOMBSTONE);
        }
        let len = self.main.len();
        // The hand rests below `len` (at it, right after a removal at the
        // ring's end) and a look-ahead reaches a few entries, so on the hot
        // path each reduction is a compare, not a division.
        let reduce = |n: usize| if n < len { n } else { n % len };
        Some(self.main[reduce(reduce(self.hand) + reduce(distance))])
    }

    /// Request the cache line of `item`'s `position` slot, which removing
    /// it from its queue rewrites. A hint only.
    #[inline]
    pub fn prefetch_position(&self, item: u32) {
        if let Some(slot) = self.position.get(item as usize) {
            simdht_simd::prefetch_read(slot);
        }
    }

    /// Stop tracking an item (a delete, or the first half of a replace):
    /// where it stood, for the replacement's [`Clock::admit`]; `None` for
    /// an id not tracked.
    pub fn remove(&mut self, item: u32) -> Option<Standing> {
        let pos = *self.position.get(item as usize)?;
        if pos == UNTRACKED {
            return None;
        }
        let (word, bit) = bit_of(item);
        let referenced = self
            .referenced
            .get(word)
            .is_some_and(|w| w.load(Ordering::Relaxed) & bit != 0);
        let main = pos & IN_MAIN != 0;
        if main {
            self.remove_main((pos & !IN_MAIN) as usize);
        } else {
            let n = pos.wrapping_sub(self.fifo_front) & SEQ;
            self.fifo[n as usize].0 = TOMBSTONE;
            self.fifo_live -= 1;
            self.position[item as usize] = UNTRACKED;
            self.compact_if_sparse();
        }
        Some(Standing { main, referenced })
    }

    fn remove_main(&mut self, pos: usize) {
        let (item, _) = self.main[pos];
        self.position[item as usize] = UNTRACKED;
        self.main.swap_remove(pos);
        if pos < self.main.len() {
            let (moved, _) = self.main[pos];
            self.position[moved as usize] = IN_MAIN | pos as u32;
        }
        if self.hand > self.main.len() {
            self.hand = 0;
        }
    }

    /// Every tracked `(item id, key hash)`: the FIFO oldest first, then the
    /// main ring from its first slot.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let fifo = self.fifo.iter().filter(|e| e.0 != TOMBSTONE);
        fifo.chain(self.main.iter()).copied()
    }

    /// FIFO entries moved to the main ring since the queues were made.
    pub(crate) fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Fresh admits that entered referenced because a read wanted their
    /// key, since the queues were made.
    pub(crate) fn wanted_admits(&self) -> u64 {
        self.wanted_admits
    }

    /// Items currently tracked, in both queues.
    pub fn len(&self) -> usize {
        self.fifo_live + self.main.len()
    }

    /// `true` when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

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

    fn admit_fresh(clock: &mut Clock, items: impl IntoIterator<Item = u32>) {
        for i in items {
            clock.admit(i, h(i), None);
        }
    }

    #[test]
    fn evicts_unreferenced_first() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..4);
        // Fresh admits are unreferenced: the FIFO's head goes first.
        assert_eq!(clock.evict(), Some(0));
        // A read item is promoted, so the pop lands on the next one.
        clock.touch(1);
        assert_eq!(clock.evict(), Some(2));
        assert_eq!(clock.promotions(), 1);
    }

    #[test]
    fn touch_protects_item() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..3);
        assert_eq!(clock.evict(), Some(0));
        clock.touch(1);
        // 2 is unreferenced, 1 was touched and moves to the main ring.
        assert_eq!(clock.evict(), Some(2));
        assert_eq!(clock.len(), 1);
    }

    #[test]
    fn touch_sets_a_cleared_bit_and_leaves_a_set_one() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..3);
        let bits = |c: &Clock| c.referenced.get(0).unwrap().load(Ordering::Relaxed);
        // Fresh admits enter unreferenced; a touch sets the bit, a second
        // touch leaves it set.
        assert_eq!(bits(&clock), 0);
        clock.touch(1);
        assert_eq!(bits(&clock), 0b010);
        clock.touch(1);
        assert_eq!(bits(&clock), 0b010);
        // The FIFO pop evicts unreferenced 0 and leaves 1's bit alone ...
        assert_eq!(clock.evict(), Some(0));
        assert_eq!(bits(&clock), 0b010);
        // ... the next one promotes 1, clearing its bit, and evicts 2 ...
        assert_eq!(clock.evict(), Some(2));
        assert_eq!(bits(&clock), 0);
        // ... and a touch in the main ring buys 1 exactly one more pass of
        // the hand: it clears the bit, wraps, and takes 1.
        clock.touch(1);
        assert_eq!(bits(&clock), 0b010);
        assert_eq!(clock.evict(), Some(1));
        assert_eq!(bits(&clock), 0);
    }

    #[test]
    fn empty_queues_return_none() {
        let mut clock = Clock::new(64);
        assert_eq!(clock.evict(), None);
    }

    #[test]
    fn remove_untracks() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, [7, 8]);
        assert_eq!(
            clock.remove(7),
            Some(Standing {
                main: false,
                referenced: false
            })
        );
        assert_eq!(clock.remove(7), None);
        assert_eq!(clock.len(), 1);
        assert_eq!(clock.evict(), Some(8));
        assert!(clock.is_empty());
    }

    #[test]
    fn evict_everything_eventually() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..100);
        for i in (0..100).step_by(3) {
            clock.touch(i);
        }
        let mut evicted = std::collections::HashSet::new();
        while let Some(i) = clock.evict() {
            assert!(evicted.insert(i), "item {i} evicted twice");
        }
        assert_eq!(evicted.len(), 100);
    }

    #[test]
    fn touch_unknown_item_is_noop() {
        let clock = Clock::new(64);
        clock.touch(42); // must not panic
    }

    #[test]
    fn admit_after_evict_reuses_cleanly() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, [0, 1]);
        assert!(clock.evict().is_some());
        admit_fresh(&mut clock, [2]);
        assert_eq!(clock.len(), 2);
        let mut drained = vec![];
        while let Some(i) = clock.evict() {
            drained.push(i);
        }
        drained.sort_unstable();
        assert_eq!(drained.len(), 2);
    }

    #[test]
    fn main_ring_sweeps_only_while_the_fifo_is_under_its_share() {
        let mut clock = Clock::new(64);
        // Twenty read items, promoted one per pop past the unread ones.
        admit_fresh(&mut clock, 0..40);
        for i in (0..40).step_by(2) {
            clock.touch(i);
        }
        for odd in (1..40).step_by(2).take(18) {
            assert_eq!(clock.evict(), Some(odd));
        }
        // FIFO {36, 37, 38, 39}, main 0, 2, ..., 34: at 4 of 22 the FIFO
        // still holds its tenth, so 36 is promoted and 37 evicted.
        assert_eq!(clock.evict(), Some(37));
        assert_eq!(clock.promotions(), 19);
        // At 2 of 21 it does not: the hand sweeps the main ring, whose bits
        // the promotions cleared, and the FIFO keeps 38 and 39.
        assert_eq!(clock.evict(), Some(0));
        let fifo: Vec<u32> = clock.iter().take(2).map(|(i, _)| i).collect();
        assert_eq!(fifo, [38, 39]);
        // At 2 of 20 it is back at its tenth: 38 is promoted, which leaves
        // 1 of 20, and the hand takes the next victim from the ring.
        let next = clock.evict().expect("tracked");
        assert!(next.is_multiple_of(2) && next < 36, "victim {next}");
        assert_eq!(clock.promotions(), 20);
        assert_eq!(clock.iter().next(), Some((39, h(39))));
    }

    #[test]
    fn a_replacement_inherits_queue_and_bit() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..3);
        clock.touch(0);
        assert_eq!(clock.evict(), Some(1)); // 0 promoted
                                            // Replace main-ring 0 (unreferenced since its promotion) by 10,
                                            // and FIFO 2 after a read by 12.
        let main = clock.remove(0).expect("tracked");
        assert_eq!(
            main,
            Standing {
                main: true,
                referenced: false
            }
        );
        clock.admit(10, h(10), Some(main));
        clock.touch(2);
        let fifo = clock.remove(2).expect("tracked");
        assert_eq!(
            fifo,
            Standing {
                main: false,
                referenced: true
            }
        );
        clock.admit(12, h(12), Some(fifo));
        let order: Vec<u32> = clock.iter().map(|(i, _)| i).collect();
        assert_eq!(order, [12, 10]);
        // 12 kept 2's bit, so the pop promotes it; the ring then sweeps
        // and takes 10, whose inherited bit is clear.
        assert_eq!(clock.evict(), Some(10));
        assert_eq!(clock.promotions(), 2);
    }

    #[test]
    fn evict_with_reclaims_expired_before_live_victims() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..4);
        for i in 0..4 {
            clock.touch(i);
        }
        // Every item is referenced, so a FIFO pop would promote each one —
        // but an expired head is reclaimed before its bit is looked at:
        // 0 and 1 are promoted on the way to corpse 2.
        assert_eq!(clock.evict_with(|i| i == 2), Some(victim(2, true)));
        assert_eq!(clock.len(), 3);
        // In the main ring too: 3 is promoted, the FIFO is empty, and the
        // hand meets 0 (touched again: a second chance), then corpse 1.
        clock.touch(0);
        assert_eq!(clock.evict_with(|i| i == 1), Some(victim(1, true)));
        // With nothing expired the sweep is classic CLOCK: 0's bit was
        // cleared on the way to the corpse.
        assert_eq!(clock.evict_with(|_| false), Some(victim(0, false)));
        // Draining queues of corpses reclaims every entry as expired.
        assert_eq!(clock.evict_with(|_| true), Some(victim(3, true)));
        assert_eq!(clock.evict_with(|_| true), None);
    }

    #[test]
    fn stale_touch_bit_is_erased_by_readmit() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, [5]);
        clock.remove(5);
        // A racing reader may touch a just-removed id; the stale bit must
        // not promote the recycled id, which enters unreferenced.
        clock.touch(5);
        admit_fresh(&mut clock, [5, 6]);
        assert_eq!(clock.evict(), Some(5));
    }

    #[test]
    fn tombstones_are_skipped_and_compacted_away() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, 0..8);
        for i in [1, 2, 5] {
            clock.remove(i);
        }
        // Three tombstones among five live entries: no compaction yet.
        assert_eq!(clock.fifo.len(), 8);
        assert_eq!(clock.ahead(1), None, "a tombstone");
        assert_eq!(clock.ahead(3), Some((3, h(3))));
        // The pop skips the tombstones behind 0 ...
        assert_eq!(clock.evict(), Some(0));
        assert_eq!(clock.evict(), Some(3));
        assert_eq!(clock.fifo.len(), 4);
        // ... two tombstones beside two live entries stay ...
        clock.remove(6);
        assert_eq!(clock.fifo.len(), 4);
        assert_eq!(clock.ahead(2), None, "a tombstone");
        // ... and a pop that leaves them the majority compacts.
        assert_eq!(clock.evict(), Some(4));
        assert_eq!(clock.fifo.len(), 1);
        admit_fresh(&mut clock, [4]);
        let order: Vec<u32> = clock.iter().map(|(i, _)| i).collect();
        assert_eq!(order, [7, 4]);
        // The sequence numbers in `position` follow every pop and
        // compaction: removing each entry by id finds it.
        admit_fresh(&mut clock, 100..140);
        for i in [7, 4].into_iter().chain(100..140) {
            assert!(clock.remove(i).is_some(), "{i}");
        }
        assert!(clock.is_empty() && clock.fifo.is_empty());
    }

    #[test]
    fn a_wanted_key_enters_referenced_and_is_promoted_at_its_pop() {
        let mut clock = Clock::new(64);
        // A read asked for 0's key before 0 existed.
        clock.want(h(0));
        admit_fresh(&mut clock, 0..3);
        assert_eq!(clock.wanted_admits(), 1);
        // The pop promotes 0 without a touch, and 1 is the victim.
        assert_eq!(clock.evict(), Some(1));
        assert_eq!(clock.promotions(), 1);
        let order: Vec<u32> = clock.iter().map(|(i, _)| i).collect();
        assert_eq!(order, [2, 0]);
    }

    #[test]
    fn the_take_clears_the_want_so_a_second_admit_enters_unreferenced() {
        let mut clock = Clock::new(64);
        clock.want(h(5));
        clock.admit(5, h(5), None);
        // The key is deleted and written again: nobody asked in between.
        clock.remove(5);
        clock.admit(6, h(5), None);
        admit_fresh(&mut clock, [7]);
        assert_eq!(clock.wanted_admits(), 1);
        assert_eq!(clock.evict(), Some(6));
        assert_eq!(clock.promotions(), 0);
    }

    #[test]
    fn a_replace_ignores_the_filter() {
        let mut clock = Clock::new(64);
        admit_fresh(&mut clock, [3, 11]);
        clock.want(h(10));
        // 10 replaces unreferenced 3: it inherits 3's clear bit, and the
        // want stays for the key's next fresh admit.
        let standing = clock.remove(3);
        clock.admit(10, h(10), standing);
        assert_eq!(clock.wanted_admits(), 0);
        assert_eq!(clock.evict(), Some(11));
        assert_eq!(clock.evict(), Some(10));
        clock.admit(12, h(10), None);
        assert_eq!(clock.wanted_admits(), 1);
        // 12, wanted, is promoted on the way to 13.
        admit_fresh(&mut clock, [13]);
        assert_eq!(clock.evict(), Some(13));
        assert_eq!(clock.promotions(), 1);
    }

    #[test]
    fn a_want_lapses_after_as_many_evictions_as_the_filter_has_bits() {
        const BITS: usize = 256;
        for before in [0, 1, 7, 8, 100, 200] {
            let mut clock = Clock::new(BITS);
            admit_fresh(&mut clock, 0..600);
            for _ in 0..before {
                clock.evict();
            }
            // One wanted key in each slot of the filter.
            let in_slot = |slot| (0..).map(h).find(|&x| clock.wanted_slot(x).0 == slot);
            let hashes: Vec<u32> = (0..BITS / 8).filter_map(in_slot).collect();
            assert_eq!(hashes.len(), clock.wanted.len());
            let wanted = |c: &Clock| {
                let held = |&&x: &&u32| {
                    let (slot, tag) = c.wanted_slot(x);
                    c.wanted[slot].load(Ordering::Relaxed) == tag
                };
                hashes.iter().filter(held).count()
            };
            for &x in &hashes {
                clock.want(x);
            }
            for _ in 0..BITS - 64 {
                clock.evict();
            }
            assert!(wanted(&clock) > 0, "{before}: every want lapsed early");
            for _ in 0..64 {
                clock.evict();
            }
            assert_eq!(wanted(&clock), 0, "{before}: a want outlived its lap");
            for (n, &x) in hashes.iter().enumerate() {
                clock.admit(1000 + n as u32, x, None);
            }
            assert_eq!(clock.wanted_admits(), 0, "{before}");
        }
    }

    #[test]
    fn a_want_admits_only_its_own_key_and_the_latest_want_of_a_slot_stays() {
        let mut clock = Clock::new(64);
        // Three keys of one slot, with three different tags.
        let slot = clock.wanted_slot(h(0)).0;
        let mut same: Vec<u32> = Vec::new();
        for x in (1..1 << 16).map(h) {
            let (s, tag) = clock.wanted_slot(x);
            if s == slot && same.iter().all(|&y| clock.wanted_slot(y).1 != tag) {
                same.push(x);
            }
            if same.len() == 3 {
                break;
            }
        }
        let [a, b, c] = same[..] else {
            panic!("no three tags in slot {slot}: {same:?}")
        };
        clock.want(a);
        // A write of another key of the slot is not taken for `a` ...
        clock.admit(0, b, None);
        assert_eq!(clock.wanted_admits(), 0);
        // ... and leaves `a`'s want for `a`'s own write.
        clock.admit(1, a, None);
        assert_eq!(clock.wanted_admits(), 1);
        // A miss on `c` after one on `b` overwrites it: the slot remembers
        // the latest.
        clock.want(b);
        clock.want(c);
        clock.admit(2, b, None);
        assert_eq!(clock.wanted_admits(), 1);
        clock.admit(3, c, None);
        assert_eq!(clock.wanted_admits(), 2);
        // 1 is promoted at its pop; 0 and 2 are the victims; 3 waits at
        // the FIFO's head, referenced.
        assert_eq!(clock.evict(), Some(0));
        assert_eq!(clock.evict(), Some(2));
        assert_eq!(clock.promotions(), 1);
        let order: Vec<u32> = clock.iter().map(|(i, _)| i).collect();
        assert_eq!(order, [3, 1]);
        let standing = clock.remove(3).expect("tracked");
        assert!(!standing.main && standing.referenced);
    }

    /// The obvious pair of queues: reference bits inline, no position
    /// table, no tombstones (a `VecDeque` of live entries), linear search
    /// on remove. The main ring keeps the real one's slot discipline —
    /// swap-remove, and a push that puts the new entry at the hand and the
    /// entry it displaces at the end — because victims depend on it. The
    /// wanted filter is a tag per slot, aged one slot at a time.
    #[derive(Default)]
    struct Model {
        fifo: VecDeque<(u32, u32, bool)>,
        ring: Vec<(u32, u32, bool)>,
        hand: usize,
        wanted: Vec<u8>,
        evictions: usize,
        wanted_admits: u64,
    }

    impl Model {
        fn new(bits: usize) -> Self {
            Model {
                wanted: vec![0; bits / 8],
                ..Model::default()
            }
        }

        fn slot(&self, hash: u32) -> (usize, u8) {
            let log2 = self.wanted.len().trailing_zeros();
            let n = hash.wrapping_mul(WANT_MUL);
            (
                (n >> (32 - log2)) as usize,
                if n as u8 == 0 { 1 } else { n as u8 },
            )
        }

        fn want(&mut self, hash: u32) {
            let (slot, tag) = self.slot(hash);
            self.wanted[slot] = tag;
        }

        fn len(&self) -> usize {
            self.fifo.len() + self.ring.len()
        }

        fn sweeps_main(&self) -> bool {
            !self.ring.is_empty() && self.fifo.len() * FIFO_SHARE < self.len()
        }

        fn tracks(&self, item: u32) -> bool {
            self.fifo.iter().chain(&self.ring).any(|e| e.0 == item)
        }

        fn entry(&mut self, item: u32) -> Option<&mut (u32, u32, bool)> {
            self.fifo
                .iter_mut()
                .chain(&mut self.ring)
                .find(|e| e.0 == item)
        }

        fn admit(&mut self, item: u32, standing: Option<Standing>) {
            let s = standing.unwrap_or_else(|| {
                let (slot, tag) = self.slot(h(item));
                let referenced = self.wanted[slot] == tag;
                if referenced {
                    self.wanted[slot] = 0;
                }
                self.wanted_admits += u64::from(referenced);
                Standing {
                    main: false,
                    referenced,
                }
            });
            if s.main {
                self.push_main((item, h(item), s.referenced));
            } else {
                self.fifo.push_back((item, h(item), s.referenced));
            }
        }

        fn push_main(&mut self, entry: (u32, u32, bool)) {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            if self.ring.is_empty() {
                self.ring.push(entry);
                return;
            }
            let displaced = std::mem::replace(&mut self.ring[self.hand], entry);
            self.ring.push(displaced);
            self.hand += 1;
        }

        fn remove(&mut self, item: u32) -> Option<Standing> {
            if let Some(at) = self.fifo.iter().position(|e| e.0 == item) {
                let (_, _, referenced) = self.fifo.remove(at).unwrap();
                return Some(Standing {
                    main: false,
                    referenced,
                });
            }
            let at = self.ring.iter().position(|e| e.0 == item)?;
            let referenced = self.ring[at].2;
            self.remove_main(at);
            Some(Standing {
                main: true,
                referenced,
            })
        }

        fn remove_main(&mut self, pos: usize) {
            self.ring.swap_remove(pos);
            if self.hand > self.ring.len() {
                self.hand = 0;
            }
        }

        fn evict_with(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<Victim> {
            let victim = self.pick_victim(is_expired)?;
            self.evictions += 1;
            if self.evictions.is_multiple_of(8) {
                let slot = (self.evictions / 8 - 1) % self.wanted.len();
                self.wanted[slot] = 0;
            }
            Some(victim)
        }

        fn pick_victim(&mut self, is_expired: impl Fn(u32) -> bool) -> Option<Victim> {
            loop {
                if self.sweeps_main() {
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
                        self.remove_main(pos);
                        return Some(Victim {
                            item,
                            hash,
                            expired,
                        });
                    }
                }
                let (item, hash, referenced) = self.fifo.pop_front()?;
                let expired = is_expired(item);
                if !expired && referenced {
                    self.push_main((item, hash, false));
                    continue;
                }
                return Some(Victim {
                    item,
                    hash,
                    expired,
                });
            }
        }

        fn ring_ahead(&self, distance: usize) -> Option<(u32, u32)> {
            let mut at = self.hand.checked_rem(self.ring.len())?;
            for _ in 0..distance {
                at = (at + 1) % self.ring.len();
            }
            Some((self.ring[at].0, self.ring[at].1))
        }
    }

    fn assert_matches_model(clock: &Clock, model: &Model, at: &str) {
        assert_eq!(clock.len(), model.len(), "{at}: length");
        // Both queues, in order, with their hashes and bits.
        let bit = |item: u32| {
            let (word, bit) = bit_of(item);
            clock.referenced.get(word).unwrap().load(Ordering::Relaxed) & bit != 0
        };
        let got: Vec<(u32, u32, bool)> = clock.iter().map(|(i, hash)| (i, hash, bit(i))).collect();
        let want: Vec<(u32, u32, bool)> = model.fifo.iter().chain(&model.ring).copied().collect();
        assert_eq!(got, want, "{at}: queue contents");
        // The wanted filter, slot by slot, and what the admits took of it.
        let wanted: Vec<u8> = clock
            .wanted
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        assert_eq!(wanted, model.wanted, "{at}: wanted filter");
        assert_eq!(
            clock.wanted_admits(),
            model.wanted_admits,
            "{at}: wanted admits"
        );
        // `position` and the queues name each other, and nothing else.
        for (n, &(item, _)) in clock.fifo.iter().enumerate() {
            if item != TOMBSTONE {
                let seq = clock.fifo_front.wrapping_add(n as u32) & SEQ;
                assert_eq!(clock.position[item as usize], seq, "{at}: id {item}");
            }
        }
        for (pos, &(item, _)) in clock.main.iter().enumerate() {
            let slot = clock.position[item as usize];
            assert_eq!(slot, IN_MAIN | pos as u32, "{at}: id {item}");
        }
        let tracked = clock.position.iter().filter(|&&p| p != UNTRACKED);
        assert_eq!(tracked.count(), clock.len(), "{at}: stale position slot");
        // Compaction keeps tombstones at most as many as live entries.
        assert!(clock.fifo.len() <= 2 * clock.fifo_live, "{at}: sparse FIFO");
        let len = clock.len();
        if model.sweeps_main() {
            for distance in [0, 1, len.saturating_sub(1), len, len + 3, 10 * len + 7] {
                assert_eq!(
                    clock.ahead(distance),
                    model.ring_ahead(distance),
                    "{at}: ring look-ahead {distance} of {len}",
                );
            }
        } else {
            // FIFO slots from the head: tombstones read `None`, and past
            // the tail everything does.
            let live: Vec<(u32, u32)> = (0..2 * len + 2).filter_map(|d| clock.ahead(d)).collect();
            let want: Vec<(u32, u32)> = model.fifo.iter().map(|e| (e.0, e.1)).collect();
            assert_eq!(live, want, "{at}: FIFO look-ahead");
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
            // 32 filter slots, so the aging cursor wraps every 256
            // evictions; 48 ids share slots, and misses on keys no id
            // has overwrite their tags.
            let (mut clock, mut model) = (Clock::new(256), Model::new(256));
            assert_matches_model(&clock, &model, "empty queues");
            for op in 0..4000 {
                let item = (rng() % IDS) as u32;
                let at = format!("seed {seed}, op {op}");
                match rng() % 10 {
                    // Admit whatever is not tracked — the queues drain to
                    // empty and to a single entry often enough at 48 ids.
                    0..=2 => {
                        if !model.tracks(item) {
                            clock.admit(item, h(item), None);
                            model.admit(item, None);
                        }
                    }
                    3 => {
                        clock.touch(item);
                        if let Some(e) = model.entry(item) {
                            e.2 = true;
                        }
                    }
                    // A read that missed `item`'s key, tracked or not, or a
                    // key nobody writes.
                    4 => {
                        let hash = if rng() % 2 == 0 {
                            h(item)
                        } else {
                            rng() as u32
                        };
                        clock.want(hash);
                        model.want(hash);
                    }
                    5 => {
                        assert_eq!(clock.remove(item), model.remove(item), "{at}: remove");
                    }
                    // Replace: a tracked id leaves, and a free one takes
                    // its queue and bit.
                    6 => {
                        let new = (item + 1 + (rng() % (IDS - 1)) as u32) % IDS as u32;
                        if model.tracks(item) && !model.tracks(new) {
                            let standing = clock.remove(item);
                            assert_eq!(standing, model.remove(item), "{at}: replace");
                            clock.admit(new, h(new), standing);
                            model.admit(new, standing);
                        }
                    }
                    7 => {
                        assert_eq!(clock.evict_with(|_| false), model.evict_with(|_| false));
                    }
                    // Evict with a random set of the ids expired.
                    _ => {
                        let dead = rng() & rng();
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
            assert!(clock.promotions() > 0, "seed {seed}: nothing promoted");
            assert!(clock.wanted_admits() > 0, "seed {seed}: no wanted admit");
        }
    }

    #[test]
    fn look_ahead_wraps_on_rings_of_none_and_one() {
        let mut clock = Clock::new(64);
        assert_eq!(clock.ahead(0), None);
        assert_eq!(clock.ahead(17), None);
        // The FIFO is read from its head and does not wrap.
        admit_fresh(&mut clock, [9, 4]);
        assert_eq!(clock.ahead(0), Some((9, h(9))));
        assert_eq!(clock.ahead(1), Some((4, h(4))));
        assert_eq!(clock.ahead(2), None);
        // Both read, both promoted; the ring of two then gives up 9 (its
        // bit cleared on promotion), leaving a ring of one that wraps.
        clock.touch(9);
        clock.touch(4);
        assert_eq!(clock.evict(), Some(9));
        for distance in [0, 1, 2, 1000] {
            assert_eq!(clock.ahead(distance), Some((4, h(4))));
        }
        // A fresh write puts the FIFO at half the items: it is next.
        admit_fresh(&mut clock, [7]);
        assert_eq!(clock.ahead(0), Some((7, h(7))));
        assert_eq!(clock.ahead(1), None);
        clock.remove(7);
        assert_eq!(clock.ahead(1), Some((4, h(4))));
        assert_eq!(clock.evict(), Some(4));
        assert_eq!(clock.ahead(0), None);
    }
}
