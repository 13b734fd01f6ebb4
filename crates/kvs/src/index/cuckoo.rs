//! The one bucketized tag-cuckoo core behind the `memc3`, `dpdk` and
//! `local` backends.
//!
//! The three designs are the same (2, m) partial-key cuckoo table: a
//! short tag derived from the key hash picks the alternate bucket
//! (`b₂ = b₁ ⊕ tag·C`, an involution, so relocation never needs the key),
//! inserts go update-in-place → first empty slot → BFS relocation, and
//! lookups return the first tag-matching candidate for the store to
//! verify. They differ only in *where the tag row and entry words sit* and
//! *how a slot is published* to racing readers. [`TagCuckoo`] owns the
//! common part once; a [`BucketLayout`] owns the difference (DESIGN.md
//! §17 states the contract).

use super::{HashIndex, IndexError};
use crate::item::NO_ITEM;

/// Pack the `(hash, item)` pair a slot stores into the entry word the
/// core hands to [`BucketLayout::store`]: full key hash in the high half,
/// item id in the low half.
#[inline(always)]
pub(super) const fn pack(hash: u32, item: u32) -> u64 {
    ((hash as u64) << 32) | item as u64
}

/// What a bucketized tag-cuckoo design must supply to [`TagCuckoo`]:
/// storage, geometry, the reader-side probe and the writer-side slot
/// protocol.
///
/// Slots are addressed by global index `bucket * SLOTS + s`; masks have
/// bit `s` set for slot `s` of the bucket. An *entry word* is
/// `[hash:32 | item:32]`; a layout that keeps no full hash stores the low
/// half only and reads the high half back as 0.
///
/// Concurrency contract. `store` and `clear` are only ever called by the
/// single writer (`&mut self`). Every read — `match_mask`, `empty_mask`,
/// `load`, `probe_one`, `prefetch` — takes `&self`, which excludes that
/// writer: the store probes under the shard's shared lock. Slot storage is
/// made of atomic words all the same. `memc3` keeps MemC3's own reader
/// protocol, version bumps around every slot store that `probe_one`
/// checks (the paper's baseline pays for them, DESIGN.md §11), and a
/// layout that orders its stores (`local`: entry word, then the tag that
/// exposes it) states the `Release`/`Acquire` pairing on `store` and
/// `probe_one`.
pub trait BucketLayout: Send + Sync + 'static {
    /// Slots per bucket (`m`).
    const SLOTS: usize;
    /// Load factor the table is sized for by
    /// [`TagCuckoo::with_capacity`].
    const LOAD_FACTOR: f64;
    /// [`HashIndex::name`] of the backend.
    const NAME: &'static str;

    /// Empty storage for `buckets` buckets (a power of two).
    fn new(buckets: usize) -> Self;

    /// Bytes of the storage `new` mapped or allocated.
    fn bytes(&self) -> usize;

    /// The tag stored for `hash`; also what derives the alternate bucket.
    fn tag(hash: u32) -> u8;

    /// Reader side, possibly racing the writer: the item id of the first
    /// occupied slot matching `hash` in bucket `b1`, then `b2` (probed
    /// once when they coincide), or [`crate::item::NO_ITEM`].
    fn probe_one(&self, hash: u32, tag: u8, b1: usize, b2: usize) -> u32;

    /// Request the cache lines a `probe_one` of `bucket` will touch.
    fn prefetch(&self, bucket: usize);

    /// Occupied slots of `bucket` that are candidates for `hash` (tag
    /// equal, and the full hash too where the layout keeps it).
    fn match_mask(&self, bucket: usize, hash: u32, tag: u8) -> u32;

    /// Empty slots of `bucket`.
    fn empty_mask(&self, bucket: usize) -> u32;

    /// Tag and entry word of `slot`, or `None` when it is empty.
    fn load(&self, slot: usize) -> Option<(u8, u64)>;

    /// Overwrite `slot` (empty or occupied) with `(tag, entry)` under the
    /// layout's publish protocol.
    fn store(&mut self, slot: usize, tag: u8, entry: u64);

    /// Empty an occupied `slot` under the layout's publish protocol.
    fn clear(&mut self, slot: usize);
}

/// A (2, m) partial-key cuckoo [`HashIndex`] over bucket layout `L`.
pub struct TagCuckoo<L> {
    pub(super) layout: L,
    pub(super) mask: usize,
    len: usize,
}

impl<L: BucketLayout> std::fmt::Debug for TagCuckoo<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagCuckoo")
            .field("layout", &L::NAME)
            .field("buckets", &(self.mask + 1))
            .field("len", &self.len)
            .finish()
    }
}

impl<L: BucketLayout> TagCuckoo<L> {
    /// Create an index able to hold at least `capacity_items` entries at
    /// the layout's target load factor ([`BucketLayout::LOAD_FACTOR`]; a
    /// (2, m) table with BFS relocation sustains more — paper Fig. 2).
    pub fn with_capacity(capacity_items: usize) -> Self {
        let buckets = Self::buckets_for(capacity_items);
        TagCuckoo {
            layout: L::new(buckets),
            mask: buckets - 1,
            len: 0,
        }
    }

    /// Slots in the table: the most entries it can hold.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        (self.mask + 1) * L::SLOTS
    }

    /// The bucket count [`TagCuckoo::with_capacity`] gives
    /// `capacity_items`: a power of two.
    pub(super) fn buckets_for(capacity_items: usize) -> usize {
        let needed_slots = ((capacity_items as f64 / L::LOAD_FACTOR).ceil() as usize).max(L::SLOTS);
        (needed_slots / L::SLOTS + 1).next_power_of_two()
    }

    #[inline(always)]
    pub(super) fn bucket1(&self, hash: u32) -> usize {
        hash as usize & self.mask
    }

    /// Partial-key alternate bucket `b ⊕ h(tag)`: an XOR involution, so
    /// `alt_bucket(alt_bucket(b, t), t) == b` and relocation needs no key.
    #[inline(always)]
    pub(super) fn alt_bucket(&self, bucket: usize, tag: u8) -> usize {
        // The de-facto MemC3/libcuckoo tag scatter constant.
        (bucket ^ ((tag as usize).wrapping_mul(0x5bd1_e995))) & self.mask
    }

    /// Tag and the two candidate buckets of `hash`.
    #[inline(always)]
    fn home(&self, hash: u32) -> (u8, usize, usize) {
        let tag = L::tag(hash);
        let b1 = self.bucket1(hash);
        (tag, b1, self.alt_bucket(b1, tag))
    }

    /// Visit, bucket `b1` then `b2` and slots in ascending order, every
    /// occupied slot that is a candidate for `hash`, until `visit`
    /// returns `true`.
    #[inline(always)]
    fn scan_matches(&self, hash: u32, mut visit: impl FnMut(usize, u32) -> bool) {
        let (tag, b1, b2) = self.home(hash);
        for b in [b1, b2] {
            let mut m = self.layout.match_mask(b, hash, tag);
            while m != 0 {
                let slot = b * L::SLOTS + m.trailing_zeros() as usize;
                let (_, entry) = self.layout.load(slot).expect("matched slots are occupied");
                if visit(slot, entry as u32) {
                    return;
                }
                m &= m - 1;
            }
            if b1 == b2 {
                break;
            }
        }
    }

    /// Slot currently holding exactly `(hash, item)`, if any.
    fn find_slot(&self, hash: u32, item: u32) -> Option<usize> {
        let mut found = None;
        self.scan_matches(hash, |slot, it| {
            if it == item {
                found = Some(slot);
            }
            found.is_some()
        });
        found
    }

    /// First empty slot of `bucket` — the SIMD occupancy scan: one
    /// movemask from the layout, `trailing_zeros` for the same
    /// left-to-right slot a scalar walk picks.
    #[inline(always)]
    pub(super) fn empty_in(&self, bucket: usize) -> Option<usize> {
        let m = self.layout.empty_mask(bucket);
        (m != 0).then(|| bucket * L::SLOTS + m.trailing_zeros() as usize)
    }
}

impl<L: BucketLayout> HashIndex for TagCuckoo<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn insert(&mut self, hash: u32, item: u32) -> Result<(), IndexError> {
        let (tag, b1, b2) = self.home(hash);
        let entry = pack(hash, item);
        // Update in place if this exact mapping exists.
        if let Some(slot) = self.find_slot(hash, item) {
            self.layout.store(slot, tag, entry);
            return Ok(());
        }
        let slot = match [b1, b2].into_iter().find_map(|b| self.empty_in(b)) {
            Some(slot) => slot,
            None => {
                // Alternates derive from stored tags, so the search reads
                // no keys; nothing moves unless a path exists.
                let path = simdht_table::relocation_path(
                    &[b1, b2],
                    L::SLOTS,
                    |slot| {
                        let (t, _) = self.layout.load(slot).expect("BFS expands full buckets");
                        [self.alt_bucket(slot / L::SLOTS, t)]
                    },
                    |bucket| self.empty_in(bucket),
                )
                .ok_or(IndexError::Full)?;
                // path = [root, …, free]: shift occupants toward the free
                // slot, back to front, so every entry stays reachable.
                for w in (1..path.len()).rev() {
                    let (t, e) = self
                        .layout
                        .load(path[w - 1])
                        .expect("path slots are occupied");
                    self.layout.store(path[w], t, e);
                }
                path[0]
            }
        };
        self.layout.store(slot, tag, entry);
        self.len += 1;
        Ok(())
    }

    fn remove(&mut self, hash: u32, item: u32) {
        if let Some(slot) = self.find_slot(hash, item) {
            self.layout.clear(slot);
            self.len -= 1;
        }
    }

    fn lookup_batch(&self, hashes: &[u32], out: &mut [u32]) {
        assert_eq!(hashes.len(), out.len(), "output slice length mismatch");
        for (h, o) in hashes.iter().zip(out.iter_mut()) {
            *o = self.probe_first(*h);
        }
    }

    /// The shared AMAC pipeline, one bucket at a time: only `b1`'s lines
    /// are requested `depth` keys ahead, and a key `b1` does not answer
    /// asks for `b2` then and probes it `depth` keys later — most keys
    /// sit in their first bucket, so most second buckets are never
    /// fetched. Same candidates, in the same order, as `probe_one(b1, b2)`.
    fn lookup_batch_prefetched(&self, hashes: &[u32], out: &mut [u32], depth: usize) {
        assert_eq!(hashes.len(), out.len(), "output slice length mismatch");
        if depth == 0 {
            self.lookup_batch(hashes, out);
            return;
        }
        for &h in hashes.iter().take(depth) {
            self.layout.prefetch(self.bucket1(h));
        }
        let second = |j: usize, out: &mut [u32]| {
            if out[j] == NO_ITEM {
                let (tag, _, b2) = self.home(hashes[j]);
                out[j] = self.layout.probe_one(hashes[j], tag, b2, b2);
            }
        };
        for i in 0..hashes.len() {
            if let Some(&ahead) = hashes.get(i + depth) {
                self.layout.prefetch(self.bucket1(ahead));
            }
            let (tag, b1, b2) = self.home(hashes[i]);
            out[i] = self.layout.probe_one(hashes[i], tag, b1, b1);
            if out[i] == NO_ITEM {
                self.layout.prefetch(b2);
            }
            if i >= depth {
                second(i - depth, out);
            }
        }
        for j in hashes.len().saturating_sub(depth)..hashes.len() {
            second(j, out);
        }
    }

    #[inline(always)]
    fn probe_first(&self, hash: u32) -> u32 {
        let (tag, b1, b2) = self.home(hash);
        self.layout.probe_one(hash, tag, b1, b2)
    }

    #[inline(always)]
    fn prefetch_hash(&self, hash: u32) {
        let (_, b1, b2) = self.home(hash);
        self.layout.prefetch(b1);
        self.layout.prefetch(b2);
    }

    fn lookup_all(&self, hash: u32, out: &mut Vec<u32>) {
        self.scan_matches(hash, |_, item| {
            out.push(item);
            false
        });
    }

    fn len(&self) -> usize {
        self.len
    }

    fn storage_bytes(&self) -> usize {
        self.layout.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::hash_key;
    use crate::index::{local::F14Layout, memc3::Memc3Layout, tagsimd::TagSimdLayout};

    fn hashes(range: std::ops::Range<u32>) -> Vec<u32> {
        range.map(|i| hash_key(&i.to_le_bytes())).collect()
    }

    /// Tags are short, so the first candidate may be a collision — but a
    /// stored item is always found, and always among `lookup_all`.
    fn insert_lookup_roundtrip<L: BucketLayout>() {
        let mut idx = TagCuckoo::<L>::with_capacity(2000);
        let hs = hashes(0..1500);
        for (i, &h) in hs.iter().enumerate() {
            idx.insert(h, i as u32).unwrap();
        }
        assert_eq!(idx.len(), 1500);
        let mut first = vec![0u32; hs.len()];
        idx.lookup_batch(&hs, &mut first);
        for (i, &h) in hs.iter().enumerate() {
            assert_ne!(first[i], NO_ITEM, "item {i} has no candidate");
            let mut all = vec![];
            idx.lookup_all(h, &mut all);
            assert!(all.contains(&(i as u32)), "item {i} unreachable");
        }
    }

    /// Unknown hashes miss, `max_false_hits` tag false positives aside.
    fn misses_mostly_miss<L: BucketLayout>(max_false_hits: usize) {
        let mut idx = TagCuckoo::<L>::with_capacity(200);
        for (i, h) in hashes(0..100).into_iter().enumerate() {
            idx.insert(h, i as u32).unwrap();
        }
        let absent = hashes(50_000..50_200);
        let mut out = vec![0u32; absent.len()];
        idx.lookup_batch(&absent, &mut out);
        let hits = out.iter().filter(|&&x| x != NO_ITEM).count();
        assert!(hits <= max_false_hits, "{hits} false hits");
    }

    fn remove_and_reuse<L: BucketLayout>() {
        let mut idx = TagCuckoo::<L>::with_capacity(100);
        let h = hash_key(b"k");
        idx.insert(h, 5).unwrap();
        idx.insert(h, 5).unwrap(); // same mapping: update, not growth
        assert_eq!(idx.len(), 1);
        idx.remove(h, 6); // wrong item, no-op
        assert_eq!(idx.len(), 1);
        idx.remove(h, 5);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.probe_first(h), NO_ITEM);
        idx.insert(h, 7).unwrap();
        let mut all = vec![];
        idx.lookup_all(h, &mut all);
        assert_eq!(all, [7]);
    }

    fn reaches_high_load_factor<L: BucketLayout>(min: f64) {
        let mut idx = TagCuckoo::<L>::with_capacity(4000);
        let capacity = (idx.mask + 1) * L::SLOTS;
        let mut n = 0u32;
        while (n as usize) < capacity && idx.insert(hash_key(&n.to_le_bytes()), n).is_ok() {
            n += 1;
        }
        let lf = f64::from(n) / capacity as f64;
        assert!(lf > min, "{} load factor only {lf:.3}", L::NAME);
    }

    /// The SIMD occupancy scan places inserts in exactly the slot the
    /// scalar left-to-right walk over per-slot state picks, across an
    /// arbitrary insert/remove history.
    fn simd_empty_scan_matches_scalar_walk<L: BucketLayout>() {
        let scalar_walk = |idx: &TagCuckoo<L>, bucket: usize| {
            (bucket * L::SLOTS..(bucket + 1) * L::SLOTS).find(|&s| idx.layout.load(s).is_none())
        };
        let mut idx = TagCuckoo::<L>::with_capacity(2000);
        let mut state = 0xF14u64;
        let mut live: Vec<(u32, u32)> = Vec::new();
        for step in 0..4000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !state.is_multiple_of(3) || live.is_empty() {
                let h = hash_key(&step.to_le_bytes());
                idx.insert(h, step).unwrap();
                live.push((h, step));
            } else {
                let victim = live.swap_remove((state >> 32) as usize % live.len());
                idx.remove(victim.0, victim.1);
            }
            // Every mutation leaves the SIMD scan agreeing with the walk
            // on a sample of buckets.
            for probe in 0..4usize {
                let b = ((state >> (8 * probe)) as usize + step as usize) & idx.mask;
                assert_eq!(idx.empty_in(b), scalar_walk(&idx, b), "bucket {b}");
            }
        }
    }

    fn prefetched_matches_plain_batch<L: BucketLayout>(capacity: u32) {
        let mut idx = TagCuckoo::<L>::with_capacity(capacity as usize);
        for (i, h) in hashes(0..capacity / 6 * 5).into_iter().enumerate() {
            idx.insert(h, i as u32).unwrap();
        }
        let hs = hashes(0..capacity / 3 * 4);
        let mut plain = vec![0u32; hs.len()];
        idx.lookup_batch(&hs, &mut plain);
        for depth in [0usize, 1, 4, 16, 5000] {
            let mut got = vec![0u32; hs.len()];
            idx.lookup_batch_prefetched(&hs, &mut got, depth);
            assert_eq!(got, plain, "prefetched depth {depth}");
        }
    }

    fn works_as_store_backend<L: BucketLayout>() {
        use crate::store::{KvStore, StoreConfig};
        let store = KvStore::new(
            Box::new(TagCuckoo::<L>::with_capacity(5000)),
            StoreConfig {
                memory_budget: 8 << 20,
                capacity_items: 5000,
                shards: 1,
            },
        );
        for i in 0..3000u32 {
            store
                .set(format!("tag-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        for i in (0..3000u32).step_by(11) {
            assert_eq!(
                store.get(format!("tag-{i}").as_bytes()).as_deref(),
                Some(&i.to_le_bytes()[..])
            );
        }
        assert!(store.delete(b"tag-100"));
        assert_eq!(store.get(b"tag-100"), None);
    }

    /// What every layout must do under the core; only the achievable load
    /// factor and the tag false-positive budget are the layout's own.
    fn conformance<L: BucketLayout>(min_load_factor: f64, max_false_hits: usize) {
        insert_lookup_roundtrip::<L>();
        misses_mostly_miss::<L>(max_false_hits);
        remove_and_reuse::<L>();
        reaches_high_load_factor::<L>(min_load_factor);
        simd_empty_scan_matches_scalar_walk::<L>();
        prefetched_matches_plain_batch::<L>(3000);
        works_as_store_backend::<L>();
    }

    #[test]
    fn memc3_conforms() {
        conformance::<Memc3Layout>(0.90, 19);
    }

    /// The batch probes agree on a table whose buckets share `memc3`'s
    /// striped version counters (eight to one here).
    #[test]
    fn memc3_batches_agree_where_stripes_are_shared() {
        use crate::index::memc3::STRIPES;
        const CAPACITY: u32 = 120_000;
        let buckets = TagCuckoo::<Memc3Layout>::with_capacity(CAPACITY as usize).mask + 1;
        assert!(buckets >= 4 * STRIPES, "{buckets} buckets");
        prefetched_matches_plain_batch::<Memc3Layout>(CAPACITY);
    }

    #[test]
    fn dpdk_conforms() {
        conformance::<TagSimdLayout>(0.95, 19);
    }

    /// Full-hash verification on the probe path: absent hashes can only
    /// hit via a genuine 32-bit collision, which the probed range avoids.
    #[test]
    fn local_conforms() {
        conformance::<F14Layout>(0.94, 0);
    }
}
