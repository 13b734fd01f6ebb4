//! The MemC3 hash index (Fan, Andersen, Kaminsky — NSDI'13): the paper's
//! non-SIMD CPU-optimized baseline (§VI-B).
//!
//! Layout per the paper's Table I: a (2,4) bucketized cuckoo table whose
//! slots hold a 1-byte *tag* (the top 8 bits of the key hash) and an object
//! pointer (here an item id into the shared pointer array). Three MemC3
//! signatures are reproduced faithfully:
//!
//! * **Tag-based probing** — lookups compare tags, not full hashes, so
//!   false positives are possible and the store must verify the full key.
//! * **Partial-key cuckoo hashing** — an entry's alternate bucket is
//!   derived from its *tag* alone (`b₂ = b₁ ⊕ h(tag)`), which is what lets
//!   relocation work without storing full keys.
//! * **Optimistic versioned buckets** — a bucket's version counter is
//!   bumped around writes; readers retry on a torn read, so the read path
//!   pays two version loads per bucket exactly as MemC3 does. As in MemC3
//!   the counters are *striped*: a fixed [`STRIPES`]-entry array shared by
//!   all buckets, small enough to stay cache-resident, so a probed bucket
//!   costs one cold line (its slots), not two. The store's readers hold
//!   the shard's shared lock, so no writer runs during a probe and the
//!   retry never fires; the probe still pays the version loads, which is
//!   the baseline's cost (DESIGN.md §11).
//!
//! ## The slot word
//!
//! A slot is one `AtomicU32`, `[tag:8 | item:24]`: four bytes, so a
//! 64-byte line holds four whole buckets. The zero word is the empty slot
//! — [`BucketLayout::tag`] never returns 0, so no occupied word is 0 — and
//! the slot array is a kernel-zeroed [`Arena`] that only becomes resident
//! where the store writes.
//!
//! ## The 24-bit ceiling
//!
//! An item id is at most the shard's live-item count, and that count is at
//! most the index's entry count plus one (one item is registered before it
//! is indexed). A table of at most [`MAX_BUCKETS`] = 2²¹ buckets holds at
//! most 2²³ entries, so its ids stay below 2²⁴. A larger table is refused
//! when built ([`Memc3Index::max_capacity`] items, ≈ 7.5 M, is the most one
//! index takes): split the items over more shards instead. [`pack`] keeps
//! a hard check as the backstop.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use super::cuckoo::{BucketLayout, TagCuckoo};
use crate::arena::Arena;
use crate::item::NO_ITEM;

const SLOTS: usize = 4;

/// Buckets on one 64-byte line of four-byte slots.
const BUCKETS_PER_LINE: usize = 4;

/// Width of a slot's item field.
const ITEM_BITS: u32 = 24;

/// The item field of a slot word.
const ITEM_MASK: u32 = (1 << ITEM_BITS) - 1;

/// Most buckets a `memc3` table may have: 2²³ slots, so every item id a
/// shard of this size hands out fits the 24-bit field (module docs).
pub const MAX_BUCKETS: usize = 1 << 21;

/// Version counters per table, at most: bucket `b` is guarded by counter
/// `b & (STRIPES - 1)`. MemC3's own count (its 8192 key-version counters):
/// 64 KiB of counters stays in L2 beside a table of any size, where one
/// counter per bucket is a second cold line on every probe. Sharing a
/// counter only adds retries — a reader validates against a superset of
/// the writes its bucket saw — and writers never nest on a stripe, since
/// every write is `&mut self`.
pub(super) const STRIPES: usize = 8192;

/// Pack a slot into the single `AtomicU32` word it is stored as:
/// `[tag:8][item:24]`. One-word slots mean a reader of MemC3's optimistic
/// bucket protocol can never see a tag paired with another entry's item
/// id.
///
/// # Panics
///
/// Panics if `item` does not fit 24 bits, which [`MAX_BUCKETS`] rules out
/// for the store's ids.
#[inline(always)]
fn pack(tag: u8, item: u32) -> u32 {
    assert!(
        item <= ITEM_MASK,
        "item id {item} exceeds memc3's 24-bit slot field"
    );
    (tag as u32) << ITEM_BITS | item
}

/// The empty slot; no occupied word is 0, because no tag is.
const EMPTY: u32 = 0;

/// Whether slot word `w` is occupied and carries `tag` (an empty word's
/// tag byte is 0, which no key's tag is).
#[inline(always)]
fn holds(w: u32, tag: u8) -> bool {
    (w >> ITEM_BITS) as u8 == tag
}

/// Four buckets' slot words on one cache line, so that no bucket straddles
/// two.
#[repr(C, align(64))]
struct SlotLine([AtomicU32; BUCKETS_PER_LINE * SLOTS]);

/// The MemC3 (2,4) tag-based cuckoo index.
pub type Memc3Index = TagCuckoo<Memc3Layout>;

impl Memc3Index {
    /// The most items one index may be sized for: the largest capacity
    /// whose table stays within 2²¹ buckets. Callers that take the
    /// capacity from a user (`simdht-kvsd --capacity`) check against it
    /// before building anything.
    pub fn max_capacity() -> usize {
        // A capacity fits when it needs fewer slots than the table has, so
        // the answer is below `slots × LOAD_FACTOR`; walk down from there.
        let above = (MAX_BUCKETS * SLOTS) as f64 * Memc3Layout::LOAD_FACTOR;
        (0..=above as usize)
            .rev()
            .find(|&c| Self::buckets_for(c) <= MAX_BUCKETS)
            .expect("a one-bucket table fits")
    }
}

/// MemC3's bucket layout: four one-word `[tag | item]` slots per bucket,
/// scalar tag compare, and a striped version counter bumped around every
/// slot write.
pub struct Memc3Layout {
    /// Packed slot words (see [`pack`]), four buckets to a cache line, on
    /// huge-page arena memory; all reads and writes are atomic.
    slots: Arena<SlotLine>,
    /// `min(buckets, STRIPES)` counters, a power of two (see [`STRIPES`]).
    versions: Vec<AtomicU64>,
}

impl Memc3Layout {
    /// Slot word `idx` (global slot index, see [`BucketLayout`]).
    #[inline(always)]
    fn word(&self, idx: usize) -> &AtomicU32 {
        const LINE: usize = BUCKETS_PER_LINE * SLOTS;
        &self.slots[idx / LINE].0[idx % LINE]
    }
    /// The counter guarding `bucket`.
    #[inline(always)]
    fn version(&self, bucket: usize) -> &AtomicU64 {
        &self.versions[bucket & (self.versions.len() - 1)]
    }

    fn begin_write(&self, bucket: usize) {
        // Seqlock write-begin: the odd bump must be visible before any
        // slot store that follows (relaxed RMW + release fence).
        self.version(bucket).fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    fn end_write(&self, bucket: usize) {
        self.version(bucket).fetch_add(1, Ordering::Release);
    }

    /// Optimistic read of one bucket's slots. Slot words are atomic, so
    /// each load is individually untorn; the version check additionally
    /// yields a consistent snapshot of the whole bucket.
    fn read_bucket(&self, bucket: usize) -> [u32; SLOTS] {
        let version = self.version(bucket);
        loop {
            let v1 = version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut out = [EMPTY; SLOTS];
            for (s, o) in out.iter_mut().enumerate() {
                *o = self.word(bucket * SLOTS + s).load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            let v2 = version.load(Ordering::Relaxed);
            if v1 == v2 {
                return out;
            }
        }
    }

    /// Writer-side slot read (no writer can be running — see the
    /// [`BucketLayout`] contract — so a relaxed load races nothing).
    #[inline(always)]
    fn slot(&self, idx: usize) -> u32 {
        self.word(idx).load(Ordering::Relaxed)
    }

    /// One version-bracketed word store: readers of the bucket retry
    /// across it.
    fn set_slot(&mut self, idx: usize, word: u32) {
        let bucket = idx / SLOTS;
        self.begin_write(bucket);
        self.word(idx).store(word, Ordering::Relaxed);
        self.end_write(bucket);
    }
}

impl BucketLayout for Memc3Layout {
    const SLOTS: usize = SLOTS;
    const LOAD_FACTOR: f64 = 0.90;
    const NAME: &'static str = "MemC3 (2,4) tag-BCHT [scalar]";

    /// # Panics
    ///
    /// Panics above [`MAX_BUCKETS`], naming the way out.
    fn new(buckets: usize) -> Self {
        assert!(
            buckets <= MAX_BUCKETS,
            "memc3: {buckets} buckets exceed the {MAX_BUCKETS} its 24-bit item ids address \
             (at most {} items per index); split the items over more shards (--shards)",
            Memc3Index::max_capacity()
        );
        Memc3Layout {
            // SAFETY: zero-validity — an all-zero `AtomicU32` is an empty
            // slot (`EMPTY`).
            slots: unsafe { Arena::zeroed(buckets.div_ceil(BUCKETS_PER_LINE)) },
            versions: (0..buckets.min(STRIPES))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn bytes(&self) -> usize {
        self.slots.mapped_bytes() + std::mem::size_of_val(&self.versions[..])
    }

    #[inline(always)]
    fn tag(hash: u32) -> u8 {
        let t = (hash >> 24) as u8;
        // Tag 0 would make a slot of item 0 the empty word, so it folds
        // to 1; MemC3 similarly avoids degenerate tags.
        if t == 0 {
            1
        } else {
            t
        }
    }

    /// Version-validated scalar tag compare over each bucket snapshot.
    #[inline(always)]
    fn probe_one(&self, _hash: u32, tag: u8, b1: usize, b2: usize) -> u32 {
        for b in [b1, b2] {
            for w in self.read_bucket(b) {
                if holds(w, tag) {
                    return w & ITEM_MASK;
                }
            }
            if b1 == b2 {
                break;
            }
        }
        NO_ITEM
    }

    /// The bucket's slot words only: the striped version counters stay
    /// cache-resident, so no request is spent on them.
    #[inline(always)]
    fn prefetch(&self, bucket: usize) {
        simdht_simd::prefetch_read(self.word(bucket * SLOTS));
    }

    /// Over the same version-validated snapshot a probe takes — MemC3
    /// pays its two version loads on every bucket read.
    #[inline(always)]
    fn match_mask(&self, bucket: usize, _hash: u32, tag: u8) -> u32 {
        let words = self.read_bucket(bucket);
        (0..SLOTS).fold(0, |m, s| m | u32::from(holds(words[s], tag)) << s)
    }

    /// An empty slot is the zero word, so one four-lane compare against
    /// [`EMPTY`] finds the empties.
    #[inline]
    fn empty_mask(&self, bucket: usize) -> u32 {
        let words: [u32; SLOTS] = std::array::from_fn(|s| self.slot(bucket * SLOTS + s));
        simdht_simd::scan::eq_lane_mask_u32(&words, EMPTY)
    }

    #[inline]
    fn load(&self, slot: usize) -> Option<(u8, u64)> {
        let w = self.slot(slot);
        (w != EMPTY).then_some(((w >> ITEM_BITS) as u8, u64::from(w & ITEM_MASK)))
    }

    #[inline]
    fn store(&mut self, slot: usize, tag: u8, entry: u64) {
        self.set_slot(slot, pack(tag, entry as u32));
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.set_slot(slot, EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_capped_at_the_stripe_count() {
        assert!(STRIPES.is_power_of_two());
        assert_eq!(Memc3Layout::new(STRIPES / 4).versions.len(), STRIPES / 4);
        assert_eq!(Memc3Layout::new(STRIPES).versions.len(), STRIPES);
        assert_eq!(Memc3Layout::new(4 * STRIPES).versions.len(), STRIPES);
    }

    #[test]
    fn no_bucket_straddles_a_cache_line() {
        let layout = Memc3Layout::new(64);
        for bucket in 0..64 {
            let first = layout.word(bucket * SLOTS) as *const AtomicU32 as usize;
            let last = layout.word(bucket * SLOTS + SLOTS - 1) as *const AtomicU32 as usize;
            assert_eq!(first / 64, (last + 3) / 64, "bucket {bucket}");
            assert_eq!(last - first, 4 * (SLOTS - 1));
        }
    }

    #[test]
    fn four_buckets_share_one_line() {
        let layout = Memc3Layout::new(64);
        let line = |bucket: usize| layout.word(bucket * SLOTS) as *const AtomicU32 as usize / 64;
        for first in (0..60).step_by(BUCKETS_PER_LINE) {
            assert!(
                (first..first + 4).all(|b| line(b) == line(first)),
                "line of {first}"
            );
            assert_ne!(line(first + 3), line(first + 4), "line of {first}");
        }
        assert_eq!(std::mem::size_of::<SlotLine>(), 64);
    }

    /// Both ends of the item field, under the smallest and largest tag,
    /// come back from `load` as stored, and no occupied word is empty.
    #[test]
    fn pack_round_trips_at_the_field_edges() {
        let mut layout = Memc3Layout::new(4);
        for (slot, (tag, item)) in [(1u8, 0u32), (1, ITEM_MASK), (255, 0), (255, ITEM_MASK)]
            .into_iter()
            .enumerate()
        {
            assert_ne!(pack(tag, item), EMPTY);
            layout.store(slot, tag, crate::index::cuckoo::pack(0xDEAD_BEEF, item));
            assert_eq!(
                layout.load(slot),
                Some((tag, u64::from(item))),
                "slot {slot}"
            );
            assert_eq!(layout.match_mask(0, 0, tag) >> slot & 1, 1, "slot {slot}");
        }
        assert_eq!(layout.empty_mask(0), 0);
        layout.clear(2);
        assert_eq!(layout.load(2), None);
        assert_eq!(layout.empty_mask(0), 0b0100);
    }

    #[test]
    #[should_panic(expected = "24-bit slot field")]
    fn pack_refuses_an_id_past_24_bits() {
        let _ = pack(1, ITEM_MASK + 1);
    }

    #[test]
    fn a_fresh_layout_reads_all_empty() {
        let layout = Memc3Layout::new(256);
        for bucket in 0..256 {
            assert_eq!(layout.empty_mask(bucket), 0b1111, "bucket {bucket}");
            assert_eq!(layout.read_bucket(bucket), [EMPTY; SLOTS]);
            assert!((1..=255).all(|tag| layout.match_mask(bucket, 0, tag) == 0));
        }
        assert!((0..256 * SLOTS).all(|slot| layout.load(slot).is_none()));
        assert_eq!(Memc3Layout::tag(0x00FF_FFFF), 1, "tag 0 folds away");
    }

    /// The largest capacity [`Memc3Index::max_capacity`] names builds a
    /// table of exactly [`MAX_BUCKETS`]; one item more is refused.
    #[test]
    fn the_ceiling_admits_max_capacity_and_refuses_one_more() {
        use crate::index::HashIndex;
        let max = Memc3Index::max_capacity();
        assert_eq!(max, 7_549_746, "`simdht-kvsd --help` names this number");
        let index = Memc3Index::with_capacity(max);
        assert_eq!(index.mask + 1, MAX_BUCKETS);
        assert_eq!(
            index.storage_bytes(),
            MAX_BUCKETS * SLOTS * 4 + STRIPES * 8,
            "four bytes a slot"
        );
        drop(index);
        let refused = std::panic::catch_unwind(|| Memc3Index::with_capacity(max + 1));
        let msg = refused.expect_err("one more item needs 2^22 buckets");
        let msg = msg.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("--shards"), "{msg}");
        assert_eq!(crate::index::max_capacity("memc3"), Some(max));
        assert_eq!(crate::index::max_capacity("dpdk"), None);
    }

    /// Buckets one stripe period apart share a counter: a write to one is
    /// an odd, then a two-higher even, version for a reader of the other.
    #[test]
    fn a_write_bumps_the_counter_of_every_aliasing_bucket() {
        let layout = Memc3Layout::new(4 * STRIPES);
        for b in [0, 1, STRIPES - 1] {
            let alias = layout.version(b + STRIPES);
            assert!(std::ptr::eq(alias, layout.version(b + 3 * STRIPES)));
            assert!(!std::ptr::eq(alias, layout.version(b + 1)));
            let before = alias.load(Ordering::Relaxed);
            assert_eq!(before & 1, 0);
            layout.begin_write(b);
            assert_eq!(alias.load(Ordering::Relaxed), before + 1);
            layout.end_write(b);
            assert_eq!(alias.load(Ordering::Relaxed), before + 2);
            assert_eq!(layout.read_bucket(b + STRIPES), [EMPTY; SLOTS]);
        }
    }
}
