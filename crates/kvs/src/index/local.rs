//! A Folly-F14-style **localized-SIMD** index: tags co-resident with the
//! entries they guard on one 64-byte cache line.
//!
//! The four Table-I indexes split into *indirect SIMD* (tags packed in a
//! separate array — [`super::Memc3Index`], [`super::TagSimdIndex`] — an
//! extra cache line between tag hit and entry read) and *direct SIMD*
//! (full keys probed in-register — [`super::SimdIndex`] — only 4 entries
//! per line). The reinerp cuckoo-hashing-benchmark findings place a third
//! point on that curve, *localized SIMD*, which this index reproduces:
//!
//! * layout: (2,7) bucketized cuckoo table. Each bucket is **exactly one
//!   64-byte line**: a packed tag word (7 tag bytes + 1 control byte)
//!   followed by seven `[hash:32 | item:32]` entry words;
//! * probe: one SSE byte-compare over the tag word, then candidate entries
//!   verified against the *full* 32-bit hash — all on the line the tag
//!   match already pulled in. A find_hit touches one line (beats the
//!   indirect designs' two); a find_miss rejects 7 candidates per line
//!   (beats the direct designs' 4);
//! * relocation: partial-key cuckoo — the alternate bucket is derived from
//!   the tag by an XOR involution, so BFS relocation never re-reads keys;
//! * concurrency: the tag word and every entry word are `AtomicU64`, sized
//!   at construction. Readers probe under the shard's shared lock, which
//!   excludes writers; the words still publish the entry word *before*
//!   the tag byte that makes it visible (entry `Relaxed`, tag word
//!   `Release`; readers load the tag word `Acquire`).
//!
//! Tags are `0x80 | (hash >> 25)`, always `0x80..=0xFF`, so the empty-slot
//! sentinel (`0`) and the control byte (an occupancy count `<= 7`) can
//! never produce a false tag match. See DESIGN.md §16 for the layout
//! diagram and fence discipline.

use std::sync::atomic::{AtomicU64, Ordering};

use simdht_simd::scan;

use super::cuckoo::{BucketLayout, TagCuckoo};
use crate::arena::Arena;
use crate::item::NO_ITEM;

const SLOTS: usize = 7;
/// Match-mask bits covering the 7 tag bytes (excludes the control byte).
const TAG_MASK: u32 = 0x7F;
/// The control byte is little-endian byte 7 of the tag word.
const CONTROL_SHIFT: u32 = 56;

/// One (2,7) bucket — exactly one cache line.
///
/// ```text
/// byte:    0    1    2    3    4    5    6    7     8..15  ...  56..63
///        tag0 tag1 tag2 tag3 tag4 tag5 tag6 count  entry0  ...  entry6
/// ```
#[repr(C, align(64))]
struct Bucket {
    /// Packed tag row: little-endian byte `s` is slot `s`'s tag (`0` =
    /// empty, else `0x80 | (hash >> 25)`); byte 7 is the control byte,
    /// the bucket's occupancy count.
    tags: AtomicU64,
    /// `[hash:32 | item:32]` per slot — the core's entry word: the pair
    /// changes atomically. Contents are dont-care (stale) while the slot's
    /// tag byte is 0.
    entries: [AtomicU64; SLOTS],
}

// The one-line claim is structural, not aspirational.
const _: () = assert!(std::mem::size_of::<Bucket>() == 64);
const _: () = assert!(std::mem::align_of::<Bucket>() == 64);

/// The F14-style (2,7) localized-SIMD cuckoo index (`"local"`).
pub type F14LocalIndex = TagCuckoo<F14Layout>;

/// The F14-style layout: tag row and entry words of a bucket share one
/// 64-byte line.
pub struct F14Layout {
    /// One line per bucket, on huge-page arena memory.
    buckets: Arena<Bucket>,
}

impl F14Layout {
    /// Tag-row match mask for `tag` over an already-loaded tag word.
    #[inline(always)]
    fn tag_matches(word: u64, tag: u8) -> u32 {
        scan::eq_mask8(word, tag) & TAG_MASK
    }
}

impl BucketLayout for F14Layout {
    const SLOTS: usize = SLOTS;
    /// A (2,7) BCHT with BFS relocation sustains well above this.
    const LOAD_FACTOR: f64 = 0.92;
    const NAME: &'static str = "F14Local (2,7) line-BCHT [SSE, F14-style]";

    fn new(buckets: usize) -> Self {
        F14Layout {
            buckets: Arena::from_fn(buckets, |_| Bucket {
                tags: AtomicU64::new(0),
                entries: std::array::from_fn(|_| AtomicU64::new(u64::from(NO_ITEM))),
            }),
        }
    }

    fn bytes(&self) -> usize {
        self.buckets.mapped_bytes()
    }

    /// The 7-bit tag with the occupied marker: always in `0x80..=0xFF`, so
    /// it never collides with the empty sentinel (0) or the control byte
    /// (`<= 7`).
    #[inline(always)]
    fn tag(hash: u32) -> u8 {
        0x80 | (hash >> 25) as u8
    }

    /// SSE tag match over each bucket's packed tag word, then full-hash
    /// verification against the entry words — all on the one line the tag
    /// load pulled in. The `Acquire` tag load pairs with the `Release`
    /// store in [`BucketLayout::store`].
    #[inline(always)]
    fn probe_one(&self, hash: u32, tag: u8, b1: usize, b2: usize) -> u32 {
        for b in [b1, b2] {
            let bucket = &self.buckets[b];
            let mut m = Self::tag_matches(bucket.tags.load(Ordering::Acquire), tag);
            while m != 0 {
                let s = m.trailing_zeros() as usize;
                let e = bucket.entries[s].load(Ordering::Relaxed);
                if (e >> 32) as u32 == hash {
                    return e as u32;
                }
                m &= m - 1;
            }
            if b1 == b2 {
                break;
            }
        }
        NO_ITEM
    }

    /// The single cache line the bucket occupies.
    #[inline(always)]
    fn prefetch(&self, bucket: usize) {
        simdht_simd::prefetch_read(&self.buckets[bucket]);
    }

    /// Tag matches whose entry word also carries the full `hash`.
    #[inline]
    fn match_mask(&self, bucket: usize, hash: u32, tag: u8) -> u32 {
        let bucket = &self.buckets[bucket];
        let mut tagged = Self::tag_matches(bucket.tags.load(Ordering::Relaxed), tag);
        let mut m = 0;
        while tagged != 0 {
            let s = tagged.trailing_zeros();
            if (bucket.entries[s as usize].load(Ordering::Relaxed) >> 32) as u32 == hash {
                m |= 1 << s;
            }
            tagged &= tagged - 1;
        }
        m
    }

    /// One zero-byte movemask over the tag row.
    #[inline(always)]
    fn empty_mask(&self, bucket: usize) -> u32 {
        let word = self.buckets[bucket].tags.load(Ordering::Relaxed);
        let m = scan::zero_mask8(word) & TAG_MASK;
        debug_assert_eq!(
            (word >> CONTROL_SHIFT) as usize,
            SLOTS - m.count_ones() as usize,
            "control byte out of sync with the tag row"
        );
        m
    }

    #[inline]
    fn load(&self, slot: usize) -> Option<(u8, u64)> {
        let bucket = &self.buckets[slot / SLOTS];
        let tag = (bucket.tags.load(Ordering::Relaxed) >> (8 * (slot % SLOTS))) as u8;
        (tag != 0).then(|| (tag, bucket.entries[slot % SLOTS].load(Ordering::Relaxed)))
    }

    /// Overwrite slot `idx` with `(tag, entry)` and publish it: the entry
    /// word is stored first (`Relaxed`), then the tag word that makes it
    /// visible (`Release`), so a reader whose `Acquire` tag load observes
    /// the new tag also observes the new entry. Requires `&mut self`, so
    /// the read-modify-write of the shared tag word never races another
    /// writer. The control byte counts up when the slot was empty.
    #[inline]
    fn store(&mut self, idx: usize, tag: u8, entry: u64) {
        debug_assert!(tag >= 0x80, "occupied tags carry the marker bit");
        let (b, s) = (idx / SLOTS, idx % SLOTS);
        let bucket = &self.buckets[b];
        bucket.entries[s].store(entry, Ordering::Relaxed);
        let shift = 8 * s;
        let word = bucket.tags.load(Ordering::Relaxed);
        let mut new = (word & !(0xFFu64 << shift)) | (u64::from(tag) << shift);
        if (word >> shift) as u8 == 0 {
            new += 1 << CONTROL_SHIFT;
        }
        bucket.tags.store(new, Ordering::Release);
    }

    /// Clear slot `idx`: zero its tag byte and count the control byte
    /// down in one `Release` store. The entry word is left stale —
    /// `tag == 0` means its contents are dont-care.
    #[inline]
    fn clear(&mut self, idx: usize) {
        let (b, s) = (idx / SLOTS, idx % SLOTS);
        let shift = 8 * s;
        let word = self.buckets[b].tags.load(Ordering::Relaxed);
        debug_assert_ne!((word >> shift) as u8, 0, "clearing an empty slot");
        self.buckets[b].tags.store(
            (word & !(0xFFu64 << shift)) - (1 << CONTROL_SHIFT),
            Ordering::Release,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{hash_key, HashIndex};

    #[test]
    fn bucket_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
        // The bucket vector keeps every bucket line-aligned.
        let idx = F14LocalIndex::with_capacity(1000);
        for b in &idx.layout.buckets {
            assert_eq!(std::ptr::from_ref(b) as usize % 64, 0);
        }
    }

    #[test]
    fn tag_never_matches_sentinel_or_control() {
        for hash in [0u32, 1, 0x0100_0000, 0x7FFF_FFFF, u32::MAX] {
            let t = F14Layout::tag(hash);
            assert!(t >= 0x80, "tag {t:#x} lost the marker bit");
        }
        // The alternate-bucket map is an involution for every tag.
        let idx = F14LocalIndex::with_capacity(10_000);
        for t in 0x80..=0xFFu8 {
            for b in [0usize, 1, idx.mask / 2, idx.mask] {
                assert_eq!(idx.alt_bucket(idx.alt_bucket(b, t), t), b);
            }
        }
    }

    #[test]
    fn control_byte_tracks_occupancy() {
        let mut idx = F14LocalIndex::with_capacity(1000);
        for i in 0..700u32 {
            idx.insert(hash_key(&i.to_le_bytes()), i).unwrap();
        }
        let mut total = 0usize;
        for b in &idx.layout.buckets {
            let word = b.tags.load(Ordering::Relaxed);
            let count = (word >> CONTROL_SHIFT) as usize;
            let occupied = SLOTS - (scan::zero_mask8(word) & TAG_MASK).count_ones() as usize;
            assert_eq!(count, occupied, "control byte out of sync");
            total += count;
        }
        assert_eq!(total, idx.len());
    }

    #[test]
    fn full_hash_check_rejects_tag_collisions() {
        let mut idx = F14LocalIndex::with_capacity(100);
        // Two hashes sharing bucket1 and tag but differing in full value.
        let h1 = 0x8000_0001u32;
        let h2 = 0x8001_0001u32;
        assert_eq!(F14Layout::tag(h1), F14Layout::tag(h2));
        assert_eq!(idx.bucket1(h1), idx.bucket1(h2));
        idx.insert(h1, 11).unwrap();
        assert_eq!(idx.probe_first(h2), NO_ITEM, "tag twin leaked through");
        idx.insert(h2, 22).unwrap();
        assert_eq!(idx.probe_first(h1), 11);
        assert_eq!(idx.probe_first(h2), 22);
        let mut all = vec![];
        idx.lookup_all(h1, &mut all);
        assert_eq!(all, [11], "lookup_all must filter on the full hash");
    }
}
