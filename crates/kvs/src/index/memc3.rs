//! The MemC3 hash index (Fan, Andersen, Kaminsky — NSDI'13): the paper's
//! non-SIMD CPU-optimized baseline (§VI-B).
//!
//! Layout per the paper's Table I: a (2,4) bucketized cuckoo table whose
//! slots hold a 1-byte *tag* (the top 8 bits of the key hash) and an object
//! pointer (here a 32-bit item id into the shared pointer array). Three
//! MemC3 signatures are reproduced faithfully:
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
//!   costs one cold line (its slots), not two.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use super::cuckoo::{BucketLayout, TagCuckoo};
use crate::arena::Arena;
use crate::item::NO_ITEM;

const SLOTS: usize = 4;

/// Version counters per table, at most: bucket `b` is guarded by counter
/// `b & (STRIPES - 1)`. MemC3's own count (its 8192 key-version counters):
/// 64 KiB of counters stays in L2 beside a table of any size, where one
/// counter per bucket is a second cold line on every probe. Sharing a
/// counter only adds retries — a reader validates against a superset of
/// the writes its bucket saw — and writers never nest on a stripe, since
/// every write is `&mut self`.
pub(super) const STRIPES: usize = 8192;

/// Pack a slot into the single `AtomicU64` word it is stored as:
/// `[tag:8][item:32]`. One-word slots mean a racing reader can never see
/// a tag paired with another entry's item id, and — because the store's
/// optimistic path probes this index while a writer mutates it — they are
/// what keeps those racy probes free of data races on non-atomic memory.
#[inline(always)]
fn pack(tag: u8, item: u32) -> u64 {
    ((tag as u64) << 32) | item as u64
}

/// An empty slot: emptiness is signalled by `item == NO_ITEM`.
const EMPTY: u64 = NO_ITEM as u64;

/// Whether slot word `w` is occupied and carries `tag`.
#[inline(always)]
fn holds(w: u64, tag: u8) -> bool {
    (w >> 32) as u8 == tag && w as u32 != NO_ITEM
}

/// Two buckets' slot words on one cache line, so that no bucket straddles
/// two (a plain array of `AtomicU64` starting 16 bytes into a line would
/// split every second bucket).
#[repr(C, align(64))]
struct SlotLine([AtomicU64; 2 * SLOTS]);

/// The MemC3 (2,4) tag-based cuckoo index.
pub type Memc3Index = TagCuckoo<Memc3Layout>;

/// MemC3's bucket layout: four one-word `[tag | item]` slots per bucket,
/// scalar tag compare, and a striped version counter bumped around every
/// slot write.
pub struct Memc3Layout {
    /// Packed slot words (see [`pack`]), two buckets to a cache line, on
    /// huge-page arena memory; all reads and writes are atomic.
    slots: Arena<SlotLine>,
    /// `min(buckets, STRIPES)` counters, a power of two (see [`STRIPES`]).
    versions: Vec<AtomicU64>,
}

impl Memc3Layout {
    /// Slot word `idx` (global slot index, see [`BucketLayout`]).
    #[inline(always)]
    fn word(&self, idx: usize) -> &AtomicU64 {
        &self.slots[idx / (2 * SLOTS)].0[idx % (2 * SLOTS)]
    }

    /// The counter guarding `bucket`.
    #[inline(always)]
    fn version(&self, bucket: usize) -> &AtomicU64 {
        &self.versions[bucket & (self.versions.len() - 1)]
    }

    fn begin_write(&self, bucket: usize) {
        // Seqlock write-begin: the odd bump must be visible before any
        // slot store that follows (relaxed RMW + release fence, as in
        // `seqlock::SeqCount::begin_write`).
        self.version(bucket).fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    fn end_write(&self, bucket: usize) {
        self.version(bucket).fetch_add(1, Ordering::Release);
    }

    /// Optimistic read of one bucket's slots. Slot words are atomic, so
    /// each load is individually untorn; the version check additionally
    /// yields a consistent snapshot of the whole bucket.
    fn read_bucket(&self, bucket: usize) -> [u64; SLOTS] {
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
    fn slot(&self, idx: usize) -> u64 {
        self.word(idx).load(Ordering::Relaxed)
    }

    /// One version-bracketed word store: readers of the bucket retry
    /// across it.
    fn set_slot(&mut self, idx: usize, word: u64) {
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

    fn new(buckets: usize) -> Self {
        Memc3Layout {
            slots: Arena::from_fn(buckets.div_ceil(2), |_| {
                SlotLine(std::array::from_fn(|_| AtomicU64::new(EMPTY)))
            }),
            versions: (0..buckets.min(STRIPES))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    #[inline(always)]
    fn tag(hash: u32) -> u8 {
        let t = (hash >> 24) as u8;
        // Tag 0 is fine (emptiness is signalled by item == NO_ITEM), but a
        // constant nonzero fold slightly improves tag entropy for short
        // hashes; MemC3 similarly avoids degenerate tags.
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
                    return w as u32;
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

    /// The item id is the low half of each packed slot word, so one
    /// low-32 movemask against [`NO_ITEM`] finds the empties.
    #[inline]
    fn empty_mask(&self, bucket: usize) -> u32 {
        let words: [u64; SLOTS] = std::array::from_fn(|s| self.slot(bucket * SLOTS + s));
        simdht_simd::scan::eq_low32_mask(&words, NO_ITEM)
    }

    #[inline]
    fn load(&self, slot: usize) -> Option<(u8, u64)> {
        let w = self.slot(slot);
        (w as u32 != NO_ITEM).then_some(((w >> 32) as u8, w & 0xFFFF_FFFF))
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
            let first = layout.word(bucket * SLOTS) as *const AtomicU64 as usize;
            let last = layout.word(bucket * SLOTS + SLOTS - 1) as *const AtomicU64 as usize;
            assert_eq!(first / 64, (last + 7) / 64, "bucket {bucket}");
            assert_eq!(last - first, 8 * (SLOTS - 1));
        }
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
