//! A DPDK/Cuckoo++-style **SIMD tag index**: the remaining SIMD-aware rows
//! of the paper's Table I made executable.
//!
//! DPDK's `rte_hash` and Cuckoo++ both use (2,8) bucketized cuckoo tables
//! whose eight per-slot *signatures* are stored contiguously so one SSE
//! byte-compare probes the whole bucket (Table I: "Yes (SSE)"). This index
//! reproduces that design over the store's 32-bit key hashes:
//!
//! * layout: (2,8) BCHT, partial-key cuckoo relocation (alternate bucket
//!   derived from the signature, as in MemC3/DPDK);
//! * storage: split arrays — one packed `AtomicU64` signature word per
//!   bucket (slot `s` at bits `8·s`, i.e. little-endian byte `s`) and
//!   `AtomicU32` item ids — so the signature block is exactly one 64-bit
//!   SSE lane;
//! * probe: splat the signature, one `pcmpeqb` + movemask over the bucket,
//!   verify candidates through the store's full-key check (signatures are
//!   8-bit, so false positives are expected and harmless).
//!
//! Contrast with [`super::Memc3Index`] (same tag width, scalar probe, 4-way
//! buckets) and [`super::SimdIndex`] (full 32-bit keys in the table): this
//! is the middle point — SIMD acceleration *without* widening the stored
//! key.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use super::cuckoo::{BucketLayout, TagCuckoo};
use crate::arena::Arena;
use crate::item::NO_ITEM;

const SLOTS: usize = 8;

/// Match mask over one bucket's packed signature word (slot `s` occupies
/// bits `8·s`, the little-endian byte `s`): one `pcmpeqb` + movemask via
/// the shared [`simdht_simd::scan`] row scans.
#[inline(always)]
fn match_sigs8(word: u64, sig: u8) -> u32 {
    simdht_simd::scan::eq_mask8(word, sig)
}

/// The (2,8) signature-SIMD cuckoo index (DPDK `rte_hash` / Cuckoo++ style).
pub type TagSimdIndex = TagCuckoo<TagSimdLayout>;

/// The DPDK-style split layout: one packed signature word per bucket
/// beside a separate item-id array.
pub struct TagSimdLayout {
    /// One packed signature word per bucket. All-zero is all-empty, so the
    /// arena is never written up front.
    sigs: Arena<AtomicU64>,
    items: Arena<AtomicU32>,
}

impl TagSimdLayout {
    /// Replace the signature byte of slot `idx` in its bucket's packed
    /// word. Requires `&mut self`, so the relaxed read-modify-write never
    /// races another writer.
    fn set_sig(&mut self, idx: usize, sig: u8) {
        let shift = 8 * (idx % SLOTS);
        let word = self.sigs[idx / SLOTS].load(Ordering::Relaxed);
        self.sigs[idx / SLOTS].store(
            (word & !(0xFFu64 << shift)) | ((sig as u64) << shift),
            Ordering::Relaxed,
        );
    }
}

impl BucketLayout for TagSimdLayout {
    const SLOTS: usize = SLOTS;
    /// A (2,8) BCHT sustains ≈ 0.98 — paper Fig. 2.
    const LOAD_FACTOR: f64 = 0.95;
    const NAME: &'static str = "TagSimd (2,8) sig-BCHT [SSE, DPDK-style]";

    fn new(buckets: usize) -> Self {
        TagSimdLayout {
            // SAFETY: zero-validity — an all-zero `AtomicU64` is a word of
            // eight empty signatures.
            sigs: unsafe { Arena::zeroed(buckets) },
            items: Arena::from_fn(buckets * SLOTS, |_| AtomicU32::new(NO_ITEM)),
        }
    }

    fn bytes(&self) -> usize {
        self.sigs.mapped_bytes() + self.items.mapped_bytes()
    }

    #[inline(always)]
    fn tag(hash: u32) -> u8 {
        let s = (hash >> 24) as u8;
        if s == 0 {
            1
        } else {
            s
        }
    }

    /// One SIMD signature compare per bucket, then the item word of the
    /// first match.
    #[inline(always)]
    fn probe_one(&self, hash: u32, sig: u8, b1: usize, b2: usize) -> u32 {
        for b in [b1, b2] {
            let m = self.match_mask(b, hash, sig);
            if m != 0 {
                return self.items[b * SLOTS + m.trailing_zeros() as usize].load(Ordering::Relaxed);
            }
            if b1 == b2 {
                break;
            }
        }
        NO_ITEM
    }

    /// Split storage — two distinct lines per bucket: the signature block
    /// and the item array.
    #[inline(always)]
    fn prefetch(&self, bucket: usize) {
        simdht_simd::prefetch_read(&self.sigs[bucket]);
        simdht_simd::prefetch_read(&self.items[bucket * SLOTS]);
    }

    /// SIMD probe of one bucket. Empty slots hold signature 0
    /// ([`BucketLayout::clear`] zeroes the byte, so `sig == 0 ⟺ empty`)
    /// while live signatures are `>= 1`, so the match mask needs no
    /// separate occupancy pass.
    #[inline(always)]
    fn match_mask(&self, bucket: usize, _hash: u32, sig: u8) -> u32 {
        debug_assert_ne!(sig, 0);
        match_sigs8(self.sigs[bucket].load(Ordering::Relaxed), sig)
    }

    /// One zero-byte movemask over the signature word
    /// (`sig == 0 ⟺ empty`).
    #[inline]
    fn empty_mask(&self, bucket: usize) -> u32 {
        simdht_simd::scan::zero_mask8(self.sigs[bucket].load(Ordering::Relaxed))
    }

    #[inline]
    fn load(&self, slot: usize) -> Option<(u8, u64)> {
        let item = self.items[slot].load(Ordering::Relaxed);
        let word = self.sigs[slot / SLOTS].load(Ordering::Relaxed);
        (item != NO_ITEM).then_some(((word >> (8 * (slot % SLOTS))) as u8, u64::from(item)))
    }

    /// Signature byte, then item word, each one relaxed atomic store.
    #[inline]
    fn store(&mut self, slot: usize, sig: u8, entry: u64) {
        self.set_sig(slot, sig);
        self.items[slot].store(entry as u32, Ordering::Relaxed);
    }

    /// Clears the signature byte too: `sig == 0 ⟺ empty` is what lets the
    /// probe and occupancy scans run off the packed word alone.
    #[inline]
    fn clear(&mut self, slot: usize) {
        self.set_sig(slot, 0);
        self.items[slot].store(NO_ITEM, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_matcher_semantics() {
        // Slot s is little-endian byte s of the packed word.
        let word = u64::from_le_bytes([9u8, 3, 9, 0, 9, 9, 1, 2]);
        assert_eq!(match_sigs8(word, 9), 0b0011_0101);
        assert_eq!(match_sigs8(word, 7), 0);
        assert_eq!(match_sigs8(word, 2), 0b1000_0000);
    }
}
