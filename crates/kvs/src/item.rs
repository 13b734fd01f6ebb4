//! Key-value item encoding inside slab chunks, and the shared
//! object-pointer table the hash indexes point into.
//!
//! The paper (§VI-B): "since the key-value store HT lookups need to return
//! an object pointer (64-bit), we use the 32-bit HT payload to index a
//! shared array of object pointers". [`ItemTable`] is that array.
//!
//! # Rows
//!
//! Each row is a single `AtomicU64` word packing the slab reference and a
//! liveness bit:
//!
//! ```text
//! bit 63      bits 32..48   bits 0..32
//! [ LIVE ]    [ class:16 ]  [ chunk:32 ]
//! ```
//!
//! Rows and every id's metadata are written only through `&mut self` or
//! under the shard's write lock, and read under its shared lock, so the
//! lock's release/acquire orders every access and each load and store is
//! `Relaxed`. They live in an
//! [`AtomicSegArray`], so an id's **expiry word** sits in the slot right
//! after its row word — one 16-byte-aligned pair, one cache line — and the
//! line a Multi-Get prefetches for the row also carries the expiry its hit
//! check reads next (DESIGN.md §9).

use crate::segarray::AtomicSegArray;
use crate::slab::{SlabAllocator, SlabError, SlabRef};
use std::sync::atomic::Ordering;

/// Item header: key length (2 B) + value length (4 B).
const HEADER_BYTES: usize = 6;

/// Sentinel item id meaning "no item".
pub const NO_ITEM: u32 = u32::MAX;

const LIVE_BIT: u64 = 1 << 63;
const CLASS_SHIFT: u32 = 32;

/// Encode an item into a fresh slab chunk; returns the chunk reference.
///
/// # Errors
///
/// Propagates [`SlabError`] from allocation.
///
/// # Panics
///
/// Panics if the key exceeds `u16::MAX` bytes or the value `u32::MAX`.
pub fn write_item(
    slab: &mut SlabAllocator,
    key: &[u8],
    value: &[u8],
) -> Result<SlabRef, SlabError> {
    assert!(key.len() <= u16::MAX as usize, "key too long");
    assert!(value.len() <= u32::MAX as usize, "value too long");
    let r = slab.alloc(HEADER_BYTES + key.len() + value.len())?;
    let chunk = slab.chunk_mut(r);
    chunk[0..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    chunk[2..6].copy_from_slice(&(value.len() as u32).to_le_bytes());
    chunk[6..6 + key.len()].copy_from_slice(key);
    chunk[6 + key.len()..6 + key.len() + value.len()].copy_from_slice(value);
    Ok(r)
}

/// Decode the key bytes of an item chunk.
pub fn item_key(chunk: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
    &chunk[HEADER_BYTES..HEADER_BYTES + klen]
}

/// Decode the value bytes of an item chunk.
pub fn item_value(chunk: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
    let vlen = u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]) as usize;
    &chunk[HEADER_BYTES + klen..HEADER_BYTES + klen + vlen]
}

/// Bounds-checked decode for the read path: a chunk whose header implies
/// `(key, value)` ranges past its end yields `None` instead of a panic.
#[inline]
pub fn item_decode_checked(chunk: &[u8]) -> Option<(&[u8], &[u8])> {
    if chunk.len() < HEADER_BYTES {
        return None;
    }
    let klen = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
    let vlen = u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]) as usize;
    let key_end = HEADER_BYTES.checked_add(klen)?;
    let val_end = key_end.checked_add(vlen)?;
    if val_end > chunk.len() {
        return None;
    }
    Some((&chunk[HEADER_BYTES..key_end], &chunk[key_end..val_end]))
}

/// The shared object-pointer array: item id (32-bit, what the hash index
/// stores as its payload) → versioned slab chunk reference.
///
/// Each id also has two metadata words — the key's **expiry second**
/// (0 = no expiry), paired with the row word, and its **mutation version**,
/// in a parallel array — in the same segmented storage.
#[derive(Debug, Default)]
pub struct ItemTable {
    /// Slot `2 * id` is the row word, slot `2 * id + 1` the expiry in coarse
    /// store seconds (0 = never expires). [`AtomicSegArray`] keeps such a
    /// pair inside one cache line, and every hit reads both of its words.
    rows: AtomicSegArray,
    /// Per-id mutation version (DESIGN.md §13). Apart from the pair: no
    /// batched read touches it (`get_v`, `cas` and replacing writes do).
    versions: AtomicSegArray,
    free: Vec<u32>,
    next: u32,
    live: usize,
}

/// Decode a row word into its slab reference, if the LIVE bit is set.
#[inline(always)]
pub fn decode_row(word: u64) -> Option<SlabRef> {
    if word & LIVE_BIT == 0 {
        return None;
    }
    Some(SlabRef::from_parts(
        ((word >> CLASS_SHIFT) & 0xFFFF) as u16,
        word as u32,
    ))
}

/// Slot of `id`'s row word in [`ItemTable::rows`].
#[inline(always)]
fn row_slot(id: u32) -> usize {
    2 * id as usize
}

/// Slot of `id`'s expiry word: the other half of the row's pair.
#[inline(always)]
fn expiry_slot(id: u32) -> usize {
    row_slot(id) + 1
}

impl ItemTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a slab chunk, returning its item id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` items are live.
    pub fn register(&mut self, r: SlabRef) -> u32 {
        self.register_versioned(r, 1, 0)
    }

    /// [`ItemTable::register`] carrying explicit mutation metadata: the
    /// key's new `version` and its absolute `expires_at` second (0 = no
    /// expiry).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` items are live.
    pub fn register_versioned(&mut self, r: SlabRef, version: u64, expires_at: u64) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.next;
                assert!(id < NO_ITEM, "item table full");
                self.next += 1;
                id
            }
        };
        self.versions
            .get_or_alloc(id as usize)
            .store(version, Ordering::Relaxed);
        self.rows
            .get_or_alloc(expiry_slot(id))
            .store(expires_at, Ordering::Relaxed);
        let word = LIVE_BIT | ((r.class() as u64) << CLASS_SHIFT) | r.chunk_index() as u64;
        self.rows
            .get_or_alloc(row_slot(id))
            .store(word, Ordering::Relaxed);
        self.live += 1;
        id
    }

    /// The mutation version registered for `id` (0 for never-registered
    /// rows). Meaningful only while the row is live.
    #[inline(always)]
    pub fn version(&self, id: u32) -> u64 {
        self.versions
            .get(id as usize)
            .map_or(0, |w| w.load(Ordering::Relaxed))
    }

    /// The absolute expiry second registered for `id` (0 = no expiry;
    /// same validity rules as [`ItemTable::version`]).
    #[inline(always)]
    pub fn expires_at(&self, id: u32) -> u64 {
        self.rows
            .get(expiry_slot(id))
            .map_or(0, |w| w.load(Ordering::Relaxed))
    }

    /// Overwrite `id`'s expiry in place (the `touch` verb), under the
    /// shard write lock.
    #[inline]
    pub fn set_expires_at(&self, id: u32, expires_at: u64) {
        if let Some(w) = self.rows.get(expiry_slot(id)) {
            w.store(expires_at, Ordering::Relaxed);
        }
    }

    /// Resolve an item id to its chunk, if live.
    pub fn get(&self, id: u32) -> Option<SlabRef> {
        decode_row(self.load_row(id))
    }

    /// The raw row word of `id`, for [`decode_row`]. Returns 0 (a dead
    /// word) for never-allocated rows.
    #[inline(always)]
    pub fn load_row(&self, id: u32) -> u64 {
        self.rows
            .get(row_slot(id))
            .map_or(0, |row| row.load(Ordering::Relaxed))
    }

    /// Request `id`'s row cache line — which is also its expiry word's —
    /// ahead of a future [`ItemTable::load_row`] and
    /// [`ItemTable::expires_at`]. Stage 1 of the store's group-prefetched
    /// Multi-Get verification (DESIGN.md §9); out-of-range ids (including
    /// [`NO_ITEM`]) are ignored.
    #[inline(always)]
    pub fn prefetch(&self, id: u32) {
        if let Some(row) = self.rows.get(row_slot(id)) {
            simdht_simd::prefetch_read(row);
        }
    }

    /// Request `id`'s version word, which a write that re-registers the id
    /// stores to (the eviction look-ahead, DESIGN.md §12).
    #[inline(always)]
    pub fn prefetch_version(&self, id: u32) {
        if let Some(w) = self.versions.get(id as usize) {
            simdht_simd::prefetch_read(w);
        }
    }

    /// Remove an item id, returning its chunk for freeing.
    pub fn unregister(&mut self, id: u32) -> Option<SlabRef> {
        let row = self.rows.get(row_slot(id))?;
        let r = decode_row(row.load(Ordering::Relaxed))?;
        row.store(0, Ordering::Relaxed);
        self.free.push(id);
        self.live -= 1;
        Some(r)
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no items are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Every id handed out so far is below this: freed ids are reused
    /// first, so it is the most items ever live at once.
    #[cfg(test)]
    pub(crate) fn id_bound(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::LINE_BYTES;

    #[test]
    fn item_roundtrip() {
        let mut slab = SlabAllocator::new(1 << 20);
        let r = write_item(&mut slab, b"some-key", b"some-value-bytes").unwrap();
        assert_eq!(item_key(slab.chunk(r)), b"some-key");
        assert_eq!(item_value(slab.chunk(r)), b"some-value-bytes");
    }

    #[test]
    fn benchmark_sized_item_is_one_cache_line() {
        // 6 B header + 20 B key + 32 B value = 58 B, the item of three of
        // the four benchmark workloads: it lands in the 64-byte class, and
        // line-aligned pages keep all of it in the line `prefetch` asks for.
        let mut slab = SlabAllocator::new(2 << 20);
        for _ in 0..20_000 {
            let r = write_item(&mut slab, &[b'k'; 20], &[b'v'; 32]).unwrap();
            let first = slab.chunk(r).as_ptr() as usize;
            let last = first + HEADER_BYTES + 20 + 32 - 1;
            assert_eq!(first / LINE_BYTES, last / LINE_BYTES);
        }
    }

    #[test]
    fn empty_key_and_value() {
        let mut slab = SlabAllocator::new(1 << 20);
        let r = write_item(&mut slab, b"", b"").unwrap();
        assert_eq!(item_key(slab.chunk(r)), b"");
        assert_eq!(item_value(slab.chunk(r)), b"");
    }

    #[test]
    fn checked_decode_matches_unchecked() {
        let mut slab = SlabAllocator::new(1 << 20);
        let r = write_item(&mut slab, b"key", b"value-bytes").unwrap();
        let chunk = slab.chunk(r);
        let (k, v) = item_decode_checked(chunk).unwrap();
        assert_eq!(k, item_key(chunk));
        assert_eq!(v, item_value(chunk));
    }

    #[test]
    fn checked_decode_rejects_torn_lengths() {
        // A header claiming more bytes than the chunk holds must not panic.
        let mut bogus = vec![0u8; 64];
        bogus[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(item_decode_checked(&bogus).is_none());
        bogus[0..2].copy_from_slice(&1u16.to_le_bytes());
        bogus[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(item_decode_checked(&bogus).is_none());
        assert!(item_decode_checked(&bogus[..3]).is_none());
    }

    #[test]
    fn item_table_register_resolve() {
        let mut slab = SlabAllocator::new(1 << 20);
        let mut table = ItemTable::new();
        let r = write_item(&mut slab, b"k", b"v").unwrap();
        let id = table.register(r);
        assert_eq!(table.get(id), Some(r));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn item_table_recycles_ids() {
        let mut slab = SlabAllocator::new(1 << 20);
        let mut table = ItemTable::new();
        let a = table.register(write_item(&mut slab, b"a", b"1").unwrap());
        let chunk = table.unregister(a).unwrap();
        slab.free(chunk);
        let b = table.register(write_item(&mut slab, b"b", b"2").unwrap());
        assert_eq!(a, b, "freed id should be reused");
        assert_eq!(
            table.get(b).map(|r| item_key(slab.chunk(r)).to_vec()),
            Some(b"b".to_vec())
        );
    }

    #[test]
    fn unregister_twice_is_none() {
        let mut slab = SlabAllocator::new(1 << 20);
        let mut table = ItemTable::new();
        let id = table.register(write_item(&mut slab, b"k", b"v").unwrap());
        assert!(table.unregister(id).is_some());
        assert!(table.unregister(id).is_none());
        assert!(table.get(id).is_none());
    }

    #[test]
    fn metadata_follows_registration_lifecycle() {
        let mut slab = SlabAllocator::new(1 << 20);
        let mut table = ItemTable::new();
        let id = table.register_versioned(write_item(&mut slab, b"k", b"v1").unwrap(), 7, 99);
        assert_eq!(table.version(id), 7);
        assert_eq!(table.expires_at(id), 99);
        table.set_expires_at(id, 120);
        assert_eq!(table.expires_at(id), 120);

        // Recycling the id through unregister/register replaces the
        // metadata outright — no stale version or expiry leaks through.
        slab.free(table.unregister(id).unwrap());
        let id2 = table.register(write_item(&mut slab, b"k2", b"v2").unwrap());
        assert_eq!(id, id2);
        assert_eq!(table.version(id2), 1);
        assert_eq!(table.expires_at(id2), 0);

        // Plain register defaults: version 1, never expires.
        let fresh = table.register(write_item(&mut slab, b"f", b"x").unwrap());
        assert_eq!(table.version(fresh), 1);
        assert_eq!(table.expires_at(fresh), 0);
        // Out-of-range metadata reads are dead, not UB.
        assert_eq!(table.version(54321), 0);
        assert_eq!(table.expires_at(54321), 0);
    }

    #[test]
    fn load_row_out_of_range_is_dead() {
        let table = ItemTable::new();
        assert_eq!(table.load_row(12345), 0);
        assert!(decode_row(table.load_row(NO_ITEM - 1)).is_none());
        assert_eq!(table.expires_at(NO_ITEM - 1), 0);
    }

    #[test]
    fn row_and_expiry_share_a_cache_line() {
        // What lets one stage-1 prefetch serve both `load_row` and
        // `expires_at`: ids on both sides of the first segment boundaries
        // (two slots per id puts them at 2048 and 6144) and far out.
        let table = ItemTable::new();
        for id in [0u32, 1, 2047, 2048, 4095, 4096, 6143, 6144, 1 << 20] {
            let row = table.rows.get_or_alloc(row_slot(id)) as *const _ as usize;
            let expiry = table.rows.get_or_alloc(expiry_slot(id)) as *const _ as usize;
            assert_eq!(row / LINE_BYTES, expiry / LINE_BYTES, "id {id}");
            assert_ne!(row, expiry, "id {id}");
        }
        // Neighbouring ids never share a word.
        assert_eq!(expiry_slot(7) + 1, row_slot(8));
    }
}
