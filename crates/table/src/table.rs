//! The `(N, m)` cuckoo hash table.
//!
//! [`CuckooTable`] stores fixed-width hash keys and payloads (paper §I:
//! the KVS layer maps variable-length application keys to these) in either
//! an [interleaved](crate::Arrangement::Interleaved) or a
//! [split](crate::Arrangement::Split) bucket arrangement. Bucket placement
//! uses the tag-dispersed (partial-key cuckoo) scheme of
//! [`HashFamily::tag_dispersed`]: way 0 is a plain multiply-shift base
//! bucket and every further way XORs a dispersal of the key's short tag
//! fingerprint onto it, so the relocation path can derive an occupant's
//! alternate bucket from its current bucket and tag alone. Insertion is
//! hash-then-search with BFS path relocation (as in MemC3/libcuckoo): the
//! inserted key's candidate buckets are computed exactly once and reused by
//! the update probe, the empty-slot fast path, and the BFS roots; on
//! failure the table is left unchanged and only the new item is rejected,
//! which is what lets [`crate::loadfactor`] measure the achievable load
//! factor precisely.

use std::fmt;

use rand::Rng;
use simdht_simd::Lane;

use crate::aligned::AlignedBuf;
use crate::hash::HashFamily;
use crate::layout::{Arrangement, Layout};
use crate::MAX_WAYS_USIZE;

/// Error constructing a [`CuckooTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// [`Arrangement::Interleaved`] requires key and value lanes of equal
    /// width.
    MismatchedInterleavedWidths {
        /// Key width in bits.
        key_bits: u32,
        /// Value width in bits.
        val_bits: u32,
    },
    /// `2^log2_buckets` must be addressable by the key type's top bits.
    TooManyBuckets {
        /// Requested `log2` bucket count.
        log2_buckets: u32,
        /// Key width in bits.
        key_bits: u32,
    },
    /// The byte budget cannot hold even one bucket.
    SizeTooSmall,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::MismatchedInterleavedWidths { key_bits, val_bits } => write!(
                f,
                "interleaved arrangement needs equal key/value widths, got {key_bits}/{val_bits} bits"
            ),
            TableError::TooManyBuckets {
                log2_buckets,
                key_bits,
            } => write!(
                f,
                "2^{log2_buckets} buckets cannot be indexed by a {key_bits}-bit hash key"
            ),
            TableError::SizeTooSmall => write!(f, "byte budget smaller than one bucket"),
        }
    }
}

impl std::error::Error for TableError {}

/// Error returned by [`CuckooTable::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// Key `0` is the empty-slot sentinel and cannot be stored.
    SentinelKey,
    /// No relocation path to an empty slot was found; the table is at its
    /// achievable load factor. The table is unchanged.
    TableFull,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsertError::SentinelKey => write!(f, "key 0 is reserved as the empty-slot sentinel"),
            InsertError::TableFull => write!(f, "no cuckoo relocation path to an empty slot"),
        }
    }
}

impl std::error::Error for InsertError {}

#[derive(Debug)]
enum Storage<K, V> {
    /// `[k v k v …]`, values bit-cast to `K` (equal widths enforced).
    Interleaved(AlignedBuf<K>),
    /// `[k k …]` + `[v v …]`, slot-indexed.
    Split {
        keys: AlignedBuf<K>,
        vals: AlignedBuf<V>,
    },
}

impl<K: Copy + Default, V: Copy + Default> Clone for Storage<K, V> {
    fn clone(&self) -> Self {
        match self {
            Storage::Interleaved(data) => Storage::Interleaved(data.clone()),
            Storage::Split { keys, vals } => Storage::Split {
                keys: keys.clone(),
                vals: vals.clone(),
            },
        }
    }
}

/// Statistics accumulated across inserts (relocation effort).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InsertStats {
    /// Successful inserts that found an empty slot without relocating.
    pub direct: u64,
    /// Successful inserts that required a relocation path.
    pub relocated: u64,
    /// Total items moved along relocation paths.
    pub moves: u64,
    /// Inserts rejected with [`InsertError::TableFull`].
    pub failed: u64,
}

/// An `(N, m)` cuckoo hash table over `K` hash keys and `V` payloads.
///
/// Lookups take `&self` and the type is `Sync`, so a populated table can be
/// shared read-only across the benchmark's full-subscription worker threads.
///
/// # Examples
///
/// ```
/// use simdht_table::{CuckooTable, Layout};
///
/// let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 4), 8)?;
/// t.insert(42, 1000)?;
/// assert_eq!(t.get(42), Some(1000));
/// assert_eq!(t.get(43), None);
/// t.insert(42, 2000)?; // update in place
/// assert_eq!(t.get(42), Some(2000));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CuckooTable<K, V> {
    layout: Layout,
    hash: HashFamily<K>,
    storage: Storage<K, V>,
    len: usize,
    stats: InsertStats,
}

impl<K: Lane, V: Lane> Clone for CuckooTable<K, V> {
    fn clone(&self) -> Self {
        CuckooTable {
            layout: self.layout,
            hash: self.hash.clone(),
            storage: self.storage.clone(),
            len: self.len,
            stats: self.stats,
        }
    }
}

impl<K: Lane, V: Lane> CuckooTable<K, V> {
    /// Create an empty table with `2^log2_buckets` buckets.
    ///
    /// # Errors
    ///
    /// [`TableError::MismatchedInterleavedWidths`] if the layout is
    /// interleaved and `K`/`V` widths differ;
    /// [`TableError::TooManyBuckets`] if the bucket count exceeds what a
    /// `K`-bit multiply-shift hash can index.
    pub fn new(layout: Layout, log2_buckets: u32) -> Result<Self, TableError> {
        Self::with_rng(layout, log2_buckets, &mut deterministic_rng())
    }

    /// [`CuckooTable::new`] with caller-supplied hash-multiplier randomness.
    ///
    /// # Errors
    ///
    /// See [`CuckooTable::new`].
    pub fn with_rng(
        layout: Layout,
        log2_buckets: u32,
        rng: &mut impl Rng,
    ) -> Result<Self, TableError> {
        let hash = HashFamily::tag_dispersed(layout.n_ways(), log2_buckets, rng);
        Self::with_hash_family(layout, log2_buckets, hash)
    }

    /// [`CuckooTable::new`] with a caller-supplied [`HashFamily`] — lets
    /// tests and experiments pin a placement scheme (e.g. compare the
    /// tag-dispersed default against independent per-way multipliers).
    ///
    /// # Errors
    ///
    /// See [`CuckooTable::new`]. Additionally the hash family's way count
    /// and bucket count must match `layout` / `log2_buckets`.
    pub fn with_hash_family(
        layout: Layout,
        log2_buckets: u32,
        hash: HashFamily<K>,
    ) -> Result<Self, TableError> {
        if layout.arrangement() == Arrangement::Interleaved && K::BITS != V::BITS {
            return Err(TableError::MismatchedInterleavedWidths {
                key_bits: K::BITS,
                val_bits: V::BITS,
            });
        }
        if log2_buckets >= K::BITS {
            return Err(TableError::TooManyBuckets {
                log2_buckets,
                key_bits: K::BITS,
            });
        }
        assert_eq!(hash.n_ways(), layout.n_ways());
        assert_eq!(hash.num_buckets(), 1usize << log2_buckets);
        let slots = (1usize << log2_buckets) * layout.slots_per_bucket() as usize;
        let storage = match layout.arrangement() {
            Arrangement::Interleaved => Storage::Interleaved(AlignedBuf::new_zeroed(2 * slots)),
            Arrangement::Split => Storage::Split {
                keys: AlignedBuf::new_zeroed(slots),
                vals: AlignedBuf::new_zeroed(slots),
            },
        };
        Ok(CuckooTable {
            layout,
            hash,
            storage,
            len: 0,
            stats: InsertStats::default(),
        })
    }

    /// Create a table sized to (at most) `table_bytes` of slot storage —
    /// how the paper specifies table sizes ("1 MB HT", "16 MB HT", …).
    ///
    /// # Errors
    ///
    /// [`TableError::SizeTooSmall`] if not even one bucket fits, plus the
    /// errors of [`CuckooTable::new`].
    pub fn with_bytes(layout: Layout, table_bytes: usize) -> Result<Self, TableError> {
        let buckets = layout
            .buckets_for_bytes(table_bytes, K::BITS, V::BITS)
            .ok_or(TableError::SizeTooSmall)?;
        Self::new(layout, buckets.trailing_zeros())
    }

    /// The table's layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The hash family (vector kernels replicate it in-register).
    pub fn hash_family(&self) -> &HashFamily<K> {
        &self.hash
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.hash.num_buckets()
    }

    /// Total slot capacity (`buckets × m`).
    pub fn capacity(&self) -> usize {
        self.num_buckets() * self.layout.slots_per_bucket() as usize
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current load factor (`len / capacity`).
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Cumulative insert statistics.
    pub fn insert_stats(&self) -> InsertStats {
        self.stats
    }

    /// The interleaved `[k v k v …]` slot array, if this table uses the
    /// interleaved arrangement. Values are bit-cast to `K` lanes.
    pub fn interleaved(&self) -> Option<&[K]> {
        match &self.storage {
            Storage::Interleaved(data) => Some(data),
            Storage::Split { .. } => None,
        }
    }

    /// The split `([keys], [values])` slot arrays, if this table uses the
    /// split arrangement.
    pub fn split(&self) -> Option<(&[K], &[V])> {
        match &self.storage {
            Storage::Interleaved(_) => None,
            Storage::Split { keys, vals } => Some((keys, vals)),
        }
    }

    #[inline(always)]
    fn slots_per_bucket(&self) -> usize {
        self.layout.slots_per_bucket() as usize
    }

    #[inline(always)]
    fn slot_key(&self, slot: usize) -> K {
        match &self.storage {
            Storage::Interleaved(data) => data[2 * slot],
            Storage::Split { keys, .. } => keys[slot],
        }
    }

    #[inline(always)]
    fn slot_val(&self, slot: usize) -> V {
        match &self.storage {
            Storage::Interleaved(data) => V::from_u64(data[2 * slot + 1].to_u64()),
            Storage::Split { vals, .. } => vals[slot],
        }
    }

    #[inline(always)]
    fn set_slot(&mut self, slot: usize, key: K, val: V) {
        match &mut self.storage {
            Storage::Interleaved(data) => {
                data[2 * slot] = key;
                data[2 * slot + 1] = K::from_u64(val.to_u64());
            }
            Storage::Split { keys, vals } => {
                keys[slot] = key;
                vals[slot] = val;
            }
        }
    }

    /// Slot index range of bucket `b`.
    #[inline(always)]
    pub fn bucket_slots(&self, bucket: usize) -> std::ops::Range<usize> {
        let m = self.slots_per_bucket();
        bucket * m..(bucket + 1) * m
    }

    /// Every slot index `key` is allowed to occupy (the union of its
    /// candidate buckets' slots, deduplicated). Introspection for
    /// model-based tests that independently verify [`InsertError::TableFull`]
    /// claims via bipartite matching.
    pub fn candidate_slots(&self, key: K) -> Vec<usize> {
        let mut bucket_buf = [0usize; MAX_WAYS_USIZE];
        let mut slots = Vec::new();
        let mut seen = [usize::MAX; MAX_WAYS_USIZE];
        for (w, &b) in self.hash.buckets(key, &mut bucket_buf).iter().enumerate() {
            if seen[..w].contains(&b) {
                continue;
            }
            seen[w] = b;
            slots.extend(self.bucket_slots(b));
        }
        slots
    }

    /// Request the cache lines of every candidate bucket for `key` with
    /// [`simdht_simd::prefetch_read`], without probing. Callers that know
    /// the batch ahead of time (the KVS Multi-Get index probe) issue this a
    /// few keys in advance so the probes land in warm lines; see the
    /// group-prefetch discussion in the KVS crate's DESIGN.md §9.
    #[inline]
    pub fn prefetch_candidates(&self, key: K) {
        let m = self.slots_per_bucket();
        for way in 0..self.layout.n_ways() {
            let b = self.hash.bucket(key, way);
            match &self.storage {
                Storage::Interleaved(data) => simdht_simd::prefetch_read(&data[2 * b * m]),
                Storage::Split { keys, vals } => {
                    simdht_simd::prefetch_read(&keys[b * m]);
                    simdht_simd::prefetch_read(&vals[b * m]);
                }
            }
        }
    }

    /// Scalar lookup — the non-SIMD baseline every vector kernel is
    /// compared against (the paper's "Scalar" series).
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        if key == K::EMPTY {
            return None;
        }
        let m = self.slots_per_bucket();
        let n_ways = self.layout.n_ways();
        match &self.storage {
            Storage::Interleaved(data) => {
                for way in 0..n_ways {
                    let base = 2 * self.hash.bucket(key, way) * m;
                    let bucket = &data[base..base + 2 * m];
                    for s in 0..m {
                        if bucket[2 * s] == key {
                            return Some(V::from_u64(bucket[2 * s + 1].to_u64()));
                        }
                    }
                }
            }
            Storage::Split { keys, vals } => {
                for way in 0..n_ways {
                    let base = self.hash.bucket(key, way) * m;
                    let bucket = &keys[base..base + m];
                    for (s, k) in bucket.iter().enumerate() {
                        if *k == key {
                            return Some(vals[base + s]);
                        }
                    }
                }
            }
        }
        None
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Insert or update `key → value`.
    ///
    /// # Errors
    ///
    /// [`InsertError::SentinelKey`] for key `0`;
    /// [`InsertError::TableFull`] when no relocation path to an empty slot
    /// exists (the table is unchanged and has reached its achievable load
    /// factor for this key sequence).
    pub fn insert(&mut self, key: K, value: V) -> Result<(), InsertError> {
        if key == K::EMPTY {
            return Err(InsertError::SentinelKey);
        }
        // Hash-then-search: compute the key's candidate buckets exactly
        // once; the update probe, the empty-slot fast path, and the BFS
        // roots all reuse them instead of re-hashing per phase.
        let mut bucket_buf = [0usize; MAX_WAYS_USIZE];
        let buckets = self.hash.buckets(key, &mut bucket_buf);
        // Update in place if present.
        let m = self.slots_per_bucket();
        for &b in buckets {
            for s in b * m..(b + 1) * m {
                if self.slot_key(s) == key {
                    self.set_slot(s, key, value);
                    return Ok(());
                }
            }
        }
        // Fast path: an empty slot in any candidate bucket.
        for &b in buckets {
            if let Some(slot) = self.empty_slot_in(b) {
                self.set_slot(slot, key, value);
                self.len += 1;
                self.stats.direct += 1;
                return Ok(());
            }
        }
        // BFS for a relocation path ending at an empty slot.
        match self.find_relocation_path(buckets) {
            Some(path) => {
                self.stats.moves += (path.len() - 1) as u64;
                // path = [root, …, free]; shift occupants toward the free
                // slot, back to front.
                for w in (1..path.len()).rev() {
                    let from = path[w - 1];
                    let (k, v) = (self.slot_key(from), self.slot_val(from));
                    self.set_slot(path[w], k, v);
                }
                self.set_slot(path[0], key, value);
                self.len += 1;
                self.stats.relocated += 1;
                Ok(())
            }
            None => {
                self.stats.failed += 1;
                Err(InsertError::TableFull)
            }
        }
    }

    /// Remove `key`, returning its payload if present.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let slot = self.find_slot(key)?;
        let val = self.slot_val(slot);
        self.set_slot(slot, K::EMPTY, V::EMPTY);
        self.len -= 1;
        Some(val)
    }

    /// Remove all items (storage is retained).
    pub fn clear(&mut self) {
        let slots = self.capacity();
        for s in 0..slots {
            self.set_slot(s, K::EMPTY, V::EMPTY);
        }
        self.len = 0;
    }

    /// Iterate over all stored `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        (0..self.capacity()).filter_map(move |s| {
            let k = self.slot_key(s);
            (k != K::EMPTY).then(|| (k, self.slot_val(s)))
        })
    }

    fn find_slot(&self, key: K) -> Option<usize> {
        let m = self.slots_per_bucket();
        for way in 0..self.layout.n_ways() {
            let b = self.hash.bucket(key, way);
            for s in b * m..(b + 1) * m {
                if self.slot_key(s) == key {
                    return Some(s);
                }
            }
        }
        None
    }

    /// First empty slot of `bucket` — the insert path's occupancy scan.
    ///
    /// For 32-bit key lanes (the width every KVS index instantiates) the
    /// bucket's key lanes are viewed as raw `u32` words and scanned with
    /// one SIMD movemask against the empty sentinel
    /// ([`simdht_simd::scan::eq_lane_mask_u32`]); interleaved storage
    /// scans all `2m` lanes and keeps the even (key) bits. Other widths
    /// keep the scalar walk. Both orders are left-to-right, so placement
    /// is bit-identical (pinned by `empty_slot_scan_matches_scalar`).
    ///
    /// Writer-side only (`&mut self` up the stack).
    fn empty_slot_in(&self, bucket: usize) -> Option<usize> {
        let m = self.slots_per_bucket();
        if K::BITS == 32
            && std::mem::size_of::<K>() == 4
            && std::mem::align_of::<K>() == 4
            && m <= 16
        {
            let empty = K::EMPTY.to_u64() as u32;
            let range = self.bucket_slots(bucket);
            return match &self.storage {
                Storage::Interleaved(data) => {
                    // SAFETY: `K` is a 4-byte/4-aligned plain integer lane
                    // (checked above); the `2m` lanes starting at key lane
                    // `2 * range.start` are in bounds, and `u32` accepts
                    // any bit pattern.
                    let lanes: &[u32] = unsafe {
                        std::slice::from_raw_parts(data[2 * range.start..].as_ptr().cast(), 2 * m)
                    };
                    // Keys are the even lanes of the `[k v k v …]` row.
                    let mask = simdht_simd::scan::eq_lane_mask_u32(lanes, empty) & 0x5555_5555;
                    (mask != 0).then(|| range.start + (mask.trailing_zeros() / 2) as usize)
                }
                Storage::Split { keys, .. } => {
                    // SAFETY: as above; the `m` key lanes of this bucket.
                    let lanes: &[u32] = unsafe {
                        std::slice::from_raw_parts(keys[range.start..].as_ptr().cast(), m)
                    };
                    let mask = simdht_simd::scan::eq_lane_mask_u32(lanes, empty);
                    (mask != 0).then(|| range.start + mask.trailing_zeros() as usize)
                }
            };
        }
        self.empty_slot_in_scalar(bucket)
    }

    /// The scalar left-to-right walk [`CuckooTable::empty_slot_in`]
    /// replaces; kept as the placement oracle for the differential pin.
    fn empty_slot_in_scalar(&self, bucket: usize) -> Option<usize> {
        self.bucket_slots(bucket)
            .find(|&s| self.slot_key(s) == K::EMPTY)
    }

    /// BFS over "evict the occupant of slot X" states; returns a path of
    /// slots `[root, …, free]` where each occupant moves one step toward
    /// `free` and the new key lands in `root`.
    fn find_relocation_path(&self, start_buckets: &[usize]) -> Option<Vec<usize>> {
        let m = self.slots_per_bucket();
        crate::relocation_path(
            start_buckets,
            m,
            |slot| {
                // The occupant's escape buckets come from its tag: for the
                // 2-way scheme `cur ^ disperse(tag)` (the partial-key XOR
                // involution — no base re-hash), for N ways one base + one
                // tag multiply instead of N independent hashes.
                let occupant = self.slot_key(slot);
                debug_assert_ne!(occupant, K::EMPTY, "BFS expanded an empty slot");
                let mut alts = [0usize; MAX_WAYS_USIZE];
                let n = self
                    .hash
                    .relocation_buckets(occupant, slot / m, &mut alts)
                    .len();
                alts.into_iter().take(n)
            },
            |bucket| self.empty_slot_in(bucket),
        )
    }
}

pub(crate) fn deterministic_rng() -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(
        0x51_6d_48_54_2d_44, /* arbitrary; chosen so deterministic fixtures fill */
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn layouts() -> Vec<Layout> {
        vec![
            Layout::n_way(2),
            Layout::n_way(3),
            Layout::n_way(4),
            Layout::bcht(2, 2),
            Layout::bcht(2, 4),
            Layout::bcht(2, 8),
            Layout::bcht(3, 4),
            Layout::bcht(2, 4).with_arrangement(Arrangement::Split),
            Layout::n_way(3).with_arrangement(Arrangement::Split),
        ]
    }

    #[test]
    fn insert_get_roundtrip_all_layouts() {
        for layout in layouts() {
            let mut t: CuckooTable<u32, u32> = CuckooTable::new(layout, 8).unwrap();
            let n = (t.capacity() as f64 * 0.5) as u32;
            for i in 1..=n {
                t.insert(i * 7 + 1, i).unwrap_or_else(|e| {
                    panic!("insert failed at {i}/{n} for {layout}: {e}");
                });
            }
            for i in 1..=n {
                assert_eq!(t.get(i * 7 + 1), Some(i), "layout {layout}");
            }
            assert_eq!(t.len(), n as usize);
        }
    }

    /// The SIMD occupancy scan places inserts in exactly the slot the
    /// scalar walk would pick, across every layout/arrangement and an
    /// arbitrary insert/remove history — and across lane widths (u16/u64
    /// take the scalar fallback, u32 the movemask path).
    #[test]
    fn empty_slot_scan_matches_scalar() {
        fn drive<K: Lane, V: Lane>(layout: Layout, mk_key: impl Fn(u64) -> K) {
            let Ok(mut t) = CuckooTable::<K, V>::new(layout, 6) else {
                return; // mixed-width interleaved layouts are rejected
            };
            let buckets = t.capacity() / t.slots_per_bucket();
            let mut live: Vec<K> = Vec::new();
            let mut state = 0x7AB1_E000u64 ^ u64::from(layout.slots_per_bucket());
            for _ in 0..600 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if !state.is_multiple_of(3) || live.is_empty() {
                    let k = mk_key(state);
                    if k != K::EMPTY && t.insert(k, V::from_u64(1)).is_ok() {
                        live.push(k);
                    }
                } else {
                    let k = live.swap_remove((state >> 33) as usize % live.len());
                    t.remove(k);
                }
                for b in 0..buckets {
                    assert_eq!(
                        t.empty_slot_in(b),
                        t.empty_slot_in_scalar(b),
                        "layout {layout}, bucket {b}"
                    );
                }
            }
        }
        for layout in layouts() {
            drive::<u32, u32>(layout, |s| s as u32);
            drive::<u16, u16>(layout, |s| s as u16);
            drive::<u64, u64>(layout, |s| s);
        }
    }

    #[test]
    fn misses_return_none() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 4), 6).unwrap();
        for i in 1..100u32 {
            t.insert(i, i).unwrap();
        }
        for i in 1000..1100u32 {
            assert_eq!(t.get(i), None);
        }
        assert_eq!(t.get(0), None, "sentinel key is never present");
    }

    #[test]
    fn sentinel_key_rejected() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::n_way(2), 4).unwrap();
        assert_eq!(t.insert(0, 5), Err(InsertError::SentinelKey));
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 2), 4).unwrap();
        t.insert(9, 1).unwrap();
        t.insert(9, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(9), Some(2));
    }

    #[test]
    fn remove_frees_slot() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 4), 6).unwrap();
        for i in 1..=50u32 {
            t.insert(i, i * 2).unwrap();
        }
        assert_eq!(t.remove(25), Some(50));
        assert_eq!(t.get(25), None);
        assert_eq!(t.len(), 49);
        assert_eq!(t.remove(25), None);
        // Slot is reusable.
        t.insert(25, 99).unwrap();
        assert_eq!(t.get(25), Some(99));
    }

    #[test]
    fn interleaved_requires_equal_widths() {
        let err = CuckooTable::<u16, u32>::new(Layout::bcht(2, 8), 6).unwrap_err();
        assert!(matches!(
            err,
            TableError::MismatchedInterleavedWidths { .. }
        ));
        // Split arrangement accepts mixed widths.
        let t = CuckooTable::<u16, u32>::new(
            Layout::bcht(2, 8).with_arrangement(Arrangement::Split),
            6,
        );
        assert!(t.is_ok());
    }

    #[test]
    fn mixed_width_split_roundtrip() {
        let mut t: CuckooTable<u16, u32> =
            CuckooTable::new(Layout::bcht(2, 8).with_arrangement(Arrangement::Split), 8).unwrap();
        for i in 1..=1000u16 {
            t.insert(i, u32::from(i) * 1000).unwrap();
        }
        for i in 1..=1000u16 {
            assert_eq!(t.get(i), Some(u32::from(i) * 1000));
        }
    }

    #[test]
    fn u64_keys_roundtrip() {
        let mut t: CuckooTable<u64, u64> = CuckooTable::new(Layout::n_way(3), 10).unwrap();
        for i in 1..=800u64 {
            t.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i).unwrap();
        }
        for i in 1..=800u64 {
            assert_eq!(t.get(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), Some(i));
        }
    }

    #[test]
    fn reaches_high_load_factor_with_bcht() {
        // (2,4) BCHT should exceed 90 % load factor (paper Fig. 2).
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 4), 10).unwrap();
        let mut inserted = 0u32;
        let mut k = 1u32;
        loop {
            if t.insert(k.wrapping_mul(2_654_435_761).max(1), k).is_err() {
                break;
            }
            inserted += 1;
            k += 1;
        }
        let lf = f64::from(inserted) / t.capacity() as f64;
        assert!(lf > 0.90, "load factor only {lf:.3}");
    }

    #[test]
    fn two_way_nonbucketized_load_factor_near_half() {
        // Random keys: the classic 2-way cuckoo threshold is 50 %.
        // (Structured key sequences interact with multiply-shift hashing to
        // give unrealistically regular cuckoo graphs — see loadfactor tests.)
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::n_way(2), 10).unwrap();
        loop {
            let k: u32 = rng.gen::<u32>().max(1);
            if t.contains(k) {
                continue;
            }
            if t.insert(k, 1).is_err() {
                break;
            }
        }
        let lf = t.load_factor();
        assert!(
            lf > 0.30 && lf < 0.70,
            "2-way LF should be near 0.5, got {lf:.3}"
        );
    }

    #[test]
    fn failed_insert_leaves_table_intact() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::n_way(2), 4).unwrap();
        let mut reference = HashMap::new();
        let mut k = 1u32;
        loop {
            let key = k.wrapping_mul(2_654_435_761).max(1);
            match t.insert(key, k) {
                Ok(()) => {
                    reference.insert(key, k);
                }
                Err(InsertError::TableFull) => break,
                Err(e) => panic!("{e}"),
            }
            k += 1;
        }
        // All previously stored pairs survive the failed insert.
        assert_eq!(t.len(), reference.len());
        for (key, v) in &reference {
            assert_eq!(t.get(*key), Some(*v));
        }
    }

    #[test]
    fn iter_matches_contents() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 2), 6).unwrap();
        for i in 1..=40u32 {
            t.insert(i, i + 100).unwrap();
        }
        let collected: HashMap<u32, u32> = t.iter().collect();
        assert_eq!(collected.len(), 40);
        assert_eq!(collected[&7], 107);
    }

    #[test]
    fn clear_resets() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 2), 6).unwrap();
        for i in 1..=40u32 {
            t.insert(i, i).unwrap();
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(7), None);
        t.insert(7, 7).unwrap();
        assert_eq!(t.get(7), Some(7));
    }

    #[test]
    fn with_bytes_sizes_table() {
        let t: CuckooTable<u32, u32> =
            CuckooTable::with_bytes(Layout::bcht(2, 4), 1 << 20).unwrap();
        // (2,4) x (32,32): 32 B/bucket -> 32768 buckets, 131072 slots = 1 MiB.
        assert_eq!(t.num_buckets(), 32768);
        assert_eq!(t.capacity(), 131072);
    }

    #[test]
    fn stats_track_relocations() {
        let mut t: CuckooTable<u32, u32> = CuckooTable::new(Layout::bcht(2, 4), 8).unwrap();
        let mut k = 1u32;
        while t.insert(k.wrapping_mul(2_654_435_761).max(1), k).is_ok() {
            k += 1;
        }
        let s = t.insert_stats();
        assert!(s.direct > 0);
        assert!(s.relocated > 0, "high-LF fill must relocate");
        assert_eq!(s.failed, 1);
        assert_eq!(s.direct + s.relocated, t.len() as u64);
    }
}
