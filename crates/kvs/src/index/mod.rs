//! Pluggable hash indexes for the key-value store.
//!
//! The paper's server data-access phase (§VI-A step 2) probes a hash table
//! mapping a 32-bit key hash to a payload that locates the full key-value
//! object. Five backends are provided. The first three match the paper's
//! Fig. 11 comparison; the last two are extensions. `memc3`, `dpdk` and
//! `local` are one partial-key cuckoo core, [`TagCuckoo`], over three
//! [`BucketLayout`]s; `hor` and `ver` wrap the paper's SIMD kernels.
//!
//! * [`Memc3Index`] — the non-SIMD CPU-optimized baseline: (2,4) BCHT with
//!   8-bit tags, partial-key cuckoo relocation, and optimistic striped
//!   version counters (MemC3, NSDI'13).
//! * [`SimdIndex`] with [`SimdIndexKind::HorizontalBcht`] — (2,4) BCHT with
//!   32-bit hash keys probed horizontally with AVX2
//!   ("Bucket-Cuckoo-Hor(AVX-256)" in Fig. 11).
//! * [`SimdIndex`] with [`SimdIndexKind::VerticalNway`] — 3-way cuckoo HT
//!   probed vertically with AVX-512 ("Cuckoo-Ver(AVX-512)").
//! * [`TagSimdIndex`] — a DPDK/Cuckoo++-style (2,8) BCHT whose 8-bit
//!   signatures are probed with one SSE byte compare per bucket (the
//!   remaining SIMD rows of Table I, offered as an extension).
//! * [`F14LocalIndex`] — a Folly-F14-style *localized-SIMD* (2,7) BCHT
//!   whose tag row and entries share one 64-byte cache line, so a find_hit
//!   touches a single line and a find_miss rejects 7 candidates per line
//!   (the third point on the indirect/direct SIMD curve; ROADMAP item 2).
//!
//! Because the index keys are *hashes*, distinct application keys can
//! collide; the store always verifies the full key against the slab after a
//! hit and falls back to [`HashIndex::lookup_all`] for the rare multi-
//! candidate case.

mod cuckoo;
mod local;
mod memc3;
mod simd;
mod tagsimd;

pub use cuckoo::{BucketLayout, TagCuckoo};
pub use local::F14LocalIndex;
pub use memc3::Memc3Index;
pub use simd::{SimdIndex, SimdIndexKind};
pub use tagsimd::TagSimdIndex;

/// Error from [`HashIndex::insert`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// No cuckoo relocation path; the index is at capacity.
    Full,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Full => write!(f, "hash index is full"),
        }
    }
}

impl std::error::Error for IndexError {}

/// A hash index mapping 32-bit key hashes to 32-bit item ids.
pub trait HashIndex: Send + Sync {
    /// Human-readable name for reports (e.g. `"MemC3"`).
    fn name(&self) -> &'static str;

    /// Insert or update `hash → item`.
    ///
    /// # Errors
    ///
    /// [`IndexError::Full`] when no relocation path exists.
    fn insert(&mut self, hash: u32, item: u32) -> Result<(), IndexError>;

    /// Remove the mapping `hash → item` (both must match).
    fn remove(&mut self, hash: u32, item: u32);

    /// Batched lookup — the hot path the paper vectorizes. Writes the first
    /// candidate item id per hash (or [`crate::item::NO_ITEM`]) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != hashes.len()`.
    fn lookup_batch(&self, hashes: &[u32], out: &mut [u32]);

    /// First candidate item id for a single hash. The default routes
    /// through [`HashIndex::lookup_batch`]; backends with a cheaper
    /// single-probe entry point should override it.
    fn probe_first(&self, hash: u32) -> u32 {
        let mut out = [crate::item::NO_ITEM];
        self.lookup_batch(std::slice::from_ref(&hash), &mut out);
        out[0]
    }

    /// [`HashIndex::lookup_batch`] with group software prefetching: the
    /// bucket cache lines a probe will read are requested with
    /// [`simdht_simd::prefetch_read`] before their turn, hiding the DRAM
    /// latency of an out-of-cache table behind the rest of the batch
    /// (the NUMA-scalable group-prefetch technique; see DESIGN.md §9).
    /// The tag-cuckoo indexes run a `depth`-ahead AMAC pipeline, one
    /// candidate bucket at a time; the SIMD indexes sweep the whole
    /// batch's candidates up front.
    ///
    /// `depth == 0` must behave exactly like `lookup_batch`, and every
    /// depth must return what it returns.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != hashes.len()`.
    fn lookup_batch_prefetched(&self, hashes: &[u32], out: &mut [u32], depth: usize);

    /// The batched lookup the store's **racy** optimistic read path calls
    /// (no lock held; writers may be mutating the index concurrently —
    /// DESIGN.md §11). Semantically identical to
    /// [`HashIndex::lookup_batch_prefetched`], which is also the default
    /// implementation — correct for backends whose probe storage consists
    /// entirely of atomic words loaded individually. Backends whose normal
    /// probe forms plain references over storage a writer rewrites (e.g.
    /// SIMD kernels reading whole bucket slices) must override this with a
    /// variant that reads racing slots through volatile or atomic loads.
    ///
    /// Only meaningful when [`HashIndex::optimistic_probe_safe`] is
    /// `true`; results are *candidates* that the store re-validates.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != hashes.len()`.
    fn lookup_batch_optimistic(&self, hashes: &[u32], out: &mut [u32], depth: usize) {
        self.lookup_batch_prefetched(hashes, out, depth);
    }

    /// All candidate item ids for one hash (slow path for tag/hash
    /// collisions after a failed full-key verification).
    fn lookup_all(&self, hash: u32, out: &mut Vec<u32>);

    /// Prefetch the bucket cache lines `hash` would probe — the write
    /// path's look-ahead hook ([`crate::store::KvStore::set_multi`]
    /// requests key `j + G`'s buckets while inserting key `j`, mirroring
    /// the read path's group prefetch). Must only issue prefetches; no
    /// side effects. The default is a no-op for indexes with no per-hash
    /// pointer chase.
    fn prefetch_hash(&self, hash: u32) {
        let _ = hash;
    }

    /// Whether [`HashIndex::lookup_batch_optimistic`] may be called
    /// *racily* — concurrently with `insert`/`remove` on another thread,
    /// with no lock held — as the store's seqlock optimistic read path
    /// does (DESIGN.md §11).
    ///
    /// An implementation may return `true` only if that probe touches
    /// exclusively **fixed-capacity storage that never moves or frees
    /// while the index lives** (e.g. bucket arrays sized at
    /// construction), and reads every word that can race a writer with an
    /// atomic or volatile load (never through a plain `&`/`&[T]` over the
    /// racing memory — that is a data race even if the result is later
    /// discarded). Torn *values* are fine — the store validates every
    /// probe result against version counters before trusting it — but a
    /// probe must never follow a pointer a racing writer could free or
    /// reallocate (growth, rehash, heap-backed overflow chains), because
    /// validation cannot undo a use-after-free. Note the contract covers
    /// only `lookup_batch_optimistic`: `lookup_all` and the plain batch
    /// probes may use unstable storage (the store calls them under the
    /// lock).
    ///
    /// Defaults to `false`; the store then silently keeps the locked read
    /// path even when asked for [`crate::store::ReadMode::Optimistic`].
    fn optimistic_probe_safe(&self) -> bool {
        false
    }

    /// Current number of stored entries.
    fn len(&self) -> usize;

    /// `true` when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Build an index by its experiment short name — `"memc3"`, `"hor"`
/// (horizontal AVX2 BCHT), `"ver"` (vertical AVX-512 3-way), `"dpdk"`
/// (SSE tag index), or `"local"` (F14-style cache-line-local tags) — or
/// `None` for an unknown name. Shared by the `simdht-kvsd` /
/// `simdht-memslap` binaries and the bench experiments.
pub fn by_short_name(name: &str, capacity: usize) -> Option<Box<dyn HashIndex>> {
    Some(match name {
        "memc3" => Box::new(Memc3Index::with_capacity(capacity)),
        "hor" => Box::new(SimdIndex::with_capacity(
            SimdIndexKind::HorizontalBcht,
            capacity,
        )),
        "ver" => Box::new(SimdIndex::with_capacity(
            SimdIndexKind::VerticalNway,
            capacity,
        )),
        "dpdk" => Box::new(TagSimdIndex::with_capacity(capacity)),
        "local" => Box::new(F14LocalIndex::with_capacity(capacity)),
        _ => return None,
    })
}

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;

/// FNV-1a over the key bytes, with `0` remapped (the SIMD tables reserve 0
/// as the empty-slot sentinel).
pub fn hash_key(key: &[u8]) -> u32 {
    let mut h: u32 = FNV_OFFSET;
    for &b in key {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Number of hash chains interleaved by [`hash_keys_into`].
///
/// Eight matches the AVX2 `u32` lane count, so the fixed-width fast path
/// maps one chain per SIMD lane.
pub const HASH_LANES: usize = 8;

/// Batched FNV-1a: hash every key in `keys` and append the results to
/// `out`, bit-identical to calling [`hash_key`] per key (including the
/// `0 → 1` remap).
///
/// Keys are processed in groups of [`HASH_LANES`]. A byte-serial FNV chain
/// has a loop-carried `xor → mul` dependency (~4 cycles/byte); interleaving
/// eight independent chains lets the core overlap them. When all eight keys
/// in a group share one length the per-byte column is loaded into a
/// [`simdht_simd::Vector`] and the whole group advances with one vector
/// `xor` + `mullo` per byte position (AVX2 when available, the emulated
/// backend otherwise). Mixed-length groups fall back to the interleaved
/// scalar chains; the trailing partial group falls back to [`hash_key`].
///
/// This is `KvStore::mget`'s Phase 1 kernel (see DESIGN.md §9).
pub fn hash_keys_into(keys: &[&[u8]], out: &mut Vec<u32>) {
    out.reserve(keys.len());
    let mut groups = keys.chunks_exact(HASH_LANES);
    for group in &mut groups {
        let group: &[&[u8]; HASH_LANES] =
            group.try_into().expect("chunks_exact yields full groups");
        let len = group[0].len();
        let hashes = if group.iter().all(|k| k.len() == len) {
            hash_group_fixed(group, len)
        } else {
            hash_group_mixed(group)
        };
        out.extend_from_slice(&hashes);
    }
    for key in groups.remainder() {
        out.push(hash_key(key));
    }
}

/// Eight interleaved scalar FNV-1a chains over keys of (possibly) mixed
/// lengths. Lanes whose key is exhausted simply stop advancing, so each
/// lane computes exactly `hash_key(group[lane])`.
fn hash_group_mixed(group: &[&[u8]; HASH_LANES]) -> [u32; HASH_LANES] {
    let mut h = [FNV_OFFSET; HASH_LANES];
    let max_len = group.iter().map(|k| k.len()).max().unwrap_or(0);
    for j in 0..max_len {
        for (lane, key) in group.iter().enumerate() {
            if let Some(&b) = key.get(j) {
                h[lane] = (h[lane] ^ u32::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    for x in &mut h {
        if *x == 0 {
            *x = 1;
        }
    }
    h
}

/// SIMD fast path for a group whose eight keys all have length `len`:
/// one vector `xor` + `mullo` advances all eight chains per byte position.
fn hash_group_fixed(group: &[&[u8]; HASH_LANES], len: usize) -> [u32; HASH_LANES] {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        hash_group_fixed_v::<simdht_simd::x86::v256::U32x8>(group, len)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    {
        hash_group_fixed_v::<simdht_simd::emu::Emu<u32, HASH_LANES>>(group, len)
    }
}

fn hash_group_fixed_v<V: simdht_simd::Vector<Lane = u32>>(
    group: &[&[u8]; HASH_LANES],
    len: usize,
) -> [u32; HASH_LANES] {
    debug_assert_eq!(V::LANES, HASH_LANES);
    let prime = V::splat(FNV_PRIME);
    let mut h = V::splat(FNV_OFFSET);
    let mut column = [0u32; HASH_LANES];
    for j in 0..len {
        for (lane, key) in group.iter().enumerate() {
            column[lane] = u32::from(key[j]);
        }
        h = h.xor(V::from_slice(&column)).mullo(prime);
    }
    let mut out = [0u32; HASH_LANES];
    h.write_to_slice(&mut out);
    for x in &mut out {
        if *x == 0 {
            *x = 1;
        }
    }
    out
}

/// Shared sentinel re-export for convenience.
pub use crate::item::NO_ITEM as MISS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::NO_ITEM;

    #[test]
    fn hash_is_deterministic_and_nonzero() {
        assert_eq!(hash_key(b"hello"), hash_key(b"hello"));
        assert_ne!(hash_key(b"hello"), hash_key(b"hellp"));
        assert_ne!(hash_key(b""), 0);
        // Probe a large sample for the zero remap invariant.
        for i in 0..100_000u32 {
            assert_ne!(hash_key(&i.to_le_bytes()), 0);
        }
    }

    #[test]
    fn miss_sentinel_is_item_sentinel() {
        assert_eq!(MISS, NO_ITEM);
    }

    fn batch_hashes(keys: &[Vec<u8>]) -> Vec<u32> {
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let mut out = Vec::new();
        hash_keys_into(&refs, &mut out);
        out
    }

    #[test]
    fn batched_matches_scalar_fixed_width() {
        // Full groups of uniform length exercise the SIMD fast path.
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| format!("key-{i:012}").into_bytes())
            .collect();
        let expect: Vec<u32> = keys.iter().map(|k| hash_key(k)).collect();
        assert_eq!(batch_hashes(&keys), expect);
    }

    #[test]
    fn batched_matches_scalar_mixed_and_remainder() {
        // Mixed lengths (interleaved scalar path), empty keys, and a
        // trailing partial group (scalar fallback).
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..43u32 {
            let k = match i % 4 {
                0 => Vec::new(),
                1 => vec![i as u8],
                2 => format!("k{i}").into_bytes(),
                _ => format!("much-longer-key-{i:08}").into_bytes(),
            };
            keys.push(k);
        }
        let expect: Vec<u32> = keys.iter().map(|k| hash_key(k)).collect();
        assert_eq!(batch_hashes(&keys), expect);
    }

    /// Find a key whose raw (un-remapped) FNV-1a hash is exactly 0, by
    /// searching 4-byte prefixes: with state `s` after 5 bytes, the final
    /// step `(s ^ b) * PRIME` reaches 0 iff `b == s`, which needs `s < 256`.
    fn zero_hash_key() -> Vec<u8> {
        for prefix in 0u32..1 << 24 {
            let mut s = FNV_OFFSET;
            for &b in &prefix.to_le_bytes() {
                s = (s ^ u32::from(b)).wrapping_mul(FNV_PRIME);
            }
            for b1 in 0u32..256 {
                let t = (s ^ b1).wrapping_mul(FNV_PRIME);
                if t < 256 {
                    let key = vec![
                        prefix.to_le_bytes()[0],
                        prefix.to_le_bytes()[1],
                        prefix.to_le_bytes()[2],
                        prefix.to_le_bytes()[3],
                        b1 as u8,
                        t as u8,
                    ];
                    // Raw chain must land on 0; the public API remaps to 1.
                    let raw = key.iter().fold(FNV_OFFSET, |h, &b| {
                        (h ^ u32::from(b)).wrapping_mul(FNV_PRIME)
                    });
                    assert_eq!(raw, 0);
                    return key;
                }
            }
        }
        unreachable!("zero-hash key exists well inside the searched prefix space")
    }

    #[test]
    fn zero_remap_holds_at_every_lane_position() {
        let zk = zero_hash_key();
        assert_eq!(hash_key(&zk), 1);
        for lane in 0..HASH_LANES {
            // Fixed-width group: every key has the zero key's length, so the
            // SIMD path runs with the zero hash in lane `lane`.
            let mut fixed: Vec<Vec<u8>> = (0..HASH_LANES as u32)
                .map(|i| format!("z{i:0w$}", w = zk.len() - 1).into_bytes())
                .collect();
            fixed[lane] = zk.clone();
            let got = batch_hashes(&fixed);
            assert_eq!(got[lane], 1, "fixed path, lane {lane}");
            assert_eq!(got, fixed.iter().map(|k| hash_key(k)).collect::<Vec<_>>());

            // Mixed-length group: the interleaved scalar path.
            let mut mixed: Vec<Vec<u8>> = (0..HASH_LANES).map(|i| vec![b'x'; i + 1]).collect();
            mixed[lane] = zk.clone();
            let got = batch_hashes(&mixed);
            assert_eq!(got[lane], 1, "mixed path, lane {lane}");
            assert_eq!(got, mixed.iter().map(|k| hash_key(k)).collect::<Vec<_>>());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The batched kernel is bit-identical to the scalar `hash_key` for
        /// arbitrary key counts and lengths (both SIMD and mixed groups).
        #[test]
        fn batched_kernel_equals_scalar(
            keys in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
                0..40,
            ),
        ) {
            let expect: Vec<u32> = keys.iter().map(|k| hash_key(k)).collect();
            proptest::prop_assert_eq!(batch_hashes(&keys), expect);
        }

        /// Same-length keys (the SIMD fast path) against the scalar chain.
        #[test]
        fn batched_kernel_equals_scalar_fixed(
            len in 0usize..32,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut s = seed;
            let keys: Vec<Vec<u8>> = (0..HASH_LANES)
                .map(|_| {
                    (0..len)
                        .map(|_| {
                            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                            (s >> 56) as u8
                        })
                        .collect()
                })
                .collect();
            let expect: Vec<u32> = keys.iter().map(|k| hash_key(k)).collect();
            proptest::prop_assert_eq!(batch_hashes(&keys), expect);
        }
    }
}
