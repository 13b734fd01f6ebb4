//! The in-memory key-value store: slab-backed items, a pluggable hash
//! index, two-queue eviction over CLOCK reference bits, and the three-phase
//! Multi-Get pipeline the paper instruments (§VI-A, Fig. 10/11b):
//!
//! 1. **Pre-processing** — parse the batch, compute a 32-bit hash per
//!    key, and partition the batch by shard.
//! 2. **Hash-table lookup** — the batched index probe (the phase SIMD
//!    accelerates), run per shard.
//! 3. **Post-processing** — resolve object pointers, verify the full key
//!    against the slab, copy values into the response, and update CLOCK
//!    freshness metadata.
//!
//! Phases 2–3 run under the shard's shared lock (`read_pass`, and
//! `Shard::probe_key` for the per-key step that `get` shares).
//!
//! # Sharding
//!
//! The store is split into `S` power-of-two **shards** (the paper's first
//! named piece of future work is concurrent mixed read/write workloads;
//! sharding is the standard memcached scaling recipe). Each shard owns its
//! own slab arena, item table, hash index, eviction queues, and statistics,
//! all behind one `RwLock`. Keys route to shards by an independent
//! multiply-shift hash over the 32-bit key hash — the same scheme as
//! [`simdht_table::sharded::ShardedTable`] — so a hot index bucket and a
//! hot shard are uncorrelated.
//!
//! Writes (`set`/`delete`) lock only their key's shard. A Multi-Get is
//! partitioned by shard and runs one batched SIMD lookup per non-empty
//! shard; it holds **at most one shard lock at a time** (see DESIGN.md,
//! "Shard routing and lock hierarchy"), so lookups scale with shard count
//! and can never deadlock against multi-key writers.
//!
//! `KvStore` spawns no background threads: dropping it (after the last
//! `Arc` clone goes away) only frees memory and cannot race an in-flight
//! request, because any in-flight request holds a shard guard borrowed
//! from the store itself.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::RwLock;

use crate::clock::{Clock, Standing};
use crate::index::{hash_key, hash_keys_into, HashIndex, IndexError};
use crate::item::{decode_row, item_decode_checked, item_key, write_item, ItemTable, NO_ITEM};
use crate::slab::{SlabAllocator, SlabError};

mod response;

pub use response::MGetResponse;

/// The Multi-Get prefetch look-ahead `G` (DESIGN.md §9), also the
/// set-path and eviction look-ahead. A stage has the lines of `G`
/// keys in flight. The lookup stage asks per key for its first bucket —
/// one line for `memc3` (slot words; the striped version counters stay
/// resident) and `local`, two for `dpdk` (signatures, items) — and for the
/// second bucket only of keys the first did not answer; the post stage for
/// one item-table line `2G` ahead and one chunk line `G` ahead per hit.
/// At eight that is 8–10 requests outstanding in lookup (16 for `dpdk`)
/// and 16 in post, against the ten to sixteen L1 miss buffers of recent
/// x86 cores. The G sweep that chose it is retired into EXPERIMENTS.md
/// (`kvs-prefetch-sweep`).
pub const PREFETCH_DEPTH: usize = 8;

/// The store's one read discipline, for reports: every `get`/`mget` takes
/// its shard's shared lock (DESIGN.md §11). A compatibility shim — the
/// benchmark crate prints [`ReadMode::name`]; it goes with that crate's
/// next change (ROADMAP item 3).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Readers take the shard's shared `RwLock`.
    #[default]
    Locked,
}

impl ReadMode {
    /// The mode's name as reports print it.
    pub fn name(self) -> &'static str {
        "locked"
    }
}

/// Store construction parameters.
#[derive(Copy, Clone, Debug)]
pub struct StoreConfig {
    /// Slab memory budget in bytes, split evenly across shards. Each shard
    /// gets at least 1 MiB, so a budget under 1 MiB per shard is exceeded,
    /// and a size class with no page gets its first past the budget.
    pub memory_budget: usize,
    /// Expected maximum live items (sizes the hash index; split across
    /// shards).
    pub capacity_items: usize,
    /// Number of shards (rounded up to a power of two; `1` = the classic
    /// single-lock store).
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 100_000,
            shards: 1,
        }
    }
}

/// Error from [`KvStore::set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object cannot fit in any slab class.
    ObjectTooLarge,
    /// Could not make room even after evicting everything.
    OutOfMemory,
    /// The hash index refused the entry even after eviction attempts.
    IndexFull,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ObjectTooLarge => write!(f, "object exceeds largest slab class"),
            StoreError::OutOfMemory => write!(f, "out of memory after eviction"),
            StoreError::IndexFull => write!(f, "hash index full after eviction"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Outcome of a [`KvStore::cas`] compare-and-swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The expected version matched; the value was replaced and the key's
    /// version advanced to the carried value.
    Stored(u64),
    /// The key exists but its current version (carried) differs from the
    /// expected one; nothing was written.
    Conflict(u64),
    /// The key does not exist (or had expired); nothing was written.
    NotFound,
}

/// Process-coarse monotonic seconds — the store's TTL clock (DESIGN.md
/// §13). Second granularity keeps the expiry metadata word cheap to
/// compare on the read path; the epoch is process start, so absolute
/// `expires_at` values are only meaningful within one process.
fn coarse_now() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs()
}

/// The store's TTL clock for one call, read at most once and only when an
/// expiry is involved: a nonzero expiry word to compare against or a TTL
/// to add to. Most items never expire, and reading the clock is an
/// `Instant::now()`, dearer than the rest of a key's CLOCK work.
struct Now<'a> {
    store: &'a KvStore,
    secs: OnceCell<u64>,
}

impl<'a> Now<'a> {
    fn new(store: &'a KvStore) -> Self {
        Now {
            store,
            secs: OnceCell::new(),
        }
    }

    fn secs(&self) -> u64 {
        *self.secs.get_or_init(|| self.store.now_secs())
    }

    /// `true` when expiry metadata word `at` marks an item dead (0 = never
    /// expires).
    #[inline(always)]
    fn expired(&self, at: u64) -> bool {
        at != 0 && at <= self.secs()
    }

    /// The expiry word of an item written now with `ttl_secs` (0 = never
    /// expires).
    fn deadline(&self, ttl_secs: u32) -> u64 {
        if ttl_secs == 0 {
            0
        } else {
            self.secs() + u64::from(ttl_secs)
        }
    }
}

/// Per-phase elapsed nanoseconds of one Multi-Get (Fig. 11b breakdown).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Pre-processing: parse + hash + shard partition.
    pub pre: u64,
    /// Hash-table lookup (batched, summed over probed shards).
    pub lookup: u64,
    /// Post-processing: verify + copy + CLOCK updates.
    pub post: u64,
}

impl PhaseNanos {
    /// Total server data-access time.
    pub fn total(&self) -> u64 {
        self.pre + self.lookup + self.post
    }

    /// Accumulate another breakdown.
    pub fn add(&mut self, other: PhaseNanos) {
        self.pre += other.pre;
        self.lookup += other.lookup;
        self.post += other.post;
    }
}

/// Result of one Multi-Get.
#[derive(Copy, Clone, Debug, Default)]
pub struct MGetOutcome {
    /// Keys found.
    pub found: usize,
    /// Phase timing.
    pub phases: PhaseNanos,
}

/// Result of one batched Multi-Set ([`KvStore::set_multi`]).
#[derive(Copy, Clone, Debug, Default)]
pub struct SetMultiOutcome {
    /// Keys stored successfully.
    pub stored: usize,
    /// Phase timing (pre = hash + partition, lookup = the candidate
    /// prefetch probe, post = the inserts themselves).
    pub phases: PhaseNanos,
}

/// Reusable scratch + per-key results for [`KvStore::set_multi`] — the
/// write path's counterpart to [`MGetResponse`]. Reusing one batch across
/// calls avoids per-request allocation, as a real server does.
#[derive(Debug, Default)]
pub struct SetMultiBatch {
    results: Vec<Result<(), StoreError>>,
    scratch: BatchScratch,
}

impl SetMultiBatch {
    /// An empty batch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-key outcomes of the last [`KvStore::set_multi`], in request
    /// order (duplicate keys each get the outcome of their own insert).
    pub fn results(&self) -> &[Result<(), StoreError>] {
        &self.results
    }
}

/// Reusable scratch of the two batch pipelines ([`KvStore::mget`] and
/// [`KvStore::set_multi_ttl`]), owned by [`MGetResponse`] and
/// [`SetMultiBatch`] so a long-lived buffer allocates nothing per request.
#[derive(Debug, Default, Clone)]
struct BatchScratch {
    /// A Multi-Set's keys, gathered from its pairs for Phase 1 (empty
    /// between calls).
    keys: Vec<&'static [u8]>,
    /// Phase 1: one 32-bit hash per key, in request order.
    hashes: Vec<u32>,
    /// Phase 1: request slots per shard (multi-shard stores only).
    per_shard: Vec<Vec<u32>>,
    /// The current shard's hashes, gathered through `per_shard`.
    sub_hashes: Vec<u32>,
    pass: PassScratch,
}

/// What one shard's pass works in (the part of [`BatchScratch`] the
/// per-shard visitor gets while the partition is borrowed).
#[derive(Debug, Default, Clone)]
struct PassScratch {
    /// First index candidate per key of the shard's slice.
    candidates: Vec<u32>,
    /// Read path: each candidate's item-row word, staged `G` keys ahead.
    words: Vec<u64>,
    /// Every index candidate for one hash (the collision slow path).
    ids: Vec<u32>,
}

/// Multiply-shift shard routing over a 32-bit key hash — the same scheme
/// `simdht_table::sharded::ShardedTable` uses for its table keys, exposed
/// so property tests can prove the two layers agree on placement for the
/// same `(mul, shift, mask)` parameters.
#[inline(always)]
pub fn shard_route(hash: u32, mul: u32, shift: u32, mask: usize) -> usize {
    (hash.wrapping_mul(mul) >> shift) as usize & mask
}

/// The fixed routing multiplier (odd, independent of the FNV key hash and
/// of every index's bucket function).
pub const SHARD_MUL: u32 = 0x9E37_79B9;

/// Snapshot of one shard's counters (or their sum, via
/// [`KvStore::totals`]). Conservation invariant: summing any field across
/// [`KvStore::shard_stats`] equals the same field of [`KvStore::totals`],
/// and `items` sums to [`KvStore::len`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Live items.
    pub items: usize,
    /// Successful `set` calls routed here.
    pub sets: u64,
    /// Successful `delete` calls routed here.
    pub deletes: u64,
    /// Live items evicted here (expired ones count as `expired`).
    pub evictions: u64,
    /// Items moved from the probationary FIFO to the main CLOCK ring here.
    pub promotions: u64,
    /// Fresh items admitted referenced here because a read had missed
    /// their key (read-miss admission, [`Clock::want`]).
    pub wanted_admits: u64,
    /// Multi-Get keys probed here.
    pub mget_keys: u64,
    /// Multi-Get keys found here.
    pub mget_hits: u64,
    /// Successful `cas` stores routed here.
    pub cas_ok: u64,
    /// `cas` version conflicts routed here.
    pub cas_conflicts: u64,
    /// Successful `touch`/`set_ttl` calls routed here.
    pub touches: u64,
    /// Expired items observed (lazy-expiry misses) or reclaimed here.
    pub expired: u64,
    /// Slab bytes the live items' chunks take, size-class rounding
    /// included (`/ items` = chunk bytes per item).
    pub chunk_bytes: usize,
}

impl ShardStats {
    /// Accumulate another shard's counters.
    pub fn add(&mut self, other: &ShardStats) {
        self.items += other.items;
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.evictions += other.evictions;
        self.promotions += other.promotions;
        self.wanted_admits += other.wanted_admits;
        self.mget_keys += other.mget_keys;
        self.mget_hits += other.mget_hits;
        self.cas_ok += other.cas_ok;
        self.cas_conflicts += other.cas_conflicts;
        self.touches += other.touches;
        self.expired += other.expired;
        self.chunk_bytes += other.chunk_bytes;
    }
}

/// On lines of their own: every Multi-Get `fetch_add`s `mget_keys` and
/// `mget_hits`, and no field added to [`Shard`] moves what shares them.
#[derive(Default)]
#[repr(align(64))]
struct ShardCounters {
    sets: AtomicU64,
    deletes: AtomicU64,
    evictions: AtomicU64,
    mget_keys: AtomicU64,
    mget_hits: AtomicU64,
    cas_ok: AtomicU64,
    cas_conflicts: AtomicU64,
    touches: AtomicU64,
    expired: AtomicU64,
}

/// Line-aligned and a whole number of lines long, so the lock word beside
/// it in [`ShardSlot`]'s `RwLock` keeps a line of its own whatever its
/// fields are.
#[repr(align(64))]
struct Shard {
    slab: SlabAllocator,
    items: ItemTable,
    index: Box<dyn HashIndex>,
    clock: Clock,
    /// [`Shard::find_verified`]'s candidate list, reused under the write
    /// lock.
    ids: Vec<u32>,
}

/// One shard: its state behind its lock, and its counters.
struct ShardSlot {
    shard: RwLock<Shard>,
    counters: ShardCounters,
}

/// One key of a read: its hash, its bytes, the store clock the read runs
/// at, and the candidate list its collision slow path fills.
struct Query<'a> {
    hash: u32,
    key: &'a [u8],
    now: &'a Now<'a>,
    ids: &'a mut Vec<u32>,
}

/// What [`Shard::probe_key`] concluded about one key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Probe {
    /// A live item has this key: its value went to `hit`, its CLOCK bit is set.
    Hit,
    /// The key's item exists but has expired — lazy expiry: it reads as a
    /// miss. A reader cannot reclaim it; writers and the eviction path do.
    Expired,
    /// No live item has this key.
    Miss,
}

/// Counters of the retired optimistic read path, always zero. A
/// compatibility shim like [`ReadMode`]: the benchmark crate reports
/// these fields, and they go with its next change (ROADMAP item 3).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimisticStats {
    /// Optimistic passes started.
    pub attempts: u64,
    /// Passes rolled back for a retry.
    pub retries: u64,
    /// Reads that gave up on the optimistic path.
    pub fallbacks: u64,
}

/// The sharded key-value store. Reads (`get`/`mget`) run one pass per
/// shard they probe (one at a time) under that shard's shared lock,
/// concurrently across server workers; writes (`set`/`delete`) serialize
/// only within their key's shard.
pub struct KvStore {
    shards: Vec<ShardSlot>,
    shard_mul: u32,
    shard_shift: u32,
    shard_mask: usize,
    /// Test/bench offset added to the coarse TTL clock (seconds); lets
    /// deterministic suites expire items without sleeping.
    time_offset: AtomicU64,
    name: &'static str,
    /// Test-only writer pause point: called by `set` after the
    /// replace-delete, while the write lock is held. Lets the torn-read
    /// oracle hold a writer mid-mutation.
    #[cfg(any(test, feature = "torture"))]
    torture_set_pause: parking_lot::Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("index", &self.name)
            .field("shards", &self.shards.len())
            .field("items", &self.len())
            .finish()
    }
}

impl KvStore {
    /// Create a classic single-shard store over the given hash index.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards > 1` — a multi-shard store needs one index
    /// per shard; use [`KvStore::with_shards`].
    pub fn new(index: Box<dyn HashIndex>, config: StoreConfig) -> Self {
        assert!(
            config.shards <= 1,
            "KvStore::new builds a single shard; use KvStore::with_shards for {} shards",
            config.shards
        );
        let mut index = Some(index);
        Self::with_shards(
            StoreConfig {
                shards: 1,
                ..config
            },
            move |_| index.take().expect("single shard"),
        )
    }

    /// Create a store with `config.shards` shards (rounded up to a power
    /// of two), calling `make_index` once per shard with the per-shard
    /// item capacity.
    pub fn with_shards(
        config: StoreConfig,
        mut make_index: impl FnMut(usize) -> Box<dyn HashIndex>,
    ) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        let per_capacity = config.capacity_items.div_ceil(n);
        let per_budget = (config.memory_budget / n).max(1 << 20);
        let shards: Vec<ShardSlot> = (0..n)
            .map(|_| ShardSlot {
                shard: RwLock::new(Shard {
                    slab: SlabAllocator::new(per_budget),
                    items: ItemTable::new(),
                    index: make_index(per_capacity),
                    clock: Clock::new(per_capacity),
                    ids: Vec::new(),
                }),
                counters: ShardCounters::default(),
            })
            .collect();
        let name = shards[0].shard.read().index.name();
        let log2 = n.trailing_zeros();
        KvStore {
            shards,
            shard_mul: SHARD_MUL,
            shard_shift: (32 - log2).clamp(1, 31),
            shard_mask: n - 1,
            time_offset: AtomicU64::new(0),
            name,
            #[cfg(any(test, feature = "torture"))]
            torture_set_pause: parking_lot::Mutex::new(None),
        }
    }

    /// The store's read discipline: always [`ReadMode::Locked`] (a
    /// compatibility shim, see [`ReadMode`]).
    pub fn read_mode(&self) -> ReadMode {
        ReadMode::Locked
    }

    /// Counters of the retired optimistic read path: always zero (a
    /// compatibility shim, see [`OptimisticStats`]).
    pub fn optimistic_stats(&self) -> OptimisticStats {
        OptimisticStats::default()
    }

    /// Install (or clear) the torn-read torture hook: `set` calls it after
    /// deleting a replaced key's old item, with the write lock held. A
    /// hook that blocks holds the writer mid-mutation — the window the
    /// shard lock must keep readers out of. Test/`torture`-feature builds
    /// only.
    ///
    /// Note: the hook runs under an internal mutex, so don't call
    /// `set_torture_set_pause` again while a hooked `set` is paused.
    #[cfg(any(test, feature = "torture"))]
    #[doc(hidden)]
    pub fn set_torture_set_pause(&self, hook: Option<Box<dyn Fn() + Send + Sync>>) {
        *self.torture_set_pause.lock() = hook;
    }

    /// The prefetch look-ahead `G` of the Multi-Get pipeline and the
    /// eviction look-ahead: [`PREFETCH_DEPTH`], for reports.
    pub fn prefetch_depth(&self) -> usize {
        PREFETCH_DEPTH
    }

    /// The backing index's name (for reports).
    pub fn index_name(&self) -> &'static str {
        self.name
    }

    /// Bytes of every shard's index storage
    /// ([`HashIndex::storage_bytes`]).
    pub fn index_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.shard.read().index.storage_bytes())
            .sum()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The `(mul, shift, mask)` routing parameters (for placement tests).
    pub fn shard_params(&self) -> (u32, u32, usize) {
        (self.shard_mul, self.shard_shift, self.shard_mask)
    }

    /// The shard index `key` routes to.
    #[inline(always)]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_for_hash(hash_key(key))
    }

    #[inline(always)]
    fn shard_for_hash(&self, hash: u32) -> usize {
        shard_route(hash, self.shard_mul, self.shard_shift, self.shard_mask)
    }

    /// Number of live items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.shard.read().items.len()).sum()
    }

    /// Live item count per shard (balance reporting).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.shard.read().items.len())
            .collect()
    }

    /// Per-shard counter snapshots.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let g = s.shard.read();
                ShardStats {
                    items: g.items.len(),
                    sets: s.counters.sets.load(Ordering::Relaxed),
                    deletes: s.counters.deletes.load(Ordering::Relaxed),
                    evictions: s.counters.evictions.load(Ordering::Relaxed),
                    promotions: g.clock.promotions(),
                    wanted_admits: g.clock.wanted_admits(),
                    mget_keys: s.counters.mget_keys.load(Ordering::Relaxed),
                    mget_hits: s.counters.mget_hits.load(Ordering::Relaxed),
                    cas_ok: s.counters.cas_ok.load(Ordering::Relaxed),
                    cas_conflicts: s.counters.cas_conflicts.load(Ordering::Relaxed),
                    touches: s.counters.touches.load(Ordering::Relaxed),
                    expired: s.counters.expired.load(Ordering::Relaxed),
                    chunk_bytes: g.slab.chunk_bytes(),
                }
            })
            .collect()
    }

    /// Counters summed over all shards.
    pub fn totals(&self) -> ShardStats {
        let mut t = ShardStats::default();
        for s in self.shard_stats() {
            t.add(&s);
        }
        t
    }

    /// `true` when the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's current TTL-clock second (coarse monotonic seconds
    /// since process start, plus any [`KvStore::advance_time`] offset).
    #[inline]
    pub fn now_secs(&self) -> u64 {
        coarse_now() + self.time_offset.load(Ordering::Relaxed)
    }

    /// Advance the store's TTL clock by `secs` — a test/bench hook so
    /// deterministic suites can expire items without wall-clock sleeps.
    /// Monotonic only (the clock never rewinds).
    pub fn advance_time(&self, secs: u64) {
        self.time_offset.fetch_add(secs, Ordering::Relaxed);
    }

    /// Insert or replace `key → value`, locking only the key's shard.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectTooLarge`] for oversized objects;
    /// [`StoreError::OutOfMemory`] / [`StoreError::IndexFull`] when
    /// eviction (within this shard) cannot make room.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.set_v(key, value, 0).map(|_| ())
    }

    /// [`KvStore::set`] with a TTL, returning the key's new version.
    ///
    /// `ttl_secs == 0` means the item never expires; otherwise it expires
    /// `ttl_secs` store-clock seconds from now and is lazily treated as
    /// absent by every read path afterwards (DESIGN.md §13). The returned
    /// version is 1 for a fresh (or expired-and-replaced) key and
    /// `previous + 1` when a live item was replaced.
    ///
    /// # Errors
    ///
    /// As [`KvStore::set`].
    pub fn set_v(&self, key: &[u8], value: &[u8], ttl_secs: u32) -> Result<u64, StoreError> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.shard.write();
        self.set_in_guard(slot, &mut g, hash, key, value, ttl_secs)
    }

    /// The per-key insert body shared by [`KvStore::set`] and
    /// [`KvStore::set_multi`]: replace, allocate (evicting on pressure),
    /// register, index (evicting on pressure), admit. The caller holds the
    /// shard's write guard, so a multi-key batch amortizes one lock
    /// acquisition over the whole group.
    fn set_in_guard(
        &self,
        slot: &ShardSlot,
        g: &mut Shard,
        hash: u32,
        key: &[u8],
        value: &[u8],
        ttl_secs: u32,
    ) -> Result<u64, StoreError> {
        let now = Now::new(self);
        // Replace semantics: drop any existing item with this exact key.
        // The version chain continues across a live replace, and the new
        // item takes the old one's place in the eviction queues; an expired
        // item is indistinguishable from an absent one, so its chain
        // restarts at 1 (exactly what a reader that already saw the miss
        // would expect) and its successor is admitted fresh.
        let mut version = 1u64;
        let mut replaces = None;
        if let Some(existing) = g.find_verified(hash, key) {
            let live = !now.expired(g.items.expires_at(existing));
            if live {
                version = g.items.version(existing).wrapping_add(1);
            }
            replaces = g.delete_item(hash, existing).filter(|_| live);
        }
        // Torn-read oracle pause point: old item gone, new one not yet
        // written — a reader that saw this intermediate state would miss
        // the key entirely.
        #[cfg(any(test, feature = "torture"))]
        if let Some(hook) = self.torture_set_pause.lock().as_ref() {
            hook();
        }
        // Allocate, evicting on pressure.
        let slab_ref = loop {
            match write_item(&mut g.slab, key, value) {
                Ok(r) => break r,
                Err(SlabError::ObjectTooLarge { .. }) => return Err(StoreError::ObjectTooLarge),
                Err(SlabError::OutOfMemory) => match g.evict_one(&now) {
                    Some(expired) => Self::count_evict(slot, expired),
                    None => return Err(StoreError::OutOfMemory),
                },
            }
        };
        let item = g
            .items
            .register_versioned(slab_ref, version, now.deadline(ttl_secs));
        // Index insertion, evicting on pressure.
        loop {
            match g.index.insert(hash, item) {
                Ok(()) => break,
                Err(IndexError::Full) => match g.evict_one(&now) {
                    Some(expired) => Self::count_evict(slot, expired),
                    None => {
                        // Roll back the slab registration.
                        let r = g.items.unregister(item).expect("just registered");
                        g.slab.free(r);
                        return Err(StoreError::IndexFull);
                    }
                },
            }
        }
        g.clock.admit(item, hash, replaces);
        slot.counters.sets.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Attribute one [`Shard::evict_one`] removal to the right counter:
    /// reclaiming an expired item is not a capacity eviction.
    #[inline]
    fn count_evict(slot: &ShardSlot, expired: bool) {
        if expired {
            slot.counters.expired.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The batched Multi-Set pipeline (DESIGN.md §12) — the write-path
    /// counterpart to [`KvStore::mget`]:
    ///
    /// 1. **Pre-processing** — hash every key with the interleaved FNV
    ///    kernel and partition the batch by shard.
    /// 2. **Candidate probe** — per shard, under **one** write lock for
    ///    the whole group, a batched
    ///    group-prefetched lookup warms the index buckets and stages the
    ///    replacement candidates' item rows.
    /// 3. **Insert** — each key runs the same replace/allocate/index body
    ///    as [`KvStore::set`], with key `j + G`'s buckets and candidate
    ///    rows prefetched while key `j` inserts.
    ///
    /// Keys in one batch apply in request order, so duplicate keys resolve
    /// later-wins exactly as the equivalent sequence of `set` calls would,
    /// and eviction decisions (victims and promotions) match the sequential
    /// path.
    /// Per-key outcomes land in `batch.results()`; a failed key does not
    /// stop the rest of the batch.
    ///
    /// Holds at most one shard lock at a time, in shard order — same lock
    /// hierarchy as `mget`, so it cannot deadlock against readers or other
    /// batch writers.
    pub fn set_multi(
        &self,
        pairs: &[(&[u8], &[u8])],
        batch: &mut SetMultiBatch,
    ) -> SetMultiOutcome {
        self.set_multi_ttl(pairs, 0, batch)
    }

    /// [`KvStore::set_multi`] with one TTL applied to every pair in the
    /// batch (`0` = never expires) — the store half of the `SetMultiEx`
    /// wire verb.
    pub fn set_multi_ttl(
        &self,
        pairs: &[(&[u8], &[u8])],
        ttl_secs: u32,
        batch: &mut SetMultiBatch,
    ) -> SetMultiOutcome {
        // Phase 1: pre-processing — hash and shard partition
        // ([`KvStore::for_each_shard`]).
        let t0 = Instant::now();
        let SetMultiBatch { results, scratch } = batch;
        results.clear();
        results.resize(pairs.len(), Ok(()));
        let mut keys: Vec<&[u8]> = std::mem::take(&mut scratch.keys);
        keys.extend(pairs.iter().map(|&(k, _)| k));
        let mut stored = 0usize;
        let mut phases = PhaseNanos::default();
        let t1 = self.for_each_shard(&keys, scratch, |slot, sub, pass| {
            let candidates = &mut pass.candidates;
            // Phase 2: one exclusive lock for the whole group; the
            // batched probe warms this shard's buckets
            // and stages replacement candidates. The candidates are
            // *hints only* — an earlier insert in this batch can change
            // the truth (duplicate keys) — so Phase 3 re-verifies each key
            // under the same guard.
            let tl0 = Instant::now();
            let mut g = slot.shard.write();
            candidates.clear();
            candidates.resize(sub.hashes.len(), NO_ITEM);
            g.index
                .lookup_batch_prefetched(sub.hashes, candidates, PREFETCH_DEPTH);
            for &cand in candidates.iter().take(2 * PREFETCH_DEPTH) {
                g.items.prefetch(cand);
            }
            let tl1 = Instant::now();
            // Phase 3: inserts, with key j+G's index buckets and candidate
            // item rows requested while key j runs.
            for (j, &hash) in sub.hashes.iter().enumerate() {
                if let Some(&ahead) = candidates.get(j + 2 * PREFETCH_DEPTH) {
                    g.items.prefetch(ahead);
                }
                if let Some(&h_ahead) = sub.hashes.get(j + PREFETCH_DEPTH) {
                    g.index.prefetch_hash(h_ahead);
                }
                let i = sub.slot(j);
                let (key, value) = pairs[i];
                let r = self
                    .set_in_guard(slot, &mut g, hash, key, value, ttl_secs)
                    .map(|_| ());
                if r.is_ok() {
                    stored += 1;
                }
                results[i] = r;
            }
            let tl2 = Instant::now();
            drop(g);
            phases.lookup += (tl1 - tl0).as_nanos() as u64;
            phases.post += (tl2 - tl1).as_nanos() as u64;
        });
        phases.pre = (t1 - t0).as_nanos() as u64;
        scratch.keys = crate::emptied(keys);
        SetMultiOutcome { stored, phases }
    }

    /// Phase 1 of both batch pipelines and the walk that follows it: hash
    /// every key (eight interleaved FNV chains per group, SIMD for
    /// fixed-width groups), partition the batch by shard, then hand each
    /// non-empty shard's slice to `visit`, in shard order — so a caller
    /// that locks inside `visit` holds at most one shard lock at a time.
    /// Returns the instant pre-processing ended.
    fn for_each_shard(
        &self,
        keys: &[&[u8]],
        scratch: &mut BatchScratch,
        mut visit: impl FnMut(&ShardSlot, ShardBatch<'_>, &mut PassScratch),
    ) -> Instant {
        // The hash kernel is the first reader of the caller's key bytes
        // and would take their misses one 8-key group at a time; ask for
        // every key's first and last line before it reads any. A hint on
        // memory the caller owns, free when the keys sit in a just-read
        // frame.
        for key in keys {
            if let (Some(first), Some(last)) = (key.first(), key.last()) {
                simdht_simd::prefetch_read(first);
                simdht_simd::prefetch_read(last);
            }
        }
        scratch.hashes.clear();
        hash_keys_into(keys, &mut scratch.hashes);
        let hashes = &scratch.hashes[..];
        if let [only] = &self.shards[..] {
            let t1 = Instant::now();
            if !hashes.is_empty() {
                let slots = None;
                visit(only, ShardBatch { hashes, slots }, &mut scratch.pass);
            }
            return t1;
        }
        scratch.per_shard.resize_with(self.shards.len(), Vec::new);
        for bucket in scratch.per_shard.iter_mut() {
            bucket.clear();
        }
        for (i, &h) in hashes.iter().enumerate() {
            scratch.per_shard[self.shard_for_hash(h)].push(i as u32);
        }
        let t1 = Instant::now();
        for (slot, slots) in self.shards.iter().zip(scratch.per_shard.iter()) {
            if slots.is_empty() {
                continue;
            }
            let sub_hashes = &mut scratch.sub_hashes;
            sub_hashes.clear();
            sub_hashes.extend(slots.iter().map(|&i| hashes[i as usize]));
            let (hashes, slots) = (&sub_hashes[..], Some(&slots[..]));
            visit(slot, ShardBatch { hashes, slots }, &mut scratch.pass);
        }
        t1
    }

    /// Look up a single key.
    ///
    /// The one-key case of the read pipeline — same probe, verification,
    /// collision slow path, CLOCK, and counter semantics as a one-key
    /// [`KvStore::mget`] but without the response-buffer machinery (an
    /// `MGetResponse` carries hash/partition/candidate scratch vectors
    /// that a single-key call would allocate and throw away).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        self.get_in(slot, &slot.shard.read(), hash, key, |_, v| v.to_vec())
    }

    /// [`Shard::probe_key`] applied to one key of `shard` (its shared lock
    /// held by the caller), the hit mapped through `value_of(item, value
    /// bytes)`.
    fn get_in<T>(
        &self,
        slot: &ShardSlot,
        shard: &Shard,
        hash: u32,
        key: &[u8],
        value_of: impl Fn(u32, &[u8]) -> T,
    ) -> Option<T> {
        let mut ids = Vec::new();
        let now = Now::new(self);
        let mut q = Query {
            hash,
            key,
            now: &now,
            ids: &mut ids,
        };
        let mut cand = [NO_ITEM];
        shard
            .index
            .lookup_batch_prefetched(std::slice::from_ref(&hash), &mut cand, 0);
        let word = shard.stage(cand[0]);
        let mut out = None;
        let mut hit = |item: u32, v: &[u8]| out = Some(value_of(item, v));
        let probe = shard.probe_key(cand[0], word, &mut q, &mut hit);
        let (found, expired) = (probe == Probe::Hit, probe == Probe::Expired);
        if !found {
            shard.clock.want(hash);
        }
        Self::count_reads(slot, 1, found.into(), expired.into());
        out
    }

    /// Attribute `keys` probed keys — `found` of them hits, `expired` of
    /// them lazy-expiry misses — to `slot`.
    fn count_reads(slot: &ShardSlot, keys: u64, found: u64, expired: u64) {
        slot.counters.mget_keys.fetch_add(keys, Ordering::Relaxed);
        if found != 0 {
            slot.counters.mget_hits.fetch_add(found, Ordering::Relaxed);
        }
        if expired != 0 {
            slot.counters.expired.fetch_add(expired, Ordering::Relaxed);
        }
    }

    /// Delete a key; returns `true` if it existed (and had not expired).
    ///
    /// Deleting a lazily-expired item reclaims its storage but reports
    /// `false` — on the command surface an expired item *is* absent.
    pub fn delete(&self, key: &[u8]) -> bool {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.shard.write();
        match g.find_verified(hash, key) {
            Some(item) => {
                let expired = Now::new(self).expired(g.items.expires_at(item));
                g.delete_item(hash, item);
                if expired {
                    slot.counters.expired.fetch_add(1, Ordering::Relaxed);
                } else {
                    slot.counters.deletes.fetch_add(1, Ordering::Relaxed);
                }
                !expired
            }
            None => false,
        }
    }

    /// Compare-and-swap: replace `key`'s value (with `ttl_secs`, 0 = no
    /// expiry) only if its current version equals `expected_version`.
    ///
    /// Linearizes at the shard write lock: the version read, compare, and
    /// replace happen in one critical section, so for every key version
    /// exactly one racing `cas` can observe it and win (DESIGN.md §13).
    /// Expired items count as absent (their storage is reclaimed en
    /// passant).
    ///
    /// # Errors
    ///
    /// As [`KvStore::set`] — allocation/index failures abort the swap
    /// without consuming the version.
    pub fn cas(
        &self,
        key: &[u8],
        expected_version: u64,
        value: &[u8],
        ttl_secs: u32,
    ) -> Result<CasOutcome, StoreError> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.shard.write();
        let now = Now::new(self);
        match g.find_verified(hash, key) {
            Some(item) => {
                if now.expired(g.items.expires_at(item)) {
                    // Reclaim and report absent, like `delete`.
                    g.delete_item(hash, item);
                    slot.counters.expired.fetch_add(1, Ordering::Relaxed);
                    return Ok(CasOutcome::NotFound);
                }
                let current = g.items.version(item);
                if current != expected_version {
                    slot.counters.cas_conflicts.fetch_add(1, Ordering::Relaxed);
                    return Ok(CasOutcome::Conflict(current));
                }
                let new = self.set_in_guard(slot, &mut g, hash, key, value, ttl_secs)?;
                slot.counters.cas_ok.fetch_add(1, Ordering::Relaxed);
                Ok(CasOutcome::Stored(new))
            }
            None => Ok(CasOutcome::NotFound),
        }
    }

    /// Reset `key`'s TTL (`0` = never expires) without touching its value
    /// or version — the `touch` verb. Returns `true` if the key existed
    /// (and had not already expired).
    pub fn set_ttl(&self, key: &[u8], ttl_secs: u32) -> bool {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let mut g = slot.shard.write();
        let now = Now::new(self);
        match g.find_verified(hash, key) {
            Some(item) => {
                if now.expired(g.items.expires_at(item)) {
                    return false;
                }
                g.items.set_expires_at(item, now.deadline(ttl_secs));
                slot.counters.touches.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Alias for [`KvStore::set_ttl`] under its memcached verb name.
    pub fn touch(&self, key: &[u8], ttl_secs: u32) -> bool {
        self.set_ttl(key, ttl_secs)
    }

    /// Look up a single key together with its current version (for a
    /// subsequent [`KvStore::cas`]). The version is read in the same
    /// critical section that resolved the item.
    pub fn get_v(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let g = slot.shard.read();
        let versioned = |item: u32, v: &[u8]| (v.to_vec(), g.items.version(item));
        self.get_in(slot, &g, hash, key, versioned)
    }

    /// The batched Multi-Get pipeline with per-phase timing.
    ///
    /// The batch is partitioned by shard during pre-processing; each
    /// non-empty shard then runs one batched lookup + post-processing pass
    /// under its shared lock. At most one shard lock is held at a time.
    ///
    /// `resp` is reset and refilled; reusing one buffer across calls avoids
    /// per-request allocation, as a real server does.
    pub fn mget(&self, keys: &[&[u8]], resp: &mut MGetResponse) -> MGetOutcome {
        // Phase 1: pre-processing — parse batch, hash every key, partition
        // the batch by shard ([`KvStore::for_each_shard`]).
        let t0 = Instant::now();
        resp.reset(keys.len());
        let mut scratch = std::mem::take(&mut resp.scratch);
        let mut found = 0usize;
        let mut phases = PhaseNanos::default();
        // Phases 2+3 per shard, under that shard's shared lock.
        let t1 = self.for_each_shard(keys, &mut scratch, |slot, sub, pass| {
            let done = self.read_pass(&slot.shard.read(), keys, sub, resp, pass);
            Self::count_reads(slot, sub.hashes.len() as u64, done.found, done.expired);
            found += done.found as usize;
            phases.lookup += done.lookup_ns;
            phases.post += done.post_ns;
        });
        if self.shards.len() > 1 {
            // Shard-grouped records -> request order (still Phase 3 work).
            let tf = Instant::now();
            resp.finalize_request_order();
            phases.post += tf.elapsed().as_nanos() as u64;
        }
        resp.scratch = scratch;
        phases.pre = (t1 - t0).as_nanos() as u64;
        MGetOutcome { found, phases }
    }

    /// One shard's Phase 2+3, its shared lock held by the caller.
    ///
    /// Phase 2 is the hash-table lookup (the batched, SIMD-accelerable
    /// phase) over this shard's slice of the request, with bucket lines
    /// prefetched G = [`PREFETCH_DEPTH`] hashes ahead of each probe. Phase 3
    /// verifies full keys, writes values into the wire buffer, and updates
    /// CLOCK in AMAC-style stages over the candidate list — candidate j's
    /// item-table row is requested 2G keys before its turn, its slab chunk
    /// G keys before (resolving the row the prefetch made warm), so both
    /// dependent misses overlap the verification of earlier keys.
    fn read_pass(
        &self,
        shard: &Shard,
        keys: &[&[u8]],
        sub: ShardBatch<'_>,
        resp: &mut MGetResponse,
        scratch: &mut PassScratch,
    ) -> PassOutcome {
        const G: usize = PREFETCH_DEPTH;
        let n_sub = sub.hashes.len();
        let now = Now::new(self);
        let PassScratch {
            candidates,
            words,
            ids,
        } = scratch;
        let tl0 = Instant::now();
        candidates.clear();
        candidates.resize(n_sub, NO_ITEM);
        shard
            .index
            .lookup_batch_prefetched(sub.hashes, candidates, G);
        let tl1 = Instant::now();
        let mut out = PassOutcome::default();
        words.clear();
        words.resize(n_sub, 0);
        for &cand in candidates.iter().take(2 * G) {
            shard.items.prefetch(cand);
        }
        for j in 0..n_sub.min(G) {
            words[j] = shard.stage(candidates[j]);
        }
        for j in 0..n_sub {
            if let Some(&ahead) = candidates.get(j + 2 * G) {
                shard.items.prefetch(ahead);
            }
            if j + G < n_sub {
                words[j + G] = shard.stage(candidates[j + G]);
            }
            let i = sub.slot(j);
            let mut q = Query {
                hash: sub.hashes[j],
                key: keys[i],
                now: &now,
                ids: &mut *ids,
            };
            let mut hit = |_: u32, v: &[u8]| resp.push_hit(i, v);
            match shard.probe_key(candidates[j], words[j], &mut q, &mut hit) {
                Probe::Hit => out.found += 1,
                Probe::Expired => {
                    out.expired += 1;
                    shard.clock.want(q.hash);
                    resp.push_miss(i);
                }
                Probe::Miss => {
                    shard.clock.want(q.hash);
                    resp.push_miss(i);
                }
            }
        }
        out.lookup_ns = (tl1 - tl0).as_nanos() as u64;
        out.post_ns = tl1.elapsed().as_nanos() as u64;
        out
    }
}

/// What one [`KvStore::read_pass`] did.
#[derive(Copy, Clone, Default)]
struct PassOutcome {
    found: u64,
    expired: u64,
    lookup_ns: u64,
    post_ns: u64,
}

/// One shard's slice of a batch: its keys' hashes, and for each
/// shard-local position `j` the request slot it came from (`None` = the
/// identity, for a single-shard store).
#[derive(Copy, Clone)]
struct ShardBatch<'a> {
    hashes: &'a [u32],
    slots: Option<&'a [u32]>,
}

impl ShardBatch<'_> {
    #[inline(always)]
    fn slot(&self, j: usize) -> usize {
        self.slots.map_or(j, |m| m[j] as usize)
    }
}

impl Shard {
    /// AMAC stage 2 of a read: load candidate `cand`'s row word (its line
    /// made warm by an earlier [`ItemTable::prefetch`]) and request the
    /// chunk's leading cache line, so the full-key compare `G` keys later
    /// reads a warm line. 0 (a dead word) for [`NO_ITEM`].
    #[inline(always)]
    fn stage(&self, cand: u32) -> u64 {
        if cand == NO_ITEM {
            return 0;
        }
        let word = self.items.load_row(cand);
        if let Some(r) = decode_row(word) {
            self.slab.prefetch(r);
        }
        word
    }

    /// Verify candidate `cand` (row word `word`) against `q.key` — never
    /// trusting the index alone — and deliver a live hit to `hit`. `None`
    /// when this candidate is not the key's item: dead row or full-key
    /// mismatch.
    #[inline(always)]
    fn verify(
        &self,
        cand: u32,
        word: u64,
        q: &Query<'_>,
        hit: &mut impl FnMut(u32, &[u8]),
    ) -> Option<Probe> {
        let chunk = self.slab.chunk(decode_row(word)?);
        let (_, value) = item_decode_checked(chunk).filter(|(k, _)| *k == q.key)?;
        Some(if q.now.expired(self.items.expires_at(cand)) {
            Probe::Expired
        } else {
            hit(cand, value);
            self.clock.touch(cand);
            Probe::Hit
        })
    }

    /// The per-key step of every read: resolve `q` given the first
    /// candidate `cand` a batched probe returned for its hash and that
    /// candidate's staged row word. The candidate is verified against the
    /// slab first, every other candidate only after a full-key mismatch
    /// (the tag/hash-collision slow path, MemC3).
    #[inline(always)]
    fn probe_key(
        &self,
        cand: u32,
        word: u64,
        q: &mut Query<'_>,
        hit: &mut impl FnMut(u32, &[u8]),
    ) -> Probe {
        if let Some(probe) = self.verify(cand, word, q, hit) {
            return probe;
        }
        if decode_row(word).is_none() {
            // No candidate, or a dead row.
            return Probe::Miss;
        }
        q.ids.clear();
        self.index.lookup_all(q.hash, q.ids);
        (0..q.ids.len())
            .find_map(|n| self.verify(q.ids[n], self.items.load_row(q.ids[n]), q, hit))
            .unwrap_or(Probe::Miss)
    }

    /// Find the item id whose stored key equals `key`, verifying every
    /// index candidate for `hash` against the slab (never trusts the
    /// index alone) — the write paths' counterpart of [`Shard::probe_key`].
    fn find_verified(&mut self, hash: u32, key: &[u8]) -> Option<u32> {
        let Shard {
            slab,
            items,
            index,
            ids,
            ..
        } = self;
        ids.clear();
        index.lookup_all(hash, ids);
        ids.iter().copied().find(|&c| {
            let chunk = items.get(c).map(|r| slab.chunk(r));
            chunk.is_some_and(|chunk| item_key(chunk) == key)
        })
    }

    /// Drop `item` from index, eviction queues, item table and slab; where
    /// it stood in the queues, for a replacement's admit.
    fn delete_item(&mut self, hash: u32, item: u32) -> Option<Standing> {
        self.index.remove(hash, item);
        let standing = self.clock.remove(item);
        if let Some(r) = self.items.unregister(item) {
            self.slab.free(r);
        }
        standing
    }

    /// Evict one item under pressure via the TTL-integrated two-queue
    /// eviction ([`Clock::evict_with`]): every entry a FIFO pop or the
    /// main ring's hand examines is reclaimed if expired (dead by TTL, no
    /// information lost) before its reference bit can promote or spare it.
    /// Returns `Some(true)` when an expired item was reclaimed,
    /// `Some(false)` for a live eviction, `None` when the shard holds
    /// nothing evictable. The clock is read only for an entry with an
    /// expiry, so with no TTLs in play it is never read.
    ///
    /// The victim leaves the index by the hash its queue entry carries, so
    /// its chunk is not read; and the entries the next eviction will
    /// examine are staged G and 2G ahead ([`Shard::look_ahead`]).
    fn evict_one(&mut self, now: &Now<'_>) -> Option<bool> {
        let items = &self.items;
        // One call of the expiry test per queue entry examined.
        let passed = Cell::new(0usize);
        let victim = self.clock.evict_with(|id| {
            passed.set(passed.get() + 1);
            now.expired(items.expires_at(id))
        })?;
        self.look_ahead(passed.get());
        if let Some(r) = self.items.unregister(victim.item) {
            debug_assert_eq!(
                victim.hash,
                hash_key(item_key(self.slab.chunk(r))),
                "ring hash of item {} is not its key's",
                victim.item,
            );
            self.index.remove(victim.hash, victim.item);
            self.slab.free(r);
        }
        Some(victim.expired)
    }

    /// The eviction look-ahead (DESIGN.md §12), run after an eviction
    /// examined `passed` queue entries: in the queue the next eviction
    /// examines ([`Clock::ahead`]), request what evicting the entries that
    /// just came within reach will touch, in two stages G =
    /// [`PREFETCH_DEPTH`] entries apart so the second can resolve a row the
    /// first made warm. G entries ahead: every line of the entry's chunk —
    /// the set that evicts it rewrites that chunk — and, from the queue
    /// hash, its index buckets. 2G ahead: the item row with the expiry the
    /// eviction tests, the id's version word and its position slot. Hints
    /// only: an eviction that examined more than G entries restarts the
    /// pipeline from the queue's front rather than chase it, and the first
    /// evictions after the queues take turns find their entries unstaged.
    fn look_ahead(&self, passed: usize) {
        const G: usize = PREFETCH_DEPTH;
        let fresh = passed.min(G);
        for distance in G - fresh..G {
            if let Some((id, hash)) = self.clock.ahead(distance) {
                if let Some(r) = self.items.get(id) {
                    self.slab.prefetch_chunk(r);
                }
                self.index.prefetch_hash(hash);
            }
        }
        for distance in 2 * G - fresh..2 * G {
            if let Some((id, _)) = self.clock.ahead(distance) {
                self.items.prefetch(id);
                self.items.prefetch_version(id);
                self.clock.prefetch_position(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{by_short_name, Memc3Index, SimdIndex, SimdIndexKind};

    #[test]
    fn the_lock_word_and_the_counters_keep_lines_of_their_own() {
        use std::mem::{align_of, offset_of, size_of};
        // The lock's own words are the bytes of the `RwLock` outside the
        // shard it wraps. The shard starts and ends on a line boundary, so
        // no line holds both a shard field and a lock word.
        assert_eq!(align_of::<Shard>(), 64);
        assert_eq!(size_of::<Shard>() % 64, 0);
        let store = &stores(10)[0];
        let slot = &store.shards[0];
        let lock_at = &slot.shard as *const RwLock<Shard> as usize;
        let lock_end = lock_at + size_of::<RwLock<Shard>>();
        let shard_at = &*slot.shard.read() as *const Shard as usize;
        assert_eq!(shard_at % 64, 0);
        assert!(lock_at <= shard_at && shard_at + size_of::<Shard>() <= lock_end);
        assert!(size_of::<RwLock<Shard>>() > size_of::<Shard>());
        // The counters every Multi-Get bumps fill lines of their own.
        assert_eq!(align_of::<ShardCounters>(), 64);
        assert_eq!(offset_of!(ShardSlot, counters) % 64, 0);
        assert_eq!(size_of::<ShardCounters>() % 64, 0);
    }

    pub(super) fn stores(capacity: usize) -> Vec<KvStore> {
        let cfg = StoreConfig {
            memory_budget: 8 << 20,
            capacity_items: capacity,
            shards: 1,
        };
        vec![
            KvStore::new(Box::new(Memc3Index::with_capacity(capacity)), cfg),
            KvStore::new(
                Box::new(SimdIndex::with_capacity(
                    SimdIndexKind::HorizontalBcht,
                    capacity,
                )),
                cfg,
            ),
            KvStore::new(
                Box::new(SimdIndex::with_capacity(
                    SimdIndexKind::VerticalNway,
                    capacity,
                )),
                cfg,
            ),
        ]
    }

    pub(super) fn sharded_stores(capacity: usize, shards: usize) -> Vec<KvStore> {
        ["memc3", "hor", "ver"]
            .iter()
            .map(|which| {
                KvStore::with_shards(
                    StoreConfig {
                        memory_budget: 32 << 20,
                        capacity_items: capacity,
                        shards,
                    },
                    |cap| by_short_name(which, cap).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn set_get_roundtrip_all_indexes() {
        for store in stores(2000) {
            for i in 0..1000u32 {
                store
                    .set(
                        format!("key-{i}").as_bytes(),
                        format!("value-{i}").as_bytes(),
                    )
                    .unwrap();
            }
            for i in (0..1000u32).step_by(7) {
                let v = store.get(format!("key-{i}").as_bytes());
                assert_eq!(
                    v.as_deref(),
                    Some(format!("value-{i}").as_bytes()),
                    "{} key {i}",
                    store.index_name()
                );
            }
            assert_eq!(store.get(b"missing"), None);
        }
    }

    #[test]
    fn sharded_set_get_roundtrip_all_indexes() {
        for store in sharded_stores(4000, 4) {
            assert_eq!(store.n_shards(), 4);
            for i in 0..2000u32 {
                store
                    .set(
                        format!("key-{i}").as_bytes(),
                        format!("value-{i}").as_bytes(),
                    )
                    .unwrap();
            }
            assert_eq!(store.len(), 2000, "{}", store.index_name());
            for i in (0..2000u32).step_by(7) {
                let v = store.get(format!("key-{i}").as_bytes());
                assert_eq!(
                    v.as_deref(),
                    Some(format!("value-{i}").as_bytes()),
                    "{} key {i}",
                    store.index_name()
                );
            }
            assert_eq!(store.get(b"missing"), None);
            // Every shard received a plausible share of 2000 uniform keys.
            let lens = store.shard_lens();
            assert_eq!(lens.iter().sum::<usize>(), 2000);
            for (s, &l) in lens.iter().enumerate() {
                assert!(l > 2000 / 4 / 4, "shard {s} starved: {lens:?}");
            }
        }
    }

    #[test]
    fn set_multi_roundtrip_all_indexes() {
        for store in sharded_stores(4000, 4) {
            let pairs_owned: Vec<(Vec<u8>, Vec<u8>)> = (0..200u32)
                .map(|i| {
                    (
                        format!("mk-{i}").into_bytes(),
                        format!("mv-{i}").into_bytes(),
                    )
                })
                .collect();
            let mut batch = SetMultiBatch::new();
            for chunk in pairs_owned.chunks(48) {
                let pairs: Vec<(&[u8], &[u8])> = chunk
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                let outcome = store.set_multi(&pairs, &mut batch);
                assert_eq!(outcome.stored, chunk.len(), "{}", store.index_name());
                assert!(batch.results().iter().all(|r| r.is_ok()));
            }
            assert_eq!(store.len(), 200, "{}", store.index_name());
            for (k, v) in &pairs_owned {
                assert_eq!(
                    store.get(k).as_deref(),
                    Some(v.as_slice()),
                    "{}",
                    store.index_name()
                );
            }
            assert_eq!(store.totals().sets, 200, "{}", store.index_name());
        }
    }

    #[test]
    fn set_multi_duplicates_resolve_later_wins() {
        for store in stores(2000) {
            let pairs: Vec<(&[u8], &[u8])> = vec![
                (b"dup", b"first"),
                (b"solo", b"only"),
                (b"dup", b"second"),
                (b"dup", b"third"),
            ];
            let mut batch = SetMultiBatch::new();
            let outcome = store.set_multi(&pairs, &mut batch);
            // Every pair applies (each duplicate replaces its
            // predecessor), but only two keys survive.
            assert_eq!(outcome.stored, 4, "{}", store.index_name());
            assert_eq!(store.len(), 2, "{}", store.index_name());
            assert_eq!(
                store.get(b"dup").as_deref(),
                Some(&b"third"[..]),
                "{}: last pair in the batch must win",
                store.index_name()
            );
            assert_eq!(store.get(b"solo").as_deref(), Some(&b"only"[..]));
        }
    }

    #[test]
    fn set_multi_oversized_pair_fails_alone() {
        for store in stores(2000) {
            let huge = vec![0u8; 8 << 20]; // exceeds every slab class
            let pairs: Vec<(&[u8], &[u8])> = vec![
                (b"ok-1", b"v1"),
                (b"too-big", huge.as_slice()),
                (b"ok-2", b"v2"),
            ];
            let mut batch = SetMultiBatch::new();
            let outcome = store.set_multi(&pairs, &mut batch);
            assert_eq!(outcome.stored, 2, "{}", store.index_name());
            assert_eq!(
                batch.results(),
                &[Ok(()), Err(StoreError::ObjectTooLarge), Ok(())],
                "{}: a failed pair must not stop the rest of the batch",
                store.index_name()
            );
            assert_eq!(store.get(b"ok-1").as_deref(), Some(&b"v1"[..]));
            assert_eq!(store.get(b"too-big"), None);
            assert_eq!(store.get(b"ok-2").as_deref(), Some(&b"v2"[..]));
        }
    }

    #[test]
    fn sharded_mget_spans_shards() {
        for store in sharded_stores(1000, 8) {
            for i in 0..500u32 {
                store
                    .set(format!("k{i}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            let keys: Vec<String> = (0..500u32).map(|i| format!("k{i}")).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let mut resp = MGetResponse::new();
            let out = store.mget(&refs, &mut resp);
            assert_eq!(out.found, 500, "{}", store.index_name());
            for (i, _) in keys.iter().enumerate() {
                assert_eq!(resp.value(i), Some(&(i as u32).to_le_bytes()[..]));
            }
        }
    }

    #[test]
    fn shard_counter_conservation() {
        let store = KvStore::with_shards(
            StoreConfig {
                memory_budget: 16 << 20,
                capacity_items: 4000,
                shards: 8,
            },
            |cap| by_short_name("hor", cap).unwrap(),
        );
        for i in 0..1000u32 {
            store.set(format!("c{i}").as_bytes(), b"v").unwrap();
        }
        for i in (0..1000u32).step_by(3) {
            assert!(store.delete(format!("c{i}").as_bytes()));
        }
        let keys: Vec<String> = (0..1000u32).map(|i| format!("c{i}")).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let mut resp = MGetResponse::new();
        let out = store.mget(&refs, &mut resp);

        let totals = store.totals();
        let per_shard = store.shard_stats();
        let mut summed = ShardStats::default();
        for s in &per_shard {
            summed.add(s);
        }
        assert_eq!(summed, totals, "per-shard sums must equal totals");
        assert_eq!(totals.sets, 1000);
        assert_eq!(totals.deletes, 334);
        assert_eq!(totals.mget_keys, 1000);
        assert_eq!(totals.mget_hits as usize, out.found);
        assert_eq!(totals.items, store.len());
        assert_eq!(store.len(), 1000 - 334);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let store = KvStore::with_shards(
            StoreConfig {
                shards: 16,
                ..StoreConfig::default()
            },
            |cap| by_short_name("memc3", cap).unwrap(),
        );
        let (mul, shift, mask) = store.shard_params();
        for i in 0..10_000u32 {
            let key = format!("route-{i}");
            let s = store.shard_of(key.as_bytes());
            assert!(s < 16);
            assert_eq!(s, store.shard_of(key.as_bytes()), "routing must be stable");
            assert_eq!(s, shard_route(hash_key(key.as_bytes()), mul, shift, mask));
        }
    }

    #[test]
    fn replace_updates_value() {
        for store in stores(100) {
            store.set(b"k", b"old").unwrap();
            store.set(b"k", b"new-and-longer-value").unwrap();
            assert_eq!(
                store.get(b"k").as_deref(),
                Some(&b"new-and-longer-value"[..])
            );
            assert_eq!(store.len(), 1, "{}", store.index_name());
        }
    }

    #[test]
    fn delete_removes() {
        for store in stores(100) {
            store.set(b"a", b"1").unwrap();
            assert!(store.delete(b"a"));
            assert!(!store.delete(b"a"));
            assert_eq!(store.get(b"a"), None);
            assert!(store.is_empty());
        }
    }

    #[test]
    fn versions_advance_per_key_and_restart_after_delete() {
        for store in stores(100) {
            assert_eq!(store.set_v(b"k", b"v1", 0).unwrap(), 1);
            assert_eq!(store.set_v(b"k", b"v2", 0).unwrap(), 2);
            assert_eq!(store.set_v(b"k", b"wider-value-than-v2", 0).unwrap(), 3);
            assert_eq!(
                store.get_v(b"k"),
                Some((b"wider-value-than-v2".to_vec(), 3)),
                "{}",
                store.index_name()
            );
            assert_eq!(store.get_v(b"absent"), None);
            // Delete ends the chain; a re-set starts a new one at 1.
            assert!(store.delete(b"k"));
            assert_eq!(store.set_v(b"k", b"fresh", 0).unwrap(), 1);
            // Other keys have independent chains.
            assert_eq!(store.set_v(b"other", b"x", 0).unwrap(), 1);
        }
    }

    #[test]
    fn cas_requires_matching_version() {
        for store in stores(100) {
            let name = store.index_name();
            assert_eq!(
                store.cas(b"k", 1, b"v", 0).unwrap(),
                CasOutcome::NotFound,
                "{name}"
            );
            let v = store.set_v(b"k", b"v1", 0).unwrap();
            assert_eq!(
                store.cas(b"k", v + 1, b"nope", 0).unwrap(),
                CasOutcome::Conflict(v),
                "{name}"
            );
            assert_eq!(store.get(b"k").as_deref(), Some(&b"v1"[..]), "{name}");
            assert_eq!(
                store.cas(b"k", v, b"v2", 0).unwrap(),
                CasOutcome::Stored(v + 1),
                "{name}"
            );
            assert_eq!(store.get_v(b"k"), Some((b"v2".to_vec(), v + 1)), "{name}");
            // The consumed version can never win again.
            assert_eq!(
                store.cas(b"k", v, b"stale", 0).unwrap(),
                CasOutcome::Conflict(v + 1),
                "{name}"
            );
            let t = store.totals();
            assert_eq!((t.cas_ok, t.cas_conflicts), (1, 2), "{name}");
        }
    }

    #[test]
    fn ttl_expiry_is_lazy() {
        for store in stores(2000).iter().chain(sharded_stores(2000, 4).iter()) {
            let name = store.index_name();
            store.set_v(b"mortal", b"doomed", 5).unwrap();
            store.set_v(b"immortal", b"stays", 0).unwrap();
            assert_eq!(store.get(b"mortal").as_deref(), Some(&b"doomed"[..]));
            store.advance_time(5);
            let mut resp = MGetResponse::new();
            assert_eq!(store.get(b"mortal"), None, "{name}");
            assert_eq!(store.get_v(b"mortal"), None, "{name}");
            assert_eq!(store.get(b"immortal").as_deref(), Some(&b"stays"[..]));
            let out = store.mget(&[b"mortal".as_ref(), b"immortal".as_ref()], &mut resp);
            assert_eq!(out.found, 1, "{name}");
            assert_eq!(resp.value(0), None, "{name}");
            assert_eq!(resp.value(1), Some(&b"stays"[..]), "{name}");
            assert!(store.totals().expired > 0, "{name}");
            // Expired keys are absent to every verb.
            assert!(!store.delete(b"mortal"), "{name}");
            assert!(!store.touch(b"mortal", 10), "{name}");
            assert_eq!(
                store.cas(b"mortal", 1, b"x", 0).unwrap(),
                CasOutcome::NotFound
            );
            // A re-set starts a fresh chain at version 1.
            assert_eq!(store.set_v(b"mortal", b"reborn", 0).unwrap(), 1, "{name}");
            assert_eq!(store.get(b"mortal").as_deref(), Some(&b"reborn"[..]));
        }
    }

    #[test]
    fn touch_extends_and_shortens_ttl() {
        let store = &stores(100)[0];
        store.set_v(b"k", b"v", 4).unwrap();
        assert!(store.set_ttl(b"k", 100));
        store.advance_time(50);
        assert_eq!(store.get(b"k").as_deref(), Some(&b"v"[..]), "extended");
        // Shorten back; also cover the clear-to-immortal path.
        assert!(store.touch(b"k", 1));
        store.advance_time(1);
        assert_eq!(store.get(b"k"), None, "shortened ttl must expire");
        store.set_v(b"k2", b"v", 3).unwrap();
        assert!(store.set_ttl(b"k2", 0));
        store.advance_time(1000);
        assert_eq!(store.get(b"k2").as_deref(), Some(&b"v"[..]), "ttl cleared");
        assert!(!store.set_ttl(b"missing", 5));
        assert_eq!(store.totals().touches, 3);
    }

    #[test]
    fn eviction_reclaims_expired_before_live_victims() {
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(100_000)),
            StoreConfig {
                memory_budget: 2 << 20, // forces pressure
                capacity_items: 100_000,
                shards: 1,
            },
        );
        let value = vec![0xCDu8; 1024];
        // Fill the arena with soon-to-expire items, let them die, then
        // keep writing immortal items: the write pressure must be
        // satisfied by reclaiming the corpses, not by evicting live keys.
        for i in 0..1500u32 {
            store
                .set_v(format!("dead-{i:06}").as_bytes(), &value, 2)
                .unwrap();
        }
        store.advance_time(2);
        for i in 0..1000u32 {
            store
                .set_v(format!("live-{i:06}").as_bytes(), &value, 0)
                .unwrap();
        }
        let t = store.totals();
        assert!(
            t.expired > 0,
            "pressure never reclaimed an expired item (expired={})",
            t.expired
        );
        // Every live key must have survived: the corpses were enough.
        for i in 0..1000u32 {
            assert!(
                store.get(format!("live-{i:06}").as_bytes()).is_some(),
                "live-{i:06} was evicted while expired items remained"
            );
        }
    }

    /// `HashIndex::remove` is a silent no-op on a wrong hash, so an eviction
    /// that took a stale hash from its queue entry would leak one index slot
    /// per victim until `IndexFull`, and no release build would say so.
    /// Churn every path that moves an entry — slab pressure, index pressure,
    /// TTL reclamation, deletes, replaces that carry a queue across slab
    /// classes, CAS — then hold index, item table and both eviction queues
    /// to one census, walking FIFO and main ring through one iterator, and
    /// resolve every entry back to itself through the index by the hash it
    /// carries.
    #[test]
    fn no_write_path_orphans_an_index_slot_or_a_ring_entry() {
        // Slab-bound (one page per shard for each of the two classes the
        // values below land in, neither of which holds its share of 6000
        // keys), then index-bound.
        for (capacity, budget) in [(1 << 15, 4 << 20), (512, 64 << 20)] {
            for which in ["memc3", "hor", "ver", "dpdk", "local"] {
                let store = KvStore::with_shards(
                    StoreConfig {
                        memory_budget: budget,
                        capacity_items: capacity,
                        shards: 2,
                    },
                    |cap| by_short_name(which, cap).unwrap(),
                );
                let key = |i: u64| format!("census-{:06}", i % 6000).into_bytes();
                let mut batch = SetMultiBatch::new();
                let mut state = 0x0A11_CE55u64;
                let mut rng = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 33
                };
                for op in 0..20_000u64 {
                    let k = key(rng());
                    let value = vec![op as u8; if rng() % 2 == 0 { 600 } else { 1000 }];
                    let ttl = if rng() % 3 == 0 {
                        1 + (rng() % 3) as u32
                    } else {
                        0
                    };
                    match rng() % 16 {
                        0 | 1 => {
                            store.delete(&k);
                        }
                        2 => {
                            if let Some((_, version)) = store.get_v(&k) {
                                store.cas(&k, version, &value, ttl).unwrap();
                            }
                        }
                        3 => {
                            let keys: Vec<Vec<u8>> = (0..8).map(|_| key(rng())).collect();
                            let pairs: Vec<(&[u8], &[u8])> =
                                keys.iter().map(|k| (&k[..], &value[..])).collect();
                            store.set_multi_ttl(&pairs, ttl, &mut batch);
                        }
                        _ => {
                            store.set_v(&k, &value, ttl).unwrap();
                        }
                    }
                    if op % 2500 == 2499 {
                        store.advance_time(1);
                    }
                }
                let t = store.totals();
                assert!(
                    t.evictions > 0 && t.expired > 0 && t.deletes > 0,
                    "{which}: {t:?}"
                );
                for slot in &store.shards {
                    let mut g = slot.shard.write();
                    let n = g.items.len();
                    assert!(n > 0, "{which}");
                    assert_eq!(g.index.len(), n, "{which}: index entries vs items");
                    assert_eq!(g.clock.len(), n, "{which}: queue entries vs items");
                    let entries: Vec<(u32, u32)> = g.clock.iter().collect();
                    assert_eq!(entries.len(), n, "{which}: entries the queues walk");
                    for (item, hash) in entries {
                        let r = g.items.get(item).expect("queue entry is a live item");
                        let stored = item_key(g.slab.chunk(r)).to_vec();
                        assert_eq!(hash, hash_key(&stored), "{which}: queue hash of {item}");
                        assert_eq!(g.find_verified(hash, &stored), Some(item), "{which}");
                    }
                }
            }
        }
    }

    #[test]
    fn mget_mixed_hits_and_misses() {
        for store in stores(100) {
            store.set(b"x", b"xval").unwrap();
            store.set(b"y", b"yval").unwrap();
            let mut resp = MGetResponse::new();
            let outcome = store.mget(&[b"x".as_ref(), b"nope".as_ref(), b"y".as_ref()], &mut resp);
            assert_eq!(outcome.found, 2, "{}", store.index_name());
            assert_eq!(resp.value(0), Some(&b"xval"[..]));
            assert_eq!(resp.value(1), None);
            assert_eq!(resp.value(2), Some(&b"yval"[..]));
            assert!(outcome.phases.total() > 0);
        }
    }

    /// The proof behind `memc3`'s 24-bit item field, held to the code: a
    /// shard registers one item before indexing it, so under heavy churn —
    /// index-full and slab-full evictions, replaces, deletes — no id its
    /// item table hands out exceeds its index's slot count. The bound is
    /// met: this small table fills all 128 slots, and the next set
    /// registers id 128 before its insert fails.
    #[test]
    fn item_ids_never_exceed_the_index_slot_count_under_churn() {
        let index = Memc3Index::with_capacity(64);
        let slots = index.slot_count();
        let store = KvStore::new(
            Box::new(index),
            StoreConfig {
                memory_budget: 1 << 20,
                capacity_items: 64,
                shards: 1,
            },
        );
        let mut state = 0x1D5_u64;
        for step in 0..40_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("churn-{}", (state >> 40) % 2048);
            if state.is_multiple_of(8) {
                store.delete(key.as_bytes());
            } else {
                let value = vec![step as u8; (state >> 16) as usize % 20_000 + 1];
                store.set(key.as_bytes(), &value).unwrap();
            }
            let bound = store.shards[0].shard.read().items.id_bound() as usize;
            assert!(
                bound <= slots + 1,
                "step {step}: id {} of {slots} slots",
                bound - 1
            );
        }
        assert!(store.totals().evictions > 10_000, "{:?}", store.totals());
        assert_eq!(
            store.shards[0].shard.read().items.id_bound() as usize,
            slots + 1
        );
    }

    #[test]
    fn eviction_under_memory_pressure() {
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(100_000)),
            StoreConfig {
                memory_budget: 2 << 20, // 2 MiB: forces eviction
                capacity_items: 100_000,
                shards: 1,
            },
        );
        let value = vec![0xABu8; 1024];
        for i in 0..10_000u32 {
            store.set(format!("key-{i:06}").as_bytes(), &value).unwrap();
        }
        // The store survived and recent keys are readable.
        assert!(store.len() < 10_000, "eviction never triggered");
        assert_eq!(store.get(b"key-009999").as_deref(), Some(&value[..]));
        assert!(store.totals().evictions > 0, "evictions must be counted");
    }

    #[test]
    fn a_full_slab_holds_every_item_its_chunks_fit() {
        // `wire_mixed`'s item: a 6 B header, a 20 B key and a 256 B value,
        // 282 bytes in a 288-byte chunk, 3 640 to a 1 MiB page. Four pages
        // hold 14 560 of them (12 784 in the 328-byte chunks of a 1.25
        // growth factor).
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(32_768)),
            StoreConfig {
                memory_budget: 4 << 20,
                capacity_items: 32_768,
                shards: 1,
            },
        );
        let value = vec![0x5Au8; 256];
        for i in 0..20_000u64 {
            store
                .set(format!("key:{i:016x}").as_bytes(), &value)
                .unwrap();
        }
        let t = store.totals();
        assert!(t.evictions > 0, "the slab never filled");
        assert!(t.items >= 14_000, "{} items resident", t.items);
        assert_eq!(t.items, 4 * 3_640, "every chunk of every page holds one");
        assert_eq!(t.chunk_bytes, t.items * 288);
    }

    #[test]
    fn a_size_class_without_a_page_is_served_past_a_full_budget() {
        // Eight items of eight size classes on a four-page budget: the
        // first four classes take every page, and each later one gets its
        // first page past the budget. Were it refused, the fifth set would
        // evict the whole shard (freed chunks stay in their classes) and
        // still fail.
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(16_384)),
            StoreConfig {
                memory_budget: 4 << 20,
                capacity_items: 16_384,
                shards: 1,
            },
        );
        let key = |i: usize| format!("key:{i:016x}");
        // A 6 B header and a 20 B key: items of 60 B to 8 000 B.
        let values: Vec<Vec<u8>> = [60, 120, 250, 500, 1000, 2000, 4000, 8000]
            .iter()
            .map(|&item| vec![item as u8; item - 26])
            .collect();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(store.set(key(i).as_bytes(), v), Ok(()), "item {i}");
        }
        let t = store.totals();
        assert_eq!((t.items, t.evictions), (8, 0));
        for (i, v) in values.iter().enumerate() {
            assert_eq!(store.get(key(i).as_bytes()).as_deref(), Some(&v[..]));
        }
        // The last class fills its one page and then recycles its own
        // chunks: every set still lands.
        let last = &values[7];
        for i in 8..1_000 {
            assert_eq!(store.set(key(i).as_bytes(), last), Ok(()), "item {i}");
        }
        let t = store.totals();
        assert!(t.evictions > 0, "the page never filled");
        assert!(t.items >= 128, "{} items resident", t.items);
        assert_eq!(store.get(key(999).as_bytes()).as_deref(), Some(&last[..]));
    }

    #[test]
    fn index_full_triggers_eviction_not_failure() {
        // A deliberately undersized index forces the IndexFull -> evict ->
        // retry path in set(); the store must keep absorbing writes.
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(64)),
            StoreConfig {
                memory_budget: 8 << 20,
                capacity_items: 64,
                shards: 1,
            },
        );
        for i in 0..2000u32 {
            store
                .set(format!("spill-{i}").as_bytes(), b"v")
                .unwrap_or_else(|e| panic!("set {i}: {e}"));
        }
        // The cache retains roughly the index capacity and stays readable.
        assert!(store.len() <= 128, "len {}", store.len());
        assert_eq!(store.get(b"spill-1999").as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn response_buffer_reusable_across_shard_counts() {
        // One MGetResponse driven against stores of different shard counts
        // must not carry stale partition scratch between them.
        let s1 = &sharded_stores(500, 1)[0];
        let s8 = &sharded_stores(500, 8)[0];
        s1.set(b"k", b"one").unwrap();
        s8.set(b"k", b"eight").unwrap();
        let mut resp = MGetResponse::new();
        s8.mget(&[b"k".as_ref()], &mut resp);
        assert_eq!(resp.value(0), Some(&b"eight"[..]));
        s1.mget(&[b"k".as_ref()], &mut resp);
        assert_eq!(resp.value(0), Some(&b"one"[..]));
        s8.mget(&[b"k".as_ref(), b"absent".as_ref()], &mut resp);
        assert_eq!(resp.value(0), Some(&b"eight"[..]));
        assert_eq!(resp.value(1), None);
    }

    #[test]
    fn concurrent_reads_while_writing() {
        use std::sync::Arc;
        let store = Arc::new(KvStore::new(
            Box::new(SimdIndex::with_capacity(
                SimdIndexKind::VerticalNway,
                10_000,
            )),
            StoreConfig::default(),
        ));
        for i in 0..2000u32 {
            store.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Reader and writer threads are all joined below; KvStore itself
        // never spawns threads (see the module docs), so the store drops
        // only after every thread's Arc clone is gone.
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut resp = MGetResponse::new();
                    let mut found = 0;
                    for i in 0..500u32 {
                        let key = format!("k{}", (i * 7 + t) % 2000);
                        found += store.mget(&[key.as_bytes()], &mut resp).found;
                    }
                    found
                })
            })
            .collect();
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 2000..2500u32 {
                    store.set(format!("k{i}").as_bytes(), b"w").unwrap();
                }
            })
        };
        for r in readers {
            assert_eq!(r.join().unwrap(), 500);
        }
        writer.join().unwrap();
    }

    #[test]
    fn drop_does_not_race_concurrent_use() {
        // Regression for the drop/shutdown contract: the main handle is
        // dropped while worker threads still hold Arc clones; the last
        // worker to finish performs the real drop. Must not deadlock,
        // panic, or leak a poisoned lock.
        use std::sync::Arc;
        for _ in 0..8 {
            let store = Arc::new(KvStore::with_shards(
                StoreConfig {
                    memory_budget: 8 << 20,
                    capacity_items: 2000,
                    shards: 4,
                },
                |cap| by_short_name("ver", cap).unwrap(),
            ));
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let store = Arc::clone(&store);
                    std::thread::spawn(move || {
                        let mut resp = MGetResponse::new();
                        for i in 0..200u32 {
                            let key = format!("d{}-{}", t, i);
                            store.set(key.as_bytes(), b"v").unwrap();
                            store.mget(&[key.as_bytes()], &mut resp);
                        }
                    })
                })
                .collect();
            drop(store); // main handle gone while threads are mid-flight
            for h in handles {
                h.join().unwrap();
            }
        }
    }
}
