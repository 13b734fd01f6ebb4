//! The in-memory key-value store: slab-backed items, a pluggable hash
//! index, CLOCK freshness, and the three-phase Multi-Get pipeline the
//! paper instruments (§VI-A, Fig. 10/11b):
//!
//! 1. **Pre-processing** — parse the batch, compute a 32-bit hash per
//!    key, and partition the batch by shard.
//! 2. **Hash-table lookup** — the batched index probe (the phase SIMD
//!    accelerates), run per shard.
//! 3. **Post-processing** — resolve object pointers, verify the full key
//!    against the slab, copy values into the response, and update CLOCK
//!    freshness metadata.
//!
//! Phases 2–3 are written once (`read_pass`, and `probe_key` for the
//! per-key step that `get` shares) over a `ShardView`: the shard's shared
//! lock, or — [`ReadMode::Optimistic`] — no lock and seqlock validation.
//!
//! # Sharding
//!
//! The store is split into `S` power-of-two **shards** (the paper's first
//! named piece of future work is concurrent mixed read/write workloads;
//! sharding is the standard memcached scaling recipe). Each shard owns its
//! own slab arena, item table, hash index, CLOCK ring, and statistics, all
//! behind one `RwLock`. Keys route to shards by an independent
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

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::RwLock;

use crate::clock::Clock;
use crate::index::{hash_key, hash_keys_into, HashIndex, IndexError};
use crate::item::{
    decode_row, item_decode_checked, item_key, read_item_racy, write_item, ItemTable, NO_ITEM,
};
use crate::seqlock::{SeqCount, SeqWriteGuard};
use crate::slab::{SlabAllocator, SlabError, SlabRef};

mod response;

pub use response::MGetResponse;

/// Default Multi-Get prefetch look-ahead (`G`) used when
/// [`StoreConfig::prefetch_depth`] is `None`. A stage has the lines of `G`
/// keys in flight. The lookup stage asks per key for its first bucket —
/// one line for `memc3` (slot words; the striped version counters stay
/// resident) and `local`, two for `dpdk` (signatures, items) — and for the
/// second bucket only of keys the first did not answer; the post stage for
/// one item-table line `2G` ahead and one chunk line `G` ahead per hit.
/// At eight that is 8–10 requests outstanding in lookup (16 for `dpdk`)
/// and 16 in post, against the ten to sixteen L1 miss buffers of recent
/// x86 cores.
pub const DEFAULT_PREFETCH_DEPTH: usize = 8;

/// How `get`/`mget` readers synchronize with writers (DESIGN.md §11).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ReadMode {
    /// Readers take the shard's shared `RwLock` (the classic path; always
    /// available, byte-identical results to `Optimistic`).
    #[default]
    Locked,
    /// Seqlock optimistic reads: readers never take the shard lock and
    /// never write shared state — they snapshot the shard's version
    /// counter, probe/copy racily, and re-validate (per-row words for
    /// hits, the shard counter for misses), retrying once and then
    /// falling back to the locked path. Requires every shard index to
    /// report [`HashIndex::optimistic_probe_safe`]; otherwise the store
    /// silently stays on the locked path.
    Optimistic,
}

impl ReadMode {
    /// Parse a `--read-mode` flag value.
    pub fn parse(s: &str) -> Option<ReadMode> {
        match s {
            "locked" => Some(ReadMode::Locked),
            "optimistic" => Some(ReadMode::Optimistic),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            ReadMode::Locked => "locked",
            ReadMode::Optimistic => "optimistic",
        }
    }
}

/// Store construction parameters.
#[derive(Copy, Clone, Debug)]
pub struct StoreConfig {
    /// Slab memory budget in bytes (split evenly across shards).
    pub memory_budget: usize,
    /// Expected maximum live items (sizes the hash index; split across
    /// shards).
    pub capacity_items: usize,
    /// Number of shards (rounded up to a power of two; `1` = the classic
    /// single-lock store).
    pub shards: usize,
    /// Multi-Get software-prefetch look-ahead `G` (DESIGN.md §9):
    /// `None` = [`DEFAULT_PREFETCH_DEPTH`], `Some(0)` = disabled,
    /// `Some(g)` = prefetch index buckets / item rows / slab chunks `g`
    /// keys ahead of the probe or verification that will touch them.
    /// Tunable at runtime via [`KvStore::set_prefetch_depth`].
    pub prefetch_depth: Option<usize>,
    /// Reader synchronization mode (DESIGN.md §11). Tunable at runtime
    /// via [`KvStore::set_read_mode`].
    pub read_mode: ReadMode,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 100_000,
            shards: 1,
            prefetch_depth: None,
            read_mode: ReadMode::Locked,
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

/// `true` when expiry metadata word `at` marks an item dead at `now`
/// (0 = never expires).
#[inline(always)]
fn is_expired(at: u64, now: u64) -> bool {
    at != 0 && at <= now
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
    /// The racy view's private, non-racing image of one item's bytes.
    chunk: Vec<u8>,
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
    /// CLOCK evictions performed here.
    pub evictions: u64,
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
}

impl ShardStats {
    /// Accumulate another shard's counters.
    pub fn add(&mut self, other: &ShardStats) {
        self.items += other.items;
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.evictions += other.evictions;
        self.mget_keys += other.mget_keys;
        self.mget_hits += other.mget_hits;
        self.cas_ok += other.cas_ok;
        self.cas_conflicts += other.cas_conflicts;
        self.touches += other.touches;
        self.expired += other.expired;
    }
}

#[derive(Default)]
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

struct Shard {
    slab: SlabAllocator,
    items: ItemTable,
    index: Box<dyn HashIndex>,
    clock: Clock,
}

// Compile-time proof that Shard is Send + Sync — the precondition for the
// manual ShardSlot impls below (which only *reorganize* what RwLock<Shard>
// provided before, they don't weaken it).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Shard>();
};

/// One shard: its state, lock, seqlock version counter, and counters.
///
/// The shard state sits in an `UnsafeCell` beside a `RwLock<()>` rather
/// than inside a `RwLock<Shard>` so the optimistic read path can reach it
/// *without* touching the lock word (the whole point of DESIGN.md §11 —
/// no shared-state writes on reads). The lock still carries exactly the
/// old access discipline via [`ShardSlot::read`]/[`ShardSlot::write`];
/// [`ShardSlot::racy`] is the one doorway around it, handing out a
/// [`RacyShard`] whose accessors are only trustworthy under the seqlock
/// validation protocol.
struct ShardSlot {
    /// Even/odd shard version: odd while a writer holds the write lock.
    seq: SeqCount,
    lock: RwLock<()>,
    shard: UnsafeCell<Shard>,
    counters: ShardCounters,
}

// SAFETY: `ShardSlot` recreates what `RwLock<Shard>` was (Shard is
// Send + Sync, proven above): all `&mut Shard` access goes through the
// write lock, all `&Shard` access through the read lock — except
// `racy()`, whose `RacyShard` reads racing memory only through atomic
// or volatile loads and whose callers follow the seqlock validation
// protocol before trusting any of it.
unsafe impl Send for ShardSlot {}
unsafe impl Sync for ShardSlot {}

struct ShardReadGuard<'a> {
    _g: parking_lot::RwLockReadGuard<'a, ()>,
    shard: &'a Shard,
}

impl Deref for ShardReadGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        self.shard
    }
}

struct ShardWriteGuard<'a> {
    // Declared first: drops first, so the version returns to even while
    // the write lock is still held (readers never see even + mid-mutation).
    _seq: SeqWriteGuard<'a>,
    _g: parking_lot::RwLockWriteGuard<'a, ()>,
    // A raw pointer, not `&'a mut Shard`: optimistic readers racily load
    // atomic/volatile words from the same shard while this guard is live,
    // and a live `&mut` would assert exclusivity over the whole `Shard`
    // for the guard's entire lifetime. Each deref materializes a
    // reference only for that call, mirroring [`RacyShard`] on the
    // reader side (crossbeam-seqlock discipline).
    shard: *mut Shard,
    _marker: PhantomData<&'a mut Shard>,
}

impl Deref for ShardWriteGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        // SAFETY: the exclusive lock (held for `'a`) keeps every other
        // lock holder out, so no `&mut` aliases this reference.
        unsafe { &*self.shard }
    }
}

impl DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        // SAFETY: as above; `&mut self` keeps this guard from handing out
        // an overlapping `&Shard` of its own.
        unsafe { &mut *self.shard }
    }
}

impl ShardSlot {
    fn read(&self) -> ShardReadGuard<'_> {
        let g = self.lock.read();
        // SAFETY: the shared lock excludes writers (every `&mut` access
        // goes through `write`), so a shared borrow is sound.
        ShardReadGuard {
            _g: g,
            shard: unsafe { &*self.shard.get() },
        }
    }

    /// Exclusive access; marks the shard version odd for the duration so
    /// optimistic readers spin or fall back instead of reading
    /// mid-mutation state.
    fn write(&self) -> ShardWriteGuard<'_> {
        let g = self.lock.write();
        let seq = self.seq.begin_write();
        ShardWriteGuard {
            _seq: seq,
            _g: g,
            shard: self.shard.get(),
            _marker: PhantomData,
        }
    }

    /// Lock-free view for the optimistic read protocol. Safe to obtain —
    /// all the unsafety lives inside [`RacyShard`]'s narrow accessors,
    /// each of which reads racing memory only through atomic or volatile
    /// loads. Callers must still validate every conclusion against `seq`
    /// or a row word before acting on it (the seqlock protocol, which
    /// [`validated`] and [`probe_key`] run over the view).
    fn racy<'a>(&'a self, stats: &'a OptimisticCounters) -> RacyShard<'a> {
        RacyShard { slot: self, stats }
    }
}

/// A lock-free, by-value handle to a shard for optimistic readers.
///
/// Deliberately *not* `&Shard`: a shared reference would claim the whole
/// shard immutable while a writer holding [`ShardSlot::write`] mutates it
/// — a data race and `&`/`&mut` aliasing violation even if the read
/// results are later discarded. Instead this reaches the shard only
/// through the slot's raw `UnsafeCell` pointer and exposes only the
/// handful of operations the optimistic protocol needs (its [`ShardView`]
/// impl); each materializes the narrowest reference for the duration of
/// one call, and every byte those calls read from memory a writer may be
/// rewriting travels through an atomic load
/// ([`HashIndex::lookup_batch_optimistic`] on an
/// [`HashIndex::optimistic_probe_safe`] index, [`ItemTable`] row words,
/// CLOCK bits) or a volatile copy (slab chunk bytes via
/// [`read_item_racy`]) — the same de-facto-tolerated discipline as
/// crossbeam's seqlock. None of these reads are torn-proof; the caller's
/// seq/row-word validation is what turns them into trustworthy results.
#[derive(Copy, Clone)]
struct RacyShard<'a> {
    /// The shard, the version counter the view validates against, and the
    /// lock its per-key collision assist takes.
    slot: &'a ShardSlot,
    stats: &'a OptimisticCounters,
}

/// What differs between the two read disciplines — everything
/// [`validated`], [`probe_key`] and [`KvStore::read_pass`] need from a
/// shard. [`ShardReadGuard`] (the shard's shared lock, held for the view's
/// lifetime) and [`RacyShard`] (no lock; seqlock validation, DESIGN.md
/// §11) are the two impls, monomorphized: in the locked instantiation
/// `begin`/`commit` are constants and the retry loop folds away.
trait ShardView {
    /// Open a read window: a token for [`ShardView::commit`], or `None`
    /// when a writer held the shard for the whole bounded spin (the lock
    /// queue is the fast path then). The locked view always succeeds.
    fn begin(&self) -> Option<u64>;

    /// Phase 2: the batched index probe, bucket lines prefetched `depth`
    /// hashes ahead.
    fn lookup(&self, hashes: &[u32], out: &mut [u32], depth: usize);

    /// AMAC stage 1: request `item`'s row cache line ([`ItemTable::prefetch`]).
    fn prefetch_row(&self, item: u32);

    /// AMAC stage 2: load candidate `cand`'s row word (its line made warm
    /// by an earlier [`ShardView::prefetch_row`]) and request the chunk's
    /// leading cache line, so the full-key compare `G` iterations later
    /// reads a warm line. 0 (a dead word) for [`NO_ITEM`].
    fn stage(&self, cand: u32) -> u64;

    /// The item image (`header + key + value`) in chunk `r`: the slab
    /// slice itself under the lock, a volatile copy into `buf` without it
    /// (`None` if `r` is bogus — a torn row read).
    fn bytes<'b>(&'b self, r: SlabRef, buf: &'b mut Vec<u8>) -> Option<&'b [u8]>;

    /// After the key matched: `cand`'s expiry second if the bytes just
    /// compared are trustworthy, `None` if the row word changed under the
    /// copy (never under the lock).
    fn confirm(&self, cand: u32, word: u64) -> Option<u64>;

    /// Atomic CLOCK touch ([`Clock::touch`]) — the one shared-state write
    /// the optimistic path performs.
    fn touch(&self, item: u32);

    /// The tag/hash-collision slow path (MemC3): verify every index
    /// candidate for `q.hash` after the first one's full key mismatched.
    /// `lookup_all` is not racy-safe on every backend, so it always runs
    /// under the shard's shared lock — the one already held, or a per-key
    /// assist released before the next key.
    fn collide(&self, q: &mut Query<'_>, hit: &mut impl FnMut(u32, &[u8])) -> Probe;

    /// Close the window `token` opened: `true` when the attempt's results
    /// may be acted on. Validation is two-tier: each *hit* stands on its
    /// row word alone ([`ShardView::confirm`]; a `torn` one sinks the
    /// attempt), while misses and collision assists (`need_seq`)
    /// additionally require that no writer ran since [`ShardView::begin`].
    fn commit(&self, token: u64, torn: bool, need_seq: bool) -> bool;
}

impl ShardView for ShardReadGuard<'_> {
    fn begin(&self) -> Option<u64> {
        Some(0)
    }

    fn lookup(&self, hashes: &[u32], out: &mut [u32], depth: usize) {
        self.index.lookup_batch_prefetched(hashes, out, depth);
    }

    fn prefetch_row(&self, item: u32) {
        self.items.prefetch(item);
    }

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

    #[inline(always)]
    fn bytes<'b>(&'b self, r: SlabRef, _buf: &'b mut Vec<u8>) -> Option<&'b [u8]> {
        Some(self.slab.chunk(r))
    }

    /// The shard lock is held throughout, so staged reads cannot go stale.
    #[inline(always)]
    fn confirm(&self, cand: u32, _word: u64) -> Option<u64> {
        Some(self.items.expires_at(cand))
    }

    fn touch(&self, item: u32) {
        self.clock.touch(item);
    }

    fn collide(&self, q: &mut Query<'_>, hit: &mut impl FnMut(u32, &[u8])) -> Probe {
        q.ids.clear();
        self.index.lookup_all(q.hash, q.ids);
        (0..q.ids.len())
            .find_map(|n| verify(self, q.ids[n], self.items.load_row(q.ids[n]), q, hit))
            .unwrap_or(Probe::Miss)
    }

    fn commit(&self, _token: u64, _torn: bool, _need_seq: bool) -> bool {
        true
    }
}

impl ShardView for RacyShard<'_> {
    fn begin(&self) -> Option<u64> {
        self.slot.seq.read_begin()
    }

    /// Racy batched index probe (atomic loads only; see
    /// [`HashIndex::lookup_batch_optimistic`]).
    #[inline(always)]
    fn lookup(&self, hashes: &[u32], out: &mut [u32], depth: usize) {
        // SAFETY: the reference lives for this call only; the probe reads
        // index storage exclusively through atomic loads per the
        // `optimistic_probe_safe` contract.
        let index = unsafe { &*(*self.slot.shard.get()).index };
        index.lookup_batch_optimistic(hashes, out, depth);
    }

    fn prefetch_row(&self, item: u32) {
        // SAFETY: call-scoped reference; row words live in a stable
        // `AtomicSegArray`, and a prefetch hint reads nothing.
        unsafe { (*self.slot.shard.get()).items.prefetch(item) }
    }

    /// Loading the word `G` keys early only *widens* the window
    /// [`ShardView::confirm`] must cover — still correct, same stages warm.
    #[inline(always)]
    fn stage(&self, cand: u32) -> u64 {
        if cand == NO_ITEM {
            return 0;
        }
        // SAFETY: call-scoped reference; row words live in a stable
        // `AtomicSegArray` and are only read atomically.
        let word = unsafe { (*self.slot.shard.get()).items.load_row(cand) };
        if let Some(r) = decode_row(word) {
            // SAFETY: call-scoped reference; a prefetch hint reads
            // nothing, and chunk addresses come from stable metadata.
            unsafe { (*self.slot.shard.get()).slab.prefetch(r) };
        }
        word
    }

    /// Volatile copy-out of the item ([`read_item_racy`]).
    #[inline(always)]
    fn bytes<'b>(&'b self, r: SlabRef, buf: &'b mut Vec<u8>) -> Option<&'b [u8]> {
        // SAFETY: call-scoped reference; chunk bytes are copied with
        // volatile loads from pages that are never freed or moved.
        let copied = unsafe { read_item_racy(&(*self.slot.shard.get()).slab, r, buf) };
        copied.then_some(buf.as_slice())
    }

    /// A verified hit stands on its row word alone: the word unchanged
    /// across the copy ([`ItemTable::revalidate`]) means the item stayed
    /// live in this exact chunk, and live chunk bytes are immutable
    /// (replace = delete + insert). The expiry word is loaded *before*
    /// that recheck: the register order (metadata before the row publish)
    /// plus the generation bump make an unchanged word prove the metadata
    /// belongs to that exact registration (DESIGN.md §13).
    #[inline(always)]
    fn confirm(&self, cand: u32, word: u64) -> Option<u64> {
        // SAFETY: as `stage`; expiry words live in a stable
        // `AtomicSegArray` and are only read atomically.
        let items = unsafe { &(*self.slot.shard.get()).items };
        let expires_at = items.expires_at(cand);
        items.revalidate(cand, word).then_some(expires_at)
    }

    fn touch(&self, item: u32) {
        // SAFETY: call-scoped reference; the bitmap is atomic and stable.
        unsafe { (*self.slot.shard.get()).clock.touch(item) }
    }

    /// Take the shard lock for this one key (the rest of the pass stays
    /// lock-free); under it the locked view's rules apply unchanged.
    fn collide(&self, q: &mut Query<'_>, hit: &mut impl FnMut(u32, &[u8])) -> Probe {
        self.stats.assists.fetch_add(1, Ordering::Relaxed);
        self.slot.read().collide(q, hit)
    }

    #[inline(always)]
    fn commit(&self, token: u64, torn: bool, need_seq: bool) -> bool {
        let ok = !torn && (!need_seq || self.slot.seq.validate(token));
        let stats = self.stats;
        let counter = if ok { &stats.commits } else { &stats.retries };
        counter.fetch_add(1, Ordering::Relaxed);
        ok
    }
}

/// One key of a read: its hash, its bytes, the store-clock second the read
/// runs at, and the [`PassScratch`] buffers verifying it may need.
struct Query<'a> {
    hash: u32,
    key: &'a [u8],
    now: u64,
    chunk: &'a mut Vec<u8>,
    ids: &'a mut Vec<u32>,
}

/// What [`probe_key`] concluded about one key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Probe {
    /// A live item has this key: its value went to `hit`, its CLOCK bit is set.
    Hit,
    /// The key's item exists but has expired — lazy expiry: it reads as a
    /// miss (positive evidence, no shard stability required). A reader
    /// cannot reclaim it; writers and the eviction path do.
    Expired,
    /// No live item has this key.
    Miss,
    /// The row word changed under the copy: a writer raced this key.
    Torn,
}

/// Verify candidate `cand` (row word `word`) against `q.key` — never
/// trusting the index alone — and deliver a live hit to `hit`. `None`
/// when this candidate is not the key's item: dead row, unreadable chunk,
/// or full-key mismatch.
#[inline(always)]
fn verify<V: ShardView>(
    view: &V,
    cand: u32,
    word: u64,
    q: &mut Query<'_>,
    hit: &mut impl FnMut(u32, &[u8]),
) -> Option<Probe> {
    let (_, value) = view
        .bytes(decode_row(word)?, q.chunk)
        .and_then(item_decode_checked)
        .filter(|(k, _)| *k == q.key)?;
    Some(match view.confirm(cand, word) {
        None => Probe::Torn,
        Some(expires_at) if is_expired(expires_at, q.now) => Probe::Expired,
        Some(_) => {
            hit(cand, value);
            view.touch(cand);
            Probe::Hit
        }
    })
}

/// The per-key step of every read: resolve `q` given the first candidate
/// `cand` a batched probe returned for its hash and that candidate's
/// staged row word. The candidate is verified against the slab first,
/// every other candidate only after a full-key mismatch; `need_seq` is set
/// when the answer is only believable if no writer raced the probe.
#[inline(always)]
fn probe_key<V: ShardView>(
    view: &V,
    cand: u32,
    word: u64,
    q: &mut Query<'_>,
    need_seq: &mut bool,
    hit: &mut impl FnMut(u32, &[u8]),
) -> Probe {
    if let Some(probe) = verify(view, cand, word, q, hit) {
        return probe;
    }
    // "Not found" can only be trusted if no writer ran meanwhile, and the
    // assist's answer is newer than the window's other keys.
    *need_seq = true;
    if decode_row(word).is_none() {
        // No candidate, or a dying row behind a live-looking one.
        return Probe::Miss;
    }
    // Full-key mismatch or torn-looking bytes.
    view.collide(q, hit)
}

/// The one validation loop (DESIGN.md §11): run `attempt` — which
/// returns its result and the `(torn, need_seq)` that result rests on —
/// inside a [`ShardView::begin`]/[`ShardView::commit`] window; when it
/// cannot be committed, `undo` what it wrote to `sink` and retry once.
/// `None` means the caller must rerun the read under the locked view,
/// where the first attempt always commits.
#[inline(always)]
fn validated<V: ShardView, S, T>(
    view: &V,
    sink: &mut S,
    mut attempt: impl FnMut(&mut S) -> (T, bool, bool),
    undo: impl Fn(&mut S),
) -> Option<T> {
    for _ in 0..2 {
        let token = view.begin()?;
        let (out, torn, need_seq) = attempt(sink);
        if view.commit(token, torn, need_seq) {
            return Some(out);
        }
        undo(sink);
    }
    None
}

/// Counters for the optimistic read path (all modes; zero under
/// [`ReadMode::Locked`]). Snapshot via [`KvStore::optimistic_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimisticStats {
    /// Optimistic passes started (a retry starts a new pass).
    pub attempts: u64,
    /// Passes that validated and committed their results.
    pub commits: u64,
    /// Passes rolled back for a retry after failed validation.
    pub retries: u64,
    /// Per-key locked collision assists taken inside optimistic passes.
    pub assists: u64,
    /// Reads that gave up on the optimistic path (writer active or both
    /// attempts invalidated) and ran the locked path instead.
    pub fallbacks: u64,
}

/// Internal counters: the hot commit path pays exactly one RMW
/// (`commits`); everything else is bumped only on the cold
/// retry/assist/fallback edges, and `attempts` is *derived* in the
/// snapshot (`commits + retries` — every started pass ends in exactly one
/// of those two).
#[derive(Default)]
struct OptimisticCounters {
    commits: AtomicU64,
    retries: AtomicU64,
    assists: AtomicU64,
    fallbacks: AtomicU64,
}

/// The sharded key-value store. Reads (`get`/`mget`) run one pass per
/// shard they probe (one at a time) under that shard's shared lock — or,
/// under [`ReadMode::Optimistic`], the same pass under no lock at all
/// (seqlock validation, DESIGN.md §11) — concurrently across server
/// workers; writes (`set`/`delete`) serialize only within their key's shard.
pub struct KvStore {
    shards: Vec<ShardSlot>,
    shard_mul: u32,
    shard_shift: u32,
    shard_mask: usize,
    /// Multi-Get prefetch look-ahead `G` (0 = disabled). Atomic so bench
    /// sweeps can vary it on a live, populated store.
    prefetch_depth: AtomicUsize,
    /// Current [`ReadMode`] as a `u8` (0 = locked, 1 = optimistic); atomic
    /// so sweeps can flip it on a live store.
    read_mode: AtomicU8,
    /// Test/bench offset added to the coarse TTL clock (seconds); lets
    /// deterministic suites expire items without sleeping.
    time_offset: AtomicU64,
    /// Whether every shard's index supports racy probes; if not, the
    /// optimistic mode silently degrades to locked.
    optimistic_safe: bool,
    optimistic: OptimisticCounters,
    name: &'static str,
    /// Test-only writer pause point: called by `set` after the
    /// replace-delete, while the write lock is held and the shard version
    /// is odd. Lets the torn-read oracle hold a writer mid-mutation.
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
                seq: SeqCount::new(),
                lock: RwLock::new(()),
                shard: UnsafeCell::new(Shard {
                    slab: SlabAllocator::new(per_budget),
                    items: ItemTable::new(),
                    index: make_index(per_capacity),
                    clock: Clock::new(),
                }),
                counters: ShardCounters::default(),
            })
            .collect();
        let (name, optimistic_safe) = {
            let g = shards[0].read();
            (g.index.name(), g.index.optimistic_probe_safe())
        };
        let log2 = n.trailing_zeros();
        KvStore {
            shards,
            shard_mul: SHARD_MUL,
            shard_shift: (32 - log2).clamp(1, 31),
            shard_mask: n - 1,
            prefetch_depth: AtomicUsize::new(
                config.prefetch_depth.unwrap_or(DEFAULT_PREFETCH_DEPTH),
            ),
            read_mode: AtomicU8::new(config.read_mode as u8),
            time_offset: AtomicU64::new(0),
            optimistic_safe,
            optimistic: OptimisticCounters::default(),
            name,
            #[cfg(any(test, feature = "torture"))]
            torture_set_pause: parking_lot::Mutex::new(None),
        }
    }

    /// The current reader synchronization mode.
    pub fn read_mode(&self) -> ReadMode {
        match self.read_mode.load(Ordering::Relaxed) {
            0 => ReadMode::Locked,
            _ => ReadMode::Optimistic,
        }
    }

    /// Change the reader synchronization mode at runtime; the
    /// `kvs-readscale-sweep` experiment uses this to compare the two
    /// paths on one populated store.
    ///
    /// On a quiescent store the two modes return byte-identical results
    /// (proved by `tests/read_mode_differential.rs`). Under concurrent
    /// writers they differ in one visible way: each key a batched `mget`
    /// returns is still individually linearizable, but an optimistic
    /// batch is **not** a shard-atomic snapshot — a writer may commit
    /// between two hits of one batch, whereas the locked pass holds the
    /// shard lock across its whole slice (see DESIGN.md §11).
    pub fn set_read_mode(&self, mode: ReadMode) {
        self.read_mode.store(mode as u8, Ordering::Relaxed);
    }

    /// Snapshot of the optimistic read path counters.
    pub fn optimistic_stats(&self) -> OptimisticStats {
        let commits = self.optimistic.commits.load(Ordering::Relaxed);
        let retries = self.optimistic.retries.load(Ordering::Relaxed);
        OptimisticStats {
            attempts: commits + retries,
            commits,
            retries,
            assists: self.optimistic.assists.load(Ordering::Relaxed),
            fallbacks: self.optimistic.fallbacks.load(Ordering::Relaxed),
        }
    }

    #[inline(always)]
    fn use_optimistic(&self) -> bool {
        self.optimistic_safe && self.read_mode() == ReadMode::Optimistic
    }

    /// Whether this store's index backend declares its probes safe for
    /// lock-free optimistic reads ([`HashIndex::optimistic_probe_safe`]).
    /// When false, `ReadMode::Optimistic` silently behaves like `Locked`.
    pub fn optimistic_capable(&self) -> bool {
        self.optimistic_safe
    }

    /// Install (or clear) the torn-read torture hook: `set` calls it after
    /// deleting a replaced key's old item, with the write lock held and
    /// the shard version odd. A hook that blocks holds the writer
    /// mid-mutation — the adversarial window the seqlock protocol must
    /// make invisible to readers. Test/`torture`-feature builds only.
    ///
    /// Note: the hook runs under an internal mutex, so don't call
    /// `set_torture_set_pause` again while a hooked `set` is paused.
    #[cfg(any(test, feature = "torture"))]
    #[doc(hidden)]
    pub fn set_torture_set_pause(&self, hook: Option<Box<dyn Fn() + Send + Sync>>) {
        *self.torture_set_pause.lock() = hook;
    }

    /// The current prefetch look-ahead `G` of the Multi-Get pipeline and the
    /// eviction look-ahead (0 = disabled).
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth.load(Ordering::Relaxed)
    }

    /// Change the prefetch look-ahead at runtime. Purely a performance
    /// knob — results are bit-identical for every `depth` (proved by
    /// `tests/mget_differential.rs`, which uses this to compare every `G`
    /// against `G = 0` over one populated store, and for evictions by
    /// `tests/set_multi_differential.rs`); what the pipeline costs is the
    /// benchmark ledger's `store.lookup_ns_per_key`.
    pub fn set_prefetch_depth(&self, depth: usize) {
        self.prefetch_depth.store(depth, Ordering::Relaxed);
    }

    /// The backing index's name (for reports).
    pub fn index_name(&self) -> &'static str {
        self.name
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
        self.shards.iter().map(|s| s.read().items.len()).sum()
    }

    /// Live item count per shard (balance reporting).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().items.len()).collect()
    }

    /// Per-shard counter snapshots.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                items: s.read().items.len(),
                sets: s.counters.sets.load(Ordering::Relaxed),
                deletes: s.counters.deletes.load(Ordering::Relaxed),
                evictions: s.counters.evictions.load(Ordering::Relaxed),
                mget_keys: s.counters.mget_keys.load(Ordering::Relaxed),
                mget_hits: s.counters.mget_hits.load(Ordering::Relaxed),
                cas_ok: s.counters.cas_ok.load(Ordering::Relaxed),
                cas_conflicts: s.counters.cas_conflicts.load(Ordering::Relaxed),
                touches: s.counters.touches.load(Ordering::Relaxed),
                expired: s.counters.expired.load(Ordering::Relaxed),
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
        let mut g = slot.write();
        self.set_in_guard(slot, &mut g, hash, key, value, ttl_secs)
    }

    /// The per-key insert body shared by [`KvStore::set`] and
    /// [`KvStore::set_multi`]: replace, allocate (evicting on pressure),
    /// register, index (evicting on pressure), admit. The caller holds the
    /// shard's write guard, so a multi-key batch amortizes one lock
    /// acquisition and one seqlock write session over the whole group.
    fn set_in_guard(
        &self,
        slot: &ShardSlot,
        g: &mut ShardWriteGuard<'_>,
        hash: u32,
        key: &[u8],
        value: &[u8],
        ttl_secs: u32,
    ) -> Result<u64, StoreError> {
        let now = self.now_secs();
        let depth = self.prefetch_depth.load(Ordering::Relaxed);
        // Replace semantics: drop any existing item with this exact key.
        // The version chain continues across a live replace; an expired
        // item is indistinguishable from an absent one, so its chain
        // restarts at 1 (exactly what a reader that already saw the miss
        // would expect).
        let mut version = 1u64;
        if let Some(existing) = g.find_verified(hash, key) {
            if !is_expired(g.items.expires_at(existing), now) {
                version = g.items.version(existing).wrapping_add(1);
            }
            g.delete_item(hash, existing);
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
                Err(SlabError::OutOfMemory) => match g.evict_one(now, depth) {
                    Some(expired) => Self::count_evict(slot, expired),
                    None => return Err(StoreError::OutOfMemory),
                },
            }
        };
        let expires_at = if ttl_secs == 0 {
            0
        } else {
            now + u64::from(ttl_secs)
        };
        let item = g.items.register_versioned(slab_ref, version, expires_at);
        // Index insertion, evicting on pressure.
        loop {
            match g.index.insert(hash, item) {
                Ok(()) => break,
                Err(IndexError::Full) => match g.evict_one(now, depth) {
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
        g.clock.admit(item, hash);
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
    /// 2. **Candidate probe** — per shard, under **one** write lock and
    ///    seqlock write session for the whole group, a batched
    ///    group-prefetched lookup warms the index buckets and stages the
    ///    replacement candidates' item rows.
    /// 3. **Insert** — each key runs the same replace/allocate/index body
    ///    as [`KvStore::set`], with key `j + G`'s buckets and candidate
    ///    rows prefetched while key `j` inserts.
    ///
    /// Keys in one batch apply in request order, so duplicate keys resolve
    /// later-wins exactly as the equivalent sequence of `set` calls would,
    /// and eviction decisions (CLOCK victims) match the sequential path.
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
        let keys: Vec<&[u8]> = pairs.iter().map(|&(k, _)| k).collect();
        let depth = self.prefetch_depth.load(Ordering::Relaxed);
        let mut stored = 0usize;
        let mut phases = PhaseNanos::default();
        let t1 = self.for_each_shard(&keys, scratch, |slot, sub, pass| {
            let candidates = &mut pass.candidates;
            // Phase 2: one exclusive lock + seqlock write session for the
            // whole group; the batched probe warms this shard's buckets
            // and stages replacement candidates. The candidates are
            // *hints only* — an earlier insert in this batch can change
            // the truth (duplicate keys) — so Phase 3 re-verifies each key
            // under the same guard.
            let tl0 = Instant::now();
            let mut g = slot.write();
            candidates.clear();
            candidates.resize(sub.hashes.len(), NO_ITEM);
            g.index
                .lookup_batch_prefetched(sub.hashes, candidates, depth);
            if depth > 0 {
                for &cand in candidates.iter().take(2 * depth) {
                    g.items.prefetch(cand);
                }
            }
            let tl1 = Instant::now();
            // Phase 3: inserts, with key j+G's index buckets and candidate
            // item rows requested while key j runs.
            for (j, &hash) in sub.hashes.iter().enumerate() {
                if depth > 0 {
                    if let Some(&ahead) = candidates.get(j + 2 * depth) {
                        g.items.prefetch(ahead);
                    }
                    if let Some(&h_ahead) = sub.hashes.get(j + depth) {
                        g.index.prefetch_hash(h_ahead);
                    }
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
        let value = |_: u32, v: &[u8]| v.to_vec();
        if self.use_optimistic() {
            match self.get_in(slot, &slot.racy(&self.optimistic), hash, key, value) {
                Some(decided) => return decided,
                None => self.optimistic.fallbacks.fetch_add(1, Ordering::Relaxed),
            };
        }
        self.get_in(slot, &slot.read(), hash, key, value)
            .expect("a locked read always commits")
    }

    /// [`probe_key`] applied to one key under `view`, the hit mapped
    /// through `value_of(item, value bytes)`. `Some(result)` when the read
    /// validated, `None` when the caller must rerun it under the locked
    /// view.
    fn get_in<V: ShardView, T>(
        &self,
        slot: &ShardSlot,
        view: &V,
        hash: u32,
        key: &[u8],
        value_of: impl Fn(u32, &[u8]) -> T,
    ) -> Option<Option<T>> {
        let (mut chunk, mut ids) = (Vec::new(), Vec::new());
        let mut q = Query {
            hash,
            key,
            now: self.now_secs(),
            chunk: &mut chunk,
            ids: &mut ids,
        };
        let mut out = None;
        let attempt = |out: &mut Option<T>| {
            let mut cand = [NO_ITEM];
            view.lookup(std::slice::from_ref(&hash), &mut cand, 0);
            let word = view.stage(cand[0]);
            let mut need_seq = false;
            let mut hit = |item: u32, v: &[u8]| *out = Some(value_of(item, v));
            let probe = probe_key(view, cand[0], word, &mut q, &mut need_seq, &mut hit);
            (probe, probe == Probe::Torn, need_seq)
        };
        let probe = validated(view, &mut out, attempt, |out| *out = None)?;
        let (found, expired) = (probe == Probe::Hit, probe == Probe::Expired);
        Self::count_reads(slot, 1, found.into(), expired.into());
        Some(out)
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
        let mut g = slot.write();
        match g.find_verified(hash, key) {
            Some(item) => {
                let expired = is_expired(g.items.expires_at(item), self.now_secs());
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
        let mut g = slot.write();
        let now = self.now_secs();
        match g.find_verified(hash, key) {
            Some(item) => {
                if is_expired(g.items.expires_at(item), now) {
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
        let g = slot.write();
        let now = self.now_secs();
        match g.find_verified(hash, key) {
            Some(item) => {
                if is_expired(g.items.expires_at(item), now) {
                    return false;
                }
                let expires_at = if ttl_secs == 0 {
                    0
                } else {
                    now + u64::from(ttl_secs)
                };
                g.items.set_expires_at(item, expires_at);
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
    /// subsequent [`KvStore::cas`]). Runs under the shard's shared lock
    /// in every read mode — the version must be read in the same critical
    /// section that resolved the item.
    pub fn get_v(&self, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let hash = hash_key(key);
        let slot = &self.shards[self.shard_for_hash(hash)];
        let g = slot.read();
        let versioned = |item: u32, v: &[u8]| (v.to_vec(), g.items.version(item));
        self.get_in(slot, &g, hash, key, versioned)
            .expect("a locked read always commits")
    }

    /// The batched Multi-Get pipeline with per-phase timing.
    ///
    /// The batch is partitioned by shard during pre-processing; each
    /// non-empty shard then runs one batched lookup + post-processing pass
    /// ([`ReadMode`] picks the view it runs under). At most one shard lock
    /// is held at a time.
    ///
    /// `resp` is reset and refilled; reusing one buffer across calls avoids
    /// per-request allocation, as a real server does.
    pub fn mget(&self, keys: &[&[u8]], resp: &mut MGetResponse) -> MGetOutcome {
        // Phase 1: pre-processing — parse batch, hash every key, partition
        // the batch by shard ([`KvStore::for_each_shard`]).
        let t0 = Instant::now();
        resp.reset(keys.len());
        let mut scratch = std::mem::take(&mut resp.scratch);
        let depth = self.prefetch_depth.load(Ordering::Relaxed);
        let use_opt = self.use_optimistic();
        let mut found = 0usize;
        let mut phases = PhaseNanos::default();
        // Phases 2+3 per shard — with no lock at all when the optimistic
        // read mode is on, and under that shard's shared lock otherwise or
        // when the racy pass could not validate.
        let t1 = self.for_each_shard(keys, &mut scratch, |slot, sub, pass| {
            let mut done = None;
            if use_opt {
                let racy = slot.racy(&self.optimistic);
                done = self.read_pass(&racy, keys, sub, depth, resp, pass);
                if done.is_none() {
                    self.optimistic.fallbacks.fetch_add(1, Ordering::Relaxed);
                }
            }
            let done = done.unwrap_or_else(|| {
                self.read_pass(&slot.read(), keys, sub, depth, resp, pass)
                    .expect("a locked pass always commits")
            });
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

    /// One shard's Phase 2+3 under `view`. `Some` when the pass validated
    /// and committed, `None` when the caller must rerun the shard under
    /// the locked view.
    ///
    /// Phase 2 is the hash-table lookup (the batched, SIMD-accelerable
    /// phase) over this shard's slice of the request, with bucket lines
    /// prefetched `depth` hashes ahead of each probe. Phase 3 verifies
    /// full keys, writes values into the wire buffer, and updates CLOCK;
    /// with a prefetch depth G it runs AMAC-style stages over the
    /// candidate list — candidate j's item-table row is requested 2G keys
    /// before its turn, its slab chunk G keys before (resolving the row
    /// the prefetch made warm), so both dependent misses overlap the
    /// verification of earlier keys. Validation is two-tier
    /// ([`ShardView::commit`]); a failed one rolls the response back to
    /// its pre-pass marks and retries once ([`validated`]).
    fn read_pass<V: ShardView>(
        &self,
        view: &V,
        keys: &[&[u8]],
        sub: ShardBatch<'_>,
        depth: usize,
        resp: &mut MGetResponse,
        scratch: &mut PassScratch,
    ) -> Option<PassOutcome> {
        let n_sub = sub.hashes.len();
        let now = self.now_secs();
        let marks = resp.marks();
        let attempt = |resp: &mut MGetResponse| {
            let (candidates, words) = (&mut scratch.candidates, &mut scratch.words);
            let tl0 = Instant::now();
            candidates.clear();
            candidates.resize(n_sub, NO_ITEM);
            view.lookup(sub.hashes, candidates, depth);
            let tl1 = Instant::now();
            // `depth == 0` stages nothing ahead: each key's row word is
            // loaded on its own turn and no row line is requested early.
            let mut out = PassOutcome::default();
            let mut need_seq = false;
            let mut torn = false;
            words.clear();
            words.resize(n_sub, 0);
            for &cand in candidates.iter().take(2 * depth) {
                view.prefetch_row(cand);
            }
            for j in 0..n_sub.min(depth) {
                words[j] = view.stage(candidates[j]);
            }
            for j in 0..n_sub {
                if let Some(&ahead) = candidates.get(j + 2 * depth).filter(|_| depth > 0) {
                    view.prefetch_row(ahead);
                }
                if j + depth < n_sub {
                    words[j + depth] = view.stage(candidates[j + depth]);
                }
                let i = sub.slot(j);
                let mut q = Query {
                    hash: sub.hashes[j],
                    key: keys[i],
                    now,
                    chunk: &mut scratch.chunk,
                    ids: &mut scratch.ids,
                };
                let (cand, word) = (candidates[j], words[j]);
                let mut hit = |_: u32, v: &[u8]| resp.push_hit(i, v);
                match probe_key(view, cand, word, &mut q, &mut need_seq, &mut hit) {
                    Probe::Hit => out.found += 1,
                    Probe::Expired => {
                        out.expired += 1;
                        resp.push_miss(i);
                    }
                    Probe::Miss => resp.push_miss(i),
                    Probe::Torn => {
                        torn = true;
                        break;
                    }
                }
            }
            out.lookup_ns = (tl1 - tl0).as_nanos() as u64;
            out.post_ns = tl1.elapsed().as_nanos() as u64;
            (out, torn, need_seq)
        };
        validated(view, resp, attempt, |resp| resp.rollback(marks, sub))
    }
}

/// What one committed [`KvStore::read_pass`] did.
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
    /// Find the item id whose stored key equals `key`, verifying every
    /// index candidate for `hash` against the slab (never trusts the
    /// index alone) — the write paths' counterpart of [`probe_key`].
    fn find_verified(&self, hash: u32, key: &[u8]) -> Option<u32> {
        let mut ids = Vec::new();
        self.index.lookup_all(hash, &mut ids);
        ids.into_iter().find(|&c| {
            let chunk = self.items.get(c).map(|r| self.slab.chunk(r));
            chunk.is_some_and(|chunk| item_key(chunk) == key)
        })
    }

    fn delete_item(&mut self, hash: u32, item: u32) {
        self.index.remove(hash, item);
        self.clock.remove(item);
        if let Some(r) = self.items.unregister(item) {
            self.slab.free(r);
        }
    }

    /// Evict one item under pressure via the TTL-integrated CLOCK sweep:
    /// at each hand position an expired item is reclaimed (dead by TTL,
    /// no information lost) before the reference bit can hand back a
    /// live victim. Returns `Some(true)` when an expired item was
    /// reclaimed, `Some(false)` for a live eviction, `None` when the
    /// shard holds nothing evictable. With no TTLs in play the predicate
    /// is constant-false and the sweep is bit-identical to classic CLOCK.
    ///
    /// The victim leaves the index by the hash its ring entry carries, so
    /// its chunk is not read; and the entries the hand will reach next are
    /// staged `depth` and `2 * depth` ahead ([`Shard::look_ahead`]).
    fn evict_one(&mut self, now: u64, depth: usize) -> Option<bool> {
        let items = &self.items;
        // One call of the expiry test per ring entry the hand examines.
        let passed = Cell::new(0usize);
        let victim = self.clock.evict_with(|id| {
            passed.set(passed.get() + 1);
            is_expired(items.expires_at(id), now)
        })?;
        self.look_ahead(depth, passed.get());
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

    /// The eviction look-ahead (DESIGN.md §12), run after the hand has
    /// `passed` ring entries: request what evicting the entries that just
    /// came within reach will touch, in two stages `depth` entries apart so
    /// the second can resolve a row the first made warm. `depth` entries
    /// ahead: every line of the entry's chunk — the set that evicts it
    /// rewrites that chunk — and, from the ring hash, its index buckets.
    /// `2 * depth` ahead: the item row with the expiry the sweep tests, the
    /// id's version word and its ring-position slot. Hints only; `depth`
    /// 0 issues none, and a sweep that passed more than `depth` entries
    /// restarts the pipeline from the hand rather than chase it.
    fn look_ahead(&self, depth: usize, passed: usize) {
        let fresh = passed.min(depth);
        for distance in depth - fresh..depth {
            if let Some((id, hash)) = self.clock.ahead(distance) {
                if let Some(r) = self.items.get(id) {
                    self.slab.prefetch_chunk(r);
                }
                self.index.prefetch_hash(hash);
            }
        }
        for distance in 2 * depth - fresh..2 * depth {
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

    pub(super) fn stores(capacity: usize) -> Vec<KvStore> {
        let cfg = StoreConfig {
            memory_budget: 8 << 20,
            capacity_items: capacity,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
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
                        prefetch_depth: None,
                        ..StoreConfig::default()
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
                prefetch_depth: None,
                ..StoreConfig::default()
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
    fn ttl_expiry_is_lazy_and_mode_agnostic() {
        for store in stores(2000).iter().chain(sharded_stores(2000, 4).iter()) {
            let name = store.index_name();
            store.set_v(b"mortal", b"doomed", 5).unwrap();
            store.set_v(b"immortal", b"stays", 0).unwrap();
            for mode in [ReadMode::Locked, ReadMode::Optimistic] {
                store.set_read_mode(mode);
                assert_eq!(store.get(b"mortal").as_deref(), Some(&b"doomed"[..]));
            }
            store.advance_time(5);
            let mut resp = MGetResponse::new();
            for mode in [ReadMode::Locked, ReadMode::Optimistic] {
                store.set_read_mode(mode);
                assert_eq!(store.get(b"mortal"), None, "{name}/{:?}", mode);
                assert_eq!(store.get_v(b"mortal"), None, "{name}/{:?}", mode);
                assert_eq!(store.get(b"immortal").as_deref(), Some(&b"stays"[..]));
                let out = store.mget(&[b"mortal".as_ref(), b"immortal".as_ref()], &mut resp);
                assert_eq!(out.found, 1, "{name}/{:?}", mode);
                assert_eq!(resp.value(0), None, "{name}/{:?}", mode);
                assert_eq!(resp.value(1), Some(&b"stays"[..]), "{name}/{:?}", mode);
            }
            store.set_read_mode(ReadMode::Locked);
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
                prefetch_depth: None,
                ..StoreConfig::default()
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
    /// that took a stale hash from the ring would leak one index slot per
    /// victim until `IndexFull`, and no release build would say so. Churn
    /// every path that moves an entry — slab pressure, index pressure, TTL
    /// reclamation, deletes, in-place replaces across slab classes, CAS —
    /// then hold index, item table and ring to one census, and resolve every
    /// ring entry back to itself through the index by the hash it carries.
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
                        ..StoreConfig::default()
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
                    let g = slot.read();
                    let n = g.items.len();
                    assert!(n > 0, "{which}");
                    assert_eq!(g.index.len(), n, "{which}: index entries vs items");
                    assert_eq!(g.clock.len(), n, "{which}: ring entries vs items");
                    for d in 0..n {
                        let (item, hash) = g.clock.ahead(d).expect("ring is not empty");
                        let r = g.items.get(item).expect("ring entry is a live item");
                        let stored = item_key(g.slab.chunk(r));
                        assert_eq!(hash, hash_key(stored), "{which}: ring hash of {item}");
                        assert_eq!(g.find_verified(hash, stored), Some(item), "{which}");
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

    #[test]
    fn eviction_under_memory_pressure() {
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(100_000)),
            StoreConfig {
                memory_budget: 2 << 20, // 2 MiB: forces eviction
                capacity_items: 100_000,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
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
    fn index_full_triggers_eviction_not_failure() {
        // A deliberately undersized index forces the IndexFull -> evict ->
        // retry path in set(); the store must keep absorbing writes.
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(64)),
            StoreConfig {
                memory_budget: 8 << 20,
                capacity_items: 64,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
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
    fn read_mode_parse_and_default() {
        assert_eq!(ReadMode::parse("locked"), Some(ReadMode::Locked));
        assert_eq!(ReadMode::parse("optimistic"), Some(ReadMode::Optimistic));
        assert_eq!(ReadMode::parse("bogus"), None);
        assert_eq!(StoreConfig::default().read_mode, ReadMode::Locked);
        let store = &stores(10)[0];
        assert_eq!(store.read_mode(), ReadMode::Locked);
        store.set_read_mode(ReadMode::Optimistic);
        assert_eq!(store.read_mode(), ReadMode::Optimistic);
        assert_eq!(ReadMode::Optimistic.name(), "optimistic");
    }

    #[test]
    fn optimistic_reads_match_locked_and_commit() {
        // Quiescent store: every optimistic read must commit (no writers
        // to race) and return exactly what the locked path returns.
        for store in stores(2000).iter().chain(sharded_stores(2000, 4).iter()) {
            for i in 0..800u32 {
                store
                    .set(format!("k{i}").as_bytes(), format!("val-{i}").as_bytes())
                    .unwrap();
            }
            let keys: Vec<String> = (0..900u32).map(|i| format!("k{i}")).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
            let mut locked = MGetResponse::new();
            let out_locked = store.mget(&refs, &mut locked);
            let locked_frame = locked.seal_frame(7).to_vec();
            let locked_gets: Vec<Option<Vec<u8>>> = refs.iter().map(|k| store.get(k)).collect();

            store.set_read_mode(ReadMode::Optimistic);
            let before = store.optimistic_stats();
            let mut opt = MGetResponse::new();
            let out_opt = store.mget(&refs, &mut opt);
            assert_eq!(out_opt.found, out_locked.found, "{}", store.index_name());
            assert_eq!(
                opt.seal_frame(7),
                &locked_frame[..],
                "{}",
                store.index_name()
            );
            let opt_gets: Vec<Option<Vec<u8>>> = refs.iter().map(|k| store.get(k)).collect();
            assert_eq!(opt_gets, locked_gets, "{}", store.index_name());
            let after = store.optimistic_stats();
            assert!(after.commits > before.commits, "{}", store.index_name());
            // No concurrent writers, so no read should ever need a retry
            // or give up (a tag collision is a per-key assist, not a
            // fallback).
            assert_eq!(after.retries, before.retries, "{}", store.index_name());
            assert_eq!(after.fallbacks, before.fallbacks, "{}", store.index_name());
            store.set_read_mode(ReadMode::Locked);
        }
    }

    #[test]
    fn locked_reads_leave_optimistic_stats_zero() {
        // The locked view is the same pass with the seqlock protocol
        // compiled out: gets, mgets and the collision slow path (a hit
        // behind a colliding first candidate, and a colliding miss) must
        // not touch the optimistic counters.
        let mut seen = std::collections::HashMap::new();
        let (a, b) = (0u32..)
            .find_map(|i| {
                let key = format!("col-{i:08x}").into_bytes();
                seen.insert(hash_key(&key), key.clone()).map(|a| (a, key))
            })
            .expect("u32 hashes must collide");
        for store in stores(2000).iter().chain(sharded_stores(2000, 4).iter()) {
            assert_eq!(store.read_mode(), ReadMode::Locked);
            for k in [&a, &b] {
                store.set(k, k).unwrap();
            }
            let mut resp = MGetResponse::new();
            for pass in 0..2 {
                assert_eq!(store.get(&a).as_deref(), Some(&a[..]));
                assert_eq!(store.get(&b).is_some(), pass == 0);
                assert_eq!(store.get(b"absent"), None);
                let out = store.mget(&[&a[..], &b[..], b"absent"], &mut resp);
                assert_eq!(out.found, 2 - pass, "{}", store.index_name());
                store.delete(&b); // second pass: `b` collides and misses
            }
            assert_eq!(
                store.optimistic_stats(),
                OptimisticStats::default(),
                "{}",
                store.index_name()
            );
        }
    }

    /// Hold a writer mid-`set` (old item deleted, new not yet written,
    /// shard version odd) via the torture hook; returns the paused store
    /// plus the barriers and writer handle.
    fn paused_writer_store() -> (
        std::sync::Arc<KvStore>,
        std::sync::Arc<std::sync::Barrier>,
        std::thread::JoinHandle<()>,
    ) {
        use std::sync::{Arc, Barrier};
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig {
                read_mode: ReadMode::Optimistic,
                ..StoreConfig::default()
            },
        ));
        store.set(b"hot", b"v1").unwrap();
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        {
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            store.set_torture_set_pause(Some(Box::new(move || {
                entered.wait();
                release.wait();
            })));
        }
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.set(b"hot", b"v2").unwrap())
        };
        entered.wait(); // writer is now paused mid-mutation
        (store, release, writer)
    }

    fn wait_for_fallback(store: &KvStore, before: u64) {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while store.optimistic_stats().fallbacks == before {
            assert!(
                Instant::now() < deadline,
                "reader never fell back off the optimistic path"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn torn_read_get_spins_and_falls_back() {
        // The adversarial torn-read oracle: while the writer is held
        // mid-mutation the key's old item is GONE from index and table —
        // a reader trusting the racy probe would answer `None` (a torn
        // read: the key never stopped existing). The seqlock discipline
        // (odd version → spin → locked fallback) must make the reader
        // block and return the *new* value instead. Deleting the version
        // re-check deliberately makes this test fail.
        let (store, release, writer) = paused_writer_store();
        let before = store.optimistic_stats().fallbacks;
        let reader = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || store.get(b"hot"))
        };
        // The reader provably gave up optimistically while the writer was
        // still paused — not after it finished.
        wait_for_fallback(&store, before);
        release.wait();
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap().as_deref(), Some(&b"v2"[..]));
        // With the writer gone, optimistic reads commit again.
        let commits = store.optimistic_stats().commits;
        assert_eq!(store.get(b"hot").as_deref(), Some(&b"v2"[..]));
        assert!(store.optimistic_stats().commits > commits);
    }

    #[test]
    fn torn_read_prefetched_mget_spins_and_falls_back() {
        // Same oracle through the G-ahead prefetched Multi-Get pipeline.
        let (store, release, writer) = paused_writer_store();
        store.set_prefetch_depth(8);
        let before = store.optimistic_stats().fallbacks;
        let reader = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                let mut resp = MGetResponse::new();
                let keys: [&[u8]; 3] = [b"hot", b"missing-a", b"missing-b"];
                let out = store.mget(&keys, &mut resp);
                (out.found, resp.value(0).map(<[u8]>::to_vec))
            })
        };
        wait_for_fallback(&store, before);
        release.wait();
        writer.join().unwrap();
        let (found, hot) = reader.join().unwrap();
        assert_eq!(found, 1);
        assert_eq!(hot.as_deref(), Some(&b"v2"[..]));
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
                    prefetch_depth: None,
                    ..StoreConfig::default()
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
