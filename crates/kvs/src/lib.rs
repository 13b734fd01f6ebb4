//! # simdht-kvs
//!
//! The in-memory key-value store substrate validating **SimdHT-Bench**
//! (IISWC 2019 reproduction, §VI): a Memcached-like server whose Multi-Get
//! pipeline can be backed by the paper's non-SIMD MemC3 index or by the two
//! SIMD-aware designs its performance studies selected.
//!
//! Components (paper Fig. 10):
//!
//! * [`slab`] — memcached-style slab allocator holding the variable-length
//!   key-value objects.
//! * [`item`] — item encoding + the shared object-pointer array the hash
//!   indexes point into.
//! * [`clock`] — two-queue eviction: a probationary FIFO in front of
//!   MemC3's CLOCK ring, over one reference bitmap.
//! * [`index`] — pluggable hash indexes: [`index::Memc3Index`] (tags +
//!   partial-key cuckoo + striped bucket versions) and its two
//!   sibling layouts over the same [`index::TagCuckoo`] core, and
//!   [`index::SimdIndex`] (horizontal (2,4) BCHT / vertical 3-way over the
//!   `simdht-core` kernels).
//! * [`arena`] — 2 MiB-aligned, huge-page-advised `mmap` memory behind
//!   the item table's segments and the index slot arrays.
//! * [`segarray`] — the segmented atomic array behind the item table and
//!   the CLOCK reference bits.
//! * [`store`] — the three-phase Multi-Get pipeline with per-phase timing
//!   (pre-processing / HT lookup / post-processing — Fig. 11b).
//! * [`transport`] — the [`transport::Transport`]/[`transport::ClientConn`]
//!   traits the clients, the fault layer and test doubles meet at.
//! * [`net`] — the one transport: length-prefixed TCP frames carrying
//!   [`protocol`] messages over actual sockets (loopback stands in for the
//!   paper's InfiniBand EDR link; see DESIGN.md substitutions).
//! * [`fault`] — deterministic seeded fault injection beneath the
//!   transport traits (drop / delay / truncate / corrupt / close), the
//!   substrate of the fault-matrix test suite.
//! * [`client`] — client-side resilience: recv timeouts, bounded
//!   exponential backoff with jitter, idempotent MGet retry
//!   ([`client::RetryClient`]).
//! * [`kvsd`] — the one server, behind the `simdht-kvsd` binary and the
//!   Fig. 11 harness ([`kvsd::Kvsd`]: accept, graceful drain and the
//!   counter registry around one pipelined handler thread per connection).
//! * [`metrics`] — the server's counters: one cache-line-aligned block per
//!   thread, written by that thread alone without a read-modify-write, and
//!   merged on read into a [`metrics::Snapshot`].
//! * [`memslap`] — the memslap-style Multi-Get load generator with latency
//!   percentiles and a modeled EDR round trip, against an in-process
//!   loopback server ([`memslap::run_memslap`]) or any address
//!   ([`memslap::run_memslap_over`], the `simdht-memslap` binary).
//!
//! ## Example
//!
//! ```
//! use simdht_kvs::index::{SimdIndex, SimdIndexKind};
//! use simdht_kvs::store::{KvStore, MGetResponse, StoreConfig};
//!
//! let store = KvStore::new(
//!     Box::new(SimdIndex::with_capacity(SimdIndexKind::VerticalNway, 1000)),
//!     StoreConfig::default(),
//! );
//! store.set(b"user:42", b"{\"name\":\"ada\"}")?;
//! let mut resp = MGetResponse::new();
//! let outcome = store.mget(&[b"user:42".as_ref(), b"user:43".as_ref()], &mut resp);
//! assert_eq!(outcome.found, 1);
//! assert_eq!(resp.value(0), Some(&b"{\"name\":\"ada\"}"[..]));
//! # Ok::<(), simdht_kvs::store::StoreError>(())
//! ```

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "simdht-kvs builds on Linux only: its arenas need Linux madvise \
     (MADV_HUGEPAGE, MADV_COLLAPSE)"
);

pub mod arena;
pub mod client;
pub mod clock;
pub mod fault;
pub mod index;
pub mod item;
pub mod kvsd;
pub mod memslap;
pub mod metrics;
pub mod net;
pub mod protocol;
pub mod segarray;
pub mod slab;
pub mod store;
pub mod transport;

/// `list`'s allocation, emptied and re-typed: how a scratch list of
/// borrowed slices outlives the borrows it held, from one request to the
/// next. Where the element layouts match (`&'a [u8]` into `&'static [u8]`)
/// the in-place `collect` keeps the capacity — `tests/zero_alloc.rs` pins
/// that — and no element survives, so no borrow does.
pub(crate) fn emptied<T, U>(mut list: Vec<T>) -> Vec<U> {
    list.clear();
    list.into_iter()
        .map(|_| unreachable!("the list was cleared"))
        .collect()
}
