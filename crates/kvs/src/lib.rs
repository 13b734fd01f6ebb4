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
//! * [`clock`] — MemC3's CLOCK cache-freshness metadata.
//! * [`index`] — pluggable hash indexes: [`index::Memc3Index`] (tags +
//!   partial-key cuckoo + optimistic versioned buckets) and its two
//!   sibling layouts over the same [`index::TagCuckoo`] core, and
//!   [`index::SimdIndex`] (horizontal (2,4) BCHT / vertical 3-way over the
//!   `simdht-core` kernels).
//! * [`seqlock`] — the even/odd version-counter primitive and stable
//!   segmented atomic storage behind the store's lock-free optimistic read
//!   path (DESIGN.md §11).
//! * [`store`] — the three-phase Multi-Get pipeline with per-phase timing
//!   (pre-processing / HT lookup / post-processing — Fig. 11b).
//! * [`transport`] — the [`transport::Transport`]/[`transport::ClientConn`]
//!   abstraction plus the simulated InfiniBand-EDR fabric (bounded
//!   crossbeam channels + an analytic wire-cost model; see DESIGN.md
//!   substitutions).
//! * [`net`] — the real TCP transport: length-prefixed frames carrying the
//!   same [`protocol`] messages over actual sockets.
//! * [`fault`] — deterministic seeded fault injection beneath the
//!   transport traits (drop / delay / truncate / corrupt / close), the
//!   substrate of the fault-matrix test suite.
//! * [`client`] — client-side resilience: recv timeouts, bounded
//!   exponential backoff with jitter, idempotent MGet retry
//!   ([`client::RetryClient`]).
//! * [`server`] / [`kvsd`] — worker threads draining the fabric, and the
//!   TCP daemon behind the `simdht-kvsd` binary (pipelined per-connection
//!   handlers, graceful drain, per-connection + aggregate stats).
//! * [`reactor`] — the event-driven serving architecture: epoll/poll
//!   event loops owning many nonblocking connections each, coalescing
//!   Multi-Gets from *all* connections into one wide lookup batch
//!   ([`reactor::ReactorServer`], `simdht-kvsd --reactor`).
//! * [`memslap`] — the memslap-style Multi-Get load generator with latency
//!   percentiles, co-located ([`memslap::run_memslap`]) or networked over
//!   either transport ([`memslap::run_memslap_over`], the `simdht-memslap`
//!   binary).
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

pub mod client;
pub mod clock;
pub mod fault;
pub mod index;
pub mod item;
pub mod kvsd;
pub mod memslap;
pub mod net;
pub mod protocol;
pub mod reactor;
pub mod seqlock;
pub mod server;
pub mod slab;
pub mod store;
pub mod transport;
