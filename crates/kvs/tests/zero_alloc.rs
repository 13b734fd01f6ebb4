//! Zero-allocation guard for the daemon's request path.
//!
//! A counting global allocator watches a live `Kvsd` (thread loop, the
//! default, over loopback) serve bursts of pipelined requests. Once the
//! connection's buffers have grown to the widest burst, a request costs
//! no heap allocation at all: its frame is decoded in place — in the
//! connection's one reused frame buffer, or in its read buffer when it
//! joins a run of Multi-Gets — executed against the store (a run of
//! Multi-Gets in one call), sealed in the worker's scratch and written
//! out. The client side of the socket
//! allocates nothing either (pre-encoded frames, one reused read buffer),
//! so the process-wide count over the measured window is the server's.
//!
//! Every case runs in the one `#[test]` below, so no other test thread of
//! this binary allocates during a window.
//!
//! Out of scope: an insert that finds both of its buckets full runs the
//! index's BFS relocation search (`simdht_table::relocation_path`), which
//! allocates its frontier. The index here is sized well above what the
//! slab can hold, as a served store is, so no insert in these runs needs
//! one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use simdht_kvs::index::by_short_name;
use simdht_kvs::kvsd::Kvsd;
use simdht_kvs::metrics::Counter;
use simdht_kvs::net::write_frame;
use simdht_kvs::protocol::{Request, Response};
use simdht_kvs::store::{KvStore, StoreConfig};

/// Counts every allocation and reallocation in the process.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests per run; a warm-up run precedes each measured one.
const REQUESTS: usize = 256;
const KEYS_PER_REQUEST: usize = 16;
const VALUE_LEN: usize = 100;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i:08}"))
}

fn value(i: usize, gen: usize) -> Bytes {
    let mut v = format!("value-{i:08}-{gen:04}-").into_bytes();
    v.resize(VALUE_LEN, b'.');
    Bytes::from(v)
}

/// Requests a client sends as one burst before reading their replies:
/// sixteen 16-key Multi-Gets, which the thread loop serves with one store
/// call when the whole burst is in its read buffer.
const DEPTH: usize = 16;

/// `REQUESTS` encoded frames, back to back, and where each one lies.
struct Frames {
    bytes: Vec<u8>,
    at: Vec<std::ops::Range<usize>>,
}

fn frames(make: impl Fn(usize) -> Request) -> Frames {
    let (mut bytes, mut at) = (Vec::new(), Vec::new());
    for r in 0..REQUESTS {
        let start = bytes.len();
        write_frame(&mut bytes, &make(r).encode()).expect("frame fits");
        at.push(start..bytes.len());
    }
    Frames { bytes, at }
}

/// Send `frames` in bursts of `DEPTH`, each in one write, and read each
/// response into `buf`, allocating nothing; returns the last response's
/// payload length.
fn exchange(conn: &mut TcpStream, frames: &Frames, buf: &mut [u8]) -> usize {
    let mut len = 0;
    for burst in frames.at.chunks(DEPTH) {
        let (first, last) = (burst[0].start, burst[burst.len() - 1].end);
        conn.write_all(&frames.bytes[first..last]).expect("send");
        for _ in burst {
            let mut prefix = [0u8; 4];
            conn.read_exact(&mut prefix).expect("response prefix");
            len = u32::from_le_bytes(prefix) as usize;
            conn.read_exact(&mut buf[..len]).expect("response payload");
        }
    }
    len
}

/// Heap allocations the whole process made while the daemon served
/// `REQUESTS` requests, once `warm` and then `measured` were sent.
/// `check` sees the last response of the measured run.
fn allocations_per_run(
    conn: &mut TcpStream,
    warm: &Frames,
    measured: &Frames,
    check: impl Fn(Response),
) -> u64 {
    let mut buf = vec![0u8; 1 << 16];
    exchange(conn, warm, &mut buf);
    let before = ALLOCS.load(Ordering::SeqCst);
    let len = exchange(conn, measured, &mut buf);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    check(Response::decode(Bytes::copy_from_slice(&buf[..len])).expect("a response"));
    allocs
}

#[test]
fn serving_a_request_allocates_nothing_in_steady_state() {
    let store = Arc::new(KvStore::new(
        by_short_name("memc3", 100_000).expect("known index"),
        StoreConfig {
            memory_budget: 1 << 20,
            capacity_items: 100_000,
            ..StoreConfig::default()
        },
    ));
    let resident = KEYS_PER_REQUEST * 4;
    for i in 0..resident {
        store.set(&key(i), &value(i, 0)).expect("preload");
    }
    let kvsd = Kvsd::bind(Arc::clone(&store), "127.0.0.1:0").expect("bind");
    let mut conn = TcpStream::connect(kvsd.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");

    // A 16-key Multi-Get over resident keys: every key hits.
    let keys = |r: usize| {
        (0..KEYS_PER_REQUEST)
            .map(|k| key((r + k) % resident))
            .collect()
    };
    let mget = frames(|r| Request::MGet {
        id: r as u64,
        keys: keys(r),
    });
    let before = kvsd.stats();
    let allocs = allocations_per_run(&mut conn, &mget, &mget, |resp| match resp {
        Response::MGet { entries, .. } => assert!(entries.iter().all(Option::is_some)),
        other => panic!("unexpected {other:?}"),
    });
    assert_eq!(
        allocs, 0,
        "16-key MGet: {allocs} allocations per {REQUESTS} requests"
    );
    // The bursts were served by coalesced store calls, wider than one
    // request: the allocation-free path is the coalesced one.
    let after = kvsd.stats();
    let batches = after[Counter::Batches] - before[Counter::Batches];
    let keys = after[Counter::BatchKeys] - before[Counter::BatchKeys];
    assert!(batches > 0, "no Multi-Get store call counted");
    assert!(
        keys as f64 / batches as f64 > KEYS_PER_REQUEST as f64,
        "{batches} store calls over {keys} keys: the bursts were not coalesced"
    );

    // A 16-pair Multi-Set that replaces resident keys.
    let replace = |gen: usize| {
        frames(move |r| Request::SetMulti {
            id: r as u64,
            pairs: (0..KEYS_PER_REQUEST)
                .map(|k| (r + k) % resident)
                .map(|i| (key(i), value(i, gen)))
                .collect(),
        })
    };
    let stored = |resp| match resp {
        Response::SetMulti { ok, .. } => assert!(ok.iter().all(|&ok| ok)),
        other => panic!("unexpected {other:?}"),
    };
    let allocs = allocations_per_run(&mut conn, &replace(1), &replace(2), stored);
    assert_eq!(
        allocs, 0,
        "replacing SetMulti: {allocs} allocations per {REQUESTS} requests"
    );

    // A 16-pair Multi-Set of keys never seen before, into a store whose
    // slab is already full: every pair evicts.
    let span = REQUESTS * KEYS_PER_REQUEST;
    let fresh = |run: usize| {
        frames(move |r| Request::SetMulti {
            id: r as u64,
            pairs: (0..KEYS_PER_REQUEST)
                .map(|k| resident + run * span + r * KEYS_PER_REQUEST + k)
                .map(|i| (key(i), value(i, 0)))
                .collect(),
        })
    };
    let mut buf = vec![0u8; 1 << 16];
    for run in 0..4 {
        exchange(&mut conn, &fresh(run), &mut buf);
    }
    let evicted = store.totals().evictions;
    assert!(
        evicted > 0,
        "the slab must be full before the evicting runs"
    );
    let allocs = allocations_per_run(&mut conn, &fresh(4), &fresh(5), stored);
    let evictions = store.totals().evictions - evicted;
    assert!(
        evictions >= (2 * span) as u64,
        "every pair must evict, got {evictions}"
    );
    assert_eq!(
        allocs, 0,
        "evicting SetMulti: {allocs} allocations per {REQUESTS} requests"
    );

    drop(conn);
    kvsd.shutdown();
}
