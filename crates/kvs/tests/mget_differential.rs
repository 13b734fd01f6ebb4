//! Differential acceptance of the prefetched, zero-copy Multi-Get data
//! path (DESIGN.md §9): for every index family, shard count, and prefetch
//! look-ahead G, `mget` must return byte-identical results — decoded
//! entries against a model map, and CRC-sealed wire frames against both
//! the G = 0 baseline and the generic `Response::MGet` encoder — on
//! batches spanning hits, misses, and full-hash-collision fallbacks.
//! A final case replays the same traffic over real TCP loopback.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use simdht_kvs::index::{self, hash_key};
use simdht_kvs::kvsd::Kvsd;
use simdht_kvs::net::TcpConn;
use simdht_kvs::protocol::{Request, Response};
use simdht_kvs::store::{KvStore, MGetResponse, ReadMode, SetMultiBatch, ShardStats, StoreConfig};
use simdht_kvs::transport::ClientConn;

const INDEXES: [&str; 5] = ["memc3", "hor", "ver", "dpdk", "local"];
const DEPTHS: [usize; 4] = [0, 1, 8, 64];

/// Find two distinct keys with the same 32-bit FNV hash (birthday search;
/// deterministic, a few hundred thousand cheap hashes).
fn collision_pair() -> (Vec<u8>, Vec<u8>) {
    let mut seen: HashMap<u32, usize> = HashMap::new();
    for i in 0usize.. {
        let key = format!("col-{i:08x}").into_bytes();
        if let Some(&j) = seen.get(&hash_key(&key)) {
            let earlier = format!("col-{j:08x}").into_bytes();
            return (earlier, key);
        }
        seen.insert(hash_key(&key), i);
    }
    unreachable!("u32 hashes must collide")
}

/// Find two distinct keys that agree on the low 12 hash bits AND on
/// `hash >> 25` but differ in the full 32-bit hash. For the localized
/// (2,7) index these land in the same bucket with the same 7-bit tag, so
/// the tag row reports a candidate and only the full-hash (and then full
/// key) check can separate them. 19 constrained bits → birthday collision
/// within ~1k keys.
fn tag_pair(prefix: &str) -> (Vec<u8>, Vec<u8>) {
    let mut seen: HashMap<u32, (usize, u32)> = HashMap::new();
    for i in 0usize.. {
        let key = format!("{prefix}-{i:08x}").into_bytes();
        let h = hash_key(&key);
        let class = (h & 0xFFF) | ((h >> 25) << 12);
        match seen.get(&class) {
            Some(&(j, hj)) if hj != h => {
                return (format!("{prefix}-{j:08x}").into_bytes(), key);
            }
            Some(_) => {}
            None => {
                seen.insert(class, (i, h));
            }
        }
    }
    unreachable!("19-bit tag classes must collide")
}

/// The corpus: varied key/value widths (mixed and uniform so Phase 1 hits
/// both the SIMD fixed-width kernel and the interleaved mixed kernel),
/// plus both keys of one hash-colliding pair and the first key of another,
/// plus two 7-bit tag-colliding pairs engineered for the localized index.
struct Corpus {
    items: Vec<(Vec<u8>, Vec<u8>)>,
    /// Inserted colliding pair: looking up either must hit via fallback.
    pair_both: (Vec<u8>, Vec<u8>),
    /// Only `.0` is inserted; probing `.1` finds a candidate whose full
    /// key differs — the fallback scan must still report a miss.
    pair_half: (Vec<u8>, Vec<u8>),
    /// Same bucket + same 7-bit tag, different full hashes; both inserted.
    tag_both: (Vec<u8>, Vec<u8>),
    /// Same bucket + same 7-bit tag; only `.0` inserted — the tag row
    /// flags a candidate but the full-hash check must reject it.
    tag_half: (Vec<u8>, Vec<u8>),
}

fn build_corpus() -> Corpus {
    let pair_both = collision_pair();
    // Perturb the search prefix to get an independent second pair.
    let pair_half = {
        let mut seen: HashMap<u32, usize> = HashMap::new();
        let mut found = None;
        for i in 0usize.. {
            let key = format!("dup-{i:08x}").into_bytes();
            if let Some(&j) = seen.get(&hash_key(&key)) {
                found = Some((format!("dup-{j:08x}").into_bytes(), key));
                break;
            }
            seen.insert(hash_key(&key), i);
        }
        found.expect("u32 hashes must collide")
    };
    let mut items = Vec::new();
    for i in 0..600usize {
        // Key widths cycle 6..=25 bytes; value widths 0..=120.
        let key = format!("k{i:0w$}", w = 5 + i % 20).into_bytes();
        let value = vec![(i % 251) as u8; (i * 7) % 121];
        items.push((key, value));
    }
    items.push((pair_both.0.clone(), b"first-of-colliding-pair".to_vec()));
    items.push((pair_both.1.clone(), b"second-of-colliding-pair".to_vec()));
    items.push((pair_half.0.clone(), b"only-inserted-collider".to_vec()));
    let tag_both = tag_pair("tagb");
    let tag_half = tag_pair("tagh");
    items.push((tag_both.0.clone(), b"first-of-tag-pair".to_vec()));
    items.push((tag_both.1.clone(), b"second-of-tag-pair".to_vec()));
    items.push((tag_half.0.clone(), b"only-inserted-tag-collider".to_vec()));
    Corpus {
        items,
        pair_both,
        pair_half,
        tag_both,
        tag_half,
    }
}

/// Query batches spanning the interesting shapes: single key, pure hits,
/// pure misses, interleaved hit/miss, collision fallbacks, an empty batch,
/// and one batch long enough to span many hash groups and prefetch windows.
fn query_batches(c: &Corpus) -> Vec<Vec<Vec<u8>>> {
    let key = |i: usize| c.items[i].0.clone();
    let miss = |i: usize| format!("absent-{i:06}").into_bytes();
    let mut batches = vec![
        vec![],
        vec![key(0)],
        vec![miss(0)],
        (0..40).map(key).collect::<Vec<_>>(),
        (0..40).map(miss).collect::<Vec<_>>(),
        (0..60)
            .map(|i| if i % 3 == 0 { miss(i) } else { key(i) })
            .collect::<Vec<_>>(),
        vec![
            c.pair_both.0.clone(),
            c.pair_both.1.clone(),
            c.pair_half.0.clone(),
            c.pair_half.1.clone(), // collides with an inserted key: must miss
            key(5),
            miss(5),
        ],
        vec![
            c.tag_both.0.clone(),
            c.tag_both.1.clone(),
            c.tag_half.0.clone(),
            c.tag_half.1.clone(), // same bucket + 7-bit tag: must miss
        ],
    ];
    // 300 keys: several 8-lane hash groups plus a remainder, and longer
    // than any prefetch window, with hits/misses/colliders interleaved.
    batches.push(
        (0..300)
            .map(|i| match i % 7 {
                0 => miss(i),
                1 => c.pair_both.1.clone(),
                2 => c.pair_half.1.clone(),
                _ => key(i % c.items.len()),
            })
            .collect(),
    );
    batches
}

fn store_with(which: &str, shards: usize, depth: usize, corpus: &Corpus) -> KvStore {
    let store = KvStore::with_shards(
        StoreConfig {
            // Varied value widths touch many slab size classes, each of
            // which reserves a 1 MiB page per shard.
            memory_budget: 128 << 20,
            capacity_items: 4096,
            shards,
            prefetch_depth: Some(depth),
            ..StoreConfig::default()
        },
        |cap| index::by_short_name(which, cap).expect("known index"),
    );
    for (k, v) in &corpus.items {
        store.set(k, v).expect("preload");
    }
    store
}

/// Sealed wire frame for one batch, plus the decoded entries.
fn run_batch(store: &KvStore, id: u64, batch: &[Vec<u8>]) -> (Vec<u8>, Vec<Option<Bytes>>) {
    let keys: Vec<&[u8]> = batch.iter().map(|k| k.as_slice()).collect();
    run_keys(store, id, &keys)
}

/// [`run_batch`] over key slices that live wherever the caller put them.
fn run_keys(store: &KvStore, id: u64, keys: &[&[u8]]) -> (Vec<u8>, Vec<Option<Bytes>>) {
    let mut resp = MGetResponse::new();
    store.mget(keys, &mut resp);
    let frame = resp.seal_frame(id).to_vec();
    let decoded = match Response::decode(Bytes::copy_from_slice(&frame)) {
        Ok(Response::MGet { id: got, entries }) => {
            assert_eq!(got, id);
            entries
        }
        other => panic!("sealed frame failed to decode: {other:?}"),
    };
    (frame, decoded)
}

#[test]
fn prefetched_mget_is_bit_identical_across_depths_shards_and_indexes() {
    let corpus = build_corpus();
    let model: HashMap<&[u8], &[u8]> = corpus
        .items
        .iter()
        .map(|(k, v)| (k.as_slice(), v.as_slice()))
        .collect();
    let batches = query_batches(&corpus);

    for which in INDEXES {
        for shards in [1usize, 4] {
            let store = store_with(which, shards, 0, &corpus);
            for (b, batch) in batches.iter().enumerate() {
                let id = (b as u64) << 8;
                let (baseline_frame, baseline_entries) = run_batch(&store, id, batch);

                // The baseline agrees with the model map and with the
                // generic encoder.
                for (key, entry) in batch.iter().zip(&baseline_entries) {
                    assert_eq!(
                        entry.as_deref(),
                        model.get(key.as_slice()).copied(),
                        "{which}/{shards} shards: wrong entry for {:?}",
                        String::from_utf8_lossy(key),
                    );
                }
                let generic = Response::MGet {
                    id,
                    entries: baseline_entries.clone(),
                }
                .encode();
                assert_eq!(
                    baseline_frame,
                    generic.to_vec(),
                    "{which}/{shards} shards: zero-copy frame diverges from generic encoder",
                );

                // Every prefetch depth reproduces the baseline bytes.
                for depth in DEPTHS {
                    store.set_prefetch_depth(depth);
                    let (frame, _) = run_batch(&store, id, batch);
                    assert_eq!(
                        frame, baseline_frame,
                        "{which}/{shards} shards, G={depth}, batch {b}: frame bytes diverged",
                    );
                }
                store.set_prefetch_depth(0);
            }
        }
    }
}

/// A store whose items sit on both sides of every line count the staged
/// prefetches distinguish — 58 B (one line of the 64-byte class), 64 B (all
/// of it), 65 B (first byte of a second line, next class up) and 282 B
/// (five lines) — every third one already expired, read back in batches
/// that mix live, expired and absent keys. Returns each batch's sealed
/// frame and the shard counters after the last one.
fn line_shape_run(
    which: &str,
    mode: ReadMode,
    shards: usize,
    depth: usize,
) -> (Vec<Vec<u8>>, Vec<ShardStats>) {
    const KEY_BYTES: usize = 20;
    const ITEM_BYTES: [usize; 4] = [58, 64, 65, 282];
    let store = KvStore::with_shards(
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 4096,
            shards,
            prefetch_depth: Some(depth),
            read_mode: mode,
        },
        |cap| index::by_short_name(which, cap).expect("known index"),
    );
    let key = |i: usize| format!("line-{i:015}").into_bytes();
    for i in 0..1200usize {
        let value = vec![(i % 251) as u8; ITEM_BYTES[i % 4] - 6 - KEY_BYTES];
        assert_eq!(key(i).len(), KEY_BYTES);
        let ttl = if i % 3 == 0 { 1 } else { 0 };
        store.set_v(&key(i), &value, ttl).expect("preload");
    }
    store.advance_time(2);

    let mut frames = Vec::new();
    for (b, width) in [1usize, 16, 64, 300].into_iter().enumerate() {
        // Stride 7 is coprime to both 3 and 4, so every batch of 16 or more
        // sees all four sizes, live and expired; ids past 1200 were never set.
        let batch: Vec<Vec<u8>> = (0..width).map(|j| key((b * 97 + j * 7) % 1300)).collect();
        frames.push(run_batch(&store, b as u64, &batch).0);
    }
    (frames, store.shard_stats())
}

/// What the staged prefetches bring in per hit — the row line that also
/// carries the expiry word, the chunk's leading line that is all of a small
/// item and a fifth of a wide one — is hints only: no byte of any response
/// and no shard counter may depend on G.
#[test]
fn line_prefetches_change_no_response_byte_and_no_counter() {
    for which in INDEXES {
        for mode in [ReadMode::Locked, ReadMode::Optimistic] {
            for shards in [1usize, 4] {
                let (frames, stats) = line_shape_run(which, mode, shards, 0);
                let totals = stats.iter().fold(ShardStats::default(), |mut t, s| {
                    t.add(s);
                    t
                });
                assert_eq!(totals.mget_keys, 1 + 16 + 64 + 300);
                assert!(totals.expired > 0 && totals.mget_hits > totals.expired);
                assert!(totals.mget_hits + totals.expired < totals.mget_keys);
                for depth in [1usize, 8, 32] {
                    let (got_frames, got_stats) = line_shape_run(which, mode, shards, depth);
                    let at = format!("{which}/{mode:?}/{shards} shards, G={depth}");
                    assert_eq!(got_frames, frames, "{at}: frame bytes diverged");
                    assert_eq!(got_stats, stats, "{at}: shard counters diverged");
                }
            }
        }
    }
}

const PAGE: usize = 4096;

/// Copy `keys` into one zeroed 64 MiB allocation, a key every ~half MiB,
/// the pages between never touched. Even-numbered keys end on the last
/// byte of a page (an empty one *is* the page boundary); odd-numbered keys
/// sit mid-page with a cache-line boundary after their tenth byte.
fn scatter(keys: &[Vec<u8>]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    const ARENA_BYTES: usize = 64 << 20;
    let mut arena = vec![0u8; ARENA_BYTES + PAGE];
    let first_page = arena.as_ptr().align_offset(PAGE);
    let stride = ARENA_BYTES / keys.len() / PAGE * PAGE;
    assert!(stride >= 2 * PAGE);
    let spans = keys
        .iter()
        .enumerate()
        .map(|(j, key)| {
            let page_end = first_page + j * stride + PAGE;
            let start = if j % 2 == 0 {
                page_end - key.len()
            } else {
                page_end + PAGE / 2 - key.len().min(10)
            };
            arena[start..start + key.len()].copy_from_slice(key);
            start..start + key.len()
        })
        .collect();
    (arena, spans)
}

/// Write 100 keys through `set_multi` and read 120 back through `mget`,
/// the key slices either owned one by one or `scatter`ed: a 1-byte key
/// ending a page, an empty key, a 250-byte key, and 20-byte keys half of
/// which straddle a line. Returns each read's sealed frame and the shard
/// counters after the last one.
fn scattered_keys_run(
    which: &str,
    mode: ReadMode,
    depth: usize,
    scattered: bool,
) -> (Vec<Vec<u8>>, Vec<ShardStats>) {
    const STORED: usize = 100;
    let key = |i: usize| format!("scat-{i:015}").into_bytes();
    let mut keys = vec![b"x".to_vec(), key(0), Vec::new(), key(1), vec![b'w'; 250]];
    keys.extend((2..117).map(key));
    let (arena, spans) = scatter(&keys);
    let refs: Vec<&[u8]> = if scattered {
        spans.iter().map(|span| &arena[span.clone()]).collect()
    } else {
        keys.iter().map(Vec::as_slice).collect()
    };
    assert_eq!(refs, keys);
    if scattered {
        assert_eq!(refs[0].as_ptr_range().end.align_offset(PAGE), 0);
        assert_eq!(refs[2].as_ptr().align_offset(PAGE), 0);
        assert_eq!(refs[1][10..].as_ptr().align_offset(64), 0);
    }

    let store = KvStore::with_shards(
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 4096,
            shards: 4,
            prefetch_depth: Some(depth),
            read_mode: mode,
        },
        |cap| index::by_short_name(which, cap).expect("known index"),
    );
    let values: Vec<Vec<u8>> = (0..STORED).map(|i| vec![i as u8; i % 90]).collect();
    let pairs: Vec<(&[u8], &[u8])> = refs
        .iter()
        .zip(&values)
        .map(|(key, value)| (*key, value.as_slice()))
        .collect();
    let mut batch = SetMultiBatch::new();
    for chunk in pairs.chunks(33) {
        assert_eq!(store.set_multi(chunk, &mut batch).stored, chunk.len());
    }

    let mut frames = Vec::new();
    for (b, width) in [1usize, 16, 64, keys.len()].into_iter().enumerate() {
        // Stride 7 is coprime to the key count: the widest batch asks for
        // every key once, the twenty never stored among them.
        let asked: Vec<&[u8]> = (0..width)
            .map(|j| refs[(b * 31 + j * 7) % refs.len()])
            .collect();
        frames.push(run_keys(&store, b as u64, &asked).0);
    }
    (frames, store.shard_stats())
}

/// Phase 1 asks for the first and last line of every key slice before the
/// hash kernel reads any. That is a hint on the caller's memory: wherever
/// the slices lie — page ends, line straddles, an empty slice whose
/// pointer is the first byte of an untouched page — no response byte and
/// no counter differs from the same keys owned one `Vec` each, at any G.
#[test]
fn scattered_key_slices_change_no_response_byte_and_no_counter() {
    for which in INDEXES {
        for mode in [ReadMode::Locked, ReadMode::Optimistic] {
            let (frames, stats) = scattered_keys_run(which, mode, 0, false);
            let totals = stats.iter().fold(ShardStats::default(), |mut t, s| {
                t.add(s);
                t
            });
            assert_eq!((totals.sets, totals.mget_keys), (100, 1 + 16 + 64 + 120));
            assert!(totals.mget_hits > 100 && totals.mget_hits < totals.mget_keys);
            for depth in [0usize, 1, 8, 32] {
                let (got_frames, got_stats) = scattered_keys_run(which, mode, depth, true);
                let at = format!("{which}/{mode:?}, G={depth}");
                assert_eq!(got_frames, frames, "{at}: frame bytes diverged");
                assert_eq!(got_stats, stats, "{at}: shard counters diverged");
            }
        }
    }
}

#[test]
fn single_key_get_matches_mget_under_collisions() {
    let corpus = build_corpus();
    for which in INDEXES {
        let store = store_with(which, 1, 8, &corpus);
        for (k, v) in &corpus.items {
            assert_eq!(
                store.get(k).as_deref(),
                Some(v.as_slice()),
                "{which}: get({:?})",
                String::from_utf8_lossy(k),
            );
        }
        assert_eq!(
            store.get(&corpus.pair_half.1),
            None,
            "{which}: colliding absent key must miss through the fallback",
        );
        assert_eq!(
            store.get(&corpus.tag_half.1),
            None,
            "{which}: tag-colliding absent key must miss via the full-hash check",
        );
        assert_eq!(store.get(b"absent-000000"), None, "{which}");
    }
}

/// The raw bytes a TCP client reads back must be identical whatever
/// prefetch depth the server runs — the frame comparison covers the CRC
/// trailer because `recv` hands back the payload still carrying it.
#[test]
fn tcp_loopback_frames_identical_across_prefetch_depths() {
    let corpus = build_corpus();
    let batches = query_batches(&corpus);
    let mut baseline: Option<Vec<Bytes>> = None;
    for depth in [0usize, 8] {
        let store = Arc::new(store_with("hor", 4, depth, &corpus));
        let kvsd = Kvsd::bind(store, "127.0.0.1:0").expect("bind loopback");
        let mut conn = TcpConn::connect(kvsd.local_addr()).expect("connect");
        let mut frames = Vec::new();
        for (b, batch) in batches.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            conn.send(
                Request::MGet {
                    id: b as u64,
                    keys: batch.iter().map(|k| Bytes::copy_from_slice(k)).collect(),
                }
                .encode(),
            )
            .expect("send");
            let (payload, _) = conn.recv().expect("recv");
            assert!(matches!(
                Response::decode(payload.clone()),
                Ok(Response::MGet { .. })
            ));
            frames.push(payload);
        }
        drop(conn);
        kvsd.shutdown();
        match &baseline {
            None => baseline = Some(frames),
            Some(base) => assert_eq!(
                base, &frames,
                "TCP reply bytes changed between G=0 and G={depth}",
            ),
        }
    }
}
