//! Differential acceptance of the seqlock optimistic read path
//! (DESIGN.md §11): on a quiescent store the `optimistic` read mode must
//! be **observationally identical** to `locked` — byte-for-byte equal
//! CRC-sealed Multi-Get wire frames and equal single-key `get` results —
//! across every index family and shard count, on
//! batches spanning hits, misses, and full-hash-collision fallbacks
//! (the collision batches drive the optimistic path's per-key locked
//! assist). `get` is pinned as the one-key case of the same pass: equal
//! values and equal counter deltas against one-key `mget`s. A final case
//! replays the matrix through the fault-free TCP daemon, once per read
//! mode, comparing raw reply bytes.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use simdht_kvs::index::{self, hash_key};
use simdht_kvs::kvsd::Kvsd;
use simdht_kvs::net::TcpConn;
use simdht_kvs::protocol::{Request, Response};
use simdht_kvs::store::{KvStore, MGetResponse, ReadMode, StoreConfig};
use simdht_kvs::transport::ClientConn;

const INDEXES: [&str; 5] = ["memc3", "hor", "ver", "dpdk", "local"];

/// Find two distinct keys with the same 32-bit FNV hash (birthday
/// search; deterministic). `prefix` de-correlates independent pairs.
fn collision_pair(prefix: &str) -> (Vec<u8>, Vec<u8>) {
    let mut seen: HashMap<u32, usize> = HashMap::new();
    for i in 0usize.. {
        let key = format!("{prefix}-{i:08x}").into_bytes();
        if let Some(&j) = seen.get(&hash_key(&key)) {
            let earlier = format!("{prefix}-{j:08x}").into_bytes();
            return (earlier, key);
        }
        seen.insert(hash_key(&key), i);
    }
    unreachable!("u32 hashes must collide")
}

/// Find two distinct keys that agree on the low 12 hash bits AND on
/// `hash >> 25` but differ in the full hash: same bucket and same 7-bit
/// tag in the localized (2,7) index, so its packed tag row reports a
/// candidate that only the full-hash check can reject.
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

struct Corpus {
    items: Vec<(Vec<u8>, Vec<u8>)>,
    /// Inserted colliding pair: either key hits via the fallback scan.
    pair_both: (Vec<u8>, Vec<u8>),
    /// Only `.0` inserted; probing `.1` surfaces a candidate whose full
    /// key differs — the optimistic path must assist, then report a miss.
    pair_half: (Vec<u8>, Vec<u8>),
    /// Same bucket + same 7-bit tag, different full hashes; only `.0`
    /// inserted — the localized tag row flags a candidate the full-hash
    /// check must reject, in both read modes identically.
    tag_half: (Vec<u8>, Vec<u8>),
}

fn build_corpus() -> Corpus {
    let pair_both = collision_pair("col");
    let pair_half = collision_pair("dup");
    let tag_half = tag_pair("tagh");
    let mut items = Vec::new();
    for i in 0..600usize {
        let key = format!("k{i:0w$}", w = 5 + i % 20).into_bytes();
        let value = vec![(i % 251) as u8; (i * 7) % 121];
        items.push((key, value));
    }
    items.push((pair_both.0.clone(), b"first-of-colliding-pair".to_vec()));
    items.push((pair_both.1.clone(), b"second-of-colliding-pair".to_vec()));
    items.push((pair_half.0.clone(), b"only-inserted-collider".to_vec()));
    items.push((tag_half.0.clone(), b"only-inserted-tag-collider".to_vec()));
    Corpus {
        items,
        pair_both,
        pair_half,
        tag_half,
    }
}

/// Batches spanning the shapes that branch differently inside the
/// optimistic pass: empty, single hit, single miss, pure hits, pure
/// misses, interleaved, collision assists, and a 300-key batch longer
/// than any prefetch window.
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
            c.tag_half.0.clone(),
            c.tag_half.1.clone(), // same bucket + 7-bit tag: must miss
            key(5),
            miss(5),
        ],
    ];
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

fn store_with(which: &str, shards: usize, corpus: &Corpus) -> KvStore {
    let store = KvStore::with_shards(
        StoreConfig {
            memory_budget: 128 << 20,
            capacity_items: 4096,
            shards,
            ..StoreConfig::default()
        },
        |cap| index::by_short_name(which, cap).expect("known index"),
    );
    for (k, v) in &corpus.items {
        store.set(k, v).expect("preload");
    }
    store
}

fn sealed_frame(store: &KvStore, id: u64, batch: &[Vec<u8>]) -> Vec<u8> {
    let keys: Vec<&[u8]> = batch.iter().map(|k| k.as_slice()).collect();
    let mut resp = MGetResponse::new();
    store.mget(&keys, &mut resp);
    resp.seal_frame(id).to_vec()
}

#[test]
fn optimistic_mget_frames_are_bit_identical_to_locked() {
    let corpus = build_corpus();
    let batches = query_batches(&corpus);
    for which in INDEXES {
        for shards in [1usize, 4] {
            let store = store_with(which, shards, &corpus);
            assert!(
                store.optimistic_capable(),
                "{which}: every stock index is expected to support optimistic probes"
            );
            for (b, batch) in batches.iter().enumerate() {
                let id = (b as u64) << 8;
                store.set_read_mode(ReadMode::Locked);
                let locked = sealed_frame(&store, id, batch);
                store.set_read_mode(ReadMode::Optimistic);
                let optimistic = sealed_frame(&store, id, batch);
                assert_eq!(
                    optimistic, locked,
                    "{which}/{shards} shards, batch {b}: \
                     optimistic frame bytes diverged from locked",
                );
            }
            // The quiescent optimistic pass must actually have run (and
            // the collision batches must have taken the assist path).
            let stats = store.optimistic_stats();
            assert!(stats.commits > 0, "{which}: optimistic path never ran");
            assert!(
                stats.assists > 0,
                "{which}: collision batches never hit the locked assist"
            );
        }
    }
}

#[test]
fn optimistic_get_matches_locked_under_collisions() {
    let corpus = build_corpus();
    for which in INDEXES {
        let store = store_with(which, 1, &corpus);
        for (k, v) in &corpus.items {
            store.set_read_mode(ReadMode::Locked);
            let locked = store.get(k);
            store.set_read_mode(ReadMode::Optimistic);
            assert_eq!(
                store.get(k),
                locked,
                "{which}: get({:?}) diverged",
                String::from_utf8_lossy(k),
            );
            assert_eq!(locked.as_deref(), Some(v.as_slice()), "{which}");
        }
        store.set_read_mode(ReadMode::Optimistic);
        assert_eq!(
            store.get(&corpus.pair_half.1),
            None,
            "{which}: colliding absent key must miss through the assist",
        );
        assert_eq!(store.get(b"absent-000000"), None, "{which}");
    }
}

/// `get` is the one-key case of the Multi-Get pass: over the collision
/// corpus plus an expired and an absent key, `n` `get`s and `n` one-key
/// `mget`s return the same values and move the same shard counters and
/// the same optimistic-path counters, in both read modes.
#[test]
fn get_and_one_key_mget_agree() {
    let corpus = build_corpus();
    let keys: Vec<Vec<u8>> = vec![
        corpus.items[0].0.clone(),
        corpus.pair_both.0.clone(),
        corpus.pair_both.1.clone(),
        corpus.pair_half.0.clone(),
        corpus.pair_half.1.clone(),
        corpus.tag_half.0.clone(),
        corpus.tag_half.1.clone(),
        b"absent-000000".to_vec(),
        b"mortal".to_vec(), // expired below; must stay last
    ];
    for which in INDEXES {
        for shards in [1usize, 4] {
            let store = store_with(which, shards, &corpus);
            store.set_v(b"mortal", b"doomed", 5).expect("set with ttl");
            store.advance_time(5);
            for mode in [ReadMode::Locked, ReadMode::Optimistic] {
                store.set_read_mode(mode);
                let counters = || {
                    let (t, o) = (store.totals(), store.optimistic_stats());
                    let shard = [t.mget_keys, t.mget_hits, t.expired];
                    (
                        shard,
                        [o.attempts, o.commits, o.retries, o.assists, o.fallbacks],
                    )
                };
                let delta = |a: &[u64], b: &[u64]| -> Vec<u64> {
                    a.iter().zip(b).map(|(a, b)| b - a).collect()
                };
                let c0 = counters();
                let got: Vec<Option<Vec<u8>>> = keys.iter().map(|k| store.get(k)).collect();
                let c1 = counters();
                let mut resp = MGetResponse::new();
                let via_mget: Vec<Option<Vec<u8>>> = keys
                    .iter()
                    .map(|k| {
                        store.mget(&[k.as_slice()], &mut resp);
                        resp.value(0).map(<[u8]>::to_vec)
                    })
                    .collect();
                let c2 = counters();
                let ctx = format!("{which}/{shards} shards/{}", mode.name());
                assert_eq!(got, via_mget, "{ctx}: values diverged");
                assert_eq!(got.last(), Some(&None), "{ctx}: expired key must miss");
                assert_eq!(
                    delta(&c0.0, &c1.0),
                    delta(&c1.0, &c2.0),
                    "{ctx}: (mget_keys, mget_hits, expired) deltas diverged",
                );
                let by_get = delta(&c0.1, &c1.1);
                assert_eq!(
                    by_get,
                    delta(&c1.1, &c2.1),
                    "{ctx}: (attempts, commits, retries, assists, fallbacks) deltas diverged",
                );
                // The collision keys must really have driven the slow path.
                let assists = by_get[3];
                assert_eq!(assists > 0, mode == ReadMode::Optimistic, "{ctx}");
            }
        }
    }
}

/// The raw bytes a TCP client reads back must be identical whichever
/// read mode the server runs (CRC trailer included — `recv` hands back
/// the payload still carrying it).
#[test]
fn tcp_loopback_frames_identical_across_read_modes() {
    let corpus = build_corpus();
    let batches = query_batches(&corpus);
    let mut baseline: Option<Vec<Bytes>> = None;
    for mode in [ReadMode::Locked, ReadMode::Optimistic] {
        let store = Arc::new(store_with("hor", 4, &corpus));
        store.set_read_mode(mode);
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
            let payload = conn.recv().expect("recv");
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
                base,
                &frames,
                "TCP reply bytes changed between locked and {} reads",
                mode.name(),
            ),
        }
    }
}
