//! Differential acceptance of the versioned-operation layer (DESIGN.md
//! §13): with TTLs disabled (`ttl_secs == 0`) the versioned write
//! surface — `set_v`, `set_multi_ttl`, no-op `touch`/`set_ttl` calls,
//! `get_v` probes — must leave every index family in a state
//! byte-identical to the plain `set`/`set_multi` path: occupancy,
//! per-shard occupancy, single-key gets, and CRC-sealed Multi-Get wire
//! frames. And with TTLs *enabled*, an expired item must be
//! indistinguishable on the wire from one that never existed.

use simdht_kvs::index;
use simdht_kvs::store::{KvStore, MGetResponse, SetMultiBatch, StoreConfig};

const INDEXES: [&str; 5] = ["memc3", "hor", "ver", "dpdk", "local"];
const SHARD_COUNTS: [usize; 2] = [1, 4];
const BATCH_SIZES: [usize; 3] = [1, 8, 64];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn new_store(which: &str, shards: usize, capacity: usize, budget: usize) -> KvStore {
    KvStore::with_shards(
        StoreConfig {
            memory_budget: budget,
            capacity_items: capacity,
            shards,
        },
        |cap| index::by_short_name(which, cap).expect("known index"),
    )
}

/// A deterministic write stream: roughly one third of the ops rewrite a
/// key issued earlier, the rest insert fresh keys (same recipe as
/// `set_multi_differential.rs`).
fn write_stream(n: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = seed;
    let mut ops: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(n);
    for i in 0..n {
        let key = if i > 0 && splitmix64(&mut rng).is_multiple_of(3) {
            ops[(splitmix64(&mut rng) as usize) % i].0.clone()
        } else {
            format!("tw-{i:08}").into_bytes()
        };
        let width = (splitmix64(&mut rng) % 120) as usize;
        let mut value = vec![(i % 251) as u8; width.max(8)];
        value[..8].copy_from_slice(&(i as u64).to_le_bytes());
        ops.push((key, value));
    }
    ops
}

fn probe_keys(ops: &[(Vec<u8>, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = ops.iter().map(|(k, _)| k.clone()).collect();
    keys.sort();
    keys.dedup();
    for i in 0..32 {
        keys.push(format!("absent-{i:06}").into_bytes());
    }
    keys
}

/// Occupancy, per-shard occupancy, single-key gets, and the sealed
/// Multi-Get wire frame must all agree between the two stores.
fn assert_stores_identical(tag: &str, plain: &KvStore, ver: &KvStore, probes: &[Vec<u8>]) {
    assert_eq!(plain.len(), ver.len(), "{tag}: occupancy diverged");
    assert_eq!(
        plain.shard_lens(),
        ver.shard_lens(),
        "{tag}: per-shard occupancy diverged",
    );
    for key in probes {
        assert_eq!(
            plain.get(key),
            ver.get(key),
            "{tag}: get({:?}) diverged",
            String::from_utf8_lossy(key),
        );
    }
    assert_frames_identical(tag, plain, ver, probes);
}

/// The sealed Multi-Get wire frames alone (no occupancy comparison — the
/// expiry test leaves dead-but-unreclaimed items behind by design).
fn assert_frames_identical(tag: &str, a: &KvStore, b: &KvStore, probes: &[Vec<u8>]) {
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    let mut a_resp = MGetResponse::new();
    let mut b_resp = MGetResponse::new();
    a.mget(&refs, &mut a_resp);
    b.mget(&refs, &mut b_resp);
    assert_eq!(
        a_resp.seal_frame(0x771).to_vec(),
        b_resp.seal_frame(0x771).to_vec(),
        "{tag}: sealed MGet frame bytes diverged",
    );
}

/// Replay `ops` through both stores: plain `set`/`set_multi` against
/// `plain`, the versioned surface with `ttl_secs == 0` against `ver` —
/// interleaving no-op `touch`/`set_ttl(0)` calls and `get_v` probes on
/// the versioned store, none of which may perturb its bytes. Version
/// chains are asserted as we go: fresh keys start at 1, every replace
/// bumps by exactly 1.
fn replay_versioned(
    tag: &str,
    plain: &KvStore,
    ver: &KvStore,
    ops: &[(Vec<u8>, Vec<u8>)],
    width: usize,
) {
    let mut scratch = SetMultiBatch::new();
    for (c, chunk) in ops.chunks(width).enumerate() {
        if c % 2 == 0 {
            // Odd-width path: singles through set vs set_v(ttl=0).
            for (k, v) in chunk {
                let prev = ver.get_v(k).map(|(_, version)| version);
                let plain_result = plain.set(k, v);
                let ver_result = ver.set_v(k, v, 0);
                match (&plain_result, &ver_result) {
                    (Ok(()), Ok(version)) => {
                        assert_eq!(
                            *version,
                            prev.unwrap_or(0) + 1,
                            "{tag}: version chain broke in chunk {c}",
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{tag}: errors diverged in chunk {c}"),
                    (a, b) => panic!("{tag}: outcomes diverged in chunk {c}: {a:?} vs {b:?}"),
                }
            }
        } else {
            // Batched path: set_multi vs set_multi_ttl(ttl=0).
            let pairs: Vec<(&[u8], &[u8])> = chunk
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect();
            let plain_results: Vec<_> = {
                let outcome = plain.set_multi(&pairs, &mut scratch);
                let r = scratch.results().to_vec();
                assert_eq!(outcome.stored, r.iter().filter(|x| x.is_ok()).count());
                r
            };
            let ver_outcome = ver.set_multi_ttl(&pairs, 0, &mut scratch);
            assert_eq!(
                scratch.results(),
                &plain_results[..],
                "{tag}: per-key outcomes diverged in chunk {c}",
            );
            assert_eq!(
                ver_outcome.stored,
                plain_results.iter().filter(|r| r.is_ok()).count(),
                "{tag}: stored count diverged in chunk {c}",
            );
        }
        // No-op TTL maintenance on the versioned store only: touch and
        // set_ttl with 0 ("never expires") on already-never-expiring
        // items must not move a single byte.
        if let Some((k, _)) = chunk.first() {
            ver.touch(k, 0);
            ver.set_ttl(k, 0);
            let _ = ver.get_v(k);
        }
    }
}

#[test]
fn zero_ttl_versioned_writes_are_bit_identical() {
    let ops = write_stream(600, 0x77_1d1f);
    let probes = probe_keys(&ops);
    for which in INDEXES {
        for shards in SHARD_COUNTS {
            for width in BATCH_SIZES {
                let tag = format!("{which}/{shards} shards/batch {width}/ttl0");
                let plain = new_store(which, shards, 4096, 128 << 20);
                let ver = new_store(which, shards, 4096, 128 << 20);
                replay_versioned(&tag, &plain, &ver, &ops, width);
                assert_stores_identical(&tag, &plain, &ver, &probes);
                assert_eq!(
                    ver.totals().expired,
                    0,
                    "{tag}: nothing may expire with ttl 0",
                );
            }
        }
    }
}

/// Under CLOCK pressure the two write surfaces must also pick identical
/// eviction victims: 8x overcommit with interleaved recency traffic.
#[test]
fn zero_ttl_versioned_writes_pick_identical_clock_victims() {
    let n_ops = 2048usize;
    let mut rng = 0x77_1C10u64;
    let ops: Vec<(Vec<u8>, Vec<u8>)> = (0..n_ops)
        .map(|i| {
            let mut value = vec![0x55u8; 24 + (splitmix64(&mut rng) % 17) as usize];
            value[..8].copy_from_slice(&(i as u64).to_le_bytes());
            (format!("tev-{i:08}").into_bytes(), value)
        })
        .collect();
    let probes = probe_keys(&ops);
    for which in INDEXES {
        for shards in SHARD_COUNTS {
            let tag = format!("{which}/{shards} shards/ttl0 eviction");
            let plain = new_store(which, shards, 256, 64 << 20);
            let ver = new_store(which, shards, 256, 64 << 20);
            let mut plain_resp = MGetResponse::new();
            let mut ver_resp = MGetResponse::new();
            for (c, chunk) in ops.chunks(32).enumerate() {
                let plain_results: Vec<_> = chunk.iter().map(|(k, v)| plain.set(k, v)).collect();
                for ((k, v), want) in chunk.iter().zip(&plain_results) {
                    let got = ver.set_v(k, v, 0).map(|_| ());
                    assert_eq!(&got, want, "{tag}: outcomes diverged in chunk {c}");
                }
                // Identical reference-bit traffic on both stores.
                let lo = (c * 32).saturating_sub(32);
                let hi = ((c + 1) * 32).min(ops.len());
                let window: Vec<&[u8]> = ops[lo..hi].iter().map(|(k, _)| k.as_slice()).collect();
                plain.mget(&window, &mut plain_resp);
                ver.mget(&window, &mut ver_resp);
            }
            assert_stores_identical(&tag, &plain, &ver, &probes);
            assert!(
                plain.totals().evictions > 0,
                "{tag}: pressure case never evicted",
            );
        }
    }
}

/// With TTLs *enabled*: after the clock passes their deadline, expired
/// items must be indistinguishable on the wire from keys that were never
/// written at all — same single-key gets, same sealed Multi-Get frames —
/// even though the dead items still occupy slots until lazily reclaimed.
#[test]
fn expired_items_answer_like_never_written_keys() {
    for which in INDEXES {
        for shards in SHARD_COUNTS {
            let tag = format!("{which}/{shards} shards/expiry");
            // `full` gets every key; `sparse` only the immortal ones.
            let full = new_store(which, shards, 4096, 128 << 20);
            let sparse = new_store(which, shards, 4096, 128 << 20);
            let mut probes: Vec<Vec<u8>> = Vec::new();
            for i in 0..200usize {
                let key = format!("exp-{i:04}").into_bytes();
                let value = format!("val-{i:04}-payload").into_bytes();
                if i % 3 == 0 {
                    // Mortal: 60 s TTL, written only to `full`.
                    full.set_v(&key, &value, 60).expect("mortal set");
                } else {
                    full.set(&key, &value).expect("immortal set");
                    sparse.set(&key, &value).expect("immortal set");
                }
                probes.push(key);
            }
            probes.push(b"exp-never-written".to_vec());
            full.advance_time(61);
            for (i, key) in probes.iter().enumerate() {
                if i < 200 && i % 3 == 0 {
                    assert_eq!(full.get(key), None, "{tag}: expired key {i} still answers");
                    assert_eq!(
                        full.get_v(key),
                        None,
                        "{tag}: expired key {i} has a version"
                    );
                }
            }
            assert_frames_identical(&tag, &full, &sparse, &probes);
            assert!(
                full.totals().expired > 0,
                "{tag}: lazy expiry never reclaimed anything",
            );
        }
    }
}
