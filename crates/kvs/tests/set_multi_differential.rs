//! Differential acceptance of the batched write path (DESIGN.md §12):
//! replaying a write stream through `set_multi` must leave every index
//! family in a state byte-identical to the equivalent sequence of `set`
//! calls — per-key outcomes, occupancy, shard occupancies, single-key
//! gets, and CRC-sealed Multi-Get frames — across 1/4 shards, batch
//! sizes {1, 8, 64}, duplicate-keys-in-batch ordering, and CLOCK
//! eviction pressure. The eviction look-ahead both paths share is held to
//! the same standard against itself: every `G` leaves what `G = 0` leaves.

use simdht_kvs::index;
use simdht_kvs::store::{KvStore, MGetResponse, SetMultiBatch, ShardStats, StoreConfig};

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
            prefetch_depth: Some(8),
            ..StoreConfig::default()
        },
        |cap| index::by_short_name(which, cap).expect("known index"),
    )
}

/// A deterministic write stream: roughly one third of the ops rewrite a
/// key issued earlier (replacement path, varying widths so the new value
/// can land in a different slab class), the rest insert fresh keys.
fn write_stream(n: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = seed;
    let mut ops: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(n);
    for i in 0..n {
        let key = if i > 0 && splitmix64(&mut rng).is_multiple_of(3) {
            ops[(splitmix64(&mut rng) as usize) % i].0.clone()
        } else {
            format!("wr-{i:08}").into_bytes()
        };
        let width = (splitmix64(&mut rng) % 120) as usize;
        let mut value = vec![(i % 251) as u8; width.max(8)];
        value[..8].copy_from_slice(&(i as u64).to_le_bytes());
        ops.push((key, value));
    }
    ops
}

/// Every distinct key in the stream plus a band of never-written probes,
/// so the frame comparison covers hits, misses, and evicted keys alike.
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
fn assert_stores_identical(tag: &str, seq: &KvStore, bat: &KvStore, probes: &[Vec<u8>]) {
    assert_eq!(seq.len(), bat.len(), "{tag}: occupancy diverged");
    assert_eq!(
        seq.shard_lens(),
        bat.shard_lens(),
        "{tag}: per-shard occupancy diverged",
    );
    for key in probes {
        assert_eq!(
            seq.get(key),
            bat.get(key),
            "{tag}: get({:?}) diverged",
            String::from_utf8_lossy(key),
        );
    }
    let refs: Vec<&[u8]> = probes.iter().map(|k| k.as_slice()).collect();
    let mut seq_resp = MGetResponse::new();
    let mut bat_resp = MGetResponse::new();
    seq.mget(&refs, &mut seq_resp);
    bat.mget(&refs, &mut bat_resp);
    assert_eq!(
        seq_resp.seal_frame(0x5e7).to_vec(),
        bat_resp.seal_frame(0x5e7).to_vec(),
        "{tag}: sealed MGet frame bytes diverged",
    );
}

/// Replay `ops` through both stores — sequential `set` calls against
/// `seq`, `width`-sized `set_multi` batches against `bat` — asserting
/// per-op outcome parity as we go.
fn replay(tag: &str, seq: &KvStore, bat: &KvStore, ops: &[(Vec<u8>, Vec<u8>)], width: usize) {
    let mut scratch = SetMultiBatch::new();
    for (c, chunk) in ops.chunks(width).enumerate() {
        let seq_results: Vec<_> = chunk.iter().map(|(k, v)| seq.set(k, v)).collect();
        let pairs: Vec<(&[u8], &[u8])> = chunk
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let outcome = bat.set_multi(&pairs, &mut scratch);
        assert_eq!(
            scratch.results(),
            &seq_results[..],
            "{tag}: per-key outcomes diverged in chunk {c}",
        );
        assert_eq!(
            outcome.stored,
            seq_results.iter().filter(|r| r.is_ok()).count(),
            "{tag}: stored count diverged in chunk {c}",
        );
    }
}

#[test]
fn batched_writes_are_bit_identical_across_batch_sizes_shards_and_indexes() {
    let ops = write_stream(600, 0x5e7_d1ff);
    let probes = probe_keys(&ops);
    for which in INDEXES {
        for shards in SHARD_COUNTS {
            for width in BATCH_SIZES {
                let tag = format!("{which}/{shards} shards/batch {width}");
                let seq = new_store(which, shards, 4096, 128 << 20);
                let bat = new_store(which, shards, 4096, 128 << 20);
                replay(&tag, &seq, &bat, &ops, width);
                assert_stores_identical(&tag, &seq, &bat, &probes);
            }
        }
    }
}

/// Duplicate keys inside one batch must resolve in request order —
/// later-wins, exactly as the equivalent `set` sequence — including a
/// run where every pair targets the same key.
#[test]
fn duplicate_keys_in_one_batch_resolve_later_wins() {
    let dup = b"dup-key".to_vec();
    let ops: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (dup.clone(), b"v1".to_vec()),
        (dup.clone(), b"v2-wider-than-v1".to_vec()),
        (b"other-a".to_vec(), b"x".to_vec()),
        (dup.clone(), b"v3".to_vec()),
        (b"other-b".to_vec(), b"y".to_vec()),
        (dup.clone(), vec![0xAB; 90]),
        (dup.clone(), b"final".to_vec()),
    ];
    let probes = probe_keys(&ops);
    for which in INDEXES {
        for shards in SHARD_COUNTS {
            let tag = format!("{which}/{shards} shards/dup batch");
            let seq = new_store(which, shards, 4096, 128 << 20);
            let bat = new_store(which, shards, 4096, 128 << 20);
            // The whole stream as one batch: every duplicate resolves
            // inside a single lock hold / seqlock write session.
            replay(&tag, &seq, &bat, &ops, ops.len());
            assert_stores_identical(&tag, &seq, &bat, &probes);
            assert_eq!(
                bat.get(&dup).as_deref(),
                Some(b"final".as_slice()),
                "{tag}: last write in the batch must win",
            );
        }
    }
}

/// Under index pressure both paths must evict the same CLOCK victims:
/// a small table, 8x overcommit, and identical reference-bit traffic
/// (an `mget` over a recency window between chunks) must leave the two
/// stores with the same survivors.
#[test]
fn eviction_pressure_picks_identical_clock_victims() {
    let n_ops = 2048usize;
    let mut rng = 0xC10C_4E01u64;
    let ops: Vec<(Vec<u8>, Vec<u8>)> = (0..n_ops)
        .map(|i| {
            let mut value = vec![0x33u8; 24 + (splitmix64(&mut rng) % 17) as usize];
            value[..8].copy_from_slice(&(i as u64).to_le_bytes());
            (format!("ev-{i:08}").into_bytes(), value)
        })
        .collect();
    let probes = probe_keys(&ops);
    for which in INDEXES {
        for shards in SHARD_COUNTS {
            for width in [8usize, 64] {
                let tag = format!("{which}/{shards} shards/batch {width}/eviction");
                let seq = new_store(which, shards, 256, 64 << 20);
                let bat = new_store(which, shards, 256, 64 << 20);
                let mut scratch = SetMultiBatch::new();
                let mut seq_resp = MGetResponse::new();
                let mut bat_resp = MGetResponse::new();
                for (c, chunk) in ops.chunks(width).enumerate() {
                    let seq_results: Vec<_> = chunk.iter().map(|(k, v)| seq.set(k, v)).collect();
                    let pairs: Vec<(&[u8], &[u8])> = chunk
                        .iter()
                        .map(|(k, v)| (k.as_slice(), v.as_slice()))
                        .collect();
                    bat.set_multi(&pairs, &mut scratch);
                    assert_eq!(
                        scratch.results(),
                        &seq_results[..],
                        "{tag}: outcomes diverged in chunk {c}",
                    );
                    // Touch a trailing window of recent keys on both
                    // stores so CLOCK reference bits evolve identically
                    // and the next eviction pass has victims to skip.
                    let lo = (c * width).saturating_sub(width);
                    let hi = ((c + 1) * width).min(ops.len());
                    let window: Vec<&[u8]> =
                        ops[lo..hi].iter().map(|(k, _)| k.as_slice()).collect();
                    seq.mget(&window, &mut seq_resp);
                    bat.mget(&window, &mut bat_resp);
                }
                assert_stores_identical(&tag, &seq, &bat, &probes);
                assert!(
                    seq.totals().evictions > 0,
                    "{tag}: pressure case never evicted — table too large for the stream",
                );
            }
        }
    }
}

/// What one pressure run leaves behind for comparison: after every chunk of
/// writes the shard counters and the sealed frame of a probe spread over
/// everything written so far (which keys are gone *by then* is the eviction
/// order), and at the end the frame over every key.
type PressureTrace = (Vec<Vec<ShardStats>>, Vec<Vec<u8>>);

/// Push `n` items of `item_bytes` (header + 20-byte key + value) through a
/// store too small for them at look-ahead distance `depth`, by `set` or by
/// 64-pair `set_multi`. Every third chunk is written with a TTL and the
/// store's clock jumps past it at each quarter of the stream (by far more
/// than the run takes, so the wall clock decides nothing), so the sweep
/// finds corpses among the live; the probes between chunks set reference
/// bits, so it also finds entries to pass over.
fn pressure_run(
    which: &str,
    depth: usize,
    batched: bool,
    item_bytes: usize,
    (capacity, budget, n): (usize, usize, usize),
) -> PressureTrace {
    const CHUNK: usize = 64;
    let store = new_store(which, 1, capacity, budget);
    store.set_prefetch_depth(depth);
    let key = |i: usize| format!("look-{i:015}").into_bytes();
    let value = |i: usize| vec![(i % 251) as u8; item_bytes - 6 - 20];
    let mut scratch = SetMultiBatch::new();
    let mut resp = MGetResponse::new();
    let (mut stats, mut frames) = (Vec::new(), Vec::new());
    for (c, start) in (0..n).step_by(CHUNK).enumerate() {
        let ids = start..(start + CHUNK).min(n);
        let ttl = if c % 3 == 0 { 1000 } else { 0 };
        let items: Vec<(Vec<u8>, Vec<u8>)> = ids.clone().map(|i| (key(i), value(i))).collect();
        if batched {
            let pairs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            let out = store.set_multi_ttl(&pairs, ttl, &mut scratch);
            assert_eq!(out.stored, pairs.len());
        } else {
            for (k, v) in &items {
                store.set_v(k, v, ttl).expect("eviction makes room");
            }
        }
        if start * 4 / n != ids.end * 4 / n {
            store.advance_time(2000);
        }
        let probe: Vec<Vec<u8>> = (0..32).map(|j| key(j * ids.end / 32)).collect();
        let refs: Vec<&[u8]> = probe.iter().map(|k| &k[..]).collect();
        store.mget(&refs, &mut resp);
        frames.push(resp.seal_frame(c as u64).to_vec());
        stats.push(store.shard_stats());
    }
    let all: Vec<Vec<u8>> = (0..n).map(key).collect();
    let refs: Vec<&[u8]> = all.iter().map(|k| &k[..]).collect();
    store.mget(&refs, &mut resp);
    frames.push(resp.seal_frame(0xA11).to_vec());
    (stats, frames)
}

/// Victim look-ahead changes no victim, no counter and no frame: the lines
/// an evicting set requests `G` and `2G` ring entries ahead of the hand —
/// item rows, version words, victim chunks, index buckets — are hints, so
/// `G` in {1, 8, 32} must replay `G = 0` exactly, through `set` and through
/// `set_multi`, for one-line and five-line items, whether the slab or the
/// index runs out first, on every index.
#[test]
fn victim_look_ahead_changes_no_victim_no_counter_and_no_frame() {
    // (index capacity, slab budget, items written): a 1 MiB slab under an
    // ample index, then a 256-entry index under an ample slab.
    let slab_bound = |item_bytes: usize| (1 << 16, 1 << 20, 5 * (1 << 18) / item_bytes);
    let index_bound = (256, 64 << 20, 768);
    for which in INDEXES {
        for batched in [false, true] {
            for item_bytes in [58usize, 282] {
                for (pressure, shape) in [("slab", slab_bound(item_bytes)), ("index", index_bound)]
                {
                    let (stats, frames) = pressure_run(which, 0, batched, item_bytes, shape);
                    let last = stats.last().expect("at least one chunk")[0];
                    assert!(last.evictions > 0, "{which}/{pressure}: no eviction");
                    assert!(last.expired > 0, "{which}/{pressure}: no corpse reclaimed");
                    for depth in [1usize, 8, 32] {
                        let at = format!(
                            "{which}/{} of {item_bytes} B/{pressure}-bound, G={depth}",
                            if batched { "set_multi" } else { "set" },
                        );
                        let (got_stats, got_frames) =
                            pressure_run(which, depth, batched, item_bytes, shape);
                        assert_eq!(got_stats, stats, "{at}: shard counters diverged");
                        assert_eq!(got_frames, frames, "{at}: frame bytes diverged");
                    }
                }
            }
        }
    }
}
