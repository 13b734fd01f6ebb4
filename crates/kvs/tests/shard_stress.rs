//! Deterministic multi-threaded stress oracle for the sharded `KvStore`.
//!
//! N writer threads and M reader threads, all driven by seeded RNGs, run
//! against the sharded store while a **sequencing log** (per-key
//! `started`/`completed` write counters) plus an oracle `HashMap` model
//! check linearizability per key:
//!
//! * every value a reader observes was actually written for that key
//!   (key-prefixed, checksum-free encoding: `key|seq`),
//! * the observed sequence number is bounded by the log: it is `< started`
//!   sampled after the read and `>= completed - 1` sampled before the
//!   read (replace semantics delete the older item under the same shard
//!   write lock, so stale values can never resurface),
//! * per reader, per key, observed sequence numbers never go backwards
//!   (each key lives in exactly one shard, so per-key operations are
//!   serialized through one `RwLock`),
//! * a miss is only legal when the key was never completed, a delete has
//!   started on it, or the store is configured small enough that CLOCK
//!   eviction may have removed it.
//!
//! Rounds with `delete_prob > 0` mix `KvStore::delete` into the writer
//! streams; deletes consume sequence numbers in the log, so a deleted
//! value resurfacing fails the freshness bound.
//!
//! After the threads join (loss-free shutdown: `KvStore` spawns no
//! threads, so joining the harness threads quiesces the store), the store
//! must agree with the oracle `HashMap` exactly, and the per-shard
//! statistic counters must conserve: summed over shards they equal the
//! global totals and the harness's own ground-truth op counts.
//!
//! The number of seeded repetitions is `SHARD_STRESS_SEEDS` (default 3;
//! CI runs 100 in release mode with 8 test threads).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use simdht_kvs::index::by_short_name;
use simdht_kvs::store::{KvStore, MGetResponse, ShardStats, StoreConfig};

const WRITERS: usize = 4;
const READERS: usize = 4;
const KEYS_PER_WRITER: usize = 64;
const OPS_PER_WRITER: usize = 400;
const OPS_PER_READER: usize = 800;

fn n_seeds() -> u64 {
    std::env::var("SHARD_STRESS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn key_of(w: usize, i: usize) -> String {
    format!("w{w:02}-k{i:04}")
}

/// Encode `key|seq`, zero-padding the sequence field to `pad` digits.
/// The eviction variant uses a large pad so every value lands in one big
/// slab class and saturates the per-shard page budget (slab pages never
/// migrate between classes, so cross-class pressure would deadlock the
/// evictor instead of exercising it).
fn value_of(key: &str, seq: u64, pad: usize) -> Vec<u8> {
    format!("{key}|{seq:0pad$}").into_bytes()
}

/// Parse `key|seq`, asserting the key prefix matches (the value really was
/// written for this key, not spliced from another item).
fn parse_value(key: &str, value: &[u8]) -> u64 {
    let s = std::str::from_utf8(value).expect("stress values are ascii");
    let (k, seq) = s.rsplit_once('|').expect("stress values are key|seq");
    assert_eq!(k, key, "value stored under the wrong key");
    seq.parse().expect("sequence number parses")
}

struct StressOutcome {
    /// Ground-truth successful set calls, counted by the harness.
    sets_issued: u64,
    /// Ground-truth deletes that removed a live item (the store's
    /// `deletes` counter only counts those).
    deletes_hit: u64,
    /// Final per-key *operation* counts — every set and delete consumes
    /// one sequence number, so a live key's last value carries seq
    /// `count - 1`.
    final_seq: Vec<Vec<u64>>,
    /// Whether each key's final operation was a set (true) or a delete /
    /// never-written (false).
    final_live: Vec<Vec<bool>>,
    /// Zero-pad width the round encoded values with.
    pad: usize,
}

/// Run one seeded stress round against `store`. `eviction_possible`
/// selects whether a miss on a completed key is legal; `pad` sets the
/// zero-pad width of the sequence field (and thus the value size);
/// `delete_prob` is the per-op probability that a writer deletes the
/// picked key instead of setting it.
///
/// Deletes are first-class in the sequencing log: each one consumes a
/// sequence number, so a reader that observes a value whose set completed
/// *before* a completed delete fails the freshness bound — a deleted
/// value resurfacing (e.g. via a recycled slab chunk) is caught, not just
/// torn bytes. A miss is legal only when nothing ever completed for the
/// key, a delete has started on it, or eviction is possible.
fn stress_round(
    store: &Arc<KvStore>,
    seed: u64,
    eviction_possible: bool,
    pad: usize,
    delete_prob: f64,
) -> StressOutcome {
    // The sequencing log: started[w][i] = ops begun, completed[w][i] =
    // ops finished, del_started[w][i] = deletes begun, for writer w's
    // key i.
    let started: Vec<Vec<AtomicU64>> = (0..WRITERS)
        .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let completed: Vec<Vec<AtomicU64>> = (0..WRITERS)
        .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let del_started: Vec<Vec<AtomicU64>> = (0..WRITERS)
        .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let final_live: Vec<Vec<AtomicU64>> = (0..WRITERS)
        .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let sets_issued = AtomicU64::new(0);
    let deletes_hit = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = Arc::clone(store);
            let started = &started;
            let completed = &completed;
            let del_started = &del_started;
            let final_live = &final_live;
            let sets_issued = &sets_issued;
            let deletes_hit = &deletes_hit;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (w as u64),
                );
                let mut next_seq = vec![0u64; KEYS_PER_WRITER];
                let mut live = [false; KEYS_PER_WRITER];
                for _ in 0..OPS_PER_WRITER {
                    let i = rng.gen_range(0..KEYS_PER_WRITER);
                    let key = key_of(w, i);
                    let seq = next_seq[i];
                    if delete_prob > 0.0 && rng.gen::<f64>() < delete_prob {
                        // Publish intent before the delete begins...
                        del_started[w][i].fetch_add(1, Ordering::SeqCst);
                        started[w][i].store(seq + 1, Ordering::SeqCst);
                        let removed = store.delete(key.as_bytes());
                        completed[w][i].store(seq + 1, Ordering::SeqCst);
                        if !eviction_possible {
                            // Each key has exactly one writer: with no
                            // eviction, delete's answer is determined.
                            assert_eq!(removed, live[i], "{key}: delete return disagrees");
                        }
                        if removed {
                            deletes_hit.fetch_add(1, Ordering::Relaxed);
                        }
                        live[i] = false;
                    } else {
                        // Publish intent before the write begins...
                        started[w][i].store(seq + 1, Ordering::SeqCst);
                        store
                            .set(key.as_bytes(), &value_of(&key, seq, pad))
                            .expect("stress writes fit the store");
                        // ...and completion after it returns.
                        completed[w][i].store(seq + 1, Ordering::SeqCst);
                        sets_issued.fetch_add(1, Ordering::Relaxed);
                        live[i] = true;
                    }
                    next_seq[i] = seq + 1;
                }
                for (i, &l) in live.iter().enumerate() {
                    final_live[w][i].store(u64::from(l), Ordering::SeqCst);
                }
            });
        }
        for r in 0..READERS {
            let store = Arc::clone(store);
            let started = &started;
            let completed = &completed;
            let del_started = &del_started;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (0xBEEF + r as u64),
                );
                let mut resp = MGetResponse::new();
                let mut last_seen = vec![vec![None::<u64>; KEYS_PER_WRITER]; WRITERS];
                for _ in 0..OPS_PER_READER {
                    let w = rng.gen_range(0..WRITERS);
                    let i = rng.gen_range(0..KEYS_PER_WRITER);
                    let key = key_of(w, i);
                    let floor = completed[w][i].load(Ordering::SeqCst);
                    store.mget(&[key.as_bytes()], &mut resp);
                    let after = started[w][i].load(Ordering::SeqCst);
                    match resp.value(0) {
                        Some(v) => {
                            let seq = parse_value(&key, v);
                            assert!(
                                seq < after,
                                "{key}: read seq {seq} never started (started {after})"
                            );
                            assert!(
                                seq + 1 >= floor,
                                "{key}: read stale seq {seq}, {floor} ops \
                                 had completed before the read"
                            );
                            if let Some(prev) = last_seen[w][i] {
                                assert!(
                                    seq >= prev,
                                    "{key}: per-key sequence went backwards \
                                     ({prev} then {seq})"
                                );
                            }
                            last_seen[w][i] = Some(seq);
                        }
                        None => {
                            if !eviction_possible && del_started[w][i].load(Ordering::SeqCst) == 0 {
                                assert_eq!(
                                    floor, 0,
                                    "{key}: completed write lost without eviction"
                                );
                            }
                        }
                    }
                }
            });
        }
    });

    let final_seq: Vec<Vec<u64>> = started
        .iter()
        .map(|row| row.iter().map(|a| a.load(Ordering::SeqCst)).collect())
        .collect();
    // Quiesced: started == completed once all writers joined.
    for (s_row, c_row) in final_seq.iter().zip(&completed) {
        for (i, &s) in s_row.iter().enumerate() {
            assert_eq!(s, c_row[i].load(Ordering::SeqCst), "writer did not drain");
        }
    }
    StressOutcome {
        sets_issued: sets_issued.load(Ordering::Relaxed),
        deletes_hit: deletes_hit.load(Ordering::Relaxed),
        final_seq,
        final_live: final_live
            .iter()
            .map(|row| row.iter().map(|a| a.load(Ordering::SeqCst) != 0).collect())
            .collect(),
        pad,
    }
}

/// Check the per-shard counters conserve against the global totals and the
/// harness ground truth.
fn check_conservation(store: &KvStore, outcome: &StressOutcome) {
    let totals = store.totals();
    let mut summed = ShardStats::default();
    for s in store.shard_stats() {
        summed.add(&s);
    }
    assert_eq!(summed, totals, "sum over shards must equal global totals");
    assert_eq!(totals.sets, outcome.sets_issued, "set counter conservation");
    assert_eq!(
        totals.deletes, outcome.deletes_hit,
        "delete counter conservation"
    );
    assert_eq!(totals.items, store.len(), "item counter conservation");
    assert_eq!(
        store.shard_lens().iter().sum::<usize>(),
        store.len(),
        "per-shard lengths must sum to the store length"
    );
}

/// Compare the quiesced store against the oracle `HashMap` model: with no
/// eviction possible, the store holds exactly the last completed write of
/// every key whose final operation was a set, and nothing else.
fn check_oracle(store: &KvStore, outcome: &StressOutcome) {
    let mut oracle: HashMap<String, Vec<u8>> = HashMap::new();
    for (w, row) in outcome.final_seq.iter().enumerate() {
        for (i, &count) in row.iter().enumerate() {
            if count > 0 && outcome.final_live[w][i] {
                let key = key_of(w, i);
                let v = value_of(&key, count - 1, outcome.pad);
                oracle.insert(key, v);
            }
        }
    }
    assert_eq!(
        store.len(),
        oracle.len(),
        "store and oracle disagree on size"
    );
    // One batched cross-shard Multi-Get over the full oracle key set.
    let keys: Vec<&String> = oracle.keys().collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
    let mut resp = MGetResponse::new();
    let got = store.mget(&refs, &mut resp);
    assert_eq!(got.found, oracle.len(), "oracle keys must all be found");
    for (j, key) in keys.iter().enumerate() {
        assert_eq!(
            resp.value(j),
            Some(oracle[*key].as_slice()),
            "{key}: final value must be the last completed write"
        );
    }
}

fn roomy_store(shards: usize, index: &str) -> Arc<KvStore> {
    Arc::new(KvStore::with_shards(
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 4 * WRITERS * KEYS_PER_WRITER,
            shards,
        },
        |cap| by_short_name(index, cap).expect("known index"),
    ))
}

#[test]
fn stress_oracle_sharded_no_eviction() {
    for seed in 0..n_seeds() {
        for index in ["memc3", "ver"] {
            let store = roomy_store(8, index);
            let outcome = stress_round(&store, seed, false, 8, 0.0);
            check_conservation(&store, &outcome);
            check_oracle(&store, &outcome);
            assert_eq!(store.totals().evictions, 0, "budget was roomy");
            // Loss-free shutdown: dropping the last handle after the
            // threads joined must be a plain deallocation.
            drop(store);
        }
    }
}

#[test]
fn stress_oracle_with_deletes() {
    // A quarter of every writer's ops delete the picked key. The oracle
    // checks the full lifecycle: delete returns exactly whether the key
    // was live (single writer per key, no eviction), readers never see a
    // value older than a completed delete, the quiesced store holds
    // exactly the finally-live keys, and the per-shard delete counters
    // conserve against the harness ground truth.
    for seed in 0..n_seeds() {
        for index in ["memc3", "hor"] {
            let store = roomy_store(8, index);
            let outcome = stress_round(&store, seed, false, 8, 0.25);
            assert!(outcome.deletes_hit > 0, "deletes must actually land");
            check_conservation(&store, &outcome);
            check_oracle(&store, &outcome);
            assert_eq!(store.totals().evictions, 0, "budget was roomy");
        }
    }
}

#[test]
fn stress_oracle_single_shard_degenerates() {
    // S=1 must satisfy the same oracle (the classic single-lock store).
    for seed in 0..n_seeds().min(3) {
        let store = roomy_store(1, "hor");
        let outcome = stress_round(&store, seed, false, 8, 0.0);
        check_conservation(&store, &outcome);
        check_oracle(&store, &outcome);
    }
}

#[test]
fn stress_oracle_under_eviction_pressure() {
    // A deliberately tight budget: CLOCK eviction races the readers. The
    // per-key linearizability assertions must still hold; only presence is
    // relaxed (a miss is legal once eviction is possible).
    //
    // pad = 32_000 puts every value in one ~32 KiB slab class: each shard
    // gets a single 1 MiB page (the per-shard floor) of ~32 chunks, while
    // ~64 distinct keys route to each of the 4 shards — so CLOCK must
    // evict continuously, and every eviction frees a reusable same-class
    // chunk (writers never dead-end on cross-class pressure).
    for seed in 0..n_seeds() {
        let store = Arc::new(KvStore::with_shards(
            StoreConfig {
                memory_budget: 4 << 20,
                capacity_items: WRITERS * KEYS_PER_WRITER,
                shards: 4,
            },
            |cap| by_short_name("hor", cap).expect("known index"),
        ));
        let outcome = stress_round(&store, seed, true, 32_000, 0.0);
        // Presence is not guaranteed, but counters must still conserve.
        let totals = store.totals();
        assert!(totals.evictions > 0, "tight budget must force evictions");
        assert_eq!(
            totals.sets, outcome.sets_issued,
            "set counter conservation under eviction"
        );
        let mut summed = ShardStats::default();
        for s in store.shard_stats() {
            summed.add(&s);
        }
        assert_eq!(summed, totals);
        assert_eq!(totals.items, store.len());
    }
}

#[test]
fn stress_shutdown_drops_mid_flight_handles() {
    // Loss-free shutdown from the other side: the main handle goes away
    // first, worker threads finish their ops and the last one drops the
    // store. Joining afterwards must observe every write acknowledged.
    for seed in 0..n_seeds().min(5) {
        let store = roomy_store(8, "ver");
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (w as u64) << 8);
                    let mut acked = 0u64;
                    for _ in 0..OPS_PER_WRITER {
                        let i = rng.gen_range(0..KEYS_PER_WRITER);
                        let key = key_of(w, i);
                        store
                            .set(key.as_bytes(), &value_of(&key, acked, 8))
                            .unwrap();
                        acked += 1;
                    }
                    acked
                })
            })
            .collect();
        drop(store);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (WRITERS * OPS_PER_WRITER) as u64);
    }
}
