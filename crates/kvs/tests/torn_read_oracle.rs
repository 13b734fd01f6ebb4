//! Concurrent-reader torn-read oracle for the store's read path: every
//! `get` and `mget` takes the shard's shared lock, and no reader may ever
//! see a write half done (DESIGN.md §11).
//!
//! N seeded writer threads churn a deliberately small, hot key set while
//! M seeded reader threads hammer the same keys through `get` and the
//! prefetched `mget` pipeline. Every stored value is **tagged and
//! self-checksummed** (`key|seq|payload|fnv64`), so any torn read —
//! a splice of two writes, a half-copied buffer, bytes from a recycled
//! chunk — fails the checksum or the key tag with overwhelming
//! probability. On top of that, a per-key `started`/`completed`
//! sequencing log checks linearizability exactly like `shard_stress.rs`:
//!
//! * the observed sequence was actually started before the read returned,
//! * it is at least as new as the last write completed before the read
//!   began (replace deletes the older item under the shard write lock),
//! * per reader, per key, sequences never go backwards,
//! * a miss is only legal when nothing completed, a delete has started
//!   on the key, or eviction is on.
//!
//! Delete-mixing rounds (`deletes_never_expose_recycled_bytes`) make the
//! recycled-chunk race first-class: deletes consume log sequence numbers,
//! so even an intact deleted value resurfacing fails the freshness bound.
//!
//! `SHARD_STRESS_SEEDS` scales the seeded repetitions (default 3; CI runs
//! 100 in release mode).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use simdht_kvs::index::by_short_name;
use simdht_kvs::store::{KvStore, MGetResponse, SetMultiBatch, ShardStats, StoreConfig};

const WRITERS: usize = 4;
const READERS: usize = 4;
/// Small per-writer key set: high per-key write rates are what put
/// readers right behind a write of the key they ask for.
const KEYS_PER_WRITER: usize = 16;
const OPS_PER_WRITER: usize = 600;
const OPS_PER_READER: usize = 1200;
/// Keys per reader Multi-Get batch (drives the G-ahead AMAC pipeline).
const BATCH: usize = 8;
/// Pairs per writer `set_multi` batch in the batched-writer rounds.
const WRITE_BATCH: usize = 8;

fn n_seeds() -> u64 {
    std::env::var("SHARD_STRESS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn key_of(w: usize, i: usize) -> String {
    format!("w{w:02}-k{i:02}")
}

fn fnv64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode `key|seq|payload|checksum`. The payload is a seq-derived run of
/// one letter, `pay_len` bytes long; the checksum is FNV-64 over
/// everything before it. A reader that ever sees bytes from two different
/// writes (or another key's item) fails the checksum or the key tag.
fn value_of(key: &str, seq: u64, pay_len: usize) -> Vec<u8> {
    let letter = char::from(b'a' + (seq % 26) as u8);
    let payload: String = std::iter::repeat_n(letter, pay_len).collect();
    let body = format!("{key}|{seq}|{payload}");
    let sum = fnv64(body.as_bytes());
    format!("{body}|{sum:016x}").into_bytes()
}

/// Decode and verify a stress value read back under `key`; returns its
/// sequence number. Panics on any internal inconsistency — that panic IS
/// the torn-read oracle firing.
fn parse_value(key: &str, value: &[u8]) -> u64 {
    let s = std::str::from_utf8(value).expect("stress values are ascii");
    let (body, sum_hex) = s.rsplit_once('|').expect("stress values end in |checksum");
    let sum = u64::from_str_radix(sum_hex, 16).expect("checksum field parses");
    assert_eq!(
        sum,
        fnv64(body.as_bytes()),
        "{key}: TORN READ — checksum mismatch on {body:?}"
    );
    let mut parts = body.splitn(3, '|');
    let k = parts.next().expect("key field");
    assert_eq!(k, key, "SPLICED READ — value stored under the wrong key");
    let seq: u64 = parts
        .next()
        .expect("seq field")
        .parse()
        .expect("sequence number parses");
    let payload = parts.next().expect("payload field");
    let letter = char::from(b'a' + (seq % 26) as u8);
    assert!(
        payload.chars().all(|c| c == letter),
        "{key}: TORN READ — payload bytes disagree with seq {seq}"
    );
    seq
}

struct Logs {
    started: Vec<Vec<AtomicU64>>,
    completed: Vec<Vec<AtomicU64>>,
    /// Deletes begun per key — a miss is legal once one has started.
    del_started: Vec<Vec<AtomicU64>>,
}

/// One reader's view of a single key observation, checked against the
/// sequencing log and the reader's own monotonicity state.
#[allow(clippy::too_many_arguments)]
fn check_observation(
    key: &str,
    value: Option<&[u8]>,
    floor: u64,
    after: u64,
    deletes_started: u64,
    last_seen: &mut Option<u64>,
    eviction_possible: bool,
) {
    match value {
        Some(v) => {
            let seq = parse_value(key, v);
            assert!(
                seq < after,
                "{key}: read seq {seq} never started (started {after})"
            );
            assert!(
                seq + 1 >= floor,
                "{key}: read stale seq {seq}, {floor} ops had completed before the read"
            );
            if let Some(prev) = *last_seen {
                assert!(
                    seq >= prev,
                    "{key}: per-key sequence went backwards ({prev} then {seq})"
                );
            }
            *last_seen = Some(seq);
        }
        None => {
            if !eviction_possible && deletes_started == 0 {
                assert_eq!(floor, 0, "{key}: completed write lost without eviction");
            }
        }
    }
}

/// How the writer threads publish their churn.
#[derive(Copy, Clone, PartialEq)]
enum WriterStyle {
    /// One `set` call per key — the PR-7 baseline.
    Single,
    /// `WRITE_BATCH`-wide `set_multi` batches (duplicates allowed, so
    /// later-wins resolution runs inside a single write-lock hold).
    Batched,
}

/// Run one seeded round: writers churn, readers mix single-key `get`
/// with `BATCH`-wide `mget` (prefetch depth 8). Returns harness-counted
/// sets.
fn stress_round(store: &Arc<KvStore>, seed: u64, eviction_possible: bool, pay_len: usize) -> u64 {
    stress_round_with(
        store,
        seed,
        eviction_possible,
        pay_len,
        WriterStyle::Single,
        0.0,
    )
    .0
}

/// As [`stress_round`], with a per-op probability that a Single-style
/// writer deletes the picked key instead of setting it. Deletes consume
/// sequence numbers in the log (so a deleted value resurfacing fails the
/// freshness bound) and a miss becomes legal once a delete has started.
/// Returns `(sets issued, deletes that removed a live item)`.
fn stress_round_with(
    store: &Arc<KvStore>,
    seed: u64,
    eviction_possible: bool,
    pay_len: usize,
    style: WriterStyle,
    delete_prob: f64,
) -> (u64, u64) {
    let logs = Logs {
        started: (0..WRITERS)
            .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        completed: (0..WRITERS)
            .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
            .collect(),
        del_started: (0..WRITERS)
            .map(|_| (0..KEYS_PER_WRITER).map(|_| AtomicU64::new(0)).collect())
            .collect(),
    };
    let sets_issued = AtomicU64::new(0);
    let deletes_hit = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = Arc::clone(store);
            let logs = &logs;
            let sets_issued = &sets_issued;
            let deletes_hit = &deletes_hit;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (w as u64),
                );
                let mut next_seq = [0u64; KEYS_PER_WRITER];
                match style {
                    WriterStyle::Single => {
                        for _ in 0..OPS_PER_WRITER {
                            let i = rng.gen_range(0..KEYS_PER_WRITER);
                            let key = key_of(w, i);
                            let seq = next_seq[i];
                            if delete_prob > 0.0 && rng.gen::<f64>() < delete_prob {
                                logs.del_started[w][i].fetch_add(1, Ordering::SeqCst);
                                logs.started[w][i].store(seq + 1, Ordering::SeqCst);
                                if store.delete(key.as_bytes()) {
                                    deletes_hit.fetch_add(1, Ordering::Relaxed);
                                }
                                logs.completed[w][i].store(seq + 1, Ordering::SeqCst);
                            } else {
                                logs.started[w][i].store(seq + 1, Ordering::SeqCst);
                                store
                                    .set(key.as_bytes(), &value_of(&key, seq, pay_len))
                                    .expect("stress writes fit the store");
                                logs.completed[w][i].store(seq + 1, Ordering::SeqCst);
                                sets_issued.fetch_add(1, Ordering::Relaxed);
                            }
                            next_seq[i] = seq + 1;
                        }
                    }
                    WriterStyle::Batched => {
                        let mut scratch = SetMultiBatch::new();
                        for _ in 0..OPS_PER_WRITER / WRITE_BATCH {
                            // Duplicates are allowed: a key picked twice
                            // gets two sequence numbers applied in batch
                            // order, so the batch itself exercises the
                            // in-session later-wins path.
                            let picks: Vec<usize> = (0..WRITE_BATCH)
                                .map(|_| rng.gen_range(0..KEYS_PER_WRITER))
                                .collect();
                            let owned: Vec<(String, Vec<u8>)> = picks
                                .iter()
                                .map(|&i| {
                                    let key = key_of(w, i);
                                    let seq = next_seq[i];
                                    next_seq[i] = seq + 1;
                                    let value = value_of(&key, seq, pay_len);
                                    (key, value)
                                })
                                .collect();
                            // Publish `started` for every touched key
                            // before the first byte of the batch lands;
                            // `completed` only once the whole batch has
                            // retired.
                            for &i in &picks {
                                logs.started[w][i].store(next_seq[i], Ordering::SeqCst);
                            }
                            let pairs: Vec<(&[u8], &[u8])> = owned
                                .iter()
                                .map(|(k, v)| (k.as_bytes(), v.as_slice()))
                                .collect();
                            let outcome = store.set_multi(&pairs, &mut scratch);
                            assert_eq!(
                                outcome.stored, WRITE_BATCH,
                                "roomy batched stress writes must all land"
                            );
                            for &i in &picks {
                                logs.completed[w][i].store(next_seq[i], Ordering::SeqCst);
                            }
                            sets_issued.fetch_add(WRITE_BATCH as u64, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        for r in 0..READERS {
            let store = Arc::clone(store);
            let logs = &logs;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (0xBEEF + r as u64),
                );
                let mut resp = MGetResponse::new();
                let mut last_seen = vec![vec![None::<u64>; KEYS_PER_WRITER]; WRITERS];
                for op in 0..OPS_PER_READER {
                    if op % 2 == 0 {
                        // Single-key `get`.
                        let w = rng.gen_range(0..WRITERS);
                        let i = rng.gen_range(0..KEYS_PER_WRITER);
                        let key = key_of(w, i);
                        let floor = logs.completed[w][i].load(Ordering::SeqCst);
                        let got = store.get(key.as_bytes());
                        let after = logs.started[w][i].load(Ordering::SeqCst);
                        let dels = logs.del_started[w][i].load(Ordering::SeqCst);
                        check_observation(
                            &key,
                            got.as_deref(),
                            floor,
                            after,
                            dels,
                            &mut last_seen[w][i],
                            eviction_possible,
                        );
                    } else {
                        // Prefetched Multi-Get across hot keys of every
                        // writer; per-key log bounds still apply.
                        let picks: Vec<(usize, usize)> = (0..BATCH)
                            .map(|_| (rng.gen_range(0..WRITERS), rng.gen_range(0..KEYS_PER_WRITER)))
                            .collect();
                        let keys: Vec<String> = picks.iter().map(|&(w, i)| key_of(w, i)).collect();
                        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
                        let floors: Vec<u64> = picks
                            .iter()
                            .map(|&(w, i)| logs.completed[w][i].load(Ordering::SeqCst))
                            .collect();
                        store.mget(&refs, &mut resp);
                        for (j, &(w, i)) in picks.iter().enumerate() {
                            let after = logs.started[w][i].load(Ordering::SeqCst);
                            let dels = logs.del_started[w][i].load(Ordering::SeqCst);
                            check_observation(
                                &keys[j],
                                resp.value(j),
                                floors[j],
                                after,
                                dels,
                                &mut last_seen[w][i],
                                eviction_possible,
                            );
                        }
                    }
                }
            });
        }
    });

    // Quiesced: started == completed once every writer joined.
    for (s_row, c_row) in logs.started.iter().zip(&logs.completed) {
        for (i, s) in s_row.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::SeqCst),
                c_row[i].load(Ordering::SeqCst),
                "writer did not drain"
            );
        }
    }
    (
        sets_issued.load(Ordering::Relaxed),
        deletes_hit.load(Ordering::Relaxed),
    )
}

fn check_conservation(store: &KvStore, sets_issued: u64) {
    let totals = store.totals();
    let mut summed = ShardStats::default();
    for s in store.shard_stats() {
        summed.add(&s);
    }
    assert_eq!(summed, totals, "sum over shards must equal global totals");
    assert_eq!(totals.sets, sets_issued, "set counter conservation");
    assert_eq!(totals.items, store.len(), "item counter conservation");
}

fn roomy_store(index: &str) -> Arc<KvStore> {
    Arc::new(KvStore::with_shards(
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 4 * WRITERS * KEYS_PER_WRITER,
            shards: 4,
        },
        |cap| by_short_name(index, cap).expect("known index"),
    ))
}

#[test]
fn stress_torn_read_oracle_hot_keys() {
    for seed in 0..n_seeds() {
        for index in ["memc3", "ver", "dpdk", "local"] {
            let store = roomy_store(index);
            let sets = stress_round(&store, seed, false, 40);
            check_conservation(&store, sets);
            assert_eq!(store.totals().evictions, 0, "budget was roomy");
        }
    }
}

/// The batched write path under the same oracle: writers publish through
/// `WRITE_BATCH`-wide `set_multi` calls — one shard write lock per shard
/// group — while readers hammer the same hot keys. Any splice of two batch members, or a value exposed
/// between a batch's delete and re-insert, trips the checksum/log oracle.
#[test]
fn stress_torn_read_oracle_batched_writers() {
    for seed in 0..n_seeds() {
        for index in ["memc3", "ver", "dpdk", "local"] {
            let store = roomy_store(index);
            let (sets, _) = stress_round_with(&store, seed, false, 40, WriterStyle::Batched, 0.0);
            check_conservation(&store, sets);
            assert_eq!(store.totals().evictions, 0, "budget was roomy");
        }
    }
}

/// Deletes under concurrent readers: a deleted item's chunk goes back to
/// the slab free list and is recycled by later writes — possibly under a
/// different key. A reader must never return the recycled bytes under the
/// old key: the key tag + checksum oracle fires on spliced bytes, and the
/// seq-consuming delete log catches a deleted value resurfacing intact.
#[test]
fn deletes_never_expose_recycled_bytes() {
    for seed in 0..n_seeds() {
        for index in ["memc3", "ver", "dpdk", "local"] {
            let store = roomy_store(index);
            let (sets, deletes) =
                stress_round_with(&store, seed, false, 40, WriterStyle::Single, 0.25);
            assert!(deletes > 0, "{index}: deletes must actually land");
            check_conservation(&store, sets);
            assert_eq!(
                store.totals().deletes,
                deletes,
                "{index}: delete counter conservation"
            );
            assert_eq!(store.totals().evictions, 0, "budget was roomy");
        }
    }
}

/// Deterministic mid-batch torn-window probe: pause a `set_multi` batch
/// at the exact point where the hot key's old item is deleted but its
/// replacement is not yet written (the `torture_set_pause` hook fires
/// inside the per-key insert body, which the batch shares with `set`).
/// A reader arriving during the pause must block — the shard write lock
/// is held — and then observe the batch's final value, never the
/// deleted-but-unwritten hole.
#[test]
fn paused_batched_writer_never_exposes_mid_batch_state() {
    let store = Arc::new(KvStore::with_shards(
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: 1024,
            shards: 1, // one shard: batch pairs apply in request order
        },
        |cap| by_short_name("memc3", cap).expect("known index"),
    ));
    let hot = key_of(0, 0);
    store
        .set(hot.as_bytes(), &value_of(&hot, 0, 40))
        .expect("preload");

    let paused = Arc::new(AtomicBool::new(false));
    let resume = Arc::new(AtomicBool::new(false));
    {
        let paused = Arc::clone(&paused);
        let resume = Arc::clone(&resume);
        let calls = AtomicUsize::new(0);
        store.set_torture_set_pause(Some(Box::new(move || {
            // Pair #0 is filler; pair #1 is the hot key — freeze
            // there, with its old item gone and the new one pending.
            if calls.fetch_add(1, Ordering::SeqCst) == 1 {
                paused.store(true, Ordering::SeqCst);
                while !resume.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        })));
    }

    let read_done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let writer_store = Arc::clone(&store);
        let writer_hot = hot.clone();
        s.spawn(move || {
            let filler_a = value_of("filler-a", 7, 40);
            let hot_new = value_of(&writer_hot, 1, 40);
            let filler_b = value_of("filler-b", 7, 40);
            let pairs: Vec<(&[u8], &[u8])> = vec![
                (b"filler-a", filler_a.as_slice()),
                (writer_hot.as_bytes(), hot_new.as_slice()),
                (b"filler-b", filler_b.as_slice()),
            ];
            let mut scratch = SetMultiBatch::new();
            let outcome = writer_store.set_multi(&pairs, &mut scratch);
            assert_eq!(outcome.stored, 3, "paused batch still lands in full");
        });

        // Wait until the writer is frozen inside the batch.
        let t0 = std::time::Instant::now();
        while !paused.load(Ordering::SeqCst) {
            assert!(
                t0.elapsed().as_secs() < 30,
                "writer never hit the pause hook"
            );
            std::thread::yield_now();
        }

        let reader_store = Arc::clone(&store);
        let reader_hot = hot.clone();
        let reader_done = Arc::clone(&read_done);
        let reader = s.spawn(move || {
            let got = reader_store.get(reader_hot.as_bytes());
            reader_done.store(true, Ordering::SeqCst);
            got
        });

        // The reader must NOT complete while the batch is mid-write:
        // completing now could only return the torn hole (a miss) or
        // a half-written value.
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert!(
            !read_done.load(Ordering::SeqCst),
            "reader returned during the torn mid-batch window"
        );

        resume.store(true, Ordering::SeqCst);
        let got = reader.join().expect("reader joins");
        let value = got.expect("reader observed the mid-batch hole as a miss");
        assert_eq!(
            parse_value(&hot, &value),
            1,
            "reader must see the batch's final value"
        );
    });
    store.set_torture_set_pause(None);
}

#[test]
fn stress_torn_read_oracle_under_eviction_pressure() {
    // Tight budget: CLOCK eviction and chunk recycling race the readers,
    // and the checksum and sequencing log carry the oracle. pay_len =
    // 100_000 keeps every value in one big slab class (pages never migrate
    // between classes) AND makes each shard's single 1 MiB floor page hold
    // fewer chunks than the ~16 hot keys routed to it, so CLOCK must evict
    // continuously.
    for seed in 0..n_seeds() {
        let store = Arc::new(KvStore::with_shards(
            StoreConfig {
                memory_budget: 4 << 20,
                capacity_items: WRITERS * KEYS_PER_WRITER,
                shards: 4,
            },
            |cap| by_short_name("hor", cap).expect("known index"),
        ));
        let sets = stress_round(&store, seed, true, 100_000);
        let totals = store.totals();
        assert!(totals.evictions > 0, "tight budget must force evictions");
        assert_eq!(totals.sets, sets, "set counter conservation");
        let mut summed = ShardStats::default();
        for s in store.shard_stats() {
            summed.add(&s);
        }
        assert_eq!(summed, totals);
        assert_eq!(totals.items, store.len());
    }
}
