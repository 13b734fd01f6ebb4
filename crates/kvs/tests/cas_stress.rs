//! The CAS linearizability oracle: N writer threads race
//! compare-and-swap on a small set of hot keys, every writer logging the
//! versions it wins. CAS linearizes at the shard write lock (DESIGN.md
//! §13), so the contract is exact, not statistical:
//!
//! * **exactly one winner per version** — no two successful swaps on a
//!   key may claim the same new version,
//! * **no lost updates** — the version chain is contiguous: a key ending
//!   at version `v` saw exactly `v - 1` successful swaps (the preload is
//!   version 1), and the final value is the one written by the highest
//!   winning version,
//! * a successful swap always lands at `expected + 1`, and conflicts
//!   always carry a version other writers can make progress against.
//!
//! The matrix runs over every index family. It has no read-mode axis:
//! the suite only calls `get_v` and `cas`, which take the shard lock in
//! every mode. Seed count scales with `SHARD_STRESS_SEEDS` (default 3; CI
//! runs 100).

use std::collections::HashMap;
use std::sync::{Barrier, Mutex};

use simdht_kvs::index::by_short_name;
use simdht_kvs::store::{CasOutcome, KvStore, StoreConfig};

const N_WRITERS: usize = 4;
const HOT_KEYS: usize = 6;
const ROUNDS: usize = 300;

fn seeds() -> u64 {
    std::env::var("SHARD_STRESS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn key(i: usize) -> Vec<u8> {
    format!("cas-hot-{i:02}").into_bytes()
}

/// The value a winning swap writes: encodes (writer, version) so the
/// final state can be traced back to exactly one win.
fn winning_value(writer: usize, version: u64) -> Vec<u8> {
    format!("w{writer:02}-v{version:08}-payload").into_bytes()
}

/// One seeded round; returns the `cas` conflicts the store counted.
fn run_round(which: &str, seed: u64) -> u64 {
    let store = KvStore::with_shards(
        StoreConfig {
            memory_budget: 16 << 20,
            capacity_items: 1024,
            shards: 2,
            ..StoreConfig::default()
        },
        |cap| by_short_name(which, cap).expect("known index"),
    );
    for i in 0..HOT_KEYS {
        let v = store.set_v(&key(i), b"genesis", 0).expect("preload");
        assert_eq!(v, 1, "preload starts the chain at version 1");
    }

    // Every win recorded as key -> {version -> writer}; the mutex is
    // outside the contended path (winners only).
    let wins: Mutex<HashMap<usize, HashMap<u64, usize>>> = Mutex::new(HashMap::new());
    // One start line for all writers: spawned one after another without
    // it, an early writer can finish its whole slice before the next
    // exists, and the round races nothing.
    let start = Barrier::new(N_WRITERS);

    std::thread::scope(|s| {
        for w in 0..N_WRITERS {
            let (store, wins, start) = (&store, &wins, &start);
            s.spawn(move || {
                let mut rng = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(w as u64 + 1);
                start.wait();
                for _ in 0..ROUNDS {
                    let i = (splitmix64(&mut rng) as usize) % HOT_KEYS;
                    let k = key(i);
                    let (_, current) = store.get_v(&k).expect("hot keys are never deleted");
                    assert!(current >= 1, "versions start at 1");
                    // Widen the read-then-swap window so the race is real
                    // even on a single-CPU runner where threads would
                    // otherwise complete whole slices back to back.
                    std::thread::yield_now();
                    match store.cas(&k, current, &winning_value(w, current + 1), 0) {
                        Ok(CasOutcome::Stored(new_version)) => {
                            assert_eq!(
                                new_version,
                                current + 1,
                                "a successful swap lands at expected + 1"
                            );
                            let mut g = wins.lock().expect("wins lock");
                            let prior = g.entry(i).or_default().insert(new_version, w);
                            assert_eq!(
                                prior, None,
                                "two writers won key {i} version {new_version}"
                            );
                        }
                        Ok(CasOutcome::Conflict(at)) => {
                            // Someone else advanced the chain between our
                            // read and our swap; their version must be
                            // usable (>= 1) and different from what we
                            // presented.
                            assert!(at >= 1, "conflict against version 0");
                            assert_ne!(at, current, "conflict at the matching version");
                        }
                        Ok(CasOutcome::NotFound) => panic!("hot key {i} vanished"),
                        Err(e) => panic!("roomy store refused a cas: {e:?}"),
                    }
                }
            });
        }
    });

    // Post-mortem: contiguous version chains, one winner per link, and a
    // final value written by the highest winner.
    let wins = wins.into_inner().expect("wins lock");
    let mut total_wins = 0u64;
    for i in 0..HOT_KEYS {
        let (final_value, final_version) = store.get_v(&key(i)).expect("hot key survives");
        let key_wins = wins.get(&i).cloned().unwrap_or_default();
        assert_eq!(
            key_wins.len() as u64,
            final_version - 1,
            "key {i}: ended at version {final_version} but {} swaps won — lost updates",
            key_wins.len()
        );
        for v in 2..=final_version {
            assert!(
                key_wins.contains_key(&v),
                "key {i}: version {v} has no winner — the chain has a hole"
            );
        }
        if final_version > 1 {
            let winner = key_wins[&final_version];
            assert_eq!(
                final_value,
                winning_value(winner, final_version),
                "key {i}: final value is not the highest winner's write"
            );
        } else {
            assert_eq!(final_value, b"genesis", "key {i}: untouched key changed");
        }
        total_wins += key_wins.len() as u64;
    }
    assert_eq!(
        store.totals().cas_ok,
        total_wins,
        "store counted different wins than the writers observed"
    );
    assert!(
        total_wins > 0,
        "{which}/seed {seed}: no contention case ever won — vacuous run"
    );
    store.totals().cas_conflicts
}

#[test]
fn cas_has_exactly_one_winner_per_version_and_no_lost_updates() {
    let mut conflicts = 0;
    for seed in 0..seeds() {
        for which in ["memc3", "hor", "ver", "dpdk", "local"] {
            conflicts += run_round(which, seed);
        }
    }
    // With 4 writers racing read-then-swap on 6 keys, conflicts are all
    // but guaranteed over the sweep (a single 300-op round can go without
    // one under host noise); their absence would mean the race never
    // happened.
    assert!(
        conflicts > 0,
        "no conflicts in the whole sweep — writers never actually raced"
    );
}
