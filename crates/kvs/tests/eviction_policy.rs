//! Hit rate of the eviction policy on a scaled-down `wire_mixed` stream.
//!
//! The benchmark's `wire_mixed` workload reads Zipfian-skewed keys beside a
//! write stream that sweeps every key in a scattered order, on a slab that
//! holds about 44 % of the keys. Every key the sweep writes is one the
//! policy must place somewhere; most are never read before the sweep comes
//! round again. The stream here is the same in miniature and in process:
//! 256-byte values, 16-key Multi-Gets and 16-pair `set_multi` batches in
//! equal shares, every key preloaded first, the hit rate counted after one
//! full write pass.
//!
//! Single-ring CLOCK admitted every write referenced, so each swept key
//! survived a full lap of the hand and pushed read-hot keys out; the
//! probationary FIFO lets an unread write go after one trip through it.
//! The floors below are single-ring CLOCK's hit rates on this exact stream
//! plus four points.
//!
//! The benchmark's read-back asks, after its run, for the keys of the last
//! 32 write requests and counts a miss as a wrong answer, so the stream
//! ends by checking that those 512 keys are all resident.
//!
//! `hit_rate_table` (ignored; `cargo test --release -p simdht-kvs --test
//! eviction_policy -- --ignored --nocapture`) prints the hit rate over a
//! grid of skews and slab sizes at eight times the key count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdht_kvs::index::by_short_name;
use simdht_kvs::store::{KvStore, MGetResponse, SetMultiBatch, StoreConfig};
use simdht_workload::{AccessPattern, RankSampler};

const VALUE_LEN: usize = 256;
const WIDTH: usize = 16;
/// Write requests whose keys the closing read-back asks for.
const READBACK_WRITES: usize = 32;

/// One run's stream: how many keys, how skewed the reads, how big the slab.
#[derive(Copy, Clone, Debug)]
struct Stream {
    keys: u64,
    theta: f64,
    memory_budget: usize,
    seed: u64,
}

/// What a run measured.
#[derive(Debug)]
struct Outcome {
    hit_frac: f64,
    resident: usize,
    /// Keys of the last [`READBACK_WRITES`] write requests that missed.
    readback_misses: usize,
}

fn key(id: u64) -> Vec<u8> {
    format!("key:{id:016x}").into_bytes()
}

fn run(s: Stream) -> Outcome {
    let store = KvStore::new(
        by_short_name("memc3", s.keys as usize).expect("known index"),
        StoreConfig {
            memory_budget: s.memory_budget,
            capacity_items: s.keys as usize,
            shards: 1,
            ..StoreConfig::default()
        },
    );
    let value = vec![0x5Au8; VALUE_LEN];
    let mut batch = SetMultiBatch::new();
    let mut write = |ids: &[u64]| {
        let keys: Vec<Vec<u8>> = ids.iter().map(|&id| key(id)).collect();
        let pairs: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &value[..])).collect();
        let stored = store.set_multi(&pairs, &mut batch).stored;
        assert_eq!(stored, ids.len(), "every pair fits");
    };
    let all: Vec<u64> = (0..s.keys).collect();
    for chunk in all.chunks(64) {
        write(chunk);
    }
    // Reads: Zipfian ranks scattered over the key space (the multiplier
    // is prime), so popularity does not follow preload order. Writes: a
    // sweep through another scattered order of every key.
    let ranks = RankSampler::new(AccessPattern::Zipfian { theta: s.theta }, s.keys as usize);
    let mut rng = StdRng::seed_from_u64(s.seed);
    let offset = rng.gen_range(0..s.keys);
    let sweep = |n: u64| ((n % s.keys) * 2_246_822_519 + offset) % s.keys;
    let mut resp = MGetResponse::new();
    let (mut written, mut asked, mut found) = (0u64, 0u64, 0u64);
    let mut recent: Vec<Vec<u64>> = Vec::new();
    while written < 3 * s.keys {
        if rng.gen_bool(0.5) {
            let ids: Vec<u64> = (written..written + WIDTH as u64).map(sweep).collect();
            write(&ids);
            written += WIDTH as u64;
            recent.push(ids);
            if recent.len() > READBACK_WRITES {
                recent.remove(0);
            }
        } else {
            let keys: Vec<Vec<u8>> = (0..WIDTH)
                .map(|_| key((ranks.sample(&mut rng) as u64 * 2_654_435_761) % s.keys))
                .collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| &k[..]).collect();
            let hits = store.mget(&refs, &mut resp).found as u64;
            if written >= s.keys {
                asked += WIDTH as u64;
                found += hits;
            }
        }
    }
    let last: Vec<Vec<u8>> = recent.iter().flatten().map(|&id| key(id)).collect();
    let refs: Vec<&[u8]> = last.iter().map(|k| &k[..]).collect();
    let hits = store.mget(&refs, &mut resp).found;
    assert!(store.totals().evictions > 0, "{s:?}: the slab never filled");
    Outcome {
        hit_frac: found as f64 / asked as f64,
        resident: store.len(),
        readback_misses: refs.len() - hits,
    }
}

/// 32 Ki keys against a 4 MiB slab, which holds about 44 % of them: 14 560
/// 288-byte chunks.
fn small(seed: u64) -> Stream {
    Stream {
        keys: 1 << 15,
        theta: 0.99,
        memory_budget: 4 << 20,
        seed,
    }
}

#[test]
fn written_keys_that_nobody_reads_leave_before_read_hot_ones() {
    // Single-ring CLOCK's hit rate on each seed's stream, measured with
    // this file on the last commit that had it; the two queues read
    // 0.8346, 0.8335 and 0.8324.
    const CLOCK: [(u64, f64); 3] = [(41, 0.7563), (42, 0.7572), (43, 0.7517)];
    for (seed, clock) in CLOCK {
        let s = small(seed);
        let out = run(s);
        let share = out.resident as f64 / s.keys as f64;
        assert!(
            (0.3..0.5).contains(&share),
            "seed {seed}: {} of {} keys resident",
            out.resident,
            s.keys
        );
        assert!(
            out.hit_frac >= clock + 0.04,
            "seed {seed}: hit rate {:.4}, single-ring CLOCK {clock:.4}",
            out.hit_frac
        );
        assert_eq!(
            out.readback_misses, 0,
            "seed {seed}: keys of the last {READBACK_WRITES} writes were evicted"
        );
    }
}

#[test]
#[ignore = "a grid of long runs; prints a table"]
fn hit_rate_table() {
    const KEYS: u64 = 1 << 18;
    println!("| θ | slab MiB | resident | hit rate |");
    println!("|---|---|---|---|");
    for theta in [0.7, 0.9, 0.99] {
        for mib in [16, 32, 48] {
            let out = run(Stream {
                keys: KEYS,
                theta,
                memory_budget: mib << 20,
                seed: 41,
            });
            assert_eq!(out.readback_misses, 0, "θ {theta}, {mib} MiB");
            println!(
                "| {theta} | {mib} | {:.1} % | {:.4} |",
                100.0 * out.resident as f64 / KEYS as f64,
                out.hit_frac
            );
        }
    }
}
