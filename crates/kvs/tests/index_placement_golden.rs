//! Black-box placement golden test for the three tag-cuckoo backends.
//!
//! The differential suites pin slot choice and BFS expansion order only
//! indirectly (through CLOCK-victim parity). This test pins them directly:
//! one fixed splitmix64 stream drives each backend — fill to the first
//! [`IndexError::Full`], remove every third mapping, refill to `Full`
//! again — and a digest is taken over the two indexes at which `Full`
//! fired, every `probe_first(hash)` and every `lookup_all(hash)` *order*.
//!
//! The digests below were recorded at the commit before the three
//! per-file insert paths were folded into one core (ISSUE 13); a change
//! to them means entries moved, not just code.

use simdht_kvs::index::{by_short_name, HashIndex, IndexError};

const CAPACITY: usize = 4096;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Fnv64(u64);

impl Fnv64 {
    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Insert fresh `(hash, item)` mappings from the stream until the first
/// `Full`; returns how many went in.
fn fill(index: &mut dyn HashIndex, stream: &mut u64, mappings: &mut Vec<(u32, u32)>) -> u64 {
    let mut inserted = 0u64;
    loop {
        // Index hashes are never 0 (`hash_key` remaps it).
        let hash = (splitmix64(stream) as u32).max(1);
        let item = mappings.len() as u32;
        mappings.push((hash, item));
        match index.insert(hash, item) {
            Ok(()) => inserted += 1,
            Err(IndexError::Full) => return inserted,
        }
    }
}

fn placement_digest(name: &str, capacity: usize) -> u64 {
    let mut index = by_short_name(name, capacity).expect("known index");
    let mut stream = 0x51D4_7B3Cu64;
    let mut mappings: Vec<(u32, u32)> = Vec::new();
    let mut digest = Fnv64(0xCBF2_9CE4_8422_2325);

    digest.push(fill(index.as_mut(), &mut stream, &mut mappings));
    for &(hash, item) in mappings.iter().step_by(3) {
        index.remove(hash, item);
    }
    digest.push(index.len() as u64);
    digest.push(fill(index.as_mut(), &mut stream, &mut mappings));
    digest.push(index.len() as u64);

    // Every hash ever issued: live ones, removed ones and the two that
    // hit `Full` (the latter read as misses or tag false positives).
    let mut all = Vec::new();
    for &(hash, _) in &mappings {
        digest.push(u64::from(index.probe_first(hash)));
        all.clear();
        index.lookup_all(hash, &mut all);
        digest.push(all.len() as u64);
        for &item in &all {
            digest.push(u64::from(item));
        }
    }
    digest.0
}

#[test]
fn placement_is_unchanged_since_the_per_file_insert_paths() {
    let recorded = [
        ("memc3", 0xe338_14df_7f49_d964u64),
        ("dpdk", 0x5c2e_9d04_2315_9f79),
        ("local", 0x403e_1ffc_0fbe_92e5),
    ];
    let got = recorded.map(|(name, _)| (name, placement_digest(name, CAPACITY)));
    assert_eq!(
        got.map(|(n, d)| format!("{n} {d:#018x}")),
        recorded.map(|(n, d)| format!("{n} {d:#018x}")),
    );
}

/// `memc3` on 65 536 buckets — eight to each of its 8192 striped version
/// counters. Recorded at the commit before the counters were striped
/// (ISSUE 20), where every bucket had its own.
#[test]
fn memc3_placement_is_unchanged_where_version_stripes_are_shared() {
    assert_eq!(
        format!("{:#018x}", placement_digest("memc3", 120_000)),
        "0x8696c8f9a6f8a110",
    );
}
