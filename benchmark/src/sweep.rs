//! Stand-alone timings of the `index` and `core` layers for the traced run:
//! every index backend built and probed with the same 2 M keys the
//! in-process workload uses, and the paper's scalar / horizontal / vertical
//! lookup kernels on a 16 MiB table. They say what each backend would cost
//! if it became the daemon's default, and guard the paper reproduction.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdht_core::engine::{run_bench, BenchSpec};
use simdht_core::validate::Approach;
use simdht_kvs::index::{self, hash_keys_into};
use simdht_kvs::item::NO_ITEM;
use simdht_table::Layout;
use simdht_workload::AccessPattern;

use crate::gen::{key_bytes, ABSENT, KEY_LEN};

pub const BACKENDS: [&str; 5] = ["memc3", "hor", "ver", "dpdk", "local"];
/// Lookup batch and prefetch look-ahead: `mget` width 64 at the store's
/// default depth.
const BATCH: usize = 64;
const DEPTH: usize = 8;

pub struct IndexSweep {
    pub hash_ns_per_key: f64,
    /// Per backend, in [`BACKENDS`] order.
    pub insert_ns_per_key: Vec<f64>,
    pub lookup_ns_per_key: Vec<f64>,
    /// Lookups whose answer contradicted what was inserted.
    pub wrong: u64,
}

/// Build each backend with `entries` keys (capacity `2 * entries`, as the
/// in-process workload sizes it) and probe it with a uniform, 90 %-present
/// stream of `entries` lookups in prefetched batches of 64.
pub fn index_sweep(seed: u64, entries: usize) -> IndexSweep {
    let keys: Vec<u8> = (0..entries as u32).flat_map(key_bytes).collect();
    let slices: Vec<&[u8]> = keys.chunks_exact(KEY_LEN).collect();
    let mut hashes = Vec::with_capacity(entries);
    let t = Instant::now();
    for batch in slices.chunks(BATCH) {
        hash_keys_into(batch, &mut hashes);
    }
    let hash_ns_per_key = t.elapsed().as_nanos() as f64 / entries as f64;

    // The probe stream: positions into `hashes`, or a never-inserted hash.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_1DE5);
    let absent_pool = (entries / 4).max(1024) as u32;
    let probes: Vec<(u32, Option<u32>)> = (0..entries)
        .map(|_| {
            if rng.gen::<f64>() < 0.9 {
                let i = rng.gen_range(0..entries as u32);
                (hashes[i as usize], Some(i))
            } else {
                let id = ABSENT | rng.gen_range(0..absent_pool);
                (index::hash_key(&key_bytes(id)), None)
            }
        })
        .collect();
    let probe_hashes: Vec<u32> = probes.iter().map(|p| p.0).collect();

    let mut sweep = IndexSweep {
        hash_ns_per_key,
        insert_ns_per_key: Vec::new(),
        lookup_ns_per_key: Vec::new(),
        wrong: 0,
    };
    let mut answers = vec![NO_ITEM; probes.len()];
    for name in BACKENDS {
        let mut idx = index::by_short_name(name, entries * 2).expect("known backend");
        let t = Instant::now();
        let mut stored = vec![false; entries];
        for (i, &h) in hashes.iter().enumerate() {
            stored[i] = idx.insert(h, i as u32).is_ok();
        }
        sweep
            .insert_ns_per_key
            .push(t.elapsed().as_nanos() as f64 / entries as f64);

        let t = Instant::now();
        for (batch, out) in probe_hashes.chunks(BATCH).zip(answers.chunks_mut(BATCH)) {
            idx.lookup_batch_prefetched(batch, out, DEPTH);
        }
        sweep
            .lookup_ns_per_key
            .push(t.elapsed().as_nanos() as f64 / probes.len() as f64);
        // An index answers with a *candidate* (the store verifies the full
        // key), so a colliding hash may surface another item; what must hold
        // is that every stored hash is found at all.
        sweep.wrong += probes
            .iter()
            .zip(&answers)
            .filter(|((_, i), &got)| i.is_some_and(|i| stored[i as usize]) && got == NO_ITEM)
            .count() as u64;
    }
    sweep
}

pub struct CoreKernels {
    /// Million lookups per second per core.
    pub scalar_mlps: f64,
    pub hor_mlps: f64,
    pub ver_mlps: f64,
}

/// The paper's kernels through `engine::run_bench::<u32>`: (2,4) BCHT for
/// the scalar baseline and the best horizontal design, 3-way cuckoo for the
/// best vertical design; 16 MiB table (1 MiB in smoke runs), uniform, 90 %
/// hits, one thread. The engine itself checks every design against the
/// scalar probe.
pub fn core_kernels(seed: u64, smoke: bool) -> Result<CoreKernels, String> {
    let (table_bytes, queries) = if smoke {
        (1 << 20, 1 << 15)
    } else {
        (16 << 20, 1 << 20)
    };
    let spec = |layout| BenchSpec {
        queries_per_thread: queries,
        seed,
        ..BenchSpec::new(layout, table_bytes, AccessPattern::Uniform)
    };
    let best = |layout, approach: Approach| -> Result<(f64, f64), String> {
        let report = run_bench::<u32>(&spec(layout)).map_err(|e| e.to_string())?;
        let best = report
            .designs
            .iter()
            .filter(|(d, _)| d.approach == approach)
            .map(|(_, m)| m.lookups_per_sec_per_core)
            .fold(0.0, f64::max);
        Ok((report.scalar.lookups_per_sec_per_core / 1e6, best / 1e6))
    };
    let (scalar_mlps, hor_mlps) = best(Layout::bcht(2, 4), Approach::Horizontal)?;
    let (_, ver_mlps) = best(Layout::n_way(3), Approach::Vertical)?;
    Ok(CoreKernels {
        scalar_mlps,
        hor_mlps,
        ver_mlps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_backend_and_finds_what_it_stored() {
        let s = index_sweep(12, 20_000);
        assert_eq!(s.insert_ns_per_key.len(), BACKENDS.len());
        assert_eq!(s.lookup_ns_per_key.len(), BACKENDS.len());
        assert!(s.hash_ns_per_key > 0.0);
        assert!(s.lookup_ns_per_key.iter().all(|&ns| ns > 0.0));
        assert_eq!(s.wrong, 0);
    }
}
