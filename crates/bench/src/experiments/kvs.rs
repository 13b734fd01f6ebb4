//! Fig. 11 — the key-value-store validation (paper §VI-B): MemC3 vs. the
//! two SIMD-aware indexes under memslap Multi-Get load.

use std::fmt::Write as _;
use std::sync::Arc;

use simdht_kvs::index::{self, HashIndex};
use simdht_kvs::kvsd::Kvsd;
use simdht_kvs::memslap::{
    run_memslap, run_memslap_over, MemslapConfig, MemslapReport, NetMemslapConfig,
};
use simdht_kvs::net::TcpTransport;
use simdht_kvs::store::{KvStore, MGetResponse, ReadMode, StoreConfig};
use simdht_workload::{AccessPattern, KvWorkload, KvWorkloadSpec};

use crate::RunScale;

fn build_index(which: &str, capacity: usize) -> Box<dyn HashIndex> {
    index::by_short_name(which, capacity).unwrap_or_else(|| unreachable!("unknown index {which}"))
}

fn run_one_mixed(
    which: &str,
    mget_size: usize,
    set_fraction: f64,
    scale: &RunScale,
) -> MemslapReport {
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: scale.kvs_items,
        n_requests: scale.kvs_requests,
        mget_size,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed: 0x4B56_0011,
    });
    let config = MemslapConfig {
        clients: 2,
        server_workers: 2,
        set_fraction,
        store: StoreConfig {
            memory_budget: (scale.kvs_items * 256).max(8 << 20),
            capacity_items: scale.kvs_items * 2,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
        ..MemslapConfig::default()
    };
    let store = KvStore::new(build_index(which, scale.kvs_items * 2), config.store);
    run_memslap(store, &workload, &config)
}

fn run_one(which: &str, mget_size: usize, scale: &RunScale) -> MemslapReport {
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: scale.kvs_items,
        n_requests: scale.kvs_requests,
        mget_size,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed: 0x4B56_0011,
    });
    let config = MemslapConfig {
        clients: 2,
        server_workers: 2,
        store: StoreConfig {
            memory_budget: (scale.kvs_items * 256).max(8 << 20),
            capacity_items: scale.kvs_items * 2,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
        ..MemslapConfig::default()
    };
    let store = KvStore::new(build_index(which, scale.kvs_items * 2), config.store);
    run_memslap(store, &workload, &config)
}

/// Fig. 11(a): end-to-end Multi-Get latency and server-side Get throughput
/// for MemC3 vs. horizontal-AVX2 vs. vertical-AVX-512 backends.
pub fn fig11a(scale: &RunScale) -> String {
    let mut s = String::from(
        "== Fig. 11(a): KVS Multi-Get — e2e latency & server-side Get throughput ==\n\
         (memslap: 20 B keys, 32 B values, skewed; simulated IB-EDR fabric)\n",
    );
    for mget in [16usize, 96] {
        let _ = writeln!(s, "\n-- Multi-Get batch = {mget} keys --");
        let mut baseline: Option<f64> = None;
        let mut baseline_lat: Option<f64> = None;
        for which in ["memc3", "hor", "ver"] {
            let r = run_one(which, mget, scale);
            let thr = r.server_keys_per_sec / 1e6;
            let speedup = baseline.map_or(1.0, |b| r.server_keys_per_sec / b);
            let lat_gain = baseline_lat.map_or(0.0, |b| (r.mean_latency_us / b - 1.0) * -100.0);
            if which == "memc3" {
                baseline = Some(r.server_keys_per_sec);
                baseline_lat = Some(r.mean_latency_us);
            }
            let _ = writeln!(
                s,
                "  {:<38} {:>8.2} MGet-keys/s | mean {:>7.1} us  p99 {:>7.1} us | thr {:>5.2}x | lat {:>+5.1}%",
                r.index_name, thr, r.mean_latency_us, r.p99_latency_us, speedup, lat_gain
            );
            assert_eq!(r.found, r.keys, "all preloaded keys must be found");
        }
    }
    s.push_str(
        "\n(paper: SIMD backends gain 1.45x-2.04x server-side Get throughput and\n\
         10 %-34 % end-to-end Multi-Get latency over MemC3)\n",
    );
    s
}

/// Fig. 11(b): server-side per-phase time breakdown per Multi-Get request.
pub fn fig11b(scale: &RunScale) -> String {
    let mut s = String::from(
        "== Fig. 11(b): server-side timewise breakdown per Multi-Get ==\n\
         (pre-processing / hash-table lookup / post-processing, per request)\n",
    );
    for mget in [16usize, 96] {
        let _ = writeln!(s, "\n-- Multi-Get batch = {mget} keys --");
        for which in ["memc3", "hor", "ver"] {
            let r = run_one(which, mget, scale);
            let total = r.phases.total().max(1) as f64;
            let per_req = r.server_ns_per_request() / 1000.0;
            let _ = writeln!(
                s,
                "  {:<38} {:>7.2} us/req | pre {:>4.1}%  lookup {:>4.1}%  post {:>4.1}%",
                r.index_name,
                per_req,
                r.phases.pre as f64 / total * 100.0,
                r.phases.lookup as f64 / total * 100.0,
                r.phases.post as f64 / total * 100.0,
            );
        }
    }
    s.push_str(
        "\n(paper: SIMD-aware lookups cut the server data-access phase by up to 50 %,\n\
         with horizontal ~ vertical because the scalar key-verify step dominates)\n",
    );
    s
}

/// `ext-mixed-kvs`: the future-work mixed workload at the KVS layer —
/// Set requests interleaved with Multi-Gets at growing fractions.
pub fn ext_mixed_kvs(scale: &RunScale) -> String {
    let mut s = String::from(
        "== ext-mixed-kvs: Sets mixed into the Multi-Get stream ==\n\
         (paper future work at the KVS layer; batch 64, skewed, IB-EDR model)\n\n",
    );
    let _ = writeln!(
        s,
        "  {:<10} {:<38} {:>12} {:>12} {:>10}",
        "set frac", "index", "MGet keys/s", "mean lat us", "sets"
    );
    for frac in [0.0, 0.05, 0.25] {
        for which in ["memc3", "hor", "ver", "dpdk", "local"] {
            let r = run_one_mixed(which, 64, frac, scale);
            let _ = writeln!(
                s,
                "  {:<10.2} {:<38} {:>10.2}M {:>12.1} {:>10}",
                frac,
                r.index_name,
                r.server_keys_per_sec / 1e6,
                r.mean_latency_us,
                r.sets
            );
            assert_eq!(r.found, r.keys, "sets must not lose keys");
        }
    }
    s.push_str(
        "\n(Sets serialize on the store write lock and dirty the index; the SIMD\n\
         read-path advantage persists while absolute throughput sags — the same\n\
         erosion the table-level ext-mixed experiment quantifies)\n",
    );
    s
}

/// One TCP-loopback run: real `Kvsd` on an ephemeral port, networked
/// memslap with pipelining, both ends in this process.
fn run_one_tcp(
    which: &str,
    mget_size: usize,
    scale: &RunScale,
) -> (
    &'static str,
    simdht_kvs::memslap::ClientReport,
    Arc<simdht_kvs::server::ServerStats>,
) {
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: scale.kvs_items,
        n_requests: scale.kvs_requests,
        mget_size,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed: 0x4B56_0011,
    });
    let store = Arc::new(KvStore::new(
        build_index(which, scale.kvs_items * 2),
        StoreConfig {
            memory_budget: (scale.kvs_items * 256).max(8 << 20),
            capacity_items: scale.kvs_items * 2,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
    ));
    let index_name = store.index_name();
    let kvsd = Kvsd::bind(store, "127.0.0.1:0").expect("bind loopback");
    let transport = TcpTransport::new(kvsd.local_addr()).expect("resolve loopback");
    let report = run_memslap_over(
        &transport,
        &workload,
        &NetMemslapConfig {
            connections: 2,
            pipeline_depth: 16,
            set_fraction: 0.0,
            preload: true,
            ..NetMemslapConfig::default()
        },
    )
    .expect("loopback memslap run");
    let stats = kvsd.stats();
    kvsd.shutdown();
    (index_name, report, stats)
}

/// `ext-tcp-loopback`: the KVS case study over *real* sockets — a `Kvsd`
/// daemon on 127.0.0.1 driven by the pipelined networked memslap client,
/// MemC3 vs. the SIMD indexes. Where Fig. 11 charges an analytic EDR wire
/// model, this measures the actual kernel TCP stack; the index ranking
/// should survive the transport swap even though absolute latency is
/// syscall-dominated.
pub fn ext_tcp_loopback(scale: &RunScale) -> String {
    let mut s = String::from(
        "== ext-tcp-loopback: KVS Multi-Get over real TCP loopback ==\n\
         (simdht-kvsd + networked memslap, 2 connections x 16-deep pipeline)\n",
    );
    for mget in [16usize, 96] {
        let _ = writeln!(s, "\n-- Multi-Get batch = {mget} keys --");
        let mut baseline: Option<f64> = None;
        for which in ["memc3", "hor", "ver"] {
            let (name, r, stats) = run_one_tcp(which, mget, scale);
            let speedup = baseline.map_or(1.0, |b| stats.keys_per_busy_sec() / b);
            if which == "memc3" {
                baseline = Some(stats.keys_per_busy_sec());
            }
            let _ = writeln!(
                s,
                "  {:<38} {:>6.2} Mkeys/s wire | p50 {:>7.1} us  p95 {:>7.1} us  p99 {:>7.1} us | server {:>5.2}x",
                name,
                r.keys_per_sec / 1e6,
                r.p50_latency_us,
                r.p95_latency_us,
                r.p99_latency_us,
                speedup,
            );
            assert_eq!(r.hits, r.keys, "preloaded keys must all hit over TCP");
        }
    }
    s.push_str(
        "\n(the server-side x factors isolate index cost from the TCP stack; the\n\
         client-side Mkeys/s are loopback-bound and far below the EDR model)\n",
    );
    s
}

/// One shard-sweep point: a sharded store behind a real TCP `Kvsd`,
/// hammered by the pipelined networked memslap client over many
/// connections. Returns the client report plus the final shard balance.
fn run_one_sharded_tcp(
    shards: usize,
    scale: &RunScale,
) -> (simdht_kvs::memslap::ClientReport, Vec<usize>) {
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: scale.kvs_items,
        n_requests: scale.kvs_requests,
        mget_size: 64,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed: 0x4B56_0022,
    });
    let store = Arc::new(KvStore::with_shards(
        StoreConfig {
            memory_budget: (scale.kvs_items * 256).max(8 << 20),
            capacity_items: scale.kvs_items * 2,
            shards,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
        |cap| build_index("hor", cap),
    ));
    let kvsd = Kvsd::bind(Arc::clone(&store), "127.0.0.1:0").expect("bind loopback");
    let transport = TcpTransport::new(kvsd.local_addr()).expect("resolve loopback");
    let report = run_memslap_over(
        &transport,
        &workload,
        &NetMemslapConfig {
            connections: 8,
            pipeline_depth: 16,
            set_fraction: 0.2,
            preload: true,
            ..NetMemslapConfig::default()
        },
    )
    .expect("loopback shard sweep run");
    kvsd.shutdown();
    (report, store.shard_lens())
}

/// `kvs-shard-sweep`: Multi-Get scaling across store shard counts — the
/// tentpole experiment of the sharded-store change. Eight pipelined
/// connections (the kvsd serves each on its own thread, so eight server
/// workers) drive a mixed 20 % Set / 80 % Multi-Get stream over TCP
/// loopback; with one shard every Set serializes the whole store, while
/// with 16 shards writers and the per-shard batched SIMD lookups proceed
/// in parallel.
pub fn kvs_shard_sweep(scale: &RunScale) -> String {
    let mut s = String::from(
        "== kvs-shard-sweep: sharded KvStore Multi-Get scaling over TCP loopback ==\n\
         (simdht-kvsd --shards N, 8 connections x 16-deep pipeline, batch 64,\n\
          20% Sets, horizontal-AVX2 index, skewed keys)\n\n",
    );
    let _ = writeln!(
        s,
        "  {:>6} {:>14} {:>10} {:>10} {:>9} {:>10}",
        "shards", "MGet keys/s", "p50 us", "p99 us", "speedup", "max/mean"
    );
    let mut baseline: Option<f64> = None;
    for shards in [1usize, 4, 16] {
        let (r, lens) = run_one_sharded_tcp(shards, scale);
        let speedup = baseline.map_or(1.0, |b| r.keys_per_sec / b);
        if shards == 1 {
            baseline = Some(r.keys_per_sec);
        }
        let total: usize = lens.iter().sum();
        let mean = total as f64 / lens.len() as f64;
        let max = lens.iter().copied().max().unwrap_or(0) as f64;
        let _ = writeln!(
            s,
            "  {:>6} {:>12.2}M {:>10.1} {:>10.1} {:>8.2}x {:>10.2}",
            shards,
            r.keys_per_sec / 1e6,
            r.p50_latency_us,
            r.p99_latency_us,
            speedup,
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        assert_eq!(r.hits, r.keys, "preloaded keys must all hit");
    }
    s.push_str(
        "\n(writes serialize only within a shard and each Multi-Get batches one\n\
         SIMD lookup per shard under a shared lock; the single-shard store is\n\
         the pre-sharding baseline)\n",
    );
    s
}

/// Prefetch look-ahead distances swept by `kvs-prefetch-sweep` (G = 0 is
/// the no-prefetch baseline the speedups are measured against).
const SWEEP_DEPTHS: [usize; 5] = [0, 2, 4, 8, 16];
/// Multi-Get batch size for the sweep (the paper's large batch point).
const SWEEP_BATCH: usize = 96;

/// splitmix64: deterministic, well-mixed key selection for the sweep.
/// Write a sweep's JSON document to `path` in the working directory and
/// say so (or why not) at the end of its rendered report `s`.
fn write_artifact(path: &str, json: &str, s: &mut String) {
    match std::fs::write(path, json) {
        Ok(()) => {
            let _ = writeln!(s, "\n(measurements written to {path})");
        }
        Err(e) => {
            let _ = writeln!(s, "\n(could not write {path}: {e})");
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The i-th sweep key: 16 bytes, fixed width so Phase 1 takes the SIMD
/// multi-lane hash path.
fn sweep_key(i: usize) -> Vec<u8> {
    format!("pfk-{i:012}").into_bytes()
}

/// The i-th sweep value: 32 deterministic bytes.
fn sweep_value(i: usize) -> [u8; 32] {
    let mut v = [0x5Au8; 32];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

/// One measured sweep point.
struct SweepPoint {
    index: &'static str,
    depth: usize,
    mkeys_per_sec: f64,
}

/// Measure the sweep and render (human table, JSON document). Split from
/// [`kvs_prefetch_sweep`] so tests can run it without touching the
/// filesystem.
fn prefetch_sweep_impl(scale: &RunScale) -> (String, String) {
    let llc = crate::machine::llc_bytes();
    let full = scale.kvs_items >= RunScale::full().kvs_items;
    // Out-of-cache sizing: at full scale the slab holds >= 4 LLCs of
    // 64 B item chunks, so index probes and value reads genuinely miss
    // to DRAM — the regime software prefetching targets. Quick runs keep
    // the configured (cache-resident) item count and only smoke the path.
    let n_items = if full {
        (4 * llc / 64).max(scale.kvs_items)
    } else {
        scale.kvs_items
    };
    let n_batches = scale.kvs_requests;
    let reps = if full { 3 } else { 2 };
    let total_keys = n_batches * SWEEP_BATCH;

    // Pre-generate every batch (uniform over the table: a skewed hot set
    // would sit in cache and mask the misses), and the borrowed slices the
    // timed loop passes to `mget`, so nothing is built while the clock runs.
    let mut rng = 0x5EED_0005u64;
    let batch_keys: Vec<Vec<Vec<u8>>> = (0..n_batches)
        .map(|_| {
            (0..SWEEP_BATCH)
                .map(|_| sweep_key((splitmix64(&mut rng) % n_items as u64) as usize))
                .collect()
        })
        .collect();
    let batches: Vec<Vec<&[u8]>> = batch_keys
        .iter()
        .map(|b| b.iter().map(|k| k.as_slice()).collect())
        .collect();

    let mut s = format!(
        "== kvs-prefetch-sweep: Multi-Get software-prefetch look-ahead (G) sweep ==\n\
         (batch {SWEEP_BATCH}, uniform keys, {n_items} items x 64 B chunks = {} MiB slab,\n\
          LLC {} MiB, {n_batches} requests/point, best of {reps})\n\n",
        (n_items * 64) >> 20,
        llc >> 20,
    );
    let _ = writeln!(
        s,
        "  {:<8} {:>7} {:>14} {:>9}",
        "index", "G", "MGet Mkeys/s", "vs G=0"
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    for which in ["memc3", "hor", "ver", "dpdk", "local"] {
        let store = KvStore::new(
            build_index(which, n_items * 2),
            StoreConfig {
                memory_budget: n_items * 64 + (256 << 20),
                capacity_items: n_items * 2,
                shards: 1,
                prefetch_depth: Some(0),
                ..StoreConfig::default()
            },
        );
        for i in 0..n_items {
            store
                .set(&sweep_key(i), &sweep_value(i))
                .expect("sweep preload");
        }
        let mut resp = MGetResponse::new();
        let mut baseline: Option<f64> = None;
        for depth in SWEEP_DEPTHS {
            store.set_prefetch_depth(depth);
            let mut best = 0.0f64;
            for _ in 0..reps {
                let mut found = 0usize;
                let t0 = std::time::Instant::now();
                for keys in &batches {
                    found += store.mget(keys, &mut resp).found;
                }
                let secs = t0.elapsed().as_secs_f64();
                assert_eq!(found, total_keys, "every sweep key is preloaded");
                best = best.max(total_keys as f64 / secs);
            }
            let speedup = best / *baseline.get_or_insert(best);
            let _ = writeln!(
                s,
                "  {:<8} {:>7} {:>14.2} {:>8.2}x",
                which,
                depth,
                best / 1e6,
                speedup,
            );
            points.push(SweepPoint {
                index: which,
                depth,
                mkeys_per_sec: best / 1e6,
            });
        }
    }

    // Per-index best-G summary (also the acceptance gate of the change:
    // best G should beat G=0 by a clear margin once the table spills LLC).
    s.push('\n');
    let mut best_lines = String::new();
    for which in ["memc3", "hor", "ver", "dpdk", "local"] {
        let base = points
            .iter()
            .find(|p| p.index == which && p.depth == 0)
            .map_or(1.0, |p| p.mkeys_per_sec);
        let best = points
            .iter()
            .filter(|p| p.index == which)
            .max_by(|a, b| a.mkeys_per_sec.total_cmp(&b.mkeys_per_sec))
            .expect("swept every index");
        let _ = writeln!(
            s,
            "  best for {:<8} G={:<3} {:.2} Mkeys/s ({:+.1}% over G=0)",
            which,
            best.depth,
            best.mkeys_per_sec,
            (best.mkeys_per_sec / base - 1.0) * 100.0,
        );
        if !best_lines.is_empty() {
            best_lines.push_str(",\n");
        }
        let _ = write!(
            best_lines,
            "    {{\"index\": \"{}\", \"best_depth\": {}, \"best_mkeys_per_sec\": {:.3}, \"speedup_vs_no_prefetch\": {:.4}}}",
            which, best.depth, best.mkeys_per_sec, best.mkeys_per_sec / base,
        );
    }

    let mut result_lines = String::new();
    for p in &points {
        let base = points
            .iter()
            .find(|q| q.index == p.index && q.depth == 0)
            .map_or(1.0, |q| q.mkeys_per_sec);
        if !result_lines.is_empty() {
            result_lines.push_str(",\n");
        }
        let _ = write!(
            result_lines,
            "    {{\"index\": \"{}\", \"depth\": {}, \"mkeys_per_sec\": {:.3}, \"speedup_vs_no_prefetch\": {:.4}}}",
            p.index, p.depth, p.mkeys_per_sec, p.mkeys_per_sec / base,
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"kvs-prefetch-sweep\",\n  \"mode\": \"{}\",\n  \
         \"llc_bytes\": {llc},\n  \"table_bytes\": {},\n  \"n_items\": {n_items},\n  \
         \"batch\": {SWEEP_BATCH},\n  \"requests_per_point\": {n_batches},\n  \
         \"depths\": [0, 2, 4, 8, 16],\n  \"results\": [\n{result_lines}\n  ],\n  \
         \"best\": [\n{best_lines}\n  ]\n}}\n",
        if full { "full" } else { "quick" },
        n_items * 64,
    );
    (s, json)
}

/// `kvs-prefetch-sweep`: Multi-Get throughput vs. software-prefetch
/// look-ahead distance G, per index family, on a table sized well past the
/// LLC. G = 0 runs the plain data path; G > 0 engages the staged
/// prefetching of DESIGN.md §9 across the index probe, the item table and
/// the slab. Writes the measurements to `BENCH_kvs_mget.json` in the
/// working directory.
pub fn kvs_prefetch_sweep(scale: &RunScale) -> String {
    let (mut s, json) = prefetch_sweep_impl(scale);
    write_artifact("BENCH_kvs_mget.json", &json, &mut s);
    s
}

/// Write fractions swept by `kvs-setpath-sweep` (share of batches that
/// are writes; the rest are Multi-Gets).
const SETPATH_FRACS: [f64; 3] = [0.25, 0.5, 1.0];

/// One measured set-path point: the same mixed batch stream applied with
/// sequential `set` calls vs one `set_multi` per write batch.
struct SetPathPoint {
    index: &'static str,
    write_frac: f64,
    sequential_mkeys: f64,
    batched_mkeys: f64,
}

/// Measure the write-path sweep and render (human table, JSON document).
/// Split from [`kvs_setpath_sweep`] so tests can run it without touching
/// the filesystem.
fn setpath_sweep_impl(scale: &RunScale) -> (String, String) {
    use simdht_kvs::store::SetMultiBatch;

    let llc = crate::machine::llc_bytes();
    let full = scale.kvs_items >= RunScale::full().kvs_items;
    // Same out-of-cache sizing as the prefetch sweep: the batched write
    // path's prefetch staging only matters once bucket probes and slab
    // rows miss to DRAM.
    let n_items = if full {
        (4 * llc / 64).max(scale.kvs_items)
    } else {
        scale.kvs_items
    };
    let n_batches = scale.kvs_requests;
    let reps = if full { 3 } else { 2 };
    let total_keys = n_batches * SWEEP_BATCH;

    let mut s = format!(
        "== kvs-setpath-sweep: batched set_multi vs sequential Sets, by write fraction ==\n\
         (batch {SWEEP_BATCH}, uniform keys over {n_items} preloaded items, {n_batches}\n\
          batches/point, best of {reps}; writes replace in place, reads are Multi-Gets)\n\n",
    );
    let _ = writeln!(
        s,
        "  {:<8} {:>10} {:>16} {:>14} {:>9}",
        "index", "write frac", "sequential Mk/s", "batched Mk/s", "speedup"
    );

    let mut points: Vec<SetPathPoint> = Vec::new();
    for which in ["memc3", "hor", "ver", "dpdk", "local"] {
        for frac in SETPATH_FRACS {
            // Pre-generate the mixed stream: per batch, a coin decides
            // write (SWEEP_BATCH replacement pairs with fresh values) or
            // read (SWEEP_BATCH lookups). Both modes replay the exact
            // same stream, so the stores evolve identically.
            let mut rng = 0x5E7_0001u64 ^ (frac.to_bits().rotate_left(17));
            let mut fresh = 0u64;
            let mut read_keys: Vec<Vec<Vec<u8>>> = Vec::new();
            let mut write_pairs: Vec<Vec<(Vec<u8>, [u8; 32])>> = Vec::new();
            // (is_write, index into the respective per-kind vec).
            let mut ops: Vec<(bool, usize)> = Vec::with_capacity(n_batches);
            for _ in 0..n_batches {
                let is_write = (splitmix64(&mut rng) as f64 / u64::MAX as f64) < frac;
                if is_write {
                    let pairs = (0..SWEEP_BATCH)
                        .map(|_| {
                            let i = (splitmix64(&mut rng) % n_items as u64) as usize;
                            fresh += 1;
                            let mut v = sweep_value(i);
                            v[8..16].copy_from_slice(&fresh.to_le_bytes());
                            (sweep_key(i), v)
                        })
                        .collect();
                    ops.push((true, write_pairs.len()));
                    write_pairs.push(pairs);
                } else {
                    let keys = (0..SWEEP_BATCH)
                        .map(|_| sweep_key((splitmix64(&mut rng) % n_items as u64) as usize))
                        .collect();
                    ops.push((false, read_keys.len()));
                    read_keys.push(keys);
                }
            }
            let reads: Vec<Vec<&[u8]>> = read_keys
                .iter()
                .map(|b| b.iter().map(|k| k.as_slice()).collect())
                .collect();
            let writes: Vec<Vec<(&[u8], &[u8])>> = write_pairs
                .iter()
                .map(|b| {
                    b.iter()
                        .map(|(k, v)| (k.as_slice(), v.as_slice()))
                        .collect()
                })
                .collect();

            // One store per mode; the streams only replace preloaded
            // keys, so neither store grows or evicts mid-measurement.
            let mut best = [0.0f64; 2];
            for (slot, batched) in [(0usize, false), (1usize, true)] {
                let store = KvStore::new(
                    build_index(which, n_items * 2),
                    StoreConfig {
                        memory_budget: n_items * 64 + (256 << 20),
                        capacity_items: n_items * 2,
                        shards: 1,
                        prefetch_depth: None,
                        ..StoreConfig::default()
                    },
                );
                for i in 0..n_items {
                    store
                        .set(&sweep_key(i), &sweep_value(i))
                        .expect("setpath preload");
                }
                let mut resp = MGetResponse::new();
                let mut scratch = SetMultiBatch::new();
                for _ in 0..reps {
                    let t0 = std::time::Instant::now();
                    for &(is_write, i) in &ops {
                        if is_write {
                            if batched {
                                let outcome = store.set_multi(&writes[i], &mut scratch);
                                assert_eq!(outcome.stored, SWEEP_BATCH, "replaces never fail");
                            } else {
                                for (k, v) in &writes[i] {
                                    store.set(k, v).expect("replaces never fail");
                                }
                            }
                        } else {
                            let got = store.mget(&reads[i], &mut resp).found;
                            assert_eq!(got, SWEEP_BATCH, "every sweep key is preloaded");
                        }
                    }
                    let secs = t0.elapsed().as_secs_f64();
                    best[slot] = best[slot].max(total_keys as f64 / secs);
                }
            }
            let _ = writeln!(
                s,
                "  {:<8} {:>10.2} {:>16.2} {:>14.2} {:>8.2}x",
                which,
                frac,
                best[0] / 1e6,
                best[1] / 1e6,
                best[1] / best[0],
            );
            points.push(SetPathPoint {
                index: which,
                write_frac: frac,
                sequential_mkeys: best[0] / 1e6,
                batched_mkeys: best[1] / 1e6,
            });
        }
    }

    // Acceptance: the batched path beats sequential Sets at every swept
    // write fraction (all >= 0.25) on the memc3 and horizontal indexes.
    let gate = points
        .iter()
        .filter(|p| p.index == "memc3" || p.index == "hor")
        .all(|p| p.batched_mkeys >= p.sequential_mkeys);
    let _ = writeln!(
        s,
        "\n  acceptance: batched >= sequential at write fractions >= 0.25\n  \
         on memc3 + horizontal: {}",
        if gate { "PASS" } else { "FAIL" },
    );

    let mut result_lines = String::new();
    for p in &points {
        if !result_lines.is_empty() {
            result_lines.push_str(",\n");
        }
        let _ = write!(
            result_lines,
            "    {{\"index\": \"{}\", \"write_frac\": {:.2}, \"sequential_mkeys_per_sec\": {:.3}, \
             \"batched_mkeys_per_sec\": {:.3}, \"speedup\": {:.4}}}",
            p.index,
            p.write_frac,
            p.sequential_mkeys,
            p.batched_mkeys,
            p.batched_mkeys / p.sequential_mkeys.max(1e-12),
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"kvs-setpath-sweep\",\n  \"mode\": \"{}\",\n  \
         \"llc_bytes\": {llc},\n  \"n_items\": {n_items},\n  \"batch\": {SWEEP_BATCH},\n  \
         \"batches_per_point\": {n_batches},\n  \"write_fracs\": [0.25, 0.5, 1.0],\n  \
         \"results\": [\n{result_lines}\n  ],\n  \
         \"acceptance\": {{\"indexes\": [\"memc3\", \"hor\"], \"min_write_frac\": 0.25, \
         \"batched_beats_sequential\": {gate}}}\n}}\n",
        if full { "full" } else { "quick" },
    );
    (s, json)
}

/// `kvs-setpath-sweep`: the write-fraction dimension of the prefetch
/// sweep — mixed batch streams at growing write fractions, with every
/// write batch applied once as sequential `set` calls and once as one
/// `KvStore::set_multi` (interleaved SIMD hashing, one lock + seqlock
/// session per shard group, G-ahead bucket/slab prefetch staging).
/// Writes the measurements to `BENCH_kvs_setpath.json` in the working
/// directory.
pub fn kvs_setpath_sweep(scale: &RunScale) -> String {
    let (mut s, json) = setpath_sweep_impl(scale);
    write_artifact("BENCH_kvs_setpath.json", &json, &mut s);
    s
}

/// Prefetch look-ahead depths probed per workload by `kvs-local-sweep`
/// (0 = plain probe loop; 8 = the G-ahead AMAC pipeline each bucketized
/// index shares).
const LOCAL_DEPTHS: [usize; 2] = [0, 8];
/// Index families compared by `kvs-local-sweep`: the indirect-SIMD
/// references (`memc3` scalar-probe, `dpdk` SSE-probe — tags on a separate
/// line from the entries), the direct-SIMD reference (`hor` — full keys in
/// the table, 4 entries per line) and the localized-SIMD contender.
const LOCAL_INDEXES: [&str; 4] = ["memc3", "dpdk", "hor", "local"];

/// The i-th never-preloaded key for the find_miss workload (distinct
/// prefix, same fixed width as [`sweep_key`]).
fn absent_key(i: usize) -> Vec<u8> {
    format!("abs-{i:012}").into_bytes()
}

/// One measured localized-SIMD sweep point.
struct LocalSweepPoint {
    index: &'static str,
    workload: &'static str,
    depth: usize,
    mkeys_per_sec: f64,
}

/// Measure the localized-SIMD sweep and render (human table, JSON
/// document). Split from [`kvs_local_sweep`] so tests can run it without
/// touching the filesystem.
fn local_sweep_impl(scale: &RunScale) -> (String, String) {
    let llc = crate::machine::llc_bytes();
    let line = crate::machine::coherency_line_size();
    let full = scale.kvs_items >= RunScale::full().kvs_items;
    // Same out-of-cache sizing as the prefetch sweep: the cache-line
    // argument (one line per find_hit vs two) only shows once probes miss
    // to DRAM.
    let n_items = if full {
        (4 * llc / 64).max(scale.kvs_items)
    } else {
        scale.kvs_items
    };
    let n_batches = scale.kvs_requests;
    let reps = if full { 3 } else { 2 };
    let total_keys = n_batches * SWEEP_BATCH;

    // find_hit: every key preloaded (uniform — a skewed hot set would sit
    // in cache and mask the line-count difference). find_miss: half the
    // keys drawn from a never-preloaded namespace, the regime where probes
    // scan every candidate slot before concluding absence.
    let mut rng = 0x10CA_1005u64;
    let hit_keys: Vec<Vec<Vec<u8>>> = (0..n_batches)
        .map(|_| {
            (0..SWEEP_BATCH)
                .map(|_| sweep_key((splitmix64(&mut rng) % n_items as u64) as usize))
                .collect()
        })
        .collect();
    let mut present_in_miss = 0usize;
    let miss_keys: Vec<Vec<Vec<u8>>> = (0..n_batches)
        .map(|_| {
            (0..SWEEP_BATCH)
                .map(|_| {
                    let r = splitmix64(&mut rng);
                    let i = (r % n_items as u64) as usize;
                    if r & (1 << 63) == 0 {
                        present_in_miss += 1;
                        sweep_key(i)
                    } else {
                        absent_key(i)
                    }
                })
                .collect()
        })
        .collect();
    let hit_refs: Vec<Vec<&[u8]>> = hit_keys
        .iter()
        .map(|b| b.iter().map(|k| k.as_slice()).collect())
        .collect();
    let miss_refs: Vec<Vec<&[u8]>> = miss_keys
        .iter()
        .map(|b| b.iter().map(|k| k.as_slice()).collect())
        .collect();

    let mut s = format!(
        "== kvs-local-sweep: localized-SIMD (F14-style) index vs indirect/direct SIMD ==\n\
         (batch {SWEEP_BATCH}, uniform keys, {n_items} items x 64 B chunks = {} MiB slab,\n\
          LLC {} MiB, line {line} B, bucket 64 B, {n_batches} requests/point, best of {reps};\n\
          find_hit = 100% present, find_miss = ~50% absent keys)\n\n",
        (n_items * 64) >> 20,
        llc >> 20,
    );
    let _ = writeln!(
        s,
        "  {:<8} {:<10} {:>3} {:>14}",
        "index", "workload", "G", "MGet Mkeys/s"
    );

    let mut points: Vec<LocalSweepPoint> = Vec::new();
    for which in LOCAL_INDEXES {
        let store = KvStore::new(
            build_index(which, n_items * 2),
            StoreConfig {
                memory_budget: n_items * 64 + (256 << 20),
                capacity_items: n_items * 2,
                shards: 1,
                prefetch_depth: Some(0),
                ..StoreConfig::default()
            },
        );
        for i in 0..n_items {
            store
                .set(&sweep_key(i), &sweep_value(i))
                .expect("local-sweep preload");
        }
        let mut resp = MGetResponse::new();
        for (workload, batches, expect_found) in [
            ("find_hit", &hit_refs, total_keys),
            ("find_miss", &miss_refs, present_in_miss),
        ] {
            for depth in LOCAL_DEPTHS {
                store.set_prefetch_depth(depth);
                let mut best = 0.0f64;
                for _ in 0..reps {
                    let mut found = 0usize;
                    let t0 = std::time::Instant::now();
                    for keys in batches {
                        found += store.mget(keys, &mut resp).found;
                    }
                    let secs = t0.elapsed().as_secs_f64();
                    assert_eq!(found, expect_found, "{which}/{workload} hit accounting");
                    best = best.max(total_keys as f64 / secs);
                }
                let _ = writeln!(
                    s,
                    "  {:<8} {:<10} {:>3} {:>14.2}",
                    which,
                    workload,
                    depth,
                    best / 1e6,
                );
                points.push(LocalSweepPoint {
                    index: which,
                    workload,
                    depth,
                    mkeys_per_sec: best / 1e6,
                });
            }
        }
    }

    let best_of = |index: &str, workload: &str| -> f64 {
        points
            .iter()
            .filter(|p| p.index == index && p.workload == workload)
            .map(|p| p.mkeys_per_sec)
            .fold(0.0, f64::max)
    };

    // Acceptance gates (recorded, asserted only on committed full runs):
    // localized SIMD beats the indirect reference where hits dominate (it
    // touches one line per hit, memc3 two) and the direct reference where
    // misses dominate (7 rejected candidates per line vs 4).
    let hit_ratio = best_of("local", "find_hit") / best_of("memc3", "find_hit").max(1e-12);
    let miss_ratio = best_of("local", "find_miss") / best_of("hor", "find_miss").max(1e-12);
    let mut best_lines = String::new();
    for which in LOCAL_INDEXES {
        for workload in ["find_hit", "find_miss"] {
            let best = points
                .iter()
                .filter(|p| p.index == which && p.workload == workload)
                .max_by(|a, b| a.mkeys_per_sec.total_cmp(&b.mkeys_per_sec))
                .expect("swept every index x workload");
            let _ = writeln!(
                s,
                "  best for {:<8} {:<10} G={:<3} {:.2} Mkeys/s",
                which, workload, best.depth, best.mkeys_per_sec,
            );
            if !best_lines.is_empty() {
                best_lines.push_str(",\n");
            }
            let _ = write!(
                best_lines,
                "    {{\"index\": \"{}\", \"workload\": \"{}\", \"best_depth\": {}, \
                 \"best_mkeys_per_sec\": {:.3}}}",
                which, workload, best.depth, best.mkeys_per_sec,
            );
        }
    }
    let _ = writeln!(
        s,
        "\n  gates: find_hit local/memc3 = {:.3} [{}]   find_miss local/hor = {:.3} [{}]",
        hit_ratio,
        if hit_ratio >= 1.0 { "PASS" } else { "FAIL" },
        miss_ratio,
        if miss_ratio >= 1.0 { "PASS" } else { "FAIL" },
    );

    let mut result_lines = String::new();
    for p in &points {
        if !result_lines.is_empty() {
            result_lines.push_str(",\n");
        }
        let _ = write!(
            result_lines,
            "    {{\"index\": \"{}\", \"workload\": \"{}\", \"depth\": {}, \
             \"mkeys_per_sec\": {:.3}}}",
            p.index, p.workload, p.depth, p.mkeys_per_sec,
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"kvs-local-sweep\",\n  \"mode\": \"{}\",\n  \
         \"llc_bytes\": {llc},\n  \"coherency_line_size\": {line},\n  \
         \"bucket_bytes\": 64,\n  \"bucket_fits_line\": {},\n  \
         \"table_bytes\": {},\n  \"n_items\": {n_items},\n  \"batch\": {SWEEP_BATCH},\n  \
         \"requests_per_point\": {n_batches},\n  \"depths\": [0, 8],\n  \
         \"results\": [\n{result_lines}\n  ],\n  \"best\": [\n{best_lines}\n  ],\n  \
         \"gates\": [\n    \
         {{\"name\": \"find_hit_local_vs_memc3\", \"ratio\": {hit_ratio:.4}, \"pass\": {}}},\n    \
         {{\"name\": \"find_miss_local_vs_hor\", \"ratio\": {miss_ratio:.4}, \"pass\": {}}}\n  ]\n}}\n",
        if full { "full" } else { "quick" },
        64 <= line,
        n_items * 64,
        hit_ratio >= 1.0,
        miss_ratio >= 1.0,
    );
    (s, json)
}

/// `kvs-local-sweep`: find_hit- vs find_miss-dominated Multi-Get
/// throughput for the localized-SIMD `local` index against its indirect
/// (`memc3`, `dpdk`) and direct (`hor`) SIMD references, on a table sized
/// well past the LLC. Emits the machine's coherency line size next to the
/// 64-byte bucket claim and records the two acceptance-gate ratios.
/// Writes the measurements to `BENCH_kvs_local.json` in the working
/// directory.
pub fn kvs_local_sweep(scale: &RunScale) -> String {
    let (mut s, json) = local_sweep_impl(scale);
    write_artifact("BENCH_kvs_local.json", &json, &mut s);
    s
}

/// One measured point of the reactor conns x depth grid.
struct ReactorPoint {
    conns: usize,
    depth: usize,
    keys_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    mean_batch_width: f64,
    width_fires: u64,
    timeout_fires: u64,
}

/// One thread-per-connection baseline point.
struct BaselinePoint {
    conns: usize,
    keys_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Keys per Multi-Get in the reactor sweep: deliberately *below* the
/// SIMD/prefetch width, so a wide server-side batch can only come from
/// coalescing across connections.
const REACTOR_MGET: usize = 4;

/// Build the sweep workload for one grid point.
fn reactor_workload(n_items: usize, n_requests: usize) -> KvWorkload {
    KvWorkload::generate(&KvWorkloadSpec {
        n_items,
        n_requests,
        mget_size: REACTOR_MGET,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed: 0x4B56_0033,
    })
}

/// Fresh store for one sweep point (horizontal SIMD index, auto-tuned
/// prefetch depth — the width the reactor must feed).
fn reactor_store(n_items: usize) -> Arc<KvStore> {
    Arc::new(KvStore::new(
        build_index("hor", n_items * 2),
        StoreConfig {
            memory_budget: (n_items * 256).max(8 << 20),
            capacity_items: n_items * 2,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
    ))
}

/// Measure the reactor sweep and render (human table, JSON document).
/// Split from [`kvs_reactor_sweep`] so tests can run it without touching
/// the filesystem.
fn reactor_sweep_impl(scale: &RunScale) -> (String, String) {
    use simdht_kvs::memslap::{run_memslap_mux, MuxMemslapConfig};
    use simdht_kvs::reactor::{ReactorConfig, ReactorServer};

    let full = scale.kvs_items >= RunScale::full().kvs_items;
    // The sweep probes batching behaviour, not cache residency: cap the
    // item set so per-point over-the-wire preloads stay cheap.
    let n_items = scale.kvs_items.min(20_000);
    // 400 connections = 800 fds, inside default ulimits for quick/CI
    // runs; the acceptance point of the full run is the paper-shaped
    // 1000 connections.
    let conn_grid: &[usize] = if full {
        &[16, 64, 256, 1000]
    } else {
        &[8, 32, 128, 400]
    };
    let depth_grid: &[usize] = &[1, 4];
    let target_conns = *conn_grid.last().expect("non-empty grid");
    let prefetch_width = reactor_store(16).prefetch_depth();

    let mut s = format!(
        "== kvs-reactor-sweep: cross-connection batch coalescing over TCP loopback ==\n\
         (simdht-kvsd --reactor vs thread-per-connection; {REACTOR_MGET}-key MGets, skewed,\n\
          horizontal-AVX2 index, prefetch width {prefetch_width}, coalesce 100us, batch width 64)\n\n",
    );

    // Thread-per-connection baseline: depth-1 small MGets at a few
    // connection counts; its best point is the bar the reactor must beat.
    s.push_str("-- thread-per-connection baseline (depth 1) --\n");
    let _ = writeln!(
        s,
        "  {:>6} {:>14} {:>10} {:>10}",
        "conns", "MGet keys/s", "p50 us", "p99 us"
    );
    // Launch-to-launch variance on a shared single core is large, so
    // every point is measured over `reps` fresh server instances and the
    // best rep is reported (the prefetch sweep's convention).
    let reps = if full { 2 } else { 1 };
    let mut baseline: Vec<BaselinePoint> = Vec::new();
    for &conns in &[2usize, 4, 8, 16] {
        let n_requests = (conns * 64).max(scale.kvs_requests);
        let workload = reactor_workload(n_items, n_requests);
        let mut best: Option<BaselinePoint> = None;
        for _ in 0..reps {
            let kvsd = Kvsd::bind(reactor_store(n_items), "127.0.0.1:0").expect("bind baseline");
            let transport = TcpTransport::new(kvsd.local_addr()).expect("resolve loopback");
            let r = run_memslap_over(
                &transport,
                &workload,
                &NetMemslapConfig {
                    connections: conns,
                    pipeline_depth: 1,
                    set_fraction: 0.0,
                    preload: true,
                    ..NetMemslapConfig::default()
                },
            )
            .expect("baseline run");
            kvsd.shutdown();
            assert_eq!(r.hits, r.keys, "preloaded keys must all hit");
            if best
                .as_ref()
                .is_none_or(|b| r.keys_per_sec > b.keys_per_sec)
            {
                best = Some(BaselinePoint {
                    conns,
                    keys_per_sec: r.keys_per_sec,
                    p50_us: r.p50_latency_us,
                    p99_us: r.p99_latency_us,
                });
            }
        }
        let b = best.expect("at least one rep");
        let _ = writeln!(
            s,
            "  {:>6} {:>12.3}M {:>10.1} {:>10.1}",
            conns,
            b.keys_per_sec / 1e6,
            b.p50_us,
            b.p99_us,
        );
        baseline.push(b);
    }
    let best_base = baseline
        .iter()
        .max_by(|a, b| a.keys_per_sec.total_cmp(&b.keys_per_sec))
        .expect("swept baseline");
    let _ = writeln!(
        s,
        "  best: {} connections, {:.3} Mkeys/s",
        best_base.conns,
        best_base.keys_per_sec / 1e6,
    );

    // Reactor grid: multiplexed client, conns x depth.
    s.push_str("\n-- reactor (--reactor, multiplexed client) --\n");
    let _ = writeln!(
        s,
        "  {:>6} {:>6} {:>14} {:>10} {:>10} {:>11} {:>14}",
        "conns", "depth", "MGet keys/s", "p50 us", "p99 us", "batch width", "fires w/t"
    );
    let mut points: Vec<ReactorPoint> = Vec::new();
    // Enough requests per point that steady-state coalescing dominates
    // the connect/adopt ramp (a 1000-connection point at 8 requests per
    // connection measures mostly startup).
    let reqs_per_conn = if full { 40 } else { 10 };
    for &conns in conn_grid {
        for &depth in depth_grid {
            let n_requests = (conns * reqs_per_conn).max(scale.kvs_requests);
            let workload = reactor_workload(n_items, n_requests);
            let mut best: Option<ReactorPoint> = None;
            for _ in 0..reps {
                let server = ReactorServer::bind_with(
                    reactor_store(n_items),
                    "127.0.0.1:0",
                    ReactorConfig {
                        reactors: 1,
                        ..ReactorConfig::default()
                    },
                )
                .expect("bind reactor");
                let r = run_memslap_mux(
                    server.local_addr(),
                    &workload,
                    &MuxMemslapConfig {
                        connections: conns,
                        pipeline_depth: depth,
                        preload: true,
                        ..MuxMemslapConfig::default()
                    },
                )
                .expect("reactor sweep run");
                let snaps = server.reactor_snapshots();
                server.shutdown();
                assert_eq!(r.failed, 0, "loopback sweep must not drop requests");
                assert_eq!(r.hits, r.keys, "preloaded keys must all hit");
                let batches: u64 = snaps.iter().map(|x| x.batches).sum();
                let batch_keys: u64 = snaps.iter().map(|x| x.batch_keys).sum();
                let width = if batches == 0 {
                    0.0
                } else {
                    batch_keys as f64 / batches as f64
                };
                if best
                    .as_ref()
                    .is_none_or(|b| r.keys_per_sec > b.keys_per_sec)
                {
                    best = Some(ReactorPoint {
                        conns,
                        depth,
                        keys_per_sec: r.keys_per_sec,
                        p50_us: r.p50_latency_us,
                        p99_us: r.p99_latency_us,
                        mean_batch_width: width,
                        width_fires: snaps.iter().map(|x| x.width_fires).sum(),
                        timeout_fires: snaps.iter().map(|x| x.timeout_fires).sum(),
                    });
                }
            }
            let p = best.expect("at least one rep");
            let _ = writeln!(
                s,
                "  {:>6} {:>6} {:>12.3}M {:>10.1} {:>10.1} {:>11.2} {:>7}/{}",
                conns,
                depth,
                p.keys_per_sec / 1e6,
                p.p50_us,
                p.p99_us,
                p.mean_batch_width,
                p.width_fires,
                p.timeout_fires,
            );
            points.push(p);
        }
    }

    // Acceptance: at the many-small-connections point (max conns, depth
    // 1) the reactor must feed the SIMD/prefetch width from 4-key
    // requests AND beat the best thread-per-connection throughput.
    let accept = points
        .iter()
        .find(|p| p.conns == target_conns && p.depth == 1)
        .expect("grid contains the acceptance point");
    let width_ok = accept.mean_batch_width >= prefetch_width as f64;
    let thr_ok = accept.keys_per_sec >= best_base.keys_per_sec;
    let _ = writeln!(
        s,
        "\nacceptance at {} conns x depth 1:\n  \
         mean server batch width {:.2} >= prefetch width {} : {}\n  \
         {:.3} Mkeys/s >= best thread-per-conn {:.3} Mkeys/s ({} conns): {}",
        target_conns,
        accept.mean_batch_width,
        prefetch_width,
        if width_ok { "PASS" } else { "FAIL" },
        accept.keys_per_sec / 1e6,
        best_base.keys_per_sec / 1e6,
        best_base.conns,
        if thr_ok { "PASS" } else { "FAIL" },
    );

    let mut base_lines = String::new();
    for b in &baseline {
        if !base_lines.is_empty() {
            base_lines.push_str(",\n");
        }
        let _ = write!(
            base_lines,
            "    {{\"conns\": {}, \"keys_per_sec\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
            b.conns, b.keys_per_sec, b.p50_us, b.p99_us,
        );
    }
    let mut grid_lines = String::new();
    for p in &points {
        if !grid_lines.is_empty() {
            grid_lines.push_str(",\n");
        }
        let _ = write!(
            grid_lines,
            "    {{\"conns\": {}, \"depth\": {}, \"keys_per_sec\": {:.1}, \"p50_us\": {:.2}, \
             \"p99_us\": {:.2}, \"mean_batch_width\": {:.3}, \"width_fires\": {}, \
             \"timeout_fires\": {}}}",
            p.conns,
            p.depth,
            p.keys_per_sec,
            p.p50_us,
            p.p99_us,
            p.mean_batch_width,
            p.width_fires,
            p.timeout_fires,
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"kvs-reactor-sweep\",\n  \"mode\": \"{}\",\n  \
         \"mget\": {REACTOR_MGET},\n  \"n_items\": {n_items},\n  \
         \"prefetch_width\": {prefetch_width},\n  \"coalesce_us\": 100,\n  \
         \"batch_width\": 64,\n  \"baseline_thread_per_conn\": [\n{base_lines}\n  ],\n  \
         \"baseline_best\": {{\"conns\": {}, \"keys_per_sec\": {:.1}}},\n  \
         \"reactor_grid\": [\n{grid_lines}\n  ],\n  \
         \"acceptance\": {{\"conns\": {}, \"depth\": 1, \"mean_batch_width\": {:.3}, \
         \"batch_width_ok\": {}, \"keys_per_sec\": {:.1}, \"throughput_ok\": {}}}\n}}\n",
        if full { "full" } else { "quick" },
        best_base.conns,
        best_base.keys_per_sec,
        target_conns,
        accept.mean_batch_width,
        width_ok,
        accept.keys_per_sec,
        thr_ok,
    );
    (s, json)
}

/// `kvs-reactor-sweep`: the many-small-connections grid — a multiplexed
/// client drives conns x depth combinations against the event-driven
/// reactor server, reporting the achieved server-side batch width next
/// to client latency percentiles, with the thread-per-connection server
/// swept as the baseline. Writes the measurements to
/// `BENCH_kvs_reactor.json` in the working directory.
pub fn kvs_reactor_sweep(scale: &RunScale) -> String {
    let (mut s, json) = reactor_sweep_impl(scale);
    write_artifact("BENCH_kvs_reactor.json", &json, &mut s);
    s
}

/// Reader thread counts swept by `kvs-readscale-sweep`.
const READSCALE_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Keys per Multi-Get in the read-scaling sweep. Single-key batches (the
/// memcached GET shape) do not amortize the lock acquisition, so the
/// shard `RwLock`'s atomic RMWs are the per-read cost the seqlock path
/// removes — the width most favourable to dropping the lock. At 16 (the
/// served Multi-Get shape) the lock is amortized over the batch while the
/// optimistic path's per-value copy-out is not.
const READSCALE_BATCHES: [usize; 2] = [1, 16];

/// One measured read-scaling point.
struct ReadScalePoint {
    batch: usize,
    mode: ReadMode,
    threads: usize,
    mkeys_per_sec: f64,
}

/// Measure one (mode, threads) point: `threads` reader threads hammer a
/// quiescent single-shard store with Multi-Gets over pre-generated,
/// equally wide key batches; returns aggregate keys/s.
fn readscale_point(
    store: &Arc<KvStore>,
    mode: ReadMode,
    threads: usize,
    batches: &[Vec<Vec<u8>>],
    loops: usize,
) -> f64 {
    store.set_read_mode(mode);
    let barrier = std::sync::Barrier::new(threads + 1);
    let width = batches[0].len();
    let total_keys = threads * loops * batches.len() * width;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(store);
            let barrier = &barrier;
            s.spawn(move || {
                let refs: Vec<Vec<&[u8]>> = batches
                    .iter()
                    .map(|b| b.iter().map(|k| k.as_slice()).collect())
                    .collect();
                let mut resp = MGetResponse::new();
                barrier.wait(); // start line
                let mut found = 0usize;
                // Stagger start offsets so threads don't probe in lockstep.
                let skip = (t * refs.len()) / threads.max(1);
                for keys in refs.iter().cycle().skip(skip).take(loops * refs.len()) {
                    found += store.mget(keys, &mut resp).found;
                }
                assert_eq!(found, loops * refs.len() * width, "all keys preloaded");
                barrier.wait(); // finish line
            });
        }
        barrier.wait();
        let t0 = std::time::Instant::now();
        barrier.wait();
        total_keys as f64 / t0.elapsed().as_secs_f64()
    })
}

/// Measure the read-scaling sweep and render (human table, JSON
/// document). Split from [`kvs_readscale_sweep`] so tests can run it
/// without touching the filesystem.
fn readscale_sweep_impl(scale: &RunScale) -> (String, String) {
    let full = scale.kvs_items >= RunScale::full().kvs_items;
    // In-cache sizing on purpose: with DRAM misses out of the picture,
    // per-operation synchronization (the shard RwLock's atomic RMW vs.
    // the seqlock's plain loads) dominates, which is exactly the cost
    // the optimistic read path removes.
    let n_items = scale.kvs_items.clamp(300, 50_000);
    let n_batches = scale.kvs_requests.max(16);
    let reps = if full { 5 } else { 2 };
    // Loop the batch set so each timed window is O(100 ms), not O(ms):
    // sub-5ms windows measure scheduler wake latency, not the store.
    let loops = if full { 50 } else { 2 };

    let store = Arc::new(KvStore::new(
        build_index("hor", n_items * 2),
        StoreConfig {
            memory_budget: (n_items * 64).max(8 << 20),
            capacity_items: n_items * 2,
            shards: 1, // single shard = maximum read-lock contention
            prefetch_depth: Some(0),
            ..StoreConfig::default()
        },
    ));
    for i in 0..n_items {
        store
            .set(&sweep_key(i), &sweep_value(i))
            .expect("readscale preload");
    }
    let mut s = format!(
        "== kvs-readscale-sweep: GET/MGET reader scaling, locked vs optimistic ==\n\
         (single-shard hor index, {n_items} in-cache items, batch widths {READSCALE_BATCHES:?},\n\
          {n_batches} requests/thread/point, best of {reps}; DESIGN.md §11)\n\n",
    );
    let _ = writeln!(
        s,
        "  {:>5} {:<12} {:>8} {:>14} {:>12}",
        "batch", "read mode", "threads", "MGet Mkeys/s", "vs locked"
    );

    const MODES: [ReadMode; 2] = [ReadMode::Locked, ReadMode::Optimistic];
    let mut rng = 0x5EED_0007u64;
    let mut points: Vec<ReadScalePoint> = Vec::new();
    for batch in READSCALE_BATCHES {
        let batches: Vec<Vec<Vec<u8>>> = (0..n_batches)
            .map(|_| {
                (0..batch)
                    .map(|_| sweep_key((splitmix64(&mut rng) % n_items as u64) as usize))
                    .collect()
            })
            .collect();
        for threads in READSCALE_THREADS {
            // Interleave the two modes within each repetition so slow
            // frequency drift on the host biases neither side.
            let mut best = [0.0f64; 2];
            for _ in 0..reps {
                for (slot, mode) in MODES.into_iter().enumerate() {
                    let keys_per_sec = readscale_point(&store, mode, threads, &batches, loops);
                    best[slot] = best[slot].max(keys_per_sec);
                }
            }
            for (slot, mode) in MODES.into_iter().enumerate() {
                points.push(ReadScalePoint {
                    batch,
                    mode,
                    threads,
                    mkeys_per_sec: best[slot] / 1e6,
                });
            }
        }
    }
    points.sort_by_key(|p| (p.batch, p.mode != ReadMode::Locked, p.threads));
    let vs_locked = |p: &ReadScalePoint| {
        let locked = points
            .iter()
            .find(|l| (l.batch, l.mode, l.threads) == (p.batch, ReadMode::Locked, p.threads));
        p.mkeys_per_sec / locked.map_or(1.0, |l| l.mkeys_per_sec)
    };
    let mut result_lines = String::new();
    for p in &points {
        let _ = writeln!(
            s,
            "  {:>5} {:<12} {:>8} {:>14.2} {:>11.2}x",
            p.batch,
            p.mode.name(),
            p.threads,
            p.mkeys_per_sec,
            vs_locked(p),
        );
        if !result_lines.is_empty() {
            result_lines.push_str(",\n");
        }
        let _ = write!(
            result_lines,
            "    {{\"batch\": {}, \"read_mode\": \"{}\", \"threads\": {}, \
             \"mkeys_per_sec\": {:.3}, \"vs_locked\": {:.4}}}",
            p.batch,
            p.mode.name(),
            p.threads,
            p.mkeys_per_sec,
            vs_locked(p),
        );
    }

    // Acceptance, per batch width: optimistic >= locked at every thread
    // count (within a small measurement tolerance); the gain at the top
    // count is reported beside it.
    let top = READSCALE_THREADS[READSCALE_THREADS.len() - 1];
    let stats = store.optimistic_stats();
    let mut gate_lines = String::new();
    s.push('\n');
    for batch in READSCALE_BATCHES {
        let optimistic = || {
            points
                .iter()
                .filter(move |p| p.batch == batch && p.mode == ReadMode::Optimistic)
        };
        let all_ge = optimistic().all(|p| vs_locked(p) >= 0.97);
        let top_gain = optimistic()
            .find(|p| p.threads == top)
            .map_or(1.0, vs_locked);
        let _ = writeln!(
            s,
            "  acceptance (batch {batch}): optimistic >= locked at every thread count: {}; \
             gain at {top} threads: {:+.1}%",
            if all_ge { "PASS" } else { "FAIL" },
            (top_gain - 1.0) * 100.0,
        );
        if !gate_lines.is_empty() {
            gate_lines.push_str(",\n");
        }
        let _ = write!(
            gate_lines,
            "    {{\"batch\": {batch}, \"all_threads_ge_locked\": {all_ge}, \
             \"gain_at_top_threads\": {top_gain:.4}}}",
        );
    }
    let _ = writeln!(
        s,
        "  (optimistic commits {}, retries {}, fallbacks {})",
        stats.commits, stats.retries, stats.fallbacks,
    );

    let json = format!(
        "{{\n  \"experiment\": \"kvs-readscale-sweep\",\n  \"mode\": \"{}\",\n  \
         \"n_items\": {n_items},\n  \"batches\": {READSCALE_BATCHES:?},\n  \
         \"requests_per_thread\": {n_batches},\n  \"threads\": {READSCALE_THREADS:?},\n  \
         \"optimistic_commits\": {},\n  \"optimistic_retries\": {},\n  \
         \"optimistic_fallbacks\": {},\n  \"gates\": [\n{gate_lines}\n  ],\n  \
         \"results\": [\n{result_lines}\n  ]\n}}\n",
        if full { "full" } else { "quick" },
        stats.commits,
        stats.retries,
        stats.fallbacks,
    );
    (s, json)
}

/// `kvs-readscale-sweep`: read-side scaling of the seqlock optimistic
/// read path (DESIGN.md §11) against the locked baseline — reader thread
/// counts 1..8 over a quiescent in-cache single-shard store, at batch
/// width 1 (where the shard `RwLock` acquisition is the dominant
/// per-request cost) and 16 (where it is amortized). Writes the
/// measurements to `BENCH_kvs_readscale.json` in the working directory.
pub fn kvs_readscale_sweep(scale: &RunScale) -> String {
    let (mut s, json) = readscale_sweep_impl(scale);
    write_artifact("BENCH_kvs_readscale.json", &json, &mut s);
    s
}

const CHURN_READ_BATCH: usize = 64;
const CHURN_WRITE_BATCH: usize = 16;

#[derive(Copy, Clone, PartialEq)]
enum ChurnMode {
    /// Plain `set` writes — the pre-versioning baseline.
    Plain,
    /// The versioned write surface with `ttl_secs == 0`: identical
    /// semantics, so the gap to `Plain` is the layer's overhead.
    Ttl0,
    /// 1-second TTLs with the store clock advancing mid-stream, plus a
    /// trickle of Deletes and CAS swaps: the full production-cache churn.
    Churn,
}

impl ChurnMode {
    fn name(self) -> &'static str {
        match self {
            ChurnMode::Plain => "plain",
            ChurnMode::Ttl0 => "ttl0",
            ChurnMode::Churn => "churn",
        }
    }
}

/// One measured churn point.
struct TtlChurnPoint {
    index: &'static str,
    mkeys: [f64; 3], // indexed by ChurnMode order
    expired: u64,
    deletes: u64,
    cas_ok: u64,
}

/// Measure the TTL-churn sweep and render (human table, JSON document).
/// Split from [`kvs_ttl_churn`] so tests can run it without touching the
/// filesystem.
fn ttl_churn_impl(scale: &RunScale) -> (String, String) {
    let full = scale.kvs_items >= RunScale::full().kvs_items;
    let n_items = scale.kvs_items;
    let n_rounds = scale.kvs_requests;
    let reps = if full { 3 } else { 1 };
    let keys_per_round = CHURN_READ_BATCH + CHURN_WRITE_BATCH;

    let mut s = format!(
        "== kvs-ttl-churn: versioned-op overhead and TTL churn, by index ==\n\
         ({CHURN_READ_BATCH}-key Multi-Gets + {CHURN_WRITE_BATCH} writes per round, \
         {n_rounds} rounds over {n_items} items, best of {reps};\n  \
         churn mode: 1 s TTLs with the store clock advancing, plus Delete/CAS traffic)\n\n",
    );
    let _ = writeln!(
        s,
        "  {:<8} {:>12} {:>11} {:>12} {:>9} {:>8} {:>7} {:>7}",
        "index", "plain Mk/s", "ttl0 Mk/s", "churn Mk/s", "overhead", "expired", "deletes", "cas"
    );

    let mut points: Vec<TtlChurnPoint> = Vec::new();
    for which in ["memc3", "hor", "ver", "dpdk", "local"] {
        let mut best = [0.0f64; 3];
        let (mut expired, mut deletes, mut cas_ok) = (0u64, 0u64, 0u64);
        for (slot, mode) in [
            (0usize, ChurnMode::Plain),
            (1, ChurnMode::Ttl0),
            (2, ChurnMode::Churn),
        ] {
            for _ in 0..reps {
                let store = KvStore::new(
                    build_index(which, n_items * 2),
                    StoreConfig {
                        memory_budget: n_items * 64 + (64 << 20),
                        capacity_items: n_items * 2,
                        shards: 1,
                        prefetch_depth: None,
                        ..StoreConfig::default()
                    },
                );
                // Identical immortal preload in every mode; churn's TTLs
                // arrive only with the streamed rewrites.
                for i in 0..n_items {
                    store
                        .set(&sweep_key(i), &sweep_value(i))
                        .expect("churn preload");
                }
                let ttl = if mode == ChurnMode::Churn { 1 } else { 0 };
                let mut rng = 0x771_C0DEu64 ^ slot as u64;
                let mut resp = MGetResponse::new();
                let mut total_keys = 0usize;
                let advance_every = (n_rounds / 4).max(1);
                let t0 = std::time::Instant::now();
                for round in 0..n_rounds {
                    let keys: Vec<Vec<u8>> = (0..CHURN_READ_BATCH)
                        .map(|_| sweep_key((splitmix64(&mut rng) % n_items as u64) as usize))
                        .collect();
                    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                    store.mget(&refs, &mut resp);
                    for _ in 0..CHURN_WRITE_BATCH {
                        let i = (splitmix64(&mut rng) % n_items as u64) as usize;
                        match mode {
                            ChurnMode::Plain => {
                                store.set(&sweep_key(i), &sweep_value(i)).expect("rewrite");
                            }
                            ChurnMode::Ttl0 | ChurnMode::Churn => {
                                store
                                    .set_v(&sweep_key(i), &sweep_value(i), ttl)
                                    .expect("rewrite");
                            }
                        }
                    }
                    total_keys += keys_per_round;
                    if mode == ChurnMode::Churn {
                        if round % 8 == 0 {
                            // A delete-then-reinsert and an uncontended
                            // CAS, keeping the population stable while
                            // exercising every point verb.
                            let i = (splitmix64(&mut rng) % n_items as u64) as usize;
                            store.delete(&sweep_key(i));
                            store
                                .set_v(&sweep_key(i), &sweep_value(i), ttl)
                                .expect("reinsert");
                            let j = (splitmix64(&mut rng) % n_items as u64) as usize;
                            if let Some((_, version)) = store.get_v(&sweep_key(j)) {
                                let _ = store.cas(&sweep_key(j), version, &sweep_value(j), ttl);
                            }
                        }
                        if round % advance_every == advance_every - 1 {
                            // Step the store clock past the 1 s TTL so the
                            // churn writes expire under the reads.
                            store.advance_time(2);
                        }
                    }
                }
                let secs = t0.elapsed().as_secs_f64();
                best[slot] = best[slot].max(total_keys as f64 / secs);
                if mode == ChurnMode::Churn {
                    let totals = store.totals();
                    expired = totals.expired;
                    deletes = totals.deletes;
                    cas_ok = totals.cas_ok;
                }
            }
        }
        let _ = writeln!(
            s,
            "  {:<8} {:>12.2} {:>11.2} {:>12.2} {:>8.1}% {:>8} {:>7} {:>7}",
            which,
            best[0] / 1e6,
            best[1] / 1e6,
            best[2] / 1e6,
            (best[1] / best[0] - 1.0) * 100.0,
            expired,
            deletes,
            cas_ok,
        );
        points.push(TtlChurnPoint {
            index: which,
            mkeys: [best[0] / 1e6, best[1] / 1e6, best[2] / 1e6],
            expired,
            deletes,
            cas_ok,
        });
    }

    // Acceptance: churn mode must actually churn (expiry + point verbs
    // observed on every index), and the zero-TTL versioned surface must
    // stay within a generous envelope of the plain path.
    let churned = points
        .iter()
        .all(|p| p.expired > 0 && p.deletes > 0 && p.cas_ok > 0);
    let bounded = points.iter().all(|p| p.mkeys[1] >= 0.25 * p.mkeys[0]);
    let _ = writeln!(
        s,
        "\n  acceptance: expiry + Delete/CAS observed on every index: {}\n  \
         acceptance: ttl0 within 4x of plain on every index: {}",
        if churned { "PASS" } else { "FAIL" },
        if bounded { "PASS" } else { "FAIL" },
    );

    let mut result_lines = String::new();
    for p in &points {
        if !result_lines.is_empty() {
            result_lines.push_str(",\n");
        }
        let _ = write!(result_lines, "    {{\"index\": \"{}\", ", p.index);
        for (slot, mode) in [ChurnMode::Plain, ChurnMode::Ttl0, ChurnMode::Churn]
            .iter()
            .enumerate()
        {
            let _ = write!(
                result_lines,
                "\"{}_mkeys_per_sec\": {:.3}, ",
                mode.name(),
                p.mkeys[slot],
            );
        }
        let _ = write!(
            result_lines,
            "\"ttl0_overhead\": {:.4}, \"expired\": {}, \"deletes\": {}, \"cas_ok\": {}}}",
            p.mkeys[1] / p.mkeys[0].max(1e-12),
            p.expired,
            p.deletes,
            p.cas_ok,
        );
    }
    let json = format!(
        "{{\n  \"experiment\": \"kvs-ttl-churn\",\n  \"mode\": \"{}\",\n  \
         \"n_items\": {n_items},\n  \"read_batch\": {CHURN_READ_BATCH},\n  \
         \"write_batch\": {CHURN_WRITE_BATCH},\n  \"rounds\": {n_rounds},\n  \
         \"results\": [\n{result_lines}\n  ],\n  \
         \"acceptance\": {{\"churn_observed\": {churned}, \
         \"versioned_overhead_bounded\": {bounded}}}\n}}\n",
        if full { "full" } else { "quick" },
    );
    (s, json)
}

/// `kvs-ttl-churn`: the versioned-operation layer under load (DESIGN.md
/// §13) — the zero-TTL overhead of `set_v` against plain `set`, and a
/// churn mode where 1-second TTLs expire under the reads while Deletes
/// and CAS swaps trickle through. Writes the measurements to
/// `BENCH_kvs_ttl.json` in the working directory.
pub fn kvs_ttl_churn(scale: &RunScale) -> String {
    let (mut s, json) = ttl_churn_impl(scale);
    write_artifact("BENCH_kvs_ttl.json", &json, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvs_tcp_loopback_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 30,
            kvs_items: 300,
        };
        let (name, r, stats) = run_one_tcp("hor", 8, &tiny);
        assert!(name.contains("Hor"), "{name}");
        assert_eq!(r.requests, 30);
        assert_eq!(r.keys, 30 * 8);
        assert_eq!(r.hits, r.keys);
        assert!(r.p99_latency_us >= r.p50_latency_us);
        assert!(r.p50_latency_us > 0.0);
        assert!(stats.requests.load(std::sync::atomic::Ordering::Relaxed) == 30);
    }

    #[test]
    fn kvs_mixed_sets_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 40,
            kvs_items: 300,
        };
        let r = run_one_mixed("hor", 16, 0.25, &tiny);
        assert!(r.sets > 0, "expected some Set requests");
        assert_eq!(r.requests + r.sets, 40);
        assert_eq!(r.found, r.keys, "replacement Sets must not lose keys");
    }

    #[test]
    fn kvs_shard_sweep_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 24,
            kvs_items: 300,
        };
        let (r, lens) = run_one_sharded_tcp(4, &tiny);
        assert_eq!(lens.len(), 4, "sweep point must report per-shard balance");
        assert_eq!(lens.iter().sum::<usize>(), 300, "preload spans shards");
        assert_eq!(r.hits, r.keys);
        assert!(r.requests + r.sets == 24);
    }

    #[test]
    fn kvs_prefetch_sweep_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 20,
            kvs_items: 500,
        };
        let (rendered, json) = prefetch_sweep_impl(&tiny);
        assert!(rendered.contains("kvs-prefetch-sweep"));
        // 5 index families x 5 depths, each with a speedup entry.
        assert_eq!(json.matches("\"depth\":").count(), 25);
        assert_eq!(json.matches("\"best_depth\":").count(), 5);
        assert!(json.contains("\"mode\": \"quick\""));
        for which in ["memc3", "hor", "ver", "dpdk", "local"] {
            assert!(json.contains(&format!("\"index\": \"{which}\"")));
        }
    }

    #[test]
    fn kvs_setpath_sweep_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 12,
            kvs_items: 500,
        };
        let (rendered, json) = setpath_sweep_impl(&tiny);
        assert!(rendered.contains("kvs-setpath-sweep"));
        assert!(rendered.contains("acceptance"));
        // 5 index families x 3 write fractions.
        assert_eq!(json.matches("\"write_frac\":").count(), 15);
        assert_eq!(json.matches("\"speedup\":").count(), 15);
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"batched_beats_sequential\":"));
        for which in ["memc3", "hor", "ver", "dpdk", "local"] {
            assert!(json.contains(&format!("\"index\": \"{which}\"")));
        }
    }

    #[test]
    fn kvs_local_sweep_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 16,
            kvs_items: 500,
        };
        let (rendered, json) = local_sweep_impl(&tiny);
        assert!(rendered.contains("kvs-local-sweep"));
        assert!(rendered.contains("gates:"));
        // 4 index families x 2 workloads x 2 depths.
        assert_eq!(json.matches("\"depth\":").count(), 16);
        assert_eq!(json.matches("\"best_depth\":").count(), 8);
        assert_eq!(json.matches("\"pass\":").count(), 2);
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"coherency_line_size\":"));
        assert!(json.contains("\"find_hit_local_vs_memc3\""));
        assert!(json.contains("\"find_miss_local_vs_hor\""));
        for which in LOCAL_INDEXES {
            assert!(json.contains(&format!("\"index\": \"{which}\"")));
        }
    }

    #[test]
    fn kvs_reactor_sweep_grid_shape() {
        // The impl's grid is fixed per mode; a tiny scale only shrinks
        // request counts, so this stays a smoke-sized run.
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 64,
            kvs_items: 400,
        };
        let (rendered, json) = reactor_sweep_impl(&tiny);
        assert!(rendered.contains("kvs-reactor-sweep"));
        assert!(rendered.contains("acceptance at 400 conns"));
        // 4 conn counts x 2 depths, plus 4 baseline points.
        assert_eq!(json.matches("\"depth\":").count(), 8 + 1); // +1: acceptance
        assert_eq!(json.matches("\"p50_us\":").count(), 12);
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"batch_width_ok\":"));
        assert!(json.contains("\"throughput_ok\":"));
    }

    #[test]
    fn kvs_readscale_sweep_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 16,
            kvs_items: 300,
        };
        let (rendered, json) = readscale_sweep_impl(&tiny);
        assert!(rendered.contains("kvs-readscale-sweep"));
        assert!(rendered.contains("acceptance"));
        // 2 batch widths x 2 read modes x 4 thread counts, one gate per width.
        assert_eq!(json.matches("\"read_mode\":").count(), 16);
        assert_eq!(json.matches("{\"batch\": 16, \"read_mode\":").count(), 8);
        assert!(json.contains("\"mode\": \"quick\""));
        assert_eq!(json.matches("\"all_threads_ge_locked\":").count(), 2);
        for mode in ["locked", "optimistic"] {
            assert!(json.contains(&format!("\"read_mode\": \"{mode}\"")));
        }
    }

    #[test]
    fn kvs_ttl_churn_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 32,
            kvs_items: 300,
        };
        let (rendered, json) = ttl_churn_impl(&tiny);
        assert!(rendered.contains("kvs-ttl-churn"));
        assert!(rendered.contains("acceptance"));
        // 5 index families, one point each, three throughput columns.
        assert_eq!(json.matches("\"ttl0_overhead\":").count(), 5);
        assert_eq!(json.matches("\"expired\":").count(), 5);
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"churn_observed\": true"));
        for which in ["memc3", "hor", "ver", "dpdk", "local"] {
            assert!(json.contains(&format!("\"index\": \"{which}\"")));
        }
    }

    #[test]
    fn kvs_experiment_tiny_run() {
        let tiny = RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests: 20,
            kvs_items: 300,
        };
        let r = run_one("ver", 16, &tiny);
        assert_eq!(r.requests, 20);
        assert_eq!(r.found, r.keys);
        assert!(r.phases.total() > 0);
    }
}
