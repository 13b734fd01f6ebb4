//! Fig. 11 — the key-value-store validation (paper §VI-B): MemC3 vs. the
//! two SIMD-aware indexes under memslap Multi-Get load — plus the three
//! sweeps on forks the repository benchmark (`benchmark/`) has no workload
//! on both sides of yet: shard count, server loop, read mode.

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

/// The memslap-shaped workload every KVS experiment here replays: 20 B
/// keys, 32 B values, skewed popularity.
fn skewed_workload(n_items: usize, n_requests: usize, mget_size: usize, seed: u64) -> KvWorkload {
    KvWorkload::generate(&KvWorkloadSpec {
        n_items,
        n_requests,
        mget_size,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed,
    })
}

/// A store over the `which` index sized for `n_items`: 2x index head-room,
/// 256 B of slab per item, default prefetch depth.
fn sized_store(which: &str, n_items: usize, shards: usize) -> KvStore {
    KvStore::with_shards(
        StoreConfig {
            memory_budget: (n_items * 256).max(8 << 20),
            capacity_items: n_items * 2,
            shards,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
        |cap| build_index(which, cap),
    )
}

fn run_one_mixed(
    which: &str,
    mget_size: usize,
    set_fraction: f64,
    scale: &RunScale,
) -> MemslapReport {
    let workload = skewed_workload(scale.kvs_items, scale.kvs_requests, mget_size, 0x4B56_0011);
    let config = MemslapConfig {
        clients: 2,
        server_workers: 2,
        set_fraction,
        ..MemslapConfig::default()
    };
    run_memslap(sized_store(which, scale.kvs_items, 1), &workload, &config)
}

fn run_one(which: &str, mget_size: usize, scale: &RunScale) -> MemslapReport {
    run_one_mixed(which, mget_size, 0.0, scale)
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
            let lat_gain =
                baseline_lat.map_or(0.0, |b| (r.client.mean_latency_us / b - 1.0) * -100.0);
            if which == "memc3" {
                baseline = Some(r.server_keys_per_sec);
                baseline_lat = Some(r.client.mean_latency_us);
            }
            let _ = writeln!(
                s,
                "  {:<38} {:>8.2} MGet-keys/s | mean {:>7.1} us  p99 {:>7.1} us | thr {:>5.2}x | lat {:>+5.1}%",
                r.index_name, thr, r.client.mean_latency_us, r.client.p99_latency_us, speedup, lat_gain
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
                r.client.mean_latency_us,
                r.client.sets
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

/// One shard-sweep point: a sharded store behind a real TCP `Kvsd`,
/// hammered by the pipelined networked memslap client over many
/// connections. Returns the client report plus the final shard balance.
fn run_one_sharded_tcp(
    shards: usize,
    scale: &RunScale,
) -> (simdht_kvs::memslap::ClientReport, Vec<usize>) {
    let workload = skewed_workload(scale.kvs_items, scale.kvs_requests, 64, 0x4B56_0022);
    let store = Arc::new(sized_store("hor", scale.kvs_items, shards));
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

/// Directory (under the working directory) that quick runs write their
/// artifacts to, so a smoke run at the repository root cannot overwrite a
/// committed full-run record.
const QUICK_ARTIFACT_DIR: &str = "target/bench-quick";

/// Write a sweep's JSON document and say so (or why not) at the end of its
/// rendered report `s`: a full run records `name` in the working
/// directory, a quick run writes `target/bench-quick/<name>` instead.
fn write_artifact(name: &str, quick: bool, json: &str, s: &mut String) {
    let dir = if quick { QUICK_ARTIFACT_DIR } else { "." };
    let path = std::path::Path::new(dir).join(name);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json));
    let _ = match written {
        Ok(()) if quick => writeln!(
            s,
            "\n(quick run: measurements written to {}, not over a recorded {name})",
            path.display()
        ),
        Ok(()) => writeln!(s, "\n(measurements written to {name})"),
        Err(e) => writeln!(s, "\n(could not write {}: {e})", path.display()),
    };
}

/// splitmix64: deterministic, well-mixed key selection for the sweep.
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
    skewed_workload(n_items, n_requests, REACTOR_MGET, 0x4B56_0033)
}

/// Fresh store for one sweep point (horizontal SIMD index, default
/// prefetch depth — the width the reactor must feed).
fn reactor_store(n_items: usize) -> Arc<KvStore> {
    Arc::new(sized_store("hor", n_items, 1))
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
/// `BENCH_kvs_reactor.json` (see [`write_artifact`] for where).
pub fn kvs_reactor_sweep(scale: &RunScale, quick: bool) -> String {
    let (mut s, json) = reactor_sweep_impl(scale);
    write_artifact("BENCH_kvs_reactor.json", quick, &json, &mut s);
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
/// measurements to `BENCH_kvs_readscale.json` (see [`write_artifact`] for
/// where).
pub fn kvs_readscale_sweep(scale: &RunScale, quick: bool) -> String {
    let (mut s, json) = readscale_sweep_impl(scale);
    write_artifact("BENCH_kvs_readscale.json", quick, &json, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kvs_requests: usize, kvs_items: usize) -> RunScale {
        RunScale {
            queries_per_thread: 1024,
            repetitions: 1,
            threads: 1,
            kvs_requests,
            kvs_items,
        }
    }

    /// What `run_memslap` must report on a tiny Fig. 11 shape: the
    /// `(requests, sets, keys, found)` literal recorded at the commit that
    /// still had its own fabric client loop (the 0x3E7F-seeded plan draws
    /// the same Sets in the same order through `run_memslap_over`), and
    /// the clients seeing exactly what the server counted.
    fn assert_recorded(r: &MemslapReport, recorded: (u64, u64, u64, u64)) {
        let name = r.index_name;
        assert_eq!(
            (r.requests, r.client.sets, r.keys, r.found),
            recorded,
            "{name}"
        );
        assert_eq!(
            (r.client.requests, r.client.keys, r.client.hits),
            (r.requests, r.keys, r.found),
            "{name}: client and server counts must agree"
        );
        assert_eq!(r.client.failed + r.client.sets_uncertain, 0, "{name}");
    }

    #[test]
    fn kvs_mixed_sets_tiny_run() {
        for which in ["memc3", "hor", "ver"] {
            let r = run_one_mixed(which, 16, 0.25, &tiny(40, 300));
            // 14 replacement Sets among 40 slots; none may lose a key.
            assert_recorded(&r, (26, 14, 416, 416));
        }
    }

    #[test]
    fn kvs_shard_sweep_tiny_run() {
        let (r, lens) = run_one_sharded_tcp(4, &tiny(24, 300));
        assert_eq!(lens.len(), 4, "sweep point must report per-shard balance");
        assert_eq!(lens.iter().sum::<usize>(), 300, "preload spans shards");
        assert_eq!(r.hits, r.keys);
        assert!(r.requests + r.sets == 24);
    }

    #[test]
    fn kvs_reactor_sweep_grid_shape() {
        // The impl's grid is fixed per mode; a tiny scale only shrinks
        // request counts, so this stays a smoke-sized run.
        let (rendered, json) = reactor_sweep_impl(&tiny(64, 400));
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
        let (rendered, json) = readscale_sweep_impl(&tiny(16, 300));
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
    fn kvs_experiment_tiny_run() {
        for which in ["memc3", "hor", "ver"] {
            let r = run_one(which, 16, &tiny(20, 300));
            assert_recorded(&r, (20, 0, 320, 320));
            assert!(r.phases.total() > 0);
        }
    }

    #[test]
    fn quick_artifact_leaves_the_recorded_file_alone() {
        // Unique name: tests share the working directory.
        let name = format!("BENCH_write_artifact_test_{}.json", std::process::id());
        let quick_path = std::path::Path::new(QUICK_ARTIFACT_DIR).join(&name);
        std::fs::write(&name, "recorded full run").unwrap();
        let mut rendered = String::new();
        write_artifact(&name, true, "quick numbers", &mut rendered);
        let root = std::fs::read_to_string(&name).unwrap();
        let quick = std::fs::read_to_string(&quick_path);
        let _ = std::fs::remove_file(&name);
        let _ = std::fs::remove_file(&quick_path);
        assert_eq!(root, "recorded full run");
        assert_eq!(quick.unwrap(), "quick numbers");
        assert!(rendered.contains(QUICK_ARTIFACT_DIR), "{rendered}");
    }
}
