//! Fig. 11 — the key-value-store validation (paper §VI-B): MemC3 vs. the
//! two SIMD-aware indexes under memslap Multi-Get load. The served store
//! itself is measured by the repository benchmark (`benchmark/`).

use std::fmt::Write as _;

use simdht_kvs::index;
use simdht_kvs::memslap::{run_memslap, MemslapConfig, MemslapReport};
use simdht_kvs::store::{KvStore, StoreConfig};
use simdht_workload::{AccessPattern, KvWorkload, KvWorkloadSpec};

use crate::RunScale;

/// A single-shard store over the `which` index sized for `n_items`: 2x
/// index head-room, 256 B of slab per item, default prefetch depth.
fn sized_store(which: &str, n_items: usize) -> KvStore {
    let capacity = n_items * 2;
    let index = index::by_short_name(which, capacity)
        .unwrap_or_else(|| unreachable!("unknown index {which}"));
    KvStore::new(
        index,
        StoreConfig {
            memory_budget: (n_items * 256).max(8 << 20),
            capacity_items: capacity,
            ..StoreConfig::default()
        },
    )
}

/// One memslap run: 2 clients replaying 20 B keys, 32 B values and skewed
/// popularity, with `set_fraction` of the requests Sets.
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
        set_fraction,
    };
    run_memslap(sized_store(which, scale.kvs_items), &workload, &config)
}

fn run_one(which: &str, mget_size: usize, scale: &RunScale) -> MemslapReport {
    run_one_mixed(which, mget_size, 0.0, scale)
}

/// A mean latency against the MemC3 row's, in percent: `+` is slower.
fn lat_vs_baseline(mean_us: f64, baseline_us: f64) -> String {
    format!("{:+.1}%", (mean_us / baseline_us - 1.0) * 100.0)
}

/// Fig. 11(a): end-to-end Multi-Get latency and server-side Get throughput
/// for MemC3 vs. horizontal-AVX2 vs. vertical-AVX-512 backends.
pub fn fig11a(scale: &RunScale) -> String {
    let mut s = String::from(
        "== Fig. 11(a): KVS Multi-Get — e2e latency & server-side Get throughput ==\n\
         (memslap: 20 B keys, 32 B values, skewed; 2 clients over loopback TCP)\n",
    );
    for mget in [16usize, 96] {
        let _ = writeln!(s, "\n-- Multi-Get batch = {mget} keys --");
        let _ = writeln!(
            s,
            "  {:<38} {:>8} {:>8} {:>8} {:>10} {:>6} {:>13}",
            "index", "Mkeys/s", "mean us", "p99 us", "EDR rt us", "thr", "lat vs MemC3"
        );
        let mut baseline = None;
        for which in ["memc3", "hor", "ver"] {
            let r = run_one(which, mget, scale);
            let thr = r.server_keys_per_sec;
            let (base_thr, base_lat) = *baseline.get_or_insert((thr, r.client.mean_latency_us));
            let _ = writeln!(
                s,
                "  {:<38} {:>8.2} {:>8.1} {:>8.1} {:>10.2} {:>5.2}x {:>13}",
                r.index_name,
                thr / 1e6,
                r.client.mean_latency_us,
                r.client.p99_latency_us,
                r.client.edr_round_trip_us,
                thr / base_thr,
                lat_vs_baseline(r.client.mean_latency_us, base_lat),
            );
            assert_eq!(r.found, r.keys, "all preloaded keys must be found");
        }
    }
    s.push_str(
        "\n(Mkeys/s: server-side keys per busy second. mean/p99: measured loopback\n\
         round trip. EDR rt: modeled InfiniBand EDR round trip of the same frames,\n\
         not part of mean/p99. lat vs MemC3: mean against the MemC3 row, + = slower.\n\
         paper: SIMD backends gain 1.45x-2.04x server-side Get throughput and\n\
         cut end-to-end Multi-Get latency by 10 %-34 % over MemC3)\n",
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
         (paper future work at the KVS layer; batch 64, skewed, loopback TCP)\n\n",
    );
    let _ = writeln!(
        s,
        "  {:<10} {:<38} {:>8} {:>8} {:>10} {:>6}",
        "set frac", "index", "Mkeys/s", "mean us", "EDR rt us", "sets"
    );
    for frac in [0.0, 0.05, 0.25] {
        for which in ["memc3", "hor", "ver", "dpdk", "local"] {
            let r = run_one_mixed(which, 64, frac, scale);
            let _ = writeln!(
                s,
                "  {:<10.2} {:<38} {:>8.2} {:>8.1} {:>10.2} {:>6}",
                frac,
                r.index_name,
                r.server_keys_per_sec / 1e6,
                r.client.mean_latency_us,
                r.client.edr_round_trip_us,
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
    /// `(requests, sets, keys, found)` literal recorded when the harness
    /// still had its own client loop over a simulated link (the
    /// 0x3E7F-seeded plan draws the same Sets in the same order through
    /// `run_memslap_over`, now against a loopback `Kvsd`), and the clients
    /// seeing exactly what the server counted.
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
    fn lat_vs_memc3_is_positive_when_slower() {
        assert_eq!(lat_vs_baseline(15.2, 10.0), "+52.0%");
        assert_eq!(lat_vs_baseline(7.5, 10.0), "-25.0%");
        assert_eq!(lat_vs_baseline(10.0, 10.0), "+0.0%");
    }

    #[test]
    fn kvs_experiment_tiny_run() {
        for which in ["memc3", "hor", "ver"] {
            let r = run_one(which, 16, &tiny(20, 300));
            assert_recorded(&r, (20, 0, 320, 320));
            assert!(r.phases.total() > 0);
        }
    }
}
