//! Key-value store Multi-Get: the paper's validation scenario (§VI) as a
//! runnable demo — a loopback `simdht-kvsd` server answering memslap
//! Multi-Get load with three interchangeable hash-index backends.
//!
//! ```text
//! cargo run --release --example kvs_multiget
//! ```

use simdht::kvs::index::{HashIndex, Memc3Index, SimdIndex, SimdIndexKind};
use simdht::kvs::memslap::{run_memslap, MemslapConfig};
use simdht::kvs::store::{KvStore, StoreConfig};
use simdht::workload::{AccessPattern, KvWorkload, KvWorkloadSpec};

const ITEMS: usize = 20_000;
const REQUESTS: usize = 2_000;
const MGET: usize = 64;

fn index(which: &str) -> Box<dyn HashIndex> {
    match which {
        "MemC3" => Box::new(Memc3Index::with_capacity(ITEMS * 2)),
        "Hor-SIMD" => Box::new(SimdIndex::with_capacity(
            SimdIndexKind::HorizontalBcht,
            ITEMS * 2,
        )),
        _ => Box::new(SimdIndex::with_capacity(
            SimdIndexKind::VerticalNway,
            ITEMS * 2,
        )),
    }
}

fn main() {
    // memslap-style workload: 20 B keys, 32 B values, skewed popularity,
    // 64 keys per Multi-Get (the paper sweeps 16–96).
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: ITEMS,
        n_requests: REQUESTS,
        mget_size: MGET,
        key_bytes: 20,
        value_bytes: 32,
        pattern: AccessPattern::skewed(),
        seed: 7,
    });
    let config = MemslapConfig {
        clients: 2,
        ..MemslapConfig::default()
    };
    let store_config = StoreConfig {
        memory_budget: 64 << 20,
        capacity_items: ITEMS * 2,
        shards: 1,
    };

    println!(
        "memslap: {REQUESTS} Multi-Get requests x {MGET} keys over {ITEMS} items\n\
         {} clients over loopback TCP; the IB-EDR round trip is modeled, not measured\n",
        config.clients
    );

    let mut baseline = None;
    for which in ["MemC3", "Hor-SIMD", "Ver-SIMD"] {
        let store = KvStore::new(index(which), store_config);
        let report = run_memslap(store, &workload, &config);
        let thr = report.server_keys_per_sec / 1e6;
        let vs = baseline
            .map(|b: f64| format!("{:.2}x vs MemC3", report.server_keys_per_sec / b))
            .unwrap_or_else(|| {
                baseline = Some(report.server_keys_per_sec);
                "baseline".to_string()
            });
        let total = report.phases.total().max(1) as f64;
        println!("{:-^72}", format!(" {} ", report.index_name));
        println!(
            "  server Get throughput : {thr:>8.2} Mkeys/s   ({vs})\n\
             \x20 e2e Multi-Get latency : mean {:>7.1} us, p50 {:>7.1}, p95 {:>7.1}, p99 {:>7.1}\n\
             \x20 modeled EDR round trip: {:>7.2} us\n\
             \x20 server phases         : pre {:>4.1}% | HT lookup {:>4.1}% | post {:>4.1}%\n\
             \x20 hits                  : {}/{}",
            report.client.mean_latency_us,
            report.client.p50_latency_us,
            report.client.p95_latency_us,
            report.client.p99_latency_us,
            report.client.edr_round_trip_us,
            report.phases.pre as f64 / total * 100.0,
            report.phases.lookup as f64 / total * 100.0,
            report.phases.post as f64 / total * 100.0,
            report.found,
            report.keys,
        );
    }
}
