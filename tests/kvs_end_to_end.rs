//! Cross-crate integration: the full KVS path — workload generation,
//! store + index, server workers, simulated fabric, memslap client — for
//! all four index backends, plus cross-backend response equivalence.

use std::sync::Arc;

use bytes_equivalent::check_stores_agree;
use simdht::kvs::index::{HashIndex, Memc3Index, SimdIndex, SimdIndexKind, TagSimdIndex};
use simdht::kvs::memslap::{run_memslap, MemslapConfig};
use simdht::kvs::store::{KvStore, MGetResponse, StoreConfig};
use simdht::workload::{AccessPattern, KvWorkload, KvWorkloadSpec};

fn indexes(capacity: usize) -> Vec<Box<dyn HashIndex>> {
    vec![
        Box::new(Memc3Index::with_capacity(capacity)),
        Box::new(SimdIndex::with_capacity(
            SimdIndexKind::HorizontalBcht,
            capacity,
        )),
        Box::new(SimdIndex::with_capacity(
            SimdIndexKind::VerticalNway,
            capacity,
        )),
        Box::new(TagSimdIndex::with_capacity(capacity)),
    ]
}

mod bytes_equivalent {
    use super::*;

    /// All stores must answer an identical mget stream identically.
    pub fn check_stores_agree(stores: &[KvStore], requests: &[Vec<&[u8]>]) {
        let mut buffers: Vec<MGetResponse> = stores.iter().map(|_| MGetResponse::new()).collect();
        for keys in requests {
            let mut reference: Option<Vec<Option<Vec<u8>>>> = None;
            for (store, resp) in stores.iter().zip(buffers.iter_mut()) {
                store.mget(keys, resp);
                let answers: Vec<Option<Vec<u8>>> = (0..keys.len())
                    .map(|i| resp.value(i).map(<[u8]>::to_vec))
                    .collect();
                match &reference {
                    None => reference = Some(answers),
                    Some(r) => assert_eq!(&answers, r, "stores disagree ({})", store.index_name()),
                }
            }
        }
    }
}

#[test]
fn all_backends_answer_identically() {
    let wl = KvWorkload::generate(&KvWorkloadSpec {
        n_items: 3000,
        n_requests: 200,
        mget_size: 24,
        ..KvWorkloadSpec::default()
    });
    let cfg = StoreConfig {
        memory_budget: 16 << 20,
        capacity_items: 8000,
        shards: 1,
        prefetch_depth: None,
        ..StoreConfig::default()
    };
    let stores: Vec<KvStore> = indexes(8000)
        .into_iter()
        .map(|idx| {
            let s = KvStore::new(idx, cfg);
            for (k, v) in wl.items() {
                s.set(k, v).unwrap();
            }
            // Delete a deterministic subset so misses appear.
            for (k, _) in wl.items().iter().step_by(7) {
                assert!(s.delete(k));
            }
            s
        })
        .collect();
    let requests: Vec<Vec<&[u8]>> = (0..wl.requests().len())
        .map(|r| wl.request_keys(r))
        .collect();
    check_stores_agree(&stores, &requests);
}

#[test]
fn memslap_full_pipeline_all_backends() {
    let wl = KvWorkload::generate(&KvWorkloadSpec {
        n_items: 2000,
        n_requests: 150,
        mget_size: 16,
        pattern: AccessPattern::skewed(),
        ..KvWorkloadSpec::default()
    });
    let config = MemslapConfig {
        clients: 2,
        server_workers: 2,
        ..MemslapConfig::default()
    };
    let store_config = StoreConfig {
        memory_budget: 16 << 20,
        capacity_items: 5000,
        shards: 1,
        prefetch_depth: None,
        ..StoreConfig::default()
    };
    for idx in indexes(5000) {
        let name = idx.name();
        let store = KvStore::new(idx, store_config);
        let report = run_memslap(store, &wl, &config);
        assert_eq!(report.requests, 150, "{name}");
        assert_eq!(report.keys, 150 * 16, "{name}");
        assert_eq!(report.found, report.keys, "{name}: preloaded keys must hit");
        assert!(report.server_keys_per_sec > 0.0, "{name}");
        assert!(
            report.client.p99_latency_us >= report.client.p50_latency_us,
            "{name}"
        );
        // The wire model floors every latency at ~2 x 1.5 us.
        assert!(report.client.min_latency_us >= 3.0, "{name}");
        let phases = report.phases;
        assert!(
            phases.pre > 0 && phases.lookup > 0 && phases.post > 0,
            "{name}"
        );
    }
}

#[test]
fn memslap_with_more_clients_than_requests() {
    // Five of the eight clients are dealt an empty plan and never connect;
    // the other three carry one request each.
    let wl = KvWorkload::generate(&KvWorkloadSpec {
        n_items: 200,
        n_requests: 3,
        mget_size: 8,
        ..KvWorkloadSpec::default()
    });
    let config = MemslapConfig {
        clients: 8,
        ..MemslapConfig::default()
    };
    let store = KvStore::new(
        Box::new(Memc3Index::with_capacity(500)),
        StoreConfig::default(),
    );
    let report = run_memslap(store, &wl, &config);
    assert_eq!((report.requests, report.keys, report.found), (3, 24, 24));
    assert_eq!(report.client.requests, 3);
    assert_eq!(report.client.failed, 0);
}

#[test]
fn store_concurrent_mixed_load() {
    // Readers and writers concurrently against the SIMD-vertical store.
    let store = Arc::new(KvStore::new(
        Box::new(SimdIndex::with_capacity(
            SimdIndexKind::VerticalNway,
            20_000,
        )),
        StoreConfig {
            memory_budget: 32 << 20,
            capacity_items: 20_000,
            shards: 1,
            prefetch_depth: None,
            ..StoreConfig::default()
        },
    ));
    for i in 0..5000u32 {
        store
            .set(format!("stable-{i:05}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..3 {
            let store = Arc::clone(&store);
            s.spawn(move || {
                let mut resp = MGetResponse::new();
                for round in 0..400u32 {
                    let i = (round * 13 + t * 7) % 5000;
                    let key = format!("stable-{i:05}");
                    let out = store.mget(&[key.as_bytes()], &mut resp);
                    assert_eq!(out.found, 1, "missing {key}");
                    assert_eq!(resp.value(0), Some(&i.to_le_bytes()[..]));
                }
            });
        }
        let store = Arc::clone(&store);
        s.spawn(move || {
            for i in 5000..6000u32 {
                store
                    .set(format!("fresh-{i:05}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
        });
    });
    assert_eq!(store.len(), 6000);
    assert_eq!(
        store.get(b"fresh-05999").as_deref(),
        Some(&5999u32.to_le_bytes()[..])
    );
}

#[test]
fn updates_and_value_growth() {
    for idx in indexes(1000) {
        let store = KvStore::new(
            idx,
            StoreConfig {
                memory_budget: 8 << 20,
                capacity_items: 1000,
                shards: 1,
                prefetch_depth: None,
                ..StoreConfig::default()
            },
        );
        for round in 0..5 {
            let value = vec![b'a' + round as u8; 16 << round]; // 16..256 B
            for i in 0..200u32 {
                store.set(format!("grow-{i}").as_bytes(), &value).unwrap();
            }
            for i in (0..200u32).step_by(17) {
                assert_eq!(
                    store.get(format!("grow-{i}").as_bytes()).as_deref(),
                    Some(&value[..]),
                    "round {round}"
                );
            }
            assert_eq!(store.len(), 200);
        }
    }
}
