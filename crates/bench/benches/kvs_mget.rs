//! Criterion bench behind Fig. 11: the server-side Multi-Get data-access
//! pipeline (pre-process → HT lookup → post-process) per index backend,
//! without a network (pure server-side cost, the paper's Fig. 11b focus).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use simdht_kvs::index::{HashIndex, Memc3Index, SimdIndex, SimdIndexKind};
use simdht_kvs::store::{KvStore, MGetResponse, StoreConfig};
use simdht_workload::{KvWorkload, KvWorkloadSpec};

const ITEMS: usize = 50_000;

fn store_with(index: Box<dyn HashIndex>, wl: &KvWorkload) -> KvStore {
    let store = KvStore::new(
        index,
        StoreConfig {
            memory_budget: 64 << 20,
            capacity_items: ITEMS * 2,
            shards: 1,
        },
    );
    for (k, v) in wl.items() {
        store.set(k, v).expect("preload");
    }
    store
}

fn bench_mget(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_kvs_mget");
    group.sample_size(20);
    for mget in [16usize, 96] {
        let wl = KvWorkload::generate(&KvWorkloadSpec {
            n_items: ITEMS,
            n_requests: 64,
            mget_size: mget,
            ..KvWorkloadSpec::default()
        });
        let stores: Vec<KvStore> = vec![
            store_with(Box::new(Memc3Index::with_capacity(ITEMS * 2)), &wl),
            store_with(
                Box::new(SimdIndex::with_capacity(
                    SimdIndexKind::HorizontalBcht,
                    ITEMS * 2,
                )),
                &wl,
            ),
            store_with(
                Box::new(SimdIndex::with_capacity(
                    SimdIndexKind::VerticalNway,
                    ITEMS * 2,
                )),
                &wl,
            ),
        ];
        // Pre-materialize request key slices.
        let requests: Vec<Vec<&[u8]>> = (0..wl.requests().len())
            .map(|r| wl.request_keys(r))
            .collect();
        group.throughput(Throughput::Elements((requests.len() * mget) as u64));
        for store in &stores {
            group.bench_with_input(
                BenchmarkId::new(store.index_name(), format!("mget{mget}")),
                &(),
                |b, ()| {
                    let mut resp = MGetResponse::new();
                    b.iter(|| {
                        let mut found = 0;
                        for keys in &requests {
                            found += store.mget(keys, &mut resp).found;
                        }
                        found
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mget);
criterion_main!(benches);
