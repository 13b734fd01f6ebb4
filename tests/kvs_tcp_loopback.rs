//! End-to-end over real sockets: a `Kvsd` daemon on an ephemeral loopback
//! port serving concurrent pipelined MGet/Set traffic from the networked
//! memslap client, for both the MemC3 baseline and a SIMD index — the
//! acceptance path of the TCP transport subsystem.

use std::sync::Arc;

use simdht::kvs::index;
use simdht::kvs::kvsd::Kvsd;
use simdht::kvs::memslap::{run_memslap_over, NetMemslapConfig};
use simdht::kvs::metrics::Counter;
use simdht::kvs::net::{TcpConn, TcpTransport};
use simdht::kvs::protocol::{Request, Response};
use simdht::kvs::store::{KvStore, StoreConfig};
use simdht::kvs::transport::ClientConn;
use simdht::workload::{KvWorkload, KvWorkloadSpec};

use bytes::Bytes;

fn spawn_kvsd(index_name: &str, capacity: usize) -> Kvsd {
    let store = Arc::new(KvStore::new(
        index::by_short_name(index_name, capacity).expect("known index"),
        StoreConfig {
            memory_budget: 16 << 20,
            capacity_items: capacity,
            shards: 1,
        },
    ));
    Kvsd::bind(store, "127.0.0.1:0").expect("bind ephemeral loopback port")
}

#[test]
fn networked_memslap_roundtrip_memc3_and_simd() {
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: 1500,
        n_requests: 200,
        mget_size: 16,
        ..KvWorkloadSpec::default()
    });
    for which in ["memc3", "ver"] {
        let kvsd = spawn_kvsd(which, 5000);
        let transport = TcpTransport::new(kvsd.local_addr()).unwrap();
        let report = run_memslap_over(
            &transport,
            &workload,
            &NetMemslapConfig {
                connections: 3,
                pipeline_depth: 8,
                set_fraction: 0.1,
                preload: true,
                ..NetMemslapConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{which}: {e}"));

        assert_eq!(report.requests + report.sets, 200, "{which}");
        assert!(report.sets > 5, "{which}: set mix missing");
        assert_eq!(report.keys, report.requests * 16, "{which}");
        // Every item was preloaded and Sets only overwrite existing keys.
        assert_eq!(report.hits, report.keys, "{which}: unexpected misses");
        assert_eq!(report.misses, 0, "{which}");
        // Percentiles are populated, ordered, and from a real clock.
        assert!(report.p50_latency_us > 0.0, "{which}");
        assert!(report.p95_latency_us >= report.p50_latency_us, "{which}");
        assert!(report.p99_latency_us >= report.p95_latency_us, "{which}");
        assert!(report.min_latency_us <= report.mean_latency_us, "{which}");
        assert!(report.keys_per_sec > 0.0, "{which}");

        // The server's aggregate stats agree with the client's view.
        let stats = kvsd.stats();
        assert_eq!(stats[Counter::Requests], report.requests, "{which}");
        assert_eq!(stats[Counter::Keys], report.keys, "{which}");
        assert_eq!(stats[Counter::Found], report.hits, "{which}");

        // Drain closes every connection (3 run + 1 preload), whose
        // retired counters still account for every request.
        let stats = kvsd.shutdown();
        assert_eq!(stats[Counter::ConnsClosed], 4, "{which}");
        assert_eq!(stats[Counter::Requests], report.requests, "{which}");
    }
}

#[test]
fn mget_hit_miss_pattern_is_exact_over_tcp() {
    let kvsd = spawn_kvsd("hor", 1000);
    let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();

    // Store two known pairs, pipelined with the subsequent lookup.
    for (id, key, value) in [(1u64, &b"alpha"[..], &b"A"[..]), (2, b"beta", b"B")] {
        conn.send(
            Request::Set {
                id,
                key: Bytes::copy_from_slice(key),
                value: Bytes::copy_from_slice(value),
            }
            .encode(),
        )
        .unwrap();
    }
    conn.send(
        Request::MGet {
            id: 3,
            keys: ["alpha", "missing", "beta", "also-missing"]
                .iter()
                .map(|k| Bytes::copy_from_slice(k.as_bytes()))
                .collect(),
        }
        .encode(),
    )
    .unwrap();

    for expect_id in [1u64, 2] {
        match Response::decode(conn.recv().unwrap()).unwrap() {
            Response::Set { id, ok } => {
                assert_eq!(id, expect_id);
                assert!(ok);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    match Response::decode(conn.recv().unwrap()).unwrap() {
        Response::MGet { id, entries } => {
            assert_eq!(id, 3);
            assert_eq!(entries.len(), 4);
            assert_eq!(entries[0].as_deref(), Some(&b"A"[..]));
            assert_eq!(entries[1], None, "absent key must miss");
            assert_eq!(entries[2].as_deref(), Some(&b"B"[..]));
            assert_eq!(entries[3], None, "absent key must miss");
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(conn);
    kvsd.shutdown();
}

#[test]
fn concurrent_clients_share_one_daemon() {
    let kvsd = spawn_kvsd("ver", 2000);
    let addr = kvsd.local_addr();
    // Populate from one client; read from many concurrently.
    let mut seed_conn = TcpConn::connect(addr).unwrap();
    for i in 0..500u32 {
        seed_conn
            .send(
                Request::Set {
                    id: u64::from(i),
                    key: Bytes::from(format!("shared-{i:04}").into_bytes()),
                    value: Bytes::copy_from_slice(&i.to_le_bytes()),
                }
                .encode(),
            )
            .unwrap();
    }
    for _ in 0..500 {
        let frame = seed_conn.recv().unwrap();
        assert!(matches!(
            Response::decode(frame).unwrap(),
            Response::Set { ok: true, .. }
        ));
    }

    std::thread::scope(|s| {
        for t in 0..4u32 {
            s.spawn(move || {
                let mut conn = TcpConn::connect(addr).unwrap();
                for round in 0..50u32 {
                    let i = (round * 11 + t * 3) % 500;
                    conn.send(
                        Request::MGet {
                            id: u64::from(round),
                            keys: vec![Bytes::from(format!("shared-{i:04}").into_bytes())],
                        }
                        .encode(),
                    )
                    .unwrap();
                    match Response::decode(conn.recv().unwrap()).unwrap() {
                        Response::MGet { entries, .. } => {
                            assert_eq!(entries[0].as_deref(), Some(&i.to_le_bytes()[..]));
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });
    drop(seed_conn);
    kvsd.shutdown();
}

#[test]
fn connection_shapes_agree_against_one_kvsd() {
    // Same read-only workload, same daemon, two client shapes: the counts a
    // client can observe must not depend on how its requests were spread
    // over connections and pipelines.
    let workload = KvWorkload::generate(&KvWorkloadSpec {
        n_items: 500,
        n_requests: 100,
        mget_size: 16,
        ..KvWorkloadSpec::default()
    });
    let kvsd = spawn_kvsd("memc3", 2000);
    let transport = TcpTransport::new(kvsd.local_addr()).unwrap();
    let threaded = run_memslap_over(
        &transport,
        &workload,
        &NetMemslapConfig {
            connections: 4,
            pipeline_depth: 2,
            ..NetMemslapConfig::default()
        },
    )
    .unwrap();
    let single = run_memslap_over(
        &transport,
        &workload,
        &NetMemslapConfig {
            connections: 1,
            pipeline_depth: 16,
            preload: false,
            ..NetMemslapConfig::default()
        },
    )
    .unwrap();
    let stats = kvsd.shutdown();
    assert_eq!(
        (threaded.requests, threaded.keys, threaded.hits),
        (100, 1600, 1600)
    );
    assert_eq!(
        (single.requests, single.keys, single.hits),
        (threaded.requests, threaded.keys, threaded.hits)
    );
    assert_eq!((single.failed, threaded.failed), (0, 0));
    // One daemon served both streams, each exactly once.
    assert_eq!(stats[Counter::Requests], 200);
    assert_eq!(stats[Counter::Found], 3200);
}

#[test]
fn long_lived_connection_survives_connection_churn() {
    // The accept loop joins finished handler threads as new connections
    // arrive; one that is still open must keep being served throughout.
    let kvsd = spawn_kvsd("memc3", 1000);
    let addr = kvsd.local_addr();
    let ping = |conn: &mut TcpConn, id: u64| {
        let keys = vec![Bytes::from_static(b"absent")];
        conn.send(Request::MGet { id, keys }.encode()).unwrap();
        match Response::decode(conn.recv().unwrap()).unwrap() {
            Response::MGet { id: got, entries } => assert_eq!((got, entries), (id, vec![None])),
            other => panic!("unexpected {other:?}"),
        }
    };
    let mut resident = TcpConn::connect(addr).unwrap();
    for i in 0..64u64 {
        let mut visitor = TcpConn::connect(addr).unwrap();
        ping(&mut visitor, i);
        drop(visitor);
        ping(&mut resident, 1000 + i);
    }
    drop(resident);
    let stats = kvsd.shutdown();
    assert_eq!(stats[Counter::ConnsClosed], 65);
    assert_eq!(stats[Counter::Requests], 128);
}
