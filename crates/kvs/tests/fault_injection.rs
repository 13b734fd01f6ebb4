//! The fault matrix: a live `Kvsd` daemon behind a seeded
//! [`FaultyTransport`], driven by the resilient [`RetryClient`] across
//! every fault kind × scenario × seed. The contract under test is the
//! tentpole of the failure model:
//!
//! * the client **never hangs** (a watchdog thread enforces it),
//! * the client **never observes a wrong value** — every Multi-Get
//!   either matches the oracle exactly or fails with a clean typed
//!   error, and every Set lands in a state the oracle admits,
//! * the versioned point verbs honor their idempotency classes: Delete
//!   and Touch are retried (so any completed answer is a confirmation),
//!   CAS is never resent (so its oracle is a possible-values set that an
//!   uncertain swap joins permanently),
//! * a no-fault `FaultSpec` is a byte-identical passthrough (checked
//!   differentially against plain TCP on the same daemon),
//! * killing the daemon mid-pipeline yields partial results from the
//!   networked memslap driver, not an abort.
//!
//! Seed count scales with the `FAULT_SEEDS` env var (default 8; CI runs
//! 100, and ≥64 satisfies the acceptance matrix).

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use simdht_kvs::client::{RetryClient, RetryPolicy, SetOutcome};
use simdht_kvs::fault::{FaultKind, FaultPlan, FaultSpec, FaultyTransport};
use simdht_kvs::index::by_short_name;
use simdht_kvs::kvsd::Kvsd;
use simdht_kvs::memslap::{run_memslap_over, NetMemslapConfig};
use simdht_kvs::metrics::Counter;
use simdht_kvs::net::TcpTransport;
use simdht_kvs::protocol::{Request, Response};
use simdht_kvs::store::{KvStore, StoreConfig};
use simdht_kvs::transport::Transport;
use simdht_workload::{KvWorkload, KvWorkloadSpec};

fn fault_seeds() -> u64 {
    std::env::var("FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// `INDEX` selects the index family the whole fault matrix runs against
/// (any `by_short_name` spelling; default `memc3`). Validated eagerly so
/// a typo fails the suite instead of silently testing the default.
fn index_name() -> String {
    let name = std::env::var("INDEX").unwrap_or_else(|_| "memc3".to_string());
    assert!(
        by_short_name(&name, 64).is_some(),
        "INDEX={name}: expected a short index name known to by_short_name",
    );
    name
}

fn spawn_daemon(capacity: usize) -> (Kvsd, Arc<KvStore>) {
    let store = Arc::new(KvStore::new(
        by_short_name(&index_name(), capacity).expect("known index"),
        StoreConfig {
            memory_budget: 4 << 20,
            capacity_items: capacity,
            shards: 1,
        },
    ));
    let daemon = Kvsd::bind(Arc::clone(&store), "127.0.0.1:0").expect("bind ephemeral port");
    (daemon, store)
}

/// Retry policy tuned for the matrix: timeouts short enough that a
/// dropped frame costs ~80 ms, retries generous enough that most
/// operations eventually land.
fn matrix_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 6,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        jitter: 0.5,
        recv_timeout: Some(Duration::from_millis(80)),
    }
}

fn spec_for(kind: FaultKind, seed: u64) -> FaultSpec {
    let p = match kind {
        FaultKind::Drop => 0.05,
        FaultKind::Delay => 0.25,
        FaultKind::Truncate => 0.05,
        FaultKind::Corrupt => 0.05,
        FaultKind::Close => 0.03,
    };
    FaultSpec::only(seed, kind, p)
}

/// Run `f` on its own thread and panic if it neither finishes nor
/// panics within the deadline — a hang is a first-class failure here,
/// not a CI timeout.
fn with_watchdog(label: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => handle.join().expect("case thread"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The case panicked: join to propagate the original message.
            handle.join().expect("case thread panicked");
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: hang detected (watchdog fired after 60s)");
        }
    }
}

fn key(i: usize) -> Bytes {
    Bytes::from(format!("fault-key-{i:03}").into_bytes())
}

fn value(seed: u64, i: usize) -> Bytes {
    Bytes::from(format!("value-{seed:08x}-{i:02}").into_bytes())
}

#[derive(Copy, Clone, Debug)]
enum Scenario {
    /// All writes flow through the faulty wrapper; a clean client
    /// verifies the surviving state afterwards.
    Preload,
    /// Same contract for the batched write verb: all writes flow as
    /// 4-pair `SetMulti` frames through the faulty wrapper. The batch is
    /// non-idempotent and never retried, so an uncertain batch may have
    /// landed in full, in part, or not at all — each key independently
    /// absent-or-exact afterwards.
    BatchPreload,
    /// Read-only Multi-Gets over a directly-seeded store; every
    /// successful response must match the store exactly.
    Mget,
    /// Interleaved Sets and Multi-Gets with a possible-values oracle
    /// tracking each key through uncertain outcomes.
    Mixed,
    /// The idempotent point verbs under faults: Deletes (retried, so any
    /// `Ok` — `true` *or* `false` — proves the key is gone) on half the
    /// keys and Touches on the other half, verified over a clean
    /// connection afterwards.
    PointVerbs,
    /// Compare-and-swap under faults: never resent, so the oracle is a
    /// possible-values set per key that grows on `Stored` *and* on
    /// `Uncertain` (a delayed frame may still land after later reads) —
    /// and the daemon must never answer `NotFound`/`Rejected`/`Shed` for
    /// a live key on an unshedding server.
    Cas,
}

const N_KEYS: usize = 12;

fn run_case(kind: FaultKind, scenario: Scenario, seed: u64) {
    let (kvsd, store) = spawn_daemon(256);
    let tcp = TcpTransport::new(kvsd.local_addr()).expect("loopback transport");
    let plan = Arc::new(FaultPlan::new(spec_for(kind, seed)));
    let faulty = FaultyTransport::new(&tcp, Arc::clone(&plan));
    let mut client = RetryClient::new(&faulty, matrix_policy(), seed);

    match scenario {
        Scenario::Preload => {
            // Oracle per key: Some(v) = confirmed stored; None = the
            // write may or may not have landed (lost response).
            let mut oracle: Vec<Option<bool>> = Vec::new();
            for i in 0..N_KEYS {
                match client.set(key(i), value(seed, i)) {
                    Ok(SetOutcome::Stored) => oracle.push(Some(true)),
                    // No shedding is configured and the budget fits, so
                    // Shed/Rejected would be wrong answers, not noise.
                    Ok(SetOutcome::Shed) | Ok(SetOutcome::Rejected) => {
                        panic!("unfaulted daemon refused a set")
                    }
                    Ok(SetOutcome::Uncertain) => oracle.push(None),
                    // Connect failures cannot happen against a live
                    // loopback daemon; surface anything else.
                    Err(e) => panic!("set returned a connect error: {e}"),
                }
            }
            // Verify over a clean connection: confirmed writes must be
            // present and exact; uncertain writes are absent or exact.
            let mut verify = RetryClient::new(&tcp, RetryPolicy::default(), seed ^ 1);
            let keys: Vec<Bytes> = (0..N_KEYS).map(key).collect();
            let entries = verify.mget(&keys).expect("clean verify mget");
            for (i, certain) in oracle.iter().enumerate() {
                match (certain, &entries[i]) {
                    (Some(true), Some(v)) => assert_eq!(v, &value(seed, i), "key {i}"),
                    (Some(true), None) => panic!("confirmed set of key {i} vanished"),
                    (None, Some(v)) => assert_eq!(v, &value(seed, i), "uncertain key {i}"),
                    (None, None) => {} // lost before the store: fine
                    (Some(false), _) => unreachable!(),
                }
            }
        }
        Scenario::BatchPreload => {
            // Oracle per key, exactly as in Preload; the batch verb just
            // changes how outcomes arrive — one vector per 4-pair frame.
            let mut oracle: Vec<Option<bool>> = Vec::new();
            let indices: Vec<usize> = (0..N_KEYS).collect();
            for chunk in indices.chunks(4) {
                let pairs: Vec<(Bytes, Bytes)> =
                    chunk.iter().map(|&i| (key(i), value(seed, i))).collect();
                match client.set_multi(&pairs) {
                    Ok(outcomes) => {
                        assert_eq!(outcomes.len(), pairs.len(), "one outcome per pair");
                        for o in outcomes {
                            match o {
                                SetOutcome::Stored => oracle.push(Some(true)),
                                SetOutcome::Uncertain => oracle.push(None),
                                SetOutcome::Shed | SetOutcome::Rejected => {
                                    panic!("unfaulted daemon refused a batched set")
                                }
                            }
                        }
                    }
                    Err(e) => panic!("set_multi returned a connect error: {e}"),
                }
            }
            let mut verify = RetryClient::new(&tcp, RetryPolicy::default(), seed ^ 1);
            let keys: Vec<Bytes> = (0..N_KEYS).map(key).collect();
            let entries = verify.mget(&keys).expect("clean verify mget");
            for (i, certain) in oracle.iter().enumerate() {
                match (certain, &entries[i]) {
                    (Some(true), Some(v)) => assert_eq!(v, &value(seed, i), "key {i}"),
                    (Some(true), None) => panic!("confirmed batched set of key {i} vanished"),
                    (None, Some(v)) => assert_eq!(v, &value(seed, i), "uncertain key {i}"),
                    (None, None) => {} // batch (or this suffix of it) lost: fine
                    (Some(false), _) => unreachable!(),
                }
            }
        }
        Scenario::Mget => {
            for i in 0..N_KEYS {
                store.set(&key(i), &value(seed, i)).expect("direct preload");
            }
            let mut clean_failures = 0u32;
            for round in 0..10usize {
                let mut keys: Vec<Bytes> = (0..3).map(|j| key((round * 3 + j) % N_KEYS)).collect();
                keys.push(Bytes::from(format!("absent-{round}").into_bytes()));
                match client.mget(&keys) {
                    Ok(entries) => {
                        assert_eq!(entries.len(), 4, "round {round}");
                        for (j, entry) in entries.iter().take(3).enumerate() {
                            let i = (round * 3 + j) % N_KEYS;
                            assert_eq!(
                                entry.as_ref(),
                                Some(&value(seed, i)),
                                "round {round} slot {j}: wrong or missing value"
                            );
                        }
                        assert_eq!(entries[3], None, "round {round}: phantom hit");
                    }
                    // Clean typed failure after exhausted retries is an
                    // allowed outcome — a wrong value never is.
                    Err(_) => clean_failures += 1,
                }
            }
            // With max_retries=6 the whole run collapsing would point at
            // a wedged client rather than bad luck.
            assert!(clean_failures < 10, "every single round failed");
        }
        Scenario::Mixed => {
            // Possible-values oracle: a key's observable value must be a
            // member of its set. Never collapse on reads — an uncertain
            // Set buffered in a dying server handler may still land
            // *after* a later read on a fresh connection.
            let mut oracle: HashMap<usize, HashSet<Bytes>> = HashMap::new();
            for i in 0..N_KEYS {
                store.set(&key(i), &value(seed, i)).expect("direct preload");
                oracle.entry(i).or_default().insert(value(seed, i));
            }
            for t in 0..24usize {
                let i = t % N_KEYS;
                if t % 3 == 0 {
                    let fresh = Bytes::from(format!("v{t:02}-{seed:016x}").into_bytes());
                    match client.set(key(i), fresh.clone()) {
                        Ok(SetOutcome::Stored) | Ok(SetOutcome::Uncertain) => {
                            oracle.get_mut(&i).expect("preloaded").insert(fresh);
                        }
                        Ok(SetOutcome::Shed) | Ok(SetOutcome::Rejected) => {
                            panic!("unfaulted daemon refused a set")
                        }
                        Err(e) => panic!("set returned a connect error: {e}"),
                    }
                } else {
                    let keys = [key(i), key((i + 5) % N_KEYS)];
                    if let Ok(entries) = client.mget(&keys) {
                        for (slot, k) in [i, (i + 5) % N_KEYS].into_iter().enumerate() {
                            let got = entries[slot]
                                .as_ref()
                                .unwrap_or_else(|| panic!("preloaded key {k} read as absent"));
                            assert!(
                                oracle[&k].contains(got),
                                "key {k} returned a value the oracle never admitted"
                            );
                        }
                    }
                }
            }
        }
        Scenario::PointVerbs => {
            for i in 0..N_KEYS {
                store.set(&key(i), &value(seed, i)).expect("direct preload");
            }
            // Deletes on even keys. The verb is idempotent and retried,
            // which makes *both* Ok answers confirmations: `true` is the
            // delete landing, and `false` (NotFound on a preloaded key
            // nobody else touches) can only mean an earlier attempt's
            // delete landed and its response was lost. Only a clean typed
            // error after exhausted retries leaves the key uncertain.
            let mut confirmed_gone = [false; N_KEYS];
            for i in (0..N_KEYS).step_by(2) {
                // A clean error leaves the key uncertain: absent or
                // untouched, checked below.
                if client.delete(key(i)).is_ok() {
                    confirmed_gone[i] = true;
                }
            }
            // Touches on odd keys: retried like deletes, and on a live
            // key that nothing deletes or expires, a completed touch must
            // find it — `Ok(false)` would be the daemon lying.
            for i in (1..N_KEYS).step_by(2) {
                match client.touch(key(i), 3600) {
                    Ok(true) => {}
                    Ok(false) => panic!("touch reported live key {i} as missing"),
                    Err(_) => {} // clean failure after retries: fine
                }
            }
            let mut verify = RetryClient::new(&tcp, RetryPolicy::default(), seed ^ 1);
            let keys: Vec<Bytes> = (0..N_KEYS).map(key).collect();
            let entries = verify.mget(&keys).expect("clean verify mget");
            for (i, entry) in entries.iter().enumerate() {
                if i % 2 == 0 {
                    if confirmed_gone[i] {
                        assert_eq!(entry, &None, "confirmed-deleted key {i} came back");
                    } else if let Some(v) = entry {
                        // Uncertain delete: the key is gone or untouched,
                        // never a different value.
                        assert_eq!(v, &value(seed, i), "uncertain-deleted key {i}");
                    }
                } else {
                    // Touch must never change (or lose) the value.
                    assert_eq!(
                        entry.as_ref(),
                        Some(&value(seed, i)),
                        "touched key {i} lost or changed its value"
                    );
                }
            }
        }
        Scenario::Cas => {
            use simdht_kvs::client::CasNetOutcome;

            // Possible-values oracle, as in Mixed, but CAS is never
            // resent: an Uncertain swap stays in the set forever because
            // a delayed request frame can still apply after later reads.
            let mut oracle: Vec<HashSet<Bytes>> = Vec::new();
            let mut expected: Vec<u64> = vec![1; N_KEYS];
            for i in 0..N_KEYS {
                store.set(&key(i), &value(seed, i)).expect("direct preload");
                oracle.push(HashSet::from([value(seed, i)]));
            }
            for t in 0..24usize {
                let i = t % N_KEYS;
                let fresh = Bytes::from(format!("cas{t:02}-{seed:016x}").into_bytes());
                match client.cas(key(i), expected[i], fresh.clone(), 0) {
                    Ok(CasNetOutcome::Stored(v)) => {
                        // A successful swap linearizes at the expected
                        // version exactly; the store bumps by one.
                        assert_eq!(v, expected[i] + 1, "key {i}: stored at the wrong version");
                        oracle[i].insert(fresh);
                        expected[i] = v;
                    }
                    Ok(CasNetOutcome::Conflict(v)) => {
                        // The only other writer is our own uncertain past
                        // self, so adopt the reported current version for
                        // the next attempt; the value set is unchanged.
                        assert!(v >= 1, "key {i}: conflict against version 0");
                        expected[i] = v;
                    }
                    Ok(CasNetOutcome::NotFound) => {
                        panic!("key {i}: cas reported a live key as missing")
                    }
                    Ok(CasNetOutcome::Rejected) => panic!("unfaulted daemon rejected a cas"),
                    Ok(CasNetOutcome::Shed) => panic!("unshedding daemon shed a cas"),
                    Ok(CasNetOutcome::Uncertain) => {
                        oracle[i].insert(fresh);
                    }
                    Err(e) => panic!("cas returned a connect error: {e}"),
                }
            }
            let mut verify = RetryClient::new(&tcp, RetryPolicy::default(), seed ^ 1);
            let keys: Vec<Bytes> = (0..N_KEYS).map(key).collect();
            let entries = verify.mget(&keys).expect("clean verify mget");
            for (i, entry) in entries.iter().enumerate() {
                let got = entry
                    .as_ref()
                    .unwrap_or_else(|| panic!("preloaded key {i} read as absent"));
                assert!(
                    oracle[i].contains(got),
                    "key {i} holds a value the oracle never admitted"
                );
                let (_, version) = store.get_v(&key(i)).expect("live key has a version");
                assert!(version >= 1, "key {i}: versions start at 1");
            }
        }
    }

    drop(client);
    kvsd.shutdown();
}

#[test]
fn fault_matrix_never_hangs_or_lies() {
    let seeds = fault_seeds();
    for kind in [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Truncate,
        FaultKind::Corrupt,
        FaultKind::Close,
    ] {
        for scenario in [
            Scenario::Preload,
            Scenario::BatchPreload,
            Scenario::Mget,
            Scenario::Mixed,
            Scenario::PointVerbs,
            Scenario::Cas,
        ] {
            for seed in 0..seeds {
                let label = format!("{kind:?}/{scenario:?}/seed={seed}");
                with_watchdog(&label, move || run_case(kind, scenario, seed));
            }
        }
    }
}

/// Differential check of the no-fault passthrough: the same request
/// sequence through `FaultSpec::none` and through plain TCP, against the
/// same daemon, must produce byte-identical response frames.
#[test]
fn no_fault_plan_matches_plain_tcp_byte_for_byte() {
    let (kvsd, store) = spawn_daemon(64);
    for i in 0..8usize {
        store.set(&key(i), &value(7, i)).expect("preload");
    }
    let tcp = TcpTransport::new(kvsd.local_addr()).expect("transport");
    let plan = Arc::new(FaultPlan::new(FaultSpec::none(42)));
    let faulty = FaultyTransport::new(&tcp, Arc::clone(&plan));

    let requests: Vec<Bytes> = vec![
        Request::MGet {
            id: 1,
            keys: (0..8).map(key).collect(),
        }
        .encode(),
        Request::Set {
            id: 2,
            key: key(3),
            value: value(7, 3), // overwrite with the identical value
        }
        .encode(),
        Request::MGet {
            id: 3,
            keys: vec![key(3), Bytes::from_static(b"definitely-absent")],
        }
        .encode(),
        Request::SetMulti {
            id: 4,
            // Overwrite with the identical values so both drives see the
            // same store whatever order they run in.
            pairs: vec![(key(4), value(7, 4)), (key(5), value(7, 5))],
        }
        .encode(),
        Request::MGet {
            id: 5,
            keys: vec![key(4), key(5)],
        }
        .encode(),
    ];

    let drive = |transport: &dyn Transport| -> Vec<Vec<u8>> {
        let mut conn = transport.connect().expect("connect");
        let mut frames = Vec::new();
        for frame in &requests {
            conn.send(frame.clone()).expect("send");
            conn.flush().expect("flush");
            let payload = conn.recv().expect("recv");
            // Decode as a sanity check, then keep the raw bytes.
            Response::decode(payload.clone()).expect("decode");
            frames.push(payload.to_vec());
        }
        frames
    };

    let plain = drive(&tcp);
    let wrapped = drive(&faulty);
    assert_eq!(plain, wrapped, "no-fault wrapper altered bytes");
    assert_eq!(plan.counters().total(), 0, "no-fault plan injected faults");
    kvsd.shutdown();
}

/// Kill the daemon while the networked memslap driver is mid-pipeline:
/// the run must come back `Ok` with partial results — completed requests
/// counted, abandoned ones reported as failed — rather than aborting.
#[test]
fn daemon_killed_mid_pipeline_yields_partial_results() {
    with_watchdog("kill-mid-pipeline", || {
        let (kvsd, _store) = spawn_daemon(2048);
        let addr = kvsd.local_addr();

        let workload = KvWorkload::generate(&KvWorkloadSpec {
            n_items: 1000,
            n_requests: 20_000,
            mget_size: 8,
            key_bytes: 16,
            value_bytes: 24,
            ..KvWorkloadSpec::default()
        });
        let config = NetMemslapConfig {
            connections: 2,
            pipeline_depth: 8,
            set_fraction: 0.0,
            write_frac: 0.0,
            delete_frac: 0.0,
            cas_frac: 0.0,
            ttl_secs: 0,
            preload: true,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                jitter: 0.5,
                recv_timeout: Some(Duration::from_millis(250)),
            },
            faults: None,
        };

        std::thread::scope(|s| {
            let run = s.spawn(|| {
                let transport = TcpTransport::new(addr).expect("transport");
                run_memslap_over(&transport, &workload, &config)
            });
            // Wait until the Multi-Get phase is demonstrably underway,
            // then pull the daemon out from under it. The trigger sits
            // well above the `>= 50` assertion below: the server counts a
            // request when it processes it, before the client reads the
            // response, so a poisoned stream can lose up to a pipeline
            // window of server-counted completions per timeout. The
            // cushion keeps that race from starving the assertion on
            // single-CPU runners.
            while kvsd.stats()[Counter::Requests] < 200 {
                std::thread::sleep(Duration::from_micros(200));
            }
            kvsd.shutdown();

            let report = run
                .join()
                .expect("driver thread")
                .expect("mid-pipeline kill must yield partial results, not an error");
            assert!(report.requests >= 50, "completed work went missing");
            assert!(report.failed > 0, "abandoned requests must be reported");
            assert_eq!(
                report.requests + report.failed,
                20_000,
                "every request accounted for as completed or failed"
            );
            assert!(report.reconnects > 0, "driver never tried to recover");
        });
    });
}
