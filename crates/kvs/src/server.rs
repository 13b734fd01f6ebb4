//! The key-value server: worker threads draining the fabric's receive
//! queue, running the store's three-phase Multi-Get pipeline, and sending
//! responses back — the "Memcached workers" of the paper's Fig. 10.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::protocol::{execute, ErrorCode, ExecScratch, Executed, Request, Response};
use crate::store::{KvStore, MGetOutcome, PhaseNanos};
use crate::transport::Fabric;

/// Aggregated server-side statistics across workers.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Multi-Get requests processed.
    pub requests: AtomicU64,
    /// Individual keys looked up.
    pub keys: AtomicU64,
    /// Keys found.
    pub found: AtomicU64,
    /// Requests answered with `ServerBusy`/`DeadlineExceeded` instead of
    /// being processed (load shedding / deadline misses).
    pub shed: AtomicU64,
    /// Busy nanoseconds (request decode → response encode), summed over
    /// workers.
    pub busy_ns: AtomicU64,
    /// Pre-processing phase nanoseconds.
    pub pre_ns: AtomicU64,
    /// Hash-table lookup phase nanoseconds.
    pub lookup_ns: AtomicU64,
    /// Post-processing phase nanoseconds.
    pub post_ns: AtomicU64,
}

impl ServerStats {
    /// Count `requests` Multi-Gets that looked up `keys` keys in one store
    /// call with the given outcome.
    pub fn record_mget(&self, requests: usize, keys: usize, outcome: &MGetOutcome) {
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
        self.keys.fetch_add(keys as u64, Ordering::Relaxed);
        self.found
            .fetch_add(outcome.found as u64, Ordering::Relaxed);
        self.record_phases(outcome.phases);
    }

    /// Add one store call's phase breakdown.
    pub fn record_phases(&self, phases: PhaseNanos) {
        self.pre_ns.fetch_add(phases.pre, Ordering::Relaxed);
        self.lookup_ns.fetch_add(phases.lookup, Ordering::Relaxed);
        self.post_ns.fetch_add(phases.post, Ordering::Relaxed);
    }

    /// Count one request [`crate::protocol::execute`] ran.
    pub fn record(&self, done: &Executed<'_>) {
        match &done.mget {
            Some((keys, outcome)) => self.record_mget(1, *keys, outcome),
            None => self.record_phases(done.write_phases),
        }
    }

    /// Snapshot the phase breakdown.
    pub fn phases(&self) -> PhaseNanos {
        PhaseNanos {
            pre: self.pre_ns.load(Ordering::Relaxed),
            lookup: self.lookup_ns.load(Ordering::Relaxed),
            post: self.post_ns.load(Ordering::Relaxed),
        }
    }

    /// Server-side Get throughput: keys processed per busy second per
    /// worker-second (the paper's server-side metric).
    pub fn keys_per_busy_sec(&self) -> f64 {
        let keys = self.keys.load(Ordering::Relaxed) as f64;
        let busy = self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        if busy > 0.0 {
            keys / busy
        } else {
            0.0
        }
    }
}

/// A running server: worker threads + shared statistics.
pub struct Server {
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
    fabric: Fabric,
    n_workers: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.n_workers)
            .finish()
    }
}

/// Configuration of the fabric server's worker pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads draining the receive queue.
    pub workers: usize,
    /// Load-shedding threshold: when, after dequeuing a request, more
    /// than this many envelopes still wait in the server-bound queue, the
    /// request is answered with
    /// [`crate::protocol::ErrorCode::ServerBusy`] instead of being
    /// processed. `None` disables shedding (requests queue until the
    /// bounded channel pushes back on senders).
    pub shed_queue_above: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            shed_queue_above: None,
        }
    }
}

impl Server {
    /// Spawn `n_workers` threads draining `fabric`'s receive queue against
    /// `store`, without load shedding.
    pub fn spawn(store: Arc<KvStore>, fabric: Fabric, n_workers: usize) -> Self {
        Self::spawn_with(
            store,
            fabric,
            ServerConfig {
                workers: n_workers,
                shed_queue_above: None,
            },
        )
    }

    /// Spawn a worker pool with full [`ServerConfig`] control.
    pub fn spawn_with(store: Arc<KvStore>, fabric: Fabric, config: ServerConfig) -> Self {
        let n_workers = config.workers;
        assert!(n_workers >= 1, "need at least one worker");
        let stats = Arc::new(ServerStats::default());
        let workers = (0..n_workers)
            .map(|_| {
                let rx = fabric.server_rx();
                let store = Arc::clone(&store);
                let stats = Arc::clone(&stats);
                let fabric = fabric.clone();
                std::thread::spawn(move || {
                    let mut scratch = ExecScratch::default();
                    while let Ok(envelope) = rx.recv() {
                        let t0 = Instant::now();
                        let request = match Request::decode(envelope.payload) {
                            Ok(r) => r,
                            Err(_) => continue,
                        };
                        let reply = |payload| {
                            if let Some(reply) = &envelope.reply_to {
                                fabric.send_response(reply, payload);
                            }
                        };
                        // Shed before touching the store: the queue depth
                        // *behind* this request measures how far behind
                        // the pool is running.
                        if let (Some(limit), Some(id)) = (config.shed_queue_above, request.id()) {
                            if rx.len() > limit {
                                stats.shed.fetch_add(1, Ordering::Relaxed);
                                let code = ErrorCode::ServerBusy;
                                reply(Response::Error { id, code }.encode());
                                continue;
                            }
                        }
                        let Some(done) = execute(&store, &request, &mut scratch) else {
                            break; // Shutdown
                        };
                        stats.record(&done);
                        reply(bytes::Bytes::copy_from_slice(done.reply));
                        stats
                            .busy_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Server {
            workers,
            stats,
            fabric,
            n_workers,
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Send one shutdown message per worker and join them.
    pub fn shutdown(self) {
        for _ in 0..self.n_workers {
            self.fabric.send_request(Request::Shutdown.encode(), None);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Memc3Index, SimdIndex, SimdIndexKind};
    use crate::store::StoreConfig;
    use crate::transport::FabricConfig;
    use bytes::Bytes;

    fn run_roundtrip(store: KvStore) {
        let store = Arc::new(store);
        store.set(b"present", b"the-value").unwrap();
        let fabric = Fabric::new(FabricConfig::ib_edr());
        let server = Server::spawn(Arc::clone(&store), fabric.clone(), 2);

        let (reply_tx, reply_rx) = Fabric::client_endpoint();
        let req = Request::MGet {
            id: 11,
            keys: vec![
                Bytes::from_static(b"present"),
                Bytes::from_static(b"absent"),
            ],
        };
        fabric.send_request(req.encode(), Some(reply_tx));
        let env = reply_rx.recv().unwrap();
        match Response::decode(env.payload).unwrap() {
            Response::MGet { id, entries } => {
                assert_eq!(id, 11);
                assert_eq!(entries[0].as_deref(), Some(&b"the-value"[..]));
                assert_eq!(entries[1], None);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 1);
        assert_eq!(stats.keys.load(Ordering::Relaxed), 2);
        assert_eq!(stats.found.load(Ordering::Relaxed), 1);
        assert!(stats.phases().total() > 0);
        server.shutdown();
    }

    #[test]
    fn mget_roundtrip_memc3() {
        run_roundtrip(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
    }

    #[test]
    fn mget_roundtrip_simd_vertical() {
        run_roundtrip(KvStore::new(
            Box::new(SimdIndex::with_capacity(SimdIndexKind::VerticalNway, 100)),
            StoreConfig::default(),
        ));
    }

    #[test]
    fn set_over_the_wire() {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
        let fabric = Fabric::new(FabricConfig::zero());
        let server = Server::spawn(Arc::clone(&store), fabric.clone(), 1);
        let (reply_tx, reply_rx) = Fabric::client_endpoint();
        fabric.send_request(
            Request::Set {
                id: 1,
                key: Bytes::from_static(b"wk"),
                value: Bytes::from_static(b"wv"),
            }
            .encode(),
            Some(reply_tx),
        );
        match Response::decode(reply_rx.recv().unwrap().payload).unwrap() {
            Response::Set { ok, .. } => assert!(ok),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
        assert_eq!(store.get(b"wk").as_deref(), Some(&b"wv"[..]));
    }

    #[test]
    fn backlog_above_threshold_sheds_with_server_busy() {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
        store.set(b"present", b"v").unwrap();
        let fabric = Fabric::new(FabricConfig::zero());
        // Queue all requests *before* the single worker exists, so the
        // backlog countdown is deterministic: popping request k leaves
        // 9-k behind, and with shed_queue_above=4 exactly requests 0..5
        // (backlogs 9..5) shed while 5..10 (backlogs 4..0) are served.
        let (reply_tx, reply_rx) = Fabric::client_endpoint();
        for id in 0..10u64 {
            fabric.send_request(
                Request::MGet {
                    id,
                    keys: vec![Bytes::from_static(b"present")],
                }
                .encode(),
                Some(reply_tx.clone()),
            );
        }
        let server = Server::spawn_with(
            Arc::clone(&store),
            fabric.clone(),
            ServerConfig {
                workers: 1,
                shed_queue_above: Some(4),
            },
        );
        let (mut shed, mut served) = (0, 0);
        for _ in 0..10 {
            match Response::decode(reply_rx.recv().unwrap().payload).unwrap() {
                Response::Error {
                    code: ErrorCode::ServerBusy,
                    ..
                } => shed += 1,
                Response::MGet { entries, .. } => {
                    assert_eq!(entries[0].as_deref(), Some(&b"v"[..]));
                    served += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(shed, 5);
        assert_eq!(served, 5);
        let stats = server.stats();
        assert_eq!(stats.shed.load(Ordering::Relaxed), 5);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 5);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_workers() {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(10)),
            StoreConfig::default(),
        ));
        let fabric = Fabric::new(FabricConfig::zero());
        let server = Server::spawn(store, fabric, 4);
        server.shutdown(); // must not hang
    }
}
