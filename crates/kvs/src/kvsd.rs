//! `simdht-kvsd`: the KVS served over real TCP sockets.
//!
//! The fabric-based [`crate::server::Server`] measures the store behind a
//! modeled link; [`Kvsd`] is the same store behind an actual network stack:
//! a multithreaded accept loop, one handler thread per connection, framed
//! I/O from [`crate::net`], and request **pipelining** — a client may keep
//! many requests in flight on one connection, and the handler answers them
//! in order, flushing its write buffer only when the read side would block
//! (so a burst of pipelined requests coalesces into few syscalls).
//!
//! ## Shutdown / drain
//!
//! [`Kvsd::shutdown`] stops accepting, then half-closes the read side of
//! every live connection. Handlers finish the requests they have already
//! read, flush their responses, record a per-connection summary, and exit —
//! no request that reached the server is dropped.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::net::{read_frame, write_frame};
use crate::protocol::{execute, ErrorCode, ExecScratch, Executed, Request, Response};
use crate::server::ServerStats;
use crate::store::KvStore;

/// Graceful-degradation knobs of the TCP daemon.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KvsdConfig {
    /// Per-request deadline, measured from the moment the request frame
    /// is read off the socket. A request that cannot start processing
    /// (e.g. waiting for an inflight slot) before the deadline is
    /// answered with [`ErrorCode::ServerBusy`]; one already past its
    /// deadline when it would start is answered with
    /// [`ErrorCode::DeadlineExceeded`]. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Cap on requests being processed simultaneously across all
    /// connections. Handlers over the cap wait (bounded by `deadline`)
    /// and shed with [`ErrorCode::ServerBusy`] when the wait expires.
    /// `Some(0)` sheds everything — useful for drills. `None` = no cap.
    pub max_inflight: Option<usize>,
    /// Close a connection after this long without a complete request
    /// frame, so a dying or wedged client cannot hold its handler thread
    /// (and an inflight slot's worth of buffered work) forever.
    /// `None` = wait indefinitely.
    pub idle_timeout: Option<Duration>,
}

/// What one connection did, recorded when it closes.
#[derive(Clone, Debug)]
pub struct ConnSummary {
    /// Client address.
    pub peer: SocketAddr,
    /// Multi-Get requests served.
    pub requests: u64,
    /// Set requests served.
    pub sets: u64,
    /// Keys looked up.
    pub keys: u64,
    /// Keys found.
    pub found: u64,
    /// Requests answered with a shed/deadline error instead of a result.
    pub shed: u64,
    /// Busy nanoseconds (frame decode → response encode).
    pub busy_ns: u64,
    /// Which reactor event loop served the connection
    /// (`None` under the thread-per-connection server).
    pub reactor: Option<usize>,
}

impl ConnSummary {
    /// A connection from `peer` that has served nothing yet.
    pub(crate) fn new(peer: SocketAddr, reactor: Option<usize>) -> Self {
        ConnSummary {
            peer,
            requests: 0,
            sets: 0,
            keys: 0,
            found: 0,
            shed: 0,
            busy_ns: 0,
            reactor,
        }
    }

    /// Count one request [`execute`] ran on this connection.
    pub(crate) fn record(&mut self, done: &Executed<'_>) {
        if let Some((keys, outcome)) = &done.mget {
            self.requests += 1;
            self.keys += *keys as u64;
            self.found += outcome.found as u64;
        }
        self.sets += done.writes as u64;
    }
}

/// Counting semaphore bounding simultaneously-processed requests.
struct InflightGauge {
    limit: usize,
    count: Mutex<usize>,
    released: Condvar,
}

impl InflightGauge {
    fn new(limit: usize) -> Self {
        InflightGauge {
            limit,
            count: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// Take a slot, waiting at most `wait` (forever if `None`). Returns
    /// false if no slot opened in time; a `limit` of zero never admits.
    fn acquire(&self, wait: Option<Duration>) -> bool {
        if self.limit == 0 {
            return false;
        }
        let mut count = self.count.lock().unwrap();
        match wait {
            None => {
                while *count >= self.limit {
                    count = self.released.wait(count).unwrap();
                }
            }
            Some(wait) => {
                let deadline = Instant::now() + wait;
                while *count >= self.limit {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    let (guard, timeout) = self.released.wait_timeout(count, left).unwrap();
                    count = guard;
                    if timeout.timed_out() && *count >= self.limit {
                        return false;
                    }
                }
            }
        }
        *count += 1;
        true
    }

    fn release(&self) {
        *self.count.lock().unwrap() -= 1;
        self.released.notify_one();
    }
}

/// RAII permit from an [`InflightGauge`]: releases on drop, so every exit
/// path of a request (including write-error breaks) frees its slot.
struct SlotGuard<'a>(&'a InflightGauge);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

#[derive(Default)]
struct Registry {
    /// Live connections: (id, read-half clone used to interrupt the
    /// handler's blocking read on shutdown).
    streams: Mutex<Vec<(u64, TcpStream)>>,
    /// Handler threads not yet joined (finished ones are reaped on each
    /// accept, the rest at shutdown).
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Closed-connection summaries.
    summaries: Mutex<Vec<ConnSummary>>,
    next_id: AtomicU64,
}

/// A running TCP KVS daemon.
pub struct Kvsd {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    registry: Arc<Registry>,
    shutting_down: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Kvsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kvsd")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Kvsd {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting,
    /// with no deadlines, inflight cap, or idle timeout.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(store: Arc<KvStore>, addr: impl ToSocketAddrs) -> std::io::Result<Kvsd> {
        Self::bind_with(store, addr, KvsdConfig::default())
    }

    /// Bind with full [`KvsdConfig`] control over graceful degradation.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind_with(
        store: Arc<KvStore>,
        addr: impl ToSocketAddrs,
        config: KvsdConfig,
    ) -> std::io::Result<Kvsd> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let registry = Arc::new(Registry::default());
        let shutting_down = Arc::new(AtomicBool::new(false));
        let gauge = config.max_inflight.map(|n| Arc::new(InflightGauge::new(n)));

        let accept_thread = {
            let (stats, registry, shutting_down) = (
                Arc::clone(&stats),
                Arc::clone(&registry),
                Arc::clone(&shutting_down),
            );
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let id = registry.next_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        registry.streams.lock().unwrap().push((id, clone));
                    }
                    let handle = {
                        let (store, stats, registry) = (
                            Arc::clone(&store),
                            Arc::clone(&stats),
                            Arc::clone(&registry),
                        );
                        let gauge = gauge.clone();
                        std::thread::spawn(move || {
                            let summary = handle_connection(&store, &stats, stream, config, gauge);
                            let mut streams = registry.streams.lock().unwrap();
                            streams.retain(|(i, _)| *i != id);
                            drop(streams);
                            registry.summaries.lock().unwrap().push(summary);
                        })
                    };
                    // Join handlers that have already returned, so a
                    // long-lived daemon under connection churn keeps one
                    // handle per live connection, not per connection ever.
                    let mut handles = registry.handles.lock().unwrap();
                    let mut i = 0;
                    while i < handles.len() {
                        if handles[i].is_finished() {
                            let _ = handles.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    handles.push(handle);
                }
            })
        };

        Ok(Kvsd {
            local_addr,
            stats,
            registry,
            shutting_down,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Aggregate statistics across all connections, live.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Summaries of connections that have closed so far.
    pub fn connection_summaries(&self) -> Vec<ConnSummary> {
        self.registry.summaries.lock().unwrap().clone()
    }

    /// Stop accepting, drain in-flight requests on every connection, join
    /// all threads, and return the final per-connection summaries.
    pub fn shutdown(mut self) -> Vec<ConnSummary> {
        self.stop();
        self.registry.summaries.lock().unwrap().clone()
    }

    fn stop(&mut self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Half-close the read side of live connections: their handlers see
        // EOF after the requests already on the wire, answer them, flush,
        // and exit.
        for (_, stream) in self.registry.streams.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.registry.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Kvsd {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(
    store: &KvStore,
    stats: &ServerStats,
    stream: TcpStream,
    config: KvsdConfig,
    gauge: Option<Arc<InflightGauge>>,
) -> ConnSummary {
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
    let mut conn = ConnSummary::new(peer, None);
    let Ok(read_half) = stream.try_clone() else {
        return conn;
    };
    if read_half.set_read_timeout(config.idle_timeout).is_err() {
        return conn;
    }
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut scratch = ExecScratch::default();

    loop {
        // About to block on the socket: push out everything answered so
        // far. While pipelined requests are already buffered, keep
        // processing without a flush per response.
        if reader.buffer().is_empty() && writer.flush().is_err() {
            break;
        }
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // EOF, unframed garbage, or an idle timeout (a dying client
            // stalled mid-frame): close rather than hold the thread.
            Ok(None) | Err(_) => break,
        };
        let t0 = Instant::now();
        // A malformed frame means the stream is unframed garbage or a
        // protocol bug; drop the connection rather than guess at resync.
        let Ok(request) = Request::decode(frame) else {
            break;
        };
        // Graceful degradation gate: acquire an inflight slot (waiting at
        // most the request deadline), then re-check the deadline before
        // touching the store. A shed request gets a typed error response
        // and the connection lives on.
        let mut slot: Option<SlotGuard<'_>> = None;
        if let Some(id) = request.id() {
            let code = if let Some(g) = gauge.as_deref() {
                if g.acquire(config.deadline) {
                    slot = Some(SlotGuard(g));
                    None
                } else {
                    Some(ErrorCode::ServerBusy)
                }
            } else {
                None
            };
            let code = code.or_else(|| {
                config
                    .deadline
                    .is_some_and(|d| t0.elapsed() > d)
                    .then_some(ErrorCode::DeadlineExceeded)
            });
            if let Some(code) = code {
                drop(slot.take());
                conn.shed += 1;
                stats.shed.fetch_add(1, Ordering::Relaxed);
                let payload = Response::Error { id, code }.encode();
                if write_frame(&mut writer, &payload).is_err() {
                    break;
                }
                continue;
            }
        }
        // `slot` releases its inflight permit when the iteration ends —
        // including the `break` paths.
        let _hold = slot;
        let Some(done) = execute(store, &request, &mut scratch) else {
            break; // Shutdown
        };
        conn.record(&done);
        stats.record(&done);
        // The reply is borrowed from `scratch` (a Multi-Get's is the frame
        // the store built in place) — written straight to the socket, no
        // intermediate Bytes.
        if write_frame(&mut writer, done.reply).is_err() {
            break;
        }
        let busy = t0.elapsed().as_nanos() as u64;
        conn.busy_ns += busy;
        stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
    }
    let _ = writer.flush();
    conn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Memc3Index;
    use crate::net::TcpConn;
    use crate::store::StoreConfig;
    use crate::transport::ClientConn;
    use bytes::Bytes;

    fn test_store() -> Arc<KvStore> {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
        store.set(b"present", b"the-value").unwrap();
        store
    }

    #[test]
    fn pipelined_mget_and_set_over_tcp() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        // Three requests in flight before reading anything.
        conn.send(
            Request::MGet {
                id: 1,
                keys: vec![Bytes::from_static(b"present"), Bytes::from_static(b"nope")],
            }
            .encode(),
        )
        .unwrap();
        conn.send(
            Request::Set {
                id: 2,
                key: Bytes::from_static(b"fresh"),
                value: Bytes::from_static(b"fv"),
            }
            .encode(),
        )
        .unwrap();
        conn.send(
            Request::MGet {
                id: 3,
                keys: vec![Bytes::from_static(b"fresh")],
            }
            .encode(),
        )
        .unwrap();

        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::MGet { id, entries } => {
                assert_eq!(id, 1);
                assert_eq!(entries[0].as_deref(), Some(&b"the-value"[..]));
                assert_eq!(entries[1], None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::Set { id, ok } => {
                assert_eq!(id, 2);
                assert!(ok);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::MGet { id, entries } => {
                assert_eq!(id, 3);
                assert_eq!(entries[0].as_deref(), Some(&b"fv"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(conn);
        let stats = kvsd.stats();
        kvsd.shutdown();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.keys.load(Ordering::Relaxed), 3);
        assert_eq!(stats.found.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn connection_summary_recorded_on_close() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        conn.send(
            Request::MGet {
                id: 9,
                keys: vec![Bytes::from_static(b"present")],
            }
            .encode(),
        )
        .unwrap();
        conn.recv().unwrap();
        drop(conn);
        // The handler records its summary after seeing EOF.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let summaries = kvsd.connection_summaries();
            if let Some(s) = summaries.first() {
                assert_eq!(s.requests, 1);
                assert_eq!(s.keys, 1);
                assert_eq!(s.found, 1);
                assert!(s.busy_ns > 0);
                break;
            }
            assert!(Instant::now() < deadline, "summary never recorded");
            std::thread::yield_now();
        }
        kvsd.shutdown();
    }

    #[test]
    fn finished_handlers_are_reaped_on_accept() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..64u64 {
            let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
            conn.send(
                Request::MGet {
                    id: i,
                    keys: vec![Bytes::from_static(b"present")],
                }
                .encode(),
            )
            .unwrap();
            conn.recv().unwrap();
            drop(conn);
            // The handler records its summary just before it returns;
            // wait for it so each cycle's thread is (all but) finished
            // before the next accept reaps.
            while kvsd.connection_summaries().len() <= i as usize {
                assert!(Instant::now() < deadline, "summary {i} never recorded");
                std::thread::yield_now();
            }
        }
        let live = kvsd.registry.handles.lock().unwrap().len();
        assert!(live <= 8, "{live} handles kept after 64 closed connections");
        assert_eq!(kvsd.connection_summaries().len(), 64);
        assert_eq!(kvsd.shutdown().len(), 64);
    }

    #[test]
    fn malformed_frame_drops_connection() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        conn.send(Bytes::from_static(&[250, 1, 2, 3])).unwrap();
        assert!(conn.recv().is_err(), "server must close, not reply");
        kvsd.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_requests() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        for id in 0..20u64 {
            conn.send(
                Request::MGet {
                    id,
                    keys: vec![Bytes::from_static(b"present")],
                }
                .encode(),
            )
            .unwrap();
        }
        conn.flush().unwrap();
        // Wait for the first response so the handler is mid-stream, then
        // drain. Requests the handler has already read must still be
        // answered; the connection must then close instead of hanging.
        let first = conn.recv().unwrap().0;
        assert!(matches!(
            Response::decode(first).unwrap(),
            Response::MGet { id: 0, .. }
        ));
        kvsd.shutdown();
        let mut next_id = 1;
        while let Ok((frame, _)) = conn.recv() {
            match Response::decode(frame).unwrap() {
                Response::MGet { id, .. } => {
                    assert_eq!(id, next_id, "drained responses stay in order");
                    next_id += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(next_id <= 20);
    }

    #[test]
    fn shutdown_without_connections_does_not_hang() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        kvsd.shutdown();
    }

    #[test]
    fn zero_inflight_cap_sheds_every_request() {
        let kvsd = Kvsd::bind_with(
            test_store(),
            "127.0.0.1:0",
            KvsdConfig {
                max_inflight: Some(0),
                ..KvsdConfig::default()
            },
        )
        .unwrap();
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        for id in 0..4u64 {
            conn.send(
                Request::MGet {
                    id,
                    keys: vec![Bytes::from_static(b"present")],
                }
                .encode(),
            )
            .unwrap();
        }
        for id in 0..4u64 {
            match Response::decode(conn.recv().unwrap().0).unwrap() {
                Response::Error { id: got, code } => {
                    assert_eq!(got, id);
                    assert_eq!(code, crate::protocol::ErrorCode::ServerBusy);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The connection survives shedding: a Set still sheds too.
        conn.send(
            Request::Set {
                id: 9,
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v"),
            }
            .encode(),
        )
        .unwrap();
        assert!(matches!(
            Response::decode(conn.recv().unwrap().0).unwrap(),
            Response::Error { id: 9, .. }
        ));
        drop(conn);
        let stats = kvsd.stats();
        kvsd.shutdown();
        assert_eq!(stats.shed.load(Ordering::Relaxed), 5);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 0, "nothing ran");
    }

    #[test]
    fn zero_deadline_answers_deadline_exceeded() {
        let kvsd = Kvsd::bind_with(
            test_store(),
            "127.0.0.1:0",
            KvsdConfig {
                deadline: Some(Duration::ZERO),
                ..KvsdConfig::default()
            },
        )
        .unwrap();
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        conn.send(
            Request::MGet {
                id: 5,
                keys: vec![Bytes::from_static(b"present")],
            }
            .encode(),
        )
        .unwrap();
        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::Error { id, code } => {
                assert_eq!(id, 5);
                assert_eq!(code, crate::protocol::ErrorCode::DeadlineExceeded);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(conn);
        let summaries = kvsd.shutdown();
        assert_eq!(summaries.iter().map(|s| s.shed).sum::<u64>(), 1);
    }

    #[test]
    fn stalled_mid_frame_client_does_not_wedge_the_server() {
        use std::io::Write as _;
        let kvsd = Kvsd::bind_with(
            test_store(),
            "127.0.0.1:0",
            KvsdConfig {
                idle_timeout: Some(Duration::from_millis(250)),
                ..KvsdConfig::default()
            },
        )
        .unwrap();
        // A "dying client": writes half a frame (header promising more
        // bytes than it sends) and then stalls, holding the socket open.
        let mut stalled = std::net::TcpStream::connect(kvsd.local_addr()).unwrap();
        stalled.write_all(&100u32.to_le_bytes()).unwrap();
        stalled.write_all(b"only a few bytes").unwrap();
        stalled.flush().unwrap();

        // A healthy connection keeps being served meanwhile.
        let mut healthy = TcpConn::connect(kvsd.local_addr()).unwrap();
        healthy
            .send(
                Request::MGet {
                    id: 1,
                    keys: vec![Bytes::from_static(b"present")],
                }
                .encode(),
            )
            .unwrap();
        assert!(matches!(
            Response::decode(healthy.recv().unwrap().0).unwrap(),
            Response::MGet { id: 1, .. }
        ));

        // The stalled handler must reap itself via the idle timeout and
        // record a (request-less) summary, with its socket still open.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let summaries = kvsd.connection_summaries();
            if summaries.iter().any(|s| s.requests == 0 && s.sets == 0) {
                break;
            }
            assert!(Instant::now() < deadline, "stalled handler never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(healthy);
        // Shutdown completes promptly even though `stalled` never closed.
        kvsd.shutdown();
        drop(stalled);
    }
}
