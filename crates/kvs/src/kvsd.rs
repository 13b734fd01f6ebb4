//! `simdht-kvsd`: the KVS served over real TCP sockets.
//!
//! [`Kvsd`] is the one server: the `simdht-kvsd` binary runs it, and the
//! Fig. 11 harness ([`crate::memslap::run_memslap`]) binds one on loopback
//! and reads its server-side numbers from [`Kvsd::shutdown`].
//! It is the listener, the accept thread, the shutdown flag, the registry
//! of live connections and their counters, and the drain, around one
//! connection loop: a handler thread per connection runs framed I/O from
//! [`crate::net`] with request **pipelining** — a client may keep many
//! requests in flight on one connection, and the handler answers them in
//! order, writing its replies only when the read side would block or they
//! pass 64 KiB (so a burst of pipelined requests coalesces into few
//! syscalls). A Multi-Get and the whole Multi-Get frames already buffered
//! behind it are one **run**, served by one store call of up to
//! `MAX_RUN_KEYS` (256) keys through `protocol::serve_mgets`: a burst pays
//! the store's fixed per-call cost once, and each request's reply is sealed
//! from the shared buffer, byte-identical to the reply it gets alone. A run
//! never waits or makes a system call to grow, and any other verb ends it,
//! so program order holds. Every other verb goes through
//! `protocol::execute`, in arrival order.
//!
//! ## Shutdown / drain
//!
//! [`Kvsd::shutdown`] stops accepting, then half-closes the read side of
//! every live connection. Each handler reads what the socket had queued at
//! the half-close, answers those requests, flushes their responses, and
//! closes. Request bytes that reach the socket after the half-close are
//! never read: those requests are neither executed nor answered, and the
//! close is a clean one, so a client that is still sending when the drain
//! starts cannot tell them from requests sent to a closed server. A
//! connection accepted while the drain starts is
//! half-closed with the rest or never served: the accept thread registers
//! it under the lock the drain walks and re-checks the shutdown flag there.
//!
//! ## Counting
//!
//! Each connection has its own [`crate::metrics`] block, written only by
//! its handler thread; the accept thread registers it with the stream, and
//! `Shell::closed` counts the close in it (`ConnsClosed`) and folds it
//! into a retired total under the same lock, so the registry keeps nothing
//! of a connection once it has closed. The accept thread has a block of its
//! own for the connections it loses (`AcceptErrors`). A request is counted
//! by one call into its connection's block: `served`, or a `Shed` add.
//! [`Kvsd::stats`] merges the retired total with every live block, so no
//! request is counted twice or lost on a close. Busy time is counted once
//! per store call: for a Multi-Get run, from the first frame's decode up to
//! the store call's return, split over its requests, and decode → seal for
//! any other verb; a shed adds none. Every Multi-Get store call adds to
//! `Batches` and `BatchKeys` in the connection's block.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Counters, Snapshot};
use crate::net::{read_frame_into, release_oversized, write_frame, FRAME_BUF_KEEP};
use crate::protocol::{
    buffered_mget, execute, serve_mgets, DecodeScratch, ErrorCode, ExecScratch, MGetRun, Request,
    Response, FRAME_PREFIX_BYTES,
};
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
    /// Cap on requests being processed simultaneously: across all
    /// connections, handlers over the cap wait (bounded by `deadline`)
    /// and shed with [`ErrorCode::ServerBusy`] when the wait expires.
    /// `Some(0)` sheds everything — useful for drills.
    /// `None` = no cap.
    pub max_inflight: Option<usize>,
    /// Close a connection after this long without a complete request
    /// frame, so a dying or wedged client cannot hold its handler thread
    /// (and an inflight slot's worth of buffered work) forever.
    /// `None` = wait indefinitely. Also the stall grace: a connection
    /// whose replies make no progress this long (10 s when `None`) is
    /// closed and counted as `StalledCloses`.
    pub idle_timeout: Option<Duration>,
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

    /// Take a slot if one is free now, without waiting.
    fn try_acquire(&self) -> bool {
        let mut count = self.count.lock().unwrap();
        let free = *count < self.limit;
        *count += usize::from(free);
        free
    }

    fn release(&self, n: usize) {
        *self.count.lock().unwrap() -= n;
        for _ in 0..n {
            self.released.notify_one();
        }
    }
}

/// Inflight permits from an [`InflightGauge`] — a request's, or a run's —
/// released together on drop, so every exit path (including write-error
/// breaks) frees them.
struct Slots<'a> {
    gauge: &'a InflightGauge,
    held: usize,
}

impl Slots<'_> {
    /// Take one more permit if one is free now.
    fn try_take(&mut self) -> bool {
        let taken = self.gauge.try_acquire();
        self.held += usize::from(taken);
        taken
    }
}

impl Drop for Slots<'_> {
    fn drop(&mut self) {
        self.gauge.release(self.held);
    }
}

/// A connection the shell accepted, while it is open.
struct Live {
    /// A clone of the stream, which the drain half-closes to end the
    /// connection's reads.
    stream: TcpStream,
    counters: Arc<Counters>,
}

/// Every connection and counter block, behind the one lock that accept,
/// close, the drain and [`Kvsd::stats`] take.
#[derive(Default)]
struct Registry {
    live: HashMap<u64, Live>,
    /// The closed connections' counters, summed.
    retired: Snapshot,
}

/// What the accept thread, the handlers and [`Kvsd`] share.
#[derive(Default)]
struct Shell {
    shutting_down: AtomicBool,
    registry: Mutex<Registry>,
    /// The accept thread's block: connections it lost.
    accept: Counters,
    /// Handler threads joined at shutdown: those not yet reaped (finished
    /// ones are joined on each accept).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// How long a connection's output may make no progress, where
/// [`KvsdConfig::idle_timeout`] is not set, before the connection is
/// closed and counted (`Counter::StalledCloses`): a client that stops
/// reading its replies can hold neither its thread nor the drain past it.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// The stall grace under `config`: `idle_timeout` where set, else
/// [`DRAIN_GRACE`].
fn stall_grace(config: &KvsdConfig) -> Duration {
    config.idle_timeout.unwrap_or(DRAIN_GRACE)
}

/// How long the accept thread sleeps after `accept` failed for want of
/// descriptors, buffers or memory. The pending connection stays queued, so
/// retrying at once would spin a CPU until a descriptor frees.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// `EMFILE`, `ENFILE`, `ENOBUFS` and `ENOMEM` (Linux numbering): the
/// `accept` failures that last until something else releases a resource.
fn resource_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(24 | 23 | 105 | 12))
}

impl Shell {
    /// Connection `id` has closed: drop its stream clone, count the close
    /// in its block, and fold the block into the retired total. Called by
    /// the thread that wrote the block, so its last snapshot is final.
    fn closed(&self, id: u64) {
        let mut registry = self.registry.lock().unwrap();
        if let Some(live) = registry.live.remove(&id) {
            live.counters.add(Counter::ConnsClosed, 1);
            registry.retired += live.counters.snapshot();
        }
    }
}

/// A running TCP KVS daemon.
pub struct Kvsd {
    local_addr: SocketAddr,
    shell: Arc<Shell>,
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
    /// a thread per connection, with no deadlines, inflight cap, or idle
    /// timeout.
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
        let shell = Arc::new(Shell::default());
        let gauge = config.max_inflight.map(|n| Arc::new(InflightGauge::new(n)));

        let accept_thread = {
            let shell = Arc::clone(&shell);
            std::thread::spawn(move || {
                for (id, conn) in (0u64..).zip(listener.incoming()) {
                    if shell.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match conn {
                        Ok(stream) => stream,
                        Err(e) => {
                            shell.accept.add(Counter::AcceptErrors, 1);
                            if resource_exhausted(&e) {
                                std::thread::sleep(ACCEPT_BACKOFF);
                            }
                            continue;
                        }
                    };
                    let Ok(clone) = stream.try_clone() else {
                        shell.accept.add(Counter::AcceptErrors, 1);
                        continue;
                    };
                    let counters = Arc::<Counters>::default();
                    {
                        // `stop` raises the flag before it takes this lock
                        // to half-close every registered stream, so a
                        // connection is either in its walk or refused here.
                        let mut registry = shell.registry.lock().unwrap();
                        if shell.shutting_down.load(Ordering::Acquire) {
                            break;
                        }
                        let counters = Arc::clone(&counters);
                        registry.live.insert(
                            id,
                            Live {
                                stream: clone,
                                counters,
                            },
                        );
                    }
                    // Join handlers that have already returned, so a
                    // long-lived daemon under connection churn keeps one
                    // handle (and one stack) per live connection, not per
                    // connection ever.
                    let mut workers = shell.workers.lock().unwrap();
                    let mut i = 0;
                    while i < workers.len() {
                        if workers[i].is_finished() {
                            let _ = workers.swap_remove(i).join();
                        } else {
                            i += 1;
                        }
                    }
                    let spawned = {
                        let (store, shell, gauge) =
                            (Arc::clone(&store), Arc::clone(&shell), gauge.clone());
                        std::thread::Builder::new().spawn(move || {
                            handle_connection(&store, stream, config, gauge, &counters);
                            shell.closed(id);
                        })
                    };
                    match spawned {
                        Ok(handler) => workers.push(handler),
                        // No thread (a thread or address-space limit): the
                        // failed spawn dropped the stream, and dropping
                        // the registry's clone closes the connection.
                        Err(_) => {
                            drop(workers);
                            shell.registry.lock().unwrap().live.remove(&id);
                            shell.accept.add(Counter::AcceptErrors, 1);
                        }
                    }
                }
            })
        };

        Ok(Kvsd {
            local_addr,
            shell,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Every counter, merged: the closed connections' total plus each live
    /// connection's block, read now.
    pub fn stats(&self) -> Snapshot {
        let registry = self.shell.registry.lock().unwrap();
        let blocks = registry.live.values().map(|c| c.counters.snapshot());
        registry.retired + self.shell.accept.snapshot() + blocks.sum()
    }

    /// Connections open now.
    pub fn live_connections(&self) -> usize {
        self.shell.registry.lock().unwrap().live.len()
    }

    /// Stop accepting, drain in-flight requests on every connection, join
    /// all threads, and return the final merged counters.
    pub fn shutdown(mut self) -> Snapshot {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        if self.shell.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Half-close the read side of live connections: each handler sees
        // EOF after the requests already on the wire, answers them,
        // flushes, and closes the connection.
        for live in self.shell.registry.lock().unwrap().live.values() {
            let _ = live.stream.shutdown(Shutdown::Read);
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let workers: Vec<_> = std::mem::take(&mut *self.shell.workers.lock().unwrap());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Kvsd {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The most keys a connection looks up in one store call. Pipelined
/// Multi-Gets already in a connection's read buffer are served together up
/// to this width, so a client's burst of eight 16-key requests is one call;
/// a wider request is a call of its own.
const MAX_RUN_KEYS: usize = 256;

/// The read side of a thread-loop connection, holding
/// [`KvsdConfig::idle_timeout`] to its promise. The socket's receive
/// timeout bounds one `read`, so a client dripping one byte at a time would
/// keep the connection open forever; here a read that returns bytes longer
/// than the timeout after the last whole request frame fails instead.
struct IdleRead<'s> {
    stream: &'s TcpStream,
    /// The timeout, and when the last whole frame arrived.
    idle: Option<(Duration, Instant)>,
}

impl<'s> IdleRead<'s> {
    fn new(stream: &'s TcpStream, timeout: Option<Duration>) -> Self {
        let idle = timeout.map(|t| (t, Instant::now()));
        IdleRead { stream, idle }
    }

    /// A whole request frame arrived, or the replies went out: the idle
    /// window starts again. Time spent blocked on the connection's own
    /// replies is not the client's idleness; the write timeout bounds it.
    fn restart(&mut self) {
        if let Some((_, last)) = &mut self.idle {
            *last = Instant::now();
        }
    }
}

impl Read for IdleRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        match self.idle {
            Some((timeout, last)) if n > 0 && last.elapsed() > timeout => {
                Err(io::ErrorKind::TimedOut.into())
            }
            _ => Ok(n),
        }
    }
}

fn handle_connection(
    store: &KvStore,
    stream: TcpStream,
    config: KvsdConfig,
    gauge: Option<Arc<InflightGauge>>,
    counters: &Counters,
) {
    let _ = stream.set_nodelay(true);
    // Both halves go through the one socket, whose two timeouts are
    // separate options. The write timeout bounds a write that makes no
    // progress: a client that stops reading is closed after the stall
    // grace.
    if stream.set_read_timeout(config.idle_timeout).is_err()
        || stream
            .set_write_timeout(Some(stall_grace(&config)))
            .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(IdleRead::new(&stream, config.idle_timeout));
    // Replies queue here and go out in one write once the read side would
    // block.
    let mut out = Vec::new();
    let mut scratch = ExecScratch::default();
    // A request is decoded where its frame lies — in this one buffer, or
    // still in the reader's when it joins a run — and its keys and values
    // are slices of it (DESIGN.md §6).
    let mut frame = Vec::new();
    let mut lists = DecodeScratch::default();

    loop {
        // About to block on the socket: push out everything answered so
        // far. While pipelined requests are already buffered, keep
        // processing without a write per response — unless the replies
        // pile up past what a connection may keep, which bounds a client
        // that asks for large values faster than it reads them.
        if reader.buffer().is_empty() || out.len() > FRAME_BUF_KEEP {
            if !out.is_empty() {
                if !flush(&stream, &out, counters) {
                    return;
                }
                reader.get_mut().restart();
            }
            out.clear();
            release_oversized(&mut out);
        }
        if release_oversized(&mut frame) {
            lists = DecodeScratch::default();
        }
        let bytes = match read_frame_into(&mut reader, &mut frame) {
            Ok(Some(bytes)) => bytes,
            // EOF, unframed garbage, or an idle timeout (a dying client
            // stalled mid-frame): close rather than hold the thread.
            Ok(None) | Err(_) => break,
        };
        reader.get_mut().restart();
        let t0 = Instant::now();
        // A malformed frame means the stream is unframed garbage or a
        // protocol bug; drop the connection rather than guess at resync.
        let Ok(request) = Request::decode_in_place(bytes, &mut lists) else {
            break;
        };
        // Graceful degradation gate: acquire an inflight slot (waiting at
        // most the request deadline), then re-check the deadline before
        // touching the store. A shed request gets a typed error response
        // and the connection lives on.
        let mut slots: Option<Slots<'_>> = None;
        if let Some(id) = request.id() {
            let code = if let Some(g) = gauge.as_deref() {
                if g.acquire(config.deadline) {
                    slots = Some(Slots { gauge: g, held: 1 });
                    None
                } else {
                    Some(ErrorCode::ServerBusy)
                }
            } else {
                None
            };
            let code = code.or_else(|| overdue(t0, config.deadline));
            if let Some(code) = code {
                drop(slots.take());
                counters.add(Counter::Shed, 1);
                lists.reclaim(request);
                let payload = Response::Error { id, code }.encode();
                if write_frame(&mut out, &payload).is_err() {
                    break;
                }
                continue;
            }
        }
        // `slots` releases its inflight permits when the iteration ends —
        // including the `break` paths.
        if let Request::MGet { id, keys } = &request {
            // This Multi-Get and the whole ones buffered behind it: one
            // store call, then each reply sealed straight into `out`.
            let mut run = std::mem::take(&mut scratch.run).recycle();
            run.push(*id, keys.iter().copied());
            lists.reclaim(request);
            let (taken, malformed) = join_buffered(
                reader.buffer(),
                &mut run,
                &mut lists,
                slots.as_mut(),
                config.deadline,
            );
            let mut sent = true;
            serve_mgets(store, &run, &mut scratch.resp, t0, counters, |reply| {
                counters.served(Some(reply.lookup), 0, reply.busy);
                sent = sent && reply.append_to(&mut out);
            });
            scratch.run = run.recycle();
            reader.consume(taken);
            if !sent || malformed {
                break;
            }
            continue;
        }
        let Some(done) = execute(store, &request, &mut scratch) else {
            break; // Shutdown
        };
        counters.add_phases(done.phases);
        let busy = t0.elapsed().as_nanos() as u64;
        counters.served(None, done.writes, busy);
        // The reply is borrowed from `scratch`, framed straight into `out`.
        if write_frame(&mut out, done.reply).is_err() {
            break;
        }
        lists.reclaim(request);
    }
    flush(&stream, &out, counters);
}

/// Write `out` whole. `false` when the connection is done for: a write
/// that made no progress for the stall grace (counted) or failed.
fn flush(mut writer: &TcpStream, out: &[u8], counters: &Counters) -> bool {
    match writer.write_all(out) {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                counters.add(Counter::StalledCloses, 1);
            }
            false
        }
    }
}

/// `DeadlineExceeded` when a request decoded at `t0` is past `deadline`.
fn overdue(t0: Instant, deadline: Option<Duration>) -> Option<ErrorCode> {
    deadline
        .is_some_and(|d| t0.elapsed() > d)
        .then_some(ErrorCode::DeadlineExceeded)
}

/// Add to `run` the whole Multi-Get frames at the head of `buffered`, the
/// connection's read buffer, while each fits under [`MAX_RUN_KEYS`],
/// decodes, is inside its deadline and gets an inflight slot without
/// waiting; the first that does not ends the run, and is read again as the
/// next request unless it was malformed. Makes no system call and
/// never waits. Returns the bytes taken and whether the run ended at a
/// malformed frame, after which the connection drops.
fn join_buffered<'b>(
    buffered: &'b [u8],
    run: &mut MGetRun<'b>,
    lists: &mut DecodeScratch,
    mut slots: Option<&mut Slots<'_>>,
    deadline: Option<Duration>,
) -> (usize, bool) {
    let mut taken = 0;
    while let Some((payload, width)) = buffered_mget(&buffered[taken..]) {
        if run.width() + width > MAX_RUN_KEYS {
            break;
        }
        let t0 = deadline.map(|_| Instant::now());
        let Ok(Request::MGet { id, keys }) = Request::decode_in_place(payload, lists) else {
            return (taken, true);
        };
        let joins = t0.is_none_or(|t0| overdue(t0, deadline).is_none())
            && slots.as_mut().is_none_or(|s| s.try_take());
        if joins {
            run.push(id, keys.iter().copied());
            taken += FRAME_PREFIX_BYTES + payload.len();
        }
        lists.reclaim(Request::MGet { id, keys });
        if !joins {
            break;
        }
    }
    (taken, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Memc3Index;
    use crate::net::read_frame;
    use crate::net::TcpConn;
    use crate::store::StoreConfig;
    use crate::transport::ClientConn;
    use bytes::Bytes;
    use std::sync::mpsc;

    fn test_store() -> Arc<KvStore> {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
        store.set(b"present", b"the-value").unwrap();
        store
    }

    /// The connection loops the conformance suite runs every test
    /// against, behind `limits`: the thread per connection.
    fn loops(limits: KvsdConfig) -> [(&'static str, KvsdConfig); 1] {
        [("thread", limits)]
    }

    fn serve(config: KvsdConfig) -> Kvsd {
        Kvsd::bind_with(test_store(), "127.0.0.1:0", config).unwrap()
    }

    fn connect(kvsd: &Kvsd) -> TcpConn {
        let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn
    }

    fn mget(id: u64, keys: &[&'static [u8]]) -> Bytes {
        let keys = keys.iter().map(|k| Bytes::from_static(k)).collect();
        Request::MGet { id, keys }.encode()
    }

    fn recv(conn: &mut TcpConn) -> Response {
        Response::decode(conn.recv().unwrap()).unwrap()
    }

    /// Drain `kvsd` and hold it to the counting rule: once drained, every
    /// connection has closed, and the closed connections' retired total
    /// holds every request count of the server.
    fn drain(label: &str, mut kvsd: Kvsd) -> Snapshot {
        kvsd.stop();
        let retired = {
            let registry = kvsd.shell.registry.lock().unwrap();
            assert!(
                registry.live.is_empty(),
                "{label}: a connection outlived the drain"
            );
            registry.retired
        };
        let stats = kvsd.shutdown();
        use Counter::*;
        for counter in [Requests, Keys, Found, Writes, Shed, BusyNs, ConnsClosed] {
            assert_eq!(retired[counter], stats[counter], "{label}: {counter:?}");
        }
        stats
    }

    /// Wait until `kvsd` has counted `n` closed connections.
    fn await_closed(label: &str, kvsd: &Kvsd, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while kvsd.stats()[Counter::ConnsClosed] < n {
            assert!(
                Instant::now() < deadline,
                "{label}: close {n} never counted"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn pipelined_mget_and_set() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            // Three requests in flight before reading anything.
            conn.send(mget(1, &[b"present", b"nope"])).unwrap();
            conn.send(
                Request::Set {
                    id: 2,
                    key: Bytes::from_static(b"fresh"),
                    value: Bytes::from_static(b"fv"),
                }
                .encode(),
            )
            .unwrap();
            conn.send(mget(3, &[b"fresh"])).unwrap();

            match recv(&mut conn) {
                Response::MGet { id, entries } => {
                    assert_eq!(id, 1, "{label}");
                    assert_eq!(entries[0].as_deref(), Some(&b"the-value"[..]), "{label}");
                    assert_eq!(entries[1], None, "{label}");
                }
                other => panic!("{label}: unexpected {other:?}"),
            }
            match recv(&mut conn) {
                Response::Set { id, ok } => {
                    assert_eq!(id, 2, "{label}");
                    assert!(ok, "{label}");
                }
                other => panic!("{label}: unexpected {other:?}"),
            }
            match recv(&mut conn) {
                Response::MGet { id, entries } => {
                    assert_eq!(id, 3, "{label}");
                    assert_eq!(entries[0].as_deref(), Some(&b"fv"[..]), "{label}");
                }
                other => panic!("{label}: unexpected {other:?}"),
            }
            drop(conn);
            let stats = drain(label, kvsd);
            assert_eq!(stats[Counter::Requests], 2, "{label}");
            assert_eq!(stats[Counter::Keys], 3, "{label}");
            assert_eq!(stats[Counter::Found], 2, "{label}");
            assert_eq!(stats[Counter::Writes], 1, "{label}");
        }
    }

    #[test]
    fn connection_summary_recorded_on_close() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            conn.send(mget(9, &[b"present"])).unwrap();
            conn.recv().unwrap();
            drop(conn);
            // The connection counts its close after seeing EOF, and its
            // counts stay in the server's once it is gone.
            await_closed(label, &kvsd, 1);
            assert_eq!(kvsd.live_connections(), 0, "{label}");
            let stats = kvsd.stats();
            assert_eq!(stats[Counter::Requests], 1, "{label}");
            assert_eq!(stats[Counter::Keys], 1, "{label}");
            assert_eq!(stats[Counter::Found], 1, "{label}");
            assert!(stats[Counter::BusyNs] > 0, "{label}");
            assert_eq!(drain(label, kvsd)[Counter::ConnsClosed], 1, "{label}");
        }
    }

    #[test]
    fn stats_include_a_connection_still_open() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            for id in 0..3u64 {
                conn.send(mget(id, &[b"present", b"nope"])).unwrap();
                recv(&mut conn);
            }
            // Nothing has closed: every count comes from the live block.
            let stats = kvsd.stats();
            assert_eq!(stats[Counter::ConnsClosed], 0, "{label}");
            assert_eq!(kvsd.live_connections(), 1, "{label}");
            assert_eq!(stats[Counter::Requests], 3, "{label}");
            assert_eq!(stats[Counter::Keys], 6, "{label}");
            assert_eq!(stats[Counter::Found], 3, "{label}");
            drop(conn);
            let drained = drain(label, kvsd);
            assert_eq!(drained[Counter::Requests], 3, "{label}");
        }
    }

    #[test]
    fn malformed_frame_drops_connection() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            conn.send(Bytes::from_static(&[250, 1, 2, 3])).unwrap();
            assert!(
                conn.recv().is_err(),
                "{label}: server must close, not reply"
            );
            drain(label, kvsd);
        }
    }

    #[test]
    fn oversized_frame_prefix_drops_connection_without_buffering() {
        use std::io::Write as _;
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut raw = TcpStream::connect(kvsd.local_addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            // A hostile length prefix: 4 GiB. The decoder must reject at
            // header time and the server must close.
            raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
            raw.write_all(&[0u8; 64]).unwrap();
            let mut buf = [0u8; 16];
            assert_eq!(
                raw.read(&mut buf).unwrap_or(0),
                0,
                "{label}: connection closed"
            );
            drain(label, kvsd);
        }
    }

    #[test]
    fn shutdown_drains_inflight_requests() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            for id in 0..20u64 {
                conn.send(mget(id, &[b"present"])).unwrap();
            }
            conn.flush().unwrap();
            // Wait for the first response so the connection is mid-stream,
            // then drain. Requests the server has already read must still
            // be answered; the connection must then close, not hang.
            assert!(
                matches!(recv(&mut conn), Response::MGet { id: 0, .. }),
                "{label}"
            );
            drain(label, kvsd);
            let mut next_id = 1;
            while let Ok(frame) = conn.recv() {
                match Response::decode(frame).unwrap() {
                    Response::MGet { id, .. } => {
                        assert_eq!(id, next_id, "{label}: drained responses stay in order");
                        next_id += 1;
                    }
                    other => panic!("{label}: unexpected {other:?}"),
                }
            }
            assert!(next_id <= 20, "{label}");
        }
    }

    #[test]
    fn shutdown_without_connections_does_not_hang() {
        for (label, config) in loops(KvsdConfig::default()) {
            drain(label, serve(config));
        }
    }

    #[test]
    fn silent_client_connecting_during_shutdown_does_not_hold_it() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let addr = kvsd.local_addr();
            // Clients that connect and then neither send nor close: only
            // the drain's half-close can end their connections.
            let mut silent = vec![TcpStream::connect(addr).unwrap()];
            std::thread::sleep(Duration::from_millis(50));
            let (done, stopped) = mpsc::channel();
            std::thread::spawn(move || {
                kvsd.shutdown();
                let _ = done.send(());
            });
            let watchdog = Instant::now() + Duration::from_secs(5);
            while stopped.try_recv() == Err(mpsc::TryRecvError::Empty) {
                assert!(
                    Instant::now() < watchdog,
                    "{label}: a silent client held shutdown past 5 s"
                );
                // Refused once the listener is gone; that is fine too.
                silent.extend(TcpStream::connect(addr));
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn zero_inflight_cap_sheds_every_request() {
        let limits = KvsdConfig {
            max_inflight: Some(0),
            ..KvsdConfig::default()
        };
        for (label, config) in loops(limits) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            for id in 0..4u64 {
                conn.send(mget(id, &[b"present"])).unwrap();
            }
            for id in 0..4u64 {
                match recv(&mut conn) {
                    Response::Error { id: got, code } => {
                        assert_eq!(got, id, "{label}");
                        assert_eq!(code, ErrorCode::ServerBusy, "{label}");
                    }
                    other => panic!("{label}: unexpected {other:?}"),
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
            assert!(
                matches!(recv(&mut conn), Response::Error { id: 9, .. }),
                "{label}"
            );
            drop(conn);
            let stats = drain(label, kvsd);
            assert_eq!(stats[Counter::Shed], 5, "{label}");
            assert_eq!(stats[Counter::Requests], 0, "{label}: nothing ran");
            assert_eq!(
                stats[Counter::BusyNs],
                0,
                "{label}: a shed adds no busy time"
            );
        }
    }

    #[test]
    fn zero_deadline_answers_deadline_exceeded() {
        let limits = KvsdConfig {
            deadline: Some(Duration::ZERO),
            ..KvsdConfig::default()
        };
        for (label, config) in loops(limits) {
            let kvsd = serve(config);
            let mut conn = connect(&kvsd);
            conn.send(mget(5, &[b"present"])).unwrap();
            // A write misses its deadline the same way.
            let (key, value) = (Bytes::from_static(b"k"), Bytes::from_static(b"v"));
            conn.send(Request::Set { id: 6, key, value }.encode())
                .unwrap();
            for want in [5, 6] {
                match recv(&mut conn) {
                    Response::Error { id, code } => {
                        assert_eq!(id, want, "{label}");
                        assert_eq!(code, ErrorCode::DeadlineExceeded, "{label}");
                    }
                    other => panic!("{label}: unexpected {other:?}"),
                }
            }
            drop(conn);
            let stats = drain(label, kvsd);
            assert_eq!(stats[Counter::Shed], 2, "{label}");
            assert_eq!(stats[Counter::Writes], 0, "{label}");
            assert_eq!(
                stats[Counter::BusyNs],
                0,
                "{label}: a shed adds no busy time"
            );
        }
    }

    #[test]
    fn stalled_mid_frame_client_is_reaped_by_idle_timeout() {
        use std::io::Write as _;
        let limits = KvsdConfig {
            idle_timeout: Some(Duration::from_millis(250)),
            ..KvsdConfig::default()
        };
        for (label, config) in loops(limits) {
            let kvsd = serve(config);
            // A "dying client": writes half a frame (header promising more
            // bytes than it sends) and then stalls, holding the socket open.
            let mut stalled = TcpStream::connect(kvsd.local_addr()).unwrap();
            stalled.write_all(&100u32.to_le_bytes()).unwrap();
            stalled.write_all(b"only a few bytes").unwrap();
            stalled.flush().unwrap();

            // A healthy connection keeps being served meanwhile.
            let mut healthy = connect(&kvsd);
            healthy.send(mget(1, &[b"present"])).unwrap();
            assert!(
                matches!(recv(&mut healthy), Response::MGet { id: 1, .. }),
                "{label}"
            );

            // The stalled connection must be reaped by the idle timeout,
            // with its socket still open; so, once idle, is the healthy
            // one, whose client has not closed it either.
            await_closed(label, &kvsd, 2);
            drop(healthy);
            // Shutdown completes promptly even though `stalled` never closed.
            drain(label, kvsd);
            drop(stalled);
        }
    }

    #[test]
    fn slow_drip_client_is_reaped_by_idle_timeout() {
        let timeout = Duration::from_millis(200);
        let limits = KvsdConfig {
            idle_timeout: Some(timeout),
            ..KvsdConfig::default()
        };
        for (label, config) in loops(limits) {
            let kvsd = serve(config);
            // A frame that never completes: its length prefix, then one
            // byte every 50 ms — each read returns well inside the timeout.
            let mut drip = TcpStream::connect(kvsd.local_addr()).unwrap();
            let start = Instant::now();
            drip.write_all(&100u32.to_le_bytes()).unwrap();
            while kvsd.stats()[Counter::ConnsClosed] == 0 {
                assert!(
                    start.elapsed() < 2 * timeout,
                    "{label}: a dripping client held its connection past twice the idle timeout"
                );
                std::thread::sleep(Duration::from_millis(50));
                // Refused once the server has closed; the counter says so.
                let _ = drip.write_all(b"x");
            }
            drain(label, kvsd);
        }
    }

    /// Each burst's replies, sent pipelined in one write, match byte for
    /// byte and in order what a fresh server answers one frame at a time,
    /// while its runs of Multi-Gets take fewer store calls than requests.
    #[test]
    fn a_coalesced_burst_is_invisible_on_the_wire() {
        let b = |s: &'static [u8]| Bytes::from_static(s);
        let set = |id, key, value| Request::Set {
            id,
            key: b(key),
            value: b(value),
        };
        // Runs of Multi-Gets split by every write verb; some read what the
        // write before them changed.
        let verbs = vec![
            mget(1, &[b"present", b"nope"]),
            mget(2, &[b"present"]),
            mget(3, &[b"k1"]),
            set(4, b"k1", b"v1").encode(),
            mget(5, &[b"k1", b"present"]),
            mget(6, &[b"k1"]),
            Request::Delete {
                id: 7,
                key: b(b"present"),
            }
            .encode(),
            mget(8, &[b"present", b"k1"]),
            Request::Cas {
                id: 9,
                key: b(b"k1"),
                expected_version: 0,
                value: b(b"v2"),
                ttl_secs: 0,
            }
            .encode(),
            mget(10, &[b"k1"]),
            Request::SetMulti {
                id: 11,
                pairs: vec![(b(b"k2"), b(b"w2")), (b(b"k3"), b(b"w3"))],
            }
            .encode(),
            mget(12, &[b"k2", b"k3", b"k1"]),
            mget(13, &[b"k3"]),
            mget(14, &[b"present"]),
        ];
        // Edge shapes inside a run: an all-miss and an empty Multi-Get, a
        // batched write that names one key twice (the last pair wins), and
        // an empty batched write.
        let edges = vec![
            mget(1, &[b"present", b"a", b"b"]),
            mget(2, &[b"miss-a", b"miss-b"]),
            mget(3, &[]),
            Request::SetMulti {
                id: 4,
                pairs: vec![
                    (b(b"a"), b(b"batched")),
                    (b(b"new"), b(b"born")),
                    (b(b"a"), b(b"batched-final")),
                ],
            }
            .encode(),
            mget(5, &[b"a", b"new"]),
            Request::SetMulti {
                id: 6,
                pairs: vec![],
            }
            .encode(),
            mget(7, &[b"a"]),
        ];
        for (label, burst, mgets, read_back) in [
            ("verbs", verbs, 10, (4, &b"v1"[..])),
            ("edges", edges, 5, (4, &b"batched-final"[..])),
        ] {
            // The twin: a fresh store, sent one frame at a time.
            let twin = serve(KvsdConfig::default());
            let mut conn = connect(&twin);
            let expect: Vec<Bytes> = burst
                .iter()
                .map(|frame| {
                    conn.send(frame.clone()).unwrap();
                    conn.recv().unwrap()
                })
                .collect();
            drop(conn);
            drain("twin", twin);
            match Response::decode(expect[read_back.0].clone()).unwrap() {
                Response::MGet { entries, .. } => {
                    assert_eq!(
                        entries[0].as_deref(),
                        Some(read_back.1),
                        "{label}: reads the write"
                    )
                }
                other => panic!("{label}: unexpected {other:?}"),
            }

            let kvsd = serve(KvsdConfig::default());
            let mut raw = TcpStream::connect(kvsd.local_addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut bytes = Vec::new();
            for frame in &burst {
                write_frame(&mut bytes, frame).unwrap();
            }
            raw.write_all(&bytes).unwrap();
            for (nth, want) in expect.iter().enumerate() {
                let got = read_frame(&mut raw).unwrap().expect("a reply");
                assert_eq!(&got, want, "{label}: reply {nth}");
            }
            drop(raw);
            let stats = drain(label, kvsd);
            assert_eq!(stats[Counter::Requests], mgets, "{label}");
            let batches = stats[Counter::Batches];
            assert!(
                0 < batches && batches < mgets,
                "{label}: {mgets} pipelined Multi-Gets took {batches} store calls"
            );
        }
    }

    #[test]
    fn a_run_ending_at_a_malformed_frame_answers_what_preceded_it() {
        for (label, config) in loops(KvsdConfig::default()) {
            let kvsd = serve(config);
            let mut raw = TcpStream::connect(kvsd.local_addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut bytes = Vec::new();
            for id in 0..2u64 {
                write_frame(&mut bytes, &mget(id, &[b"present"])).unwrap();
            }
            // A Multi-Get whose CRC trailer is wrong, then one more.
            let mut damaged = mget(2, &[b"present"]).to_vec();
            *damaged.last_mut().unwrap() ^= 1;
            write_frame(&mut bytes, &damaged).unwrap();
            write_frame(&mut bytes, &mget(3, &[b"present"])).unwrap();
            raw.write_all(&bytes).unwrap();
            for id in 0..2u64 {
                let frame = read_frame(&mut raw).unwrap().expect("a reply");
                let reply = Response::decode(frame).unwrap();
                assert!(
                    matches!(reply, Response::MGet { id: got, .. } if got == id),
                    "{label}"
                );
            }
            assert!(
                matches!(read_frame(&mut raw), Ok(None) | Err(_)),
                "{label}: the connection drops at the malformed frame"
            );
            drop(raw);
            let stats = drain(label, kvsd);
            assert_eq!(stats[Counter::Requests], 2, "{label}");
        }
    }

    #[test]
    fn a_one_slot_cap_serves_a_deep_burst() {
        let limits = KvsdConfig {
            max_inflight: Some(1),
            ..KvsdConfig::default()
        };
        for (label, config) in loops(limits) {
            let kvsd = serve(config);
            let mut raw = TcpStream::connect(kvsd.local_addr()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut bytes = Vec::new();
            for id in 0..8u64 {
                write_frame(&mut bytes, &mget(id, &[b"present"])).unwrap();
            }
            raw.write_all(&bytes).unwrap();
            for id in 0..8u64 {
                let frame = read_frame(&mut raw).unwrap().expect("a reply");
                match Response::decode(frame).unwrap() {
                    Response::MGet { id: got, entries } => {
                        assert_eq!(got, id, "{label}");
                        assert_eq!(entries[0].as_deref(), Some(&b"the-value"[..]), "{label}");
                    }
                    other => panic!("{label}: unexpected {other:?}"),
                }
            }
            drop(raw);
            let stats = drain(label, kvsd);
            assert_eq!(stats[Counter::Shed], 0, "{label}");
        }
    }

    /// A client that pipelines 200 Multi-Gets of sixteen 60 KB values and
    /// reads nothing cannot hold the drain past the stall grace (here
    /// the idle timeout): its connection is closed and counted. The drain
    /// is awaited through a channel, so a drain that never returns fails
    /// the test instead of hanging it.
    #[test]
    fn a_client_that_reads_nothing_cannot_hold_the_drain() {
        let limits = KvsdConfig {
            idle_timeout: Some(Duration::from_secs(1)),
            ..KvsdConfig::default()
        };
        for (label, config) in loops(limits) {
            let store = test_store();
            let keys: Vec<Bytes> = (0..16).map(|i| Bytes::from(format!("big-{i}"))).collect();
            for key in &keys {
                store.set(key, &[7u8; 60_000]).unwrap();
            }
            let kvsd = Kvsd::bind_with(store, "127.0.0.1:0", config).unwrap();
            let request = Request::MGet {
                id: 1,
                keys: keys.clone(),
            }
            .encode();
            let mut burst = Vec::new();
            for _ in 0..200 {
                write_frame(&mut burst, &request).unwrap();
            }
            // One unbuffered write, so every request is in the server's
            // receive queue before the drain half-closes it (bytes that
            // arrive after the half-close are dropped).
            assert!(
                burst.len() < 32 << 10,
                "{} B overflow the first window",
                burst.len()
            );
            let mut client = TcpStream::connect(kvsd.local_addr()).unwrap();
            client.set_nodelay(true).unwrap();
            client.write_all(&burst).unwrap();
            // Drain once the connection is being served, not while the
            // accept thread may still refuse it unserved.
            let deadline = Instant::now() + Duration::from_secs(10);
            while kvsd.stats()[Counter::Requests] == 0 {
                assert!(Instant::now() < deadline, "{label}: nothing served");
                std::thread::yield_now();
            }
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = tx.send(kvsd.shutdown());
            });
            let stats = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{label}: drain still waiting after 20 s"));
            assert_eq!(stats[Counter::StalledCloses], 1, "{label}: {stats}");
            assert!(stats[Counter::Requests] > 2, "{label}: {stats}");
            assert_eq!(stats[Counter::ConnsClosed], 1, "{label}");
            drop(client);
        }
    }

    #[test]
    fn the_stall_grace_is_the_idle_timeout_where_set() {
        let idle = Duration::from_millis(300);
        let limits = KvsdConfig {
            idle_timeout: Some(idle),
            ..KvsdConfig::default()
        };
        assert_eq!(stall_grace(&limits), idle);
        assert_eq!(stall_grace(&KvsdConfig::default()), DRAIN_GRACE);
    }

    #[test]
    fn finished_handlers_are_reaped_on_accept() {
        let kvsd = Kvsd::bind(test_store(), "127.0.0.1:0").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..64u64 {
            let mut conn = TcpConn::connect(kvsd.local_addr()).unwrap();
            conn.send(mget(i, &[b"present"])).unwrap();
            conn.recv().unwrap();
            drop(conn);
            // The handler counts its close just before it returns; wait
            // for it so each cycle's thread is (all but) finished before
            // the next accept reaps.
            while kvsd.stats()[Counter::ConnsClosed] <= i {
                assert!(Instant::now() < deadline, "close {i} never counted");
                std::thread::yield_now();
            }
        }
        let live = kvsd.shell.workers.lock().unwrap().len();
        assert!(live <= 8, "{live} handles kept after 64 closed connections");
        assert_eq!(kvsd.stats()[Counter::ConnsClosed], 64);
        assert_eq!(kvsd.shutdown()[Counter::ConnsClosed], 64);
    }
}
