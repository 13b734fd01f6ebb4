//! Event-driven reactor server with cross-connection batch coalescing.
//!
//! The thread-per-connection [`crate::kvsd::Kvsd`] can never build a
//! lookup batch wider than one client's pipeline depth: a thousand
//! depth-1 clients produce a thousand single-request batches and the
//! SIMD probe kernels degenerate to their scalar tails. This module is
//! the other serving architecture: a small pool of event-loop workers
//! (**reactors**), each owning many nonblocking connections, that drain
//! decoded Multi-Get requests from *all* of its connections into one
//! **coalescing buffer** and dispatch a single wide
//! [`crate::store::KvStore::mget`] when the buffer reaches the
//! configured batch width — or when a micro-deadline expires, so a lone
//! request is never parked longer than [`ReactorConfig::coalesce`].
//! The response scatter is [`crate::store::MGetResponse::append_subframe`]:
//! each request's slice of the shared batch buffer is sealed into its
//! own frame, byte-identical to what the blocking server would have
//! produced for that request alone.
//!
//! ## Loop states (DESIGN.md §10)
//!
//! Per connection: `reading → draining → closed`, with response
//! ordering kept by a slot queue (every request reserves a slot in
//! arrival order; shed errors complete immediately but still wait
//! behind earlier slots; only the completed prefix is flushed).
//! Per reactor: the coalescing buffers move `empty → filling →
//! dispatch` on one of three triggers — width reached, micro-deadline
//! expired, or drain.
//!
//! ## Write coalescing (ISSUE 8)
//!
//! Writes coalesce exactly like reads: decoded `Set` and `SetMulti`
//! requests park in a separate write buffer and land as one
//! [`crate::store::KvStore::set_multi`] batch, which groups per shard
//! internally — same-shard Sets from different connections share one
//! lock acquisition, one seqlock write session, and the interleaved
//! hash/prefetch staging. Per-connection program order is preserved by
//! construction: parking a write flushes any buffered reads from the
//! same connection first (and vice versa), so a connection never has
//! both kinds pending at once.
//!
//! ## PR 3 semantics, re-expressed
//!
//! The graceful-degradation knobs of [`KvsdConfig`] keep their meaning:
//!
//! * **deadline** — measured from frame decode; an MGet whose batch
//!   dispatches after the deadline is answered
//!   `ErrorCode::DeadlineExceeded` without touching the store.
//! * **max_inflight** — a cap on coalesced-but-undispatched requests
//!   per reactor; reaching it forces an early dispatch instead of
//!   queueing deeper, and `Some(0)` sheds every request with
//!   `ErrorCode::ServerBusy` exactly like the blocking server.
//! * **idle_timeout** — a periodic sweep closes connections with no
//!   received bytes for the window, freeing their slots.
//! * **drain** — [`ReactorServer::shutdown`] half-closes every read
//!   side; reactors finish decoding what is buffered, dispatch the
//!   final batch, flush every connection, and record summaries — no
//!   request that reached the server is dropped.

pub mod poller;

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::kvsd::{ConnSummary, KvsdConfig};
use crate::net::{write_frame, FrameDecoder};
use crate::protocol::{execute, ErrorCode, ExecScratch, Request, Response};
use crate::server::ServerStats;
use crate::store::KvStore;

use poller::{Event, Interest, Poller};

/// Stop reading from a connection whose client is not draining its
/// responses once this many unflushed bytes queue up (the reactor
/// analog of the blocking server's back-pressure via blocking writes).
const OUT_HIGH_WATER: usize = 1 << 20;

/// Upper bound on one poll wait, so reactors notice shutdown and run
/// the idle sweep promptly even when completely idle.
const MAX_POLL_WAIT: Duration = Duration::from_millis(5);

/// Knobs of the reactor server.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Event-loop worker threads. Connections are assigned round-robin.
    pub reactors: usize,
    /// Micro-deadline: the longest a decoded MGet waits in the
    /// coalescing buffer before dispatch, batch full or not.
    pub coalesce: Duration,
    /// Dispatch as soon as the coalescing buffer holds this many keys.
    pub batch_width: usize,
    /// PR 3 graceful-degradation knobs (deadline / max_inflight /
    /// idle_timeout), re-expressed as loop states (module docs).
    pub limits: KvsdConfig,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            reactors: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            coalesce: Duration::from_micros(100),
            batch_width: 64,
            limits: KvsdConfig::default(),
        }
    }
}

/// Per-reactor counters (the observability satellite): live gauges
/// while running, dumped on drain.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Connections ever assigned to this reactor.
    pub conns_adopted: AtomicU64,
    /// Connections currently open (gauge).
    pub conns_open: AtomicU64,
    /// Complete request frames decoded.
    pub frames: AtomicU64,
    /// Wide `mget` dispatches.
    pub batches: AtomicU64,
    /// Total keys across all dispatches (`/ batches` = mean width).
    pub batch_keys: AtomicU64,
    /// Dispatches triggered by reaching the batch width (including
    /// forced dispatches when the `max_inflight` cap filled, and when a
    /// Set from a connection with buffered lookups flushed the batch to
    /// preserve per-connection program order).
    pub width_fires: AtomicU64,
    /// Dispatches triggered by the coalesce micro-deadline — including
    /// early fires when a poll came back empty (no socket held an
    /// undelivered byte, so the window could not have widened the batch).
    pub timeout_fires: AtomicU64,
    /// Dispatches triggered by shutdown drain.
    pub drain_fires: AtomicU64,
    /// Batched `set_multi` dispatches (the write-side analog of
    /// `batches`).
    pub write_batches: AtomicU64,
    /// Total key/value pairs across all write dispatches
    /// (`/ write_batches` = mean write width).
    pub write_batch_pairs: AtomicU64,
    /// Requests answered with a typed error instead of a result.
    pub sheds: AtomicU64,
}

impl ReactorStats {
    fn count_fire(&self, fire: Fire) {
        let counter = match fire {
            Fire::Width => &self.width_fires,
            Fire::Timeout => &self.timeout_fires,
            Fire::Drain => &self.drain_fires,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Mean keys per dispatched batch so far.
    pub fn mean_batch_width(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            return 0.0;
        }
        self.batch_keys.load(Ordering::Relaxed) as f64 / batches as f64
    }
}

/// Owned copy of one reactor's counters, for reports.
#[derive(Copy, Clone, Debug)]
pub struct ReactorSnapshot {
    /// Reactor index.
    pub reactor: usize,
    /// See [`ReactorStats::conns_adopted`].
    pub conns_adopted: u64,
    /// See [`ReactorStats::conns_open`].
    pub conns_open: u64,
    /// See [`ReactorStats::frames`].
    pub frames: u64,
    /// See [`ReactorStats::batches`].
    pub batches: u64,
    /// See [`ReactorStats::batch_keys`].
    pub batch_keys: u64,
    /// See [`ReactorStats::width_fires`].
    pub width_fires: u64,
    /// See [`ReactorStats::timeout_fires`].
    pub timeout_fires: u64,
    /// See [`ReactorStats::drain_fires`].
    pub drain_fires: u64,
    /// See [`ReactorStats::write_batches`].
    pub write_batches: u64,
    /// See [`ReactorStats::write_batch_pairs`].
    pub write_batch_pairs: u64,
    /// See [`ReactorStats::sheds`].
    pub sheds: u64,
}

impl ReactorSnapshot {
    /// Mean keys per dispatched batch.
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_keys as f64 / self.batches as f64
        }
    }

    /// Mean key/value pairs per dispatched write batch.
    pub fn mean_write_batch_width(&self) -> f64 {
        if self.write_batches == 0 {
            0.0
        } else {
            self.write_batch_pairs as f64 / self.write_batches as f64
        }
    }
}

/// A running reactor-mode KVS daemon, API-compatible with
/// [`crate::kvsd::Kvsd`] (bind / stats / summaries / drain-on-shutdown).
pub struct ReactorServer {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    reactor_stats: Vec<Arc<ReactorStats>>,
    summaries: Arc<Mutex<Vec<ConnSummary>>>,
    shutting_down: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    reactor_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServer")
            .field("local_addr", &self.local_addr)
            .field("reactors", &self.reactor_stats.len())
            .finish()
    }
}

impl ReactorServer {
    /// Bind `addr` with default [`ReactorConfig`].
    ///
    /// # Errors
    ///
    /// Bind or poller-creation failures.
    pub fn bind(store: Arc<KvStore>, addr: impl ToSocketAddrs) -> io::Result<ReactorServer> {
        Self::bind_with(store, addr, ReactorConfig::default())
    }

    /// Bind with full [`ReactorConfig`] control.
    ///
    /// # Errors
    ///
    /// Bind or poller-creation failures.
    pub fn bind_with(
        store: Arc<KvStore>,
        addr: impl ToSocketAddrs,
        config: ReactorConfig,
    ) -> io::Result<ReactorServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let n_reactors = config.reactors.max(1);
        let stats = Arc::new(ServerStats::default());
        let summaries = Arc::new(Mutex::new(Vec::new()));
        let shutting_down = Arc::new(AtomicBool::new(false));

        let mut reactor_stats = Vec::with_capacity(n_reactors);
        let mut inboxes = Vec::with_capacity(n_reactors);
        let mut reactor_threads = Vec::with_capacity(n_reactors);
        for idx in 0..n_reactors {
            let rs = Arc::new(ReactorStats::default());
            let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            // Create the poller up front so backend failures surface
            // from `bind_with`, not from inside a worker thread.
            let poller = Poller::new()?;
            let mut worker = ReactorLoop::new(
                idx,
                Arc::clone(&store),
                Arc::clone(&stats),
                Arc::clone(&rs),
                Arc::clone(&summaries),
                config,
                poller,
            );
            let (inbox_w, down) = (Arc::clone(&inbox), Arc::clone(&shutting_down));
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{idx}"))
                    .spawn(move || worker.run(&inbox_w, &down))
                    .expect("spawn reactor thread"),
            );
            reactor_stats.push(rs);
            inboxes.push(inbox);
        }

        let accept_thread = {
            let shutting_down = Arc::clone(&shutting_down);
            std::thread::spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    inboxes[next % inboxes.len()].lock().unwrap().push(stream);
                    next += 1;
                }
            })
        };

        Ok(ReactorServer {
            local_addr,
            stats,
            reactor_stats,
            summaries,
            shutting_down,
            accept_thread: Some(accept_thread),
            reactor_threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Aggregate statistics across all reactors, live.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Live per-reactor counters.
    pub fn reactor_snapshots(&self) -> Vec<ReactorSnapshot> {
        self.reactor_stats
            .iter()
            .enumerate()
            .map(|(reactor, rs)| ReactorSnapshot {
                reactor,
                conns_adopted: rs.conns_adopted.load(Ordering::Relaxed),
                conns_open: rs.conns_open.load(Ordering::Relaxed),
                frames: rs.frames.load(Ordering::Relaxed),
                batches: rs.batches.load(Ordering::Relaxed),
                batch_keys: rs.batch_keys.load(Ordering::Relaxed),
                width_fires: rs.width_fires.load(Ordering::Relaxed),
                timeout_fires: rs.timeout_fires.load(Ordering::Relaxed),
                drain_fires: rs.drain_fires.load(Ordering::Relaxed),
                write_batches: rs.write_batches.load(Ordering::Relaxed),
                write_batch_pairs: rs.write_batch_pairs.load(Ordering::Relaxed),
                sheds: rs.sheds.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Summaries of connections that have closed so far.
    pub fn connection_summaries(&self) -> Vec<ConnSummary> {
        self.summaries.lock().unwrap().clone()
    }

    /// Stop accepting, drain every connection (buffered requests are
    /// still answered), join all threads, and return the final
    /// per-connection summaries.
    pub fn shutdown(mut self) -> Vec<ConnSummary> {
        self.stop();
        self.summaries.lock().unwrap().clone()
    }

    fn stop(&mut self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop with a throwaway connection; reactors
        // notice the flag within MAX_POLL_WAIT on their own.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Why a batch dispatched.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Fire {
    Width,
    Timeout,
    Drain,
}

/// One decoded MGet waiting in the coalescing buffer.
struct PendingReq {
    token: usize,
    seq: u64,
    id: u64,
    keys: Vec<Bytes>,
    t0: Instant,
}

/// The coalescing buffer.
#[derive(Default)]
struct Batch {
    reqs: Vec<PendingReq>,
    total_keys: usize,
}

/// One decoded write (`Set` or `SetMulti`) waiting in the
/// write-coalescing buffer.
struct PendingWrite {
    token: usize,
    seq: u64,
    id: u64,
    pairs: Vec<(Bytes, Bytes)>,
    /// `true` for a single-key `Set` — it answers `Response::Set`
    /// instead of per-key `SetMulti` statuses.
    single: bool,
    t0: Instant,
}

/// The write-coalescing buffer: same-shard Sets from any connection
/// gather here and land as one [`KvStore::set_multi`] batch, exactly
/// like MGets gather into [`Batch`].
#[derive(Default)]
struct WriteBatch {
    reqs: Vec<PendingWrite>,
    total_pairs: usize,
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Unflushed response bytes; `out[out_pos..]` is still to write.
    out: Vec<u8>,
    out_pos: usize,
    /// Response slots in request-arrival order; `None` = awaiting its
    /// MGet batch. Front-completed slots flush into `out` immediately.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Absolute sequence number of `slots.front()`.
    base: u64,
    last_activity: Instant,
    summary: ConnSummary,
    /// No further reads (EOF, Shutdown request, or framing error);
    /// close once every slot is answered and `out` is flushed.
    draining: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl Conn {
    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn next_seq(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// The interest this connection currently needs: reads unless
    /// draining or above the write high-water mark, writes while
    /// response bytes are queued.
    fn wanted_interest(&self) -> Interest {
        Interest {
            readable: !self.draining && self.out_pending() < OUT_HIGH_WATER,
            writable: self.out_pending() > 0,
        }
    }

    /// Put the frame `write` appends into response slot `seq` — straight
    /// into `out` when every earlier request is answered, else parked in
    /// its ordering slot — and flush the completed prefix.
    fn answer(&mut self, seq: u64, write: impl FnOnce(&mut Vec<u8>)) {
        let idx = (seq - self.base) as usize;
        if idx == 0 {
            self.slots.pop_front();
            self.base += 1;
            write(&mut self.out);
        } else {
            let mut framed = Vec::new();
            write(&mut framed);
            self.slots[idx] = Some(framed);
        }
        self.flush_ready_slots();
    }

    /// Frame `payload` (length prefix + body) into response slot `seq` and
    /// write what the socket accepts.
    fn answer_framed(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        // Only a Multi-Get reply can outgrow a frame, and those are
        // scattered by `dispatch`, not framed here.
        self.answer(seq, |out| {
            write_frame(out, payload).expect("every reply but MGet's is far below the frame cap")
        });
        self.try_write()
    }

    /// Move the completed prefix of the slot queue into `out`.
    fn flush_ready_slots(&mut self) {
        while matches!(self.slots.front(), Some(Some(_))) {
            let frame = self.slots.pop_front().unwrap().unwrap();
            self.out.extend_from_slice(&frame);
            self.base += 1;
        }
    }

    /// Write as much of `out` as the socket accepts right now.
    fn try_write(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// `true` once the connection has nothing left to say.
    fn finished(&self) -> bool {
        self.draining && self.slots.is_empty() && self.out_pending() == 0
    }
}

struct ReactorLoop {
    idx: usize,
    store: Arc<KvStore>,
    stats: Arc<ServerStats>,
    rs: Arc<ReactorStats>,
    summaries: Arc<Mutex<Vec<ConnSummary>>>,
    cfg: ReactorConfig,
    poller: Poller,
    conns: HashMap<usize, Conn>,
    batch: Batch,
    wbatch: WriteBatch,
    /// Response and write-staging buffers, shared by the coalesced
    /// dispatches and the immediately executed verbs.
    scratch: ExecScratch,
    read_buf: Vec<u8>,
    next_token: usize,
    draining: bool,
    /// Tokens touched this loop iteration (events, dispatch scatter,
    /// shed answers) — the only connections whose interest or
    /// finished-state can have changed, so the post-iteration sweep
    /// visits just these instead of every open connection.
    dirty: Vec<usize>,
}

impl ReactorLoop {
    #[allow(clippy::too_many_arguments)]
    fn new(
        idx: usize,
        store: Arc<KvStore>,
        stats: Arc<ServerStats>,
        rs: Arc<ReactorStats>,
        summaries: Arc<Mutex<Vec<ConnSummary>>>,
        cfg: ReactorConfig,
        poller: Poller,
    ) -> Self {
        ReactorLoop {
            idx,
            store,
            stats,
            rs,
            summaries,
            cfg,
            poller,
            conns: HashMap::new(),
            batch: Batch::default(),
            wbatch: WriteBatch::default(),
            scratch: ExecScratch::default(),
            read_buf: vec![0u8; 64 << 10],
            next_token: 0,
            draining: false,
            dirty: Vec::new(),
        }
    }

    fn run(&mut self, inbox: &Mutex<Vec<TcpStream>>, shutting_down: &AtomicBool) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.adopt_new(inbox);

            if !self.draining && shutting_down.load(Ordering::Acquire) {
                self.draining = true;
                // Half-close every read side: buffered requests drain
                // to EOF, after which each connection flushes and
                // closes — the blocking server's drain, loop-shaped.
                for conn in self.conns.values() {
                    let _ = conn.stream.shutdown(Shutdown::Read);
                }
            }

            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A failing poller cannot make progress; drop all
                // connections rather than spin.
                let tokens: Vec<usize> = self.conns.keys().copied().collect();
                for t in tokens {
                    self.close(t);
                }
                return;
            }

            let woke_empty = events.is_empty();
            for ev in std::mem::take(&mut events) {
                self.handle_event(ev);
            }

            // An empty wait while requests are coalescing means no
            // socket anywhere holds an undelivered byte: every possible
            // batch-mate is already in the buffer. Waiting out the rest
            // of the window cannot widen the batch — it only adds
            // latency (and, sub-millisecond, a poll spin that starves
            // co-located clients) — so fire early.
            if woke_empty {
                // Writes first, so any read batch fired in the same
                // breath observes them — matching per-connection
                // program order, which parks at most one kind at a
                // time per connection anyway.
                if !self.wbatch.reqs.is_empty() {
                    self.dispatch_writes(Fire::Timeout);
                }
                if !self.batch.reqs.is_empty() {
                    self.dispatch(Fire::Timeout);
                }
            }

            self.check_dispatch();
            self.idle_sweep();
            self.reap_finished();

            if self.draining
                && self.conns.is_empty()
                && self.batch.reqs.is_empty()
                && self.wbatch.reqs.is_empty()
            {
                return;
            }
        }
    }

    /// How long the next poll may block: the remaining coalesce window
    /// when requests are waiting (zero once sub-millisecond, so the
    /// final slice is a bounded spin), else the idle tick.
    fn poll_timeout(&self) -> Duration {
        let first_t0 = match (self.batch.reqs.first(), self.wbatch.reqs.first()) {
            (Some(r), Some(w)) => Some(r.t0.min(w.t0)),
            (Some(r), None) => Some(r.t0),
            (None, Some(w)) => Some(w.t0),
            (None, None) => None,
        };
        if let Some(t0) = first_t0 {
            let elapsed = t0.elapsed();
            if elapsed >= self.cfg.coalesce {
                return Duration::ZERO;
            }
            let remaining = self.cfg.coalesce - elapsed;
            if remaining < Duration::from_millis(1) {
                return Duration::ZERO;
            }
            return remaining.min(MAX_POLL_WAIT);
        }
        if self.draining {
            Duration::from_millis(1)
        } else {
            MAX_POLL_WAIT
        }
    }

    fn adopt_new(&mut self, inbox: &Mutex<Vec<TcpStream>>) {
        let streams: Vec<TcpStream> = std::mem::take(&mut *inbox.lock().unwrap());
        for stream in streams {
            let peer = stream
                .peer_addr()
                .unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            {
                use std::os::fd::AsRawFd;
                if self
                    .poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
            }
            if self.draining {
                let _ = stream.shutdown(Shutdown::Read);
            }
            self.rs.conns_adopted.fetch_add(1, Ordering::Relaxed);
            self.rs.conns_open.fetch_add(1, Ordering::Relaxed);
            self.conns.insert(
                token,
                Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    slots: VecDeque::new(),
                    base: 0,
                    last_activity: Instant::now(),
                    summary: ConnSummary::new(peer, Some(self.idx)),
                    draining: false,
                    registered: Interest::READ,
                },
            );
        }
    }

    fn handle_event(&mut self, ev: Event) {
        if !self.conns.contains_key(&ev.token) {
            return; // closed earlier this iteration
        }
        self.dirty.push(ev.token);
        if ev.writable {
            let conn = self.conns.get_mut(&ev.token).unwrap();
            if conn.try_write().is_err() {
                self.close(ev.token);
                return;
            }
        }
        if ev.readable || ev.closed {
            self.handle_readable(ev.token);
        }
        self.sync_interest(ev.token);
    }

    fn handle_readable(&mut self, token: usize) {
        // Read everything available, then decode; a socket error kills
        // the connection, EOF or a framing error moves it to draining
        // (answers already queued still flush, like the blocking
        // server's final flush after `break`).
        let mut frames: Vec<Bytes> = Vec::new();
        let mut drain_after = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.draining {
                return;
            }
            loop {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        drain_after = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if conn
                            .decoder
                            .extend(&self.read_buf[..n], &mut frames)
                            .is_err()
                        {
                            // Oversized length prefix: unframed garbage
                            // from here on; stop reading, answer what
                            // was decoded, close.
                            drain_after = true;
                            break;
                        }
                        if conn.out_pending() >= OUT_HIGH_WATER {
                            break; // back-pressure: stop reading for now
                        }
                        if n < self.read_buf.len() {
                            // Short read: the kernel buffer is drained;
                            // skip the would-be-EAGAIN read. If more
                            // arrives, level-triggered readiness
                            // re-fires.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return;
                    }
                }
            }
        }
        self.rs
            .frames
            .fetch_add(frames.len() as u64, Ordering::Relaxed);
        for frame in frames {
            self.process_frame(token, frame);
            if !self.conns.contains_key(&token) {
                return;
            }
        }
        if drain_after {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.draining = true;
            }
        }
    }

    fn process_frame(&mut self, token: usize, frame: Bytes) {
        let t0 = Instant::now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.draining {
            return; // a Shutdown request already sealed this connection
        }
        let Ok(request) = Request::decode(frame) else {
            // Unframed garbage or a protocol bug: stop reading, flush
            // what was already answered, close.
            conn.draining = true;
            return;
        };
        let limits = self.cfg.limits;
        match request {
            Request::Shutdown => {
                conn.draining = true;
            }
            Request::Set { id, key, value } => {
                self.park_write(token, t0, id, vec![(key, value)], true);
            }
            Request::SetMulti { id, pairs } => {
                self.park_write(token, t0, id, pairs, false);
            }
            Request::MGet { id, keys } => {
                // Per-connection program order: earlier writes from this
                // connection may still sit in the write buffer, and this
                // lookup must observe them — the blocking server
                // executes strictly in order. Flush writes first.
                if self.wbatch.reqs.iter().any(|r| r.token == token) {
                    self.dispatch_writes(Fire::Width);
                }
                if limits.max_inflight == Some(0) {
                    self.shed(token, id);
                    return;
                }
                // A full admission window forces the batch out early
                // rather than queueing deeper (the blocking server
                // would make the request wait for a slot).
                if let Some(cap) = limits.max_inflight {
                    if self.batch.reqs.len() >= cap {
                        self.dispatch(Fire::Width);
                    }
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    return; // dispatch may have closed the connection
                };
                let seq = conn.next_seq();
                conn.slots.push_back(None);
                self.batch.total_keys += keys.len();
                self.batch.reqs.push(PendingReq {
                    token,
                    seq,
                    id,
                    keys,
                    t0,
                });
                if self.batch.total_keys >= self.cfg.batch_width {
                    self.dispatch(Fire::Width);
                }
            }
            Request::Delete { .. }
            | Request::Cas { .. }
            | Request::Touch { .. }
            | Request::SetEx { .. }
            | Request::SetMultiEx { .. } => {
                // Per-connection program order: parked lookups from this
                // connection must not observe this verb's effect, and
                // parked writes must apply before it — force-dispatch
                // both coalescing buffers, the way Set flushes reads.
                if self.batch.reqs.iter().any(|r| r.token == token) {
                    self.dispatch(Fire::Width);
                }
                if self.wbatch.reqs.iter().any(|r| r.token == token) {
                    self.dispatch_writes(Fire::Width);
                }
                if limits.max_inflight == Some(0) {
                    let id = request.id().expect("versioned verbs carry an id");
                    self.shed(token, id);
                    return;
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    return; // dispatch may have closed the connection
                };
                let seq = conn.next_seq();
                conn.slots.push_back(None);
                // Versioned verbs execute immediately (no coalescing):
                // Delete/Cas/Touch are point operations on one key, and
                // their responses carry per-op versions that a batch
                // cannot share.
                let done = execute(&self.store, &request, &mut self.scratch)
                    .expect("versioned verbs have a response");
                self.stats.record(&done);
                conn.summary.record(&done);
                let busy = t0.elapsed().as_nanos() as u64;
                self.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
                conn.summary.busy_ns += busy;
                if conn.answer_framed(seq, done.reply).is_err() {
                    self.close(token);
                }
            }
        }
    }

    /// Answer request `id` on `token` with `ServerBusy` without touching
    /// the store (the `max_inflight == Some(0)` drill sheds everything).
    fn shed(&mut self, token: usize, id: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // dispatch may have closed the connection
        };
        conn.summary.shed += 1;
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.rs.sheds.fetch_add(1, Ordering::Relaxed);
        let seq = conn.next_seq();
        conn.slots.push_back(None);
        let code = ErrorCode::ServerBusy;
        self.enqueue_framed(token, seq, &Response::Error { id, code }.encode());
    }

    /// Answer every request of a drained coalescing buffer that waited
    /// past its deadline with `DeadlineExceeded`; returns the rest.
    /// `parked` yields a request's `(token, seq, id, t0)`.
    fn expire_overdue<T>(
        &mut self,
        reqs: Vec<T>,
        parked: impl Fn(&T) -> (usize, u64, u64, Instant),
    ) -> Vec<T> {
        let Some(deadline) = self.cfg.limits.deadline else {
            return reqs;
        };
        let (overdue, live): (Vec<T>, Vec<T>) = reqs
            .into_iter()
            .partition(|r| parked(r).3.elapsed() > deadline);
        for (token, seq, id, t0) in overdue.iter().map(parked) {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            self.rs.sheds.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.summary.shed += 1;
                let busy = t0.elapsed().as_nanos() as u64;
                conn.summary.busy_ns += busy;
                self.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
            }
            let code = ErrorCode::DeadlineExceeded;
            self.enqueue_framed(token, seq, &Response::Error { id, code }.encode());
            self.dirty.push(token);
        }
        live
    }

    /// Park a decoded write in the write-coalescing buffer (or shed it),
    /// firing early when the batch width or admission cap is reached.
    fn park_write(
        &mut self,
        token: usize,
        t0: Instant,
        id: u64,
        pairs: Vec<(Bytes, Bytes)>,
        single: bool,
    ) {
        // Per-connection program order: earlier MGets from this
        // connection may still sit in the read buffer, and executing
        // the write first would let them observe it — the blocking
        // server executes strictly in order. Flush the read batch
        // before parking the write.
        if self.batch.reqs.iter().any(|r| r.token == token) {
            self.dispatch(Fire::Width);
        }
        let limits = self.cfg.limits;
        if limits.max_inflight == Some(0) {
            self.shed(token, id);
            return;
        }
        // A full admission window forces the write batch out early
        // rather than queueing deeper.
        if let Some(cap) = limits.max_inflight {
            if self.wbatch.reqs.len() >= cap {
                self.dispatch_writes(Fire::Width);
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq();
        conn.slots.push_back(None);
        self.wbatch.total_pairs += pairs.len();
        self.wbatch.reqs.push(PendingWrite {
            token,
            seq,
            id,
            pairs,
            single,
            t0,
        });
        if self.wbatch.total_pairs >= self.cfg.batch_width {
            self.dispatch_writes(Fire::Width);
        }
    }

    /// [`Conn::answer_framed`] on connection `token`, closing it when the
    /// socket fails.
    fn enqueue_framed(&mut self, token: usize, seq: u64, payload: &[u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.answer_framed(seq, payload).is_err() {
            self.close(token);
        }
    }

    /// Dispatch the coalescing buffer: answer expired requests with
    /// `DeadlineExceeded`, run one wide `mget` over the rest, and
    /// scatter per-request frames back to their connections.
    fn dispatch(&mut self, fire: Fire) {
        let reqs = std::mem::take(&mut self.batch.reqs);
        self.batch.total_keys = 0;
        if reqs.is_empty() {
            return;
        }

        let live = self.expire_overdue(reqs, |r| (r.token, r.seq, r.id, r.t0));
        if live.is_empty() {
            return;
        }

        // One wide lookup over every live request's keys. The store
        // partitions per shard internally, so this is exactly the
        // "per-shard coalesced batch" the SIMD kernels want.
        let mut refs: Vec<&[u8]> = Vec::with_capacity(live.iter().map(|r| r.keys.len()).sum());
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(live.len());
        for req in &live {
            let lo = refs.len();
            refs.extend(req.keys.iter().map(|k| k.as_ref()));
            ranges.push(lo..refs.len());
        }
        let outcome = self.store.mget(&refs, &mut self.scratch.resp);

        self.rs.batches.fetch_add(1, Ordering::Relaxed);
        self.rs
            .batch_keys
            .fetch_add(refs.len() as u64, Ordering::Relaxed);
        self.rs.count_fire(fire);
        self.stats.record_mget(live.len(), refs.len(), &outcome);

        let mut touched: Vec<usize> = Vec::with_capacity(live.len());
        for (req, range) in live.iter().zip(ranges) {
            let found = range
                .clone()
                .filter(|&i| self.scratch.resp.value(i).is_some())
                .count();
            let Some(conn) = self.conns.get_mut(&req.token) else {
                continue; // connection died while its request waited
            };
            conn.summary.requests += 1;
            conn.summary.keys += req.keys.len() as u64;
            conn.summary.found += found as u64;
            let busy = req.t0.elapsed().as_nanos() as u64;
            conn.summary.busy_ns += busy;
            self.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
            // Scatter: seal this request's slice of the shared batch
            // buffer straight into the connection's output (or its
            // ordering slot when earlier requests are still pending).
            let resp = &self.scratch.resp;
            let mut appended = 0;
            conn.answer(req.seq, |out| {
                appended = resp.append_subframe(range, req.id, out)
            });
            if appended == 0 {
                // The reply outgrew a frame: the blocking server's
                // `write_frame` refuses it and drops the connection.
                self.close(req.token);
                continue;
            }
            touched.push(req.token);
        }
        for &token in &touched {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.try_write().is_err() {
                    self.close(token);
                } else {
                    self.sync_interest(token);
                }
            }
        }
        self.dirty.extend_from_slice(&touched);
    }

    /// Dispatch the write-coalescing buffer: answer expired writes with
    /// `DeadlineExceeded`, run one batched [`KvStore::set_multi`] over
    /// the rest (the store groups per shard internally, so same-shard
    /// Sets land under one lock/seqlock session with the interleaved
    /// hash kernel and prefetch staging), and scatter per-request acks.
    fn dispatch_writes(&mut self, fire: Fire) {
        let reqs = std::mem::take(&mut self.wbatch.reqs);
        self.wbatch.total_pairs = 0;
        if reqs.is_empty() {
            return;
        }

        let live = self.expire_overdue(reqs, |r| (r.token, r.seq, r.id, r.t0));
        if live.is_empty() {
            return;
        }

        // One batched write over every live request's pairs. Insertion
        // order inside the batch is arrival order, so duplicate keys
        // across coalesced requests keep last-writer-wins semantics.
        let mut pair_refs: Vec<(&[u8], &[u8])> =
            Vec::with_capacity(live.iter().map(|r| r.pairs.len()).sum());
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(live.len());
        for req in &live {
            let lo = pair_refs.len();
            pair_refs.extend(req.pairs.iter().map(|(k, v)| (k.as_ref(), v.as_ref())));
            ranges.push(lo..pair_refs.len());
        }
        let outcome = self
            .store
            .set_multi(&pair_refs, &mut self.scratch.set_batch);

        self.rs.write_batches.fetch_add(1, Ordering::Relaxed);
        self.rs
            .write_batch_pairs
            .fetch_add(pair_refs.len() as u64, Ordering::Relaxed);
        self.rs.count_fire(fire);
        self.stats.record_phases(outcome.phases);

        let mut touched: Vec<usize> = Vec::with_capacity(live.len());
        for (req, range) in live.iter().zip(ranges) {
            let results = &self.scratch.set_batch.results()[range];
            let payload = if req.single {
                Response::Set {
                    id: req.id,
                    ok: results[0].is_ok(),
                }
                .encode()
            } else {
                Response::SetMulti {
                    id: req.id,
                    ok: results.iter().map(|r| r.is_ok()).collect(),
                }
                .encode()
            };
            let Some(conn) = self.conns.get_mut(&req.token) else {
                continue; // connection died while its write waited
            };
            conn.summary.sets += req.pairs.len() as u64;
            let busy = req.t0.elapsed().as_nanos() as u64;
            conn.summary.busy_ns += busy;
            self.stats.busy_ns.fetch_add(busy, Ordering::Relaxed);
            self.enqueue_framed(req.token, req.seq, &payload);
            touched.push(req.token);
        }
        for &token in &touched {
            self.sync_interest(token);
        }
        self.dirty.extend_from_slice(&touched);
    }

    fn check_dispatch(&mut self) {
        if self.wbatch.total_pairs >= self.cfg.batch_width {
            self.dispatch_writes(Fire::Width);
        } else if !self.wbatch.reqs.is_empty() {
            if self.wbatch.reqs[0].t0.elapsed() >= self.cfg.coalesce {
                self.dispatch_writes(Fire::Timeout);
            } else if self.draining {
                self.dispatch_writes(Fire::Drain);
            }
        }
        if self.batch.total_keys >= self.cfg.batch_width {
            self.dispatch(Fire::Width);
        } else if !self.batch.reqs.is_empty() {
            if self.batch.reqs[0].t0.elapsed() >= self.cfg.coalesce {
                self.dispatch(Fire::Timeout);
            } else if self.draining {
                // Nothing more is coming once every socket hits EOF;
                // waiting out the coalesce window would only stall the
                // drain.
                self.dispatch(Fire::Drain);
            }
        }
    }

    fn idle_sweep(&mut self) {
        let Some(idle) = self.cfg.limits.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let stale: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.draining && now.duration_since(c.last_activity) > idle)
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            // The blocking server's read timeout: flush what was
            // answered, then close mid-whatever the client was doing.
            self.close(token);
        }
    }

    /// Close connections that have drained completely, and keep poller
    /// interest in sync for the rest.
    fn reap_finished(&mut self) {
        // Only touched connections can have changed interest or reached
        // the finished state; duplicates are harmless (`close` on a
        // removed token is a no-op).
        let dirty = std::mem::take(&mut self.dirty);
        for token in dirty {
            let Some(conn) = self.conns.get(&token) else {
                continue;
            };
            if conn.finished() {
                self.close(token);
            } else {
                self.sync_interest(token);
            }
        }
    }

    fn sync_interest(&mut self, token: usize) {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.wanted_interest();
        if want != conn.registered {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close(token);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.registered = want;
            }
        }
    }

    /// Remove the connection, make a best-effort final flush, and
    /// record its summary.
    fn close(&mut self, token: usize) {
        use std::os::fd::AsRawFd;
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let _ = conn.try_write();
        self.rs.conns_open.fetch_sub(1, Ordering::Relaxed);
        self.summaries.lock().unwrap().push(conn.summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Memc3Index;
    use crate::net::TcpConn;
    use crate::store::StoreConfig;
    use crate::transport::ClientConn;

    fn test_store() -> Arc<KvStore> {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
        store.set(b"present", b"the-value").unwrap();
        store
    }

    fn config() -> ReactorConfig {
        ReactorConfig {
            reactors: 1,
            coalesce: Duration::from_micros(100),
            batch_width: 8,
            limits: KvsdConfig::default(),
        }
    }

    #[test]
    fn pipelined_mget_and_set_over_reactor() {
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
        let stats = server.stats();
        server.shutdown();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.keys.load(Ordering::Relaxed), 3);
        assert_eq!(stats.found.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn coalesces_across_connections_into_wide_batches() {
        // Many depth-1 style clients: the server-side mean batch width
        // must exceed what any single request supplies.
        let mut cfg = config();
        cfg.batch_width = 16;
        cfg.coalesce = Duration::from_millis(20);
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", cfg).unwrap();
        let mut conns: Vec<TcpConn> = (0..16)
            .map(|_| TcpConn::connect(server.local_addr()).unwrap())
            .collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.set_recv_timeout(Some(Duration::from_secs(10))).unwrap();
            c.send(
                Request::MGet {
                    id: i as u64,
                    keys: vec![Bytes::from_static(b"present")],
                }
                .encode(),
            )
            .unwrap();
            c.flush().unwrap();
        }
        for (i, c) in conns.iter_mut().enumerate() {
            match Response::decode(c.recv().unwrap().0).unwrap() {
                Response::MGet { id, entries } => {
                    assert_eq!(id, i as u64);
                    assert_eq!(entries[0].as_deref(), Some(&b"the-value"[..]));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(conns);
        let snaps = server.reactor_snapshots();
        server.shutdown();
        let batches: u64 = snaps.iter().map(|s| s.batches).sum();
        let keys: u64 = snaps.iter().map(|s| s.batch_keys).sum();
        assert_eq!(keys, 16);
        assert!(
            batches < 16,
            "16 one-key requests must coalesce into fewer than 16 batches, got {batches}"
        );
    }

    #[test]
    fn pipelined_set_multi_over_reactor() {
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A batch with a duplicate key (later-wins), then a read-back of
        // everything it touched — program order must hold across the
        // read/write batch boundary.
        conn.send(
            Request::SetMulti {
                id: 1,
                pairs: vec![
                    (Bytes::from_static(b"alpha"), Bytes::from_static(b"a1")),
                    (Bytes::from_static(b"beta"), Bytes::from_static(b"b1")),
                    (Bytes::from_static(b"alpha"), Bytes::from_static(b"a2")),
                ],
            }
            .encode(),
        )
        .unwrap();
        conn.send(
            Request::MGet {
                id: 2,
                keys: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"beta")],
            }
            .encode(),
        )
        .unwrap();
        conn.send(
            Request::SetMulti {
                id: 3,
                pairs: vec![],
            }
            .encode(),
        )
        .unwrap();

        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::SetMulti { id, ok } => {
                assert_eq!(id, 1);
                assert_eq!(ok, vec![true, true, true]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::MGet { id, entries } => {
                assert_eq!(id, 2);
                assert_eq!(entries[0].as_deref(), Some(&b"a2"[..]), "later-wins");
                assert_eq!(entries[1].as_deref(), Some(&b"b1"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::decode(conn.recv().unwrap().0).unwrap() {
            Response::SetMulti { id, ok } => {
                assert_eq!(id, 3);
                assert!(ok.is_empty(), "empty batch answers an empty status vec");
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(conn);
        let snaps = server.reactor_snapshots();
        server.shutdown();
        let write_batches: u64 = snaps.iter().map(|s| s.write_batches).sum();
        let write_pairs: u64 = snaps.iter().map(|s| s.write_batch_pairs).sum();
        assert!(write_batches >= 1, "writes must go through the write batch");
        assert_eq!(write_pairs, 3, "pair volume accounting");
    }

    #[test]
    fn coalesces_writes_across_connections() {
        // Many single-Set clients: the writes must merge into fewer
        // server-side `set_multi` dispatches than there are requests.
        let mut cfg = config();
        cfg.batch_width = 16;
        cfg.coalesce = Duration::from_millis(20);
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", cfg).unwrap();
        let mut conns: Vec<TcpConn> = (0..16)
            .map(|_| TcpConn::connect(server.local_addr()).unwrap())
            .collect();
        let keys: Vec<Bytes> = (0..16)
            .map(|i| Bytes::from(format!("wkey-{i:02}").into_bytes()))
            .collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.set_recv_timeout(Some(Duration::from_secs(10))).unwrap();
            c.send(
                Request::Set {
                    id: i as u64,
                    key: keys[i].clone(),
                    value: Bytes::from_static(b"wv"),
                }
                .encode(),
            )
            .unwrap();
            c.flush().unwrap();
        }
        for (i, c) in conns.iter_mut().enumerate() {
            match Response::decode(c.recv().unwrap().0).unwrap() {
                Response::Set { id, ok } => {
                    assert_eq!(id, i as u64);
                    assert!(ok);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        drop(conns);
        let snaps = server.reactor_snapshots();
        server.shutdown();
        let write_batches: u64 = snaps.iter().map(|s| s.write_batches).sum();
        let write_pairs: u64 = snaps.iter().map(|s| s.write_batch_pairs).sum();
        assert_eq!(write_pairs, 16);
        assert!(
            write_batches < 16,
            "16 single Sets must coalesce into fewer than 16 write batches, got {write_batches}"
        );
    }

    #[test]
    fn zero_inflight_cap_sheds_every_request() {
        let mut cfg = config();
        cfg.limits.max_inflight = Some(0);
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", cfg).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
                    assert_eq!(code, ErrorCode::ServerBusy);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
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
        let stats = server.stats();
        server.shutdown();
        assert_eq!(stats.shed.load(Ordering::Relaxed), 5);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 0, "nothing ran");
    }

    #[test]
    fn zero_deadline_answers_deadline_exceeded() {
        let mut cfg = config();
        cfg.limits.deadline = Some(Duration::ZERO);
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", cfg).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
                assert_eq!(code, ErrorCode::DeadlineExceeded);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(conn);
        let summaries = server.shutdown();
        assert_eq!(summaries.iter().map(|s| s.shed).sum::<u64>(), 1);
    }

    #[test]
    fn malformed_frame_drops_connection() {
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.send(Bytes::from_static(&[250, 1, 2, 3])).unwrap();
        assert!(conn.recv().is_err(), "server must close, not reply");
        server.shutdown();
    }

    #[test]
    fn oversized_frame_prefix_drops_connection_without_buffering() {
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A hostile length prefix: 4 GiB. The incremental decoder must
        // reject at header time and the server must close.
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 64]).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "connection closed");
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_requests() {
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
        let first = conn.recv().unwrap().0;
        assert!(matches!(
            Response::decode(first).unwrap(),
            Response::MGet { id: 0, .. }
        ));
        server.shutdown();
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
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        server.shutdown();
    }

    #[test]
    fn stalled_mid_frame_client_is_reaped_by_idle_timeout() {
        let mut cfg = config();
        cfg.limits.idle_timeout = Some(Duration::from_millis(100));
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", cfg).unwrap();
        let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
        stalled.write_all(&100u32.to_le_bytes()).unwrap();
        stalled.write_all(b"only a few bytes").unwrap();
        stalled.flush().unwrap();

        let mut healthy = TcpConn::connect(server.local_addr()).unwrap();
        healthy
            .set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let summaries = server.connection_summaries();
            if summaries.iter().any(|s| s.requests == 0 && s.sets == 0) {
                break;
            }
            assert!(Instant::now() < deadline, "stalled conn never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(healthy);
        server.shutdown();
        drop(stalled);
    }

    #[test]
    fn summaries_carry_reactor_index_and_counters() {
        let server = ReactorServer::bind_with(test_store(), "127.0.0.1:0", config()).unwrap();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
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
        let summaries = server.shutdown();
        let s = summaries
            .iter()
            .find(|s| s.requests == 1)
            .expect("summary for the one serving connection");
        assert_eq!(s.reactor, Some(0));
        assert_eq!(s.keys, 1);
        assert_eq!(s.found, 1);
        assert!(s.busy_ns > 0);
    }
}
