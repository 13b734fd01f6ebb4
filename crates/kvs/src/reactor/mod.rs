//! The reactor connection loop of [`crate::kvsd::Kvsd`]: event loops with
//! cross-connection Multi-Get coalescing.
//!
//! The thread-per-connection loop can never build a lookup batch wider
//! than one client's pipeline depth: a thousand depth-1 clients produce a
//! thousand single-request batches and the SIMD probe kernels degenerate
//! to their scalar tails. With [`KvsdConfig::reactor`] set, the server's
//! shell hands its connections round-robin to a small pool of event-loop
//! workers (**reactors**) instead, each owning many nonblocking
//! connections, that drain decoded Multi-Get requests from *all* of its
//! connections into one **coalescing buffer** and dispatch a single wide
//! [`crate::store::KvStore::mget`] when the buffer reaches [`BATCH_WIDTH`]
//! keys — or when a micro-deadline expires, so a lone request is never
//! parked longer than [`COALESCE`]. The dispatch is
//! the thread loop's too, `protocol::serve_mgets`: one store call,
//! then each request's slice of the shared batch buffer sealed into its
//! own frame by [`crate::store::MGetResponse::append_subframe`],
//! byte-identical to what that request gets served alone.
//!
//! Every other verb runs on arrival through `protocol::execute`, as under
//! the thread loop: the two loops differ only in their I/O and in the
//! cross-connection coalescing of Multi-Gets.
//!
//! ## Loop states (DESIGN.md §10)
//!
//! Per connection: `reading → draining → closed`; a draining connection
//! closes once none of its requests is parked and its output is flushed.
//! Per reactor: the coalescing buffer moves `empty → filling →
//! dispatch` on one of three triggers — width reached, micro-deadline
//! expired, or drain.
//!
//! ## Program order
//!
//! Only Multi-Gets park. A verb that runs on arrival first dispatches the
//! buffer if it holds a Multi-Get of the same connection, so a parked read
//! never observes a later write of its own connection, and every read
//! after a write observes it. That also puts every answer on the wire in
//! arrival order: a connection's parked requests are the buffer's in
//! arrival order, a dispatch answers them in buffer order, and a verb run
//! on arrival answers only once none is parked. The deadline check of a
//! dispatch judges every parked request against one instant, so the
//! overdue ones — answered first — are the oldest of their connection's.
//!
//! ## Graceful degradation
//!
//! The graceful-degradation knobs of [`KvsdConfig`] keep their meaning:
//!
//! * **deadline** — measured from frame decode; a Multi-Get whose batch
//!   dispatches after the deadline, or any other verb that would start
//!   after it, is answered `ErrorCode::DeadlineExceeded` without touching
//!   the store.
//! * **max_inflight** — a cap on coalesced-but-undispatched requests
//!   per reactor; reaching it forces an early dispatch instead of
//!   queueing deeper, and `Some(0)` sheds every request with
//!   `ErrorCode::ServerBusy` exactly like the thread loop.
//! * **idle_timeout** — a periodic sweep closes connections that have not
//!   completed a request frame for the window, freeing their slots. The
//!   same sweep closes a connection, draining or not, whose output made no
//!   progress for the stall grace (`idle_timeout`, else the shell's drain
//!   grace) and counts it (`Counter::StalledCloses`), as the thread loop's
//!   write timeout does.
//! * **drain** — the shell half-closes every read side
//!   ([`crate::kvsd::Kvsd::shutdown`]), then closes the reactors'
//!   inboxes; reactors finish decoding what is buffered, dispatch the
//!   final batch, flush every connection, and close it. Every request
//!   whose bytes the socket had queued at the half-close is answered,
//!   unless its client stops reading the answers for the stall grace;
//!   bytes that arrive after the half-close are never read, so their
//!   requests go unexecuted and unanswered behind a clean close.

pub mod poller;

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::kvsd::{overdue, stall_grace, KvsdConfig, Shell};
use crate::metrics::{Counter, Counters};
use crate::net::{flush_nonblocking, write_frame, FrameDecoder};
use crate::protocol::{
    execute, serve_mgets, DecodeScratch, ErrorCode, ExecScratch, Request, Response,
};
use crate::store::KvStore;

use poller::{Event, Interest, Poller};

/// Stop reading from a connection whose client is not draining its
/// responses once this many unflushed bytes queue up (the reactor
/// analog of the thread loop's back-pressure via blocking writes).
const OUT_HIGH_WATER: usize = 1 << 20;

/// Upper bound on one poll wait, so reactors adopt connections, notice
/// shutdown and run the sweep promptly even when completely idle; also the
/// most often the sweep runs.
const MAX_POLL_WAIT: Duration = Duration::from_millis(5);

/// Micro-deadline: the longest a decoded Multi-Get waits in the
/// coalescing buffer before dispatch, batch full or not.
const COALESCE: Duration = Duration::from_micros(100);

/// Dispatch as soon as the coalescing buffer holds this many keys.
const BATCH_WIDTH: usize = 64;

/// Most event loops a server starts: one per core up to this many.
const MAX_LOOPS: usize = 4;

/// A connection the shell accepted: its id in the shell's registry, the
/// stream, and the counter block registered with it.
type Accepted = (u64, TcpStream, Arc<Counters>);

/// Start one event loop per core, at most [`MAX_LOOPS`], that serve, under
/// `limits`, the connections `shell`'s accept thread sends their inboxes;
/// their threads join `shell`'s workers. Returns each loop's inbox and its
/// block of batch counters.
///
/// # Errors
///
/// A poller or a loop thread that cannot be created. Loops already
/// running then see their inboxes closed and exit.
pub(crate) fn start(
    store: &Arc<KvStore>,
    shell: &Arc<Shell>,
    limits: KvsdConfig,
) -> io::Result<Vec<(Sender<Accepted>, Arc<Counters>)>> {
    let loops = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_LOOPS));
    // Every poller first, so a backend failure fails the bind before any
    // loop runs.
    let pollers = (0..loops)
        .map(|_| Poller::new())
        .collect::<io::Result<Vec<_>>>()?;
    let mut started = Vec::with_capacity(pollers.len());
    for (idx, poller) in pollers.into_iter().enumerate() {
        let (inbox_tx, inbox) = mpsc::channel();
        let counters = Arc::<Counters>::default();
        let mut worker = ReactorLoop {
            store: Arc::clone(store),
            shell: Arc::clone(shell),
            counters: Arc::clone(&counters),
            limits,
            poller,
            inbox,
            conns: HashMap::new(),
            batch: Batch::default(),
            scratch: ExecScratch::default(),
            lists: DecodeScratch::default(),
            read_buf: vec![0u8; 64 << 10],
            next_token: 0,
            draining: false,
            next_sweep: Instant::now(),
            dirty: Vec::new(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("reactor-{idx}"))
            .spawn(move || worker.run())?;
        shell.workers.lock().unwrap().push(thread);
        started.push((inbox_tx, counters));
    }
    Ok(started)
}

/// One decoded Multi-Get waiting in the coalescing buffer: where its answer
/// goes, when its frame was decoded, and its keys.
struct Parked {
    token: usize,
    id: u64,
    t0: Instant,
    keys: Vec<Bytes>,
}

/// The coalescing buffer and its width (keys parked).
#[derive(Default)]
struct Batch {
    reqs: Vec<Parked>,
    width: usize,
}

impl Batch {
    /// Whether connection `token` has a Multi-Get parked here.
    fn holds(&self, token: usize) -> bool {
        self.reqs.iter().any(|r| r.token == token)
    }
}

/// Per-connection reactor state.
struct Conn {
    /// Id in the shell's registry.
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Unflushed response bytes; `out[out_pos..]` is still to write.
    out: Vec<u8>,
    out_pos: usize,
    /// When a read last completed a request frame, or a flush last wrote
    /// (or the adoption).
    last_activity: Instant,
    /// While output is pending: when a flush last wrote a byte of it, or
    /// found it queued with none written before.
    stalled_since: Option<Instant>,
    /// The connection's block in the shell's registry.
    counters: Arc<Counters>,
    /// No further reads (EOF, Shutdown request, or framing error);
    /// close once no request is parked and `out` is flushed.
    draining: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl Conn {
    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
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

    /// Write what the socket takes now, and keep the stall clock: it runs
    /// while output is pending and restarts on every flush that writes. A
    /// flush that writes restarts the idle window too, as the thread loop
    /// does: time spent waiting on the client to read is not idleness.
    fn flush(&mut self) -> io::Result<()> {
        let pending = self.out_pending();
        flush_nonblocking(&mut self.stream, &mut self.out, &mut self.out_pos)?;
        let left = self.out_pending();
        if left < pending {
            let now = Instant::now();
            self.last_activity = now;
            self.stalled_since = (left > 0).then_some(now);
        } else if left > 0 && self.stalled_since.is_none() {
            self.stalled_since = Some(Instant::now());
        }
        Ok(())
    }

    /// Frame `payload` (length prefix + body) into the output.
    fn answer_framed(&mut self, payload: &[u8]) {
        // Only a Multi-Get reply can outgrow a frame, and those are
        // scattered by `dispatch`, not framed here.
        write_frame(&mut self.out, payload)
            .expect("every reply but MGet's is far below the frame cap");
    }

    /// `true` once the connection has nothing left to say: draining, none
    /// of its requests `parked`, its output flushed.
    fn finished(&self, parked: bool) -> bool {
        self.draining && !parked && self.out_pending() == 0
    }
}

struct ReactorLoop {
    store: Arc<KvStore>,
    shell: Arc<Shell>,
    /// This loop's block: adoptions, frames, dispatches and their phases.
    counters: Arc<Counters>,
    limits: KvsdConfig,
    poller: Poller,
    /// Connections from the accept thread; closed once it has exited,
    /// which is the drain signal.
    inbox: Receiver<Accepted>,
    conns: HashMap<usize, Conn>,
    batch: Batch,
    /// Response and write-staging buffers, shared by the coalesced
    /// dispatches and the verbs run on arrival.
    scratch: ExecScratch,
    /// Key and pair lists of the frame being decoded.
    lists: DecodeScratch,
    read_buf: Vec<u8>,
    next_token: usize,
    draining: bool,
    /// When [`ReactorLoop::sweep`] next looks at the connections.
    next_sweep: Instant,
    /// Tokens touched this loop iteration (events, answers) — the only
    /// connections with unwritten answers or whose interest or
    /// finished-state can have changed, so the post-iteration sweep
    /// visits just these instead of every open connection.
    dirty: Vec<usize>,
}

impl ReactorLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.adopt_new();

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

            self.check(woke_empty);
            self.sweep();
            self.settle();

            if self.draining && self.conns.is_empty() && self.batch.reqs.is_empty() {
                return;
            }
        }
    }

    /// How long the next poll may block: the remaining coalesce window
    /// when requests are waiting (zero once sub-millisecond, so the
    /// final slice is a bounded spin), else the idle tick.
    fn poll_timeout(&self) -> Duration {
        if let Some(oldest) = self.batch.reqs.first() {
            let remaining = COALESCE.saturating_sub(oldest.t0.elapsed());
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

    /// Adopt the connections the accept thread has handed over; once it
    /// has exited — shutdown, with every connection it handed out already
    /// half-closed by the shell — start draining.
    fn adopt_new(&mut self) {
        loop {
            let (id, stream, counters) = match self.inbox.try_recv() {
                Ok(accepted) => accepted,
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.draining = true;
                    return;
                }
            };
            let token = self.next_token;
            self.next_token += 1;
            if stream.set_nonblocking(true).is_err()
                || stream.set_nodelay(true).is_err()
                || self
                    .poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
            {
                self.shell.closed(id);
                continue;
            }
            self.counters.add(Counter::ConnsAdopted, 1);
            self.conns.insert(
                token,
                Conn {
                    id,
                    stream,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    last_activity: Instant::now(),
                    stalled_since: None,
                    counters,
                    draining: false,
                    registered: Interest::READ,
                },
            );
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return; // closed earlier this iteration
        };
        self.dirty.push(ev.token);
        if ev.writable && conn.flush().is_err() {
            self.close(ev.token);
            return;
        }
        if ev.readable || ev.closed {
            self.handle_readable(ev.token);
        }
    }

    fn handle_readable(&mut self, token: usize) {
        // Read everything available, then decode; a socket error kills
        // the connection, EOF or a framing error moves it to draining
        // (answers already queued still flush, like the thread loop's
        // final flush after `break`).
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
            // Only a whole request frame counts as activity: a client
            // dripping bytes of one frame stays idle.
            if !frames.is_empty() {
                conn.last_activity = Instant::now();
            }
        }
        self.counters.add(Counter::Frames, frames.len() as u64);
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
        let Ok(request) = Request::decode_in_place(&frame, &mut self.lists) else {
            // Unframed garbage or a protocol bug: stop reading, flush
            // what was already answered, close.
            conn.draining = true;
            return;
        };
        match &request {
            Request::Shutdown => conn.draining = true,
            // A parked Multi-Get outlives this read event, so its keys are
            // re-anchored into the frame; every other verb runs in place.
            Request::MGet { id, keys } => {
                let keys = keys.iter().map(|k| frame.slice_ref(k)).collect();
                self.park(token, *id, t0, keys);
            }
            _ => self.run_now(token, t0, &request),
        }
        self.lists.reclaim(request);
    }

    /// Execute any verb but Multi-Get on arrival, through [`execute`].
    fn run_now(&mut self, token: usize, t0: Instant, request: &Request<&[u8]>) {
        // The flush below counts its own busy time; this request's is its
        // decode plus its own store call.
        let decode = t0.elapsed();
        // Per-connection program order: this connection's parked lookups
        // must not observe this verb's effect.
        self.flush_for(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // dispatch may have closed the connection
        };
        // The thread loop's gate: shed under `max_inflight == Some(0)`, or
        // once past the deadline.
        let code = (self.limits.max_inflight == Some(0))
            .then_some(ErrorCode::ServerBusy)
            .or_else(|| overdue(t0, self.limits.deadline));
        if let Some(code) = code {
            let id = request.id().expect("every verb but Shutdown carries an id");
            return self.shed(token, id, code);
        }
        let start = Instant::now();
        let done = execute(&self.store, request, &mut self.scratch)
            .expect("every verb but Multi-Get and Shutdown has a reply");
        self.counters.add_phases(done.phases);
        let busy = (decode + start.elapsed()).as_nanos() as u64;
        conn.counters.served(None, done.writes, busy);
        conn.answer_framed(done.reply);
    }

    /// Park a Multi-Get: force the buffer out early when the `max_inflight`
    /// admission window is full (the thread loop would make the request
    /// wait for a slot), shed under `max_inflight == Some(0)`, park, and
    /// fire at the batch width.
    fn park(&mut self, token: usize, id: u64, t0: Instant, keys: Vec<Bytes>) {
        let cap = self.limits.max_inflight;
        if cap.is_some_and(|cap| self.batch.reqs.len() >= cap) {
            self.dispatch(Counter::WidthFires);
        }
        if !self.conns.contains_key(&token) {
            return; // dispatch may have closed the connection
        }
        if cap == Some(0) {
            return self.shed(token, id, ErrorCode::ServerBusy);
        }
        self.batch.width += keys.len();
        self.batch.reqs.push(Parked {
            token,
            id,
            t0,
            keys,
        });
        if self.batch.width >= BATCH_WIDTH {
            self.dispatch(Counter::WidthFires);
        }
    }

    /// Dispatch the buffer now if `token` has a Multi-Get parked there.
    fn flush_for(&mut self, token: usize) {
        if self.batch.holds(token) {
            self.dispatch(Counter::WidthFires);
        }
    }

    /// The trigger check: fire the buffer when it holds the batch width,
    /// when its oldest request has waited out the micro-deadline — or the
    /// poll came back empty (`woke_empty`): then no socket anywhere holds
    /// an undelivered byte, every possible batch-mate is already parked,
    /// and waiting out the window would only add latency (and,
    /// sub-millisecond, a poll spin that starves co-located clients) — or
    /// when draining, since nothing more is coming once every socket hits
    /// EOF.
    fn check(&mut self, woke_empty: bool) {
        let Some(t0) = self.batch.reqs.first().map(|r| r.t0) else {
            return;
        };
        let fire = if self.batch.width >= BATCH_WIDTH {
            Counter::WidthFires
        } else if woke_empty || t0.elapsed() >= COALESCE {
            Counter::TimeoutFires
        } else if self.draining {
            Counter::DrainFires
        } else {
            return;
        };
        self.dispatch(fire);
    }

    /// Answer request `id` of connection `token` with `code`, without
    /// touching the store.
    fn shed(&mut self, token: usize, id: u64, code: ErrorCode) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // the connection died while its request waited
        };
        conn.counters.add(Counter::Shed, 1);
        conn.answer_framed(&Response::Error { id, code }.encode());
        self.dirty.push(token);
    }

    /// Empty the buffer, answering every request that waited past its
    /// deadline with `DeadlineExceeded`; returns the rest. Every request is
    /// judged against one `now`, so a connection's overdue requests are
    /// all older than its live ones and their answers go out first.
    fn take_live(&mut self) -> Vec<Parked> {
        self.batch.width = 0;
        let reqs = std::mem::take(&mut self.batch.reqs);
        let Some(deadline) = self.limits.deadline else {
            return reqs;
        };
        let now = Instant::now();
        let (overdue, live): (Vec<_>, Vec<_>) = reqs
            .into_iter()
            .partition(|r| now.duration_since(r.t0) > deadline);
        for r in overdue {
            self.shed(r.token, r.id, ErrorCode::DeadlineExceeded);
        }
        live
    }

    /// Serve every live parked Multi-Get with one wide `mget`
    /// ([`serve_mgets`], the thread loop's dispatch too), sealing each
    /// request's reply straight into its connection's output; `fire` is
    /// the counter of the trigger.
    fn dispatch(&mut self, fire: Counter) {
        let live = self.take_live();
        if live.is_empty() {
            return;
        }
        let since = Instant::now();
        let mut run = std::mem::take(&mut self.scratch.run).recycle();
        for req in &live {
            run.push(req.id, req.keys.iter().map(|k| k.as_ref()));
        }
        self.counters.add(fire, 1);
        let (mut touched, mut dead) = (Vec::with_capacity(live.len()), Vec::new());
        let conns = &mut self.conns;
        serve_mgets(
            &self.store,
            &run,
            &mut self.scratch.resp,
            since,
            &self.counters,
            |nth, reply| {
                let req = &live[nth];
                if dead.contains(&req.token) {
                    return; // nothing follows a reply its connection never got
                }
                let Some(conn) = conns.get_mut(&req.token) else {
                    return; // connection died while its request waited
                };
                conn.counters.served(Some(reply.lookup), 0, reply.busy);
                if reply.append_to(&mut conn.out) {
                    touched.push(req.token);
                } else {
                    dead.push(req.token);
                }
            },
        );
        self.scratch.run = run.recycle();
        for token in dead {
            self.close(token);
        }
        // Write what the dispatch answered, once per connection it
        // touched, as soon as every answer is in place.
        for &token in &touched {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.flush().is_err() {
                self.close(token);
            }
        }
        self.dirty.extend(touched);
    }

    /// At most every [`MAX_POLL_WAIT`]: close the connections whose output
    /// made no progress for the stall grace, draining or not (the thread
    /// loop's write timeout), counting each; then, under `idle_timeout`,
    /// those still reading, with no output pending, that completed no
    /// request frame for it (the thread loop's read timeout). A connection
    /// waiting on its client to read is the stall rule's, not idle.
    fn sweep(&mut self) {
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + MAX_POLL_WAIT;
        let (grace, idle) = (stall_grace(&self.limits), self.limits.idle_timeout);
        let mut stalled = Vec::new();
        let mut stale = Vec::new();
        for (&token, c) in &self.conns {
            if c.stalled_since
                .is_some_and(|t| now.duration_since(t) > grace)
            {
                stalled.push(token);
            } else if idle.is_some_and(|idle| {
                !c.draining
                    && c.stalled_since.is_none()
                    && now.duration_since(c.last_activity) > idle
            }) {
                stale.push(token);
            }
        }
        for token in stalled {
            if let Some(conn) = self.conns.get(&token) {
                conn.counters.add(Counter::StalledCloses, 1);
            }
            self.close(token);
        }
        for token in stale {
            // Flush what was answered, then close mid-whatever the client
            // was doing.
            self.close(token);
        }
    }

    /// Write what each connection touched this iteration has queued,
    /// close those with nothing left to say, and keep poller interest in
    /// sync for the rest. Duplicate tokens are harmless (`close` on a
    /// removed token is a no-op).
    fn settle(&mut self) {
        for token in std::mem::take(&mut self.dirty) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.flush().is_err() || conn.finished(self.batch.holds(token)) {
                self.close(token);
            } else {
                self.sync_interest(token);
            }
        }
    }

    fn sync_interest(&mut self, token: usize) {
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

    /// Remove the connection, make a best-effort final flush, and tell the
    /// shell, which retires its counters.
    fn close(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let _ = flush_nonblocking(&mut conn.stream, &mut conn.out, &mut conn.out_pos);
        self.shell.closed(conn.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Memc3Index;
    use crate::kvsd::Kvsd;
    use crate::net::{read_frame, TcpConn};
    use crate::store::StoreConfig;
    use crate::transport::ClientConn;
    use std::io::Write;

    fn test_store() -> Arc<KvStore> {
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(100)),
            StoreConfig::default(),
        ));
        store.set(b"present", b"the-value").unwrap();
        store
    }

    fn serve() -> Kvsd {
        let config = KvsdConfig {
            reactor: true,
            ..KvsdConfig::default()
        };
        Kvsd::bind_with(test_store(), "127.0.0.1:0", config).unwrap()
    }

    #[test]
    fn coalesces_across_connections_into_wide_batches() {
        // Depth-1 clients: one one-key Multi-Get per connection, every
        // frame written before any reply is read. A store call serving more
        // than one of them can only have coalesced across connections, so
        // fewer store calls than requests proves it at the shipped width
        // and window.
        const CONNS: usize = 2 * BATCH_WIDTH;
        let server = serve();
        let mut conns: Vec<TcpStream> = (0..CONNS)
            .map(|_| {
                let conn = TcpStream::connect(server.local_addr()).unwrap();
                conn.set_nodelay(true).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                conn
            })
            .collect();
        let frames: Vec<Vec<u8>> = (0..CONNS)
            .map(|i| {
                let request = Request::MGet {
                    id: i as u64,
                    keys: vec![Bytes::from_static(b"present")],
                };
                let mut frame = Vec::new();
                write_frame(&mut frame, &request.encode()).unwrap();
                frame
            })
            .collect();
        let exchange = Instant::now();
        for (conn, frame) in conns.iter_mut().zip(&frames) {
            conn.write_all(frame).unwrap();
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            let reply = read_frame(conn).unwrap().expect("a reply");
            match Response::decode(reply).unwrap() {
                Response::MGet { id, entries } => {
                    assert_eq!(id, i as u64);
                    assert_eq!(entries[0].as_deref(), Some(&b"the-value"[..]));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let exchange = exchange.elapsed().as_nanos() as u64;
        drop(conns);
        let stats = server.shutdown();
        let batches = stats[Counter::Batches];
        assert_eq!(stats[Counter::BatchKeys], CONNS as u64);
        assert!(
            batches < CONNS as u64,
            "{CONNS} one-key requests on {CONNS} connections must coalesce \
             into fewer store calls, got {batches}"
        );
        // Each store call's time is counted once, inside the exchange: a
        // batch's time is not multiplied by the requests it served.
        let busy = stats[Counter::BusyNs];
        assert!(
            busy <= exchange,
            "{busy} busy ns counted in a {exchange} ns exchange"
        );
    }

    #[test]
    fn pipelined_set_multi_over_reactor() {
        let server = serve();
        let mut conn = TcpConn::connect(server.local_addr()).unwrap();
        conn.set_recv_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A batch with a duplicate key (later-wins), then a read-back of
        // everything it touched — program order must hold between a write
        // run on arrival and the Multi-Get parked after it.
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

        match Response::decode(conn.recv().unwrap()).unwrap() {
            Response::SetMulti { id, ok } => {
                assert_eq!(id, 1);
                assert_eq!(ok, vec![true, true, true]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::decode(conn.recv().unwrap()).unwrap() {
            Response::MGet { id, entries } => {
                assert_eq!(id, 2);
                assert_eq!(entries[0].as_deref(), Some(&b"a2"[..]), "later-wins");
                assert_eq!(entries[1].as_deref(), Some(&b"b1"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
        match Response::decode(conn.recv().unwrap()).unwrap() {
            Response::SetMulti { id, ok } => {
                assert_eq!(id, 3);
                assert!(ok.is_empty(), "empty batch answers an empty status vec");
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(conn);
        let stats = server.shutdown();
        assert_eq!(stats[Counter::Writes], 3, "pair volume accounting");
    }
}
