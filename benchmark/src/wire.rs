//! The benchmark's own lean load generator for the wire workloads: one
//! thread, nonblocking sockets multiplexed with `poll(2)`, a closed loop of
//! pre-encoded frames (memcached callers wait for replies, and the paper's
//! memslap is closed-loop). `simdht-memslap` is code under test and is not
//! used.

use std::collections::VecDeque;
use std::ffi::{c_int, c_ulong};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use simdht_kvs::net::read_frame;
use simdht_kvs::protocol::{Request, Response};

use crate::check::Checker;
use crate::gen::{key_bytes, Preload, Ring};
use crate::procfs;
use crate::spec::Spec;
use crate::timed::{Timed, WindowAcc};
use crate::trace::{Name, Tracer};

/// Silence from the server for this long turns every request in flight
/// into a failed operation and ends the run — never a hang.
pub const STALL_GUARD: Duration = Duration::from_secs(10);
/// Preload frames kept in flight.
const PRELOAD_DEPTH: usize = 8;
const READ_BUF: usize = 256 << 10;
/// Write slots whose keys the untimed read-back re-reads.
const READBACK_WRITES: usize = 32;
/// Preloaded keys the untimed read-back re-reads on read-only workloads.
const READBACK_KEYS: usize = 1024;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// The phases of a run's measured loop.
#[derive(Copy, Clone, Debug)]
pub struct Phases {
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
    /// Silence from the server for this long ends the loop.
    pub stall: Duration,
}

impl Phases {
    fn timed_start_ns(&self) -> u64 {
        self.warmup.as_nanos() as u64
    }

    fn window_ns(&self) -> u64 {
        self.window.as_nanos() as u64
    }

    fn end_ns(&self) -> u64 {
        self.timed_start_ns() + self.window_ns() * self.windows as u64
    }

    /// The window a completion at `t_ns` falls into, if it is timed.
    pub fn window_of(&self, t_ns: u64) -> Option<usize> {
        let since = t_ns.checked_sub(self.timed_start_ns())?;
        let w = (since / self.window_ns()) as usize;
        (w < self.windows).then_some(w)
    }

    /// Nanosecond offset of window boundary `k` (`0..=windows`).
    pub fn boundary_ns(&self, k: usize) -> u64 {
        self.timed_start_ns() + self.window_ns() * k as u64
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_start: usize,
    in_end: usize,
    /// `(ring slot, queued-at ns)` in send order; responses come back in
    /// the same order.
    inflight: VecDeque<(usize, u64)>,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: vec![0; READ_BUF],
            in_start: 0,
            in_end: 0,
            inflight: VecDeque::new(),
        })
    }

    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Write as much queued output as the socket takes right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.has_pending_out() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// One read into the free tail of the buffer. `Ok(0)` = nothing ready.
    fn fill(&mut self) -> io::Result<usize> {
        if self.in_start == self.in_end {
            self.in_start = 0;
            self.in_end = 0;
        } else if self.in_end == self.inbuf.len() {
            self.inbuf.copy_within(self.in_start..self.in_end, 0);
            self.in_end -= self.in_start;
            self.in_start = 0;
        }
        match self.stream.read(&mut self.inbuf[self.in_end..]) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.in_end += n;
                Ok(n)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }

    /// The next complete frame payload in the buffer, as a byte range.
    fn next_frame(&mut self) -> io::Result<Option<std::ops::Range<usize>>> {
        let have = self.in_end - self.in_start;
        if have < 4 {
            return Ok(None);
        }
        let prefix = &self.inbuf[self.in_start..self.in_start + 4];
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
        if 4 + len > self.inbuf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response frame of {len} bytes exceeds the generator's buffer"),
            ));
        }
        if have < 4 + len {
            return Ok(None);
        }
        let range = self.in_start + 4..self.in_start + 4 + len;
        self.in_start = range.end;
        Ok(Some(range))
    }
}

/// Generator-side clock shares of a traced run.
#[derive(Copy, Clone, Debug, Default)]
pub struct ClientTimes {
    pub write_ns: u64,
    pub wait_ns: u64,
    pub decode_ns: u64,
    /// Requests completed while the clocks ran (warm-up included).
    pub reqs: u64,
    pub wall_ns: u64,
}

pub struct LoopOutcome {
    pub timed: Timed,
    /// The most recently sent write slots, newest last.
    pub recent_writes: VecDeque<usize>,
    pub client: ClientTimes,
    /// Set when the stall guard ended the loop.
    pub stalled: bool,
}

pub fn connect_all(addr: SocketAddr, n: usize) -> io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect()
}

/// Send every preload frame (pipelined, blocking) and check every
/// acknowledgement.
pub fn preload(addr: SocketAddr, data: &Preload) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STALL_GUARD))?;
    stream.set_write_timeout(Some(STALL_GUARD))?;
    let mut reader = io::BufReader::new(stream.try_clone()?);
    let mut check_ack = |i: usize| -> io::Result<()> {
        let frame = read_frame(&mut reader)?
            .ok_or_else(|| io::Error::other("server closed during preload"))?;
        match Response::decode(frame) {
            Ok(Response::SetMulti { id, ok }) if id == i as u64 && ok.iter().all(|&o| o) => Ok(()),
            other => Err(io::Error::other(format!(
                "preload batch {i} not stored: {other:?}"
            ))),
        }
    };
    for (i, range) in data.ranges.iter().enumerate() {
        stream.write_all(&data.frames[range.clone()])?;
        if i >= PRELOAD_DEPTH {
            check_ack(i - PRELOAD_DEPTH)?;
        }
    }
    for i in data.ranges.len().saturating_sub(PRELOAD_DEPTH)..data.ranges.len() {
        check_ack(i)?;
    }
    Ok(())
}

/// Drive the closed loop over already-connected streams through warm-up and
/// the timed windows, then drain. `server_pid` is sampled at every window
/// boundary.
///
/// Each connection keeps `spec.depth` requests in flight as one burst: the
/// burst goes out in one write and the next follows when the last reply of
/// this one has been checked — a pipelining client reading a batch of
/// replies. Replacing each reply at once instead (a sliding window) is
/// bistable against `simdht-kvsd`, which flushes replies only when its read
/// buffer runs dry: the requests travel either as one coalesced burst or as
/// `depth` separate ping-pongs with a system call each, the two regimes
/// differ 2x in throughput, and a single preemption flips one into the
/// other. Bursts pin the regime, so the run measures the server.
pub fn closed_loop(
    streams: Vec<TcpStream>,
    ring: &Ring,
    checker: &mut Checker,
    spec: &Spec,
    phases: Phases,
    server_pid: u32,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<LoopOutcome> {
    let mut conns = streams
        .into_iter()
        .map(Conn::new)
        .collect::<io::Result<Vec<Conn>>>()?;
    let mut timed = Timed {
        window_s: phases.window.as_secs_f64(),
        windows: vec![WindowAcc::default(); phases.windows],
        ..Timed::default()
    };
    let mut out = LoopOutcome {
        timed: Timed::default(),
        recent_writes: VecDeque::new(),
        client: ClientTimes::default(),
        stalled: false,
    };
    let clock = Instant::now();
    let now_ns = || clock.elapsed().as_nanos() as u64;
    let mut next_slot = 0usize;
    let mut boundary = 0usize;
    let mut last_progress = 0u64;
    let stall_ns = phases.stall.as_nanos() as u64;

    macro_rules! enqueue {
        ($conn:expr) => {{
            let slot = next_slot % ring.slots.len();
            next_slot += 1;
            if ring.slots[slot].write {
                checker.mark_sent(slot);
                if out.recent_writes.len() == READBACK_WRITES {
                    out.recent_writes.pop_front();
                }
                out.recent_writes.push_back(slot);
            }
            $conn.out.extend_from_slice(ring.frame(slot));
            $conn.inflight.push_back((slot, now_ns()));
            timed.attempted += 1;
        }};
    }

    for conn in &mut conns {
        for _ in 0..spec.depth {
            enqueue!(conn);
        }
    }
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();

    loop {
        let now = now_ns();
        while boundary <= phases.windows && now >= phases.boundary_ns(boundary) {
            timed.server.push(procfs::sample(Some(server_pid))?);
            timed.own.push(procfs::sample(None)?);
            boundary += 1;
        }
        let sending = now < phases.end_ns();
        if !sending && conns.iter().all(|c| c.inflight.is_empty()) {
            break;
        }
        if now.saturating_sub(last_progress) > stall_ns {
            out.stalled = true;
            timed.failed += conns.iter().map(|c| c.inflight.len() as u64).sum::<u64>();
            break;
        }

        let t_write = tracer.is_some().then(&now_ns);
        let mut wrote_for = None;
        for conn in &mut conns {
            if conn.has_pending_out() {
                wrote_for = wrote_for.or(conn.inflight.back().map(|&(slot, _)| slot));
                conn.flush()?;
            }
        }
        if let (Some(t0), Some(slot), Some(tr)) = (t_write, wrote_for, tracer.as_deref_mut()) {
            let t1 = now_ns();
            out.client.write_ns += t1 - t0;
            tr.span(Name::ClientWrite, slot as u32, None, t0, t1);
        }

        for (fd, conn) in fds.iter_mut().zip(&conns) {
            fd.events = POLLIN | if conn.has_pending_out() { POLLOUT } else { 0 };
            fd.revents = 0;
        }
        // Wake for the next window boundary even if the server is silent.
        let until_boundary = phases
            .boundary_ns(boundary.min(phases.windows))
            .saturating_sub(now);
        let timeout_ms = (until_boundary / 1_000_000).clamp(1, 1000) as c_int;
        let t_wait = tracer.is_some().then(&now_ns);
        // SAFETY: `fds` is a live, correctly laid out pollfd array of the
        // length passed; poll only writes each entry's `revents`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        if let (Some(t0), Some(tr)) = (t_wait, tracer.as_deref_mut()) {
            let t1 = now_ns();
            out.client.wait_ns += t1 - t0;
            let oldest = conns
                .iter()
                .filter_map(|c| c.inflight.front())
                .map(|f| f.0)
                .min();
            tr.span(Name::ClientWait, oldest.unwrap_or(0) as u32, None, t0, t1);
        }

        for (i, conn) in conns.iter_mut().enumerate() {
            if fds[i].revents & !POLLOUT == 0 {
                continue;
            }
            if conn.fill()? == 0 {
                continue;
            }
            while let Some(range) = conn.next_frame()? {
                let Some((slot, queued_ns)) = conn.inflight.pop_front() else {
                    return Err(io::Error::other("server sent a frame nobody asked for"));
                };
                let t0 = tracer.is_some().then(&now_ns);
                let verdict = checker.response(ring, slot, &conn.inbuf[range.clone()]);
                let done_ns = now_ns();
                if let (Some(t0), Some(tr)) = (t0, tracer.as_deref_mut()) {
                    out.client.decode_ns += done_ns - t0;
                    tr.span(Name::ClientDecode, slot as u32, None, t0, done_ns);
                }
                out.client.reqs += 1;
                last_progress = done_ns;
                timed.failed += u64::from(verdict.failed || verdict.wrong);
                timed.wrong += u64::from(verdict.wrong);
                if let Some(w) = phases.window_of(done_ns) {
                    let acc = &mut timed.windows[w];
                    acc.reqs += 1;
                    if verdict.write {
                        acc.pairs_written += u64::from(verdict.keys);
                    } else {
                        acc.keys_read += u64::from(verdict.keys);
                        acc.hits += u64::from(verdict.hits);
                    }
                    let lat = done_ns - queued_ns;
                    acc.lat_ns.push(u32::try_from(lat).unwrap_or(u32::MAX));
                    acc.bytes_out += ring.slots[slot].frame.len() as u64;
                    acc.bytes_in += 4 + range.len() as u64;
                }
            }
            // The whole burst is answered: send the next one.
            if conn.inflight.is_empty() && now_ns() < phases.end_ns() {
                for _ in 0..spec.depth {
                    enqueue!(conn);
                }
            }
        }
    }
    out.client.wall_ns = now_ns();
    // A stall can end the loop before every boundary was sampled; pad so
    // per-window arithmetic still lines up.
    while timed.server.len() <= phases.windows {
        timed
            .server
            .push(procfs::sample(Some(server_pid)).unwrap_or_default());
        timed.own.push(procfs::sample(None)?);
    }
    out.timed = timed;
    Ok(out)
}

/// Untimed read-back after the windows, on a fresh blocking connection.
/// Read-only workloads re-read a spread of preloaded keys and compare every
/// byte; with writes racing, the keys of the most recently sent writes must
/// be resident and hold a value that was written for them. Returns the
/// number of wrong answers.
pub fn read_back(
    addr: SocketAddr,
    spec: &Spec,
    ring: &Ring,
    checker: &mut Checker,
    recent_writes: &VecDeque<usize>,
) -> io::Result<u64> {
    let ids: Vec<u32> = if spec.deterministic_hits() {
        let step = (spec.items / READBACK_KEYS).max(1);
        (0..spec.items as u32).step_by(step).collect()
    } else {
        recent_writes
            .iter()
            .flat_map(|&s| ring.slot_keys(s).iter().copied())
            .collect()
    };
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STALL_GUARD))?;
    let mut wrong = 0;
    for (i, batch) in ids.chunks(64).enumerate() {
        let keys = batch
            .iter()
            .map(|&k| bytes::Bytes::copy_from_slice(&key_bytes(k)))
            .collect();
        let payload = Request::MGet { id: i as u64, keys }.encode();
        simdht_kvs::net::write_frame(&mut stream, &payload)?;
        let frame = read_frame(&mut stream)?
            .ok_or_else(|| io::Error::other("server closed during read-back"))?;
        let Ok(Response::MGet { id, entries }) = Response::decode(frame) else {
            wrong += batch.len() as u64;
            continue;
        };
        if id != i as u64 || entries.len() != batch.len() {
            wrong += batch.len() as u64;
            continue;
        }
        for (&k, got) in batch.iter().zip(&entries) {
            // Position 0 is on the full-compare sample; a miss is wrong
            // here on every workload.
            let hit = checker.entry(k, 0, got.as_deref(), Some(ring));
            wrong += u64::from(hit != Ok(true));
        }
    }
    Ok(wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completions_land_in_their_window() {
        let p = Phases {
            warmup: Duration::from_secs(3),
            window: Duration::from_secs(5),
            windows: 4,
            stall: STALL_GUARD,
        };
        assert_eq!(p.window_of(2_999_999_999), None, "warm-up is not timed");
        assert_eq!(p.window_of(3_000_000_000), Some(0));
        assert_eq!(p.window_of(7_999_999_999), Some(0));
        assert_eq!(p.window_of(8_000_000_000), Some(1));
        assert_eq!(p.window_of(22_999_999_999), Some(3));
        assert_eq!(p.window_of(23_000_000_000), None, "drain is not timed");
        assert_eq!(p.boundary_ns(4), p.end_ns());
    }

    #[test]
    fn a_silent_server_becomes_failed_operations_not_a_hang() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts and reads, never answers.
        let mute = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
        });
        let mut spec = Spec::by_name("wire_mget16", true).unwrap();
        spec.items = 2000;
        spec.ring = 64;
        let ring = Ring::generate(&spec, 12);
        let mut checker = Checker::new(&spec, 12);
        let phases = Phases {
            warmup: Duration::ZERO,
            window: Duration::from_millis(100),
            windows: 2,
            stall: Duration::from_millis(300),
        };
        let started = Instant::now();
        let out = closed_loop(
            connect_all(addr, 1).unwrap(),
            &ring,
            &mut checker,
            &spec,
            phases,
            std::process::id(),
            None,
        )
        .unwrap();
        assert!(out.stalled);
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(out.timed.attempted, spec.depth as u64);
        assert_eq!(
            out.timed.failed, spec.depth as u64,
            "every request in flight failed"
        );
        assert_eq!(out.timed.server.len(), phases.windows + 1);
        // The loop closed its connection on return, which ends the server.
        mute.join().unwrap();
    }
}
