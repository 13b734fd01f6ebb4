//! Deterministic fault injection beneath the [`Transport`] /
//! [`ClientConn`] traits.
//!
//! [`FaultyTransport`] wraps any transport (real TCP, or a test double)
//! and perturbs the frame stream according to a [`FaultPlan`]: every
//! frame crossing the wrapper, in either direction, may be dropped,
//! delayed, truncated, corrupted, or may hard-close the connection. The
//! plan is **reproducible from a u64 seed**: connection `k` of a plan
//! always draws the same fault schedule for the same seed, regardless of
//! wall-clock timing, so a failing fuzz case replays exactly.
//!
//! ## Where faults land
//!
//! The wrapper sits *above* framing and *below* the protocol codec:
//!
//! * **Drop** — the frame silently never arrives (tx: the server never
//!   sees the request; rx: the response is swallowed and the client keeps
//!   waiting, which is what its recv timeout is for).
//! * **Delay** — the frame arrives late (a uniform sleep up to
//!   [`FaultSpec::delay_ms`]).
//! * **Truncate** — the frame arrives cut short at a random byte. The
//!   framing layer still delivers a well-formed *frame*; the protocol
//!   message inside is torn, which the CRC-32 trailer (see
//!   [`crate::protocol`]) rejects deterministically.
//! * **Corrupt** — one random byte is XORed with a random nonzero mask;
//!   again the CRC turns this into a typed decode error, never a wrong
//!   value.
//! * **Close** — the underlying connection is dropped mid-conversation;
//!   this and every later operation return
//!   [`std::io::ErrorKind::ConnectionAborted`].
//!
//! A plan whose probabilities are all zero forwards every frame untouched
//! — byte-identical to the unwrapped transport (the differential loopback
//! test in `tests/fault_injection.rs` proves this).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::transport::{ClientConn, Transport};

/// The kinds of faults [`FaultyTransport`] can inject.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the frame entirely.
    Drop,
    /// Deliver the frame after a bounded sleep.
    Delay,
    /// Deliver only a prefix of the frame.
    Truncate,
    /// Flip bits in one byte of the frame.
    Corrupt,
    /// Hard-close the connection.
    Close,
}

/// Per-frame fault probabilities plus the seed they are drawn from.
///
/// Each frame crossing the wrapper (either direction) independently
/// suffers at most one fault; the probabilities are evaluated
/// cumulatively in the order close, drop, truncate, corrupt, delay, so
/// their sum must be <= 1.0.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed all per-connection schedules derive from.
    pub seed: u64,
    /// Probability a frame hard-closes the connection.
    pub close: f64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is truncated.
    pub truncate: f64,
    /// Probability a frame has one byte corrupted.
    pub corrupt: f64,
    /// Probability a frame is delayed.
    pub delay: f64,
    /// Upper bound of the uniform delay, in milliseconds.
    pub delay_ms: u64,
}

impl FaultSpec {
    /// A spec that injects nothing: the wrapper becomes a byte-identical
    /// passthrough.
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            close: 0.0,
            drop: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_ms: 0,
        }
    }

    /// True when every probability is zero.
    pub fn is_none(&self) -> bool {
        self.close == 0.0
            && self.drop == 0.0
            && self.truncate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
    }

    /// A spec injecting a single fault kind with probability `p`.
    pub fn only(seed: u64, kind: FaultKind, p: f64) -> Self {
        let mut spec = FaultSpec::none(seed);
        match kind {
            FaultKind::Close => spec.close = p,
            FaultKind::Drop => spec.drop = p,
            FaultKind::Truncate => spec.truncate = p,
            FaultKind::Corrupt => spec.corrupt = p,
            FaultKind::Delay => {
                spec.delay = p;
                spec.delay_ms = 2;
            }
        }
        spec
    }

    /// Parse a `--faults` command-line spec:
    /// `seed=42,drop=0.01,delay=0.05,delay-ms=3,truncate=0.01,corrupt=0.01,close=0.005`.
    ///
    /// Unlisted keys default to zero (seed defaults to 0). Order is free;
    /// `delay_ms` is accepted as an alias for `delay-ms`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending key or value.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = FaultSpec::none(0);
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault probability `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability `{v}` is outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("seed `{value}` is not a u64"))?;
                }
                "close" => spec.close = prob(value)?,
                "drop" => spec.drop = prob(value)?,
                "truncate" => spec.truncate = prob(value)?,
                "corrupt" => spec.corrupt = prob(value)?,
                "delay" => spec.delay = prob(value)?,
                "delay-ms" | "delay_ms" => {
                    spec.delay_ms = value
                        .parse()
                        .map_err(|_| format!("delay-ms `{value}` is not a u64"))?;
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        let total = spec.close + spec.drop + spec.truncate + spec.corrupt + spec.delay;
        if total > 1.0 {
            return Err(format!("fault probabilities sum to {total} > 1"));
        }
        Ok(spec)
    }
}

/// Counters of faults actually injected, shared across a plan's
/// connections (for reports and test assertions).
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Frames dropped.
    pub drops: AtomicU64,
    /// Frames delayed.
    pub delays: AtomicU64,
    /// Frames truncated.
    pub truncates: AtomicU64,
    /// Frames corrupted.
    pub corrupts: AtomicU64,
    /// Connections hard-closed.
    pub closes: AtomicU64,
}

impl FaultCounters {
    /// Total faults injected so far.
    pub fn total(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
            + self.delays.load(Ordering::Relaxed)
            + self.truncates.load(Ordering::Relaxed)
            + self.corrupts.load(Ordering::Relaxed)
            + self.closes.load(Ordering::Relaxed)
    }
}

/// A reproducible fault schedule factory: connection `k` under seed `s`
/// always receives the same per-frame fault decisions.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    next_conn: AtomicU64,
    counters: FaultCounters,
}

/// SplitMix64 — decorrelates per-connection seeds derived from one seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Create a plan from a spec.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan {
            spec,
            next_conn: AtomicU64::new(0),
            counters: FaultCounters::default(),
        }
    }

    /// The spec this plan draws from.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Counters of faults injected so far across all connections.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// The deterministic schedule for the next connection.
    fn next_schedule(&self) -> ConnSchedule {
        let conn_index = self.next_conn.fetch_add(1, Ordering::Relaxed);
        ConnSchedule {
            spec: self.spec,
            rng: StdRng::seed_from_u64(splitmix64(self.spec.seed ^ splitmix64(conn_index))),
        }
    }
}

/// One connection's deterministic stream of fault decisions.
#[derive(Debug)]
struct ConnSchedule {
    spec: FaultSpec,
    rng: StdRng,
}

impl ConnSchedule {
    /// Decide the fate of the next frame. Exactly one RNG draw when no
    /// fault fires, so the decision sequence is a pure function of
    /// (seed, connection index, frame count).
    fn decide(&mut self) -> Option<FaultKind> {
        if self.spec.is_none() {
            return None;
        }
        let u: f64 = self.rng.gen();
        let mut edge = self.spec.close;
        if u < edge {
            return Some(FaultKind::Close);
        }
        edge += self.spec.drop;
        if u < edge {
            return Some(FaultKind::Drop);
        }
        edge += self.spec.truncate;
        if u < edge {
            return Some(FaultKind::Truncate);
        }
        edge += self.spec.corrupt;
        if u < edge {
            return Some(FaultKind::Corrupt);
        }
        edge += self.spec.delay;
        if u < edge {
            return Some(FaultKind::Delay);
        }
        None
    }

    /// Cut the frame at a random interior byte (empty frames pass).
    fn truncate(&mut self, frame: &Bytes) -> Bytes {
        if frame.is_empty() {
            return frame.clone();
        }
        let cut = self.rng.gen_range(0..frame.len());
        frame.slice(..cut)
    }

    /// XOR one random byte with a random nonzero mask.
    fn corrupt(&mut self, frame: &Bytes) -> Bytes {
        if frame.is_empty() {
            return frame.clone();
        }
        let pos = self.rng.gen_range(0..frame.len());
        let mask = self.rng.gen_range(1..=255u8);
        let mut copy = frame.to_vec();
        copy[pos] ^= mask;
        Bytes::from(copy)
    }

    /// A uniform delay in `0..=delay_ms` milliseconds.
    fn delay(&mut self) -> Duration {
        Duration::from_millis(self.rng.gen_range(0..=self.spec.delay_ms))
    }
}

/// A [`Transport`] wrapper injecting the plan's faults into every
/// connection it opens.
pub struct FaultyTransport<'a> {
    inner: &'a dyn Transport,
    plan: Arc<FaultPlan>,
}

impl std::fmt::Debug for FaultyTransport<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("plan", &self.plan)
            .finish()
    }
}

impl<'a> FaultyTransport<'a> {
    /// Wrap `inner`, drawing fault schedules from `plan`.
    pub fn new(inner: &'a dyn Transport, plan: Arc<FaultPlan>) -> Self {
        FaultyTransport { inner, plan }
    }

    /// The shared plan (for counters).
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl Transport for FaultyTransport<'_> {
    fn connect(&self) -> io::Result<Box<dyn ClientConn>> {
        let inner = self.inner.connect()?;
        Ok(Box::new(FaultyConn {
            inner: Some(inner),
            schedule: self.plan.next_schedule(),
            plan: Arc::clone(&self.plan),
        }))
    }
}

/// A [`ClientConn`] with a fault schedule spliced into both directions.
struct FaultyConn {
    /// `None` after a `Close` fault fired.
    inner: Option<Box<dyn ClientConn>>,
    schedule: ConnSchedule,
    plan: Arc<FaultPlan>,
}

impl FaultyConn {
    fn aborted() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "connection closed by fault injection",
        )
    }

    fn close(&mut self) -> io::Error {
        self.inner = None;
        self.plan.counters.closes.fetch_add(1, Ordering::Relaxed);
        Self::aborted()
    }
}

impl ClientConn for FaultyConn {
    fn send(&mut self, frame: Bytes) -> io::Result<()> {
        // Decide before borrowing inner, so a missing conn still consumes
        // no draws (the schedule is per delivered operation).
        if self.inner.is_none() {
            return Err(Self::aborted());
        }
        let counters = &self.plan.counters;
        match self.schedule.decide() {
            Some(FaultKind::Close) => Err(self.close()),
            Some(FaultKind::Drop) => {
                counters.drops.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(FaultKind::Truncate) => {
                counters.truncates.fetch_add(1, Ordering::Relaxed);
                let cut = self.schedule.truncate(&frame);
                self.inner.as_mut().unwrap().send(cut)
            }
            Some(FaultKind::Corrupt) => {
                counters.corrupts.fetch_add(1, Ordering::Relaxed);
                let bad = self.schedule.corrupt(&frame);
                self.inner.as_mut().unwrap().send(bad)
            }
            Some(FaultKind::Delay) => {
                counters.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.schedule.delay());
                self.inner.as_mut().unwrap().send(frame)
            }
            None => self.inner.as_mut().unwrap().send(frame),
        }
    }

    fn recv(&mut self) -> io::Result<Bytes> {
        loop {
            let Some(inner) = self.inner.as_mut() else {
                return Err(Self::aborted());
            };
            let frame = inner.recv()?;
            let counters = &self.plan.counters;
            match self.schedule.decide() {
                Some(FaultKind::Close) => return Err(self.close()),
                Some(FaultKind::Drop) => {
                    // Swallow the response and keep waiting — from the
                    // client's view the reply vanished on the wire.
                    counters.drops.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Some(FaultKind::Truncate) => {
                    counters.truncates.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.schedule.truncate(&frame));
                }
                Some(FaultKind::Corrupt) => {
                    counters.corrupts.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.schedule.corrupt(&frame));
                }
                Some(FaultKind::Delay) => {
                    counters.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.schedule.delay());
                    return Ok(frame);
                }
                None => return Ok(frame),
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.flush(),
            None => Err(Self::aborted()),
        }
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.set_recv_timeout(timeout),
            None => Err(Self::aborted()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let spec = FaultSpec::parse(
            "seed=42,drop=0.01,delay=0.05,delay-ms=3,truncate=0.02,corrupt=0.02,close=0.005",
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.drop, 0.01);
        assert_eq!(spec.delay, 0.05);
        assert_eq!(spec.delay_ms, 3);
        assert_eq!(spec.truncate, 0.02);
        assert_eq!(spec.corrupt, 0.02);
        assert_eq!(spec.close, 0.005);
        assert!(!spec.is_none());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultSpec::parse("drop").is_err(), "missing value");
        assert!(FaultSpec::parse("drop=nope").is_err(), "non-numeric");
        assert!(FaultSpec::parse("drop=1.5").is_err(), "out of range");
        assert!(FaultSpec::parse("warp=0.1").is_err(), "unknown key");
        assert!(
            FaultSpec::parse("drop=0.6,close=0.6").is_err(),
            "probabilities sum over 1"
        );
        assert!(FaultSpec::parse("").unwrap().is_none(), "empty spec = none");
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_connection() {
        let decisions = |seed: u64| -> Vec<Vec<Option<FaultKind>>> {
            let plan = FaultPlan::new(FaultSpec {
                seed,
                close: 0.1,
                drop: 0.2,
                truncate: 0.2,
                corrupt: 0.2,
                delay: 0.2,
                delay_ms: 1,
            });
            (0..3)
                .map(|_| {
                    let mut sched = plan.next_schedule();
                    (0..64).map(|_| sched.decide()).collect()
                })
                .collect()
        };
        let a = decisions(7);
        assert_eq!(a, decisions(7), "same seed, same schedules");
        assert_ne!(a, decisions(8), "different seed, different schedules");
        assert_ne!(a[0], a[1], "connections get decorrelated schedules");
        let fired = a
            .iter()
            .flatten()
            .filter(|decision| decision.is_some())
            .count();
        assert!(fired > 50, "90 % fault rate must fire often: {fired}");
    }

    /// An in-process loopback ClientConn echoing sent frames back, for
    /// exercising FaultyConn without a server.
    struct EchoConn {
        queue: std::collections::VecDeque<Bytes>,
    }

    impl ClientConn for EchoConn {
        fn send(&mut self, frame: Bytes) -> io::Result<()> {
            self.queue.push_back(frame);
            Ok(())
        }

        fn recv(&mut self) -> io::Result<Bytes> {
            self.queue
                .pop_front()
                .ok_or_else(|| io::Error::new(io::ErrorKind::WouldBlock, "nothing queued"))
        }
    }

    struct EchoTransport;

    impl Transport for EchoTransport {
        fn connect(&self) -> io::Result<Box<dyn ClientConn>> {
            Ok(Box::new(EchoConn {
                queue: std::collections::VecDeque::new(),
            }))
        }
    }

    #[test]
    fn no_fault_plan_is_byte_identical_passthrough() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::none(99)));
        let faulty = FaultyTransport::new(&EchoTransport, Arc::clone(&plan));
        let mut conn = faulty.connect().unwrap();
        let frames: Vec<Bytes> = (0..32u8)
            .map(|i| Bytes::copy_from_slice(&[i; 17]))
            .collect();
        for f in &frames {
            conn.send(f.clone()).unwrap();
        }
        for f in &frames {
            let got = conn.recv().unwrap();
            assert_eq!(&got[..], &f[..], "payload untouched");
        }
        assert_eq!(plan.counters().total(), 0, "nothing injected");
    }

    #[test]
    fn close_fault_poisons_the_connection() {
        // close=1.0: the very first operation aborts, and so does every
        // later one.
        let plan = Arc::new(FaultPlan::new(FaultSpec::only(3, FaultKind::Close, 1.0)));
        let faulty = FaultyTransport::new(&EchoTransport, Arc::clone(&plan));
        let mut conn = faulty.connect().unwrap();
        let err = conn.send(Bytes::from_static(b"x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        let err = conn.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        let err = conn.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert_eq!(plan.counters().closes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_fault_swallows_sends() {
        let plan = Arc::new(FaultPlan::new(FaultSpec::only(4, FaultKind::Drop, 1.0)));
        let faulty = FaultyTransport::new(&EchoTransport, Arc::clone(&plan));
        let mut conn = faulty.connect().unwrap();
        conn.send(Bytes::from_static(b"vanishes")).unwrap();
        // Nothing reached the echo queue: recv hits the empty-queue error.
        assert_eq!(conn.recv().unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert!(plan.counters().drops.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn truncate_and_corrupt_mangle_but_deliver() {
        for kind in [FaultKind::Truncate, FaultKind::Corrupt] {
            let plan = Arc::new(FaultPlan::new(FaultSpec::only(5, kind, 1.0)));
            let faulty = FaultyTransport::new(&EchoTransport, Arc::clone(&plan));
            let mut conn = faulty.connect().unwrap();
            let original = Bytes::from_static(b"the original frame body");
            conn.send(original.clone()).unwrap();
            // The recv side injects the same fault again; either way the
            // delivered bytes must differ from the original.
            let got = conn.recv().unwrap();
            assert_ne!(&got[..], &original[..], "{kind:?} must alter the frame");
            assert!(got.len() <= original.len());
            assert!(plan.counters().total() >= 2, "{kind:?} counted");
        }
    }
}
