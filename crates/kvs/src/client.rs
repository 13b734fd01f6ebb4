//! Client-side resilience: recv timeouts, bounded exponential backoff
//! with jitter, and idempotent retry over any [`Transport`].
//!
//! [`RetryClient`] is the policy layer the fault-injection suite drives:
//! it turns a hostile link (see [`crate::fault`]) into either a correct
//! response or a clean typed error — never a hang, never a wrong value.
//!
//! ## What retries and what doesn't
//!
//! * **MGet is idempotent**: re-asking for the same keys cannot change
//!   server state, so a timed-out, failed, or garbled MGet is retried up
//!   to [`RetryPolicy::max_retries`] times on a *fresh* connection (a
//!   fresh stream cannot deliver a stale response from the aborted
//!   attempt, so responses never mismatch silently).
//! * **Set is not retried.** When a Set's response is lost the client
//!   cannot know whether the server applied it; blindly resending could
//!   double-apply a delta in a richer protocol and, even here, would hide
//!   the uncertainty from the caller. [`RetryClient::set`] reports
//!   [`SetOutcome::Uncertain`] instead and leaves the decision to the
//!   application (the fault-matrix oracle tracks exactly this
//!   uncertainty).
//! * **Delete and Touch are idempotent**: re-deleting a key or re-setting
//!   its TTL converges to the same state, so both retry like MGet. The one
//!   visible wrinkle: when a retried Delete's *first* attempt actually
//!   deleted, the retry answers `NotFound` — the caller sees `false`
//!   though the key is gone, which is the standard idempotent-delete
//!   ambiguity.
//! * **Cas is never retried.** A lost Cas response is strictly worse than
//!   a lost Set: resending could succeed against the version the first
//!   attempt installed, silently double-applying. [`RetryClient::cas`]
//!   reports [`CasNetOutcome::Uncertain`] and leaves recovery (a fresh
//!   versioned read) to the application.
//! * A [`crate::protocol::ErrorCode::ServerBusy`] response is the server
//!   *shedding load*: the connection is healthy, so the client keeps it,
//!   backs off, and retries (MGet) or reports [`SetOutcome::Shed`] (Set —
//!   the server explicitly did not apply it, so there is no uncertainty).
//!
//! ## Backoff
//!
//! Attempt `k` (0-based) sleeps `d_k - d_k * jitter * u` where
//! `d_k = min(base * 2^k, max)` and `u` is uniform in `[0, 1)`: the delay
//! always lands in `[d_k * (1 - jitter), d_k]`, so tests can assert the
//! bound exactly. Jittering *downward* from the exponential envelope
//! keeps the worst-case wait predictable while still de-synchronizing
//! clients that failed together.

use std::io;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{ErrorCode, OpStatus, Request, Response};
use crate::transport::{ClientConn, Transport};

/// Sleep abstraction so backoff tests run on a mock clock instead of
/// wall-time.
pub trait Clock: Send + Sync {
    /// Sleep for `d` (or record it, for mock clocks).
    fn sleep(&self, d: Duration);
}

/// The real clock: `std::thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// Retry/timeout policy for a [`RetryClient`].
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling of the exponential envelope.
    pub max_backoff: Duration,
    /// Fraction of the envelope jittered away, in `[0, 1]`:
    /// 0 = deterministic full delay, 1 = uniform in `(0, d]`.
    pub jitter: f64,
    /// Bound on each blocking recv; `None` = wait forever (only sensible
    /// on transports that cannot silently drop frames).
    pub recv_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            jitter: 0.5,
            recv_timeout: Some(Duration::from_secs(1)),
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff envelope for 0-based attempt `k`:
    /// `min(base * 2^k, max)`.
    pub fn envelope(&self, attempt: u32) -> Duration {
        let scaled = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        scaled.min(self.max_backoff)
    }

    /// The jittered delay before retry `attempt`, in
    /// `[envelope * (1 - jitter), envelope]`.
    pub(crate) fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let d = self.envelope(attempt);
        let u: f64 = rng.gen();
        d.mul_f64(1.0 - self.jitter.clamp(0.0, 1.0) * u)
    }
}

/// What happened to a [`RetryClient::set`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SetOutcome {
    /// The server confirmed the store.
    Stored,
    /// The server confirmed it rejected the store (e.g. over budget).
    Rejected,
    /// The server explicitly shed the request: definitely not applied.
    Shed,
    /// The request or its response was lost; the server may or may not
    /// have applied it.
    Uncertain,
}

/// What happened to a [`RetryClient::cas`]. Unlike [`SetOutcome`], a
/// successful compare-and-swap carries the version the server installed,
/// and a conflict carries the version it found — the caller needs both to
/// decide whether (and against what) to re-read and retry at its level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CasNetOutcome {
    /// The swap applied; the value now lives at this version.
    Stored(u64),
    /// The expected version did not match; the item exists at this one.
    Conflict(u64),
    /// No live item under that key.
    NotFound,
    /// The server confirmed it could not make room for the value.
    Rejected,
    /// The server explicitly shed the request: definitely not applied.
    Shed,
    /// The request or its response was lost; the server may or may not
    /// have applied the swap. Never retried automatically — recover with
    /// a fresh versioned read.
    Uncertain,
}

/// Counters a [`RetryClient`] accumulates across operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Wire attempts issued (first tries + retries).
    pub attempts: u64,
    /// Retries performed (attempts beyond each operation's first).
    pub retries: u64,
    /// Attempts that ended in a recv timeout.
    pub timeouts: u64,
    /// `ServerBusy` responses received.
    pub busy: u64,
    /// Fresh connections opened (including each operation's first).
    pub connects: u64,
}

/// A resilient request/response client over any [`Transport`]:
/// timeouts, bounded backoff with jitter, idempotent MGet retry.
pub struct RetryClient<'a> {
    transport: &'a dyn Transport,
    policy: RetryPolicy,
    clock: &'a dyn Clock,
    rng: StdRng,
    conn: Option<Box<dyn ClientConn>>,
    stats: RetryStats,
    next_id: u64,
}

impl std::fmt::Debug for RetryClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryClient")
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The shared system clock used by [`RetryClient::new`].
static SYSTEM_CLOCK: SystemClock = SystemClock;

impl<'a> RetryClient<'a> {
    /// A client sleeping on the real clock, with backoff jitter seeded
    /// from `seed` (pass a fixed seed in tests for reproducible delays).
    pub fn new(transport: &'a dyn Transport, policy: RetryPolicy, seed: u64) -> Self {
        Self::with_clock(transport, policy, seed, &SYSTEM_CLOCK)
    }

    /// A client sleeping on a caller-supplied [`Clock`] (mock clocks in
    /// tests).
    pub fn with_clock(
        transport: &'a dyn Transport,
        policy: RetryPolicy,
        seed: u64,
        clock: &'a dyn Clock,
    ) -> Self {
        RetryClient {
            transport,
            policy,
            clock,
            rng: StdRng::seed_from_u64(seed),
            conn: None,
            stats: RetryStats::default(),
            next_id: 0,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &RetryStats {
        &self.stats
    }

    /// Borrow or (re)establish the connection.
    fn conn(&mut self) -> io::Result<&mut Box<dyn ClientConn>> {
        if self.conn.is_none() {
            let mut conn = self.transport.connect()?;
            conn.set_recv_timeout(self.policy.recv_timeout)?;
            self.stats.connects += 1;
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Drop the connection so the next attempt reconnects (a timed-out or
    /// garbled stream may hold partial frames — never reuse it).
    fn poison(&mut self) {
        self.conn = None;
    }

    /// Sleep the jittered backoff for 0-based retry `attempt`.
    fn backoff(&mut self, attempt: u32) {
        let d = self.policy.delay(attempt, &mut self.rng);
        self.clock.sleep(d);
    }

    /// One wire round-trip: send `request`, receive and decode the
    /// response carrying `id`.
    fn roundtrip(&mut self, id: u64, frame: &Bytes) -> io::Result<Response> {
        let conn = self.conn()?;
        conn.send(frame.clone())?;
        conn.flush()?;
        let payload = conn.recv()?;
        let response =
            Response::decode(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let got = response.id();
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response id does not match the request",
            ));
        }
        Ok(response)
    }

    /// Count a failed round trip and drop the stream it may have left
    /// mid-frame.
    fn note_failure(&mut self, e: &io::Error) {
        self.stats.timeouts += u64::from(matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ));
        self.poison();
    }

    /// The retry loop of the idempotent verbs (MGet, Delete, Touch): a
    /// fresh id per attempt, backoff between attempts, `ServerBusy` and
    /// `DeadlineExceeded` retried on the same stream. `parse` maps the
    /// verb's own response to its result; any other shape (`None`) poisons
    /// the connection and retries.
    fn retry_verb<T>(
        &mut self,
        request: impl Fn(u64) -> Request,
        parse: impl Fn(Response) -> Option<T>,
    ) -> io::Result<T> {
        let attempts = 1 + self.policy.max_retries;
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                self.backoff(attempt - 1);
            }
            let id = self.next_id;
            self.next_id += 1;
            let frame = request(id).try_encode()?;
            self.stats.attempts += 1;
            match self.roundtrip(id, &frame) {
                Ok(Response::Error { code, .. }) => {
                    // The server answered: the connection is healthy.
                    self.stats.busy += u64::from(code == ErrorCode::ServerBusy);
                    last_err = Some(io::Error::new(
                        io::ErrorKind::ResourceBusy,
                        format!("server refused request: {code}"),
                    ));
                }
                Ok(resp) => match parse(resp) {
                    Some(outcome) => return Ok(outcome),
                    None => {
                        self.poison();
                        last_err = Some(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "wrong response type or status",
                        ));
                    }
                },
                Err(e) => {
                    self.note_failure(&e);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// The single attempt of the verbs that must never be resent (Set,
    /// SetMulti, Cas, SetEx): a lost response leaves the server state
    /// unknown. `parse` maps the verb's own response to its outcome; a
    /// request the server declined is `shed`, and anything ambiguous — a
    /// failed round trip, or a shape `parse` does not accept, after which
    /// the stream can no longer be trusted — is `uncertain`.
    fn send_once<T>(
        &mut self,
        request: impl FnOnce(u64) -> Request,
        parse: impl FnOnce(Response) -> Option<T>,
        shed: T,
        uncertain: T,
    ) -> io::Result<T> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = request(id).try_encode()?;
        // Connect before counting the attempt: failing to connect means
        // the request certainly never left, which is a clean error.
        self.conn()?;
        self.stats.attempts += 1;
        Ok(match self.roundtrip(id, &frame) {
            Ok(Response::Error { code, .. }) => {
                self.stats.busy += u64::from(code == ErrorCode::ServerBusy);
                shed
            }
            Ok(resp) => parse(resp).unwrap_or_else(|| {
                self.poison();
                uncertain
            }),
            Err(e) => {
                self.note_failure(&e);
                uncertain
            }
        })
    }

    /// Multi-Get `keys`, retrying across timeouts, connection failures,
    /// garbled responses, and `ServerBusy` shedding.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a batch the protocol cannot carry (over
    /// `u16::MAX` keys, or a key over `u16::MAX` bytes), before anything
    /// is sent. Otherwise the last attempt's error once `1 + max_retries`
    /// attempts are exhausted; every error is a clean typed `io::Error`
    /// (no hangs — each recv is bounded by [`RetryPolicy::recv_timeout`]).
    pub fn mget(&mut self, keys: &[Bytes]) -> io::Result<Vec<Option<Bytes>>> {
        self.retry_verb(
            |id| Request::MGet {
                id,
                keys: keys.to_vec(),
            },
            |resp| match resp {
                Response::MGet { entries, .. } => Some(entries),
                _ => None,
            },
        )
    }

    /// Store `key` = `value`, **without retry** (Set is not idempotent
    /// from the client's viewpoint: a lost response leaves the server
    /// state unknown).
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a key or value too long for the protocol, and
    /// connection-establishment failures; everything after the request may
    /// have reached the server is reported as [`SetOutcome::Uncertain`]
    /// instead of an error.
    pub fn set(&mut self, key: Bytes, value: Bytes) -> io::Result<SetOutcome> {
        self.send_once(
            |id| Request::Set { id, key, value },
            |resp| match resp {
                Response::Set { ok: true, .. } => Some(SetOutcome::Stored),
                Response::Set { ok: false, .. } => Some(SetOutcome::Rejected),
                _ => None,
            },
            SetOutcome::Shed,
            SetOutcome::Uncertain,
        )
    }

    /// Store a batch of pairs, **without retry** — like [`RetryClient::set`]
    /// but batched. SetMulti is even less retryable than Set: a lost
    /// response leaves *every* key's fate unknown, and blindly resending
    /// would re-apply the whole batch. Any ambiguous failure (a status
    /// count that does not match the batch included) therefore reports
    /// [`SetOutcome::Uncertain`] for each key in the batch, and a shed
    /// batch [`SetOutcome::Shed`] for each: the server applied nothing.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a batch the protocol cannot carry, and
    /// connection-establishment failures; anything after the request may
    /// have reached the server is reported per key instead.
    pub fn set_multi(&mut self, pairs: &[(Bytes, Bytes)]) -> io::Result<Vec<SetOutcome>> {
        let n = pairs.len();
        self.send_once(
            |id| Request::SetMulti {
                id,
                pairs: pairs.to_vec(),
            },
            |resp| match resp {
                Response::SetMulti { ok, .. } if ok.len() == n => Some(
                    ok.into_iter()
                        .map(|o| {
                            if o {
                                SetOutcome::Stored
                            } else {
                                SetOutcome::Rejected
                            }
                        })
                        .collect(),
                ),
                _ => None,
            },
            vec![SetOutcome::Shed; n],
            vec![SetOutcome::Uncertain; n],
        )
    }

    /// Delete `key`, retrying like MGet (idempotent). Returns `true` when
    /// this request removed a live item, `false` when none was found —
    /// with the caveat that a retry after a lost response reports `false`
    /// even if the lost first attempt did the deleting.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a key too long for the protocol; otherwise the
    /// last attempt's error once `1 + max_retries` attempts are exhausted.
    pub fn delete(&mut self, key: Bytes) -> io::Result<bool> {
        self.retry_verb(
            |id| Request::Delete {
                id,
                key: key.clone(),
            },
            |resp| match resp {
                Response::Delete {
                    status: OpStatus::Deleted,
                    ..
                } => Some(true),
                Response::Delete {
                    status: OpStatus::NotFound,
                    ..
                } => Some(false),
                _ => None,
            },
        )
    }

    /// Reset `key`'s TTL to `ttl_secs` (0 = never expires), retrying like
    /// MGet (idempotent: repeating the same touch converges). Returns
    /// `true` when a live item was touched, `false` when none was found.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a key too long for the protocol; otherwise the
    /// last attempt's error once `1 + max_retries` attempts are exhausted.
    pub fn touch(&mut self, key: Bytes, ttl_secs: u32) -> io::Result<bool> {
        self.retry_verb(
            |id| Request::Touch {
                id,
                key: key.clone(),
                ttl_secs,
            },
            |resp| match resp {
                Response::Touch {
                    status: OpStatus::Stored,
                    ..
                } => Some(true),
                Response::Touch {
                    status: OpStatus::NotFound,
                    ..
                } => Some(false),
                _ => None,
            },
        )
    }

    /// Compare-and-swap `key` to `value` if its version is still
    /// `expected_version`, **without retry**: a lost response leaves the
    /// swap's fate unknown, and resending could succeed against the very
    /// version the lost attempt installed (a silent double apply).
    /// Ambiguity is reported as [`CasNetOutcome::Uncertain`].
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a key or value too long for the protocol, and
    /// connection-establishment failures.
    pub fn cas(
        &mut self,
        key: Bytes,
        expected_version: u64,
        value: Bytes,
        ttl_secs: u32,
    ) -> io::Result<CasNetOutcome> {
        self.send_once(
            |id| Request::Cas {
                id,
                key,
                expected_version,
                value,
                ttl_secs,
            },
            |resp| match resp {
                Response::Cas {
                    status, version, ..
                } => match status {
                    OpStatus::Stored => Some(CasNetOutcome::Stored(version)),
                    OpStatus::ExistsConflict => Some(CasNetOutcome::Conflict(version)),
                    OpStatus::NotFound => Some(CasNetOutcome::NotFound),
                    OpStatus::Rejected => Some(CasNetOutcome::Rejected),
                    _ => None,
                },
                _ => None,
            },
            CasNetOutcome::Shed,
            CasNetOutcome::Uncertain,
        )
    }

    /// Store `key` = `value` with a TTL, **without retry** (same
    /// non-idempotence as [`RetryClient::set`]). On success the returned
    /// version is the one the store assigned; it is 0 for every other
    /// outcome.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a key or value too long for the protocol, and
    /// connection-establishment failures.
    pub fn set_ex(
        &mut self,
        key: Bytes,
        value: Bytes,
        ttl_secs: u32,
    ) -> io::Result<(SetOutcome, u64)> {
        self.send_once(
            |id| Request::SetEx {
                id,
                key,
                value,
                ttl_secs,
            },
            |resp| match resp {
                Response::SetEx {
                    status: OpStatus::Stored,
                    version,
                    ..
                } => Some((SetOutcome::Stored, version)),
                Response::SetEx {
                    status: OpStatus::Rejected,
                    ..
                } => Some((SetOutcome::Rejected, 0)),
                _ => None,
            },
            (SetOutcome::Shed, 0),
            (SetOutcome::Uncertain, 0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Records requested sleeps instead of sleeping.
    #[derive(Default)]
    struct MockClock {
        sleeps: Mutex<Vec<Duration>>,
    }

    impl Clock for MockClock {
        fn sleep(&self, d: Duration) {
            self.sleeps.lock().unwrap().push(d);
        }
    }

    /// Scripted behavior for one recv on the stub transport.
    #[derive(Copy, Clone, Debug)]
    enum Step {
        /// Answer correctly.
        Ok,
        /// Fail the recv with this error kind.
        Fail(io::ErrorKind),
        /// Answer with `ServerBusy`.
        Busy,
        /// Answer with a mismatched id.
        WrongId,
        /// Answer with undecodable bytes.
        Garbage,
    }

    /// A transport whose connections replay a shared script.
    struct StubTransport {
        script: std::sync::Arc<Mutex<VecDeque<Step>>>,
        connects: AtomicU64,
    }

    impl StubTransport {
        fn new(steps: impl IntoIterator<Item = Step>) -> Self {
            StubTransport {
                script: std::sync::Arc::new(Mutex::new(steps.into_iter().collect())),
                connects: AtomicU64::new(0),
            }
        }
    }

    struct StubConn {
        script: std::sync::Arc<Mutex<VecDeque<Step>>>,
        last_request: Option<Request>,
    }

    impl Transport for StubTransport {
        fn connect(&self) -> io::Result<Box<dyn ClientConn>> {
            self.connects.fetch_add(1, Ordering::Relaxed);
            Ok(Box::new(StubConn {
                script: std::sync::Arc::clone(&self.script),
                last_request: None,
            }))
        }
    }

    impl ClientConn for StubConn {
        fn send(&mut self, frame: Bytes) -> io::Result<()> {
            self.last_request = Some(Request::decode(frame).expect("client sends valid frames"));
            Ok(())
        }

        fn recv(&mut self) -> io::Result<Bytes> {
            let step = self
                .script
                .lock()
                .unwrap()
                .pop_front()
                .expect("script exhausted");
            let request = self.last_request.clone().expect("recv after send");
            let (id, n_keys) = match &request {
                Request::MGet { id, keys } => (*id, keys.len()),
                Request::Set { id, .. }
                | Request::Delete { id, .. }
                | Request::Cas { id, .. }
                | Request::Touch { id, .. }
                | Request::SetEx { id, .. } => (*id, 0),
                Request::SetMulti { id, pairs } | Request::SetMultiEx { id, pairs, .. } => {
                    (*id, pairs.len())
                }
                Request::Shutdown => panic!("client never sends shutdown"),
            };
            let frame = match (step, &request) {
                (Step::Ok, Request::MGet { .. }) => Response::MGet {
                    id,
                    entries: vec![Some(Bytes::from_static(b"v")); n_keys],
                }
                .encode(),
                // Alternating statuses so per-key mapping is observable.
                (Step::Ok, Request::SetMulti { .. } | Request::SetMultiEx { .. }) => {
                    Response::SetMulti {
                        id,
                        ok: (0..n_keys).map(|i| i % 2 == 0).collect(),
                    }
                    .encode()
                }
                (Step::Ok, Request::Delete { .. }) => Response::Delete {
                    id,
                    status: OpStatus::Deleted,
                }
                .encode(),
                (
                    Step::Ok,
                    Request::Cas {
                        expected_version, ..
                    },
                ) => Response::Cas {
                    id,
                    status: OpStatus::Stored,
                    version: expected_version + 1,
                }
                .encode(),
                (Step::Ok, Request::Touch { .. }) => Response::Touch {
                    id,
                    status: OpStatus::Stored,
                }
                .encode(),
                (Step::Ok, Request::SetEx { .. }) => Response::SetEx {
                    id,
                    status: OpStatus::Stored,
                    version: 1,
                }
                .encode(),
                (Step::Ok, _) => Response::Set { id, ok: true }.encode(),
                (Step::Fail(kind), _) => return Err(io::Error::new(kind, "scripted failure")),
                (Step::Busy, _) => Response::Error {
                    id,
                    code: ErrorCode::ServerBusy,
                }
                .encode(),
                (Step::WrongId, _) => Response::Set {
                    id: id + 1000,
                    ok: true,
                }
                .encode(),
                (Step::Garbage, _) => Bytes::from_static(b"not a protocol frame"),
            };
            Ok(frame)
        }
    }

    fn keys() -> Vec<Bytes> {
        vec![Bytes::from_static(b"k1"), Bytes::from_static(b"k2")]
    }

    #[test]
    fn mget_first_try_no_sleep() {
        let transport = StubTransport::new([Step::Ok]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 1, &clock);
        let got = client.mget(&keys()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].as_deref(), Some(&b"v"[..]));
        assert_eq!(client.stats().attempts, 1);
        assert_eq!(client.stats().retries, 0);
        assert!(clock.sleeps.lock().unwrap().is_empty());
    }

    #[test]
    fn mget_retries_through_timeouts_then_succeeds() {
        let transport = StubTransport::new([
            Step::Fail(io::ErrorKind::TimedOut),
            Step::Fail(io::ErrorKind::TimedOut),
            Step::Ok,
        ]);
        let clock = MockClock::default();
        let policy = RetryPolicy {
            max_retries: 3,
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let mut client = RetryClient::with_clock(&transport, policy.clone(), 2, &clock);
        assert!(client.mget(&keys()).is_ok());
        let stats = client.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.timeouts, 2);
        // Each failed attempt poisons the conn: 3 attempts = 3 connects.
        assert_eq!(transport.connects.load(Ordering::Relaxed), 3);
        // Jitter bound: sleep k lies in [envelope_k * (1-jitter), envelope_k].
        let sleeps = clock.sleeps.lock().unwrap();
        assert_eq!(sleeps.len(), 2);
        for (k, d) in sleeps.iter().enumerate() {
            let envelope = policy.envelope(k as u32);
            assert!(
                *d <= envelope && *d >= envelope.mul_f64(1.0 - policy.jitter),
                "sleep {k} = {d:?} outside [{:?}, {envelope:?}]",
                envelope.mul_f64(1.0 - policy.jitter),
            );
        }
    }

    #[test]
    fn mget_attempts_are_bounded() {
        let transport =
            StubTransport::new(std::iter::repeat_n(Step::Fail(io::ErrorKind::TimedOut), 16));
        let clock = MockClock::default();
        let policy = RetryPolicy {
            max_retries: 4,
            ..RetryPolicy::default()
        };
        let mut client = RetryClient::with_clock(&transport, policy, 3, &clock);
        let err = client.mget(&keys()).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ));
        assert_eq!(client.stats().attempts, 5, "1 + max_retries, no more");
        assert_eq!(clock.sleeps.lock().unwrap().len(), 4);
    }

    #[test]
    fn backoff_envelope_is_exponential_and_capped() {
        let transport =
            StubTransport::new(std::iter::repeat_n(Step::Fail(io::ErrorKind::TimedOut), 8));
        let clock = MockClock::default();
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            jitter: 0.0, // deterministic: sleeps equal the envelope exactly
            ..RetryPolicy::default()
        };
        let mut client = RetryClient::with_clock(&transport, policy, 4, &clock);
        let _ = client.mget(&keys());
        let sleeps = clock.sleeps.lock().unwrap();
        let ms: Vec<u64> = sleeps.iter().map(|d| d.as_millis() as u64).collect();
        assert_eq!(ms, vec![10, 20, 40, 40, 40], "doubles then caps at max");
    }

    #[test]
    fn busy_responses_back_off_without_reconnecting() {
        let transport = StubTransport::new([Step::Busy, Step::Busy, Step::Ok]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 5, &clock);
        assert!(client.mget(&keys()).is_ok());
        assert_eq!(client.stats().busy, 2);
        // The connection stayed healthy: exactly one connect.
        assert_eq!(transport.connects.load(Ordering::Relaxed), 1);
        assert_eq!(clock.sleeps.lock().unwrap().len(), 2);
    }

    #[test]
    fn garbled_and_mismatched_responses_poison_the_connection() {
        for bad in [Step::Garbage, Step::WrongId] {
            let transport = StubTransport::new([bad, Step::Ok]);
            let clock = MockClock::default();
            let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 6, &clock);
            assert!(client.mget(&keys()).is_ok(), "{bad:?}");
            assert_eq!(
                transport.connects.load(Ordering::Relaxed),
                2,
                "{bad:?} must force a fresh connection"
            );
        }
    }

    #[test]
    fn input_the_protocol_cannot_carry_is_refused_before_anything_is_sent() {
        let transport = StubTransport::new([]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 15, &clock);
        let long = || Bytes::from(vec![b'k'; 65_556]);
        let v = || Bytes::from_static(b"v");
        let kinds = [
            client.mget(&vec![v(); 65_536]).unwrap_err().kind(),
            client.mget(&[long()]).unwrap_err().kind(),
            client.set(long(), v()).unwrap_err().kind(),
            client
                .set_multi(&vec![(v(), v()); 65_536])
                .unwrap_err()
                .kind(),
            client.delete(long()).unwrap_err().kind(),
            client.touch(long(), 1).unwrap_err().kind(),
            client.cas(long(), 1, v(), 0).unwrap_err().kind(),
            client.set_ex(long(), v(), 1).unwrap_err().kind(),
        ];
        assert_eq!(kinds, [io::ErrorKind::InvalidInput; 8]);
        assert_eq!(client.stats(), &RetryStats::default(), "nothing attempted");
        assert_eq!(transport.connects.load(Ordering::Relaxed), 0);
        assert!(
            clock.sleeps.lock().unwrap().is_empty(),
            "and nothing retried"
        );
    }

    #[test]
    fn set_is_never_retried() {
        let transport = StubTransport::new([Step::Fail(io::ErrorKind::TimedOut), Step::Ok]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 7, &clock);
        let outcome = client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(outcome, SetOutcome::Uncertain, "lost response = uncertain");
        assert_eq!(client.stats().attempts, 1, "exactly one wire attempt");
        assert!(clock.sleeps.lock().unwrap().is_empty(), "no backoff");
        // The remaining Step::Ok proves the script was not consumed twice.
        assert_eq!(transport.script.lock().unwrap().len(), 1);
    }

    fn pairs() -> Vec<(Bytes, Bytes)> {
        vec![
            (Bytes::from_static(b"k1"), Bytes::from_static(b"v1")),
            (Bytes::from_static(b"k2"), Bytes::from_static(b"v2")),
            (Bytes::from_static(b"k3"), Bytes::from_static(b"v3")),
        ]
    }

    #[test]
    fn set_multi_is_never_retried() {
        let transport = StubTransport::new([Step::Fail(io::ErrorKind::TimedOut), Step::Ok]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 9, &clock);
        let outcomes = client.set_multi(&pairs()).unwrap();
        assert_eq!(
            outcomes,
            vec![SetOutcome::Uncertain; 3],
            "lost response = per-key uncertain"
        );
        assert_eq!(client.stats().attempts, 1, "exactly one wire attempt");
        assert!(clock.sleeps.lock().unwrap().is_empty(), "no backoff");
        // The remaining Step::Ok proves the script was not consumed twice.
        assert_eq!(transport.script.lock().unwrap().len(), 1);
    }

    #[test]
    fn set_multi_maps_per_key_statuses() {
        let transport = StubTransport::new([Step::Ok, Step::Busy]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 10, &clock);
        let outcomes = client.set_multi(&pairs()).unwrap();
        assert_eq!(
            outcomes,
            vec![SetOutcome::Stored, SetOutcome::Rejected, SetOutcome::Stored],
            "per-key statuses surface individually"
        );
        let outcomes = client.set_multi(&pairs()).unwrap();
        assert_eq!(
            outcomes,
            vec![SetOutcome::Shed; 3],
            "shed applies to every key"
        );
        assert_eq!(client.stats().busy, 1);
    }

    #[test]
    fn set_multi_garbled_response_is_uncertain_and_poisons() {
        for bad in [Step::Garbage, Step::WrongId] {
            let transport = StubTransport::new([bad]);
            let clock = MockClock::default();
            let mut client =
                RetryClient::with_clock(&transport, RetryPolicy::default(), 11, &clock);
            let outcomes = client.set_multi(&pairs()).unwrap();
            assert_eq!(outcomes, vec![SetOutcome::Uncertain; 3], "{bad:?}");
            assert!(client.conn.is_none(), "{bad:?} must poison the connection");
        }
    }

    #[test]
    fn delete_and_touch_retry_like_mget() {
        let transport = StubTransport::new([
            Step::Fail(io::ErrorKind::TimedOut),
            Step::Ok,
            Step::Busy,
            Step::Ok,
        ]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 12, &clock);
        assert!(client.delete(Bytes::from_static(b"k")).unwrap());
        assert_eq!(client.stats().attempts, 2, "timeout then success");
        assert_eq!(client.stats().retries, 1);
        assert!(client.touch(Bytes::from_static(b"k"), 30).unwrap());
        assert_eq!(client.stats().attempts, 4, "busy then success");
        assert_eq!(client.stats().busy, 1);
    }

    #[test]
    fn cas_is_never_retried() {
        let transport = StubTransport::new([Step::Fail(io::ErrorKind::TimedOut), Step::Ok]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 13, &clock);
        let outcome = client
            .cas(Bytes::from_static(b"k"), 5, Bytes::from_static(b"v"), 0)
            .unwrap();
        assert_eq!(
            outcome,
            CasNetOutcome::Uncertain,
            "lost response = uncertain"
        );
        assert_eq!(client.stats().attempts, 1, "exactly one wire attempt");
        assert!(clock.sleeps.lock().unwrap().is_empty(), "no backoff");
        // The remaining Step::Ok proves the script was not consumed twice.
        assert_eq!(transport.script.lock().unwrap().len(), 1);
        // A clean success carries the installed version.
        let outcome = client
            .cas(Bytes::from_static(b"k"), 5, Bytes::from_static(b"v"), 0)
            .unwrap();
        assert_eq!(outcome, CasNetOutcome::Stored(6));
    }

    #[test]
    fn set_ex_maps_status_and_version() {
        let transport = StubTransport::new([Step::Ok, Step::Busy]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 14, &clock);
        let (outcome, version) = client
            .set_ex(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 60)
            .unwrap();
        assert_eq!((outcome, version), (SetOutcome::Stored, 1));
        let (outcome, version) = client
            .set_ex(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 60)
            .unwrap();
        assert_eq!((outcome, version), (SetOutcome::Shed, 0));
    }

    #[test]
    fn set_outcomes_map_cleanly() {
        let transport = StubTransport::new([Step::Ok, Step::Busy]);
        let clock = MockClock::default();
        let mut client = RetryClient::with_clock(&transport, RetryPolicy::default(), 8, &clock);
        let k = || Bytes::from_static(b"k");
        let v = || Bytes::from_static(b"v");
        assert_eq!(client.set(k(), v()).unwrap(), SetOutcome::Stored);
        assert_eq!(client.set(k(), v()).unwrap(), SetOutcome::Shed);
        assert_eq!(client.stats().busy, 1);
    }
}
