//! memslap-style Multi-Get load generator and latency/throughput reporter
//! (the measurement protocol of the paper's §VI-B: memslap with N keys per
//! request, 20 B keys, 32 B values, client threads on a separate "node").
//!
//! [`run_memslap_over`] is the client loop: it drives any [`Transport`]
//! (TCP to a [`crate::kvsd::Kvsd`], optionally behind the fault layer)
//! with configurable connection count and pipeline depth, one thread per
//! connection, preloads items over the wire with Sets, and reports purely
//! client-observable numbers ([`ClientReport`]). Beside it:
//!
//! * [`run_memslap`] — the co-located Fig. 11 harness: preloads a store it
//!   owns, serves it from a loopback [`Kvsd`], runs the client loop
//!   against it and adds the server's final counters to the client's
//!   report.
//!
//! The paper's clients reach the server over InfiniBand EDR; these reach
//! it over loopback TCP. Every latency reported here is measured. The EDR
//! link survives as a model, [`edr_wire_ns`], reported in its own column
//! ([`ClientReport::edr_round_trip_us`]) and never added to a measurement.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::RetryPolicy;
use crate::fault::{FaultPlan, FaultSpec, FaultyTransport};
use crate::kvsd::Kvsd;
use crate::metrics::Counter;
use crate::net::TcpTransport;
use crate::protocol::{ErrorCode, OpStatus, Request, Response};
use crate::store::{KvStore, PhaseNanos};
use crate::transport::{ClientConn, Transport};
use simdht_workload::KvWorkload;

/// Parameters for one memslap run.
#[derive(Clone, Debug)]
pub struct MemslapConfig {
    /// Concurrent client connections, each with its own client thread and
    /// its own server handler thread (paper: 26 of each).
    pub clients: usize,
    /// Fraction of requests that are Sets instead of Multi-Gets (the
    /// paper's future-work mixed workload, applied at the KVS layer;
    /// 0.0 = the paper's read-only Multi-Get setting).
    pub set_fraction: f64,
}

impl Default for MemslapConfig {
    fn default() -> Self {
        MemslapConfig {
            clients: 2,
            set_fraction: 0.0,
        }
    }
}

/// Results of one co-located memslap run: what the clients observed plus
/// the server-side numbers only the harness that owns the server can read.
#[derive(Clone, Debug)]
pub struct MemslapReport {
    /// Name of the hash index under test.
    pub index_name: &'static str,
    /// Client-observed counts, measured end-to-end latencies and the
    /// modeled EDR round trip, Multi-Gets only.
    pub client: ClientReport,
    /// Multi-Get requests the server processed.
    pub requests: u64,
    /// Keys the server looked up.
    pub keys: u64,
    /// Keys the server found.
    pub found: u64,
    /// Multi-Get store calls the server made: `keys / batches` is the
    /// batch each lookup pass got, Fig. 11's batch size.
    pub batches: u64,
    /// Server-side Get throughput: keys per busy-second across workers.
    pub server_keys_per_sec: f64,
    /// Aggregate server phase breakdown.
    pub phases: PhaseNanos,
    /// Live items per store shard at the end of the run (shard-balance
    /// report; a single entry for the classic unsharded store).
    pub shard_items: Vec<usize>,
}

impl MemslapReport {
    /// Mean server data-access nanoseconds per Multi-Get request.
    pub fn server_ns_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.phases.total() as f64 / self.requests as f64
        }
    }
}

/// One-way time of a `bytes`-byte message on the paper's InfiniBand EDR
/// link, in nanoseconds: 1.5 µs of small-message latency plus
/// serialization at 100 Gb/s. A model of the link this repository replaces
/// with loopback TCP, reported beside measured latency, never added to it.
pub fn edr_wire_ns(bytes: usize) -> u64 {
    const BASE_NS: u64 = 1_500;
    const GBPS: f64 = 100.0;
    BASE_NS + (bytes as f64 * 8.0 / GBPS) as u64
}

/// Run memslap against a fresh loopback [`Kvsd`] over `store`, replaying
/// `workload`'s Multi-Get request stream split across client connections.
///
/// Items are pre-loaded directly into the store (untimed), then
/// [`run_memslap_over`] drives one blocking request/response TCP
/// connection per client, each served by its own handler thread. The
/// server-side numbers come from the counters [`Kvsd::shutdown`] returns
/// after joining every handler.
pub fn run_memslap(store: KvStore, workload: &KvWorkload, config: &MemslapConfig) -> MemslapReport {
    let store = Arc::new(store);
    for (key, value) in workload.items() {
        store
            .set(key, value)
            .expect("preload fits the store budget");
    }

    let kvsd = Kvsd::bind(Arc::clone(&store), "127.0.0.1:0").expect("bind a loopback port");
    let transport = TcpTransport::new(kvsd.local_addr()).expect("resolve the loopback address");
    let client = run_memslap_over(
        &transport,
        workload,
        &NetMemslapConfig {
            connections: config.clients,
            pipeline_depth: 1,
            set_fraction: config.set_fraction,
            preload: false,
            // Loopback to a server with no limits drops no frame: wait
            // for every reply, resend nothing.
            retry: RetryPolicy {
                max_retries: 0,
                recv_timeout: None,
                ..RetryPolicy::default()
            },
            ..NetMemslapConfig::default()
        },
    )
    .expect("only an over-the-wire preload can fail the run, and it is off");
    let stats = kvsd.shutdown();

    MemslapReport {
        index_name: store.index_name(),
        client,
        requests: stats[Counter::Requests],
        keys: stats[Counter::Keys],
        found: stats[Counter::Found],
        batches: stats[Counter::Batches],
        server_keys_per_sec: stats.ratio(Counter::Keys, Counter::BusyNs) * 1e9,
        phases: stats.phases(),
        shard_items: store.shard_lens(),
    }
}

/// Parameters for the networked memslap client ([`run_memslap_over`]).
#[derive(Clone, Debug)]
pub struct NetMemslapConfig {
    /// Concurrent connections, each driven by its own thread.
    pub connections: usize,
    /// Requests kept in flight per connection (1 = strict request/response
    /// ping-pong; larger values pipeline).
    pub pipeline_depth: usize,
    /// Fraction of request slots issued as Sets over sampled items with
    /// fresh values (0.0 = read-only Multi-Get).
    pub set_fraction: f64,
    /// Fraction of request slots issued as **batched** `SetMulti`
    /// requests — each carries `mget_size` key/value pairs (the write
    /// analog of the Multi-Get batch), landing on the server's
    /// SIMD-hashed, prefetch-staged `set_multi` path. Drawn
    /// independently of `set_fraction`; the two write kinds can mix.
    pub write_frac: f64,
    /// Fraction of request slots issued as Deletes of sampled item keys.
    /// Deletes are idempotent and retried like Multi-Gets; deleted keys
    /// make later Multi-Gets miss, so hit rate drops below 100 % when
    /// this is nonzero.
    pub delete_frac: f64,
    /// Fraction of request slots issued as compare-and-swap writes over
    /// sampled items (expected version drawn from {1, 2, 3}, so a mix of
    /// wins and conflicts). CAS is never resent: a lost response counts
    /// in [`ClientReport::cas_uncertain`].
    pub cas_frac: f64,
    /// TTL in coarse store seconds attached to every write this client
    /// issues (Set becomes SetEx, SetMulti becomes SetMultiEx, and CAS
    /// frames carry it). 0 = no expiry, which also keeps every frame
    /// byte-identical to the pre-TTL protocol.
    pub ttl_secs: u32,
    /// Preload the workload's items over the wire with Sets before the
    /// timed run. Disable when the server is already populated.
    pub preload: bool,
    /// Timeout/retry/backoff policy governing each connection's recovery
    /// from timeouts, disconnects, garbled responses, and `ServerBusy`
    /// shedding.
    pub retry: RetryPolicy,
    /// Inject deterministic faults between the client and the transport
    /// (see [`crate::fault`]); `None` = drive the transport directly.
    pub faults: Option<FaultSpec>,
}

impl Default for NetMemslapConfig {
    fn default() -> Self {
        NetMemslapConfig {
            connections: 2,
            pipeline_depth: 8,
            set_fraction: 0.0,
            write_frac: 0.0,
            delete_frac: 0.0,
            cas_frac: 0.0,
            ttl_secs: 0,
            preload: true,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }
}

/// Client-side results of one networked memslap run. Unlike
/// [`MemslapReport`] there are no server-side phase numbers: over a real
/// network the client only sees its own clock and the response bytes.
#[derive(Clone, Debug)]
pub struct ClientReport {
    /// Connections used.
    pub connections: usize,
    /// Pipeline depth per connection.
    pub pipeline_depth: usize,
    /// Multi-Get requests completed.
    pub requests: u64,
    /// Set requests completed (excluding preload).
    pub sets: u64,
    /// Keys requested across Multi-Gets.
    pub keys: u64,
    /// Keys that came back with a value.
    pub hits: u64,
    /// Keys that came back as misses.
    pub misses: u64,
    /// Mean Multi-Get latency in µs (send → response decoded; includes
    /// time queued behind the pipeline window).
    pub mean_latency_us: f64,
    /// Mean modeled EDR round trip of a Multi-Get in µs: [`edr_wire_ns`]
    /// of its request frame plus that of its response frame. A model, in
    /// none of the measured latencies.
    pub edr_round_trip_us: f64,
    /// Minimum observed latency in µs.
    pub min_latency_us: f64,
    /// Median latency in µs.
    pub p50_latency_us: f64,
    /// p95 latency in µs.
    pub p95_latency_us: f64,
    /// p99 latency in µs.
    pub p99_latency_us: f64,
    /// Completed requests (every verb) per wall-clock second.
    pub requests_per_sec: f64,
    /// Multi-Get keys per wall-clock second.
    pub keys_per_sec: f64,
    /// Wall-clock seconds of the timed window.
    pub wall_secs: f64,
    /// Wire attempts beyond each request's first (resends after timeouts,
    /// disconnects, garbled responses, or shedding).
    pub retries: u64,
    /// Recv attempts that timed out.
    pub timeouts: u64,
    /// `ServerBusy`/`DeadlineExceeded` responses received.
    pub shed: u64,
    /// Connections re-established after a failure (excluding each
    /// thread's initial connect).
    pub reconnects: u64,
    /// Requests abandoned after exhausting their retry budget (Multi-Gets
    /// that never completed, plus Sets that failed cleanly).
    pub failed: u64,
    /// Sets whose outcome is unknown (response lost after the request may
    /// have reached the server). Never retried — see
    /// [`crate::client::RetryClient::set`] for why.
    pub sets_uncertain: u64,
    /// Delete requests completed (the key is gone either way: `Deleted`
    /// and `NotFound` both count).
    pub deletes: u64,
    /// Compare-and-swap requests that installed their value.
    pub cas_ok: u64,
    /// Compare-and-swap requests decided against the caller (version
    /// conflict or vanished key).
    pub cas_conflicts: u64,
    /// Compare-and-swap requests whose response was lost. Never retried —
    /// see [`crate::client::RetryClient::cas`] for why.
    pub cas_uncertain: u64,
    /// Mean Delete latency in µs (0 when no deletes ran).
    pub delete_mean_latency_us: f64,
    /// p99 Delete latency in µs.
    pub delete_p99_latency_us: f64,
    /// Mean CAS latency in µs over decided outcomes (0 when none ran).
    pub cas_mean_latency_us: f64,
    /// p99 CAS latency in µs over decided outcomes.
    pub cas_p99_latency_us: f64,
}

/// Mean, minimum and percentiles of one latency series, in µs — the one
/// place the generators turn nanosecond samples into reported numbers.
#[derive(Default)]
struct LatencySummary {
    mean_us: f64,
    min_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

impl LatencySummary {
    /// Summarise nanosecond samples: percentile `p` is the sorted sample
    /// at index `floor((n - 1) * p)`; an empty series is all zeros.
    fn from_ns(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        let Some(&min) = samples.first() else {
            return LatencySummary::default();
        };
        let us = |ns: u64| ns as f64 / 1_000.0;
        let at = |p: f64| us(samples[((samples.len() as f64 - 1.0) * p) as usize]);
        LatencySummary {
            mean_us: samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0,
            min_us: us(min),
            p50_us: at(0.50),
            p95_us: at(0.95),
            p99_us: at(0.99),
        }
    }
}

/// Request kind of one planned slot: decides the retry policy (only
/// idempotent verbs are ever resent) and which latency series the
/// response lands in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Verb {
    /// Multi-Get: idempotent, retried, feeds the headline latency series.
    MGet,
    /// Set / SetEx / SetMulti / SetMultiEx: not idempotent — a lost
    /// response marks the write uncertain instead of resending it.
    Write,
    /// Delete: idempotent (deleting twice deletes once), retried like a
    /// Multi-Get. A retried delete whose first attempt landed reports
    /// `NotFound`, indistinguishable from a genuine miss — both count as
    /// a completed delete here.
    Delete,
    /// Compare-and-swap: never resent — a second attempt could win
    /// against a different version than the caller named.
    Cas,
}

/// Pre-encoded request stream for one connection.
struct ConnPlan {
    /// (verb, expected id, encoded frame).
    requests: Vec<(Verb, u64, Bytes)>,
}

/// What one connection thread measured.
#[derive(Default)]
struct ConnOutcome {
    latencies_ns: Vec<u64>,
    /// Modeled EDR round trips summed over the Multi-Gets answered.
    edr_ns: u64,
    delete_lat_ns: Vec<u64>,
    cas_lat_ns: Vec<u64>,
    sets: u64,
    deletes: u64,
    cas_ok: u64,
    cas_conflicts: u64,
    keys: u64,
    hits: u64,
    retries: u64,
    timeouts: u64,
    shed: u64,
    reconnects: u64,
    failed: u64,
    sets_uncertain: u64,
    cas_uncertain: u64,
}

impl ConnOutcome {
    fn absorb(&mut self, other: &ConnOutcome) {
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.edr_ns += other.edr_ns;
        self.delete_lat_ns.extend_from_slice(&other.delete_lat_ns);
        self.cas_lat_ns.extend_from_slice(&other.cas_lat_ns);
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.cas_ok += other.cas_ok;
        self.cas_conflicts += other.cas_conflicts;
        self.keys += other.keys;
        self.hits += other.hits;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.shed += other.shed;
        self.reconnects += other.reconnects;
        self.failed += other.failed;
        self.sets_uncertain += other.sets_uncertain;
        self.cas_uncertain += other.cas_uncertain;
    }

    /// Turn the run's merged outcome into the client report.
    fn into_report(
        self,
        connections: usize,
        pipeline_depth: usize,
        wall_secs: f64,
    ) -> ClientReport {
        let requests = self.latencies_ns.len() as u64;
        let completed = requests + self.sets + self.deletes + self.cas_ok + self.cas_conflicts;
        let mget = LatencySummary::from_ns(self.latencies_ns);
        let delete = LatencySummary::from_ns(self.delete_lat_ns);
        let cas = LatencySummary::from_ns(self.cas_lat_ns);
        ClientReport {
            connections,
            pipeline_depth,
            requests,
            sets: self.sets,
            keys: self.keys,
            hits: self.hits,
            misses: self.keys - self.hits,
            mean_latency_us: mget.mean_us,
            edr_round_trip_us: self.edr_ns as f64 / requests.max(1) as f64 / 1_000.0,
            min_latency_us: mget.min_us,
            p50_latency_us: mget.p50_us,
            p95_latency_us: mget.p95_us,
            p99_latency_us: mget.p99_us,
            requests_per_sec: completed as f64 / wall_secs.max(1e-9),
            keys_per_sec: self.keys as f64 / wall_secs.max(1e-9),
            wall_secs,
            retries: self.retries,
            timeouts: self.timeouts,
            shed: self.shed,
            reconnects: self.reconnects,
            failed: self.failed,
            sets_uncertain: self.sets_uncertain,
            deletes: self.deletes,
            cas_ok: self.cas_ok,
            cas_conflicts: self.cas_conflicts,
            cas_uncertain: self.cas_uncertain,
            delete_mean_latency_us: delete.mean_us,
            delete_p99_latency_us: delete.p99_us,
            cas_mean_latency_us: cas.mean_us,
            cas_p99_latency_us: cas.p99_us,
        }
    }

    /// One write the server answered: applied, or cleanly refused.
    fn count_write(&mut self, applied: bool) {
        if applied {
            self.sets += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Per-verb uncertainty/abandonment for one in-flight or undeliverable
    /// request: writes and CAS become uncertain (the server may have
    /// applied them), idempotent verbs requeue until their attempt budget
    /// runs out.
    fn account_lost(
        &mut self,
        verb: Verb,
        idx: usize,
        attempts: &[u32],
        max_retries: u32,
        pending: &mut VecDeque<usize>,
    ) {
        match verb {
            Verb::Write => self.sets_uncertain += 1,
            Verb::Cas => self.cas_uncertain += 1,
            Verb::MGet | Verb::Delete => {
                if attempts[idx] > max_retries {
                    self.failed += 1;
                } else {
                    pending.push_back(idx);
                }
            }
        }
    }
}

/// Drive one connection's request stream to completion, keeping up to
/// `depth` requests in flight and **recovering from failures** instead of
/// aborting: timeouts, disconnects, and garbled or shed responses requeue
/// idempotent Multi-Gets (bounded by `policy.max_retries` attempts each)
/// and mark in-flight Sets uncertain (never resent — the server may have
/// applied them). Always returns an outcome; permanently-failed requests
/// are counted, not propagated as errors.
///
/// Responses are paired to requests by echoed id, not arrival order: the
/// server answers each connection in order, but under faults a response
/// can vanish on the wire, and the next one to arrive must still find its
/// request.
fn drive_connection(
    transport: &dyn Transport,
    plan: &ConnPlan,
    depth: usize,
    policy: &RetryPolicy,
    seed: u64,
) -> ConnOutcome {
    let mut outcome = ConnOutcome {
        latencies_ns: Vec::with_capacity(plan.requests.len()),
        ..ConnOutcome::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    // Work queue of plan indices; per-index wire attempts so far.
    let mut pending: VecDeque<usize> = (0..plan.requests.len()).collect();
    let mut attempts: Vec<u32> = vec![0; plan.requests.len()];
    // In-flight window: id -> (plan index, send instant).
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(depth);
    let mut conn: Option<Box<dyn ClientConn>> = None;
    let mut consecutive_failures = 0u32;

    // A failed stream may hold partial frames: drop it, requeue in-flight
    // idempotent verbs (Multi-Gets and Deletes; their attempt was already
    // counted at send), and mark in-flight writes and CAS uncertain.
    macro_rules! poison {
        () => {{
            conn = None;
            for (_, (idx, _)) in inflight.drain() {
                let (verb, _, _) = plan.requests[idx];
                outcome.account_lost(verb, idx, &attempts, policy.max_retries, &mut pending);
            }
        }};
    }

    while !pending.is_empty() || !inflight.is_empty() {
        // (Re)establish the connection, backing off between failures.
        // `max_retries` consecutive unusable connections abandon the rest
        // of the stream (the server is gone, not flaky).
        if conn.is_none() {
            if consecutive_failures > policy.max_retries {
                outcome.failed += pending.len() as u64;
                break;
            }
            if consecutive_failures > 0 {
                outcome.reconnects += 1;
                let jittered = policy.delay(consecutive_failures - 1, &mut rng);
                if !jittered.is_zero() {
                    std::thread::sleep(jittered);
                }
            }
            match transport.connect() {
                Ok(mut c) => {
                    if c.set_recv_timeout(policy.recv_timeout).is_ok() {
                        conn = Some(c);
                    } else {
                        consecutive_failures += 1;
                        continue;
                    }
                }
                Err(_) => {
                    consecutive_failures += 1;
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("just ensured");

        // Fill the pipeline window. A send error poisons the stream.
        let mut send_failed = false;
        while inflight.len() < depth {
            let Some(idx) = pending.pop_front() else {
                break;
            };
            let (_, id, frame) = &plan.requests[idx];
            if attempts[idx] > 0 {
                outcome.retries += 1;
            }
            attempts[idx] += 1;
            match c.send(frame.clone()) {
                Ok(()) => {
                    inflight.insert(*id, (idx, Instant::now()));
                }
                Err(_) => {
                    // The frame may be partially written; requeue this
                    // request along with the rest of the window. CAS is
                    // the exception: its policy is never-resend, even
                    // though a torn frame was almost certainly dropped
                    // by the server's length/CRC framing.
                    let (verb, _, _) = plan.requests[idx];
                    if verb == Verb::Cas {
                        outcome.cas_uncertain += 1;
                    } else if attempts[idx] > policy.max_retries {
                        if verb == Verb::Write {
                            outcome.sets_uncertain += 1;
                        } else {
                            outcome.failed += 1;
                        }
                    } else {
                        pending.push_back(idx);
                    }
                    send_failed = true;
                    break;
                }
            }
        }
        if send_failed {
            poison!();
            consecutive_failures += 1;
            continue;
        }
        if inflight.is_empty() {
            continue;
        }

        // One response (or failure) per loop turn.
        let payload = match c.recv() {
            Ok(r) => r,
            Err(e) => {
                outcome.timeouts += u64::from(matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ));
                poison!();
                consecutive_failures += 1;
                continue;
            }
        };
        let payload_len = payload.len();
        let Ok(response) = Response::decode(payload) else {
            // Garbled response: the stream cannot be trusted anymore.
            poison!();
            consecutive_failures += 1;
            continue;
        };
        let id = response.id();
        let Some((idx, t0)) = inflight.remove(&id) else {
            // A response we never asked for on this stream: protocol
            // violation, resync by reconnecting.
            poison!();
            consecutive_failures += 1;
            continue;
        };
        let (verb, _, ref frame) = plan.requests[idx];
        consecutive_failures = 0;
        let lat = t0.elapsed().as_nanos() as u64;
        match (verb, response) {
            (Verb::MGet, Response::MGet { entries, .. }) => {
                outcome.keys += entries.len() as u64;
                outcome.hits += entries.iter().filter(|e| e.is_some()).count() as u64;
                outcome.latencies_ns.push(lat);
                outcome.edr_ns += edr_wire_ns(frame.len()) + edr_wire_ns(payload_len);
            }
            (Verb::Write, Response::Set { ok, .. }) => outcome.count_write(ok),
            // A batched write counts as applied only when every pair
            // landed (partial success still stores state server-side,
            // but the driver's per-request bookkeeping is all-or-nothing).
            (Verb::Write, Response::SetMulti { ok, .. }) => {
                outcome.count_write(ok.iter().all(|&b| b));
            }
            (Verb::Write, Response::SetEx { status, .. }) => {
                outcome.count_write(status == OpStatus::Stored);
            }
            // Deleted and NotFound both mean "the key is gone now" — a
            // retried delete whose first attempt landed answers NotFound.
            (
                Verb::Delete,
                Response::Delete {
                    status: OpStatus::Deleted | OpStatus::NotFound,
                    ..
                },
            ) => {
                outcome.deletes += 1;
                outcome.delete_lat_ns.push(lat);
            }
            (Verb::Cas, Response::Cas { status, .. }) => match status {
                OpStatus::Stored => {
                    outcome.cas_ok += 1;
                    outcome.cas_lat_ns.push(lat);
                }
                // A losing race or a vanished key is a *decided* outcome,
                // not a failure: the caller's version was simply stale.
                OpStatus::ExistsConflict | OpStatus::NotFound => {
                    outcome.cas_conflicts += 1;
                    outcome.cas_lat_ns.push(lat);
                }
                _ => outcome.failed += 1,
            },
            (_, Response::Error { code, .. }) => {
                // The server shed this request; the connection is fine.
                // Shed requests were explicitly *not* applied, so even the
                // non-idempotent verbs fail cleanly instead of going
                // uncertain — but only idempotent ones go back on the wire.
                outcome.shed += u64::from(matches!(
                    code,
                    ErrorCode::ServerBusy | ErrorCode::DeadlineExceeded
                ));
                let idempotent = matches!(verb, Verb::MGet | Verb::Delete);
                if idempotent && attempts[idx] <= policy.max_retries {
                    // Back off as `RetryClient` does: a shedding server
                    // must not get the resend at once.
                    let backoff = policy.delay(attempts[idx] - 1, &mut rng);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    pending.push_back(idx);
                } else {
                    outcome.failed += 1;
                }
            }
            _ => {
                // Response type contradicts the request type.
                outcome.account_lost(verb, idx, &attempts, policy.max_retries, &mut pending);
                poison!();
                consecutive_failures += 1;
            }
        }
    }
    outcome
}

/// Store every workload item on the server via pipelined Sets, riding the
/// same resilient driver as the timed run.
fn preload_over_wire(
    transport: &dyn Transport,
    workload: &KvWorkload,
    depth: usize,
    policy: &RetryPolicy,
) -> io::Result<ConnOutcome> {
    let requests = workload
        .items()
        .iter()
        .enumerate()
        .map(|(i, (key, value))| {
            let set = Request::Set {
                id: i as u64,
                key: Bytes::copy_from_slice(key),
                value: Bytes::copy_from_slice(value),
            };
            Ok((Verb::Write, i as u64, set.try_encode()?))
        })
        .collect::<io::Result<_>>()?;
    let outcome = drive_connection(
        transport,
        &ConnPlan { requests },
        depth.max(1),
        policy,
        0x9E37_79B9,
    );
    if outcome.sets + outcome.sets_uncertain + outcome.failed < workload.items().len() as u64 {
        return Err(io::Error::other(
            "preload abandoned before covering every item",
        ));
    }
    Ok(outcome)
}

/// Pre-encode each connection's request stream (encode cost is not what
/// we measure): `workload`'s requests dealt round-robin over
/// `config.connections`, each slot a Multi-Get unless a seeded draw turns
/// it into one of the write/delete/CAS kinds at `config`'s fractions.
/// `InvalidInput` when the workload holds a key, value or batch the
/// protocol cannot carry.
fn build_plans(workload: &KvWorkload, config: &NetMemslapConfig) -> io::Result<Vec<ConnPlan>> {
    use rand::Rng;
    let items = workload.items();
    let mut rng = StdRng::seed_from_u64(0x3E7F);
    // A sampled item's key with a fresh printable value of the same length.
    let fresh_pair = |rng: &mut StdRng| -> (Bytes, Bytes) {
        let (key, value) = &items[rng.gen_range(0..items.len())];
        let fresh: Vec<u8> = value.iter().map(|_| rng.gen_range(b' '..=b'~')).collect();
        (Bytes::copy_from_slice(key), Bytes::from(fresh))
    };
    let set_cut = config.set_fraction;
    let multi_cut = set_cut + config.write_frac;
    let delete_cut = multi_cut + config.delete_frac;
    let cas_cut = delete_cut + config.cas_frac;
    let ttl_secs = config.ttl_secs;
    (0..config.connections)
        .map(|c| {
            let requests = (c..workload.requests().len())
                .step_by(config.connections)
                .map(|r| {
                    let id = r as u64;
                    let draw = rng.gen::<f64>();
                    let (verb, request) = if draw < set_cut {
                        let (key, value) = fresh_pair(&mut rng);
                        let request = if ttl_secs > 0 {
                            Request::SetEx {
                                id,
                                key,
                                value,
                                ttl_secs,
                            }
                        } else {
                            Request::Set { id, key, value }
                        };
                        (Verb::Write, request)
                    } else if draw < multi_cut {
                        // A batched write: `mget_size` sampled items with
                        // fresh values in one SetMulti frame.
                        let pairs = (0..workload.requests()[r].len())
                            .map(|_| fresh_pair(&mut rng))
                            .collect();
                        let request = if ttl_secs > 0 {
                            Request::SetMultiEx {
                                id,
                                pairs,
                                ttl_secs,
                            }
                        } else {
                            Request::SetMulti { id, pairs }
                        };
                        (Verb::Write, request)
                    } else if draw < delete_cut {
                        let key = Bytes::copy_from_slice(&items[rng.gen_range(0..items.len())].0);
                        (Verb::Delete, Request::Delete { id, key })
                    } else if draw < cas_cut {
                        let (key, value) = fresh_pair(&mut rng);
                        let request = Request::Cas {
                            id,
                            key,
                            expected_version: rng.gen_range(1..=3),
                            value,
                            ttl_secs,
                        };
                        (Verb::Cas, request)
                    } else {
                        let keys = workload.requests()[r]
                            .iter()
                            .map(|&i| Bytes::copy_from_slice(&items[i].0))
                            .collect();
                        (Verb::MGet, Request::MGet { id, keys })
                    };
                    Ok((verb, id, request.try_encode()?))
                })
                .collect::<io::Result<_>>()?;
            Ok(ConnPlan { requests })
        })
        .collect()
}

/// Run the networked memslap client against a server reachable through
/// `transport`, replaying `workload`'s Multi-Get stream split across
/// `config.connections` pipelined connections.
///
/// Transient failures (timeouts, disconnects, garbled frames, server
/// shedding) are absorbed by each connection's retry loop per
/// `config.retry`; a run against a dying server returns **partial
/// results** — completed requests are reported, abandoned ones show up in
/// [`ClientReport::failed`] — rather than aborting.
///
/// # Errors
///
/// Only total failures: a workload the protocol cannot carry (a key over
/// `u16::MAX` bytes, a batch over `u16::MAX` entries — `InvalidInput`,
/// before anything is sent), a preload that could not cover the item set,
/// or a fault spec that closes every connection before any work completes.
///
/// # Panics
///
/// Panics if `config.connections` or `config.pipeline_depth` is zero.
pub fn run_memslap_over(
    transport: &dyn Transport,
    workload: &KvWorkload,
    config: &NetMemslapConfig,
) -> io::Result<ClientReport> {
    assert!(config.connections >= 1, "need at least one connection");
    assert!(config.pipeline_depth >= 1, "pipeline depth must be >= 1");
    // Splice the fault layer in front of the real transport when asked.
    let fault_plan = config.faults.map(|spec| Arc::new(FaultPlan::new(spec)));
    let faulty = fault_plan
        .as_ref()
        .map(|plan| FaultyTransport::new(transport, Arc::clone(plan)));
    let transport: &dyn Transport = match &faulty {
        Some(f) => f,
        None => transport,
    };
    // Before the preload: an unencodable workload is refused with nothing
    // sent.
    let plans = build_plans(workload, config)?;
    let mut total = if config.preload {
        preload_over_wire(transport, workload, config.pipeline_depth, &config.retry)?
    } else {
        ConnOutcome::default()
    };

    let wall_start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                let retry = &config.retry;
                s.spawn(move || {
                    drive_connection(transport, plan, config.pipeline_depth, retry, c as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_secs = wall_start.elapsed().as_secs_f64();

    // Preload sets are setup, not workload: fold its resilience counters
    // in but keep its Sets out of the report's `sets`.
    total.sets = 0;
    for o in &outcomes {
        total.absorb(o);
    }
    Ok(total.into_report(config.connections, config.pipeline_depth, wall_secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Memc3Index, SimdIndex, SimdIndexKind};
    use crate::store::StoreConfig;
    use simdht_workload::KvWorkloadSpec;

    fn small_workload() -> KvWorkload {
        KvWorkload::generate(&KvWorkloadSpec {
            n_items: 500,
            n_requests: 100,
            mget_size: 16,
            ..KvWorkloadSpec::default()
        })
    }

    #[test]
    fn memslap_memc3_end_to_end() {
        let wl = small_workload();
        let cfg = MemslapConfig::default();
        let store = KvStore::new(
            Box::new(Memc3Index::with_capacity(1000)),
            StoreConfig::default(),
        );
        let report = run_memslap(store, &wl, &cfg);
        assert_eq!(report.requests, 100);
        assert_eq!(report.keys, 1600);
        // All requested keys exist (hit rate 100 % in this workload).
        assert_eq!(report.found, 1600, "{report:?}");
        // Every modeled EDR round trip includes 2 x 1.5 us of base
        // latency, and none of it is in the measured latencies.
        assert!(
            report.client.edr_round_trip_us >= 3.0,
            "EDR model missing: {:?}",
            report.client
        );
        assert!(report.client.p99_latency_us >= report.client.p50_latency_us);
        assert!(report.server_keys_per_sec > 0.0);
        assert!(report.phases.total() > 0);
        // The clients saw exactly what the server counted.
        let c = &report.client;
        assert_eq!((c.requests, c.keys, c.hits), (100, 1600, 1600), "{c:?}");
    }

    #[test]
    fn fig11_batch_is_the_workload_mget_width() {
        // One request in flight per client: the server never serves two
        // Multi-Gets with one store call, so each lookup pass gets exactly
        // the workload's batch, at every batch size the figure sweeps.
        for mget_size in [16, 64] {
            let wl = KvWorkload::generate(&KvWorkloadSpec {
                n_items: 500,
                n_requests: 100,
                mget_size,
                ..KvWorkloadSpec::default()
            });
            let cfg = MemslapConfig {
                clients: 4,
                ..MemslapConfig::default()
            };
            let store = KvStore::new(
                Box::new(Memc3Index::with_capacity(1000)),
                StoreConfig::default(),
            );
            let report = run_memslap(store, &wl, &cfg);
            assert_eq!(report.batches, report.requests, "{report:?}");
            assert_eq!(report.keys, report.batches * mget_size as u64, "{report:?}");
        }
    }

    #[test]
    fn memslap_reports_shard_balance() {
        let wl = small_workload();
        let cfg = MemslapConfig::default();
        let sharded = StoreConfig {
            shards: 4,
            ..StoreConfig::default()
        };
        let store = KvStore::with_shards(sharded, |cap| {
            crate::index::by_short_name("hor", cap).expect("known index")
        });
        let report = run_memslap(store, &wl, &cfg);
        assert_eq!(report.shard_items.len(), 4);
        assert_eq!(
            report.shard_items.iter().sum::<usize>(),
            500,
            "per-shard balance must conserve the item count: {:?}",
            report.shard_items
        );
        assert_eq!(report.found, report.keys, "sharding must not lose keys");
    }

    #[test]
    fn mixed_set_fraction_keeps_store_consistent() {
        let wl = small_workload();
        for kind in [SimdIndexKind::HorizontalBcht, SimdIndexKind::VerticalNway] {
            let cfg = MemslapConfig {
                set_fraction: 0.3,
                ..MemslapConfig::default()
            };
            let store = KvStore::new(
                Box::new(SimdIndex::with_capacity(kind, 1000)),
                StoreConfig::default(),
            );
            let report = run_memslap(store, &wl, &cfg);
            assert!(report.client.sets > 10, "{kind:?}: {:?}", report.client);
            assert_eq!(report.requests + report.client.sets, 100, "{kind:?}");
            // Sets only replace values of existing keys: every Multi-Get
            // key must still be found.
            assert_eq!(report.found, report.keys, "{kind:?}");
        }
    }

    #[test]
    fn memslap_simd_indexes_find_everything() {
        let wl = small_workload();
        for kind in [SimdIndexKind::HorizontalBcht, SimdIndexKind::VerticalNway] {
            let cfg = MemslapConfig::default();
            let store = KvStore::new(
                Box::new(SimdIndex::with_capacity(kind, 1000)),
                StoreConfig::default(),
            );
            let report = run_memslap(store, &wl, &cfg);
            assert_eq!(report.found, report.keys, "{kind:?}");
        }
    }

    /// Run the networked client against a fresh loopback [`Kvsd`] over
    /// `store`, shutting the server down afterwards.
    fn over_loopback(
        store: &Arc<KvStore>,
        wl: &KvWorkload,
        config: &NetMemslapConfig,
    ) -> ClientReport {
        let kvsd = Kvsd::bind(Arc::clone(store), "127.0.0.1:0").expect("bind");
        let transport = TcpTransport::new(kvsd.local_addr()).expect("resolve");
        let report = run_memslap_over(&transport, wl, config).unwrap();
        kvsd.shutdown();
        report
    }

    #[test]
    fn wire_model_edr_numbers() {
        // Small message: dominated by base latency.
        assert_eq!(edr_wire_ns(0), 1_500);
        // 100 Gb/s = 12.5 GB/s: 12_500 B take ~1 us on the wire.
        let t = edr_wire_ns(12_500);
        assert!((2_400..2_600).contains(&t), "{t}");
    }

    fn tcp_store() -> Arc<KvStore> {
        Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(2000)),
            StoreConfig::default(),
        ))
    }

    #[test]
    fn shed_requests_are_resent_only_after_the_policy_backoff() {
        // Every request is shed. Each resend waits its backoff (20 ms,
        // then 40 ms) instead of hitting the shedding server at once.
        let config = crate::kvsd::KvsdConfig {
            max_inflight: Some(0),
            ..crate::kvsd::KvsdConfig::default()
        };
        let server = Kvsd::bind_with(tcp_store(), "127.0.0.1:0", config).expect("bind");
        let wl = KvWorkload::generate(&KvWorkloadSpec {
            n_items: 10,
            n_requests: 2,
            mget_size: 4,
            ..KvWorkloadSpec::default()
        });
        let transport = TcpTransport::new(server.local_addr()).expect("resolve");
        let cfg = NetMemslapConfig {
            connections: 1,
            pipeline_depth: 1,
            preload: false,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: std::time::Duration::from_millis(20),
                jitter: 0.0,
                ..RetryPolicy::default()
            },
            ..NetMemslapConfig::default()
        };
        let report = run_memslap_over(&transport, &wl, &cfg).expect("run");
        server.shutdown();
        assert_eq!(report.failed, 2, "{report:?}");
        assert_eq!(report.shed, 6, "three attempts per request: {report:?}");
        assert!(
            report.wall_secs >= 0.12,
            "two requests x (20 + 40) ms of backoff: {report:?}"
        );
    }

    #[test]
    fn net_memslap_over_loopback_kvsd() {
        let wl = small_workload();
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(1000)),
            StoreConfig::default(),
        ));
        let report = over_loopback(
            &store,
            &wl,
            &NetMemslapConfig {
                connections: 2,
                pipeline_depth: 4,
                ..NetMemslapConfig::default()
            },
        );
        assert_eq!(report.requests, 100);
        assert_eq!(report.keys, 1600);
        assert_eq!(report.hits, report.keys, "preloaded keys must all hit");
        assert_eq!(report.misses, 0);
        // The EDR model floors the modeled round trip of pipelined runs too.
        assert!(report.edr_round_trip_us >= 3.0, "{report:?}");
        assert!(report.p99_latency_us >= report.p50_latency_us);
        assert!(report.keys_per_sec > 0.0);
        assert_eq!(store.len(), 500, "preload stored every item");
    }

    #[test]
    fn workloads_the_protocol_cannot_carry_are_refused_before_anything_is_sent() {
        /// Any use of the transport fails the test.
        struct Untouched;
        impl Transport for Untouched {
            fn connect(&self) -> io::Result<Box<dyn crate::transport::ClientConn>> {
                panic!("an unencodable workload must be refused up front");
            }
        }
        let tiny = KvWorkloadSpec {
            n_items: 4,
            n_requests: 2,
            mget_size: 2,
            ..KvWorkloadSpec::default()
        };
        let long_keys = KvWorkloadSpec {
            key_bytes: 65_556,
            ..tiny.clone()
        };
        let wide_batches = KvWorkloadSpec {
            mget_size: 65_536,
            ..tiny
        };
        for spec in [long_keys, wide_batches] {
            let wl = KvWorkload::generate(&spec);
            for preload in [true, false] {
                let config = NetMemslapConfig {
                    preload,
                    ..NetMemslapConfig::default()
                };
                let err = run_memslap_over(&Untouched, &wl, &config).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{spec:?}");
            }
        }
    }

    #[test]
    fn net_memslap_mixed_sets_over_loopback() {
        let wl = small_workload();
        let store = Arc::new(KvStore::new(
            Box::new(SimdIndex::with_capacity(SimdIndexKind::VerticalNway, 1000)),
            StoreConfig::default(),
        ));
        let report = over_loopback(
            &store,
            &wl,
            &NetMemslapConfig {
                set_fraction: 0.3,
                ..NetMemslapConfig::default()
            },
        );
        assert!(report.sets > 10, "{} sets", report.sets);
        assert_eq!(report.requests + report.sets, 100);
        // Sets only replace existing values: every Multi-Get key hits.
        assert_eq!(report.hits, report.keys);
    }

    #[test]
    fn net_memslap_mixed_verbs_conserve_accounting() {
        // Delete/CAS/TTL-write slots must each land in exactly one report
        // bucket; over a faultless loopback nothing is uncertain.
        let wl = small_workload();
        let report = over_loopback(
            &tcp_store(),
            &wl,
            &NetMemslapConfig {
                set_fraction: 0.1,
                delete_frac: 0.2,
                cas_frac: 0.2,
                ttl_secs: 3600,
                ..NetMemslapConfig::default()
            },
        );
        assert!(report.deletes > 5, "{report:?}");
        assert!(report.cas_ok + report.cas_conflicts > 5, "{report:?}");
        // CAS against freshly-preloaded items (version 1) with expected
        // versions drawn from {1,2,3}: both outcomes must occur.
        assert!(report.cas_ok > 0, "{report:?}");
        assert!(report.cas_conflicts > 0, "{report:?}");
        assert_eq!(
            report.requests + report.sets + report.deletes + report.cas_ok + report.cas_conflicts,
            100,
            "every plan slot lands in exactly one bucket: {report:?}"
        );
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(
            report.sets_uncertain + report.cas_uncertain,
            0,
            "{report:?}"
        );
        // Deletes remove keys, so later Multi-Gets may miss.
        assert!(report.hits <= report.keys);
        if report.deletes > 0 {
            assert!(report.delete_p99_latency_us >= report.delete_mean_latency_us / 2.0);
        }
    }

    #[test]
    fn latency_summary_keeps_the_floor_index_rule() {
        // (mean, min, p50, p95, p99) in us. Percentile p is the sorted
        // sample at floor((n - 1) * p) — the rule every report used before
        // it had one home — and an empty series reports zeros, not NaN.
        let summary = |ns: Vec<u64>| {
            let l = LatencySummary::from_ns(ns);
            (l.mean_us, l.min_us, l.p50_us, l.p95_us, l.p99_us)
        };
        assert_eq!(summary(Vec::new()), (0.0, 0.0, 0.0, 0.0, 0.0));
        assert_eq!(summary(vec![7_000]), (7.0, 7.0, 7.0, 7.0, 7.0));
        // Two samples: every index floors to 0, the minimum.
        assert_eq!(summary(vec![3_000, 1_000]), (2.0, 1.0, 1.0, 1.0, 1.0));
        // 0..=100 us, fed in descending order.
        let descending = (0..=100u64).rev().map(|us| us * 1_000).collect();
        assert_eq!(summary(descending), (50.0, 0.0, 50.0, 95.0, 99.0));
    }
}
