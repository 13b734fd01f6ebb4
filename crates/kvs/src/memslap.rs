//! memslap-style Multi-Get load generator and latency/throughput reporter
//! (the measurement protocol of the paper's §VI-B: memslap with N keys per
//! request, 20 B keys, 32 B values, client threads on a separate "node").
//!
//! [`run_memslap_over`] is the client loop: it drives any [`Transport`]
//! (the simulated fabric or real TCP to a [`crate::kvsd::Kvsd`]) with
//! configurable connection count and pipeline depth, one thread per
//! connection, preloads items over the wire with Sets, and reports purely
//! client-observable numbers ([`ClientReport`]). Beside it:
//!
//! * [`run_memslap`] — the co-located Fig. 11 harness: preloads a store it
//!   owns, spawns a [`Server`] on a fabric, runs the client loop over that
//!   fabric and adds the server-side stats to the client's report.
//! * [`run_memslap_mux`] — the many-small-connections driver: the same
//!   request plans and the same report, but every connection on one event
//!   loop instead of a thread each (TCP only, read-only).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::RetryPolicy;
use crate::fault::{FaultPlan, FaultSpec, FaultyTransport};
use crate::protocol::{ErrorCode, OpStatus, Request, Response};
use crate::server::Server;
use crate::store::{KvStore, PhaseNanos};
use crate::transport::{ClientConn, Fabric, FabricConfig, Transport};
use simdht_workload::KvWorkload;

/// Parameters for one memslap run.
#[derive(Clone, Debug)]
pub struct MemslapConfig {
    /// Concurrent client threads (paper: 26).
    pub clients: usize,
    /// Server worker threads (paper: 26).
    pub server_workers: usize,
    /// Wire model.
    pub fabric: FabricConfig,
    /// Fraction of requests that are Sets instead of Multi-Gets (the
    /// paper's future-work mixed workload, applied at the KVS layer;
    /// 0.0 = the paper's read-only Multi-Get setting).
    pub set_fraction: f64,
}

impl Default for MemslapConfig {
    fn default() -> Self {
        MemslapConfig {
            clients: 2,
            server_workers: 2,
            fabric: FabricConfig::ib_edr(),
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
    /// Client-observed counts and end-to-end latencies (measured + modeled
    /// wire time), Multi-Gets only.
    pub client: ClientReport,
    /// Multi-Get requests the server processed.
    pub requests: u64,
    /// Keys the server looked up.
    pub keys: u64,
    /// Keys the server found.
    pub found: u64,
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

/// Run memslap against a fresh server over `store`, replaying `workload`'s
/// Multi-Get request stream split across client threads.
///
/// Items are pre-loaded directly into the store (untimed), then
/// [`run_memslap_over`] drives the fabric with one blocking
/// request/response connection per client; per-request end-to-end latency
/// = measured request/response time + the modeled wire time of both
/// messages.
pub fn run_memslap(store: KvStore, workload: &KvWorkload, config: &MemslapConfig) -> MemslapReport {
    let store = Arc::new(store);
    for (key, value) in workload.items() {
        store
            .set(key, value)
            .expect("preload fits the store budget");
    }

    let fabric = Fabric::new(config.fabric);
    let server = Server::spawn(Arc::clone(&store), fabric.clone(), config.server_workers);
    let stats = server.stats();
    let client = run_memslap_over(
        &fabric,
        workload,
        &NetMemslapConfig {
            connections: config.clients,
            pipeline_depth: 1,
            set_fraction: config.set_fraction,
            preload: false,
            // The in-process fabric cannot drop a frame: wait for every
            // reply, resend nothing.
            retry: RetryPolicy {
                max_retries: 0,
                recv_timeout: None,
                ..RetryPolicy::default()
            },
            ..NetMemslapConfig::default()
        },
    )
    .expect("only an over-the-wire preload can fail the run, and it is off");
    server.shutdown();

    use std::sync::atomic::Ordering::Relaxed;
    MemslapReport {
        index_name: store.index_name(),
        client,
        requests: stats.requests.load(Relaxed),
        keys: stats.keys.load(Relaxed),
        found: stats.found.load(Relaxed),
        server_keys_per_sec: stats.keys_per_busy_sec(),
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
/// TCP daemon answers each connection in order, but the fabric server's
/// shared worker pool may reorder concurrent requests.
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
    // In-flight window: id -> (plan index, send instant, modeled request
    // wire ns).
    let mut inflight: HashMap<u64, (usize, Instant, u64)> = HashMap::with_capacity(depth);
    let mut conn: Option<Box<dyn ClientConn>> = None;
    let mut consecutive_failures = 0u32;

    // A failed stream may hold partial frames: drop it, requeue in-flight
    // idempotent verbs (Multi-Gets and Deletes; their attempt was already
    // counted at send), and mark in-flight writes and CAS uncertain.
    macro_rules! poison {
        () => {{
            conn = None;
            for (_, (idx, _, _)) in inflight.drain() {
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
                Ok(req_wire) => {
                    inflight.insert(*id, (idx, Instant::now(), req_wire));
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
        let (payload, resp_wire) = match c.recv() {
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
        let Ok(response) = Response::decode(payload) else {
            // Garbled response: the stream cannot be trusted anymore.
            poison!();
            consecutive_failures += 1;
            continue;
        };
        let id = response.id();
        let Some((idx, t0, req_wire)) = inflight.remove(&id) else {
            // A response we never asked for on this stream: protocol
            // violation, resync by reconnecting.
            poison!();
            consecutive_failures += 1;
            continue;
        };
        let (verb, _, _) = plan.requests[idx];
        consecutive_failures = 0;
        let lat = t0.elapsed().as_nanos() as u64 + req_wire + resp_wire;
        match (verb, response) {
            (Verb::MGet, Response::MGet { entries, .. }) => {
                outcome.keys += entries.len() as u64;
                outcome.hits += entries.iter().filter(|e| e.is_some()).count() as u64;
                outcome.latencies_ns.push(lat);
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
/// Works identically over the simulated [`Fabric`] (wire-model latencies
/// added) and over [`crate::net::TcpTransport`] (real measured latencies)
/// against a [`crate::kvsd::Kvsd`] — the loopback case study in
/// `simdht-bench` contrasts the two.
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

/// Parameters for the multiplexed many-small-connections client
/// ([`run_memslap_mux`]).
///
/// Where [`NetMemslapConfig`] spawns one thread per connection (fine for
/// tens), this mode drives *all* connections from one event loop using
/// the same poller as the reactor server — the `--conns 1000 --depth 1`
/// shape that makes cross-connection coalescing measurable without a
/// thousand client threads drowning the machine in context switches.
#[derive(Clone, Debug)]
pub struct MuxMemslapConfig {
    /// Concurrent connections, all driven by one thread.
    pub connections: usize,
    /// Requests each connection keeps in flight (1 = ping-pong).
    pub pipeline_depth: usize,
    /// Preload the workload's items over the wire before the timed run.
    pub preload: bool,
    /// Abandon the run if no response arrives for this long (a dead
    /// server must produce a partial report, not a hang).
    pub stall_timeout: std::time::Duration,
}

impl Default for MuxMemslapConfig {
    fn default() -> Self {
        MuxMemslapConfig {
            connections: 64,
            pipeline_depth: 1,
            preload: true,
            stall_timeout: std::time::Duration::from_secs(10),
        }
    }
}

/// Per-connection state of the multiplexed client.
struct MuxConn {
    stream: std::net::TcpStream,
    decoder: crate::net::FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    /// FIFO of requests on the wire: `(id, t0)`. Both server modes
    /// answer each connection in request order, so responses pair with
    /// the front (the echoed id is verified).
    inflight: VecDeque<(u64, Instant)>,
    /// Next index into this connection's plan.
    next: usize,
    /// Whether the poller currently watches this socket for writability
    /// (only wanted while flushed bytes remain queued).
    write_interest: bool,
    dead: bool,
}

/// Drive `config.connections` nonblocking connections from a single
/// event loop against the TCP server at `addr`, replaying `workload`'s
/// Multi-Get stream split round-robin across connections (read-only:
/// the many-small-connections shape is about lookup coalescing, not
/// mixed writes).
///
/// # Errors
///
/// A workload the protocol cannot carry (`InvalidInput`, before anything
/// is sent), connect failures while opening the connection set, or a
/// preload that could not cover the item set. Mid-run failures degrade to partial
/// results in [`ClientReport::failed`] instead.
///
/// # Panics
///
/// Panics if `config.connections` or `config.pipeline_depth` is zero.
pub fn run_memslap_mux(
    addr: std::net::SocketAddr,
    workload: &KvWorkload,
    config: &MuxMemslapConfig,
) -> io::Result<ClientReport> {
    use crate::reactor::poller::{Interest, Poller};
    use std::io::Read;

    assert!(config.connections >= 1, "need at least one connection");
    assert!(config.pipeline_depth >= 1, "pipeline depth must be >= 1");
    // The threaded client's plans at its default mix: every slot a
    // Multi-Get.
    let plans = build_plans(
        workload,
        &NetMemslapConfig {
            connections: config.connections,
            ..NetMemslapConfig::default()
        },
    )?;
    if config.preload {
        let transport = crate::net::TcpTransport::new(addr)?;
        preload_over_wire(&transport, workload, 32, &RetryPolicy::default())?;
    }

    // Open every connection up front (untimed setup), then switch to
    // nonblocking and register with the poller.
    let mut poller = Poller::new()?;
    let mut conns: Vec<MuxConn> = Vec::with_capacity(config.connections);
    for token in 0..config.connections {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        {
            use std::os::fd::AsRawFd;
            poller.register(stream.as_raw_fd(), token, Interest::READ)?;
        }
        conns.push(MuxConn {
            stream,
            decoder: crate::net::FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            next: 0,
            write_interest: false,
            dead: false,
        });
    }

    let mut total = ConnOutcome::default();
    let mut read_buf = vec![0u8; 64 << 10];
    let mut events = Vec::new();
    let mut open = config.connections;
    let wall_start = Instant::now();
    let mut last_progress = Instant::now();

    // Seed every window before the first wait.
    for (token, conn) in conns.iter_mut().enumerate() {
        if mux_top_up(conn, &plans[token], config.pipeline_depth).is_err() {
            mux_kill(conn, &plans[token], &mut total, &mut open, &mut poller);
        } else {
            mux_sync_interest(conn, token, &mut poller);
        }
    }

    while open > 0 {
        if wall_start.elapsed() > config.stall_timeout
            && last_progress.elapsed() > config.stall_timeout
        {
            for (token, conn) in conns.iter_mut().enumerate() {
                if !conn.dead {
                    mux_kill(conn, &plans[token], &mut total, &mut open, &mut poller);
                }
            }
            break;
        }
        poller.wait(&mut events, Some(std::time::Duration::from_millis(100)))?;
        for ev in &events {
            let conn = &mut conns[ev.token];
            if conn.dead {
                continue;
            }
            let plan = &plans[ev.token];
            if ev.writable && mux_flush(conn).is_err() {
                mux_kill(conn, plan, &mut total, &mut open, &mut poller);
                continue;
            }
            if !(ev.readable || ev.closed) {
                continue;
            }
            // Read what is available, account each complete response.
            let mut failed_conn = false;
            let mut frames: Vec<Bytes> = Vec::new();
            loop {
                match conn.stream.read(&mut read_buf) {
                    Ok(0) => {
                        failed_conn = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.decoder.extend(&read_buf[..n], &mut frames).is_err() {
                            failed_conn = true;
                            break;
                        }
                        if n < read_buf.len() {
                            // Short read: kernel buffer drained; any
                            // remainder re-fires level-triggered
                            // readiness instead of an EAGAIN read here.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed_conn = true;
                        break;
                    }
                }
            }
            for frame in frames {
                let Some((id, t0)) = conn.inflight.pop_front() else {
                    failed_conn = true; // response nobody asked for
                    break;
                };
                match Response::decode(frame) {
                    Ok(Response::MGet { id: got, entries }) if got == id => {
                        total.keys += entries.len() as u64;
                        total.hits += entries.iter().filter(|e| e.is_some()).count() as u64;
                        total.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        last_progress = Instant::now();
                    }
                    Ok(Response::Error { id: got, code }) if got == id => {
                        total.shed += u64::from(matches!(
                            code,
                            ErrorCode::ServerBusy | ErrorCode::DeadlineExceeded
                        ));
                        total.failed += 1; // mux mode does not retry
                        last_progress = Instant::now();
                    }
                    _ => {
                        failed_conn = true;
                        break;
                    }
                }
            }
            if failed_conn {
                mux_kill(conn, plan, &mut total, &mut open, &mut poller);
                continue;
            }
            if mux_top_up(conn, plan, config.pipeline_depth).is_err() {
                mux_kill(conn, plan, &mut total, &mut open, &mut poller);
                continue;
            }
            if conn.inflight.is_empty() && conn.next == plan.requests.len() {
                // Stream complete: close cleanly.
                mux_close(conn, &mut open, &mut poller);
            } else {
                mux_sync_interest(conn, ev.token, &mut poller);
            }
        }
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();

    Ok(total.into_report(config.connections, config.pipeline_depth, wall_secs))
}

/// Queue plan entries into the connection's output until the pipeline
/// window is full or the plan is exhausted, then write what the socket
/// accepts.
fn mux_top_up(conn: &mut MuxConn, plan: &ConnPlan, depth: usize) -> io::Result<()> {
    while conn.inflight.len() < depth && conn.next < plan.requests.len() {
        let (_, id, frame) = &plan.requests[conn.next];
        crate::net::write_frame(&mut conn.out, frame)?;
        conn.inflight.push_back((*id, Instant::now()));
        conn.next += 1;
    }
    mux_flush(conn)
}

/// Toggle write interest to match whether queued bytes remain, with one
/// `modify` syscall only on an actual change.
fn mux_sync_interest(
    conn: &mut MuxConn,
    token: usize,
    poller: &mut crate::reactor::poller::Poller,
) {
    use crate::reactor::poller::Interest;
    use std::os::fd::AsRawFd;
    let want_write = conn.out_pos < conn.out.len();
    if want_write != conn.write_interest {
        let want = if want_write {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if poller.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
            conn.write_interest = want_write;
        }
    }
}

/// Write as much queued output as the socket accepts.
fn mux_flush(conn: &mut MuxConn) -> io::Result<()> {
    use std::io::Write;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    Ok(())
}

/// Abandon a connection mid-run: everything unanswered counts failed.
fn mux_kill(
    conn: &mut MuxConn,
    plan: &ConnPlan,
    total: &mut ConnOutcome,
    open: &mut usize,
    poller: &mut crate::reactor::poller::Poller,
) {
    total.failed += (conn.inflight.len() + (plan.requests.len() - conn.next)) as u64;
    conn.inflight.clear();
    conn.next = plan.requests.len();
    mux_close(conn, open, poller);
}

/// Deregister and mark a finished or failed connection.
fn mux_close(conn: &mut MuxConn, open: &mut usize, poller: &mut crate::reactor::poller::Poller) {
    use std::os::fd::AsRawFd;
    let _ = poller.deregister(conn.stream.as_raw_fd());
    conn.dead = true;
    *open -= 1;
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
        // Every EDR-fabric latency includes >= 2 x 1.5 us of modeled wire
        // time, so the *minimum* is deterministically bounded (means would
        // be noise-dominated on a loaded machine).
        assert!(
            report.client.min_latency_us >= 3.0,
            "wire model missing from latency: {:?}",
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

    fn tcp_store() -> Arc<KvStore> {
        Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(2000)),
            StoreConfig::default(),
        ))
    }

    #[test]
    fn mux_memslap_against_blocking_server() {
        let wl = small_workload();
        let server = crate::kvsd::Kvsd::bind(tcp_store(), "127.0.0.1:0").expect("bind");
        let cfg = MuxMemslapConfig {
            connections: 8,
            pipeline_depth: 2,
            preload: true,
            ..MuxMemslapConfig::default()
        };
        let report = run_memslap_mux(server.local_addr(), &wl, &cfg).expect("mux run");
        server.shutdown();
        assert_eq!(report.requests, 100, "{report:?}");
        assert_eq!(report.keys, 1600);
        assert_eq!(report.hits, 1600, "preloaded workload must fully hit");
        assert_eq!(report.failed, 0);
        assert_eq!(report.connections, 8);
        assert!(report.requests_per_sec > 0.0);
        assert!(report.p99_latency_us >= report.p50_latency_us);
    }

    #[test]
    fn mux_memslap_against_reactor_server() {
        let wl = small_workload();
        let rcfg = crate::reactor::ReactorConfig {
            reactors: 2,
            batch_width: 8,
            ..crate::reactor::ReactorConfig::default()
        };
        let server = crate::reactor::ReactorServer::bind_with(tcp_store(), "127.0.0.1:0", rcfg)
            .expect("bind reactor");
        let cfg = MuxMemslapConfig {
            connections: 16,
            pipeline_depth: 1,
            preload: true,
            ..MuxMemslapConfig::default()
        };
        let report = run_memslap_mux(server.local_addr(), &wl, &cfg).expect("mux run");
        let snaps = server.reactor_snapshots();
        server.shutdown();
        assert_eq!(report.requests, 100, "{report:?}");
        assert_eq!(report.keys, 1600);
        assert_eq!(report.hits, 1600);
        assert_eq!(report.failed, 0);
        let frames: u64 = snaps.iter().map(|s| s.frames).sum();
        assert!(
            frames >= 100,
            "reactor must have decoded the stream: {snaps:?}"
        );
    }

    #[test]
    fn mux_memslap_survives_server_vanishing() {
        // A server that drops dead mid-run must yield a partial report
        // (failed > 0), not a hang or an Err.
        let wl = small_workload();
        let server = crate::kvsd::Kvsd::bind(tcp_store(), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let cfg = MuxMemslapConfig {
            connections: 4,
            pipeline_depth: 1,
            preload: false, // preload separately so it cannot race the shutdown
            stall_timeout: std::time::Duration::from_secs(2),
        };
        let transport = crate::net::TcpTransport::new(addr).expect("connect");
        preload_over_wire(&transport, &wl, 32, &RetryPolicy::default()).expect("preload");
        // Shut the server down concurrently with the run.
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            server.shutdown();
        });
        let report = run_memslap_mux(addr, &wl, &cfg).expect("mux must not error out");
        handle.join().unwrap();
        assert_eq!(
            report.requests + report.failed + report.shed,
            100,
            "every planned request must be accounted for: {report:?}"
        );
    }

    #[test]
    fn net_memslap_over_fabric_transport() {
        let wl = small_workload();
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(1000)),
            StoreConfig::default(),
        ));
        let fabric = Fabric::new(FabricConfig::ib_edr());
        let server = Server::spawn(Arc::clone(&store), fabric.clone(), 2);
        let report = run_memslap_over(
            &fabric,
            &wl,
            &NetMemslapConfig {
                connections: 2,
                pipeline_depth: 4,
                ..NetMemslapConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.requests, 100);
        assert_eq!(report.keys, 1600);
        assert_eq!(report.hits, report.keys, "preloaded keys must all hit");
        assert_eq!(report.misses, 0);
        // The wire model still floors pipelined latencies.
        assert!(report.min_latency_us >= 3.0, "{report:?}");
        assert!(report.p99_latency_us >= report.p50_latency_us);
        assert!(report.keys_per_sec > 0.0);
        server.shutdown();
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
    fn net_memslap_mixed_sets_over_fabric() {
        let wl = small_workload();
        let store = Arc::new(KvStore::new(
            Box::new(SimdIndex::with_capacity(SimdIndexKind::VerticalNway, 1000)),
            StoreConfig::default(),
        ));
        let fabric = Fabric::new(FabricConfig::zero());
        let server = Server::spawn(Arc::clone(&store), fabric.clone(), 2);
        let report = run_memslap_over(
            &fabric,
            &wl,
            &NetMemslapConfig {
                set_fraction: 0.3,
                ..NetMemslapConfig::default()
            },
        )
        .unwrap();
        assert!(report.sets > 10, "{} sets", report.sets);
        assert_eq!(report.requests + report.sets, 100);
        // Sets only replace existing values: every Multi-Get key hits.
        assert_eq!(report.hits, report.keys);
        server.shutdown();
    }

    #[test]
    fn net_memslap_mixed_verbs_conserve_accounting() {
        // Delete/CAS/TTL-write slots must each land in exactly one report
        // bucket; over a faultless zero fabric nothing is uncertain.
        let wl = small_workload();
        let store = Arc::new(KvStore::new(
            Box::new(Memc3Index::with_capacity(2000)),
            StoreConfig::default(),
        ));
        let fabric = Fabric::new(FabricConfig::zero());
        let server = Server::spawn(Arc::clone(&store), fabric.clone(), 2);
        let report = run_memslap_over(
            &fabric,
            &wl,
            &NetMemslapConfig {
                set_fraction: 0.1,
                delete_frac: 0.2,
                cas_frac: 0.2,
                ttl_secs: 3600,
                ..NetMemslapConfig::default()
            },
        )
        .unwrap();
        server.shutdown();
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
