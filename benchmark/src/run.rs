//! One run of one workload: untimed set-up (spawn or build, preload,
//! connect) → warm-up → timed windows → untimed read-back, and for a traced
//! run the replay and the layer sweeps. Produces the contract's result line
//! and the self-describing record written beside it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::check::Checker;
use crate::daemon::Daemon;
use crate::gen::{digest_ids, Digest, KeyTable, Preload, Ring};
use crate::json::Json;
use crate::procfs::{self, ProcSample};
use crate::spec::{Kind, Spec};
use crate::timed::{ratio, Metric, Timed};
use crate::trace::{Name, Tracer};
use crate::wire::{self, Phases};
use crate::{host, instore, replay, sweep};

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Entries in the traced run's index sweep: the in-process workload's 2 M.
const SWEEP_ENTRIES: usize = 2_000_000;

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sabotage: bool,
    pub kvsd: PathBuf,
    pub out_dir: PathBuf,
}

/// How a run is cut into phases. The timed part is cut into 1-second
/// windows — short, so that a noisy-neighbour spell spoils few of them, yet
/// each still holding tens of thousands
/// of requests, and many, so that the quiet-decile window (what a run
/// reports) is not the luckiest one. Untraced runs time `seconds` of them
/// and set up five times (reporting the median set-up); traced runs time
/// half as many and set up once; smoke runs time two.
struct Plan {
    phases: Phases,
    setups: usize,
}

impl Plan {
    fn of(opts: &Opts) -> Plan {
        let windows = opts.seconds.round().max(1.0) as usize;
        let window = Duration::from_secs_f64(opts.seconds / windows as f64);
        let (warmup, windows, setups) = if opts.smoke {
            (Duration::from_millis(300), 2, 1)
        } else if opts.trace {
            (Duration::from_secs(2), windows.div_ceil(2), 1)
        } else {
            (Duration::from_secs(3), windows, 5)
        };
        Plan {
            phases: Phases {
                warmup,
                window,
                windows,
                stall: wire::STALL_GUARD,
            },
            setups,
        }
    }
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The full record: the contract's four keys plus identity and detail.
    pub record: Json,
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = Json::obj([
                                ("value", Json::from(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Everything a workload-specific run hands to the shared tail.
struct Measured {
    timed: Timed,
    setups_s: Vec<f64>,
    hwm_kib: u64,
    wrong_readback: u64,
    per_layer: Vec<Metric>,
    digest: String,
    daemon: Json,
    warnings: Vec<String>,
    trace_file: Option<Json>,
}

fn layer(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric::single(name, unit, value)
}

/// CPU and scheduling of the process hosting the store, per request, over
/// the timed windows.
fn host_process_metrics(timed: &Timed, lib_us_per_req: f64) -> Vec<Metric> {
    let reqs = timed.total(|w| w.reqs) as f64;
    let (first, last) = match (timed.server.first(), timed.server.last()) {
        (Some(a), Some(b)) => (*a, *b),
        _ => (ProcSample::default(), ProcSample::default()),
    };
    let user = ratio((last.user_s - first.user_s) * 1e6, reqs);
    let sys = ratio((last.sys_s - first.sys_s) * 1e6, reqs);
    vec![
        layer("kvsd.user_us_per_req", "us", user),
        layer("kvsd.sys_us_per_req", "us", sys),
        layer(
            "kvsd.ctxsw_per_req",
            "count",
            ratio(last.ctxsw.saturating_sub(first.ctxsw) as f64, reqs),
        ),
        layer("kvsd.threads", "count", last.threads as f64),
        layer("kvsd.loop_us_per_req", "us", user + sys - lib_us_per_req),
        layer("ledger.lib_us_per_req", "us", lib_us_per_req),
        layer("ledger.covered_frac", "ratio", ratio(lib_us_per_req, user)),
    ]
}

/// The benchmark process's CPU share of wall time over the timed windows.
fn own_cpu_frac(timed: &Timed) -> f64 {
    match (timed.own.first(), timed.own.last()) {
        (Some(a), Some(b)) => ratio(
            b.cpu_s() - a.cpu_s(),
            timed.window_s * timed.windows.len() as f64,
        ),
        _ => 0.0,
    }
}

/// The `index` and `core` layers, timed stand-alone (traced runs only).
fn sweep_metrics(seed: u64, smoke: bool, wrong: &mut u64) -> Result<Vec<Metric>, String> {
    let entries = if smoke { 50_000 } else { SWEEP_ENTRIES };
    let idx = sweep::index_sweep(seed, entries);
    *wrong += idx.wrong;
    let mut out = vec![layer("index.hash_ns_per_key", "ns", idx.hash_ns_per_key)];
    for (i, name) in sweep::BACKENDS.iter().enumerate() {
        out.push(layer(
            &format!("index.lookup_ns_per_key.{name}"),
            "ns",
            idx.lookup_ns_per_key[i],
        ));
        out.push(layer(
            &format!("index.insert_ns_per_key.{name}"),
            "ns",
            idx.insert_ns_per_key[i],
        ));
    }
    let core = sweep::core_kernels(seed, smoke)?;
    out.push(layer("core.scalar_mlps", "M/s", core.scalar_mlps));
    out.push(layer("core.hor_mlps", "M/s", core.hor_mlps));
    out.push(layer("core.ver_mlps", "M/s", core.ver_mlps));
    Ok(out)
}

fn store_counter_metrics(c: instore::StoreCounters) -> Vec<Metric> {
    let per = |name: &str, num: u64, den: u64| layer(name, "ratio", ratio(num as f64, den as f64));
    vec![
        per("store.evictions_per_set", c.evictions, c.sets),
        per("store.hit_frac", c.mget_hits, c.mget_keys),
        per(
            "store.optimistic_retry_frac",
            c.optimistic_retries,
            c.optimistic_attempts,
        ),
        per(
            "store.optimistic_fallback_frac",
            c.optimistic_fallbacks,
            c.optimistic_attempts + c.optimistic_fallbacks,
        ),
    ]
}

fn run_wire(spec: &Spec, opts: &Opts, plan: &Plan, cpu: usize) -> Result<Measured, String> {
    let mut ring = Ring::generate(spec, opts.seed);
    let preload = Preload::generate(spec, opts.seed);
    let mut digest = ring.digest;
    digest.update(preload.digest.hex().as_bytes());
    if opts.sabotage {
        ring.sabotage(spec.deterministic_hits());
    }
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");

    // Set-up, `plan.setups` times; the last daemon is the one measured.
    let mut setups_s = Vec::new();
    let mut live = None;
    let mut bytes_per_item = 0.0;
    for _ in 0..plan.setups {
        drop(live.take());
        let t = Instant::now();
        let mut daemon = Daemon::spawn(&opts.kvsd, spec).map_err(|e| io("spawn", e))?;
        let before = procfs::sample(Some(daemon.pid())).map_err(|e| io("procfs", e))?;
        wire::preload(daemon.addr, &preload)
            .map_err(|e| format!("preload: {e} ({})", daemon.exit_status()))?;
        let streams = wire::connect_all(daemon.addr, spec.conns).map_err(|e| io("connect", e))?;
        setups_s.push(t.elapsed().as_secs_f64());
        let after = procfs::sample(Some(daemon.pid())).map_err(|e| io("procfs", e))?;
        bytes_per_item = ratio(
            after.rss_kib.saturating_sub(before.rss_kib) as f64 * 1024.0,
            spec.items as f64,
        );
        live = Some((daemon, streams));
    }
    let (mut daemon, streams) = live.expect("at least one set-up");

    let mut checker = Checker::new(spec, opts.seed);
    let mut tracer = opts.trace.then(Tracer::new);
    let outcome = wire::closed_loop(
        streams,
        &ring,
        &mut checker,
        spec,
        plan.phases,
        daemon.pid(),
        tracer.as_mut(),
    )
    .map_err(|e| format!("closed loop: {e} ({})", daemon.exit_status()))?;
    let mut warnings = Vec::new();
    if outcome.stalled {
        warnings.push(format!(
            "server silent for {}s: requests in flight counted as failed ({})",
            wire::STALL_GUARD.as_secs(),
            daemon.exit_status()
        ));
    }
    let wrong_readback = if outcome.stalled {
        0
    } else {
        wire::read_back(
            daemon.addr,
            spec,
            &ring,
            &mut checker,
            &outcome.recent_writes,
        )
        .map_err(|e| format!("read-back: {e} ({})", daemon.exit_status()))?
    };
    let hwm_kib = procfs::sample(Some(daemon.pid()))
        .map_err(|e| io("procfs", e))?
        .hwm_kib;
    let daemon_json = Json::obj([
        (
            "argv",
            Json::Arr(daemon.argv.iter().map(Json::str).collect()),
        ),
        ("startup_line", Json::str(daemon.startup_line.clone())),
        ("pinned_to_cpu", Json::from(cpu)),
    ]);
    // The replay must not share the CPUs with an idle-spinning daemon, and
    // no daemon may outlive the measurement: stop it now.
    drop(daemon);

    let timed = outcome.timed;
    let cpu_frac = own_cpu_frac(&timed);
    if cpu_frac >= 0.9 {
        warnings.push(format!(
            "generator used {cpu_frac:.2} of a CPU: the run measured the generator"
        ));
    }
    let mut measured = Measured {
        timed,
        setups_s,
        hwm_kib,
        wrong_readback,
        per_layer: Vec::new(),
        digest: digest.hex(),
        daemon: daemon_json,
        warnings,
        trace_file: None,
    };
    let Some(mut tracer) = tracer else {
        return Ok(measured);
    };

    // Traced run: replay the ring in-process, layer by layer.
    let store = instore::build_store(spec);
    let in_set = instore::preload_store(&store, spec, opts.seed)?;
    let replayed = ring.slots.len().max(replay::MIN_REPLAY_REQUESTS);
    let rp = replay::replay(&store, spec, opts.seed, &ring, replayed)?;
    measured.wrong_readback += rp.wrong;
    let tr = &rp.tracer;
    let reqs = rp.reqs as f64;
    let per_req = |n: Name| ratio(tr.total(n).ns as f64, tr.total(n).count as f64);
    let lib_ns: u64 = [
        Name::FrameDecode,
        Name::DecodeReq,
        Name::StoreMget,
        Name::StoreSetMulti,
        Name::SealFrame,
        Name::EncodeResp,
        Name::WriteFrame,
    ]
    .iter()
    .map(|&n| tr.total(n).ns)
    .sum();
    let timed = &measured.timed;
    let keys = timed.total(|w| w.keys()) as f64;
    let mget = tr.total(Name::StoreMget);
    let keys_read = rp.keys_read as f64;
    let client = outcome.client;
    let mut m = host_process_metrics(timed, ratio(lib_ns as f64 / 1e3, reqs));
    m.extend([
        layer(
            "net.req_bytes_per_key",
            "B",
            ratio(timed.total(|w| w.bytes_out) as f64, keys),
        ),
        layer(
            "net.resp_bytes_per_key",
            "B",
            ratio(timed.total(|w| w.bytes_in) as f64, keys),
        ),
        layer(
            "net.frame_decode_ns_per_req",
            "ns",
            per_req(Name::FrameDecode),
        ),
        layer(
            "net.write_frame_ns_per_req",
            "ns",
            per_req(Name::WriteFrame),
        ),
        layer(
            "protocol.decode_req_ns_per_req",
            "ns",
            per_req(Name::DecodeReq),
        ),
        layer(
            "protocol.encode_resp_ns_per_req",
            "ns",
            per_req(Name::EncodeResp),
        ),
        layer(
            "protocol.decode_resp_ns_per_req",
            "ns",
            per_req(Name::DecodeResp),
        ),
        layer(
            "protocol.crc32_ns_per_byte",
            "ns",
            ratio(rp.crc_ns as f64, rp.crc_bytes as f64),
        ),
        layer(
            "store.mget_ns_per_key",
            "ns",
            ratio(mget.ns as f64, keys_read),
        ),
        layer(
            "store.pre_ns_per_key",
            "ns",
            ratio(tr.total(Name::StorePre).ns as f64, keys_read),
        ),
        layer(
            "store.lookup_ns_per_key",
            "ns",
            ratio(tr.total(Name::StoreLookup).ns as f64, keys_read),
        ),
        layer(
            "store.post_ns_per_key",
            "ns",
            ratio(tr.total(Name::StorePost).ns as f64, keys_read),
        ),
        layer(
            "store.mget_self_ns_per_key",
            "ns",
            ratio(mget.self_ns() as f64, keys_read),
        ),
        layer(
            "store.set_multi_ns_per_key",
            "ns",
            ratio(
                tr.total(Name::StoreSetMulti).ns as f64,
                rp.pairs_written as f64,
            ),
        ),
        layer(
            "store.set_ns_per_key",
            "ns",
            ratio(in_set.as_nanos() as f64, spec.items as f64),
        ),
        layer("store.seal_ns_per_req", "ns", per_req(Name::SealFrame)),
        layer("store.bytes_per_item", "B", bytes_per_item),
        layer(
            "client.write_us_per_req",
            "us",
            ratio(client.write_ns as f64 / 1e3, client.reqs as f64),
        ),
        layer(
            "client.wait_frac",
            "ratio",
            ratio(client.wait_ns as f64, client.wall_ns as f64),
        ),
        layer(
            "client.decode_us_per_req",
            "us",
            ratio(client.decode_ns as f64 / 1e3, client.reqs as f64),
        ),
        layer("client.cpu_frac", "ratio", cpu_frac),
        layer("trace.overhead_frac", "ratio", rp.overhead_frac()),
    ]);
    m.extend(store_counter_metrics(rp.stats));
    drop(store);
    m.extend(sweep_metrics(
        opts.seed,
        opts.smoke,
        &mut measured.wrong_readback,
    )?);
    tracer.merge(rp.tracer);
    measured.trace_file = Some(tracer.to_json(spec.name));
    measured.per_layer = m;
    Ok(measured)
}

fn run_store(spec: &Spec, opts: &Opts, plan: &Plan, cpu: usize) -> Result<Measured, String> {
    let keys = KeyTable::generate(spec);
    let streams = instore::streams(spec, opts.seed);
    let mut digest = Digest::new();
    for ids in &streams {
        digest_ids(ids, &mut digest);
    }
    let io = |e: std::io::Error| format!("procfs: {e}");

    let mut setups_s = Vec::new();
    let mut live = None;
    let mut bytes_per_item = 0.0;
    let mut set_ns_per_key = 0.0;
    for _ in 0..plan.setups {
        drop(live.take());
        let before = procfs::sample(None).map_err(io)?;
        let t = Instant::now();
        let store = instore::build_store(spec);
        let in_set = instore::preload_store(&store, spec, opts.seed)?;
        setups_s.push(t.elapsed().as_secs_f64());
        let after = procfs::sample(None).map_err(io)?;
        bytes_per_item = ratio(
            after.rss_kib.saturating_sub(before.rss_kib) as f64 * 1024.0,
            spec.items as f64,
        );
        set_ns_per_key = ratio(in_set.as_nanos() as f64, spec.items as f64);
        live = Some(store);
    }
    let store = live.expect("at least one set-up");

    let counters_before = instore::StoreCounters::of(&store);
    let outcome = instore::Loops {
        store: &store,
        keys: &keys,
        spec,
        seed: opts.seed,
        phases: plan.phases,
        trace: opts.trace,
        sabotage: opts.sabotage,
    }
    .run(&streams)
    .map_err(io)?;
    let counters = instore::StoreCounters::of(&store).since(counters_before);
    let wrong_readback = instore::read_back(&store, &keys, spec, opts.seed);
    let hwm_kib = procfs::sample(None).map_err(io)?.hwm_kib;
    let mut measured = Measured {
        timed: outcome.timed,
        setups_s,
        hwm_kib,
        wrong_readback,
        per_layer: Vec::new(),
        digest: digest.hex(),
        daemon: Json::obj([
            ("in_process_index", Json::str(store.index_name())),
            ("shards", Json::from(store.n_shards())),
            ("read_mode", Json::str(store.read_mode().name())),
            ("prefetch_depth", Json::from(store.prefetch_depth())),
            ("pinned_to_cpu", Json::from(cpu)),
        ]),
        warnings: Vec::new(),
        trace_file: None,
    };
    drop(store);
    if !opts.trace {
        return Ok(measured);
    }

    // The wire layers do not run here: their metrics read 0.
    let c = outcome.calls;
    let keys_n = c.keys as f64;
    let calls = c.calls as f64;
    let busy = (c.prep_ns + c.mget_ns + c.check_ns + c.record_ns) as f64;
    let mut m = host_process_metrics(&measured.timed, ratio(c.mget_ns as f64 / 1e3, calls));
    m.extend(
        [
            ("net.req_bytes_per_key", "B"),
            ("net.resp_bytes_per_key", "B"),
            ("net.frame_decode_ns_per_req", "ns"),
            ("net.write_frame_ns_per_req", "ns"),
            ("protocol.decode_req_ns_per_req", "ns"),
            ("protocol.encode_resp_ns_per_req", "ns"),
            ("protocol.decode_resp_ns_per_req", "ns"),
            ("protocol.crc32_ns_per_byte", "ns"),
            ("store.set_multi_ns_per_key", "ns"),
            ("store.seal_ns_per_req", "ns"),
            ("client.wait_frac", "ratio"),
        ]
        .map(|(name, unit)| layer(name, unit, 0.0)),
    );
    m.extend([
        layer(
            "store.mget_ns_per_key",
            "ns",
            ratio(c.mget_ns as f64, keys_n),
        ),
        layer(
            "store.pre_ns_per_key",
            "ns",
            ratio(c.phases.pre as f64, keys_n),
        ),
        layer(
            "store.lookup_ns_per_key",
            "ns",
            ratio(c.phases.lookup as f64, keys_n),
        ),
        layer(
            "store.post_ns_per_key",
            "ns",
            ratio(c.phases.post as f64, keys_n),
        ),
        layer(
            "store.mget_self_ns_per_key",
            "ns",
            ratio(c.mget_ns.saturating_sub(c.phases.total()) as f64, keys_n),
        ),
        layer("store.set_ns_per_key", "ns", set_ns_per_key),
        layer("store.bytes_per_item", "B", bytes_per_item),
        layer(
            "client.write_us_per_req",
            "us",
            ratio(c.prep_ns as f64 / 1e3, calls),
        ),
        layer(
            "client.decode_us_per_req",
            "us",
            ratio(c.check_ns as f64 / 1e3, calls),
        ),
        layer(
            "client.cpu_frac",
            "ratio",
            ratio((c.prep_ns + c.check_ns) as f64, busy),
        ),
        layer(
            "trace.overhead_frac",
            "ratio",
            ratio(c.record_ns as f64, busy),
        ),
    ]);
    m.extend(store_counter_metrics(counters));
    m.extend(sweep_metrics(
        opts.seed,
        opts.smoke,
        &mut measured.wrong_readback,
    )?);
    measured.trace_file = Some(outcome.tracer.to_json(spec.name));
    measured.per_layer = m;
    Ok(measured)
}

pub fn run(opts: &Opts) -> Result<RunResult, String> {
    let spec = Spec::by_name(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let plan = Plan::of(opts);
    // Before anything is spawned, so that threads and the daemon inherit it.
    let cpu = procfs::pin_to_one_cpu().map_err(|e| format!("pin to one CPU: {e}"))?;
    let mut measured = match spec.kind {
        Kind::Wire => run_wire(&spec, opts, &plan, cpu)?,
        Kind::Store => run_store(&spec, opts, &plan, cpu)?,
    };

    let timed = &mut measured.timed;
    let wrong = timed.wrong + measured.wrong_readback;
    let correct = wrong == 0;
    let attempted = timed.attempted.max(1);
    let failed = timed.failed;
    let generator_cpu_frac = own_cpu_frac(timed);
    let end_to_end = timed.end_to_end(&measured.setups_s, measured.hwm_kib);
    let metrics = if opts.trace {
        measured.per_layer
    } else {
        end_to_end.clone()
    };

    let detail = |ms: &[Metric]| {
        Json::Obj(
            ms.iter()
                .map(|m| {
                    let sum = m.summary();
                    let v = Json::obj([
                        ("value", Json::from(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("median", Json::from(sum.median)),
                        ("q1", Json::from(sum.q1)),
                        ("q3", Json::from(sum.q3)),
                        ("n", Json::from(sum.n)),
                        (
                            "samples",
                            Json::Arr(m.samples.iter().map(|&x| Json::from(x)).collect()),
                        ),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    };
    let mut result = RunResult {
        correct,
        attempted,
        failed,
        metrics,
        record: Json::Null,
    };
    let Json::Obj(mut record) = result.contract_json() else {
        unreachable!("contract_json builds an object");
    };
    record.extend([
        ("workload".to_string(), Json::str(spec.name)),
        ("why".to_string(), Json::str(spec.why)),
        ("seed".to_string(), Json::from(opts.seed)),
        ("trace".to_string(), Json::from(opts.trace)),
        ("smoke".to_string(), Json::from(opts.smoke)),
        ("sabotage".to_string(), Json::from(opts.sabotage)),
        ("seconds".to_string(), Json::from(opts.seconds)),
        (
            "plan".to_string(),
            Json::obj([
                ("warmup_s", Json::from(plan.phases.warmup.as_secs_f64())),
                ("window_s", Json::from(plan.phases.window.as_secs_f64())),
                ("windows", Json::from(plan.phases.windows)),
                ("setups", Json::from(plan.setups)),
            ]),
        ),
        ("wrong_answers".to_string(), Json::from(wrong)),
        // The reported value beside the windows' median, quartiles, count
        // and samples; in a traced run the end-to-end numbers are kept here
        // for reference only.
        ("end_to_end".to_string(), detail(&end_to_end)),
        (
            "generator_cpu_frac".to_string(),
            Json::from(generator_cpu_frac),
        ),
        (
            "config".to_string(),
            Json::obj([
                ("capacity", Json::from(spec.capacity)),
                ("memory_mb", Json::from(spec.memory_mb)),
                ("items", Json::from(spec.items)),
                ("value_len", Json::from(spec.value_len)),
                ("zipfian", Json::from(spec.zipf)),
                ("read_span", Json::from(spec.read_span)),
                ("width", Json::from(spec.width)),
                ("present_frac", Json::from(spec.present_frac)),
                ("write_frac", Json::from(spec.write_frac)),
                ("conns", Json::from(spec.conns)),
                ("depth", Json::from(spec.depth)),
                ("threads", Json::from(spec.threads)),
                ("ring", Json::from(spec.ring)),
            ]),
        ),
        ("stream_digest".to_string(), Json::str(measured.digest)),
        ("store_host".to_string(), measured.daemon),
        ("host".to_string(), host::describe()),
        (
            "warnings".to_string(),
            Json::Arr(measured.warnings.iter().map(Json::str).collect()),
        ),
    ]);
    result.record = Json::Obj(record);

    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    if let Some(trace) = measured.trace_file {
        let path = opts.out_dir.join(format!("trace_{}.json", spec.name));
        std::fs::write(&path, trace.encode()).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    // The start time keeps repeated runs of one seed from overwriting each
    // other, so a directory can hold a whole run set.
    let kind = if opts.trace { "traced" } else { "run" };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = opts.out_dir.join(format!(
        "{kind}_{}_seed{}_{stamp}.json",
        spec.name, opts.seed
    ));
    std::fs::write(&path, result.record.encode() + "\n")
        .map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(result)
}
