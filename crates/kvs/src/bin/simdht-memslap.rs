//! `simdht-memslap` — networked Multi-Get load generator for
//! `simdht-kvsd`, reporting throughput and latency percentiles.
//!
//! ```text
//! simdht-memslap --addr 127.0.0.1:11411 --connections 4 --depth 16
//! ```

use std::io::{self, Write};

use simdht_kvs::fault::FaultSpec;
use simdht_kvs::memslap::{run_memslap_over, NetMemslapConfig};
use simdht_kvs::net::TcpTransport;
use simdht_workload::{AccessPattern, KvWorkload, KvWorkloadSpec};

const USAGE: &str = "\
simdht-memslap: memslap-style Multi-Get load generator over TCP

USAGE:
    simdht-memslap [OPTIONS]

OPTIONS:
    --addr <ip:port>       Server address (default 127.0.0.1:11411)
    --connections <n>      Concurrent connections (default 4)
    --depth <n>            Pipelined requests per connection (default 16)
    --mget <n>             Keys per Multi-Get (default 16; paper uses 16-96)
    --items <n>            Distinct key-value items (default 10000)
    --requests <n>         Multi-Get requests to issue (default 2000)
    --key-bytes <n>        Key size in bytes, >= 12 (default 20)
    --value-bytes <n>      Value size in bytes (default 32)
    --dist <name>          Access pattern: zipfian | uniform (default zipfian)
    --set-fraction <f>     Fraction of requests issued as Sets (default 0.0)
    --write-frac <f>       Fraction of requests issued as batched SetMulti
                           writes of --mget pairs each, exercising the
                           server's SIMD-hashed set_multi path (default 0.0)
    --delete-frac <f>      Fraction of requests issued as Deletes of sampled
                           keys; idempotent, retried like Multi-Gets
                           (default 0.0)
    --cas-frac <f>         Fraction of requests issued as compare-and-swap
                           writes (expected versions drawn from {1,2,3});
                           never retried, lost responses count as uncertain
                           (default 0.0)
    --ttl <secs>           Attach this TTL to every write (Set becomes SetEx,
                           SetMulti becomes SetMultiEx, CAS carries it);
                           0 = never expires (default 0)
    --no-preload           Skip storing the items first (server already warm)
    --seed <n>             Workload RNG seed (default 19283)
    --deadline-ms <n>      Per-recv timeout in ms; a silent server counts as
                           a failed attempt and is retried (default 1000)
    --max-retries <n>      Extra attempts per Multi-Get after the first
                           (default 3; Sets are never retried)
    --faults <spec>        Inject deterministic faults between client and
                           server, e.g.
                           seed=42,drop=0.01,delay=0.05,delay-ms=3,corrupt=0.01
                           (keys: seed, drop, delay, delay-ms, truncate,
                           corrupt, close; probabilities are per frame)
    -h, --help             Show this help
";

struct Args {
    addr: String,
    net: NetMemslapConfig,
    spec: KvWorkloadSpec,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:11411".to_string(),
        net: NetMemslapConfig {
            connections: 4,
            pipeline_depth: 16,
            ..NetMemslapConfig::default()
        },
        spec: KvWorkloadSpec {
            n_items: 10_000,
            n_requests: 2_000,
            mget_size: 16,
            key_bytes: 20,
            value_bytes: 32,
            pattern: AccessPattern::skewed(),
            seed: 19_283,
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            let _ = write!(io::stdout(), "{USAGE}");
            std::process::exit(0);
        }
        if flag == "--no-preload" {
            args.net.preload = false;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let parse_usize = || value.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--addr" => args.addr = value.clone(),
            "--connections" => args.net.connections = parse_usize()?,
            "--depth" => args.net.pipeline_depth = parse_usize()?,
            "--mget" => args.spec.mget_size = parse_usize()?,
            "--items" => args.spec.n_items = parse_usize()?,
            "--requests" => args.spec.n_requests = parse_usize()?,
            "--key-bytes" => args.spec.key_bytes = parse_usize()?,
            "--value-bytes" => args.spec.value_bytes = parse_usize()?,
            "--dist" => {
                args.spec.pattern = match value.as_str() {
                    "zipfian" | "skewed" => AccessPattern::skewed(),
                    "uniform" => AccessPattern::Uniform,
                    other => return Err(format!("--dist: unknown pattern {other}")),
                };
            }
            "--set-fraction" => {
                args.net.set_fraction =
                    value.parse().map_err(|e| format!("--set-fraction: {e}"))?;
            }
            "--write-frac" => {
                args.net.write_frac = value.parse().map_err(|e| format!("--write-frac: {e}"))?;
            }
            "--delete-frac" => {
                args.net.delete_frac = value.parse().map_err(|e| format!("--delete-frac: {e}"))?;
            }
            "--cas-frac" => {
                args.net.cas_frac = value.parse().map_err(|e| format!("--cas-frac: {e}"))?;
            }
            "--ttl" => {
                args.net.ttl_secs = value.parse().map_err(|e| format!("--ttl: {e}"))?;
            }
            "--seed" => args.spec.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--deadline-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
                args.net.retry.recv_timeout = if ms == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_millis(ms))
                };
            }
            "--max-retries" => {
                args.net.retry.max_retries =
                    value.parse().map_err(|e| format!("--max-retries: {e}"))?;
            }
            "--faults" => {
                let spec = FaultSpec::parse(&value).map_err(|e| format!("--faults: {e}"))?;
                args.net.faults = if spec.is_none() { None } else { Some(spec) };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    for (flag, value, min) in [
        ("--connections", args.net.connections, 1),
        ("--depth", args.net.pipeline_depth, 1),
        ("--mget", args.spec.mget_size, 1),
        ("--items", args.spec.n_items, 1),
        ("--key-bytes", args.spec.key_bytes, 12),
    ] {
        if value < min {
            return Err(format!("{flag} must be >= {min}"));
        }
    }
    let fractions = [
        ("--set-fraction", args.net.set_fraction),
        ("--write-frac", args.net.write_frac),
        ("--delete-frac", args.net.delete_frac),
        ("--cas-frac", args.net.cas_frac),
    ];
    for (flag, f) in fractions {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("{flag} must be in [0, 1], got {f}"));
        }
    }
    // The slack forgives rounding only: 0.1 + 0.2 + 0.3 + 0.4 sums to
    // 1.0000000000000002.
    let sum: f64 = fractions.iter().map(|(_, f)| f).sum();
    if sum > 1.0 + 1e-9 {
        return Err(format!(
            "--set-fraction + --write-frac + --delete-frac + --cas-frac must not exceed 1, got {sum}"
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let transport = match TcpTransport::new(args.addr.as_str()) {
        Ok(t) => t,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: bad address {}: {e}", args.addr);
            std::process::exit(2);
        }
    };
    let _ = writeln!(
        io::stdout(),
        "generating workload: {} items, {} requests x {} keys, {} keys/{} B values, {}",
        args.spec.n_items,
        args.spec.n_requests,
        args.spec.mget_size,
        args.spec.key_bytes,
        args.spec.value_bytes,
        args.spec.pattern,
    );
    let workload = KvWorkload::generate(&args.spec);
    let _ = writeln!(
        io::stdout(),
        "running against {} ({} connections, pipeline depth {}{}{})",
        transport.addr(),
        args.net.connections,
        args.net.pipeline_depth,
        if args.net.preload { ", preloading" } else { "" },
        if args.net.faults.is_some() {
            ", fault injection on"
        } else {
            ""
        },
    );
    let report = match run_memslap_over(&transport, &workload, &args.net) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: run failed: {e}");
            std::process::exit(1);
        }
    };
    let _ = writeln!(
        io::stdout(),
        "\n{} MGets + {} Sets + {} Deletes + {} CAS in {:.2}s  ({:.0} req/s, {:.2} Mkeys/s)",
        report.requests,
        report.sets,
        report.deletes,
        report.cas_ok + report.cas_conflicts,
        report.wall_secs,
        report.requests_per_sec,
        report.keys_per_sec / 1e6,
    );
    let _ = writeln!(
        io::stdout(),
        "keys: {} requested, {} hits, {} misses ({:.1}% hit rate)",
        report.keys,
        report.hits,
        report.misses,
        report.hits as f64 / (report.keys.max(1)) as f64 * 100.0,
    );
    let _ = writeln!(
        io::stdout(),
        "latency us: mean {:.1}  min {:.1}  p50 {:.1}  p95 {:.1}  p99 {:.1}",
        report.mean_latency_us,
        report.min_latency_us,
        report.p50_latency_us,
        report.p95_latency_us,
        report.p99_latency_us,
    );
    if report.deletes > 0 {
        let _ = writeln!(
            io::stdout(),
            "delete latency us: mean {:.1}  p99 {:.1}  ({} completed)",
            report.delete_mean_latency_us,
            report.delete_p99_latency_us,
            report.deletes,
        );
    }
    if report.cas_ok + report.cas_conflicts > 0 {
        let _ = writeln!(
            io::stdout(),
            "cas latency us: mean {:.1}  p99 {:.1}  ({} stored, {} conflicts)",
            report.cas_mean_latency_us,
            report.cas_p99_latency_us,
            report.cas_ok,
            report.cas_conflicts,
        );
    }
    let disturbed = report.retries
        + report.timeouts
        + report.shed
        + report.reconnects
        + report.failed
        + report.sets_uncertain
        + report.cas_uncertain;
    if disturbed > 0 || args.net.faults.is_some() {
        let _ = writeln!(
            io::stdout(),
            "resilience: {} retries, {} timeouts, {} shed, {} reconnects, \
             {} failed, {} sets uncertain, {} cas uncertain",
            report.retries,
            report.timeouts,
            report.shed,
            report.reconnects,
            report.failed,
            report.sets_uncertain,
            report.cas_uncertain,
        );
    }
    if report.failed > 0 {
        let _ = writeln!(
            io::stderr(),
            "warning: {} requests abandoned after exhausting retries \
             (partial results above)",
            report.failed,
        );
    }
    if report.requests + report.sets + report.deletes + report.cas_ok + report.cas_conflicts == 0
        && report.failed > 0
    {
        let _ = writeln!(
            io::stderr(),
            "error: no request ever succeeded against {}",
            args.addr
        );
        std::process::exit(1);
    }
}
