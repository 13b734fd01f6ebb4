//! `simdht-kvsd` — serve the SimdHT-Bench key-value store over TCP.
//!
//! ```text
//! simdht-kvsd --addr 127.0.0.1:11411 --index ver
//! ```
//!
//! Pair it with `simdht-memslap` for networked Multi-Get load; see the
//! README quickstart.

use std::sync::Arc;
use std::time::Duration;

use simdht_kvs::index;
use simdht_kvs::kvsd::{ConnSummary, Kvsd, KvsdConfig};
use simdht_kvs::reactor::{ReactorConfig, ReactorServer};
use simdht_kvs::server::ServerStats;
use simdht_kvs::store::{KvStore, ReadMode, StoreConfig};

const USAGE: &str = "\
simdht-kvsd: TCP key-value daemon with SIMD-aware hash indexes

USAGE:
    simdht-kvsd [OPTIONS]

OPTIONS:
    --addr <ip:port>       Listen address (default 127.0.0.1:11411; port 0 = ephemeral)
    --index <name>         Hash index: memc3 | hor | ver | dpdk | local (default memc3)
    --capacity <n>         Expected max live items (default 100000)
    --memory-mb <n>        Slab memory budget in MiB (default 64)
    --shards <n>           Store shards, rounded up to a power of two
                           (default 1 = single-lock store; writes serialize
                           only within a shard, MGets batch per shard)
    --duration <secs>      Serve this long, then drain and print stats
                           (default: serve until killed)
    --deadline-ms <n>      Per-request deadline; requests that cannot start
                           in time are answered DEADLINE_EXCEEDED instead of
                           queueing forever (default: none)
    --max-inflight <n>     Admission cap across connections; requests beyond
                           it are shed with SERVER_BUSY once the deadline
                           (if any) expires (default: unlimited)
    --idle-timeout-ms <n>  Reap connections silent (or stalled mid-frame)
                           this long (default: never)
    --reactor              Serve with the event-driven reactor pool instead of
                           a thread per connection: each reactor owns many
                           nonblocking connections and coalesces their MGets
                           into wide lookup batches (DESIGN.md §10)
    --reactor-threads <n>  Event-loop workers in reactor mode
                           (default: min(cores, 4))
    --coalesce-us <n>      Reactor micro-deadline: longest a decoded MGet
                           waits for batch-mates before dispatch (default 100)
    --batch-width <n>      Reactor dispatches as soon as this many keys are
                           buffered across connections (default 64)
    --prefetch-depth <n>   Multi-Get software-prefetch look-ahead distance
                           (group size G). 0 disables prefetching; default
                           8 (see DESIGN.md §9)
    --read-mode <mode>     locked | optimistic (default locked). Optimistic
                           GET/MGET readers probe shards seqlock-style
                           without taking the shard read lock, retrying or
                           falling back to the lock when a concurrent write
                           is detected (DESIGN.md §11). Ignored (with a
                           warning) on indexes whose probes are not
                           optimistic-safe
    -h, --help             Show this help
";

struct Args {
    addr: String,
    index: String,
    capacity: usize,
    memory_mb: usize,
    shards: usize,
    duration: Option<u64>,
    prefetch_depth: Option<usize>,
    read_mode: ReadMode,
    config: KvsdConfig,
    reactor: Option<ReactorConfig>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:11411".to_string(),
        index: "memc3".to_string(),
        capacity: 100_000,
        memory_mb: 64,
        shards: 1,
        duration: None,
        prefetch_depth: None,
        read_mode: ReadMode::Locked,
        config: KvsdConfig::default(),
        reactor: None,
    };
    let mut reactor_cfg = ReactorConfig::default();
    let mut want_reactor = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--reactor" => want_reactor = true,
            "--reactor-threads" => {
                want_reactor = true;
                reactor_cfg.reactors = value("--reactor-threads")?
                    .parse()
                    .map_err(|e| format!("--reactor-threads: {e}"))?;
                if reactor_cfg.reactors == 0 {
                    return Err("--reactor-threads must be >= 1".to_string());
                }
            }
            "--coalesce-us" => {
                want_reactor = true;
                let us: u64 = value("--coalesce-us")?
                    .parse()
                    .map_err(|e| format!("--coalesce-us: {e}"))?;
                reactor_cfg.coalesce = Duration::from_micros(us);
            }
            "--batch-width" => {
                want_reactor = true;
                reactor_cfg.batch_width = value("--batch-width")?
                    .parse()
                    .map_err(|e| format!("--batch-width: {e}"))?;
                if reactor_cfg.batch_width == 0 {
                    return Err("--batch-width must be >= 1".to_string());
                }
            }
            "--addr" => args.addr = value("--addr")?,
            "--index" => args.index = value("--index")?,
            "--capacity" => {
                args.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--memory-mb" => {
                args.memory_mb = value("--memory-mb")?
                    .parse()
                    .map_err(|e| format!("--memory-mb: {e}"))?;
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be >= 1".to_string());
                }
            }
            "--duration" => {
                args.duration = Some(
                    value("--duration")?
                        .parse()
                        .map_err(|e| format!("--duration: {e}"))?,
                );
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                args.config.deadline = Some(Duration::from_millis(ms));
            }
            "--max-inflight" => {
                args.config.max_inflight = Some(
                    value("--max-inflight")?
                        .parse()
                        .map_err(|e| format!("--max-inflight: {e}"))?,
                );
            }
            "--prefetch-depth" => {
                args.prefetch_depth = Some(
                    value("--prefetch-depth")?
                        .parse()
                        .map_err(|e| format!("--prefetch-depth: {e}"))?,
                );
            }
            "--read-mode" => {
                let mode = value("--read-mode")?;
                args.read_mode = ReadMode::parse(&mode).ok_or_else(|| {
                    format!("--read-mode: expected locked | optimistic, got {mode:?}")
                })?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--idle-timeout-ms must be >= 1".to_string());
                }
                args.config.idle_timeout = Some(Duration::from_millis(ms));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if want_reactor {
        reactor_cfg.limits = args.config;
        args.reactor = Some(reactor_cfg);
    }
    Ok(args)
}

/// Either serving architecture behind one drain-and-report interface.
enum Daemon {
    Thread(Kvsd),
    Reactor(ReactorServer),
}

impl Daemon {
    fn local_addr(&self) -> std::net::SocketAddr {
        match self {
            Daemon::Thread(k) => k.local_addr(),
            Daemon::Reactor(r) => r.local_addr(),
        }
    }

    fn stats(&self) -> Arc<ServerStats> {
        match self {
            Daemon::Thread(k) => k.stats(),
            Daemon::Reactor(r) => r.stats(),
        }
    }

    fn shutdown(self) -> Vec<ConnSummary> {
        match self {
            Daemon::Thread(k) => k.shutdown(),
            Daemon::Reactor(r) => {
                let snaps = r.reactor_snapshots();
                let summaries = r.shutdown();
                for s in &snaps {
                    println!(
                        "reactor {}: {} conns ({} still open), {} frames, \
                         {} batches (mean width {:.2}; fires: {} width / {} timeout / {} drain), \
                         {} write batches (mean pairs {:.2}), {} shed",
                        s.reactor,
                        s.conns_adopted,
                        s.conns_open,
                        s.frames,
                        s.batches,
                        s.mean_batch_width(),
                        s.width_fires,
                        s.timeout_fires,
                        s.drain_fires,
                        s.write_batches,
                        s.mean_write_batch_width(),
                        s.sheds,
                    );
                }
                summaries
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if index::by_short_name(&args.index, 8).is_none() {
        eprintln!(
            "error: unknown index {:?} (expected memc3 | hor | ver | dpdk | local)",
            args.index
        );
        std::process::exit(2);
    }
    let store = Arc::new(KvStore::with_shards(
        StoreConfig {
            memory_budget: args.memory_mb << 20,
            capacity_items: args.capacity,
            shards: args.shards,
            prefetch_depth: args.prefetch_depth,
            read_mode: args.read_mode,
        },
        |cap| index::by_short_name(&args.index, cap).expect("index name validated above"),
    ));
    let bound = match args.reactor {
        Some(rcfg) => ReactorServer::bind_with(Arc::clone(&store), args.addr.as_str(), rcfg)
            .map(Daemon::Reactor),
        None => {
            Kvsd::bind_with(Arc::clone(&store), args.addr.as_str(), args.config).map(Daemon::Thread)
        }
    };
    let kvsd = match bound {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    if args.read_mode == ReadMode::Optimistic && !store.optimistic_capable() {
        eprintln!(
            "warning: index {} does not support optimistic probes; reads stay locked",
            store.index_name()
        );
    }
    println!(
        "simdht-kvsd listening on {} (index {}, {} shard(s), capacity {}, {} MiB slab, prefetch depth {}, {} reads)",
        kvsd.local_addr(),
        store.index_name(),
        store.n_shards(),
        args.capacity,
        args.memory_mb,
        store.prefetch_depth(),
        store.read_mode().name(),
    );
    if let Some(rcfg) = args.reactor {
        println!(
            "reactor mode: {} event loop(s), coalesce {}us, batch width {}",
            rcfg.reactors,
            rcfg.coalesce.as_micros(),
            rcfg.batch_width,
        );
    }

    match args.duration {
        None => loop {
            std::thread::park();
        },
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let stats = kvsd.stats();
            let summaries = kvsd.shutdown();
            use std::sync::atomic::Ordering::Relaxed;
            println!(
                "drained after {secs}s: {} mgets, {} keys ({} found), {} shed, {} closed connections",
                stats.requests.load(Relaxed),
                stats.keys.load(Relaxed),
                stats.found.load(Relaxed),
                stats.shed.load(Relaxed),
                summaries.len(),
            );
            if store.n_shards() > 1 {
                let lens = store.shard_lens();
                let total: usize = lens.iter().sum();
                let max = lens.iter().copied().max().unwrap_or(0);
                let mean = total as f64 / lens.len() as f64;
                println!(
                    "shard balance: {} items over {} shards, max/mean {:.2} ({:?})",
                    total,
                    lens.len(),
                    if mean > 0.0 { max as f64 / mean } else { 0.0 },
                    lens,
                );
            }
            let phases = stats.phases();
            if phases.total() > 0 {
                let total = phases.total() as f64;
                println!(
                    "server phases: pre {:.1}%  lookup {:.1}%  post {:.1}%  ({:.2} Mkeys per busy-sec)",
                    phases.pre as f64 / total * 100.0,
                    phases.lookup as f64 / total * 100.0,
                    phases.post as f64 / total * 100.0,
                    stats.keys_per_busy_sec() / 1e6,
                );
            }
        }
    }
}
