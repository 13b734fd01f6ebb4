//! `simdht-kvsd` — serve the SimdHT-Bench key-value store over TCP.
//!
//! ```text
//! simdht-kvsd --addr 127.0.0.1:11411 --index ver
//! ```
//!
//! Pair it with `simdht-memslap` for networked Multi-Get load; see the
//! README quickstart.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Duration;

use simdht_kvs::kvsd::{Kvsd, KvsdConfig};
use simdht_kvs::metrics::Counter;
use simdht_kvs::store::{KvStore, StoreConfig};
use simdht_kvs::{arena, index};

const USAGE: &str = "\
simdht-kvsd: TCP key-value daemon with SIMD-aware hash indexes

USAGE:
    simdht-kvsd [OPTIONS]

OPTIONS:
    --addr <ip:port>       Listen address (default 127.0.0.1:11411; port 0 = ephemeral)
    --index <name>         Hash index: memc3 | hor | ver | dpdk | local (default memc3)
    --capacity <n>         Expected max live items (default 100000), split
                           evenly over the shards; memc3 takes at most
                           7549746 per shard (its slots keep 24-bit item ids)
    --memory-mb <n>        Slab memory budget in MiB (default 64)
    --shards <n>           Store shards, rounded up to a power of two
                           (default 1 = single-lock store; writes serialize
                           only within a shard, MGets batch per shard).
                           Each shard takes at least 1 MiB of slab, so the
                           rounded count may not exceed --memory-mb
    --duration <secs>      Serve this long, then drain and print stats
                           (default: serve until killed)
    --deadline-ms <n>      Per-request deadline; requests that cannot start
                           in time are answered DEADLINE_EXCEEDED instead of
                           queueing forever (default: none)
    --max-inflight <n>     Admission cap across connections; requests beyond
                           it are shed with SERVER_BUSY once the deadline
                           (if any) expires (default: unlimited)
    --idle-timeout-ms <n>  Reap connections that complete no request frame
                           this long: silent, stalled mid-frame or dripping
                           bytes (default: never). Also how long replies a
                           client does not read may make no progress before
                           its connection is closed (default: 10 s)
    -h, --help             Show this help
";

struct Args {
    addr: String,
    index: String,
    capacity: usize,
    memory_bytes: usize,
    shards: usize,
    duration: Option<u64>,
    config: KvsdConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:11411".to_string(),
        index: "memc3".to_string(),
        capacity: 100_000,
        memory_bytes: 64 << 20,
        shards: 1,
        duration: None,
        config: KvsdConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--index" => args.index = value("--index")?,
            "--capacity" => {
                args.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--memory-mb" => {
                let mb: usize = value("--memory-mb")?
                    .parse()
                    .map_err(|e| format!("--memory-mb: {e}"))?;
                if mb == 0 {
                    return Err("--memory-mb must be >= 1".to_string());
                }
                args.memory_bytes = mb
                    .checked_mul(1 << 20)
                    .ok_or_else(|| format!("--memory-mb: {mb} MiB overflows a byte count"))?;
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
                let _ = write!(io::stdout(), "{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // A shard's slab is at least 1 MiB (`StoreConfig::memory_budget`), so
    // more shards than MiB would serve more memory than was asked for.
    let mb = args.memory_bytes >> 20;
    let Some(shards) = args.shards.checked_next_power_of_two().filter(|&n| n <= mb) else {
        return Err(format!(
            "--shards {}: its power-of-two rounding exceeds --memory-mb {mb} \
             (each shard takes at least 1 MiB)",
            args.shards
        ));
    };
    // A store sizes each shard's index for its share of the capacity;
    // refuse one the index cannot address before anything is mapped.
    let per_shard = args.capacity.div_ceil(shards);
    if let Some(max) = index::max_capacity(&args.index).filter(|&max| per_shard > max) {
        return Err(format!(
            "--capacity {}: {per_shard} items per shard exceed the {} index's \
             {max}; raise --shards",
            args.capacity, args.index
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
    if index::by_short_name(&args.index, 8).is_none() {
        let _ = writeln!(
            io::stderr(),
            "error: unknown index {:?} (expected memc3 | hor | ver | dpdk | local)",
            args.index
        );
        std::process::exit(2);
    }
    let store = Arc::new(KvStore::with_shards(
        StoreConfig {
            memory_budget: args.memory_bytes,
            capacity_items: args.capacity,
            shards: args.shards,
        },
        |cap| index::by_short_name(&args.index, cap).expect("index name validated above"),
    ));
    let kvsd = match Kvsd::bind_with(Arc::clone(&store), args.addr.as_str(), args.config) {
        Ok(k) => k,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let _ = writeln!(
        io::stdout(),
        "simdht-kvsd listening on {} (index {}, {} shard(s), capacity {}, {} MiB slab, prefetch depth {}, locked reads, index {} MiB)",
        kvsd.local_addr(),
        store.index_name(),
        store.n_shards(),
        args.capacity,
        args.memory_bytes >> 20,
        store.prefetch_depth(),
        store.index_bytes() >> 20,
    );

    match args.duration {
        None => loop {
            std::thread::park();
        },
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            let live = kvsd.live_connections();
            let stats = kvsd.shutdown();
            let huge_kib = arena::anon_huge_pages_kib().map_or("n/a".into(), |k| k.to_string());
            let _ = writeln!(
                io::stdout(),
                "drained after {secs}s: {live} live connections drained, {} closed in all, \
                 {huge_kib} KiB on huge pages ({} huge-page advice refusals)",
                stats[Counter::ConnsClosed],
                arena::hugepage_refusals(),
            );
            let _ = write!(io::stdout(), "{stats}");
            let t = store.totals();
            let _ = writeln!(
                io::stdout(),
                "store: {} items, {} sets, {} evictions, {} expired, {} promotions, \
                 {} wanted admits, {:.4} Multi-Get hit fraction, {:.0} chunk bytes per item",
                t.items,
                t.sets,
                t.evictions,
                t.expired,
                t.promotions,
                t.wanted_admits,
                t.mget_hits as f64 / t.mget_keys.max(1) as f64,
                t.chunk_bytes as f64 / t.items.max(1) as f64,
            );
            if store.n_shards() > 1 {
                let lens = store.shard_lens();
                let total: usize = lens.iter().sum();
                let max = lens.iter().copied().max().unwrap_or(0);
                let mean = total as f64 / lens.len() as f64;
                let _ = writeln!(
                    io::stdout(),
                    "shard balance: {} items over {} shards, max/mean {:.2} ({:?})",
                    total,
                    lens.len(),
                    if mean > 0.0 { max as f64 / mean } else { 0.0 },
                    lens,
                );
            }
        }
    }
}
