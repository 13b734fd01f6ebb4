//! `simdht-benchmark` — the repository's benchmark (see `README.md` beside
//! this crate and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! simdht-benchmark run --workload wire_mget16 --seed 12 --seconds 20 --trace 0 --kvsd PATH
//! simdht-benchmark compare out/setA out/setB
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last line
//! of standard output — the contract's JSON result object. `run.sh` builds
//! the daemon and this binary and forwards its arguments here.

mod check;
mod compare;
mod daemon;
mod gen;
mod host;
mod instore;
mod json;
mod procfs;
mod replay;
mod run;
mod spec;
mod stats;
mod sweep;
mod timed;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

const USAGE: &str = "\
usage: simdht-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                            [--smoke] [--sabotage] [--kvsd PATH] [--out DIR]
       simdht-benchmark compare <setA-dir> <setB-dir> [--bench BENCHMARK.json]

workloads: wire_mget16 wire_get1 wire_mixed store_mget64 (default: all four)
--seconds   length of the timed part of an untraced run (default 20)
--trace     1 = traced run (per-layer metrics), 0 or absent = end-to-end run
--smoke     tiny data set and 1 s windows; records are marked and never compared
--sabotage  flip one expected answer: the run must end `correct: false`
--kvsd      the daemon binary for wire workloads (default target/release/simdht-kvsd)
--out       directory for run records and trace files (default benchmark/out)";

struct RunArgs {
    workloads: Vec<String>,
    opts: run::Opts,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut opts = run::Opts {
        workload: String::new(),
        seed: 12,
        seconds: run::DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sabotage: false,
        kvsd: PathBuf::from("target/release/simdht-kvsd"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut workloads = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--workload" => workloads.push(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 1.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must be between 1 and 120".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` from the driver, bare `--trace` by hand.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "--sabotage" => opts.sabotage = true,
            "--kvsd" => opts.kvsd = PathBuf::from(value("--kvsd")?),
            "--out" => opts.out_dir = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if workloads.is_empty() {
        workloads = spec::NAMES.iter().map(|s| s.to_string()).collect();
    }
    for w in &workloads {
        if !spec::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(RunArgs { workloads, opts })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        workloads,
        mut opts,
    } = parse_run(args)?;
    let mut all_correct = true;
    for workload in workloads {
        opts.workload = workload;
        let result = run::run(&opts)?;
        println!(
            "# {} seed {} {}{}: correct {}, {} attempted, {} failed",
            opts.workload,
            opts.seed,
            if opts.trace { "traced" } else { "end-to-end" },
            if opts.smoke { " (smoke)" } else { "" },
            result.correct,
            result.attempted,
            result.failed,
        );
        for m in &result.metrics {
            let v = m.summary();
            if v.n > 1 {
                println!(
                    "{:<36} {:>16.4} {:<6} (median {:.4}, q1 {:.4}, q3 {:.4}, n {})",
                    m.name, m.value, m.unit, v.median, v.q1, v.q3, v.n
                );
            } else {
                println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
        if let Some(Json::Arr(warnings)) = result.record.get("warnings") {
            for w in warnings.iter().filter_map(Json::as_str) {
                println!("# warning: {w}");
            }
        }
        println!("{}", result.contract_json().encode());
        all_correct &= result.correct;
    }
    Ok(all_correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = PathBuf::from(it.next().ok_or("missing value for --bench")?);
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err("compare takes exactly two run-set directories".into());
    };
    let bounds = compare::load_bounds(&bench)?;
    let rows = compare::compare_sets(&compare::load_set(a)?, &compare::load_set(b)?, &bounds);
    Ok(compare::report(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, _)) if cmd == "-h" || cmd == "--help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err("expected a subcommand: run | compare".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong answer or a metric beyond its bound: reported above.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
