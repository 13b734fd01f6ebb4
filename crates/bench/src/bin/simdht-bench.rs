//! The SimdHT-Bench experiment CLI.
//!
//! ```text
//! simdht-bench <experiment|all> [--quick]
//! simdht-bench custom [flags]
//! simdht-bench --list | --help
//! ```
//!
//! Run with `cargo run --release -p simdht-bench -- <id>`. Every id
//! regenerates one table or figure of the paper; see `DESIGN.md` for the
//! per-experiment index and `EXPERIMENTS.md` for recorded results.

use std::io::{self, Write};
use std::process::ExitCode;

use simdht_bench::{custom, experiments};

fn usage() -> String {
    format!(
        "usage: simdht-bench <experiment|all> [--quick]\n\
         \x20      simdht-bench custom [flags]   (run a user-specified workload)\n\
         \n\
         experiments:\n  {}\n\
         \n\
         --quick      run at reduced scale (seconds instead of minutes)\n\
         --list       print experiment ids\n\
         -h, --help   print this help\n\n{}",
        experiments::ALL.join("\n  "),
        custom::usage()
    )
}

fn is_help(arg: &str) -> bool {
    arg == "-h" || arg == "--help"
}

/// `custom`'s own flags, parsed and executed.
fn run_custom(args: &[String]) -> ExitCode {
    if args.iter().any(|a| is_help(a)) {
        let _ = writeln!(io::stdout(), "{}", custom::usage());
        return ExitCode::SUCCESS;
    }
    match custom::parse(args).and_then(|spec| custom::execute(&spec)) {
        Ok(report) => {
            let _ = writeln!(io::stdout(), "{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            let _ = writeln!(io::stderr(), "custom: {e}\n\n{}", custom::usage());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut list) = (false, false);
    let mut ids: Vec<&str> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            help if is_help(help) => {
                let _ = writeln!(io::stdout(), "{}", usage());
                return ExitCode::SUCCESS;
            }
            // Everything after `custom` is its own flags.
            "custom" if ids.is_empty() => return run_custom(&args[i + 1..]),
            flag if flag.starts_with("--") => {
                let _ = writeln!(io::stderr(), "unknown flag {flag}\n\n{}", usage());
                return ExitCode::FAILURE;
            }
            id => ids.push(id),
        }
    }

    if list {
        let _ = writeln!(io::stdout(), "{}", experiments::ALL.join("\n"));
        return ExitCode::SUCCESS;
    }
    if ids.is_empty() {
        let _ = writeln!(io::stderr(), "{}", usage());
        return ExitCode::FAILURE;
    }
    let selected: Vec<&str> = if ids == ["all"] {
        experiments::ALL.to_vec()
    } else {
        ids
    };
    // Every id resolves before the first one runs.
    if let Some(id) = selected.iter().find(|id| !experiments::ALL.contains(id)) {
        let _ = writeln!(io::stderr(), "unknown experiment '{id}'\n\n{}", usage());
        return ExitCode::FAILURE;
    }
    for id in selected {
        let output = experiments::run(id, quick).expect("id resolved above");
        let _ = writeln!(io::stdout(), "{output}");
    }
    ExitCode::SUCCESS
}
