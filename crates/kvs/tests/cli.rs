//! The command lines of `simdht-kvsd` and `simdht-memslap`: every refused
//! input is a usage error (exit 2) naming its flag on the `error:` line,
//! never a panic or a silently wrapped value. No case needs a server: the
//! client cases point at `127.0.0.1:1`, which nothing serves, and are
//! refused before any connection is tried. The daemon's cases would bind an
//! ephemeral port and serve for `--duration 0` or `1` if the input were
//! accepted, so a regression fails on the exit code instead of hanging.
//! Every flag `--help` lists is one the parser knows, a usage error keeps
//! its exit code when nobody reads stderr, and `--help` still exits 0 when
//! nobody reads stdout.

use std::process::{Command, Output, Stdio};

const KVSD: &str = env!("CARGO_BIN_EXE_simdht-kvsd");
const MEMSLAP: &str = env!("CARGO_BIN_EXE_simdht-memslap");
const UNREACHABLE: &str = "127.0.0.1:1";

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

/// `args` is refused as a usage error whose first stderr line names `flag`.
fn assert_refused(bin: &str, args: &[&str], flag: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error:") && first.contains(flag),
        "{args:?}: the error line must name {flag}: {stderr}"
    );
}

#[test]
fn kvsd_refuses_a_memory_budget_that_is_zero_or_overflows() {
    // A zero budget is refused for what it is, not blamed on the default
    // `--shards 1`.
    for (mb, error) in [
        ("0", "--memory-mb must be >= 1"),
        ("17592186044416", "--memory-mb"),
        ("99999999999999", "--memory-mb"),
    ] {
        assert_refused(
            KVSD,
            &[
                "--addr",
                "127.0.0.1:0",
                "--duration",
                "0",
                "--memory-mb",
                mb,
            ],
            error,
        );
    }
}

#[test]
fn kvsd_refuses_more_shards_than_mib_of_slab() {
    // 8 shards of 4 MiB would serve 8 MiB; 5 rounds up to 8; the last
    // two are past any budget (and past `usize` once rounded).
    for (mb, shards) in [
        ("4", "8"),
        ("4", "5"),
        ("64", "3000000000"),
        ("64", "18446744073709551615"),
    ] {
        assert_refused(
            KVSD,
            &[
                "--addr",
                "127.0.0.1:0",
                "--duration",
                "1",
                "--memory-mb",
                mb,
                "--shards",
                shards,
            ],
            "--shards",
        );
    }
}

#[test]
fn kvsd_refuses_a_memc3_capacity_past_its_item_ids() {
    // 8 M items in one shard need 2^22 buckets; `memc3`'s 24-bit item ids
    // address 2^21. Two shards of 4 M each fit.
    let capacity = [
        "--addr",
        "127.0.0.1:0",
        "--duration",
        "0",
        "--capacity",
        "8000000",
    ];
    assert_refused(KVSD, &capacity, "--shards");
    let out = run(KVSD, &[&capacity[..], &["--shards", "2"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn kvsd_reports_its_index_size() {
    // 2^19 buckets of four 4-byte slots, plus 64 KiB of version stripes.
    let args = [
        "--addr",
        "127.0.0.1:0",
        "--duration",
        "0",
        "--capacity",
        "1048576",
    ];
    let out = run(KVSD, &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let first = stdout.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("simdht-kvsd listening on ") && first.ends_with(", index 8 MiB)"),
        "{first}"
    );
}

#[test]
fn kvsd_help_and_unknown_flag() {
    let out = run(KVSD, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--memory-mb"));
    // The prefetch depth is a constant, reads always take the shard lock,
    // and one connection loop serves every connection: their flags are
    // unknown too, not silently ignored.
    for flag in [
        "--no-such-flag",
        "--prefetch-depth",
        "--coalesce-us",
        "--batch-width",
        "--reactor-threads",
        "--read-mode",
        "--reactor",
    ] {
        let args = ["--addr", "127.0.0.1:0", "--duration", "0", flag, "8"];
        assert_refused(KVSD, &args, &format!("unknown flag {flag}"));
    }
}

/// Every flag `bin --help` lists, with whether it takes a value: the
/// option lines are the ones indented exactly four spaces.
fn listed_flags(bin: &str) -> Vec<(String, bool)> {
    let help = String::from_utf8(run(bin, &["--help"]).stdout).expect("utf-8 help");
    let mut flags = Vec::new();
    for line in help.lines() {
        let Some(option) = line.strip_prefix("    ").filter(|o| o.starts_with('-')) else {
            continue;
        };
        let words: Vec<&str> = option.split_whitespace().collect();
        let takes_value = words.iter().any(|w| w.starts_with('<'));
        for word in words.iter().take_while(|w| w.starts_with('-')) {
            flags.push((word.trim_end_matches(',').to_string(), takes_value));
        }
    }
    flags
}

/// Run `bin` with each flag its help lists, then `tail`, and assert the
/// parser knows every one. A flag that takes a value gets `1`, so one the
/// parser took for a switch would leave `1` behind as an unknown flag.
fn assert_help_matches_parser(bin: &str, tail: &[&str], expected: usize) {
    let flags = listed_flags(bin);
    assert_eq!(flags.len(), expected, "{flags:?}");
    for (flag, takes_value) in &flags {
        let mut args = vec![flag.as_str()];
        if *takes_value {
            args.push("1");
        }
        args.extend_from_slice(tail);
        let out = run(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.code().is_some(), "{args:?}: {stderr}");
        assert!(!stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn kvsd_help_lists_only_flags_the_parser_knows() {
    // 9 options, plus `-h` and `--help`. The tail serves nothing.
    let tail = ["--addr", "127.0.0.1:0", "--duration", "0"];
    assert_help_matches_parser(KVSD, &tail, 11);
}

#[test]
fn memslap_help_lists_only_flags_the_parser_knows() {
    // 19 options, plus `-h` and `--help`. The tail points at a port
    // nothing serves.
    assert_help_matches_parser(MEMSLAP, &["--addr", UNREACHABLE], 21);
}

#[test]
fn a_usage_error_on_a_closed_stderr_keeps_its_exit_code() {
    for bin in [KVSD, MEMSLAP] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(bin)
            .arg("--no-such-flag")
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("spawn binary");
        assert_eq!(status.code(), Some(2), "{bin}");
    }
}

#[test]
fn help_on_a_closed_stdout_still_succeeds() {
    for bin in [KVSD, MEMSLAP] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(bin)
            .arg("--help")
            .stdout(writer)
            .stderr(Stdio::null())
            .status()
            .expect("spawn binary");
        assert_eq!(status.code(), Some(0), "{bin}");
    }
}

#[test]
fn memslap_refuses_zero_counts_and_short_keys() {
    for (flag, value) in [
        ("--connections", "0"),
        ("--depth", "0"),
        ("--mget", "0"),
        ("--items", "0"),
        ("--key-bytes", "11"),
    ] {
        assert_refused(MEMSLAP, &["--addr", UNREACHABLE, flag, value], flag);
    }
}

#[test]
fn memslap_refuses_fractions_outside_the_unit_interval() {
    for flag in [
        "--set-fraction",
        "--write-frac",
        "--delete-frac",
        "--cas-frac",
    ] {
        for value in ["2", "-0.1"] {
            assert_refused(MEMSLAP, &["--addr", UNREACHABLE, flag, value], flag);
        }
    }
}

#[test]
fn memslap_refuses_fractions_that_sum_above_one() {
    assert_refused(
        MEMSLAP,
        &[
            "--addr",
            UNREACHABLE,
            "--set-fraction",
            "0.6",
            "--delete-frac",
            "0.5",
        ],
        "--delete-frac",
    );
}

#[test]
fn memslap_help_and_unknown_flag() {
    let out = run(MEMSLAP, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--connections"));
    assert_refused(MEMSLAP, &["--no-such-flag"], "--no-such-flag");
    // Every connection has its own thread: the multiplexed client is gone.
    assert_refused(
        MEMSLAP,
        &["--addr", UNREACHABLE, "--mux", "1"],
        "unknown flag --mux",
    );
}
