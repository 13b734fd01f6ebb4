//! Drives the built binary end to end on the smoke data set: an honest run
//! ends `correct: true`, and a `--sabotage` run — one expected answer
//! flipped — must end `correct: false` with a failing exit code. That is
//! the proof the checker can say no.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_simdht-benchmark");

/// The daemon for the wire workloads: `SIMDHT_KVSD`, or where `run.sh` and
/// a root `cargo build --release` put it.
fn kvsd() -> Option<PathBuf> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let candidates = [
        std::env::var_os("SIMDHT_KVSD").map(PathBuf::from),
        std::env::var_os("CARGO_TARGET_DIR").map(|t| PathBuf::from(t).join("release/simdht-kvsd")),
        Some(manifest.join("../target/release/simdht-kvsd")),
    ];
    candidates.into_iter().flatten().find(|p| p.is_file())
}

struct Outcome {
    code: Option<i32>,
    /// The last line of standard output.
    result: String,
}

fn run(workload: &str, extra: &[&str]) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "cli-{workload}-{}",
        extra.join("").replace('-', "")
    ));
    let mut cmd = Command::new(BIN);
    cmd.args([
        "run",
        "--smoke",
        "--workload",
        workload,
        "--seed",
        "7",
        "--out",
    ])
    .arg(&out_dir)
    .args(extra);
    if let Some(k) = kvsd() {
        cmd.arg("--kvsd").arg(k);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Outcome {
        code: out.status.code(),
        result: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

#[test]
fn in_process_run_is_correct_and_sabotage_is_caught() {
    let honest = run("store_mget64", &[]);
    assert_eq!(honest.code, Some(0), "{}", honest.result);
    assert!(
        honest.result.starts_with("{\"correct\": true, "),
        "{}",
        honest.result
    );
    assert!(honest.result.contains("\"failed\": 0, "));
    for metric in [
        "keys_per_s",
        "req_p50_us",
        "req_p99_us",
        "ok_frac",
        "hit_frac",
        "server_cpu_us_per_key",
        "server_rss_mib",
        "setup_s",
    ] {
        assert!(
            honest
                .result
                .contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric}"
        );
    }

    let sabotaged = run("store_mget64", &["--sabotage"]);
    assert_eq!(sabotaged.code, Some(1), "{}", sabotaged.result);
    assert!(
        sabotaged.result.starts_with("{\"correct\": false, "),
        "{}",
        sabotaged.result
    );
}

#[test]
fn wire_sabotage_is_caught_on_reads_and_on_writes() {
    if kvsd().is_none() {
        eprintln!("skipped: no simdht-kvsd binary (build the root workspace or set SIMDHT_KVSD)");
        return;
    }
    for workload in ["wire_get1", "wire_mixed"] {
        let honest = run(workload, &[]);
        assert_eq!(honest.code, Some(0), "{workload}: {}", honest.result);
        assert!(
            honest.result.starts_with("{\"correct\": true, "),
            "{workload}"
        );
        let sabotaged = run(workload, &["--sabotage"]);
        assert_eq!(sabotaged.code, Some(1), "{workload}: {}", sabotaged.result);
        assert!(
            sabotaged.result.starts_with("{\"correct\": false, "),
            "{workload}"
        );
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric_and_a_span_file() {
    let bench = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json at the repository root");
    // Names listed under "per_layer", without a JSON dependency: the list
    // is the tail of the file and every entry starts with {"name": "...".
    let per_layer = bench.split("\"per_layer\"").nth(1).expect("per_layer list");
    let names: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap())
        .collect();
    assert!(names.len() >= 40, "parsed {} per-layer names", names.len());

    let traced = run("store_mget64", &["--trace", "1"]);
    assert_eq!(traced.code, Some(0), "{}", traced.result);
    for name in &names {
        assert!(
            traced
                .result
                .contains(&format!("\"{name}\": {{\"value\": ")),
            "traced run lacks {name}"
        );
    }
    assert!(
        !traced.result.contains("\"keys_per_s\""),
        "traced runs print per-layer metrics only"
    );
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli-store_mget64-trace1/trace_store_mget64.json");
    let text = std::fs::read_to_string(spans).expect("span file written");
    assert!(text.contains("\"name\": \"store.mget\"") && text.contains("\"parent\": "));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(BIN)
        .args(["run", "--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let out = Command::new(BIN)
        .args(["compare", "only-one"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
