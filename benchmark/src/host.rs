//! What makes a run record self-describing: the commit, toolchain and host
//! it was taken on. Everything here is best effort — a missing tool or
//! sysfs file yields `"unknown"`, never a failed run.

use std::fs;
use std::process::Command;

use simdht_simd::CpuFeatures;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn unknown(v: Option<String>) -> Json {
    Json::str(v.unwrap_or_else(|| "unknown".to_string()))
}

/// The commit under test: `BENCH_COMMIT` if set (a checkout without `.git`
/// cannot ask git), else `git rev-parse`, with `+dirty` when the tree has
/// uncommitted changes.
fn commit() -> Option<String> {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return Some(c);
    }
    // Only a repository rooted at the working directory counts: git must
    // not wander above the checkout looking for one.
    std::fs::metadata(".git").ok()?;
    let head = command_line("git", &["rev-parse", "HEAD"])?;
    let dirty = command_line("git", &["status", "--porcelain"]).is_some();
    Some(if dirty { format!("{head}+dirty") } else { head })
}

fn caches() -> Json {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Some(level) = read_trimmed(&format!("{dir}/level")) else {
            break;
        };
        out.push(Json::obj([
            ("level", Json::str(level)),
            ("type", unknown(read_trimmed(&format!("{dir}/type")))),
            ("size", unknown(read_trimmed(&format!("{dir}/size")))),
            (
                "line_bytes",
                unknown(read_trimmed(&format!("{dir}/coherency_line_size"))),
            ),
        ]));
    }
    Json::Arr(out)
}

pub fn describe() -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let detected = CpuFeatures::detect();
    let compiled: Vec<Json> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| Json::str(*name))
    .collect();
    Json::obj([
        ("commit", unknown(commit())),
        ("rustc", unknown(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cpu_model", unknown(cpu_model)),
        ("caches", caches()),
        ("simd_detected", Json::str(format!("{detected:?}"))),
        ("simd_compiled", Json::Arr(compiled)),
        (
            "kernel",
            unknown(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
    ])
}
