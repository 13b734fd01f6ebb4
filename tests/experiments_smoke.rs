//! Integration: every experiment runner completes in quick mode and emits
//! the structural markers its figure requires. This is the "does the whole
//! reproduction pipeline run" test; numbers are recorded in EXPERIMENTS.md.

use simdht_bench::experiments;

fn output(id: &str) -> String {
    experiments::run(id, true).unwrap_or_else(|| panic!("unknown experiment {id}"))
}

#[test]
fn table1_lists_surveyed_systems() {
    let out = output("table1");
    for name in ["MemC3", "SILT", "CuckooSwitch", "Cuckoo++", "DPDK"] {
        assert!(out.contains(name), "missing {name}");
    }
}

#[test]
fn fig2_reports_load_factor_shapes() {
    let out = output("fig2");
    assert!(out.contains("max load factor"));
    // Parse the N = 2 row: m = 1 must be near 0.5 and m = 8 near 1.
    let row = out
        .lines()
        .find(|l| l.trim_start().starts_with("2 "))
        .expect("N = 2 row");
    let vals: Vec<f64> = row
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(vals[0] < 0.7, "2-way LF should be ~0.5, got {}", vals[0]);
    assert!(vals[3] > 0.9, "(2,8) LF should be >0.9, got {}", vals[3]);
    assert!(
        vals.windows(2).all(|w| w[0] < w[1]),
        "LF must grow with m: {vals:?}"
    );
}

#[test]
fn listing1_reproduces_paper_output() {
    let out = output("listing1");
    assert!(out.contains("*(2,1) -> V-Ver, Opts: 256 bit - 8 keys/it, Opts: 512 bit - 16 keys/it"));
    assert!(out.contains("*(2,8) -> V-Hor, Opts: 512 bit - 1 bucket/vec"));
}

#[test]
fn fig9_hybrid_beats_scalar_but_not_vertical() {
    let out = output("fig9");
    assert!(out.contains("true vertical"));
    assert!(out.contains("hybrid"));
    assert!(out.contains("slower than true vertical"));
}

#[test]
fn fig11a_reports_measured_and_modeled_latency_apart() {
    let out = output("fig11a");
    for header in ["Mkeys/s", "mean us", "p99 us", "EDR rt us", "lat vs MemC3"] {
        assert!(out.contains(header), "missing column {header}:\n{out}");
    }
    assert!(!out.contains("MGet-keys/s"), "{out}");
    assert!(out.contains("MemC3"));
    assert!(out.contains("[SIMD]"));
}

#[test]
fn ext_mixed_kvs_runs_every_index_at_each_set_fraction() {
    let out = output("ext-mixed-kvs");
    for header in ["Mkeys/s", "mean us", "EDR rt us", "sets"] {
        assert!(out.contains(header), "missing column {header}:\n{out}");
    }
    assert!(out.contains("MemC3"));
    assert_eq!(out.matches("[SIMD]").count(), 3 * 2, "{out}");
}

#[test]
fn fig11b_breaks_down_phases() {
    let out = output("fig11b");
    assert!(out.contains("pre"));
    assert!(out.contains("lookup"));
    assert!(out.contains("post"));
    assert!(out.contains("MemC3"));
    assert!(out.contains("[SIMD]"));
}

#[test]
fn ablations_run() {
    let gather = output("ablate-gather");
    assert!(gather.contains("paired wide"));
    assert!(gather.contains("narrow split"));
    let layout = output("ablate-layout");
    assert!(layout.contains("interleaved"));
    assert!(layout.contains("split"));
}
