//! The `simdht-bench` command line: what `--list` offers and what an id
//! that is not registered gets.

use std::process::Command;

use simdht_bench::experiments;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simdht-bench"))
        .args(args)
        .output()
        .expect("run simdht-bench")
}

#[test]
fn list_prints_the_registry_in_order() {
    let out = bench(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    assert_eq!(listed.lines().collect::<Vec<_>>(), experiments::ALL);
}

#[test]
fn unregistered_id_fails_with_usage() {
    let out = bench(&["fig99", "--quick"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment 'fig99'"), "{err}");
    assert!(
        err.contains("kvs-readscale-sweep"),
        "usage lists the ids: {err}"
    );
}
