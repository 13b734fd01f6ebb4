//! The `simdht-bench` command line: what `--list` and `--help` offer, and
//! that a misspelt flag or an id that is not registered is refused before
//! any experiment runs.

use std::process::{Command, Stdio};

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
    assert!(err.contains("ext-swiss"), "usage lists the ids: {err}");
}

#[test]
fn unknown_flag_is_refused_before_anything_runs() {
    let out = bench(&["table1", "--quik"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag --quik"), "{err}");
    assert!(out.stdout.is_empty(), "table1 must not run");
}

#[test]
fn unknown_flag_on_a_closed_stderr_keeps_its_exit_code() {
    // The usage text is lost with nobody to read it; the failure is not.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_simdht-bench"))
        .args(["table1", "--quik"])
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("run simdht-bench");
    assert_eq!(status.code(), Some(1));
}

#[test]
fn list_and_help_on_a_closed_stdout_still_succeed() {
    // The ids and the help text are lost with nobody to read them; the
    // exit code says the request was understood.
    for flag in ["--list", "--help"] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_simdht-bench"))
            .arg(flag)
            .stdout(writer)
            .stderr(Stdio::null())
            .status()
            .expect("run simdht-bench");
        assert_eq!(status.code(), Some(0), "{flag}");
    }
}

#[test]
fn every_id_resolves_before_the_first_runs() {
    let out = bench(&["table1", "extra-id"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment 'extra-id'"), "{err}");
    assert!(out.stdout.is_empty(), "table1 must not run");
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = bench(&[flag]);
        assert!(out.status.success(), "{flag}");
        let help = String::from_utf8(out.stdout).unwrap();
        assert!(help.starts_with("usage: simdht-bench"), "{flag}: {help}");
        assert!(help.contains("ext-swiss"), "{flag}: {help}");
    }
}

#[test]
fn custom_help_prints_its_usage_and_succeeds() {
    let out = bench(&["custom", "--help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    assert!(help.starts_with("usage: simdht-bench custom"), "{help}");
    assert!(help.contains("--layout"), "{help}");
}
