//! The `ix_fuzz` command line: malformed input exits 2 naming the flag
//! (never a panic's 101), and `--help` prints usage and exits 0. None
//! of these runs a fuzz case.

use std::process::{Command, Output};

fn ix_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ix_fuzz"))
        .args(args)
        .output()
        .expect("ix_fuzz runs")
}

#[test]
fn malformed_input_exits_2_naming_the_flag() {
    for (args, flag) in [
        (&["--cases", "abc"][..], "--cases"),
        (&["--frobnicate"], "--frobnicate"),
        (&["--mlp-width", "0"], "--mlp-width"),
        (&["--backend", "foo"], "--backend"),
        (&["--seed"], "--seed"),
    ] {
        let out = ix_fuzz(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran cases");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = ix_fuzz(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: ix_fuzz"));
}
