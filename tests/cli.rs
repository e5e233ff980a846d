//! The `leopard` binary's error contract: bad input exits with code 2 and
//! an `error: ...` line on stderr, before any work runs.

use std::process::Command;

/// Runs `leopard` with `args`, asserts it exits 2 without running
/// anything, and returns its stderr.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_leopard"))
        .args(args)
        .output()
        .expect("run the leopard binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a rejected flag");
    stderr
}

#[test]
fn max_seq_len_below_the_minimum_exits_2_naming_the_minimum() {
    let stderr = rejected(&["suite", "--max-seq-len", "0"]);
    assert!(
        stderr.contains("error: --max-seq-len must be at least 8, got 0"),
        "stderr: {stderr}"
    );
}

#[test]
fn server_count_past_the_cap_exits_2_naming_the_cap() {
    // Used to abort in the allocator (exit 134).
    let stderr = rejected(&["serve", "--servers", "100000000000"]);
    assert!(
        stderr.contains("error: --servers must be at most 4096, got 100000000000"),
        "stderr: {stderr}"
    );
}

#[test]
fn request_count_past_the_cap_exits_2_naming_the_cap() {
    // Used to ask the allocator for 24 TB and abort.
    let stderr = rejected(&["serve", "--requests", "1000000000000"]);
    assert!(
        stderr.contains("error: --requests must be at most 10000000, got 1000000000000"),
        "stderr: {stderr}"
    );
}
