//! The `leopard` binary's error contract: bad input exits with code 2 and
//! an `error: ...` line on stderr, before any work runs.

use std::process::Command;

#[test]
fn max_seq_len_below_the_minimum_exits_2_naming_the_minimum() {
    let out = Command::new(env!("CARGO_BIN_EXE_leopard"))
        .args(["suite", "--max-seq-len", "0"])
        .output()
        .expect("run the leopard binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs on a rejected flag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: --max-seq-len must be at least 8, got 0"),
        "stderr: {stderr}"
    );
}
