//! The stdout of the four training harnesses (Figures 2 and 6, ablations 1
//! and 2), byte for byte against `tests/fixtures/<binary>.txt` at the
//! workspace root. Each binary fine-tunes real thresholds, so this is slow
//! in a debug build; run it in release:
//!
//! ```text
//! cargo test --release -q -p leopard-bench --test training_stdout -- --ignored
//! ```
#![allow(clippy::panic, reason = "test code may panic")]

use std::path::Path;
use std::process::Command;

fn assert_stdout_matches_fixture(binary: &str, name: &str) {
    let out = Command::new(binary)
        .output()
        .unwrap_or_else(|e| panic!("run {name}: {e}"));
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&fixture)
        .unwrap_or_else(|e| panic!("read {}: {e}", fixture.display()));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout == expected,
        "{name} stdout differs from {}:\n{stdout}",
        fixture.display()
    );
}

#[test]
#[ignore = "trains models; run in release with --ignored"]
fn training_harness_stdout_matches_fixtures() {
    for (binary, name) in [
        (
            env!("CARGO_BIN_EXE_fig02_finetune_dynamics"),
            "fig02_finetune_dynamics",
        ),
        (env!("CARGO_BIN_EXE_fig06_accuracy"), "fig06_accuracy"),
        (
            env!("CARGO_BIN_EXE_abl01_lambda_sweep"),
            "abl01_lambda_sweep",
        ),
        (
            env!("CARGO_BIN_EXE_abl02_sharpness_sweep"),
            "abl02_sharpness_sweep",
        ),
    ] {
        assert_stdout_matches_fixture(binary, name);
    }
}
