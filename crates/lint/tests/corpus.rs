//! End-to-end conformance: lint each fixture in `tests/fixtures/lint/`
//! (at the workspace root) and assert the exact rendered diagnostics.
//!
//! Every shipped rule has at least one known-bad fixture here that fails
//! without the engine, plus `good_allows.rs` proving that reasoned
//! suppressions and lexer stressors (raw strings, nested block comments,
//! char literals containing `"`) produce no findings. The panic,
//! wall-clock and hash-order contracts are clippy's: their known-bad
//! cases live in `crates/lint/examples/clippy_contracts.rs`, which
//! `cargo clippy --all-targets` builds.
#![allow(clippy::panic, reason = "test code may panic")]

use leopard_lint::{lint_source, render_json, render_text, LintConfig};
use std::fs;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/lint")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Lints a fixture under a virtual workspace path and renders the result.
fn run(name: &str, virtual_path: &str) -> String {
    let src = fixture(name);
    let diags = lint_source(virtual_path, &src, &LintConfig::default());
    render_text(&diags)
}

#[test]
fn float_accumulation_fixture() {
    let out = run("bad_float_accum.rs", "crates/demo/src/lib.rs");
    let expected = "crates/demo/src/lib.rs:4: error[float-accumulation-order]: float accumulator \
                    `total` is updated with `+=` in a loop over par-distributed data; float \
                    addition is order-sensitive — reduce in a blessed helper with a pinned \
                    order, or allow with the ordering argument\n";
    assert_eq!(out, expected);
}

#[test]
fn relaxed_atomic_fixture_is_path_scoped() {
    // In a result-path file a Relaxed load is an error, however the
    // ordering is qualified...
    let out = run("bad_relaxed.rs", "crates/demo/src/engine.rs");
    let msg = "`Ordering::Relaxed` load in a result path; document the happens-before edge that \
               makes the value exact (reasoned allow) or use an acquiring ordering";
    let expected = format!(
        "crates/demo/src/engine.rs:4: error[relaxed-atomic-in-result-path]: {msg}\n\
         crates/demo/src/engine.rs:8: error[relaxed-atomic-in-result-path]: {msg}\n"
    );
    assert_eq!(out, expected);
    // ...and in a non-result-path file it is not.
    assert_eq!(run("bad_relaxed.rs", "crates/demo/src/pool.rs"), "");
}

#[test]
fn observe_only_telemetry_fixture() {
    let out = run("bad_telemetry.rs", "crates/demo/src/lib.rs");
    let expected = "crates/demo/src/lib.rs:2: error[observe-only-telemetry]: telemetry handle \
                    used via `.flush()` outside an Option guard; telemetry is observe-only — \
                    guard with `if let Some(..)`/`.as_ref().map(..)` or bless the export \
                    helper\n";
    assert_eq!(out, expected);
}

#[test]
fn suppression_fixture_flags_reasonless_unknown_and_stale_allows() {
    let out = run("bad_suppression.rs", "crates/demo/src/lib.rs");
    let float_msg =
        "float accumulator `total` is updated with `+=` in a loop over par-distributed \
                     data; float addition is order-sensitive — reduce in a blessed helper with a \
                     pinned order, or allow with the ordering argument";
    let expected = format!(
        "crates/demo/src/lib.rs:4: error[malformed-suppression]: malformed suppression: \
         suppression must carry a reason: lint:allow(rule, reason = \"why this is safe\")\n\
         crates/demo/src/lib.rs:5: error[float-accumulation-order]: {float_msg}\n\
         crates/demo/src/lib.rs:6: error[float-accumulation-order]: {float_msg}\n\
         crates/demo/src/lib.rs:6: error[malformed-suppression]: suppression names unknown rule \
         `not-a-rule` (see `leopard-lint --list-rules`)\n\
         crates/demo/src/lib.rs:11: warning[unused-suppression]: suppression of \
         `float-accumulation-order` matched no diagnostic on line 12; delete it\n"
    );
    assert_eq!(out, expected);
}

#[test]
fn good_allows_fixture_is_clean() {
    assert_eq!(run("good_allows.rs", "crates/demo/src/lib.rs"), "");
    // As a result-path file too, so the relaxed-load rule sees the
    // stressors.
    assert_eq!(run("good_allows.rs", "crates/demo/src/engine.rs"), "");
}

#[test]
fn json_output_round_trips_a_fixture() {
    let src = fixture("bad_float_accum.rs");
    let diags = lint_source("crates/demo/src/lib.rs", &src, &LintConfig::default());
    let json = render_json(&diags);
    assert!(json.contains("\"rule\": \"float-accumulation-order\""));
    assert!(json.contains("\"severity\": \"error\""));
    assert!(json.contains("\"line\": 4"));
}
