//! Tier-1 contract gates, so a plain `cargo test` catches what CI's
//! static checks would. `leopard-lint` checks float accumulation order,
//! relaxed loads and observe-only telemetry: the workspace must be clean,
//! as under CI's `leopard-lint . --deny`. Clippy checks panics, wall-clock
//! reads and hash order; `cargo test` cannot run it, so this checks that
//! the policy CI's clippy step enforces is still configured, and that no
//! inner attribute in library or binary code switches it off.

use leopard::lint::lex::{lex, TokKind};
use leopard::lint::{lint_workspace, render_text, workspace_files, LintConfig};
use std::fs;
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = lint_workspace(root, &LintConfig::default())
        .unwrap_or_else(|e| panic!("workspace walk failed: {e}"));
    assert!(
        diags.is_empty(),
        "leopard-lint found contract violations:\n{}",
        render_text(&diags)
    );
}

#[test]
fn clippy_contract_policy_is_configured() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| fs::read_to_string(root.join(path)).expect(path);
    let manifest = read("Cargo.toml");
    let table = manifest
        .split_once("[workspace.lints.clippy]\n")
        .map(|(_, rest)| rest.split("\n[").next().unwrap_or(rest))
        .expect("Cargo.toml has a [workspace.lints.clippy] table");
    let enabled: Vec<&str> = table
        .lines()
        .filter(|line| line.ends_with("= \"warn\"") || line.ends_with("= \"deny\""))
        .filter_map(|line| line.split(" = ").next())
        .collect();
    let lints = "unwrap_used expect_used panic disallowed_methods disallowed_types \
                 allow_attributes allow_attributes_without_reason";
    for lint in lints.split_whitespace() {
        assert!(
            enabled.contains(&lint),
            "the workspace lint table does not enable clippy::{lint}"
        );
    }
    let clippy = read("clippy.toml");
    let paths = "std::time::Instant::now std::time::SystemTime std::collections::HashMap \
                 std::collections::HashSet";
    for path in paths.split_whitespace() {
        assert!(
            clippy.contains(&format!("path = \"{path}\"")),
            "clippy.toml does not disallow {path}"
        );
    }
    // The root package, then every workspace member.
    let members = manifest
        .lines()
        .filter_map(|line| line.trim().strip_prefix("\"crates/"));
    for dir in [""]
        .into_iter()
        .chain(members.map(|m| m.trim_end_matches("\",")))
    {
        let path = match dir {
            "" => "Cargo.toml".to_string(),
            dir => format!("crates/{dir}/Cargo.toml"),
        };
        let opts_in = read(&path).contains("\n[lints]\nworkspace = true\n");
        let stand_in = matches!(dir, "rand" | "proptest");
        assert_eq!(
            opts_in, !stand_in,
            "{path}: only the offline stand-ins skip the lint table"
        );
    }
}

/// Lines of inner `#![allow(…)]`/`#![expect(…)]` attributes (also under
/// `cfg_attr`) that name a clippy contract lint, a group holding one, or
/// `warnings`. Clippy's `allow_attributes` sees only outer attributes,
/// and an inner one silences its lint for the whole file or module.
fn inner_contract_allows(src: &str) -> Vec<u32> {
    let tokens = lex(src).tokens;
    let mut lines = Vec::new();
    for (i, w) in tokens.windows(3).enumerate() {
        if [w[0].text, w[1].text, w[2].text] != ["#", "!", "["] {
            continue;
        }
        // The attribute's words, up to its closing bracket.
        let mut depth = 0;
        let words: Vec<&str> = tokens[i + 2..]
            .iter()
            .take_while(|t| {
                match t.text {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                depth > 0
            })
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect();
        let silences = words.iter().any(|w| matches!(*w, "allow" | "expect"));
        let named = "unwrap_used expect_used panic restriction style all warnings";
        let contract = words
            .iter()
            .any(|w| w.starts_with("disallowed_") || named.split_whitespace().any(|n| n == *w));
        if silences && contract {
            lines.push(w[0].line);
        }
    }
    lines
}

#[test]
fn no_inner_attribute_silences_a_clippy_contract() {
    let fixture = include_str!("fixtures/lint/bad_inner_allow.rs");
    assert_eq!(inner_contract_allows(fixture), [3, 4, 8, 9]);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = workspace_files(root, &LintConfig::default())
        .unwrap_or_else(|e| panic!("workspace walk failed: {e}"));
    for (rel, abs) in files {
        let src = fs::read_to_string(&abs).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let lines = inner_contract_allows(&src);
        assert!(
            lines.is_empty(),
            "{rel}:{lines:?}: an inner allow/expect switches a clippy contract off for the whole \
             file; put a reasoned #[expect] on the item or statement instead"
        );
    }
}
