//! `leopard-lint` — the checker for the contracts clippy cannot express.
//!
//! Clippy, configured by the workspace `[lints]` table and `clippy.toml`,
//! checks the panic (`unwrap_used`, `expect_used`, `panic`), wall-clock
//! (`disallowed_methods`/`disallowed_types` on `Instant::now` and
//! `SystemTime`) and hash-order (`HashMap`, `HashSet`) contracts; their
//! exceptions are `#[expect(clippy::…, reason = "…")]` attributes. This
//! crate checks the rest: float accumulation order, relaxed loads in
//! result paths and observe-only telemetry. A std-only lexer ([`lex`])
//! and a structural pass ([`model`]) feed the rule engine ([`rules`]):
//!
//! 1. [`lex::lex`] — string/char/comment-aware tokenization, so words like
//!    `telemetry` inside strings or doc examples never trip a rule;
//! 2. [`model::FileModel::build`] — `#[cfg(test)]`-region tracking,
//!    enclosing-function resolution, `for`-loop spans, float-accumulator
//!    declarations, and parsed `// lint:allow(rule, reason = "...")`
//!    suppressions;
//! 3. [`rules::check_file`] — the rule catalog ([`rules::ALL_RULES`]),
//!    scoped by a [`LintConfig`] that names the workspace's blessed
//!    helpers and exempt files.
//!
//! Suppressions must carry a reason; reasonless or unparseable allows are
//! themselves diagnostics (`malformed-suppression`), as are allows that
//! suppress nothing (`unused-suppression`). Run `leopard-lint --deny` to
//! treat warnings as fatal — that is how CI runs it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod lex;
pub mod model;
pub mod rules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: fails the run only under `--deny`.
    Warn,
    /// Contract violation: always fails the run.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: where, which rule, how serious, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The rule's stable name.
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable explanation with the fix or allow guidance.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.path, self.line, self.severity, self.rule, self.message
        )
    }
}

/// The workspace policy: which files are exempt from which rules and which
/// helper functions are blessed. The [`LintConfig::default`] values encode
/// this repository's contracts; tests construct narrower configs to
/// exercise individual rules.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path suffixes of result-path files, where `Ordering::Relaxed`
    /// loads may feed report values and therefore need justification.
    pub result_path_files: Vec<&'static str>,
    /// Path suffixes exempt from the observe-only rule (the telemetry
    /// implementation itself).
    pub telemetry_exempt: Vec<&'static str>,
    /// Functions allowed to consume telemetry handles directly (export
    /// helpers that run after the measured region).
    pub blessed_telemetry_fns: Vec<&'static str>,
    /// Identifiers that mark an iterated collection as par-distributed
    /// (shards, worker outputs, per-head partials).
    pub par_markers: Vec<&'static str>,
    /// Reduction helpers whose accumulation order is pinned by contract
    /// and test, so float `+=` inside them is legal.
    pub blessed_reductions: Vec<&'static str>,
    /// Workspace-relative path prefixes never linted: the offline
    /// stand-in crates emulate external dependencies and do not carry
    /// this repository's contracts.
    pub excluded_prefixes: Vec<&'static str>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            result_path_files: vec![
                "src/cache.rs",
                "src/engine.rs",
                "src/serving.rs",
                "src/report.rs",
            ],
            telemetry_exempt: vec!["src/telemetry.rs"],
            blessed_telemetry_fns: vec!["write_telemetry_outputs"],
            par_markers: vec!["shards", "workers", "head_workloads", "partials"],
            blessed_reductions: vec!["merge_shards"],
            excluded_prefixes: vec!["crates/rand", "crates/proptest"],
        }
    }
}

/// Lints one source file. `path` is the workspace-relative path (forward
/// slashes); it scopes the path-sensitive rules.
pub fn lint_source(path: &str, src: &str, config: &LintConfig) -> Vec<Diagnostic> {
    let model = model::FileModel::build(src);
    rules::check_file(path, &model, config)
}

/// Collects the workspace `.rs` files to lint, as
/// `(workspace-relative path, absolute path)` pairs in sorted order.
///
/// A file is linted when it sits under a `src/` directory component and is
/// not inside an excluded prefix (the offline stand-in crates) or a build
/// directory. Test directories (`tests/`, `examples/`, `benches/`) are
/// library-external by definition and are skipped.
pub fn workspace_files(root: &Path, config: &LintConfig) -> Result<Vec<(String, PathBuf)>, String> {
    let mut files = Vec::new();
    visit(root, String::new(), config, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn visit(
    dir: &Path,
    rel: String,
    config: &LintConfig,
    files: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        if let Some(name) = entry.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    names.sort();
    for name in names {
        let child_rel = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        if config
            .excluded_prefixes
            .iter()
            .any(|p| child_rel == *p || child_rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        let child = dir.join(&name);
        if child.is_dir() {
            if matches!(name.as_str(), "target" | ".git" | ".github") {
                continue;
            }
            visit(&child, child_rel, config, files)?;
        } else if name.ends_with(".rs") && child_rel.split('/').any(|c| c == "src") {
            files.push((child_rel, child));
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`; diagnostics come back in
/// deterministic `(path, line, rule)` order.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for (rel, abs) in workspace_files(root, config)? {
        let src = fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
        diags.extend(lint_source(&rel, &src, config));
    }
    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    Ok(diags)
}

/// Renders diagnostics as line-oriented text, one finding per line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Renders diagnostics as a JSON array (deterministic key order), for the
/// CI step and machine consumers.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"path\": \"{}\", ", escape_json(&d.path)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"rule\": \"{}\", ", escape_json(d.rule)));
        out.push_str(&format!("\"severity\": \"{}\", ", d.severity.as_str()));
        out.push_str(&format!("\"message\": \"{}\"", escape_json(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// The lint crate has no dependencies, so it keeps its own copy of the
/// runtime's JSON string escaper.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(escape_json(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_json("x\ny"), "x\\ny");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn render_json_is_valid_and_deterministic() {
        let diags = vec![Diagnostic {
            path: "a.rs".to_string(),
            line: 3,
            rule: "float-accumulation-order",
            severity: Severity::Warn,
            message: "say \"why\"".to_string(),
        }];
        let json = render_json(&diags);
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\\\"why\\\""));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(render_json(&[]), "[]\n");
    }

    #[test]
    fn default_config_exempts_stand_in_crates() {
        let config = LintConfig::default();
        assert_eq!(
            config.excluded_prefixes,
            ["crates/rand", "crates/proptest"],
            "exactly the two stand-in crates are exempt"
        );
    }
}
