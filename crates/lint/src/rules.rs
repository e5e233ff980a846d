//! The rule catalog: the workspace contracts clippy cannot express,
//! each encoded as a named lint.
//!
//! Every rule maps to a clause of the determinism contract documented in
//! `ARCHITECTURE.md`:
//!
//! * [`FLOAT_ACCUMULATION_ORDER`] — float accumulation over par-distributed
//!   collections is order-sensitive and belongs in blessed reduction
//!   helpers with a pinned order.
//! * [`RELAXED_ATOMIC_IN_RESULT_PATH`] — `Ordering::Relaxed` loads may not
//!   feed report values without a documented happens-before argument.
//! * [`OBSERVE_ONLY_TELEMETRY`] — telemetry handles appear only behind
//!   `Option` guards (or in blessed export helpers), never in
//!   result-producing expressions.
//!
//! Two engine-level rules police the suppression mechanism itself:
//! [`MALFORMED_SUPPRESSION`] (every allow must carry a reason) and
//! [`UNUSED_SUPPRESSION`] (allows that suppress nothing must be deleted).
//!
//! The panic, wall-clock and hash-order contracts are clippy lints,
//! configured in the workspace `[lints]` table and `clippy.toml`.

use crate::lex::TokKind;
use crate::model::{FileModel, ForLoop, Region};
use crate::{Diagnostic, LintConfig, Severity};

/// A rule's identity: name, severity, and the contract clause it encodes.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case rule name (used in diagnostics and suppressions).
    pub name: &'static str,
    /// Severity of the rule's findings.
    pub severity: Severity,
    /// One-line description for `--list-rules` and the docs.
    pub description: &'static str,
}

/// Float `+=` in loops over par-distributed data.
pub const FLOAT_ACCUMULATION_ORDER: Rule = Rule {
    name: "float-accumulation-order",
    severity: Severity::Error,
    description: "float += in a loop over par-distributed data: float addition is \
                  order-sensitive, so accumulation order must be pinned by a blessed reduction \
                  helper or a reasoned allow",
};

/// `Ordering::Relaxed` loads in result-path files.
pub const RELAXED_ATOMIC_IN_RESULT_PATH: Rule = Rule {
    name: "relaxed-atomic-in-result-path",
    severity: Severity::Error,
    description: "Ordering::Relaxed load in a result path: a relaxed load feeding a report \
                  value needs a documented happens-before edge (reasoned allow) or a stronger \
                  ordering",
};

/// Telemetry handles outside `Option` guards.
pub const OBSERVE_ONLY_TELEMETRY: Rule = Rule {
    name: "observe-only-telemetry",
    severity: Severity::Error,
    description: "telemetry handle used outside an Option guard: telemetry is observe-only and \
                  may never appear in a result-producing expression — guard with `if let \
                  Some(..)` / `.as_ref().map(..)` or bless the export helper",
};

/// Suppressions missing a reason (or otherwise unparseable).
pub const MALFORMED_SUPPRESSION: Rule = Rule {
    name: "malformed-suppression",
    severity: Severity::Error,
    description: "lint:allow(...) that is unparseable, names an unknown rule, or lacks a \
                  non-empty reason — every suppression must say why the code is safe",
};

/// Suppressions that suppressed nothing.
pub const UNUSED_SUPPRESSION: Rule = Rule {
    name: "unused-suppression",
    severity: Severity::Warn,
    description: "lint:allow(...) that matched no diagnostic — stale allows hide contract \
                  drift and must be deleted",
};

/// Every rule the engine ships, in catalog order.
pub const ALL_RULES: [Rule; 5] = [
    FLOAT_ACCUMULATION_ORDER,
    RELAXED_ATOMIC_IN_RESULT_PATH,
    OBSERVE_ONLY_TELEMETRY,
    MALFORMED_SUPPRESSION,
    UNUSED_SUPPRESSION,
];

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    ALL_RULES.iter().find(|r| r.name == name)
}

fn diag(rule: Rule, path: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line,
        rule: rule.name,
        severity: rule.severity,
        message,
    }
}

/// Runs every rule over one file model and applies its suppressions.
/// `path` is the workspace-relative path with forward slashes.
pub fn check_file(path: &str, model: &FileModel<'_>, config: &LintConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    float_accumulation_order(path, model, config, &mut diags);
    relaxed_atomic_in_result_path(path, model, config, &mut diags);
    observe_only_telemetry(path, model, config, &mut diags);
    apply_suppressions(path, model, &mut diags);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn float_accumulation_order(
    path: &str,
    model: &FileModel<'_>,
    config: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    for lp in &model.loops {
        if !iterates_par_source(model, lp, config) {
            continue;
        }
        for i in lp.body.start..lp.body.end.min(model.tokens.len()) {
            let t = model.tokens[i];
            if t.text != "+=" || model.in_test(i) {
                continue;
            }
            let Some(target) = i.checked_sub(1).and_then(|p| model.tokens.get(p)) else {
                continue;
            };
            if target.kind != TokKind::Ident || !model.float_vars.iter().any(|v| v == target.text) {
                continue;
            }
            if model
                .enclosing_fn(i)
                .is_some_and(|f| config.blessed_reductions.iter().any(|b| b == &f))
            {
                continue;
            }
            diags.push(diag(
                FLOAT_ACCUMULATION_ORDER,
                path,
                t.line,
                format!(
                    "float accumulator `{}` is updated with `+=` in a loop over \
                     par-distributed data; float addition is order-sensitive — reduce in a \
                     blessed helper with a pinned order, or allow with the ordering argument",
                    target.text
                ),
            ));
        }
    }
}

/// Whether a loop's iterated expression mentions a par-distributed source.
fn iterates_par_source(model: &FileModel<'_>, lp: &ForLoop, config: &LintConfig) -> bool {
    let Region { start, end } = lp.iter;
    model.tokens[start..end.min(model.tokens.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && config.par_markers.iter().any(|m| m == &t.text))
}

fn relaxed_atomic_in_result_path(
    path: &str,
    model: &FileModel<'_>,
    config: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if !config.result_path_files.iter().any(|s| path.ends_with(s)) {
        return;
    }
    for (i, t) in model.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "Relaxed" || model.in_test(i) {
            continue;
        }
        // Only loads: `Relaxed` inside the parentheses of a `.load(` call,
        // however the ordering is qualified. Relaxed stores/fetch_adds do
        // not feed report values by themselves.
        if model.inside_call(i, "load") {
            diags.push(diag(
                RELAXED_ATOMIC_IN_RESULT_PATH,
                path,
                t.line,
                "`Ordering::Relaxed` load in a result path; document the happens-before edge \
                 that makes the value exact (reasoned allow) or use an acquiring ordering"
                    .to_string(),
            ));
        }
    }
}

fn observe_only_telemetry(
    path: &str,
    model: &FileModel<'_>,
    config: &LintConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if config.telemetry_exempt.iter().any(|s| path.ends_with(s)) {
        return;
    }
    /// Methods that keep the handle inside its `Option` wrapper (or only
    /// test for presence) and therefore cannot leak telemetry into a
    /// result.
    const SAFE_METHODS: [&str; 9] = [
        "clone",
        "cloned",
        "as_ref",
        "as_deref",
        "map",
        "is_some",
        "is_none",
        "take",
        "unwrap_or",
    ];
    for (i, t) in model.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "telemetry" || model.in_test(i) {
            continue;
        }
        // Skip the declaration side (`telemetry:` struct fields, `let
        // telemetry =` bindings) and find the method chained onto the
        // handle: either `telemetry.method` or `telemetry().method`.
        let mut j = i + 1;
        if model.tokens.get(j).map(|n| n.text) == Some("(")
            && model.tokens.get(j + 1).map(|n| n.text) == Some(")")
        {
            j += 2;
        }
        if model.tokens.get(j).map(|n| n.text) != Some(".") {
            continue;
        }
        let Some(method) = model.tokens.get(j + 1) else {
            continue;
        };
        if method.kind != TokKind::Ident || SAFE_METHODS.contains(&method.text) {
            continue;
        }
        if model
            .enclosing_fn(i)
            .is_some_and(|f| config.blessed_telemetry_fns.iter().any(|b| b == &f))
        {
            continue;
        }
        diags.push(diag(
            OBSERVE_ONLY_TELEMETRY,
            path,
            t.line,
            format!(
                "telemetry handle used via `.{}()` outside an Option guard; telemetry is \
                 observe-only — guard with `if let Some(..)`/`.as_ref().map(..)` or bless the \
                 export helper",
                method.text
            ),
        ));
    }
}

/// Removes diagnostics covered by a well-formed suppression on their line,
/// then reports malformed and unused suppressions.
fn apply_suppressions(path: &str, model: &FileModel<'_>, diags: &mut Vec<Diagnostic>) {
    let mut used = vec![false; model.suppressions.len()];
    diags.retain(|d| {
        for (si, sup) in model.suppressions.iter().enumerate() {
            if sup.problem.is_none()
                && sup.reason.is_some()
                && sup.rule == d.rule
                && sup.target_line == d.line
            {
                used[si] = true;
                return false;
            }
        }
        true
    });
    for (si, sup) in model.suppressions.iter().enumerate() {
        // Test code is never linted, so suppressions that target it are
        // inert — neither enforced nor reported as unused.
        if model.line_in_test(sup.target_line) {
            continue;
        }
        if let Some(problem) = &sup.problem {
            diags.push(diag(
                MALFORMED_SUPPRESSION,
                path,
                sup.line,
                format!("malformed suppression: {problem}"),
            ));
        } else if rule_by_name(&sup.rule).is_none() {
            diags.push(diag(
                MALFORMED_SUPPRESSION,
                path,
                sup.line,
                format!(
                    "suppression names unknown rule `{}` (see `leopard-lint --list-rules`)",
                    sup.rule
                ),
            ));
        } else if !used[si] {
            diags.push(diag(
                UNUSED_SUPPRESSION,
                path,
                sup.line,
                format!(
                    "suppression of `{}` matched no diagnostic on line {}; delete it",
                    sup.rule, sup.target_line
                ),
            ));
        }
    }
}
