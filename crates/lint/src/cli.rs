//! The `leopard-lint` command line: argument parsing, output, exit codes.
//!
//! ```text
//! leopard-lint [ROOT] [--deny] [--json] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean (warnings are tolerated unless `--deny`), `1`
//! findings, `2` usage or I/O error.

use std::path::PathBuf;

use crate::{lint_workspace, render_json, render_text, rules, LintConfig, Severity};

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    deny: bool,
    json: bool,
    list_rules: bool,
}

const USAGE: &str = "usage: leopard-lint [ROOT] [--deny] [--json] [--list-rules]

Statically checks the workspace contracts clippy cannot express: float
accumulation order, relaxed loads in result paths and observe-only
telemetry. Clippy checks the panic, wall-clock and hash-order contracts
(see the workspace [lints] table and clippy.toml). ROOT defaults to the
current directory.

  --deny         treat warnings as errors (how CI runs it)
  --json         emit diagnostics as a JSON array on stdout
  --list-rules   print the rule catalog and exit
  --help         show this message";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    for arg in args {
        match arg.as_str() {
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => {
                if opts.root.is_some() {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                opts.root = Some(PathBuf::from(path));
            }
        }
    }
    Ok(opts)
}

/// Runs the linter; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return 0;
            }
            eprintln!("error: {message}\n{USAGE}");
            return 2;
        }
    };
    if opts.list_rules {
        for rule in rules::ALL_RULES {
            println!(
                "{} [{}]\n    {}",
                rule.name, rule.severity, rule.description
            );
        }
        println!("panic, wall-clock and hash-order contracts: clippy ([lints] table, clippy.toml)");
        return 0;
    }
    let root = opts.root.unwrap_or_else(|| PathBuf::from("."));
    let config = LintConfig::default();
    let diags = match lint_workspace(&root, &config) {
        Ok(diags) => diags,
        Err(message) => {
            eprintln!("error: {message}");
            return 2;
        }
    };
    if opts.json {
        print!("{}", render_json(&diags));
    } else {
        print!("{}", render_text(&diags));
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    eprintln!(
        "leopard-lint: {errors} error{}, {warnings} warning{}{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
        if opts.deny && warnings > 0 {
            " (warnings denied)"
        } else {
            ""
        }
    );
    if errors > 0 || (opts.deny && warnings > 0) {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_flags_and_one_root() {
        let opts = parse(&args(&["--deny", "some/dir", "--json"])).expect("parses");
        assert!(opts.deny && opts.json && !opts.list_rules);
        assert_eq!(opts.root.as_deref(), Some(std::path::Path::new("some/dir")));
    }

    #[test]
    fn parse_rejects_unknown_flags_and_extra_roots() {
        assert!(parse(&args(&["--nope"])).is_err());
        assert!(parse(&args(&["a", "b"])).is_err());
    }
}
