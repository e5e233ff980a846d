//! The structural pass: turns the flat token stream into the file model
//! the rules consume — `#[cfg(test)]` regions, enclosing-function names,
//! `for`-loop spans, float accumulator declarations, and parsed
//! `// lint:allow(...)` suppressions with their target lines.

use crate::lex::{lex, Comment, Lexed, Tok, TokKind};

/// A contiguous token region (`start..end` token indices, end exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First token index of the region.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Region {
    fn contains(&self, idx: usize) -> bool {
        (self.start..self.end).contains(&idx)
    }
}

/// A named function's body region.
#[derive(Debug, Clone)]
pub struct FnRegion {
    /// The function's name.
    pub name: String,
    /// Body token region (including the braces).
    pub body: Region,
}

/// One `for PAT in EXPR { BODY }` loop.
#[derive(Debug, Clone, Copy)]
pub struct ForLoop {
    /// Token region of the iterated expression (between `in` and `{`).
    pub iter: Region,
    /// Token region of the loop body (including the braces).
    pub body: Region,
}

/// One parsed `// lint:allow(rule, reason = "...")` suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule name inside the parentheses (may be unknown — the
    /// `malformed-suppression` rule reports that).
    pub rule: String,
    /// The quoted reason, when present and non-empty.
    pub reason: Option<String>,
    /// Line the comment starts on.
    pub line: u32,
    /// Line the suppression applies to (its own line for trailing
    /// comments, the next code line for standalone ones).
    pub target_line: u32,
    /// A parse problem, when the suppression is malformed.
    pub problem: Option<String>,
}

/// Everything the rules need to know about one file.
pub struct FileModel<'a> {
    /// The lexed token stream.
    pub tokens: Vec<Tok<'a>>,
    /// Regions under `#[cfg(test)]` (test modules and test functions).
    pub test_regions: Vec<Region>,
    /// Named function bodies, outermost first.
    pub fns: Vec<FnRegion>,
    /// `for ... in ... { }` loops.
    pub loops: Vec<ForLoop>,
    /// Names of `let mut` bindings initialized as floats (`= 0.0`,
    /// `: f64`, `: f32`) — candidate order-sensitive accumulators.
    pub float_vars: Vec<String>,
    /// Parsed `lint:allow` suppressions.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileModel<'a> {
    /// Builds the model for one source file.
    pub fn build(src: &'a str) -> Self {
        let Lexed { tokens, comments } = lex(src);
        let mut model = FileModel {
            tokens,
            test_regions: Vec::new(),
            fns: Vec::new(),
            loops: Vec::new(),
            float_vars: Vec::new(),
            suppressions: Vec::new(),
        };
        model.walk();
        model.collect_suppressions(&comments);
        model
    }

    /// Whether the token at `idx` is inside a `#[cfg(test)]` region.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(idx))
    }

    /// Whether the first code token on `line` falls inside a
    /// `#[cfg(test)]` region (used to ignore suppressions in test code,
    /// where no rule fires).
    pub fn line_in_test(&self, line: u32) -> bool {
        self.tokens
            .iter()
            .position(|t| t.line == line)
            .is_some_and(|i| self.in_test(i))
    }

    /// Name of the innermost named function containing token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(idx))
            .min_by_key(|f| f.body.end - f.body.start)
            .map(|f| f.name.as_str())
    }

    /// Whether the token at `idx` sits inside the parentheses of a
    /// `.name(...)` method call, at any nesting depth.
    pub(crate) fn inside_call(&self, idx: usize, name: &str) -> bool {
        let mut depth = 0usize;
        for open in (0..idx.min(self.tokens.len())).rev() {
            match self.tokens[open].text {
                ")" => depth += 1,
                "(" if depth > 0 => depth -= 1,
                "(" if open >= 2
                    && self.text_at(open - 1) == name
                    && self.text_at(open - 2) == "." =>
                {
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// The single structural walk: brace tracking plus region extraction.
    fn walk(&mut self) {
        enum Open {
            Test,
            Fn(String),
            Other,
        }
        let mut stack: Vec<(Open, usize)> = Vec::new();
        let mut pending_test = false;
        let mut pending_fn: Option<String> = None;
        let mut i = 0usize;
        while i < self.tokens.len() {
            let t = self.tokens[i];
            match (t.kind, t.text) {
                (TokKind::Punct, "#") if self.text_at(i + 1) == "[" => {
                    let end = self.matching(i + 1, "[", "]");
                    let group = &self.tokens[i + 1..end.min(self.tokens.len())];
                    let has = |w: &str| {
                        group
                            .iter()
                            .any(|g| g.kind == TokKind::Ident && g.text == w)
                    };
                    if has("cfg") && has("test") {
                        pending_test = true;
                    }
                    i = end;
                }
                (TokKind::Ident, "fn") => {
                    if let Some(name) = self.tokens.get(i + 1) {
                        if name.kind == TokKind::Ident {
                            pending_fn = Some(name.text.to_string());
                        }
                    }
                    i += 1;
                }
                (TokKind::Ident, "for") if self.text_at(i + 1) != "<" => {
                    if let Some(lp) = self.scan_for_loop(i) {
                        self.loops.push(lp);
                    }
                    i += 1;
                }
                (TokKind::Ident, "let") => {
                    if let Some(name) = self.scan_float_let(i) {
                        self.float_vars.push(name);
                    }
                    i += 1;
                }
                (TokKind::Punct, "{") => {
                    let open = if pending_test {
                        Open::Test
                    } else if let Some(name) = pending_fn.take() {
                        Open::Fn(name)
                    } else {
                        Open::Other
                    };
                    // A `#[cfg(test)] fn` opens one region covering the fn.
                    pending_test = false;
                    pending_fn = None;
                    stack.push((open, i));
                    i += 1;
                }
                (TokKind::Punct, "}") => {
                    if let Some((open, start)) = stack.pop() {
                        let body = Region { start, end: i + 1 };
                        match open {
                            Open::Test => self.test_regions.push(body),
                            Open::Fn(name) => self.fns.push(FnRegion { name, body }),
                            Open::Other => {}
                        }
                    }
                    i += 1;
                }
                (TokKind::Punct, ";") => {
                    // An item that ends without braces consumes pending
                    // attributes (`#[cfg(test)] use helpers;`) and trait
                    // method declarations consume the pending fn name.
                    pending_test = false;
                    pending_fn = None;
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    fn text_at(&self, idx: usize) -> &str {
        self.tokens.get(idx).map_or("", |t| t.text)
    }

    /// Index one past the token matching `open` at `open_idx`.
    fn matching(&self, open_idx: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut i = open_idx;
        while i < self.tokens.len() {
            let text = self.tokens[i].text;
            if text == open {
                depth += 1;
            } else if text == close {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        self.tokens.len()
    }

    /// Parses `for PAT in EXPR {` starting at the `for` token. Returns
    /// `None` for `impl Trait for Type` (no `in` before the brace).
    fn scan_for_loop(&self, for_idx: usize) -> Option<ForLoop> {
        let mut i = for_idx + 1;
        let mut nest = 0i32;
        let mut in_idx = None;
        while i < self.tokens.len() && i < for_idx + 64 {
            let text = self.tokens[i].text;
            match text {
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "{" if nest == 0 => break,
                ";" if nest == 0 => return None,
                "in" if nest == 0 && self.tokens[i].kind == TokKind::Ident => {
                    in_idx = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let in_idx = in_idx?;
        // The iterated expression runs to the body's opening brace.
        let mut j = in_idx + 1;
        let mut nest = 0i32;
        while j < self.tokens.len() {
            match self.tokens[j].text {
                "(" | "[" => nest += 1,
                ")" | "]" => nest -= 1,
                "{" if nest == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= self.tokens.len() {
            return None;
        }
        Some(ForLoop {
            iter: Region {
                start: in_idx + 1,
                end: j,
            },
            body: Region {
                start: j,
                end: self.matching(j, "{", "}"),
            },
        })
    }

    /// Matches `let mut NAME (= <float literal> | : f64/f32)` starting at
    /// the `let` token and returns `NAME`.
    fn scan_float_let(&self, let_idx: usize) -> Option<String> {
        if self.text_at(let_idx + 1) != "mut" {
            return None;
        }
        let name = self.tokens.get(let_idx + 2)?;
        if name.kind != TokKind::Ident {
            return None;
        }
        let is_float = match self.text_at(let_idx + 3) {
            ":" => matches!(self.text_at(let_idx + 4), "f64" | "f32"),
            "=" => {
                let init = self.tokens.get(let_idx + 4)?;
                init.kind == TokKind::Num
                    && (init.text.contains('.')
                        || init.text.ends_with("f64")
                        || init.text.ends_with("f32"))
            }
            _ => false,
        };
        is_float.then(|| name.text.to_string())
    }

    /// Parses `lint:allow(...)` suppressions out of the comment list and
    /// resolves each one's target line.
    fn collect_suppressions(&mut self, comments: &[Comment<'a>]) {
        for comment in comments {
            // Doc comments are rendered documentation: an allow marker
            // mentioned there (for example in this engine's own docs) is
            // prose, not a suppression. Suppressions live in plain
            // comments.
            let is_doc = comment.text.starts_with("///")
                || comment.text.starts_with("//!")
                || comment.text.starts_with("/**")
                || comment.text.starts_with("/*!");
            if is_doc {
                continue;
            }
            let Some(at) = comment.text.find("lint:allow(") else {
                continue;
            };
            let body = &comment.text[at + "lint:allow(".len()..];
            let mut sup = parse_suppression_body(body);
            sup.line = comment.line;
            sup.target_line = if comment.trailing {
                comment.line
            } else {
                // First code line at or below the comment.
                self.tokens
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > comment.line)
                    .unwrap_or(comment.line)
            };
            self.suppressions.push(sup);
        }
    }
}

/// Parses the text after `lint:allow(`: `RULE [, reason = "..."] )`.
fn parse_suppression_body(body: &str) -> Suppression {
    let mut sup = Suppression {
        rule: String::new(),
        reason: None,
        line: 0,
        target_line: 0,
        problem: None,
    };
    let rule_end = body.find([',', ')']).unwrap_or(body.len());
    sup.rule = body[..rule_end].trim().to_string();
    if sup.rule.is_empty() {
        sup.problem = Some("missing rule name".to_string());
        return sup;
    }
    let rest = body[rule_end..].trim_start();
    if let Some(rest) = rest.strip_prefix(',') {
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("reason") else {
            sup.problem = Some("expected `reason = \"...\"` after the rule name".to_string());
            return sup;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('=') else {
            sup.problem = Some("expected `=` after `reason`".to_string());
            return sup;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('"') else {
            sup.problem = Some("reason must be a quoted string".to_string());
            return sup;
        };
        match rest.find('"') {
            Some(end) if !rest[..end].trim().is_empty() => {
                sup.reason = Some(rest[..end].to_string());
            }
            Some(_) => {
                sup.problem = Some("reason must not be empty".to_string());
            }
            None => {
                sup.problem = Some("unterminated reason string".to_string());
            }
        }
    } else if rest.starts_with(')') || rest.is_empty() {
        sup.problem = Some(
            "suppression must carry a reason: lint:allow(rule, reason = \"why this is safe\")"
                .to_string(),
        );
    } else {
        sup.problem = Some("expected `,` or `)` after the rule name".to_string());
    }
    sup
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_modules_and_fns() {
        let src = r#"
fn library() { work(); }
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); }
}
#[cfg(test)]
fn standalone_test_helper() { y.unwrap(); }
fn also_library() {}
"#;
        let model = FileModel::build(src);
        let unwraps: Vec<usize> = model
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "unwrap")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(unwraps.iter().all(|&i| model.in_test(i)));
        let lib_work = model
            .tokens
            .iter()
            .position(|t| t.text == "work")
            .expect("token present");
        assert!(!model.in_test(lib_work));
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse helpers;\nfn lib() { a.unwrap(); }";
        let model = FileModel::build(src);
        let unwrap = model
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("token present");
        assert!(!model.in_test(unwrap));
    }

    #[test]
    fn enclosing_fn_resolves_innermost() {
        let src = "fn outer() { fn inner() { body(); } tail(); }";
        let model = FileModel::build(src);
        let body = model
            .tokens
            .iter()
            .position(|t| t.text == "body")
            .expect("token present");
        let tail = model
            .tokens
            .iter()
            .position(|t| t.text == "tail")
            .expect("token present");
        assert_eq!(model.enclosing_fn(body), Some("inner"));
        assert_eq!(model.enclosing_fn(tail), Some("outer"));
    }

    #[test]
    fn for_loops_are_detected_but_impl_for_is_not() {
        let src = r#"
impl Display for Thing { fn fmt(&self) {} }
fn f(shards: Vec<u8>) { for s in shards.iter() { use_it(s); } }
"#;
        let model = FileModel::build(src);
        assert_eq!(model.loops.len(), 1);
        let iter = model.loops[0].iter;
        let texts: Vec<&str> = model.tokens[iter.start..iter.end]
            .iter()
            .map(|t| t.text)
            .collect();
        assert!(texts.contains(&"shards"));
    }

    #[test]
    fn float_accumulator_declarations_are_recorded() {
        let src = "fn f() { let mut total = 0.0; let mut t2: f64 = x; let mut n = 0; let mut y = 1.5f32; }";
        let model = FileModel::build(src);
        assert_eq!(model.float_vars, vec!["total", "t2", "y"]);
    }

    #[test]
    fn suppression_parsing_accepts_well_formed_and_flags_the_rest() {
        let ok = parse_suppression_body("panic-in-library, reason = \"lock poisoning is fatal\")");
        assert_eq!(ok.rule, "panic-in-library");
        assert_eq!(ok.reason.as_deref(), Some("lock poisoning is fatal"));
        assert!(ok.problem.is_none());

        let missing = parse_suppression_body("panic-in-library)");
        assert!(missing
            .problem
            .as_deref()
            .is_some_and(|p| p.contains("reason")));

        let empty = parse_suppression_body("panic-in-library, reason = \"  \")");
        assert!(empty.problem.is_some());

        let unquoted = parse_suppression_body("rule, reason = bare)");
        assert!(unquoted.problem.is_some());

        let unterminated = parse_suppression_body("rule, reason = \"runs off");
        assert!(unterminated.problem.is_some());

        let no_rule = parse_suppression_body(", reason = \"x\")");
        assert!(no_rule.problem.is_some());
    }

    #[test]
    fn doc_comments_mentioning_lint_allow_are_prose() {
        let src = "/// Write `// lint:allow(rule, reason = \"...\")` to suppress.\n\
                   //! Module docs may mention lint:allow( too.\n\
                   fn f() {}\n\
                   // lint:allow(real-rule, reason = \"plain comments still count\")\n\
                   g();";
        let model = FileModel::build(src);
        assert_eq!(model.suppressions.len(), 1);
        assert_eq!(model.suppressions[0].rule, "real-rule");
    }

    #[test]
    fn suppression_targets_trailing_and_next_line() {
        let src = "first(); // lint:allow(rule-a, reason = \"same line\")\n\
                   // lint:allow(rule-b, reason = \"next code line\")\n\
                   \n\
                   second();";
        let model = FileModel::build(src);
        assert_eq!(model.suppressions.len(), 2);
        assert_eq!(model.suppressions[0].target_line, 1);
        assert_eq!(model.suppressions[1].target_line, 4);
    }
}
