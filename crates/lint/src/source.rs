//! Per-file lexical model: tokens plus the light item-level structure the
//! rules need — `#[cfg(test)]` regions, `fn` spans, and the in-source
//! allow grammar.
//!
//! ## Allow grammar
//!
//! ```text
//! // lint:allow(<rule>) <reason>
//! ```
//!
//! * On a line **with code**: suppresses findings of `<rule>` on that line.
//! * On a line **of its own**: suppresses findings of `<rule>` on the next
//!   code line — and when that line starts an *item* (`fn`, `impl`,
//!   `struct`, …, possibly behind attributes), on the whole item.
//!
//! The reason is mandatory; a missing reason or an unknown rule name is
//! itself a finding (`allow-grammar`) that no baseline can absorb.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::rules::RULE_NAMES;
use crate::Finding;

/// An allow directive with its computed suppression span.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Rule this directive suppresses.
    pub rule: String,
    /// Mandatory free-form justification.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Inclusive line range the suppression covers.
    pub span: (u32, u32),
}

/// One lexed source file plus its item-level structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Token stream (comments stripped).
    pub toks: Vec<Tok>,
    /// Allow directives with computed spans.
    pub allows: Vec<Allow>,
    /// Malformed allow directives (reported as `allow-grammar` findings).
    pub grammar_errors: Vec<Finding>,
    /// Inclusive line ranges compiled only under `#[cfg(test)]`/`#[test]`.
    pub test_ranges: Vec<(u32, u32)>,
    /// Module names declared as `#[cfg(test)] mod <name>;` (out-of-line
    /// test files the walker must drop entirely).
    pub test_mod_decls: Vec<String>,
    /// `fn` items: (name, first token index, inclusive line range).
    pub fns: Vec<(String, usize, (u32, u32))>,
    /// `///` and `//!` doc comments: (line, text after the `//`).
    pub docs: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes and indexes one file.
    pub fn parse(rel: String, text: &str) -> SourceFile {
        let (toks, comments) = lex(text);
        let mut f = SourceFile {
            rel,
            toks,
            allows: Vec::new(),
            grammar_errors: Vec::new(),
            test_ranges: Vec::new(),
            test_mod_decls: Vec::new(),
            fns: Vec::new(),
            docs: comments.iter().filter(|c| c.doc).map(|c| (c.line, c.text.clone())).collect(),
        };
        f.index_test_items();
        f.index_fns();
        f.index_allows(&comments);
        f
    }

    /// True when `line` is inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// True when a `lint:allow(rule)` span covers `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.span.0..=a.span.1).contains(&line))
    }

    /// Name of the innermost `fn` containing `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&str> {
        self.fns
            .iter()
            .filter(|(_, _, (a, b))| (*a..=*b).contains(&line))
            .max_by_key(|(_, start, _)| *start)
            .map(|(name, _, _)| name.as_str())
    }

    /// Index of the first token at a line strictly after `line`.
    fn first_tok_after_line(&self, line: u32) -> Option<usize> {
        self.toks.iter().position(|t| t.line > line)
    }

    /// Inclusive end line of the item starting at token `i` (see
    /// [`item_end_index`]).
    fn item_end_line(&self, i: usize) -> u32 {
        let end = item_end_index(&self.toks, i);
        self.toks.get(end).or_else(|| self.toks.last()).map_or(0, |t| t.line)
    }

    fn index_test_items(&mut self) {
        let toks = &self.toks;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                let close = matching_bracket(toks, i + 1);
                let inner = &toks[i + 2..close.min(toks.len())];
                let is_test_attr = match inner.first() {
                    Some(t) if t.is_ident("cfg") => inner.iter().any(|t| t.is_ident("test")),
                    Some(t) if t.is_ident("test") => inner.len() == 1,
                    _ => false,
                };
                if is_test_attr {
                    // Skip any further attributes, then take the item.
                    let mut j = close + 1;
                    while j < toks.len()
                        && toks[j].is_punct('#')
                        && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                    {
                        j = matching_bracket(toks, j + 1) + 1;
                    }
                    if j < toks.len() {
                        // `#[cfg(test)] mod name;` → out-of-line test file.
                        if toks[j].is_ident("mod")
                            && toks.get(j + 1).map(|t| t.kind) == Some(TokKind::Ident)
                            && toks.get(j + 2).is_some_and(|t| t.is_punct(';'))
                        {
                            self.test_mod_decls.push(toks[j + 1].text.clone());
                        }
                        let end = self.item_end_line(j);
                        self.test_ranges.push((toks[i].line, end));
                        i = item_end_index(toks, j);
                    }
                }
                i = i.max(close) + 1;
                continue;
            }
            i += 1;
        }
    }

    fn index_fns(&mut self) {
        let toks = &self.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") {
                continue;
            }
            let Some(name_tok) = toks.get(i + 1) else { continue };
            if name_tok.kind != TokKind::Ident {
                continue;
            }
            // Find the body: first `{` at bracket depth 0 (or `;` for a
            // bodyless trait/extern declaration).
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut body: Option<usize> = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('{') {
                    body = Some(j);
                    break;
                } else if depth == 0 && t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                let close = matching_brace(toks, open);
                let end_line = toks.get(close).or_else(|| toks.last()).map_or(0, |t| t.line);
                self.fns
                    .push((name_tok.text.clone(), i, (toks[i].line, end_line)));
            }
        }
    }

    fn index_allows(&mut self, comments: &[Comment]) {
        for c in comments.iter().filter(|c| !c.doc) {
            let text = c.text.trim();
            let Some(rest) = text.strip_prefix("lint:allow(") else {
                // A half-remembered spelling silently doing nothing would
                // be worse than an error.
                if text.starts_with("lint:allow") || text.starts_with("lint: allow") {
                    self.grammar_errors.push(Finding::grammar(
                        &self.rel,
                        c.line,
                        "malformed allow: expected `lint:allow(<rule>) reason`".to_string(),
                    ));
                }
                continue;
            };
            let Some(close) = rest.find(')') else {
                self.grammar_errors.push(Finding::grammar(
                    &self.rel,
                    c.line,
                    "malformed allow: missing `)` after rule name".to_string(),
                ));
                continue;
            };
            let rule = rest[..close].trim().to_string();
            let reason = rest[close + 1..].trim().to_string();
            if !RULE_NAMES.contains(&rule.as_str()) {
                self.grammar_errors.push(Finding::grammar(
                    &self.rel,
                    c.line,
                    format!("unknown rule `{rule}` in lint:allow"),
                ));
                continue;
            }
            if reason.is_empty() {
                self.grammar_errors.push(Finding::grammar(
                    &self.rel,
                    c.line,
                    format!("lint:allow({rule}) requires a reason"),
                ));
                continue;
            }
            let span = if c.own_line {
                match self.first_tok_after_line(c.line) {
                    Some(mut j) => {
                        let start_line = self.toks[j].line;
                        // Attributes belong to the item they decorate.
                        while j < self.toks.len()
                            && self.toks[j].is_punct('#')
                            && self.toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                        {
                            j = matching_bracket(&self.toks, j + 1) + 1;
                        }
                        let is_item = self.toks.get(j).is_some_and(|t| {
                            t.kind == TokKind::Ident
                                && matches!(
                                    t.text.as_str(),
                                    "pub" | "fn" | "impl" | "struct" | "enum" | "mod"
                                        | "trait" | "const" | "static" | "type" | "macro_rules"
                                )
                        });
                        if is_item {
                            (start_line, self.item_end_line(j))
                        } else {
                            (start_line, start_line)
                        }
                    }
                    None => (c.line, c.line),
                }
            } else {
                (c.line, c.line)
            };
            self.allows.push(Allow { rule, reason, line: c.line, span });
        }
    }
}

/// Token index of the end of the item starting at `i`: the matching `}` of
/// the first base-depth `{`, or the first base-depth `;` if no brace opens
/// (declarations like `mod tests;`).
pub fn item_end_index(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return matching_brace(toks, j);
        } else if depth == 0 && t.is_punct(';') {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::parse("x.rs".to_string(), text)
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        assert!(!f.in_test(1));
        assert!(f.in_test(3));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn out_of_line_test_mod_is_recorded() {
        let f = file("#[cfg(test)]\nmod tests;\nfn a() {}\n");
        assert_eq!(f.test_mod_decls, vec!["tests".to_string()]);
        assert!(!f.in_test(3));
    }

    #[test]
    fn own_line_allow_covers_the_next_item() {
        let f = file(
            "// lint:allow(hot-alloc) cold construction path\npub fn new() {\n    let v = 1;\n}\nfn other() {}\n",
        );
        assert!(f.allowed("hot-alloc", 2));
        assert!(f.allowed("hot-alloc", 3));
        assert!(!f.allowed("hot-alloc", 5));
    }

    #[test]
    fn same_line_allow_covers_only_that_line() {
        let f = file("let a = 1; // lint:allow(error-typing) test scaffolding\nlet b = 2;\n");
        assert!(f.allowed("error-typing", 1));
        assert!(!f.allowed("error-typing", 2));
    }

    #[test]
    fn allow_without_reason_or_with_unknown_rule_is_a_grammar_error() {
        let f = file("// lint:allow(hot-alloc)\n// lint:allow(no-such-rule) because\n");
        assert_eq!(f.grammar_errors.len(), 2);
        assert!(f.grammar_errors[0].message.contains("requires a reason"));
        assert!(f.grammar_errors[1].message.contains("unknown rule"));
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let f = file("fn outer() {\n    fn inner() {\n        x();\n    }\n}\n");
        assert_eq!(f.enclosing_fn(3), Some("inner"));
        assert_eq!(f.enclosing_fn(5), Some("outer"));
        assert_eq!(f.enclosing_fn(99), None);
    }
}
