//! `doc-refs`: every Markdown document a doc comment names exists.
//!
//! Module and item docs send readers to the repo's Markdown documents
//! (`PERF.md`, `LINTS.md`, a crate's own notes) for the argument behind
//! the code. A name that points at no file — a document that was planned
//! and never written, or renamed, or deleted — sends the reader nowhere,
//! and no compiler or doc tool notices. This rule checks every
//! backticked `*.md` name in a `///` or `//!` comment: the file must
//! exist at the workspace root or relative to the crate's directory.

use crate::{Finding, Workspace};

/// Rule name.
pub const NAME: &str = "doc-refs";

/// Runs the rule.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        // The innermost crate holding the file ("." is the root crate).
        let crate_dir = ws
            .crates
            .iter()
            .filter(|c| c.as_str() == "." || f.rel.starts_with(&format!("{c}/")))
            .max_by_key(|c| c.len())
            .map_or(".", String::as_str);
        for (line, text) in &f.docs {
            if f.in_test(*line) {
                continue;
            }
            // The backticked spans are every other piece between backticks.
            for name in text.split('`').skip(1).step_by(2).filter(|s| is_md_name(s)) {
                if !ws.root.join(name).is_file() && !ws.root.join(crate_dir).join(name).is_file() {
                    out.push(Finding::new(
                        NAME,
                        &f.rel,
                        *line,
                        format!("`{name}` names no file at the workspace root or in `{crate_dir}`"),
                    ));
                }
            }
        }
    }
}

/// A relative path to a Markdown file: path characters only (no
/// spaces, globs or prose), ending in `.md`.
fn is_md_name(s: &str) -> bool {
    s.len() > ".md".len()
        && s.ends_with(".md")
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_-./".contains(c))
}
