//! Rule registry and the shared token-pattern helpers.
//!
//! Each rule is its own module with a single `check(&Workspace, &mut
//! Vec<Finding>)` entry point. Rules emit findings for *non-test* code
//! only; `lint:allow` suppression is applied centrally afterwards (so the
//! suppressed count can be reported).

pub mod cold_faults;
pub mod digest;
pub mod doc_refs;
pub mod error_typing;
pub mod forbid_unsafe;
pub mod hot_alloc;
pub mod lock_hygiene;

use crate::source::SourceFile;
use crate::{Finding, Workspace};

/// Every rule name, as accepted by `lint:allow(<rule>)`.
pub const RULE_NAMES: &[&str] = &[
    hot_alloc::NAME,
    digest::NAME,
    lock_hygiene::NAME,
    error_typing::NAME,
    cold_faults::NAME,
    forbid_unsafe::NAME,
    doc_refs::NAME,
];

/// Runs every rule over the workspace.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    hot_alloc::check(ws, &mut out);
    digest::check(ws, &mut out);
    lock_hygiene::check(ws, &mut out);
    error_typing::check(ws, &mut out);
    cold_faults::check(ws, &mut out);
    forbid_unsafe::check(ws, &mut out);
    doc_refs::check(ws, &mut out);
    out.sort_by(|a, b| {
        (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule))
    });
    out
}

/// Lines of `.<name>` method-shaped accesses (`x.lock()`, `it.collect::<_>()`).
pub fn method_lines<'a>(
    f: &'a SourceFile,
    name: &'a str,
) -> impl Iterator<Item = u32> + 'a {
    f.toks.windows(2).filter_map(move |w| {
        (w[0].is_punct('.') && w[1].is_ident(name)).then_some(w[1].line)
    })
}

/// Lines of `<name>!` macro invocations.
pub fn macro_lines<'a>(
    f: &'a SourceFile,
    name: &'a str,
) -> impl Iterator<Item = u32> + 'a {
    f.toks.windows(2).filter_map(move |w| {
        (w[0].is_ident(name) && w[1].is_punct('!')).then_some(w[0].line)
    })
}

/// Lines of `<a>::<b>` path expressions (`Vec::new`, `Box::new`).
pub fn path_lines<'a>(
    f: &'a SourceFile,
    a: &'a str,
    b: &'a str,
) -> impl Iterator<Item = u32> + 'a {
    f.toks.windows(4).filter_map(move |w| {
        (w[0].is_ident(a) && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident(b))
            .then_some(w[0].line)
    })
}
