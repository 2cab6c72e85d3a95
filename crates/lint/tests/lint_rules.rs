//! Integration tests for `eole-lint`: every rule pinned to exact
//! `file:line` findings against a committed deliberately-bad fixture
//! workspace, the baseline ratchet's three regimes (at / over / under the
//! ceiling), mutation tests against copies of the *real* tree (delete a
//! digest write, inject a hot-loop `vec!`), and the check that the
//! workspace itself is clean at HEAD.

use std::path::{Path, PathBuf};

use eole_lint::baseline::Baseline;
use eole_lint::{check, Finding, Options, Outcome, Workspace};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// A scratch directory, wiped at construction (best-effort at drop).
struct TempWs {
    dir: PathBuf,
}

impl TempWs {
    fn new(name: &str) -> TempWs {
        let dir = std::env::temp_dir()
            .join(format!("eole-lint-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp ws");
        TempWs { dir }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdirs");
        std::fs::write(path, content).expect("write fixture file");
    }

    fn check(&self) -> Outcome {
        check_with_baseline(&self.dir, &self.dir.join("no-baseline.json"))
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn check_with_baseline(root: &Path, baseline: &Path) -> Outcome {
    check(&Options { root: root.to_path_buf(), baseline_path: baseline.to_path_buf() })
        .expect("check runs")
}

fn locations(findings: &[(Finding, u64)]) -> Vec<(String, String, u32)> {
    findings
        .iter()
        .map(|(f, _)| (f.rule.to_string(), f.path.clone(), f.line))
        .collect()
}

#[test]
fn fixture_rules_fire_at_exact_lines() {
    let tmp = TempWs::new("fixture-copy");
    let outcome = check_with_baseline(&fixture_root(), &tmp.dir.join("absent.json"));

    let got = locations(&outcome.violations);
    let expect = |rule: &str, path: &str, line: u32| {
        assert!(
            got.contains(&(rule.to_string(), path.to_string(), line)),
            "missing {rule} at {path}:{line}; got {got:?}"
        );
    };
    expect("forbid-unsafe", "crates/bad/src/lib.rs", 1); // missing attribute
    expect("lock-hygiene", "crates/bad/src/lib.rs", 6); // .lock() outside lock_clean
    expect("forbid-unsafe", "crates/bad/src/lib.rs", 10); // unsafe token
    expect("error-typing", "crates/bench/src/lib.rs", 4); // .unwrap() in library code
    expect("digest-coverage", "crates/core/src/config.rs", 5); // `missing` never canonicalized
    expect("hot-alloc", "crates/core/src/pipeline/ooo.rs", 4); // vec! in a hot module
    expect("cold-path-faults", "crates/core/src/pipeline/ooo.rs", 8); // faults:: in a hot module

    // Exactly two findings on bad/lib.rs:6 (the lock AND the
    // crash-on-poison expect), and nothing unexpected anywhere else.
    let on_line_6 = got
        .iter()
        .filter(|(r, p, l)| r == "lock-hygiene" && p == "crates/bad/src/lib.rs" && *l == 6)
        .count();
    assert_eq!(on_line_6, 2, "lock + expect(\"poison\") both fire: {got:?}");
    assert_eq!(outcome.violations.len(), 8, "no extra findings: {got:?}");

    // The reasoned allow suppressed the third vec!; the reasonless allow
    // in bad/lib.rs is a grammar error instead of a suppression.
    assert_eq!(outcome.allow_suppressed, 1);
    assert_eq!(outcome.grammar.len(), 1);
    assert_eq!(outcome.grammar[0].path, "crates/bad/src/lib.rs");
    assert_eq!(outcome.grammar[0].line, 13);
    assert!(!outcome.clean());
}

#[test]
fn test_code_is_out_of_scope() {
    let tmp = TempWs::new("fixture-test-scope");
    let outcome = check_with_baseline(&fixture_root(), &tmp.dir.join("absent.json"));
    // bench fixture line 11 is an unwrap inside #[cfg(test)].
    assert!(
        !locations(&outcome.violations)
            .iter()
            .any(|(_, p, l)| p == "crates/bench/src/lib.rs" && *l == 11),
        "test-module unwrap must not be flagged"
    );
}

#[test]
fn baseline_at_ceiling_is_clean_over_fails_under_is_stale() {
    let tmp = TempWs::new("ratchet");
    let strict = check_with_baseline(&fixture_root(), &tmp.dir.join("absent.json"));
    assert!(!strict.clean());

    // Regime 1: baseline at exactly the current counts, minus the
    // grammar error (grammar is never baselined) → everything except the
    // grammar error is absorbed.
    let findings: Vec<Finding> =
        strict.violations.iter().map(|(f, _)| f.clone()).collect();
    let at_ceiling = Baseline::from_findings(&findings);
    let base_path = tmp.dir.join("baseline.json");
    at_ceiling.save(&base_path).expect("save baseline");
    let absorbed = check_with_baseline(&fixture_root(), &base_path);
    assert!(absorbed.violations.is_empty(), "all debt absorbed");
    assert_eq!(absorbed.baselined, findings.len());
    assert_eq!(absorbed.grammar.len(), 1, "grammar errors are never baselined");
    assert!(!absorbed.clean(), "the malformed allow still fails the run");

    // Regime 2: a count above the recorded ceiling → those findings are
    // violations again.
    let mut under = at_ceiling.clone();
    if let Some(n) = under
        .counts
        .get_mut("error-typing")
        .and_then(|m| m.get_mut("crates/bench/src/lib.rs"))
    {
        *n = 0;
    }
    under.save(&base_path).expect("save baseline");
    let over = check_with_baseline(&fixture_root(), &base_path);
    assert!(
        locations(&over.violations).contains(&(
            "error-typing".to_string(),
            "crates/bench/src/lib.rs".to_string(),
            4
        )),
        "raising the count above the ceiling fails"
    );

    // Regime 3: a ceiling above the current count → the entry is stale
    // and the run fails until the baseline is regenerated.
    let mut loose = at_ceiling.clone();
    if let Some(n) = loose
        .counts
        .get_mut("error-typing")
        .and_then(|m| m.get_mut("crates/bench/src/lib.rs"))
    {
        *n += 5;
    }
    loose.save(&base_path).expect("save baseline");
    let stale = check_with_baseline(&fixture_root(), &base_path);
    assert!(stale.violations.is_empty());
    assert_eq!(stale.stale.len(), 1);
    assert_eq!(stale.stale[0].rule, "error-typing");
    assert_eq!(stale.stale[0].file, "crates/bench/src/lib.rs");
    assert_eq!(stale.stale[0].recorded, 6);
    assert_eq!(stale.stale[0].current, 1);
    assert!(!stale.clean());
}

#[test]
fn baseline_entry_for_vanished_findings_is_stale() {
    let tmp = TempWs::new("stale-vanished");
    tmp.write("crates/ok/Cargo.toml", "[package]\nname = \"ok\"\n");
    tmp.write("crates/ok/src/lib.rs", "#![forbid(unsafe_code)]\n");
    let mut base = Baseline::default();
    base.counts
        .entry("hot-alloc".to_string())
        .or_default()
        .insert("crates/ok/src/gone.rs".to_string(), 3);
    let base_path = tmp.dir.join("baseline.json");
    base.save(&base_path).expect("save baseline");
    let outcome = check_with_baseline(&tmp.dir, &base_path);
    assert_eq!(outcome.stale.len(), 1);
    assert_eq!(outcome.stale[0].current, 0);
    assert!(!outcome.clean());
}

/// Mutation test, acceptance-pinned: deleting one field write from the
/// real `canonical_bytes` must fail with the exact `config.rs` line of
/// the now-uncovered field.
#[test]
fn deleting_a_canon_field_write_fails_digest_coverage() {
    let repo = repo_root();
    let config_text = std::fs::read_to_string(repo.join("crates/core/src/config.rs"))
        .expect("read real config.rs");
    let canon_text = std::fs::read_to_string(repo.join("crates/core/src/canon.rs"))
        .expect("read real canon.rs");

    let doomed = "        c.put_u64(self.lq_entries as u64);\n";
    assert!(canon_text.contains(doomed), "the lq_entries write exists at HEAD");
    let mutated = canon_text.replacen(doomed, "", 1);

    let tmp = TempWs::new("canon-mutation");
    tmp.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
    tmp.write("crates/core/src/config.rs", &config_text);
    tmp.write("crates/core/src/canon.rs", &mutated);

    let outcome = tmp.check();
    let field_line = 1 + config_text
        .lines()
        .position(|l| l.trim_start().starts_with("pub lq_entries:"))
        .expect("lq_entries declared in config.rs") as u32;
    let digest: Vec<_> = outcome
        .violations
        .iter()
        .filter(|(f, _)| f.rule == "digest-coverage")
        .collect();
    assert_eq!(digest.len(), 1, "exactly the deleted field: {digest:?}");
    assert_eq!(digest[0].0.path, "crates/core/src/config.rs");
    assert_eq!(digest[0].0.line, field_line, "finding: {:?}", digest[0]);
    assert!(digest[0].0.message.contains("lq_entries"));
}

/// Mutation test, acceptance-pinned: adding one `vec![]` to the real
/// `pipeline/ooo.rs` must fail `hot-alloc` at the injected line.
#[test]
fn injecting_a_vec_into_ooo_fails_hot_alloc() {
    let repo = repo_root();
    let ooo_text = std::fs::read_to_string(repo.join("crates/core/src/pipeline/ooo.rs"))
        .expect("read real ooo.rs");

    let mutated = format!("{ooo_text}\npub fn injected() -> Vec<u32> {{\n    vec![1]\n}}\n");
    let vec_line = mutated
        .lines()
        .count()
        .checked_sub(1)
        .expect("mutated file is non-empty") as u32; // the `vec![1]` line

    let tmp = TempWs::new("ooo-mutation");
    tmp.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
    tmp.write("crates/core/src/pipeline/ooo.rs", &mutated);

    let outcome = tmp.check();
    let hot: Vec<_> = outcome
        .violations
        .iter()
        .filter(|(f, _)| f.rule == "hot-alloc")
        .collect();
    assert_eq!(hot.len(), 1, "exactly the injected vec!: {hot:?}");
    assert_eq!(hot[0].0.path, "crates/core/src/pipeline/ooo.rs");
    assert_eq!(hot[0].0.line, vec_line);
}

#[test]
fn duplicate_format_marker_is_flagged() {
    let tmp = TempWs::new("marker-twice");
    tmp.write("crates/core/Cargo.toml", "[package]\nname = \"core\"\n");
    tmp.write(
        "crates/core/src/canon.rs",
        "pub const A: &str = \"eole-core-config/v1\";\n\
         pub const B: &str = \"eole-core-config/v2\";\n",
    );
    let outcome = tmp.check();
    let digest: Vec<_> = outcome
        .violations
        .iter()
        .filter(|(f, _)| f.rule == "digest-coverage")
        .collect();
    assert_eq!(digest.len(), 1);
    assert_eq!(digest[0].0.line, 2, "the second marker is the finding");
    assert!(digest[0].0.message.contains("more than once"));
}

#[test]
fn doc_refs_flags_only_markdown_names_that_exist_nowhere() {
    let tmp = TempWs::new("doc-refs");
    tmp.write("NOTES.md", "# workspace notes\n");
    tmp.write("crates/docs/Cargo.toml", "[package]\nname = \"docs\"\n");
    tmp.write("crates/docs/GUIDE.md", "# the crate's guide\n");
    tmp.write("crates/docs/notes/DEEP.md", "# a crate-relative path\n");
    tmp.write(
        "crates/docs/src/lib.rs",
        "//! See `NOTES.md` (the root's), `GUIDE.md` and `notes/DEEP.md` (the crate's).\n\
         #![forbid(unsafe_code)]\n\
         \n\
         /// The argument is in `DESIGN.md` §3, which was never written.\n\
         pub fn dangling() {}\n\
         \n\
         // A plain comment naming `GONE.md` is not documentation.\n\
         /// Prose such as `*.md` or `a b.md` names no file.\n\
         pub fn prose() {}\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   /// Test code is out of scope: `GONE.md`.\n\
         \x20   fn t() {}\n\
         }\n",
    );
    let outcome = tmp.check();
    let got = locations(&outcome.violations);
    assert_eq!(
        got,
        vec![("doc-refs".to_string(), "crates/docs/src/lib.rs".to_string(), 4)],
        "only the missing DESIGN.md: {got:?}"
    );
    assert!(outcome.violations[0].0.message.contains("`DESIGN.md`"));
}

#[test]
fn out_of_line_cfg_test_modules_are_dropped() {
    let ws = Workspace::load(&repo_root()).expect("load repo");
    // crates/core/src/pipeline/mod.rs declares `#[cfg(test)] mod tests;`;
    // the walker must drop the sibling tests.rs entirely.
    assert!(
        !ws.files.iter().any(|f| f.rel == "crates/core/src/pipeline/tests.rs"),
        "out-of-line test module must not be scanned"
    );
    assert!(ws.files.iter().any(|f| f.rel == "crates/core/src/pipeline/mod.rs"));
}

/// The acceptance gate: the workspace itself, against its committed
/// baseline, is clean at HEAD.
#[test]
fn workspace_is_clean_at_head() {
    let repo = repo_root();
    let outcome = check_with_baseline(&repo, &repo.join("lint-baseline.json"));
    let rendered: Vec<String> =
        outcome.violations.iter().map(|(f, _)| f.to_string()).collect();
    assert!(outcome.clean(), "eole-lint must be clean at HEAD: {rendered:?} {:?}", outcome.stale);
}
