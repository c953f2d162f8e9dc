//! `jas-lint`: the workspace determinism & invariant static-analysis pass.
//!
//! The simulator's core contract is that every HPM counter it emits is
//! bit-reproducible — same seed, same counters, at any `--threads` value —
//! and that a `.jckpt` checkpoint carries *all* live state. CI enforces
//! those *dynamically*; this crate enforces them *statically*, in two
//! layers:
//!
//! - **Token rules** (D001–D008, [`rules`]): refuse the source patterns
//!   that historically break reproducibility — unordered maps in sim
//!   state, wall-clock reads, relaxed atomics, silent counter truncation,
//!   unjustified `unsafe`, contextless panics.
//! - **Semantic rules** (D009, D011, D012; [`rules_semantic`]): parse every
//!   file into items ([`parser`]), index them across the workspace
//!   ([`symbols`]), and check the cross-file invariants — Persist field
//!   coverage, counter digest coverage, and wake registration for
//!   idle-predicate state.
//!
//! The tool is self-contained — hand-rolled lexer, parser, JSON/SARIF
//! writers, cache format — so the workspace's offline-build guarantee (no
//! crates.io access) is preserved. Its one dependency is `jas-simkernel`,
//! for the workspace's shared TOML-subset reader (`lint.toml`) and FNV-1a
//! (the cache key).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod findings;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod rules_semantic;
pub mod sarif;
pub mod scan;
pub mod suppress;
pub mod symbols;

use config::{Config, Severity};
use findings::Finding;
use std::path::Path;

/// Bumped whenever lexing, parsing, or any rule changes behaviour, so
/// stale cache entries from an older binary can never leak findings.
pub const RULES_REV: u32 = 5;

/// A token-rule hit with an owned rule id, so analyses round-trip through
/// the [`cache`] without needing the `'static` rule table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenHit {
    /// Rule identifier (`D001`…).
    pub rule: String,
    /// 1-based line of the match.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Everything the per-file pass extracts from one source file. This is
/// the unit of caching: it depends only on the file's bytes (plus
/// [`RULES_REV`]), never on the config or on other files, so severity
/// filtering and the cross-file semantic pass run on top of it each time.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Raw token-rule hits, unfiltered.
    pub hits: Vec<TokenHit>,
    /// Test-gated line spans (findings inside are dropped).
    pub spans: Vec<scan::Span>,
    /// Inline suppressions and malformed directives.
    pub sup: suppress::Suppressions,
    /// Parsed items for the cross-file symbol table.
    pub ast: parser::FileAst,
}

/// Runs the full per-file pass: lex once, then token rules, test spans,
/// suppressions, and the item parse.
#[must_use]
pub fn analyze(src: &str) -> Analysis {
    let lexed = lexer::lex(src);
    Analysis {
        hits: rules::check(&lexed)
            .into_iter()
            .map(|h| TokenHit {
                rule: h.rule.to_string(),
                line: h.line,
                message: h.message,
            })
            .collect(),
        spans: scan::test_spans(&lexed),
        sup: suppress::scan(&lexed.comments),
        ast: parser::parse(&lexed),
    }
}

/// Filters one raw hit through test spans, config severity, and
/// suppressions; pushes a [`Finding`] when it survives.
fn emit(
    cfg: &Config,
    a: &Analysis,
    rel: &str,
    rule: &str,
    line: u32,
    message: &str,
    out: &mut Vec<Finding>,
) {
    if scan::in_test(&a.spans, line) {
        return;
    }
    let severity = cfg.severity_for(rule, rel);
    if severity == Severity::Allow {
        return;
    }
    if a.sup.covers(rule, line) {
        return;
    }
    out.push(Finding {
        rule: rule.to_string(),
        path: rel.to_string(),
        line,
        severity,
        message: message.to_string(),
    });
}

/// Emits the file-local findings of `a`: token-rule hits plus `S000` for
/// malformed suppressions.
fn emit_file_local(cfg: &Config, a: &Analysis, rel: &str, out: &mut Vec<Finding>) {
    for hit in &a.hits {
        emit(cfg, a, rel, &hit.rule, hit.line, &hit.message, out);
    }
    // A malformed `jas-lint:` directive is itself a deny finding: the only
    // valid suppression is one that names rules and states a reason.
    for m in &a.sup.malformed {
        out.push(Finding {
            rule: "S000".to_string(),
            path: rel.to_string(),
            line: m.line,
            severity: Severity::Deny,
            message: format!("malformed jas-lint suppression: {}", m.message),
        });
    }
}

/// Runs the cross-file semantic rules over already-analyzed files and
/// filters each hit through its home file's gates.
fn emit_semantic(cfg: &Config, files: &[(String, Analysis)], out: &mut Vec<Finding>) {
    let ws = symbols::Workspace::new(
        files
            .iter()
            .map(|(rel, a)| symbols::FileSymbols {
                rel: rel.clone(),
                ast: a.ast.clone(),
            })
            .collect(),
    );
    for hit in rules_semantic::check(&ws) {
        if let Some((rel, a)) = files.iter().find(|(rel, _)| *rel == hit.rel) {
            emit(cfg, a, rel, hit.rule, hit.line, &hit.message, out);
        }
    }
}

/// Lints one file's source text in isolation. `rel` is the `/`-separated
/// path relative to the scan base, used for scoping and reporting. The
/// semantic rules see a one-file workspace, so single-file shapes (a
/// `Persist` impl next to its struct) are still checked.
#[must_use]
pub fn lint_source(cfg: &Config, rel: &str, src: &str) -> Vec<Finding> {
    let a = analyze(src);
    let mut out = Vec::new();
    emit_file_local(cfg, &a, rel, &mut out);
    let files = vec![(rel.to_string(), a)];
    emit_semantic(cfg, &files, &mut out);
    findings::sort(&mut out);
    out
}

/// Lints every `.rs` file under the configured roots, resolved against
/// `base`. Unreadable files are reported as deny findings rather than
/// silently skipped. When `cache_dir` is given, per-file analyses are
/// loaded from / stored to it keyed by content hash (see [`cache`]).
#[must_use]
pub fn lint_tree_cached(cfg: &Config, base: &Path, cache_dir: Option<&Path>) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut files: Vec<(String, Analysis)> = Vec::new();
    for root in &cfg.roots {
        let root_path = base.join(root);
        for file in scan::collect_files(base, &root_path, &cfg.exclude) {
            let rel = scan::rel_path(base, &file);
            match std::fs::read_to_string(&file) {
                Ok(src) => {
                    let a = match cache_dir {
                        Some(dir) => cache::load_or_analyze(dir, &rel, &src),
                        None => analyze(&src),
                    };
                    files.push((rel, a));
                }
                Err(e) => out.push(Finding {
                    rule: "S001".to_string(),
                    path: rel,
                    line: 0,
                    severity: Severity::Deny,
                    message: format!("could not read file: {e}"),
                }),
            }
        }
    }
    for (rel, a) in &files {
        emit_file_local(cfg, a, rel, &mut out);
    }
    emit_semantic(cfg, &files, &mut out);
    findings::sort(&mut out);
    out
}

/// [`lint_tree_cached`] without a cache.
#[must_use]
pub fn lint_tree(cfg: &Config, base: &Path) -> Vec<Finding> {
    lint_tree_cached(cfg, base, None)
}

/// True when `findings` should fail a `--deny` run.
#[must_use]
pub fn has_deny(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deny_all() -> Config {
        Config::default()
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { x.unwrap(); }\n}\n";
        let f = lint_source(&deny_all(), "crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "only the non-test import fires: {f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "// jas-lint: allow(D001, reason = \"replay log, order never observed\")\nuse std::collections::HashMap;\n";
        assert!(lint_source(&deny_all(), "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_becomes_s000() {
        let src = "// jas-lint: allow(D001)\nuse std::collections::HashMap;\n";
        let f = lint_source(&deny_all(), "crates/x/src/lib.rs", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert!(rules.contains(&"S000"), "malformed suppression reported");
        assert!(rules.contains(&"D001"), "original finding still stands");
    }

    #[test]
    fn severity_allow_drops_findings() {
        let cfg = Config::parse("[rules.D001]\nseverity = \"allow\"\n").expect("config parses");
        let src = "use std::collections::HashMap;\n";
        assert!(lint_source(&cfg, "crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn warn_findings_do_not_trip_deny() {
        let cfg = Config::parse("[rules.D006]\nseverity = \"warn\"\n").expect("config parses");
        let f = lint_source(&cfg, "crates/x/src/lib.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(f.len(), 1);
        assert!(!has_deny(&f));
    }

    #[test]
    fn semantic_rules_run_through_lint_source() {
        let src = "struct S { a: u64, b: u64 }\n\
                   impl Persist for S {\n    fn persist(&mut self, io: &mut dyn StateIo) { self.a.persist(io); }\n}\n";
        let f = lint_source(&deny_all(), "crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D009");
        assert!(has_deny(&f));
    }

    #[test]
    fn semantic_hits_honor_suppressions_and_severity() {
        let src = "struct S { a: u64, b: u64 }\n\
                   impl Persist for S {\n    // jas-lint: allow(D009, reason = \"b is a derived cache, rebuilt on load\")\n    fn persist(&mut self, io: &mut dyn StateIo) { self.a.persist(io); }\n}\n";
        assert!(lint_source(&deny_all(), "crates/x/src/lib.rs", src).is_empty());

        let cfg = Config::parse("[rules.D009]\nseverity = \"allow\"\n").expect("config parses");
        let src = "struct S { a: u64 }\n\
                   impl Persist for S {\n    fn persist(&mut self, io: &mut dyn StateIo) {}\n}\n";
        assert!(lint_source(&cfg, "crates/x/src/lib.rs", src).is_empty());
    }
}
