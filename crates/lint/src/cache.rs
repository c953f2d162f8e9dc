//! The incremental analysis cache.
//!
//! A per-file [`Analysis`] depends only on the file's bytes and the rule
//! revision — never on the config or on other files — so it can be reused
//! across runs keyed by an FNV-1a content hash ([`fnv1a`]). The cross-file semantic pass and
//! all severity/suppression filtering run on top of cached analyses every
//! time, which keeps config changes and cross-file edits correct without
//! any invalidation logic: editing one file re-analyzes that file only,
//! and the (cheap, in-memory) workspace pass sees the fresh AST.
//!
//! The on-disk format is a versioned, line-based text file per source
//! file, hand-rolled like everything else in this crate. Any parse
//! failure, version skew, or hash mismatch falls back to a fresh analysis
//! — the cache can never change findings, only skip work.

use crate::parser::{BodyFacts, FieldDef, FnDef, Owner, Param, StructDef};
use crate::suppress::{Malformed, Suppression};
use crate::{analyze, scan::Span, Analysis, TokenHit, RULES_REV};
use jas_simkernel::snapshot::fnv1a;
use std::path::{Path, PathBuf};

/// Loads the cached analysis for (`rel`, `src`) from `dir`, or analyzes
/// fresh and stores the result. Cache I/O errors are swallowed: a broken
/// cache directory degrades to uncached operation, never to a failure.
#[must_use]
pub fn load_or_analyze(dir: &Path, rel: &str, src: &str) -> Analysis {
    let path = entry_path(dir, rel);
    let hash = fnv1a(src.as_bytes());
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(a) = from_text(&text, hash) {
            return a;
        }
    }
    let a = analyze(src);
    // jas-lint: allow(D007, reason = "cache store is best-effort; a failed write degrades to uncached, findings are unaffected")
    let _ = std::fs::create_dir_all(dir);
    // jas-lint: allow(D007, reason = "cache store is best-effort; a failed write degrades to uncached, findings are unaffected")
    let _ = std::fs::write(&path, to_text(&a, hash));
    a
}

/// Cache file path for a source file: the `/`-separated rel path with
/// separators flattened, one entry per file.
fn entry_path(dir: &Path, rel: &str) -> PathBuf {
    dir.join(format!("{}.v{RULES_REV}", rel.replace('/', "__")))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

fn join_names(v: &[String]) -> String {
    v.join(",")
}

fn split_names(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split(',').map(str::to_string).collect()
    }
}

/// Serializes an analysis to the cache text format.
#[must_use]
pub fn to_text(a: &Analysis, hash: u64) -> String {
    let mut out = format!("jas-lint-cache v1 rev={RULES_REV} hash={hash:016x}\n");
    for h in &a.hits {
        out.push_str(&format!("H\t{}\t{}\t{}\n", h.rule, h.line, esc(&h.message)));
    }
    for s in &a.spans {
        out.push_str(&format!("P\t{}\t{}\n", s.start, s.end));
    }
    for u in &a.sup.ok {
        out.push_str(&format!(
            "U\t{}\t{}\t{}\t{}\n",
            u.rules.join(","),
            u.first_line,
            u.last_line,
            esc(&u.reason)
        ));
    }
    for m in &a.sup.malformed {
        out.push_str(&format!("M\t{}\t{}\n", m.line, esc(&m.message)));
    }
    for s in &a.ast.structs {
        out.push_str(&format!("S\t{}\t{}\n", s.name, s.line));
        for f in &s.fields {
            out.push_str(&format!("F\t{}\t{}\n", f.name, f.line));
        }
    }
    for f in &a.ast.fns {
        let (oflag, otype, otrait) = match &f.owner {
            None => (0, "", ""),
            Some(Owner {
                type_name,
                trait_name: None,
            }) => (1, type_name.as_str(), ""),
            Some(Owner {
                type_name,
                trait_name: Some(t),
            }) => (2, type_name.as_str(), t.as_str()),
        };
        out.push_str(&format!(
            "N\t{}\t{}\t{}\t{}\t{}\n",
            f.name, f.line, oflag, otype, otrait
        ));
        for p in &f.params {
            out.push_str(&format!("A\t{}\n", p.name));
        }
        out.push_str(&format!("I\t{}\n", join_names(&f.body.idents)));
        out.push_str(&format!("C\t{}\n", join_names(&f.body.callees)));
        out.push_str(&format!("R\t{}\n", join_names(&f.body.self_reads)));
        out.push_str(&format!("X\t{}\n", join_names(&f.body.self_muts)));
    }
    out
}

/// Deserializes a cache entry, returning `None` (→ re-analyze) on any
/// version/hash mismatch or malformed record.
#[must_use]
pub fn from_text(text: &str, expect_hash: u64) -> Option<Analysis> {
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("jas-lint-cache v1 rev={RULES_REV} hash={expect_hash:016x}") {
        return None;
    }
    let mut a = Analysis::default();
    for line in lines {
        let mut parts = line.split('\t');
        let tag = parts.next()?;
        match tag {
            "H" => a.hits.push(TokenHit {
                rule: parts.next()?.to_string(),
                line: parts.next()?.parse().ok()?,
                message: unesc(parts.next()?),
            }),
            "P" => a.spans.push(Span {
                start: parts.next()?.parse().ok()?,
                end: parts.next()?.parse().ok()?,
            }),
            "U" => a.sup.ok.push(Suppression {
                rules: split_names(parts.next()?),
                first_line: parts.next()?.parse().ok()?,
                last_line: parts.next()?.parse().ok()?,
                reason: unesc(parts.next()?),
            }),
            "M" => a.sup.malformed.push(Malformed {
                line: parts.next()?.parse().ok()?,
                message: unesc(parts.next()?),
            }),
            "S" => a.ast.structs.push(StructDef {
                name: parts.next()?.to_string(),
                line: parts.next()?.parse().ok()?,
                fields: Vec::new(),
            }),
            "F" => a.ast.structs.last_mut()?.fields.push(FieldDef {
                name: parts.next()?.to_string(),
                line: parts.next()?.parse().ok()?,
            }),
            "N" => {
                let name = parts.next()?.to_string();
                let line = parts.next()?.parse().ok()?;
                let oflag: u8 = parts.next()?.parse().ok()?;
                let otype = parts.next()?.to_string();
                let otrait = parts.next()?.to_string();
                let owner = match oflag {
                    0 => None,
                    1 => Some(Owner {
                        type_name: otype,
                        trait_name: None,
                    }),
                    2 => Some(Owner {
                        type_name: otype,
                        trait_name: Some(otrait),
                    }),
                    _ => return None,
                };
                a.ast.fns.push(FnDef {
                    name,
                    line,
                    owner,
                    params: Vec::new(),
                    body: BodyFacts::default(),
                });
            }
            "A" => a.ast.fns.last_mut()?.params.push(Param {
                name: parts.next()?.to_string(),
            }),
            "I" => a.ast.fns.last_mut()?.body.idents = split_names(parts.next()?),
            "C" => a.ast.fns.last_mut()?.body.callees = split_names(parts.next()?),
            "R" => a.ast.fns.last_mut()?.body.self_reads = split_names(parts.next()?),
            "X" => a.ast.fns.last_mut()?.body.self_muts = split_names(parts.next()?),
            _ => return None,
        }
    }
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "// jas-lint: allow(D001, reason = \"cache test, has\ttab\")\n\
        use std::collections::HashMap;\n\
        struct FooStats { a: u64, b: u64 }\n\
        impl Persist for FooStats {\n    fn persist(&mut self, io: &mut dyn StateIo) { self.a.persist(io); self.b.persist(io); }\n}\n\
        #[cfg(test)]\nmod tests { fn t() {} }\n";

    fn eq_analysis(a: &Analysis, b: &Analysis) {
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.sup.ok, b.sup.ok);
        assert_eq!(a.sup.malformed, b.sup.malformed);
        assert_eq!(a.ast, b.ast);
    }

    #[test]
    fn round_trips_through_the_text_format() {
        let a = analyze(SRC);
        assert!(!a.hits.is_empty() && !a.ast.structs.is_empty() && !a.ast.fns.is_empty());
        let text = to_text(&a, 42);
        let b = from_text(&text, 42).expect("round-trips");
        eq_analysis(&a, &b);
    }

    #[test]
    fn hash_and_revision_mismatches_miss() {
        let a = analyze(SRC);
        let text = to_text(&a, 42);
        assert!(from_text(&text, 43).is_none(), "wrong content hash");
        let skewed = text.replacen(&format!("rev={RULES_REV}"), "rev=0", 1);
        assert!(from_text(&skewed, 42).is_none(), "older rule revision");
        assert!(from_text("garbage\n", 42).is_none());
    }

    #[test]
    fn load_or_analyze_writes_then_reads_the_entry() {
        let dir = std::env::temp_dir().join(format!("jas-lint-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = load_or_analyze(&dir, "crates/x/src/lib.rs", SRC);
        let entry = entry_path(&dir, "crates/x/src/lib.rs");
        assert!(entry.exists(), "entry written on miss");
        // Prove the second call really reads the file: poison one struct
        // name in the stored entry (hash still matches) and observe it.
        let stored = std::fs::read_to_string(&entry).expect("entry readable");
        std::fs::write(&entry, stored.replace("S\tFooStats", "S\tPoisoned")).expect("rewrite");
        let cached = load_or_analyze(&dir, "crates/x/src/lib.rs", SRC);
        assert_eq!(cached.ast.structs[0].name, "Poisoned", "served from cache");
        assert_eq!(fresh.ast.structs[0].name, "FooStats");
        // Content change → miss → re-analyze and overwrite.
        let changed = format!("{SRC}\nfn extra() {{}}\n");
        let re = load_or_analyze(&dir, "crates/x/src/lib.rs", &changed);
        assert_eq!(re.ast.structs[0].name, "FooStats", "stale entry not served");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
