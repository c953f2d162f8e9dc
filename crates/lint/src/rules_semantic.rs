//! The cross-file semantic rules, D009, D011 and D012, over the parsed
//! [`Workspace`].
//!
//! Unlike D001–D008 these rules see *structure* — struct fields, impl
//! blocks, call graphs — so they can enforce the invariants PR 6 and PR 7
//! left to review: checkpoints that carry every field, counters that
//! cannot dodge the digest gates, and idle-predicate state whose mutations
//! are audited against the wake heap.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D009 | every named field of a type with `impl Persist` is visited in its `persist` body — a field added without a visit silently vanishes from `.jckpt` checkpoints |
//! | D011 | counter structs (`*Counters` / `*Stats`) are folded into a digest path: an `impl Persist`, or a `values`/`digest` fn mentioning every field |
//! | D012 | in a file defining the idle predicate (`quantum_is_idle`), a fn mutating predicate-watched state either registers a wake-up (directly or via a callee) or carries an audited allow |

use crate::parser::{FnDef, Owner};
use crate::symbols::Workspace;
use std::collections::BTreeSet;

/// One raw semantic-rule match, before severity/suppression filtering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemHit {
    /// Rule identifier (`D009`…`D012`).
    pub rule: &'static str,
    /// `/`-separated path of the file the hit is in.
    pub rel: String,
    /// 1-based line of the match.
    pub line: u32,
    /// Human-readable description of this specific match.
    pub message: String,
}

/// The event scheduler's idle predicate; the file defining it is the
/// scope of D012.
const IDLE_PREDICATE: &str = "quantum_is_idle";

/// Fn names that register wake-ups by construction (beyond a literal
/// `self.wakes.register(…)` in the body).
const WAKE_REGISTRARS: &[&str] = &["register_initial_wakes", "register_standing_wakes"];

/// Runs every semantic rule over the workspace.
#[must_use]
pub fn check(ws: &Workspace) -> Vec<SemHit> {
    let mut hits = Vec::new();
    d009_persist_coverage(ws, &mut hits);
    d011_digest_coverage(ws, &mut hits);
    d012_wake_registration(ws, &mut hits);
    hits.sort_by(|a, b| {
        (&a.rel, a.line, a.rule, &a.message).cmp(&(&b.rel, b.line, b.rule, &b.message))
    });
    hits
}

/// D009: every named field of a type with `impl Persist` must be visited
/// in the `persist` body. "Visited" is by identifier mention — direct
/// (`self.f.persist(io)`) and helper (`persist_vec(io, &mut self.f)`)
/// forms both count. Types whose struct definition cannot be resolved
/// (generics, foreign types, ambiguous names) are skipped: the rule
/// protects the workspace's own state structs.
fn d009_persist_coverage(ws: &Workspace, hits: &mut Vec<SemHit>) {
    for (rel, f) in ws.fns() {
        let Some(Owner {
            type_name,
            trait_name: Some(trait_name),
        }) = f.owner.as_ref()
        else {
            continue;
        };
        if trait_name != "Persist" || (f.name != "persist" && f.name != "restore") {
            continue;
        }
        let Some((_, sdef)) = ws.resolve_struct(type_name, rel) else {
            continue;
        };
        for field in &sdef.fields {
            if f.body.idents.binary_search(&field.name).is_err() {
                hits.push(SemHit {
                    rule: "D009",
                    rel: rel.to_string(),
                    line: f.line,
                    message: format!(
                        "`{type_name}::{}` never visits field `{}`: the field is silently \
                         missing from `.jckpt` checkpoints — persist it, or document the \
                         exclusion with `jas-lint: allow(D009, reason = \"…\")`",
                        f.name, field.name
                    ),
                });
            }
        }
    }
}

/// D011: a counter struct — name ending in `Counters` or `Stats`, with at
/// least one named field — must be folded into a digest path. An
/// `impl Persist` qualifies (D009 then enforces its field coverage); so
/// does an inherent `values`/`digest` fn, but then the union of those fns
/// must mention every field. A counter struct with neither is invisible
/// to every CI digest gate.
fn d011_digest_coverage(ws: &Workspace, hits: &mut Vec<SemHit>) {
    for (rel, sdef) in ws.structs() {
        if !(sdef.name.ends_with("Counters") || sdef.name.ends_with("Stats"))
            || sdef.fields.is_empty()
        {
            continue;
        }
        let has_persist = ws.has_trait_impl("Persist", &sdef.name);
        let report_fns: Vec<_> = ["values", "digest"]
            .iter()
            .flat_map(|n| ws.inherent_fns(&sdef.name, n))
            .collect();
        if !has_persist && report_fns.is_empty() {
            hits.push(SemHit {
                rule: "D011",
                rel: rel.to_string(),
                line: sdef.line,
                message: format!(
                    "counter struct `{}` is outside every digest path: give it an \
                     `impl Persist` or a `values()`/`digest()` fn so new counters cannot \
                     dodge the CI digest gates",
                    sdef.name
                ),
            });
            continue;
        }
        // Union coverage: report each missing field once, against the
        // first report fn.
        if let Some((frel, f)) = report_fns.first() {
            for field in &sdef.fields {
                let in_any = report_fns
                    .iter()
                    .any(|(_, rf)| rf.body.idents.binary_search(&field.name).is_ok());
                if !in_any {
                    hits.push(SemHit {
                        rule: "D011",
                        rel: (*frel).to_string(),
                        line: f.line,
                        message: format!(
                            "`{}::{}` never folds field `{}`: the counter is invisible to \
                             the digest/report path — add it, or document the exclusion \
                             with `jas-lint: allow(D011, reason = \"…\")`",
                            sdef.name, f.name, field.name
                        ),
                    });
                }
            }
        }
    }
}

/// D012: in a file defining [`IDLE_PREDICATE`], collect the `self.<f>`
/// state the predicate reads. Any sibling fn (same impl type, same file)
/// that mutates one of those fields must also register a wake-up — a
/// literal `self.wakes.register(…)`, a call to a registrar, or a call
/// (transitively, within the impl) to a fn that does — or carry an
/// audited `allow(D012)` explaining why the mutation cannot strand the
/// idle-skip fast-forward.
fn d012_wake_registration(ws: &Workspace, hits: &mut Vec<SemHit>) {
    for file in &ws.files {
        let Some(pred) = file
            .ast
            .fns
            .iter()
            .find(|f| f.name == IDLE_PREDICATE && f.owner.is_some())
        else {
            continue;
        };
        let owner_type = pred
            .owner
            .as_ref()
            .map(|o| o.type_name.clone())
            .unwrap_or_default();
        let watched: BTreeSet<&str> = pred.body.self_reads.iter().map(String::as_str).collect();
        // Sibling fns of the same impl type in this file.
        let siblings: Vec<&FnDef> = file
            .ast
            .fns
            .iter()
            .filter(|f| f.owner.as_ref().is_some_and(|o| o.type_name == owner_type))
            .collect();
        // Waking set: fixpoint over "registers directly or calls a waking
        // sibling".
        let registers_directly = |f: &FnDef| {
            (f.body.self_muts.contains(&"wakes".to_string())
                && f.body.callees.contains(&"register".to_string()))
                || f.body
                    .callees
                    .iter()
                    .any(|c| WAKE_REGISTRARS.contains(&c.as_str()))
        };
        let mut waking: BTreeSet<&str> = siblings
            .iter()
            .filter(|f| registers_directly(f))
            .map(|f| f.name.as_str())
            .collect();
        for r in WAKE_REGISTRARS {
            waking.insert(r);
        }
        loop {
            let mut grew = false;
            for f in &siblings {
                if !waking.contains(f.name.as_str())
                    && f.body.callees.iter().any(|c| waking.contains(c.as_str()))
                {
                    waking.insert(f.name.as_str());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        for f in &siblings {
            if f.name == IDLE_PREDICATE || waking.contains(f.name.as_str()) {
                continue;
            }
            let muts: Vec<&str> = f
                .body
                .self_muts
                .iter()
                .map(String::as_str)
                .filter(|m| watched.contains(m))
                .collect();
            if muts.is_empty() {
                continue;
            }
            hits.push(SemHit {
                rule: "D012",
                rel: file.rel.clone(),
                line: f.line,
                message: format!(
                    "`{}::{}` mutates idle-predicate state ({}) without registering a \
                     wake-up: if the new state matters at a future tick, the event \
                     scheduler will skip past it — register a wake or document why the \
                     predicate sees it immediately with `jas-lint: allow(D012, reason = \"…\")`",
                    owner_type,
                    f.name,
                    muts.join(", "),
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::symbols::FileSymbols;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::new(
            files
                .iter()
                .map(|(rel, src)| FileSymbols {
                    rel: (*rel).to_string(),
                    ast: parse(&lex(src)),
                })
                .collect(),
        )
    }

    fn rules_of(hits: &[SemHit]) -> Vec<(&'static str, &str, u32)> {
        hits.iter()
            .map(|h| (h.rule, h.rel.as_str(), h.line))
            .collect()
    }

    #[test]
    fn d009_flags_missing_field_and_accepts_full_coverage() {
        let w = ws(&[(
            "crates/a/src/x.rs",
            "struct S { a: u64, b: u64 }\n\
             impl Persist for S {\n    fn persist(&mut self, io: &mut dyn StateIo) {\n        self.a.persist(io);\n    }\n}\n",
        )]);
        let hits = check(&w);
        assert_eq!(rules_of(&hits), [("D009", "crates/a/src/x.rs", 3)]);
        assert!(hits[0].message.contains("`b`"));

        let w = ws(&[(
            "crates/a/src/x.rs",
            "struct S { a: u64, b: u64 }\n\
             impl Persist for S {\n    fn persist(&mut self, io: &mut dyn StateIo) {\n        self.a.persist(io);\n        persist_vec(io, &mut self.b);\n    }\n}\n",
        )]);
        assert!(check(&w).is_empty(), "helper visits count as coverage");
    }

    #[test]
    fn d009_resolves_the_struct_across_files() {
        let w = ws(&[
            ("crates/a/src/types.rs", "pub struct S { a: u64, b: u64 }"),
            (
                "crates/a/src/persist.rs",
                "impl Persist for S {\n    fn persist(&mut self, io: &mut dyn StateIo) { self.a.persist(io); }\n}\n",
            ),
        ]);
        let hits = check(&w);
        assert_eq!(rules_of(&hits), [("D009", "crates/a/src/persist.rs", 2)]);
    }

    #[test]
    fn d009_skips_unresolvable_and_foreign_types() {
        let w = ws(&[(
            "crates/a/src/x.rs",
            "impl Persist for u64 { fn persist(&mut self, io: &mut dyn StateIo) {} }\n\
             impl<T: Persist> Persist for Vec<T> { fn persist(&mut self, io: &mut dyn StateIo) {} }\n",
        )]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn d011_counter_struct_without_digest_path() {
        let w = ws(&[(
            "crates/a/src/x.rs",
            "pub struct OrphanCounters { hits: u64, misses: u64 }\n",
        )]);
        let hits = check(&w);
        assert_eq!(rules_of(&hits), [("D011", "crates/a/src/x.rs", 1)]);
    }

    #[test]
    fn d011_values_fn_must_cover_every_field() {
        let w = ws(&[(
            "crates/a/src/x.rs",
            "pub struct FooStats { a: u64, b: u64 }\n\
             impl Persist for FooStats { fn persist(&mut self, io: &mut dyn StateIo) { self.a.persist(io); self.b.persist(io); } }\n\
             impl FooStats {\n    pub fn values(&self) -> [u64; 1] { [self.a] }\n}\n",
        )]);
        let hits = check(&w);
        assert_eq!(rules_of(&hits), [("D011", "crates/a/src/x.rs", 4)]);
        assert!(hits[0].message.contains("`b`"));
    }

    #[test]
    fn d011_persist_alone_is_a_digest_path() {
        let w = ws(&[(
            "crates/a/src/x.rs",
            "pub struct BarStats { a: u64 }\n\
             impl Persist for BarStats { fn persist(&mut self, io: &mut dyn StateIo) { self.a.persist(io); } }\n",
        )]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn d012_flags_unregistered_watched_mutation() {
        let src = "impl Engine {\n\
            fn quantum_is_idle(&self) -> bool { self.gc.is_none() && self.next_arrival > self.clock }\n\
            fn arrivals(&mut self) { self.next_arrival = 7; }\n\
            fn block(&mut self) { self.tasks.push(1); self.wakes.register(2, 3); }\n\
            fn via_helper(&mut self) { self.gc = None; self.block(); }\n\
            fn untouched(&mut self) { self.other = 1; }\n\
        }\n";
        let w = ws(&[("crates/core/src/engine.rs", src)]);
        let hits = check(&w);
        assert_eq!(rules_of(&hits), [("D012", "crates/core/src/engine.rs", 3)]);
        assert!(hits[0].message.contains("next_arrival"));
    }

    #[test]
    fn d012_only_applies_where_the_predicate_lives() {
        let w = ws(&[(
            "crates/other/src/x.rs",
            "impl E { fn f(&mut self) { self.clock = 1; } }\n",
        )]);
        assert!(check(&w).is_empty());
    }
}
