//! A lightweight Rust *item* parser over the token stream from
//! [`crate::lexer`].
//!
//! This is not a grammar-complete parser — it recognizes exactly the item
//! shapes the cross-file rules in [`crate::rules_semantic`] need: struct
//! definitions with named fields, `impl` blocks (inherent and trait) with
//! their functions, and free functions, each with parameter types and a
//! pre-digested summary of the body ([`BodyFacts`]: identifiers, call
//! targets, `self.<field>` reads and mutations). Everything it does not
//! understand it skips over by bracket matching, so an exotic construct
//! degrades to "no facts extracted", never to a wrong parse of the rest of
//! the file. Bodies are summarized instead of kept as trees so the whole
//! per-file result is small enough to serialize into the incremental cache
//! ([`crate::cache`]).

use crate::lexer::{Lexed, TokKind, Token};

/// One named struct field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based line of the field.
    pub line: u32,
}

/// A struct definition. Tuple and unit structs are recorded with an empty
/// field list — the field-coverage rules only govern named fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldDef>,
}

/// The impl context a function was found in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Owner {
    /// Base name of the self type (`CorePrivate` for
    /// `impl Persist for CorePrivate`).
    pub type_name: String,
    /// Trait base name for trait impls, `None` for inherent impls.
    pub trait_name: Option<String>,
}

/// One function parameter, reduced to its pattern name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Pattern name (`self` for receivers, `_` kept verbatim).
    pub name: String,
}

/// Facts extracted from a function body, pre-digested for the semantic
/// rules. All vectors are sorted and deduplicated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BodyFacts {
    /// Every identifier appearing in the body.
    pub idents: Vec<String>,
    /// Names invoked as calls: `name(…)`, `recv.name(…)`, `Path::name(…)`.
    pub callees: Vec<String>,
    /// Fields `f` appearing as `self.f` (reads or writes).
    pub self_reads: Vec<String>,
    /// Fields `f` mutated through `self`: `self.f = …`, `self.f += …`,
    /// `self.f.push(…)` and friends, including through index/field chains
    /// (`self.tasks[i].state = …` mutates `tasks`).
    pub self_muts: Vec<String>,
}

/// A parsed function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Enclosing impl block, if any.
    pub owner: Option<Owner>,
    /// Parameters, in order (receivers included).
    pub params: Vec<Param>,
    /// Body summary (empty for bodyless trait/extern declarations).
    pub body: BodyFacts,
}

/// Everything the parser extracted from one file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileAst {
    /// Struct definitions, in source order.
    pub structs: Vec<StructDef>,
    /// All functions — free and impl-owned — in source order.
    pub fns: Vec<FnDef>,
}

/// Methods that mutate their receiver, for `self.<field>.method(…)`
/// mutation detection. Deliberately the common std collection mutators —
/// an unknown method is treated as a read, erring quiet.
const MUT_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "clear",
    "take",
    "replace",
    "extend",
    "drain",
    "retain",
    "get_mut",
    "register",
];

/// Parses one lexed file into its item summary.
#[must_use]
pub fn parse(lexed: &Lexed) -> FileAst {
    let mut ast = FileAst::default();
    let toks = &lexed.tokens;
    parse_items(toks, 0, toks.len(), None, &mut ast);
    ast
}

fn is_punct(toks: &[Token], i: usize, ch: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch))
}

fn is_ident(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn ident_text(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// Skips a balanced `(…)`, `[…]`, `{…}` group whose opener is at `i`.
/// Returns the index just past the closer (or `end` if unterminated).
fn skip_group(toks: &[Token], i: usize, end: usize) -> usize {
    let (open, close) = match toks[i].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return i + 1,
    };
    let mut depth = 0usize;
    let mut j = i;
    while j < end {
        if is_punct(toks, j, open) {
            depth += 1;
        } else if is_punct(toks, j, close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Skips a generic-argument list whose `<` is at `i`. `>` tokens that are
/// part of `->` never close the list (`fn() -> T` inside generics).
fn skip_generics(toks: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < end {
        if is_punct(toks, j, '<') {
            depth += 1;
        } else if is_punct(toks, j, '>') && !(j > 0 && is_punct(toks, j - 1, '-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Skips one attribute `#[…]` whose `#` is at `i`.
fn skip_attribute(toks: &[Token], i: usize, end: usize) -> usize {
    let mut j = i + 1;
    if is_punct(toks, j, '!') {
        j += 1;
    }
    if j < end && is_punct(toks, j, '[') {
        skip_group(toks, j, end)
    } else {
        i + 1
    }
}

/// Skips forward to just past the next `;` at bracket depth 0 (for items
/// like `use …;`, `const X: T = expr;`, `type A = B;`).
fn skip_to_semi(toks: &[Token], mut i: usize, end: usize) -> usize {
    while i < end {
        match toks[i].text.as_str() {
            ";" => return i + 1,
            "(" | "[" | "{" => i = skip_group(toks, i, end),
            _ => i += 1,
        }
    }
    end
}

/// Parses a type path starting at `i`: optional leading `::`, then
/// `segment(::segment)*` with generic arguments skipped. Returns the last
/// segment name and the index just past the path.
fn parse_path(toks: &[Token], mut i: usize, end: usize) -> (Option<String>, usize) {
    let mut last = None;
    loop {
        if is_punct(toks, i, ':') && is_punct(toks, i + 1, ':') {
            i += 2;
        }
        let Some(name) = ident_text(toks, i) else {
            return (last, i);
        };
        last = Some(name.to_string());
        i += 1;
        if is_punct(toks, i, '<') {
            i = skip_generics(toks, i, end);
        }
        if !(is_punct(toks, i, ':') && is_punct(toks, i + 1, ':')) {
            return (last, i);
        }
    }
}

/// Item-level scan over `toks[i..end]`, recursing into `impl` and inline
/// `mod` bodies.
fn parse_items(toks: &[Token], mut i: usize, end: usize, owner: Option<&Owner>, ast: &mut FileAst) {
    while i < end {
        if is_punct(toks, i, '#') {
            i = skip_attribute(toks, i, end);
            continue;
        }
        match ident_text(toks, i) {
            Some("pub") => {
                i += 1;
                if is_punct(toks, i, '(') {
                    i = skip_group(toks, i, end);
                }
            }
            Some("struct") => i = parse_struct(toks, i, end, ast),
            Some("impl") => i = parse_impl(toks, i, end, ast),
            Some("fn") => i = parse_fn(toks, i, end, owner, ast),
            Some("mod") => {
                // `mod name { … }` recurses; `mod name;` skips.
                i += 1;
                while ident_text(toks, i).is_some() {
                    i += 1;
                }
                if is_punct(toks, i, '{') {
                    let close = skip_group(toks, i, end);
                    parse_items(toks, i + 1, close.saturating_sub(1), owner, ast);
                    i = close;
                } else {
                    i = skip_to_semi(toks, i, end);
                }
            }
            Some("enum" | "trait" | "union") => {
                // Skip the whole item: name, generics, optional where
                // clause, then the braced body.
                i += 1;
                while i < end && !is_punct(toks, i, '{') && !is_punct(toks, i, ';') {
                    i = match toks[i].text.as_str() {
                        "<" => skip_generics(toks, i, end),
                        "(" | "[" => skip_group(toks, i, end),
                        _ => i + 1,
                    };
                }
                if is_punct(toks, i, '{') {
                    i = skip_group(toks, i, end);
                } else {
                    i += 1;
                }
            }
            Some("macro_rules") => {
                i += 1;
                while i < end && !is_punct(toks, i, '{') {
                    i += 1;
                }
                i = skip_group(toks, i, end);
            }
            // Fn modifiers: step over them so the `fn` keyword is seen.
            Some("async" | "unsafe") => i += 1,
            Some("const") => {
                // `const fn f(…)` is a function; `const X: T = …;` an item.
                if is_ident(toks, i + 1, "fn") {
                    i += 1;
                } else {
                    i = skip_to_semi(toks, i, end);
                }
            }
            Some("extern") => {
                // `extern "C" fn` (modifier), `extern "C" { … }` (block),
                // or `extern crate …;`.
                if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Str) {
                    if is_punct(toks, i + 2, '{') {
                        i = skip_group(toks, i + 2, end);
                    } else {
                        i += 2;
                    }
                } else {
                    i = skip_to_semi(toks, i, end);
                }
            }
            Some("use" | "static" | "type") => {
                i = skip_to_semi(toks, i, end);
            }
            _ => i += 1,
        }
    }
}

fn parse_struct(toks: &[Token], mut i: usize, end: usize, ast: &mut FileAst) -> usize {
    let line = toks[i].line;
    i += 1; // `struct`
    let Some(name) = ident_text(toks, i) else {
        return i;
    };
    let name = name.to_string();
    i += 1;
    if is_punct(toks, i, '<') {
        i = skip_generics(toks, i, end);
    }
    // Skip a `where` clause up to the body.
    while i < end && !is_punct(toks, i, '{') && !is_punct(toks, i, ';') && !is_punct(toks, i, '(') {
        i += 1;
    }
    if is_punct(toks, i, '(') {
        // Tuple struct: fields are positional, out of rule scope.
        i = skip_group(toks, i, end);
        ast.structs.push(StructDef {
            name,
            line,
            fields: Vec::new(),
        });
        return skip_to_semi(toks, i, end);
    }
    if !is_punct(toks, i, '{') {
        // Unit struct `struct S;`.
        ast.structs.push(StructDef {
            name,
            line,
            fields: Vec::new(),
        });
        return i + 1;
    }
    let close = skip_group(toks, i, end);
    let mut fields = Vec::new();
    let mut j = i + 1;
    let body_end = close.saturating_sub(1);
    while j < body_end {
        if is_punct(toks, j, '#') {
            j = skip_attribute(toks, j, body_end);
            continue;
        }
        if is_ident(toks, j, "pub") {
            j += 1;
            if is_punct(toks, j, '(') {
                j = skip_group(toks, j, body_end);
            }
            continue;
        }
        let Some(fname) = ident_text(toks, j) else {
            j += 1;
            continue;
        };
        if is_punct(toks, j + 1, ':') && !is_punct(toks, j + 2, ':') {
            fields.push(FieldDef {
                name: fname.to_string(),
                line: toks[j].line,
            });
            // Skip the type up to the next top-level comma.
            j += 2;
            while j < body_end {
                match toks[j].text.as_str() {
                    "," => {
                        j += 1;
                        break;
                    }
                    "<" => j = skip_generics(toks, j, body_end),
                    "(" | "[" | "{" => j = skip_group(toks, j, body_end),
                    _ => j += 1,
                }
            }
        } else {
            j += 1;
        }
    }
    ast.structs.push(StructDef { name, line, fields });
    close
}

fn parse_impl(toks: &[Token], mut i: usize, end: usize, ast: &mut FileAst) -> usize {
    i += 1; // `impl`
    if is_punct(toks, i, '<') {
        i = skip_generics(toks, i, end);
    }
    // First path: the trait for `impl Trait for Type`, else the self type.
    // See through `&`, `mut`, and `dyn` prefixes.
    let strip_prefix = |toks: &[Token], mut j: usize| loop {
        if is_punct(toks, j, '&') {
            j += 1;
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Lifetime) {
                j += 1;
            }
        } else if is_ident(toks, j, "mut") || is_ident(toks, j, "dyn") {
            j += 1;
        } else {
            return j;
        }
    };
    i = strip_prefix(toks, i);
    let (first, after_first) = parse_path(toks, i, end);
    i = after_first;
    let (trait_name, type_name) = if is_ident(toks, i, "for") {
        i = strip_prefix(toks, i + 1);
        // `impl<T> Persist for [T; 6]` / `… for (A, B)`: no base name.
        let (second, after_second) = parse_path(toks, i, end);
        i = after_second;
        if second.is_none() {
            // Composite self type: skip its group so the body is found.
            if is_punct(toks, i, '[') || is_punct(toks, i, '(') {
                i = skip_group(toks, i, end);
            }
        }
        (first, second)
    } else {
        (None, first)
    };
    // Skip a `where` clause up to the body brace.
    while i < end && !is_punct(toks, i, '{') && !is_punct(toks, i, ';') {
        i = match toks[i].text.as_str() {
            "<" => skip_generics(toks, i, end),
            "(" | "[" => skip_group(toks, i, end),
            _ => i + 1,
        };
    }
    if !is_punct(toks, i, '{') {
        return i + 1;
    }
    let close = skip_group(toks, i, end);
    let owner = type_name.map(|type_name| Owner {
        type_name,
        trait_name,
    });
    parse_items(toks, i + 1, close.saturating_sub(1), owner.as_ref(), ast);
    close
}

fn parse_fn(
    toks: &[Token],
    mut i: usize,
    end: usize,
    owner: Option<&Owner>,
    ast: &mut FileAst,
) -> usize {
    let line = toks[i].line;
    i += 1; // `fn`
    let Some(name) = ident_text(toks, i) else {
        return i;
    };
    let name = name.to_string();
    i += 1;
    if is_punct(toks, i, '<') {
        i = skip_generics(toks, i, end);
    }
    if !is_punct(toks, i, '(') {
        return i;
    }
    let params_close = skip_group(toks, i, end);
    let params = parse_params(toks, i + 1, params_close.saturating_sub(1));
    i = params_close;
    // Return type and where clause: scan to the body `{` or a `;`
    // (trait method declaration). Generic and tuple groups are skipped so
    // a `{` can only be the body.
    while i < end && !is_punct(toks, i, '{') && !is_punct(toks, i, ';') {
        i = match toks[i].text.as_str() {
            "<" => skip_generics(toks, i, end),
            "(" | "[" => skip_group(toks, i, end),
            _ => i + 1,
        };
    }
    let body = if is_punct(toks, i, '{') {
        let close = skip_group(toks, i, end);
        let facts = body_facts(toks, i + 1, close.saturating_sub(1));
        i = close;
        facts
    } else {
        i += 1;
        BodyFacts::default()
    };
    ast.fns.push(FnDef {
        name,
        line,
        owner: owner.cloned(),
        params,
        body,
    });
    i
}

/// Parses the parameter list between the parens of a function signature.
fn parse_params(toks: &[Token], lo: usize, hi: usize) -> Vec<Param> {
    let mut out = Vec::new();
    // Split on top-level commas.
    let mut starts = vec![lo];
    let mut j = lo;
    while j < hi {
        match toks[j].text.as_str() {
            "," => {
                starts.push(j + 1);
                j += 1;
            }
            "<" => j = skip_generics(toks, j, hi),
            "(" | "[" | "{" => j = skip_group(toks, j, hi),
            _ => j += 1,
        }
    }
    starts.push(hi + 1);
    for w in starts.windows(2) {
        let (mut p, p_end) = (w[0], w[1].saturating_sub(1).min(hi));
        if p >= p_end {
            continue;
        }
        if is_punct(toks, p, '#') {
            p = skip_attribute(toks, p, p_end);
        }
        // Receiver forms: `self`, `&self`, `&'a self`, `&mut self`,
        // `mut self`.
        if is_punct(toks, p, '&') {
            p += 1;
            if toks.get(p).is_some_and(|t| t.kind == TokKind::Lifetime) {
                p += 1;
            }
        }
        if is_ident(toks, p, "mut") {
            p += 1;
        }
        if is_ident(toks, p, "self") {
            out.push(Param {
                name: "self".to_string(),
            });
            continue;
        }
        let Some(pname) = ident_text(toks, p) else {
            continue; // destructuring pattern — out of scope
        };
        if !is_punct(toks, p + 1, ':') || is_punct(toks, p + 2, ':') {
            continue;
        }
        out.push(Param {
            name: pname.to_string(),
        });
    }
    out
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if let Err(at) = v.binary_search_by(|x| x.as_str().cmp(s)) {
        v.insert(at, s.to_string());
    }
}

/// Extracts [`BodyFacts`] from the token range `toks[lo..hi]` (the inside
/// of a function body).
fn body_facts(toks: &[Token], lo: usize, hi: usize) -> BodyFacts {
    let mut f = BodyFacts::default();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        push_unique(&mut f.idents, &t.text);
        // Call target: `name(` — but not `name!(`, which is a macro.
        if is_punct(toks, i + 1, '(') && !is_punct(toks, i + 1, '!') {
            push_unique(&mut f.callees, &t.text);
        }
        // Turbofish call: `name::<T>(…)`.
        if is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') && is_punct(toks, i + 3, '<') {
            let after = skip_generics(toks, i + 3, hi);
            if is_punct(toks, after, '(') {
                push_unique(&mut f.callees, &t.text);
            }
        }
        if t.text == "self" && is_punct(toks, i + 1, '.') {
            if let Some(field) = ident_text(toks, i + 2) {
                push_unique(&mut f.self_reads, field);
                if chain_is_mutation(toks, i + 3, hi) {
                    push_unique(&mut f.self_muts, field);
                }
            }
        }
        i += 1;
    }
    f
}

/// Starting just past `self.field`, decides whether the place expression
/// is mutated: the chain may continue through `[index]` groups and
/// `.subfield` links; it is a mutation when it ends in `= …` (not `==`),
/// a compound assignment (`+=`, `-=`, …), or a call of a known mutating
/// method (`.push(…)`). A call of any other method ends the chain as a
/// read.
fn chain_is_mutation(toks: &[Token], mut i: usize, hi: usize) -> bool {
    loop {
        if i >= hi {
            return false;
        }
        if is_punct(toks, i, '[') {
            i = skip_group(toks, i, hi);
            continue;
        }
        if is_punct(toks, i, '.') {
            let Some(next) = ident_text(toks, i + 1) else {
                // Tuple index `.0` continues the place chain.
                if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Num) {
                    i += 2;
                    continue;
                }
                return false;
            };
            if is_punct(toks, i + 2, '(') {
                return MUT_METHODS.contains(&next);
            }
            i += 2;
            continue;
        }
        if is_punct(toks, i, '=') {
            // `=` but not `==`; `<=`, `>=`, `!=` arrive here only when the
            // previous token was the comparison punct, which would have
            // ended the chain below, so a bare `=` is an assignment.
            return !is_punct(toks, i + 1, '=');
        }
        if let Some(t) = toks.get(i) {
            if t.kind == TokKind::Punct
                && "+-*/%&|^".contains(&t.text[..])
                && is_punct(toks, i + 1, '=')
                && !is_punct(toks, i + 2, '=')
            {
                return true;
            }
        }
        return false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileAst {
        parse(&lex(src))
    }

    #[test]
    fn struct_fields_with_lines() {
        let ast = parse_src(
            "pub struct SchedStats {\n    pub events: u64,\n    /// doc\n    pub skipped: u64,\n}\n",
        );
        assert_eq!(ast.structs.len(), 1);
        let s = &ast.structs[0];
        assert_eq!(s.name, "SchedStats");
        assert_eq!(
            s.fields,
            vec![
                FieldDef {
                    name: "events".to_string(),
                    line: 2
                },
                FieldDef {
                    name: "skipped".to_string(),
                    line: 4
                }
            ]
        );
    }

    #[test]
    fn tuple_and_unit_structs_have_no_named_fields() {
        let ast = parse_src("struct A(u64, u32);\nstruct B;\nstruct C { x: u64 }\n");
        assert_eq!(ast.structs.len(), 3);
        assert!(ast.structs[0].fields.is_empty());
        assert!(ast.structs[1].fields.is_empty());
        assert_eq!(ast.structs[2].fields.len(), 1);
    }

    #[test]
    fn generic_struct_with_nested_field_types() {
        let ast = parse_src(
            "struct W<T: Clone> where T: Default {\n    map: DetMap<u64, Vec<(u32, T)>>,\n    n: u64,\n}\n",
        );
        let s = &ast.structs[0];
        assert_eq!(s.name, "W");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "map");
        assert_eq!(s.fields[1].name, "n");
    }

    #[test]
    fn trait_impl_owner_and_fn() {
        let ast = parse_src(
            "impl Persist for CorePrivate {\n    fn persist(&mut self, io: &mut dyn StateIo) {\n        self.l1d.persist(io);\n    }\n}\n",
        );
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.name, "persist");
        assert_eq!(
            f.owner,
            Some(Owner {
                type_name: "CorePrivate".to_string(),
                trait_name: Some("Persist".to_string())
            })
        );
        assert_eq!(f.params[0].name, "self");
        assert_eq!(f.params[1].name, "io");
        assert_eq!(f.body.self_reads, vec!["l1d".to_string()]);
    }

    #[test]
    fn generic_blanket_impls_do_not_misparse() {
        let ast = parse_src(
            "impl<T: Persist> Persist for Vec<T> {\n    fn persist(&mut self, io: &mut dyn StateIo) {}\n}\nimpl Persist for [u64; 6] {\n    fn persist(&mut self, io: &mut dyn StateIo) {}\n}\nstruct After { x: u64 }\n",
        );
        // Vec<T> resolves to base `Vec`; the array impl has no base name.
        assert_eq!(
            ast.fns[0].owner.as_ref().map(|o| o.type_name.as_str()),
            Some("Vec")
        );
        assert!(!ast.fns.is_empty());
        // The item after both impls still parses.
        assert_eq!(ast.structs.last().map(|s| s.name.as_str()), Some("After"));
    }

    #[test]
    fn inherent_impl_and_free_fn() {
        let ast = parse_src(
            "impl Engine {\n    fn step(&mut self) { self.clock += 1; }\n}\nfn reconcile_core(core: &mut CorePrivate, mem: &mut MemorySystem) -> f64 { 0.0 }\n",
        );
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(
            ast.fns[0].owner,
            Some(Owner {
                type_name: "Engine".to_string(),
                trait_name: None
            })
        );
        assert_eq!(ast.fns[0].body.self_muts, vec!["clock".to_string()]);
        let free = &ast.fns[1];
        assert_eq!(free.owner, None);
        assert_eq!(free.params[0].name, "core");
        assert_eq!(free.params[1].name, "mem");
    }

    #[test]
    fn body_facts_reads_muts_and_callees() {
        let ast = parse_src(
            "impl E {\n    fn f(&mut self) {\n        self.tasks[i].state = TaskState::Done;\n        self.ready[core].push_back(t);\n        if self.gc.is_some() { helper(self.count); }\n        self.wakes.register(c, tick);\n        let x = self.clock == other;\n    }\n}\n",
        );
        let b = &ast.fns[0].body;
        assert_eq!(
            b.self_muts,
            vec![
                "ready".to_string(),
                "tasks".to_string(),
                "wakes".to_string()
            ]
        );
        assert!(b.self_reads.contains(&"gc".to_string()));
        assert!(b.self_reads.contains(&"clock".to_string()));
        assert!(
            !b.self_muts.contains(&"clock".to_string()),
            "== is not an assignment"
        );
        assert!(
            !b.self_muts.contains(&"gc".to_string()),
            "is_some() is a read"
        );
        assert!(b.callees.contains(&"helper".to_string()));
        assert!(b.callees.contains(&"register".to_string()));
    }

    #[test]
    fn compound_assignment_is_a_mutation() {
        let ast = parse_src("impl E { fn f(&mut self) { self.backlog -= 1.0; self.n += 2; } }");
        let b = &ast.fns[0].body;
        assert_eq!(b.self_muts, vec!["backlog".to_string(), "n".to_string()]);
    }

    #[test]
    fn nested_mod_items_are_found() {
        let ast = parse_src("mod inner {\n    pub struct S { x: u64 }\n    fn g() {}\n}\n");
        assert_eq!(ast.structs.len(), 1);
        assert_eq!(ast.fns.len(), 1);
    }

    #[test]
    fn enums_traits_and_macros_are_skipped_cleanly() {
        let ast = parse_src(
            "enum E { A { x: u64 }, B }\ntrait T { fn decl(&self); }\nmacro_rules! m { () => { struct Fake { y: u64 } }; }\nstruct Real { z: u64 }\n",
        );
        assert_eq!(ast.structs.len(), 1);
        assert_eq!(ast.structs[0].name, "Real");
        assert!(
            ast.fns.is_empty(),
            "trait declarations carry no bodies to lint"
        );
    }

    #[test]
    fn const_fn_and_modifiers_parse_as_fns() {
        let ast = parse_src(
            "impl S {\n    pub const fn new() -> S { S }\n    pub fn after(&mut self) { self.x = 1; }\n}\nconst LIMIT: u64 = 9;\nfn tail() {}\n",
        );
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["new", "after", "tail"]);
        assert_eq!(ast.fns[1].body.self_muts, vec!["x".to_string()]);
    }

    #[test]
    fn where_clause_with_fn_bound_does_not_derail() {
        let ast = parse_src(
            "fn drive<F>(gen: &mut StreamGen, mut emit: F) where F: FnMut(u64, u64) -> bool {\n    emit(1, 2);\n}\n",
        );
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "drive");
        assert!(ast.fns[0].body.callees.contains(&"emit".to_string()));
    }
}
