//! Hostile-input tests for the workspace's two shared artifact readers:
//! the TOML-subset reader (`jas_simkernel::toml`, behind `lint.toml` and
//! the scenario specs) and the JSON reader (`jas_trace::json`, behind
//! `trace-validate`, perfbench and the SARIF checker).
//!
//! Each reader is fed real artifacts — `lint.toml` and every
//! `scenarios/*.toml`; a chrome://tracing export and a `jas-lint --sarif`
//! document — truncated at every char boundary, with seeded byte flips,
//! and with `"`, `\`, `[`, `#` and `\u` inserted at random positions.
//! Every case must come back as `Ok` or as an `Err` in the reader's error
//! format; none may panic.

use jas_lint::config::Config;
use jas_lint::{lint_tree, sarif};
use jas_simkernel::toml::Doc;
use jas_simkernel::SimTime;
use jas_trace::json;
use jas_trace::{TraceEvent, TraceEventKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint is two levels below the repo root")
        .to_path_buf()
}

/// `lint.toml` followed by every scenario spec, in file-name order.
fn toml_seeds() -> Vec<String> {
    let root = repo_root();
    let mut paths = vec![root.join("lint.toml")];
    let mut specs: Vec<PathBuf> = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ is committed")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "scenarios/ holds specs");
    paths.extend(specs);
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("seed is readable"))
        .collect()
}

/// A small chrome://tracing export and the SARIF log of the lint
/// fixture tree.
fn json_seeds() -> Vec<String> {
    let kinds = [
        TraceEventKind::RequestAdmitted { kind: 2 },
        TraceEventKind::PoolQueued { pool: 1 },
        TraceEventKind::JmsSend { queue: 7 },
        TraceEventKind::RmiDispatch,
        TraceEventKind::RequestDone,
    ];
    let events: Vec<TraceEvent> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, what)| TraceEvent {
            at: SimTime::from_millis(3 * i as u64 + 1),
            trace_id: i as u64,
            what,
        })
        .collect();
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let findings = lint_tree(&Config::default(), &fixtures);
    assert!(!findings.is_empty(), "the fixture tree has findings");
    vec![
        jas_trace::export::to_chrome_json(&events),
        sarif::to_sarif(&findings),
    ]
}

/// Parses with the TOML reader; an error must carry its `line N:` prefix.
fn check_toml(text: &str) {
    if let Err(e) = Doc::parse(text) {
        assert!(
            e.starts_with("line "),
            "unprefixed error {e:?} for {text:?}"
        );
    }
}

/// Parses with the JSON reader; an error must name its byte offset.
fn check_json(text: &str) -> bool {
    match json::parse(text) {
        Ok(_) => true,
        Err(e) => {
            assert!(
                e.starts_with("JSON error at byte "),
                "unlocated error {e:?} for {text:?}"
            );
            false
        }
    }
}

/// The tokens insertions draw from: each one opens or escapes something.
const TOKENS: [&str; 5] = ["\"", "\\", "[", "#", "\\u"];

/// One edit: `(0, pos, b)` flips byte `pos % len` by `b | 1`; `(_, pos, t)`
/// inserts `TOKENS[t % 5]` before byte `pos % (len + 1)`. The result goes
/// back to text lossily, so a flip that breaks UTF-8 becomes U+FFFD.
fn mutate(seed: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, pos, b) in edits {
        if kind == 0 && !bytes.is_empty() {
            let at = pos % bytes.len();
            bytes[at] ^= b | 1;
        } else {
            let at = pos % (bytes.len() + 1);
            let token = TOKENS[usize::from(b) % TOKENS.len()].bytes();
            bytes.splice(at..at, token);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn toml_reader_survives_every_truncation() {
    for seed in toml_seeds() {
        Doc::parse(&seed).expect("seed parses");
        for (i, _) in seed.char_indices() {
            check_toml(&seed[..i]);
        }
    }
}

/// A mixed array and an empty key are named as such, by the reader and
/// through `lint.toml`'s loader, instead of by a symptom (the first item
/// that fails the guessed type; an unknown key `""`).
#[test]
fn toml_reader_names_mixed_arrays_and_empty_keys() {
    for (text, named) in [
        ("[scan]\nroots = [\"a\", 1]\n", "line 2: mixed array"),
        ("[scan]\nroots = [1, \"a\"]\n", "line 2: mixed array"),
        ("[scan]\n= 1\n", "line 2: empty key"),
        ("= \"crates\"\n", "line 1: empty key"),
    ] {
        let err = Doc::parse(text).expect_err("rejected");
        assert!(err.starts_with(named), "{text:?}: {err}");
        let err = Config::parse(text).expect_err("rejected");
        assert!(err.starts_with(named), "{text:?} via lint.toml: {err}");
    }
}

#[test]
fn json_reader_rejects_every_proper_prefix() {
    for seed in json_seeds() {
        assert!(check_json(&seed), "seed parses");
        for (i, _) in seed.char_indices() {
            let prefix = &seed[..i];
            // Both seeds are one object: only the whole of it (trailing
            // whitespace aside) is a document.
            assert_eq!(
                check_json(prefix),
                prefix.trim_end() == seed.trim_end(),
                "prefix of {i} bytes"
            );
        }
    }
}

proptest! {
    #[test]
    fn toml_reader_survives_flips_and_insertions(
        edits in proptest::collection::vec((0u8..2, any::<usize>(), any::<u8>()), 1..8),
    ) {
        for seed in toml_seeds() {
            check_toml(&mutate(&seed, &edits));
        }
    }

    #[test]
    fn json_reader_survives_flips_and_insertions(
        edits in proptest::collection::vec((0u8..2, any::<usize>(), any::<u8>()), 1..8),
    ) {
        for seed in json_seeds() {
            check_json(&mutate(&seed, &edits));
        }
    }
}
