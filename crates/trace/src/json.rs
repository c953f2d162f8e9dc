//! The workspace's one JSON reader.
//!
//! The workspace is offline-only (no new dependencies), so nothing can pull
//! in `serde_json`. This module implements the subset of JSON the
//! workspace's own artifacts use, and every JSON consumer reads through it:
//!
//! - the `trace-validate` binary, for chrome://tracing exports and
//!   `docs/trace-schema.json`;
//! - perfbench's stability checks, for `BENCHMARK.json` and the
//!   per-run JSON lines;
//! - `tests/integration_trace.rs`, for the exporter's output;
//! - `jas-lint`'s SARIF schema-subset checker (a dev-dependency, so the
//!   checker does not trust the writer it checks).
//!
//! Object members keep source order in a `Vec` (the workspace determinism
//! lint bans `HashMap` in simulation crates, and ordered members make
//! validator error messages stable). Parsing is linear in the input and
//! never panics: malformed input, including arrays and objects nested
//! more than 128 deep, is an `Err` with a byte offset.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; members in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The JSON type name, as the schema's `type` keyword spells it.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so a bound keeps a hostile document from
/// overflowing the stack; the workspace's artifacts nest fewer than ten
/// levels.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte; always on a char boundary.
    pos: usize,
    /// Open arrays and objects around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", char::from(byte))))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        let end = self.pos + word.len();
        if self.bytes.len() >= end && &self.bytes[self.pos..end] == word.as_bytes() {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `inner`, one level deeper.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let end = self.pos + 4;
                            let code = self
                                .text
                                .get(self.pos..end)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.err("bad or truncated \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // exporter; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos = end;
                        }
                        other => {
                            return Err(self.err(&format!("bad escape '\\{}'", char::from(other))))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash in one step. Both are ASCII, so the run
                    // ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").expect("parses"), JsonValue::Null);
        assert_eq!(parse(" true ").expect("parses"), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e1").expect("parses"), JsonValue::Number(-25.0));
        assert_eq!(
            parse("\"a\\nb\"").expect("parses"),
            JsonValue::String("a\nb".to_owned())
        );
        let doc = parse("{\"k\": [1, {\"n\": null}], \"z\": false}").expect("parses");
        let arr = doc.get("k").and_then(JsonValue::as_array).expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("n"), Some(&JsonValue::Null));
        assert_eq!(doc.get("z"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "1 2",
            "{]",
            "-",
            "1e",
            "\"\\u12",
            "\"\\u+041\"",
            "\"\\ué000\"",
            "\"\\é\"",
            "{\"a\":\"b\\",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        // Nesting is bounded, so a hostile document cannot exhaust the
        // stack.
        let err = parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn parses_exporter_output() {
        let events = vec![crate::TraceEvent {
            at: jas_simkernel::SimTime::from_millis(5),
            trace_id: 3,
            what: crate::TraceEventKind::RequestDone,
        }];
        let doc = parse(&crate::export::to_chrome_json(&events)).expect("exporter JSON parses");
        let items = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("ts").and_then(JsonValue::as_f64), Some(5000.0));
        assert_eq!(items[0].get("pid").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn multi_megabyte_documents_parse_in_linear_time() {
        // ~3.4 MB of long strings with multi-byte chars and escapes: a
        // per-char rescan of the remaining input would take minutes here.
        let name = |i: usize| format!("request-{i}-é \\\"quoted\\\" {}", "x".repeat(64));
        let mut text = String::from("[");
        for i in 0..30_000 {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&format!("{{\"name\":\"{}\",\"n\":{i}}}", name(i)));
        }
        text.push(']');
        assert!(text.len() >= 3 << 20, "{} bytes", text.len());
        let doc = parse(&text).expect("parses");
        let items = doc.as_array().expect("array");
        assert_eq!(items.len(), 30_000);
        for i in [0, 1, 12_345, 29_999] {
            let want = format!("request-{i}-é \"quoted\" {}", "x".repeat(64));
            assert_eq!(
                items[i].get("name").and_then(JsonValue::as_str),
                Some(&*want)
            );
            assert_eq!(
                items[i].get("n").and_then(JsonValue::as_f64),
                Some(i as f64)
            );
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").expect("parses"),
            JsonValue::String("Aé".to_owned())
        );
    }
}
