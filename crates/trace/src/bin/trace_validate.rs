//! `trace-validate` — checks an exported chrome://tracing JSON trace
//! against the checked-in schema (`docs/trace-schema.json`).
//!
//! CI runs this offline (the PR-path `invariants` job on a short traced
//! run, nightly `trace-smoke` on the full sweep export); the validator
//! therefore implements the small JSON-Schema subset the checked-in schema
//! uses (`type`, `required`, `properties`, `items`, `enum`, `minItems`) on
//! top of the crate's own JSON reader ([`jas_trace::json`]) — no external
//! dependencies.

use jas_trace::json::{self, JsonValue};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (schema_path, trace_path) = match args.as_slice() {
        [schema, trace] => (schema, trace),
        _ => {
            eprintln!("usage: trace-validate <schema.json> <trace.json>");
            return ExitCode::FAILURE;
        }
    };
    let schema = match load(schema_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace-validate: schema {schema_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match load(trace_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trace-validate: trace {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut errors = Vec::new();
    validate(&trace, &schema, "$", &mut errors);
    if errors.is_empty() {
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len);
        println!("trace-validate: OK ({events} events, schema {schema_path})");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("trace-validate: {e}");
        }
        eprintln!("trace-validate: FAILED with {} error(s)", errors.len());
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    json::parse(&text)
}

/// Validates `value` against the JSON-Schema subset in `schema`,
/// appending human-readable problems (with JSONPath-ish locations) to
/// `errors`.
fn validate(value: &JsonValue, schema: &JsonValue, path: &str, errors: &mut Vec<String>) {
    if let Some(expected) = schema.get("type").and_then(JsonValue::as_str) {
        if !type_matches(value, expected) {
            errors.push(format!(
                "{path}: expected {expected}, got {}",
                value.type_name()
            ));
            return;
        }
    }
    if let Some(allowed) = schema.get("enum").and_then(JsonValue::as_array) {
        if !allowed.contains(value) {
            errors.push(format!("{path}: value not in enum"));
        }
    }
    if let Some(required) = schema.get("required").and_then(JsonValue::as_array) {
        for key in required {
            if let Some(name) = key.as_str() {
                if value.get(name).is_none() {
                    errors.push(format!("{path}: missing required member '{name}'"));
                }
            }
        }
    }
    if let Some(JsonValue::Object(props)) = schema.get("properties") {
        for (name, subschema) in props {
            if let Some(member) = value.get(name) {
                validate(member, subschema, &format!("{path}.{name}"), errors);
            }
        }
    }
    if let Some(min) = schema.get("minItems").and_then(JsonValue::as_f64) {
        if let Some(items) = value.as_array() {
            if (items.len() as f64) < min {
                errors.push(format!("{path}: fewer than {min} items"));
            }
        }
    }
    if let Some(item_schema) = schema.get("items") {
        if let Some(items) = value.as_array() {
            for (i, item) in items.iter().enumerate() {
                validate(item, item_schema, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

fn type_matches(value: &JsonValue, expected: &str) -> bool {
    match expected {
        "integer" => value
            .as_f64()
            .is_some_and(|n| n.is_finite() && n.fract() == 0.0),
        other => value.type_name() == other,
    }
}
