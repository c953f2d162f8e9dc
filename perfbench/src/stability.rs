//! Commands that drive the benchmark in child processes of this same
//! build. `report` runs every workload once and prints what each run
//! printed; `stability` runs two interleaved sets and checks that they
//! agree within the bounds `BENCHMARK.json` fixes.

use crate::stats;
use crate::workloads::{self, WORKLOADS};
use jas_trace::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

/// The benchmark definition, at the root of the checkout.
const SPEC_PATH: &str = "BENCHMARK.json";

/// What `BENCHMARK.json` says.
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Bound>,
}

/// One end-to-end metric and the regression bound it carries.
struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn load_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{SPEC_PATH}: no {key} list"))
    };
    let text_of = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{SPEC_PATH}: an entry has no {key}"))
    };
    let run_seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{SPEC_PATH}: no run_seconds"))?;
    let workloads = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{SPEC_PATH}: a metric has no bound"))?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        run_seconds,
        workloads,
        end_to_end,
    })
}

fn read_spec() -> Result<Spec, String> {
    let text =
        std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("cannot read {SPEC_PATH}: {e}"))?;
    load_spec(&text)
}

/// A benchmark process's result line.
struct ResultLine {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<ResultLine, String> {
    let doc = json::parse(line)?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("result line has no {key}"))
    };
    if !matches!(doc.get("correct"), Some(JsonValue::Bool(_))) {
        return Err("result line has no correct flag".to_string());
    }
    let Some(JsonValue::Object(members)) = doc.get("metrics") else {
        return Err("result line has no metrics object".to_string());
    };
    let metrics = members
        .iter()
        .map(|(name, v)| {
            v.get("value")
                .and_then(JsonValue::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ResultLine {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Runs one benchmark process of this build; returns what it printed and
/// its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(String, ResultLine), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let args = [
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        if trace { "1" } else { "0" }.to_string(),
    ];
    let out = Command::new(exe)
        .args(&args)
        .output()
        .map_err(|e| format!("cannot start a benchmark process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed} printed nothing"))?;
    let result = parse_result(last)?;
    Ok((stdout, result))
}

/// `BENCHMARK.json`'s `run_seconds`: how long one benchmark process
/// measures unless told otherwise.
pub fn run_seconds() -> Result<f64, String> {
    read_spec().map(|s| s.run_seconds)
}

/// `report [--seed N] [--seconds S] [--trace 0|1]`: every workload once,
/// at the default seed unless told otherwise, printing what each run
/// printed and the failed share of all runs.
pub fn report(args: &[String]) -> Result<(), String> {
    let flags = crate::flags(args, &["--seed", "--seconds", "--trace"])?;
    let seed = crate::number(&flags, "--seed", workloads::default_seed())?;
    let seconds = crate::seconds(&flags)?;
    let trace = crate::trace_flag(&flags)?;
    let (mut attempted, mut failed) = (0.0, 0.0);
    for w in &WORKLOADS {
        let (text, result) = child(w.name, seed, seconds, trace)?;
        println!("{text}");
        attempted += result.attempted;
        failed += result.failed;
    }
    println!(
        "failed_frac = {} ({failed} of {attempted} runs failed the output check)",
        failed / attempted
    );
    if failed > 0.0 {
        return Err("some runs failed the output check".to_string());
    }
    Ok(())
}

/// `stability [--runs N] [--seconds S]`: two sets of runs of this build,
/// interleaved — for seeds 1 to N, each workload of `BENCHMARK.json` runs
/// once per set, alternating which set goes first. For each workload and
/// end-to-end metric it prints each set's median and spread (IQR over
/// median) and whether the sets agree within `BENCHMARK.json`'s bounds:
/// each spread within the bound, and the two medians apart by no more
/// than the bound in either direction.
pub fn stability(args: &[String]) -> Result<(), String> {
    let flags = crate::flags(args, &["--runs", "--seconds"])?;
    let spec = read_spec()?;
    let runs: u64 = crate::number(&flags, "--runs", 10)?;
    let seconds = crate::number(&flags, "--seconds", spec.run_seconds)?;
    let mut values: BTreeMap<(String, usize), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for seed in 1..=runs {
        for w in &spec.workloads {
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for set in order {
                let (_, r) = child(w, seed, seconds, false)?;
                attempted += r.attempted;
                failed += r.failed;
                println!(
                    "seed {seed} {w} set {}: run_s {:.3} setup_s {:.3} failed {}",
                    ["A", "B"][set],
                    r.metrics.get("run_s").copied().unwrap_or(0.0),
                    r.metrics.get("setup_s").copied().unwrap_or(0.0),
                    r.failed
                );
                let slot = values.entry((w.clone(), set)).or_default();
                for (name, v) in r.metrics {
                    slot.entry(name).or_default().push(v);
                }
            }
        }
    }

    println!(
        "\n{:<14} {:<24} {:>6} {:>14} {:>8} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "bound", "A median", "A iqr/m", "B median", "B iqr/m", "|B-A|/A"
    );
    let mut all_agree = true;
    for w in &spec.workloads {
        for b in &spec.end_to_end {
            let set = |s: usize| {
                values
                    .get(&(w.clone(), s))
                    .and_then(|m| m.get(&b.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, bb) = (set(0), set(1));
            let (Some(ma), Some(mb), Some(sa), Some(sb)) = (
                stats::median(&a),
                stats::median(&bb),
                stats::spread(&a),
                stats::spread(&bb),
            ) else {
                println!(
                    "{w:<14} {:<24} no samples or a zero median: DISAGREE",
                    b.name
                );
                all_agree = false;
                continue;
            };
            // Both sets are the same build, so a gap either way is a
            // disagreement.
            let apart = (mb - ma).abs() / ma.abs();
            let agree = sa <= b.bound && sb <= b.bound && apart <= b.bound;
            let steady = sa < b.bound / 3.0 && sb < b.bound / 3.0;
            all_agree &= agree;
            let verdict = match (agree, steady) {
                (true, true) => "agree, spreads under a third of the bound",
                (true, false) => "agree",
                (false, _) => "DISAGREE",
            };
            println!(
                "{w:<14} {:<24} {:>6.3} {ma:>14.6} {sa:>8.4} {mb:>14.6} {sb:>8.4} {:>7.2}%  {verdict} ({})",
                b.name,
                b.bound,
                apart * 100.0,
                b.unit
            );
        }
    }
    println!(
        "\nfailed_frac = {} ({failed} of {attempted} runs failed the output check)",
        failed / attempted
    );
    if !all_agree || failed > 0.0 {
        return Err("the two sets do not agree within the bounds".to_string());
    }
    println!("the two sets agree within the bounds on every workload and metric");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{Report, END_TO_END};
    use crate::layers::PER_LAYER;

    #[test]
    fn benchmark_json_names_exactly_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the harness");
        let spec = load_spec(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|b| (b.name.as_str(), b.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let layers: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(JsonValue::as_array)
            .expect("a per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        let setup = spec.end_to_end.iter().find(|b| b.name == "setup_s");
        let largest = spec.end_to_end.iter().map(|b| b.bound).fold(0.0, f64::max);
        assert_eq!(
            setup.map(|b| b.bound),
            Some(largest),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_lines_round_trip() {
        let report = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![("run_s", 1.25, "s"), ("setup_s", f64::NAN, "s")],
        };
        let line = parse_result(&report.json()).expect("the result line parses");
        assert_eq!((line.attempted, line.failed), (3.0, 1.0));
        assert_eq!(line.metrics["run_s"], 1.25);
        assert_eq!(
            line.metrics["setup_s"], 0.0,
            "a non-finite value prints as 0"
        );
    }
}
