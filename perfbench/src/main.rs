//! `jas-perfbench`: the benchmark of the `jas2004` simulator.
//!
//! Run it from the repository root, where the workloads' scenario files
//! live (`perfbench/BENCHMARK.md` says what it measures):
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-ir40 --seed 1 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- report
//! cargo run --release --manifest-path perfbench/Cargo.toml -- stability --runs 10
//! ```

mod bench;
mod layers;
mod stability;
mod stats;
mod system;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
usage:
  jas-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
      run one workload for S seconds (default: BENCHMARK.json's
      run_seconds); the last line is the JSON result
  jas-perfbench report [--seed N] [--seconds S] [--trace 0|1]
      run every workload once and print what each run printed
  jas-perfbench stability [--runs N] [--seconds S]
      two interleaved sets of runs at seeds 1..=N of every workload,
      judged against BENCHMARK.json's bounds
workloads: steady-ir40, diurnal-event, flash-fleet
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("report") => stability::report(&args[1..]),
        Some("stability") => stability::stability(&args[1..]),
        Some("--help" | "-h") => {
            print!("{USAGE}");
            Ok(())
        }
        _ => bench::main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("jas-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Reads `--flag value` pairs, refusing flags outside `known`.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'\n\n{USAGE}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(flag.as_str(), value.as_str());
    }
    Ok(out)
}

/// `flag`'s value, parsed; `default` when the flag is absent.
fn number<T: FromStr>(flags: &BTreeMap<&str, &str>, flag: &str, default: T) -> Result<T, String> {
    flags.get(flag).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{flag}: '{v}' is not a number"))
    })
}

/// `--seconds`, or else `BENCHMARK.json`'s `run_seconds`; a positive
/// duration.
fn seconds(flags: &BTreeMap<&str, &str>) -> Result<f64, String> {
    let seconds = match flags.get("--seconds") {
        Some(_) => number(flags, "--seconds", 0.0)?,
        None => stability::run_seconds()?,
    };
    if seconds.is_finite() && seconds > 0.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds: {seconds} is not a positive duration"))
    }
}

/// `--trace`: `0` for the end-to-end metrics, `1` for the per-layer ones.
fn trace_flag(flags: &BTreeMap<&str, &str>) -> Result<bool, String> {
    match flags.get("--trace").copied().unwrap_or("0") {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace: '{other}' is not 0 or 1")),
    }
}
