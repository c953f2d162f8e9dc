//! One benchmark process: runs one workload, checks its output, and prints
//! every metric by name and unit, then — last — the one-line JSON result.

use crate::layers::{self, Traced, PER_LAYER};
use crate::stats::{self, ChunkPool, TAIL_SUPPORT};
use crate::system::{self, NodeTimes, Outcome, Run, System};
use crate::workloads::{self, Workload};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Set-ups timed per measured run: the run's own, and before it the rest,
/// each dropped once timed. `setup_s` is the median of them all. A set-up
/// takes tens of milliseconds, so it is the median of a dozen or more,
/// spread across the whole window, rather than of the few a run count
/// alone would give.
const SETUPS_PER_RUN: usize = 4;

/// Runs a measuring process makes at the least, so that the output check
/// always compares two runs of the seed.
const MIN_RUNS: usize = 2;

/// The end-to-end metrics the result line carries, with their units, in
/// report order. `sim_mcycles_per_host_s`, `chunk_ms_p50`, `chunk_ms_p95`,
/// `sim_jops`, `sim_slo_miss_frac` and `failed_frac` are printed too but
/// stay off the result line. The first three are host times that drift
/// with a shared host past any allowed bound, and a regression in them
/// shows in `run_s`; the last two read 0 on healthy runs; and JOPS is
/// fixed by the arrival stream, which `--seed` does not change.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cpi", "cycles/inst"),
];

/// What one benchmark process reports.
pub struct Report {
    /// Runs whose output was checked.
    pub attempted: usize,
    /// Of those, runs that failed the check or panicked.
    pub failed: usize,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
pub fn main(args: &[String]) -> Result<(), String> {
    let flags = crate::flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = crate::number(&flags, "--seed", workloads::default_seed())?;
    let seconds = crate::seconds(&flags)?;
    let trace = crate::trace_flag(&flags)?;
    println!("workload {}: {}", w.name, w.why);
    let pinned = if seed == workloads::default_seed() {
        "  (the default seed: pinned digests checked)"
    } else {
        ""
    };
    println!("  jas2004 {} --seed {seed}{pinned}", w.args.join(" "));
    let report = if trace {
        traced(w, seed)?
    } else {
        untraced(w, seed, seconds)?
    };
    println!("{}", report.json());
    Ok(())
}

/// The output check: every run of a seed must print the digest lines of
/// the first run of that seed — and, at the default seed, the pinned ones
/// — and a fleet must lose no request.
struct Check {
    pinned: &'static [(&'static str, u64)],
    first: Option<(Vec<(String, u64)>, u64)>,
}

impl Check {
    fn new(w: &'static Workload, seed: u64) -> Check {
        let pinned = if seed == workloads::default_seed() {
            w.pinned
        } else {
            &[]
        };
        Check {
            pinned,
            first: None,
        }
    }

    /// Checks one run's digest lines and lost count; prints the verdict.
    fn pass(&mut self, what: &str, digests: &[(String, u64)], lost: u64) -> bool {
        let mut problems = Vec::new();
        if lost != 0 {
            problems.push(format!("{lost} requests lost"));
        }
        for &(label, want) in self.pinned {
            match digests.iter().find(|(l, _)| l == label) {
                Some(&(_, got)) if got == want => {}
                Some(&(_, got)) => {
                    problems.push(format!("{label}={got:#018x}, pinned {want:#018x}"));
                }
                None => problems.push(format!("no {label}")),
            }
        }
        if let Some((d, l)) = &self.first {
            if d.as_slice() != digests || *l != lost {
                problems.push("differs from the first run of this seed".to_string());
            }
        } else {
            self.first = Some((digests.to_vec(), lost));
        }
        let shown: Vec<String> = digests
            .iter()
            .map(|(l, d)| format!("{l}={d:#018x}"))
            .collect();
        let verdict = if problems.is_empty() { "ok" } else { "FAILED" };
        println!("  check {what}: {verdict}: {} lost={lost}", shown.join(" "));
        for p in &problems {
            println!("    {p}");
        }
        problems.is_empty()
    }
}

/// One untraced run and the set-ups timed for it.
struct Measured {
    /// [`SETUPS_PER_RUN`] set-up times, the run's own last.
    setups: Vec<f64>,
    run: Run,
    outcome: Outcome,
}

fn measure(w: &Workload, seed: u64) -> Result<Measured, String> {
    let mut setups = Vec::with_capacity(SETUPS_PER_RUN);
    loop {
        let start = Instant::now();
        let o = system::parse(w, seed, &[])?;
        let mut sys = System::build(&o, None);
        setups.push(start.elapsed().as_secs_f64());
        if setups.len() == SETUPS_PER_RUN {
            let run = sys.run(&o);
            let outcome = sys.outcome(&o);
            return Ok(Measured {
                setups,
                run,
                outcome,
            });
        }
    }
}

/// Runs `f`; a panic becomes `Ok(None)`, a run that counts as failed.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<Option<T>, String> {
    catch_unwind(AssertUnwindSafe(f)).map_or(Ok(None), |r| r.map(Some))
}

/// `--trace 0`: whole runs, each with fresh set-ups, until a run of the
/// median length so far would end past `seconds`; at least [`MIN_RUNS`].
/// Prints every end-to-end metric.
fn untraced(w: &'static Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let window = Instant::now();
    let mut setups = Vec::new();
    let mut check = Check::new(w, seed);
    let (mut attempted, mut failed) = (0, 0);
    let mut runs: Vec<Measured> = Vec::new();
    let mut lengths = Vec::new();
    while attempted < MIN_RUNS
        || window.elapsed().as_secs_f64() + stats::median(&lengths).unwrap_or(0.0) <= seconds
    {
        attempted += 1;
        let start = Instant::now();
        match guarded(|| measure(w, seed))? {
            Some(m)
                if check.pass(
                    &format!("run {attempted}"),
                    &m.outcome.digests,
                    m.outcome.lost,
                ) =>
            {
                println!(
                    "  run {attempted}: setup {:.3} s (median of {SETUPS_PER_RUN}), run {:.3} s, {} chunks",
                    stats::median(&m.setups).unwrap_or(0.0),
                    m.run.run_s,
                    m.run.chunk_ms.len()
                );
                setups.extend_from_slice(&m.setups);
                runs.push(m);
            }
            Some(_) => failed += 1,
            None => {
                println!("  run {attempted}: panicked");
                failed += 1;
            }
        }
        lengths.push(start.elapsed().as_secs_f64());
    }
    let measured_s = window.elapsed().as_secs_f64();

    let run_s: Vec<f64> = runs.iter().map(|m| m.run.run_s).collect();
    let speed: Vec<f64> = runs
        .iter()
        .map(|m| m.outcome.cycles as f64 / 1e6 / m.run.run_s)
        .collect();
    let mut pool = ChunkPool::default();
    for m in &runs {
        pool.add_run(&m.run.chunk_ms);
    }
    let sim = runs.first().map(|m| &m.outcome);
    let n = runs.len();
    let chunks = pool.samples().len();
    let rows: [(Option<f64>, String); 4] = [
        (stats::median(&run_s), format!("median of {n} runs")),
        (
            stats::median(&setups),
            format!(
                "median of {} set-ups, {SETUPS_PER_RUN} before each run: scenario parse + construction",
                setups.len()
            ),
        ),
        (
            Some(peak_rss_mb()),
            "peak resident set of this process".to_string(),
        ),
        (sim.map(|o| o.cpi), cpi_note(w, sim)),
    ];
    println!(
        "end-to-end metrics (untraced; {n} of {attempted} runs passed the output check, {measured_s:.1} s measured):"
    );
    let row = |name: &str, value: f64, unit: &str, note: &str| {
        println!("  {name:<24} {value:>14.6} {unit:<12} {note}");
    };
    let mut metrics = Vec::new();
    for (&(name, unit), (value, note)) in END_TO_END.iter().zip(rows) {
        let value = value.unwrap_or(0.0);
        row(name, value, unit, &note);
        metrics.push((name, value, unit));
    }
    println!("  off the result line:");
    row(
        "sim_mcycles_per_host_s",
        stats::median(&speed).unwrap_or(0.0),
        "Mcycles/s",
        &format!("median of {n} runs; HPM cycles summed over cores and nodes"),
    );
    for p in [50.0, 95.0] {
        row(
            &format!("chunk_ms_p{p}"),
            stats::percentile(pool.samples(), p).unwrap_or(0.0),
            "ms",
            &format!(
                "host ms per simulated s; {chunks} chunks pooled over {} runs",
                pool.runs()
            ),
        );
    }
    match stats::tail(pool.samples()) {
        Some(t) => println!(
            "  chunk tail: p{} = {:.3} ms per simulated s ({} of {} samples beyond it)",
            t.percentile, t.value, t.beyond, t.samples
        ),
        None => println!("  chunk tail: fewer than {TAIL_SUPPORT} samples beyond the median"),
    }
    row(
        "sim_jops",
        sim.map_or(0.0, |o| o.jops),
        "1/s",
        "modelled design over the steady window; repeats exactly",
    );
    row(
        "sim_slo_miss_frac",
        sim.map_or(0.0, |o| o.slo_miss_frac),
        "ratio",
        "steady window; errored and shed requests count as misses",
    );
    row(
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
        &format!("{failed} of {attempted} runs failed the output check"),
    );
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// `sim_cpi`'s note: its error against the paper where the paper has a
/// reference for the workload, and that it has none otherwise.
fn cpi_note(w: &Workload, sim: Option<&Outcome>) -> String {
    match (w.paper_cpi, sim) {
        (Some(paper), Some(o)) => format!(
            "steady window; {:+.1}% against the paper's ~{paper} (EXPERIMENTS.md, Figure 5)",
            (o.cpi / paper - 1.0) * 100.0
        ),
        _ => "steady window; the paper gives no reference for this workload".to_string(),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`; 0 without `/proc`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `--trace 1`: an untraced run; the traced run — HOSTPROF on, the fleet's
/// node and arrival calls timed; the run as `jas2004` itself makes it; all
/// three checked against each other. Then isolated timings of hot calls.
/// Prints every per-layer metric.
fn traced(w: &'static Workload, seed: u64) -> Result<Report, String> {
    let mut check = Check::new(w, seed);
    let attempted = 3;
    let mut failed = 0;
    let untraced_run_s = match guarded(|| measure(w, seed))? {
        Some(m) if check.pass("untraced run", &m.outcome.digests, m.outcome.lost) => m.run.run_s,
        _ => {
            failed += 1;
            0.0
        }
    };
    let o = system::parse(w, seed, &["--host-prof"])?;
    let times = Rc::new(RefCell::new(NodeTimes::default()));
    let traced = guarded(|| {
        let mut sys = System::build(&o, Some(&times));
        let run = sys.run(&o);
        let outcome = sys.outcome(&o);
        Ok((sys, run, outcome))
    })?;
    if !matches!(&traced, Some((_, _, out)) if check.pass("traced run", &out.digests, out.lost)) {
        failed += 1;
    }
    let reference =
        guarded(|| -> Result<_, String> { Ok(system::reference(&system::parse(w, seed, &[])?)) })?;
    if !matches!(&reference, Some((d, lost)) if check.pass("jas2004's own run path", d, *lost)) {
        failed += 1;
    }
    let Some((sys, run, _)) = traced else {
        let metrics = PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect();
        return Ok(Report {
            attempted,
            failed,
            metrics,
        });
    };
    let node_times = times.borrow().clone();
    let metrics = layers::per_layer(&Traced {
        o: &o,
        system: &sys,
        run: &run,
        untraced_run_s,
        node_times: &node_times,
        micro: layers::micro(&o),
    });
    println!(
        "per-layer metrics (traced run {:.3} s, untraced run {untraced_run_s:.3} s):",
        run.run_s
    );
    for &(name, value, unit) in &metrics {
        println!("  {name:<32} {value:>18.6} {unit}");
    }
    layers::print_shares(&metrics, run.run_s);
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}
