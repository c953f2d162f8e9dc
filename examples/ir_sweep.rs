//! Injection-rate sweep: throughput, utilization, and the response-time
//! knee.
//!
//! Reproduces the paper's high-level load observations: ~90% CPU at IR40,
//! saturation near IR47, ~1.6 JOPS per IR, and open-loop overload failing
//! the 90%-under-2s/5s run rules rather than throttling.
//!
//! ```sh
//! cargo run --release --example ir_sweep
//! cargo run --release --example ir_sweep -- --quick --trace all
//! ```
//!
//! With `--trace`, every point records the requested event categories and
//! the sweep prints one `TRACE_DIGEST=` line folding the per-point digests
//! together, which the nightly trace-smoke job checks for. `--trace-out
//! PATH` additionally exports the final point's trace as chrome://tracing
//! JSON.

use jas2004::{figures, run_experiment, RunPlan, SutConfig, TraceSpec};
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::SimDuration;

/// FNV-1a fold of the per-point trace digests, in sweep order.
fn fold_digests(digests: &[u64]) -> u64 {
    let mut d = WordDigest::new();
    for &digest in digests {
        d.mix(digest);
    }
    d.value()
}

fn parse_flags() -> (TraceSpec, Option<String>, bool) {
    let mut trace = TraceSpec::off();
    let mut trace_out = None;
    let mut quick = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--trace" => {
                let spec = value.expect("--trace requires a value");
                trace = TraceSpec::parse(spec).expect("valid trace spec");
                i += 1;
            }
            "--trace-out" => {
                trace_out = Some(value.expect("--trace-out requires a value").to_string());
                i += 1;
            }
            "--quick" => quick = true,
            other => panic!("unknown flag '{other}' (--trace --trace-out --quick)"),
        }
        i += 1;
    }
    (trace, trace_out, quick)
}

fn main() {
    let (trace, trace_out, quick) = parse_flags();
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(if quick { 5 } else { 10 }),
        steady: SimDuration::from_secs(if quick { 20 } else { 60 }),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(if quick { 5 } else { 10 }),
    };
    let irs: &[u32] = if quick {
        &[10, 40]
    } else {
        &[10, 20, 30, 40, 47, 55, 65]
    };
    println!("IR sweep (steady {}s per point)", plan.steady.as_secs_f64());
    println!("  IR  busy%  user/sys   JOPS  JOPS/IR  web p90   rmi p90   verdict");
    let mut digests = Vec::new();
    let mut last_trace = None;
    for &ir in irs {
        let mut cfg = SutConfig::at_ir(ir);
        cfg.trace = trace;
        let art = run_experiment(cfg, plan);
        let t = figures::utilization_table(&art);
        println!(
            "  {:>2}  {:>4.0}   {:>3.0}/{:<3.0}  {:>6.1}  {:>6.2}  {:>7.2}s  {:>7.2}s  {}",
            ir,
            (t.user + t.system) * 100.0,
            t.user * 100.0,
            t.system * 100.0,
            t.jops,
            t.jops_per_ir,
            t.web_p90,
            t.rmi_p90,
            if t.passed { "PASSED" } else { "FAILED" }
        );
        digests.push(art.trace_digest);
        last_trace = Some(art.trace);
    }
    println!();
    println!("Expect: near-linear JOPS up to saturation (~IR47), ~1.6 JOPS/IR,");
    println!("then response-time failure under overload (open-loop driver).");
    if trace.enabled() {
        println!("TRACE_DIGEST={:#018x}", fold_digests(&digests));
    }
    if let Some(path) = trace_out {
        let tracer = last_trace.expect("sweep ran at least one point");
        let json = jas_trace::export::to_chrome_json(tracer.events());
        std::fs::write(&path, json).expect("writable --trace-out path");
        eprintln!("trace written to {path}");
    }
}
