//! The `jas2004` command-line front end: run a configuration of the
//! simulated system and print the paper's figures.
//!
//! ```sh
//! cargo run --release --bin jas2004 -- --ir 40 --figure 9
//! jas2004 --scenario trade --figure 3
//! jas2004 --checkpoint-at 60 --checkpoint-out mid.jckpt
//! jas2004 --restore-from mid.jckpt
//! jas2004 --fault-plan db-lock@120-180:0.5 --reduce --witness-out w.jwit
//! ```

use jas2004::cli::{parse_args, Cli, CliOptions, FigureSelect, USAGE};
use jas2004::report::RunReport;
use jas2004::{
    checkpoint_bytes, figures, reduce_divergence, report, restore_engine, run_artifacts_from,
    run_cluster_with, Engine, FaultPlan, FaultWindow, RunPlan, SutConfig,
};
use jas_hpm::PhaseHpm;
use jas_simkernel::{SimDuration, SimTime};
use jas_workload::ReplayLog;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run(o)) => *o,
        Ok(Cli::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read '{}': {e}", path.display()))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write '{}': {e}", path.display()))
}

fn run(options: CliOptions) -> Result<(), String> {
    let CliOptions {
        config,
        plan,
        select,
        trace_out,
        checkpoint_at,
        checkpoint_out,
        restore_from,
        record_out,
        replay_from,
        reduce,
        witness_out,
        nodes,
        dispatch,
        scenario_spec,
    } = options;
    if reduce {
        return run_reduce(config, plan, witness_out.as_deref());
    }
    let spec = scenario_spec.as_deref();
    eprintln!(
        "running {}IR{} ({:?}) on {nodes} node(s), {:.0}s steady after {:.0}s ramp-up...",
        spec.map_or_else(String::new, |s| format!(
            "scenario '{}' (curve {}), ",
            s.name,
            s.curve.kind_name()
        )),
        config.ir,
        config.scenario,
        plan.steady.as_secs_f64(),
        plan.ramp_up.as_secs_f64()
    );
    // Both branches run chunked at each workload-curve phase boundary
    // (digest-equivalent to a straight run; a constant curve has none),
    // so the per-phase HPM rows come for free.
    let curve = config.curve.clone();
    let end_s = plan.end().as_secs_f64();
    let mut phases = PhaseHpm::new();
    let report = if nodes > 1 {
        let art = run_cluster_with(
            &config,
            plan,
            nodes,
            dispatch,
            spec.and_then(|s| s.autoscale),
            spec.map(|s| s.max_in_flight),
            Some(&mut phases),
        );
        if matches!(select, FigureSelect::All | FigureSelect::Cluster) {
            print!("{}", report::render_cluster(&figures::cluster_table(&art)));
        }
        RunReport::from_cluster(&art, spec)
    } else {
        let mut engine = match restore_from.as_deref() {
            Some(path) => {
                let engine = restore_engine(&config, plan, &read_file(path)?)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!(
                    "restored {} at t={:.3}s",
                    path.display(),
                    engine.now().as_secs_f64()
                );
                engine
            }
            None => Engine::new(config.clone(), plan),
        };
        if record_out.is_some() {
            engine.start_recording();
        }
        if let Some(path) = replay_from.as_deref() {
            ReplayLog::from_bytes(&read_file(path)?)
                .and_then(|log| engine.arm_replay(log))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("replaying {}", path.display());
        }
        if let (Some(at), Some(out)) = (checkpoint_at, checkpoint_out.as_deref()) {
            engine.run_to(SimTime::ZERO + at);
            let bytes = checkpoint_bytes(&mut engine);
            write_file(out, &bytes)?;
            println!(
                "CKPT={} tick_ns={} bytes={}",
                out.display(),
                engine.now().as_nanos(),
                bytes.len()
            );
        }
        for boundary_s in curve.phase_boundaries(end_s) {
            engine.run_to(SimTime::ZERO + SimDuration::from_secs_f64(boundary_s));
            phases.observe(boundary_s, &engine.total_counters());
        }
        engine.run_to_end();
        if let (Some(path), Some(divergence)) = (replay_from, engine.replay_divergence()) {
            return Err(format!(
                "{}: replay log diverged from this run: {divergence}",
                path.display()
            ));
        }
        phases.observe(end_s, &engine.total_counters());
        if let Some(out) = record_out.as_deref() {
            let log = engine
                .take_recording()
                .expect("recording was started before the run");
            let bytes = log.to_bytes();
            write_file(out, &bytes)?;
            println!(
                "REPLAY_LOG={} arrivals={} bytes={}",
                out.display(),
                log.arrivals.len(),
                bytes.len()
            );
        }
        let scenario = spec.map(|s| (s, engine.metrics().slo_miss_fraction(s.slo.web_p90_s)));
        let art = run_artifacts_from(config, plan, engine);
        print_figures(&art, select);
        if let Some(path) = trace_out {
            let json = jas_trace::export::to_chrome_json(art.trace.events());
            write_file(&path, json.as_bytes())?;
            eprintln!("trace written to {}", path.display());
        }
        RunReport::from_run(&art, scenario)
    };
    if let (FigureSelect::Scenario, Some(spec)) = (select, spec) {
        print!(
            "{}",
            report::render_scenario(&figures::scenario_table(&spec.name, &curve, &phases))
        );
    }
    print!("{report}");
    Ok(())
}

/// `--reduce`: bisect the first divergence between the configured fault
/// plan and the same windows at rate zero (both sides keep identical
/// window bounds so the fault monitor and injector draw RNG identically —
/// the first state difference is the first actual injection).
fn run_reduce(config: SutConfig, plan: RunPlan, witness_out: Option<&Path>) -> Result<(), String> {
    let faulty = config.clone();
    let mut healthy = config;
    healthy.faults.plan = FaultPlan::from_windows(
        faulty
            .faults
            .plan
            .windows()
            .iter()
            .map(|w| FaultWindow { rate_fp: 0, ..*w })
            .collect(),
    );
    eprintln!(
        "reducing: {} fault window(s) vs the same windows at rate 0...",
        faulty.faults.plan.windows().len()
    );
    let witness = reduce_divergence(&healthy, &faulty, plan, 16)?;
    println!(
        "REDUCE_WINDOW={:.3}s-{:.3}s fraction={:.4} digest_a={:#018x} digest_b={:#018x}",
        witness.window_start.as_secs_f64(),
        witness.window_end.as_secs_f64(),
        witness.window_fraction(),
        witness.digest_a,
        witness.digest_b
    );
    if let Some(path) = witness_out {
        let bytes = witness.to_bytes();
        write_file(path, &bytes)?;
        eprintln!(
            "witness written to {} ({} bytes)",
            path.display(),
            bytes.len()
        );
    }
    Ok(())
}

fn print_figures(art: &jas2004::RunArtifacts, select: FigureSelect) {
    let want = |n: u8| match select {
        FigureSelect::All => true,
        FigureSelect::Figure(x) => x == n,
        _ => false,
    };
    if want(2) {
        print!("{}", report::render_fig2(&figures::fig2_throughput(art)));
    }
    if want(3) {
        print!("{}", report::render_fig3(&figures::fig3_gc(art)));
    }
    if want(4) {
        print!("{}", report::render_fig4(&figures::fig4_profile(art)));
    }
    if want(5) {
        print!("{}", report::render_fig5(&figures::fig5_cpi(art)));
    }
    if want(6) {
        print!("{}", report::render_fig6(&figures::fig6_branch(art)));
    }
    if want(7) {
        print!("{}", report::render_fig7(&figures::fig7_tlb(art)));
    }
    if want(8) {
        print!("{}", report::render_fig8(&figures::fig8_l1d(art)));
    }
    if want(9) {
        print!("{}", report::render_fig9(&figures::fig9_data_from(art)));
    }
    if want(10) {
        print!("{}", report::render_fig10(&figures::fig10_correlation(art)));
    }
    if matches!(select, FigureSelect::All | FigureSelect::Locking) {
        print!("{}", report::render_locking(&figures::locking_table(art)));
    }
    if matches!(select, FigureSelect::All | FigureSelect::Utilization) {
        print!(
            "{}",
            report::render_utilization(&figures::utilization_table(art))
        );
    }
    if matches!(select, FigureSelect::Tprof) {
        print!("{}", report::render_tprof(&figures::tprof_table(art)));
    }
    if matches!(select, FigureSelect::Vmstat) {
        print!("{}", report::render_vmstat(&figures::vmstat_table(art)));
    }
    if matches!(select, FigureSelect::Sched) {
        print!("{}", report::render_sched(&figures::sched_table(art)));
    }
    // The resilience table prints on request, or in `all` mode whenever a
    // fault plan actually ran.
    if matches!(select, FigureSelect::Resilience)
        || (matches!(select, FigureSelect::All) && !art.config.faults.plan.is_empty())
    {
        print!(
            "{}",
            report::render_resilience(&figures::resilience_table(art))
        );
    }
}
