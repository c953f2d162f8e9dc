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
use jas2004::{
    checkpoint_bytes, figures, reduce_divergence, report, restore_engine, run_artifacts_from,
    run_cluster, run_cluster_with, DispatchPolicy, Engine, FaultPlan, FaultWindow, RunPlan,
    SutConfig,
};
use jas_hpm::PhaseHpm;
use jas_scenario::{ScenarioOutcome, ScenarioSpec};
use jas_simkernel::{SimDuration, SimTime};
use jas_workload::ReplayLog;
use std::path::{Path, PathBuf};
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
    if let Some(spec) = scenario_spec {
        return run_scenario(*spec, config, plan, select, nodes, dispatch, trace_out);
    }
    if nodes > 1 {
        return run_fleet(config, plan, nodes, dispatch, select);
    }
    eprintln!(
        "running IR{} ({:?}), {:.0}s steady after {:.0}s ramp-up...",
        config.ir,
        config.scenario,
        plan.steady.as_secs_f64(),
        plan.ramp_up.as_secs_f64()
    );

    let mut engine = match restore_from.as_deref() {
        Some(path) => {
            let engine = restore_engine(&config, plan, &read_file(path)?)?;
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
        let log = ReplayLog::from_bytes(&read_file(path)?)?;
        engine.arm_replay(log);
        eprintln!("replaying {}", path.display());
    }
    if let (Some(at), Some(out)) = (checkpoint_at, checkpoint_out.as_deref()) {
        engine.run_to(jas_simkernel::SimTime::ZERO + at);
        let bytes = checkpoint_bytes(&mut engine);
        write_file(out, &bytes)?;
        println!(
            "CKPT={} tick_ns={} bytes={}",
            out.display(),
            engine.now().as_nanos(),
            bytes.len()
        );
    }
    engine.run_to_end();
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
    let art = run_artifacts_from(config, plan, engine);
    print_figures(&art, select);
    println!("HPM_DIGEST={:#018x}", art.hpm_digest);
    if art.config.trace.enabled() {
        println!(
            "TRACE_DIGEST={:#018x} events={}",
            art.trace_digest,
            art.trace.len()
        );
    }
    if !art.config.faults.plan.is_empty() {
        println!(
            "FAULT_DIGEST={:#018x} events={}",
            art.fault_digest, art.fault_events
        );
    }
    if let Some(path) = trace_out {
        let json = jas_trace::export::to_chrome_json(art.trace.events());
        write_file(&path, json.as_bytes())?;
        eprintln!("trace written to {}", path.display());
    }
    if let Some(text) = &art.hostprof_text {
        print!("{text}");
    }
    Ok(())
}

/// `--scenario <file>`: run the pinned scenario and print its digest,
/// the usual run digests, and the `SCENARIO_VERDICT` line. The run is
/// chunked at each workload-curve phase boundary (digest-equivalent to
/// a straight run) so per-phase HPM rows come for free.
fn run_scenario(
    spec: ScenarioSpec,
    config: SutConfig,
    plan: RunPlan,
    select: FigureSelect,
    nodes: usize,
    dispatch: DispatchPolicy,
    trace_out: Option<PathBuf>,
) -> Result<(), String> {
    eprintln!(
        "running scenario '{}' (curve {}, IR{}, {} node(s)), {:.0}s steady after {:.0}s ramp-up...",
        spec.name,
        spec.curve.kind_name(),
        config.ir,
        nodes,
        plan.steady.as_secs_f64(),
        plan.ramp_up.as_secs_f64()
    );
    println!("SCENARIO_DIGEST={:#018x}", spec.digest());
    let end_s = plan.end().as_secs_f64();
    let mut phases = PhaseHpm::new();
    let (outcome, hostprof_text) = if nodes > 1 {
        let art = run_cluster_with(
            &config,
            plan,
            nodes,
            dispatch,
            spec.autoscale,
            Some(spec.max_in_flight),
            Some(&mut phases),
        );
        if matches!(select, FigureSelect::All | FigureSelect::Cluster) {
            print!("{}", report::render_cluster(&figures::cluster_table(&art)));
        }
        if matches!(select, FigureSelect::Scenario) {
            print!(
                "{}",
                report::render_scenario(&figures::scenario_table(
                    &spec.name,
                    &config.curve,
                    &phases
                ))
            );
        }
        println!("HPM_DIGEST={:#018x}", art.hpm_digest);
        if config.trace.enabled() {
            println!("TRACE_DIGEST={:#018x}", art.trace_digest);
        }
        if !config.faults.plan.is_empty() {
            println!("FAULT_DIGEST={:#018x}", art.fault_digest);
        }
        for (i, digest) in art.node_hpm_digests.iter().enumerate() {
            println!("NODE{i}_HPM_DIGEST={digest:#018x}");
        }
        println!(
            "ACTIVE_NODES={} scale_ups={} scale_downs={}",
            art.active_nodes, art.stats.scale_ups, art.stats.scale_downs
        );
        let v = &art.verdict;
        println!(
            "CLUSTER_VERDICT={} lost={} shed={} shed_fraction={:.4}",
            if v.lost == 0 && v.verdict.passed {
                "pass"
            } else {
                "fail"
            },
            v.lost,
            v.shed,
            v.shed_fraction
        );
        let outcome = ScenarioOutcome {
            web_p90: v.verdict.web_p90,
            rmi_p90: v.verdict.rmi_p90,
            error_rate: v.verdict.error_rate,
            shed_fraction: v.shed_fraction,
            slo_miss: art.metrics.slo_miss_fraction(spec.slo.web_p90_s),
            lost: v.lost,
        };
        (outcome, art.host_profile.map(|r| r.render()))
    } else {
        let mut engine = Engine::new(config.clone(), plan);
        for boundary_s in config.curve.phase_boundaries(end_s) {
            engine.run_to(SimTime::ZERO + SimDuration::from_secs_f64(boundary_s));
            phases.observe(boundary_s, &engine.total_counters());
        }
        engine.run_to_end();
        phases.observe(end_s, &engine.total_counters());
        let slo_miss = engine.metrics().slo_miss_fraction(spec.slo.web_p90_s);
        let art = run_artifacts_from(config, plan, engine);
        print_figures(&art, select);
        if matches!(select, FigureSelect::Scenario) {
            print!(
                "{}",
                report::render_scenario(&figures::scenario_table(
                    &spec.name,
                    &art.config.curve,
                    &phases
                ))
            );
        }
        println!("HPM_DIGEST={:#018x}", art.hpm_digest);
        if art.config.trace.enabled() {
            println!(
                "TRACE_DIGEST={:#018x} events={}",
                art.trace_digest,
                art.trace.len()
            );
        }
        if !art.config.faults.plan.is_empty() {
            println!(
                "FAULT_DIGEST={:#018x} events={}",
                art.fault_digest, art.fault_events
            );
        }
        if let Some(path) = trace_out {
            let json = jas_trace::export::to_chrome_json(art.trace.events());
            write_file(&path, json.as_bytes())?;
            eprintln!("trace written to {}", path.display());
        }
        let outcome = ScenarioOutcome {
            web_p90: art.verdict.web_p90,
            rmi_p90: art.verdict.rmi_p90,
            error_rate: art.verdict.error_rate,
            shed_fraction: 0.0,
            slo_miss,
            lost: 0,
        };
        (outcome, art.hostprof_text)
    };
    println!("{}", spec.verdict_line(&outcome));
    if let Some(text) = &hostprof_text {
        print!("{text}");
    }
    Ok(())
}

/// `--nodes N > 1`: run the load-balanced fleet and print the fleet
/// digests plus the failover verdict (DESIGN.md §13).
fn run_fleet(
    config: SutConfig,
    plan: RunPlan,
    nodes: usize,
    dispatch: DispatchPolicy,
    select: FigureSelect,
) -> Result<(), String> {
    eprintln!(
        "running IR{} ({:?}) on {} nodes ({}), {:.0}s steady after {:.0}s ramp-up...",
        config.ir,
        config.scenario,
        nodes,
        dispatch.name(),
        plan.steady.as_secs_f64(),
        plan.ramp_up.as_secs_f64()
    );
    let art = run_cluster(&config, plan, nodes, dispatch);
    if matches!(select, FigureSelect::All | FigureSelect::Cluster) {
        print!("{}", report::render_cluster(&figures::cluster_table(&art)));
    }
    println!("HPM_DIGEST={:#018x}", art.hpm_digest);
    if config.trace.enabled() {
        println!("TRACE_DIGEST={:#018x}", art.trace_digest);
    }
    if !config.faults.plan.is_empty() {
        println!("FAULT_DIGEST={:#018x}", art.fault_digest);
    }
    for (i, digest) in art.node_hpm_digests.iter().enumerate() {
        println!("NODE{i}_HPM_DIGEST={digest:#018x}");
    }
    let v = &art.verdict;
    println!(
        "CLUSTER_VERDICT={} lost={} shed={} shed_fraction={:.4}",
        if v.lost == 0 && v.verdict.passed {
            "pass"
        } else {
            "fail"
        },
        v.lost,
        v.shed,
        v.shed_fraction
    );
    if let Some(report) = &art.host_profile {
        print!("{}", report.render());
    }
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
