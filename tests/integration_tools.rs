//! The measurement-tool layer driven against a live engine: `hpmstat`
//! group-at-a-time sampling, the verbose-GC log, and `vmstat` — plus the
//! `jas2004` binary's error paths (bad flags must exit nonzero with a
//! diagnostic, never run with a half-parsed configuration).

use jas2004::{Engine, RunPlan, SutConfig};
use jas_cpu::HpmEvent;
use jas_hpm::{CounterGroup, Hpmstat};
use jas_simkernel::{SimDuration, SimTime};
use std::process::Command;

fn tiny_cfg() -> SutConfig {
    let mut cfg = SutConfig::at_ir(15);
    cfg.machine.frequency_hz = 500_000.0;
    cfg
}

fn tiny_plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(40),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    }
}

#[test]
fn hpmstat_samples_one_group_at_a_time_like_the_paper() {
    // Mirror the paper's methodology: one run per counter group, 0.1 s
    // samples, no cross-group visibility within a run.
    let group = CounterGroup::standard_groups()
        .into_iter()
        .find(|g| g.name() == "basic")
        .expect("basic group exists");
    let mut hpm = Hpmstat::new(group, SimDuration::from_millis(100));
    let mut engine = Engine::new(tiny_cfg(), tiny_plan());
    let end = tiny_plan().end();
    while engine.now() < end {
        engine.run_to(engine.now() + engine.config().quantum);
        hpm.observe(engine.now(), &engine.machine().total_counters());
    }
    hpm.finish(end);

    let cyc = hpm.series(HpmEvent::Cycles).expect("cycles in basic group");
    assert!(cyc.len() >= 400, "samples {}", cyc.len());
    // The group limitation: D-cache events are invisible in this run.
    assert!(hpm.series(HpmEvent::LoadMissL1).is_none());
    // CPI computable within the group, in a sane range once loaded.
    let cpi = hpm.cpi_series().expect("basic group carries CPI");
    let loaded: Vec<f64> = cpi.into_iter().filter(|&c| c > 0.0).collect();
    assert!(!loaded.is_empty());
    let mean = loaded.iter().sum::<f64>() / loaded.len() as f64;
    assert!((1.0..=8.0).contains(&mean), "mean CPI {mean}");
}

#[test]
fn verbose_gc_log_renders_and_summarizes() {
    let mut cfg = tiny_cfg();
    cfg.jvm.heap.capacity = 8 << 20;
    cfg.jvm.live_target = 2 << 20;
    let mut engine = Engine::new(cfg, tiny_plan());
    engine.run_to_end();
    assert!(
        engine.jvm().gc_count() >= 2,
        "need GCs, got {}",
        engine.jvm().gc_count()
    );
    let text = engine.vgc().render();
    assert_eq!(text.lines().count() as u64, engine.jvm().gc_count());
    assert!(text.contains("<gc type=\"global\""));
    let s = engine
        .vgc()
        .summarize(SimTime::ZERO, tiny_plan().end())
        .expect("summary");
    assert!(s.mean_pause_ms > 0.0);
    assert!(s.mark_fraction > 0.5);
}

#[test]
fn tprof_profile_covers_the_whole_stack() {
    let mut engine = Engine::new(tiny_cfg(), tiny_plan());
    engine.run_to_end();
    let breakdown = engine.tprof().breakdown();
    let nonzero = breakdown.iter().filter(|r| r.share > 0.0).count();
    assert!(
        nonzero >= 8,
        "expected most components profiled, got {nonzero}"
    );
    // Top methods exist and are individually small.
    let top = engine.tprof().top_methods(5);
    assert_eq!(top.len(), 5);
    assert!(top[0].1 < 0.1, "hottest method share {}", top[0].1);
}

#[test]
fn vmstat_full_run_accounts_all_time() {
    let mut engine = Engine::new(tiny_cfg(), tiny_plan());
    engine.run_to_end();
    let u = engine.vmstat().utilization();
    let total = u.user + u.system + u.iowait + u.idle;
    assert!((total - 1.0).abs() < 0.02, "total {total}");
    assert!(u.system > 0.0 && u.user > u.system);
}

#[test]
fn omniscient_and_grouped_sampling_agree_on_shared_events() {
    // The omniscient sampler and a grouped run see the same machine; their
    // cycle totals over the run must agree.
    let group = CounterGroup::standard_groups().remove(0);
    let mut hpm = Hpmstat::new(group, SimDuration::from_millis(500));
    let mut engine = Engine::new(tiny_cfg(), tiny_plan());
    let end = tiny_plan().end();
    while engine.now() < end {
        engine.run_to(engine.now() + engine.config().quantum);
        hpm.observe(engine.now(), &engine.machine().total_counters());
    }
    hpm.finish(end);
    let grouped_total: f64 = hpm.series(HpmEvent::Cycles).unwrap().iter().sum();
    let omni_total: f64 = engine.hpm().series(HpmEvent::Cycles).iter().sum();
    let machine_total = engine.machine().total_counters().get(HpmEvent::Cycles) as f64;
    assert!(
        (grouped_total - machine_total).abs() <= 1.0,
        "{grouped_total} vs {machine_total}"
    );
    // Omniscient may lag by the unfinished tail window at most.
    assert!(omni_total <= machine_total);
    assert!(omni_total > machine_total * 0.95);
}

/// Runs the `jas2004` binary with `args`, returning (exit code, stdout,
/// stderr).
fn run_binary(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_jas2004"))
        .args(args)
        .output()
        .expect("jas2004 binary runs");
    (
        out.status.code().expect("binary exits normally"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn binary_rejects_invalid_threads() {
    let (code, _, err) = run_binary(&["--threads", "0"]);
    assert_ne!(code, 0, "--threads 0 must fail");
    assert!(err.contains("--threads must be positive"), "stderr: {err}");
}

#[test]
fn binary_rejects_unreadable_fault_plan_file() {
    let (code, _, err) = run_binary(&["--fault-plan", "@/no/such/fault-plan.txt"]);
    assert_ne!(code, 0);
    assert!(err.contains("cannot read"), "stderr: {err}");
}

#[test]
fn binary_rejects_malformed_fault_plan_spec() {
    let (code, _, err) = run_binary(&["--fault-plan", "bogus@1-2:0.5"]);
    assert_ne!(code, 0);
    assert!(err.contains("--fault-plan"), "stderr: {err}");
}

#[test]
fn binary_rejects_unknown_figure_and_flags() {
    let (code, _, err) = run_binary(&["--figure", "99"]);
    assert_ne!(code, 0);
    assert!(err.contains("2..=10"), "stderr: {err}");
    let (code, _, err) = run_binary(&["--figure", "nope"]);
    assert_ne!(code, 0);
    assert!(err.contains("bad selector"), "stderr: {err}");
    let (code, _, err) = run_binary(&["--frobnicate"]);
    assert_ne!(code, 0);
    assert!(err.contains("unknown flag"), "stderr: {err}");
}

#[test]
fn binary_help_exits_zero_with_usage() {
    let (code, out, _) = run_binary(&["--help"]);
    assert_eq!(code, 0, "--help is not an error");
    assert!(out.contains("USAGE"), "stdout: {out}");
    assert!(out.contains("--fault-plan"), "stdout: {out}");
    assert!(out.contains("--nodes"), "stdout: {out}");
    assert!(out.contains("--dispatch"), "stdout: {out}");
}

#[test]
fn binary_rejects_reversed_fault_window_with_its_position() {
    // The second entry is reversed; the diagnostic must name plan[1],
    // not just "parse error".
    let (code, _, err) = run_binary(&["--fault-plan", "db-lock@1-2:0.5,node-crash@9-3:0.5"]);
    assert_ne!(code, 0, "reversed window must fail");
    assert!(
        err.contains("plan[1]: bad window 'node-crash@9-3'"),
        "stderr: {err}"
    );
}

#[test]
fn binary_rejects_out_of_range_fault_rate_with_its_position() {
    let (code, _, err) = run_binary(&["--fault-plan", "node-slow@1-2:1.5"]);
    assert_ne!(code, 0, "rate > 1 must fail");
    assert!(
        err.contains("plan[0]") && err.contains("rate must be in [0, 1]"),
        "stderr: {err}"
    );
}

#[test]
fn binary_rejects_bad_cluster_flags() {
    let (code, _, err) = run_binary(&["--dispatch", "bogus"]);
    assert_ne!(code, 0);
    assert!(
        err.contains("unknown dispatch policy 'bogus'"),
        "stderr: {err}"
    );

    let (code, _, err) = run_binary(&["--nodes", "0"]);
    assert_ne!(code, 0);
    assert!(err.contains("--nodes"), "stderr: {err}");

    let (code, _, err) = run_binary(&["--figure", "cluster"]);
    assert_ne!(code, 0, "--figure cluster without a fleet must fail");
    assert!(
        err.contains("--figure cluster requires --nodes > 1"),
        "stderr: {err}"
    );

    let (code, _, err) = run_binary(&[
        "--nodes",
        "2",
        "--checkpoint-at",
        "5",
        "--checkpoint-out",
        "x.jckpt",
    ]);
    assert_ne!(code, 0, "fleet + checkpoint must fail");
    assert!(
        err.contains("--nodes > 1 cannot be combined"),
        "stderr: {err}"
    );
}
