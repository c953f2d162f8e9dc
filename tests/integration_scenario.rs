//! Scenario-registry gate: the seed scenarios under `scenarios/` parse
//! with their pinned digests, time-varying load is bit-identical under
//! both schedulers (and, for a fleet, with lanes on and off), a constant-curve
//! scenario is byte-identical to the equivalent `--ir` flat run, the
//! autoscaler's add/remove decisions reconcile with the fleet dispatch
//! counters, and `--fault-plan @FILE` errors keep both the file path
//! and the `plan[i]` position.

mod common;

use common::per_core_hpm_digest;
use jas2004::cli::{parse_args, Cli};
use jas2004::{
    run_cluster, run_cluster_with, run_experiment, AutoscaleConfig, Engine, RunPlan, ScenarioKind,
    SchedMode, SutConfig,
};
use jas_scenario::ScenarioSpec;
use jas_simkernel::SimDuration;
use jas_workload::{Curve, Driver, DriverConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The checked-in seed scenarios and their pinned canonical digests.
/// These must match the `digest = "..."` pin inside each file — the
/// parser enforces the pin, this test pins the pin.
const SEED_SCENARIOS: [(&str, u64); 3] = [
    ("steady-40", 0x00fa_baae_e9ea_8bb2),
    ("diurnal-24h", 0xf075_a46d_f545_9294),
    ("flash-crowd", 0x9acd_526f_fff9_5d89),
];

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.toml"))
}

fn load(name: &str) -> ScenarioSpec {
    let path = scenario_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{name} must parse: {e}"))
}

/// The spec applied to a scaled-down machine so the invariance sweeps
/// stay fast; the CI scenario-matrix runs the real binary at full scale.
fn config_from(spec: &ScenarioSpec, threads: usize, sched: SchedMode) -> (SutConfig, RunPlan) {
    let mut c = SutConfig::at_ir(spec.ir);
    c.machine.frequency_hz = 100_000.0;
    c.seed = 7;
    c.curve = spec.compile_curve();
    c.faults.plan = spec.plan();
    c.threads = threads;
    c.sched = sched;
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(spec.ramp_s),
        steady: SimDuration::from_secs(spec.steady_s),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    (c, plan)
}

#[test]
fn seed_scenario_digests_are_pinned() {
    for (name, golden) in SEED_SCENARIOS {
        let spec = load(name);
        assert_eq!(spec.name, name, "file stem matches the declared name");
        assert_eq!(
            spec.digest(),
            golden,
            "{name}: canonical digest moved; if the spec change is intentional, \
             re-pin both the file's digest key and this golden"
        );
        assert_eq!(
            spec.pinned_digest,
            Some(golden),
            "{name}: the file must pin its own digest"
        );
    }
}

/// Time-varying load through the single-engine path: the diurnal
/// scenario's per-core counters are bit-identical under both schedulers.
#[test]
fn diurnal_scenario_is_scheduler_invariant() {
    let spec = load("diurnal-24h");
    assert!(!spec.compile_curve().is_flat());
    let (cfg, plan) = config_from(&spec, 1, SchedMode::Quantum);
    let mut base = Engine::new(cfg, plan);
    base.run_to_end();
    let golden = per_core_hpm_digest(&base);
    let (cfg, plan) = config_from(&spec, 1, SchedMode::Event);
    let mut e = Engine::new(cfg, plan);
    e.run_to_end();
    assert_eq!(
        per_core_hpm_digest(&e),
        golden,
        "diurnal diverges under the event scheduler"
    );
    assert_eq!(e.fault_log().digest(), base.fault_log().digest());
}

/// Time-varying load through the fleet path: the flash-crowd scenario's
/// fleet digests, stats, and final active-node count are identical with
/// lanes off (threads 1) and on (threads 2) under both schedulers; any
/// value above 1 takes the same lane path.
#[test]
fn flash_crowd_scenario_is_thread_and_scheduler_invariant() {
    let spec = load("flash-crowd");
    let run = |threads, sched| {
        let (cfg, plan) = config_from(&spec, threads, sched);
        run_cluster_with(
            &cfg,
            plan,
            spec.nodes,
            spec.dispatch,
            spec.autoscale,
            Some(spec.max_in_flight),
            None,
        )
    };
    let base = run(1, SchedMode::Quantum);
    for threads in [1usize, 2] {
        for sched in [SchedMode::Quantum, SchedMode::Event] {
            if threads == 1 && sched == SchedMode::Quantum {
                continue;
            }
            let other = run(threads, sched);
            assert_eq!(
                base.hpm_digest, other.hpm_digest,
                "flash-crowd fleet diverges at threads {threads} / {sched:?}"
            );
            assert_eq!(base.fault_digest, other.fault_digest);
            assert_eq!(base.node_hpm_digests, other.node_hpm_digests);
            assert_eq!(base.stats, other.stats);
            assert_eq!(base.active_nodes, other.active_nodes);
        }
    }
}

/// Autoscaler conservation: every node the autoscaler added or removed
/// reconciles with the fleet counters — `active = min + ups - downs` —
/// and no dispatched request is lost across scaling transitions.
#[test]
fn autoscaler_decisions_reconcile_with_fleet_counters() {
    let spec = load("flash-crowd");
    let autoscale = AutoscaleConfig {
        // The spec's thresholds are tuned for the full-scale machine;
        // re-tune for the scaled-down test machine so both directions
        // actually fire.
        up_jops_per_node: 3.0,
        down_jops_per_node: 1.0,
        ..spec.autoscale.expect("flash-crowd arms the autoscaler")
    };
    let (cfg, plan) = config_from(&spec, 1, SchedMode::Quantum);
    let art = run_cluster_with(
        &cfg,
        plan,
        spec.nodes,
        spec.dispatch,
        Some(autoscale),
        Some(spec.max_in_flight),
        None,
    );
    assert!(
        art.stats.scale_ups >= 1,
        "the flash crowd must trip the autoscaler: {:?}",
        art.stats
    );
    assert_eq!(
        art.active_nodes as u64,
        autoscale.min_nodes as u64 + art.stats.scale_ups - art.stats.scale_downs,
        "active nodes do not reconcile with scaling decisions: {:?}",
        art.stats
    );
    assert_eq!(
        art.verdict.lost, 0,
        "requests lost across scaling transitions: {:?}",
        art.stats
    );
    assert!(art.stats.completions > 0);
}

/// A constant-curve scenario run is byte-identical to the equivalent
/// `--ir` flat run at the engine level (the binary-level identity is
/// enforced by the CI scenario matrix on `steady-40`).
#[test]
fn constant_curve_scenario_matches_the_flat_run() {
    let spec = load("steady-40");
    assert!(spec.compile_curve().is_flat());
    let (cfg, plan) = config_from(&spec, 1, SchedMode::Quantum);
    let mut flat_cfg = SutConfig::at_ir(spec.ir);
    flat_cfg.machine.frequency_hz = cfg.machine.frequency_hz;
    flat_cfg.seed = cfg.seed;
    let mut from_spec = Engine::new(cfg, plan);
    let mut from_flags = Engine::new(flat_cfg, plan);
    from_spec.run_to_end();
    from_flags.run_to_end();
    assert_eq!(
        per_core_hpm_digest(&from_spec),
        per_core_hpm_digest(&from_flags),
        "a constant curve must be byte-identical to the legacy flat driver"
    );
}

proptest! {
    /// Seed property: at any injection rate and seed, a driver armed
    /// with an explicit all-1.0 curve draws the exact gap and kind
    /// sequence of the constant driver.
    #[test]
    fn any_flat_curve_draws_the_constant_sequence(ir in 1u32..200, draws in 1usize..300) {
        let curve = Curve::from_points(vec![(0.0, 1.0), (60.0, 1.0)]).expect("valid curve");
        prop_assert!(curve.is_flat());
        let mut constant = Driver::new(DriverConfig::at_ir(ir));
        let mut curved = Driver::with_curve(DriverConfig::at_ir(ir), curve);
        for _ in 0..draws {
            prop_assert_eq!(constant.next_arrival(), curved.next_arrival());
        }
    }
}

#[test]
fn fault_plan_file_errors_exit_nonzero_with_path_and_position() {
    let dir = std::env::temp_dir();
    let path = dir.join("jas2004-int-bad-plan.txt");
    std::fs::write(&path, "db-io@1-2:0.25\nnode-crash@9-3:0.5\n").expect("temp plan written");
    let out = Command::new(env!("CARGO_BIN_EXE_jas2004"))
        .arg("--fault-plan")
        .arg(format!("@{}", path.display()))
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "a bad @FILE plan must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&path.display().to_string()),
        "stderr must name the plan file: {stderr}"
    );
    assert!(
        stderr.contains("plan[1]"),
        "stderr must keep the entry position: {stderr}"
    );
}

#[test]
fn scenario_digest_pin_mismatch_exits_nonzero() {
    let text = std::fs::read_to_string(scenario_path("steady-40")).expect("seed spec readable");
    let broken = text.replace("digest = \"0x00fa", "digest = \"0x10fa");
    assert_ne!(broken, text, "the pin must exist to be broken");
    let path = std::env::temp_dir().join("steady-40.toml");
    std::fs::write(&path, broken).expect("temp spec written");
    let out = Command::new(env!("CARGO_BIN_EXE_jas2004"))
        .arg("--scenario")
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert!(
        !out.status.success(),
        "a digest-pin mismatch must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("digest pin mismatch"), "{stderr}");
}

/// The output contract, end to end: on a plain single engine, a plain
/// fleet and a seed scenario (each shortened by flags, which never move a
/// spec digest) the binary prints exactly the ordered report lines the
/// path calls for, `TRACE_DIGEST`/`FAULT_DIGEST` carry `events=` on
/// both paths, and every printed digest equals the library's value.
#[test]
fn binary_prints_the_pinned_digest_and_a_verdict() {
    let steady_40 = scenario_path("steady-40").display().to_string();
    let short = [
        "--ir", "10", "--ramp", "2", "--steady", "6", "--figure", "2",
    ];
    let runs: [(Vec<&str>, &[&str]); 3] = [
        (
            [
                &short[..],
                &["--trace", "all", "--fault-plan", "db-lock@3-6:0.35"],
            ]
            .concat(),
            &["HPM_DIGEST", "TRACE_DIGEST", "FAULT_DIGEST"],
        ),
        (
            [&short[..], &["--nodes", "2", "--trace", "all"]].concat(),
            &[
                "HPM_DIGEST",
                "TRACE_DIGEST",
                "NODE0_HPM_DIGEST",
                "NODE1_HPM_DIGEST",
                "ACTIVE_NODES",
                "CLUSTER_VERDICT",
            ],
        ),
        (
            vec!["--scenario", &steady_40, "--steady", "4", "--ramp", "1"],
            &["SCENARIO_DIGEST", "HPM_DIGEST", "SCENARIO_VERDICT"],
        ),
    ];
    for (args, want_keys) in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_jas2004"))
            .args(&args)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed: Vec<(&str, &str)> = stdout
            .lines()
            .filter_map(|l| l.split_once('='))
            .filter(|(key, _)| {
                !key.is_empty()
                    && key
                        .bytes()
                        .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
            })
            .collect();
        let keys: Vec<&str> = printed.iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, want_keys, "{args:?}: report lines out of contract");

        // The library's values for the same flags.
        let Ok(Cli::Run(o)) = parse_args(&args) else {
            panic!("{args:?} must parse");
        };
        let hex = |d: u64| format!("{d:#018x}");
        let mut library = vec![("SCENARIO_DIGEST".to_string(), hex(SEED_SCENARIOS[0].1))];
        if o.nodes > 1 {
            let art = run_cluster(&o.config, o.plan, o.nodes, o.dispatch);
            library.push(("HPM_DIGEST".into(), hex(art.hpm_digest)));
            let trace = format!("{} events={}", hex(art.trace_digest), art.trace_events);
            library.push(("TRACE_DIGEST".into(), trace));
            for (i, &d) in art.node_hpm_digests.iter().enumerate() {
                library.push((format!("NODE{i}_HPM_DIGEST"), hex(d)));
            }
            let active = format!("{} scale_ups=0 scale_downs=0", art.active_nodes);
            library.push(("ACTIVE_NODES".into(), active));
        } else {
            let art = run_experiment(o.config, o.plan);
            library.push(("HPM_DIGEST".into(), hex(art.hpm_digest)));
            let trace = format!("{} events={}", hex(art.trace_digest), art.trace.len());
            library.push(("TRACE_DIGEST".into(), trace));
            let faults = format!("{} events={}", hex(art.fault_digest), art.fault_events);
            library.push(("FAULT_DIGEST".into(), faults));
        }
        for (key, value) in printed {
            let want = library.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            if key.ends_with("_DIGEST") || want.is_some() {
                assert_eq!(
                    Some(value),
                    want.map(String::as_str),
                    "{args:?}: {key} differs from the library"
                );
            }
        }
    }
}

/// The scenario kinds route to the right application.
#[test]
fn spec_app_kinds_map_to_scenario_kinds() {
    let spec = load("steady-40");
    assert_eq!(spec.app.name(), "jas");
    let _ = ScenarioKind::JAppServer;
}
