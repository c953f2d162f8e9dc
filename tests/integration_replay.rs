//! Checkpoint, replay and reduction acceptance gates: checkpoint/restore
//! is bit-identical to an uninterrupted run, `.jckpt` streams round-trip
//! and reject version/config mismatches, trace-driven replay reproduces a
//! recorded run's digests, and the reducer shrinks a seeded divergence to
//! a witness window ≤ 10% of the run.

use jas2004::{
    checkpoint_bytes, reduce_divergence, restore_engine, run_artifacts_from, DivergenceWitness,
    Engine, RunArtifacts, RunPlan, SutConfig,
};
use jas_faults::{FaultKind, FaultPlan, FaultWindow};
use jas_simkernel::{SimDuration, SimTime};
use jas_workload::ReplayLog;
use proptest::prelude::*;

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(2),
        steady: SimDuration::from_secs(10),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(2),
    }
}

fn cfg(seed: u64) -> SutConfig {
    let mut c = SutConfig::at_ir(12);
    c.machine.frequency_hz = 300_000.0;
    // Small heap so checkpoints land on both sides of GC pauses.
    c.jvm.heap.capacity = 8 << 20;
    c.jvm.live_target = 2 << 20;
    c.seed = seed;
    c
}

/// Golden digests of an uninterrupted run.
fn golden(cfg: &SutConfig, plan: RunPlan) -> (u64, u64) {
    let mut e = Engine::new(cfg.clone(), plan);
    e.run_to_end();
    (e.hpm_digest(), e.probe_digest())
}

/// Runs `cfg`/`plan` to completion while recording the request stream.
fn record_run(cfg: &SutConfig, plan: RunPlan) -> (RunArtifacts, ReplayLog) {
    let mut engine = Engine::new(cfg.clone(), plan);
    engine.start_recording();
    engine.run_to_end();
    let log = engine.take_recording().expect("recording was started");
    (run_artifacts_from(cfg.clone(), plan, engine), log)
}

/// Re-executes a recorded request stream in place of the generator; the
/// log must replay without diverging.
fn replay_run(cfg: &SutConfig, plan: RunPlan, log: ReplayLog) -> RunArtifacts {
    let mut engine = Engine::new(cfg.clone(), plan);
    engine
        .arm_replay(log)
        .expect("the log names only this engine's queues");
    engine.run_to_end();
    assert_eq!(engine.replay_divergence(), None);
    run_artifacts_from(cfg.clone(), plan, engine)
}

/// Checkpoint at `at`, restore, run to end, and return the finished
/// digests.
fn interrupted(cfg: &SutConfig, plan: RunPlan, at: SimTime) -> (u64, u64) {
    let mut first = Engine::new(cfg.clone(), plan);
    first.run_to(at);
    let bytes = checkpoint_bytes(&mut first);
    let mut resumed = restore_engine(cfg, plan, &bytes).unwrap();
    assert_eq!(resumed.now(), first.now());
    resumed.run_to_end();
    (resumed.hpm_digest(), resumed.probe_digest())
}

/// The acceptance gate: run-to-end from a restored `.jckpt` reproduces the
/// golden digests of an uninterrupted run, with the checkpoint taken
/// mid-ramp and mid-steady.
#[test]
fn restore_mid_ramp_and_mid_steady_is_bit_identical() {
    let cfg = cfg(1);
    let plan = plan();
    let gold = golden(&cfg, plan);
    let mid_ramp = SimTime::from_secs(1);
    let mid_steady = SimTime::from_secs(7);
    for at in [mid_ramp, mid_steady] {
        assert_eq!(
            interrupted(&cfg, plan, at),
            gold,
            "restore at {}s diverged",
            at.as_secs_f64()
        );
    }
}

#[test]
fn version_and_config_mismatches_are_rejected() {
    let cfg = cfg(3);
    let plan = plan();
    let mut e = Engine::new(cfg.clone(), plan);
    e.run_to(SimTime::from_secs(1));
    let bytes = checkpoint_bytes(&mut e);

    // Version word (stream word 1) bumped: must be refused by the version
    // check, not misdecoded.
    let mut wrong_version = bytes.clone();
    wrong_version[8] = wrong_version[8].wrapping_add(1);
    let err = restore_engine(&cfg, plan, &wrong_version)
        .map(|_| ())
        .unwrap_err();
    assert!(err.contains("version"), "unexpected error: {err}");

    // Different seed: the config fingerprint must catch it.
    let mut other = cfg.clone();
    other.seed ^= 0xDEAD;
    let err = restore_engine(&other, plan, &bytes)
        .map(|_| ())
        .unwrap_err();
    assert!(err.contains("fingerprint"), "unexpected error: {err}");

    // Same config at another thread count: explicitly allowed.
    let mut threaded = cfg.clone();
    threaded.threads = 8;
    assert!(restore_engine(&threaded, plan, &bytes).is_ok());
}

/// Trace-driven replay: a run recorded with tracing on replays to the
/// same per-request verdicts and the same `TRACE_DIGEST`.
#[test]
fn traced_replay_reproduces_verdicts_and_digest() {
    let mut traced = cfg(4);
    traced.trace = jas2004::TraceSpec::parse("all").unwrap();
    let plan = plan();
    let (original, log) = record_run(&traced, plan);
    assert_ne!(original.trace_digest, 0);

    let replayed = replay_run(&traced, plan, log);
    assert_eq!(replayed.trace_digest, original.trace_digest);
    assert_eq!(replayed.jops, original.jops);
    assert_eq!(replayed.completed, original.completed);
    assert_eq!(replayed.aborted, original.aborted);
    assert_eq!(replayed.hpm_digest, original.hpm_digest);
}

/// The reduction gate: a fault seeded at 70% of the run reduces to a
/// witness window ≤ 10% of the run length, and the witness reproduces.
#[test]
fn reducer_shrinks_divergence_below_ten_percent() {
    let plan = plan();
    let end_s = plan.end().as_secs_f64();
    let window = |rate: f64| {
        let mut c = cfg(5);
        c.faults.plan = FaultPlan::from_windows(vec![FaultWindow::new(
            FaultKind::DbLockTimeout,
            end_s * 0.7,
            end_s,
            rate,
        )]);
        c
    };
    let (a, b) = (window(0.0), window(1.0));
    let witness = reduce_divergence(&a, &b, plan, 16).unwrap();
    assert!(
        witness.window_fraction() <= 0.10,
        "witness window is {:.1}% of the run",
        witness.window_fraction() * 100.0
    );
    witness.verify(&a, &b, plan).unwrap();

    // The witness survives serialization.
    let back = DivergenceWitness::from_bytes(&witness.to_bytes()).unwrap();
    back.verify(&a, &b, plan).unwrap();
}

proptest! {
    /// Seed-randomized restore gate: for any seed and checkpoint tick, the
    /// resumed run is bit-identical to the uninterrupted one.
    #[test]
    fn restore_is_bit_identical_for_any_seed(seed in 1u64..1_000, at_ms in 500u64..11_000) {
        let cfg = cfg(seed);
        let plan = plan();
        let gold = golden(&cfg, plan);
        prop_assert_eq!(interrupted(&cfg, plan, SimTime::from_millis(at_ms)), gold);
    }
}
