//! jas-replay: checkpoint/restore, trace-driven replay, and witness
//! reduction for the `jas2004` simulator.
//!
//! This crate is the instrument face of three engine capabilities
//! (cf. the record-reduce-replay pattern of Wasm-R3 and the gem5
//! standardized-resources argument that checkpoints plus pinned replayable
//! artifacts are what make a simulator a reusable instrument):
//!
//! * **Checkpoint/restore** — [`checkpoint_bytes`] serializes the full
//!   mutable simulation state into a versioned, FNV-1a-digested `.jckpt`
//!   stream; [`restore_engine`] resumes it bit-identically at any
//!   `--threads` value. Layout: `docs/jckpt-format.md`, pinned by
//!   `tests/format_pin.rs`.
//! * **Trace-driven replay** — [`record_run`] captures the request stream
//!   (arrivals + compiled plans) a run consumed; [`replay_run`] re-executes
//!   it through the appserver/db/jvm tiers without the workload generator,
//!   reproducing the same per-request verdicts and `TRACE_DIGEST`.
//! * **Witness reduction** — [`reduce_divergence`] binary-searches the
//!   checkpoint timeline between two diverging runs down to the smallest
//!   `[checkpoint, window]` witness, emitted as a self-contained
//!   [`DivergenceWitness`] artifact.
//!
//! CI's `replay-smoke` job drives all three through the `jas2004` binary's
//! `--checkpoint-at` / `--restore-from` / `--record` / `--replay` /
//! `--reduce` flags; the heavy full-length smokes moved to the nightly
//! workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

pub use jas2004::checkpoint::{
    checkpoint_bytes, config_fingerprint, restore_engine, validate_checkpoint, JCKPT_MAGIC,
    JCKPT_VERSION,
};
pub use jas2004::reduce::{reduce_divergence, DivergenceWitness, WITNESS_MAGIC};
pub use jas2004::{Engine, RunArtifacts, RunPlan, SchedMode, SutConfig};
pub use jas_workload::{ReplayLog, ReplayScenario};

/// Runs `cfg`/`plan` to completion while recording the request stream,
/// returning the run's artifacts and the replay log.
///
/// The log substitutes for the workload generator: feeding it back through
/// [`replay_run`] under the same configuration reproduces the run's
/// verdicts and digests without drawing a single arrival.
#[must_use]
pub fn record_run(cfg: &SutConfig, plan: RunPlan) -> (RunArtifacts, ReplayLog) {
    let mut engine = Engine::new(cfg.clone(), plan);
    engine.start_recording();
    engine.run_to_end();
    let log = engine
        .take_recording()
        .expect("recording was started and never taken");
    (jas2004::run_artifacts_from(cfg.clone(), plan, engine), log)
}

/// Re-executes a recorded request stream under `cfg`/`plan`, bypassing the
/// workload generator entirely.
#[must_use]
pub fn replay_run(cfg: &SutConfig, plan: RunPlan, log: ReplayLog) -> RunArtifacts {
    let mut engine = Engine::new(cfg.clone(), plan);
    engine.arm_replay(log);
    engine.run_to_end();
    jas2004::run_artifacts_from(cfg.clone(), plan, engine)
}

/// Restores a `.jckpt` stream and runs the engine to the end of its plan,
/// returning the finished run's artifacts.
///
/// # Errors
///
/// Fails on any [`restore_engine`] validation error.
pub fn resume_run(cfg: &SutConfig, plan: RunPlan, bytes: &[u8]) -> Result<RunArtifacts, String> {
    let mut engine = restore_engine(cfg, plan, bytes)?;
    engine.run_to_end();
    Ok(jas2004::run_artifacts_from(cfg.clone(), plan, engine))
}

/// Writes a `.jckpt` (or witness, or replay-log) byte stream to `path`.
///
/// # Errors
///
/// Fails with a user-facing message on any I/O error.
pub fn write_artifact(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write '{}': {e}", path.display()))
}

/// Reads an artifact byte stream written by [`write_artifact`].
///
/// # Errors
///
/// Fails with a user-facing message on any I/O error.
pub fn read_artifact(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read '{}': {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jas_simkernel::SimTime;

    fn quick_cfg() -> SutConfig {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg
    }

    #[test]
    fn recorded_replay_reproduces_the_run() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let (original, log) = record_run(&cfg, plan);
        assert!(!log.is_empty());
        let replayed = replay_run(&cfg, plan, log);
        assert_eq!(replayed.jops, original.jops);
        assert_eq!(replayed.trace_digest, original.trace_digest);
        assert_eq!(replayed.fault_digest, original.fault_digest);
    }

    #[test]
    fn resume_finishes_a_checkpointed_run() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut straight = Engine::new(cfg.clone(), plan);
        straight.run_to_end();
        let golden = straight.hpm_digest();

        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to(SimTime::from_millis(300));
        let bytes = checkpoint_bytes(&mut engine);
        let resumed = resume_run(&cfg, plan, &bytes).unwrap();
        assert_eq!(resumed.hpm_digest, golden);
    }

    #[test]
    fn artifact_io_round_trips() {
        let path = std::env::temp_dir().join("jas-replay-artifact-io-test.bin");
        let payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        write_artifact(&path, &payload).unwrap();
        let back = read_artifact(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, payload);
        assert!(read_artifact(Path::new("/no/such/file.jckpt")).is_err());
    }
}
