//! `jas2004` — a full-system simulation reproducing *"Characterizing a
//! Complex J2EE Workload: A Comprehensive Analysis and Opportunities for
//! Optimizations"* (Shuf & Steiner, ISPASS 2007).
//!
//! The paper is a measurement study of SPECjAppServer2004 on a POWER4
//! server. This crate assembles the whole measured system from the
//! substrate crates — CPU/memory hierarchy (`jas-cpu`), JVM (`jas-jvm`),
//! database (`jas-db`), application server (`jas-appserver`), workload
//! driver (`jas-workload`), measurement tools (`jas-hpm`) — couples them
//! on one simulated timeline ([`Engine`]), runs experiments
//! ([`run_experiment`]), and regenerates every figure and in-text table of
//! the paper's evaluation ([`figures`]).
//!
//! # Quick start
//!
//! ```no_run
//! use jas2004::{figures, report, run_experiment, RunPlan, SutConfig};
//!
//! let artifacts = run_experiment(SutConfig::at_ir(40), RunPlan::default());
//! let fig5 = figures::fig5_cpi(&artifacts);
//! println!("{}", report::render_fig5(&fig5));
//! ```
//!
//! See `DESIGN.md` for the substitution map (what the paper used → what is
//! built here) and `EXPERIMENTS.md` for paper-vs-measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod engine;
pub mod experiment;
pub mod figures;
pub mod fleet;
pub mod profiles;
pub mod reduce;
pub mod report;

pub use checkpoint::{checkpoint_bytes, config_fingerprint, restore_engine, restore_into};
pub use config::{FaultsConfig, RunPlan, ScenarioKind, SutConfig};
pub use engine::Engine;
pub use experiment::{run_artifacts_from, run_experiment, RunArtifacts};
pub use fleet::{run_cluster, run_cluster_with, ClusterArtifacts, EngineNode};
pub use jas_cluster::{AutoscaleConfig, ClusterVerdict, DispatchPolicy, FleetStats};
pub use jas_cpu::{CounterFile, HpmEvent};
pub use jas_faults::{FaultCounters, FaultKind, FaultPlan, FaultWindow};
pub use jas_trace::{TraceCategory, TraceEvent, TraceEventKind, TraceSpec, Tracer};
pub use reduce::{reduce_divergence, DivergenceWitness};

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
        let mut recorded = Engine::new(cfg.clone(), plan);
        recorded.start_recording();
        recorded.run_to_end();
        let log = recorded.take_recording().expect("recording was started");
        assert!(!log.is_empty());
        let original = run_artifacts_from(cfg.clone(), plan, recorded);

        let mut replaying = Engine::new(cfg.clone(), plan);
        replaying
            .arm_replay(log)
            .expect("a recorded log fits its engine");
        replaying.run_to_end();
        assert_eq!(replaying.replay_divergence(), None);
        let replayed = run_artifacts_from(cfg, plan, replaying);
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

        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to(SimTime::from_millis(300));
        let bytes = checkpoint_bytes(&mut engine);
        let mut resumed = restore_engine(&cfg, plan, &bytes).unwrap();
        resumed.run_to_end();
        let finished = run_artifacts_from(cfg, plan, resumed);
        assert_eq!(finished.hpm_digest, straight.hpm_digest());
    }
}
