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

pub use checkpoint::{
    checkpoint_bytes, config_fingerprint, restore_engine, restore_into, validate_checkpoint,
};
pub use config::{FaultsConfig, RunPlan, ScenarioKind, SutConfig};
pub use engine::Engine;
pub use experiment::{run_artifacts_from, run_experiment, RunArtifacts};
pub use fleet::{run_cluster, run_cluster_with, ClusterArtifacts, EngineNode};
pub use jas_cluster::{AutoscaleConfig, ClusterVerdict, DispatchPolicy, FleetStats};
pub use jas_cpu::{CounterFile, HpmEvent};
pub use jas_faults::{FaultCounters, FaultKind, FaultPlan, FaultWindow};
pub use jas_trace::{TraceCategory, TraceEvent, TraceEventKind, TraceSpec, Tracer};
pub use reduce::{reduce_divergence, DivergenceWitness};
