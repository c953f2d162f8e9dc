//! Versioned scenario registry for the jas2004 simulator.
//!
//! A *scenario* is one named, digest-pinned artifact under `scenarios/`
//! that bundles everything a reproducible experiment needs:
//!
//! - a **workload curve** — piecewise-linear injection-rate multiplier
//!   over sim time (constant, compressed diurnal day, flash-crowd
//!   trapezoid, or explicit control points),
//! - a **fault plan** in the `kind@lo-hi:rate` grammar,
//! - a **trace spec** (`off`, `all`, or a category list),
//! - a **cluster topology** — node count, dispatch policy, admission
//!   cap, and optional reactive autoscaler tuning,
//! - an **SLO** the run is judged against (`SCENARIO_VERDICT`).
//!
//! Specs are written in the workspace's zero-dependency TOML subset,
//! read by [`jas_simkernel::toml`] (the same reader `jas-lint` uses for
//! `lint.toml`). Each spec may pin its own `SCENARIO_DIGEST` — FNV-1a
//! ([`jas_simkernel::snapshot::fnv1a`]) over the canonicalized spec
//! ([`ScenarioSpec::canonical_text`]) — and
//! parsing fails on a mismatch, so stored scenarios cannot drift
//! silently. `scenario-validate` lints a set of spec files the way
//! `trace-validate` checks trace schemas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod spec;

pub use spec::{AppKind, CurveSpec, ScenarioOutcome, ScenarioSpec, SloSpec, SCENARIO_SPEC_VERSION};
