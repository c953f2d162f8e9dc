//! Deterministic structured tracing for the jas2004 simulator, plus host
//! self-profiling.
//!
//! The source paper is a *measurement study*: its artifact is the
//! methodology (HPM counters, `tprof`, `vmstat`, verbose-GC) applied to a
//! 3-tier request flow. This crate turns the reproduction into the same
//! kind of instrument for itself:
//!
//! * **Request tracing** ([`Tracer`], [`TraceEvent`]): every workload
//!   request carries a trace id, and instrumentation points across the
//!   application server (pool seizure, RMI dispatch, JMS delivery and
//!   redelivery, retry/breaker decisions), the database (lock waits,
//!   buffer-pool I/O), the JVM (GC pauses, allocation epochs), and the
//!   CPU/HPM layer (per-core quantum boundaries, counter samples) emit
//!   sim-timestamped events. Events from the engine's sequential phases
//!   append directly; per-core events are staged into per-core buffers and
//!   merged in fixed core order, so the trace — and its FNV-1a
//!   [`Tracer::digest`] — is bit-identical at any `--threads` value.
//! * **Exporter** ([`export`]): chrome://tracing / Perfetto JSON.
//! * **Host self-profiling** ([`HostProf`]): a scoped-timer layer
//!   answering the paper's "where do the cycles go" question for the
//!   simulator itself — host wall-clock is confined to [`hostprof`] (the
//!   one module the workspace lint exempts from the wall-clock rule) and
//!   never enters simulation state.
//!
//! A disabled tracer ([`TraceSpec::off`]) is zero-cost: the engine caches
//! `Tracer::active` and skips every emission site, the same discipline
//! `jas-faults` uses for an empty fault plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
pub mod hostprof;
pub mod json;
mod tracer;

pub use event::{TraceCategory, TraceEvent, TraceEventKind};
pub use hostprof::{HostProf, HostProfReport, HostSection};
pub use tracer::{digest_of, TraceSpec, Tracer};
