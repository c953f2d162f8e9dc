//! Discrete-event simulation kernel used by every layer of the `jas2004`
//! full-system simulator.
//!
//! The kernel provides seven things and nothing else:
//!
//! * **Simulated time** ([`SimTime`], [`SimDuration`]) — nanosecond-resolution
//!   newtypes so wall-clock and simulated time can never be confused.
//! * **An event queue** ([`EventQueue`], [`Scheduler`]) — a monotonic
//!   priority queue of closures with deterministic FIFO tie-breaking.
//! * **A wake-up heap** ([`WakeHeap`]) — the event-driven engine scheduler's
//!   deterministic min-heap of `(tick, component, seq)` wake-ups, with lazy
//!   invalidation and a canonical checkpoint form.
//! * **Deterministic randomness** ([`Rng`]) and the distributions the
//!   workload model needs ([`dist`]).
//! * **Time-series recording** ([`SeriesRecorder`]) — fixed-interval sampling
//!   used by the measurement tools to mimic `hpmstat`-style output.
//! * **Deterministic containers** ([`DetMap`], [`DetSet`]) — key-ordered
//!   replacements for `HashMap`/`HashSet` in simulation state, so iteration
//!   order can never leak into counters (lint rule D001).
//! * **Artifact primitives** — the [`toml`] subset reader behind the
//!   scenario specs and `lint.toml`, and the FNV-1a digest
//!   ([`snapshot::fnv1a`]) every pinned digest and checksum is built on.
//!
//! Everything is single-threaded and bit-reproducible: the same seed and
//! configuration always produce the same simulation, which is what lets the
//! figure-reproduction tests assert quantitative bands.
//!
//! # Example
//!
//! ```
//! use jas_simkernel::{Scheduler, SimTime, SimDuration};
//!
//! let mut sched = Scheduler::new();
//! sched.schedule(SimTime::ZERO + SimDuration::from_millis(5), |s| {
//!     // events may schedule further events
//!     let now = s.now();
//!     s.schedule(now + SimDuration::from_millis(5), |_| {});
//! });
//! sched.run_until(SimTime::from_secs(1));
//! assert_eq!(sched.now(), SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod det;
pub mod dist;
mod event;
#[cfg(test)]
mod proptests;
mod rng;
mod series;
pub mod snapshot;
mod time;
pub mod toml;
mod wake;

pub use det::{DetMap, DetSet};
pub use event::{EventQueue, Scheduler};
pub use rng::Rng;
pub use series::{SeriesRecorder, SeriesSample};
pub use snapshot::{Format, Loader, Persist, Saver, StateIo};
pub use time::{SimDuration, SimTime};
pub use wake::{ComponentId, WakeHeap};
