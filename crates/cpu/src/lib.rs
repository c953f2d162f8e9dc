//! A POWER4-like processor and memory-hierarchy model with hardware
//! performance monitor (HPM) counters.
//!
//! This crate is the hardware substrate of the `jas2004` reproduction of
//! *"Characterizing a Complex J2EE Workload"* (ISPASS 2007). It models the
//! microarchitectural structures whose behaviour the paper measures:
//!
//! * per-core **L1 I/D caches** (the D-cache 2-way FIFO and write-through
//!   with no allocate-on-store-miss, as on POWER4),
//! * a per-chip shared **L2**, per-MCM **L3**, and the MCM topology that
//!   classifies remote hits as L2.5/L2.75/L3.5 with MESI shared/modified
//!   intervention states ([`hierarchy`]),
//! * **IERAT/DERAT and a unified TLB** with 4 KB and 16 MB pages ([`tlb`]),
//! * a gshare + BTB **branch unit** ([`branch`]),
//! * the 8-stream **sequential prefetcher** ([`prefetch`]),
//! * a pipeline **cost model** with speculation (dispatch vs. complete)
//!   accounting ([`pipeline`]), and
//! * the **HPM counter file** every tool samples ([`counters`]).
//!
//! Workloads enter as [`MicroOp`] streams, typically produced by a
//! [`StreamGen`] from a [`StreamProfile`] supplied by the software layers.
//!
//! # Example
//!
//! ```
//! use jas_cpu::{Machine, MachineConfig, HpmEvent, MicroOp, Region};
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! let ia = Region::JitCode.base();
//! for i in 0..100u64 {
//!     machine.exec(0, ia + i * 4, MicroOp::Load { ea: Region::JavaHeap.base() + i * 128 });
//! }
//! let counters = machine.counters(0);
//! assert_eq!(counters.get(HpmEvent::LoadRefs), 100);
//! assert!(counters.cpi().unwrap() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod branch;
pub mod cache;
pub mod counters;
pub mod hierarchy;
pub mod machine;
pub mod pipeline;
pub mod prefetch;
#[cfg(test)]
mod proptests;
pub mod stream;
pub mod tlb;
mod uop;

pub use address::{AddressMap, PageSize, Region};
pub use branch::{BranchConfig, BranchUnit};
pub use cache::{CacheConfig, Mesi, Replacement, SetAssocCache};
pub use counters::{CounterFile, HpmEvent, EVENT_COUNT};
pub use hierarchy::{DataSource, InstSource, MemEvent, MemorySystem, Topology};
pub use machine::{
    data_latency, reconcile_core, reconcile_drain, CorePrivate, Machine, MachineConfig,
};
pub use pipeline::CostModel;
pub use prefetch::{PrefetchConfig, Prefetcher};
pub use stream::{AccessPattern, DataRegion, StreamGen, StreamProfile, Window};
pub use tlb::{Mmu, MmuConfig, TranslationOutcome};
pub use uop::MicroOp;
