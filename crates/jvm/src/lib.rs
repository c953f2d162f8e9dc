//! A simulated JVM substrate: object heap, stop-the-world
//! mark-sweep-compact garbage collector, JIT compilation model, method
//! registry, and monitor (lock) model.
//!
//! This crate supplies the managed-runtime behaviours the ISPASS 2007 paper
//! measures on IBM's J9 JVM:
//!
//! * a **flat 1 GB heap** collected by mark-sweep with compaction held in
//!   reserve ([`gc`]), over a **real object graph** ([`heap`], [`object`]),
//!   so GC periodicity (~25–28 s), pause composition (mark ≈ 80%), and
//!   "dark matter" fragmentation growth all *emerge*;
//! * a **JIT compiler** with hotness thresholds, optimization levels,
//!   inlining-driven code expansion, and a code cache that gives methods
//!   real instruction addresses ([`jit`]);
//! * the **method registry** whose shifted-power-law weights reproduce the
//!   paper's famously flat profile — hottest method <1%, ~224 of 8500
//!   methods for 50% of JIT'd time ([`method`]);
//! * a **monitor model** with the paper's frequent-locking/low-contention
//!   split ([`locks`]).
//!
//! # Example
//!
//! ```
//! use jas_jvm::{Jvm, JvmConfig, ObjectClass};
//! use jas_simkernel::Rng;
//!
//! let mut vm = Jvm::new(JvmConfig::default());
//! let mut rng = Rng::new(1);
//! let tx = vm.begin_tx();
//! let obj = vm.alloc_in_tx(tx, ObjectClass::Bean, &mut rng);
//! assert!(vm.heap().size_of(obj) >= 96);
//! vm.end_tx(tx);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gc;
pub mod heap;
pub mod jit;
pub mod locks;
pub mod method;
mod object;
mod paged;
#[cfg(test)]
mod proptests;
pub mod vm;

pub use gc::{collect, collect_minor, GcPolicy, GcReport, Traversal};
pub use heap::{AllocError, HeapConfig, SimHeap};
pub use jit::{Compilation, Jit, OptLevel};
pub use locks::{LockOutcome, LockStats, MonitorId, MonitorTable};
pub use method::{flat_profile_weights, Component, Method, MethodId, MethodRegistry};
pub use object::{ObjectClass, ObjectId};
pub use vm::{GcCycle, Jvm, JvmConfig, TxHandle};

/// The checkpoint words `state` writes, for tests that pin them.
#[cfg(test)]
fn saved_words(state: &mut impl jas_simkernel::Persist) -> Vec<u64> {
    let mut saver = jas_simkernel::Saver::new();
    state.persist(&mut saver);
    saver
        .into_bytes()
        .chunks(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("whole words")))
        .collect()
}
