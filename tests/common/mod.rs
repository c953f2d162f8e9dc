//! Helpers shared by the integration suites.

use jas2004::{Engine, HpmEvent};
use jas_simkernel::snapshot::WordDigest;

/// FNV-1a over every per-core HPM counter in (core, event) order — the
/// digest `integration_determinism.rs` pins as its golden value.
pub fn per_core_hpm_digest(e: &Engine) -> u64 {
    let mut d = WordDigest::new();
    for core in 0..e.machine().cores() {
        for ev in HpmEvent::ALL {
            d.mix(e.machine().counters(core).get(ev));
        }
    }
    d.value()
}
