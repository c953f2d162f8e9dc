//! The shared memory hierarchy: per-chip L2s, per-MCM L3s, memory, and the
//! MCM topology that classifies where a load was satisfied from.
//!
//! On the paper's POWER4 system two cores share an on-chip L2 (the coherence
//! point); chips sit on multi-chip modules (MCMs), each with an attached L3.
//! The HPM classifies an L1 load miss by its supplier:
//!
//! * `L2` — the local chip's L2;
//! * `L2.5` — an L2 on another chip of the *same* MCM;
//! * `L2.75` — an L2 on a *different* MCM;
//! * `L3` / `L3.5` — the local / a remote MCM's L3;
//! * `Memory`.
//!
//! Remote-L2 hits are further split by the MESI state of the line
//! (*shared* vs *modified* intervention) — the paper's evidence that
//! `jas2004` has almost no cross-thread modified sharing lives in exactly
//! this classification.

use crate::cache::{CacheConfig, Mesi, SetAssocCache};

/// Shape of the multi-chip system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of multi-chip modules.
    pub mcms: usize,
    /// Chips per MCM (each chip has one shared L2).
    pub chips_per_mcm: usize,
    /// Cores per chip (POWER4: 2 "sibling" cores share the L2).
    pub cores_per_chip: usize,
}

impl Default for Topology {
    /// The paper's system: 2 MCMs, each with one live 2-core chip — hence 4
    /// cores, one L2 per MCM (so no L2.5 traffic is possible, matching the
    /// paper's footnote 3) and one L3 per MCM.
    fn default() -> Self {
        Topology {
            mcms: 2,
            chips_per_mcm: 1,
            cores_per_chip: 2,
        }
    }
}

impl Topology {
    /// Total core count.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.mcms * self.chips_per_mcm * self.cores_per_chip
    }

    /// Total chip count.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.mcms * self.chips_per_mcm
    }

    /// Chip hosting `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn chip_of_core(&self, core: usize) -> usize {
        assert!(core < self.cores(), "core {core} out of range");
        core / self.cores_per_chip
    }

    /// MCM hosting `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn mcm_of_chip(&self, chip: usize) -> usize {
        assert!(chip < self.chips(), "chip {chip} out of range");
        chip / self.chips_per_mcm
    }
}

/// Where an L1 D-cache load miss was satisfied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Local chip's L2.
    L2,
    /// Off-chip L2, same MCM, line was Shared/Exclusive.
    L25Shared,
    /// Off-chip L2, same MCM, line was Modified (cache-to-cache dirty transfer).
    L25Modified,
    /// L2 on a different MCM, line was Shared/Exclusive.
    L275Shared,
    /// L2 on a different MCM, line was Modified.
    L275Modified,
    /// Local MCM's L3.
    L3,
    /// A different MCM's L3.
    L35,
    /// Main memory.
    Memory,
}

/// Where an instruction fetch (after an L1 I-cache miss) was satisfied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstSource {
    /// Any L2 (local or remote — the paper's instruction-side counters do
    /// not distinguish).
    L2,
    /// Any L3.
    L3,
    /// Main memory.
    Memory,
}

/// One shared-hierarchy access recorded by a core during the parallel
/// (core-private) execution phase.
///
/// Cores append these to a per-core ordered buffer instead of touching the
/// shared [`MemorySystem`] directly; a reconciliation pass drains the
/// buffers in fixed core order and replays each event against the shared
/// state (see `jas_cpu::reconcile_core`). Buffer order is program order
/// within a core, so the replay is deterministic regardless of how many
/// host threads executed the recording phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MemEvent {
    /// L1 I-cache miss: instruction fetch at `addr` needs a supplier.
    InstMiss {
        /// Instruction address that missed.
        addr: u64,
    },
    /// L1 D-cache demand load miss, with the burst classification the
    /// core made from its burst window when the miss was recorded.
    LoadMiss {
        /// Effective address that missed.
        addr: u64,
        /// Whether the miss fell within a burst: reconciliation charges
        /// `overlap_burst` of the latency if so, `overlap_isolated` if not.
        burst: bool,
    },
    /// Write-through store (always reaches the L2, hit or miss).
    Store {
        /// Effective address stored to.
        addr: u64,
    },
    /// Hardware prefetch staged into the L2.
    Prefetch {
        /// Address of the prefetched line.
        addr: u64,
    },
}

/// The shared levels of the memory hierarchy.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    topo: Topology,
    l2s: Vec<SetAssocCache>,
    l3s: Vec<SetAssocCache>,
    /// Exact replay note for back-to-back stores to one line from one chip
    /// (the allocation-write pattern: eight 16-byte stores per 128-byte
    /// line arrive adjacent in the reconcile event stream, because L1 load
    /// hits emit no events). After a store completes, the line is Modified
    /// in `chip`'s L2 at `slot` and resident in **no** other L2 — the store
    /// just invalidated every remote copy. A repeated store from the same
    /// chip to the same line therefore replays as a single
    /// [`SetAssocCache::rehit`]: the remote invalidates would find nothing
    /// (pure no-ops), the local access would hit that same slot, and the
    /// line is already Modified, so `set_state` would be idempotent. Every
    /// other mutation through the hierarchy clears the note.
    last_store: Option<(usize, u64, usize)>,
}

impl MemorySystem {
    /// Builds L2s (one per chip) and L3s (one per MCM).
    #[must_use]
    pub fn new(topo: Topology, l2_cfg: CacheConfig, l3_cfg: CacheConfig) -> Self {
        MemorySystem {
            topo,
            l2s: (0..topo.chips())
                .map(|_| SetAssocCache::new(l2_cfg))
                .collect(),
            l3s: (0..topo.mcms).map(|_| SetAssocCache::new(l3_cfg)).collect(),
            last_store: None,
        }
    }

    /// The topology this hierarchy was built for.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn l2_line(&self, addr: u64) -> u64 {
        self.l2s[0].line_of(addr)
    }

    fn l3_line(&self, addr: u64) -> u64 {
        self.l3s[0].line_of(addr)
    }

    /// Handles an L1 D-cache **load** miss from `chip` for `addr`, returning
    /// the satisfying source and updating all coherence state.
    pub fn load_miss(&mut self, chip: usize, addr: u64) -> DataSource {
        self.last_store = None;
        let line = self.l2_line(addr);
        let my_mcm = self.topo.mcm_of_chip(chip);

        // 1. Local L2.
        if self.l2s[chip].access(line).is_some() {
            return DataSource::L2;
        }

        // 2. Snoop remote L2s.
        let mut remote_hit: Option<(usize, Mesi)> = None;
        for (c, l2) in self.l2s.iter().enumerate() {
            if c == chip {
                continue;
            }
            if let Some(state) = l2.probe(line) {
                remote_hit = Some((c, state));
                break;
            }
        }
        if let Some((rc, state)) = remote_hit {
            // Dirty or clean intervention: the remote copy is demoted to
            // Shared and the local L2 receives a Shared copy.
            self.l2s[rc].set_state(line, Mesi::Shared);
            self.fill_l2(chip, line, Mesi::Shared);
            let same_mcm = self.topo.mcm_of_chip(rc) == my_mcm;
            let modified = state == Mesi::Modified;
            return match (same_mcm, modified) {
                (true, false) => DataSource::L25Shared,
                (true, true) => DataSource::L25Modified,
                (false, false) => DataSource::L275Shared,
                (false, true) => DataSource::L275Modified,
            };
        }

        // 3. Local MCM's L3, then remote L3s.
        let l3line = self.l3_line(addr);
        if self.l3s[my_mcm].access(l3line).is_some() {
            self.fill_l2(chip, line, Mesi::Exclusive);
            return DataSource::L3;
        }
        for (m, l3) in self.l3s.iter().enumerate() {
            if m != my_mcm && l3.probe(l3line).is_some() {
                self.fill_l2(chip, line, Mesi::Exclusive);
                return DataSource::L35;
            }
        }

        // 4. Memory: fill the local L2 and the local MCM's L3.
        self.fill_l2(chip, line, Mesi::Exclusive);
        self.l3s[my_mcm].insert(l3line, Mesi::Shared);
        DataSource::Memory
    }

    /// Handles a **store** from `chip` to `addr` (write-through from L1).
    ///
    /// Gains exclusive ownership: any remote L2 copy is invalidated and the
    /// local L2 line becomes Modified (allocated on miss, per POWER4's
    /// store-through-to-L2 policy). Returns `true` when the local L2 already
    /// held the line (an L2 store hit).
    pub fn store(&mut self, chip: usize, addr: u64) -> bool {
        let line = self.l2_line(addr);
        if let Some((c, l, slot)) = self.last_store {
            if c == chip && l == line {
                // Replay fast path — see the `last_store` field docs for
                // the exactness argument. The previous event was a store of
                // this very (chip, line), so all three steps of the full
                // path below collapse into one slot re-touch.
                self.l2s[chip].rehit(slot);
                return true;
            }
        }
        for (c, l2) in self.l2s.iter_mut().enumerate() {
            if c != chip {
                l2.invalidate(line);
            }
        }
        let (hit, slot) = match self.l2s[chip].access_at(line) {
            Some((slot, _)) => {
                self.l2s[chip].set_state_at(slot, Mesi::Modified);
                (true, slot)
            }
            None => (false, self.fill_l2(chip, line, Mesi::Modified)),
        };
        self.last_store = Some((chip, line, slot));
        hit
    }

    /// Handles an instruction fetch from `chip` at `addr` after an L1
    /// I-cache miss. Instructions are read-only; remote L2/L3 hits are
    /// folded into [`InstSource::L2`]/[`InstSource::L3`] as on the real HPM.
    pub fn fetch_inst(&mut self, chip: usize, addr: u64) -> InstSource {
        self.last_store = None;
        let line = self.l2_line(addr);
        if self.l2s[chip].access(line).is_some() {
            return InstSource::L2;
        }
        for (c, l2) in self.l2s.iter().enumerate() {
            if c != chip && l2.probe(line).is_some() {
                self.fill_l2(chip, line, Mesi::Shared);
                return InstSource::L2;
            }
        }
        let l3line = self.l3_line(addr);
        let my_mcm = self.topo.mcm_of_chip(chip);
        for (m, l3) in self.l3s.iter_mut().enumerate() {
            let present = if m == my_mcm {
                l3.access(l3line).is_some()
            } else {
                l3.probe(l3line).is_some()
            };
            if present {
                self.fill_l2(chip, line, Mesi::Shared);
                return InstSource::L3;
            }
        }
        self.fill_l2(chip, line, Mesi::Shared);
        self.l3s[my_mcm].insert(l3line, Mesi::Shared);
        InstSource::Memory
    }

    /// Stages a prefetched line into `chip`'s L2 (no source classification —
    /// prefetches are not demand misses).
    pub fn prefetch_into_l2(&mut self, chip: usize, addr: u64) {
        self.last_store = None;
        let line = self.l2_line(addr);
        if self.l2s[chip].probe(line).is_none() {
            self.fill_l2(chip, line, Mesi::Shared);
        }
    }

    /// Drops the store-replay note, forcing the next store through the
    /// full path. Test-only: lets the differential proptest replay the
    /// same event sequence with the fast path disabled.
    #[cfg(test)]
    pub(crate) fn clear_store_note(&mut self) {
        self.last_store = None;
    }

    /// `true` when `chip`'s L2 currently holds the line of `addr`.
    #[must_use]
    pub fn l2_holds(&self, chip: usize, addr: u64) -> bool {
        self.l2s[chip].probe(self.l2_line(addr)).is_some()
    }

    fn fill_l2(&mut self, chip: usize, line: u64, state: Mesi) -> usize {
        let (slot, victim) = self.l2s[chip].insert_at(line, state);
        if let Some((victim_line, victim_state)) = victim {
            // Modified victims spill into the local MCM's L3 (simplified
            // victim handling; clean victims are dropped).
            if victim_state == Mesi::Modified {
                let mcm = self.topo.mcm_of_chip(chip);
                let bytes = victim_line * self.l2s[chip].config().line_bytes;
                let l3line = self.l3_line(bytes);
                self.l3s[mcm].insert(l3line, Mesi::Modified);
            }
        }
        slot
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for MemorySystem {
    /// The topology is config-derived; every shared cache bank and the
    /// store-combining scratch survive the checkpoint.
    // jas-lint: allow(D009, reason = "topo is the machine topology, pure configuration")
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_slice(io, &mut self.l2s);
        snap::persist_slice(io, &mut self.l3s);
        snap::persist_opt(io, &mut self.last_store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_event_fits_sixteen_bytes() {
        // Counted footprint guard: every recorded miss, store and prefetch
        // sits in a per-core buffer that grows during GC slices, so an
        // event must stay an address plus a tag.
        assert!(std::mem::size_of::<MemEvent>() <= 16);
    }

    fn system() -> MemorySystem {
        MemorySystem::new(
            Topology::default(),
            CacheConfig::power4_l2(),
            CacheConfig::power4_l3(),
        )
    }

    #[test]
    fn default_topology_matches_paper() {
        let t = Topology::default();
        assert_eq!(t.cores(), 4);
        assert_eq!(t.chips(), 2);
        assert_eq!(t.chip_of_core(0), 0);
        assert_eq!(t.chip_of_core(1), 0);
        assert_eq!(t.chip_of_core(2), 1);
        assert_eq!(t.mcm_of_chip(0), 0);
        assert_eq!(t.mcm_of_chip(1), 1);
    }

    #[test]
    fn cold_load_comes_from_memory_then_l2() {
        let mut m = system();
        assert_eq!(m.load_miss(0, 0x1_0000), DataSource::Memory);
        assert_eq!(m.load_miss(0, 0x1_0000), DataSource::L2);
    }

    #[test]
    fn l3_supplies_after_l2_eviction_of_dirty_line() {
        let mut m = system();
        let addr = 0x5_0000;
        m.store(0, addr); // line Modified in chip 0's L2
                          // Evict it by filling the set; L2 has 1440 sets x 128B lines, so
                          // lines that collide are 1440 lines apart.
        let stride = 1440 * 128;
        for k in 1..=9u64 {
            let _ = m.load_miss(0, addr + k * stride);
        }
        // The dirty victim must now be in MCM0's L3.
        assert_eq!(m.load_miss(0, addr), DataSource::L3);
    }

    #[test]
    fn remote_clean_copy_classified_l275_shared() {
        let mut m = system();
        let addr = 0x9_0000;
        let _ = m.load_miss(0, addr); // chip 0 (MCM 0) now caches it
                                      // Chip 1 lives on MCM 1 in the default topology → L2.75.
        assert_eq!(m.load_miss(1, addr), DataSource::L275Shared);
    }

    #[test]
    fn remote_dirty_copy_classified_l275_modified() {
        let mut m = system();
        let addr = 0xA_0000;
        m.store(0, addr);
        assert_eq!(m.load_miss(1, addr), DataSource::L275Modified);
        // After the intervention both copies are Shared: a third access from
        // chip 0 hits locally.
        assert_eq!(m.load_miss(0, addr), DataSource::L2);
    }

    #[test]
    fn l25_classification_when_chips_share_an_mcm() {
        let topo = Topology {
            mcms: 1,
            chips_per_mcm: 2,
            cores_per_chip: 2,
        };
        let mut m = MemorySystem::new(topo, CacheConfig::power4_l2(), CacheConfig::power4_l3());
        let addr = 0xB_0000;
        m.store(0, addr);
        assert_eq!(m.load_miss(1, addr), DataSource::L25Modified);
        let addr2 = 0xC_0000;
        let _ = m.load_miss(0, addr2);
        assert_eq!(m.load_miss(1, addr2), DataSource::L25Shared);
    }

    #[test]
    fn store_invalidates_remote_copies() {
        let mut m = system();
        let addr = 0xD_0000;
        let _ = m.load_miss(0, addr);
        let _ = m.load_miss(1, addr); // both chips now share the line
        m.store(0, addr); // chip 0 takes ownership
                          // Chip 1's copy must be gone: its next load is a remote-modified hit.
        assert_eq!(m.load_miss(1, addr), DataSource::L275Modified);
    }

    #[test]
    fn store_hit_vs_miss_reported() {
        let mut m = system();
        let addr = 0xE_0000;
        assert!(!m.store(0, addr), "cold store is an L2 miss");
        assert!(m.store(0, addr), "second store hits L2");
    }

    #[test]
    fn inst_fetch_walks_hierarchy() {
        let mut m = system();
        let addr = 0xF_0000;
        assert_eq!(m.fetch_inst(0, addr), InstSource::Memory);
        assert_eq!(m.fetch_inst(0, addr), InstSource::L2);
        // Remote chip's fetch finds it in chip 0's L2 (classified L2).
        assert_eq!(m.fetch_inst(1, addr), InstSource::L2);
    }

    #[test]
    fn inst_fetch_hits_l3_after_memory_fill() {
        let mut m = system();
        let addr = 0x11_0000;
        assert_eq!(m.fetch_inst(0, addr), InstSource::Memory); // fills L2 + L3
                                                               // Evict from L2 by conflict, then the L3 should supply.
        let stride = 1440 * 128;
        for k in 1..=9u64 {
            let _ = m.fetch_inst(0, addr + k * stride);
        }
        assert_eq!(m.fetch_inst(0, addr), InstSource::L3);
    }

    #[test]
    fn prefetch_into_l2_makes_later_load_hit() {
        let mut m = system();
        let addr = 0x12_0000;
        m.prefetch_into_l2(0, addr);
        assert_eq!(m.load_miss(0, addr), DataSource::L2);
    }

    #[test]
    fn no_l25_traffic_with_one_live_l2_per_mcm() {
        // Sanity check of the paper's footnote: with the default topology a
        // remote L2 hit can only be L2.75, never L2.5.
        let mut m = system();
        for i in 0..200u64 {
            let addr = 0x20_0000 + i * 128;
            let _ = m.load_miss(0, addr);
            let src = m.load_miss(1, addr);
            assert!(
                !matches!(src, DataSource::L25Shared | DataSource::L25Modified),
                "impossible L2.5 source {src:?}"
            );
        }
    }
}
