//! The machine model: cores, their private structures, and the shared
//! memory hierarchy, executing [`MicroOp`] streams and maintaining HPM
//! counters.
//!
//! # Two-phase execution
//!
//! The machine is split into strictly **core-private** state
//! ([`CorePrivate`]: L1 I/D, ERAT/TLB, branch predictors, prefetcher,
//! pipeline accounting, HPM counters) and the **shared** hierarchy
//! ([`MemorySystem`]: L2s, L3s, MESI coherence). A core executes its
//! micro-op stream against private state only
//! ([`CorePrivate::exec_record`]), appending every shared-hierarchy access
//! to an ordered [`MemEvent`] buffer and charging a *provisional* L2-hit
//! latency for each miss. A deterministic reconciliation pass
//! ([`reconcile_core`]) later drains the buffers in fixed core order,
//! applies coherence effects, classifies each miss by its true supplier,
//! and returns the latency correction to charge back. Because the
//! recording phase touches no shared state, any number of cores may record
//! concurrently and the end state is bit-identical to running them one
//! after another — the invariant the engine's phased round relies on.
//!
//! [`Machine::exec`] remains the immediate single-op path (record one op,
//! reconcile at once) for unit tests and microbenchmarks.

use crate::address::AddressMap;
use crate::branch::{BranchConfig, BranchUnit, LinkStack};
use crate::cache::{CacheConfig, Mesi, SetAssocCache};
use crate::counters::{CounterFile, HpmEvent};
use crate::hierarchy::{DataSource, InstSource, MemEvent, MemorySystem, Topology};
use crate::pipeline::{CostModel, FracCounter};
use crate::prefetch::{PrefetchConfig, PrefetchDecision, Prefetcher};
use crate::tlb::{Mmu, MmuConfig, TranslationOutcome};
use crate::uop::MicroOp;

/// Complete configuration of the simulated machine.
///
/// Defaults model the paper's 4-core, 2-MCM POWER4 system. `frequency_hz`
/// is the *modeled* clock used to convert cycles to simulated time; it is
/// deliberately far below 1.3 GHz (see DESIGN.md "instruction-rate
/// scaling") — all reported quantities are per-instruction ratios, which
/// are scale-invariant.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Core/chip/MCM topology.
    pub topology: Topology,
    /// L1 D-cache shape (per core).
    pub l1d: CacheConfig,
    /// L1 I-cache shape (per core).
    pub l1i: CacheConfig,
    /// L2 shape (per chip, shared by its cores).
    pub l2: CacheConfig,
    /// L3 shape (per MCM).
    pub l3: CacheConfig,
    /// ERAT/TLB shapes.
    pub mmu: MmuConfig,
    /// Branch-predictor shapes.
    pub branch: BranchConfig,
    /// Sequential-prefetcher shape.
    pub prefetch: PrefetchConfig,
    /// Stall/dispatch cost constants.
    pub cost: CostModel,
    /// Page-size policy of the address space.
    pub addr_map: AddressMap,
    /// Modeled clock frequency (cycles per simulated second).
    pub frequency_hz: f64,
    /// Enables the exact-equivalence fast paths (MRU line filter in front
    /// of the L1 D-cache, frame filters in front of IERAT/DERAT, slot-replay
    /// cache hits). Observable state — HPM counters, cache statistics,
    /// victim choices — is bit-identical either way; the toggle exists so
    /// the differential gate in `proptests.rs` can prove it. See DESIGN.md
    /// "Hot path and exact-equivalence fast paths".
    pub fast_paths: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            topology: Topology::default(),
            l1d: CacheConfig::power4_l1d(),
            l1i: CacheConfig::power4_l1i(),
            l2: CacheConfig::power4_l2(),
            l3: CacheConfig::power4_l3(),
            mmu: MmuConfig::default(),
            branch: BranchConfig::default(),
            prefetch: PrefetchConfig::default(),
            cost: CostModel::default(),
            addr_map: AddressMap::default(),
            frequency_hz: 2_000_000.0,
            fast_paths: true,
        }
    }
}

/// Per-core private state: everything a core may touch while other cores
/// are executing concurrently.
#[derive(Clone, Debug)]
pub struct CorePrivate {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    mmu: Mmu,
    branch: BranchUnit,
    link_stack: LinkStack,
    prefetch: Prefetcher,
    counters: CounterFile,
    cyc: FracCounter,
    disp: FracCounter,
    cmpl_cyc: FracCounter,
    srq: FracCounter,
    op_index: u64,
    last_l1d_miss_op: u64,
    last_fetch_line: u64,
    // --- Exact-equivalence fast-path state (DESIGN.md "Hot path"). ---
    // `fast` gates the IERAT/DERAT frame filters; `mru_ok` additionally
    // requires L1D lines not to span a 4 KB frame (so a same-line repeat
    // implies a same-frame repeat). `u64::MAX` is the invalid sentinel for
    // the remembered frames/line (real frames are `addr >> 12`, real lines
    // `addr >> 7`, so the sentinel is unreachable).
    fast: bool,
    mru_ok: bool,
    last_inst_frame: u64,
    last_data_frame: u64,
    mru_line: u64,
    mru_slot: u32,
    mru_resident: bool,
    /// Reusable buffer for prefetch decisions (avoids two `Vec` allocations
    /// per stream advance on the hot load path).
    pf_decision: PrefetchDecision,
    // Cheap deterministic per-core noise source for probabilistic model
    // events (group reissues), independent of the workload RNG.
    noise: u64,
}

impl CorePrivate {
    fn new(cfg: &MachineConfig, id: usize) -> Self {
        let fast = cfg.fast_paths;
        CorePrivate {
            l1i: SetAssocCache::new(cfg.l1i),
            l1d: SetAssocCache::new(cfg.l1d),
            mmu: Mmu::new(cfg.mmu),
            branch: BranchUnit::new(cfg.branch),
            link_stack: LinkStack::new(16), // POWER4-class depth
            prefetch: Prefetcher::new(cfg.prefetch),
            counters: CounterFile::new(),
            cyc: FracCounter::default(),
            disp: FracCounter::default(),
            cmpl_cyc: FracCounter::default(),
            srq: FracCounter::default(),
            op_index: 0,
            last_l1d_miss_op: u64::MAX / 2,
            last_fetch_line: u64::MAX,
            fast,
            mru_ok: fast && cfg.l1d.line_bytes <= 4096,
            last_inst_frame: u64::MAX,
            last_data_frame: u64::MAX,
            mru_line: u64::MAX,
            mru_slot: 0,
            mru_resident: false,
            pf_decision: PrefetchDecision::default(),
            noise: 0x9E37_79B9_7F4A_7C15 ^ (id as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        }
    }

    #[inline]
    fn noise_f64(&mut self) -> f64 {
        // SplitMix64 step — deterministic, core-local.
        self.noise = self.noise.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.noise;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// This core's cumulative HPM counters.
    #[must_use]
    pub fn counters(&self) -> &CounterFile {
        &self.counters
    }

    /// Executes one instruction against core-private state only:
    /// instruction fetch from `ia`, then the op's architectural effect.
    /// Shared-hierarchy traffic is appended to `events`; every recorded
    /// miss is charged the provisional L2-hit latency, to be corrected by
    /// [`reconcile_core`]. Returns the provisional cycles consumed.
    pub fn exec_record(
        &mut self,
        cost: &CostModel,
        addr_map: AddressMap,
        ia: u64,
        op: MicroOp,
        events: &mut Vec<MemEvent>,
    ) -> f64 {
        let c = self;
        c.op_index += 1;

        let mut cycles = cost.base_cpi;
        let mut dispatched = 1.0 + cost.baseline_overdispatch;

        // ---- Instruction side: one fetch per new cache line. ----
        let fetch_line = c.l1i.line_of(ia);
        if fetch_line != c.last_fetch_line {
            c.last_fetch_line = fetch_line;
            // Frame filter: a fetch from the same 4 KB frame as the last
            // *translated* fetch is by construction an IERAT hit — the frame
            // is still the IERAT's MRU entry, so the full translate would
            // only re-front an already-front entry (a no-op). EratHit bumps
            // no counters and charges no cycles, so skipping it is exact.
            let frame = ia >> 12;
            if !(c.fast && frame == c.last_inst_frame) {
                let page = addr_map.page_size(ia);
                match c.mmu.translate_inst(ia, page) {
                    TranslationOutcome::EratHit => {}
                    TranslationOutcome::EratMissTlbHit => {
                        c.counters.bump(HpmEvent::IeratMiss);
                        cycles += cost.erat_miss_cycles * cost.inst_overlap;
                    }
                    TranslationOutcome::TlbMiss => {
                        c.counters.bump(HpmEvent::IeratMiss);
                        c.counters.bump(HpmEvent::ItlbMiss);
                        cycles += cost.tlb_walk_cycles * cost.inst_overlap;
                    }
                }
                c.last_inst_frame = frame;
            }
            if c.l1i.access(fetch_line).is_some() {
                c.counters.bump(HpmEvent::InstFromL1);
            } else {
                // Provisional: charge an L2 hit now; the reconciliation
                // pass classifies the true supplier and charges the
                // difference.
                events.push(MemEvent::InstMiss { addr: ia });
                cycles += cost.l2_latency * cost.inst_overlap;
                c.l1i.insert(fetch_line, Mesi::Shared);
            }
        } else {
            c.counters.bump(HpmEvent::InstFromL1);
        }

        // ---- Op effect. ----
        match op {
            MicroOp::Alu => {}
            MicroOp::Load { ea } | MicroOp::Larx { ea } => {
                if matches!(op, MicroOp::Larx { .. }) {
                    c.counters.bump(HpmEvent::Larx);
                }
                c.counters.bump(HpmEvent::LoadRefs);
                let line = c.l1d.line_of(ea);
                // MRU line filter: a repeat of the previous data line that
                // is still resident is by construction a DERAT hit (same
                // 4 KB frame, and EratHit has no observable effect) and an
                // L1 hit at the remembered way — replay both without the
                // translate or the set walk.
                let mut hit_slot = usize::MAX;
                let l1_hit = if c.mru_ok && line == c.mru_line && c.mru_resident {
                    c.l1d.rehit(c.mru_slot as usize);
                    hit_slot = c.mru_slot as usize;
                    true
                } else {
                    Self::data_translate(c, cost, ea, addr_map, &mut cycles, &mut dispatched);
                    match c.l1d.access_at(line) {
                        Some((slot, _)) => {
                            hit_slot = slot;
                            true
                        }
                        None => false,
                    }
                };
                // The prefetch engine observes every load (fast path
                // included): stream confirmations ride on prefetch hits,
                // allocations on misses.
                c.prefetch
                    .on_l1_load_into(line, !l1_hit, &mut c.pf_decision);
                if c.pf_decision.allocated {
                    c.counters.bump(HpmEvent::StreamAllocs);
                }
                for &pl in &c.pf_decision.l1_lines {
                    c.counters.bump(HpmEvent::L1Prefetch);
                    c.l1d.insert(pl, Mesi::Shared);
                    events.push(MemEvent::Prefetch {
                        addr: c.l1d.addr_of_line(pl),
                    });
                }
                for &pl in &c.pf_decision.l2_lines {
                    c.counters.bump(HpmEvent::L2Prefetch);
                    events.push(MemEvent::Prefetch {
                        addr: c.l1d.addr_of_line(pl),
                    });
                }
                let pf_filled_l1 = !c.pf_decision.l1_lines.is_empty();
                if !l1_hit {
                    c.counters.bump(HpmEvent::LoadMissL1);
                    let burst =
                        c.op_index.wrapping_sub(c.last_l1d_miss_op) <= cost.burst_window_ops;
                    c.last_l1d_miss_op = c.op_index;
                    // Provisional L2-hit charge; reconciliation walks the
                    // real hierarchy and charges the difference.
                    events.push(MemEvent::LoadMiss { addr: ea, burst });
                    cycles += cost.l2_latency * cost.load_overlap(burst);
                    // Dispatch rejects: some misses cause group reissue.
                    if c.noise_f64() < cost.reissue_on_miss_prob {
                        c.counters.bump(HpmEvent::GroupReissues);
                        dispatched += cost.group_reissue_dispatch;
                    }
                    // The demand fill lands last, so its slot is final.
                    let (slot, _victim) = c.l1d.insert_at(line, Mesi::Shared);
                    c.mru_line = line;
                    c.mru_slot = slot as u32;
                    c.mru_resident = true;
                } else if !pf_filled_l1 {
                    c.mru_line = line;
                    c.mru_slot = hit_slot as u32;
                    c.mru_resident = true;
                } else {
                    // Prefetch fills may have displaced the hit line (or
                    // filled a line an earlier note called non-resident),
                    // so drop the note rather than risk a stale claim.
                    c.mru_line = u64::MAX;
                }
            }
            MicroOp::Store { ea } | MicroOp::Stcx { ea, .. } => {
                if let MicroOp::Stcx { fail, .. } = op {
                    c.counters.bump(HpmEvent::Stcx);
                    if fail {
                        c.counters.bump(HpmEvent::StcxFail);
                    }
                    cycles += cost.stcx_cycles;
                }
                c.counters.bump(HpmEvent::StoreRefs);
                let line = c.l1d.line_of(ea);
                // Write-through: the store goes to L2 either way; an L1 miss
                // does NOT allocate in L1 (paper Section 4.2.3) — so the MRU
                // note's residency flag survives a store miss unchanged, and
                // repeated stores to one line (the allocation-write pattern)
                // replay as known hits or known misses without a walk.
                if c.mru_ok && line == c.mru_line {
                    if c.mru_resident {
                        c.l1d.rehit(c.mru_slot as usize);
                    } else {
                        c.l1d.remiss();
                        c.counters.bump(HpmEvent::StoreMissL1);
                        cycles += cost.store_miss_cycles;
                    }
                } else {
                    Self::data_translate(c, cost, ea, addr_map, &mut cycles, &mut dispatched);
                    match c.l1d.access_at(line) {
                        Some((slot, _)) => {
                            c.mru_line = line;
                            c.mru_slot = slot as u32;
                            c.mru_resident = true;
                        }
                        None => {
                            c.counters.bump(HpmEvent::StoreMissL1);
                            cycles += cost.store_miss_cycles;
                            c.mru_line = line;
                            c.mru_resident = false;
                        }
                    }
                }
                events.push(MemEvent::Store { addr: ea });
            }
            MicroOp::CondBranch { site, taken } => {
                c.counters.bump(HpmEvent::Branches);
                if !c.branch.resolve_conditional(site, taken).correct {
                    c.counters.bump(HpmEvent::BrMpredCond);
                    cycles += cost.mispredict_cycles;
                    dispatched += cost.wrong_path_dispatch;
                }
            }
            MicroOp::IndBranch { site, target } => {
                c.counters.bump(HpmEvent::Branches);
                c.counters.bump(HpmEvent::IndirectBranches);
                if !c.branch.resolve_indirect(site, target).correct {
                    c.counters.bump(HpmEvent::BrMpredTarget);
                    cycles += cost.mispredict_cycles;
                    dispatched += cost.wrong_path_dispatch;
                    // A target misprediction redirects fetch: the next op
                    // fetches from the (new) target line.
                    c.last_fetch_line = u64::MAX;
                }
            }
            MicroOp::Sync => {
                c.counters.bump(HpmEvent::SyncCount);
                cycles += cost.sync_srq_cycles;
                c.srq.add(
                    &mut c.counters,
                    HpmEvent::SyncSrqCycles,
                    cost.sync_srq_cycles,
                );
            }
            MicroOp::Call { ret } => {
                // Direct calls are perfectly target-predicted; the link
                // stack records the return address. (PM_BR_CMPL counts
                // conditional branches only, as used by Figure 6.)
                c.link_stack.push(ret);
            }
            MicroOp::Return { to } => {
                c.counters.bump(HpmEvent::Returns);
                if !c.link_stack.resolve_return(to) {
                    c.counters.bump(HpmEvent::RetMpred);
                    cycles += cost.mispredict_cycles;
                    dispatched += cost.wrong_path_dispatch;
                    c.last_fetch_line = u64::MAX;
                }
            }
        }

        // ---- Completion accounting. ----
        c.counters.bump(HpmEvent::InstCompleted);
        c.cyc.add(&mut c.counters, HpmEvent::Cycles, cycles);
        c.disp
            .add(&mut c.counters, HpmEvent::InstDispatched, dispatched);
        c.cmpl_cyc.add(
            &mut c.counters,
            HpmEvent::CyclesWithCompletion,
            1.0 / cost.completion_group_width,
        );
        cycles
    }

    fn data_translate(
        c: &mut CorePrivate,
        cost: &CostModel,
        ea: u64,
        addr_map: AddressMap,
        cycles: &mut f64,
        dispatched: &mut f64,
    ) {
        // Frame filter: same 4 KB frame as the previous data translation ⇒
        // the frame is still the DERAT's MRU entry, so the full path would
        // be a cost-free EratHit that re-fronts an already-front entry.
        let frame = ea >> 12;
        if c.fast && frame == c.last_data_frame {
            return;
        }
        let page = addr_map.page_size(ea);
        match c.mmu.translate_data(ea, page) {
            TranslationOutcome::EratHit => {}
            TranslationOutcome::EratMissTlbHit => {
                c.counters.bump(HpmEvent::DeratMiss);
                *cycles += cost.erat_miss_cycles;
                // The load is retried every `reject_retry_cycles` until the
                // translation arrives — each retry is a dispatch.
                *dispatched += cost.erat_miss_cycles / cost.reject_retry_cycles;
            }
            TranslationOutcome::TlbMiss => {
                c.counters.bump(HpmEvent::DeratMiss);
                c.counters.bump(HpmEvent::DtlbMiss);
                *cycles += cost.tlb_walk_cycles;
                *dispatched += cost.tlb_walk_cycles / cost.reject_retry_cycles;
            }
        }
        c.last_data_frame = frame;
    }
}

/// Load-to-use latency of a data source under `cost`.
#[must_use]
pub fn data_latency(cost: &CostModel, source: DataSource) -> f64 {
    match source {
        DataSource::L2 => cost.l2_latency,
        DataSource::L25Shared | DataSource::L25Modified => cost.l25_latency,
        DataSource::L275Shared | DataSource::L275Modified => cost.l275_latency,
        DataSource::L3 => cost.l3_latency,
        DataSource::L35 => cost.l35_latency,
        DataSource::Memory => cost.mem_latency,
    }
}

fn data_event(source: DataSource) -> HpmEvent {
    match source {
        DataSource::L2 => HpmEvent::DataFromL2,
        DataSource::L25Shared => HpmEvent::DataFromL25Shr,
        DataSource::L25Modified => HpmEvent::DataFromL25Mod,
        DataSource::L275Shared => HpmEvent::DataFromL275Shr,
        DataSource::L275Modified => HpmEvent::DataFromL275Mod,
        DataSource::L3 => HpmEvent::DataFromL3,
        DataSource::L35 => HpmEvent::DataFromL35,
        DataSource::Memory => HpmEvent::DataFromMem,
    }
}

/// Drains `core`'s recorded shared-hierarchy events **in program order**
/// through the shared memory system: applies coherence effects, classifies
/// each miss by its true supplier (bumping the corresponding HPM
/// counters), and accumulates the latency difference against the
/// provisional L2-hit charge taken during recording. The correction is
/// added to the core's cycle counter and returned so the caller can charge
/// it against the core's execution budget.
///
/// Calling this for every core in a fixed order yields a machine state and
/// counter file that are bit-identical regardless of how the recording
/// phase was scheduled across host threads.
pub fn reconcile_core(
    core: &mut CorePrivate,
    chip: usize,
    cost: &CostModel,
    mem: &mut MemorySystem,
    events: &mut Vec<MemEvent>,
) -> f64 {
    let mut correction = 0.0;
    for event in events.drain(..) {
        match event {
            MemEvent::InstMiss { addr } => {
                let (hpm_event, latency) = match mem.fetch_inst(chip, addr) {
                    InstSource::L2 => (HpmEvent::InstFromL2, cost.l2_latency),
                    InstSource::L3 => (HpmEvent::InstFromL3, cost.l3_latency),
                    InstSource::Memory => (HpmEvent::InstFromMem, cost.mem_latency),
                };
                core.counters.bump(hpm_event);
                correction += (latency - cost.l2_latency) * cost.inst_overlap;
            }
            MemEvent::LoadMiss { addr, burst } => {
                let source = mem.load_miss(chip, addr);
                core.counters.bump(data_event(source));
                correction +=
                    (data_latency(cost, source) - cost.l2_latency) * cost.load_overlap(burst);
            }
            MemEvent::Store { addr } => {
                let _l2_hit = mem.store(chip, addr);
            }
            MemEvent::Prefetch { addr } => {
                mem.prefetch_into_l2(chip, addr);
            }
        }
    }
    if correction > 0.0 {
        core.cyc
            .add(&mut core.counters, HpmEvent::Cycles, correction);
    }
    correction
}

/// The simulated multiprocessor.
///
/// # Example
///
/// ```
/// use jas_cpu::{Machine, MachineConfig, MicroOp, Region};
///
/// let mut m = Machine::new(MachineConfig::default());
/// let ia = Region::JitCode.base();
/// let cycles = m.exec(0, ia, MicroOp::Load { ea: Region::JavaHeap.base() });
/// assert!(cycles > 0.0);
/// assert_eq!(m.counters(0).get(jas_cpu::HpmEvent::LoadRefs), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<CorePrivate>,
    mem: MemorySystem,
    /// Scratch buffer for the immediate [`Machine::exec`] path.
    scratch: Vec<MemEvent>,
}

impl Machine {
    /// Builds the machine from its configuration.
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Self {
        let cores = (0..cfg.topology.cores())
            .map(|id| CorePrivate::new(&cfg, id))
            .collect();
        let mem = MemorySystem::new(cfg.topology, cfg.l2, cfg.l3);
        Machine {
            cfg,
            cores,
            mem,
            scratch: Vec::new(),
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Cumulative counters of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn counters(&self, core: usize) -> &CounterFile {
        &self.cores[core].counters
    }

    /// Read-only view of one core's L1 D-cache (statistics/occupancy for
    /// the differential fast-path gate and for experiments).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1d(&self, core: usize) -> &SetAssocCache {
        &self.cores[core].l1d
    }

    /// Read-only view of one core's L1 I-cache.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn l1i(&self, core: usize) -> &SetAssocCache {
        &self.cores[core].l1i
    }

    /// Machine-wide counter aggregate (sum over cores).
    #[must_use]
    pub fn total_counters(&self) -> CounterFile {
        let mut total = CounterFile::new();
        for c in &self.cores {
            total.merge(&c.counters);
        }
        total
    }

    /// Detaches the per-core private halves so a scheduler can borrow them
    /// alongside the shared hierarchy (ownership transfer — no copying).
    /// The machine keeps the shared hierarchy; [`Machine::restore_cores`]
    /// must be called before any counter read or [`Machine::exec`].
    ///
    /// # Panics
    ///
    /// Panics if the cores are already detached.
    #[must_use]
    pub fn take_cores(&mut self) -> Vec<CorePrivate> {
        assert!(
            !self.cores.is_empty(),
            "cores already detached (unbalanced take_cores)"
        );
        std::mem::take(&mut self.cores)
    }

    /// Re-attaches cores previously removed with [`Machine::take_cores`].
    ///
    /// # Panics
    ///
    /// Panics if the count does not match the machine's topology.
    pub fn restore_cores(&mut self, cores: Vec<CorePrivate>) {
        assert_eq!(
            cores.len(),
            self.cfg.topology.cores(),
            "restored core count must match topology"
        );
        self.cores = cores;
    }

    /// The shared hierarchy (for reconciliation while cores are detached).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Executes one instruction on `core` immediately: records against the
    /// core's private state, then reconciles the shared-hierarchy events
    /// at once. Returns the cycles consumed (including the reconciled
    /// latency correction).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn exec(&mut self, core: usize, ia: u64, op: MicroOp) -> f64 {
        let chip = self.cfg.topology.chip_of_core(core);
        let cost = self.cfg.cost;
        let addr_map = self.cfg.addr_map;
        let c = &mut self.cores[core];
        let cycles = c.exec_record(&cost, addr_map, ia, op, &mut self.scratch);
        let correction = reconcile_core(c, chip, &cost, &mut self.mem, &mut self.scratch);
        cycles + correction
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for CorePrivate {
    /// `fast` and `mru_ok` are config-derived and `pf_decision` is
    /// per-miss scratch; everything else a core mutates while executing
    /// survives the checkpoint.
    // jas-lint: allow(D009, reason = "fast and mru_ok are config-derived; pf_decision is per-miss scratch, dead at quantum boundaries")
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.l1i.persist(io);
        self.l1d.persist(io);
        self.mmu.persist(io);
        self.branch.persist(io);
        self.link_stack.persist(io);
        self.prefetch.persist(io);
        self.counters.persist(io);
        self.cyc.persist(io);
        self.disp.persist(io);
        self.cmpl_cyc.persist(io);
        self.srq.persist(io);
        self.op_index.persist(io);
        self.last_l1d_miss_op.persist(io);
        self.last_fetch_line.persist(io);
        self.last_inst_frame.persist(io);
        self.last_data_frame.persist(io);
        self.mru_line.persist(io);
        self.mru_slot.persist(io);
        self.mru_resident.persist(io);
        self.noise.persist(io);
    }
}

impl Persist for Machine {
    // jas-lint: allow(D009, reason = "cfg is configuration; scratch is a per-op event buffer, drained before any checkpoint boundary")
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_slice(io, &mut self.cores);
        self.mem.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Region;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn default_machine_has_four_cores() {
        assert_eq!(machine().cores(), 4);
    }

    #[test]
    fn load_counts_refs_and_misses() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        let ea = Region::JavaHeap.base();
        m.exec(0, ia, MicroOp::Load { ea });
        let c = m.counters(0);
        assert_eq!(c.get(HpmEvent::LoadRefs), 1);
        assert_eq!(c.get(HpmEvent::LoadMissL1), 1);
        assert_eq!(c.get(HpmEvent::DataFromMem), 1);
        // Second access to the same address hits L1.
        m.exec(0, ia + 4, MicroOp::Load { ea });
        let c = m.counters(0);
        assert_eq!(c.get(HpmEvent::LoadRefs), 2);
        assert_eq!(c.get(HpmEvent::LoadMissL1), 1);
    }

    #[test]
    fn store_miss_does_not_allocate_l1() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        let ea = Region::JavaHeap.base() + 64 * 1024;
        m.exec(0, ia, MicroOp::Store { ea });
        assert_eq!(m.counters(0).get(HpmEvent::StoreMissL1), 1);
        // Store missed; line must STILL not be in L1 (no allocate), so a
        // following load misses L1 but hits L2 (store allocated there).
        m.exec(0, ia + 4, MicroOp::Load { ea });
        let c = m.counters(0);
        assert_eq!(c.get(HpmEvent::LoadMissL1), 1);
        assert_eq!(c.get(HpmEvent::DataFromL2), 1);
    }

    #[test]
    fn store_then_remote_load_is_modified_transfer() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        let ea = Region::JavaHeap.base() + 1024 * 1024;
        m.exec(0, ia, MicroOp::Store { ea });
        // Core 2 is on the other chip/MCM.
        m.exec(2, ia, MicroOp::Load { ea });
        assert_eq!(m.counters(2).get(HpmEvent::DataFromL275Mod), 1);
    }

    #[test]
    fn heap_large_pages_reduce_dtlb_misses() {
        let run = |large: bool| -> u64 {
            let mut cfg = MachineConfig::default();
            cfg.addr_map.heap_large_pages = large;
            let mut m = Machine::new(cfg);
            let ia = Region::JitCode.base();
            // Touch 1024 distinct 4 KB-spaced heap addresses, twice.
            for round in 0..2 {
                for i in 0..1024u64 {
                    let _ = round;
                    m.exec(
                        0,
                        ia,
                        MicroOp::Load {
                            ea: Region::JavaHeap.base() + i * 4096,
                        },
                    );
                }
            }
            m.counters(0).get(HpmEvent::DtlbMiss)
        };
        let small = run(false);
        let large = run(true);
        assert!(
            large * 10 < small,
            "large pages should slash DTLB misses: {large} vs {small}"
        );
    }

    #[test]
    fn mispredicted_branch_charges_flush_and_wrong_path() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        // Train, then violate.
        for _ in 0..16 {
            m.exec(
                0,
                ia,
                MicroOp::CondBranch {
                    site: 0x10,
                    taken: true,
                },
            );
        }
        let before = m.counters(0).clone();
        let cycles = m.exec(
            0,
            ia,
            MicroOp::CondBranch {
                site: 0x10,
                taken: false,
            },
        );
        let d = m.counters(0).delta_since(&before);
        assert_eq!(d.get(HpmEvent::BrMpredCond), 1);
        assert!(cycles > m.config().cost.mispredict_cycles);
        assert!(d.get(HpmEvent::InstDispatched) as f64 >= m.config().cost.wrong_path_dispatch);
    }

    #[test]
    fn sync_occupies_srq() {
        let mut m = machine();
        let ia = Region::NativeCode.base();
        m.exec(0, ia, MicroOp::Sync);
        let c = m.counters(0);
        assert_eq!(c.get(HpmEvent::SyncCount), 1);
        assert!(c.get(HpmEvent::SyncSrqCycles) >= 29);
    }

    #[test]
    fn stcx_failure_counted() {
        let mut m = machine();
        let ia = Region::NativeCode.base();
        let ea = Region::JavaHeap.base();
        m.exec(0, ia, MicroOp::Larx { ea });
        m.exec(0, ia + 4, MicroOp::Stcx { ea, fail: true });
        m.exec(0, ia + 8, MicroOp::Stcx { ea, fail: false });
        let c = m.counters(0);
        assert_eq!(c.get(HpmEvent::Larx), 1);
        assert_eq!(c.get(HpmEvent::Stcx), 2);
        assert_eq!(c.get(HpmEvent::StcxFail), 1);
    }

    #[test]
    fn sequential_loads_trigger_prefetch_streams() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        let base = Region::DbBufferPool.base();
        // March sequentially across 64 cache lines.
        for i in 0..64u64 {
            m.exec(0, ia, MicroOp::Load { ea: base + i * 128 });
        }
        let c = m.counters(0);
        assert!(c.get(HpmEvent::StreamAllocs) >= 1);
        assert!(c.get(HpmEvent::L1Prefetch) > 0);
        assert!(c.get(HpmEvent::L2Prefetch) > 0);
        // Prefetching must shrink demand misses well below 64.
        assert!(
            c.get(HpmEvent::LoadMissL1) < 32,
            "prefetcher should hide sequential misses, got {}",
            c.get(HpmEvent::LoadMissL1)
        );
    }

    #[test]
    fn cpi_of_pure_alu_is_base_cpi() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        for i in 0..10_000u64 {
            m.exec(0, ia + (i % 32) * 4, MicroOp::Alu);
        }
        let cpi = m.counters(0).cpi().unwrap();
        let base = m.config().cost.base_cpi;
        assert!((cpi - base).abs() < 0.1, "cpi {cpi} vs base {base}");
    }

    #[test]
    fn total_counters_sum_cores() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        m.exec(0, ia, MicroOp::Alu);
        m.exec(3, ia, MicroOp::Alu);
        assert_eq!(m.total_counters().get(HpmEvent::InstCompleted), 2);
    }

    #[test]
    fn dispatch_exceeds_completion() {
        let mut m = machine();
        let ia = Region::JitCode.base();
        for i in 0..1000u64 {
            m.exec(0, ia + (i % 512) * 4, MicroOp::Alu);
        }
        let c = m.counters(0);
        assert!(c.get(HpmEvent::InstDispatched) > c.get(HpmEvent::InstCompleted));
    }

    /// The two-phase core of the determinism guarantee: recording each
    /// core's stream separately and reconciling in fixed order must
    /// produce exactly the state of the immediate path, op for op.
    #[test]
    fn record_then_reconcile_matches_immediate_exec() {
        let ia = Region::JitCode.base();
        let ops: Vec<(usize, MicroOp)> = (0..600u64)
            .map(|i| {
                let core = (i % 4) as usize;
                let op = match i % 5 {
                    0 => MicroOp::Load {
                        ea: Region::JavaHeap.base() + (i / 4) * 512,
                    },
                    1 => MicroOp::Store {
                        ea: Region::DbBufferPool.base() + (i / 4) * 256,
                    },
                    2 => MicroOp::Alu,
                    3 => MicroOp::CondBranch {
                        site: i % 17,
                        taken: i % 3 == 0,
                    },
                    _ => MicroOp::Load {
                        ea: Region::JavaHeap.base() + (i % 64) * 128,
                    },
                };
                (core, op)
            })
            .collect();

        // Immediate path, but per-core batches so both paths see the same
        // per-core op order relative to shared state.
        let mut a = machine();
        for core in 0..4 {
            for (c, op) in &ops {
                if *c == core {
                    a.exec(core, ia, *op);
                }
            }
        }

        // Two-phase path: record every core's batch privately, then
        // reconcile in fixed core order.
        let mut b = machine();
        let cfg = b.config().clone();
        let mut cores = b.take_cores();
        let mut bufs: Vec<Vec<MemEvent>> = vec![Vec::new(); 4];
        for (core, cp) in cores.iter_mut().enumerate() {
            for (c, op) in &ops {
                if *c == core {
                    cp.exec_record(&cfg.cost, cfg.addr_map, ia, *op, &mut bufs[core]);
                }
            }
        }
        for (core, cp) in cores.iter_mut().enumerate() {
            reconcile_core(
                cp,
                cfg.topology.chip_of_core(core),
                &cfg.cost,
                b.mem_mut(),
                &mut bufs[core],
            );
        }
        b.restore_cores(cores);

        for core in 0..4 {
            assert_eq!(
                a.counters(core).get(HpmEvent::Cycles),
                b.counters(core).get(HpmEvent::Cycles),
                "core {core} cycle counters diverge"
            );
            assert_eq!(
                a.counters(core).get(HpmEvent::InstCompleted),
                b.counters(core).get(HpmEvent::InstCompleted)
            );
        }
    }
}
