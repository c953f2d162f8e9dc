//! Synthetic instruction-stream generation.
//!
//! The upper layers of the simulator (JVM, application server, database,
//! kernel) know *what* is running — which method, over which data — and
//! describe it as a [`StreamProfile`]: instruction mix, branch behaviour,
//! code footprint, and a weighted set of data regions with access patterns.
//! [`StreamGen`] turns a profile into a concrete stream of `(ia, MicroOp)`
//! pairs whose *statistics* (reuse distances, branch biases, page walks)
//! drive the machine model's real caches, TLBs, and predictors.
//!
//! This is the central substitution of the reproduction (see DESIGN.md):
//! instead of executing PowerPC binaries we execute statistically
//! representative streams, so every figure's numbers *emerge* from the same
//! microarchitectural mechanisms the paper measured.

use crate::cache::{fastmod64, fastmod_magic};
use crate::uop::MicroOp;
use jas_simkernel::dist::Zipf;
use jas_simkernel::Rng;

/// A contiguous window of the address space used by a profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First byte of the window.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Window {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn new(base: u64, len: u64) -> Self {
        assert!(len > 0, "window must be non-empty");
        Window { base, len }
    }
}

/// How a data region is accessed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Intense reuse of a small footprint (stack frames, hot locals).
    Hot {
        /// Bytes of the region actually cycled through.
        footprint: u64,
    },
    /// Skewed object/page popularity: a Zipf-weighted hot subset receives
    /// `hot_fraction` of references; the rest scatter uniformly over the
    /// whole window (the cold tail that stresses L2/L3/memory).
    Skewed {
        /// Bytes covered by the hot subset.
        hot_bytes: u64,
        /// Granule of an "object" or "page" within the region.
        granule: u64,
        /// Fraction of references that go to the hot subset.
        hot_fraction: f64,
        /// Consecutive references issued within one 4 KB frame before a new
        /// granule is drawn — real code clusters its accesses (object field
        /// walks, row processing), which is what keeps ERAT miss spacing in
        /// the paper's >100-instruction band.
        burst: u32,
    },
    /// Sequential walk with the given stride (GC marking, table scans).
    Sequential {
        /// Bytes advanced per reference.
        stride: u64,
    },
    /// Uniform random over the window, with page-burst locality.
    Uniform {
        /// Consecutive references within one 4 KB frame per draw.
        burst: u32,
    },
}

/// A weighted data region within a profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataRegion {
    /// The address window.
    pub window: Window,
    /// Relative probability of a reference landing in this region.
    pub weight: f64,
    /// Access pattern within the region.
    pub pattern: AccessPattern,
}

/// Statistical description of the instruction stream produced while a given
/// kind of code runs.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamProfile {
    /// Code window instruction fetches walk through.
    pub code: Window,
    /// Probability per instruction of a control transfer to a new code
    /// location (function call, taken branch out of line).
    pub code_jump_rate: f64,
    /// Fraction of control transfers that stay within the current 4 KB code
    /// page (loops, near branches); the rest are far calls drawn from the
    /// code-popularity distribution.
    pub code_local: f64,
    /// Bytes of the "active method set" — the code that far calls mostly
    /// target over short windows. The full `code` window is still visited
    /// (10% of far calls go anywhere), so the multi-megabyte footprint
    /// keeps pressuring the I-caches while the ITLB sees page reuse.
    pub code_active: u64,
    /// Zipf exponent of code-location popularity (lower = flatter profile;
    /// the paper's workload is famously flat).
    pub code_zipf: f64,
    /// Loads per instruction (paper: 1/3.2 for the workload).
    pub loads_per_instr: f64,
    /// Stores per instruction (paper: 1/4.5).
    pub stores_per_instr: f64,
    /// Conditional branches per instruction.
    pub cond_branch_per_instr: f64,
    /// Indirect branches (virtual calls) per instruction.
    pub ind_branch_per_instr: f64,
    /// Probability that a conditional branch follows its site's bias
    /// (higher = more predictable).
    pub cond_bias_strength: f64,
    /// Distinct conditional-branch sites in the code window.
    pub cond_sites: usize,
    /// Distinct indirect-branch sites.
    pub ind_sites: usize,
    /// Maximum receiver polymorphism of an indirect site (distinct targets).
    pub ind_targets_max: u32,
    /// LARX (lock acquisition) per instruction (paper: ~1/600).
    pub larx_per_instr: f64,
    /// Probability a STCX fails (contention).
    pub stcx_fail_prob: f64,
    /// SYNC barriers per instruction.
    pub sync_per_instr: f64,
    /// Subroutine calls per instruction (each is eventually balanced by a
    /// return, so control-transfer overhead is twice this rate). Calls and
    /// returns displace ALU work only, leaving the calibrated memory and
    /// branch mixes untouched.
    pub call_per_instr: f64,
    /// Fraction of stores that are *allocation writes*: object
    /// initialization walking a fresh bump pointer through lines never
    /// loaded. On a write-through, no-allocate-on-store-miss L1 (POWER4),
    /// every such store misses — the mechanism behind the paper's store
    /// miss rate (1 in 5) being far higher than the load miss rate
    /// (1 in 12).
    pub store_fresh_fraction: f64,
    /// Weighted data regions.
    pub data: Vec<DataRegion>,
}

impl StreamProfile {
    /// Validates internal consistency, panicking with a description of the
    /// first problem found. Called by [`StreamGen::new`].
    ///
    /// # Panics
    ///
    /// Panics if rates are negative, exceed 1 in total, or no data region is
    /// given while loads/stores are nonzero.
    pub fn validate(&self) {
        let rates = [
            self.loads_per_instr,
            self.stores_per_instr,
            self.cond_branch_per_instr,
            self.ind_branch_per_instr,
            self.larx_per_instr,
            self.sync_per_instr,
            self.call_per_instr * 2.0, // calls plus their returns
        ];
        for r in rates {
            assert!(
                (0.0..=1.0).contains(&r),
                "per-instruction rate out of range: {r}"
            );
        }
        let total: f64 = rates.iter().sum();
        assert!(total <= 1.0, "instruction mix exceeds 1.0: {total}");
        if self.loads_per_instr > 0.0 || self.stores_per_instr > 0.0 {
            assert!(
                !self.data.is_empty(),
                "memory ops require at least one data region"
            );
        }
        assert!((0.0..=1.0).contains(&self.cond_bias_strength));
        assert!((0.0..=1.0).contains(&self.stcx_fail_prob));
        assert!((0.0..=1.0).contains(&self.store_fresh_fraction));
        assert!(
            self.cond_sites > 0 && self.ind_sites > 0,
            "need branch sites"
        );
        assert!(self.ind_targets_max > 0, "need at least one target");
    }
}

const HOT_RANKS: usize = 4096;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Precomputed per-profile sampling state: the instruction-mix ladder as
/// cumulative fixed-point thresholds, plus the scalar parameters the
/// generator needs per op (copied out to satisfy borrow rules). Built once
/// in [`StreamGen::new`] instead of being reassembled on every op.
///
/// **Exactness.** `Rng::next_f64()` yields `m * 2^-53` with
/// `m = next_u64() >> 11`, so the original comparison `roll < acc` is
/// precisely `m < acc * 2^53`. Scaling an f64 by 2^53 only shifts its
/// exponent (exact for all finite values in range), and for an integer `m`
/// and real `x`, `m < x` ⟺ `m < ceil(x)` (when `x` is an integer
/// `ceil(x) = x`; otherwise no integer lies in `[x, ceil(x))`). The
/// cumulative sums below perform the identical f64 additions in the
/// identical order as the original per-op ladder, so each threshold — and
/// therefore every op-class decision — is bit-exact.
#[derive(Clone, Copy, Debug)]
struct MixTable {
    t_load: u64,
    t_store: u64,
    t_cond: u64,
    t_ind: u64,
    t_larx: u64,
    t_sync: u64,
    t_call: u64,
    /// Fixed-point forms of the per-op `Rng::chance(p)` probabilities
    /// (`chance(p)` is `m < p * 2^53` for the same 53-bit draw `m` — see
    /// the exactness note above): the code-jump rate, the conditional-bias
    /// follow rate, and the fresh-store (allocation write) fraction.
    t_jump: u64,
    t_bias: u64,
    t_fresh: u64,
    stcx_fail_prob: f64,
    cond_sites: usize,
    ind_sites: usize,
    ind_targets_max: u32,
    code_base: u64,
    code_len: u64,
    /// `fastmod_magic(code_len)` for the cold-code and indirect-target `%`.
    code_len_m: u128,
    /// Active-code slot count (`code_active.clamp(256, len) / 256`) and its
    /// fastmod magic — the far-call `%` divisor, invariant per profile.
    active_slots: u64,
    active_slots_m: u128,
}

impl MixTable {
    fn new(p: &StreamProfile) -> Self {
        const SCALE: f64 = (1u64 << 53) as f64;
        let fix = |acc: f64| (acc * SCALE).ceil() as u64;
        let mut acc = p.loads_per_instr;
        let t_load = fix(acc);
        acc += p.stores_per_instr;
        let t_store = fix(acc);
        acc += p.cond_branch_per_instr;
        let t_cond = fix(acc);
        acc += p.ind_branch_per_instr;
        let t_ind = fix(acc);
        acc += p.larx_per_instr;
        let t_larx = fix(acc);
        acc += p.sync_per_instr;
        let t_sync = fix(acc);
        acc += p.call_per_instr * 2.0;
        let t_call = fix(acc);
        let active_slots = p.code_active.clamp(256, p.code.len) / 256;
        MixTable {
            t_load,
            t_store,
            t_cond,
            t_ind,
            t_larx,
            t_sync,
            t_call,
            t_jump: fix(p.code_jump_rate),
            t_bias: fix(p.cond_bias_strength),
            t_fresh: fix(p.store_fresh_fraction),
            stcx_fail_prob: p.stcx_fail_prob,
            cond_sites: p.cond_sites,
            ind_sites: p.ind_sites,
            ind_targets_max: p.ind_targets_max,
            code_base: p.code.base,
            code_len: p.code.len,
            code_len_m: fastmod_magic(p.code.len),
            active_slots,
            active_slots_m: fastmod_magic(active_slots),
        }
    }
}

/// Ops generated ahead into the block buffer per refill. Batching shortens
/// the per-op call chain (one buffer bounds-check instead of the full
/// generation path) without changing the op sequence: the generator owns
/// its RNG exclusively, so drawing a block ahead of consumption is
/// invisible to every consumer.
const BLOCK_OPS: usize = 64;

/// Per-region generator state.
#[derive(Clone, Debug)]
struct RegionState {
    seq_pos: u64,
    burst_left: u32,
    burst_frame: u64,
}

/// Loop-invariant per-region address math, precomputed at construction.
/// Every `%` or `/` on the per-reference path whose divisor is fixed by the
/// profile (hot-footprint size, skewed slot counts, sequential window
/// length) is replaced by a Lemire [`fastmod64`] with a precomputed magic —
/// exact for all inputs, so generated addresses are bit-identical to the
/// direct `%` forms. The salt-derived hot-window placement (`base_off`) is
/// likewise constant per region and folded into `base`.
#[derive(Clone, Copy, Debug)]
enum PatternPre {
    Hot {
        /// `window.base + base_off` — the salted hot-footprint start.
        base: u64,
        fp: u64,
        fp_m: u128,
    },
    Skewed {
        hot_slots: u64,
        hot_m: u128,
        cold_slots: u64,
    },
    Sequential {
        len_m: u128,
    },
    Uniform,
}

impl PatternPre {
    fn new(r: &DataRegion, salt: u64) -> Self {
        let w = r.window;
        match r.pattern {
            AccessPattern::Hot { footprint } => {
                let fp = footprint.min(w.len).max(64);
                let max_off = w.len - fp;
                let base_off = if max_off == 0 {
                    0
                } else {
                    ((salt.wrapping_mul(0x9E37_79B9) * fp) % max_off) & !63
                };
                PatternPre::Hot {
                    base: w.base + base_off,
                    fp,
                    fp_m: fastmod_magic(fp),
                }
            }
            AccessPattern::Skewed {
                hot_bytes, granule, ..
            } => {
                let granule = granule.max(8);
                let hot_slots = (hot_bytes.min(w.len).max(granule) / granule).max(1);
                PatternPre::Skewed {
                    hot_slots,
                    hot_m: fastmod_magic(hot_slots),
                    cold_slots: (w.len / granule).max(1),
                }
            }
            AccessPattern::Sequential { .. } => PatternPre::Sequential {
                len_m: fastmod_magic(w.len),
            },
            AccessPattern::Uniform { .. } => PatternPre::Uniform,
        }
    }
}

/// Generates a concrete `(ia, MicroOp)` stream from a [`StreamProfile`].
///
/// The `salt` passed at construction privatizes the per-thread hot data
/// (stacks, allocation buffers, hot objects) so streams running on
/// different cores do not falsely share written lines — the mechanism
/// behind the paper's near-zero modified cache-to-cache traffic.
#[derive(Clone, Debug)]
pub struct StreamGen {
    profile: StreamProfile,
    mix: MixTable,
    rng: Rng,
    salt: u64,
    ia: u64,
    code_zipf: Zipf,
    hot_zipf: Zipf,
    /// Positive-weight regions `(index, weight)` in profile order, and their
    /// total — the loop-invariant parts of `Rng::pick_weighted`, hoisted out
    /// of the per-reference path. The per-draw float operations (the
    /// `x < w` / `x -= w` ladder over the same weights in the same order)
    /// are unchanged, so region choices are bit-identical.
    region_pos: Vec<(usize, f64)>,
    region_total: f64,
    region_state: Vec<RegionState>,
    region_pre: Vec<PatternPre>,
    pending_stcx: Option<u64>,
    /// Bump pointer for allocation writes: `(region index, offset)`.
    fresh: Option<(usize, u64)>,
    /// Software call stack mirrored by the hardware link stack.
    ret_stack: Vec<u64>,
    /// Ops generated ahead of consumption (see [`BLOCK_OPS`]).
    block: Vec<(u64, MicroOp)>,
    blk_pos: usize,
}

impl StreamGen {
    /// Number of code locations the generator distinguishes (function-entry
    /// granularity of 256 bytes, capped to keep construction cheap).
    fn code_slots(profile: &StreamProfile) -> usize {
        ((profile.code.len / 256).max(1) as usize).min(64 * 1024)
    }

    /// Creates a generator with its own deterministic random stream and a
    /// `salt` privatizing its thread-local data (use the core id).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`StreamProfile::validate`].
    #[must_use]
    pub fn new(profile: StreamProfile, rng: Rng, salt: u64) -> Self {
        profile.validate();
        let slots = Self::code_slots(&profile);
        // Both tables are interned: generators with the same key share them.
        let code_zipf = Zipf::new(slots, profile.code_zipf);
        let hot_zipf = Zipf::new(HOT_RANKS, 1.0);
        let region_weights: Vec<f64> = profile.data.iter().map(|r| r.weight).collect();
        // Same filter and summation order as `Rng::pick_weighted`.
        let region_total: f64 = region_weights.iter().copied().filter(|w| *w > 0.0).sum();
        let region_pos: Vec<(usize, f64)> = region_weights
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0.0)
            .collect();
        let region_state = profile
            .data
            .iter()
            .enumerate()
            .map(|(i, r)| RegionState {
                seq_pos: match r.pattern {
                    AccessPattern::Sequential { stride } => {
                        (salt.wrapping_mul(9973).wrapping_add(i as u64) * stride.max(1) * 64)
                            % r.window.len
                    }
                    _ => 0,
                },
                burst_left: 0,
                burst_frame: r.window.base,
            })
            .collect();
        let ia = profile.code.base;
        // Allocation writes walk the largest data window (the heap).
        let fresh = profile
            .data
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.window.len)
            .map(|(i, r)| (i, (salt.wrapping_mul(0x1_0001) * 4096) % r.window.len));
        let region_pre = profile
            .data
            .iter()
            .map(|r| PatternPre::new(r, salt))
            .collect();
        let mix = MixTable::new(&profile);
        StreamGen {
            profile,
            mix,
            rng,
            salt,
            ia,
            code_zipf,
            hot_zipf,
            region_pos,
            region_total,
            region_state,
            region_pre,
            pending_stcx: None,
            fresh,
            ret_stack: Vec::new(),
            block: Vec::with_capacity(BLOCK_OPS),
            blk_pos: 0,
        }
    }

    /// The profile this generator was built from.
    #[must_use]
    pub fn profile(&self) -> &StreamProfile {
        &self.profile
    }

    /// The generator's code-location and hot-rank Zipf handles, whose
    /// tables every generator with the same key shares.
    #[must_use]
    pub fn zipfs(&self) -> [&Zipf; 2] {
        [&self.code_zipf, &self.hot_zipf]
    }

    /// Produces the next instruction: its fetch address and its effect.
    ///
    /// Ops are generated a block at a time ([`BLOCK_OPS`]) into a reusable
    /// buffer; this call just pops the next one.
    #[inline]
    pub fn next_op(&mut self) -> (u64, MicroOp) {
        if self.blk_pos == self.block.len() {
            self.refill_block();
        }
        let op = self.block[self.blk_pos];
        self.blk_pos += 1;
        op
    }

    /// Feeds ops to `consume` until it returns `false`. The engine's slice
    /// loop uses this to drain whole buffered blocks without a per-op
    /// cross-crate call.
    #[inline]
    pub fn drive(&mut self, mut consume: impl FnMut(u64, MicroOp) -> bool) {
        loop {
            while self.blk_pos < self.block.len() {
                let (ia, op) = self.block[self.blk_pos];
                self.blk_pos += 1;
                if !consume(ia, op) {
                    return;
                }
            }
            self.refill_block();
        }
    }

    #[cold]
    fn refill_block(&mut self) {
        self.block.clear();
        for _ in 0..BLOCK_OPS {
            let op = self.gen_op();
            self.block.push(op);
        }
        self.blk_pos = 0;
    }

    /// Generates one instruction directly from the profile and RNG.
    fn gen_op(&mut self) -> (u64, MicroOp) {
        // Scalar parameters are copied out up front so the borrow checker
        // allows the stateful helper calls below.
        let MixTable {
            t_load,
            t_store,
            t_cond,
            t_ind,
            t_larx,
            t_sync,
            t_call,
            t_bias,
            t_fresh,
            stcx_fail_prob,
            cond_sites,
            ind_sites,
            ind_targets_max,
            code_base,
            code_len,
            code_len_m,
            active_slots,
            active_slots_m,
            ..
        } = self.mix;

        // A STCX always follows its LARX after a short window.
        if let Some(ea) = self.pending_stcx.take() {
            let fail = self.rng.chance(stcx_fail_prob);
            let ia = self.advance_ia();
            return (ia, MicroOp::Stcx { ea, fail });
        }

        let ia = self.advance_ia();
        // Fixed-point form of the f64 ladder `roll < Σ rates`; bit-exact —
        // see [`MixTable`]. `m` is the 53-bit numerator `next_f64()` would
        // have used.
        let m = self.rng.next_u64() >> 11;
        if m < t_load {
            let ea = self.data_address();
            return (ia, MicroOp::Load { ea });
        }
        if m < t_store {
            let fresh_frac = self.profile.store_fresh_fraction;
            if fresh_frac > 0.0 && (self.rng.next_u64() >> 11) < t_fresh {
                if let Some((region, offset)) = self.fresh {
                    let w = self.profile.data[region].window;
                    let ea = w.base + offset;
                    // Initialization writes advance ~16 B per store; the
                    // offset stays below `w.len`, so the wrap is a single
                    // conditional subtraction (exactly `% w.len`).
                    let next = offset + 16;
                    let next = if next >= w.len { next - w.len } else { next };
                    self.fresh = Some((region, next));
                    return (ia, MicroOp::Store { ea });
                }
            }
            let ea = self.data_address();
            return (ia, MicroOp::Store { ea });
        }
        if m < t_cond {
            let site_rank = self.rng.next_below(cond_sites as u64);
            // Sites are hashed so that different components' site spaces do
            // not systematically collide in the predictor's index bits.
            let site = mix64(code_base ^ (site_rank * 0x61 + 0x1_0000_0001));
            // The site's inherent bias direction is a deterministic hash of
            // the site so the predictor can learn it; ~72% of branch sites
            // are taken-biased, as in typical integer code.
            let bias_taken = (site >> 8) % 100 < 72;
            let follows = (self.rng.next_u64() >> 11) < t_bias;
            let taken = if follows { bias_taken } else { !bias_taken };
            return (ia, MicroOp::CondBranch { site, taken });
        }
        if m < t_ind {
            let site_rank = self.rng.next_below(ind_sites as u64);
            let site = mix64(code_base ^ (site_rank * 0x95 + 0x2_0000_0001));
            // Receiver-type polymorphism as observed in Java systems: most
            // call sites are effectively monomorphic; a minority dispatch
            // over several receiver classes with one dominant type. The
            // minority is what produces the paper's ~5% target-misprediction
            // rate.
            let degree = if site_rank % 100 < 85 {
                1
            } else {
                2 + site_rank % u64::from(ind_targets_max.max(2) - 1)
            };
            let t = if degree == 1 || self.rng.chance(0.88) {
                0
            } else {
                self.rng.next_below(degree)
            };
            let target = code_base + fastmod64(site_rank * 31 + t * 7919, code_len_m, code_len);
            return (ia, MicroOp::IndBranch { site, target });
        }
        if m < t_larx {
            let ea = self.data_address();
            self.pending_stcx = Some(ea);
            return (ia, MicroOp::Larx { ea });
        }
        if m < t_sync {
            return (ia, MicroOp::Sync);
        }
        if m < t_call {
            // Balanced call/return traffic over the generator's own call
            // stack; the hardware link stack predicts the returns.
            // Call depth oscillates around a shallow working depth, as in
            // real call graphs (leaf-heavy): deeper stacks favour returns.
            let depth = self.ret_stack.len();
            let call_prob = if depth < 8 { 0.65 } else { 0.35 };
            let make_call = depth < 48 && (depth == 0 || self.rng.chance(call_prob));
            if make_call {
                let ret = ia + 4;
                self.ret_stack.push(ret);
                // Most call sites are monomorphic helpers nearby (the
                // paper's JIT inlines aggressively, and what remains is
                // clustered); a minority are far calls into the active
                // method set.
                if self.rng.chance(0.65) {
                    let base = ia.saturating_sub(8 << 10).max(code_base);
                    let span = (16u64 << 10).min(code_base + code_len - base);
                    self.ia = base + (self.rng.next_below(span) & !3);
                } else {
                    let sample = self.code_zipf.sample(&mut self.rng) as u64;
                    let slot = fastmod64(sample, active_slots_m, active_slots);
                    self.ia = code_base + slot * 256;
                }
                return (ia, MicroOp::Call { ret });
            }
            let to = self.ret_stack.pop().unwrap_or(code_base);
            self.ia = to;
            return (ia, MicroOp::Return { to });
        }
        (ia, MicroOp::Alu)
    }

    fn advance_ia(&mut self) -> u64 {
        let p = &self.profile;
        // Fixed-point `chance(code_jump_rate)` — same single draw, same
        // decision (see [`MixTable`]); this runs once per generated op.
        if (self.rng.next_u64() >> 11) < self.mix.t_jump {
            if self.rng.chance(p.code_local) {
                // Near transfer: loop back or skip within the current page.
                let page = self.ia & !0xFFF;
                self.ia = (page + (self.rng.next_below(4096) & !3))
                    .min(p.code.base + p.code.len - 4)
                    .max(p.code.base);
            } else if self.rng.chance(0.95) {
                // Far call into the active method set.
                let sample = self.code_zipf.sample(&mut self.rng) as u64;
                let slot = fastmod64(sample, self.mix.active_slots_m, self.mix.active_slots);
                self.ia = p.code.base + slot * 256;
            } else {
                // Cold method anywhere in the full code footprint.
                let slot = self.code_zipf.sample(&mut self.rng) as u64;
                self.ia = p.code.base + fastmod64(slot * 256, self.mix.code_len_m, p.code.len);
            }
        } else {
            self.ia += 4;
            if self.ia >= p.code.base + p.code.len {
                self.ia = p.code.base;
            }
        }
        self.ia
    }

    /// Draws an address within the 4 KB frame of `frame_addr`, clamped to
    /// the window.
    fn within_frame(&mut self, w: Window, frame_addr: u64) -> u64 {
        let frame = frame_addr & !0xFFF;
        let lo = frame.max(w.base);
        let hi = (frame + 4096).min(w.base + w.len);
        lo + self.rng.next_below((hi - lo).max(1))
    }

    fn data_address(&mut self) -> u64 {
        // Inlined `Rng::pick_weighted(&self.region_weights)`: identical
        // draw, identical float ladder over the precomputed positive
        // weights (see `region_pos`), without re-summing per reference.
        assert!(
            self.region_total > 0.0,
            "validated profile has positive region weights"
        );
        let mut x = self.rng.next_f64() * self.region_total;
        let mut idx = self.region_pos[self.region_pos.len() - 1].0;
        for &(i, w) in &self.region_pos {
            if x < w {
                idx = i;
                break;
            }
            x -= w;
        }
        let region = self.profile.data[idx];
        let w = region.window;
        match region.pattern {
            AccessPattern::Hot { .. } => {
                // Thread-private hot footprint: the salt slides it within
                // the window so cores do not share written lines. Placement
                // and footprint are precomputed (see [`PatternPre`]).
                let PatternPre::Hot { base, fp, fp_m } = self.region_pre[idx] else {
                    unreachable!("region_pre built from the same patterns")
                };
                let slot = self.hot_zipf.sample(&mut self.rng) as u64;
                base + fastmod64(slot * 64, fp_m, fp)
            }
            AccessPattern::Skewed {
                granule,
                hot_fraction,
                burst,
                ..
            } => {
                let PatternPre::Skewed {
                    hot_slots,
                    hot_m,
                    cold_slots,
                } = self.region_pre[idx]
                else {
                    unreachable!("region_pre built from the same patterns")
                };
                let granule = granule.max(8);
                let st = &mut self.region_state[idx];
                if st.burst_left > 0 {
                    st.burst_left -= 1;
                    // Burst within the drawn object/row: field-walk
                    // locality at granule (not page) width.
                    let base = st.burst_frame & !(granule - 1);
                    let lo = base.max(w.base);
                    let hi = (base + granule).min(w.base + w.len);
                    return lo + self.rng.next_below((hi - lo).max(1));
                }
                let addr = if self.rng.chance(hot_fraction) {
                    // Hot subset, rotated by the salt so each core's hot
                    // objects are (mostly) its own.
                    let rank = self.hot_zipf.sample(&mut self.rng) as u64;
                    let rank = fastmod64(rank + self.salt.wrapping_mul(131), hot_m, hot_slots);
                    w.base + rank * granule + self.rng.next_below(granule)
                } else {
                    // Cold tail: shared, uniform over the whole window.
                    let slot = self.rng.next_below(cold_slots);
                    w.base + slot * granule + self.rng.next_below(granule)
                };
                let st = &mut self.region_state[idx];
                st.burst_left = burst.saturating_sub(1);
                st.burst_frame = addr;
                addr
            }
            AccessPattern::Sequential { stride } => {
                let PatternPre::Sequential { len_m } = self.region_pre[idx] else {
                    unreachable!("region_pre built from the same patterns")
                };
                let st = &mut self.region_state[idx];
                let addr = w.base + st.seq_pos;
                st.seq_pos = fastmod64(st.seq_pos + stride.max(1), len_m, w.len);
                addr
            }
            AccessPattern::Uniform { burst } => {
                let st = &mut self.region_state[idx];
                if st.burst_left > 0 {
                    st.burst_left -= 1;
                    let frame = st.burst_frame;
                    return self.within_frame(w, frame);
                }
                let addr = w.base + self.rng.next_below(w.len);
                let st = &mut self.region_state[idx];
                st.burst_left = burst.saturating_sub(1);
                st.burst_frame = addr;
                addr
            }
        }
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for Window {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.base.persist(io);
        self.len.persist(io);
    }
}

impl Persist for RegionState {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.seq_pos.persist(io);
        self.burst_left.persist(io);
        self.burst_frame.persist(io);
    }
}

impl Persist for StreamGen {
    /// The profile, mix table, Zipf tables, and region weights are all
    /// config-derived; the RNG cursor, per-region walkers, reservation and
    /// allocation scratch, software return stack, and the buffered op
    /// block are the mutable state.
    // jas-lint: allow(D009, reason = "profile, mix, zipf and region tables and the salt are derived from config plus core id at construction")
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.rng.persist(io);
        self.ia.persist(io);
        snap::persist_slice(io, &mut self.region_state);
        snap::persist_opt(io, &mut self.pending_stcx);
        snap::persist_opt(io, &mut self.fresh);
        snap::persist_vec(io, &mut self.ret_stack);
        snap::persist_vec(io, &mut self.block);
        self.blk_pos.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Region;

    fn test_profile() -> StreamProfile {
        StreamProfile {
            code: Window::new(Region::JitCode.base(), 4 * 1024 * 1024),
            code_jump_rate: 0.05,
            code_local: 0.7,
            code_active: 1 << 20,
            code_zipf: 0.6,
            loads_per_instr: 0.31,
            stores_per_instr: 0.22,
            cond_branch_per_instr: 0.15,
            ind_branch_per_instr: 0.02,
            cond_bias_strength: 0.93,
            cond_sites: 4096,
            ind_sites: 512,
            ind_targets_max: 8,
            larx_per_instr: 1.0 / 600.0,
            stcx_fail_prob: 0.02,
            sync_per_instr: 0.002,
            call_per_instr: 0.02,
            store_fresh_fraction: 0.1,
            data: vec![
                DataRegion {
                    window: Window::new(Region::Stacks.base(), 1 << 20),
                    weight: 0.5,
                    pattern: AccessPattern::Hot {
                        footprint: 8 * 1024,
                    },
                },
                DataRegion {
                    window: Window::new(Region::JavaHeap.base(), 512 << 20),
                    weight: 0.5,
                    pattern: AccessPattern::Skewed {
                        hot_bytes: 4 << 20,
                        granule: 512,
                        hot_fraction: 0.8,
                        burst: 10,
                    },
                },
            ],
        }
    }

    #[test]
    fn mix_matches_configured_rates() {
        let mut g = StreamGen::new(test_profile(), Rng::new(1), 0);
        let n = 200_000;
        let mut loads = 0u32;
        let mut stores = 0u32;
        let mut conds = 0u32;
        for _ in 0..n {
            match g.next_op().1 {
                MicroOp::Load { .. } => loads += 1,
                MicroOp::Store { .. } => stores += 1,
                MicroOp::CondBranch { .. } => conds += 1,
                _ => {}
            }
        }
        let lf = f64::from(loads) / f64::from(n);
        let sf = f64::from(stores) / f64::from(n);
        let cf = f64::from(conds) / f64::from(n);
        assert!((lf - 0.31).abs() < 0.01, "load fraction {lf}");
        assert!((sf - 0.22).abs() < 0.01, "store fraction {sf}");
        assert!((cf - 0.15).abs() < 0.01, "cond fraction {cf}");
    }

    #[test]
    fn larx_is_always_followed_by_stcx() {
        let mut g = StreamGen::new(test_profile(), Rng::new(2), 0);
        let mut prev_was_larx = false;
        for _ in 0..100_000 {
            let (_, op) = g.next_op();
            if prev_was_larx {
                assert!(
                    matches!(op, MicroOp::Stcx { .. }),
                    "LARX not followed by STCX"
                );
            }
            prev_was_larx = matches!(op, MicroOp::Larx { .. });
        }
    }

    #[test]
    fn addresses_stay_in_their_windows() {
        let mut g = StreamGen::new(test_profile(), Rng::new(3), 0);
        for _ in 0..50_000 {
            let (ia, op) = g.next_op();
            let code = g.profile().code;
            assert!(
                (code.base..code.base + code.len).contains(&ia),
                "ia {ia:#x} outside code window"
            );
            if let MicroOp::Load { ea } | MicroOp::Store { ea } = op {
                let ok = g
                    .profile()
                    .data
                    .iter()
                    .any(|r| (r.window.base..r.window.base + r.window.len).contains(&ea));
                assert!(ok, "ea {ea:#x} outside all data windows");
            }
        }
    }

    /// The fixed-point thresholds classify every possible 53-bit roll
    /// exactly like the original per-op f64 ladder (`roll < Σ rates`).
    #[test]
    fn fixed_point_thresholds_match_f64_ladder() {
        let classify_fix = |mix: &MixTable, m: u64| -> usize {
            let t = [
                mix.t_load,
                mix.t_store,
                mix.t_cond,
                mix.t_ind,
                mix.t_larx,
                mix.t_sync,
                mix.t_call,
            ];
            t.iter().position(|&cut| m < cut).unwrap_or(7)
        };
        let classify_f64 = |p: &StreamProfile, roll: f64| -> usize {
            let mut acc = p.loads_per_instr;
            let rest = [
                p.stores_per_instr,
                p.cond_branch_per_instr,
                p.ind_branch_per_instr,
                p.larx_per_instr,
                p.sync_per_instr,
                p.call_per_instr * 2.0,
            ];
            if roll < acc {
                return 0;
            }
            for (i, r) in rest.iter().enumerate() {
                acc += r;
                if roll < acc {
                    return i + 1;
                }
            }
            7
        };
        let mut profiles = vec![test_profile()];
        // Degenerate mixes: all-ALU, saturated (Σ = 1.0).
        let mut p = test_profile();
        p.loads_per_instr = 0.0;
        p.stores_per_instr = 0.0;
        p.cond_branch_per_instr = 0.0;
        p.ind_branch_per_instr = 0.0;
        p.larx_per_instr = 0.0;
        p.sync_per_instr = 0.0;
        p.call_per_instr = 0.0;
        profiles.push(p.clone());
        p.loads_per_instr = 0.5;
        p.stores_per_instr = 0.5;
        profiles.push(p);
        for profile in &profiles {
            let mix = MixTable::new(profile);
            let mut rng = Rng::new(42);
            // Boundary rolls (the exact threshold values) plus random ones.
            let mut rolls = vec![
                0,
                mix.t_load.saturating_sub(1),
                mix.t_load,
                mix.t_store,
                mix.t_call.saturating_sub(1),
                mix.t_call,
                (1u64 << 53) - 1,
            ];
            for _ in 0..200_000 {
                rolls.push(rng.next_u64() >> 11);
            }
            for m in rolls {
                let m = m.min((1u64 << 53) - 1);
                let roll = m as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(
                    classify_fix(&mix, m),
                    classify_f64(profile, roll),
                    "m={m} diverges"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamGen::new(test_profile(), Rng::new(7), 0);
        let mut b = StreamGen::new(test_profile(), Rng::new(7), 0);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn sequential_pattern_walks_forward() {
        let mut p = test_profile();
        // Isolate the sequential pattern: no allocation-write bump pointer
        // and no call/return control flow.
        p.store_fresh_fraction = 0.0;
        p.call_per_instr = 0.0;
        p.data = vec![DataRegion {
            window: Window::new(Region::JavaHeap.base(), 1 << 20),
            weight: 1.0,
            pattern: AccessPattern::Sequential { stride: 128 },
        }];
        let mut g = StreamGen::new(p, Rng::new(4), 0);
        let mut last: Option<u64> = None;
        let mut forward = 0;
        let mut total = 0;
        for _ in 0..10_000 {
            if let (_, MicroOp::Load { ea } | MicroOp::Store { ea }) = g.next_op() {
                if let Some(prev) = last {
                    total += 1;
                    if ea > prev {
                        forward += 1;
                    }
                }
                last = Some(ea);
            }
        }
        assert!(total > 100);
        assert!(forward * 100 / total > 95, "sequential walk mostly ascends");
    }

    #[test]
    #[should_panic(expected = "instruction mix exceeds 1.0")]
    fn overfull_mix_rejected() {
        let mut p = test_profile();
        p.loads_per_instr = 0.9;
        p.stores_per_instr = 0.9;
        let _ = StreamGen::new(p, Rng::new(1), 0);
    }

    #[test]
    #[should_panic(expected = "at least one data region")]
    fn memory_ops_without_regions_rejected() {
        let mut p = test_profile();
        p.data.clear();
        let _ = StreamGen::new(p, Rng::new(1), 0);
    }

    #[test]
    fn hot_pattern_reuses_small_footprint() {
        let mut p = test_profile();
        p.data = vec![DataRegion {
            window: Window::new(Region::Stacks.base(), 1 << 20),
            weight: 1.0,
            pattern: AccessPattern::Hot { footprint: 4096 },
        }];
        let mut g = StreamGen::new(p, Rng::new(5), 0);
        for _ in 0..10_000 {
            if let (_, MicroOp::Load { ea } | MicroOp::Store { ea }) = g.next_op() {
                assert!(
                    ea < Region::Stacks.base() + 4096,
                    "hot access escaped footprint"
                );
            }
        }
    }
}
