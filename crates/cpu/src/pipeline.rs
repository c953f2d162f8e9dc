//! The pipeline cost model: how microarchitectural events turn into cycles
//! and speculative dispatch.
//!
//! The model is deliberately an *accounting* model, not a cycle-accurate
//! pipeline: each event class charges a calibrated stall contribution, with
//! an overlap factor reflecting POWER4's ~100 instructions in flight. Two
//! behaviours called out by the paper are modeled explicitly:
//!
//! * **Miss bursts.** A single L1 D-miss satisfied from L2 is mostly hidden;
//!   a *burst* of misses stalls the pipeline (Section 4.3's explanation of
//!   why prefetch-stream allocations correlate with CPI). Misses arriving
//!   within [`CostModel::burst_window_ops`] of the previous miss are charged
//!   the burst overlap factor instead of the isolated one.
//! * **Dispatch-vs-complete speculation.** POWER4 dispatches ~2.3
//!   instructions for every one it retires (Figure 5): wrong-path work after
//!   mispredictions, ERAT-miss retries every 7 cycles, and group reissues
//!   after dispatch rejects. All three sources are charged separately.

use crate::counters::{CounterFile, HpmEvent};

/// Calibrated cost constants for the pipeline accounting model.
///
/// Latencies are in cycles and approximate POWER4 at 1.3 GHz. The stall
/// actually charged for a memory event is `latency x overlap`, where the
/// overlap factor depends on burstiness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cycles per instruction with no stall events (dispatch-limited).
    pub base_cpi: f64,
    /// Load-to-use latency of the local L2.
    pub l2_latency: f64,
    /// Latency of an off-chip same-MCM L2 hit (L2.5).
    pub l25_latency: f64,
    /// Latency of a cross-MCM L2 hit (L2.75).
    pub l275_latency: f64,
    /// Latency of the local MCM's L3.
    pub l3_latency: f64,
    /// Latency of a remote MCM's L3 (L3.5).
    pub l35_latency: f64,
    /// Memory latency.
    pub mem_latency: f64,
    /// Fraction of latency charged for an isolated load miss.
    pub overlap_isolated: f64,
    /// Fraction of latency charged for a miss within a burst.
    pub overlap_burst: f64,
    /// Misses closer together than this many ops form a burst.
    pub burst_window_ops: u64,
    /// Fraction of latency charged for instruction-side misses (front-end
    /// bubbles overlap less than data misses).
    pub inst_overlap: f64,
    /// Cycles for an ERAT miss satisfied by the TLB (paper: >= 14).
    pub erat_miss_cycles: f64,
    /// Cycles for a hardware TLB walk after ERAT+TLB miss.
    pub tlb_walk_cycles: f64,
    /// Pipeline-flush penalty of a branch misprediction.
    pub mispredict_cycles: f64,
    /// Wrong-path instructions dispatched per misprediction.
    pub wrong_path_dispatch: f64,
    /// A rejected instruction is retried every this many cycles (POWER4
    /// reissues a load every 7 cycles on a DERAT miss).
    pub reject_retry_cycles: f64,
    /// Instructions re-dispatched when a group is reissued.
    pub group_reissue_dispatch: f64,
    /// Probability that an L1 D-miss triggers a group reissue.
    pub reissue_on_miss_prob: f64,
    /// Extra dispatches per completed instruction from fetch-ahead past
    /// taken branches and other always-present speculation.
    pub baseline_overdispatch: f64,
    /// Cycles a SYNC occupies the store-reorder queue (drain time).
    pub sync_srq_cycles: f64,
    /// Stall charged for an L1 store miss (write-through, mostly hidden).
    pub store_miss_cycles: f64,
    /// Extra cost of a STCX (reservation check at the coherence point).
    pub stcx_cycles: f64,
    /// Completing group width (instructions retiring per completion cycle).
    pub completion_group_width: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_cpi: 0.75,
            l2_latency: 12.0,
            l25_latency: 80.0,
            l275_latency: 120.0,
            l3_latency: 100.0,
            l35_latency: 180.0,
            mem_latency: 320.0,
            overlap_isolated: 0.18,
            overlap_burst: 0.55,
            burst_window_ops: 12,
            inst_overlap: 0.35,
            erat_miss_cycles: 14.0,
            tlb_walk_cycles: 80.0,
            mispredict_cycles: 13.0,
            wrong_path_dispatch: 14.0,
            reject_retry_cycles: 7.0,
            group_reissue_dispatch: 5.0,
            reissue_on_miss_prob: 0.35,
            baseline_overdispatch: 0.75,
            sync_srq_cycles: 30.0,
            store_miss_cycles: 1.5,
            stcx_cycles: 6.0,
            completion_group_width: 5.0,
        }
    }
}

impl CostModel {
    /// Fraction of an L1 D-miss's latency exposed to the pipeline:
    /// [`CostModel::overlap_burst`] within a burst, otherwise
    /// [`CostModel::overlap_isolated`].
    #[inline]
    #[must_use]
    pub fn load_overlap(&self, burst: bool) -> f64 {
        if burst {
            self.overlap_burst
        } else {
            self.overlap_isolated
        }
    }
}

/// Accumulates fractional cycle-like quantities and flushes whole units into
/// a [`CounterFile`], carrying the remainder.
///
/// HPM counters are integers; the cost model produces fractional charges.
/// `FracCounter` keeps the long-run sums exact to within one count.
#[derive(Clone, Copy, Debug, Default)]
pub struct FracCounter {
    carry: f64,
}

impl FracCounter {
    /// Adds `amount` (may be fractional) of `event` into `counters`.
    ///
    /// Branch-free flush: for the non-negative finite carry this keeps,
    /// truncation toward zero is `floor`, `whole as f64` is exact below
    /// 2^53, and adding 0 to a counter is a no-op, so this equals the
    /// `floor()` form bit for bit. It runs three times per simulated
    /// instruction, and `floor` is a libm call on the baseline x86-64
    /// target (no SSE4.1).
    pub fn add(&mut self, counters: &mut CounterFile, event: HpmEvent, amount: f64) {
        debug_assert!(amount >= 0.0, "negative counter amount");
        self.carry += amount;
        let whole = self.carry as u64;
        counters.add(event, whole);
        self.carry -= whole as f64;
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{Persist, StateIo};

impl Persist for FracCounter {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.carry.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_sane() {
        let c = CostModel::default();
        assert!(c.base_cpi > 0.0 && c.base_cpi < 1.5);
        assert!(c.l2_latency < c.l3_latency);
        assert!(c.l3_latency < c.mem_latency);
        assert!(c.overlap_isolated < c.overlap_burst);
        assert!(c.overlap_burst <= 1.0);
        assert!(
            c.erat_miss_cycles >= 14.0,
            "paper: translation takes at least 14 cycles"
        );
    }

    #[test]
    fn frac_counter_accumulates_exactly() {
        let mut fc = FracCounter::default();
        let mut counters = CounterFile::new();
        for _ in 0..10 {
            fc.add(&mut counters, HpmEvent::Cycles, 0.3);
        }
        // 10 x 0.3 = 3.0 cycles, within one count.
        let got = counters.get(HpmEvent::Cycles);
        assert!((2..=3).contains(&got), "got {got}");
        fc.add(&mut counters, HpmEvent::Cycles, 0.0);
        assert!(counters.get(HpmEvent::Cycles) <= 3);
    }

    /// The compare-and-`floor()` form `FracCounter::add` replaced, kept as
    /// the reference for the differential test below.
    fn add_with_floor(carry: &mut f64, counters: &mut CounterFile, amount: f64) {
        *carry += amount;
        if *carry < 1.0 {
            return;
        }
        if *carry < 2.0 {
            counters.add(HpmEvent::Cycles, 1);
            *carry -= 1.0;
            return;
        }
        let whole = carry.floor();
        counters.add(HpmEvent::Cycles, whole as u64);
        *carry -= whole;
    }

    #[test]
    fn frac_counter_matches_the_floor_form_bit_for_bit() {
        let fixed = [0.0, 0.2, 0.75, 1.75, 13.0, 320.5];
        let mut rng = jas_simkernel::Rng::new(0xF1AC);
        // Per-uop amounts are mostly below 2; misses charge up to a few
        // hundred cycles at once.
        let drawn = (0..100_000).map(|_| {
            let scale = [1.0, 2.5, 40.0, 400.0][rng.next_below(4) as usize];
            rng.next_f64() * scale
        });
        let mut fc = FracCounter::default();
        let mut counters = CounterFile::new();
        let mut ref_carry = 0.0f64;
        let mut ref_counters = CounterFile::new();
        for amount in fixed.into_iter().chain(drawn) {
            fc.add(&mut counters, HpmEvent::Cycles, amount);
            add_with_floor(&mut ref_carry, &mut ref_counters, amount);
            assert_eq!(fc.carry.to_bits(), ref_carry.to_bits(), "amount {amount}");
            assert_eq!(
                counters.get(HpmEvent::Cycles),
                ref_counters.get(HpmEvent::Cycles),
                "amount {amount}"
            );
        }
        assert!(counters.get(HpmEvent::Cycles) > 1_000_000);
    }

    #[test]
    fn frac_counter_handles_large_amounts() {
        let mut fc = FracCounter::default();
        let mut counters = CounterFile::new();
        fc.add(&mut counters, HpmEvent::Cycles, 320.5);
        assert_eq!(counters.get(HpmEvent::Cycles), 320);
        fc.add(&mut counters, HpmEvent::Cycles, 0.5);
        assert_eq!(counters.get(HpmEvent::Cycles), 321);
    }
}
