//! Automatic witness reduction: shrink a digest divergence between two
//! runs to the smallest `[checkpoint, window]` that still reproduces it.
//!
//! Given two configurations that *should* agree but don't (a fault plan
//! versus a healthy run, a code change versus a golden baseline), replaying
//! both full runs to debug the divergence wastes almost all of the work:
//! deterministic engines that agree at time *t* agree at every earlier
//! time. The reducer exploits that monotonicity — it marches both engines
//! in lockstep over a coarse grid comparing full-state probe digests,
//! brackets the first disagreeing interval, then bisects inside it by
//! restoring from the last-agreeing checkpoint, yielding a witness whose
//! window is a few quanta wide. The emitted [`DivergenceWitness`] carries
//! both checkpoints and is self-contained: anyone with the two configs can
//! re-run just the window and watch the states split.

use crate::checkpoint::{checkpoint_bytes, restore_engine};
use crate::config::{RunPlan, SutConfig};
use crate::engine::Engine;
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::{Loader, SimDuration, SimTime, StateIo};

/// Magic word opening a serialized witness (`"JASWTNS1"`).
pub const WITNESS_MAGIC: u64 = 0x4A41_5357_544E_5331;

/// A reduced divergence: the smallest bracketing window the reducer found,
/// plus checkpoints of both runs at the window start.
///
/// At `window_start` the two runs' probe digests still agree; by
/// `window_end` they differ. Restoring both checkpoints and running each
/// engine to `window_end` reproduces the divergence without replaying
/// anything before the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergenceWitness {
    /// Last quantum boundary where both runs' probe digests agreed.
    pub window_start: SimTime,
    /// First examined boundary where the probe digests differ.
    pub window_end: SimTime,
    /// End of the full run the divergence was reduced from.
    pub run_end: SimTime,
    /// Run A's probe digest at `window_end`.
    pub digest_a: u64,
    /// Run B's probe digest at `window_end`.
    pub digest_b: u64,
    /// `.jckpt` of run A at `window_start`.
    pub ckpt_a: Vec<u8>,
    /// `.jckpt` of run B at `window_start`.
    pub ckpt_b: Vec<u8>,
}

impl DivergenceWitness {
    /// The reduced window length.
    #[must_use]
    pub fn window(&self) -> SimDuration {
        self.window_end.saturating_since(self.window_start)
    }

    /// The window length as a fraction of the full run.
    #[must_use]
    pub fn window_fraction(&self) -> f64 {
        self.window().as_secs_f64() / self.run_end.as_secs_f64().max(1e-12)
    }

    /// Serializes the witness (layout: `docs/jckpt-format.md`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = jas_simkernel::Saver::new();
        let mut words = vec![
            WITNESS_MAGIC,
            self.window_start.as_nanos(),
            self.window_end.as_nanos(),
            self.run_end.as_nanos(),
            self.digest_a,
            self.digest_b,
            self.ckpt_a.len() as u64,
            self.ckpt_b.len() as u64,
        ];
        for blob in [&self.ckpt_a, &self.ckpt_b] {
            debug_assert_eq!(blob.len() % 8, 0, "checkpoints are whole words");
            for chunk in blob.chunks_exact(8) {
                words.push(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            }
        }
        let mut digest = WordDigest::new();
        for &word in &words {
            digest.mix(word);
        }
        words.push(digest.value());
        for mut word in words {
            out.word(&mut word);
        }
        out.into_bytes()
    }

    /// Deserializes a witness produced by [`DivergenceWitness::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on a bad magic word, a truncated stream, or a trailer digest
    /// mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut loader = Loader::new(bytes);
        let mut read = || {
            let mut w = 0u64;
            loader.word(&mut w);
            w
        };
        let magic = read();
        if magic != WITNESS_MAGIC {
            return Err(format!(
                "not a witness: magic {magic:#018x} != {WITNESS_MAGIC:#018x}"
            ));
        }
        let window_start = SimTime::from_nanos(read());
        let window_end = SimTime::from_nanos(read());
        let run_end = SimTime::from_nanos(read());
        let digest_a = read();
        let digest_b = read();
        let len_a = read() as usize;
        let len_b = read() as usize;
        let needed = len_a
            .checked_add(len_b)
            .and_then(|blobs| blobs.checked_add(9 * 8));
        if !len_a.is_multiple_of(8)
            || !len_b.is_multiple_of(8)
            || needed.is_none_or(|n| bytes.len() < n)
        {
            return Err("witness is truncated".into());
        }
        let mut blob = |len: usize| {
            let mut out = Vec::with_capacity(len);
            for _ in 0..len / 8 {
                let mut w = 0u64;
                loader.word(&mut w);
                out.extend_from_slice(&w.to_le_bytes());
            }
            out
        };
        let ckpt_a = blob(len_a);
        let ckpt_b = blob(len_b);
        let trailer = {
            let mut w = 0u64;
            loader.word(&mut w);
            w
        };
        loader.finish()?;
        let witness = DivergenceWitness {
            window_start,
            window_end,
            run_end,
            digest_a,
            digest_b,
            ckpt_a,
            ckpt_b,
        };
        // Recompute the trailer over the re-serialized body: the body
        // round-trips exactly, so the digests match iff the stream was
        // intact.
        let reserialized = witness.to_bytes();
        let body_words = reserialized.len() / 8 - 1;
        let mut check = WordDigest::new();
        for chunk in reserialized[..body_words * 8].chunks_exact(8) {
            check.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        if check.value() != trailer {
            return Err(format!(
                "witness is corrupt: trailer digest {trailer:#018x} != \
                 computed {:#018x}",
                check.value()
            ));
        }
        Ok(witness)
    }

    /// Re-runs just the reduced window from both checkpoints and checks
    /// that the divergence still reproduces: the probe digests agree at
    /// `window_start` and split into (`digest_a`, `digest_b`) by
    /// `window_end`.
    ///
    /// # Errors
    ///
    /// Fails when either checkpoint does not restore under its config, or
    /// when the window no longer reproduces the recorded digests (a stale
    /// witness from a different build).
    pub fn verify(
        &self,
        cfg_a: &SutConfig,
        cfg_b: &SutConfig,
        plan: RunPlan,
    ) -> Result<(), String> {
        let mut a = restore_engine(cfg_a, plan, &self.ckpt_a)?;
        let mut b = restore_engine(cfg_b, plan, &self.ckpt_b)?;
        if a.probe_digest() != b.probe_digest() {
            return Err("witness checkpoints already diverge at window start".into());
        }
        a.run_to(self.window_end);
        b.run_to(self.window_end);
        let (da, db) = (a.probe_digest(), b.probe_digest());
        if (da, db) != (self.digest_a, self.digest_b) {
            return Err(format!(
                "witness does not reproduce: got ({da:#018x}, {db:#018x}), \
                 recorded ({:#018x}, {:#018x})",
                self.digest_a, self.digest_b
            ));
        }
        Ok(())
    }
}

/// Reduces the divergence between the runs of `cfg_a` and `cfg_b` (same
/// plan) to a minimal witness window.
///
/// `grid` is the number of coarse probe intervals for the initial lockstep
/// march (32 is a good default: the march costs one full run per engine
/// regardless, and the follow-up bisection converges in `log2` restores).
/// The returned window is bracketed to a single coarse interval and then
/// bisected down to the quantum, so it ends up a tiny fraction of the run.
///
/// # Errors
///
/// Fails when the two runs never diverge (their probe digests agree at
/// every examined boundary including the run end), or when `grid` is zero.
pub fn reduce_divergence(
    cfg_a: &SutConfig,
    cfg_b: &SutConfig,
    plan: RunPlan,
    grid: usize,
) -> Result<DivergenceWitness, String> {
    if grid == 0 {
        return Err("reduction grid must be positive".into());
    }
    let end = plan.end();
    let step = SimDuration::from_nanos((end.as_nanos() / grid as u64).max(1));
    let quantum = cfg_a.quantum.max(cfg_b.quantum);

    let mut a = Engine::new(cfg_a.clone(), plan);
    let mut b = Engine::new(cfg_b.clone(), plan);
    if a.probe_digest() != b.probe_digest() {
        return Err(
            "the two configurations already diverge at tick zero; nothing to reduce \
             (construction-time state differs, e.g. a different seed or scenario)"
                .into(),
        );
    }

    // Coarse lockstep march: find the first grid boundary where the full
    // states disagree, keeping checkpoints at the last agreeing boundary.
    let mut lo = SimTime::ZERO;
    let mut ck_a = checkpoint_bytes(&mut a);
    let mut ck_b = checkpoint_bytes(&mut b);
    let mut diverged = None;
    while a.now() < end {
        let target = (a.now() + step).min(end);
        a.run_to(target);
        b.run_to(target);
        debug_assert_eq!(a.now(), b.now(), "same quantum, same boundaries");
        let (da, db) = (a.probe_digest(), b.probe_digest());
        if da != db {
            diverged = Some((a.now(), da, db));
            break;
        }
        lo = a.now();
        ck_a = checkpoint_bytes(&mut a);
        ck_b = checkpoint_bytes(&mut b);
    }
    let Some((mut hi, mut digest_a, mut digest_b)) = diverged else {
        return Err(format!(
            "no divergence: both runs have probe digest {:#018x} at run end",
            a.probe_digest()
        ));
    };

    // Bisect (lo, hi]: each probe restores both sides from the
    // last-agreeing checkpoints and runs only to the midpoint.
    while hi.saturating_since(lo) > quantum {
        let mid = SimTime::from_nanos(lo.as_nanos() + hi.saturating_since(lo).as_nanos() / 2);
        let mut a2 = restore_engine(cfg_a, plan, &ck_a)?;
        let mut b2 = restore_engine(cfg_b, plan, &ck_b)?;
        a2.run_to(mid);
        b2.run_to(mid);
        let reached = a2.now();
        if reached >= hi {
            break; // a quantum straddles the remaining gap
        }
        let (da, db) = (a2.probe_digest(), b2.probe_digest());
        if da != db {
            hi = reached;
            digest_a = da;
            digest_b = db;
        } else {
            if reached <= lo {
                break;
            }
            lo = reached;
            ck_a = checkpoint_bytes(&mut a2);
            ck_b = checkpoint_bytes(&mut b2);
        }
    }

    Ok(DivergenceWitness {
        window_start: lo,
        window_end: hi,
        run_end: end,
        digest_a,
        digest_b,
        ckpt_a: ck_a,
        ckpt_b: ck_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jas_faults::{FaultKind, FaultPlan, FaultWindow};

    fn quick_cfg() -> SutConfig {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg
    }

    /// Same fault window on both sides so the fault monitor runs (and the
    /// injector draws) identically; only the rate differs, so the first
    /// state difference is the first actual injection.
    fn rate_pair(start_s: f64, end_s: f64) -> (SutConfig, SutConfig) {
        let mut never = quick_cfg();
        never.faults.plan = FaultPlan::from_windows(vec![FaultWindow::new(
            FaultKind::DbLockTimeout,
            start_s,
            end_s,
            0.0,
        )]);
        let mut always = quick_cfg();
        always.faults.plan = FaultPlan::from_windows(vec![FaultWindow::new(
            FaultKind::DbLockTimeout,
            start_s,
            end_s,
            1.0,
        )]);
        (never, always)
    }

    #[test]
    fn reducer_brackets_a_seeded_fault() {
        let plan = RunPlan::quick();
        // The divergence is seeded at 60% of the quick run; the reduced
        // witness window must land on it and span ≤ 10% of the run.
        let end_s = plan.end().as_secs_f64();
        let (healthy, faulty) = rate_pair(end_s * 0.6, end_s);
        let witness = reduce_divergence(&healthy, &faulty, plan, 16).unwrap();
        assert!(
            witness.window_fraction() <= 0.10,
            "window {} of run {} is {:.1}% (> 10%)",
            witness.window().as_secs_f64(),
            end_s,
            witness.window_fraction() * 100.0
        );
        assert!(witness.window_start.as_secs_f64() >= end_s * 0.5);
        assert_ne!(witness.digest_a, witness.digest_b);
        witness.verify(&healthy, &faulty, plan).unwrap();
    }

    #[test]
    fn identical_runs_report_no_divergence() {
        let plan = RunPlan::quick();
        let cfg = quick_cfg();
        let err = reduce_divergence(&cfg, &cfg, plan, 4).unwrap_err();
        assert!(err.contains("no divergence"), "unexpected error: {err}");
    }

    #[test]
    fn witness_lengths_that_overflow_are_truncation_errors() {
        // 72 + (2^64 - 8) + 8 wraps to 72, which an 80-byte stream
        // would satisfy if the sum were not checked.
        let mut words = [0u64; 10];
        words[0] = WITNESS_MAGIC;
        words[6] = u64::MAX - 7;
        words[7] = 8;
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let err = DivergenceWitness::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("truncated"), "unexpected error: {err}");
    }

    #[test]
    fn witness_round_trips_through_bytes() {
        let plan = RunPlan::quick();
        let end_s = plan.end().as_secs_f64();
        let (healthy, faulty) = rate_pair(end_s * 0.5, end_s);
        let witness = reduce_divergence(&healthy, &faulty, plan, 8).unwrap();
        let bytes = witness.to_bytes();
        let back = DivergenceWitness::from_bytes(&bytes).unwrap();
        assert_eq!(back, witness);
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0xFF;
        assert!(DivergenceWitness::from_bytes(&corrupt).is_err());
    }
}
