//! The `.jckpt` checkpoint container: versioned, digested full-state
//! snapshots of a running [`Engine`].
//!
//! A checkpoint is taken at a quantum boundary and captures every piece of
//! mutable simulation state (see [`Engine::persist_state`]). Restoring
//! rebuilds an engine from the *same configuration* — config-derived
//! structures (schemas, pool capacities, distribution tables) come from
//! construction — then overlays the recorded mutable state, after which the
//! engine evolves bit-identically to the original run.
//!
//! The byte layout is specified in `docs/jckpt-format.md` and pinned by a
//! format test in `crates/replay`; bump [`JCKPT_VERSION`] on any layout
//! change.

use crate::config::{RunPlan, SutConfig};
use crate::engine::Engine;
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::{Loader, Saver, StateIo};

/// Magic word opening a `.jckpt` stream: ASCII `"JASCKPT1"` read as a
/// big-endian integer.
pub const JCKPT_MAGIC: u64 = 0x4A41_5343_4B50_5431;

/// Container layout version. Bump on any change to the header layout *or*
/// to the engine's `persist_state` field order (the payload has no
/// per-field tags; the version is what keeps old streams from being
/// misinterpreted). Version 2 appended the event scheduler's wake heap
/// and occupancy counters to the payload. Version 3 widened the fault
/// counters for the fleet fault kinds, added the circuit breaker's
/// half-open probe spacing, and added the engine's front-end outcome
/// counters (cluster failover accounting). Version 4 keeps the word layout
/// but drops the scheduler-mode field from the configuration (moving
/// every fingerprint), and its wake heap is always populated: a restore
/// loads the live registrations instead of re-deriving them.
pub const JCKPT_VERSION: u64 = 4;

/// Words in the container header (magic, version, fingerprint, payload
/// length).
const HEADER_WORDS: usize = 4;

/// A fingerprint of everything about a [`SutConfig`] that shapes
/// simulation results.
///
/// `threads` is normalized out (it picks host threads, never simulation
/// results, so a checkpoint from a `--threads 8` run restores under
/// `--threads 1`), and `host_prof` is normalized out (host self-profiling
/// never enters simulation state). Everything else — seed, IR, machine, heap,
/// fault plan, trace spec — must match exactly for a restore to make
/// sense, because config-derived state is rebuilt rather than recorded.
#[must_use]
pub fn config_fingerprint(cfg: &SutConfig) -> u64 {
    let mut canon = cfg.clone();
    canon.threads = 1;
    canon.host_prof = false;
    let mut digest = WordDigest::new();
    for byte in format!("{canon:?}").bytes() {
        digest.mix(u64::from(byte));
    }
    digest.value()
}

/// Serializes `engine` into a `.jckpt` byte stream.
///
/// The engine must be at a quantum boundary, which it always is between
/// [`Engine::run_to`] calls. Taking a checkpoint does not perturb the run:
/// the visitor only reads on the save path.
#[must_use]
pub fn checkpoint_bytes(engine: &mut Engine) -> Vec<u8> {
    let mut body = Saver::new();
    engine.persist_state(&mut body);
    let payload = body.into_bytes();
    debug_assert_eq!(payload.len() % 8, 0, "payload is a whole number of words");

    let mut out = Saver::new();
    let mut digest = WordDigest::new();
    let header = [
        JCKPT_MAGIC,
        JCKPT_VERSION,
        config_fingerprint(engine.config()),
        (payload.len() / 8) as u64,
    ];
    for word in header {
        let mut w = word;
        out.word(&mut w);
        digest.mix(word);
    }
    for chunk in payload.chunks_exact(8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mut w = word;
        out.word(&mut w);
        digest.mix(word);
    }
    let mut trailer = digest.value();
    out.word(&mut trailer);
    out.into_bytes()
}

/// Validates a `.jckpt` stream against `cfg` and returns the raw payload
/// words as bytes.
///
/// # Errors
///
/// Fails on a bad magic word, a version mismatch, a configuration
/// fingerprint mismatch, a truncated/oversized stream, or a corrupted
/// payload (trailer digest mismatch).
pub fn validate_checkpoint(cfg: &SutConfig, bytes: &[u8]) -> Result<Vec<u8>, String> {
    if !bytes.len().is_multiple_of(8) || bytes.len() / 8 < HEADER_WORDS + 1 {
        return Err(format!(
            "not a checkpoint: {} bytes is shorter than the fixed container",
            bytes.len()
        ));
    }
    let word_at = |i: usize| {
        u64::from_le_bytes(
            bytes[i * 8..i * 8 + 8]
                .try_into()
                .expect("bounds checked above"),
        )
    };
    if word_at(0) != JCKPT_MAGIC {
        return Err(format!(
            "not a checkpoint: magic {:#018x} != {JCKPT_MAGIC:#018x}",
            word_at(0)
        ));
    }
    if word_at(1) != JCKPT_VERSION {
        return Err(format!(
            "checkpoint version {} is not the supported version {JCKPT_VERSION}",
            word_at(1)
        ));
    }
    let expected_fp = config_fingerprint(cfg);
    if word_at(2) != expected_fp {
        return Err(format!(
            "checkpoint was taken under a different configuration \
             (fingerprint {:#018x}, this config is {expected_fp:#018x}); \
             seed, IR, scenario, fault plan, and trace spec must all match",
            word_at(2)
        ));
    }
    let payload_words = word_at(3) as usize;
    let total_words = HEADER_WORDS + payload_words + 1;
    if bytes.len() / 8 != total_words {
        return Err(format!(
            "checkpoint length mismatch: header promises {total_words} words, \
             stream has {}",
            bytes.len() / 8
        ));
    }
    let mut digest = WordDigest::new();
    for i in 0..HEADER_WORDS + payload_words {
        digest.mix(word_at(i));
    }
    let trailer = word_at(HEADER_WORDS + payload_words);
    if digest.value() != trailer {
        return Err(format!(
            "checkpoint is corrupt: trailer digest {trailer:#018x} != \
             computed {:#018x}",
            digest.value()
        ));
    }
    Ok(bytes[HEADER_WORDS * 8..(HEADER_WORDS + payload_words) * 8].to_vec())
}

/// Rebuilds an engine from a `.jckpt` stream.
///
/// `cfg` and `plan` must be the ones the checkpointed run was started with
/// (modulo `threads`/`host_prof`, see [`config_fingerprint`]); the
/// fingerprint check enforces the config half of that contract.
///
/// # Errors
///
/// Fails on any [`validate_checkpoint`] error or on a payload that does
/// not decode to exactly one engine state.
pub fn restore_engine(cfg: &SutConfig, plan: RunPlan, bytes: &[u8]) -> Result<Engine, String> {
    restore_into(Engine::new(cfg.clone(), plan), bytes)
}

/// Overlays a `.jckpt` stream onto `engine`, which must be freshly built
/// from the checkpointed run's configuration and plan — by
/// [`Engine::new`], or by [`Engine::no_skip`] to resume under the test
/// oracle.
///
/// # Errors
///
/// As [`restore_engine`].
pub fn restore_into(mut engine: Engine, bytes: &[u8]) -> Result<Engine, String> {
    let payload = validate_checkpoint(engine.config(), bytes)?;
    let mut loader = Loader::new(&payload);
    engine.persist_state(&mut loader);
    loader
        .finish()
        .map_err(|e| format!("checkpoint payload does not match this build: {e}"))?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RunPlan, SutConfig};
    use jas_simkernel::SimTime;

    fn quick_cfg() -> SutConfig {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg
    }

    #[test]
    fn checkpoint_round_trips() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to(SimTime::from_millis(500));
        let before = engine.probe_digest();
        let bytes = checkpoint_bytes(&mut engine);
        let mut restored = restore_engine(&cfg, plan, &bytes).unwrap();
        assert_eq!(restored.now(), engine.now());
        assert_eq!(restored.probe_digest(), before);
    }

    #[test]
    fn restored_run_matches_uninterrupted() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();

        let mut straight = Engine::new(cfg.clone(), plan);
        straight.run_to_end();

        let mut first = Engine::new(cfg.clone(), plan);
        first.run_to(SimTime::from_millis(400));
        let bytes = checkpoint_bytes(&mut first);
        let mut resumed = restore_engine(&cfg, plan, &bytes).unwrap();
        resumed.run_to_end();

        assert_eq!(resumed.hpm_digest(), straight.hpm_digest());
        assert_eq!(resumed.probe_digest(), straight.probe_digest());
    }

    #[test]
    fn restored_faulted_run_recheckpoints_byte_identically() {
        // Fault-window edges that fired before the checkpoint stay
        // consumed after a restore, so the resumed run's next checkpoint
        // is byte-identical to the straight run's.
        let mut cfg = quick_cfg();
        cfg.faults.plan =
            jas_faults::FaultPlan::parse("db-lock@1-3:0.4,gc-storm@2-4:0.1").expect("valid spec");
        let plan = RunPlan::quick();
        let mut straight = Engine::new(cfg.clone(), plan);
        straight.run_to(SimTime::from_secs(5));
        let bytes = checkpoint_bytes(&mut straight);
        straight.run_to(SimTime::from_secs(8));
        let mut resumed = restore_engine(&cfg, plan, &bytes).unwrap();
        resumed.run_to(SimTime::from_secs(8));
        assert!(checkpoint_bytes(&mut resumed) == checkpoint_bytes(&mut straight));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to(SimTime::from_millis(100));
        let mut bytes = checkpoint_bytes(&mut engine);
        // Bump the version word (word 1) and fix nothing else up: the
        // version check must fire before the digest check.
        bytes[8] = bytes[8].wrapping_add(1);
        let err = restore_engine(&cfg, plan, &bytes).map(|_| ()).unwrap_err();
        assert!(err.contains("version"), "unexpected error: {err}");
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to(SimTime::from_millis(100));
        let bytes = checkpoint_bytes(&mut engine);
        let mut other = cfg.clone();
        other.seed ^= 1;
        let err = restore_engine(&other, plan, &bytes)
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("fingerprint"), "unexpected error: {err}");
    }

    #[test]
    fn corruption_is_rejected() {
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to(SimTime::from_millis(100));
        let mut bytes = checkpoint_bytes(&mut engine);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(restore_engine(&cfg, plan, &bytes).is_err());
    }

    #[test]
    fn fingerprint_normalizes_threads_and_host_prof() {
        let cfg = quick_cfg();
        let mut other = cfg.clone();
        other.threads = 8;
        other.host_prof = true;
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&other));
        let mut different = cfg.clone();
        different.ir += 1;
        assert_ne!(config_fingerprint(&cfg), config_fingerprint(&different));
    }

    #[test]
    fn checkpoints_are_scheduler_portable() {
        // A checkpoint taken mid-run by the no-skip oracle resumes with
        // skipping, and one taken with skipping resumes under the oracle;
        // both finish with the oracle's straight-run digest.
        let cfg = quick_cfg();
        let plan = RunPlan::quick();
        let mut straight = Engine::no_skip(cfg.clone(), plan);
        straight.run_to_end();

        let mut oracle_first = Engine::no_skip(cfg.clone(), plan);
        oracle_first.run_to(SimTime::from_millis(400));
        let bytes = checkpoint_bytes(&mut oracle_first);
        let mut skipping = restore_engine(&cfg, plan, &bytes).unwrap();
        skipping.run_to_end();
        assert_eq!(skipping.hpm_digest(), straight.hpm_digest());

        let mut skipping_first = Engine::new(cfg.clone(), plan);
        skipping_first.run_to(SimTime::from_millis(400));
        let bytes = checkpoint_bytes(&mut skipping_first);
        let mut oracle = restore_into(Engine::no_skip(cfg, plan), &bytes).unwrap();
        oracle.run_to_end();
        assert_eq!(oracle.hpm_digest(), straight.hpm_digest());
    }
}
