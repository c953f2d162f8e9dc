//! Pins the `.jckpt`/witness/replay-log byte layouts to the spec in
//! `docs/jckpt-format.md`: magic words, header word order, trailer digest,
//! and the version constant. Any byte-layout change must update the doc,
//! bump `JCKPT_VERSION`, and adjust this test in the same commit.

use jas_replay::{
    checkpoint_bytes, config_fingerprint, Engine, RunPlan, SutConfig, JCKPT_MAGIC, JCKPT_VERSION,
    WITNESS_MAGIC,
};
use jas_simkernel::snapshot::fnv1a;
use jas_simkernel::SimTime;

fn word_at(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap())
}

fn quick_cfg() -> SutConfig {
    let mut cfg = SutConfig::at_ir(10);
    cfg.machine.frequency_hz = 100_000.0;
    cfg.jvm.heap.capacity = 8 << 20;
    cfg.jvm.live_target = 2 << 20;
    cfg
}

#[test]
fn magic_words_match_the_spec() {
    // ASCII "JASCKPT1", "JASRPLY1", "JASWTNS1" read as big-endian u64.
    assert_eq!(JCKPT_MAGIC, u64::from_be_bytes(*b"JASCKPT1"));
    assert_eq!(WITNESS_MAGIC, u64::from_be_bytes(*b"JASWTNS1"));
    let log = jas_replay::ReplayLog::default().to_bytes();
    assert_eq!(word_at(&log, 0), u64::from_be_bytes(*b"JASRPLY1"));
}

#[test]
fn container_version_is_pinned() {
    // Bumping this constant invalidates every committed checkpoint: do it
    // only with a matching docs/jckpt-format.md update. Version 4 dropped
    // the scheduler-mode field from the fingerprinted configuration and
    // always carries live wake-up registrations.
    assert_eq!(JCKPT_VERSION, 4);
}

#[test]
fn jckpt_header_layout_is_pinned() {
    let cfg = quick_cfg();
    let plan = RunPlan::quick();
    let mut engine = Engine::new(cfg.clone(), plan);
    engine.run_to(SimTime::from_millis(200));
    let bytes = checkpoint_bytes(&mut engine);

    // Words 0-3: magic, version, fingerprint, payload length.
    assert_eq!(word_at(&bytes, 0), JCKPT_MAGIC);
    assert_eq!(word_at(&bytes, 1), JCKPT_VERSION);
    assert_eq!(word_at(&bytes, 2), config_fingerprint(&cfg));
    let payload_words = word_at(&bytes, 3) as usize;
    assert_eq!(bytes.len(), (4 + payload_words + 1) * 8);

    // The trailer is the FNV-1a fold of every preceding byte in stream
    // order (per docs/jckpt-format.md, word bytes are little-endian, so
    // folding bytes equals folding words).
    let trailer = word_at(&bytes, 4 + payload_words);
    assert_eq!(trailer, fnv1a(&bytes[..bytes.len() - 8]));
}

#[test]
fn fingerprint_is_thread_and_hostprof_invariant_only() {
    let cfg = quick_cfg();
    let mut threaded = cfg.clone();
    threaded.threads = 8;
    threaded.host_prof = true;
    assert_eq!(config_fingerprint(&cfg), config_fingerprint(&threaded));

    let mut reseeded = cfg.clone();
    reseeded.seed ^= 1;
    assert_ne!(config_fingerprint(&cfg), config_fingerprint(&reseeded));
}
