//! Pins the three sealed artifact formats — `.jckpt`, `.jrpl` and `.jwit` —
//! to the spec in `docs/jckpt-format.md`: each format's magic word and
//! version, the frame's header word order and trailer digest, and the bytes
//! of one reference checkpoint. Any byte-layout change must update the doc,
//! bump the format's version, and adjust this test in the same commit.

use jas2004::checkpoint::{JCKPT, JCKPT_VERSION};
use jas2004::reduce::JWIT;
use jas2004::{
    checkpoint_bytes, config_fingerprint, DivergenceWitness, Engine, RunPlan, SutConfig,
};
use jas_simkernel::snapshot::fnv1a;
use jas_simkernel::{Format, SimTime};
use jas_workload::replay::JRPL;
use jas_workload::ReplayLog;

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

/// The 200 ms quick-config checkpoint every byte pin below reads.
fn quick_checkpoint() -> Vec<u8> {
    let mut engine = Engine::new(quick_cfg(), RunPlan::quick());
    engine.run_to(SimTime::from_millis(200));
    checkpoint_bytes(&mut engine)
}

/// Words 0-3 are magic, version, fingerprint and payload length; the last
/// word is the FNV-1a fold of every byte before it (word bytes are
/// little-endian, so folding bytes equals folding words).
fn assert_frame(format: Format, bytes: &[u8], fingerprint: u64) {
    assert_eq!(word_at(bytes, 0), format.magic, "{}", format.name);
    assert_eq!(word_at(bytes, 1), format.version, "{}", format.name);
    assert_eq!(word_at(bytes, 2), fingerprint, "{}", format.name);
    let payload_words = word_at(bytes, 3) as usize;
    assert_eq!(bytes.len(), (4 + payload_words + 1) * 8, "{}", format.name);
    let trailer = word_at(bytes, 4 + payload_words);
    assert_eq!(trailer, fnv1a(&bytes[..bytes.len() - 8]), "{}", format.name);
}

#[test]
fn magic_words_match_the_spec() {
    // ASCII "JASCKPT1", "JASRPLY1", "JASWTNS1" read as big-endian u64.
    assert_eq!(JCKPT.magic, u64::from_be_bytes(*b"JASCKPT1"));
    assert_eq!(JRPL.magic, u64::from_be_bytes(*b"JASRPLY1"));
    assert_eq!(JWIT.magic, u64::from_be_bytes(*b"JASWTNS1"));
    assert_eq!(
        [JCKPT.name, JRPL.name, JWIT.name],
        ["checkpoint", "replay log", "witness"]
    );
}

#[test]
fn container_version_is_pinned() {
    // Bumping a version invalidates every committed artifact of that
    // format: do it only with a matching docs/jckpt-format.md update.
    // `.jckpt` version 4 dropped the scheduler-mode field from the
    // fingerprinted configuration and always carries live wake-up
    // registrations; `.jrpl` and `.jwit` version 2 moved to the shared
    // frame.
    assert_eq!(JCKPT_VERSION, 4);
    assert_eq!(JCKPT.version, JCKPT_VERSION);
    assert_eq!(JRPL.version, 2);
    assert_eq!(JWIT.version, 2);
}

#[test]
fn jckpt_header_layout_is_pinned() {
    assert_frame(JCKPT, &quick_checkpoint(), config_fingerprint(&quick_cfg()));
}

#[test]
fn jrpl_and_jwit_frames_are_pinned() {
    // Neither format is bound to a configuration: fingerprint word 0.
    let log = ReplayLog::default().to_bytes();
    assert_frame(JRPL, &log, 0);
    // An empty log is two zero length words.
    assert_eq!(word_at(&log, 3), 2);

    let ckpt = quick_checkpoint();
    let witness = DivergenceWitness {
        window_start: SimTime::from_millis(100),
        window_end: SimTime::from_millis(200),
        run_end: SimTime::from_secs(45),
        digest_a: 0xA,
        digest_b: 0xB,
        ckpt_a: ckpt.clone(),
        ckpt_b: ckpt.clone(),
    }
    .to_bytes();
    assert_frame(JWIT, &witness, 0);
    // Payload: five words, then each checkpoint as a word count and its
    // words.
    let ckpt_words = (ckpt.len() / 8) as u64;
    assert_eq!(word_at(&witness, 4), 100_000_000);
    assert_eq!(word_at(&witness, 8), 0xB);
    assert_eq!(word_at(&witness, 9), ckpt_words);
    assert_eq!(&witness[80..80 + ckpt.len()], &ckpt[..]);
    assert_eq!(word_at(&witness, 10 + ckpt_words as usize), ckpt_words);
}

#[test]
fn jckpt_bytes_are_pinned() {
    // The whole 200 ms quick-config checkpoint, byte for byte: a change
    // to any simulated state or to the frame moves this digest.
    let bytes = quick_checkpoint();
    assert_eq!(bytes.len(), 8_846_984);
    assert_eq!(fnv1a(&bytes), 0x1041_7219_9c4a_ba71);
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
