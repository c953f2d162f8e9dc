//! Hostile-input tests for the three sealed binary artifacts: `.jckpt`
//! checkpoints, `.jrpl` replay logs and `.jwit` divergence witnesses.
//!
//! Each format is seeded with a real artifact from a small configuration,
//! then truncated at every word boundary, bit-flipped, and given length
//! words of 2^40 and `u64::MAX`. Each mutation is decoded twice: as is,
//! which the frame must refuse, and re-sealed with a fresh header length
//! and trailer, so the payload decoder sees it. Every decode must return
//! `Ok` or an `Err` that starts with the format's name; none may panic.
//! Mutated replay logs that still decode are also replayed, and plan steps
//! no scenario compiles must be refused when the replay is armed.

use jas2004::checkpoint::JCKPT;
use jas2004::reduce::JWIT;
use jas2004::{
    checkpoint_bytes, config_fingerprint, reduce_divergence, restore_engine, DivergenceWitness,
    Engine, FaultKind, FaultPlan, FaultWindow, RunPlan, SutConfig,
};
use jas_appserver::{PlanStep, QueueId};
use jas_cpu::CacheConfig;
use jas_db::{Query, TableId};
use jas_jvm::{Component, ObjectClass};
use jas_simkernel::{Format, SimDuration, SimTime};
use jas_workload::replay::JRPL;
use jas_workload::ReplayLog;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A quick configuration with shrunken caches, so a checkpoint is small
/// enough to be restored thousands of times.
fn tiny_cfg() -> SutConfig {
    let mut cfg = SutConfig::at_ir(10);
    cfg.machine.frequency_hz = 100_000.0;
    cfg.jvm.heap.capacity = 8 << 20;
    cfg.jvm.live_target = 2 << 20;
    for cache in [&mut cfg.machine.l2, &mut cfg.machine.l3] {
        *cache = CacheConfig {
            size_bytes: 64 * 1024,
            ..*cache
        };
    }
    cfg
}

/// A 2 s run: every seed artifact comes from it, and every replay runs it.
fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(1),
        steady: SimDuration::from_secs(1),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(1),
    }
}

struct Seeds {
    jckpt: Vec<u8>,
    jrpl: Vec<u8>,
    jwit: Vec<u8>,
}

fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let cfg = tiny_cfg();
        let mut engine = Engine::new(cfg.clone(), plan());
        engine.start_recording();
        engine.run_to(SimTime::from_millis(500));
        let jckpt = checkpoint_bytes(&mut engine);
        engine.run_to_end();
        let jrpl = engine.take_recording().expect("recording").to_bytes();
        let faulty = |rate| {
            let mut c = tiny_cfg();
            c.faults.plan = FaultPlan::from_windows(vec![FaultWindow::new(
                FaultKind::DbLockTimeout,
                1.5,
                2.0,
                rate,
            )]);
            c
        };
        let jwit = reduce_divergence(&faulty(0.0), &faulty(1.0), plan(), 4)
            .expect("the fault window diverges")
            .to_bytes();
        Seeds { jckpt, jrpl, jwit }
    })
}

/// Decodes `bytes` as `format` the way the `jas2004` binary does.
fn decode(format: Format, bytes: &[u8]) -> Result<(), String> {
    if format == JCKPT {
        // Open first so that frames the header refuses skip building an
        // engine; `restore_engine` opens the frame again.
        JCKPT.open(bytes, fingerprint(JCKPT))?;
        restore_engine(&tiny_cfg(), plan(), bytes).map(|_| ())
    } else if format == JRPL {
        ReplayLog::from_bytes(bytes).map(|_| ())
    } else {
        DivergenceWitness::from_bytes(bytes).map(|_| ())
    }
}

/// Decodes and requires `Ok` or an error that names the format.
fn check(format: Format, bytes: &[u8]) -> bool {
    match decode(format, bytes) {
        Ok(()) => true,
        Err(e) => {
            assert!(
                e.starts_with(format.name) && e[format.name.len()..].starts_with(' '),
                "{} error does not name its format: {e}",
                format.name
            );
            false
        }
    }
}

fn fingerprint(format: Format) -> u64 {
    static JCKPT_FINGERPRINT: OnceLock<u64> = OnceLock::new();
    if format == JCKPT {
        *JCKPT_FINGERPRINT.get_or_init(|| config_fingerprint(&tiny_cfg()))
    } else {
        0
    }
}

/// Re-frames a (mutated) payload so the trailer and length checks pass.
fn reseal(format: Format, payload: &[u8]) -> Vec<u8> {
    format.seal(fingerprint(format), payload)
}

fn payload(format: Format, bytes: &[u8]) -> Vec<u8> {
    format
        .open(bytes, fingerprint(format))
        .expect("seed opens")
        .to_vec()
}

fn formats() -> [(Format, &'static [u8]); 3] {
    let s = seeds();
    [(JCKPT, &s.jckpt), (JRPL, &s.jrpl), (JWIT, &s.jwit)]
}

fn set_word(bytes: &mut [u8], i: usize, v: u64) {
    bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn seeds_decode() {
    for (format, bytes) in formats() {
        assert!(check(format, bytes), "{} seed decodes", format.name);
    }
    // The replay log comes from the run it replays: it must not diverge.
    let mut engine = Engine::new(tiny_cfg(), plan());
    engine
        .arm_replay(ReplayLog::from_bytes(&seeds().jrpl).unwrap())
        .unwrap();
    engine.run_to_end();
    assert_eq!(engine.replay_divergence(), None);
}

#[test]
fn every_word_truncation_is_refused() {
    for (format, bytes) in formats() {
        for words in 0..bytes.len() / 8 {
            assert!(!check(format, &bytes[..words * 8]), "{}", format.name);
        }
        // Re-sealed, the truncated payload reaches the decoder. Each
        // re-seal costs a pass over the payload, so the megabyte-sized
        // checkpoint and witness are cut at 256 evenly spaced words.
        let body = payload(format, bytes);
        let n = body.len() / 8;
        let stride = if n > 4096 { n / 256 } else { 1 };
        for words in (0..n).step_by(stride).chain([n - 1]) {
            assert!(
                !check(format, &reseal(format, &body[..words * 8])),
                "{}",
                format.name
            );
        }
    }
}

#[test]
fn inflated_length_words_are_refused_not_allocated() {
    for (format, bytes) in formats() {
        // The frame's own length word.
        for v in [1u64 << 40, u64::MAX] {
            let mut framed = bytes.to_vec();
            set_word(&mut framed, 3, v);
            assert!(!check(format, &framed));
        }
        // Every early payload word, and a stride through the rest, as a
        // length: re-sealed so the payload decoder must bound it.
        let body = payload(format, bytes);
        let n = body.len() / 8;
        for i in (0..n.min(64)).chain((64..n).step_by(n / 64 + 1)) {
            for v in [1u64 << 40, u64::MAX] {
                let mut hostile = body.clone();
                set_word(&mut hostile, i, v);
                check(format, &reseal(format, &hostile));
            }
        }
    }
}

#[test]
fn witness_lengths_that_overflow_are_rejected() {
    // Blob word counts of 2^61 - 1 and 1: counted in bytes, as version 1
    // did, their sum wraps to a small number a short payload satisfies.
    let mut words = vec![0u64; 5];
    words.extend([u64::MAX >> 3, 0, 1, 0]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let err = DivergenceWitness::from_bytes(&JWIT.seal(0, &bytes)).unwrap_err();
    assert!(err.starts_with("witness payload is malformed"), "{err}");
}

#[test]
fn version_1_logs_and_witnesses_are_refused_by_version() {
    // Version 1 `.jrpl`: the magic word, then the bare payload. With one
    // arrival, word 1 (read as the version) is that arrivals count.
    let log = [JRPL.magic, 1, 5_000_000, 0, 0];
    // Version 1 `.jwit`: magic, window start/end, run end, two digests,
    // two byte lengths, the blobs, a trailer. Word 1 is the window start.
    let witness = [
        JWIT.magic,
        2_016_000_000,
        2_048_000_000,
        5e9 as u64,
        1,
        2,
        0,
        0,
        0,
    ];
    for (format, words, version) in [(JRPL, &log[..], 1), (JWIT, &witness[..], 2_016_000_000)] {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let err = decode(format, &bytes).unwrap_err();
        let expected = format!(
            "{} version {version} is not the supported version 2",
            format.name
        );
        assert_eq!(err, expected);
    }
}

/// The seed log with `step` prepended to its first plan, replayed for 2 s.
fn replay_with(step: PlanStep) -> Result<Option<String>, String> {
    let mut log = ReplayLog::from_bytes(&seeds().jrpl).unwrap();
    log.plans[0].1.steps.insert(0, step);
    let mut engine = Engine::new(tiny_cfg(), plan());
    engine.arm_replay(log)?;
    engine.run_to_end();
    Ok(engine.replay_divergence().map(str::to_owned))
}

#[test]
fn plan_steps_no_scenario_compiles_are_refused_when_armed() {
    let compute = |instructions| PlanStep::Compute {
        component: Component::Application,
        instructions,
    };
    for step in [
        // A queue the broker lacks used to abort in `Broker::send`.
        PlanStep::MqSend {
            queue: QueueId(7),
            payload_bytes: 64,
        },
        PlanStep::MqReceive { queue: QueueId(7) },
        // `count * alloc_multiplier` used to overflow.
        PlanStep::Allocate {
            class: ObjectClass::Small,
            count: u32::MAX,
        },
        // A NaN instruction count never finishes computing.
        compute(f64::NAN),
        compute(f64::INFINITY),
        compute(-1.0),
    ] {
        let err = replay_with(step).unwrap_err();
        assert!(err.contains("cannot run"), "{step:?}: {err}");
    }
}

#[test]
fn range_scans_with_any_bounds_replay() {
    // A reversed or full-width range used to overflow the row count.
    for (lo, hi) in [(10, 5), (0, u64::MAX)] {
        let query = Query::RangeScan {
            table: TableId(0),
            lo,
            hi,
        };
        replay_with(PlanStep::Db { query }).unwrap();
    }
}

/// Applies `(word, op)` edits to a payload: 0 increments the word, 1 sets
/// it to 2^40, 2 flips bit `op >> 2`.
fn mutate_words(body: &mut [u8], edits: &[(usize, u8)]) {
    let n = body.len() / 8;
    for &(at, op) in edits {
        let i = at % n;
        let w = u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap());
        let v = match op % 3 {
            0 => w.wrapping_add(1),
            1 => 1 << 40,
            _ => w ^ (1 << (op >> 2)),
        };
        set_word(body, i, v);
    }
}

proptest! {
    #[test]
    fn byte_flips_are_refused_or_named(
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        for (format, bytes) in formats() {
            let mut flipped = bytes.to_vec();
            for &(at, bit) in &flips {
                flipped[at % bytes.len()] ^= 1 << bit;
            }
            // A flip anywhere in a frame is caught by the frame.
            prop_assert!(flipped == bytes || !check(format, &flipped));
            let mut body = payload(format, bytes);
            for &(at, bit) in &flips {
                let n = body.len();
                body[at % n] ^= 1 << bit;
            }
            check(format, &reseal(format, &body));
        }
    }

    /// A replay log mutated inside a valid frame either fails to decode,
    /// is refused when armed, or replays for the full 2 s without a panic.
    #[test]
    fn mutated_replay_logs_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..3),
    ) {
        let mut body = payload(JRPL, &seeds().jrpl);
        mutate_words(&mut body, &edits);
        if let Ok(log) = ReplayLog::from_bytes(&reseal(JRPL, &body)) {
            let mut engine = Engine::new(tiny_cfg(), plan());
            if engine.arm_replay(log).is_ok() {
                engine.run_to_end();
            }
        }
    }
}
