//! End-to-end gates for `jas-trace`: the trace-event stream is
//! bit-identical with and without idle skipping, a disabled tracer leaves the
//! golden HPM digest byte-for-byte unchanged (tracing observes the
//! simulation, it never perturbs it), and the exporters round-trip the
//! event stream losslessly.

mod common;

use common::per_core_hpm_digest;
use jas2004::{Engine, RunPlan, SutConfig, TraceSpec};
use jas_simkernel::SimDuration;
use jas_trace::{digest_of, export, json};
use proptest::prelude::*;

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(30),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    }
}

fn cfg(seed: u64) -> SutConfig {
    let mut c = SutConfig::at_ir(15);
    c.machine.frequency_hz = 500_000.0;
    c.seed = seed;
    c
}

fn traced_engine(seed: u64) -> Engine {
    let mut c = cfg(seed);
    c.trace = TraceSpec::all();
    let mut e = Engine::new(c, plan());
    e.run_to_end();
    e
}

/// Golden value shared with `integration_determinism.rs`: the complete
/// per-core counter state of the seed configuration.
const GOLDEN_HPM_DIGEST: u64 = 4_647_797_724_068_322_213;

/// Tracing-off runs reproduce the committed golden HPM digest exactly:
/// every emission site is behind the cached `trace_active` flag, so a
/// build with tracing compiled in but disabled is byte-identical to the
/// pre-tracing engine.
#[test]
fn disabled_tracer_reproduces_golden_hpm_digest() {
    let mut e = Engine::new(cfg(1), plan());
    e.run_to_end();
    assert!(e.tracer().is_empty(), "an off tracer records nothing");
    assert_eq!(
        per_core_hpm_digest(&e),
        GOLDEN_HPM_DIGEST,
        "a disabled tracer must leave the simulation byte-identical"
    );
}

/// The stronger property: tracing ON does not perturb the simulation
/// either — the golden HPM digest still holds with every category live.
#[test]
fn enabled_tracer_does_not_perturb_the_simulation() {
    let e = traced_engine(1);
    assert!(!e.tracer().is_empty());
    assert_eq!(
        per_core_hpm_digest(&e),
        GOLDEN_HPM_DIGEST,
        "tracing must observe the run, never alter it"
    );
}

/// Binary export is lossless: decode(encode(events)) gives back the same
/// events in the same order, and the digest computed from the decoded
/// stream matches the tracer's.
#[test]
fn binary_export_round_trips() {
    let e = traced_engine(1);
    let events = e.tracer().events();
    let blob = export::to_binary(events);
    let back = export::from_binary(&blob).expect("own output must decode");
    assert_eq!(events, back.as_slice());
    assert_eq!(digest_of(&back), e.tracer().digest());
}

/// The chrome://tracing JSON exporter produces parseable JSON carrying
/// every event, in order, with the digest stamped in `otherData`.
#[test]
fn chrome_json_export_is_well_formed() {
    let e = traced_engine(1);
    let text = export::to_chrome_json(e.tracer().events());
    let doc = json::parse(&text).expect("exporter output must parse");
    let events = doc
        .get("traceEvents")
        .and_then(json::JsonValue::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), e.tracer().len());
    let other = doc.get("otherData").expect("otherData object");
    let digest = other
        .get("traceDigest")
        .and_then(json::JsonValue::as_str)
        .expect("traceDigest string");
    assert_eq!(digest, format!("{:#018x}", e.tracer().digest()));
    let count = other
        .get("eventCount")
        .and_then(json::JsonValue::as_f64)
        .expect("eventCount number");
    assert_eq!(count as usize, e.tracer().len());
}

proptest! {
    /// Skip exactness holds for arbitrary seeds, not just the golden one:
    /// a short traced run yields the same digest and event count as the
    /// `Engine::no_skip` oracle.
    #[test]
    fn any_seed_trace_is_scheduler_invariant(seed in any::<u64>()) {
        let short = RunPlan {
            ramp_up: SimDuration::from_secs(2),
            steady: SimDuration::from_secs(8),
            hpm_period: SimDuration::from_millis(500),
            throughput_bin: SimDuration::from_secs(2),
        };
        let mut c = SutConfig::at_ir(10);
        c.machine.frequency_hz = 100_000.0;
        c.seed = seed;
        c.trace = TraceSpec::all();
        let run = |mut e: Engine| {
            e.run_to_end();
            (e.tracer().digest(), e.tracer().len())
        };
        prop_assert_eq!(run(Engine::no_skip(c.clone(), short)), run(Engine::new(c, short)));
    }
}
