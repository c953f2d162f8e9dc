//! Skip-exactness gate: the engine must produce bit-identical HPM, trace,
//! and fault digests to the `Engine::no_skip` oracle, which executes every
//! quantum — on a traced run, under a full fault storm, and across a
//! checkpoint/restore that crosses between the two in both directions.
//! The event scheduler's whole value is that skipping provably idle
//! quanta is *unobservable*; these tests are the observability check.

mod common;

use common::per_core_hpm_digest;
use jas2004::{
    checkpoint_bytes, restore_engine, restore_into, Engine, FaultPlan, RunPlan, SutConfig,
};
use jas_simkernel::{SimDuration, SimTime};
use jas_trace::TraceSpec;
use proptest::prelude::*;

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(30),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    }
}

/// A traced, lightly loaded configuration: low IR on a slow clock leaves
/// idle quanta for the event scheduler to skip, and tracing keeps the
/// TRACE digest non-trivial.
fn traced_cfg() -> SutConfig {
    let mut c = SutConfig::at_ir(10);
    c.machine.frequency_hz = 100_000.0;
    c.trace = TraceSpec::all();
    c
}

/// The storm from `integration_faults.rs`: every fault kind active, so
/// window-edge wake-ups, seize-level transitions, and GC-storm rolls all
/// exercise the idle predicate.
fn storm_cfg() -> SutConfig {
    let mut c = SutConfig::at_ir(15);
    c.machine.frequency_hz = 500_000.0;
    c.faults.plan = FaultPlan::parse(
        "db-lock@8-20:0.35,db-io@10-25:0.25,jms-redeliver@6-25:0.5,\
         jms-dup@6-25:0.3,pool-seize@12-25:0.6,gc-storm@8-25:0.08",
    )
    .expect("storm spec parses");
    c
}

fn finished(mut e: Engine) -> Engine {
    e.run_to_end();
    e
}

/// The skip-exactness gate: HPM, trace, and fault digests are identical
/// to the oracle's — and the engine actually skipped something, so the
/// equality is not vacuous.
#[test]
fn event_scheduler_digests_match_quantum() {
    let golden = finished(Engine::no_skip(traced_cfg(), plan()));
    assert!(!golden.tracer().is_empty());
    let event = finished(Engine::new(traced_cfg(), plan()));
    assert_eq!(
        per_core_hpm_digest(&event),
        per_core_hpm_digest(&golden),
        "HPM digest diverges"
    );
    assert_eq!(
        event.tracer().digest(),
        golden.tracer().digest(),
        "trace digest diverges"
    );
    assert_eq!(
        event.tracer().events(),
        golden.tracer().events(),
        "trace events diverge"
    );
    assert_eq!(event.fault_log().digest(), golden.fault_log().digest());
    let stats = event.sched_stats();
    assert!(
        stats.idle_ticks_skipped > 0,
        "a lightly loaded run must leave quanta to skip"
    );
    assert_eq!(
        stats.total_ticks(),
        golden.sched_stats().quanta_executed,
        "skipped + executed must cover the oracle's timeline"
    );
}

/// Under a full fault storm the idle predicate must keep skipping in
/// lockstep with the oracle: active windows pin quanta as non-idle, window
/// edges are registered wake-ups, and the digests stay bit-identical.
#[test]
fn event_scheduler_matches_quantum_under_a_fault_storm() {
    let quantum = finished(Engine::no_skip(storm_cfg(), plan()));
    assert!(
        !quantum.fault_log().is_empty(),
        "the storm must record events for the gate to mean anything"
    );
    let event = finished(Engine::new(storm_cfg(), plan()));
    assert_eq!(
        per_core_hpm_digest(&event),
        per_core_hpm_digest(&quantum),
        "HPM digest diverges under the storm"
    );
    assert_eq!(
        event.fault_log().digest(),
        quantum.fault_log().digest(),
        "fault digest diverges under the storm"
    );
    assert_eq!(event.completed_requests(), quantum.completed_requests());
}

/// A checkpoint taken by the oracle resumes with skipping, and one taken
/// with skipping resumes under the oracle; both finish bit-identically to
/// the oracle's straight run — the `.jckpt` payload carries the live
/// wake-ups either way.
#[test]
fn checkpoints_cross_schedulers_in_both_directions() {
    let golden = finished(Engine::no_skip(traced_cfg(), plan()));
    let golden_digest = per_core_hpm_digest(&golden);
    let golden_trace = golden.tracer().digest();

    let checkpoint_at_12s = |mut first: Engine| {
        first.run_to(SimTime::from_secs(12));
        checkpoint_bytes(&mut first)
    };
    let bytes = checkpoint_at_12s(Engine::no_skip(traced_cfg(), plan()));
    let skipping = restore_engine(&traced_cfg(), plan(), &bytes).expect("restore validates");
    let bytes = checkpoint_at_12s(Engine::new(traced_cfg(), plan()));
    let oracle =
        restore_into(Engine::no_skip(traced_cfg(), plan()), &bytes).expect("restore validates");

    for (direction, resumed) in [("no-skip -> skip", skipping), ("skip -> no-skip", oracle)] {
        let resumed = finished(resumed);
        assert_eq!(
            per_core_hpm_digest(&resumed),
            golden_digest,
            "restore {direction} diverges from the straight run"
        );
        assert_eq!(
            resumed.tracer().digest(),
            golden_trace,
            "trace digest diverges after restore {direction}"
        );
    }
}

proptest! {
    /// Skip exactness holds for arbitrary seeds, not just the golden one:
    /// a short run yields the same HPM digest and completion count as the
    /// oracle.
    #[test]
    fn any_seed_event_scheduler_matches_quantum(seed in any::<u64>()) {
        let short = RunPlan {
            ramp_up: SimDuration::from_secs(2),
            steady: SimDuration::from_secs(8),
            hpm_period: SimDuration::from_millis(500),
            throughput_bin: SimDuration::from_secs(2),
        };
        let mut c = SutConfig::at_ir(10);
        c.machine.frequency_hz = 100_000.0;
        c.seed = seed;
        let run = |mut e: Engine| {
            e.run_to_end();
            (per_core_hpm_digest(&e), e.completed_requests())
        };
        prop_assert_eq!(
            run(Engine::no_skip(c.clone(), short)),
            run(Engine::new(c, short))
        );
    }
}
