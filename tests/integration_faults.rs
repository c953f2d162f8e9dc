//! Fault-injection determinism gate: a faulted run — retries, breaker
//! trips, redeliveries, dead letters, GC storms and all — must be
//! bit-identical with and without idle skipping, and an empty fault plan
//! must leave the engine byte-for-byte on its legacy path (the golden
//! HPM digest in `integration_determinism.rs` pins that separately).

mod common;

use common::per_core_hpm_digest;
use jas2004::{Engine, FaultCounters, FaultPlan, RunPlan, SutConfig};
use jas_simkernel::SimDuration;
use proptest::prelude::*;

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(30),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    }
}

/// A storm covering every fault kind inside the 35 s run.
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

#[test]
fn storm_exercises_the_resilience_machinery() {
    let mut e = Engine::new(storm_cfg(), plan());
    e.run_to_end();
    let c = e.fault_counters();
    assert!(c.total_injected() > 0, "nothing injected: {c:?}");
    assert!(c.retries > 0, "no retries scheduled: {c:?}");
    assert!(
        c.redeliveries > 0,
        "jms-redeliver at rate 0.5 must push work back: {c:?}"
    );
    assert!(
        e.completed_requests() > 100,
        "the stack must keep serving through the storm"
    );
    let v = e.metrics().verdict();
    assert!(v.retries > 0);
    assert!(v.degraded, "a storm run must be marked degraded");
}

proptest! {
    /// Digest pinning as a property: for any seed, a faulted run is
    /// bit-identical to the `Engine::no_skip` oracle's — HPM counters and
    /// the fault-event series both. Uses a short run so the
    /// default case count stays affordable.
    #[test]
    fn any_seed_faulted_digest_is_scheduler_invariant(seed in any::<u64>()) {
        let short = RunPlan {
            ramp_up: SimDuration::from_secs(2),
            steady: SimDuration::from_secs(8),
            hpm_period: SimDuration::from_millis(500),
            throughput_bin: SimDuration::from_secs(2),
        };
        let mut c = SutConfig::at_ir(10);
        c.machine.frequency_hz = 100_000.0;
        c.seed = seed;
        c.faults.plan = FaultPlan::parse(
            "db-lock@2-8:0.4,jms-redeliver@2-8:0.5,gc-storm@2-8:0.1",
        )
        .expect("spec parses");
        let mut quantum = Engine::no_skip(c.clone(), short);
        quantum.run_to_end();
        let mut event = Engine::new(c, short);
        event.run_to_end();
        prop_assert_eq!(quantum.fault_log().digest(), event.fault_log().digest());
        prop_assert_eq!(per_core_hpm_digest(&quantum), per_core_hpm_digest(&event));
        prop_assert_eq!(quantum.fault_counters(), event.fault_counters());
    }
}

#[test]
fn empty_plan_is_zero_cost() {
    let mut c = SutConfig::at_ir(15);
    c.machine.frequency_hz = 500_000.0;
    let mut e = Engine::new(c, plan());
    e.run_to_end();
    assert_eq!(*e.fault_counters(), FaultCounters::default());
    assert!(e.fault_log().is_empty());
    // An empty log digests to the bare FNV-1a offset basis.
    assert_eq!(e.fault_log().digest(), 0xcbf2_9ce4_8422_2325);
    let v = e.metrics().verdict();
    assert_eq!(v.retries, 0);
    assert_eq!(v.errors, 0);
    assert!(!v.degraded);
}
