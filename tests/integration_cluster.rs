//! Fleet determinism and failover gate (DESIGN.md §13): a seeded chaos
//! storm over an `N`-node cluster must be bit-identical with lanes on and
//! off under both schedulers, the failover verdict must
//! account for every dispatched request (zero lost, bounded shed), and
//! a single-node run — the legacy engine path — must stay byte-identical
//! to a build without the cluster layer, fleet-only fault plans included.

mod common;

use common::per_core_hpm_digest;
use jas2004::{
    run_cluster, ClusterArtifacts, DispatchPolicy, Engine, FaultKind, FaultPlan, FaultWindow,
    RunPlan, SchedMode, SutConfig,
};
use jas_simkernel::SimDuration;
use proptest::prelude::*;
use std::sync::OnceLock;

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(2),
        steady: SimDuration::from_secs(12),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(2),
    }
}

/// A fleet storm: crash-stops, a gray failure, and a partition, all
/// inside the 14 s run.
fn storm_cfg(threads: usize, sched: SchedMode) -> SutConfig {
    let mut c = SutConfig::at_ir(8);
    c.machine.frequency_hz = 100_000.0;
    c.threads = threads;
    c.sched = sched;
    c.seed = 7;
    c.faults.plan = FaultPlan::parse("node-crash@4-10:0.1,node-slow@5-9:0.4,partition@6-8:0.5")
        .expect("storm spec parses");
    c
}

fn run_storm(threads: usize, sched: SchedMode) -> ClusterArtifacts {
    run_cluster(
        &storm_cfg(threads, sched),
        plan(),
        3,
        DispatchPolicy::LeastConn,
    )
}

/// The CI cluster gate: HPM, trace, and fault digests are identical with
/// lanes off (`--threads 1`) and on (`--threads 2`; any value above 1
/// takes the same lane path) under both schedulers, through a storm that
/// actually crashes nodes.
#[test]
fn chaos_storm_is_bit_identical_across_threads_and_schedulers() {
    let base = run_storm(1, SchedMode::Quantum);
    assert!(
        base.stats.crashes > 0,
        "the storm must crash nodes for the gate to mean anything: {:?}",
        base.stats
    );
    for threads in [1usize, 2] {
        for sched in [SchedMode::Quantum, SchedMode::Event] {
            if threads == 1 && sched == SchedMode::Quantum {
                continue;
            }
            let other = run_storm(threads, sched);
            assert_eq!(
                base.hpm_digest, other.hpm_digest,
                "fleet HPM digest diverges at threads {threads} / {sched:?}"
            );
            assert_eq!(
                base.trace_digest, other.trace_digest,
                "fleet trace digest diverges at threads {threads} / {sched:?}"
            );
            assert_eq!(
                base.fault_digest, other.fault_digest,
                "fleet fault digest diverges at threads {threads} / {sched:?}"
            );
            assert_eq!(base.node_hpm_digests, other.node_hpm_digests);
            assert_eq!(base.stats, other.stats);
        }
    }
}

/// The pinned failover verdict: warm restarts happen, no dispatched
/// request is ever silently lost, and admission control sheds a bounded
/// fraction rather than queueing unboundedly.
#[test]
fn storm_failover_verdict_is_pinned() {
    let art = run_storm(1, SchedMode::Quantum);
    let v = &art.verdict;
    assert_eq!(v.lost, 0, "requests lost in failover: {:?}", art.stats);
    assert!(art.stats.crashes > 0, "storm must crash: {:?}", art.stats);
    assert!(
        art.stats.restarts > 0,
        "crashed nodes must warm-restart: {:?}",
        art.stats
    );
    assert!(
        v.shed_fraction < 0.5,
        "admission control shed more than half the offered load: {v:?}"
    );
    // Completions + errors + crash-errors account for everything that is
    // not still in flight at the horizon.
    assert!(art.stats.completions > 0);
}

/// `--host-prof` on a fleet: the artifacts carry one host profile summed
/// over the node engines, so every node's quanta are counted once.
#[test]
fn fleet_host_profile_sums_the_node_engines() {
    let mut c = storm_cfg(1, SchedMode::Quantum);
    c.faults.plan = FaultPlan::default();
    assert!(run_cluster(&c, plan(), 2, DispatchPolicy::LeastConn)
        .host_profile
        .is_none());
    c.host_prof = true;
    let mut single = Engine::new(c.clone(), plan());
    single.run_to_end();
    let per_node = single.host_profile().expect("profiling is on").quanta;
    let art = run_cluster(&c, plan(), 2, DispatchPolicy::LeastConn);
    let fleet = art
        .host_profile
        .expect("fleet profile when profiling is on");
    assert_eq!(fleet.quanta, 2 * per_node);
    assert!(fleet.render().starts_with("HOSTPROF"));
}

/// Every dispatch policy is individually reproducible: two runs of the
/// same seed produce identical digests and stats.
#[test]
fn each_dispatch_policy_is_reproducible() {
    for policy in DispatchPolicy::ALL {
        let a = run_cluster(&storm_cfg(1, SchedMode::Quantum), plan(), 2, policy);
        let b = run_cluster(&storm_cfg(1, SchedMode::Quantum), plan(), 2, policy);
        assert_eq!(
            a.hpm_digest,
            b.hpm_digest,
            "{} is not reproducible",
            policy.name()
        );
        assert_eq!(a.fault_digest, b.fault_digest);
        assert_eq!(a.stats, b.stats);
    }
}

/// Must match `integration_determinism.rs`: the single-node golden value.
const GOLDEN_HPM_DIGEST: u64 = 4_647_797_724_068_322_213;

/// `--nodes 1` disables the LB path entirely, so a single-node "cluster"
/// is the legacy engine — even with fleet-only fault windows configured,
/// the golden HPM digest is unchanged (the node injector never arms on
/// fleet kinds).
#[test]
fn single_node_with_fleet_only_plan_keeps_the_golden_digest() {
    let mut c = SutConfig::at_ir(15);
    c.machine.frequency_hz = 500_000.0;
    c.seed = 1;
    c.faults.plan = FaultPlan::parse("node-crash@8-20:0.5,node-slow@5-30:1.0,partition@6-25:0.9")
        .expect("fleet spec parses");
    assert!(c.faults.plan.has_fleet() && !c.faults.plan.has_local());
    let golden_plan = RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(30),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    let mut e = Engine::new(c, golden_plan);
    e.run_to_end();
    assert!(
        e.fault_log().is_empty(),
        "fleet-only plan armed the node injector"
    );
    assert_eq!(
        per_core_hpm_digest(&e),
        GOLDEN_HPM_DIGEST,
        "fleet-only fault plan perturbed the single-node golden path"
    );
}

const FLEET_KINDS: [FaultKind; 3] = [
    FaultKind::NodeCrash,
    FaultKind::NodeSlow,
    FaultKind::Partition,
];

/// Builds a fleet-only plan from a seed: 1-4 windows with seed-derived
/// kinds, bounds, and rates (splitmix64 draws).
fn fleet_only_plan(seed: u64) -> FaultPlan {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let n = 1 + (next() % 4) as usize;
    let windows = (0..n)
        .map(|_| {
            let kind = FLEET_KINDS[(next() % 3) as usize];
            let start = (next() % 8) as f64;
            let len = (next() % 6) as f64;
            let rate = (next() % 101) as f64 / 100.0;
            FaultWindow::new(kind, start, start + len, rate)
        })
        .collect();
    FaultPlan::from_windows(windows)
}

fn quick_cfg(plan_spec: FaultPlan) -> SutConfig {
    let mut c = SutConfig::at_ir(10);
    c.machine.frequency_hz = 100_000.0;
    c.seed = 1;
    c.faults.plan = plan_spec;
    c
}

fn short_plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(2),
        steady: SimDuration::from_secs(8),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(2),
    }
}

fn healthy_baseline_digest() -> u64 {
    static BASELINE: OnceLock<u64> = OnceLock::new();
    *BASELINE.get_or_init(|| {
        let mut e = Engine::new(quick_cfg(FaultPlan::empty()), short_plan());
        e.run_to_end();
        per_core_hpm_digest(&e)
    })
}

proptest! {
    /// Satellite property: ANY fault plan containing only fleet-level
    /// kinds leaves the single-node HPM digest unchanged — `--nodes 1`
    /// disables the LB path, and fleet windows never arm the node-local
    /// injector.
    #[test]
    fn any_fleet_only_plan_leaves_the_single_node_digest_unchanged(seed in any::<u64>()) {
        let plan_spec = fleet_only_plan(seed);
        prop_assert!(plan_spec.has_fleet() && !plan_spec.has_local());
        let mut e = Engine::new(quick_cfg(plan_spec), short_plan());
        e.run_to_end();
        prop_assert!(e.fault_log().is_empty());
        prop_assert_eq!(per_core_hpm_digest(&e), healthy_baseline_digest());
    }
}
