//! Host threads are owned by what uses them. At `--threads 2` a single
//! engine runs on the calling thread and spawns none, while a fleet keeps
//! one lane per node across chunked runs, joins the lanes when dropped,
//! and gives the `--threads 1` results.
//!
//! This binary holds a single test on purpose: it counts the process's OS
//! threads, which concurrent tests in the same binary would disturb.

#![cfg(target_os = "linux")]

use jas2004::{Engine, EngineNode, RunPlan, SutConfig};
use jas_cluster::{Cluster, ClusterConfig};
use jas_simkernel::{SimDuration, SimTime};
use jas_workload::{Driver, DriverConfig, Metrics};

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(1),
        steady: SimDuration::from_secs(3),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(1),
    }
}

fn cfg(seed: u64, threads: usize) -> SutConfig {
    let mut c = SutConfig::at_ir(20);
    c.machine.frequency_hz = 200_000.0;
    c.seed = seed;
    c.threads = threads;
    c
}

/// The `Threads:` count from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status has a Threads: line")
        .trim()
        .parse()
        .expect("Threads: is a count")
}

/// Polls until the OS thread count reaches `want`: a joined thread can
/// linger in the count for a moment after `join` returns.
fn settle_to(want: usize) -> usize {
    for _ in 0..200 {
        if os_threads() == want {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    os_threads()
}

/// A single engine at `--threads 2`, run to the end in one-second
/// `run_to` chunks, never raises the OS thread count.
fn engine_spawns_no_threads() {
    let start = os_threads();
    let mut engine = Engine::new(cfg(1, 2), plan());
    let end = plan().end();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + SimDuration::from_secs(1)).min(end);
        engine.run_to(t);
        assert_eq!(
            os_threads(),
            start,
            "a single engine spawned threads by {}s",
            t.as_secs_f64()
        );
    }
}

const FLEET_NODES: usize = 3;

/// Runs a 3-node fleet to the end in one-second `Cluster::run` chunks and
/// returns its `(HPM, trace, fault)` digests. Calls `during` after every
/// chunk while the fleet is alive.
fn run_fleet_chunked(threads: usize, mut during: impl FnMut()) -> (u64, u64, u64) {
    let nodes: Vec<EngineNode> = (1..=FLEET_NODES as u64)
        .map(|seed| EngineNode::new(cfg(seed, threads), plan()))
        .collect();
    let cluster_cfg = ClusterConfig {
        nodes: FLEET_NODES,
        epoch: cfg(1, threads).quantum * 8,
        seed: 1,
        ..ClusterConfig::default()
    };
    let run = plan();
    let lb_metrics = Metrics::new(run.throughput_bin, run.steady_start(), run.end());
    let mut cluster = Cluster::new(cluster_cfg, nodes, lb_metrics);
    let mut arrivals = Driver::new(DriverConfig::at_ir(40));
    let mut t = SimTime::ZERO;
    while t < run.end() {
        t = (t + SimDuration::from_secs(1)).min(run.end());
        cluster.run(&mut arrivals, t);
        during();
    }
    cluster.finish();
    assert_eq!(cluster.verdict().lost, 0);
    (
        cluster.hpm_digest(),
        cluster.trace_digest(),
        cluster.fault_digest(),
    )
}

/// A fleet at `--threads 2` holds exactly one lane per node, joins them
/// all on drop, and matches `--threads 1`.
fn fleet_lanes_are_reused_and_joined(host_cpus: usize) {
    let lanes = if host_cpus > 1 { FLEET_NODES } else { 0 };
    let start = os_threads();
    let mut observed = Vec::new();
    let parallel = run_fleet_chunked(2, || observed.push(os_threads()));
    assert!(!observed.is_empty());
    for (chunk, &n) in observed.iter().enumerate() {
        assert_eq!(
            n,
            start + lanes,
            "fleet thread count after chunk {chunk}: one lane per node"
        );
    }
    assert_eq!(
        settle_to(start),
        start,
        "dropping the fleet must join every lane"
    );
    let serial = run_fleet_chunked(1, || {});
    assert_eq!(
        parallel, serial,
        "fleet --threads 2 diverges from --threads 1"
    );
}

#[test]
fn single_engine_spawns_no_threads_and_fleet_lanes_are_joined() {
    engine_spawns_no_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    fleet_lanes_are_reused_and_joined(host_cpus);
}
