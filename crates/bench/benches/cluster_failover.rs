//! Host-time cost of the load-balanced fleet riding out a crash storm:
//! three engine stacks behind the LB, seeded crash-stops with warm
//! restarts from quiescent snapshots, redispatch of idempotent in-flight
//! work, and admission control. The row's extra fields record the mean
//! simulated crash-to-restart latency (`failover_ms`) and the fraction
//! of offered load shed under the storm (`shed_fraction`); the work
//! fields are the fleet-aggregate simulated cycles and instructions.
//! The `threads=2` row runs the same storm with each node's epochs on
//! its own lane thread (results are bit-identical; only host time moves).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Report};
use jas2004::{run_cluster, DispatchPolicy, FaultPlan, HpmEvent, RunPlan, SutConfig};
use jas_simkernel::SimDuration;
use std::time::Duration;

fn storm_plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(2),
        steady: SimDuration::from_secs(12),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(2),
    }
}

fn storm_cfg(threads: usize) -> SutConfig {
    let mut cfg = SutConfig::at_ir(8);
    cfg.threads = threads;
    cfg.machine.frequency_hz = 100_000.0;
    cfg.seed = 7;
    cfg.faults.plan = FaultPlan::parse("node-crash@4-10:0.1,node-slow@5-9:0.4,partition@6-8:0.5")
        .expect("storm spec parses");
    cfg
}

/// Runs the fleet and reports `((simulated_cycles, instructions),
/// extra-fields)` so the JSON row records simulation throughput plus the
/// failover latency and shed fraction.
fn run(threads: usize) -> Report {
    let art = run_cluster(
        &storm_cfg(threads),
        storm_plan(),
        3,
        DispatchPolicy::LeastConn,
    );
    black_box(art.hpm_digest);
    assert_eq!(art.verdict.lost, 0, "failover lost requests");
    let agg = art.fleet_hpm.aggregate();
    (
        Some((
            agg.get(HpmEvent::Cycles) as f64,
            agg.get(HpmEvent::InstCompleted) as f64,
        )),
        vec![
            ("failover_ms", art.failover_ms),
            ("shed_fraction", art.verdict.shed_fraction),
        ],
    )
}

fn bench(c: &mut Criterion) {
    c.bench_function("cluster_failover/nodes=3", |b| b.iter_with(|| run(1)));
    // Node lanes need a second CPU; on a single-CPU host the fleet runs
    // serially, so the row would only repeat threads=1.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if host_cpus > 1 {
        c.bench_function("cluster_failover/nodes=3/threads=2", |b| {
            b.iter_with(|| run(2))
        });
    } else {
        println!("cluster_failover/nodes=3/threads=2       skipped: host has 1 CPU");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(5));
    targets = bench
}
criterion_main!(benches);
