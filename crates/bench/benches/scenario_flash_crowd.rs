//! Host-time cost of the flash-crowd scenario: the pinned
//! `scenarios/flash-crowd.toml` spec (6x spike on a 3-node least-conn
//! fleet with the reactive autoscaler armed) run end to end through the
//! fleet path. The row's extra fields record the fraction of offered
//! load shed by admission control (`shed_fraction`) and the fraction of
//! completions that missed the web p90 SLO (`p99_slo_miss`); the work
//! fields are the fleet-aggregate simulated cycles and instructions.
//! The machine is scaled down the same way the cluster_failover bench
//! scales it — the digest-pinned full-scale runs live in the CI
//! scenario matrix, this row tracks host cost and SLO headroom. The
//! `threads=2` row runs each node's epochs on its own lane thread
//! (results are bit-identical; only host time moves).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Report};
use jas2004::{run_cluster_with, HpmEvent, RunPlan, SutConfig};
use jas_scenario::ScenarioSpec;
use jas_simkernel::SimDuration;
use std::time::Duration;

fn spec() -> ScenarioSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/flash-crowd.toml"
    );
    let text = std::fs::read_to_string(path).expect("seed scenario readable");
    ScenarioSpec::parse(&text).expect("seed scenario parses")
}

/// Runs the scenario and reports `((simulated_cycles, instructions),
/// extra-fields)` so the JSON row records simulation throughput plus the
/// shed fraction and SLO-miss fraction under the spike.
fn run(threads: usize) -> Report {
    let spec = spec();
    let mut cfg = SutConfig::at_ir(spec.ir);
    cfg.threads = threads;
    cfg.machine.frequency_hz = 100_000.0;
    cfg.seed = 7;
    cfg.curve = spec.compile_curve();
    cfg.faults.plan = spec.plan();
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(spec.ramp_s),
        steady: SimDuration::from_secs(spec.steady_s),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    let art = run_cluster_with(
        &cfg,
        plan,
        spec.nodes,
        spec.dispatch,
        spec.autoscale,
        Some(spec.max_in_flight),
        None,
    );
    black_box(art.hpm_digest);
    assert_eq!(art.verdict.lost, 0, "flash crowd lost requests");
    let agg = art.fleet_hpm.aggregate();
    (
        Some((
            agg.get(HpmEvent::Cycles) as f64,
            agg.get(HpmEvent::InstCompleted) as f64,
        )),
        vec![
            ("shed_fraction", art.verdict.shed_fraction),
            (
                "p99_slo_miss",
                art.metrics.slo_miss_fraction(spec.slo.web_p90_s),
            ),
        ],
    )
}

fn bench(c: &mut Criterion) {
    c.bench_function("scenario_flash_crowd/nodes=3", |b| b.iter_with(|| run(1)));
    // Node lanes need a second CPU; on a single-CPU host the fleet runs
    // serially, so the row would only repeat threads=1.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if host_cpus > 1 {
        c.bench_function("scenario_flash_crowd/nodes=3/threads=2", |b| {
            b.iter_with(|| run(2))
        });
    } else {
        println!("scenario_flash_crowd/nodes=3/threads=2   skipped: host has 1 CPU");
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
