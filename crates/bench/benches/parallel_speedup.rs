//! Single-engine host speed: one seeded IR-30 simulation through
//! `Engine::run_to_end`, reported as simulated cycles and micro-ops per
//! host second. An engine always runs on one host thread (fleets
//! parallelize by node lanes, see `scenario_flash_crowd`), so the row
//! keeps its historical `threads=1` name as the single-thread baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jas2004::{Engine, HpmEvent, RunPlan, SutConfig};
use jas_simkernel::SimDuration;
use std::time::Duration;

fn speedup_plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(15),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    }
}

/// Runs the scenario and reports `(simulated_cycles, micro_ops)` so the
/// bench JSON records simulation throughput, not just wall time.
fn run() -> (f64, f64) {
    let mut engine = Engine::new(SutConfig::at_ir(30), speedup_plan());
    engine.run_to_end();
    black_box(engine.completed_requests());
    let totals = engine.total_counters();
    (
        totals.get(HpmEvent::Cycles) as f64,
        totals.get(HpmEvent::InstCompleted) as f64,
    )
}

fn bench(c: &mut Criterion) {
    c.bench_function("engine_run_to_end/threads=1", |b| {
        b.iter_with(|| (Some(run()), Vec::new()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        // Room for all ten ~4 s samples before the sampling deadline.
        .measurement_time(Duration::from_secs(15));
    targets = bench
}
criterion_main!(benches);
