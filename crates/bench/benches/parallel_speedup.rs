//! Wall-clock speedup of the two-phase parallel engine: the same seeded
//! simulation executed serially (`threads = 1`) and with the parallel
//! phase spread over the engine's execute pool (`threads = 2`). Results
//! are bit-identical by construction (CI enforces this separately); this
//! bench tracks the wall-clock payoff on `Engine::run_to_end`.

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
fn run(threads: usize) -> (f64, f64) {
    let mut cfg = SutConfig::at_ir(30);
    cfg.threads = threads;
    let mut engine = Engine::new(cfg, speedup_plan());
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
        b.iter_with_work(|| run(1))
    });
    // Two lanes (the caller plus one helper) fit any multi-CPU host; on a
    // single-CPU host the pool clamps to the caller alone, so the row would
    // only repeat threads=1.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if host_cpus > 1 {
        c.bench_function("engine_run_to_end/threads=2", |b| {
            b.iter_with_work(|| run(2))
        });
    } else {
        println!("engine_run_to_end/threads=2              skipped: host has 1 CPU");
    }
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
