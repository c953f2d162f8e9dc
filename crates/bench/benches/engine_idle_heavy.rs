//! Host-time payoff of skipping idle quanta on an idle-heavy scenario: a
//! trickle of requests (IR 1) on a slow clock leaves most quanta with
//! nothing to do, which is exactly the dead time the event scheduler
//! fast-forwards over. The `sched=quantum` row is the `Engine::no_skip`
//! oracle, which executes every quantum; the `sched=event` row is
//! `Engine::new`. Both run the same seeded simulation (bit-identical
//! results, gated by `integration_sched.rs`); the rows differ only in
//! host wall-clock. The CI perf gate requires the event row to beat the
//! quantum row by at least 1.3x.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Report};
use jas2004::{Engine, HpmEvent, RunPlan, SutConfig};
use jas_simkernel::SimDuration;
use std::time::Duration;

fn idle_plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(55),
        // A 1 s sampler period lets the event scheduler batch ~31 idle
        // quanta per skip instead of waking every 500 ms.
        hpm_period: SimDuration::from_secs(1),
        throughput_bin: SimDuration::from_secs(5),
    }
}

fn idle_cfg() -> SutConfig {
    let mut cfg = SutConfig::at_ir(1);
    // A slow modeled clock keeps busy quanta cheap, so per-quantum fixed
    // costs dominate the host time.
    cfg.machine.frequency_hz = 250_000.0;
    cfg
}

/// Runs `engine` to the end and reports its simulated work plus the
/// scheduler's skip fraction for the JSON row.
fn run(mut engine: Engine) -> Report {
    engine.run_to_end();
    black_box(engine.completed_requests());
    let totals = engine.total_counters();
    let stats = engine.sched_stats();
    (
        Some((
            totals.get(HpmEvent::Cycles) as f64,
            totals.get(HpmEvent::InstCompleted) as f64,
        )),
        vec![("idle_skip_fraction", stats.skip_fraction())],
    )
}

fn bench(c: &mut Criterion) {
    c.bench_function("engine_idle_heavy/sched=quantum", |b| {
        b.iter_with(|| run(Engine::no_skip(idle_cfg(), idle_plan())))
    });
    c.bench_function("engine_idle_heavy/sched=event", |b| {
        b.iter_with(|| run(Engine::new(idle_cfg(), idle_plan())))
    });
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
