//! Cost of writing and restoring a `.jckpt` engine checkpoint.
//!
//! The row's `mean_ns` covers the whole scenario (build, run to the
//! checkpoint tick, write, restore); the interesting numbers are the
//! `ckpt_write_ms`/`restore_ms` fields the routine times itself — those
//! are what CI's perf-regression gate tracks, since the replay-smoke path
//! pays them on every run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jas2004::{checkpoint_bytes, restore_engine, Engine, RunPlan, SutConfig};
use jas_simkernel::{SimDuration, SimTime};
use std::time::{Duration, Instant};

fn checkpoint_plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(2),
        steady: SimDuration::from_secs(8),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(2),
    }
}

fn bench(c: &mut Criterion) {
    c.bench_function("engine_checkpoint/roundtrip", |b| {
        b.iter_with(|| {
            let cfg = SutConfig::at_ir(20);
            let plan = checkpoint_plan();
            let mut engine = Engine::new(cfg.clone(), plan);
            engine.run_to(SimTime::from_secs(3));

            let start = Instant::now();
            let bytes = checkpoint_bytes(&mut engine);
            let ckpt_write_ms = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let restored = restore_engine(&cfg, plan, &bytes).expect("self round-trip restores");
            let restore_ms = start.elapsed().as_secs_f64() * 1e3;

            black_box((bytes.len(), restored.now()));
            (
                None,
                vec![("ckpt_write_ms", ckpt_write_ms), ("restore_ms", restore_ms)],
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
