//! Host cost of the instruction-stream generators, the simulator's
//! hottest per-op structure after the cache model.
//!
//! Three rows, each from the same seeded streams:
//! - `stream_gen/one`: one application-profile generator drained alone.
//! - `stream_gen/engine_layout`: the 4 cores × 11 components = 44
//!   generators an engine builds, forked and salted as `Engine::new` forks
//!   them, drained round-robin in 256-op bursts. A compute segment is
//!   70k–180k real instructions over the 650× instruction scale, i.e. a
//!   few hundred modelled ops, so 256 is a slice-sized burst. Bursts
//!   hopping between generators is what exposes how much host memory
//!   their tables touch.
//! - `stream_gen/engine_layout_setup`: building those 44 generators.
//!
//! The two drain rows draw `ops` micro-ops per iteration (the row's extra
//! field), so ns/op = `median_ns / ops`. Host-time rows are recorded in
//! BENCH_pr.json, not gated: they drift with the host.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jas2004::profiles::{profile_for, FootprintConfig};
use jas2004::SutConfig;
use jas_cpu::StreamGen;
use jas_jvm::Component;
use jas_simkernel::Rng;
use std::time::Duration;

/// Ops per burst before moving on to the next generator.
const BURST: usize = 256;
/// Ops per iteration: 24 rounds of one burst on each of 44 generators.
const OPS: usize = 44 * BURST * 24;

/// The generators `Engine::new` builds for `cfg`, in its fork order
/// (component-major).
fn engine_layout(cfg: &SutConfig) -> Vec<StreamGen> {
    let fp = FootprintConfig::of(cfg);
    let cores = cfg.machine.topology.cores();
    let mut rng = Rng::new(1);
    let mut gens = Vec::new();
    for &c in Component::ALL.iter() {
        for core in 0..cores {
            gens.push(StreamGen::new(
                profile_for(c, &fp),
                rng.fork(&format!("{}/{core}", c.name())),
                core as u64 + 1,
            ));
        }
    }
    gens
}

/// Draws `n` ops from `gen`, as the engine's slice loop does.
fn drain(gen: &mut StreamGen, n: usize) -> u64 {
    let (mut acc, mut left) = (0u64, n);
    gen.drive(|ia, op| {
        acc = acc.wrapping_add(ia);
        black_box(op);
        left -= 1;
        left > 0
    });
    acc
}

fn bench(c: &mut Criterion) {
    let cfg = SutConfig::at_ir(40);
    let mut one = StreamGen::new(
        profile_for(Component::Application, &FootprintConfig::of(&cfg)),
        Rng::new(1).fork("bench/stream_gen"),
        1,
    );
    c.bench_function("stream_gen/one", |b| {
        b.iter_with(|| {
            black_box(drain(&mut one, OPS));
            (None, vec![("ops", OPS as f64)])
        })
    });
    let mut gens = engine_layout(&cfg);
    c.bench_function("stream_gen/engine_layout", |b| {
        b.iter_with(|| {
            let mut acc = 0u64;
            for _ in 0..OPS / (gens.len() * BURST) {
                for g in &mut gens {
                    acc = acc.wrapping_add(drain(g, BURST));
                }
            }
            black_box(acc);
            (None, vec![("ops", OPS as f64)])
        })
    });
    c.bench_function("stream_gen/engine_layout_setup", |b| {
        b.iter(|| engine_layout(&cfg))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
