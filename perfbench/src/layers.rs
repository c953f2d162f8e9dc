//! Per-layer metrics from the traced run of a workload.
//!
//! Counts are read through the engines' public accessors. Host time comes
//! from spans the benchmark puts around calls into each layer — the chunk
//! calls, and the fleet's node and arrival adapters in `system` — plus the
//! engines' own HOSTPROF sections, read through `Engine::host_profile()`.
//! Two hot CPU-model calls and the workload driver's arrival draw are also
//! timed in isolation.

use crate::system::{NodeTimes, Run, System, EPOCH_QUANTA};
use jas2004::cli::CliOptions;
use jas2004::profiles::{profile_for, FootprintConfig};
use jas2004::{CounterFile, Engine, HpmEvent};
use jas_appserver::PoolKind;
use jas_cpu::{reconcile_core, Machine, StreamGen};
use jas_jvm::Component;
use jas_simkernel::Rng;
use jas_trace::HostSection;
use jas_workload::{Driver, DriverConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric and its unit, in report order.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("engine.quanta_executed", "count"),
    ("engine.quanta_skipped", "count"),
    ("engine.skip_frac", "ratio"),
    ("engine.host_us_per_quantum", "us"),
    ("engine.schedule_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("cpu.uops", "count"),
    ("cpu.execute_ms", "ms"),
    ("cpu.execute_ns_per_uop", "ns"),
    ("cpu.l1_miss_events", "count"),
    ("cpu.reconcile_ms", "ms"),
    ("cpu.reconcile_ns_per_event", "ns"),
    ("cpu.l1d_hit_frac", "ratio"),
    ("cpu.derat_misses", "count"),
    ("cpu.dtlb_misses", "count"),
    ("cpu.br_mispredicts", "count"),
    ("cpu.exec_record_ns", "ns"),
    ("cpu.reconcile_core_ns", "ns"),
    ("jvm.gc_count", "count"),
    ("jvm.gc_ms", "ms"),
    ("jvm.gc_ms_per_collection", "ms"),
    ("jvm.alloc_mb", "MB"),
    ("jvm.lock_contended_frac", "ratio"),
    ("db.pool_accesses", "count"),
    ("db.pool_hit_frac", "ratio"),
    ("db.io_requests", "count"),
    ("db.txn_committed", "count"),
    ("db.txn_aborted", "count"),
    ("db.lock_conflicts", "count"),
    ("db.lock_timeouts", "count"),
    ("appserver.web_queued_frac", "ratio"),
    ("appserver.jdbc_queued_frac", "ratio"),
    ("appserver.mq_redelivered", "count"),
    ("appserver.retries", "count"),
    ("appserver.errors", "count"),
    ("workload.arrivals", "count"),
    ("workload.next_arrival_ns", "ns"),
    ("cluster.epochs", "count"),
    ("cluster.node_run_ms", "ms"),
    ("cluster.lb_ms", "ms"),
    ("cluster.epoch_critical_ms", "ms"),
    ("cluster.node_parallel_ceiling", "ratio"),
    ("cluster.snapshot_ms", "ms"),
    ("cluster.dispatched", "count"),
    ("cluster.shed_frac", "ratio"),
    ("cluster.scale_events", "count"),
    ("cluster.lost", "count"),
    ("hpm.instruments_ms", "ms"),
    ("trace.events", "count"),
    ("faults.injected", "count"),
    ("faults.events", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// Ops of the run's application stream per timed block.
const BLOCK_OPS: usize = 1 << 16;
/// Blocks timed, after [`WARM_BLOCKS`] that fill the modelled caches.
const BLOCKS: usize = 32;
const WARM_BLOCKS: usize = 8;
/// Arrival draws timed in isolation, at the least.
const MIN_DRAWS: u64 = 200_000;

/// Isolated timings of hot calls.
#[derive(Clone, Copy, Debug)]
pub struct Micro {
    /// ns per `CorePrivate::exec_record` call.
    pub exec_record_ns: f64,
    /// ns per event `reconcile_core` drains.
    pub reconcile_core_ns: f64,
    /// ns per `Driver::next_arrival` call over the run's own stream.
    pub next_arrival_ns: f64,
    /// Arrivals a single engine admits over the run.
    pub arrivals: u64,
}

/// Times `CorePrivate::exec_record` and `reconcile_core` on one core over
/// the application stream `StreamGen` builds from the run's profile, and
/// the run's own arrival stream.
#[must_use]
pub fn micro(o: &CliOptions) -> Micro {
    let cfg = &o.config;
    // Sized as the engine sizes its streams.
    let fp = FootprintConfig {
        heap_bytes: cfg.jvm.heap.capacity,
        jit_code_bytes: 10 << 20,
        buffer_pool_bytes: cfg.db.pool_pages as u64 * cfg.db.page_bytes,
    };
    let mut gen = StreamGen::new(
        profile_for(Component::Application, &fp),
        Rng::new(cfg.seed).fork("perfbench/exec_record"),
        1,
    );
    let mut machine = Machine::new(cfg.machine.clone());
    let mut cores = machine.take_cores();
    let (cost, addr_map) = (cfg.machine.cost, cfg.machine.addr_map);
    let chip = cfg.machine.topology.chip_of_core(0);
    let mut ops = Vec::with_capacity(BLOCK_OPS);
    let mut events = Vec::new();
    let (mut exec_s, mut exec_ops, mut rec_s, mut rec_events) = (0.0, 0, 0.0, 0);
    for block in 0..WARM_BLOCKS + BLOCKS {
        ops.clear();
        ops.extend((0..BLOCK_OPS).map(|_| gen.next_op()));
        let start = Instant::now();
        let mut cycles = 0.0;
        for &(ia, op) in &ops {
            cycles += cores[0].exec_record(&cost, addr_map, ia, op, &mut events);
        }
        black_box(cycles);
        let exec = start.elapsed().as_secs_f64();
        let drained = events.len();
        let start = Instant::now();
        black_box(reconcile_core(
            &mut cores[0],
            chip,
            &cost,
            machine.mem_mut(),
            &mut events,
        ));
        let rec = start.elapsed().as_secs_f64();
        if block >= WARM_BLOCKS {
            exec_s += exec;
            exec_ops += BLOCK_OPS;
            rec_s += rec;
            rec_events += drained;
        }
    }
    machine.restore_cores(cores);
    let (arrivals, next_arrival_ns) = arrival_draws(o);
    Micro {
        exec_record_ns: exec_s * 1e9 / exec_ops as f64,
        reconcile_core_ns: ratio(rec_s * 1e9, rec_events as f64),
        next_arrival_ns,
        arrivals,
    }
}

/// Replays the run's arrival stream — the workload driver is seeded apart
/// from `--seed` — to count what a single engine admits (the arrivals
/// before the end of its last quantum) and to time `Driver::next_arrival`.
fn arrival_draws(o: &CliOptions) -> (u64, f64) {
    let q = o.config.quantum.as_nanos().max(1);
    let limit = o.plan.end().as_nanos().div_ceil(q) * q;
    let (mut admitted, mut draws, mut secs) = (None, 0, 0.0);
    while draws < MIN_DRAWS {
        let mut driver =
            Driver::with_curve(DriverConfig::at_ir(o.config.ir), o.config.curve.clone());
        let (mut at, mut n) = (0u64, 0u64);
        let start = Instant::now();
        while at < limit {
            at = at.saturating_add(black_box(driver.next_arrival()).0.as_nanos());
            n += 1;
        }
        secs += start.elapsed().as_secs_f64();
        draws += n;
        admitted.get_or_insert(n.saturating_sub(1));
    }
    (admitted.unwrap_or(0), secs * 1e9 / draws as f64)
}

/// What the per-layer metrics are computed from.
pub struct Traced<'a> {
    /// The workload's parsed arguments (with `--host-prof`).
    pub o: &'a CliOptions,
    /// The traced system, after its run.
    pub system: &'a System,
    /// The traced run's timings.
    pub run: &'a Run,
    /// The same workload's `run_s` untraced, in this process.
    pub untraced_run_s: f64,
    /// The fleet nodes' spans (empty on one node).
    pub node_times: &'a NodeTimes,
    /// Isolated timings.
    pub micro: Micro,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in [`PER_LAYER`] order.
#[must_use]
pub fn per_layer(t: &Traced<'_>) -> Vec<(&'static str, f64, &'static str)> {
    let engines = t.system.engines();
    let prof = t
        .system
        .host_profile()
        .expect("the traced run profiles the host");
    let host_s = |s: HostSection| {
        let i = HostSection::ALL
            .iter()
            .position(|&x| x == s)
            .expect("every section is listed");
        prof[i]
    };
    let sum = |f: &dyn Fn(&Engine) -> u64| engines.iter().map(|&e| f(e)).sum::<u64>() as f64;
    let mut hpm = CounterFile::new();
    for e in &engines {
        hpm.merge(&e.total_counters());
    }
    let count = |ev: HpmEvent| hpm.get(ev) as f64;
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();

    let executed = sum(&|e| e.sched_stats().quanta_executed);
    let skipped = sum(&|e| e.sched_stats().idle_ticks_skipped);
    m.insert("engine.quanta_executed", executed);
    m.insert("engine.quanta_skipped", skipped);
    m.insert("engine.skip_frac", ratio(skipped, executed + skipped));
    m.insert(
        "engine.host_us_per_quantum",
        ratio(t.run.run_s * 1e6, executed),
    );
    m.insert("engine.schedule_ms", host_s(HostSection::Schedule) * 1e3);
    m.insert("engine.plan_ms", host_s(HostSection::Plan) * 1e3);

    let uops = count(HpmEvent::InstCompleted);
    // Everything exec_record hands to reconcile: I-side and load misses,
    // write-through stores and prefetches.
    let events: f64 = [
        HpmEvent::InstFromL2,
        HpmEvent::InstFromL3,
        HpmEvent::InstFromMem,
        HpmEvent::LoadMissL1,
        HpmEvent::StoreRefs,
        HpmEvent::L1Prefetch,
        HpmEvent::L2Prefetch,
    ]
    .into_iter()
    .map(count)
    .sum();
    let execute_s = host_s(HostSection::Execute);
    let reconcile_s = host_s(HostSection::Reconcile);
    m.insert("cpu.uops", uops);
    m.insert("cpu.execute_ms", execute_s * 1e3);
    m.insert("cpu.execute_ns_per_uop", ratio(execute_s * 1e9, uops));
    m.insert("cpu.l1_miss_events", events);
    m.insert("cpu.reconcile_ms", reconcile_s * 1e3);
    m.insert(
        "cpu.reconcile_ns_per_event",
        ratio(reconcile_s * 1e9, events),
    );
    m.insert(
        "cpu.l1d_hit_frac",
        1.0 - ratio(count(HpmEvent::LoadMissL1), count(HpmEvent::LoadRefs)),
    );
    m.insert("cpu.derat_misses", count(HpmEvent::DeratMiss));
    m.insert("cpu.dtlb_misses", count(HpmEvent::DtlbMiss));
    m.insert(
        "cpu.br_mispredicts",
        count(HpmEvent::BrMpredCond) + count(HpmEvent::BrMpredTarget),
    );
    m.insert("cpu.exec_record_ns", t.micro.exec_record_ns);
    m.insert("cpu.reconcile_core_ns", t.micro.reconcile_core_ns);

    let collections = sum(&|e| e.vgc().entries().len() as u64);
    let gc_ms = host_s(HostSection::Gc) * 1e3;
    m.insert("jvm.gc_count", collections);
    m.insert("jvm.gc_ms", gc_ms);
    m.insert("jvm.gc_ms_per_collection", ratio(gc_ms, collections));
    m.insert(
        "jvm.alloc_mb",
        sum(&|e| e.jvm().allocated_bytes()) / f64::from(1u32 << 20),
    );
    let contended = sum(&|e| {
        let s = e.jvm().monitors_stats();
        s.spins + s.os_blocks
    });
    m.insert(
        "jvm.lock_contended_frac",
        ratio(contended, sum(&|e| e.jvm().monitors_stats().acquisitions)),
    );

    let accesses = sum(&|e| e.db().pool_stats().accesses);
    m.insert("db.pool_accesses", accesses);
    m.insert(
        "db.pool_hit_frac",
        ratio(sum(&|e| e.db().pool_stats().hits), accesses),
    );
    m.insert("db.io_requests", sum(&|e| e.db().device_stats().requests));
    m.insert("db.txn_committed", sum(&|e| e.db().txn_stats().committed));
    m.insert("db.txn_aborted", sum(&|e| e.db().txn_stats().aborted));
    m.insert("db.lock_conflicts", sum(&|e| e.db().txn_stats().conflicts));
    m.insert("db.lock_timeouts", sum(&|e| e.db().txn_stats().timeouts));

    let queued = |kind: PoolKind| {
        ratio(
            sum(&|e| e.appserver().usage(kind).queued),
            sum(&|e| e.appserver().usage(kind).requests),
        )
    };
    m.insert("appserver.web_queued_frac", queued(PoolKind::WebContainer));
    m.insert("appserver.jdbc_queued_frac", queued(PoolKind::Jdbc));
    m.insert(
        "appserver.mq_redelivered",
        sum(&|e| e.appserver().broker().stats().redelivered),
    );
    m.insert("appserver.retries", sum(&|e| e.fault_counters().retries));
    m.insert("appserver.errors", sum(&|e| e.fault_counters().errors));

    // The fleet's numbers come from its adapters. One node has no LB, so
    // every cluster metric reads 0 there.
    let (lb_s, lb_events) = match t.system {
        System::Single(_) => {
            m.insert("workload.arrivals", t.micro.arrivals as f64);
            m.insert("workload.next_arrival_ns", t.micro.next_arrival_ns);
            for &(name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("cluster.")) {
                m.insert(name, 0.0);
            }
            (0.0, 0.0)
        }
        System::Fleet(f) => {
            let c = &f.cluster;
            let nt = t.node_times;
            let stats = c.stats();
            let verdict = c.verdict();
            let epoch_ns = (t.o.config.quantum * EPOCH_QUANTA).as_nanos().max(1);
            let lb_s = t.run.advance_s - nt.run_to_s;
            let critical_s: f64 = nt.slowest_s.values().sum();
            let draws = f.arrivals.draws as f64;
            m.insert("workload.arrivals", draws);
            m.insert(
                "workload.next_arrival_ns",
                ratio(f.arrivals.secs * 1e9, draws),
            );
            m.insert("cluster.epochs", (c.now().as_nanos() / epoch_ns) as f64);
            m.insert("cluster.node_run_ms", nt.run_to_s * 1e3);
            m.insert("cluster.lb_ms", lb_s * 1e3);
            m.insert("cluster.epoch_critical_ms", critical_s * 1e3);
            m.insert(
                "cluster.node_parallel_ceiling",
                ratio(nt.run_to_s, critical_s + lb_s),
            );
            m.insert("cluster.snapshot_ms", nt.snapshot_s * 1e3);
            m.insert("cluster.dispatched", stats.dispatched as f64);
            m.insert("cluster.shed_frac", verdict.shed_fraction);
            m.insert(
                "cluster.scale_events",
                (stats.scale_ups + stats.scale_downs) as f64,
            );
            m.insert("cluster.lost", verdict.lost as f64);
            (lb_s, c.log().len() as f64)
        }
    };

    m.insert("hpm.instruments_ms", host_s(HostSection::Instruments) * 1e3);
    m.insert("trace.events", sum(&|e| e.tracer().len() as u64));
    m.insert(
        "faults.injected",
        sum(&|e| e.fault_counters().total_injected()),
    );
    m.insert(
        "faults.events",
        sum(&|e| e.fault_log().len() as u64) + lb_events,
    );

    let attributed = prof.iter().sum::<f64>() + lb_s;
    m.insert(
        "bench.trace_overhead_frac",
        ratio(t.run.run_s, t.untraced_run_s) - 1.0,
    );
    m.insert(
        "bench.unattributed_frac",
        1.0 - ratio(attributed, t.run.run_s),
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = *m.get(name).expect("every per-layer metric is computed");
            (name, value, unit)
        })
        .collect()
}

/// Prints the shares that locate the host time: HOSTPROF's execute and
/// reconcile sections (the CPU model) against the traced `run_s`; the
/// plan section, which bounds what faster appserver, DB or allocation
/// code can save; and the time no span covers.
pub fn print_shares(metrics: &[(&str, f64, &str)], run_s: f64) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    let share = |ms: f64| 100.0 * ratio(ms / 1e3, run_s);
    let (execute, reconcile) = (get("cpu.execute_ms"), get("cpu.reconcile_ms"));
    println!(
        "  cpu.execute_ms + cpu.reconcile_ms = {:.1}% of run_s (execute {:.1}%, reconcile {:.1}%)",
        share(execute + reconcile),
        share(execute),
        share(reconcile)
    );
    println!(
        "  engine.plan_ms = {:.2}% of run_s: the most faster appserver, DB or allocation code can save here \
         (bookkeeping after a compute segment runs inside the reconcile section)",
        share(get("engine.plan_ms"))
    );
    println!(
        "  bench.unattributed_frac = {:.1}% of run_s is inside no span",
        100.0 * get("bench.unattributed_frac")
    );
}
