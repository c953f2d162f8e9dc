//! Experiment runner: executes a configured run and packages every
//! instrument's output into [`RunArtifacts`] for the figure layer.

use crate::config::{RunPlan, SutConfig};
use crate::engine::Engine;
use jas_appserver::PoolKind;
use jas_cpu::CounterFile;
use jas_db::{DeviceStats, PoolStats, TxnStats};
use jas_faults::FaultCounters;
use jas_hpm::{
    Flatness, GcLogEntry, GcLogSummary, OmniscientHpm, SchedStats, Tprof, Utilization, VmstatSample,
};
use jas_jvm::LockStats;
use jas_trace::Tracer;
use jas_workload::{RequestKind, Verdict};

/// Everything one run produced.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The configuration that ran.
    pub config: SutConfig,
    /// The timing plan that ran.
    pub plan: RunPlan,
    /// Steady-state machine counter deltas.
    pub counters: CounterFile,
    /// Full sampled counter series (all events, aligned).
    pub hpm: OmniscientHpm,
    /// Tick profile.
    pub tprof: Tprof,
    /// Profile flatness over JIT'd methods.
    pub flatness: Flatness,
    /// CPU utilization breakdown.
    pub utilization: Utilization,
    /// Verbose-GC entries.
    pub gc_entries: Vec<GcLogEntry>,
    /// Figure 3 summary (when at least two GCs happened in the window).
    pub gc_summary: Option<GcLogSummary>,
    /// Rendered verbose-GC log text.
    pub gc_log_text: String,
    /// Per-kind throughput series (Figure 2), completions/s per bin.
    pub throughput: Vec<(RequestKind, Vec<f64>)>,
    /// Completed operations per second over the steady window.
    pub jops: f64,
    /// Response-time verdict.
    pub verdict: Verdict,
    /// Completed requests (whole run).
    pub completed: u64,
    /// Aborted requests (whole run).
    pub aborted: u64,
    /// Java monitor statistics.
    pub locks: LockStats,
    /// DB buffer-pool statistics.
    pub db_pool: PoolStats,
    /// Storage-device statistics.
    pub device: DeviceStats,
    /// DB transaction statistics.
    pub db_txns: TxnStats,
    /// JIT'd code bytes at end of run.
    pub jit_code_bytes: u64,
    /// JIT compilations performed.
    pub jit_compilations: u64,
    /// Web-container pool usage.
    pub web_pool: jas_appserver::PoolUsage,
    /// Cumulative fault/resilience counters (all zero on a healthy run).
    pub fault_counters: FaultCounters,
    /// Fault/resilience events recorded over the run.
    pub fault_events: usize,
    /// Thread-count-invariant digest of the fault-event series.
    pub fault_digest: u64,
    /// FNV-1a digest of the machine-wide HPM counter totals: the cheap
    /// end-of-run identity check used by the replay-smoke CI gate.
    pub hpm_digest: u64,
    /// Rendered tick-profile report (top methods by sampled ticks).
    pub tprof_text: String,
    /// Periodic vmstat interval rows over the steady window.
    pub vmstat_samples: Vec<VmstatSample>,
    /// The request trace (empty when tracing was off).
    pub trace: Tracer,
    /// Thread-count-invariant digest of the trace-event series.
    pub trace_digest: u64,
    /// Rendered `HOSTPROF` section, when host profiling was on.
    pub hostprof_text: Option<String>,
    /// Scheduler-occupancy counters (quanta executed/skipped, wake-ups
    /// dispatched, heap high-water mark).
    pub sched_stats: SchedStats,
}

/// Runs `cfg` under `plan` to completion and collects the artifacts.
#[must_use]
pub fn run_experiment(cfg: SutConfig, plan: RunPlan) -> RunArtifacts {
    let mut engine = Engine::new(cfg.clone(), plan);
    engine.run_to_end();
    run_artifacts_from(cfg, plan, engine)
}

/// Packages a finished engine's instruments into [`RunArtifacts`] (for
/// callers that drove the engine themselves).
#[must_use]
pub fn run_artifacts_from(config: SutConfig, plan: RunPlan, engine: Engine) -> RunArtifacts {
    let counters = engine.steady_counters();
    let flatness = engine.tprof().flatness(engine.jvm().registry());
    let utilization = engine.vmstat().utilization();
    let gc_entries = engine.vgc().entries().to_vec();
    let gc_summary = engine.vgc().summarize(plan.steady_start(), plan.end());
    let gc_log_text = engine.vgc().render();
    let throughput = RequestKind::ALL
        .iter()
        .map(|&k| (k, engine.metrics().throughput_series(k)))
        .collect();
    let jops = engine.metrics().jops();
    let verdict = engine.metrics().verdict();
    let completed = engine.completed_requests();
    let aborted = engine.aborted_requests();
    let locks = engine.jvm().monitors_stats();
    let db_pool = engine.db().pool_stats();
    let device = engine.db().device_stats();
    let db_txns = engine.db().txn_stats();
    let jit_code_bytes = engine.jvm().jit().compiled_bytes();
    let jit_compilations = engine.jvm().jit().compilations();
    let web_pool = engine.appserver().usage(PoolKind::WebContainer);
    let fault_counters = *engine.fault_counters();
    let fault_events = engine.fault_log().len();
    let fault_digest = engine.fault_log().digest();
    let hpm_digest = engine.hpm_digest();
    let tprof_text = engine.tprof().render(engine.jvm().registry(), 20);
    let vmstat_samples = engine.vmstat().samples().to_vec();
    let hostprof_text = engine.host_profile().map(|r| r.render());
    let sched_stats = engine.sched_stats();
    let (hpm, tprof, trace) = engine.into_instruments();
    let trace_digest = trace.digest();
    RunArtifacts {
        config,
        plan,
        counters,
        hpm,
        tprof,
        flatness,
        utilization,
        gc_entries,
        gc_summary,
        gc_log_text,
        throughput,
        jops,
        verdict,
        completed,
        aborted,
        locks,
        db_pool,
        device,
        db_txns,
        jit_code_bytes,
        jit_compilations,
        web_pool,
        fault_counters,
        fault_events,
        fault_digest,
        hpm_digest,
        tprof_text,
        vmstat_samples,
        trace,
        trace_digest,
        hostprof_text,
        sched_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_produces_coherent_artifacts() {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        let art = run_experiment(cfg, RunPlan::quick());
        assert!(art.completed > 100);
        assert!(art.jops > 0.0);
        assert!(art.counters.cpi().unwrap() > 1.0);
        assert!(!art.gc_entries.is_empty());
        assert!(art.tprof.total_ticks() > 0);
        assert!(art.jit_code_bytes > 0, "hot methods must have compiled");
        assert_eq!(art.throughput.len(), RequestKind::ALL.len());
        assert!(art.locks.acquisitions > 0);
        assert!(art.db_pool.accesses > 0);
        assert!(!art.gc_log_text.is_empty());
        assert_eq!(art.fault_counters, FaultCounters::default());
        assert_eq!(art.fault_events, 0, "healthy runs record no fault events");
        assert!(art.trace.is_empty(), "tracing defaults to off");
        assert!(
            !art.vmstat_samples.is_empty(),
            "steady window produces rows"
        );
        assert!(art.tprof_text.contains("Process/Component Ticks"));
        assert!(
            art.hostprof_text.is_none(),
            "host profiling defaults to off"
        );
        assert!(art.sched_stats.quanta_executed > 0);
    }

    #[test]
    fn event_sched_experiment_matches_quantum() {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        let mut oracle = Engine::no_skip(cfg.clone(), RunPlan::quick());
        oracle.run_to_end();
        let quantum = run_artifacts_from(cfg.clone(), RunPlan::quick(), oracle);
        let event = run_experiment(cfg, RunPlan::quick());
        assert_eq!(event.hpm_digest, quantum.hpm_digest);
        assert_eq!(event.completed, quantum.completed);
        assert_eq!(event.jops, quantum.jops);
        assert_eq!(
            event.sched_stats.total_ticks(),
            quantum.sched_stats.quanta_executed,
            "skipped + executed quanta must cover the same timeline"
        );
    }

    #[test]
    fn traced_run_collects_events() {
        let mut cfg = SutConfig::at_ir(10);
        cfg.machine.frequency_hz = 100_000.0;
        cfg.jvm.heap.capacity = 8 << 20;
        cfg.jvm.live_target = 2 << 20;
        cfg.trace = jas_trace::TraceSpec::all();
        cfg.host_prof = true;
        let art = run_experiment(cfg, RunPlan::quick());
        assert!(!art.trace.is_empty());
        assert_ne!(art.trace_digest, 0);
        assert_eq!(art.trace_digest, art.trace.digest());
        let text = art.hostprof_text.expect("host profile requested");
        assert!(text.starts_with("HOSTPROF"));
    }
}
