//! Per-figure reproduction: one function per table/figure of the paper's
//! evaluation, computing the same quantities from a run's artifacts.
//!
//! Each function returns a plain data struct; `report` renders them as the
//! text the benches print, and `EXPERIMENTS.md` records paper-vs-measured.

use crate::experiment::RunArtifacts;
use jas_cpu::HpmEvent;
use jas_hpm::{Flatness, GcLogSummary};
use jas_jvm::Component;
use jas_stats::{bezier_smooth, pearson, Summary};
use jas_workload::RequestKind;

/// Figure 2: throughput of each request type over the steady window.
#[derive(Clone, Debug)]
pub struct Fig2Throughput {
    /// `(kind, completions-per-second per bin)`.
    pub series: Vec<(RequestKind, Vec<f64>)>,
    /// Coefficient of variation of each series after the first bin — the
    /// paper's point is that rates stabilize quickly and stay flat.
    pub stability_cv: Vec<(RequestKind, f64)>,
    /// Completed operations per second.
    pub jops: f64,
    /// JOPS per unit of injection rate (paper: ~1.6).
    pub jops_per_ir: f64,
}

/// Computes Figure 2.
#[must_use]
pub fn fig2_throughput(art: &RunArtifacts) -> Fig2Throughput {
    let stability_cv = art
        .throughput
        .iter()
        .map(|(k, s)| {
            let body = if s.len() > 1 { &s[1..] } else { &s[..] };
            let sm = Summary::of(body);
            let cv = if sm.mean > 0.0 {
                sm.stddev / sm.mean
            } else {
                0.0
            };
            (*k, cv)
        })
        .collect();
    Fig2Throughput {
        series: art.throughput.clone(),
        stability_cv,
        jops: art.jops,
        jops_per_ir: art.jops / f64::from(art.config.ir),
    }
}

/// Figure 3: garbage-collection statistics.
#[derive(Clone, Debug)]
pub struct Fig3Gc {
    /// Aggregate statistics (None with fewer than two GCs).
    pub summary: Option<GcLogSummary>,
    /// Per-collection `(start_s, pause_ms, free_after_bytes)` rows.
    pub rows: Vec<(f64, f64, u64)>,
    /// Full-scale equivalents of byte quantities (scaled by the heap scale).
    pub heap_scale: u64,
}

/// Computes Figure 3.
#[must_use]
pub fn fig3_gc(art: &RunArtifacts) -> Fig3Gc {
    let rows = art
        .gc_entries
        .iter()
        .map(|e| (e.at.as_secs_f64(), e.pause.as_millis_f64(), e.free_after))
        .collect();
    Fig3Gc {
        summary: art.gc_summary,
        rows,
        heap_scale: art.config.jvm.heap_scale,
    }
}

/// Figure 4: CPU-time breakdown by software component plus the flat-profile
/// statistics of Section 4.1.2.
#[derive(Clone, Debug)]
pub struct Fig4Profile {
    /// `(component, share of all ticks)`, descending.
    pub breakdown: Vec<(Component, f64)>,
    /// Share of ticks in JIT-compiled code.
    pub jitted_share: f64,
    /// Share of ticks in the benchmark application's own code.
    pub application_share: f64,
    /// Flatness of the JIT'd-method profile.
    pub flatness: Flatness,
}

/// Computes Figure 4.
#[must_use]
pub fn fig4_profile(art: &RunArtifacts) -> Fig4Profile {
    let breakdown = art
        .tprof
        .breakdown()
        .into_iter()
        .map(|r| (r.component, r.share))
        .collect();
    Fig4Profile {
        breakdown,
        jitted_share: art.tprof.jitted_share(),
        application_share: art.tprof.component_share(Component::Application),
        flatness: art.flatness,
    }
}

/// Figure 5: CPI, speculation (dispatch/complete), and L1 miss rate.
#[derive(Clone, Debug)]
pub struct Fig5Cpi {
    /// Per-sample CPI.
    pub cpi_series: Vec<f64>,
    /// Mean CPI over the steady window.
    pub cpi: f64,
    /// Instructions dispatched per instruction completed.
    pub speculation: f64,
    /// L1 D-cache miss rate (misses per reference, loads + stores).
    pub l1d_miss_rate: f64,
    /// Pearson r between the CPI series and the speculation series.
    pub cpi_vs_speculation: Option<f64>,
}

/// Computes Figure 5.
#[must_use]
pub fn fig5_cpi(art: &RunArtifacts) -> Fig5Cpi {
    let c = &art.counters;
    let cpi_series = art.hpm.cpi_series();
    let disp = art.hpm.series(HpmEvent::InstDispatched);
    let inst = art.hpm.series(HpmEvent::InstCompleted);
    let spec_series: Vec<f64> = disp
        .iter()
        .zip(inst)
        .map(|(&d, &i)| if i > 0.0 { d / i } else { 0.0 })
        .collect();
    let refs = c.get(HpmEvent::LoadRefs) + c.get(HpmEvent::StoreRefs);
    let misses = c.get(HpmEvent::LoadMissL1) + c.get(HpmEvent::StoreMissL1);
    Fig5Cpi {
        cpi: c.cpi().unwrap_or(0.0),
        speculation: c.get(HpmEvent::InstDispatched) as f64
            / c.get(HpmEvent::InstCompleted).max(1) as f64,
        l1d_miss_rate: misses as f64 / refs.max(1) as f64,
        cpi_vs_speculation: pearson(&cpi_series, &spec_series),
        cpi_series,
    }
}

/// Figure 6: branch prediction.
#[derive(Clone, Debug)]
pub struct Fig6Branch {
    /// Conditional-branch misprediction rate.
    pub cond_mispredict_rate: f64,
    /// Indirect-branch target misprediction rate.
    pub target_mispredict_rate: f64,
    /// Per-sample conditional misprediction rates.
    pub cond_series: Vec<f64>,
    /// Per-sample branches executed.
    pub branch_series: Vec<f64>,
}

/// Computes Figure 6.
#[must_use]
pub fn fig6_branch(art: &RunArtifacts) -> Fig6Branch {
    let c = &art.counters;
    let cond_series: Vec<f64> = art
        .hpm
        .series(HpmEvent::BrMpredCond)
        .iter()
        .zip(art.hpm.series(HpmEvent::Branches))
        .map(|(&m, &b)| if b > 0.0 { m / b } else { 0.0 })
        .collect();
    Fig6Branch {
        cond_mispredict_rate: c.get(HpmEvent::BrMpredCond) as f64
            / c.get(HpmEvent::Branches).max(1) as f64,
        target_mispredict_rate: c.get(HpmEvent::BrMpredTarget) as f64
            / c.get(HpmEvent::IndirectBranches).max(1) as f64,
        cond_series,
        branch_series: art.hpm.series(HpmEvent::Branches).to_vec(),
    }
}

/// Figure 7: address-translation misses per instruction.
#[derive(Clone, Debug)]
pub struct Fig7Tlb {
    /// DERAT misses per instruction.
    pub derat_per_instr: f64,
    /// IERAT misses per instruction.
    pub ierat_per_instr: f64,
    /// DTLB misses per instruction.
    pub dtlb_per_instr: f64,
    /// ITLB misses per instruction.
    pub itlb_per_instr: f64,
    /// Mean instructions between DERAT misses (paper: > 100).
    pub instr_between_derat: f64,
    /// Fraction of DERAT misses satisfied by the TLB (paper: ~75%).
    pub tlb_satisfaction: f64,
    /// Bezier-smoothed per-sample DTLB miss ratio (the figure's styling).
    pub dtlb_series_smooth: Vec<f64>,
}

/// Computes Figure 7.
#[must_use]
pub fn fig7_tlb(art: &RunArtifacts) -> Fig7Tlb {
    let c = &art.counters;
    let inst = c.get(HpmEvent::InstCompleted).max(1) as f64;
    let derat = c.get(HpmEvent::DeratMiss) as f64;
    let dtlb = c.get(HpmEvent::DtlbMiss) as f64;
    let dtlb_ratio: Vec<f64> = art
        .hpm
        .series(HpmEvent::DtlbMiss)
        .iter()
        .zip(art.hpm.series(HpmEvent::InstCompleted))
        .map(|(&m, &i)| if i > 0.0 { m / i } else { 0.0 })
        .collect();
    let n = dtlb_ratio.len().max(1);
    Fig7Tlb {
        derat_per_instr: derat / inst,
        ierat_per_instr: c.get(HpmEvent::IeratMiss) as f64 / inst,
        dtlb_per_instr: dtlb / inst,
        itlb_per_instr: c.get(HpmEvent::ItlbMiss) as f64 / inst,
        instr_between_derat: if derat > 0.0 {
            inst / derat
        } else {
            f64::INFINITY
        },
        tlb_satisfaction: if derat > 0.0 { 1.0 - dtlb / derat } else { 1.0 },
        dtlb_series_smooth: bezier_smooth(&dtlb_ratio, n),
    }
}

/// Figure 8: L1 D-cache behaviour and the memory-instruction mix.
#[derive(Clone, Debug)]
pub struct Fig8L1d {
    /// Load misses per load (paper: ~1/12).
    pub load_miss_rate: f64,
    /// Store misses per store (paper: ~1/5).
    pub store_miss_rate: f64,
    /// Overall L1D miss rate (paper: ~14%).
    pub overall_miss_rate: f64,
    /// Instructions per load (paper: 3.2).
    pub instr_per_load: f64,
    /// Instructions per store (paper: 4.5).
    pub instr_per_store: f64,
    /// Instructions per L1 reference (paper: ~2).
    pub instr_per_ref: f64,
}

/// Computes Figure 8.
#[must_use]
pub fn fig8_l1d(art: &RunArtifacts) -> Fig8L1d {
    let c = &art.counters;
    let inst = c.get(HpmEvent::InstCompleted).max(1) as f64;
    let loads = c.get(HpmEvent::LoadRefs).max(1) as f64;
    let stores = c.get(HpmEvent::StoreRefs).max(1) as f64;
    let lm = c.get(HpmEvent::LoadMissL1) as f64;
    let sm = c.get(HpmEvent::StoreMissL1) as f64;
    Fig8L1d {
        load_miss_rate: lm / loads,
        store_miss_rate: sm / stores,
        overall_miss_rate: (lm + sm) / (loads + stores),
        instr_per_load: inst / loads,
        instr_per_store: inst / stores,
        instr_per_ref: inst / (loads + stores),
    }
}

/// Figure 9: where L1 D-cache load misses were satisfied.
#[derive(Clone, Debug)]
pub struct Fig9DataFrom {
    /// `(source name, fraction of satisfied L1 load misses)`.
    pub fractions: Vec<(&'static str, f64)>,
    /// L2 hit fraction (paper: ~75%).
    pub l2_fraction: f64,
    /// Combined modified-intervention fraction (paper: near zero).
    pub modified_fraction: f64,
}

/// Computes Figure 9.
#[must_use]
pub fn fig9_data_from(art: &RunArtifacts) -> Fig9DataFrom {
    let c = &art.counters;
    let sources = [
        ("L2", HpmEvent::DataFromL2),
        ("L2.5 shared", HpmEvent::DataFromL25Shr),
        ("L2.5 modified", HpmEvent::DataFromL25Mod),
        ("L2.75 shared", HpmEvent::DataFromL275Shr),
        ("L2.75 modified", HpmEvent::DataFromL275Mod),
        ("L3", HpmEvent::DataFromL3),
        ("L3.5", HpmEvent::DataFromL35),
        ("Memory", HpmEvent::DataFromMem),
    ];
    let total: u64 = sources.iter().map(|(_, e)| c.get(*e)).sum();
    let total = total.max(1) as f64;
    let fractions: Vec<(&'static str, f64)> = sources
        .iter()
        .map(|&(n, e)| (n, c.get(e) as f64 / total))
        .collect();
    let l2_fraction = c.get(HpmEvent::DataFromL2) as f64 / total;
    let modified_fraction =
        (c.get(HpmEvent::DataFromL25Mod) + c.get(HpmEvent::DataFromL275Mod)) as f64 / total;
    Fig9DataFrom {
        fractions,
        l2_fraction,
        modified_fraction,
    }
}

/// Figure 10: Pearson correlation of hardware events with CPI.
#[derive(Clone, Debug)]
pub struct Fig10Correlation {
    /// `(event name, r vs CPI)`, in the paper's presentation order.
    pub correlations: Vec<(&'static str, f64)>,
    /// Speculation rate vs L1D miss rate (paper: ~0.1).
    pub speculation_vs_l1: Option<f64>,
    /// Branches vs target mispredictions (paper: ~-0.07).
    pub branches_vs_target_mispred: Option<f64>,
    /// Conditional misses vs branches (paper: ~0.43).
    pub cond_misses_vs_branches: Option<f64>,
}

/// The events the paper's Figure 10 correlates against CPI.
pub const FIG10_EVENTS: [(HpmEvent, &str); 19] = [
    (HpmEvent::BrMpredCond, "Branch cond. mispred."),
    (HpmEvent::BrMpredTarget, "Branch target mispred."),
    (HpmEvent::DeratMiss, "DERAT miss"),
    (HpmEvent::DtlbMiss, "DTLB miss"),
    (HpmEvent::IeratMiss, "IERAT miss"),
    (HpmEvent::ItlbMiss, "ITLB miss"),
    (HpmEvent::LoadMissL1, "L1D load miss"),
    (HpmEvent::StoreMissL1, "L1D store miss"),
    (HpmEvent::L1Prefetch, "L1D prefetches"),
    (HpmEvent::L2Prefetch, "L2 prefetches"),
    (HpmEvent::StreamAllocs, "D$ prefetch stream alloc."),
    (HpmEvent::SyncCount, "SYNCs"),
    (HpmEvent::SyncSrqCycles, "SYNC SRQ cycles"),
    (HpmEvent::InstDispatched, "Instr. dispatched"),
    (HpmEvent::CyclesWithCompletion, "Cyc w/ instr. completed"),
    (HpmEvent::InstFromL1, "Instr. from L1"),
    (HpmEvent::InstFromL2, "Instr. from L2"),
    (HpmEvent::InstFromL3, "Instr. from L3"),
    (HpmEvent::InstFromMem, "Instr. from memory"),
];

/// Computes Figure 10.
///
/// Rates are normalized per completed instruction within each sample (as
/// the paper's per-sample counter data effectively is), then correlated
/// against per-sample CPI.
#[must_use]
pub fn fig10_correlation(art: &RunArtifacts) -> Fig10Correlation {
    let cpi = art.hpm.cpi_series();
    let inst = art.hpm.series(HpmEvent::InstCompleted);
    let per_instr = |e: HpmEvent| -> Vec<f64> {
        art.hpm
            .series(e)
            .iter()
            .zip(inst)
            .map(|(&v, &i)| if i > 0.0 { v / i } else { 0.0 })
            .collect()
    };
    let correlations = FIG10_EVENTS
        .iter()
        .map(|&(e, name)| {
            let r = pearson(&per_instr(e), &cpi).unwrap_or(f64::NAN);
            (name, r)
        })
        .collect();
    let spec: Vec<f64> = art
        .hpm
        .series(HpmEvent::InstDispatched)
        .iter()
        .zip(inst)
        .map(|(&d, &i)| if i > 0.0 { d / i } else { 0.0 })
        .collect();
    let l1_miss = per_instr(HpmEvent::LoadMissL1);
    // The paper's auxiliary pairs correlate raw per-sample event counts
    // (the HPM's native output), not normalized rates.
    let branches_raw = art.hpm.series(HpmEvent::Branches);
    let ta_raw = art.hpm.series(HpmEvent::BrMpredTarget);
    let cond_raw = art.hpm.series(HpmEvent::BrMpredCond);
    Fig10Correlation {
        correlations,
        speculation_vs_l1: pearson(&spec, &l1_miss),
        branches_vs_target_mispred: pearson(branches_raw, ta_raw),
        cond_misses_vs_branches: pearson(cond_raw, branches_raw),
    }
}

/// The in-text locking/synchronization table (Section 4.2.4).
#[derive(Clone, Debug)]
pub struct LockingTable {
    /// Instructions per LARX (paper: ~600 in user code).
    pub instr_per_larx: f64,
    /// Estimated fraction of instructions spent acquiring locks, assuming
    /// ~20 surrounding instructions per LARX as the paper does (~3%).
    pub lock_acquisition_fraction: f64,
    /// Fraction of cycles with a SYNC in the store-reorder queue (paper:
    /// <1% user).
    pub sync_srq_cycle_fraction: f64,
    /// STCX failure rate (little contention expected).
    pub stcx_fail_rate: f64,
    /// Monitor contention rate from the lock model (paper: low).
    pub monitor_contention: f64,
}

/// Computes the locking table.
#[must_use]
pub fn locking_table(art: &RunArtifacts) -> LockingTable {
    let c = &art.counters;
    let inst = c.get(HpmEvent::InstCompleted).max(1) as f64;
    let larx = c.get(HpmEvent::Larx) as f64;
    let cycles = c.get(HpmEvent::Cycles).max(1) as f64;
    LockingTable {
        instr_per_larx: if larx > 0.0 {
            inst / larx
        } else {
            f64::INFINITY
        },
        lock_acquisition_fraction: larx * 20.0 / inst,
        sync_srq_cycle_fraction: c.get(HpmEvent::SyncSrqCycles) as f64 / cycles,
        stcx_fail_rate: c.get(HpmEvent::StcxFail) as f64 / c.get(HpmEvent::Stcx).max(1) as f64,
        monitor_contention: art.locks.contention_rate(),
    }
}

/// The utilization / run-rules table (Sections 2 and 4.1).
#[derive(Clone, Debug)]
pub struct UtilizationTable {
    /// User-mode fraction.
    pub user: f64,
    /// Kernel-mode fraction.
    pub system: f64,
    /// I/O-wait fraction.
    pub iowait: f64,
    /// Idle fraction.
    pub idle: f64,
    /// Completed operations per second.
    pub jops: f64,
    /// JOPS per IR (paper: ~1.6).
    pub jops_per_ir: f64,
    /// 90th-percentile web response time (limit 2 s).
    pub web_p90: f64,
    /// 90th-percentile RMI response time (limit 5 s).
    pub rmi_p90: f64,
    /// Whether the run passed the response-time rules.
    pub passed: bool,
}

/// Computes the utilization table.
#[must_use]
pub fn utilization_table(art: &RunArtifacts) -> UtilizationTable {
    UtilizationTable {
        user: art.utilization.user,
        system: art.utilization.system,
        iowait: art.utilization.iowait,
        idle: art.utilization.idle,
        jops: art.jops,
        jops_per_ir: art.jops / f64::from(art.config.ir),
        web_p90: art.verdict.web_p90,
        rmi_p90: art.verdict.rmi_p90,
        passed: art.verdict.passed,
    }
}

/// The fault/resilience table: what the fault plan injected and how the
/// stack absorbed it (this repo's robustness extension; no paper analogue).
#[derive(Clone, Debug)]
pub struct ResilienceTable {
    /// `(fault name, injections)` for every fault kind that fired.
    pub injected: Vec<(&'static str, u64)>,
    /// Retries scheduled by the backoff policy.
    pub retries: u64,
    /// Requests failed permanently.
    pub errors: u64,
    /// Failed fraction of steady-window outcomes.
    pub error_rate: f64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Statements rejected while the breaker was open.
    pub breaker_fast_fails: u64,
    /// Work orders pushed back for redelivery.
    pub redeliveries: u64,
    /// Work orders dead-lettered after their delivery budget.
    pub dead_letters: u64,
    /// Requests that blew their per-request deadline.
    pub deadline_exceeded: u64,
    /// Fault/resilience events recorded.
    pub events: usize,
    /// Thread-count-invariant digest of the event series.
    pub digest: u64,
    /// Whether the run leaned on its resilience machinery at all.
    pub degraded: bool,
}

/// Computes the resilience table.
#[must_use]
pub fn resilience_table(art: &RunArtifacts) -> ResilienceTable {
    let c = &art.fault_counters;
    let injected = jas_faults::FaultKind::ALL
        .iter()
        .map(|k| (k.name(), c.injected[k.index()]))
        .filter(|&(_, n)| n > 0)
        .collect();
    ResilienceTable {
        injected,
        retries: c.retries,
        errors: c.errors,
        error_rate: art.verdict.error_rate,
        breaker_opens: c.breaker_opens,
        breaker_fast_fails: c.breaker_fast_fails,
        redeliveries: c.redeliveries,
        dead_letters: c.dead_letters,
        deadline_exceeded: c.deadline_exceeded,
        events: art.fault_events,
        digest: art.fault_digest,
        degraded: art.verdict.degraded,
    }
}

/// The `tprof` tick-bucket view (Section 3.1's tool, previously only
/// reachable through the raw [`jas_hpm::Tprof`] instrument).
#[derive(Clone, Debug)]
pub struct TprofTable {
    /// Total ticks sampled over the steady window.
    pub total_ticks: u64,
    /// The full rendered profile (component buckets + top subroutines).
    pub text: String,
    /// Share of JIT'd-code ticks taken by the hottest method (the paper's
    /// flat-profile observation).
    pub hottest_share: f64,
    /// Methods needed to cover half the JIT'd-code ticks.
    pub methods_for_half: usize,
}

/// Computes the tick-profile table.
#[must_use]
pub fn tprof_table(art: &RunArtifacts) -> TprofTable {
    TprofTable {
        total_ticks: art.tprof.total_ticks(),
        text: art.tprof_text.clone(),
        hottest_share: art.flatness.hottest_share,
        methods_for_half: art.flatness.methods_for_half,
    }
}

/// The scheduler-occupancy view: how much of the run's timeline the
/// event scheduler fast-forwarded over, and how busy its wake heap was.
#[derive(Clone, Debug)]
pub struct SchedTable {
    /// Quanta stepped through the full plan/execute/reconcile path.
    pub executed: u64,
    /// Quanta fast-forwarded over without simulating them.
    pub skipped: u64,
    /// Live wake-ups consumed from the wake heap.
    pub events_dispatched: u64,
    /// Most live wake-up registrations the heap ever held at once.
    pub heap_high_water: u64,
    /// `skipped / (skipped + executed)`.
    pub skip_fraction: f64,
}

/// Computes the scheduler-occupancy table.
#[must_use]
pub fn sched_table(art: &RunArtifacts) -> SchedTable {
    SchedTable {
        executed: art.sched_stats.quanta_executed,
        skipped: art.sched_stats.idle_ticks_skipped,
        events_dispatched: art.sched_stats.events_dispatched,
        heap_high_water: art.sched_stats.heap_high_water,
        skip_fraction: art.sched_stats.skip_fraction(),
    }
}

/// The periodic `vmstat` view: interval rows over the steady window plus
/// the cumulative breakdown (Section 4.1's monitor).
#[derive(Clone, Debug)]
pub struct VmstatTable {
    /// `(sim seconds, user, system, iowait, idle)` fractions per interval.
    pub rows: Vec<(f64, f64, f64, f64, f64)>,
    /// Cumulative user fraction.
    pub user: f64,
    /// Cumulative system fraction.
    pub system: f64,
    /// Cumulative I/O-wait fraction.
    pub iowait: f64,
    /// Cumulative idle fraction.
    pub idle: f64,
}

/// Computes the vmstat table from the periodic interval samples.
#[must_use]
pub fn vmstat_table(art: &RunArtifacts) -> VmstatTable {
    let rows = art
        .vmstat_samples
        .iter()
        .map(|s| {
            let u = s.utilization();
            (s.at.as_secs_f64(), u.user, u.system, u.iowait, u.idle)
        })
        .collect();
    VmstatTable {
        rows,
        user: art.utilization.user,
        system: art.utilization.system,
        iowait: art.utilization.iowait,
        idle: art.utilization.idle,
    }
}

/// One app-server node's row in the fleet view.
#[derive(Clone, Debug)]
pub struct ClusterNodeRow {
    /// Node index (0-based, matches the seed derivation order).
    pub node: usize,
    /// Cumulative machine cycles.
    pub cycles: u64,
    /// Cumulative completed instructions.
    pub instructions: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// The node's own HPM digest.
    pub hpm_digest: u64,
}

/// The fleet view (`--figure cluster`): per-node counter files, the
/// machine-room aggregate, the LB outcome counters, and the failover
/// verdict — the multi-node analogue of the single-machine `hpmcount`
/// totals.
#[derive(Clone, Debug)]
pub struct ClusterTable {
    /// Node count.
    pub nodes: usize,
    /// Dispatch policy name (`round-robin` | `least-conn` | `ps-clone`).
    pub dispatch: &'static str,
    /// Per-node rows, node 0 first.
    pub rows: Vec<ClusterNodeRow>,
    /// Fleet-aggregate cycles (counter-wise sum).
    pub agg_cycles: u64,
    /// Fleet-aggregate completed instructions.
    pub agg_instructions: u64,
    /// Fleet HPM digest (node count + every node's counters in order).
    pub fleet_hpm_digest: u64,
    /// LB outcome counters, aligned with [`jas_cluster::FleetStats::LABELS`].
    pub stats: jas_cluster::FleetStats,
    /// Merged SLO verdict plus the failover conservation check.
    pub verdict: jas_cluster::ClusterVerdict,
    /// Merged fleet throughput over the steady window (JOPS).
    pub jops: f64,
    /// Mean simulated crash-to-warm-restart latency in milliseconds.
    pub failover_ms: f64,
}

/// Computes the fleet table from a cluster run's artifacts.
#[must_use]
pub fn cluster_table(art: &crate::fleet::ClusterArtifacts) -> ClusterTable {
    let rows = art
        .fleet_hpm
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, file)| {
            let cycles = file.get(HpmEvent::Cycles);
            let instructions = file.get(HpmEvent::InstCompleted);
            ClusterNodeRow {
                node: i,
                cycles,
                instructions,
                ipc: if cycles == 0 {
                    0.0
                } else {
                    instructions as f64 / cycles as f64
                },
                hpm_digest: art.node_hpm_digests[i],
            }
        })
        .collect();
    let agg = art.fleet_hpm.aggregate();
    ClusterTable {
        nodes: art.nodes,
        dispatch: art.dispatch.name(),
        rows,
        agg_cycles: agg.get(HpmEvent::Cycles),
        agg_instructions: agg.get(HpmEvent::InstCompleted),
        fleet_hpm_digest: art.fleet_hpm.digest(),
        stats: art.stats,
        verdict: art.verdict,
        jops: art.metrics.jops(),
        failover_ms: art.failover_ms,
    }
}

/// One workload-curve phase of a scenario run (`--figure scenario`).
#[derive(Clone, Debug)]
pub struct ScenarioPhaseRow {
    /// Phase start (sim seconds).
    pub start_s: f64,
    /// Phase end (sim seconds).
    pub end_s: f64,
    /// Curve multiplier at the phase midpoint.
    pub multiplier: f64,
    /// Instructions completed within the phase.
    pub instructions: u64,
    /// Cycles elapsed within the phase.
    pub cycles: u64,
    /// Cycles per instruction within the phase.
    pub cpi: f64,
}

/// The per-phase scenario table.
#[derive(Clone, Debug)]
pub struct ScenarioTable {
    /// Scenario name.
    pub name: String,
    /// One row per curve phase, in time order.
    pub rows: Vec<ScenarioPhaseRow>,
}

/// Computes the per-phase table from a scenario run's phase accumulator.
#[must_use]
pub fn scenario_table(
    name: &str,
    curve: &jas_workload::Curve,
    phases: &jas_hpm::PhaseHpm,
) -> ScenarioTable {
    let rows = phases
        .rows()
        .iter()
        .map(|r| ScenarioPhaseRow {
            start_s: r.start_s,
            end_s: r.end_s,
            multiplier: curve.multiplier_at(0.5 * (r.start_s + r.end_s)),
            instructions: r.instructions,
            cycles: r.cycles,
            cpi: r.cpi(),
        })
        .collect();
    ScenarioTable {
        name: name.to_string(),
        rows,
    }
}
