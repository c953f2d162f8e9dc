//! Plain-text rendering of figure data, used by the benches and examples,
//! and the [`RunReport`] whose digest/verdict lines every run prints.

use crate::experiment::RunArtifacts;
use crate::figures::{
    ClusterTable, Fig10Correlation, Fig2Throughput, Fig3Gc, Fig4Profile, Fig5Cpi, Fig6Branch,
    Fig7Tlb, Fig8L1d, Fig9DataFrom, LockingTable, ResilienceTable, ScenarioTable, SchedTable,
    TprofTable, UtilizationTable, VmstatTable,
};
use crate::fleet::ClusterArtifacts;
use jas_cluster::ClusterVerdict;
use jas_scenario::{ScenarioOutcome, ScenarioSpec};
use jas_workload::Verdict;
use std::fmt::Write as _;

fn bar(r: f64, width: usize) -> String {
    let n = ((r.abs().min(1.0)) * width as f64).round() as usize;
    let mut s = String::new();
    if r < 0.0 {
        s.push('-');
    }
    s.extend(std::iter::repeat_n('#', n));
    s
}

/// Renders Figure 2.
#[must_use]
pub fn render_fig2(f: &Fig2Throughput) -> String {
    let mut out = String::from("Figure 2: Benchmark Throughput (completions/s per bin)\n");
    for (kind, series) in &f.series {
        let preview: Vec<String> = series.iter().take(12).map(|v| format!("{v:5.1}")).collect();
        let _ = writeln!(out, "  {:<14} {}", kind.name(), preview.join(" "));
    }
    for (kind, cv) in &f.stability_cv {
        let _ = writeln!(out, "  stability cv {:<12} {:.3}", kind.name(), cv);
    }
    let _ = writeln!(out, "  JOPS = {:.1} ({:.2} per IR)", f.jops, f.jops_per_ir);
    out
}

/// Renders Figure 3.
#[must_use]
pub fn render_fig3(f: &Fig3Gc) -> String {
    let mut out = String::from("Figure 3: Garbage Collection Statistics\n");
    match &f.summary {
        Some(s) => {
            let _ = writeln!(out, "  collections        {}", s.collections);
            let _ = writeln!(out, "  time between GC    {:.1} s", s.mean_interval_s);
            let _ = writeln!(out, "  GC pause           {:.0} ms", s.mean_pause_ms);
            let _ = writeln!(
                out,
                "  % of runtime       {:.2}%",
                s.runtime_fraction * 100.0
            );
            let _ = writeln!(out, "  mark share of GC   {:.0}%", s.mark_fraction * 100.0);
            let _ = writeln!(out, "  compactions        {}", s.compactions);
            let _ = writeln!(
                out,
                "  used-heap growth   {:.2} MB/min (full-scale {:.2})",
                s.used_growth_bytes_per_min / 1e6,
                s.used_growth_bytes_per_min * f.heap_scale as f64 / 1e6
            );
        }
        None => {
            let _ = writeln!(out, "  (fewer than two GCs in the window)");
        }
    }
    out
}

/// Renders Figure 4.
#[must_use]
pub fn render_fig4(f: &Fig4Profile) -> String {
    let mut out = String::from("Figure 4: Profile Breakdown (% of runtime)\n");
    for (component, share) in &f.breakdown {
        if *share > 0.0005 {
            let _ = writeln!(out, "  {:<28} {:5.1}%", component.name(), share * 100.0);
        }
    }
    let _ = writeln!(
        out,
        "  JIT-compiled code share       {:5.1}%",
        f.jitted_share * 100.0
    );
    let _ = writeln!(
        out,
        "  benchmark application share   {:5.1}%",
        f.application_share * 100.0
    );
    let _ = writeln!(
        out,
        "  hottest method {:.2}% of JITed time; {} methods for 50% (of {})",
        f.flatness.hottest_share * 100.0,
        f.flatness.methods_for_half,
        f.flatness.methods_profiled
    );
    out
}

/// Renders Figure 5.
#[must_use]
pub fn render_fig5(f: &Fig5Cpi) -> String {
    let mut out = String::from("Figure 5: CPI, Speculation Rate, L1 Miss Rate\n");
    let _ = writeln!(out, "  CPI                      {:.2}", f.cpi);
    let _ = writeln!(out, "  dispatched / completed   {:.2}", f.speculation);
    let _ = writeln!(
        out,
        "  L1D miss rate            {:.1}%",
        f.l1d_miss_rate * 100.0
    );
    if let Some(r) = f.cpi_vs_speculation {
        let _ = writeln!(out, "  corr(CPI, speculation)   {r:.2}");
    }
    out
}

/// Renders Figure 6.
#[must_use]
pub fn render_fig6(f: &Fig6Branch) -> String {
    let mut out = String::from("Figure 6: Branch Prediction\n");
    let _ = writeln!(
        out,
        "  conditional mispredict rate   {:.1}%",
        f.cond_mispredict_rate * 100.0
    );
    let _ = writeln!(
        out,
        "  indirect target mispredict    {:.1}%",
        f.target_mispredict_rate * 100.0
    );
    out
}

/// Renders Figure 7.
#[must_use]
pub fn render_fig7(f: &Fig7Tlb) -> String {
    let mut out = String::from("Figure 7: Translation Miss Frequency (per instruction)\n");
    let _ = writeln!(
        out,
        "  DERAT {:.2e}   IERAT {:.2e}",
        f.derat_per_instr, f.ierat_per_instr
    );
    let _ = writeln!(
        out,
        "  DTLB  {:.2e}   ITLB  {:.2e}",
        f.dtlb_per_instr, f.itlb_per_instr
    );
    let _ = writeln!(
        out,
        "  instructions between DERAT misses: {:.0}",
        f.instr_between_derat
    );
    let _ = writeln!(
        out,
        "  TLB satisfies {:.0}% of DERAT misses",
        f.tlb_satisfaction * 100.0
    );
    out
}

/// Renders Figure 8.
#[must_use]
pub fn render_fig8(f: &Fig8L1d) -> String {
    let mut out = String::from("Figure 8: L1 Data Cache Performance\n");
    let _ = writeln!(
        out,
        "  load miss rate  {:.1}% (1 per {:.1} loads)",
        f.load_miss_rate * 100.0,
        1.0 / f.load_miss_rate.max(1e-12)
    );
    let _ = writeln!(
        out,
        "  store miss rate {:.1}% (1 per {:.1} stores)",
        f.store_miss_rate * 100.0,
        1.0 / f.store_miss_rate.max(1e-12)
    );
    let _ = writeln!(out, "  overall miss    {:.1}%", f.overall_miss_rate * 100.0);
    let _ = writeln!(
        out,
        "  instr/load {:.2}  instr/store {:.2}  instr/L1-ref {:.2}",
        f.instr_per_load, f.instr_per_store, f.instr_per_ref
    );
    out
}

/// Renders Figure 9.
#[must_use]
pub fn render_fig9(f: &Fig9DataFrom) -> String {
    let mut out = String::from("Figure 9: Data Loaded From (after an L1 miss)\n");
    for (name, frac) in &f.fractions {
        let _ = writeln!(
            out,
            "  {:<16} {:5.1}%  {}",
            name,
            frac * 100.0,
            bar(*frac, 40)
        );
    }
    let _ = writeln!(
        out,
        "  modified cache-to-cache transfers: {:.2}%",
        f.modified_fraction * 100.0
    );
    out
}

/// Renders Figure 10.
#[must_use]
pub fn render_fig10(f: &Fig10Correlation) -> String {
    let mut out = String::from("Figure 10: CPI Statistical Correlation (r)\n");
    for (name, r) in &f.correlations {
        let _ = writeln!(out, "  {name:<26} {r:+.2} {}", bar(*r, 25));
    }
    if let Some(r) = f.speculation_vs_l1 {
        let _ = writeln!(out, "  speculation vs L1D miss    {r:+.2}");
    }
    if let Some(r) = f.branches_vs_target_mispred {
        let _ = writeln!(out, "  branches vs TA mispred     {r:+.2}");
    }
    if let Some(r) = f.cond_misses_vs_branches {
        let _ = writeln!(out, "  cond misses vs branches    {r:+.2}");
    }
    out
}

/// Renders the locking table.
#[must_use]
pub fn render_locking(t: &LockingTable) -> String {
    let mut out = String::from("Locking and SYNC (Section 4.2.4)\n");
    let _ = writeln!(
        out,
        "  instructions per LARX        {:.0}",
        t.instr_per_larx
    );
    let _ = writeln!(
        out,
        "  lock acquisition instr share {:.1}%",
        t.lock_acquisition_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  SYNC-in-SRQ cycle fraction   {:.2}%",
        t.sync_srq_cycle_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  STCX failure rate            {:.2}%",
        t.stcx_fail_rate * 100.0
    );
    let _ = writeln!(
        out,
        "  monitor contention           {:.2}%",
        t.monitor_contention * 100.0
    );
    out
}

/// Renders the utilization table.
#[must_use]
pub fn render_utilization(t: &UtilizationTable) -> String {
    let mut out = String::from("Utilization and Run Rules\n");
    let _ = writeln!(
        out,
        "  user {:.0}%  system {:.0}%  iowait {:.0}%  idle {:.0}%",
        t.user * 100.0,
        t.system * 100.0,
        t.iowait * 100.0,
        t.idle * 100.0
    );
    let _ = writeln!(out, "  JOPS {:.1} ({:.2} per IR)", t.jops, t.jops_per_ir);
    let _ = writeln!(
        out,
        "  web p90 {:.2}s (limit 2s)   rmi p90 {:.2}s (limit 5s)   {}",
        t.web_p90,
        t.rmi_p90,
        if t.passed { "PASSED" } else { "FAILED" }
    );
    out
}

/// Renders the fault/resilience table.
#[must_use]
pub fn render_resilience(t: &ResilienceTable) -> String {
    let mut out = String::from("Fault Injection and Resilience\n");
    if t.injected.is_empty() {
        let _ = writeln!(out, "  no faults fired");
    }
    for (name, n) in &t.injected {
        let _ = writeln!(out, "  injected {name:<14} {n}");
    }
    let _ = writeln!(
        out,
        "  retries {}   errors {} ({:.2}% of outcomes)",
        t.retries,
        t.errors,
        t.error_rate * 100.0
    );
    let _ = writeln!(
        out,
        "  breaker opens {}   fast-fails {}",
        t.breaker_opens, t.breaker_fast_fails
    );
    let _ = writeln!(
        out,
        "  redeliveries {}   dead letters {}   deadline blown {}",
        t.redeliveries, t.dead_letters, t.deadline_exceeded
    );
    let _ = writeln!(
        out,
        "  events {}   digest {:#018x}   {}",
        t.events,
        t.digest,
        if t.degraded { "DEGRADED" } else { "healthy" }
    );
    out
}

/// Renders the tick-profile report.
#[must_use]
pub fn render_tprof(t: &TprofTable) -> String {
    let mut out = String::from("Tick Profile (tprof)\n");
    let _ = writeln!(
        out,
        "  total ticks {}   hottest method {:.1}%   {} methods cover half",
        t.total_ticks,
        t.hottest_share * 100.0,
        t.methods_for_half
    );
    for line in t.text.lines() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Renders the scheduler-occupancy report.
#[must_use]
pub fn render_sched(t: &SchedTable) -> String {
    let mut out = String::from("Scheduler Occupancy\n");
    let _ = writeln!(out, "  mode {:?}", t.mode);
    let _ = writeln!(
        out,
        "  quanta executed {}   skipped {}   ({:.1}% of the timeline was free)",
        t.executed,
        t.skipped,
        t.skip_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "  wake-ups dispatched {}   heap high-water {}",
        t.events_dispatched, t.heap_high_water
    );
    out
}

/// Renders the periodic vmstat report.
#[must_use]
pub fn render_vmstat(t: &VmstatTable) -> String {
    let mut out = String::from("Periodic Utilization (vmstat)\n");
    let _ = writeln!(
        out,
        "  cumulative: user {:.0}%  system {:.0}%  iowait {:.0}%  idle {:.0}%",
        t.user * 100.0,
        t.system * 100.0,
        t.iowait * 100.0,
        t.idle * 100.0
    );
    let _ = writeln!(
        out,
        "  {:>8} {:>6} {:>6} {:>6} {:>6}",
        "sim s", "us", "sy", "wa", "id"
    );
    for &(at, user, system, iowait, idle) in &t.rows {
        let _ = writeln!(
            out,
            "  {:>8.1} {:>5.0}% {:>5.0}% {:>5.0}% {:>5.0}%",
            at,
            user * 100.0,
            system * 100.0,
            iowait * 100.0,
            idle * 100.0
        );
    }
    if t.rows.is_empty() {
        let _ = writeln!(out, "  (no samples: steady window never opened)");
    }
    out
}

/// Renders the fleet report (`--figure cluster`).
#[must_use]
pub fn render_cluster(t: &ClusterTable) -> String {
    let mut out = String::from("Fleet (cluster)\n");
    let _ = writeln!(out, "  {} nodes, dispatch {}", t.nodes, t.dispatch);
    let _ = writeln!(
        out,
        "  {:>6} {:>14} {:>14} {:>6}  {:<18}",
        "node", "cycles", "instructions", "ipc", "hpm digest"
    );
    for row in &t.rows {
        let _ = writeln!(
            out,
            "  {:>6} {:>14} {:>14} {:>6.2}  {:#018x}",
            row.node, row.cycles, row.instructions, row.ipc, row.hpm_digest
        );
    }
    let agg_ipc = if t.agg_cycles == 0 {
        0.0
    } else {
        t.agg_instructions as f64 / t.agg_cycles as f64
    };
    let _ = writeln!(
        out,
        "  {:>6} {:>14} {:>14} {:>6.2}  {:#018x}",
        "fleet", t.agg_cycles, t.agg_instructions, agg_ipc, t.fleet_hpm_digest
    );
    for (label, value) in jas_cluster::FleetStats::LABELS.iter().zip(t.stats.values()) {
        let _ = writeln!(out, "  {label:>14} {value}");
    }
    let v = &t.verdict;
    let _ = writeln!(
        out,
        "  jops {:.1}   web p90 {:.3}s   rmi p90 {:.3}s   mean failover {:.0} ms",
        t.jops, v.verdict.web_p90, v.verdict.rmi_p90, t.failover_ms
    );
    let _ = writeln!(
        out,
        "  lost {}   shed {} ({:.1}% of offered)   {}",
        v.lost,
        v.shed,
        v.shed_fraction * 100.0,
        if v.lost == 0 && v.verdict.passed {
            "PASS"
        } else {
            "FAIL"
        }
    );
    out
}

/// Renders the per-phase scenario table.
#[must_use]
pub fn render_scenario(t: &ScenarioTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Scenario Phases ({})", t.name);
    let _ = writeln!(
        out,
        "  {:>8} {:>8} {:>6} {:>14} {:>14} {:>6}",
        "start s", "end s", "mult", "instructions", "cycles", "cpi"
    );
    for row in &t.rows {
        let _ = writeln!(
            out,
            "  {:>8.1} {:>8.1} {:>6.2} {:>14} {:>14} {:>6.2}",
            row.start_s, row.end_s, row.multiplier, row.instructions, row.cycles, row.cpi
        );
    }
    if t.rows.is_empty() {
        let _ = writeln!(out, "  (no phases recorded)");
    }
    out
}

/// The machine-readable summary of one finished run: the digest and
/// verdict lines every `jas2004` run prints, built the same way for one
/// engine or a fleet, from flags or from a scenario spec (DESIGN.md §13).
#[derive(Debug)]
pub struct RunReport {
    /// `SCENARIO_DIGEST` and the `SCENARIO_VERDICT` line, on scenario runs.
    scenario: Option<(u64, String)>,
    /// `HPM_DIGEST`: the engine's, or the fleet fold of the node digests.
    hpm_digest: u64,
    /// `TRACE_DIGEST` and its event count, when tracing was on.
    trace: Option<(u64, usize)>,
    /// `FAULT_DIGEST` and its event count, when a fault plan was set.
    faults: Option<(u64, usize)>,
    /// The fleet lines, on `--nodes N > 1` runs.
    fleet: Option<FleetReport>,
    /// The rendered `HOSTPROF` section, when host profiling was on.
    hostprof: Option<String>,
}

/// The fleet part of a [`RunReport`].
#[derive(Debug)]
struct FleetReport {
    /// `NODE<i>_HPM_DIGEST`, node 0 first.
    node_hpm_digests: Vec<u64>,
    /// Nodes in rotation when the run ended.
    active_nodes: usize,
    /// Autoscaler scale-ups.
    scale_ups: u64,
    /// Autoscaler scale-downs.
    scale_downs: u64,
    /// Merged SLO verdict plus the failover conservation check.
    verdict: ClusterVerdict,
}

/// `SCENARIO_DIGEST` and the `SCENARIO_VERDICT` line for `spec`.
fn scenario_lines(
    spec: &ScenarioSpec,
    verdict: &Verdict,
    shed_fraction: f64,
    lost: u64,
    slo_miss: f64,
) -> (u64, String) {
    let outcome = ScenarioOutcome {
        web_p90: verdict.web_p90,
        rmi_p90: verdict.rmi_p90,
        error_rate: verdict.error_rate,
        shed_fraction,
        slo_miss,
        lost,
    };
    (spec.digest(), spec.verdict_line(&outcome))
}

impl RunReport {
    /// The report of a single-engine run. `scenario` is the spec the run
    /// came from, with the run's fraction of responses over the spec's
    /// web p90 limit (`Metrics::slo_miss_fraction`).
    #[must_use]
    pub fn from_run(art: &RunArtifacts, scenario: Option<(&ScenarioSpec, f64)>) -> RunReport {
        RunReport {
            scenario: scenario
                .map(|(spec, slo_miss)| scenario_lines(spec, &art.verdict, 0.0, 0, slo_miss)),
            hpm_digest: art.hpm_digest,
            trace: art
                .config
                .trace
                .enabled()
                .then_some((art.trace_digest, art.trace.len())),
            faults: (!art.config.faults.plan.is_empty())
                .then_some((art.fault_digest, art.fault_events)),
            fleet: None,
            hostprof: art.hostprof_text.clone(),
        }
    }

    /// The report of a fleet run, optionally from a scenario spec.
    #[must_use]
    pub fn from_cluster(art: &ClusterArtifacts, scenario: Option<&ScenarioSpec>) -> RunReport {
        let v = &art.verdict;
        RunReport {
            scenario: scenario.map(|spec| {
                let slo_miss = art.metrics.slo_miss_fraction(spec.slo.web_p90_s);
                scenario_lines(spec, &v.verdict, v.shed_fraction, v.lost, slo_miss)
            }),
            hpm_digest: art.hpm_digest,
            trace: art
                .config
                .trace
                .enabled()
                .then_some((art.trace_digest, art.trace_events)),
            faults: (!art.config.faults.plan.is_empty())
                .then_some((art.fault_digest, art.fault_events)),
            fleet: Some(FleetReport {
                node_hpm_digests: art.node_hpm_digests.clone(),
                active_nodes: art.active_nodes,
                scale_ups: art.stats.scale_ups,
                scale_downs: art.stats.scale_downs,
                verdict: art.verdict,
            }),
            hostprof: art.host_profile.as_ref().map(|r| r.render()),
        }
    }

    /// The digest and verdict lines, always in this order, each only when
    /// its run has it: `SCENARIO_DIGEST`, `HPM_DIGEST`, `TRACE_DIGEST`,
    /// `FAULT_DIGEST`, `NODE<i>_HPM_DIGEST`, `ACTIVE_NODES`,
    /// `CLUSTER_VERDICT`, `SCENARIO_VERDICT`.
    #[must_use]
    pub fn digest_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        if let Some((digest, _)) = &self.scenario {
            lines.push(format!("SCENARIO_DIGEST={digest:#018x}"));
        }
        lines.push(format!("HPM_DIGEST={:#018x}", self.hpm_digest));
        if let Some((digest, events)) = self.trace {
            lines.push(format!("TRACE_DIGEST={digest:#018x} events={events}"));
        }
        if let Some((digest, events)) = self.faults {
            lines.push(format!("FAULT_DIGEST={digest:#018x} events={events}"));
        }
        if let Some(fleet) = &self.fleet {
            for (i, digest) in fleet.node_hpm_digests.iter().enumerate() {
                lines.push(format!("NODE{i}_HPM_DIGEST={digest:#018x}"));
            }
            lines.push(format!(
                "ACTIVE_NODES={} scale_ups={} scale_downs={}",
                fleet.active_nodes, fleet.scale_ups, fleet.scale_downs
            ));
            let v = &fleet.verdict;
            lines.push(format!(
                "CLUSTER_VERDICT={} lost={} shed={} shed_fraction={:.4}",
                if v.lost == 0 && v.verdict.passed {
                    "pass"
                } else {
                    "fail"
                },
                v.lost,
                v.shed,
                v.shed_fraction
            ));
        }
        if let Some((_, verdict)) = &self.scenario {
            lines.push(verdict.clone());
        }
        lines
    }
}

/// The digest lines, then the `HOSTPROF` section when there is one.
impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in self.digest_lines() {
            writeln!(f, "{line}")?;
        }
        f.write_str(self.hostprof.as_deref().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{Fig6Branch, Fig8L1d, Fig9DataFrom, LockingTable, UtilizationTable};

    #[test]
    fn bar_scales_and_signs() {
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(-0.5, 10), "-#####");
        // Out-of-range r clamps rather than overflowing.
        assert_eq!(bar(2.0, 4), "####");
    }

    #[test]
    fn render_fig6_mentions_both_rates() {
        let text = render_fig6(&Fig6Branch {
            cond_mispredict_rate: 0.06,
            target_mispredict_rate: 0.05,
            cond_series: vec![],
            branch_series: vec![],
        });
        assert!(text.contains("6.0%"));
        assert!(text.contains("5.0%"));
    }

    #[test]
    fn render_fig8_shows_one_in_n() {
        let text = render_fig8(&Fig8L1d {
            load_miss_rate: 1.0 / 12.0,
            store_miss_rate: 1.0 / 5.0,
            overall_miss_rate: 0.14,
            instr_per_load: 3.2,
            instr_per_store: 4.5,
            instr_per_ref: 1.87,
        });
        assert!(text.contains("1 per 12.0 loads"));
        assert!(text.contains("1 per 5.0 stores"));
        assert!(text.contains("instr/load 3.20"));
    }

    #[test]
    fn render_fig9_lists_all_sources() {
        let f = Fig9DataFrom {
            fractions: vec![
                ("L2", 0.75),
                ("L2.5 shared", 0.0),
                ("L2.5 modified", 0.0),
                ("L2.75 shared", 0.01),
                ("L2.75 modified", 0.001),
                ("L3", 0.15),
                ("L3.5", 0.02),
                ("Memory", 0.069),
            ],
            l2_fraction: 0.75,
            modified_fraction: 0.001,
        };
        let text = render_fig9(&f);
        for name in ["L2", "L2.75 shared", "L3.5", "Memory"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("75.0%"));
    }

    #[test]
    fn render_locking_and_utilization() {
        let lock_text = render_locking(&LockingTable {
            instr_per_larx: 600.0,
            lock_acquisition_fraction: 0.03,
            sync_srq_cycle_fraction: 0.008,
            stcx_fail_rate: 0.02,
            monitor_contention: 0.04,
        });
        assert!(lock_text.contains("600"));
        assert!(lock_text.contains("3.0%"));
        let util_text = render_utilization(&UtilizationTable {
            user: 0.8,
            system: 0.2,
            iowait: 0.0,
            idle: 0.0,
            jops: 64.0,
            jops_per_ir: 1.6,
            web_p90: 0.4,
            rmi_p90: 0.3,
            passed: true,
        });
        assert!(util_text.contains("user 80%"));
        assert!(util_text.contains("PASSED"));
        let failed = render_utilization(&UtilizationTable {
            user: 0.9,
            system: 0.1,
            iowait: 0.0,
            idle: 0.0,
            jops: 10.0,
            jops_per_ir: 0.2,
            web_p90: 12.0,
            rmi_p90: 9.0,
            passed: false,
        });
        assert!(failed.contains("FAILED"));
    }

    #[test]
    fn render_resilience_lists_fired_faults() {
        let text = render_resilience(&ResilienceTable {
            injected: vec![("db-lock", 12), ("gc-storm", 3)],
            retries: 9,
            errors: 2,
            error_rate: 0.015,
            breaker_opens: 1,
            breaker_fast_fails: 4,
            redeliveries: 5,
            dead_letters: 1,
            deadline_exceeded: 2,
            events: 37,
            digest: 0xdead_beef,
            degraded: true,
        });
        assert!(text.contains("injected db-lock"));
        assert!(text.contains("injected gc-storm"));
        assert!(text.contains("retries 9"));
        assert!(text.contains("1.50% of outcomes"));
        assert!(text.contains("breaker opens 1"));
        assert!(text.contains("dead letters 1"));
        assert!(text.contains("DEGRADED"));
        assert!(!text.contains("no faults fired"));
    }

    #[test]
    fn render_resilience_healthy_run_says_so() {
        let text = render_resilience(&ResilienceTable {
            injected: vec![],
            retries: 0,
            errors: 0,
            error_rate: 0.0,
            breaker_opens: 0,
            breaker_fast_fails: 0,
            redeliveries: 0,
            dead_letters: 0,
            deadline_exceeded: 0,
            events: 0,
            digest: 0,
            degraded: false,
        });
        assert!(text.contains("no faults fired"));
        assert!(text.contains("healthy"));
    }

    #[test]
    fn render_tprof_embeds_the_profile_text() {
        let text = render_tprof(&TprofTable {
            total_ticks: 4200,
            text: "Process/Component Ticks    %\n  java  100  50.0\n".to_owned(),
            hottest_share: 0.031,
            methods_for_half: 57,
        });
        assert!(text.starts_with("Tick Profile"));
        assert!(text.contains("total ticks 4200"));
        assert!(text.contains("hottest method 3.1%"));
        assert!(text.contains("57 methods cover half"));
        assert!(text.contains("Process/Component Ticks"));
    }

    #[test]
    fn render_vmstat_prints_interval_rows() {
        let text = render_vmstat(&VmstatTable {
            rows: vec![(30.0, 0.8, 0.2, 0.0, 0.0), (30.5, 0.5, 0.1, 0.3, 0.1)],
            user: 0.65,
            system: 0.15,
            iowait: 0.15,
            idle: 0.05,
        });
        assert!(text.starts_with("Periodic Utilization"));
        assert!(text.contains("cumulative: user 65%"));
        assert!(text.contains("30.0"));
        assert!(text.contains("30.5"));
        let empty = render_vmstat(&VmstatTable {
            rows: vec![],
            user: 0.0,
            system: 0.0,
            iowait: 0.0,
            idle: 0.0,
        });
        assert!(empty.contains("no samples"));
    }

    #[test]
    fn render_sched_reports_occupancy() {
        let text = render_sched(&SchedTable {
            mode: crate::config::SchedMode::Event,
            executed: 250,
            skipped: 750,
            events_dispatched: 412,
            heap_high_water: 9,
            skip_fraction: 0.75,
        });
        assert!(text.starts_with("Scheduler Occupancy"));
        assert!(text.contains("mode Event"));
        assert!(text.contains("executed 250"));
        assert!(text.contains("skipped 750"));
        assert!(text.contains("75.0% of the timeline was free"));
        assert!(text.contains("dispatched 412"));
        assert!(text.contains("high-water 9"));
    }

    #[test]
    fn fleet_scenario_report_prints_every_line_in_contract_order() {
        let verdict = Verdict {
            web_p90: 0.5,
            rmi_p90: 0.25,
            retries: 0,
            errors: 0,
            error_rate: 0.0,
            degraded: false,
            passed: true,
        };
        let report = RunReport {
            scenario: Some((0xab, "SCENARIO_VERDICT=pass name=x".to_string())),
            hpm_digest: 1,
            trace: Some((2, 20)),
            faults: Some((3, 30)),
            fleet: Some(FleetReport {
                node_hpm_digests: vec![4, 5],
                active_nodes: 1,
                scale_ups: 2,
                scale_downs: 3,
                verdict: ClusterVerdict {
                    verdict,
                    lost: 0,
                    shed: 7,
                    shed_fraction: 0.125,
                },
            }),
            hostprof: Some("HOSTPROF\n".to_string()),
        };
        assert_eq!(
            report.digest_lines(),
            [
                "SCENARIO_DIGEST=0x00000000000000ab",
                "HPM_DIGEST=0x0000000000000001",
                "TRACE_DIGEST=0x0000000000000002 events=20",
                "FAULT_DIGEST=0x0000000000000003 events=30",
                "NODE0_HPM_DIGEST=0x0000000000000004",
                "NODE1_HPM_DIGEST=0x0000000000000005",
                "ACTIVE_NODES=1 scale_ups=2 scale_downs=3",
                "CLUSTER_VERDICT=pass lost=0 shed=7 shed_fraction=0.1250",
                "SCENARIO_VERDICT=pass name=x",
            ]
        );
        assert!(report.to_string().ends_with("name=x\nHOSTPROF\n"));
    }

    #[test]
    fn render_scenario_lists_phases() {
        let text = render_scenario(&ScenarioTable {
            name: "flash-crowd".to_string(),
            rows: vec![crate::figures::ScenarioPhaseRow {
                start_s: 0.0,
                end_s: 12.0,
                multiplier: 1.0,
                instructions: 1000,
                cycles: 2000,
                cpi: 2.0,
            }],
        });
        assert!(text.starts_with("Scenario Phases (flash-crowd)"));
        assert!(text.contains("12.0"));
        assert!(text.contains("2.00"));
        let empty = render_scenario(&ScenarioTable {
            name: "x".to_string(),
            rows: vec![],
        });
        assert!(empty.contains("no phases recorded"));
    }
}
