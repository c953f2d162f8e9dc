//! The statistical-correlation methodology of the paper's Section 4.3,
//! including the hardware's group-at-a-time limitation.
//!
//! The POWER4 HPM exposes eight counters in fixed groups; only one group
//! counts at a time, so the paper could not correlate events across
//! groups. This example runs the workload once per counter group the way
//! the authors had to, computes within-group correlations against CPI, and
//! then shows the full cross-event picture the simulator can additionally
//! provide (with the deviation noted).
//!
//! ```sh
//! cargo run --release --example correlation_study
//! ```

use jas2004::{figures, report, Engine, RunPlan, SutConfig};
use jas_cpu::HpmEvent;
use jas_hpm::{CounterGroup, Hpmstat};
use jas_simkernel::SimDuration;
use jas_stats::pearson;

fn main() {
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(10),
        steady: SimDuration::from_secs(90),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(10),
    };

    println!("Per-group runs (the paper's methodology: one group at a time)");
    for group in CounterGroup::standard_groups() {
        if group.name() == "dsource" {
            println!(
                "  group {:<12} cannot be correlated with CPI (no cycle counter —",
                group.name()
            );
            println!("        exactly the HPM limitation the paper reports for Figure 9)");
            continue;
        }
        let mut hpm = Hpmstat::new(group.clone(), plan.hpm_period);
        let mut engine = Engine::new(SutConfig::at_ir(40), plan);
        let end = plan.end();
        while engine.now() < end {
            engine.run_to(engine.now() + engine.config().quantum);
            hpm.observe(engine.now(), &engine.machine().total_counters());
        }
        hpm.finish(end);
        let cpi = hpm.cpi_series().expect("group carries CPI");
        println!("  group {:<12}", group.name());
        for &event in group.events() {
            if matches!(event, HpmEvent::Cycles | HpmEvent::InstCompleted) {
                continue;
            }
            let inst = hpm.series(HpmEvent::InstCompleted).expect("present");
            let series: Vec<f64> = hpm
                .series(event)
                .expect("event in its own group")
                .iter()
                .zip(inst)
                .map(|(&v, &i)| if i > 0.0 { v / i } else { 0.0 })
                .collect();
            if let Some(r) = pearson(&series, &cpi) {
                println!("    corr(CPI, {:<22}) = {r:+.2}", event.name());
            }
        }
    }

    println!();
    println!("Cross-group view (simulator-only; see EXPERIMENTS.md deviations):");
    let art = jas2004::run_experiment(SutConfig::at_ir(40), plan);
    print!(
        "{}",
        report::render_fig10(&figures::fig10_correlation(&art))
    );
}
