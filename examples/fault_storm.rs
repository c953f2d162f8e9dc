//! Injection-rate sweep through a mid-run fault storm: every fault kind
//! fires during the middle third of each run, and the stack has to ride
//! it out on retries, redelivery, and the DB circuit breaker.
//!
//! Prints the per-IR degraded-mode verdicts plus two machine-readable
//! digest lines (`FAULT_DIGEST=`, `HPM_DIGEST=`) to diff across code
//! changes: a faulted run is bit-identical for a given build and seed.
//!
//! ```sh
//! cargo run --release --example fault_storm
//! ```

use jas2004::{figures, report, run_artifacts_from, Engine, FaultPlan, RunPlan, SutConfig};
use jas_cpu::HpmEvent;
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::SimDuration;

/// FNV-1a over every per-core HPM counter in (core, event) order.
fn hpm_digest(e: &Engine) -> u64 {
    let mut d = WordDigest::new();
    for core in 0..e.machine().cores() {
        for ev in HpmEvent::ALL {
            d.mix(e.machine().counters(core).get(ev));
        }
    }
    d.value()
}

fn main() {
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(30),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    // The storm owns the middle third of the 35 s run (t = 12..24 s).
    let storm = "db-lock@12-24:0.35,db-io@14-24:0.25,jms-redeliver@12-24:0.5,\
                 jms-dup@12-24:0.3,pool-seize@15-24:0.6,gc-storm@12-24:0.08";

    println!("fault storm sweep (storm at t=12..24s)");
    println!("  IR    JOPS  retries  errors  dead-letters  breaker-opens  verdict");
    let mut fault_digest = WordDigest::new();
    let mut machine_digest = WordDigest::new();
    for ir in [10, 25, 40] {
        let mut cfg = SutConfig::at_ir(ir);
        cfg.machine.frequency_hz = 500_000.0;
        cfg.faults.plan = FaultPlan::parse(storm).expect("storm spec parses");
        let mut engine = Engine::new(cfg.clone(), plan);
        engine.run_to_end();
        fault_digest.mix(engine.fault_log().digest());
        machine_digest.mix(hpm_digest(&engine));
        let art = run_artifacts_from(cfg, plan, engine);
        println!(
            "  {:>2}  {:>6.1}  {:>7}  {:>6}  {:>12}  {:>13}  {}",
            ir,
            art.jops,
            art.fault_counters.retries,
            art.fault_counters.errors,
            art.fault_counters.dead_letters,
            art.fault_counters.breaker_opens,
            if art.verdict.degraded {
                "DEGRADED"
            } else {
                "healthy"
            }
        );
        if ir == 40 {
            println!();
            print!(
                "{}",
                report::render_resilience(&figures::resilience_table(&art))
            );
            println!();
        }
    }
    // Machine-readable lines for diffing runs.
    println!("FAULT_DIGEST={:#018x}", fault_digest.value());
    println!("HPM_DIGEST={:#018x}", machine_digest.value());
}
