//! End-to-end equivalence check: runs the bench scenario and prints a
//! digest of the observable outputs (request counts, metrics,
//! steady-state HPM counters). The digest must be unchanged by any
//! exact-equivalence fast-path work (A/B across code changes).

use jas2004::{Engine, RunPlan, SutConfig};
use jas_simkernel::snapshot::fnv1a;
use jas_simkernel::SimDuration;

fn main() {
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(15),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    let mut engine = Engine::new(SutConfig::at_ir(30), plan);
    engine.run_to_end();
    let acc = fnv1a(format!("{:?}{:?}", engine.metrics(), engine.steady_counters()).as_bytes());
    println!(
        "completed={} aborted={} digest={acc:016x}",
        engine.completed_requests(),
        engine.aborted_requests(),
    );
}
