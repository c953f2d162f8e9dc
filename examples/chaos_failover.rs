//! Chaos failover: a three-node fleet rides out a seeded storm of
//! crash-stops, gray failures, and LB↔node partitions. Crashed nodes
//! warm-restart from their last quiescent snapshot, idempotent in-flight
//! work re-dispatches to survivors with jittered backoff, and admission
//! control sheds excess load instead of queueing it unboundedly.
//!
//! Prints the fleet table plus the run report's digest/verdict lines
//! (`HPM_DIGEST`, `FAULT_DIGEST`, `NODE<i>_HPM_DIGEST`,
//! `ACTIVE_NODES`, `CLUSTER_VERDICT`) that the CI `cluster-smoke` job
//! diffs across `--threads` values and both schedulers: a failover run
//! is bit-identical no matter how the host executes it.
//!
//! ```sh
//! cargo run --release --example chaos_failover -- --threads 4 --sched event
//! ```

use jas2004::report::RunReport;
use jas2004::{
    figures, report, run_cluster, DispatchPolicy, FaultPlan, RunPlan, SchedMode, SutConfig,
};
use jas_simkernel::SimDuration;

fn main() {
    let mut threads = 1usize;
    let mut sched = SchedMode::Quantum;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads requires a positive integer");
                        std::process::exit(1);
                    });
                i += 1;
            }
            "--sched" => {
                sched = match args.get(i + 1).map(String::as_str) {
                    Some("quantum") => SchedMode::Quantum,
                    Some("event") => SchedMode::Event,
                    _ => {
                        eprintln!("--sched requires 'quantum' or 'event'");
                        std::process::exit(1);
                    }
                };
                i += 1;
            }
            other => {
                eprintln!("unknown flag '{other}' (only --threads <N>, --sched <MODE>)");
                std::process::exit(1);
            }
        }
        i += 1;
    }

    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(30),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    // The storm owns the middle of the 35 s run: crash-stops throughout,
    // a gray-failure band, and a hard partition window.
    let storm = "node-crash@8-26:0.06,node-slow@12-20:0.4,partition@15-18:0.6";
    let mut cfg = SutConfig::at_ir(15);
    cfg.machine.frequency_hz = 500_000.0;
    cfg.threads = threads;
    cfg.sched = sched;
    cfg.seed = 7;
    cfg.faults.plan = FaultPlan::parse(storm).expect("storm spec parses");

    println!(
        "chaos failover: 3 nodes, least-conn, {threads} host thread(s), {sched:?} scheduler, storm at t=8..26s"
    );
    let art = run_cluster(&cfg, plan, 3, DispatchPolicy::LeastConn);
    print!("{}", report::render_cluster(&figures::cluster_table(&art)));

    // Machine-readable lines for the CI cluster-smoke diff.
    print!("{}", RunReport::from_cluster(&art, None));
    assert_eq!(art.verdict.lost, 0, "failover lost requests");
}
