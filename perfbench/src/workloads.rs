//! The benchmark's workloads. Each is the argument vector a user would give
//! `jas2004`; the harness appends `--seed`. At the project's default seed
//! each must reproduce the digest lines `jas2004` prints for the same
//! arguments.

/// One benchmark workload.
pub struct Workload {
    /// The name given as `--workload`.
    pub name: &'static str,
    /// Why the benchmark has it.
    pub why: &'static str,
    /// The `jas2004` arguments, without `--seed`.
    pub args: &'static [&'static str],
    /// Digest lines `jas2004` prints for `args` at the default seed.
    pub pinned: &'static [(&'static str, u64)],
    /// The paper's measured CPI at this operating point, where it has one.
    pub paper_cpi: Option<f64>,
}

/// The workloads, in report order.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady-ir40",
        why: "the paper's operating point, flat IR40 on one node at ~95% busy: \
              CPU-model host time dominates, and nothing idles, balances, \
              faults or traces, so it is the control for that work",
        args: &["--scenario", "scenarios/steady-40.toml", "--threads", "1"],
        pinned: &[("HPM_DIGEST", 0x5658_0c1c_b94c_10e8)],
        // EXPERIMENTS.md, Figure 5: CPI on the loaded system ~3.
        paper_cpi: Some(3.0),
    },
    Workload {
        name: "diurnal-event",
        why: "time-varying IR12 load with a GC storm and full request \
              tracing under the event scheduler: the skip path, forced \
              collections, the fault injector and the tracer on a small \
              working set",
        args: &[
            "--scenario",
            "scenarios/diurnal-24h.toml",
            "--sched",
            "event",
            "--trace",
            "all",
        ],
        pinned: &[
            ("HPM_DIGEST", 0x87cf_9b83_6f6f_6a1d),
            ("TRACE_DIGEST", 0x0d18_7bde_2b82_a22f),
            ("FAULT_DIGEST", 0x5308_ea07_23ae_f75f),
        ],
        paper_cpi: None,
    },
    Workload {
        name: "flash-fleet",
        why: "a 6x flash crowd on a 3-node least-conn autoscaled fleet at \
              --threads 2: the only workload through the cluster LB and the \
              engine's worker threads",
        args: &["--scenario", "scenarios/flash-crowd.toml", "--threads", "2"],
        pinned: &[
            ("HPM_DIGEST", 0x9305_74ab_37ca_2088),
            ("NODE0_HPM_DIGEST", 0x781a_3ab6_8477_7ad2),
            ("NODE1_HPM_DIGEST", 0x24a9_26df_926d_a099),
            ("NODE2_HPM_DIGEST", 0x9eca_74f5_fd76_7fb3),
        ],
        paper_cpi: None,
    },
];

/// The workload called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The project's default seed — `jas2004` without `--seed` — at which the
/// pinned digests hold.
#[must_use]
pub fn default_seed() -> u64 {
    jas2004::SutConfig::default().seed
}
