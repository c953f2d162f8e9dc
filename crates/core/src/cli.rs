//! Command-line options for the `jas2004` binary.
//!
//! A deliberately dependency-free parser: the simulator's public surface is
//! a library, and the binary is a thin convenience wrapper (run a
//! configuration, print selected figures).

use crate::config::{RunPlan, ScenarioKind, SchedMode, SutConfig};
use jas_cluster::DispatchPolicy;
use jas_faults::FaultPlan;
use jas_scenario::{AppKind, ScenarioSpec};
use jas_simkernel::SimDuration;
use jas_trace::TraceSpec;
use std::path::PathBuf;

/// Which outputs to print.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FigureSelect {
    /// Every figure and table.
    All,
    /// One figure by number (2–10).
    Figure(u8),
    /// The locking table.
    Locking,
    /// The utilization table.
    Utilization,
    /// The fault/resilience table.
    Resilience,
    /// The tick-profile report.
    Tprof,
    /// The periodic vmstat interval rows.
    Vmstat,
    /// The scheduler-occupancy report.
    Sched,
    /// The fleet table: per-node counter files plus aggregates
    /// (`--nodes N > 1` only).
    Cluster,
    /// Per-phase HPM rows for a scenario run (`--scenario <file>` only).
    Scenario,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// SUT configuration derived from the flags.
    pub config: SutConfig,
    /// Run timing.
    pub plan: RunPlan,
    /// Output selection.
    pub select: FigureSelect,
    /// Where to export the trace (chrome://tracing JSON), if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Simulated time at which to write a `.jckpt` checkpoint.
    pub checkpoint_at: Option<SimDuration>,
    /// Where the checkpoint goes (required alongside `checkpoint_at`).
    pub checkpoint_out: Option<PathBuf>,
    /// Resume from this `.jckpt` instead of starting at tick zero.
    pub restore_from: Option<PathBuf>,
    /// Record the request stream to this `.jrpl` replay log.
    pub record_out: Option<PathBuf>,
    /// Re-execute this `.jrpl` in place of the workload generator.
    pub replay_from: Option<PathBuf>,
    /// Reduce the configured fault plan's divergence to a witness window.
    pub reduce: bool,
    /// Where the `.jwit` witness goes (only with `reduce`).
    pub witness_out: Option<PathBuf>,
    /// App-server nodes behind the load balancer. `1` (the default) runs
    /// the plain engine with no LB in the loop (routing one node through
    /// the LB would move its digests); both print the same report lines.
    pub nodes: usize,
    /// Front-end dispatch policy (`--nodes N > 1` only).
    pub dispatch: DispatchPolicy,
    /// The scenario spec, when the run came from `--scenario <file>`:
    /// carries the admission cap, autoscaler tuning, SLO, and the
    /// `SCENARIO_DIGEST`/`SCENARIO_VERDICT` lines the binary prints.
    pub scenario_spec: Option<Box<ScenarioSpec>>,
}

/// What the command line asked for.
#[derive(Clone, Debug)]
pub enum Cli {
    /// Run a configuration and print figures. Boxed: the configuration is
    /// two orders of magnitude larger than the `Help` variant.
    Run(Box<CliOptions>),
    /// Print the usage text and exit successfully.
    Help,
}

/// A CLI parsing error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "\
jas2004 — regenerate the ISPASS 2007 J2EE characterization figures

USAGE:
    jas2004 [OPTIONS]

OPTIONS:
    --ir <N>             injection rate (default 40)
    --steady <SECONDS>   steady-state window (default 180)
    --ramp <SECONDS>     ramp-up excluded from statistics (default 20)
    --seed <N>           RNG seed (default: fixed project seed)
    --threads <N>        host threads (default 1); in a fleet (--nodes > 1)
                         on a multi-CPU host, any value above 1 runs one
                         lane thread per node; a single engine always runs
                         on one thread; results are identical for every
                         value
    --sched <MODE>       quantum | event (default quantum); `event` runs
                         the discrete-event scheduler, which skips
                         provably idle quanta and produces bit-identical
                         digests to `quantum`
    --scenario <SEL>     jas | trade (default jas), or a path to a
                         scenarios/<name>.toml spec bundling workload
                         curve, fault plan, trace, topology, and SLO;
                         a spec run prints SCENARIO_DIGEST and
                         SCENARIO_VERDICT lines, and later flags
                         override spec values
    --no-large-pages     back the Java heap with 4 KB pages
    --code-large-pages   put JIT/native code on 16 MB pages
    --generational <MB>  minor collections every <MB> allocated
    --fault-plan <SPEC>  deterministic fault windows, as
                         kind@start-end:rate[,kind@start-end:rate...]
                         with kind in db-lock | db-io | jms-redeliver |
                         jms-dup | pool-seize | gc-storm (per-node) or
                         node-crash | node-slow | partition (fleet-level,
                         acted on by the LB), start/end in seconds, rate
                         in [0,1]; @FILE reads the spec from FILE
    --nodes <N>          app-server nodes behind the load balancer
                         (default 1 = the plain engine, no LB; N > 1
                         adds the per-node and cluster report lines)
    --dispatch <POLICY>  round-robin | least-conn | ps-clone front-end
                         dispatch (default round-robin; N > 1 only)
    --figure <SEL>       all | 2..10 | locking | utilization | resilience |
                         tprof | vmstat | sched | cluster | scenario
                         (default all; cluster needs --nodes N > 1,
                         scenario needs --scenario <file>)
    --trace <SPEC>       record trace events: all | off | a comma list of
                         req,pool,rmi,jms,db,resil,gc,alloc,quantum,hpm;
                         prints TRACE_DIGEST after the run (default off)
    --trace-out <PATH>   export the trace as chrome://tracing JSON
                         (open in chrome://tracing or ui.perfetto.dev)
    --host-prof          print the HOSTPROF host self-profile (host
                         wall-clock; never enters simulation state)

CHECKPOINT / REPLAY (docs/jckpt-format.md):
    --checkpoint-at <SECONDS>
                         write a .jckpt of the full engine state at the
                         given simulated time, then keep running
    --checkpoint-out <PATH>
                         where the .jckpt goes (required with
                         --checkpoint-at)
    --restore-from <PATH>
                         resume a .jckpt instead of starting at tick zero;
                         --threads may differ, but every other knob must
                         fingerprint-match
    --record <PATH>      record the request stream to a .jrpl replay log
    --replay <PATH>      re-execute a .jrpl request stream in place of the
                         workload generator (same verdicts and digests)
    --reduce             bisect the configured --fault-plan's divergence
                         (vs the same windows at rate 0) to a minimal
                         witness window; prints a REDUCE_WINDOW= line
    --witness-out <PATH> write the self-contained .jwit witness
                         (only with --reduce)
    --help               print this help
";

fn parse_u64(flag: &str, value: Option<&str>) -> Result<u64, CliError> {
    let v = value.ok_or_else(|| CliError(format!("{flag} requires a value")))?;
    v.parse()
        .map_err(|_| CliError(format!("{flag}: '{v}' is not a number")))
}

fn parse_secs(flag: &str, value: Option<&str>) -> Result<SimDuration, CliError> {
    let v = value.ok_or_else(|| CliError(format!("{flag} requires a value")))?;
    let secs: f64 = v
        .parse()
        .map_err(|_| CliError(format!("{flag}: '{v}' is not a number")))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(CliError(format!("{flag}: '{v}' is not a duration")));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

fn parse_path(flag: &str, value: Option<&str>) -> Result<PathBuf, CliError> {
    let v = value.ok_or_else(|| CliError(format!("{flag} requires a value")))?;
    Ok(PathBuf::from(v))
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on unknown flags,
/// missing values, out-of-range selections, or an unreadable/invalid
/// `--fault-plan` file or spec. `--help` parses to [`Cli::Help`], which
/// the binary prints and exits successfully on.
pub fn parse_args<I, S>(args: I) -> Result<Cli, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let args: Vec<String> = args.into_iter().map(|s| s.as_ref().to_string()).collect();
    let mut config = SutConfig::at_ir(40);
    let mut plan = RunPlan::default();
    let mut select = FigureSelect::All;
    let mut trace_out = None;
    let mut checkpoint_at = None;
    let mut checkpoint_out = None;
    let mut restore_from = None;
    let mut record_out = None;
    let mut replay_from = None;
    let mut reduce = false;
    let mut witness_out = None;
    let mut nodes = 1usize;
    let mut dispatch = DispatchPolicy::default();
    let mut scenario_spec: Option<Box<ScenarioSpec>> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        match flag {
            "--help" | "-h" => return Ok(Cli::Help),
            "--ir" => {
                config.ir = parse_u64(flag, value)? as u32;
                if config.ir == 0 {
                    return Err(CliError("--ir must be positive".into()));
                }
                i += 1;
            }
            "--steady" => {
                plan.steady = SimDuration::from_secs(parse_u64(flag, value)?);
                i += 1;
            }
            "--ramp" => {
                plan.ramp_up = SimDuration::from_secs(parse_u64(flag, value)?);
                i += 1;
            }
            "--seed" => {
                config.seed = parse_u64(flag, value)?;
                i += 1;
            }
            "--threads" => {
                config.threads = parse_u64(flag, value)? as usize;
                if config.threads == 0 {
                    return Err(CliError("--threads must be positive".into()));
                }
                i += 1;
            }
            "--sched" => {
                config.sched = match value {
                    Some("quantum") => SchedMode::Quantum,
                    Some("event") => SchedMode::Event,
                    Some(other) => {
                        return Err(CliError(format!("unknown sched '{other}' (quantum|event)")))
                    }
                    None => return Err(CliError("--sched requires a value".into())),
                };
                i += 1;
            }
            "--scenario" => {
                let v = value.ok_or_else(|| CliError("--scenario requires a value".into()))?;
                match v {
                    "jas" => config.scenario = ScenarioKind::JAppServer,
                    "trade" => config.scenario = ScenarioKind::TradeLike,
                    path if path.ends_with(".toml") || path.contains('/') => {
                        let text = std::fs::read_to_string(path).map_err(|e| {
                            CliError(format!("--scenario: cannot read '{path}': {e}"))
                        })?;
                        let spec = ScenarioSpec::parse(&text)
                            .map_err(|e| CliError(format!("--scenario: {path}: {e}")))?;
                        config.ir = spec.ir;
                        config.scenario = match spec.app {
                            AppKind::Jas => ScenarioKind::JAppServer,
                            AppKind::Trade => ScenarioKind::TradeLike,
                        };
                        config.curve = spec.compile_curve();
                        config.faults.plan = spec.plan();
                        config.trace = spec.trace_spec();
                        plan.ramp_up = SimDuration::from_secs(spec.ramp_s);
                        plan.steady = SimDuration::from_secs(spec.steady_s);
                        nodes = spec.nodes;
                        dispatch = spec.dispatch;
                        scenario_spec = Some(Box::new(spec));
                    }
                    other => {
                        return Err(CliError(format!(
                            "unknown scenario '{other}' (jas|trade, or a path to a .toml spec)"
                        )))
                    }
                }
                i += 1;
            }
            "--no-large-pages" => config.machine.addr_map.heap_large_pages = false,
            "--code-large-pages" => config.machine.addr_map.code_large_pages = true,
            "--generational" => {
                config.jvm.minor_every_bytes = Some(parse_u64(flag, value)? << 20);
                i += 1;
            }
            "--fault-plan" => {
                let spec = value
                    .ok_or_else(|| CliError("--fault-plan requires a value".into()))?
                    .to_string();
                // File-sourced plans keep the path in parse errors, so
                // `plan[i]` positions point somewhere actionable.
                let (spec, src) = match spec.strip_prefix('@') {
                    Some(path) => {
                        let text = std::fs::read_to_string(path).map_err(|e| {
                            CliError(format!("--fault-plan: cannot read '{path}': {e}"))
                        })?;
                        (text, Some(path.to_string()))
                    }
                    None => (spec.clone(), None),
                };
                config.faults.plan = FaultPlan::parse(spec.trim()).map_err(|e| match &src {
                    Some(path) => CliError(format!("--fault-plan: {path}: {e}")),
                    None => CliError(format!("--fault-plan: {e}")),
                })?;
                i += 1;
            }
            "--trace" => {
                let spec = value.ok_or_else(|| CliError("--trace requires a value".into()))?;
                config.trace =
                    TraceSpec::parse(spec).map_err(|e| CliError(format!("--trace: {e}")))?;
                i += 1;
            }
            "--trace-out" => {
                let path = value.ok_or_else(|| CliError("--trace-out requires a value".into()))?;
                trace_out = Some(PathBuf::from(path));
                i += 1;
            }
            "--host-prof" => config.host_prof = true,
            "--checkpoint-at" => {
                checkpoint_at = Some(parse_secs(flag, value)?);
                i += 1;
            }
            "--checkpoint-out" => {
                checkpoint_out = Some(parse_path(flag, value)?);
                i += 1;
            }
            "--restore-from" => {
                restore_from = Some(parse_path(flag, value)?);
                i += 1;
            }
            "--record" => {
                record_out = Some(parse_path(flag, value)?);
                i += 1;
            }
            "--replay" => {
                replay_from = Some(parse_path(flag, value)?);
                i += 1;
            }
            "--nodes" => {
                nodes = parse_u64(flag, value)? as usize;
                if nodes == 0 {
                    return Err(CliError("--nodes must be positive".into()));
                }
                i += 1;
            }
            "--dispatch" => {
                let v = value.ok_or_else(|| CliError("--dispatch requires a value".into()))?;
                dispatch =
                    DispatchPolicy::parse(v).map_err(|e| CliError(format!("--dispatch: {e}")))?;
                i += 1;
            }
            "--reduce" => reduce = true,
            "--witness-out" => {
                witness_out = Some(parse_path(flag, value)?);
                i += 1;
            }
            "--figure" => {
                select = match value {
                    Some("all") => FigureSelect::All,
                    Some("locking") => FigureSelect::Locking,
                    Some("utilization") => FigureSelect::Utilization,
                    Some("resilience") => FigureSelect::Resilience,
                    Some("tprof") => FigureSelect::Tprof,
                    Some("vmstat") => FigureSelect::Vmstat,
                    Some("sched") => FigureSelect::Sched,
                    Some("cluster") => FigureSelect::Cluster,
                    Some("scenario") => FigureSelect::Scenario,
                    Some(n) => {
                        let n: u8 = n
                            .parse()
                            .map_err(|_| CliError(format!("--figure: bad selector '{n}'")))?;
                        if !(2..=10).contains(&n) {
                            return Err(CliError("--figure: figures are 2..=10".into()));
                        }
                        FigureSelect::Figure(n)
                    }
                    None => return Err(CliError("--figure requires a value".into())),
                };
                i += 1;
            }
            other => return Err(CliError(format!("unknown flag '{other}'\n\n{USAGE}"))),
        }
        i += 1;
    }
    if plan.steady.is_zero() {
        return Err(CliError("--steady must be positive".into()));
    }
    if checkpoint_at.is_some() && checkpoint_out.is_none() {
        return Err(CliError("--checkpoint-at requires --checkpoint-out".into()));
    }
    if checkpoint_out.is_some() && checkpoint_at.is_none() {
        return Err(CliError("--checkpoint-out requires --checkpoint-at".into()));
    }
    if record_out.is_some() && replay_from.is_some() {
        return Err(CliError(
            "--record and --replay are mutually exclusive".into(),
        ));
    }
    if restore_from.is_some() && (record_out.is_some() || replay_from.is_some()) {
        // Recording and replay both anchor at tick zero; a restored engine
        // resumes mid-run.
        return Err(CliError(
            "--restore-from cannot be combined with --record/--replay".into(),
        ));
    }
    if witness_out.is_some() && !reduce {
        return Err(CliError("--witness-out requires --reduce".into()));
    }
    if scenario_spec.is_some()
        && (checkpoint_at.is_some()
            || restore_from.is_some()
            || record_out.is_some()
            || replay_from.is_some()
            || reduce)
    {
        // A scenario is a self-contained pinned artifact; the
        // checkpoint/replay/reduce tooling runs against explicit flag
        // configurations only.
        return Err(CliError(
            "--scenario <file> cannot be combined with checkpoint/record/replay/reduce flags"
                .into(),
        ));
    }
    if nodes > 1
        && (checkpoint_at.is_some()
            || restore_from.is_some()
            || record_out.is_some()
            || replay_from.is_some()
            || trace_out.is_some()
            || reduce)
    {
        // Per-node snapshots are the LB's business (warm restarts); the
        // single-engine checkpoint/replay/reduce tooling has no fleet
        // equivalent yet.
        return Err(CliError(
            "--nodes > 1 cannot be combined with checkpoint/record/replay/trace-export/reduce flags"
                .into(),
        ));
    }
    if select == FigureSelect::Cluster && nodes < 2 {
        return Err(CliError("--figure cluster requires --nodes > 1".into()));
    }
    if select == FigureSelect::Scenario && scenario_spec.is_none() {
        return Err(CliError(
            "--figure scenario requires --scenario <file>".into(),
        ));
    }
    if reduce {
        if config.faults.plan.is_empty() {
            return Err(CliError(
                "--reduce needs a --fault-plan to diverge from".into(),
            ));
        }
        if checkpoint_at.is_some()
            || restore_from.is_some()
            || record_out.is_some()
            || replay_from.is_some()
        {
            return Err(CliError(
                "--reduce runs its own engines; drop the checkpoint/replay flags".into(),
            ));
        }
    }
    Ok(Cli::Run(Box::new(CliOptions {
        config,
        plan,
        select,
        trace_out,
        checkpoint_at,
        checkpoint_out,
        restore_from,
        record_out,
        replay_from,
        reduce,
        witness_out,
        nodes,
        dispatch,
        scenario_spec,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, CliError> {
        match parse_args(args.iter().copied())? {
            Cli::Run(o) => Ok(*o),
            Cli::Help => panic!("expected a run, got help"),
        }
    }

    #[test]
    fn defaults_with_no_flags() {
        let o = parse(&[]).unwrap();
        assert!(o.config.faults.plan.is_empty());
        assert_eq!(o.config.ir, 40);
        assert_eq!(o.select, FigureSelect::All);
        assert_eq!(o.config.scenario, ScenarioKind::JAppServer);
        assert!(!o.config.trace.enabled());
        assert!(!o.config.host_prof);
        assert!(o.trace_out.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse(&[
            "--ir",
            "47",
            "--steady",
            "60",
            "--ramp",
            "5",
            "--seed",
            "7",
            "--threads",
            "8",
            "--scenario",
            "trade",
            "--no-large-pages",
            "--code-large-pages",
            "--generational",
            "4",
            "--figure",
            "7",
        ])
        .unwrap();
        assert_eq!(o.config.ir, 47);
        assert_eq!(o.plan.steady.as_secs_f64(), 60.0);
        assert_eq!(o.plan.ramp_up.as_secs_f64(), 5.0);
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.config.threads, 8);
        assert_eq!(o.config.scenario, ScenarioKind::TradeLike);
        assert!(!o.config.machine.addr_map.heap_large_pages);
        assert!(o.config.machine.addr_map.code_large_pages);
        assert_eq!(o.config.jvm.minor_every_bytes, Some(4 << 20));
        assert_eq!(o.select, FigureSelect::Figure(7));
    }

    #[test]
    fn figure_selectors() {
        assert_eq!(
            parse(&["--figure", "all"]).unwrap().select,
            FigureSelect::All
        );
        assert_eq!(
            parse(&["--figure", "locking"]).unwrap().select,
            FigureSelect::Locking
        );
        assert_eq!(
            parse(&["--figure", "utilization"]).unwrap().select,
            FigureSelect::Utilization
        );
        assert_eq!(
            parse(&["--figure", "resilience"]).unwrap().select,
            FigureSelect::Resilience
        );
        assert_eq!(
            parse(&["--figure", "tprof"]).unwrap().select,
            FigureSelect::Tprof
        );
        assert_eq!(
            parse(&["--figure", "vmstat"]).unwrap().select,
            FigureSelect::Vmstat
        );
        assert_eq!(
            parse(&["--figure", "sched"]).unwrap().select,
            FigureSelect::Sched
        );
        assert!(parse(&["--figure", "1"]).is_err());
        assert!(parse(&["--figure", "11"]).is_err());
        assert!(parse(&["--figure", "xyz"]).is_err());
    }

    #[test]
    fn sched_flag_parses() {
        assert_eq!(parse(&[]).unwrap().config.sched, SchedMode::Quantum);
        assert_eq!(
            parse(&["--sched", "quantum"]).unwrap().config.sched,
            SchedMode::Quantum
        );
        assert_eq!(
            parse(&["--sched", "event"]).unwrap().config.sched,
            SchedMode::Event
        );
        assert!(parse(&["--sched"]).unwrap_err().0.contains("requires"));
        assert!(parse(&["--sched", "cfs"])
            .unwrap_err()
            .0
            .contains("unknown sched"));
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse(&["--trace", "all", "--trace-out", "out.json", "--host-prof"]).unwrap();
        assert!(o.config.trace.enabled());
        assert!(o.config.host_prof);
        assert_eq!(o.trace_out, Some(PathBuf::from("out.json")));
        let o = parse(&["--trace", "db,jms,gc"]).unwrap();
        assert!(o.config.trace.wants(jas_trace::TraceCategory::Db));
        assert!(o.config.trace.wants(jas_trace::TraceCategory::Jms));
        assert!(!o.config.trace.wants(jas_trace::TraceCategory::Pool));
        assert!(parse(&["--trace"]).unwrap_err().0.contains("requires"));
        assert!(parse(&["--trace", "bogus"])
            .unwrap_err()
            .0
            .contains("unknown trace category"));
        assert!(parse(&["--trace-out"]).unwrap_err().0.contains("requires"));
    }

    #[test]
    fn fault_plan_inline_spec_parses() {
        let o = parse(&["--fault-plan", "db-lock@10-20:0.5,gc-storm@5-6:1"]).unwrap();
        assert_eq!(o.config.faults.plan.windows().len(), 2);
    }

    #[test]
    fn fault_plan_errors_are_descriptive() {
        assert!(parse(&["--fault-plan"])
            .unwrap_err()
            .0
            .contains("requires a value"));
        assert!(parse(&["--fault-plan", "bogus@1-2:0.5"])
            .unwrap_err()
            .0
            .contains("--fault-plan"));
        assert!(parse(&["--fault-plan", "@/no/such/file"])
            .unwrap_err()
            .0
            .contains("cannot read"));
    }

    #[test]
    fn fault_plan_reads_spec_from_file() {
        let path = std::env::temp_dir().join("jas2004-cli-fault-plan-test.txt");
        std::fs::write(&path, "db-io@1-2:0.25\n").unwrap();
        let o = parse(&["--fault-plan", &format!("@{}", path.display())]).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(o.config.faults.plan.windows().len(), 1);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["--ir"]).unwrap_err().0.contains("requires a value"));
        assert!(parse(&["--ir", "abc"])
            .unwrap_err()
            .0
            .contains("not a number"));
        assert!(parse(&["--ir", "0"]).unwrap_err().0.contains("positive"));
        assert!(parse(&["--threads", "0"])
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(parse(&["--scenario", "weblogic"])
            .unwrap_err()
            .0
            .contains("unknown scenario"));
        assert!(parse(&["--bogus"]).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn checkpoint_and_replay_flags_parse() {
        let o = parse(&["--checkpoint-at", "7.5", "--checkpoint-out", "x.jckpt"]).unwrap();
        assert_eq!(
            o.checkpoint_at,
            Some(SimDuration::from_secs_f64(7.5)),
            "fractional seconds survive parsing"
        );
        assert_eq!(o.checkpoint_out, Some(PathBuf::from("x.jckpt")));
        let o = parse(&["--restore-from", "x.jckpt"]).unwrap();
        assert_eq!(o.restore_from, Some(PathBuf::from("x.jckpt")));
        let o = parse(&["--record", "run.jrpl"]).unwrap();
        assert_eq!(o.record_out, Some(PathBuf::from("run.jrpl")));
        let o = parse(&["--replay", "run.jrpl"]).unwrap();
        assert_eq!(o.replay_from, Some(PathBuf::from("run.jrpl")));
        let o = parse(&[
            "--fault-plan",
            "db-lock@10-20:0.5",
            "--reduce",
            "--witness-out",
            "w.jwit",
        ])
        .unwrap();
        assert!(o.reduce);
        assert_eq!(o.witness_out, Some(PathBuf::from("w.jwit")));
    }

    #[test]
    fn checkpoint_and_replay_flag_combinations_are_validated() {
        let err = |args: &[&str]| parse(args).unwrap_err().0;
        assert!(err(&["--checkpoint-at", "5"]).contains("--checkpoint-out"));
        assert!(err(&["--checkpoint-out", "x.jckpt"]).contains("--checkpoint-at"));
        assert!(err(&["--checkpoint-at", "-1", "--checkpoint-out", "x"]).contains("duration"));
        assert!(err(&["--checkpoint-at", "abc", "--checkpoint-out", "x"]).contains("number"));
        assert!(err(&["--record", "a", "--replay", "b"]).contains("mutually exclusive"));
        assert!(err(&["--restore-from", "a", "--record", "b"]).contains("--restore-from"));
        assert!(err(&["--restore-from", "a", "--replay", "b"]).contains("--restore-from"));
        assert!(err(&["--witness-out", "w"]).contains("--reduce"));
        assert!(err(&["--reduce"]).contains("--fault-plan"));
        assert!(
            err(&["--fault-plan", "db-lock@1-2:1", "--reduce", "--record", "a"])
                .contains("--reduce")
        );
    }

    #[test]
    fn cluster_flags_parse_and_validate() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.nodes, 1);
        assert_eq!(o.dispatch, DispatchPolicy::RoundRobin);
        let o = parse(&["--nodes", "3", "--dispatch", "least-conn"]).unwrap();
        assert_eq!(o.nodes, 3);
        assert_eq!(o.dispatch, DispatchPolicy::LeastConn);
        let o = parse(&[
            "--nodes",
            "2",
            "--dispatch",
            "ps-clone",
            "--figure",
            "cluster",
        ])
        .unwrap();
        assert_eq!(o.select, FigureSelect::Cluster);

        let err = |args: &[&str]| parse(args).unwrap_err().0;
        assert!(err(&["--nodes", "0"]).contains("positive"));
        assert!(err(&["--nodes"]).contains("requires a value"));
        assert!(err(&["--dispatch", "random"]).contains("unknown dispatch policy"));
        assert!(err(&["--figure", "cluster"]).contains("--nodes"));
        assert!(err(&["--nodes", "2", "--record", "a"]).contains("--nodes"));
        assert!(err(&["--nodes", "2", "--replay", "a"]).contains("--nodes"));
        assert!(err(&["--nodes", "2", "--restore-from", "a"]).contains("--nodes"));
        assert!(err(&[
            "--nodes",
            "2",
            "--checkpoint-at",
            "5",
            "--checkpoint-out",
            "x"
        ])
        .contains("--nodes"));
        assert!(err(&[
            "--nodes",
            "2",
            "--fault-plan",
            "node-crash@1-2:0.5",
            "--reduce"
        ])
        .contains("--nodes"));
    }

    #[test]
    fn fleet_fault_kinds_parse_from_the_cli() {
        let o = parse(&[
            "--nodes",
            "2",
            "--fault-plan",
            "node-crash@10-20:0.1,node-slow@5-15:0.3,partition@8-9:1",
        ])
        .unwrap();
        assert_eq!(o.config.faults.plan.windows().len(), 3);
        assert!(o.config.faults.plan.has_fleet());
        assert!(!o.config.faults.plan.has_local());
    }

    #[test]
    fn fault_plan_file_errors_carry_the_path_and_position() {
        let path = std::env::temp_dir().join("jas2004-cli-bad-fault-plan-test.txt");
        std::fs::write(&path, "db-io@1-2:0.25\nnode-crash@9-3:0.5\n").unwrap();
        let err = parse(&["--fault-plan", &format!("@{}", path.display())]).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            err.0.contains(&path.display().to_string()),
            "file plan errors name the file: {err}"
        );
        assert!(err.0.contains("plan[1]"), "position survives: {err}");
    }

    fn write_scenario(name: &str, body: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("{name}.toml"));
        std::fs::write(&path, body).unwrap();
        path
    }

    const SCENARIO_BODY: &str = "\
[scenario]
name = \"cli-spec\"
version = 1
[run]
ramp_s = 5
steady_s = 30
[workload]
ir = 12
curve = \"flash-crowd\"
[workload.flash]
start_s = 10
ramp_s = 2
hold_s = 4
peak = 3
[faults]
plan = \"gc-storm@6-7:1\"
[cluster]
nodes = 3
dispatch = \"least-conn\"
max_in_flight = 40
";

    #[test]
    fn scenario_file_populates_config_plan_and_topology() {
        let path = write_scenario("jas2004-cli-spec", SCENARIO_BODY);
        let o = parse(&["--scenario", &path.display().to_string()]).unwrap();
        std::fs::remove_file(&path).ok();
        let spec = o.scenario_spec.expect("spec retained");
        assert_eq!(spec.name, "cli-spec");
        assert_eq!(o.config.ir, 12);
        assert!(!o.config.curve.is_flat());
        assert_eq!(o.config.faults.plan.windows().len(), 1);
        assert_eq!(o.plan.ramp_up.as_secs_f64(), 5.0);
        assert_eq!(o.plan.steady.as_secs_f64(), 30.0);
        assert_eq!(o.nodes, 3);
        assert_eq!(o.dispatch, DispatchPolicy::LeastConn);
        assert_eq!(spec.max_in_flight, 40);
    }

    #[test]
    fn flags_after_a_scenario_file_override_spec_values() {
        let path = write_scenario("jas2004-cli-spec-override", SCENARIO_BODY);
        let o = parse(&[
            "--scenario",
            &path.display().to_string(),
            "--ir",
            "20",
            "--nodes",
            "1",
        ])
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(o.config.ir, 20);
        assert_eq!(o.nodes, 1);
        assert!(o.scenario_spec.is_some());
    }

    #[test]
    fn scenario_file_errors_and_combinations_are_validated() {
        let err = |args: &[&str]| parse(args).unwrap_err().0;
        assert!(err(&["--scenario", "/no/such/scenario.toml"]).contains("cannot read"));
        assert!(err(&["--scenario", "weblogic"]).contains("unknown scenario"));
        assert!(err(&["--figure", "scenario"]).contains("--scenario"));
        let bad = write_scenario("jas2004-cli-bad-spec", "[scenario]\nname = \"x!\"\n");
        let msg = err(&["--scenario", &bad.display().to_string()]);
        std::fs::remove_file(&bad).ok();
        assert!(msg.contains(&bad.display().to_string()), "{msg}");
        let good = write_scenario("jas2004-cli-spec-combo", SCENARIO_BODY);
        let msg = err(&["--scenario", &good.display().to_string(), "--record", "a"]);
        std::fs::remove_file(&good).ok();
        assert!(msg.contains("--scenario"), "{msg}");
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(matches!(parse_args(["--help"]).unwrap(), Cli::Help));
        assert!(matches!(parse_args(["-h"]).unwrap(), Cli::Help));
    }
}
