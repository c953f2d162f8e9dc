//! The production cluster node: an [`Engine`] in external-arrival mode
//! behind the `jas-cluster` load balancer (DESIGN.md §13).
//!
//! `--nodes 1` never reaches this module: the CLI runs the plain engine,
//! because routing one node through the LB would move its digests. For
//! `--nodes N > 1`, [`run_cluster`] builds N independent engine stacks
//! (distinct seeds, same configuration shape), hands the workload's
//! arrival process to the LB, and returns fleet artifacts. Both paths
//! print the same [`RunReport`](crate::report::RunReport) lines.

use crate::config::{RunPlan, SutConfig};
use crate::engine::Engine;
use jas_cluster::{
    AutoscaleConfig, Cluster, ClusterConfig, ClusterNode, ClusterVerdict, DispatchPolicy,
    FleetStats,
};
use jas_cpu::CounterFile;
use jas_hpm::{FleetHpm, PhaseHpm};
use jas_simkernel::{Loader, Saver, SimDuration, SimTime};
use jas_trace::HostProfReport;
use jas_workload::{Driver, DriverConfig, Metrics, RequestKind};
use std::cell::{Cell, OnceCell};
use std::num::NonZeroUsize;
use std::sync::mpsc;

/// Per-node seed salt ("NODESEED"): node 0 keeps the configured seed,
/// node `i` folds `i * SALT` in, so each stack draws independent streams
/// while staying a pure function of the run seed.
const NODE_SEED_SALT: u64 = 0x4E4F_4445_5345_4544;

/// Quanta per LB epoch. The epoch must be a whole number of quanta so
/// node clocks land exactly on epoch boundaries under both schedulers.
const EPOCH_QUANTA: u64 = 8;

/// Why a node can have no engine: a job on its lane panicked, and the
/// panic was caught above the LB.
const ENGINE_LOST: &str = "node engine lost to a panic on its lane";

/// A job for a [`Lane`]; a node's job takes its engine out and returns it.
type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// One persistent worker thread that runs a fleet node's epochs off the
/// LB thread. The lane parks in a blocking receive between jobs: the
/// grain is a whole LB epoch, so there is nothing to win by spinning.
/// A job that panics sends its payload back, and [`Lane::land`]
/// re-raises it on the caller, so a lane panic fails the run as if the
/// job had run inline.
struct Lane<T: Send + 'static> {
    jobs: Option<mpsc::Sender<Job<T>>>,
    done: mpsc::Receiver<std::thread::Result<T>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> Lane<T> {
    fn spawn() -> Lane<T> {
        let (jobs, job_rx) = mpsc::channel::<Job<T>>();
        let (done_tx, done) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("jas-lane".into())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    if done_tx.send(out).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn fleet lane thread");
        Lane {
            jobs: Some(jobs),
            done,
            handle: Some(handle),
        }
    }

    /// Starts `job` on the lane and returns at once.
    fn launch(&self, job: Job<T>) {
        self.jobs
            .as_ref()
            .and_then(|jobs| jobs.send(job).ok())
            .expect("fleet lane alive");
    }

    /// Blocks until the launched job finishes and returns its result,
    /// re-raising the job's own panic if it had one.
    fn land(&self) -> T {
        match self.done.recv().expect("fleet lane result") {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl<T: Send + 'static> Drop for Lane<T> {
    fn drop(&mut self) {
        // Closing the job queue ends the lane's receive loop. The loop
        // catches every job panic, so the join cannot fail, and a panic
        // nobody landed was already reported by the panic hook.
        drop(self.jobs.take());
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                eprintln!("jas-lane: fleet lane thread panicked");
            }
        }
    }
}

/// An [`Engine`] wrapped as a cluster node: arrivals come exclusively
/// from the LB, snapshots go through the engine's `Persist` visitor.
///
/// At `--threads` > 1 on a multi-CPU host the node owns a lane thread:
/// [`ClusterNode::run_to`] hands the engine to it and returns at once, so
/// the nodes of one LB epoch run concurrently, and every other access
/// first *lands* the engine with a blocking receive. The LB reads nodes
/// only after the epoch's `run_to` calls, in node order, so it sees
/// exactly the state a serial run would give it. The lanes are the only
/// host parallelism: every engine runs on one thread.
pub struct EngineNode {
    cfg: SutConfig,
    run: RunPlan,
    /// The engine; empty while it is out on the lane.
    engine: OnceCell<Box<Engine>>,
    /// A `run_to` is out on the lane and its engine not yet landed.
    pending: Cell<bool>,
    /// Whether epochs run on a lane (decided once, at construction).
    use_lane: bool,
    /// The lane thread, spawned on the first `run_to`.
    lane: Option<Lane<Box<Engine>>>,
}

impl EngineNode {
    /// Builds one node stack. The node's fault plan must already be
    /// reduced to local windows (`FaultPlan::local_only`) — fleet
    /// windows are the LB's business.
    #[must_use]
    pub fn new(cfg: SutConfig, run: RunPlan) -> EngineNode {
        let host_cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let use_lane = cfg.threads > 1 && host_cpus > 1;
        let mut engine = Engine::new(cfg.clone(), run);
        engine.enable_external_arrivals();
        EngineNode {
            cfg,
            run,
            engine: OnceCell::from(Box::new(engine)),
            pending: Cell::new(false),
            use_lane,
            lane: None,
        }
    }

    /// Waits for a `run_to` that is out on the lane and puts its engine
    /// back; a no-op when nothing is pending.
    fn land(&self) {
        if self.pending.replace(false) {
            let lane = self.lane.as_ref().expect("a pending run has a lane");
            let landed = self.engine.set(lane.land()).is_ok();
            assert!(landed, "a pending node holds no engine");
        }
    }

    /// The wrapped engine (read-only), landed from its lane first.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.land();
        self.engine.get().expect(ENGINE_LOST)
    }

    /// The wrapped engine, landed from its lane first.
    fn engine_mut(&mut self) -> &mut Engine {
        self.land();
        self.engine.get_mut().expect(ENGINE_LOST)
    }
}

impl ClusterNode for EngineNode {
    fn now(&self) -> SimTime {
        self.engine().now()
    }

    fn run_to(&mut self, until: SimTime) {
        if !self.use_lane {
            self.engine_mut().run_to(until);
            return;
        }
        self.land();
        let mut engine = self.engine.take().expect(ENGINE_LOST);
        let lane = self.lane.get_or_insert_with(Lane::spawn);
        lane.launch(Box::new(move || {
            engine.run_to(until);
            engine
        }));
        self.pending.set(true);
    }

    fn push_arrival(&mut self, at: SimTime, kind: RequestKind) {
        self.engine_mut().push_external_arrival(at, kind);
    }

    fn completed(&self) -> u64 {
        self.engine().frontend_completed()
    }

    fn errored(&self) -> u64 {
        self.engine().frontend_aborted()
    }

    fn in_flight(&self) -> u64 {
        let engine = self.engine();
        engine.in_flight() + engine.external_arrivals_queued() as u64
    }

    fn snapshot(&mut self) -> Vec<u8> {
        let mut saver = Saver::new();
        self.engine_mut().persist_state(&mut saver);
        saver.into_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut engine = Engine::new(self.cfg.clone(), self.run);
        engine.enable_external_arrivals();
        let mut loader = Loader::new(bytes);
        engine.persist_state(&mut loader);
        loader
            .finish()
            .expect("in-memory node snapshot always matches this build");
        *self.engine_mut() = engine;
    }

    fn finish(&mut self) {
        self.engine_mut().run_to_end();
    }

    fn hpm_digest(&self) -> u64 {
        self.engine().hpm_digest()
    }

    fn trace_digest(&self) -> u64 {
        self.engine().tracer().digest()
    }

    fn fault_digest(&self) -> u64 {
        self.engine().fault_log().digest()
    }

    fn counters(&self) -> CounterFile {
        self.engine().total_counters()
    }

    fn metrics(&self) -> Metrics {
        self.engine().metrics().clone()
    }
}

/// Everything a cluster run produces, for the report/figure layer.
pub struct ClusterArtifacts {
    /// The fleet configuration that ran (node 0's seed and shape).
    pub config: SutConfig,
    /// Node count.
    pub nodes: usize,
    /// Dispatch policy used.
    pub dispatch: DispatchPolicy,
    /// Cumulative fleet outcome counters.
    pub stats: FleetStats,
    /// Merged SLO verdict plus the failover conservation check.
    pub verdict: ClusterVerdict,
    /// Fleet HPM digest (fold of per-node digests in node order).
    pub hpm_digest: u64,
    /// Fleet trace digest.
    pub trace_digest: u64,
    /// Trace events summed over the nodes.
    pub trace_events: usize,
    /// Fleet fault digest (per-node logs plus the LB's own).
    pub fault_digest: u64,
    /// Fault events in the per-node logs plus the LB's own.
    pub fault_events: usize,
    /// Per-node HPM digests (node 0 first).
    pub node_hpm_digests: Vec<u64>,
    /// Per-node counter files plus fleet aggregates (`--figure cluster`).
    pub fleet_hpm: FleetHpm,
    /// The merged fleet workload metrics.
    pub metrics: Metrics,
    /// Mean simulated crash-to-warm-restart latency in milliseconds
    /// (0 when nothing crashed).
    pub failover_ms: f64,
    /// Nodes in rotation when the run ended (equals `nodes` unless the
    /// autoscaler drained some back to standby).
    pub active_nodes: usize,
    /// Host self-profile summed over the node engines in node order, when
    /// `--host-prof` is on.
    pub host_profile: Option<HostProfReport>,
}

/// Mean crash→restart latency over the LB's event log: each
/// `NodeRestarted` is matched to that node's most recent `NodeCrashed`.
fn mean_failover_ms(log: &jas_faults::FaultLog) -> f64 {
    let mut crashed_at: std::collections::BTreeMap<u32, SimTime> =
        std::collections::BTreeMap::new();
    let mut total_ms = 0.0;
    let mut restarts = 0u64;
    for ev in log.events() {
        match ev.what {
            jas_faults::EventKind::NodeCrashed { node } => {
                crashed_at.insert(node, ev.at);
            }
            jas_faults::EventKind::NodeRestarted { node } => {
                if let Some(at) = crashed_at.remove(&node) {
                    total_ms += ev.at.saturating_since(at).as_secs_f64() * 1e3;
                    restarts += 1;
                }
            }
            _ => {}
        }
    }
    if restarts == 0 {
        0.0
    } else {
        total_ms / restarts as f64
    }
}

/// Runs an `N > 1` fleet of engine nodes under the LB for the whole
/// configured plan and collects the fleet artifacts.
///
/// Fleet fault windows in `cfg.faults.plan` are executed by the LB; each
/// node engine sees only the local windows, so a fleet-only plan leaves
/// every node on the byte-identical healthy path.
///
/// # Panics
///
/// Panics if `nodes < 2` (the single-node path is the plain engine run,
/// not a one-node fleet).
#[must_use]
pub fn run_cluster(
    cfg: &SutConfig,
    run: RunPlan,
    nodes: usize,
    dispatch: DispatchPolicy,
) -> ClusterArtifacts {
    run_cluster_with(cfg, run, nodes, dispatch, None, None, None)
}

/// [`run_cluster`] with the scenario-layer extensions: an optional
/// reactive autoscaler, an explicit admission cap, and optional
/// per-phase HPM attribution (the fleet is chunked at each workload
/// curve phase boundary — chunked runs are digest-equivalent to
/// straight runs, so this costs nothing in determinism).
///
/// # Panics
///
/// Panics if `nodes < 2` (the single-node path is the plain engine run,
/// not a one-node fleet).
#[must_use]
pub fn run_cluster_with(
    cfg: &SutConfig,
    run: RunPlan,
    nodes: usize,
    dispatch: DispatchPolicy,
    autoscale: Option<AutoscaleConfig>,
    max_in_flight: Option<u64>,
    mut phases: Option<&mut PhaseHpm>,
) -> ClusterArtifacts {
    assert!(
        nodes >= 2,
        "run_cluster needs a fleet; --nodes 1 is the legacy path"
    );
    let fleet_nodes: Vec<EngineNode> = (0..nodes)
        .map(|i| {
            let mut node_cfg = cfg.clone();
            node_cfg.seed = cfg.seed ^ (i as u64).wrapping_mul(NODE_SEED_SALT);
            node_cfg.faults.plan = cfg.faults.plan.local_only();
            EngineNode::new(node_cfg, run)
        })
        .collect();
    let lb_metrics = Metrics::new(run.throughput_bin, run.steady_start(), run.end());
    let defaults = ClusterConfig::default();
    let cluster_cfg = ClusterConfig {
        nodes,
        dispatch,
        epoch: cfg.quantum * EPOCH_QUANTA,
        seed: cfg.seed,
        plan: cfg.faults.plan.clone(),
        retry: cfg.faults.retry,
        autoscale,
        max_in_flight: max_in_flight.unwrap_or(defaults.max_in_flight),
        ..defaults
    };
    let mut cluster = Cluster::new(cluster_cfg, fleet_nodes, lb_metrics);
    let mut arrivals = Driver::with_curve(DriverConfig::at_ir(cfg.ir), cfg.curve.clone());
    if phases.is_some() {
        for boundary_s in cfg.curve.phase_boundaries(run.end().as_secs_f64()) {
            let until = SimTime::ZERO + SimDuration::from_secs_f64(boundary_s);
            cluster.run(&mut arrivals, until);
            if let Some(acc) = phases.as_deref_mut() {
                acc.observe(boundary_s, &fleet_counters(&cluster));
            }
        }
    }
    cluster.run(&mut arrivals, run.end());
    cluster.finish();
    if let Some(acc) = phases {
        acc.observe(run.end().as_secs_f64(), &fleet_counters(&cluster));
    }
    let active_nodes = cluster.active_nodes();
    let engines = || cluster.nodes().iter().map(EngineNode::engine);
    let host_profile = engines()
        .filter_map(Engine::host_profile)
        .reduce(|mut sum, report| {
            sum.merge(&report);
            sum
        });
    ClusterArtifacts {
        config: cfg.clone(),
        nodes,
        dispatch,
        stats: *cluster.stats(),
        verdict: cluster.verdict(),
        hpm_digest: cluster.hpm_digest(),
        trace_digest: cluster.trace_digest(),
        trace_events: engines().map(|e| e.tracer().len()).sum(),
        fault_digest: cluster.fault_digest(),
        fault_events: engines().map(|e| e.fault_log().len()).sum::<usize>() + cluster.log().len(),
        node_hpm_digests: cluster
            .nodes()
            .iter()
            .map(ClusterNode::hpm_digest)
            .collect(),
        fleet_hpm: cluster.fleet_hpm(),
        metrics: cluster.merged_metrics(),
        failover_ms: mean_failover_ms(cluster.log()),
        active_nodes,
        host_profile,
    }
}

/// Counter-wise sum of every node's cumulative counters, for per-phase
/// fleet attribution.
fn fleet_counters(cluster: &Cluster<EngineNode>) -> CounterFile {
    let mut total = CounterFile::new();
    for node in cluster.nodes() {
        total.merge(&node.counters());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::Lane;

    #[test]
    fn a_lane_panic_resurfaces_on_the_caller_with_its_message() {
        let lane = Lane::<u64>::spawn();
        lane.launch(Box::new(|| 7));
        assert_eq!(lane.land(), 7);
        lane.launch(Box::new(|| panic!("lane job failed at epoch {}", 3)));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lane.land()))
            .expect_err("landing a panicked job re-raises its panic");
        // `panic!` carries a `&str` or a `String`, depending on formatting.
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("lane job failed at epoch 3"));
    }
}
