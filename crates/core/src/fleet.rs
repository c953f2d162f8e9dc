//! The production cluster node: an [`Engine`] in external-arrival mode
//! behind the `jas-cluster` load balancer (DESIGN.md §13).
//!
//! `--nodes 1` never reaches this module — the CLI runs the legacy
//! single-engine path, byte-identical to a build without the cluster
//! layer. For `--nodes N > 1`, [`run_cluster`] builds N independent
//! engine stacks (distinct seeds, same configuration shape), hands the
//! workload's arrival process to the LB, and returns fleet artifacts.

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

/// Per-node seed salt ("NODESEED"): node 0 keeps the configured seed,
/// node `i` folds `i * SALT` in, so each stack draws independent streams
/// while staying a pure function of the run seed.
const NODE_SEED_SALT: u64 = 0x4E4F_4445_5345_4544;

/// Quanta per LB epoch. The epoch must be a whole number of quanta so
/// node clocks land exactly on epoch boundaries under both schedulers.
const EPOCH_QUANTA: u64 = 8;

/// An [`Engine`] wrapped as a cluster node: arrivals come exclusively
/// from the LB, snapshots go through the engine's `Persist` visitor.
pub struct EngineNode {
    cfg: SutConfig,
    run: RunPlan,
    engine: Engine,
}

impl EngineNode {
    /// Builds one node stack. The node's fault plan must already be
    /// reduced to local windows (`FaultPlan::local_only`) — fleet
    /// windows are the LB's business.
    #[must_use]
    pub fn new(cfg: SutConfig, run: RunPlan) -> EngineNode {
        let mut engine = Engine::new(cfg.clone(), run);
        engine.enable_external_arrivals();
        EngineNode { cfg, run, engine }
    }

    /// The wrapped engine (read-only).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl ClusterNode for EngineNode {
    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn run_to(&mut self, until: SimTime) {
        self.engine.run_to(until);
    }

    fn push_arrival(&mut self, at: SimTime, kind: RequestKind) {
        self.engine.push_external_arrival(at, kind);
    }

    fn completed(&self) -> u64 {
        self.engine.frontend_completed()
    }

    fn errored(&self) -> u64 {
        self.engine.frontend_aborted()
    }

    fn in_flight(&self) -> u64 {
        self.engine.in_flight() + self.engine.external_arrivals_queued() as u64
    }

    fn snapshot(&mut self) -> Vec<u8> {
        let mut saver = Saver::new();
        self.engine.persist_state(&mut saver);
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
        self.engine = engine;
    }

    fn finish(&mut self) {
        self.engine.run_to_end();
    }

    fn hpm_digest(&self) -> u64 {
        self.engine.hpm_digest()
    }

    fn trace_digest(&self) -> u64 {
        self.engine.tracer().digest()
    }

    fn fault_digest(&self) -> u64 {
        self.engine.fault_log().digest()
    }

    fn counters(&self) -> CounterFile {
        self.engine.total_counters()
    }

    fn metrics(&self) -> Metrics {
        self.engine.metrics().clone()
    }
}

/// Everything a cluster run produces, for the report/figure layer.
pub struct ClusterArtifacts {
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
    /// Fleet fault digest (per-node logs plus the LB's own).
    pub fault_digest: u64,
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
/// Panics if `nodes < 2` (the single-node path is the legacy engine run,
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
/// Panics if `nodes < 2` (the single-node path is the legacy engine run,
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
    let host_profile = cluster
        .nodes()
        .iter()
        .filter_map(|node| node.engine().host_profile())
        .reduce(|mut sum, report| {
            sum.merge(&report);
            sum
        });
    ClusterArtifacts {
        nodes,
        dispatch,
        stats: *cluster.stats(),
        verdict: cluster.verdict(),
        hpm_digest: cluster.hpm_digest(),
        trace_digest: cluster.trace_digest(),
        fault_digest: cluster.fault_digest(),
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
