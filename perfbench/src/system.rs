//! Builds and runs one workload through the simulator's public API:
//! `jas2004::cli::parse_args`, `Engine::new`/`run_to`/`run_to_end`, and
//! `jas_cluster::Cluster::run`/`finish` over `EngineNode`s.

use crate::workloads::Workload;
use jas2004::cli::{parse_args, Cli, CliOptions};
use jas2004::{CounterFile, Engine, EngineNode, HpmEvent};
use jas_cluster::{ArrivalStream, Cluster, ClusterConfig, ClusterNode};
use jas_simkernel::{SimDuration, SimTime};
use jas_trace::HostSection;
use jas_workload::{Driver, DriverConfig, Metrics, RequestKind};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Quanta per timed chunk: 32 × 32 ms = 1.024 simulated seconds, which is
/// also four 256 ms LB epochs, so fleet chunks end on epoch boundaries.
const CHUNK_QUANTA: u64 = 32;

/// Quanta per LB epoch, as `jas2004` builds its fleet.
pub const EPOCH_QUANTA: u64 = 8;

/// Node seed salt, as `jas2004` builds its fleet: node `i` runs with
/// `seed ^ i * NODE_SEED_SALT`.
const NODE_SEED_SALT: u64 = 0x4E4F_4445_5345_4544;

/// Parses a workload's argument vector with `--seed` and `extra` appended.
///
/// # Errors
///
/// Returns the CLI's message when the arguments do not parse.
pub fn parse(w: &Workload, seed: u64, extra: &[&str]) -> Result<CliOptions, String> {
    let seed = seed.to_string();
    let args = w
        .args
        .iter()
        .copied()
        .chain(["--seed", seed.as_str()])
        .chain(extra.iter().copied());
    match parse_args(args) {
        Ok(Cli::Run(options)) => Ok(*options),
        Ok(Cli::Help) => Err(format!("{}: the arguments ask for help", w.name)),
        Err(e) => Err(format!("{}: {e}", w.name)),
    }
}

/// Host seconds inside the fleet's nodes, recorded by [`Node`]s that share
/// one.
#[derive(Clone, Debug, Default)]
pub struct NodeTimes {
    /// Seconds inside `run_to`, summed over nodes.
    pub run_to_s: f64,
    /// The slowest node's `run_to` seconds per epoch, keyed by the epoch's
    /// end in nanoseconds.
    pub slowest_s: BTreeMap<u64, f64>,
    /// Seconds inside `snapshot` and `restore`.
    pub snapshot_s: f64,
}

/// An [`EngineNode`] as the LB drives it, timing the LB's calls into it
/// when it shares a [`NodeTimes`].
pub struct Node {
    inner: EngineNode,
    times: Option<Rc<RefCell<NodeTimes>>>,
}

impl Node {
    /// The node's engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.inner.engine()
    }

    fn timed<R>(
        &mut self,
        call: impl FnOnce(&mut EngineNode) -> R,
        charge: impl FnOnce(&mut NodeTimes, f64),
    ) -> R {
        let Some(times) = self.times.clone() else {
            return call(&mut self.inner);
        };
        let start = Instant::now();
        let result = call(&mut self.inner);
        charge(&mut times.borrow_mut(), start.elapsed().as_secs_f64());
        result
    }
}

impl ClusterNode for Node {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn run_to(&mut self, until: SimTime) {
        self.timed(
            |n| n.run_to(until),
            |t, secs| {
                t.run_to_s += secs;
                let slowest = t.slowest_s.entry(until.as_nanos()).or_insert(0.0);
                *slowest = slowest.max(secs);
            },
        );
    }

    fn push_arrival(&mut self, at: SimTime, kind: RequestKind) {
        self.inner.push_arrival(at, kind);
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn errored(&self) -> u64 {
        self.inner.errored()
    }

    fn in_flight(&self) -> u64 {
        self.inner.in_flight()
    }

    fn snapshot(&mut self) -> Vec<u8> {
        self.timed(|n| n.snapshot(), |t, secs| t.snapshot_s += secs)
    }

    fn restore(&mut self, bytes: &[u8]) {
        self.timed(|n| n.restore(bytes), |t, secs| t.snapshot_s += secs);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn hpm_digest(&self) -> u64 {
        self.inner.hpm_digest()
    }

    fn trace_digest(&self) -> u64 {
        self.inner.trace_digest()
    }

    fn fault_digest(&self) -> u64 {
        self.inner.fault_digest()
    }

    fn counters(&self) -> CounterFile {
        self.inner.counters()
    }

    fn metrics(&self) -> Metrics {
        self.inner.metrics()
    }
}

/// The LB's arrival stream — the workload driver `jas2004` gives its
/// fleet — counting draws and, when timed, their host time.
pub struct Arrivals {
    driver: Driver,
    timed: bool,
    /// Arrivals drawn.
    pub draws: u64,
    /// Host seconds inside `Driver::next_arrival` (timed streams only).
    pub secs: f64,
}

impl ArrivalStream for Arrivals {
    fn next_arrival(&mut self) -> (SimDuration, RequestKind) {
        self.draws += 1;
        if !self.timed {
            return self.driver.next_arrival();
        }
        let start = Instant::now();
        let arrival = self.driver.next_arrival();
        self.secs += start.elapsed().as_secs_f64();
        arrival
    }
}

/// The fleet: the LB over its nodes, and the stream it draws arrivals from.
pub struct Fleet {
    /// The load balancer and its nodes.
    pub cluster: Cluster<Node>,
    /// The arrival stream.
    pub arrivals: Arrivals,
}

/// One constructed system under test.
pub enum System {
    /// One engine drawing its own arrivals.
    Single(Box<Engine>),
    /// `--nodes N > 1`: engines behind the LB.
    Fleet(Box<Fleet>),
}

/// One timed run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Host seconds from the first chunk through `finish`.
    pub run_s: f64,
    /// Host seconds inside the chunk calls (`Engine::run_to` or
    /// `Cluster::run`).
    pub advance_s: f64,
    /// Host milliseconds per simulated second, one sample per chunk.
    pub chunk_ms: Vec<f64>,
}

/// What a finished run produced: the digest lines the output check
/// compares, and the modelled design's outputs.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `(label, digest)` lines, in the order `jas2004` prints them.
    pub digests: Vec<(String, u64)>,
    /// Fleet requests unaccounted for; 0 on one node.
    pub lost: u64,
    /// Simulated cycles over the whole run, summed over cores and nodes.
    pub cycles: u64,
    /// Completed operations per simulated second over the steady window.
    pub jops: f64,
    /// Steady-window cycles per instruction over cores and nodes.
    pub cpi: f64,
    /// Share of steady-window requests that missed the scenario's web SLO,
    /// errored and shed requests counting as misses.
    pub slo_miss_frac: f64,
}

impl System {
    /// Builds what `o` describes, as `jas2004` would. With `times`, every
    /// fleet node times the LB's calls into it and the arrival stream times
    /// its draws.
    #[must_use]
    pub fn build(o: &CliOptions, times: Option<&Rc<RefCell<NodeTimes>>>) -> System {
        if o.nodes <= 1 {
            return System::Single(Box::new(Engine::new(o.config.clone(), o.plan)));
        }
        let cfg = &o.config;
        let spec = o.scenario_spec.as_deref();
        let nodes = (0..o.nodes)
            .map(|i| {
                let mut node_cfg = cfg.clone();
                node_cfg.seed = cfg.seed ^ (i as u64).wrapping_mul(NODE_SEED_SALT);
                node_cfg.faults.plan = cfg.faults.plan.local_only();
                Node {
                    inner: EngineNode::new(node_cfg, o.plan),
                    times: times.cloned(),
                }
            })
            .collect();
        let defaults = ClusterConfig::default();
        let cluster_cfg = ClusterConfig {
            nodes: o.nodes,
            dispatch: o.dispatch,
            epoch: cfg.quantum * EPOCH_QUANTA,
            seed: cfg.seed,
            plan: cfg.faults.plan.clone(),
            retry: cfg.faults.retry,
            autoscale: spec.and_then(|s| s.autoscale),
            max_in_flight: spec.map_or(defaults.max_in_flight, |s| s.max_in_flight),
            ..defaults
        };
        let lb_metrics = Metrics::new(o.plan.throughput_bin, o.plan.steady_start(), o.plan.end());
        System::Fleet(Box::new(Fleet {
            cluster: Cluster::new(cluster_cfg, nodes, lb_metrics),
            arrivals: Arrivals {
                driver: Driver::with_curve(DriverConfig::at_ir(cfg.ir), cfg.curve.clone()),
                timed: times.is_some(),
                draws: 0,
                secs: 0.0,
            },
        }))
    }

    /// The simulation clock (the LB's clock for a fleet).
    #[must_use]
    pub fn now(&self) -> SimTime {
        match self {
            System::Single(e) => e.now(),
            System::Fleet(f) => f.cluster.now(),
        }
    }

    fn advance(&mut self, until: SimTime) {
        match self {
            System::Single(e) => e.run_to(until),
            System::Fleet(f) => {
                let Fleet { cluster, arrivals } = &mut **f;
                cluster.run(arrivals, until);
            }
        }
    }

    /// Runs the whole plan in chunks of [`CHUNK_QUANTA`] quanta, timing
    /// each, then closes the instrument windows.
    pub fn run(&mut self, o: &CliOptions) -> Run {
        let step = o.config.quantum * CHUNK_QUANTA;
        let end = o.plan.end();
        let mut chunk_ms = Vec::new();
        let mut advance_s = 0.0;
        let start = Instant::now();
        let mut until = SimTime::ZERO;
        while until < end {
            until = (until + step).min(end);
            let before = self.now();
            let chunk = Instant::now();
            self.advance(until);
            let secs = chunk.elapsed().as_secs_f64();
            advance_s += secs;
            let sim_s = self.now().saturating_since(before).as_secs_f64();
            if sim_s > 0.0 {
                chunk_ms.push(secs * 1e3 / sim_s);
            }
        }
        match self {
            System::Single(e) => e.run_to_end(),
            System::Fleet(f) => f.cluster.finish(),
        }
        Run {
            run_s: start.elapsed().as_secs_f64(),
            advance_s,
            chunk_ms,
        }
    }

    /// Every engine in the system, node 0 first.
    #[must_use]
    pub fn engines(&self) -> Vec<&Engine> {
        match self {
            System::Single(e) => vec![e.as_ref()],
            System::Fleet(f) => f.cluster.nodes().iter().map(Node::engine).collect(),
        }
    }

    /// The finished run's outcome.
    #[must_use]
    pub fn outcome(&self, o: &CliOptions) -> Outcome {
        let mut steady = CounterFile::new();
        let mut cycles = 0;
        for e in self.engines() {
            steady.merge(&e.steady_counters());
            cycles += e.total_counters().get(HpmEvent::Cycles);
        }
        let (digests, metrics, shed, lost) = match self {
            System::Single(e) => (
                run_digests(
                    o,
                    e.hpm_digest(),
                    e.tracer().digest(),
                    e.fault_log().digest(),
                ),
                e.metrics().clone(),
                0,
                0,
            ),
            System::Fleet(f) => {
                let c = &f.cluster;
                let mut digests =
                    run_digests(o, c.hpm_digest(), c.trace_digest(), c.fault_digest());
                digests.extend(node_digests(c.nodes().iter().map(ClusterNode::hpm_digest)));
                let v = c.verdict();
                (digests, c.merged_metrics(), v.shed, v.lost)
            }
        };
        let slo_s = o
            .scenario_spec
            .as_ref()
            .map_or(Metrics::WEB_LIMIT, |s| s.slo.web_p90_s);
        Outcome {
            digests,
            lost,
            cycles,
            jops: metrics.jops(),
            cpi: steady.cpi().unwrap_or(0.0),
            slo_miss_frac: slo_miss_frac(&metrics, slo_s, shed),
        }
    }

    /// HOSTPROF seconds per section, summed over the engines, in
    /// `HostSection::ALL` order; `None` unless built with `--host-prof`.
    #[must_use]
    pub fn host_profile(&self) -> Option<[f64; HostSection::ALL.len()]> {
        let mut sum = [0.0; HostSection::ALL.len()];
        for e in self.engines() {
            for (s, x) in sum.iter_mut().zip(e.host_profile()?.section_secs) {
                *s += x;
            }
        }
        Some(sum)
    }
}

/// The run-level digest lines `jas2004` prints: HPM always, TRACE when
/// tracing is on, FAULT when a fault plan is armed.
fn run_digests(o: &CliOptions, hpm: u64, trace: u64, fault: u64) -> Vec<(String, u64)> {
    let mut digests = vec![("HPM_DIGEST".to_string(), hpm)];
    if o.config.trace.enabled() {
        digests.push(("TRACE_DIGEST".to_string(), trace));
    }
    if !o.config.faults.plan.is_empty() {
        digests.push(("FAULT_DIGEST".to_string(), fault));
    }
    digests
}

/// The fleet's per-node digest lines, node 0 first.
fn node_digests(digests: impl Iterator<Item = u64>) -> impl Iterator<Item = (String, u64)> {
    digests
        .enumerate()
        .map(|(i, d)| (format!("NODE{i}_HPM_DIGEST"), d))
}

/// Steady-window requests over the web SLO plus errored and shed requests,
/// over all of them.
fn slo_miss_frac(m: &Metrics, limit_s: f64, shed: u64) -> f64 {
    let timed: u64 = RequestKind::ALL
        .iter()
        .filter(|k| k.is_web() || k.is_rmi())
        .map(|&k| m.completed(k))
        .sum();
    let late = (m.slo_miss_fraction(limit_s) * timed as f64).round();
    let failed = (m.errors() + shed) as f64;
    let total = timed as f64 + failed;
    if total == 0.0 {
        0.0
    } else {
        (late + failed) / total
    }
}

/// Runs the workload the way `jas2004` itself does — one straight
/// `run_to_end`, or `jas2004::run_cluster_with` for a fleet — and returns
/// its digest lines and lost count, which every benchmark run must match.
#[must_use]
pub fn reference(o: &CliOptions) -> (Vec<(String, u64)>, u64) {
    if o.nodes <= 1 {
        let mut engine = Engine::new(o.config.clone(), o.plan);
        engine.run_to_end();
        let out = System::Single(Box::new(engine)).outcome(o);
        return (out.digests, out.lost);
    }
    let spec = o.scenario_spec.as_deref();
    let art = jas2004::run_cluster_with(
        &o.config,
        o.plan,
        o.nodes,
        o.dispatch,
        spec.and_then(|s| s.autoscale),
        spec.map(|s| s.max_in_flight),
        None,
    );
    let mut digests = run_digests(o, art.hpm_digest, art.trace_digest, art.fault_digest);
    digests.extend(node_digests(art.node_hpm_digests.into_iter()));
    (digests, art.verdict.lost)
}
