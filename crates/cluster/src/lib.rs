//! Deterministic multi-node cluster layer (DESIGN.md §13).
//!
//! A front-end load balancer dispatches the workload's arrival stream
//! across N independent app-server nodes with pluggable policies
//! ([`DispatchPolicy`]), periodic health checks, and fleet-level fault
//! handling: crash-stopped nodes are warm-restarted from their last
//! quiescent snapshot, idempotent in-flight work is re-dispatched to
//! survivors with jittered backoff, gray-failing or partitioned nodes
//! are ejected after consecutive failed probes and readmitted through
//! half-open probing, and admission control sheds load when every node
//! is saturated.
//!
//! The crate is generic over [`ClusterNode`] so the LB logic is
//! unit-testable against a cheap mock; the production node (an engine in
//! external-arrival mode) lives in the `jas2004` core crate. All LB
//! decisions happen on one sequential timeline from scheduler-invariant
//! inputs, so fleet digests are bit-identical across `--threads` and
//! both schedulers, and a one-node fleet with no fleet faults reproduces
//! the single-node digests exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dispatch;
mod lb;
mod node;

pub use dispatch::DispatchPolicy;
pub use lb::{AutoscaleConfig, Cluster, ClusterConfig, ClusterVerdict, FleetStats};
pub use node::{ArrivalStream, ClusterNode};

#[cfg(test)]
mod tests {
    use super::*;
    use jas_cpu::{CounterFile, HpmEvent};
    use jas_faults::FaultPlan;
    use jas_simkernel::{SimDuration, SimTime};
    use jas_workload::{Metrics, RequestKind};
    use std::collections::VecDeque;

    /// A deterministic fixed-latency node: every arrival completes
    /// exactly `latency` after its arrival instant.
    struct MockNode {
        clock: SimTime,
        latency: SimDuration,
        pending: VecDeque<(SimTime, RequestKind)>,
        completed: u64,
        errored: u64,
        counters: CounterFile,
        metrics: Metrics,
        /// `snapshot()` calls so far.
        snapshots: u64,
    }

    impl MockNode {
        fn new(latency_ms: u64) -> MockNode {
            MockNode {
                clock: SimTime::ZERO,
                latency: SimDuration::from_millis(latency_ms),
                pending: VecDeque::new(),
                completed: 0,
                errored: 0,
                counters: CounterFile::default(),
                metrics: test_metrics(),
                snapshots: 0,
            }
        }
    }

    impl ClusterNode for MockNode {
        fn now(&self) -> SimTime {
            self.clock
        }

        fn run_to(&mut self, until: SimTime) {
            while let Some(&(at, kind)) = self.pending.front() {
                let done = at + self.latency;
                if done > until {
                    break;
                }
                self.pending.pop_front();
                self.completed += 1;
                self.counters.add(HpmEvent::InstCompleted, 1000);
                self.metrics.record(kind, at, done);
            }
            self.clock = until;
        }

        fn push_arrival(&mut self, at: SimTime, kind: RequestKind) {
            let pos = self.pending.partition_point(|&(t, _)| t <= at);
            self.pending.insert(pos, (at, kind));
        }

        fn completed(&self) -> u64 {
            self.completed
        }

        fn errored(&self) -> u64 {
            self.errored
        }

        fn in_flight(&self) -> u64 {
            self.pending.len() as u64
        }

        fn snapshot(&mut self) -> Vec<u8> {
            assert!(self.pending.is_empty(), "snapshot of a busy mock");
            self.snapshots += 1;
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&self.clock.as_nanos().to_le_bytes());
            bytes.extend_from_slice(&self.completed.to_le_bytes());
            bytes.extend_from_slice(&self.errored.to_le_bytes());
            bytes
        }

        fn restore(&mut self, bytes: &[u8]) {
            let word = |i: usize| {
                u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
            };
            self.clock = SimTime::from_nanos(word(0));
            self.completed = word(1);
            self.errored = word(2);
            self.pending.clear();
        }

        fn finish(&mut self) {}

        fn hpm_digest(&self) -> u64 {
            self.counters.get(HpmEvent::InstCompleted) ^ 0x5eed
        }

        fn trace_digest(&self) -> u64 {
            self.completed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }

        fn fault_digest(&self) -> u64 {
            self.errored
        }

        fn counters(&self) -> CounterFile {
            self.counters.clone()
        }

        fn metrics(&self) -> Metrics {
            self.metrics.clone()
        }
    }

    /// Fixed-gap arrival stream of idempotent web requests.
    struct Steady {
        gap: SimDuration,
        kind: RequestKind,
    }

    impl ArrivalStream for Steady {
        fn next_arrival(&mut self) -> (SimDuration, RequestKind) {
            (self.gap, self.kind)
        }
    }

    fn test_metrics() -> Metrics {
        Metrics::new(
            SimDuration::from_secs(1),
            SimTime::ZERO,
            SimTime::from_secs(600),
        )
    }

    fn cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            epoch: SimDuration::from_millis(100),
            restart_delay: SimDuration::from_millis(300),
            snapshot_every: 2,
            ..ClusterConfig::default()
        }
    }

    fn fleet(n: usize, cfg: ClusterConfig) -> Cluster<MockNode> {
        let nodes = (0..n).map(|_| MockNode::new(10)).collect();
        Cluster::new(cfg, nodes, test_metrics())
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let mut c = fleet(3, cfg(3));
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(25),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(3));
        let done: Vec<u64> = c.nodes().iter().map(|n| n.completed()).collect();
        let (lo, hi) = (done.iter().min().unwrap(), done.iter().max().unwrap());
        assert!(hi - lo <= 1, "uneven spread: {done:?}");
        assert_eq!(c.verdict().lost, 0);
    }

    #[test]
    fn least_conn_prefers_the_idle_node() {
        let mut c = fleet(
            2,
            ClusterConfig {
                dispatch: DispatchPolicy::LeastConn,
                ..cfg(2)
            },
        );
        // Make node 1 slow so its queue backs up; least-conn should then
        // favor node 0.
        c.nodes_mut_for_tests()[1].latency = SimDuration::from_millis(90);
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(20),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(4));
        let done: Vec<u64> = c.nodes().iter().map(|n| n.completed()).collect();
        assert!(done[0] > done[1], "least-conn ignored load: {done:?}");
    }

    #[test]
    fn ps_clone_duplicates_idempotent_work() {
        let mut c = fleet(
            2,
            ClusterConfig {
                dispatch: DispatchPolicy::PsClone,
                ..cfg(2)
            },
        );
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(50),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(2));
        let s = *c.stats();
        assert!(s.cloned > 0, "no pairs cloned");
        assert_eq!(s.dispatched, s.offered + s.cloned - s.shed);
        assert_eq!(c.verdict().lost, 0);
    }

    #[test]
    fn crash_storm_conserves_every_request() {
        let mut c = fleet(
            3,
            ClusterConfig {
                plan: FaultPlan::parse("node-crash@0-20:0.08").expect("parses"),
                seed: 7,
                ..cfg(3)
            },
        );
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(15),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(20));
        let s = *c.stats();
        assert!(s.crashes > 0, "storm produced no crashes");
        assert!(s.restarts > 0, "no warm restarts");
        let v = c.verdict();
        assert_eq!(v.lost, 0, "lost requests: {s:?}");
    }

    #[test]
    fn non_idempotent_crash_victims_error_out_instead_of_replaying() {
        let mut c = fleet(
            2,
            ClusterConfig {
                plan: FaultPlan::parse("node-crash@0-30:0.2").expect("parses"),
                seed: 11,
                ..cfg(2)
            },
        );
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(15),
            kind: RequestKind::Purchase,
        };
        c.run(&mut arrivals, SimTime::from_secs(30));
        let s = *c.stats();
        assert!(s.crashes > 0);
        assert!(s.crash_errored > 0, "crashes never caught work in flight");
        assert_eq!(s.redispatched, 0, "non-idempotent work must not replay");
        assert_eq!(c.verdict().lost, 0);
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        let mut c = fleet(
            2,
            ClusterConfig {
                max_in_flight: 2,
                ..cfg(2)
            },
        );
        // 10ms service, 1ms arrivals, cap 2×2: heavy overload.
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(1),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(2));
        let v = c.verdict();
        assert!(v.shed > 0, "no shedding under saturation");
        assert!(v.shed_fraction > 0.0 && v.shed_fraction < 1.0);
        assert_eq!(v.lost, 0);
    }

    #[test]
    fn partition_ejects_then_halfopen_readmits() {
        let mut c = fleet(
            2,
            ClusterConfig {
                plan: FaultPlan::parse("partition@0-5:1.0").expect("parses"),
                eject_after: 2,
                readmit_after: 2,
                ..cfg(2)
            },
        );
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(40),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(12));
        let s = *c.stats();
        assert!(s.ejections >= 2, "partition never ejected: {s:?}");
        assert!(s.readmissions >= 2, "half-open never readmitted: {s:?}");
        assert_eq!(c.verdict().lost, 0);
    }

    #[test]
    fn fleet_runs_are_reproducible() {
        let run = || {
            let mut c = fleet(
                3,
                ClusterConfig {
                    plan: FaultPlan::parse(
                        "node-crash@2-10:0.05,node-slow@0-8:0.3,partition@4-9:0.2",
                    )
                    .expect("parses"),
                    seed: 42,
                    ..cfg(3)
                },
            );
            let mut arrivals = Steady {
                gap: SimDuration::from_millis(10),
                kind: RequestKind::Browse,
            };
            c.run(&mut arrivals, SimTime::from_secs(15));
            (
                *c.stats(),
                c.hpm_digest(),
                c.trace_digest(),
                c.fault_digest(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fleet_hpm_aggregates_across_nodes() {
        let mut c = fleet(2, cfg(2));
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(30),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(2));
        let fleet_hpm = c.fleet_hpm();
        let total: u64 = (0..2)
            .map(|i| fleet_hpm.node(i).get(HpmEvent::InstCompleted))
            .sum();
        assert_eq!(fleet_hpm.aggregate().get(HpmEvent::InstCompleted), total);
        assert!(total > 0);
    }

    #[test]
    fn autoscaler_scales_up_under_load_and_down_when_idle() {
        let autoscale = AutoscaleConfig {
            min_nodes: 1,
            max_nodes: 3,
            up_jops_per_node: 50.0,
            down_jops_per_node: 20.0,
            slo_miss_fraction: 0.10,
            slo_s: 10.0,
            evaluate_every: 2,
            cooldown_epochs: 2,
        };
        let mut c = fleet(
            3,
            ClusterConfig {
                autoscale: Some(autoscale),
                ..cfg(3)
            },
        );
        assert_eq!(c.active_nodes(), 1, "fleet must start at the floor");
        // Saturating load: 10ms service per node vs 2ms arrivals.
        let mut heavy = Steady {
            gap: SimDuration::from_millis(2),
            kind: RequestKind::Browse,
        };
        c.run(&mut heavy, SimTime::from_secs(5));
        assert_eq!(c.active_nodes(), 3, "overload must activate standbys");
        assert_eq!(c.stats().scale_ups, 2);
        // Near-idle load: the autoscaler should drain back to the floor.
        let mut light = Steady {
            gap: SimDuration::from_secs(1),
            kind: RequestKind::Browse,
        };
        c.run(&mut light, SimTime::from_secs(40));
        assert_eq!(c.active_nodes(), 1, "idle fleet must drain to the floor");
        let s = *c.stats();
        assert!(s.scale_downs >= 2, "{s:?}");
        // Conservation holds across every scaling action.
        assert_eq!(c.verdict().lost, 0);
        // Fleet shape reconciles with the scaling counters.
        assert_eq!(
            c.active_nodes() as u64,
            autoscale.min_nodes as u64 + s.scale_ups - s.scale_downs,
        );
    }

    #[test]
    fn standby_nodes_receive_no_dispatch() {
        let mut c = fleet(
            2,
            ClusterConfig {
                autoscale: Some(AutoscaleConfig {
                    min_nodes: 1,
                    max_nodes: 2,
                    up_jops_per_node: 1.0e9, // never scale up
                    down_jops_per_node: 0.0, // never scale down
                    ..AutoscaleConfig::default()
                }),
                ..cfg(2)
            },
        );
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(50),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(5));
        assert!(c.nodes()[0].completed() > 0);
        assert_eq!(
            c.nodes()[1].completed(),
            0,
            "standby node must stay out of rotation"
        );
        assert_eq!(c.verdict().lost, 0);
    }

    #[test]
    fn chunked_runs_match_a_single_run() {
        let build = || {
            fleet(
                3,
                ClusterConfig {
                    plan: FaultPlan::parse("node-crash@2-10:0.05,node-slow@0-8:0.3")
                        .expect("parses"),
                    seed: 42,
                    autoscale: Some(AutoscaleConfig {
                        min_nodes: 2,
                        max_nodes: 3,
                        ..AutoscaleConfig::default()
                    }),
                    ..cfg(3)
                },
            )
        };
        let outcome = |c: &Cluster<MockNode>| {
            (
                *c.stats(),
                c.hpm_digest(),
                c.trace_digest(),
                c.fault_digest(),
                c.active_nodes(),
            )
        };
        let mut single = build();
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(10),
            kind: RequestKind::Browse,
        };
        single.run(&mut arrivals, SimTime::from_secs(15));
        let mut chunked = build();
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(10),
            kind: RequestKind::Browse,
        };
        // Phase-boundary style chunking, including a boundary that is
        // not on the epoch grid.
        for until_ms in [2_500, 7_300, 12_000, 15_000] {
            chunked.run(&mut arrivals, SimTime::from_millis(until_ms));
        }
        assert_eq!(outcome(&single), outcome(&chunked));
    }

    #[test]
    fn merged_metrics_see_every_nodes_completions() {
        let mut c = fleet(2, cfg(2));
        let mut arrivals = Steady {
            gap: SimDuration::from_millis(30),
            kind: RequestKind::Browse,
        };
        c.run(&mut arrivals, SimTime::from_secs(2));
        c.finish();
        let merged = c.merged_metrics();
        assert_eq!(merged.completed(RequestKind::Browse), c.stats().completions);
    }

    #[test]
    fn snapshots_are_taken_only_when_a_node_can_crash() {
        // One arrival a minute: every node is quiescent at every epoch.
        let snapshots = |spec: &str| {
            let mut c = fleet(
                3,
                ClusterConfig {
                    plan: FaultPlan::parse(spec).expect("parses"),
                    ..cfg(3)
                },
            );
            let mut arrivals = Steady {
                gap: SimDuration::from_secs(60),
                kind: RequestKind::Browse,
            };
            c.run(&mut arrivals, SimTime::from_secs(2));
            c.nodes().iter().map(|n| n.snapshots).sum::<u64>()
        };
        assert_eq!(snapshots(""), 0, "healthy plan");
        assert_eq!(snapshots("node-slow@0-2:0.5,partition@0-2:0.5"), 0);
        // A rate-0 crash window never fires, so all 3 nodes stay up: one
        // initial snapshot each plus one every 2 of the 20 epochs.
        assert_eq!(snapshots("node-crash@0-2:0"), 3 * (1 + 20 / 2));
    }
}
