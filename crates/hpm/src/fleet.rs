//! Fleet HPM: per-node counter files plus machine-room aggregates.
//!
//! A cluster run produces one cumulative [`CounterFile`] per app-server
//! node; `--figure cluster` reports each node's file alongside the fleet
//! aggregate (counter-wise sum), the multi-node analogue of the paper's
//! single-machine `hpmcount` totals.

use jas_cpu::{CounterFile, HpmEvent};
use jas_simkernel::snapshot::WordDigest;

/// Per-node HPM counter files with fleet-wide aggregation.
#[derive(Clone, Debug, Default)]
pub struct FleetHpm {
    nodes: Vec<CounterFile>,
}

impl FleetHpm {
    /// A fleet of `n` nodes with zeroed counter files.
    #[must_use]
    pub fn new(n: usize) -> FleetHpm {
        FleetHpm {
            nodes: vec![CounterFile::new(); n],
        }
    }

    /// Replaces node `i`'s cumulative counter file.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_node(&mut self, i: usize, counters: CounterFile) {
        self.nodes[i] = counters;
    }

    /// Node `i`'s cumulative counter file.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &CounterFile {
        &self.nodes[i]
    }

    /// All per-node counter files, in node order.
    #[must_use]
    pub fn nodes(&self) -> &[CounterFile] {
        &self.nodes
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a zero-node fleet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Fleet aggregate: counter-wise sum over every node.
    #[must_use]
    pub fn aggregate(&self) -> CounterFile {
        let mut total = CounterFile::new();
        for node in &self.nodes {
            total.merge(node);
        }
        total
    }

    /// FNV-1a digest over the node count and every node's counters in
    /// node order — the fleet analogue of the engine's HPM digest, so a
    /// per-node counter shift is visible even when the aggregate sums
    /// cancel out.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = WordDigest::new();
        d.mix(self.nodes.len() as u64);
        for node in &self.nodes {
            for event in HpmEvent::ALL {
                d.mix(node.get(event));
            }
        }
        d.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_counter_wise() {
        let mut fleet = FleetHpm::new(3);
        for (i, n) in [10u64, 20, 30].into_iter().enumerate() {
            let mut f = CounterFile::new();
            f.add(HpmEvent::Cycles, n);
            f.add(HpmEvent::InstCompleted, n / 2);
            fleet.set_node(i, f);
        }
        let total = fleet.aggregate();
        assert_eq!(total.get(HpmEvent::Cycles), 60);
        assert_eq!(total.get(HpmEvent::InstCompleted), 30);
        assert_eq!(fleet.node(1).get(HpmEvent::Cycles), 20);
    }

    #[test]
    fn digest_sees_per_node_shifts_the_aggregate_hides() {
        let mut a = FleetHpm::new(2);
        let mut b = FleetHpm::new(2);
        let mut hot = CounterFile::new();
        hot.add(HpmEvent::Cycles, 100);
        let mut cold = CounterFile::new();
        cold.add(HpmEvent::Cycles, 50);
        // Same aggregate, opposite node assignment.
        a.set_node(0, hot.clone());
        a.set_node(1, cold.clone());
        b.set_node(0, cold);
        b.set_node(1, hot);
        assert_eq!(
            a.aggregate().get(HpmEvent::Cycles),
            b.aggregate().get(HpmEvent::Cycles)
        );
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn empty_fleet_is_well_defined() {
        let fleet = FleetHpm::default();
        assert!(fleet.is_empty());
        assert_eq!(fleet.len(), 0);
        assert_eq!(fleet.aggregate(), CounterFile::new());
    }
}
