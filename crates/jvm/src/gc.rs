//! The stop-the-world mark-sweep-compact collector.
//!
//! Matches the paper's J9 configuration: a flat (non-generational) heap
//! collected by mark + sweep, with compaction only when fragmentation
//! actually blocks allocation — the paper observed *no* compaction during
//! its 60-minute run, and with a healthy heap this collector reproduces
//! that. Mark work dominates (the paper: >80% of GC time), which emerges
//! here because marking visits every live object while sweeping is a linear
//! pass the allocator mostly amortizes.

use crate::heap::SimHeap;
use crate::object::{ObjectId, Refs};
use std::collections::VecDeque;

/// Order in which the marker traverses the object graph.
///
/// The paper suggests a traversal order that "respects locality during
/// marking" as an optimization opportunity; [`Traversal::AddressOrdered`]
/// implements it and the ablation bench measures the locality difference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Traversal {
    /// Depth-first (classic mark stack).
    #[default]
    DepthFirst,
    /// Breadth-first (queue).
    BreadthFirst,
    /// Locality-respecting: pending references are drained in heap-address
    /// order, so the marker walks mostly forward through memory.
    AddressOrdered,
}

/// Outcome of one collection, in *work units* the execution layer converts
/// to simulated time (see DESIGN.md "heap scaling").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcReport {
    /// Objects visited by the marker.
    pub marked_objects: u64,
    /// Bytes of live data marked.
    pub marked_bytes: u64,
    /// Reference edges traversed.
    pub edges_traversed: u64,
    /// Objects reclaimed by the sweep.
    pub swept_objects: u64,
    /// Bytes reclaimed by the sweep.
    pub freed_bytes: u64,
    /// Whether a compaction ran.
    pub compacted: bool,
    /// Bytes moved by compaction (0 unless `compacted`).
    pub compact_moved_bytes: u64,
    /// Free-list bytes after the collection.
    pub free_after: u64,
    /// Dark-matter bytes after the collection.
    pub dark_matter_after: u64,
    /// Live bytes after the collection.
    pub live_after: u64,
    /// Mean absolute address jump per mark step (bytes) — the locality
    /// metric for the traversal-order ablation.
    pub mark_jump_mean: f64,
}

impl GcReport {
    /// Fraction of traversal+sweep object work spent marking — the paper
    /// reports >80% of GC time in mark.
    #[must_use]
    pub fn mark_fraction(&self, mark_cost_per_object: f64, sweep_cost_per_object: f64) -> f64 {
        let mark = self.marked_objects as f64 * mark_cost_per_object;
        let sweep = (self.marked_objects + self.swept_objects) as f64 * sweep_cost_per_object;
        mark / (mark + sweep)
    }
}

/// Policy knobs for [`collect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcPolicy {
    /// Traversal order for marking.
    pub traversal: Traversal,
    /// Compact when the largest allocatable fraction after sweep falls
    /// below this many bytes.
    pub compact_free_threshold: u64,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            traversal: Traversal::DepthFirst,
            compact_free_threshold: 0, // compaction only when truly exhausted
        }
    }
}

/// Runs a full stop-the-world collection over `heap` from `roots`.
pub fn collect(heap: &mut SimHeap, roots: &[ObjectId], policy: GcPolicy) -> GcReport {
    let mut report = GcReport::default();
    mark(heap, roots, policy.traversal, &mut report);
    let (swept, freed) = heap.sweep();
    report.swept_objects = swept;
    report.freed_bytes = freed;
    if heap.free_bytes() <= policy.compact_free_threshold {
        report.compacted = true;
        report.compact_moved_bytes = heap.compact();
    }
    report.free_after = heap.free_bytes();
    report.dark_matter_after = heap.dark_matter_bytes();
    report.live_after = heap.live_bytes();
    report
}

/// Runs a **minor** (young-generation) collection: marks young objects
/// reachable from `roots` and from the write-barrier remembered set, then
/// sweeps only the young generation, promoting survivors.
///
/// Old objects are conservatively treated as live (the classic generational
/// bargain — old garbage waits for a full collection), which makes minor
/// pauses proportional to the young survivors rather than the whole heap.
/// This is the generational alternative to the paper's flat-heap collector,
/// provided for the ablation suite.
pub fn collect_minor(heap: &mut SimHeap, roots: &[ObjectId], policy: GcPolicy) -> GcReport {
    let mut report = GcReport::default();
    // Root set: explicit roots (only their young members matter, but old
    // roots may reference young objects directly, so scan one hop) plus
    // remembered old objects.
    let mut minor_roots: Vec<ObjectId> = Vec::new();
    let mut scan_children_of: Vec<ObjectId> = heap.remembered.iter().copied().collect();
    scan_children_of.sort_unstable(); // determinism over the hash set
    for &r in roots {
        let Some(s) = heap.slots.get(r.index()) else {
            continue;
        };
        if !s.allocated {
            continue;
        }
        if s.young {
            minor_roots.push(r);
        } else {
            scan_children_of.push(r);
        }
    }
    for old in scan_children_of {
        for c in heap.refs(old) {
            report.edges_traversed += 1;
            let slot = &heap.slots[c.index()];
            if slot.allocated && slot.young {
                minor_roots.push(c);
            }
        }
    }
    mark_young(heap, &minor_roots, policy.traversal, &mut report);
    let (swept, freed) = heap.sweep_young();
    report.swept_objects = swept;
    report.freed_bytes = freed;
    report.free_after = heap.free_bytes();
    report.dark_matter_after = heap.dark_matter_bytes();
    report.live_after = heap.live_bytes();
    report
}

/// Marks young objects only (old references are treated as boundaries).
fn mark_young(
    heap: &mut SimHeap,
    roots: &[ObjectId],
    _traversal: Traversal,
    report: &mut GcReport,
) {
    let mut stack: Vec<ObjectId> = Vec::new();
    for &r in roots {
        let s = &mut heap.slots[r.index()];
        if s.allocated && s.young && !s.marked {
            s.marked = true;
            stack.push(r);
        }
    }
    while let Some(id) = stack.pop() {
        let s = heap.slots[id.index()];
        report.marked_objects += 1;
        report.marked_bytes += u64::from(s.size);
        for r in Refs::new(&heap.links, s.ref_head) {
            report.edges_traversed += 1;
            let slot = &mut heap.slots[r.index()];
            if slot.allocated && slot.young && !slot.marked {
                slot.marked = true;
                stack.push(r);
            }
        }
    }
}

fn mark(heap: &mut SimHeap, roots: &[ObjectId], traversal: Traversal, report: &mut GcReport) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Pending set: container depends on traversal order. AddressOrdered uses
    // a min-heap on heap address, so the marker always advances to the
    // lowest-address pending object (a prefetch-friendly packet scheme in a
    // real collector; the locality effect is the same).
    let mut stack: Vec<ObjectId> = Vec::new();
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    let mut addr_heap: BinaryHeap<Reverse<(u64, ObjectId)>> = BinaryHeap::new();

    macro_rules! push_pending {
        ($heap:expr, $id:expr) => {
            match traversal {
                Traversal::DepthFirst => stack.push($id),
                Traversal::BreadthFirst => queue.push_back($id),
                Traversal::AddressOrdered => {
                    addr_heap.push(Reverse(($heap.slots[$id.index()].addr, $id)));
                }
            }
        };
    }

    for &r in roots {
        if heap
            .slots
            .get(r.index())
            .is_some_and(|s| s.allocated && !s.marked)
        {
            heap.slots[r.index()].marked = true;
            push_pending!(heap, r);
        }
    }

    let mut last_addr: Option<u64> = None;
    let mut jump_total = 0.0f64;
    let mut steps = 0u64;
    loop {
        let next = match traversal {
            Traversal::DepthFirst => stack.pop(),
            Traversal::BreadthFirst => queue.pop_front(),
            // jas-lint: allow(D008, reason = "key is (addr, ObjectId); addresses are unique per live object and ObjectId breaks any residual tie")
            Traversal::AddressOrdered => addr_heap.pop().map(|Reverse((_, id))| id),
        };
        let Some(id) = next else { break };
        let s = heap.slots[id.index()];
        report.marked_objects += 1;
        report.marked_bytes += u64::from(s.size);
        if let Some(prev) = last_addr {
            jump_total += (s.addr as f64 - prev as f64).abs();
            steps += 1;
        }
        last_addr = Some(s.addr);
        for r in Refs::new(&heap.links, s.ref_head) {
            report.edges_traversed += 1;
            let slot = &mut heap.slots[r.index()];
            if slot.allocated && !slot.marked {
                slot.marked = true;
                push_pending!(heap, r);
            }
        }
    }
    report.mark_jump_mean = if steps == 0 {
        0.0
    } else {
        jump_total / steps as f64
    };
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{Persist, StateIo};

impl Persist for GcReport {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.marked_objects.persist(io);
        self.marked_bytes.persist(io);
        self.edges_traversed.persist(io);
        self.swept_objects.persist(io);
        self.freed_bytes.persist(io);
        self.compacted.persist(io);
        self.compact_moved_bytes.persist(io);
        self.free_after.persist(io);
        self.dark_matter_after.persist(io);
        self.live_after.persist(io);
        self.mark_jump_mean.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::object::ObjectClass;
    use jas_simkernel::Rng;

    /// `pinned_graph_reports` per traversal. Only the full collections'
    /// `mark_jump_mean` (last word) differs by traversal; the minor
    /// collector does not measure it.
    #[rustfmt::skip]
    const PINNED_DFS: [[u64; 11]; 3] = [
        [267, 56904, 666, 133, 27768, 0, 0, 4137184, 216, 56904, 0],
        [451, 96840, 1158, 216, 49408, 0, 0, 4096680, 784, 96840, 4675137722737917224],
        [572, 120008, 1451, 279, 55264, 1, 90736, 4074296, 0, 120008, 4676618374669113340],
    ];
    #[rustfmt::skip]
    const PINNED_BFS: [[u64; 11]; 3] = [
        [267, 56904, 666, 133, 27768, 0, 0, 4137184, 216, 56904, 0],
        [451, 96840, 1158, 216, 49408, 0, 0, 4096680, 784, 96840, 4675672622928034384],
        [572, 120008, 1451, 279, 55264, 1, 90736, 4074296, 0, 120008, 4676505456172853424],
    ];
    #[rustfmt::skip]
    const PINNED_ADDR: [[u64; 11]; 3] = [
        [267, 56904, 666, 133, 27768, 0, 0, 4137184, 216, 56904, 0],
        [451, 96840, 1158, 216, 49408, 0, 0, 4096680, 784, 96840, 4669664136395881913],
        [572, 120008, 1451, 279, 55264, 1, 90736, 4074296, 0, 120008, 4670039468988595363],
    ];

    fn heap() -> SimHeap {
        SimHeap::new(HeapConfig {
            capacity: 4 * 1024 * 1024,
            min_chunk: 64,
        })
    }

    #[test]
    fn unreachable_objects_are_collected() {
        let mut h = heap();
        let root = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let kept = h.allocate(ObjectClass::Bean, &[]).unwrap();
        h.add_ref(root, kept);
        let _garbage = h.allocate(ObjectClass::Array, &[]).unwrap();
        let report = collect(&mut h, &[root], GcPolicy::default());
        assert_eq!(report.marked_objects, 2);
        assert_eq!(report.swept_objects, 1);
        assert_eq!(h.live_objects(), 2);
    }

    #[test]
    fn cycles_are_collected_when_unrooted() {
        let mut h = heap();
        let a = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let b = h.allocate(ObjectClass::Bean, &[a]).unwrap();
        h.add_ref(a, b); // a <-> b cycle, no roots
        let report = collect(&mut h, &[], GcPolicy::default());
        assert_eq!(report.marked_objects, 0);
        assert_eq!(report.swept_objects, 2);
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn deep_chain_is_fully_marked() {
        let mut h = heap();
        let mut prev = h.allocate(ObjectClass::Small, &[]).unwrap();
        let root = prev;
        for _ in 0..1000 {
            let next = h.allocate(ObjectClass::Small, &[]).unwrap();
            h.add_ref(prev, next);
            prev = next;
        }
        for t in [
            Traversal::DepthFirst,
            Traversal::BreadthFirst,
            Traversal::AddressOrdered,
        ] {
            let mut h2 = h.clone();
            let report = collect(
                &mut h2,
                &[root],
                GcPolicy {
                    traversal: t,
                    ..GcPolicy::default()
                },
            );
            assert_eq!(report.marked_objects, 1001, "{t:?}");
            assert_eq!(report.swept_objects, 0, "{t:?}");
        }
    }

    #[test]
    fn traversal_orders_mark_the_same_set() {
        let mut h = heap();
        let mut rng = Rng::new(42);
        let mut ids = Vec::new();
        for _ in 0..500 {
            let id = h.allocate(ObjectClass::Bean, &[]).unwrap();
            // Random edges to earlier objects.
            for _ in 0..2 {
                if let Some(&t) = rng.pick(&ids) {
                    h.add_ref(id, t);
                }
            }
            ids.push(id);
        }
        let roots = [ids[0], ids[100], ids[499]];
        let mut marked_counts = Vec::new();
        for t in [
            Traversal::DepthFirst,
            Traversal::BreadthFirst,
            Traversal::AddressOrdered,
        ] {
            let mut h2 = h.clone();
            let report = collect(
                &mut h2,
                &roots,
                GcPolicy {
                    traversal: t,
                    ..GcPolicy::default()
                },
            );
            marked_counts.push(report.marked_objects);
        }
        assert_eq!(marked_counts[0], marked_counts[1]);
        assert_eq!(marked_counts[1], marked_counts[2]);
    }

    #[test]
    fn address_ordered_traversal_has_better_locality() {
        let mut h = heap();
        let mut rng = Rng::new(7);
        // A randomly wired graph: address-ordered marking should take much
        // smaller average jumps than depth-first.
        let mut ids = Vec::new();
        for _ in 0..2000 {
            ids.push(h.allocate(ObjectClass::Bean, &[]).unwrap());
        }
        for &id in &ids {
            for _ in 0..3 {
                let t = ids[rng.next_below(ids.len() as u64) as usize];
                h.add_ref(id, t);
            }
        }
        let roots: Vec<_> = ids.iter().copied().take(10).collect();
        let mut h_dfs = h.clone();
        let dfs = collect(&mut h_dfs, &roots, GcPolicy::default());
        let mut h_addr = h.clone();
        let addr = collect(
            &mut h_addr,
            &roots,
            GcPolicy {
                traversal: Traversal::AddressOrdered,
                ..GcPolicy::default()
            },
        );
        assert!(
            addr.mark_jump_mean < dfs.mark_jump_mean * 0.5,
            "address-ordered {} vs dfs {}",
            addr.mark_jump_mean,
            dfs.mark_jump_mean
        );
    }

    #[test]
    fn compaction_triggers_below_threshold() {
        let mut h = heap();
        let root = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let report = collect(
            &mut h,
            &[root],
            GcPolicy {
                compact_free_threshold: u64::MAX, // always compact
                ..GcPolicy::default()
            },
        );
        assert!(report.compacted);
        assert_eq!(report.dark_matter_after, 0);
    }

    #[test]
    fn no_compaction_with_healthy_heap() {
        let mut h = heap();
        let root = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let report = collect(&mut h, &[root], GcPolicy::default());
        assert!(
            !report.compacted,
            "healthy heap must not compact (paper behaviour)"
        );
    }

    #[test]
    fn report_mark_fraction_dominates() {
        let r = GcReport {
            marked_objects: 10_000,
            swept_objects: 40_000,
            ..GcReport::default()
        };
        // With the default-ish cost ratio (mark ~25x sweep per object),
        // mark should be >80% of GC work as in the paper.
        let f = r.mark_fraction(25.0, 1.0);
        assert!(f > 0.8, "mark fraction {f}");
    }

    /// A seeded random graph grown over three rounds, closed by a minor, a
    /// full and a compacting collection in turn.
    fn pinned_graph_reports(traversal: Traversal) -> Vec<Vec<u64>> {
        let classes = [
            ObjectClass::Small,
            ObjectClass::Bean,
            ObjectClass::CharArray,
            ObjectClass::Array,
            ObjectClass::Session,
        ];
        let mut h = heap();
        let mut rng = Rng::new(0x6C_0DE);
        let mut ids: Vec<ObjectId> = Vec::new();
        let mut reports = Vec::new();
        for round in 0..3 {
            for _ in 0..400 {
                let class = classes[rng.next_below(classes.len() as u64) as usize];
                let refs: Vec<ObjectId> = (0..class.ref_slots().min(3))
                    .filter_map(|_| rng.pick(&ids).copied())
                    .collect();
                let id = h.allocate(class, &refs).unwrap();
                if rng.chance(0.3) {
                    if let Some(&t) = rng.pick(&ids) {
                        h.add_ref(t, id);
                    }
                }
                ids.push(id);
            }
            let roots: Vec<ObjectId> = (0..24).filter_map(|_| rng.pick(&ids).copied()).collect();
            let policy = GcPolicy {
                traversal,
                compact_free_threshold: if round == 2 { u64::MAX } else { 0 },
            };
            let mut report = if round == 0 {
                collect_minor(&mut h, &roots, policy)
            } else {
                collect(&mut h, &roots, policy)
            };
            // Every field, `compacted` as 0/1, `mark_jump_mean` as bits.
            reports.push(crate::saved_words(&mut report));
            ids.retain(|id| h.slots[id.index()].allocated);
        }
        reports
    }

    #[test]
    fn gc_reports_are_pinned() {
        // Where references are stored must not change what is marked, in
        // which order, or at what address: these are the reports of the
        // collector with per-object reference vectors.
        for (traversal, expected) in [
            (Traversal::DepthFirst, PINNED_DFS),
            (Traversal::BreadthFirst, PINNED_BFS),
            (Traversal::AddressOrdered, PINNED_ADDR),
        ] {
            let got = pinned_graph_reports(traversal);
            assert_eq!(got, expected.map(Vec::from), "{traversal:?}");
        }
    }

    #[test]
    fn dead_root_is_ignored() {
        let mut h = heap();
        let a = h.allocate(ObjectClass::Bean, &[]).unwrap();
        collect(&mut h, &[], GcPolicy::default()); // kills a
                                                   // Using the stale id as a root must not resurrect or crash.
        let report = collect(&mut h, &[a], GcPolicy::default());
        assert_eq!(report.marked_objects, 0);
    }
}

#[cfg(test)]
mod generational_tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::object::ObjectClass;

    fn heap() -> SimHeap {
        SimHeap::new(HeapConfig {
            capacity: 4 * 1024 * 1024,
            min_chunk: 64,
        })
    }

    #[test]
    fn minor_collects_young_garbage_only() {
        let mut h = heap();
        // Tenure one object via a full GC.
        let old = h.allocate(ObjectClass::Bean, &[]).unwrap();
        collect(&mut h, &[old], GcPolicy::default());
        // Old garbage: tenured but then dropped from roots.
        let old_garbage = {
            let g = h.allocate(ObjectClass::Bean, &[]).unwrap();
            collect(&mut h, &[old, g], GcPolicy::default());
            g
        };
        // Fresh young garbage.
        let _young_garbage = h.allocate(ObjectClass::Array, &[]).unwrap();
        let report = collect_minor(&mut h, &[old], GcPolicy::default());
        assert_eq!(report.swept_objects, 1, "only the young garbage dies");
        // Old garbage survives a minor collection (the generational bargain)...
        assert_eq!(h.live_objects(), 2);
        // ...and dies at the next full collection.
        collect(&mut h, &[old], GcPolicy::default());
        assert_eq!(h.live_objects(), 1);
        let _ = old_garbage;
    }

    #[test]
    fn remembered_set_keeps_old_to_young_references_alive() {
        let mut h = heap();
        let old = h.allocate(ObjectClass::Session, &[]).unwrap();
        collect(&mut h, &[old], GcPolicy::default()); // tenure `old`
                                                      // A young object reachable ONLY through the old object.
        let young = h.allocate(ObjectClass::Bean, &[]).unwrap();
        h.add_ref(old, young);
        let report = collect_minor(&mut h, &[old], GcPolicy::default());
        assert_eq!(report.swept_objects, 0, "remembered set must keep it");
        assert_eq!(h.live_objects(), 2);
        // The survivor was promoted: a later minor GC with no roots keeps it.
        let report = collect_minor(&mut h, &[], GcPolicy::default());
        assert_eq!(report.swept_objects, 0);
        assert_eq!(h.live_objects(), 2);
    }

    #[test]
    fn young_chains_are_traced_through_young_objects() {
        let mut h = heap();
        let root = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let mid = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let leaf = h.allocate(ObjectClass::Bean, &[]).unwrap();
        h.add_ref(root, mid);
        h.add_ref(mid, leaf);
        let dead = h.allocate(ObjectClass::Bean, &[]).unwrap();
        let _ = dead;
        let report = collect_minor(&mut h, &[root], GcPolicy::default());
        assert_eq!(report.marked_objects, 3);
        assert_eq!(report.swept_objects, 1);
    }

    #[test]
    fn minor_marks_far_less_than_full_with_big_old_generation() {
        let mut h = heap();
        // Build a large tenured population.
        let olds: Vec<_> = (0..2_000)
            .map(|_| h.allocate(ObjectClass::Bean, &[]).unwrap())
            .collect();
        collect(&mut h, &olds, GcPolicy::default());
        // A small young population.
        let youngs: Vec<_> = (0..50)
            .map(|_| h.allocate(ObjectClass::Bean, &[]).unwrap())
            .collect();
        let mut roots = olds.clone();
        roots.extend(&youngs);
        let minor = collect_minor(&mut h, &roots, GcPolicy::default());
        assert_eq!(minor.marked_objects, 50, "minor marks only the young");
        let full = collect(&mut h, &roots, GcPolicy::default());
        assert_eq!(full.marked_objects, 2_050, "full marks everything");
    }
}
