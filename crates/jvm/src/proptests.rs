//! Property-based tests over the heap and collector: allocation layout
//! invariants and GC correctness against a reference reachability
//! computation.

use crate::gc::{collect, GcPolicy, Traversal};
use crate::heap::{HeapConfig, SimHeap};
use crate::object::{ObjectClass, ObjectId};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn class_strategy() -> impl Strategy<Value = ObjectClass> {
    prop_oneof![
        Just(ObjectClass::Small),
        Just(ObjectClass::Bean),
        Just(ObjectClass::CharArray),
        Just(ObjectClass::Array),
        Just(ObjectClass::Session),
        Just(ObjectClass::Buffer),
    ]
}

/// Reference reachability: BFS over the object graph.
fn reachable_set(heap: &SimHeap, roots: &[ObjectId]) -> BTreeSet<ObjectId> {
    let mut seen = BTreeSet::new();
    let mut queue: Vec<ObjectId> = roots
        .iter()
        .copied()
        .filter(|r| heap.slots.get(r.index()).is_some_and(|s| s.allocated))
        .collect();
    while let Some(id) = queue.pop() {
        if !seen.insert(id) {
            continue;
        }
        for r in heap.refs(id) {
            if heap.slots[r.index()].allocated && !seen.contains(&r) {
                queue.push(r);
            }
        }
    }
    seen
}

proptest! {
    /// Live objects never overlap in the heap address space, under any
    /// allocation order.
    #[test]
    fn allocations_never_overlap(classes in proptest::collection::vec(class_strategy(), 1..200)) {
        let mut heap = SimHeap::new(HeapConfig {
            capacity: 1 << 20,
            min_chunk: 64,
        });
        let mut ids = Vec::new();
        for c in classes {
            if let Ok(id) = heap.allocate(c, &[]) {
                ids.push(id);
            }
        }
        let mut extents: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| (heap.address_of(id), heap.size_of(id)))
            .collect();
        extents.sort_unstable();
        for pair in extents.windows(2) {
            prop_assert!(
                pair[0].0 + pair[0].1 <= pair[1].0,
                "objects overlap: {:?}",
                pair
            );
        }
        // Accounting invariant: capacity = live + free + dark matter.
        prop_assert_eq!(
            heap.capacity(),
            heap.live_bytes() + heap.free_bytes() + heap.dark_matter_bytes()
        );
    }

    /// After a collection, exactly the reference-reachable objects survive,
    /// under every traversal order.
    #[test]
    fn gc_preserves_exactly_the_reachable_set(
        classes in proptest::collection::vec(class_strategy(), 1..120),
        edges in proptest::collection::vec((0usize..120, 0usize..120), 0..200),
        root_picks in proptest::collection::vec(0usize..120, 0..8),
    ) {
        let mut heap = SimHeap::new(HeapConfig {
            capacity: 4 << 20,
            min_chunk: 64,
        });
        let ids: Vec<ObjectId> = classes
            .iter()
            .map(|&c| heap.allocate(c, &[]).expect("heap large enough"))
            .collect();
        for (a, b) in edges {
            let (a, b) = (a % ids.len(), b % ids.len());
            heap.add_ref(ids[a], ids[b]);
        }
        let roots: Vec<ObjectId> = root_picks.iter().map(|&i| ids[i % ids.len()]).collect();
        let expected = reachable_set(&heap, &roots);

        for traversal in [Traversal::DepthFirst, Traversal::BreadthFirst, Traversal::AddressOrdered] {
            let mut h = heap.clone();
            let report = collect(&mut h, &roots, GcPolicy { traversal, ..GcPolicy::default() });
            prop_assert_eq!(report.marked_objects as usize, expected.len(), "{:?}", traversal);
            prop_assert_eq!(h.live_objects() as usize, expected.len(), "{:?}", traversal);
            for &id in &ids {
                let alive = h.slots[id.index()].allocated;
                prop_assert_eq!(alive, expected.contains(&id), "{:?} object {:?}", traversal, id);
            }
            // Accounting still balances after the sweep.
            prop_assert_eq!(
                h.capacity(),
                h.live_bytes() + h.free_bytes() + h.dark_matter_bytes()
            );
        }
    }

    /// Compaction preserves the live set and removes all fragmentation.
    #[test]
    fn compaction_is_lossless(
        classes in proptest::collection::vec(class_strategy(), 1..150),
        keep_mask in proptest::collection::vec(any::<bool>(), 1..150),
    ) {
        let mut heap = SimHeap::new(HeapConfig {
            capacity: 4 << 20,
            min_chunk: 64,
        });
        let ids: Vec<ObjectId> = classes
            .iter()
            .map(|&c| heap.allocate(c, &[]).expect("fits"))
            .collect();
        let roots: Vec<ObjectId> = ids
            .iter()
            .zip(keep_mask.iter().cycle())
            .filter(|(_, &keep)| keep)
            .map(|(&id, _)| id)
            .collect();
        let _ = collect(&mut heap, &roots, GcPolicy {
            compact_free_threshold: u64::MAX, // force compaction
            ..GcPolicy::default()
        });
        prop_assert_eq!(heap.live_objects() as usize, {
            let mut uniq: Vec<_> = roots.clone();
            uniq.sort();
            uniq.dedup();
            uniq.len()
        });
        prop_assert_eq!(heap.dark_matter_bytes(), 0);
        prop_assert_eq!(heap.used_bytes(), heap.live_bytes());
        // Survivors still non-overlapping and in-bounds.
        let mut extents: Vec<(u64, u64)> = roots
            .iter()
            .map(|&id| (heap.address_of(id), heap.size_of(id)))
            .collect();
        extents.sort_unstable();
        extents.dedup();
        for pair in extents.windows(2) {
            prop_assert!(pair[0].0 + pair[0].1 <= pair[1].0);
        }
        if let Some(&(addr, size)) = extents.last() {
            prop_assert!(addr + size <= heap.capacity());
        }
    }
}
