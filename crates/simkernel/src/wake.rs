//! The event-driven scheduler's wake-up heap.
//!
//! Components (the arrival stream, blocked tasks, fault windows, the HPM
//! sampler) register the next quantum index at which something observable
//! happens to them; the engine sleeps — skips whole quanta in O(1) host
//! time — until the earliest registered wake-up. Determinism rests on the
//! heap key: entries order on the full `(tick, component, seq)` triple, and
//! because a component holds at most one *live* registration at a time, pop
//! order among live entries depends only on `(tick, component)` — never on
//! insertion history or thread count.
//!
//! Re-registering a component with a new tick does not search the heap:
//! the old entry is left in place and invalidated lazily (an entry is live
//! only while it matches the component's currently registered tick). A
//! registration for the already-registered tick is a no-op, so the heap
//! never holds duplicate live keys.

use crate::det::DetMap;
use crate::snapshot::{self as snap, Persist, StateIo};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies the component a wake-up belongs to. The id doubles as the
/// deterministic tie-breaker for wake-ups sharing a tick, so components
/// must use stable, configuration-derived ids (see the registration
/// contract in DESIGN.md §12).
pub type ComponentId = u64;

/// A deterministic min-heap of `(tick, component, seq)` wake-ups.
#[derive(Clone, Debug, Default)]
pub struct WakeHeap {
    heap: BinaryHeap<Reverse<(u64, ComponentId, u64)>>,
    /// The single live registration per component; heap entries that
    /// disagree with this map are stale and discarded on pop.
    registered: DetMap<ComponentId, u64>,
    next_seq: u64,
    high_water: u64,
}

impl WakeHeap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        WakeHeap::default()
    }

    /// Registers (or moves) `comp`'s next wake-up to `tick`. Registering
    /// the tick the component already holds is a no-op; a different tick
    /// supersedes the old registration, whose heap entry goes stale.
    pub fn register(&mut self, comp: ComponentId, tick: u64) {
        if self.registered.get(&comp) == Some(&tick) {
            return;
        }
        self.registered.insert(comp, tick);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((tick, comp, seq)));
        self.high_water = self.high_water.max(self.registered.len() as u64);
    }

    /// Withdraws `comp`'s registration, if any. The heap entry is
    /// invalidated lazily.
    pub fn cancel(&mut self, comp: ComponentId) {
        self.registered.remove(&comp);
    }

    /// The earliest live wake-up tick, discarding stale entries met on the
    /// way. `None` when nothing is registered.
    pub fn next_wake(&mut self) -> Option<u64> {
        loop {
            // jas-lint: allow(D008, reason = "key is (tick, component, seq); one live entry per component makes pop order a pure function of (tick, component)")
            let &Reverse((tick, comp, _)) = self.heap.peek()?;
            if self.registered.get(&comp) == Some(&tick) {
                return Some(tick);
            }
            // jas-lint: allow(D008, reason = "discarding an entry already superseded by a later register(); live ordering is unaffected")
            self.heap.pop();
        }
    }

    /// Consumes every live wake-up due at or before `tick` (stale entries
    /// in the same range are discarded). Returns how many live wake-ups
    /// fired.
    pub fn take_due(&mut self, tick: u64) -> u64 {
        let mut fired = 0;
        loop {
            // jas-lint: allow(D008, reason = "key is (tick, component, seq); one live entry per component makes pop order a pure function of (tick, component)")
            match self.heap.peek() {
                Some(&Reverse((t, comp, _))) if t <= tick => {
                    let live = self.registered.get(&comp) == Some(&t);
                    // jas-lint: allow(D008, reason = "entry is consumed (live) or stale; either way it is no longer orderable against future wakes")
                    self.heap.pop();
                    if live {
                        self.registered.remove(&comp);
                        fired += 1;
                    }
                }
                _ => return fired,
            }
        }
    }

    /// Number of live registrations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// `true` when no component is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }

    /// The most live registrations the heap has ever held — the
    /// scheduler-occupancy high-water mark surfaced by `--figure sched`.
    /// Stale entries are not counted, so a heap restored from its
    /// canonical form keeps the same high-water trajectory.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }
}

impl Persist for WakeHeap {
    // Canonical form: the live registrations in component order (stale
    // heap entries are dropped by construction — they are not in the map).
    // The heap itself is rebuilt on load with fresh sequence numbers,
    // which is behavior-identical because live pop order never depends on
    // `seq` (one live entry per component).
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_map(io, &mut self.registered);
        self.high_water.persist(io);
        if !io.saving() {
            self.heap.clear();
            self.next_seq = 0;
            let entries: Vec<(ComponentId, u64)> =
                self.registered.iter().map(|(&c, &t)| (c, t)).collect();
            for (comp, tick) in entries {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(Reverse((tick, comp, seq)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Loader, Saver};

    #[test]
    fn wakes_pop_in_tick_then_component_order() {
        let mut h = WakeHeap::new();
        h.register(9, 5);
        h.register(2, 5);
        h.register(7, 3);
        assert_eq!(h.next_wake(), Some(3));
        assert_eq!(h.take_due(3), 1);
        assert_eq!(h.next_wake(), Some(5));
        assert_eq!(h.take_due(5), 2, "both tick-5 wakes fire together");
        assert!(h.is_empty());
        assert_eq!(h.next_wake(), None);
    }

    #[test]
    fn reregistering_supersedes_and_duplicates_are_noops() {
        let mut h = WakeHeap::new();
        h.register(1, 10);
        h.register(1, 10); // no-op
        assert_eq!(h.len(), 1);
        h.register(1, 4); // supersedes; tick-10 entry goes stale
        assert_eq!(h.next_wake(), Some(4));
        assert_eq!(h.take_due(4), 1);
        assert_eq!(h.next_wake(), None, "stale tick-10 entry never fires");
        assert_eq!(h.take_due(u64::MAX), 0);
    }

    #[test]
    fn cancel_invalidates_lazily() {
        let mut h = WakeHeap::new();
        h.register(3, 7);
        h.register(4, 9);
        h.cancel(3);
        assert_eq!(h.len(), 1);
        assert_eq!(h.next_wake(), Some(9));
    }

    #[test]
    fn take_due_skips_earlier_stale_entries() {
        let mut h = WakeHeap::new();
        h.register(1, 2);
        h.register(1, 20); // tick-2 entry is now stale
        h.register(5, 6);
        assert_eq!(h.take_due(10), 1, "only the live tick-6 wake fires");
        assert_eq!(h.next_wake(), Some(20));
    }

    #[test]
    fn high_water_tracks_heap_occupancy() {
        let mut h = WakeHeap::new();
        for comp in 0..8 {
            h.register(comp, comp + 1);
        }
        assert_eq!(h.high_water(), 8);
        h.take_due(u64::MAX);
        assert_eq!(h.high_water(), 8, "high-water is monotone");
    }

    #[test]
    fn high_water_ignores_stale_entries() {
        let mut h = WakeHeap::new();
        h.register(1, 10);
        h.register(1, 5); // the tick-10 entry goes stale
        h.register(2, 7);
        let mut saver = Saver::new();
        h.persist(&mut saver);
        let bytes = saver.into_bytes();
        let mut restored = WakeHeap::new();
        restored.persist(&mut Loader::new(&bytes));
        for heap in [&mut h, &mut restored] {
            heap.register(3, 8);
            assert_eq!(heap.high_water(), 3, "three live registrations");
        }
    }

    #[test]
    fn persist_round_trip_is_canonical() {
        let mut h = WakeHeap::new();
        h.register(10, 50);
        h.register(10, 40); // leaves a stale entry behind
        h.register(3, 40);
        h.register(8, 90);

        let mut saver = Saver::new();
        h.persist(&mut saver);
        let bytes = saver.into_bytes();

        // A logically identical heap built without the stale entry
        // serializes to the same bytes: the canonical form is the live
        // registration map.
        let mut clean = WakeHeap::new();
        clean.register(10, 40);
        clean.register(3, 40);
        clean.register(8, 90);
        let mut saver2 = Saver::new();
        clean.persist(&mut saver2);
        assert_eq!(bytes, saver2.into_bytes());

        let mut restored = WakeHeap::new();
        let mut loader = Loader::new(&bytes);
        restored.persist(&mut loader);
        loader.finish().expect("exact stream");
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.high_water(), h.high_water());
        assert_eq!(restored.next_wake(), Some(40));
        assert_eq!(restored.take_due(40), 2, "components 3 and 10");
        assert_eq!(restored.next_wake(), Some(90));
    }
}
