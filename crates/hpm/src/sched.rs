//! Scheduler-occupancy counters for the event-driven engine scheduler.
//!
//! The engine's scheduler skips provably idle quanta, and these counters
//! quantify how much dead time it made free: wake-ups dispatched, idle
//! quanta skipped versus executed, and the wake-heap's occupancy
//! high-water mark. They are host-visible instrumentation of the
//! scheduler itself — they feed the `--figure sched` table, never the HPM
//! counters.

use jas_simkernel::snapshot::{Persist, StateIo};

/// Cumulative scheduler-occupancy counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Live wake-ups consumed from the wake heap.
    pub events_dispatched: u64,
    /// Quanta fast-forwarded over without simulating them.
    pub idle_ticks_skipped: u64,
    /// Quanta stepped through the full plan/execute/reconcile path.
    pub quanta_executed: u64,
    /// Most live wake-up registrations the heap ever held at once.
    pub heap_high_water: u64,
}

impl SchedStats {
    /// Total quanta the run covered, skipped or executed.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.idle_ticks_skipped + self.quanta_executed
    }

    /// Fraction of quanta that were skipped (0 when nothing ran yet —
    /// and for the no-skip test oracle, which never skips).
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        let total = self.total_ticks();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.idle_ticks_skipped as f64 / total as f64
        }
    }
}

impl Persist for SchedStats {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.events_dispatched.persist(io);
        self.idle_ticks_skipped.persist(io);
        self.quanta_executed.persist(io);
        self.heap_high_water.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jas_simkernel::snapshot::{Loader, Saver};

    #[test]
    fn skip_fraction_is_skipped_over_total() {
        let s = SchedStats {
            idle_ticks_skipped: 75,
            quanta_executed: 25,
            ..SchedStats::default()
        };
        assert_eq!(s.total_ticks(), 100);
        assert!((s.skip_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(SchedStats::default().skip_fraction(), 0.0);
    }

    #[test]
    fn persist_round_trips() {
        let mut s = SchedStats {
            events_dispatched: 11,
            idle_ticks_skipped: 22,
            quanta_executed: 33,
            heap_high_water: 44,
        };
        let mut saver = Saver::new();
        s.persist(&mut saver);
        let bytes = saver.into_bytes();
        let mut restored = SchedStats::default();
        let mut loader = Loader::new(&bytes);
        restored.persist(&mut loader);
        loader.finish().expect("exact stream");
        assert_eq!(restored, s);
    }
}
