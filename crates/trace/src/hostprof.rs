//! Host self-profiling: where does *host* time go inside the simulator?
//!
//! The source paper spends its effort asking "where do the cycles go" for
//! the SUT; this module asks the same question about the simulator
//! process. It is the **only** module in the workspace allowed to touch
//! `std::time::Instant` (the determinism lint's D002 rule carries an
//! explicit exemption for this file): host wall-clock readings accumulate
//! into plain totals here and are rendered into a separate `HOSTPROF`
//! report section, never fed back into simulation state. Nothing in a sim
//! digest can depend on anything this module measures.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A coarse phase of the simulator's main loop, used as a bucket key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostSection {
    /// Arrival scheduling and admission (sequential).
    Schedule,
    /// The sequential plan phase before parallel execution.
    Plan,
    /// Parallel (or inline) per-core quantum execution.
    Execute,
    /// Sequential reconcile: shared-cache merge, counters, staged traces.
    Reconcile,
    /// GC slice accounting.
    Gc,
    /// Instrument upkeep: HPM sampling, tprof/vmstat, tracing.
    Instruments,
}

impl HostSection {
    /// Every section, in report order.
    pub const ALL: [HostSection; 6] = [
        HostSection::Schedule,
        HostSection::Plan,
        HostSection::Execute,
        HostSection::Reconcile,
        HostSection::Gc,
        HostSection::Instruments,
    ];

    /// Short report label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HostSection::Schedule => "schedule",
            HostSection::Plan => "plan",
            HostSection::Execute => "execute",
            HostSection::Reconcile => "reconcile",
            HostSection::Gc => "gc",
            HostSection::Instruments => "instruments",
        }
    }

    fn index(self) -> usize {
        match self {
            HostSection::Schedule => 0,
            HostSection::Plan => 1,
            HostSection::Execute => 2,
            HostSection::Reconcile => 3,
            HostSection::Gc => 4,
            HostSection::Instruments => 5,
        }
    }
}

/// Scoped-timer accumulator for host time per engine phase.
///
/// Usage is strictly bracketed: `begin(section)` … `end()`. Nested scopes
/// are not supported (the engine's phases do not nest); a `begin` while a
/// scope is open closes the open one first so a missed `end` loses no
/// time.
#[derive(Debug)]
pub struct HostProf {
    totals: [Duration; HostSection::ALL.len()],
    spans: [u64; HostSection::ALL.len()],
    current: Option<(HostSection, Instant)>,
    started: Instant,
    quanta: u64,
}

impl Default for HostProf {
    fn default() -> Self {
        HostProf::new()
    }
}

impl HostProf {
    /// A fresh profiler; the overall clock starts now.
    #[must_use]
    pub fn new() -> Self {
        HostProf {
            totals: [Duration::ZERO; HostSection::ALL.len()],
            spans: [0; HostSection::ALL.len()],
            current: None,
            started: Instant::now(),
            quanta: 0,
        }
    }

    /// Opens a scope attributed to `section`, closing any open scope.
    pub fn begin(&mut self, section: HostSection) {
        self.end();
        self.current = Some((section, Instant::now()));
    }

    /// Closes the open scope, if any, accumulating its elapsed host time.
    pub fn end(&mut self) {
        if let Some((section, t0)) = self.current.take() {
            self.totals[section.index()] += t0.elapsed();
            self.spans[section.index()] += 1;
        }
    }

    /// Counts one completed simulation quantum (for per-quantum means).
    pub fn note_quantum(&mut self) {
        self.quanta += 1;
    }

    /// Snapshots the accumulated totals into a host-clock-free report.
    #[must_use]
    pub fn report(&self) -> HostProfReport {
        let section_secs = HostSection::ALL.map(|s| self.totals[s.index()].as_secs_f64());
        let section_spans = HostSection::ALL.map(|s| self.spans[s.index()]);
        HostProfReport {
            wall_secs: self.started.elapsed().as_secs_f64(),
            section_secs,
            section_spans,
            quanta: self.quanta,
        }
    }
}

/// Plain numbers distilled from a [`HostProf`]: safe to store, print, and
/// compare anywhere, because the `Instant`s have already been collapsed
/// into durations.
#[derive(Clone, Debug, PartialEq)]
pub struct HostProfReport {
    /// Host wall-clock seconds from profiler creation to snapshot.
    pub wall_secs: f64,
    /// Accumulated host seconds per section, in [`HostSection::ALL`] order.
    pub section_secs: [f64; HostSection::ALL.len()],
    /// Number of closed scopes per section, same order.
    pub section_spans: [u64; HostSection::ALL.len()],
    /// Simulation quanta executed while profiling.
    pub quanta: u64,
}

impl HostProfReport {
    /// Folds another engine's report into this one: section times, spans
    /// and quanta add up; wall time is the longer of the two, since the
    /// profiled engines share one host timeline.
    pub fn merge(&mut self, other: &HostProfReport) {
        self.wall_secs = self.wall_secs.max(other.wall_secs);
        for (a, b) in self.section_secs.iter_mut().zip(other.section_secs) {
            *a += b;
        }
        for (a, b) in self.section_spans.iter_mut().zip(other.section_spans) {
            *a += b;
        }
        self.quanta += other.quanta;
    }

    /// Renders the `HOSTPROF` text section: per-phase host milliseconds,
    /// share of attributed time, and mean microseconds per quantum.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let attributed: f64 = self.section_secs.iter().sum();
        let _ = writeln!(out, "HOSTPROF host self-profile");
        let _ = writeln!(
            out,
            "  wall {:.3}s · attributed {:.3}s · {} quanta",
            self.wall_secs, attributed, self.quanta
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>7} {:>10} {:>12}",
            "section", "host ms", "share", "spans", "us/quantum"
        );
        for (i, section) in HostSection::ALL.iter().enumerate() {
            let secs = self.section_secs[i];
            let share = if attributed > 0.0 {
                100.0 * secs / attributed
            } else {
                0.0
            };
            let per_quantum = if self.quanta > 0 {
                1e6 * secs / self.quanta as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>10.3} {:>6.1}% {:>10} {:>12.2}",
                section.name(),
                secs * 1e3,
                share,
                self.section_spans[i],
                per_quantum
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_into_their_sections() {
        let mut prof = HostProf::new();
        prof.begin(HostSection::Execute);
        prof.end();
        prof.begin(HostSection::Reconcile);
        // A begin with a scope still open closes the open one.
        prof.begin(HostSection::Execute);
        prof.end();
        prof.note_quantum();
        let report = prof.report();
        let exec = HostSection::Execute.index();
        let reconcile = HostSection::Reconcile.index();
        assert_eq!(report.section_spans[exec], 2);
        assert_eq!(report.section_spans[reconcile], 1);
        assert_eq!(report.quanta, 1);
        assert!(report.wall_secs >= 0.0);
    }

    #[test]
    fn end_without_begin_is_harmless() {
        let mut prof = HostProf::new();
        prof.end();
        prof.end();
        assert_eq!(prof.report().section_spans, [0; HostSection::ALL.len()]);
    }

    #[test]
    fn merge_sums_sections_and_keeps_the_longer_wall() {
        let a = HostProfReport {
            wall_secs: 2.0,
            section_secs: [1.0, 0.0, 0.5, 0.25, 0.0, 0.0],
            section_spans: [1, 0, 2, 3, 0, 0],
            quanta: 4,
        };
        let mut sum = HostProfReport {
            wall_secs: 3.0,
            section_secs: [0.5; HostSection::ALL.len()],
            section_spans: [1; HostSection::ALL.len()],
            quanta: 6,
        };
        sum.merge(&a);
        assert_eq!(sum.wall_secs, 3.0);
        assert_eq!(sum.section_secs, [1.5, 0.5, 1.0, 0.75, 0.5, 0.5]);
        assert_eq!(sum.section_spans, [2, 1, 3, 4, 1, 1]);
        assert_eq!(sum.quanta, 10);
    }

    #[test]
    fn render_names_every_section() {
        let mut prof = HostProf::new();
        prof.begin(HostSection::Plan);
        prof.end();
        let text = prof.report().render();
        assert!(text.starts_with("HOSTPROF"));
        for section in HostSection::ALL {
            assert!(text.contains(section.name()), "missing {}", section.name());
        }
    }
}
