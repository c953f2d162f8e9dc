//! The trace collector: category filtering, per-core staging buffers with
//! a deterministic merge, and the `TRACE_DIGEST` fingerprint.

use crate::event::{TraceCategory, TraceEvent, TraceEventKind};
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::SimTime;

/// Which event categories to record, parsed from `--trace <spec>`.
///
/// The default is fully off; an off spec keeps every emission site cold so
/// an untraced run is byte-identical to a build without tracing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSpec {
    mask: u32,
}

impl TraceSpec {
    /// Tracing disabled (the default).
    #[must_use]
    pub fn off() -> Self {
        TraceSpec { mask: 0 }
    }

    /// Every category enabled.
    #[must_use]
    pub fn all() -> Self {
        let mut mask = 0;
        for c in TraceCategory::ALL {
            mask |= c.bit();
        }
        TraceSpec { mask }
    }

    /// Parses a spec: `all`, `off`, or a comma-separated category list
    /// (`req,jms,db,gc`). Category names are the [`TraceCategory::name`]
    /// values.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming the unknown category.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "all" => return Ok(TraceSpec::all()),
            "off" => return Ok(TraceSpec::off()),
            _ => {}
        }
        let mut mask = 0;
        for part in spec.split(',') {
            let part = part.trim();
            let cat = TraceCategory::ALL.iter().find(|c| c.name() == part);
            match cat {
                Some(c) => mask |= c.bit(),
                None => {
                    let known: Vec<&str> = TraceCategory::ALL.iter().map(|c| c.name()).collect();
                    return Err(format!(
                        "unknown trace category '{part}' (all | off | {})",
                        known.join("|")
                    ));
                }
            }
        }
        Ok(TraceSpec { mask })
    }

    /// `true` when at least one category is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }

    /// `true` when `cat` is enabled.
    #[must_use]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        self.mask & cat.bit() != 0
    }
}

/// Append-only, deterministic trace collector.
///
/// Events from the engine's sequential phases go straight into the main
/// buffer via [`Tracer::emit`]. Per-core events (quantum boundaries) are
/// [`Tracer::stage`]d into that core's private buffer and drained in fixed
/// core order by [`Tracer::merge_staged`] at the end of the quantum — the
/// same sequential-merge discipline the CPU model uses for shared-cache
/// reconciliation, so trace order cannot depend on `--threads`.
#[derive(Clone, Debug)]
pub struct Tracer {
    spec: TraceSpec,
    events: Vec<TraceEvent>,
    staged: Vec<Vec<TraceEvent>>,
}

impl Tracer {
    /// A tracer recording the `spec` categories, with one staging buffer
    /// per simulated core.
    #[must_use]
    pub fn new(spec: TraceSpec, cores: usize) -> Self {
        Tracer {
            spec,
            events: Vec::new(),
            staged: vec![Vec::new(); cores],
        }
    }

    /// A fully disabled tracer (no categories, no staging buffers).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::new(TraceSpec::off(), 0)
    }

    /// `true` when any category is recorded — the flag the engine caches
    /// to keep every emission site zero-cost when tracing is off.
    #[must_use]
    pub fn active(&self) -> bool {
        self.spec.enabled()
    }

    /// The spec in force.
    #[must_use]
    pub fn spec(&self) -> TraceSpec {
        self.spec
    }

    /// Records an event from a sequential engine phase (category-filtered).
    pub fn emit(&mut self, at: SimTime, trace_id: u64, what: TraceEventKind) {
        if self.spec.wants(what.category()) {
            self.events.push(TraceEvent { at, trace_id, what });
        }
    }

    /// Stages an event into `core`'s private buffer. Safe to call from
    /// per-core bookkeeping; nothing becomes observable until
    /// [`Tracer::merge_staged`] runs.
    pub fn stage(&mut self, core: usize, at: SimTime, trace_id: u64, what: TraceEventKind) {
        if self.spec.wants(what.category()) {
            self.staged[core].push(TraceEvent { at, trace_id, what });
        }
    }

    /// Drains every staging buffer into the main series in fixed core
    /// order (core 0 first), making the merged order independent of host
    /// thread scheduling.
    pub fn merge_staged(&mut self) {
        for buf in &mut self.staged {
            self.events.append(buf);
        }
    }

    /// All recorded events, in record/merge order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a `TRACE_DIGEST` over `(at, trace_id, code, arg)` of every
    /// event — the fingerprint the CI `replay-smoke` job and the
    /// skip-exactness tests diff across runs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest_of(&self.events)
    }
}

/// FNV-1a digest of an event slice (same value as [`Tracer::digest`] over
/// the same events; exposed for exporter round-trip checks).
#[must_use]
pub fn digest_of(events: &[TraceEvent]) -> u64 {
    let mut d = WordDigest::new();
    for ev in events {
        d.mix(ev.at.as_nanos());
        d.mix(ev.trace_id);
        d.mix(ev.what.code());
        d.mix(ev.what.arg());
    }
    d.value()
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for Tracer {
    // The spec mask is configuration; the staging buffers are per-core
    // (config-sized) and drain at quantum boundaries, but a checkpoint
    // may land while they hold staged events, so they persist in place.
    // jas-lint: allow(D009, reason = "spec is the trace specification from the run plan")
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_vec(io, &mut self.events);
        snap::persist_slice(io, &mut self.staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_all_off_and_lists() {
        assert!(TraceSpec::parse("all").expect("parses").enabled());
        assert!(!TraceSpec::parse("off").expect("parses").enabled());
        let s = TraceSpec::parse("req, jms,db").expect("parses");
        assert!(s.wants(TraceCategory::Request));
        assert!(s.wants(TraceCategory::Jms));
        assert!(s.wants(TraceCategory::Db));
        assert!(!s.wants(TraceCategory::Gc));
        assert!(TraceSpec::parse("bogus").is_err());
        assert!(TraceSpec::parse("req,bogus").is_err());
    }

    #[test]
    fn emit_respects_the_category_mask() {
        let spec = TraceSpec::parse("jms").expect("parses");
        let mut t = Tracer::new(spec, 2);
        t.emit(SimTime::ZERO, 1, TraceEventKind::JmsSend { queue: 0 });
        t.emit(SimTime::ZERO, 1, TraceEventKind::RequestDone);
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].what, TraceEventKind::JmsSend { queue: 0 });
    }

    #[test]
    fn staged_events_merge_in_core_order() {
        let mut t = Tracer::new(TraceSpec::all(), 3);
        // Stage out of core order, as parallel bookkeeping might observe.
        t.stage(
            2,
            SimTime::from_secs(1),
            2,
            TraceEventKind::CoreQuantum { cycles: 30 },
        );
        t.stage(
            0,
            SimTime::from_secs(1),
            0,
            TraceEventKind::CoreQuantum { cycles: 10 },
        );
        t.stage(
            1,
            SimTime::from_secs(1),
            1,
            TraceEventKind::CoreQuantum { cycles: 20 },
        );
        t.merge_staged();
        let ids: Vec<u64> = t.events().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Buffers drained: a second merge adds nothing.
        t.merge_staged();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn digest_depends_on_order_id_time_and_payload() {
        let ev = |id: u64, q: u32| TraceEvent {
            at: SimTime::from_secs(1),
            trace_id: id,
            what: TraceEventKind::JmsSend { queue: q },
        };
        let mut a = Tracer::new(TraceSpec::all(), 0);
        a.emit(ev(1, 0).at, 1, ev(1, 0).what);
        a.emit(ev(2, 0).at, 2, ev(2, 0).what);
        let mut b = Tracer::new(TraceSpec::all(), 0);
        b.emit(ev(2, 0).at, 2, ev(2, 0).what);
        b.emit(ev(1, 0).at, 1, ev(1, 0).what);
        assert_ne!(a.digest(), b.digest(), "order must matter");
        let mut c = Tracer::new(TraceSpec::all(), 0);
        c.emit(ev(1, 0).at, 1, ev(1, 0).what);
        c.emit(ev(2, 0).at, 2, ev(2, 0).what);
        assert_eq!(a.digest(), c.digest());
        let mut d = Tracer::new(TraceSpec::all(), 0);
        d.emit(ev(1, 0).at, 1, ev(1, 1).what);
        d.emit(ev(2, 0).at, 2, ev(2, 0).what);
        assert_ne!(a.digest(), d.digest(), "payload must matter");
        assert_ne!(a.digest(), Tracer::disabled().digest());
    }
}
