//! The fault/resilience event series and its reproducibility digest.

use crate::plan::FaultKind;
use jas_simkernel::snapshot::WordDigest;
use jas_simkernel::SimTime;

/// What happened: an injected fault or a resilience reaction to one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventKind {
    /// A fault of the given kind fired at an injection point.
    Injected(FaultKind),
    /// A failed statement was scheduled for retry attempt `attempt`.
    RetryScheduled {
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// The DB circuit breaker tripped open.
    #[default]
    BreakerOpened,
    /// The breaker moved open → half-open and admits probe requests.
    BreakerHalfOpen,
    /// A half-open probe succeeded and the breaker closed.
    BreakerClosed,
    /// A work order exhausted its delivery budget and was dead-lettered.
    DeadLettered,
    /// A request failed permanently (retries exhausted, deadline blown,
    /// or failed while the breaker was open).
    RequestFailed,
    /// A consumed work order was pushed back for redelivery.
    Redelivered,
    /// A sent message was duplicated in its queue.
    Duplicated,
    /// A request exceeded its per-request deadline.
    DeadlineExceeded,
    /// Fleet: node `node` crash-stopped (state reset, in-flight errored).
    NodeCrashed {
        /// Zero-based node index in the cluster.
        node: u32,
    },
    /// Fleet: node `node` warm-restarted from its last snapshot.
    NodeRestarted {
        /// Zero-based node index in the cluster.
        node: u32,
    },
    /// Fleet: the LB ejected node `node` after consecutive probe failures.
    NodeEjected {
        /// Zero-based node index in the cluster.
        node: u32,
    },
    /// Fleet: the LB readmitted node `node` after half-open probing.
    NodeReadmitted {
        /// Zero-based node index in the cluster.
        node: u32,
    },
    /// Fleet: the LB shed an arriving request under overload.
    RequestShed,
    /// Fleet: an idempotent in-flight request was re-dispatched to a
    /// surviving node after its original node crashed.
    RequestRedispatched,
    /// Fleet: the autoscaler brought warm standby node `node` into
    /// rotation.
    NodeScaledUp {
        /// Zero-based node index in the cluster.
        node: u32,
    },
    /// Fleet: the autoscaler drained node `node` back to warm standby.
    NodeScaledDown {
        /// Zero-based node index in the cluster.
        node: u32,
    },
}

impl EventKind {
    /// Stable digest code; changing any value invalidates pinned digests.
    #[must_use]
    fn code(self) -> u64 {
        match self {
            EventKind::Injected(kind) => kind.index() as u64,
            EventKind::RetryScheduled { attempt } => 0x10 + u64::from(attempt),
            EventKind::BreakerOpened => 0x100,
            EventKind::BreakerHalfOpen => 0x101,
            EventKind::BreakerClosed => 0x102,
            EventKind::DeadLettered => 0x103,
            EventKind::RequestFailed => 0x104,
            EventKind::Redelivered => 0x105,
            EventKind::Duplicated => 0x106,
            EventKind::DeadlineExceeded => 0x107,
            // Fleet codes live at 0x200+ with 0x40-wide per-variant node
            // lanes (cluster sizes stay far below 64 nodes).
            EventKind::NodeCrashed { node } => 0x200 + u64::from(node),
            EventKind::NodeRestarted { node } => 0x240 + u64::from(node),
            EventKind::NodeEjected { node } => 0x280 + u64::from(node),
            EventKind::NodeReadmitted { node } => 0x2C0 + u64::from(node),
            EventKind::RequestShed => 0x300,
            EventKind::RequestRedispatched => 0x301,
            EventKind::NodeScaledUp { node } => 0x340 + u64::from(node),
            EventKind::NodeScaledDown { node } => 0x380 + u64::from(node),
        }
    }

    /// Short report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Injected(kind) => kind.name(),
            EventKind::RetryScheduled { .. } => "retry",
            EventKind::BreakerOpened => "breaker-open",
            EventKind::BreakerHalfOpen => "breaker-half-open",
            EventKind::BreakerClosed => "breaker-closed",
            EventKind::DeadLettered => "dead-letter",
            EventKind::RequestFailed => "request-failed",
            EventKind::Redelivered => "redelivered",
            EventKind::Duplicated => "duplicated",
            EventKind::DeadlineExceeded => "deadline",
            EventKind::NodeCrashed { .. } => "node-crashed",
            EventKind::NodeRestarted { .. } => "node-restarted",
            EventKind::NodeEjected { .. } => "node-ejected",
            EventKind::NodeReadmitted { .. } => "node-readmitted",
            EventKind::RequestShed => "request-shed",
            EventKind::RequestRedispatched => "request-redispatched",
            EventKind::NodeScaledUp { .. } => "node-scaled-up",
            EventKind::NodeScaledDown { .. } => "node-scaled-down",
        }
    }
}

/// One entry in the fault/resilience series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Sim-clock instant the event was recorded.
    pub at: SimTime,
    /// What happened.
    pub what: EventKind,
}

/// Append-only log of every fault and resilience event in a run.
///
/// Events are recorded from the engine's sequential phases only, so the
/// log order — and therefore [`FaultLog::digest`] — is independent of the
/// `--threads` count.
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Appends an event.
    pub fn push(&mut self, at: SimTime, what: EventKind) {
        self.events.push(FaultEvent { at, what });
    }

    /// All recorded events, in record order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
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

    /// FNV-1a digest over `(at, code)` of every event — the fingerprint
    /// the determinism suite and the CI `sched-smoke` job compare across
    /// runs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut d = WordDigest::new();
        for ev in &self.events {
            d.mix(ev.at.as_nanos());
            d.mix(ev.what.code());
        }
        d.value()
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for EventKind {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut tag: u64 = match self {
            EventKind::Injected(_) => 0,
            EventKind::RetryScheduled { .. } => 1,
            EventKind::BreakerOpened => 2,
            EventKind::BreakerHalfOpen => 3,
            EventKind::BreakerClosed => 4,
            EventKind::DeadLettered => 5,
            EventKind::RequestFailed => 6,
            EventKind::Redelivered => 7,
            EventKind::Duplicated => 8,
            EventKind::DeadlineExceeded => 9,
            EventKind::NodeCrashed { .. } => 10,
            EventKind::NodeRestarted { .. } => 11,
            EventKind::NodeEjected { .. } => 12,
            EventKind::NodeReadmitted { .. } => 13,
            EventKind::RequestShed => 14,
            EventKind::RequestRedispatched => 15,
            EventKind::NodeScaledUp { .. } => 16,
            EventKind::NodeScaledDown { .. } => 17,
        };
        io.word(&mut tag);
        if !io.saving() {
            *self = match tag {
                0 => EventKind::Injected(FaultKind::default()),
                1 => EventKind::RetryScheduled { attempt: 0 },
                2 => EventKind::BreakerOpened,
                3 => EventKind::BreakerHalfOpen,
                4 => EventKind::BreakerClosed,
                5 => EventKind::DeadLettered,
                6 => EventKind::RequestFailed,
                7 => EventKind::Redelivered,
                8 => EventKind::Duplicated,
                9 => EventKind::DeadlineExceeded,
                10 => EventKind::NodeCrashed { node: 0 },
                11 => EventKind::NodeRestarted { node: 0 },
                12 => EventKind::NodeEjected { node: 0 },
                13 => EventKind::NodeReadmitted { node: 0 },
                14 => EventKind::RequestShed,
                16 => EventKind::NodeScaledUp { node: 0 },
                17 => EventKind::NodeScaledDown { node: 0 },
                _ => EventKind::RequestRedispatched,
            };
        }
        match self {
            EventKind::Injected(kind) => kind.persist(io),
            EventKind::RetryScheduled { attempt } => attempt.persist(io),
            EventKind::NodeCrashed { node }
            | EventKind::NodeRestarted { node }
            | EventKind::NodeEjected { node }
            | EventKind::NodeReadmitted { node }
            | EventKind::NodeScaledUp { node }
            | EventKind::NodeScaledDown { node } => node.persist(io),
            _ => {}
        }
    }
}

impl Default for FaultEvent {
    fn default() -> Self {
        FaultEvent {
            at: SimTime::ZERO,
            what: EventKind::default(),
        }
    }
}

impl Persist for FaultEvent {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.at.persist(io);
        self.what.persist(io);
    }
}

impl Persist for FaultLog {
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_vec(io, &mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_time_and_kind() {
        let mut a = FaultLog::default();
        a.push(SimTime::from_secs(1), EventKind::BreakerOpened);
        a.push(SimTime::from_secs(2), EventKind::BreakerClosed);
        let mut b = FaultLog::default();
        b.push(SimTime::from_secs(2), EventKind::BreakerClosed);
        b.push(SimTime::from_secs(1), EventKind::BreakerOpened);
        assert_ne!(a.digest(), b.digest());

        let mut c = FaultLog::default();
        c.push(SimTime::from_secs(1), EventKind::BreakerOpened);
        c.push(SimTime::from_secs(2), EventKind::BreakerClosed);
        assert_eq!(a.digest(), c.digest());
        assert_ne!(a.digest(), FaultLog::default().digest());
    }

    #[test]
    fn fleet_codes_are_distinct_across_variants_and_nodes() {
        let mut digests = Vec::new();
        for node in 0..4u32 {
            for what in [
                EventKind::NodeCrashed { node },
                EventKind::NodeRestarted { node },
                EventKind::NodeEjected { node },
                EventKind::NodeReadmitted { node },
            ] {
                let mut log = FaultLog::default();
                log.push(SimTime::ZERO, what);
                digests.push(log.digest());
            }
        }
        for what in [EventKind::RequestShed, EventKind::RequestRedispatched] {
            let mut log = FaultLog::default();
            log.push(SimTime::ZERO, what);
            digests.push(log.digest());
        }
        let n = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), n, "fleet event codes must not collide");
    }

    #[test]
    fn injected_codes_are_distinct_per_kind() {
        let mut digests = Vec::new();
        for kind in FaultKind::ALL {
            let mut log = FaultLog::default();
            log.push(SimTime::ZERO, EventKind::Injected(kind));
            digests.push(log.digest());
        }
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), FaultKind::ALL.len());
    }
}
