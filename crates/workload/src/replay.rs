//! Trace-driven replay: re-execute a recorded request stream without the
//! load generator.
//!
//! During a recorded run the engine logs every arrival it draws from the
//! scenario (inter-arrival gap + request kind) and every transaction plan
//! it compiles (in build order, including JMS-driven work orders). The
//! resulting [`ReplayLog`] is a complete substitute for the generator:
//! [`ReplayScenario`] plays the log back through the same engine, so the
//! appserver/db/jvm tiers see byte-for-byte the same inputs and produce
//! the same per-request verdicts and trace digest.
//!
//! This is the record/replay half of the record-reduce-replay pattern
//! (cf. Wasm-R3): a replay log plus a checkpoint is a self-contained,
//! re-runnable witness of whatever the original run did.

use crate::requests::RequestKind;
use jas_appserver::{QueueId, TxPlan};
use jas_simkernel::snapshot::{self as snap, Persist, Saver, StateIo};
use jas_simkernel::{Format, Loader, SimDuration};
use std::collections::VecDeque;

use crate::scenario::Scenario;

/// A recorded request stream: every arrival the generator produced and
/// every plan the containers compiled, in engine order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayLog {
    /// Arrivals in draw order: inter-arrival gap and request kind.
    pub arrivals: Vec<(SimDuration, RequestKind)>,
    /// Compiled plans in build order (external requests and JMS work
    /// orders interleaved exactly as the engine requested them).
    pub plans: Vec<(RequestKind, TxPlan)>,
}

/// The `.jrpl` frame: magic ASCII `"JASRPLY1"`. A log is not bound to a
/// configuration, so its fingerprint word is always 0. Version 1 was an
/// unframed magic word; version 2 is the shared frame.
pub const JRPL: Format = Format {
    name: "replay log",
    magic: 0x4A41_5352_504C_5931,
    version: 2,
};

impl ReplayLog {
    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.plans.is_empty()
    }

    /// Serializes the log into a sealed `.jrpl` frame.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut saver = Saver::new();
        self.clone().persist(&mut saver);
        JRPL.seal(0, &saver.into_bytes())
    }

    /// Deserializes a log produced by [`ReplayLog::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails on any frame [`JRPL`] refuses, or on a payload that does not
    /// decode to exactly one log.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut loader = Loader::new(JRPL.open(bytes, 0)?);
        let mut log = ReplayLog::default();
        log.persist(&mut loader);
        loader.finish().map_err(|e| format!("{} {e}", JRPL.name))?;
        Ok(log)
    }
}

impl Persist for ReplayLog {
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_vec(io, &mut self.arrivals);
        snap::persist_vec(io, &mut self.plans);
    }
}

/// Inter-arrival gap returned once a replay log is exhausted: far past
/// any practical run end, so the engine admits nothing further.
const NEVER: SimDuration = SimDuration::from_secs(100 * 365 * 24 * 3600);

/// A [`Scenario`] that replays a [`ReplayLog`] instead of generating load.
///
/// Arrivals and plans are popped in recorded order; the engine's
/// deterministic execution guarantees build calls arrive in the same
/// order they were recorded. A log that was not recorded from this
/// configuration breaks that order: [`ReplayScenario::build`] then records
/// the first divergence ([`Scenario::divergence`]) and hands out empty
/// plans, so the caller can refuse the run instead of the process
/// aborting.
pub struct ReplayScenario {
    arrivals: VecDeque<(SimDuration, RequestKind)>,
    plans: VecDeque<(RequestKind, TxPlan)>,
    divergence: Option<String>,
}

impl ReplayScenario {
    /// Creates a scenario replaying `log`.
    #[must_use]
    pub fn new(log: ReplayLog) -> Self {
        ReplayScenario {
            arrivals: log.arrivals.into(),
            plans: log.plans.into(),
            divergence: None,
        }
    }

    /// Entries not yet replayed (arrivals, plans).
    #[must_use]
    pub fn remaining(&self) -> (usize, usize) {
        (self.arrivals.len(), self.plans.len())
    }
}

impl Scenario for ReplayScenario {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn next_arrival(&mut self) -> (SimDuration, RequestKind) {
        self.arrivals
            .pop_front()
            .unwrap_or((NEVER, RequestKind::Purchase))
    }

    fn build(&mut self, kind: RequestKind, _work_order_queue: QueueId) -> TxPlan {
        let divergence = match self.plans.pop_front() {
            Some((recorded, plan)) if recorded == kind => return plan,
            Some((recorded, _)) => {
                format!("engine asked for a {kind:?} plan but the log recorded {recorded:?} next")
            }
            None => format!("engine asked for a {kind:?} plan past the log's end"),
        };
        self.divergence.get_or_insert(divergence);
        TxPlan::new()
    }

    fn divergence(&self) -> Option<&str> {
        self.divergence.as_deref()
    }

    fn label(&self, kind: RequestKind) -> &'static str {
        kind.name()
    }

    fn kind_tag(&self) -> u64 {
        3
    }

    fn persist_state(&mut self, io: &mut dyn StateIo) {
        snap::persist_deque(io, &mut self.arrivals);
        snap::persist_deque(io, &mut self.plans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jas_appserver::PlanStep;

    fn sample_log() -> ReplayLog {
        let mut plan = TxPlan::new();
        plan.push(PlanStep::Compute {
            component: jas_jvm::Component::Application,
            instructions: 1234.5,
        })
        .push(PlanStep::SessionTouch);
        ReplayLog {
            arrivals: vec![
                (SimDuration::from_millis(3), RequestKind::Browse),
                (SimDuration::from_millis(9), RequestKind::Purchase),
            ],
            plans: vec![
                (RequestKind::Browse, plan.clone()),
                (RequestKind::Purchase, TxPlan::new()),
            ],
        }
    }

    #[test]
    fn log_round_trips_through_bytes() {
        let log = sample_log();
        let bytes = log.to_bytes();
        let back = ReplayLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
    }

    fn err(bytes: &[u8]) -> String {
        let e = ReplayLog::from_bytes(bytes).unwrap_err();
        assert!(e.starts_with("replay log "), "{e}");
        e
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_log().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(err(&bytes).contains("magic"));
    }

    #[test]
    fn truncated_log_is_rejected() {
        let bytes = sample_log().to_bytes();
        err(&bytes[..bytes.len() - 8]);
    }

    #[test]
    fn hostile_length_word_is_rejected_not_allocated() {
        // Re-seal the frame around the hostile payload so the trailer
        // passes and the length word reaches the payload decoder.
        let bytes = sample_log().to_bytes();
        let mut payload = JRPL.open(&bytes, 0).unwrap().to_vec();
        payload[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(err(&JRPL.seal(0, &payload)).contains("malformed"));
        // Unsealed, the same flip is caught by the trailer.
        let mut flipped = bytes;
        flipped[32..40].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(err(&flipped).contains("corrupt"));
    }

    #[test]
    fn replay_scenario_pops_in_order() {
        let mut s = ReplayScenario::new(sample_log());
        let (gap, kind) = s.next_arrival();
        assert_eq!(gap, SimDuration::from_millis(3));
        assert_eq!(kind, RequestKind::Browse);
        let plan = s.build(RequestKind::Browse, QueueId(0));
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(s.remaining(), (1, 1));
    }

    #[test]
    fn exhausted_log_stops_arrivals() {
        let mut s = ReplayScenario::new(ReplayLog::default());
        let (gap, _) = s.next_arrival();
        assert!(gap >= SimDuration::from_secs(365 * 24 * 3600));
    }

    #[test]
    fn kind_mismatch_is_recorded_as_a_divergence() {
        let mut s = ReplayScenario::new(sample_log());
        assert_eq!(s.divergence(), None);
        assert!(s.build(RequestKind::Manage, QueueId(0)).steps.is_empty());
        let first = s.divergence().expect("divergence recorded").to_owned();
        assert!(
            first.contains("Manage") && first.contains("Browse"),
            "{first}"
        );
        // Only the first divergence is kept; running past the end is one too.
        s.build(RequestKind::Purchase, QueueId(0));
        s.build(RequestKind::Purchase, QueueId(0));
        assert_eq!(s.divergence(), Some(first.as_str()));
        let mut empty = ReplayScenario::new(ReplayLog::default());
        empty.build(RequestKind::Browse, QueueId(0));
        assert!(empty.divergence().unwrap().contains("past the log's end"));
    }
}
