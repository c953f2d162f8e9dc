//! The trace event taxonomy: what can happen to a request end-to-end, with
//! stable digest codes and export labels.

use jas_simkernel::SimTime;

/// Coarse event family, used to filter emission (`--trace <spec>`) and to
/// group events in exported traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCategory {
    /// Request lifecycle: admission, completion, failure.
    Request,
    /// Application-server pool activity (grants, queueing, seizure).
    Pool,
    /// RMI/ORB dispatch.
    Rmi,
    /// JMS messaging: send, delivery, redelivery, dead-lettering.
    Jms,
    /// Database tier: commits, lock waits, buffer-pool I/O.
    Db,
    /// Resilience decisions: retries and circuit-breaker transitions.
    Resilience,
    /// Garbage-collection pauses.
    Gc,
    /// Allocation epochs.
    Alloc,
    /// Per-core scheduler-quantum boundaries.
    Quantum,
    /// Periodic hardware-counter samples.
    Hpm,
}

impl TraceCategory {
    /// Every category, in mask-bit order.
    pub const ALL: [TraceCategory; 10] = [
        TraceCategory::Request,
        TraceCategory::Pool,
        TraceCategory::Rmi,
        TraceCategory::Jms,
        TraceCategory::Db,
        TraceCategory::Resilience,
        TraceCategory::Gc,
        TraceCategory::Alloc,
        TraceCategory::Quantum,
        TraceCategory::Hpm,
    ];

    /// The category's bit in a [`crate::TraceSpec`] mask.
    #[must_use]
    pub fn bit(self) -> u32 {
        let idx = TraceCategory::ALL
            .iter()
            .position(|&c| c == self)
            .expect("category is in ALL");
        1 << idx
    }

    /// The spec/export name of this category.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Request => "req",
            TraceCategory::Pool => "pool",
            TraceCategory::Rmi => "rmi",
            TraceCategory::Jms => "jms",
            TraceCategory::Db => "db",
            TraceCategory::Resilience => "resil",
            TraceCategory::Gc => "gc",
            TraceCategory::Alloc => "alloc",
            TraceCategory::Quantum => "quantum",
            TraceCategory::Hpm => "hpm",
        }
    }
}

/// What happened. Every variant carries at most one `u64`-encodable
/// argument so the checkpointed form stays fixed-width and the digest
/// covers the full payload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A request entered the system; the argument is its
    /// `RequestKind` index.
    RequestAdmitted {
        /// Index of the request kind in `RequestKind::ALL`.
        kind: u8,
    },
    /// The request committed.
    #[default]
    RequestDone,
    /// The request failed permanently.
    RequestFailed,
    /// A pool admission was granted immediately.
    PoolGranted {
        /// Pool index (web, ORB, JDBC, JMS listener).
        pool: u8,
    },
    /// A pool admission queued behind exhausted capacity.
    PoolQueued {
        /// Pool index.
        pool: u8,
    },
    /// A fault seized pool threads; the argument is the seized level.
    PoolSeized {
        /// Number of threads currently seized.
        level: u64,
    },
    /// The request was dispatched through the ORB (RMI).
    RmiDispatch,
    /// A message was sent to a queue.
    JmsSend {
        /// Destination queue id.
        queue: u32,
    },
    /// A message was delivered from a queue to a consumer.
    JmsDeliver {
        /// Source queue id.
        queue: u32,
    },
    /// A delivery rolled back and the message returned for redelivery.
    JmsRedeliver {
        /// Delivery attempts so far.
        attempt: u32,
    },
    /// A message exhausted its delivery budget and was dead-lettered.
    JmsDeadLetter,
    /// A database statement committed; the argument is its CPU cost in
    /// full-scale instructions.
    DbCommit {
        /// Full-scale instructions the statement cost.
        instructions: u64,
    },
    /// A statement lost a row-lock race and backed off.
    DbLockWait {
        /// The contended table id.
        table: u64,
    },
    /// A statement missed in the buffer pool and did real I/O.
    DbIo {
        /// Buffer-pool misses charged to the statement.
        misses: u64,
    },
    /// A failed statement was scheduled for a bounded-backoff retry.
    Retry {
        /// 1-based retry attempt.
        attempt: u32,
    },
    /// The DB circuit breaker tripped open.
    BreakerOpen,
    /// The breaker moved open → half-open.
    BreakerHalfOpen,
    /// A half-open probe succeeded and the breaker closed.
    BreakerClosed,
    /// A stop-the-world GC pause began; the argument is used heap bytes.
    GcPauseStart {
        /// Used heap bytes when the pause began.
        used_bytes: u64,
    },
    /// The pause ended; the argument is its length in sim-nanoseconds.
    GcPauseEnd {
        /// Pause length in nanoseconds of simulated time.
        pause_nanos: u64,
    },
    /// An allocation epoch marker; the argument is cumulative allocated
    /// bytes, so deltas between markers give the allocation rate.
    AllocEpoch {
        /// Cumulative bytes allocated by the JVM so far.
        allocated_bytes: u64,
    },
    /// One core finished a scheduler quantum (staged per core, merged in
    /// fixed core order); the argument is busy cycles in the quantum.
    CoreQuantum {
        /// Cycles the core spent busy (user + system) this quantum.
        cycles: u64,
    },
    /// A periodic HPM sample window closed; the argument is cumulative
    /// completed instructions.
    HpmSample {
        /// Machine-wide completed instructions so far.
        instructions: u64,
    },
}

impl TraceEventKind {
    /// Stable digest/wire code; changing any value invalidates pinned
    /// `TRACE_DIGEST`s and the tracer state inside old checkpoints.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            TraceEventKind::RequestAdmitted { .. } => 0x01,
            TraceEventKind::RequestDone => 0x02,
            TraceEventKind::RequestFailed => 0x03,
            TraceEventKind::PoolGranted { .. } => 0x10,
            TraceEventKind::PoolQueued { .. } => 0x11,
            TraceEventKind::PoolSeized { .. } => 0x12,
            TraceEventKind::RmiDispatch => 0x20,
            TraceEventKind::JmsSend { .. } => 0x30,
            TraceEventKind::JmsDeliver { .. } => 0x31,
            TraceEventKind::JmsRedeliver { .. } => 0x32,
            TraceEventKind::JmsDeadLetter => 0x33,
            TraceEventKind::DbCommit { .. } => 0x40,
            TraceEventKind::DbLockWait { .. } => 0x41,
            TraceEventKind::DbIo { .. } => 0x42,
            TraceEventKind::Retry { .. } => 0x50,
            TraceEventKind::BreakerOpen => 0x51,
            TraceEventKind::BreakerHalfOpen => 0x52,
            TraceEventKind::BreakerClosed => 0x53,
            TraceEventKind::GcPauseStart { .. } => 0x60,
            TraceEventKind::GcPauseEnd { .. } => 0x61,
            TraceEventKind::AllocEpoch { .. } => 0x70,
            TraceEventKind::CoreQuantum { .. } => 0x80,
            TraceEventKind::HpmSample { .. } => 0x90,
        }
    }

    /// The single `u64` argument carried on the wire (0 for payload-free
    /// variants).
    #[must_use]
    pub fn arg(self) -> u64 {
        match self {
            TraceEventKind::RequestAdmitted { kind } => u64::from(kind),
            TraceEventKind::PoolGranted { pool } | TraceEventKind::PoolQueued { pool } => {
                u64::from(pool)
            }
            TraceEventKind::PoolSeized { level } => level,
            TraceEventKind::JmsSend { queue } | TraceEventKind::JmsDeliver { queue } => {
                u64::from(queue)
            }
            TraceEventKind::JmsRedeliver { attempt } | TraceEventKind::Retry { attempt } => {
                u64::from(attempt)
            }
            TraceEventKind::DbCommit { instructions } => instructions,
            TraceEventKind::DbLockWait { table } => table,
            TraceEventKind::DbIo { misses } => misses,
            TraceEventKind::GcPauseStart { used_bytes } => used_bytes,
            TraceEventKind::GcPauseEnd { pause_nanos } => pause_nanos,
            TraceEventKind::AllocEpoch { allocated_bytes } => allocated_bytes,
            TraceEventKind::CoreQuantum { cycles } => cycles,
            TraceEventKind::HpmSample { instructions } => instructions,
            TraceEventKind::RequestDone
            | TraceEventKind::RequestFailed
            | TraceEventKind::RmiDispatch
            | TraceEventKind::JmsDeadLetter
            | TraceEventKind::BreakerOpen
            | TraceEventKind::BreakerHalfOpen
            | TraceEventKind::BreakerClosed => 0,
        }
    }

    /// Reconstructs a kind from its wire `(code, arg)` pair (the inverse
    /// of [`TraceEventKind::code`] + [`TraceEventKind::arg`]).
    #[must_use]
    pub fn from_code(code: u64, arg: u64) -> Option<TraceEventKind> {
        Some(match code {
            0x01 => TraceEventKind::RequestAdmitted { kind: arg as u8 },
            0x02 => TraceEventKind::RequestDone,
            0x03 => TraceEventKind::RequestFailed,
            0x10 => TraceEventKind::PoolGranted { pool: arg as u8 },
            0x11 => TraceEventKind::PoolQueued { pool: arg as u8 },
            0x12 => TraceEventKind::PoolSeized { level: arg },
            0x20 => TraceEventKind::RmiDispatch,
            0x30 => TraceEventKind::JmsSend { queue: arg as u32 },
            0x31 => TraceEventKind::JmsDeliver { queue: arg as u32 },
            0x32 => TraceEventKind::JmsRedeliver {
                attempt: arg as u32,
            },
            0x33 => TraceEventKind::JmsDeadLetter,
            0x40 => TraceEventKind::DbCommit { instructions: arg },
            0x41 => TraceEventKind::DbLockWait { table: arg },
            0x42 => TraceEventKind::DbIo { misses: arg },
            0x50 => TraceEventKind::Retry {
                attempt: arg as u32,
            },
            0x51 => TraceEventKind::BreakerOpen,
            0x52 => TraceEventKind::BreakerHalfOpen,
            0x53 => TraceEventKind::BreakerClosed,
            0x60 => TraceEventKind::GcPauseStart { used_bytes: arg },
            0x61 => TraceEventKind::GcPauseEnd { pause_nanos: arg },
            0x70 => TraceEventKind::AllocEpoch {
                allocated_bytes: arg,
            },
            0x80 => TraceEventKind::CoreQuantum { cycles: arg },
            0x90 => TraceEventKind::HpmSample { instructions: arg },
            _ => return None,
        })
    }

    /// The category this kind belongs to (drives `--trace` filtering).
    #[must_use]
    pub fn category(self) -> TraceCategory {
        match self {
            TraceEventKind::RequestAdmitted { .. }
            | TraceEventKind::RequestDone
            | TraceEventKind::RequestFailed => TraceCategory::Request,
            TraceEventKind::PoolGranted { .. }
            | TraceEventKind::PoolQueued { .. }
            | TraceEventKind::PoolSeized { .. } => TraceCategory::Pool,
            TraceEventKind::RmiDispatch => TraceCategory::Rmi,
            TraceEventKind::JmsSend { .. }
            | TraceEventKind::JmsDeliver { .. }
            | TraceEventKind::JmsRedeliver { .. }
            | TraceEventKind::JmsDeadLetter => TraceCategory::Jms,
            TraceEventKind::DbCommit { .. }
            | TraceEventKind::DbLockWait { .. }
            | TraceEventKind::DbIo { .. } => TraceCategory::Db,
            TraceEventKind::Retry { .. }
            | TraceEventKind::BreakerOpen
            | TraceEventKind::BreakerHalfOpen
            | TraceEventKind::BreakerClosed => TraceCategory::Resilience,
            TraceEventKind::GcPauseStart { .. } | TraceEventKind::GcPauseEnd { .. } => {
                TraceCategory::Gc
            }
            TraceEventKind::AllocEpoch { .. } => TraceCategory::Alloc,
            TraceEventKind::CoreQuantum { .. } => TraceCategory::Quantum,
            TraceEventKind::HpmSample { .. } => TraceCategory::Hpm,
        }
    }

    /// Short export label (the `name` field in chrome://tracing output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::RequestAdmitted { .. } => "req-admit",
            TraceEventKind::RequestDone => "req-done",
            TraceEventKind::RequestFailed => "req-fail",
            TraceEventKind::PoolGranted { .. } => "pool-grant",
            TraceEventKind::PoolQueued { .. } => "pool-queue",
            TraceEventKind::PoolSeized { .. } => "pool-seize",
            TraceEventKind::RmiDispatch => "rmi-dispatch",
            TraceEventKind::JmsSend { .. } => "jms-send",
            TraceEventKind::JmsDeliver { .. } => "jms-deliver",
            TraceEventKind::JmsRedeliver { .. } => "jms-redeliver",
            TraceEventKind::JmsDeadLetter => "jms-dead-letter",
            TraceEventKind::DbCommit { .. } => "db-commit",
            TraceEventKind::DbLockWait { .. } => "db-lock-wait",
            TraceEventKind::DbIo { .. } => "db-io",
            TraceEventKind::Retry { .. } => "retry",
            TraceEventKind::BreakerOpen => "breaker-open",
            TraceEventKind::BreakerHalfOpen => "breaker-half-open",
            TraceEventKind::BreakerClosed => "breaker-closed",
            TraceEventKind::GcPauseStart { .. } => "gc-pause-start",
            TraceEventKind::GcPauseEnd { .. } => "gc-pause-end",
            TraceEventKind::AllocEpoch { .. } => "alloc-epoch",
            TraceEventKind::CoreQuantum { .. } => "core-quantum",
            TraceEventKind::HpmSample { .. } => "hpm-sample",
        }
    }
}

/// One sim-timestamped trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim-clock instant the event was recorded.
    pub at: SimTime,
    /// Trace id: `task index + 1` for request-scoped events, the core
    /// index for [`TraceEventKind::CoreQuantum`], 0 for system-wide
    /// events (GC, HPM samples, pool seizure).
    pub trace_id: u64,
    /// What happened.
    pub what: TraceEventKind,
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{Persist, StateIo};

impl Persist for TraceEventKind {
    // Reuses the stable wire encoding: `(code, arg)` round-trips every
    // variant via `from_code`.
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut code = self.code();
        let mut arg = self.arg();
        io.word(&mut code);
        io.word(&mut arg);
        if !io.saving() {
            *self = TraceEventKind::from_code(code, arg).unwrap_or_default();
        }
    }
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            at: SimTime::ZERO,
            trace_id: 0,
            what: TraceEventKind::default(),
        }
    }
}

impl Persist for TraceEvent {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.at.persist(io);
        self.trace_id.persist(io);
        self.what.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant, payload bits set high enough to
    /// catch truncation in the wire round-trip.
    fn zoo() -> Vec<TraceEventKind> {
        vec![
            TraceEventKind::RequestAdmitted { kind: 4 },
            TraceEventKind::RequestDone,
            TraceEventKind::RequestFailed,
            TraceEventKind::PoolGranted { pool: 3 },
            TraceEventKind::PoolQueued { pool: 1 },
            TraceEventKind::PoolSeized { level: 37 },
            TraceEventKind::RmiDispatch,
            TraceEventKind::JmsSend { queue: 9 },
            TraceEventKind::JmsDeliver { queue: 9 },
            TraceEventKind::JmsRedeliver { attempt: 2 },
            TraceEventKind::JmsDeadLetter,
            TraceEventKind::DbCommit {
                instructions: 1 << 40,
            },
            TraceEventKind::DbLockWait { table: 6 },
            TraceEventKind::DbIo { misses: 11 },
            TraceEventKind::Retry { attempt: 3 },
            TraceEventKind::BreakerOpen,
            TraceEventKind::BreakerHalfOpen,
            TraceEventKind::BreakerClosed,
            TraceEventKind::GcPauseStart {
                used_bytes: 200 << 20,
            },
            TraceEventKind::GcPauseEnd {
                pause_nanos: 350_000_000,
            },
            TraceEventKind::AllocEpoch {
                allocated_bytes: 3 << 30,
            },
            TraceEventKind::CoreQuantum { cycles: 123_456 },
            TraceEventKind::HpmSample {
                instructions: 1 << 50,
            },
        ]
    }

    #[test]
    fn codes_are_distinct() {
        let mut codes: Vec<u64> = zoo().into_iter().map(TraceEventKind::code).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate digest codes");
    }

    #[test]
    fn code_arg_round_trips_every_variant() {
        for kind in zoo() {
            let back = TraceEventKind::from_code(kind.code(), kind.arg());
            assert_eq!(back, Some(kind));
        }
        assert_eq!(TraceEventKind::from_code(0xFFFF, 0), None);
    }

    #[test]
    fn category_bits_are_distinct_and_cover_all() {
        let mut mask = 0u32;
        for c in TraceCategory::ALL {
            assert_eq!(mask & c.bit(), 0, "overlapping bit for {c:?}");
            mask |= c.bit();
        }
        assert_eq!(mask.count_ones() as usize, TraceCategory::ALL.len());
    }

    #[test]
    fn labels_and_names_are_nonempty_and_unique() {
        let labels: Vec<&str> = zoo().into_iter().map(TraceEventKind::label).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        for c in TraceCategory::ALL {
            assert!(!c.name().is_empty());
        }
    }
}
