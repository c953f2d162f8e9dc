//! The message-queue broker (the "MQ" library of the paper's software
//! stack).
//!
//! SPECjAppServer2004's manufacturing domain is driven by JMS work orders;
//! the broker here is a set of FIFO queues with depth statistics so the
//! workload can run its asynchronous leg for real.

use std::collections::VecDeque;

/// Identifier of a queue within the broker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct QueueId(pub u32);

/// A queued message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Opaque correlation id chosen by the sender.
    pub correlation: u64,
    /// Payload size in bytes (drives marshalling cost).
    pub payload_bytes: u32,
    /// Delivery attempts this message is on (1 = first delivery). Bumped
    /// by [`Broker::redeliver`]; consumers dead-letter past their budget.
    pub deliveries: u32,
}

impl Message {
    /// A fresh message on its first delivery attempt.
    #[must_use]
    pub fn new(correlation: u64, payload_bytes: u32) -> Message {
        Message {
            correlation,
            payload_bytes,
            deliveries: 1,
        }
    }
}

/// Broker statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Messages enqueued.
    pub sent: u64,
    /// Messages dequeued.
    pub received: u64,
    /// Messages pushed back for redelivery.
    pub redelivered: u64,
    /// Messages moved to the dead-letter queue.
    pub dead_lettered: u64,
    /// High-water mark of total queued messages.
    pub peak_depth: usize,
}

/// A FIFO message broker.
#[derive(Clone, Debug, Default)]
pub struct Broker {
    queues: Vec<VecDeque<Message>>,
    dead: Vec<Message>,
    stats: BrokerStats,
}

impl Broker {
    /// Creates a broker with no queues.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new queue.
    pub fn declare_queue(&mut self) -> QueueId {
        self.queues.push(VecDeque::new());
        QueueId((self.queues.len() - 1) as u32)
    }

    /// `true` when `queue` was declared on this broker.
    #[must_use]
    pub fn has_queue(&self, queue: QueueId) -> bool {
        (queue.0 as usize) < self.queues.len()
    }

    /// Enqueues a message.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    pub fn send(&mut self, queue: QueueId, message: Message) {
        self.queues
            .get_mut(queue.0 as usize)
            .expect("unknown queue")
            .push_back(message);
        self.stats.sent += 1;
        let depth: usize = self.queues.iter().map(VecDeque::len).sum();
        self.stats.peak_depth = self.stats.peak_depth.max(depth);
    }

    /// Dequeues the oldest message, if any.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    pub fn receive(&mut self, queue: QueueId) -> Option<Message> {
        let m = self
            .queues
            .get_mut(queue.0 as usize)
            .expect("unknown queue")
            .pop_front();
        if m.is_some() {
            self.stats.received += 1;
        }
        m
    }

    /// Pushes a consumed message back to the front of its queue for
    /// another delivery attempt (JMS at-least-once redelivery). The front
    /// keeps FIFO intact: the redelivered message is retried before newer
    /// work.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    pub fn redeliver(&mut self, queue: QueueId, mut message: Message) {
        message.deliveries += 1;
        self.queues
            .get_mut(queue.0 as usize)
            .expect("unknown queue")
            .push_front(message);
        self.stats.redelivered += 1;
        let depth: usize = self.queues.iter().map(VecDeque::len).sum();
        self.stats.peak_depth = self.stats.peak_depth.max(depth);
    }

    /// Moves a poisoned message to the dead-letter queue.
    pub fn dead_letter(&mut self, message: Message) {
        self.dead.push(message);
        self.stats.dead_lettered += 1;
    }

    /// Messages parked on the dead-letter queue, in arrival order.
    #[must_use]
    pub fn dead_letters(&self) -> &[Message] {
        &self.dead
    }

    /// Current depth of one queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    #[must_use]
    pub fn depth(&self, queue: QueueId) -> usize {
        self.queues
            .get(queue.0 as usize)
            .expect("unknown queue")
            .len()
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Default for Message {
    fn default() -> Self {
        Message::new(0, 0)
    }
}

impl Persist for Message {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.correlation.persist(io);
        self.payload_bytes.persist(io);
        self.deliveries.persist(io);
    }
}

impl Persist for BrokerStats {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.sent.persist(io);
        self.received.persist(io);
        self.redelivered.persist(io);
        self.dead_lettered.persist(io);
        self.peak_depth.persist(io);
    }
}

impl Persist for Broker {
    // The queue count is set by `declare_queue` during server boot, so
    // the outer Vec persists in place; queue contents are growable.
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_slice(io, &mut self.queues);
        snap::persist_vec(io, &mut self.dead);
        self.stats.persist(io);
    }
}

impl Persist for QueueId {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut b = Broker::new();
        let q = b.declare_queue();
        b.send(q, Message::new(1, 100));
        b.send(q, Message::new(2, 100));
        assert_eq!(b.receive(q).unwrap().correlation, 1);
        assert_eq!(b.receive(q).unwrap().correlation, 2);
        assert_eq!(b.receive(q), None);
    }

    #[test]
    fn queues_are_independent() {
        let mut b = Broker::new();
        let q1 = b.declare_queue();
        let q2 = b.declare_queue();
        b.send(q1, Message::new(1, 10));
        assert_eq!(b.depth(q1), 1);
        assert_eq!(b.depth(q2), 0);
        assert_eq!(b.receive(q2), None);
    }

    #[test]
    fn stats_track_peak_depth() {
        let mut b = Broker::new();
        let q = b.declare_queue();
        for i in 0..5 {
            b.send(q, Message::new(i, 10));
        }
        b.receive(q);
        let s = b.stats();
        assert_eq!(s.sent, 5);
        assert_eq!(s.received, 1);
        assert_eq!(s.peak_depth, 5);
    }

    #[test]
    fn redelivery_goes_to_the_front_and_counts_attempts() {
        let mut b = Broker::new();
        let q = b.declare_queue();
        b.send(q, Message::new(1, 10));
        b.send(q, Message::new(2, 10));
        let m = b.receive(q).unwrap();
        assert_eq!(m.deliveries, 1);
        b.redeliver(q, m);
        let again = b.receive(q).unwrap();
        assert_eq!(again.correlation, 1, "redelivered before newer work");
        assert_eq!(again.deliveries, 2);
        assert_eq!(b.stats().redelivered, 1);
    }

    #[test]
    fn dead_letters_are_parked_not_redelivered() {
        let mut b = Broker::new();
        let q = b.declare_queue();
        b.send(q, Message::new(9, 10));
        let m = b.receive(q).unwrap();
        b.dead_letter(m);
        assert_eq!(b.receive(q), None);
        assert_eq!(b.dead_letters().len(), 1);
        assert_eq!(b.dead_letters()[0].correlation, 9);
        assert_eq!(b.stats().dead_lettered, 1);
    }

    #[test]
    #[should_panic(expected = "unknown queue")]
    fn unknown_queue_panics() {
        let mut b = Broker::new();
        b.send(QueueId(3), Message::new(0, 0));
    }
}
