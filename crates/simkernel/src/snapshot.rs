//! Visitor-style state persistence for checkpoint/restore.
//!
//! Every piece of mutable simulation state implements [`Persist`]: a single
//! `persist` method that either writes the state into a [`Saver`] or
//! overwrites it from a [`Loader`], depending on which [`StateIo`] it is
//! handed. One function for both directions means the save and load paths
//! cannot drift apart — the classic source of "restores but diverges"
//! checkpoint bugs.
//!
//! The wire format is deliberately primitive: every value is one
//! little-endian `u64` word. Floats travel as IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a round trip is bit-exact; enums travel as integer
//! tags chosen by their defining crate. Config-derived state (sizing
//! constants, precomputed tables) is *not* persisted — a restore first
//! reconstructs it from the same configuration, then overlays the mutable
//! state recorded here.
//!
//! Containers follow the lint-rule-D001 discipline: ordered maps and sets
//! serialize in key order, so a checkpoint's bytes are as deterministic as
//! the simulation that produced them.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The I/O direction a [`Persist::persist`] call runs in: a [`Saver`]
/// serializing state out, or a [`Loader`] overwriting state from a
/// checkpoint.
pub trait StateIo {
    /// `true` when this visitor is serializing (a [`Saver`]).
    fn saving(&self) -> bool;

    /// Saves or loads one 64-bit word — the only primitive of the format.
    fn word(&mut self, v: &mut u64);

    /// Saves or loads a collection's element count. Every persisted
    /// element is at least one word, so a [`Loader`] rejects a count
    /// larger than the words it has left.
    fn length(&mut self, len: &mut u64) {
        self.word(len);
    }
}

/// State that can round-trip through a checkpoint.
pub trait Persist {
    /// Visits every mutable field in a fixed order, writing it to or
    /// reading it from `io`.
    fn persist(&mut self, io: &mut dyn StateIo);
}

/// Serializes state into an in-memory byte buffer.
#[derive(Default)]
pub struct Saver {
    buf: Vec<u8>,
}

impl Saver {
    /// An empty saver.
    #[must_use]
    pub fn new() -> Self {
        Saver::default()
    }

    /// The serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl StateIo for Saver {
    fn saving(&self) -> bool {
        true
    }

    fn word(&mut self, v: &mut u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Deserializes state from a byte buffer.
///
/// A short read poisons the loader (subsequent words read as zero) instead
/// of panicking, and so does an element count larger than the words left,
/// which then loads as zero elements: hostile lengths never allocate.
/// Callers check [`Loader::finish`] after the visit, which also rejects
/// trailing bytes — a stream that is too long or too short means the
/// checkpoint was produced by a different state layout.
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
    underflow: bool,
}

impl<'a> Loader<'a> {
    /// A loader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Loader {
            buf: bytes,
            pos: 0,
            underflow: false,
        }
    }

    /// Validates that the visit consumed the buffer exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch (short read or trailing
    /// bytes).
    pub fn finish(self) -> Result<(), String> {
        if self.underflow {
            return Err(format!(
                "checkpoint stream too short: needed more than {} bytes",
                self.buf.len()
            ));
        }
        if self.pos != self.buf.len() {
            return Err(format!(
                "checkpoint stream too long: {} of {} bytes consumed",
                self.pos,
                self.buf.len()
            ));
        }
        Ok(())
    }
}

impl StateIo for Loader<'_> {
    fn saving(&self) -> bool {
        false
    }

    fn word(&mut self, v: &mut u64) {
        match self.buf.get(self.pos..self.pos + 8) {
            Some(chunk) => {
                *v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                self.pos += 8;
            }
            None => {
                self.underflow = true;
                *v = 0;
            }
        }
    }

    fn length(&mut self, len: &mut u64) {
        self.word(len);
        let words_left = (self.buf.len() - self.pos) / 8;
        if *len > words_left as u64 {
            self.underflow = true;
            self.pos = self.buf.len();
            *len = 0;
        }
    }
}

macro_rules! persist_as_word {
    ($($t:ty),+) => {$(
        impl Persist for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn persist(&mut self, io: &mut dyn StateIo) {
                let mut w = *self as u64;
                io.word(&mut w);
                *self = w as $t;
            }
        }
    )+};
}

persist_as_word!(u64, u32, u16, u8, usize, i64, i32);

impl Persist for bool {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = u64::from(*self);
        io.word(&mut w);
        *self = w != 0;
    }
}

impl Persist for f64 {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = self.to_bits();
        io.word(&mut w);
        *self = f64::from_bits(w);
    }
}

impl Persist for SimTime {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = self.as_nanos();
        io.word(&mut w);
        *self = SimTime::from_nanos(w);
    }
}

impl Persist for SimDuration {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = self.as_nanos();
        io.word(&mut w);
        *self = SimDuration::from_nanos(w);
    }
}

impl Persist for Rng {
    // jas-lint: allow(D009, reason = "the full RNG state s is visited through the state_mut() accessor")
    fn persist(&mut self, io: &mut dyn StateIo) {
        for w in self.state_mut() {
            io.word(w);
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
        self.1.persist(io);
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
        self.1.persist(io);
        self.2.persist(io);
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn persist(&mut self, io: &mut dyn StateIo) {
        for item in self.iter_mut() {
            item.persist(io);
        }
    }
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn persist(&mut self, io: &mut dyn StateIo) {
        persist_vec(io, self);
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn persist(&mut self, io: &mut dyn StateIo) {
        persist_deque(io, self);
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn persist(&mut self, io: &mut dyn StateIo) {
        persist_opt(io, self);
    }
}

/// Persists a growable vector whose elements need a constructor (state
/// that cannot be `Default`-built without configuration).
pub fn persist_vec_with<T: Persist>(
    io: &mut dyn StateIo,
    v: &mut Vec<T>,
    mut make: impl FnMut() -> T,
) {
    let mut len = v.len() as u64;
    io.length(&mut len);
    if !io.saving() {
        v.clear();
        for _ in 0..len {
            v.push(make());
        }
    }
    for item in v.iter_mut() {
        item.persist(io);
    }
}

/// Persists a growable vector of default-constructible elements.
pub fn persist_vec<T: Persist + Default>(io: &mut dyn StateIo, v: &mut Vec<T>) {
    persist_vec_with(io, v, T::default);
}

/// Persists a double-ended queue of default-constructible elements.
pub fn persist_deque<T: Persist + Default>(io: &mut dyn StateIo, v: &mut VecDeque<T>) {
    let mut len = v.len() as u64;
    io.length(&mut len);
    if !io.saving() {
        v.clear();
        for _ in 0..len {
            v.push_back(T::default());
        }
    }
    for item in v.iter_mut() {
        item.persist(io);
    }
}

/// Persists a fixed-size slice whose length is config-derived: the length
/// is recorded for validation but never resizes the slice.
///
/// # Panics
///
/// Panics when a loaded checkpoint disagrees with the slice length — the
/// checkpoint was taken under a different configuration, which the
/// container-level fingerprint should have rejected first.
pub fn persist_slice<T: Persist>(io: &mut dyn StateIo, v: &mut [T]) {
    let mut len = v.len() as u64;
    io.word(&mut len);
    assert_eq!(
        len as usize,
        v.len(),
        "checkpoint slice length mismatch (configuration drift)"
    );
    for item in v.iter_mut() {
        item.persist(io);
    }
}

/// Persists an optional value needing a constructor.
pub fn persist_opt_with<T: Persist>(
    io: &mut dyn StateIo,
    v: &mut Option<T>,
    make: impl FnOnce() -> T,
) {
    let mut present = u64::from(v.is_some());
    io.word(&mut present);
    if !io.saving() {
        *v = if present != 0 { Some(make()) } else { None };
    }
    if let Some(inner) = v.as_mut() {
        inner.persist(io);
    }
}

/// Persists an optional default-constructible value.
pub fn persist_opt<T: Persist + Default>(io: &mut dyn StateIo, v: &mut Option<T>) {
    persist_opt_with(io, v, T::default);
}

/// Persists an ordered map in key order (lint rule D001 guarantees the
/// iteration order is deterministic, so the serialized bytes are too).
pub fn persist_map<K, V>(io: &mut dyn StateIo, m: &mut BTreeMap<K, V>)
where
    K: Persist + Default + Ord + Copy,
    V: Persist + Default,
{
    let mut len = m.len() as u64;
    io.length(&mut len);
    if io.saving() {
        for (k, v) in m.iter_mut() {
            let mut key = *k;
            key.persist(io);
            v.persist(io);
        }
    } else {
        m.clear();
        for _ in 0..len {
            let mut k = K::default();
            k.persist(io);
            let mut v = V::default();
            v.persist(io);
            m.insert(k, v);
        }
    }
}

/// Persists an ordered set in element order.
pub fn persist_set<K>(io: &mut dyn StateIo, s: &mut BTreeSet<K>)
where
    K: Persist + Default + Ord + Copy,
{
    let mut len = s.len() as u64;
    io.length(&mut len);
    if io.saving() {
        for k in s.iter() {
            let mut key = *k;
            key.persist(io);
        }
    } else {
        s.clear();
        for _ in 0..len {
            let mut k = K::default();
            k.persist(io);
            s.insert(k);
        }
    }
}

/// FNV-1a over a byte slice — the digest primitive the `.jckpt` container
/// and the engine's probe digest share with the trace/fault digests, the
/// `SCENARIO_DIGEST` and the `jas-lint` cache key. The workspace's one
/// byte-wise copy.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Incremental FNV-1a over 64-bit words, for cheap structural digests
/// (the engine's divergence probe).
#[derive(Clone, Copy, Debug)]
pub struct WordDigest {
    hash: u64,
}

impl Default for WordDigest {
    fn default() -> Self {
        WordDigest {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl WordDigest {
    /// A fresh digest at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        WordDigest::default()
    }

    /// Mixes one word.
    pub fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.hash
    }
}

impl StateIo for WordDigest {
    fn saving(&self) -> bool {
        true
    }

    fn word(&mut self, v: &mut u64) {
        self.mix(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, PartialEq, Debug, Clone)]
    struct Demo {
        a: u64,
        b: f64,
        c: Vec<u32>,
        d: Option<(u64, bool)>,
        e: BTreeMap<u32, u64>,
    }

    impl Persist for Demo {
        fn persist(&mut self, io: &mut dyn StateIo) {
            self.a.persist(io);
            self.b.persist(io);
            persist_vec(io, &mut self.c);
            persist_opt(io, &mut self.d);
            persist_map(io, &mut self.e);
        }
    }

    #[test]
    fn round_trip_restores_bitwise() {
        let mut d = Demo {
            a: 42,
            b: -0.125,
            c: vec![1, 2, 3],
            d: Some((7, true)),
            e: [(3, 30), (1, 10)].into_iter().collect(),
        };
        let mut saver = Saver::new();
        d.persist(&mut saver);
        let bytes = saver.into_bytes();
        let mut fresh = Demo::default();
        let mut loader = Loader::new(&bytes);
        fresh.persist(&mut loader);
        loader.finish().expect("exact stream");
        assert_eq!(fresh, d);
    }

    #[test]
    fn hostile_lengths_poison_the_loader_without_allocating() {
        // A count of 2^40 with nothing behind it: trusting it would ask
        // the allocator for terabytes before the first element is read.
        let bytes = (1u64 << 40).to_le_bytes();
        let mut v: Vec<u64> = vec![9];
        let mut loader = Loader::new(&bytes);
        persist_vec(&mut loader, &mut v);
        assert!(v.is_empty());
        assert!(loader.finish().is_err());
        let mut q: VecDeque<u64> = VecDeque::new();
        let mut loader = Loader::new(&bytes);
        persist_deque(&mut loader, &mut q);
        assert!(q.is_empty() && loader.finish().is_err());
        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        let mut loader = Loader::new(&bytes);
        persist_map(&mut loader, &mut m);
        assert!(m.is_empty() && loader.finish().is_err());
        let mut set: BTreeSet<u64> = BTreeSet::new();
        let mut loader = Loader::new(&bytes);
        persist_set(&mut loader, &mut set);
        assert!(set.is_empty() && loader.finish().is_err());
        // A count that fits the words left still loads.
        let mut saver = Saver::new();
        persist_vec(&mut saver, &mut vec![1u64, 2]);
        let bytes = saver.into_bytes();
        let mut loader = Loader::new(&bytes);
        persist_vec(&mut loader, &mut v);
        loader.finish().expect("exact stream");
        assert_eq!(v, [1, 2]);
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bit_exact() {
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut x = v;
            let mut saver = Saver::new();
            x.persist(&mut saver);
            let bytes = saver.into_bytes();
            let mut y = 0.0;
            let mut loader = Loader::new(&bytes);
            y.persist(&mut loader);
            loader.finish().expect("exact stream");
            assert_eq!(y.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn rng_round_trip_preserves_the_stream() {
        let mut src = Rng::new(99);
        src.next_u64();
        let mut saver = Saver::new();
        src.clone().persist(&mut saver);
        let bytes = saver.into_bytes();
        let mut restored = Rng::new(0);
        let mut loader = Loader::new(&bytes);
        restored.persist(&mut loader);
        loader.finish().expect("exact stream");
        for _ in 0..16 {
            assert_eq!(src.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn short_and_long_streams_are_rejected() {
        let mut d = Demo {
            c: vec![5],
            ..Demo::default()
        };
        let mut saver = Saver::new();
        d.persist(&mut saver);
        let bytes = saver.into_bytes();

        let mut short = Demo::default();
        let mut loader = Loader::new(&bytes[..bytes.len() - 8]);
        short.persist(&mut loader);
        assert!(loader.finish().is_err(), "short stream must be rejected");

        let mut long = bytes.clone();
        long.extend_from_slice(&0u64.to_le_bytes());
        let mut trailing = Demo::default();
        let mut loader = Loader::new(&long);
        trailing.persist(&mut loader);
        assert!(loader.finish().is_err(), "trailing bytes must be rejected");
    }

    #[test]
    fn fnv1a_known_answers() {
        // The offset basis and prime every digest in the workspace uses
        // (docs/scenario-format.md "Canonical serialization"), the lint
        // cache key and the `.jckpt` trailer (docs/jckpt-format.md).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_digest_matches_byte_fnv() {
        let mut d = WordDigest::new();
        d.mix(0xDEAD_BEEF);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(d.value(), fnv1a(&bytes));
    }
}
