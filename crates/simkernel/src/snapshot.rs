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

    /// Marks the stream malformed. A [`Loader`] then reads every later
    /// word as zero and fails [`Loader::finish`]; a visitor that only
    /// writes has no stream to reject.
    fn poison(&mut self) {}
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
/// of panicking, and so do an element count larger than the words left,
/// which then loads as zero elements (hostile lengths never allocate), and
/// a fixed-size slice whose recorded length disagrees with the slice.
/// Callers check [`Loader::finish`] after the visit, which also rejects
/// trailing bytes — a stream that is too long or too short was produced by
/// a different state layout.
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
    poisoned: bool,
}

impl<'a> Loader<'a> {
    /// A loader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Loader {
            buf: bytes,
            pos: 0,
            poisoned: false,
        }
    }

    /// Validates that the visit consumed the buffer exactly.
    ///
    /// # Errors
    ///
    /// Returns a format-neutral description of the mismatch (a malformed
    /// or short stream, or trailing bytes); callers prefix their format's
    /// name.
    pub fn finish(self) -> Result<(), String> {
        if self.poisoned {
            return Err(format!(
                "payload is malformed: its {} bytes do not decode to this state layout",
                self.buf.len()
            ));
        }
        if self.pos != self.buf.len() {
            return Err(format!(
                "payload has trailing bytes: {} of {} bytes consumed",
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
                self.poisoned = true;
                *v = 0;
            }
        }
    }

    fn length(&mut self, len: &mut u64) {
        self.word(len);
        let words_left = (self.buf.len() - self.pos) / 8;
        if *len > words_left as u64 {
            self.poison();
            *len = 0;
        }
    }

    fn poison(&mut self) {
        self.poisoned = true;
        self.pos = self.buf.len();
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
/// is recorded for validation but never resizes the slice. A loaded length
/// that disagrees with the slice poisons the stream.
pub fn persist_slice<T: Persist>(io: &mut dyn StateIo, v: &mut [T]) {
    let mut len = v.len() as u64;
    io.word(&mut len);
    if len != v.len() as u64 {
        io.poison();
        return;
    }
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

/// One sealed binary artifact format: the frame every `.jckpt`, `.jrpl` and
/// `.jwit` file shares (`docs/jckpt-format.md`, "Frame").
///
/// A frame is four header words — magic, version, fingerprint, payload
/// length in words — then the payload, then an FNV-1a trailer over every
/// byte before it. All words are little-endian `u64`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Format {
    /// What the artifact is called in errors ("checkpoint", "replay log").
    pub name: &'static str,
    /// Header word 0: eight ASCII bytes read as a big-endian integer.
    pub magic: u64,
    /// Header word 1: bumped on any change to the payload layout.
    pub version: u64,
}

/// Bytes before the payload: magic, version, fingerprint, payload length.
const HEADER_BYTES: usize = 32;

impl Format {
    /// Frames `payload`, a whole number of words, under `fingerprint`.
    #[must_use]
    pub fn seal(&self, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
        debug_assert!(
            payload.len().is_multiple_of(8),
            "payload is a whole number of words"
        );
        let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 8);
        for word in [
            self.magic,
            self.version,
            fingerprint,
            (payload.len() / 8) as u64,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(payload);
        let trailer = fnv1a(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    /// Checks a frame and borrows its payload. The checks run in order:
    /// length, magic, version, fingerprint, declared length, trailer.
    ///
    /// # Errors
    ///
    /// Names this format and the first check that failed.
    pub fn open<'a>(&self, bytes: &'a [u8], fingerprint: u64) -> Result<&'a [u8], String> {
        let name = self.name;
        if !bytes.len().is_multiple_of(8) || bytes.len() < HEADER_BYTES + 8 {
            return Err(format!(
                "{name} is truncated: {} bytes is not a whole frame",
                bytes.len()
            ));
        }
        let word = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("bounds checked"))
        };
        if word(0) != self.magic {
            return Err(format!(
                "{name} has the wrong magic {:#018x} (expected {:#018x})",
                word(0),
                self.magic
            ));
        }
        if word(1) != self.version {
            return Err(format!(
                "{name} version {} is not the supported version {}",
                word(1),
                self.version
            ));
        }
        if word(2) != fingerprint {
            return Err(format!(
                "{name} fingerprint {:#018x} does not match {fingerprint:#018x}: \
                 it was written under a different configuration",
                word(2)
            ));
        }
        let held = (bytes.len() - HEADER_BYTES - 8) / 8;
        if word(3) != held as u64 {
            return Err(format!(
                "{name} is truncated or padded: its header declares {} payload words, \
                 the frame holds {held}",
                word(3)
            ));
        }
        let body = &bytes[..bytes.len() - 8];
        let (trailer, computed) = (word(bytes.len() / 8 - 1), fnv1a(body));
        if trailer != computed {
            return Err(format!(
                "{name} is corrupt: trailer {trailer:#018x} != computed {computed:#018x}"
            ));
        }
        Ok(&body[HEADER_BYTES..])
    }
}

/// FNV-1a over a byte slice — the digest primitive the artifact frame
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
    fn slice_length_mismatch_poisons_the_loader() {
        // A hostile stream that records 3 elements for a 2-slot slice must
        // fail the load, not panic.
        let mut saver = Saver::new();
        persist_slice(&mut saver, &mut [7u64, 8, 9]);
        let bytes = saver.into_bytes();
        let mut two = [0u64; 2];
        let mut loader = Loader::new(&bytes);
        persist_slice(&mut loader, &mut two);
        assert!(loader.finish().is_err());
        let mut three = [0u64; 3];
        let mut loader = Loader::new(&bytes);
        persist_slice(&mut loader, &mut three);
        loader.finish().expect("exact stream");
        assert_eq!(three, [7, 8, 9]);
    }

    const DEMO: Format = Format {
        name: "demo artifact",
        magic: u64::from_be_bytes(*b"JASDEMO1"),
        version: 3,
    };

    #[test]
    fn frame_round_trips_and_borrows_the_payload() {
        let payload: Vec<u8> = (1..=16u8).collect();
        let bytes = DEMO.seal(42, &payload);
        assert_eq!(bytes.len(), 32 + 16 + 8);
        assert_eq!(DEMO.open(&bytes, 42).unwrap(), &payload[..]);
        let trailer = u64::from_le_bytes(bytes[48..].try_into().unwrap());
        assert_eq!(trailer, fnv1a(&bytes[..48]));
    }

    #[test]
    fn frame_checks_run_in_order_and_name_the_format() {
        let bytes = DEMO.seal(42, &[0; 16]);
        let err = |b: &[u8], fp: u64| DEMO.open(b, fp).unwrap_err();
        let mut corrupt = bytes.clone();
        // Words 0, 1 and 3 all wrong: the magic is reported first.
        corrupt[0] ^= 1;
        corrupt[8] ^= 1;
        corrupt[24] ^= 1;
        assert!(err(&corrupt, 42).contains("wrong magic"));
        corrupt[0] ^= 1;
        assert!(err(&corrupt, 42).contains("version 2 is not"));
        corrupt[8] ^= 1;
        assert!(err(&bytes, 7).contains("fingerprint"));
        assert!(err(&corrupt, 42).contains("declares 3 payload words"));
        corrupt[24] ^= 1;
        corrupt[40] ^= 1;
        assert!(err(&corrupt, 42).contains("corrupt"));
        assert!(err(&bytes[..bytes.len() - 8], 42).contains("declares"));
        assert!(err(&bytes[..39], 42).contains("truncated"));
        for e in [err(&corrupt, 42), err(&bytes, 7), err(&[], 0)] {
            assert!(e.starts_with("demo artifact "), "{e}");
        }
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
        // cache key and the artifact frame trailer (docs/jckpt-format.md).
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
