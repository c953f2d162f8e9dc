//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible across runs and platforms, so it
//! owns its generator instead of depending on an external crate whose stream
//! might change between versions. The generator is `xoshiro256**`, seeded
//! through SplitMix64 (the reference seeding procedure), which has excellent
//! statistical quality for simulation purposes and is trivially portable.

/// A deterministic `xoshiro256**` pseudo-random number generator.
///
/// Two generators created with the same seed produce identical streams.
/// Use [`Rng::fork`] to derive statistically independent sub-streams for
/// simulation components so that adding draws in one component does not
/// perturb another.
///
/// ```
/// use jas_simkernel::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent generator for a named sub-component.
    ///
    /// The `label` is hashed into the fork so that distinct components get
    /// distinct streams even when forked from the same parent state.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            // Not the FNV prime (0x100_0000_01b3): every RNG stream
            // depends on this constant, so it must never be "fixed".
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Rng::new(self.next_u64() ^ h)
    }

    /// Mutable access to the raw generator state, for checkpoint
    /// persistence only — overwriting it mid-stream changes every
    /// subsequent draw.
    pub(crate) fn state_mut(&mut self) -> &mut [u64; 4] {
        &mut self.s
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1)
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method (unbiased).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        lo + self.next_below(hi - lo + 1)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// Returns `None` when the slice is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.next_below(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// Weights need not be normalized. Returns `None` if all weights are
    /// non-positive or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if x < w {
                return Some(i);
            }
            x -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_label() {
        let mut parent1 = Rng::new(99);
        let mut parent2 = Rng::new(99);
        let mut f1 = parent1.fork("cache");
        let mut f2 = parent2.fork("branch");
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = Rng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow generous slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_range_hits_endpoints() {
        let mut r = Rng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1_000 {
            match r.next_range(4, 6) {
                4 => saw_lo = true,
                6 => saw_hi = true,
                5 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Rng::new(13);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut r = Rng::new(17);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pick_weighted_empty_and_zero() {
        let mut r = Rng::new(19);
        assert_eq!(r.pick_weighted(&[]), None);
        assert_eq!(r.pick_weighted(&[0.0, -1.0]), None);
    }

    #[test]
    fn pick_handles_empty_slice() {
        let mut r = Rng::new(23);
        let empty: [u8; 0] = [];
        assert_eq!(r.pick(&empty), None);
        assert_eq!(r.pick(&[42]), Some(&42));
    }
}
