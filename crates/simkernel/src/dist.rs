//! Probability distributions used by the workload and service-time models.
//!
//! Each distribution is a small value type with a `sample(&mut Rng)` method.
//! Request inter-arrival times are exponential (the SPECjAppServer driver is
//! an open Poisson-like source at a fixed injection rate), service-time
//! jitter is lognormal, and data references follow Zipf-like popularity —
//! the standard choices for transaction-processing models.

use crate::Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// ```
/// use jas_simkernel::{dist::Exponential, Rng};
/// let exp = Exponential::new(10.0);
/// let mut rng = Rng::new(1);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Mean of the distribution (`1/lambda`).
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF; (1 - u) avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// Lognormal distribution parameterized by the mean and coefficient of
/// variation of the *resulting* distribution (more convenient for service
/// times than mu/sigma of the underlying normal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lognormal {
    mu: f64,
    sigma: f64,
}

impl Lognormal {
    /// Creates a lognormal with the given mean and coefficient of variation
    /// (`cv = stddev / mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv < 0`, or either is non-finite.
    #[must_use]
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive, got {mean}"
        );
        assert!(
            cv.is_finite() && cv >= 0.0,
            "cv must be non-negative, got {cv}"
        );
        let sigma2 = (1.0 + cv * cv).ln();
        Lognormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }
}

/// Draws from the standard normal via Box–Muller (one value per call; the
/// second value is discarded to keep the generator state simple and the
/// stream deterministic regardless of call interleaving).
fn sample_standard_normal(rng: &mut Rng) -> f64 {
    let u1 = 1.0 - rng.next_f64(); // (0, 1]
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Normal distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    mean: f64,
    stddev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `stddev` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, stddev: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite");
        assert!(
            stddev.is_finite() && stddev >= 0.0,
            "stddev must be non-negative and finite, got {stddev}"
        );
        Normal { mean, stddev }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.stddev * sample_standard_normal(rng)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Used for data-popularity skew: rank 0 is the most popular item. Sampling
/// uses a precomputed cumulative table, so construction is `O(n)` and
/// sampling is `O(1)` amortized (a fixed-point bucket index into the CDF).
///
/// **Shared tables.** A `Zipf` is a handle on an immutable `ZipfTable`.
/// [`Zipf::new`] interns tables process-wide, keyed by `(n, s.to_bits())`,
/// so every generator of an engine, every node of a fleet and the
/// workload's catalog draw from one copy per distinct pair instead of each
/// holding its own (a 40,960-rank code table is ~672 KB). The first call
/// for a key builds the table under the interner's lock; later calls cost
/// that lock and a scan of the few interned keys, and `Clone` costs one
/// reference-count bump. Tables are never freed: the key set is fixed by
/// the configuration (see `interned`).
///
/// **Sampling exactness.** The natural form — binary-search the f64 CDF for
/// `u = next_f64()` — and the fast form below return the same rank for every
/// generator state. `next_f64()` is `m * 2^-53` with `m = next_u64() >> 11`,
/// and for a strictly increasing CDF the binary search resolves to
/// `#{i : cdf[i] < u}` (clamped). Scaling by `2^53` only shifts the f64
/// exponent, so `cdf[i] < u  ⟺  cdf[i]·2^53 < m  ⟺  floor(cdf[i]·2^53) < m`
/// (a real is below an integer iff its floor is). The sampler therefore
/// counts precomputed integer thresholds below `m`, starting from a bucket
/// table indexed by the top bits of `m`. Degenerate CDFs with duplicate
/// entries (possible only for extreme exponents) fall back to the f64
/// binary search.
#[derive(Clone, Debug, PartialEq)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

/// The immutable sampling tables behind a [`Zipf`] handle.
#[derive(Debug, PartialEq)]
struct ZipfTable {
    cdf: Vec<f64>,
    /// `floor(cdf[i] * 2^53)`: rank `i` is drawn for `m` in
    /// `[thresh[i-1], thresh[i])` (see sampling exactness above).
    thresh: Vec<u64>,
    /// `bucket_lo[b]` = number of thresholds strictly below `b << (53-BITS)`:
    /// a lower bound on the rank for any `m` in bucket `b`.
    bucket_lo: Vec<u32>,
    /// CDF is strictly increasing, enabling the fixed-point fast path.
    strict: bool,
}

/// log2 of the bucket count in [`ZipfTable::bucket_lo`].
const ZIPF_BUCKET_BITS: u32 = 13;

/// Interned key: rank count and the exponent's bit pattern.
type ZipfKey = (usize, u64);

/// The process-wide table interner behind [`Zipf::new`].
///
/// A `Vec` scanned linearly, not a hash map (jas-lint D001): the key set is
/// fixed by the configuration, 9 keys in a full run today — one
/// 4096-rank hot table shared by every stream generator, one catalog table
/// for the workload, and one code table per distinct code window and
/// exponent (seven). Entries are only ever appended whole, so a guard
/// recovered from a poisoned lock still holds a valid list.
fn interned(n: usize, s: f64) -> Arc<ZipfTable> {
    static TABLES: Mutex<Vec<(ZipfKey, Arc<ZipfTable>)>> = Mutex::new(Vec::new());
    let key = (n, s.to_bits());
    let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, t)) = tables.iter().find(|(k, _)| *k == key) {
        return Arc::clone(t);
    }
    // Built under the lock, so concurrent first calls for one key (fleet
    // lanes, parallel tests) still end with a single table.
    let t = Arc::new(ZipfTable::build(n, s));
    tables.push((key, Arc::clone(&t)));
    t
}

impl ZipfTable {
    fn build(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        const SCALE: f64 = (1u64 << 53) as f64;
        let thresh: Vec<u64> = cdf.iter().map(|c| (c * SCALE).floor() as u64).collect();
        let strict = cdf.windows(2).all(|w| w[0] < w[1]);
        let buckets = 1usize << ZIPF_BUCKET_BITS;
        let mut bucket_lo = Vec::with_capacity(buckets);
        let mut i = 0u32;
        for b in 0..buckets as u64 {
            let floor_m = b << (53 - ZIPF_BUCKET_BITS);
            while (i as usize) < n && thresh[i as usize] < floor_m {
                i += 1;
            }
            bucket_lo.push(i);
        }
        ZipfTable {
            cdf,
            thresh,
            bucket_lo,
            strict,
        }
    }

    /// The rank drawn for the 53-bit roll `m` (see sampling exactness).
    #[inline]
    fn rank(&self, m: u64) -> usize {
        if self.strict {
            let b = (m >> (53 - ZIPF_BUCKET_BITS)) as usize;
            let mut i = self.bucket_lo[b] as usize;
            while i < self.thresh.len() && self.thresh[i] < m {
                i += 1;
            }
            return i.min(self.cdf.len() - 1);
        }
        let u = m as f64 * (1.0 / (1u64 << 53) as f64);
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`, sharing
    /// the table of any earlier `Zipf` with the same `n` and `s` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(n < u32::MAX as usize, "Zipf rank count too large: {n}");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be non-negative, got {s}"
        );
        Zipf {
            table: interned(n, s),
        }
    }

    /// `true` if `self` and `other` draw from the same table in memory.
    #[must_use]
    pub fn shares_table(&self, other: &Zipf) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// `true` if there is exactly one rank (degenerate but allowed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // Construction guarantees n > 0, so this is always false; provided
        // for API symmetry with `len`.
        false
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        // The 53-bit numerator `next_f64()` would have used; one draw
        // either way, so the generator stream is unchanged.
        self.table.rank(rng.next_u64() >> 11)
    }
}

/// Bounded Pareto distribution (heavy-tailed sizes such as response bodies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto on `[lo, hi]` with shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `lo <= 0`, `hi <= lo`, or `alpha <= 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi, got [{lo}, {hi}]");
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be positive, got {alpha}"
        );
        BoundedPareto { lo, hi, alpha }
    }

    /// Draws one sample in `[lo, hi]`.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.next_f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::new(4.0);
        let mut rng = Rng::new(1);
        let m = mean_of(200_000, || exp.sample(&mut rng));
        assert!((m - 0.25).abs() < 0.01, "mean {m}");
        assert!((exp.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn lognormal_mean_and_cv_converge() {
        let ln = Lognormal::from_mean_cv(2.0, 0.5);
        let mut rng = Rng::new(2);
        let xs: Vec<f64> = (0..200_000).map(|_| ln.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        let cv = var.sqrt() / m;
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((cv - 0.5).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn normal_mean_and_stddev_converge() {
        let n = Normal::new(-3.0, 2.0);
        let mut rng = Rng::new(3);
        let xs: Vec<f64> = (0..200_000).map(|_| n.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m + 3.0).abs() < 0.03, "mean {m}");
        assert!((var.sqrt() - 2.0).abs() < 0.03, "stddev {}", var.sqrt());
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(4);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 share for s=1, n=100 is 1/H(100) ≈ 0.1928.
        let share = f64::from(counts[0]) / 100_000.0;
        assert!((0.17..0.22).contains(&share), "share {share}");
    }

    #[test]
    fn zipf_uniform_when_s_is_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(5);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let p = BoundedPareto::new(1.0, 100.0, 1.2);
        let mut rng = Rng::new(6);
        for _ in 0..10_000 {
            let x = p.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "sample {x}");
        }
    }

    #[test]
    fn zipf_len_reports_ranks() {
        let z = Zipf::new(7, 0.8);
        assert_eq!(z.len(), 7);
        assert!(!z.is_empty());
    }

    /// The fixed-point bucket sampler returns exactly the rank the f64
    /// binary search would, for every CDF shape the simulator uses and for
    /// boundary rolls landing exactly on thresholds.
    #[test]
    fn zipf_fast_sampler_matches_binary_search() {
        // (n, s) pairs covering the generator's real configurations plus
        // degenerate shapes: single rank, uniform, steep skew.
        let shapes = [
            (4096usize, 1.0),
            (16384, 0.6),
            (1, 1.0),
            (10, 0.0),
            (100, 2.5),
            (65536, 0.4),
        ];
        for &(n, s) in &shapes {
            // An interned handle: the table every generator samples from.
            let z = Zipf::new(n, s);
            assert!(z.shares_table(&Zipf::new(n, s)));
            let t = &*z.table;
            assert!(t.strict, "simulator-range CDFs are strictly increasing");
            let reference = |u: f64| -> usize {
                match t
                    .cdf
                    .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
                {
                    Ok(i) | Err(i) => i.min(t.cdf.len() - 1),
                }
            };
            let mut rng = Rng::new(77);
            // Boundary rolls: the exact threshold values and neighbours.
            // Rolls are clamped to the real draw domain [0, 2^53): the last
            // threshold is floor(1.0 * 2^53) = 2^53, which no draw produces.
            let max_m = (1u64 << 53) - 1;
            let mut rolls: Vec<u64> = t
                .thresh
                .iter()
                .step_by((n / 64).max(1))
                .flat_map(|&t| {
                    [
                        t.saturating_sub(1).min(max_m),
                        t.min(max_m),
                        (t + 1).min(max_m),
                    ]
                })
                .collect();
            rolls.extend([0, (1u64 << 53) - 1]);
            for _ in 0..50_000 {
                rolls.push(rng.next_u64() >> 11);
            }
            for m in rolls {
                let u = m as f64 * (1.0 / (1u64 << 53) as f64);
                // `sample` is `rank` of one 53-bit roll.
                assert_eq!(t.rank(m), reference(u), "n={n} s={s} m={m}");
            }
        }
    }

    /// `sample` consumes exactly one draw, as before.
    #[test]
    fn zipf_sample_consumes_one_draw() {
        let z = Zipf::new(4096, 1.0);
        let mut a = Rng::new(8);
        let mut b = Rng::new(8);
        let _ = z.sample(&mut a);
        let _ = b.next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_tables_are_shared_per_key() {
        let a = Zipf::new(4096, 1.0);
        let b = Zipf::new(4096, 1.0);
        assert!(a.shares_table(&b));
        assert!(a.shares_table(&a.clone()));
        // Keyed on the exponent's bits: the next f64 above 1.0 and a
        // different rank count each get their own table.
        assert!(!a.shares_table(&Zipf::new(4096, f64::from_bits(1.0f64.to_bits() + 1))));
        assert!(!a.shares_table(&Zipf::new(4095, 1.0)));
    }

    /// Two threads building one new key at the same moment end up with a
    /// single table, as fleet lanes and parallel tests do.
    #[test]
    fn zipf_concurrent_first_builds_share_one_table() {
        let start = std::sync::Barrier::new(2);
        let build = || {
            start.wait();
            // A key no other test uses, so neither thread finds it built.
            Zipf::new(12_345, 0.77)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(build);
            let b = s.spawn(build);
            (
                a.join().expect("builder thread panicked"),
                b.join().expect("builder thread panicked"),
            )
        });
        assert!(a.shares_table(&b));
    }
}
