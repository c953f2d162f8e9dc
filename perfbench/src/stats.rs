//! Order statistics for the benchmark's reports: medians, the quartiles a
//! run-to-run spread is judged by, nearest-rank percentiles, the highest
//! percentile a sample set can support, and per-chunk samples pooled
//! across the runs of one process.

/// A sorted copy (total order, so a NaN cannot break the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The middle sample, or the mean of the two middle samples for an even
/// count, as Python's `statistics.median` gives it.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        None
    } else if n % 2 == 1 {
        Some(v[n / 2])
    } else {
        Some((v[n / 2 - 1] + v[n / 2]) / 2.0)
    }
}

/// First quartile, median and third quartile by the default ("exclusive")
/// method of Python's `statistics.quantiles(xs, n=4)`, the rule the
/// benchmark's spreads are judged by. One sample is its own quartiles.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len() as i64;
    match n {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// The interquartile range as a share of the median: the run-to-run
/// spread a metric's bound is checked against. `None` without samples or
/// with a zero median.
#[must_use]
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let mid = median(xs)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The `p`-th percentile (0 < `p` <= 100) by nearest rank: the smallest
/// sample with at least `p`% of all samples at or below it.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Samples that must lie strictly above a percentile before it is reported
/// as the tail.
pub const TAIL_SUPPORT: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile and the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest candidate percentile with at least [`TAIL_SUPPORT`] samples
/// beyond it; `None` when not even the median has that many.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let value = percentile(xs, p)?;
        let beyond = xs.iter().filter(|&&x| x > value).count();
        (beyond >= TAIL_SUPPORT).then_some(Tail {
            percentile: p,
            value,
            beyond,
            samples: xs.len(),
        })
    })
}

/// Per-chunk samples (host ms per simulated second) pooled over the runs
/// of one process, so a slow phase that recurs in every run (a GC, a load
/// spike) shows in the pooled percentiles.
#[derive(Clone, Debug, Default)]
pub struct ChunkPool {
    samples: Vec<f64>,
    runs: usize,
}

impl ChunkPool {
    /// Adds one run's chunk samples.
    pub fn add_run(&mut self, chunks: &[f64]) {
        self.samples.extend_from_slice(chunks);
        self.runs += 1;
    }

    /// Every pooled sample.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Runs pooled so far.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(lo: u32, hi: u32) -> Vec<f64> {
        (lo..=hi).map(f64::from).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&range(1, 10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_the_iqr_over_the_median() {
        let s = spread(&range(1, 10)).expect("non-zero median");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs = range(1, 100);
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[5.0], 1.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let t = tail(&range(1, 100)).expect("100 samples support p90");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        assert_eq!(tail(&range(1, 2000)).map(|t| t.percentile), Some(99.0));
        assert_eq!(tail(&range(1, 15)), None);
    }

    #[test]
    fn chunk_pool_pools_samples_across_runs() {
        let mut pool = ChunkPool::default();
        pool.add_run(&[1.0, 2.0, 3.0]);
        pool.add_run(&[4.0, 5.0]);
        assert_eq!(pool.runs(), 2);
        assert_eq!(pool.samples().len(), 5);
        assert_eq!(median(pool.samples()), Some(3.0));
        assert_eq!(percentile(pool.samples(), 95.0), Some(5.0));
    }
}
