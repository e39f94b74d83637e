//! Small statistics toolkit used by the simulators: distributions calibrated
//! from published percentiles, summary statistics, and histograms.
//!
//! The paper reports workload statistics as percentiles ("p50 of ML training
//! experiments take up to 1.5 GPU-days while p99 complete within 24 GPU-days").
//! [`LogNormal::from_median_p99`] inverts that parameterization so synthetic
//! job generators reproduce the published distributions exactly at the
//! calibration points.
//!
//! Implemented here rather than pulling `rand_distr` to keep the workspace's
//! dependency surface to the approved set.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};

/// z-score of the 99th percentile of the standard normal.
pub const Z_99: f64 = 2.326_347_874_040_841;
/// z-score of the 95th percentile of the standard normal.
pub const Z_95: f64 = 1.644_853_626_951_472;

/// A sampleable distribution over `f64`.
///
/// A local trait (rather than `rand::distributions::Distribution`) so the
/// workspace controls the contract and can implement it for calibrated
/// domain-specific distributions.
pub trait Sampler {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64>
    where
        Self: Sized,
    {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Normal (Gaussian) distribution, sampled via Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] if `std` is negative or either
    /// parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Result<Normal> {
        if !mean.is_finite() || !std.is_finite() {
            return Err(Error::InvalidDistribution {
                distribution: "normal",
                reason: "parameters must be finite",
            });
        }
        if std < 0.0 {
            return Err(Error::InvalidDistribution {
                distribution: "normal",
                reason: "std must be non-negative",
            });
        }
        Ok(Normal { mean, std })
    }
}

impl Sampler for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller transform; u1 in (0,1] avoids ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std * z
    }
}

/// Log-normal distribution parameterized by the underlying normal's `(mu, sigma)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the underlying normal parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] if `sigma` is negative or
    /// parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal> {
        if !mu.is_finite() || !sigma.is_finite() {
            return Err(Error::InvalidDistribution {
                distribution: "log-normal",
                reason: "parameters must be finite",
            });
        }
        if sigma < 0.0 {
            return Err(Error::InvalidDistribution {
                distribution: "log-normal",
                reason: "sigma must be non-negative",
            });
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Calibrates a log-normal from its median and 99th percentile — the form
    /// the paper publishes workload statistics in.
    ///
    /// ```rust
    /// use sustain_core::stats::LogNormal;
    /// # fn main() -> Result<(), sustain_core::Error> {
    /// // Research experiments: p50 = 1.5 GPU-days, p99 = 24 GPU-days.
    /// let d = LogNormal::from_median_p99(1.5, 24.0)?;
    /// assert!((d.median() - 1.5).abs() < 1e-9);
    /// assert!((d.p99() - 24.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] unless `0 < median < p99`.
    pub fn from_median_p99(median: f64, p99: f64) -> Result<LogNormal> {
        if !(median > 0.0 && p99 > median) {
            return Err(Error::InvalidDistribution {
                distribution: "log-normal",
                reason: "requires 0 < median < p99",
            });
        }
        let mu = median.ln();
        let sigma = (p99.ln() - mu) / Z_99;
        LogNormal::new(mu, sigma)
    }

    /// The distribution's median (`exp(mu)`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The 99th percentile.
    pub fn p99(&self) -> f64 {
        (self.mu + self.sigma * Z_99).exp()
    }

    /// The quantile at probability `p` (0 < p < 1), via an inverse-normal
    /// approximation (Acklam's algorithm, |ε| < 1.15e-9).
    // lint:allow(test-only-pub) (d) the percentile helper ROADMAP item 4(a) needs for p5/p50/p95
    pub fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * inverse_normal_cdf(p)).exp()
    }
}

impl Sampler for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let n = Normal {
            mean: self.mu,
            std: self.sigma,
        };
        n.sample(rng).exp()
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s` — the skewed access
/// pattern of embedding lookups that makes platform-level caching effective.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// Chen–Asau guide table over `B = ⌈n / 4⌉` equal buckets of `[0, 1)`:
    /// `guide[b]` is the first rank index whose CDF value falls in a bucket
    /// at or above `b` under [`Zipf::bucket`], and `guide[B]` is the last
    /// rank index. `u32` entries over a quarter as many buckets as ranks
    /// keep the table at an eighth of the CDF's size.
    guide: Vec<u32>,
}

impl Zipf {
    /// Ranks per guide bucket, on average: a bucket's search stays within a
    /// cache line or two of CDF values, and the guide takes an eighth of the
    /// CDF's bytes. At one rank per bucket, fig07's CDF, guide and `u32`
    /// request buffer together outgrew twice the CDF, past which glibc
    /// returns the freed heap to the kernel after each call and the next
    /// call faults it back in (~360 extra minor faults per figure fan-out).
    const RANKS_PER_BUCKET: usize = 4;

    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] if `n` is zero or above 2³²,
    /// or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Result<Zipf> {
        if n == 0 {
            return Err(Error::InvalidDistribution {
                distribution: "zipf",
                reason: "n must be positive",
            });
        }
        let Ok(last) = u32::try_from(n - 1) else {
            return Err(Error::InvalidDistribution {
                distribution: "zipf",
                reason: "n must be at most 2^32",
            });
        };
        if !s.is_finite() || s < 0.0 {
            return Err(Error::InvalidDistribution {
                distribution: "zipf",
                reason: "s must be non-negative and finite",
            });
        }
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
        // The last CDF value is exactly 1.0 and lands in the last bucket, so
        // every bucket gets a start; the sentinel ends the last bucket's
        // search at the last rank.
        let buckets = n.div_ceil(Self::RANKS_PER_BUCKET);
        let mut guide = Vec::with_capacity(buckets + 1);
        for (i, &c) in (0..=last).zip(&cdf) {
            while guide.len() <= Self::bucket(c, buckets) {
                guide.push(i);
            }
        }
        debug_assert_eq!(guide.len(), buckets, "the CDF must end at exactly 1.0");
        guide.push(last);
        Ok(Zipf { cdf, guide })
    }

    /// The guide bucket of a probability among `buckets` equal slices of
    /// `[0, 1)`. Monotone in `u`, which is all the lookup relies on: a CDF
    /// value at or above `u` never lands in an earlier bucket than `u`.
    fn bucket(u: f64, buckets: usize) -> usize {
        ((u * buckets as f64) as usize).min(buckets - 1)
    }

    /// The rank index (0-based) drawn by a uniform `u`: the first index
    /// whose CDF value is at least `u`, or the last index when none is.
    ///
    /// Every index before `guide[b]` has a CDF value in an earlier bucket
    /// than `u`'s, so below `u`; `guide[b + 1]` has one in a later bucket or
    /// is the last rank, so at or above `u < 1`. The answer therefore lies
    /// in `guide[b]..=guide[b + 1]`, whose ends are `u32` guide entries, so
    /// the offset cast cannot truncate.
    fn index_of(&self, u: f64) -> u32 {
        let b = Self::bucket(u, self.guide.len() - 1);
        let (start, end) = (self.guide[b], self.guide[b + 1]);
        start + self.cdf[start as usize..end as usize].partition_point(|&c| c < u) as u32
    }

    /// Draws a rank index in `0..n` (0 is the most popular) by inversion:
    /// one uniform `u`, then the first index whose CDF value is at least
    /// `u`. It always fits a `u32`, since [`Zipf::new`] rejects `n` above
    /// 2³², so a buffered request stream takes half a `u64` key's bytes.
    ///
    /// The lookup costs O(1) expected time: the guide table built in
    /// [`Zipf::new`] maps `u` to one of `⌈n / 4⌉` equal buckets of `[0, 1)`,
    /// and a binary search covers only the ranks whose CDF values fall in
    /// that bucket — four on average, so a steep tail crowding the last
    /// bucket costs a logarithm, never a scan. The index equals what a binary
    /// search of the whole CDF returns whenever no two CDF values below 1.0
    /// are equal, so a seeded stream draws the same indices either way.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.index_of(rng.gen())
    }

    /// Draws a rank in `1..=n` (1 is the most popular): the same draw as
    /// [`Zipf::sample_index`], one higher.
    pub fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_index(rng) as usize + 1
    }
}

impl Sampler for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Poisson distribution (event counts at a fixed mean rate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] unless `lambda > 0` and finite.
    pub fn new(lambda: f64) -> Result<Poisson> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(Error::InvalidDistribution {
                distribution: "poisson",
                reason: "lambda must be positive",
            });
        }
        Ok(Poisson { lambda })
    }

    /// Draws a count. Uses Knuth's method for small λ and a normal
    /// approximation (rounded, clamped at 0) for λ > 30.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda > 30.0 {
            let n = Normal {
                mean: self.lambda,
                std: self.lambda.sqrt(),
            };
            return n.sample(rng).round().max(0.0) as u64;
        }
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

impl Sampler for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_count(rng) as f64
    }
}

/// Inverse CDF of the standard normal (Acklam's rational approximation).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "probability must lie strictly in (0, 1), got {p}"
    );
    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    /// Evaluates a polynomial with the given coefficients (highest power
    /// first) at `x` via Horner's rule.
    fn horner(coeffs: &[f64], x: f64) -> f64 {
        coeffs.iter().fold(0.0, |acc, c| acc * x + c)
    }

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        horner(&C, q) / (horner(&D, q) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        horner(&A, r) * q / (horner(&B, r) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -horner(&C, q) / (horner(&D, q) * q + 1.0)
    }
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50, linear interpolation).
    pub median: f64,
    /// 99th percentile (linear interpolation).
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] for an empty slice.
    pub fn of(values: &[f64]) -> Result<Summary> {
        if values.is_empty() {
            return Err(Error::Empty("sample"));
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Ok(Summary {
            count: n,
            mean,
            std: var.sqrt(),
            min: sorted.first().copied().unwrap_or(f64::NAN),
            max: sorted.last().copied().unwrap_or(f64::NAN),
            median: percentile_sorted(&sorted, 50.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }
}

/// Percentile (0–100) of an already-sorted slice, with linear interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile must be in 0..=100"
    );
    if let [only] = sorted {
        return *only;
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Percentile (0–100) of an unsorted slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains NaN.
// lint:allow(test-only-pub) (d) the percentile helper ROADMAP item 4(a) needs for p5/p50/p95
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// A fixed-bin histogram over `[lo, hi)`, with overflow/underflow captured in
/// the edge bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Histogram> {
        if bins == 0 || lo >= hi {
            return Err(Error::InvalidDistribution {
                distribution: "histogram",
                reason: "requires bins > 0 and lo < hi",
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        })
    }

    /// Records an observation (clamped into the edge bins).
    pub fn record(&mut self, value: f64) {
        let bins = self.counts.len();
        let idx = if value < self.lo {
            0
        } else if value >= self.hi {
            bins - 1
        } else {
            (((value - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bin_lo, bin_hi, count)` triples.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            let lo = self.lo + width * i as f64;
            (lo, lo + width, c)
        })
    }

    /// Fraction of observations in bins whose range intersects `[a, b)`.
    pub fn mass_between(&self, a: f64, b: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mass: u64 = self
            .bins()
            .filter(|(lo, hi, _)| *hi > a && *lo < b)
            .map(|(_, _, c)| c)
            .sum();
        mass as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn normal_moments_converge() {
        let d = Normal::new(10.0, 2.0).unwrap();
        let samples = d.sample_n(&mut rng(), 50_000);
        let s = Summary::of(&samples).unwrap();
        assert!((s.mean - 10.0).abs() < 0.05, "mean {}", s.mean);
        assert!((s.std - 2.0).abs() < 0.05, "std {}", s.std);
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn lognormal_calibration_hits_percentiles() {
        let d = LogNormal::from_median_p99(2.96, 125.0).unwrap();
        assert!((d.median() - 2.96).abs() < 1e-9);
        assert!((d.p99() - 125.0).abs() < 1e-9);
        // Empirical percentiles agree with analytic within sampling noise.
        let samples = d.sample_n(&mut rng(), 100_000);
        let p50 = percentile(&samples, 50.0);
        assert!((p50 - 2.96).abs() / 2.96 < 0.05, "p50 {p50}");
    }

    #[test]
    fn lognormal_quantile_is_monotone() {
        let d = LogNormal::from_median_p99(1.5, 24.0).unwrap();
        let q10 = d.quantile(0.10);
        let q50 = d.quantile(0.50);
        let q99 = d.quantile(0.99);
        assert!(q10 < q50 && q50 < q99);
        assert!((q50 - 1.5).abs() < 1e-6);
        assert!((q99 - 24.0).abs() < 1e-4);
    }

    #[test]
    fn lognormal_rejects_bad_calibration() {
        assert!(LogNormal::from_median_p99(0.0, 1.0).is_err());
        assert!(LogNormal::from_median_p99(2.0, 1.0).is_err());
    }

    #[test]
    fn zipf_is_head_heavy() {
        let d = Zipf::new(1000, 1.0).unwrap();
        let mut counts = vec![0u64; 1001];
        let mut r = rng();
        for _ in 0..100_000 {
            counts[d.sample_rank(&mut r)] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[10] > counts[500]);
        // Rank 1 should hold roughly 1/H(1000) ≈ 13% of the mass.
        let share = counts[1] as f64 / 100_000.0;
        assert!(share > 0.10 && share < 0.17, "share {share}");
    }

    /// The lookup the guide table replaced: a binary search of the whole
    /// CDF. Kept as the spec the guide-table lookup is held to.
    fn binary_search_rank(d: &Zipf, u: f64) -> usize {
        match d.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(d.cdf.len()),
        }
    }

    #[test]
    fn zipf_guide_lookup_matches_binary_search() {
        for n in [1, 2, 3, 50, 1_000, 100_000] {
            for s in [0.0, 1.0, 1.2, 2.5, 30.0] {
                let d = Zipf::new(n, s).unwrap();
                // The binary search picks an arbitrary one of equal CDF
                // values; below 1.0 there must be none for the two to agree.
                assert!(
                    d.cdf.windows(2).all(|w| w[0] < w[1] || w[0] == 1.0),
                    "n={n} s={s}: repeated CDF value below 1.0"
                );
                // `u` at 0, at every CDF value and every bucket boundary,
                // each ±1 ulp, within the `[0, 1)` range `gen` draws from.
                let buckets = d.guide.len() - 1;
                let boundaries = (0..buckets).map(|b| b as f64 / buckets as f64);
                let probes = d
                    .cdf
                    .iter()
                    .copied()
                    .chain(boundaries)
                    .flat_map(|x| [x.next_down(), x, x.next_up()])
                    .filter(|u| (0.0..1.0).contains(u));
                for u in probes {
                    assert_eq!(
                        d.index_of(u) as usize + 1,
                        binary_search_rank(&d, u),
                        "n={n} s={s} u={u:e}"
                    );
                }
                let mut r = rng();
                for _ in 0..10_000 {
                    let u: f64 = r.clone().gen();
                    assert_eq!(d.sample_rank(&mut r), binary_search_rank(&d, u));
                }
            }
        }
        // fig07's distribution: every rank is reachable and the binary
        // search had no ties to break.
        let fig07 = Zipf::new(100_000, 1.2).unwrap();
        assert!(fig07.cdf.windows(2).all(|w| w[0] < w[1]));
        // fig07 holds the CDF, the guide and 120,000 `u32` requests at
        // once; together they stay under twice the CDF's bytes (see
        // `RANKS_PER_BUCKET`).
        let held = size_of_val(&fig07.guide[..]) + 120_000 * size_of::<u32>();
        assert!(
            held < size_of_val(&fig07.cdf[..]),
            "{held} bytes beside the CDF"
        );
    }

    #[test]
    fn zipf_index_is_rank_minus_one() {
        for (n, s) in [(1, 1.0), (200, 1.1), (100_000, 1.2)] {
            let d = Zipf::new(n, s).unwrap();
            let (mut by_index, mut by_rank) = (rng(), rng());
            for _ in 0..10_000 {
                let index = d.sample_index(&mut by_index);
                assert_eq!(index as usize + 1, d.sample_rank(&mut by_rank));
            }
        }
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        // One rank more than the `u32` guide table can index, rejected
        // before anything is allocated.
        if let Ok(n) = usize::try_from(u64::from(u32::MAX) + 2) {
            assert!(Zipf::new(n, 1.0).is_err());
        }
    }

    #[test]
    fn poisson_mean_and_variance_converge() {
        for lambda in [3.0, 50.0] {
            let d = Poisson::new(lambda).unwrap();
            let samples = d.sample_n(&mut rng(), 50_000);
            let s = Summary::of(&samples).unwrap();
            assert!((s.mean - lambda).abs() / lambda < 0.05, "mean {}", s.mean);
            assert!(
                (s.std * s.std - lambda).abs() / lambda < 0.15,
                "var {}",
                s.std * s.std
            );
        }
    }

    #[test]
    fn poisson_rejects_bad_lambda() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-1.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn inverse_normal_cdf_known_points() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.99) - Z_99).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.95) - Z_95).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.01) + Z_99).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn inverse_normal_cdf_rejects_boundary() {
        let _ = inverse_normal_cdf(1.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_rejects_empty() {
        assert!(matches!(Summary::of(&[]).unwrap_err(), Error::Empty(_)));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert!((percentile(&v, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_mass() {
        let mut h = Histogram::new(0.0, 1.0, 10).unwrap();
        for v in [0.05, 0.15, 0.35, 0.35, 0.45, 0.95, 1.5, -0.5] {
            h.record(v);
        }
        assert_eq!(h.total(), 8);
        // Overflow/underflow land in edge bins.
        assert_eq!(h.counts()[0], 2); // 0.05 and -0.5
        assert_eq!(h.counts()[9], 2); // 0.95 and 1.5
                                      // 30-50% band holds 3 observations.
        assert!((h.mass_between(0.3, 0.5) - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_params() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
    }

    #[test]
    fn deterministic_with_fixed_seed() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let a = d.sample_n(&mut StdRng::seed_from_u64(7), 10);
        let b = d.sample_n(&mut StdRng::seed_from_u64(7), 10);
        assert_eq!(a, b);
    }
}
