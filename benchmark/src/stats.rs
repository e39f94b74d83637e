//! Order statistics over run samples.

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. With 100 samples, `p = 0.9` returns the 90th
/// smallest, leaving exactly 10 above it. Returns NaN for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (the mean of the two middle samples for an even count), as
/// Python's `statistics.median` gives it. NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads read the same here as in any script checking the runs.
/// A single sample is its own quartiles; no samples give NaN.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let data = sorted(samples);
    match data.len() {
        0 => [f64::NAN; 3],
        1 => [data[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread every end-to-end bound is judged against.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2.abs()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}
