//! A thread-safe metrics registry: counters, gauges, and histograms.
//!
//! Instruments are created through a [`Registry`] (usually via
//! [`Obs::counter`](crate::Obs::counter) and friends), keyed by `&'static`
//! names in a `BTreeMap` so every export walks them in one deterministic
//! order. Handles are cheap `Arc` clones; updating one is a
//! `parking_lot::Mutex` lock plus an add — no allocation — so instruments
//! may sit on simulation hot paths.
//!
//! [`Histogram`] uses *fixed log-linear buckets*: each decade from 10⁻⁶ to
//! 10⁹ is split into nine linear buckets (upper edges `m × 10^e`,
//! `m ∈ 1..=9`), plus an underflow bucket for samples ≤ 10⁻⁶ and an
//! overflow (`+Inf`) bucket. Fixed buckets keep the Prometheus exposition
//! byte-stable across runs regardless of the sample stream.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// Smallest decade with its own linear buckets (`10^MIN_DECADE` is the
/// underflow boundary): microseconds / microjoules-scale samples.
const MIN_DECADE: i32 = -6;
/// Largest decade (`10^MAX_DECADE` is the last finite edge): giga-scale
/// samples; anything beyond lands in the `+Inf` bucket.
const MAX_DECADE: i32 = 9;

/// The shared fixed bucket upper edges (ascending, strictly increasing).
pub fn bucket_upper_edges() -> &'static [f64] {
    static EDGES: OnceLock<Vec<f64>> = OnceLock::new();
    EDGES.get_or_init(|| {
        let mut edges = Vec::with_capacity(((MAX_DECADE - MIN_DECADE) * 9 + 1) as usize);
        for e in MIN_DECADE..MAX_DECADE {
            for m in 1..=9 {
                // Divide for negative decades: `5.0 / 1e6` rounds to the
                // double nearest 5e-6 (which prints as `5e-6`), while
                // `5.0 * 1e-6` accumulates the error in the 1e-6 constant.
                let edge = if e < 0 {
                    m as f64 / 10f64.powi(-e)
                } else {
                    m as f64 * 10f64.powi(e)
                };
                edges.push(edge);
            }
        }
        edges.push(10f64.powi(MAX_DECADE));
        edges
    })
}

/// The bucket index a sample falls into: the first bucket whose upper edge
/// is ≥ `sample`, or the overflow bucket (`bucket_upper_edges().len()`).
/// Non-positive samples land in bucket 0 (underflow); the caller filters
/// non-finite samples.
pub fn bucket_index(sample: f64) -> usize {
    let edges = bucket_upper_edges();
    edges.partition_point(|edge| *edge < sample)
}

/// A monotone counter (floating-point valued, Prometheus-style).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<Mutex<f64>>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Adds `by`; non-finite or negative increments are ignored so the
    /// counter stays monotone.
    pub fn add(&self, by: f64) {
        if by.is_finite() && by > 0.0 {
            *self.value.lock() += by;
        }
    }

    /// The current total.
    pub fn value(&self) -> f64 {
        *self.value.lock()
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<Mutex<f64>>,
}

impl Gauge {
    /// Sets the gauge (non-finite values are ignored).
    pub fn set(&self, to: f64) {
        if to.is_finite() {
            *self.value.lock() = to;
        }
    }

    /// Adds `by` (non-finite increments are ignored).
    pub fn add(&self, by: f64) {
        if by.is_finite() {
            *self.value.lock() += by;
        }
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        *self.value.lock()
    }
}

#[derive(Debug)]
struct HistState {
    /// One count per bucket: `edges.len()` finite buckets + overflow.
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Default for HistState {
    fn default() -> HistState {
        HistState {
            counts: vec![0; bucket_upper_edges().len() + 1],
            sum: 0.0,
            total: 0,
        }
    }
}

/// A histogram over the shared fixed log-linear buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<Mutex<HistState>>,
}

impl Histogram {
    /// Records one sample. Non-finite samples are ignored; negative samples
    /// count into the underflow bucket (and the sum) so totality holds for
    /// every finite input.
    pub fn record(&self, sample: f64) {
        if !sample.is_finite() {
            return;
        }
        let idx = bucket_index(sample);
        let mut st = self.inner.lock();
        st.counts[idx] += 1;
        st.sum += sample;
        st.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.lock().total
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.inner.lock().sum
    }

    /// Per-bucket `(upper_edge, count)` pairs; the final entry is the
    /// overflow bucket with an infinite upper edge.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let st = self.inner.lock();
        bucket_upper_edges()
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(st.counts.iter().copied())
            .collect()
    }

    /// Estimates the `q`-quantile (`q ∈ [0, 1]`) as the upper edge of the
    /// bucket containing the ⌈q·n⌉-th smallest sample, so the estimate
    /// always brackets the true quantile from above within one bucket.
    /// Returns `None` when the histogram is empty or `q` is out of range.
    // lint:allow(test-only-pub) (b) histogram tests observe recorded values through it
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let st = self.inner.lock();
        if st.total == 0 {
            return None;
        }
        let rank = ((q * st.total as f64).ceil() as u64).max(1);
        let edges = bucket_upper_edges();
        let mut seen = 0u64;
        for (idx, count) in st.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Overflow bucket: report the last finite edge.
                return Some(edges.get(idx).copied().unwrap_or(edges[edges.len() - 1]));
            }
        }
        Some(edges[edges.len() - 1])
    }
}

/// A borrowed view of one registered instrument, yielded by
/// [`Registry::visit`] so exporters can render each kind in place.
#[derive(Debug)]
pub(crate) enum InstrumentView<'a> {
    /// A counter's current value.
    Counter(f64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram, borrowed for bucket iteration.
    Histogram(&'a Histogram),
}

#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name-keyed instrument registry with deterministic iteration order.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<&'static str, Instrument>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter `name`. If `name` is already registered
    /// as a different instrument kind, a detached counter is returned (it
    /// updates normally but is not exported) — mixing kinds under one name
    /// is a bug, but never a panic on the recording path.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = self.inner.lock();
        match map
            .entry(name)
            .or_insert_with(|| Instrument::Counter(Counter::default()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Gets or creates the gauge `name` (same kind-mismatch policy as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut map = self.inner.lock();
        match map
            .entry(name)
            .or_insert_with(|| Instrument::Gauge(Gauge::default()))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Gets or creates the histogram `name` (same kind-mismatch policy as
    /// [`Registry::counter`]).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut map = self.inner.lock();
        match map
            .entry(name)
            .or_insert_with(|| Instrument::Histogram(Histogram::default()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// Folds `other`'s instruments into this registry, as if their updates
    /// had been made here: counters add, a gauge takes `other`'s value, and
    /// a histogram adds its buckets, sum and count.
    pub(crate) fn merge(&self, other: &Registry) {
        let theirs = other.inner.lock().clone();
        for (name, instrument) in theirs {
            match instrument {
                Instrument::Counter(c) => self.counter(name).add(c.value()),
                Instrument::Gauge(g) => self.gauge(name).set(g.value()),
                Instrument::Histogram(h) => {
                    let theirs = h.inner.lock();
                    let mine = self.histogram(name);
                    let mut st = mine.inner.lock();
                    for (bucket, n) in st.counts.iter_mut().zip(&theirs.counts) {
                        *bucket += n;
                    }
                    st.sum += theirs.sum;
                    st.total += theirs.total;
                }
            }
        }
    }

    /// Visits every instrument in name order.
    pub(crate) fn visit(&self, mut on_instrument: impl FnMut(&str, InstrumentView<'_>)) {
        let map = self.inner.lock();
        for (name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => on_instrument(name, InstrumentView::Counter(c.value())),
                Instrument::Gauge(g) => on_instrument(name, InstrumentView::Gauge(g.value())),
                Instrument::Histogram(h) => on_instrument(name, InstrumentView::Histogram(h)),
            }
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("instruments", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone() {
        let c = Counter::default();
        c.inc();
        c.add(2.5);
        c.add(-10.0);
        c.add(f64::NAN);
        assert!((c.value() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(5.0);
        g.add(-2.0);
        g.set(f64::INFINITY);
        assert!((g.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_edges_are_strictly_increasing() {
        let edges = bucket_upper_edges();
        assert_eq!(edges.len(), ((MAX_DECADE - MIN_DECADE) * 9 + 1) as usize);
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1], "{} !< {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn bucket_index_covers_edge_cases() {
        let edges = bucket_upper_edges();
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(edges[0]), 0);
        assert_eq!(bucket_index(f64::MAX), edges.len());
        // An exact edge belongs to the bucket it closes (le semantics).
        assert_eq!(bucket_index(1.0), bucket_index(1.0 - 1e-12));
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::default();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 5050.0).abs() < 1e-9);
        let median = h.quantile(0.5).expect("nonempty");
        // True median 50; bucket upper edge 50 exactly (5 × 10¹).
        assert!((45.0..=60.0).contains(&median), "median estimate {median}");
        assert!(h.quantile(1.1).is_none());
        assert!(Histogram::default().quantile(0.5).is_none());
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_orders_and_separates_kinds() {
        let r = Registry::new();
        r.counter("b_total").inc();
        r.gauge("a_gauge").set(1.0);
        r.histogram("c_hist").record(2.0);
        assert_eq!(r.len(), 3);
        let mut names = Vec::new();
        r.visit(|n, _| names.push(n.to_string()));
        assert_eq!(names, ["a_gauge", "b_total", "c_hist"]);
    }

    #[test]
    fn kind_mismatch_returns_detached_instrument() {
        let r = Registry::new();
        r.counter("x").add(5.0);
        let g = r.gauge("x");
        g.set(99.0);
        // The registered counter is untouched by the detached gauge.
        assert!((r.counter("x").value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        let a = r.counter("shared_total");
        let b = r.counter("shared_total");
        a.inc();
        b.inc();
        assert!((a.value() - 2.0).abs() < 1e-12);
    }
}
