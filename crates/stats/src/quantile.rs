//! Streaming percentiles for windowed service telemetry.
//!
//! A live service plane reports p50/p99/p999 per telemetry window over
//! millions of observations; holding every sample for an exact quantile
//! is out of the question. [`QuantileSketch`] is a fixed-bin sketch:
//! constant memory, mergeable across parallel shards (associative and
//! commutative, so `Par` fan-out folds deterministically), and exact to
//! within one bin width.
//!
//! Fixed bins were chosen over the P² algorithm deliberately: P² is
//! order-sensitive (the same multiset in a different arrival order yields
//! different markers), which would couple artefacts to scheduling. Counting
//! into bins is order-free, so a merged sketch is byte-identical no matter
//! how the work was sharded.

/// A mergeable streaming quantile sketch over `bins` equal-width bins
/// spanning `[lo, hi)`.
///
/// Out-of-range observations clamp into the edge bins (like
/// [`crate::Histogram`]); the true min/max are tracked exactly so the
/// extreme quantiles never report a value outside the observed range.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Creates a sketch with `bins` bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "sketch needs at least one bin");
        assert!(hi > lo, "sketch range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bin width.
    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let n = self.counts.len();
        let b = if x < self.lo {
            0
        } else {
            (((x - self.lo) / self.width()) as usize).min(n - 1)
        };
        self.counts[b] += 1;
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// Defined as the smallest value `v` with `CDF(v) >= q`, located to its
    /// bin and linearly interpolated by rank within it, then clamped to the
    /// observed `[min, max]` so edge quantiles are exact.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // Target rank in [1, total]: the ceil makes quantile(0.5) of two
        // samples pick the first, matching the "smallest v with CDF >= q"
        // definition.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let into = (rank - seen) as f64 / c as f64;
                let v = self.lo + self.width() * (i as f64 + into);
                return Some(v.clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merges another sketch with identical geometry. Associative and
    /// commutative, so parallel shards can fold in any grouping and yield
    /// the same result.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.lo, other.lo, "sketch lo mismatch");
        assert_eq!(self.hi, other.hi, "sketch hi mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reports_none() {
        let s = QuantileSketch::new(0.0, 1.0, 10);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut s = QuantileSketch::new(0.0, 1000.0, 1000);
        for i in 0..10_000 {
            s.record(i as f64 / 10.0); // 0.0, 0.1, ... 999.9
        }
        let p50 = s.quantile(0.5).unwrap();
        let p99 = s.p99().unwrap();
        let p999 = s.quantile(0.999).unwrap();
        assert!((p50 - 500.0).abs() < 2.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() < 2.0, "p99 {p99}");
        assert!((p999 - 999.0).abs() < 2.0, "p999 {p999}");
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(999.9));
    }

    #[test]
    fn edge_quantiles_clamp_to_observed_range() {
        let mut s = QuantileSketch::new(0.0, 100.0, 4);
        s.record(10.0);
        s.record(20.0);
        s.record(90.0);
        assert_eq!(s.quantile(0.0), Some(10.0));
        assert_eq!(s.quantile(1.0), Some(90.0));
        // Out-of-range values clamp into edge bins but min/max stay exact.
        s.record(-5.0);
        s.record(250.0);
        assert_eq!(s.quantile(0.0), Some(-5.0));
        assert_eq!(s.quantile(1.0), Some(250.0));
    }

    #[test]
    fn non_finite_ignored() {
        let mut s = QuantileSketch::new(0.0, 1.0, 4);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert!(s.is_empty());
    }

    #[test]
    fn merge_is_order_free() {
        let mut shards: Vec<QuantileSketch> = (0..4)
            .map(|k| {
                let mut s = QuantileSketch::new(0.0, 100.0, 50);
                for i in 0..250 {
                    s.record(((i * 4 + k) % 100) as f64);
                }
                s
            })
            .collect();
        let mut fwd = QuantileSketch::new(0.0, 100.0, 50);
        for s in &shards {
            fwd.merge(s);
        }
        shards.reverse();
        let mut rev = QuantileSketch::new(0.0, 100.0, 50);
        for s in &shards {
            rev.merge(s);
        }
        assert_eq!(fwd.count(), rev.count());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(fwd.quantile(q), rev.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_mismatch() {
        let mut a = QuantileSketch::new(0.0, 1.0, 2);
        let b = QuantileSketch::new(0.0, 1.0, 3);
        a.merge(&b);
    }
}
