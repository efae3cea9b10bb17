//! Fixed-bin histograms (hour-of-day loss frequencies, Fig 12; slot counts,
//! Fig 10).

/// A histogram over `bins` equal-width bins spanning `[lo, hi)`.
///
/// Out-of-range observations clamp into the first/last bin so campaign
/// outliers remain visible instead of silently vanishing.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Convenience: 24 hour-of-day bins.
    pub fn hourly() -> Self {
        Self::new(0.0, 24.0, 24)
    }

    /// Index of the bin `x` falls into (clamped to range).
    fn bin_of(&self, x: f64) -> usize {
        let n = self.counts.len();
        if x < self.lo {
            return 0;
        }
        let w = (self.hi - self.lo) / n as f64;
        (((x - self.lo) / w) as usize).min(n - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bin centre, count)` rows for printing.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + w * (i as f64 + 0.5), c))
            .collect()
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-1.0); // clamps to bin 0
        h.record(0.0);
        h.record(9.99);
        h.record(10.0); // clamps to last bin
        h.record(100.0); // clamps to last bin
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(4), 3);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn hourly_layout() {
        let mut h = Histogram::hourly();
        h.record(0.5);
        h.record(23.5);
        for _ in 0..7 {
            h.record(12.1);
        }
        assert_eq!(h.bins(), 24);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(23), 1);
        assert_eq!(h.count(12), 7);
        let rows = h.rows();
        assert!((rows[0].0 - 0.5).abs() < 1e-12);
        assert!((rows[23].0 - 23.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.record(0.1);
        b.record(0.1);
        b.record(0.9);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(1), 1);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_mismatch() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let b = Histogram::new(0.0, 1.0, 3);
        a.merge(&b);
    }
}
