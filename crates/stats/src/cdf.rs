//! Empirical cumulative distribution functions.
//!
//! [`Cdf`] is the classic empirical CDF used for the paper's Figs 3 and 6;
//! [`Ccdf`] is its complement, used for the loss-percentage plots in Fig 9
//! where the interesting mass is in the tail.

/// An empirical CDF over a set of `f64` samples.
///
/// Construction sorts a copy of the samples once; all queries are then
/// `O(log n)`. NaN samples are rejected at construction to keep the ordering
/// total.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples.
    ///
    /// # Panics
    /// Panics if any sample is NaN (an empirical distribution over NaN is
    /// meaningless and would poison every quantile query).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`; 0.0 for an empty CDF.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0.0..=1.0`) using nearest-rank.
    ///
    /// Returns `None` for an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// Median, i.e. the 0.5-quantile.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Evaluates the CDF on `points`, returning `(x, F(x))` rows ready for
    /// printing as a figure series.
    pub fn sample_at(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.at(x))).collect()
    }

    /// Full step-function representation: one `(x, F(x))` row per distinct
    /// sample value.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let n = self.sorted.len() as f64;
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            let mut j = i + 1;
            while j < self.sorted.len() && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n));
            i = j;
        }
        out
    }
}

/// An empirical complementary CDF (`P[X > x]`), the tail view used for the
/// paper's loss plots.
#[derive(Debug, Clone)]
pub struct Ccdf {
    cdf: Cdf,
}

impl Ccdf {
    /// Builds a CCDF from samples. Panics on NaN (see [`Cdf::new`]).
    pub fn new(samples: Vec<f64>) -> Self {
        Self {
            cdf: Cdf::new(samples),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the CCDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Fraction of samples strictly greater than `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.cdf.is_empty() {
            return 0.0;
        }
        1.0 - self.cdf.at(x)
    }

    /// Evaluates the CCDF at logarithmically spaced points between `lo` and
    /// `hi` (both > 0), `n` points inclusive — Fig 9 is log-log.
    pub fn sample_log(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(lo > 0.0 && hi > lo, "log sampling needs 0 < lo < hi");
        if n < 2 {
            return vec![(lo, self.at(lo))];
        }
        let llo = lo.ln();
        let lhi = hi.ln();
        let step = (lhi - llo) / (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = (llo + step * i as f64).exp();
                (x, self.at(x))
            })
            .collect()
    }

    /// Access to the underlying CDF.
    pub fn cdf(&self) -> &Cdf {
        &self.cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_is_zero_everywhere() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.at(0.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
    }

    #[test]
    fn single_sample() {
        let c = Cdf::new(vec![3.0]);
        assert_eq!(c.at(2.9), 0.0);
        assert_eq!(c.at(3.0), 1.0);
        assert_eq!(c.median(), Some(3.0));
    }

    #[test]
    fn basic_fractions() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.5), 0.5);
        assert_eq!(c.at(4.0), 1.0);
        assert_eq!(c.at(9.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let c = Cdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.quantile(0.0), Some(10.0));
        assert_eq!(c.quantile(0.2), Some(10.0));
        assert_eq!(c.quantile(0.5), Some(30.0));
        assert_eq!(c.quantile(0.9), Some(50.0));
        assert_eq!(c.quantile(1.0), Some(50.0));
    }

    #[test]
    fn steps_collapse_duplicates() {
        let c = Cdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(c.steps(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn ccdf_complements_cdf() {
        let c = Ccdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((c.at(2.5) - 0.5).abs() < 1e-12);
        assert_eq!(c.at(4.0), 0.0);
        assert_eq!(c.at(0.0), 1.0);
    }

    #[test]
    fn ccdf_log_sampling_monotone_nonincreasing() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 / 10.0).collect();
        let c = Ccdf::new(samples);
        let pts = c.sample_log(0.01, 20.0, 40);
        assert_eq!(pts.len(), 40);
        for w in pts.windows(2) {
            assert!(w[0].1 >= w[1].1, "CCDF must be non-increasing");
            assert!(w[0].0 < w[1].0, "x must be increasing");
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Cdf::new(vec![1.0, f64::NAN]);
    }
}
