//! Poisson call arrivals shaped by diurnal profiles.
//!
//! The live service plane needs calls *arriving over time*, not replayed
//! flow sets: a non-homogeneous Poisson process whose instantaneous rate
//! follows a [`DiurnalProfile`] (the same curves that drive congestion
//! loss — call volume and link utilisation share a clock).
//!
//! Determinism contract: arrivals are generated **per window**, and the
//! arrivals of window `i` are a pure function of `(master seed, i)` — the
//! window's RNG stream derives from its label, never from how many windows
//! were generated before it or on which thread. That lets a campaign fan
//! windows (or anything keyed on them) out over [`crate::Par`] and still
//! produce byte-identical artefacts at any thread count.
//!
//! The sampler is the classic thinning construction: homogeneous
//! exponential gaps at the peak rate, each candidate kept with probability
//! `rate(t) / peak`. Both draws come from the window's own stream.

use rand::Rng;

use crate::diurnal::DiurnalProfile;
use crate::rng::RngTree;
use crate::time::{Dur, SimTime};

/// A non-homogeneous Poisson arrival process with windowed, seed-stable
/// generation.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalProcess {
    /// Peak (maximum) arrival rate, calls per second. The instantaneous
    /// rate is `peak * profile.utilization(t)`.
    peak_rate_per_s: f64,
    /// Rate-shaping curve (utilisation in `[0, 1]` multiplies the peak).
    profile: DiurnalProfile,
    /// Generation window width.
    window: Dur,
}

impl ArrivalProcess {
    /// Builds a process.
    ///
    /// # Panics
    /// Panics when `window` is zero or `peak_rate_per_s` is negative or
    /// non-finite.
    pub fn new(peak_rate_per_s: f64, profile: DiurnalProfile, window: Dur) -> Self {
        assert!(window > Dur::ZERO, "arrival window must be non-empty");
        assert!(
            peak_rate_per_s.is_finite() && peak_rate_per_s >= 0.0,
            "peak rate must be finite and non-negative"
        );
        Self {
            peak_rate_per_s,
            profile,
            window,
        }
    }

    /// The generation window width.
    pub fn window(&self) -> Dur {
        self.window
    }

    /// The peak arrival rate, calls per second.
    pub fn peak_rate_per_s(&self) -> f64 {
        self.peak_rate_per_s
    }

    /// Instantaneous arrival rate at `t`, calls per second.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.peak_rate_per_s * self.profile.utilization(t)
    }

    /// The start of window `idx`.
    pub fn window_start(&self, idx: u64) -> SimTime {
        SimTime::EPOCH + self.window.mul(idx)
    }

    /// Arrival instants inside window `idx`, in time order.
    ///
    /// A pure function of `(tree, idx)`: the window's candidates and
    /// thinning draws come from the `arrivals:{idx}` stream of `tree`, so
    /// any window can be generated on any thread, in any order, and still
    /// yield the identical sequence.
    pub fn window_arrivals(&self, tree: &RngTree, idx: u64) -> Vec<SimTime> {
        if self.peak_rate_per_s <= 0.0 {
            return Vec::new();
        }
        let mut rng = tree.stream_args(format_args!("arrivals:{idx}"));
        let start = self.window_start(idx);
        let span_s = self.window.as_secs_f64();
        let mut out = Vec::new();
        let mut t_s = 0.0f64;
        loop {
            // Exponential gap at the peak rate; 1 - u keeps the argument of
            // ln strictly positive for u in [0, 1).
            let u: f64 = rng.gen();
            t_s += -(1.0 - u).ln() / self.peak_rate_per_s;
            if t_s >= span_s {
                return out;
            }
            let at = start + Dur::from_nanos((t_s * 1e9).round() as u64);
            // Thinning: keep with probability rate(at) / peak.
            let keep: f64 = rng.gen();
            if keep * self.peak_rate_per_s < self.rate_at(at) {
                out.push(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalShape;

    fn flat(rate: f64) -> ArrivalProcess {
        ArrivalProcess::new(rate, DiurnalProfile::flat(1.0), Dur::from_mins(5))
    }

    #[test]
    fn pure_function_of_seed_and_window() {
        let p = flat(3.0);
        let tree = RngTree::new(9);
        let a = p.window_arrivals(&tree, 7);
        let b = p.window_arrivals(&tree, 7);
        assert_eq!(a, b);
        assert_ne!(a, p.window_arrivals(&tree, 8));
    }

    #[test]
    fn arrivals_stay_inside_window_and_are_sorted() {
        let p = flat(10.0);
        let tree = RngTree::new(4);
        for idx in [0u64, 3, 17] {
            let arr = p.window_arrivals(&tree, idx);
            let (lo, hi) = (p.window_start(idx), p.window_start(idx + 1));
            assert!(!arr.is_empty());
            for w in arr.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert!(*arr.first().unwrap() >= lo);
            assert!(*arr.last().unwrap() < hi);
        }
    }

    #[test]
    fn flat_profile_hits_the_nominal_rate() {
        let p = flat(5.0);
        let tree = RngTree::new(11);
        let n: usize = (0..40).map(|i| p.window_arrivals(&tree, i).len()).sum();
        let expect = 5.0 * 300.0 * 40.0;
        let got = n as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn diurnal_shaping_thins_off_peak() {
        // A business-hours profile: windows at 13:00 local must see far more
        // arrivals than windows at 03:00.
        let profile = DiurnalProfile::new(DiurnalShape::Business, 0.05, 0.95, 0.0);
        let p = ArrivalProcess::new(8.0, profile, Dur::from_mins(30));
        let tree = RngTree::new(5);
        let window_at = |hour: u64| hour * 2; // 30-min windows
        let noonish: usize = (0..4)
            .map(|k| p.window_arrivals(&tree, window_at(13) + k).len())
            .sum();
        let night: usize = (0..4)
            .map(|k| p.window_arrivals(&tree, window_at(3) + k).len())
            .sum();
        assert!(
            noonish > 4 * night.max(1),
            "noon {noonish} vs night {night}"
        );
    }

    #[test]
    fn zero_rate_is_silent() {
        let p = flat(0.0);
        assert!(p.window_arrivals(&RngTree::new(1), 0).is_empty());
        let zeroed = ArrivalProcess::new(4.0, DiurnalProfile::flat(0.0), Dur::from_mins(5));
        assert!(zeroed.window_arrivals(&RngTree::new(1), 3).is_empty());
    }
}
