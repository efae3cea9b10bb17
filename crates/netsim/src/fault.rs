//! Fault injection: scheduled blackout windows.
//!
//! Fig 10's upper-left outliers — large loss concentrated in one or two
//! five-second slots — are attributed by the paper to IGP/BGP convergence
//! events: the path simply blackholes for a few seconds. A
//! [`BlackoutSchedule`] is a set of such windows on a hop; a
//! [`FaultGenerator`] draws them from a Poisson process.
//!
//! A schedule belongs to a *hop*, not to a flow: every flow crossing the
//! hop (in either direction) must see the same outages, so `vns-topo`
//! generates one per faultable hop and hands a clone to each flow's
//! channel. The windows therefore sit behind an [`Arc`] — a clone is a
//! reference-count bump, never a copy of the ~120 windows a 30-day
//! horizon holds — and an empty schedule holds no allocation at all.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::{Dur, SimTime};

/// A sorted, non-overlapping set of blackout windows. Packets sent inside a
/// window are lost with probability 1. Immutable once built; clones share
/// the windows.
#[derive(Debug, Clone, Default)]
pub struct BlackoutSchedule {
    /// `(start, end)` pairs, sorted by start, non-overlapping; `None` when
    /// there are none.
    windows: Option<Arc<[(SimTime, SimTime)]>>,
}

impl BlackoutSchedule {
    /// An empty schedule (never blacked out).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds from windows, sorting and merging overlaps.
    pub fn new(mut windows: Vec<(SimTime, SimTime)>) -> Self {
        windows.retain(|(s, e)| e > s);
        windows.sort_by_key(|w| w.0);
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some((_, last_e)) if s <= *last_e => {
                    if e > *last_e {
                        *last_e = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        Self {
            windows: (!merged.is_empty()).then(|| merged.into()),
        }
    }

    fn windows(&self) -> &[(SimTime, SimTime)] {
        self.windows.as_deref().unwrap_or(&[])
    }

    /// Whether `t` falls inside a blackout window.
    pub fn blacked_out(&self, t: SimTime) -> bool {
        let windows = self.windows();
        let idx = windows.partition_point(|(s, _)| *s <= t);
        idx > 0 && t < windows[idx - 1].1
    }

    /// The maximal segment `[lo, hi)` containing `t` on which membership is
    /// constant, plus whether that segment is blacked out. The fast path in
    /// [`crate::PathChannel`] caches the returned segment so steady-state
    /// packets answer the blackout question with two comparisons while
    /// staying *exact*: every window boundary starts a new segment, so the
    /// cache can never smear a window edge across an epoch.
    pub fn segment_at(&self, t: SimTime) -> (SimTime, SimTime, bool) {
        let windows = self.windows();
        let idx = windows.partition_point(|(s, _)| *s <= t);
        if idx > 0 && t < windows[idx - 1].1 {
            let (s, e) = windows[idx - 1];
            return (s, e, true);
        }
        let lo = if idx > 0 {
            windows[idx - 1].1
        } else {
            SimTime::EPOCH
        };
        let hi = windows.get(idx).map_or(SimTime::MAX, |(s, _)| *s);
        (lo, hi, false)
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows().len()
    }

    /// True when there are no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_none()
    }

    /// Total blacked-out time.
    pub fn total_duration(&self) -> Dur {
        self.windows()
            .iter()
            .fold(Dur::ZERO, |acc, (s, e)| acc + (*e - *s))
    }
}

/// Draws blackout schedules from a Poisson process.
#[derive(Debug, Clone, Copy)]
pub struct FaultGenerator {
    /// Expected blackout events per simulated day.
    pub events_per_day: f64,
    /// Minimum blackout duration.
    pub min_duration: Dur,
    /// Maximum blackout duration (uniform between min and max — convergence
    /// events are seconds, not minutes).
    pub max_duration: Dur,
}

impl FaultGenerator {
    /// A generator for routing-convergence-style events: a couple of
    /// events/day lasting 1–8 seconds.
    pub fn convergence(events_per_day: f64) -> Self {
        Self {
            events_per_day,
            min_duration: Dur::from_secs(1),
            max_duration: Dur::from_secs(8),
        }
    }

    /// Generates a schedule covering `[start, start+horizon)`.
    pub fn generate(&self, start: SimTime, horizon: Dur, rng: &mut SmallRng) -> BlackoutSchedule {
        if self.events_per_day <= 0.0 {
            return BlackoutSchedule::none();
        }
        let mean_gap_secs = 86_400.0 / self.events_per_day;
        let end = start + horizon;
        let mut windows = Vec::new();
        let mut t = start;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = Dur::from_millis_f64(-mean_gap_secs * 1000.0 * u.ln());
            t += gap;
            if t >= end {
                break;
            }
            let lo = self.min_duration.as_nanos();
            let hi = self.max_duration.as_nanos().max(lo + 1);
            let dur = Dur::from_nanos(rng.gen_range(lo..hi));
            windows.push((t, t + dur));
        }
        BlackoutSchedule::new(windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(secs: u64) -> SimTime {
        SimTime::EPOCH + Dur::from_secs(secs)
    }

    #[test]
    fn membership() {
        let s = BlackoutSchedule::new(vec![(t(10), t(15)), (t(20), t(22))]);
        assert!(!s.blacked_out(t(9)));
        assert!(s.blacked_out(t(10)));
        assert!(s.blacked_out(t(14)));
        assert!(!s.blacked_out(t(15))); // half-open
        assert!(s.blacked_out(t(21)));
        assert!(!s.blacked_out(t(23)));
    }

    #[test]
    fn segments_partition_time_and_agree_with_membership() {
        let s = BlackoutSchedule::new(vec![(t(10), t(15)), (t(20), t(22))]);
        assert_eq!(s.segment_at(t(0)), (SimTime::EPOCH, t(10), false));
        assert_eq!(s.segment_at(t(10)), (t(10), t(15), true));
        assert_eq!(s.segment_at(t(14)), (t(10), t(15), true));
        assert_eq!(s.segment_at(t(15)), (t(15), t(20), false)); // half-open
        assert_eq!(s.segment_at(t(21)), (t(20), t(22), true));
        assert_eq!(s.segment_at(t(30)), (t(22), SimTime::MAX, false));
        // Empty schedule: one segment covering everything.
        let e = BlackoutSchedule::none();
        assert_eq!(e.segment_at(t(5)), (SimTime::EPOCH, SimTime::MAX, false));
        // Segment flag must agree with blacked_out at every probe point.
        for probe in 0..40 {
            let (lo, hi, black) = s.segment_at(t(probe));
            assert_eq!(black, s.blacked_out(t(probe)), "at {probe}");
            assert!(lo <= t(probe) && t(probe) < hi, "at {probe}");
        }
    }

    #[test]
    fn merges_overlaps() {
        let s = BlackoutSchedule::new(vec![(t(10), t(15)), (t(14), t(18)), (t(18), t(19))]);
        // [10,15) and [14,18) overlap; [18,19) is adjacent and also merges.
        assert_eq!(s.len(), 1);
        assert!(s.blacked_out(t(16)));
        assert_eq!(s.total_duration(), Dur::from_secs(9));
    }

    #[test]
    fn empty_windows_dropped() {
        // Every way of saying "no windows" is the same allocation-free
        // empty schedule.
        for s in [
            BlackoutSchedule::none(),
            BlackoutSchedule::new(vec![]),
            BlackoutSchedule::new(vec![(t(5), t(5)), (t(9), t(8))]),
        ] {
            assert!(s.is_empty());
            assert!(s.windows.is_none());
            assert_eq!(s.len(), 0);
            assert_eq!(s.total_duration(), Dur::ZERO);
            assert!(!s.blacked_out(t(5)));
        }
    }

    #[test]
    fn clones_share_their_windows() {
        let s = BlackoutSchedule::new(vec![(t(10), t(15)), (t(20), t(22))]);
        let c = s.clone();
        let (a, b) = (s.windows.as_ref().unwrap(), c.windows.as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "a clone must not copy the windows");
    }

    #[test]
    fn generator_rate_roughly_right() {
        let g = FaultGenerator::convergence(4.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = g.generate(SimTime::EPOCH, Dur::from_days(100), &mut rng);
        // ~400 events expected over 100 days.
        assert!((300..500).contains(&s.len()), "events {}", s.len());
        for w in 0..s.len() {
            let _ = w;
        }
    }

    #[test]
    fn generator_durations_bounded() {
        let g = FaultGenerator::convergence(10.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let s = g.generate(SimTime::EPOCH, Dur::from_days(10), &mut rng);
        assert!(!s.is_empty());
        // Total duration <= events * max_duration.
        assert!(s.total_duration().as_secs_f64() <= s.len() as f64 * 8.0 + 1e-9);
    }

    #[test]
    fn zero_rate_empty() {
        let g = FaultGenerator::convergence(0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(g
            .generate(SimTime::EPOCH, Dur::from_days(10), &mut rng)
            .is_empty());
    }
}
