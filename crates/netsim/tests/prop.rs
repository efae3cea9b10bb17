//! Property tests for the simulation substrate: clock arithmetic, event
//! ordering, blackout-schedule invariants and loss-model stationarity.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_netsim::{BlackoutSchedule, Dur, EventQueue, LossModel, LossProcess, SimTime};

proptest! {
    #[test]
    fn duration_addition_is_nanos_addition(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let d = Dur::from_nanos(a) + Dur::from_nanos(b);
        prop_assert_eq!(d.as_nanos(), a + b);
    }

    #[test]
    fn simtime_ordering_matches_nanos(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
        prop_assert_eq!(ta < tb, a < b);
        if a <= b {
            prop_assert_eq!((tb - ta).as_nanos(), b - a);
        }
    }

    #[test]
    fn local_hour_always_in_range(ns in 0u64..u64::MAX / 2, offset in -48.0f64..48.0) {
        let h = SimTime::from_nanos(ns).local_hour(offset);
        prop_assert!((0.0..24.0).contains(&h), "hour {h}");
    }

    #[test]
    fn event_queue_pops_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(*t), i);
        }
        let mut last = SimTime::EPOCH;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn blackout_merge_is_sorted_and_disjoint(
        windows in prop::collection::vec((0u64..10_000, 0u64..500), 0..50)
    ) {
        let ws: Vec<(SimTime, SimTime)> = windows
            .iter()
            .map(|(s, d)| {
                (
                    SimTime::from_nanos(*s * 1_000),
                    SimTime::from_nanos((*s + *d) * 1_000),
                )
            })
            .collect();
        let sched = BlackoutSchedule::new(ws.clone());
        // A clone shares the windows with its source and must answer every
        // question the same way — also once the source is gone.
        let clone = sched.clone();
        prop_assert_eq!(clone.len(), sched.len());
        prop_assert_eq!(clone.is_empty(), sched.is_empty());
        prop_assert_eq!(clone.total_duration(), sched.total_duration());
        // Membership must agree with the raw window list.
        let mut answers = Vec::new();
        for probe in (0..10_500).step_by(97) {
            let t = SimTime::from_nanos(probe * 1_000);
            let raw = ws.iter().any(|(s, e)| t >= *s && t < *e);
            prop_assert_eq!(sched.blacked_out(t), raw, "at {}", probe);
            prop_assert_eq!(clone.blacked_out(t), raw, "clone at {}", probe);
            let seg = sched.segment_at(t);
            prop_assert_eq!(clone.segment_at(t), seg, "clone segment at {}", probe);
            prop_assert!(seg.0 <= t && t < seg.1 && seg.2 == raw, "segment at {}", probe);
            answers.push((t, seg));
        }
        // Total duration never exceeds the sum of inputs.
        let sum: u64 = ws.iter().map(|(s, e)| (*e - *s).as_nanos()).sum();
        prop_assert!(sched.total_duration().as_nanos() <= sum);
        drop(sched);
        for (t, seg) in answers {
            prop_assert_eq!(clone.segment_at(t), seg);
        }
    }

    #[test]
    fn bernoulli_process_matches_rate(p in 0.0f64..0.3, seed in 0u64..1000) {
        let model = LossModel::Bernoulli { p };
        let mut proc = LossProcess::new(model, SmallRng::seed_from_u64(seed));
        let n = 20_000u32;
        let mut lost = 0;
        let mut t = SimTime::EPOCH;
        for _ in 0..n {
            if proc.packet_lost(t) {
                lost += 1;
            }
            t += Dur::from_millis(1);
        }
        let rate = f64::from(lost) / f64::from(n);
        // 5-sigma band for a binomial sample.
        let sigma = (p * (1.0 - p) / f64::from(n)).sqrt();
        prop_assert!((rate - p).abs() <= 5.0 * sigma + 1e-4, "rate {rate} vs p {p}");
    }

    #[test]
    fn ge_mean_rate_is_stationary_rate(
        overall in 0.001f64..0.05,
        burst_loss in 0.2f64..0.8,
        mean_burst in 0.5f64..5.0,
        seed in 0u64..50
    ) {
        let model = LossModel::bursty(overall, burst_loss, mean_burst);
        prop_assert!((model.mean_rate() - overall).abs() < 1e-9);
        // Long-run empirical rate converges (loose band: the chain mixes
        // slowly for long bursts).
        let mut proc = LossProcess::new(model, SmallRng::seed_from_u64(seed));
        let mut lost = 0u32;
        let n = 60_000u32;
        let mut t = SimTime::EPOCH;
        for _ in 0..n {
            if proc.packet_lost(t) {
                lost += 1;
            }
            t += Dur::from_millis(50);
        }
        let rate = f64::from(lost) / f64::from(n);
        prop_assert!(
            rate < overall * 4.0 + 0.002 && rate > overall / 6.0 - 0.002,
            "rate {rate} vs overall {overall}"
        );
    }

    #[test]
    fn composite_mean_never_below_components_max(
        p1 in 0.0f64..0.2,
        p2 in 0.0f64..0.2
    ) {
        let m = LossModel::Composite(vec![
            LossModel::Bernoulli { p: p1 },
            LossModel::Bernoulli { p: p2 },
        ]);
        let mean = m.mean_rate();
        prop_assert!(mean >= p1.max(p2) - 1e-12);
        prop_assert!(mean <= p1 + p2 + 1e-12);
    }
}
