//! [`PathChannel`] vs the exact per-packet reference (`support/`).
//!
//! The engine's 1 s epoch cache is an approximation of the exact
//! reference: loss probability and mean queueing delay are frozen at each
//! epoch's start, and losses are realised by geometric gap sampling
//! instead of per-packet Bernoulli draws. These tests pin down what the
//! approximation is allowed to change (the exact packet fates) and what it
//! must preserve (loss rates, delay distributions, blackout window edges,
//! lossless-path bit-exactness).

mod support;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use support::{ExactOracle, Send1};
use vns_netsim::diurnal::{DiurnalProfile, DiurnalShape};
use vns_netsim::{
    BlackoutSchedule, DelaySampler, Dur, HopChannel, LossModel, PathChannel, SimTime,
};

fn lossy_hop(model: LossModel, seed: u64) -> HopChannel {
    support::lossy_hop(5.0, model, seed)
}

/// Sends `n` packets at `spacing` through a fresh channel (or, for
/// `exact`, the exact reference) over the hops `mk` builds, returning (loss fraction, mean one-way delay in ms over delivered).
fn run(
    mk: impl Fn() -> Vec<HopChannel>,
    exact: bool,
    n: u64,
    spacing: Dur,
    rng_seed: u64,
) -> (f64, f64) {
    let rng = SmallRng::seed_from_u64(rng_seed);
    let mut ch: Box<dyn Send1> = if exact {
        Box::new(ExactOracle::new(mk(), rng))
    } else {
        Box::new(PathChannel::new(mk(), rng))
    };
    let mut lost = 0u64;
    let mut delay_sum = 0.0;
    let mut delivered = 0u64;
    let mut t = SimTime::EPOCH;
    for _ in 0..n {
        match ch.send(t).delay_ms() {
            None => lost += 1,
            Some(d) => {
                delivered += 1;
                delay_sum += d;
            }
        }
        t += spacing;
    }
    let mean_delay = if delivered > 0 {
        delay_sum / delivered as f64
    } else {
        0.0
    };
    (lost as f64 / n as f64, mean_delay)
}

proptest! {
    // Proptest re-runs are expensive here (hundreds of thousands of packet
    // sends per case); keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bernoulli loss: the fast path's realised loss rate must match the
    /// exact path's within binomial noise.
    #[test]
    fn bernoulli_loss_rate_preserved(p in 0.002f64..0.1, seed in 0u64..200) {
        let n = 120_000u64;
        let mk = || vec![lossy_hop(LossModel::Bernoulli { p }, seed)];
        let (fast, _) = run(mk, false, n, Dur::from_micros(500), seed ^ 1);
        let (exact, _) = run(mk, true, n, Dur::from_micros(500), seed ^ 1);
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        prop_assert!((fast - p).abs() <= 6.0 * sigma + 1e-4, "fast {fast} vs p {p}");
        prop_assert!((fast - exact).abs() <= 8.0 * sigma + 2e-4, "fast {fast} vs exact {exact}");
    }

    /// Gilbert–Elliott bursty loss: long-run rates must agree (the fast
    /// path freezes the in-state probability per 1 s epoch, well below the
    /// chain's mixing time at these burst lengths).
    #[test]
    fn ge_loss_rate_preserved(
        overall in 0.005f64..0.04,
        burst_loss in 0.25f64..0.7,
        seed in 0u64..100
    ) {
        let n = 150_000u64;
        let model = LossModel::bursty(overall, burst_loss, 2.0);
        let mk = || vec![lossy_hop(model.clone(), seed)];
        // 20 ms spacing: spans epochs and GE sojourn times alike.
        let (fast, _) = run(mk, false, n, Dur::from_millis(20), seed ^ 3);
        let (exact, _) = run(mk, true, n, Dur::from_millis(20), seed ^ 3);
        prop_assert!(
            fast < exact * 2.5 + 0.003 && fast > exact / 2.5 - 0.003,
            "fast {fast} vs exact {exact}"
        );
        prop_assert!(
            fast < overall * 2.5 + 0.003 && fast > overall / 2.5 - 0.003,
            "fast {fast} vs overall {overall}"
        );
    }

    /// Contended-hop delay: mean one-way delay under the fast path (mean
    /// queue frozen per epoch) must track the exact per-packet evaluation.
    #[test]
    fn contended_delay_mean_preserved(base_util in 0.2f64..0.6, offset in -10.0f64..10.0) {
        let n = 60_000u64;
        let mk = || {
            let mut hop = HopChannel::ideal(20.0);
            hop.delay = DelaySampler::contended(
                20.0,
                DiurnalProfile::new(DiurnalShape::Mixed, base_util, 0.2, offset),
            );
            vec![hop]
        };
        // ~100 ms spacing walks the diurnal curve over ~100 minutes.
        let (_, fast) = run(mk, false, n, Dur::from_millis(100), 9);
        let (_, exact) = run(mk, true, n, Dur::from_millis(100), 9);
        prop_assert!(
            (fast - exact).abs() <= 0.02 * exact + 0.05,
            "fast mean {fast} vs exact mean {exact}"
        );
    }
}

/// Blackout windows are exact under the fast path: a packet at an epoch
/// edge, a window edge, or anywhere in between sees the same outcome the
/// unquantised membership test gives — even for sub-epoch windows that
/// open and close inside one cache epoch.
#[test]
fn blackout_membership_exact_at_epoch_edges() {
    let s = |secs_ms: (u64, u64)| SimTime::EPOCH + Dur::from_millis(secs_ms.0 * 1000 + secs_ms.1);
    // Windows deliberately misaligned with the 1 s epoch grid, including a
    // 300 ms window fully inside one epoch.
    let windows = vec![
        (s((10, 250)), s((12, 750))),
        (s((20, 400)), s((20, 700))),
        (s((30, 0)), s((33, 0))),
    ];
    let sched = BlackoutSchedule::new(windows.clone());
    let mk = || {
        let mut hop = HopChannel::ideal(1.0);
        hop.blackouts = sched.clone();
        vec![hop]
    };
    let mut fast = PathChannel::new(mk(), SmallRng::seed_from_u64(1));
    // Probe every 50 ms over the whole span — hits epoch starts, window
    // edges and interiors — and compare against raw membership.
    for ms in (0..40_000u64).step_by(50) {
        let t = SimTime::EPOCH + Dur::from_millis(ms);
        let raw_blacked = windows.iter().any(|(a, b)| t >= *a && t < *b);
        assert_eq!(
            !fast.send(t).delivered(),
            raw_blacked,
            "at {ms} ms: fast path disagrees with raw window membership"
        );
    }
    // Exact boundary instants: first/last nanosecond of each window.
    let just_before = |t: SimTime| SimTime::from_nanos(t.as_nanos() - 1);
    for (a, b) in &windows {
        let mut ch = PathChannel::new(mk(), SmallRng::seed_from_u64(2));
        assert!(!ch.send(*a).delivered(), "window start is blacked out");
        assert!(ch.send(*b).delivered(), "window end is open (half-open)");
        assert!(!ch.send(just_before(*b)).delivered());
        assert!(ch.send(just_before(*a)).delivered());
    }
}

/// On a lossless path the engine consumes the RNG identically to the
/// exact reference, so outcomes are bit-for-bit equal — the calibration
/// tests that assert exact RTT bands hold because of it.
#[test]
fn lossless_paths_bit_identical() {
    for (bases, seed, spacing_us, n) in [
        (&[12.0, 35.0, 2.0][..], 5, 330, 20_000),
        (&[10.0, 20.0][..], 6, 700, 5_000),
    ] {
        let mk = || bases.iter().map(|&ms| HopChannel::ideal(ms)).collect();
        let mut fast = PathChannel::new(mk(), SmallRng::seed_from_u64(seed));
        let mut exact = ExactOracle::new(mk(), SmallRng::seed_from_u64(seed));
        let mut t = SimTime::EPOCH;
        for _ in 0..n {
            assert_eq!(fast.send(t), exact.send(t));
            t += Dur::from_micros(spacing_us);
        }
    }
}

/// Determinism: the fast path is a pure function of (hops, rng seed, send
/// times) — two identically-built channels agree packet for packet.
#[test]
fn fast_path_deterministic() {
    let model = LossModel::Composite(vec![
        LossModel::Bernoulli { p: 0.003 },
        LossModel::bursty(0.004, 0.4, 1.5),
    ]);
    let mk = || {
        vec![
            lossy_hop(model.clone(), 11),
            lossy_hop(LossModel::Bernoulli { p: 0.001 }, 12),
        ]
    };
    let mut a = PathChannel::new(mk(), SmallRng::seed_from_u64(13));
    let mut b = PathChannel::new(mk(), SmallRng::seed_from_u64(13));
    let mut t = SimTime::EPOCH;
    for _ in 0..50_000 {
        assert_eq!(a.send(t), b.send(t));
        t += Dur::from_micros(700);
    }
}
