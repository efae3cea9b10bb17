//! `rtt_probe` and `loss_train` against a probe driven one packet at a time
//! through the per-packet epoch specification (`vns-netsim`'s test
//! oracles): ping `i` goes out on the forward oracle, its arrival instant
//! goes out on the reverse oracle, and the probe keeps the minimum RTT /
//! counts what failed to return. Random lossy 1–6-hop paths, trains both
//! shorter and longer than one engine chunk.

#[path = "../../netsim/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use support::{EpochOracle, Send1};
use vns_netsim::{
    BlackoutSchedule, Dur, HopChannel, LossModel, LossProcess, PathChannel, PathOutcome, SimTime,
};
use vns_probe::{loss_train, rtt_probe, LossTrain, RttProbe};

/// When the loss train starts (the RTT probe starts at `EPOCH`).
const TRAIN_AT: SimTime = SimTime::from_nanos(600_000_000_000);

/// A random `n`-hop path: Bernoulli, bursty and clean hops, the middle one
/// with a 2 ms blackout window a few ms into the probe and into the train.
fn path(n: usize, seed: u64) -> Vec<HopChannel> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|h| {
            let mut hop = HopChannel::ideal(rng.gen_range(0.5..30.0));
            let model = match rng.gen_range(0..3) {
                0 => LossModel::Bernoulli {
                    p: rng.gen_range(0.0..0.2),
                },
                1 => LossModel::bursty(rng.gen_range(0.005..0.1), 0.5, 1.0),
                _ => LossModel::None,
            };
            hop.loss = LossProcess::new(model, SmallRng::seed_from_u64(rng.gen()));
            if h == n / 2 {
                let after = Dur::from_micros(rng.gen_range(0..8_000));
                let window = |t: SimTime| (t + after, t + after + Dur::from_millis(2));
                hop.blackouts =
                    BlackoutSchedule::new(vec![window(SimTime::EPOCH), window(TRAIN_AT)]);
            }
            hop
        })
        .collect()
}

/// The echo, one packet at a time: `Some(return instant)` when both legs
/// deliver.
fn echo_one(fwd: &mut EpochOracle, rev: &mut EpochOracle, t: SimTime) -> Option<SimTime> {
    let PathOutcome::Delivered { arrival, .. } = fwd.send(t) else {
        return None;
    };
    match rev.send(arrival) {
        PathOutcome::Delivered { arrival, .. } => Some(arrival),
        PathOutcome::Lost { .. } => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn probes_match_per_packet_oracle(
        hops_fwd in 1usize..7,
        hops_rev in 1usize..7,
        seed in 0u64..10_000,
        count in prop_oneof![1u32..12, 90u32..130, 1_000u32..1_100],
        gap_us in 100u64..250_000,
    ) {
        let (f, r) = (|| path(hops_fwd, seed), || path(hops_rev, seed ^ 0x5a5a));
        let rngs = || (SmallRng::seed_from_u64(seed ^ 1), SmallRng::seed_from_u64(seed ^ 2));
        let gap = Dur::from_micros(gap_us);

        // The probe pair sends an RTT probe, then a loss train, on the same
        // channels — later sends see the state earlier ones left behind.
        let (mut fwd, mut rev) = (PathChannel::new(f(), rngs().0), PathChannel::new(r(), rngs().1));
        let got_rtt = rtt_probe(&mut fwd, &mut rev, SimTime::EPOCH, count, gap);
        let got_train = loss_train(&mut fwd, &mut rev, TRAIN_AT, count);

        let (mut fwd, mut rev) = (EpochOracle::new(f(), rngs().0), EpochOracle::new(r(), rngs().1));
        let mut want_rtt = RttProbe { sent: count, received: 0, min_rtt_ms: None };
        for i in 0..count {
            let t = SimTime::EPOCH + gap.mul(u64::from(i));
            if let Some(back) = echo_one(&mut fwd, &mut rev, t) {
                let rtt = (back - t).as_millis_f64();
                want_rtt.received += 1;
                want_rtt.min_rtt_ms = Some(want_rtt.min_rtt_ms.map_or(rtt, |m: f64| m.min(rtt)));
            }
        }
        let mut want_train = LossTrain { at: TRAIN_AT, sent: count, lost: 0 };
        for i in 0..count {
            let t = TRAIN_AT + Dur::from_micros(100).mul(u64::from(i));
            want_train.lost += u32::from(echo_one(&mut fwd, &mut rev, t).is_none());
        }

        prop_assert_eq!(got_rtt, want_rtt);
        prop_assert_eq!(got_train, want_train);
    }
}
