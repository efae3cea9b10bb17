//! The echo round-trip helper against the per-packet oracles chained by
//! hand: send on the forward oracle, and on delivery send the arrival
//! instant on the reverse oracle. Everything the helper reports is keyed by
//! original packet index, so the comparison bites on the index chase —
//! a reverse-leg loss behind forward-leg losses must still name the packet
//! the caller sent, not its slot in the forward delivered set.

mod support;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use support::{lossy_path, EpochOracle, ExactOracle, Send1};
use vns_netsim::{
    echo_scratch, BlackoutSchedule, Dur, HopChannel, PathChannel, PathOutcome, SimTime, BATCH_LEN,
};

/// One train's round trip: `(index, return clock)` per returned packet,
/// `(index, hop)` per forward drop, `(index, reverse hop)` per reverse drop
/// — each sorted by packet index.
#[derive(Debug, Default, PartialEq)]
struct RoundTrip {
    returned: Vec<(usize, u64)>,
    lost_fwd: Vec<(usize, usize)>,
    lost_rev: Vec<(usize, usize)>,
}

fn chained(fwd: &mut impl Send1, rev: &mut impl Send1, sent: &[u64]) -> RoundTrip {
    let mut rt = RoundTrip::default();
    for (i, &t) in sent.iter().enumerate() {
        match fwd.send(SimTime::from_nanos(t)) {
            PathOutcome::Lost { hop } => rt.lost_fwd.push((i, hop)),
            PathOutcome::Delivered { arrival, .. } => match rev.send(arrival) {
                PathOutcome::Lost { hop } => rt.lost_rev.push((i, hop)),
                PathOutcome::Delivered { arrival: back, .. } => {
                    rt.returned.push((i, back.as_nanos()));
                }
            },
        }
    }
    rt
}

fn echoed(fwd: &mut PathChannel, rev: &mut PathChannel, sent: &[u64]) -> RoundTrip {
    let mut rt = RoundTrip::default();
    let mut scratch = echo_scratch();
    for (c, chunk) in sent.chunks(BATCH_LEN).enumerate() {
        let base = c * BATCH_LEN;
        let echo = scratch.round_trip(chunk, fwd, rev);
        assert_eq!(echo.delivered_out, chunk.len() - echo.lost_fwd.len());
        assert_eq!(echo.back.len(), echo.delivered_out - echo.lost_rev.len());
        assert!(echo.orig.is_empty() || echo.orig.len() == echo.back.len());
        let unpack = |pk: &u32| (base + (pk >> 8) as usize, (pk & 0xff) as usize);
        rt.returned
            .extend(echo.returned().map(|(i, back)| (base + i, back)));
        rt.lost_fwd.extend(echo.lost_fwd.iter().map(unpack));
        rt.lost_rev.extend(echo.lost_rev.iter().map(unpack));
    }
    // The loss columns are hop-major within a chunk.
    rt.lost_fwd.sort_unstable();
    rt.lost_rev.sort_unstable();
    rt
}

/// Two lossless hops, each blacked out for `window_ms` every `every_ms`.
fn blackout_hops(every_ms: u64, window_ms: u64, phase_ms: u64) -> Vec<HopChannel> {
    let at = |ms: u64| SimTime::EPOCH + Dur::from_millis(ms);
    let windows = |phase: u64| {
        BlackoutSchedule::new(
            (0..70)
                .map(|i| phase + i * every_ms)
                .map(|ms| (at(ms), at(ms + window_ms)))
                .collect(),
        )
    };
    let mut hops = vec![HopChannel::ideal(4.0), HopChannel::ideal(11.0)];
    hops[0].blackouts = windows(phase_ms);
    hops[1].blackouts = windows(phase_ms + every_ms / 3);
    hops
}

fn train(n: usize, spacing_us: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i * spacing_us * 1_000).collect()
}

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossy legs: the helper equals the epoch specification chained per
    /// packet, byte for byte, across chunk and epoch boundaries.
    #[test]
    fn echo_matches_chained_epoch_spec(
        p in 0.0f64..0.15,
        burst in 0.25f64..0.7,
        seed in 0u64..500,
        spacing_us in 300u64..5_000,
    ) {
        let sent = train(2 * BATCH_LEN + 77, spacing_us);
        let (f, r) = (|| lossy_path(p, burst, seed), || lossy_path(p, burst, seed ^ 0xabc));
        let got = echoed(
            &mut PathChannel::new(f(), rng(seed ^ 1)),
            &mut PathChannel::new(r(), rng(seed ^ 2)),
            &sent,
        );
        let want = chained(
            &mut EpochOracle::new(f(), rng(seed ^ 1)),
            &mut EpochOracle::new(r(), rng(seed ^ 2)),
            &sent,
        );
        prop_assert_eq!(got, want);
    }

    /// Lossless legs with blackouts on both: the helper equals the exact
    /// reference chained per packet. Forward windows open before reverse
    /// ones, so reverse drops sit behind forward drops in most chunks.
    #[test]
    fn echo_matches_chained_exact_reference(
        every_ms in 100u64..500,
        window_ms in 20u64..80,
        seed in 0u64..500,
        spacing_us in 300u64..3_000,
    ) {
        // Even the tightest train spans 0.64 s: every schedule lands
        // windows inside it on both legs.
        let sent = train(2 * BATCH_LEN + 77, spacing_us);
        let f = || blackout_hops(every_ms, window_ms, 40);
        let r = || blackout_hops(every_ms, window_ms, 40 + every_ms / 2);
        let got = echoed(
            &mut PathChannel::new(f(), rng(seed ^ 1)),
            &mut PathChannel::new(r(), rng(seed ^ 2)),
            &sent,
        );
        let want = chained(
            &mut ExactOracle::new(f(), rng(seed ^ 1)),
            &mut ExactOracle::new(r(), rng(seed ^ 2)),
            &sent,
        );
        prop_assert!(!want.lost_fwd.is_empty() && !want.lost_rev.is_empty());
        prop_assert_eq!(got, want);
    }
}
