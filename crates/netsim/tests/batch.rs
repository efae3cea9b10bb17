//! The columnar engine against its per-packet oracles (`support/`).
//!
//! `PathChannel`'s one engine is a reorganisation of a per-packet state
//! machine: it must consume the same RNG draws in the same order and
//! produce byte-identical outcomes. These tests pin both doors
//! (`send_column` and the single-packet `send`) to the epoch-semantics
//! specification — and, on lossless hops, to the exact reference — across
//! Bernoulli and Gilbert–Elliott loss, blackout windows straddling epoch
//! edges, and trains that cross both chunk and epoch boundaries.

mod support;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use support::{columnar, lossy_path as hops, per_packet, EpochOracle, ExactOracle};
use vns_netsim::{BlackoutSchedule, Dur, HopChannel, PathChannel, SimTime, BATCH_LEN};

/// Three lossless hops, the middle and last with blackout windows of
/// `window_ms` every `every_ms` — misaligned with the 1 s epoch grid
/// unless the parameters happen to land on it.
fn blackout_hops(every_ms: u64, window_ms: u64) -> Vec<HopChannel> {
    let windows = |phase_ms: u64| {
        let at = |ms: u64| SimTime::EPOCH + Dur::from_millis(ms);
        BlackoutSchedule::new(
            (0..40)
                .map(|i| phase_ms + i * every_ms)
                .map(|ms| (at(ms), at(ms + window_ms)))
                .collect(),
        )
    };
    let mut hops = vec![
        HopChannel::ideal(2.0),
        HopChannel::ideal(8.0),
        HopChannel::ideal(15.0),
    ];
    hops[1].blackouts = windows(250);
    hops[2].blackouts = windows(every_ms / 2);
    hops
}

/// Send instants spanning several cache epochs (1 s) and several
/// `BATCH_LEN` chunks, with a stride that lands packets on both sides of
/// epoch edges.
fn times(n: usize, spacing_us: u64) -> Vec<SimTime> {
    (0..n as u64)
        .map(|i| SimTime::EPOCH + Dur::from_micros(i * spacing_us))
        .collect()
}

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossless hops with blackouts: the engine quantises nothing a packet
    /// can observe, so it must be byte-equal to the exact per-packet
    /// reference for every packet, including which hop dropped it.
    #[test]
    fn column_matches_exact_reference(
        every_ms in 700u64..3_000,
        window_ms in 50u64..600,
        seed in 0u64..500,
        spacing_us in 300u64..5_000,
    ) {
        let ts = times(3 * BATCH_LEN + 17, spacing_us);
        let mut ch = PathChannel::new(blackout_hops(every_ms, window_ms), rng(seed ^ 5));
        let mut exact = ExactOracle::new(blackout_hops(every_ms, window_ms), rng(seed ^ 5));
        prop_assert_eq!(columnar(&mut ch, &ts), per_packet(&mut exact, &ts));
    }

    /// Lossy hops: the engine must be byte-equal to the per-packet epoch
    /// specification. The stride range makes chunks straddle the 1 s epoch
    /// grid at many offsets.
    #[test]
    fn column_matches_epoch_spec(
        p in 0.0f64..0.15,
        burst in 0.25f64..0.7,
        seed in 0u64..500,
        spacing_us in 300u64..5_000,
    ) {
        let ts = times(3 * BATCH_LEN + 17, spacing_us);
        let mut ch = PathChannel::new(hops(p, burst, seed), rng(seed ^ 5));
        let mut spec = EpochOracle::new(hops(p, burst, seed), rng(seed ^ 5));
        prop_assert_eq!(columnar(&mut ch, &ts), per_packet(&mut spec, &ts));
    }

    /// The single-packet door is a one-slot column: a train sent one
    /// `send` at a time is byte-identical to the same train sent through
    /// `send_column`, and to the specification.
    #[test]
    fn single_packet_send_is_a_one_slot_column(
        p in 0.0f64..0.15,
        burst in 0.25f64..0.7,
        seed in 0u64..500,
    ) {
        let ts = times(2 * BATCH_LEN + 31, 2_400);
        let mk = || PathChannel::new(hops(p, burst, seed), rng(seed ^ 7));
        let one_by_one = per_packet(&mut mk(), &ts);
        prop_assert_eq!(&one_by_one, &columnar(&mut mk(), &ts));
        let mut spec = EpochOracle::new(hops(p, burst, seed), rng(seed ^ 7));
        prop_assert_eq!(&one_by_one, &per_packet(&mut spec, &ts));
    }
}

/// Blackout edges: windows misaligned with the epoch grid (including one
/// shorter than an epoch) classify identically under both doors and both
/// oracles, packet for packet.
#[test]
fn blackout_edges_match_oracles() {
    let s = |ms: u64| SimTime::EPOCH + Dur::from_millis(ms);
    let sched = BlackoutSchedule::new(vec![
        (s(10_250), s(12_750)),
        (s(20_400), s(20_700)),
        (s(30_000), s(33_000)),
    ]);
    let hops = || {
        let mut hop = HopChannel::ideal(1.0);
        hop.blackouts = sched.clone();
        vec![hop]
    };
    // 17 ms stride scans every window edge and epoch start over 40 s.
    let ts = times(2_400, 17_000);
    let exact = per_packet(&mut ExactOracle::new(hops(), rng(3)), &ts);
    assert!(exact.iter().any(|o| !o.delivered()));
    assert_eq!(columnar(&mut PathChannel::new(hops(), rng(3)), &ts), exact);
    assert_eq!(
        per_packet(&mut PathChannel::new(hops(), rng(3)), &ts),
        exact
    );
    assert_eq!(
        per_packet(&mut EpochOracle::new(hops(), rng(3)), &ts),
        exact
    );
}
