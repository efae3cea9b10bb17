//! Per-packet oracles for the packet engine.
//!
//! `PathChannel` has one engine (the columnar `run_hops`); these are the
//! two per-packet state machines it is specified against. Both are built
//! only from [`HopChannel`]'s public fields and derive their per-hop delay
//! streams the way `PathChannel::new` does (`seed_from_u64(rng.next_u64())`
//! in hop order), so they share no code with the engine and cannot drift
//! with its internals:
//!
//! * [`ExactOracle`] — the exact reference: every packet pays the blackout
//!   membership test, a loss-process step and draw, and a delay sampled at
//!   its own clock. The engine approximates this (distribution pins in
//!   `fastpath.rs`) and equals it bit for bit on lossless hops.
//! * [`EpochOracle`] — the specification of the engine's epoch semantics,
//!   one packet at a time. The engine must equal this byte for byte.
//!
//! Other crates' tests include this file by `#[path]`.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use vns_netsim::{
    scratch, Dur, HopChannel, LossModel, LossProcess, PathChannel, PathOutcome, SimTime, BATCH_LEN,
};

fn delay_rngs(hops: &[HopChannel], mut rng: SmallRng) -> Vec<SmallRng> {
    hops.iter()
        .map(|_| SmallRng::seed_from_u64(rng.next_u64()))
        .collect()
}

/// Anything that sends one packet and reports its fate.
pub trait Send1 {
    fn send(&mut self, sent: SimTime) -> PathOutcome;
}

impl Send1 for PathChannel {
    fn send(&mut self, sent: SimTime) -> PathOutcome {
        PathChannel::send(self, sent)
    }
}

/// The exact per-packet reference.
pub struct ExactOracle {
    hops: Vec<HopChannel>,
    rngs: Vec<SmallRng>,
}

impl ExactOracle {
    pub fn new(hops: Vec<HopChannel>, rng: SmallRng) -> Self {
        let rngs = delay_rngs(&hops, rng);
        Self { hops, rngs }
    }
}

impl Send1 for ExactOracle {
    fn send(&mut self, sent: SimTime) -> PathOutcome {
        let mut now = sent;
        for (i, (hop, rng)) in self.hops.iter_mut().zip(&mut self.rngs).enumerate() {
            if hop.blackouts.blacked_out(now) || hop.loss.packet_lost(now) {
                return PathOutcome::Lost { hop: i };
            }
            now += Dur::from_nanos(hop.delay.sample_ns(now, rng));
        }
        PathOutcome::Delivered {
            arrival: now,
            delay: now - sent,
        }
    }
}

/// What a hop remembers between packets under the epoch semantics.
#[derive(Clone, Default)]
struct EpochState {
    /// Start of the 1 s epoch the snapshot below was taken for.
    epoch: Option<SimTime>,
    loss_p: f64,
    gap_left: u64,
}

/// The epoch semantics, per packet: blackout membership is exact; loss
/// probability and mean queueing delay are frozen at the start of the 1 s
/// epoch containing the packet's clock; losses are a geometric gap
/// countdown, re-drawn whenever the epoch changes.
pub struct EpochOracle {
    hops: Vec<HopChannel>,
    rngs: Vec<SmallRng>,
    state: Vec<EpochState>,
}

impl EpochOracle {
    pub fn new(hops: Vec<HopChannel>, rng: SmallRng) -> Self {
        let rngs = delay_rngs(&hops, rng);
        let state = vec![EpochState::default(); hops.len()];
        Self { hops, rngs, state }
    }
}

impl Send1 for EpochOracle {
    fn send(&mut self, sent: SimTime) -> PathOutcome {
        const EPOCH_NS: u64 = 1_000_000_000;
        let mut now = sent;
        let per_hop = self
            .hops
            .iter_mut()
            .zip(&mut self.rngs)
            .zip(&mut self.state);
        for (i, ((hop, rng), st)) in per_hop.enumerate() {
            // A blacked-out packet touches no loss or epoch state.
            if hop.blackouts.segment_at(now).2 {
                return PathOutcome::Lost { hop: i };
            }
            let epoch = SimTime::from_nanos(now.as_nanos() / EPOCH_NS * EPOCH_NS);
            if st.epoch != Some(epoch) {
                st.epoch = Some(epoch);
                st.loss_p = hop.loss.loss_prob(epoch).clamp(0.0, 1.0);
                st.gap_left = hop.loss.gap_to_next_loss(st.loss_p);
            }
            if st.loss_p > 0.0 {
                if st.gap_left == 0 {
                    st.gap_left = hop.loss.gap_to_next_loss(st.loss_p);
                    return PathOutcome::Lost { hop: i };
                }
                st.gap_left -= 1;
            }
            now += Dur::from_nanos(hop.delay.sample_ns(epoch, rng));
        }
        PathOutcome::Delivered {
            arrival: now,
            delay: now - sent,
        }
    }
}

/// One outcome per instant, one packet at a time.
pub fn per_packet(ch: &mut impl Send1, times: &[SimTime]) -> Vec<PathOutcome> {
    times.iter().map(|&t| ch.send(t)).collect()
}

/// One outcome per instant through the columnar door: `BATCH_LEN` chunks
/// of `send_column`, outcomes rebuilt from the delivered clocks, the
/// original-index map and the sparse loss column.
pub fn columnar(ch: &mut PathChannel, times: &[SimTime]) -> Vec<PathOutcome> {
    let mut out = Vec::with_capacity(times.len());
    let mut cols = scratch();
    for chunk in times.chunks(BATCH_LEN) {
        let base = out.len();
        out.resize(base + chunk.len(), PathOutcome::Lost { hop: usize::MAX });
        let sent_ns: Vec<u64> = chunk.iter().map(SimTime::as_nanos).collect();
        let k = ch.send_column(&sent_ns, &mut cols);
        for &pk in &cols.lost {
            out[base + (pk >> 8) as usize] = PathOutcome::Lost {
                hop: (pk & 0xff) as usize,
            };
        }
        for j in 0..k {
            let orig = cols.idx.get(j).map_or(j, |&i| i as usize);
            let arrival = SimTime::from_nanos(cols.now[j]);
            out[base + orig] = PathOutcome::Delivered {
                arrival,
                delay: arrival - chunk[orig],
            };
        }
    }
    out
}

/// A fixed-delay hop with the given loss model.
pub fn lossy_hop(base_ms: f64, model: LossModel, seed: u64) -> HopChannel {
    let mut hop = HopChannel::ideal(base_ms);
    hop.loss = LossProcess::new(model, SmallRng::seed_from_u64(seed));
    hop
}

/// A 3-hop path exercising both loss families plus a clean hop.
pub fn lossy_path(p: f64, burst: f64, seed: u64) -> Vec<HopChannel> {
    vec![
        lossy_hop(2.0, LossModel::Bernoulli { p }, seed),
        lossy_hop(
            8.0,
            LossModel::bursty(p.max(0.001), burst, 2.0),
            seed ^ 0x9e37,
        ),
        HopChannel::ideal(15.0),
    ]
}
