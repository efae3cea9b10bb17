//! The measuring client ↔ echo server session.
//!
//! Mirrors the paper's Sec 5.1 methodology: a client streams a pre-recorded
//! HD conference to an echo server for two minutes; the server streams every
//! received packet straight back; the client logs loss, per-5-second-slot
//! loss counts and RFC 3550 jitter.

use vns_netsim::{Dur, PathChannel, BATCH_LEN};

use crate::rtp::JitterEstimator;
use crate::stream::{PacketFeed, ScheduledPacket};

/// Session parameters.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Slot width for the loss-spread analysis (paper: 5 s).
    pub slot: Dur,
    /// Session duration (paper: 2 min → 24 slots).
    pub duration: Dur,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            slot: Dur::from_secs(5),
            duration: Dur::from_secs(120),
        }
    }
}

/// What one echo session measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Packets the client sent.
    pub sent: u32,
    /// Packets that reached the echo server (outgoing leg).
    pub delivered_out: u32,
    /// Packets that made it all the way back to the client.
    pub returned: u32,
    /// Lost packets per slot, counted on the *round trip* and indexed by
    /// the original send time (what the paper's Fig 10 instrumentation
    /// records).
    pub slot_losses: Vec<u32>,
    /// Final RFC 3550 jitter estimate on the returned stream, ms.
    pub jitter_ms: f64,
    /// Peak smoothed jitter during the session, ms.
    pub jitter_max_ms: f64,
    /// Minimum observed round-trip delay, ms (`None` if nothing returned).
    pub min_rtt_ms: Option<f64>,
}

impl SessionReport {
    /// Round-trip loss percentage (0–100) — the headline number of Fig 9.
    pub fn rt_loss_pct(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        100.0 * (self.sent - self.returned) as f64 / self.sent as f64
    }

    /// Number of slots with at least one lost packet (x-axis of Fig 10).
    pub fn lossy_slots(&self) -> usize {
        self.slot_losses.iter().filter(|&&c| c > 0).count()
    }
}

/// Runs one echo session: every scheduled packet goes out on `forward`;
/// on delivery the echo server immediately returns it on `reverse`.
///
/// `packets` is any packet source in send order — a `&PacketSchedule` or,
/// preferably, [`crate::VideoSpec::packets`]'s lazy iterator, which avoids
/// materialising the ~51k-packet Vec per 2-minute 1080p session. The first
/// packet's send time anchors the slot grid.
pub fn run_echo_session<I>(
    packets: I,
    config: &SessionConfig,
    forward: &mut PathChannel,
    reverse: &mut PathChannel,
) -> SessionReport
where
    I: IntoIterator<Item = ScheduledPacket>,
    I::IntoIter: PacketFeed,
{
    let n_slots = config.duration.div_count(config.slot).max(1) as usize;
    let mut slot_losses = vec![0u32; n_slots];
    let mut sent = 0u32;
    let mut delivered_out = 0u32;
    let mut returned = 0u32;
    let mut jitter = JitterEstimator::new();
    let mut min_rtt_ns = u64::MAX;

    // The feed fills the send-clock column [`BATCH_LEN`] packets at a time
    // (the session only consumes send instants) and each chunk makes one
    // echo round trip through the columnar engine — no per-packet outcome
    // enums. Losses come back as sparse packed columns keyed by original
    // packet index, so slot attribution costs one division per *lost*
    // packet instead of a cursor walk over every packet. The leg columns
    // come from the per-thread arena pool.
    let mut packets = packets.into_iter();
    let mut scratch = vns_netsim::echo_scratch();
    let mut sent_ns: Vec<u64> = Vec::with_capacity(BATCH_LEN);
    let slot_ns = config.slot.as_nanos().max(1);
    let mut start_ns = None;
    loop {
        sent_ns.clear();
        if packets.fill_times(&mut sent_ns, BATCH_LEN) == 0 {
            break;
        }
        let start_ns = *start_ns.get_or_insert(sent_ns[0]);
        sent += sent_ns.len() as u32;
        let echo = scratch.round_trip(&sent_ns, forward, reverse);
        delivered_out += echo.delivered_out as u32;
        returned += echo.back.len() as u32;
        for &pk in echo.lost_fwd.iter().chain(echo.lost_rev) {
            let t = sent_ns[(pk >> 8) as usize];
            let s = (((t - start_ns) / slot_ns) as usize).min(n_slots - 1);
            slot_losses[s] += 1;
        }
        let mut on_return = |rtt_ns: u64| {
            jitter.on_transit_ns(rtt_ns);
            min_rtt_ns = min_rtt_ns.min(rtt_ns);
        };
        if echo.orig.is_empty() {
            // Lossless chunk on both legs: returned slot j is packet j.
            for (&back_ns, &t) in echo.back.iter().zip(&sent_ns) {
                on_return(back_ns - t);
            }
        } else {
            for (&back_ns, &i) in echo.back.iter().zip(echo.orig) {
                on_return(back_ns - sent_ns[i as usize]);
            }
        }
    }

    SessionReport {
        sent,
        delivered_out,
        returned,
        slot_losses,
        jitter_ms: jitter.jitter_ms(),
        jitter_max_ms: jitter.max_ms(),
        min_rtt_ms: (min_rtt_ns != u64::MAX).then_some(min_rtt_ns as f64 * 1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{PacketSchedule, VideoSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vns_netsim::{HopChannel, LossModel, LossProcess, SimTime};

    fn ideal_channel(ms: f64, seed: u64) -> PathChannel {
        PathChannel::new(vec![HopChannel::ideal(ms)], SmallRng::seed_from_u64(seed))
    }

    fn lossy_channel(p: f64, seed: u64) -> PathChannel {
        let mut hop = HopChannel::ideal(5.0);
        hop.loss = LossProcess::new(LossModel::Bernoulli { p }, SmallRng::seed_from_u64(seed));
        PathChannel::new(vec![hop], SmallRng::seed_from_u64(seed + 1))
    }

    fn schedule() -> PacketSchedule {
        let mut rng = SmallRng::seed_from_u64(3);
        VideoSpec::HD1080.schedule(SimTime::EPOCH, Dur::from_secs(120), &mut rng)
    }

    #[test]
    fn clean_path_zero_loss() {
        let sched = schedule();
        let cfg = SessionConfig::default();
        let mut fwd = ideal_channel(40.0, 1);
        let mut rev = ideal_channel(40.0, 2);
        let r = run_echo_session(&sched, &cfg, &mut fwd, &mut rev);
        assert_eq!(r.sent as usize, sched.len());
        assert_eq!(r.returned, r.sent);
        assert_eq!(r.rt_loss_pct(), 0.0);
        assert_eq!(r.lossy_slots(), 0);
        assert_eq!(r.slot_losses.len(), 24);
        let rtt = r.min_rtt_ms.unwrap();
        assert!((80.0..82.0).contains(&rtt), "rtt {rtt}");
        assert!(r.jitter_ms < 1.0);
    }

    #[test]
    fn loss_rate_measured() {
        let sched = schedule();
        let cfg = SessionConfig::default();
        let mut fwd = lossy_channel(0.01, 10);
        let mut rev = ideal_channel(5.0, 11);
        let r = run_echo_session(&sched, &cfg, &mut fwd, &mut rev);
        let out_loss_pct = 100.0 * (r.sent - r.delivered_out) as f64 / r.sent as f64;
        assert!((out_loss_pct - 1.0).abs() < 0.4, "{out_loss_pct}");
        assert_eq!(r.returned, r.delivered_out);
        // 1% random loss over 2 minutes touches most 5 s slots.
        assert!(r.lossy_slots() >= 20, "slots {}", r.lossy_slots());
    }

    #[test]
    fn reverse_loss_counts_in_round_trip_only() {
        let sched = schedule();
        let cfg = SessionConfig::default();
        let mut fwd = ideal_channel(5.0, 20);
        let mut rev = lossy_channel(0.02, 21);
        let r = run_echo_session(&sched, &cfg, &mut fwd, &mut rev);
        assert_eq!(r.delivered_out, r.sent);
        assert!(r.rt_loss_pct() > 1.0);
    }

    #[test]
    fn burst_concentrates_in_few_slots() {
        // A blackout window hits a contiguous run of packets: expect large
        // loss in few slots (Fig 10 upper-left outlier shape).
        use vns_netsim::BlackoutSchedule;
        let sched = schedule();
        let cfg = SessionConfig::default();
        let mut hop = HopChannel::ideal(5.0);
        let w0 = SimTime::EPOCH + Dur::from_secs(30);
        hop.blackouts = BlackoutSchedule::new(vec![(w0, w0 + Dur::from_secs(6))]);
        let mut fwd = PathChannel::new(vec![hop], SmallRng::seed_from_u64(30));
        let mut rev = ideal_channel(5.0, 31);
        let r = run_echo_session(&sched, &cfg, &mut fwd, &mut rev);
        assert!(r.rt_loss_pct() > 3.0, "loss {}", r.rt_loss_pct());
        assert!(r.lossy_slots() <= 3, "slots {}", r.lossy_slots());
    }

    #[test]
    fn streaming_session_matches_materialised() {
        // Driving the session off the lazy packet iterator must reproduce
        // the materialised-schedule run exactly (same RNG consumption).
        let cfg = SessionConfig::default();
        let run_lazy = || {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut fwd = lossy_channel(0.01, 50);
            let mut rev = lossy_channel(0.01, 51);
            let pkts = VideoSpec::HD1080.packets(SimTime::EPOCH, Dur::from_secs(120), &mut rng);
            run_echo_session(pkts, &cfg, &mut fwd, &mut rev)
        };
        let run_vec = || {
            let sched = schedule();
            let mut fwd = lossy_channel(0.01, 50);
            let mut rev = lossy_channel(0.01, 51);
            run_echo_session(&sched, &cfg, &mut fwd, &mut rev)
        };
        let (a, b) = (run_lazy(), run_vec());
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.returned, b.returned);
        assert_eq!(a.slot_losses, b.slot_losses);
        assert_eq!(a.jitter_ms, b.jitter_ms);
        assert_eq!(a.min_rtt_ms, b.min_rtt_ms);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let sched = schedule();
            let cfg = SessionConfig::default();
            let mut fwd = lossy_channel(0.005, 40);
            let mut rev = lossy_channel(0.005, 41);
            let r = run_echo_session(&sched, &cfg, &mut fwd, &mut rev);
            (r.sent, r.returned, r.slot_losses.clone())
        };
        assert_eq!(run(), run());
    }
}
