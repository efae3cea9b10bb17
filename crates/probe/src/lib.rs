//! Active measurement: the probing methods of the paper's Secs 4.1, 4.3
//! and 5.2, reproduced against simulated paths.
//!
//! * [`rtt_probe`] — "a probe consists of 5 ICMP ping packets, and we
//!   record the lowest observed round-trip time";
//! * [`loss_train`] — "each host is probed once every 10 minutes using 100
//!   packets that are sent back to back" (back-to-back spacing matters:
//!   bursty loss processes hit consecutive packets together);
//! * [`rounds`]/[`TrainSummary`] — probe-round scheduling over multi-day
//!   windows and campaign aggregation.

use vns_netsim::{echo_scratch, Dur, PathChannel, SimTime, BATCH_LEN};

/// Result of one RTT probe (n echo requests, min RTT kept).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttProbe {
    /// Echo requests sent.
    pub sent: u32,
    /// Echo replies received.
    pub received: u32,
    /// Minimum observed RTT, ms (`None` when everything was lost).
    pub min_rtt_ms: Option<f64>,
}

/// Sends `count` echo requests spaced `gap` apart at `start`; the reply
/// returns on `reverse`. Mirrors `ping -c count`.
pub fn rtt_probe(
    forward: &mut PathChannel,
    reverse: &mut PathChannel,
    start: SimTime,
    count: u32,
    gap: Dur,
) -> RttProbe {
    let mut received = 0;
    let mut min_rtt: Option<f64> = None;
    let pings = train_clocks(start, count, gap);
    let mut scratch = echo_scratch();
    for chunk in pings.chunks(BATCH_LEN) {
        let echo = scratch.round_trip(chunk, forward, reverse);
        received += echo.back.len() as u32;
        for (i, back_ns) in echo.returned() {
            let rtt = Dur::from_nanos(back_ns - chunk[i]).as_millis_f64();
            min_rtt = Some(min_rtt.map_or(rtt, |m: f64| m.min(rtt)));
        }
    }
    RttProbe {
        sent: count,
        received,
        min_rtt_ms: min_rtt,
    }
}

/// Send clocks (ns) of `count` packets spaced `gap` apart from `start`.
fn train_clocks(start: SimTime, count: u32, gap: Dur) -> Vec<u64> {
    (0..count)
        .map(|i| (start + gap.mul(u64::from(i))).as_nanos())
        .collect()
}

/// The paper's standard RTT probe: 5 pings, 200 ms apart.
pub fn rtt_probe_std(
    forward: &mut PathChannel,
    reverse: &mut PathChannel,
    start: SimTime,
) -> RttProbe {
    rtt_probe(forward, reverse, start, 5, Dur::from_millis(200))
}

/// Result of one back-to-back loss train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossTrain {
    /// When the train started.
    pub at: SimTime,
    /// Packets sent.
    pub sent: u32,
    /// Packets lost (either direction of the echo).
    pub lost: u32,
}

impl LossTrain {
    /// Loss fraction of this round.
    pub fn loss_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            f64::from(self.lost) / f64::from(self.sent)
        }
    }

    /// Whether the round saw any loss (Fig 12 counts rounds, not packets).
    pub fn lossy(&self) -> bool {
        self.lost > 0
    }
}

/// Sends `count` echo requests back-to-back (wire-rate ~0.1 ms spacing) and
/// counts round-trip losses.
pub fn loss_train(
    forward: &mut PathChannel,
    reverse: &mut PathChannel,
    at: SimTime,
    count: u32,
) -> LossTrain {
    let train = train_clocks(at, count, Dur::from_micros(100));
    let mut scratch = echo_scratch();
    let mut lost = 0;
    for chunk in train.chunks(BATCH_LEN) {
        let echo = scratch.round_trip(chunk, forward, reverse);
        lost += (chunk.len() - echo.back.len()) as u32;
    }
    LossTrain {
        at,
        sent: count,
        lost,
    }
}

/// Probe-round start times: every `interval` over `[start, start+span)`.
pub fn rounds(start: SimTime, interval: Dur, span: Dur) -> Vec<SimTime> {
    let n = span.div_count(interval);
    (0..n).map(|i| start + interval.mul(i)).collect()
}

/// A summary over many loss trains to one target.
#[derive(Debug, Clone, Default)]
pub struct TrainSummary {
    /// Rounds run.
    pub rounds: u32,
    /// Rounds with any loss.
    pub lossy_rounds: u32,
    /// Total packets sent.
    pub sent: u64,
    /// Total packets lost.
    pub lost: u64,
}

impl TrainSummary {
    /// Folds one train in.
    pub fn add(&mut self, t: &LossTrain) {
        self.rounds += 1;
        if t.lossy() {
            self.lossy_rounds += 1;
        }
        self.sent += u64::from(t.sent);
        self.lost += u64::from(t.lost);
    }

    /// Average loss fraction over all packets.
    pub fn avg_loss_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vns_netsim::{HopChannel, LossModel, LossProcess};

    fn ideal(ms: f64, seed: u64) -> PathChannel {
        PathChannel::new(vec![HopChannel::ideal(ms)], SmallRng::seed_from_u64(seed))
    }

    fn lossy(p: f64, seed: u64) -> PathChannel {
        let mut hop = HopChannel::ideal(5.0);
        hop.loss = LossProcess::new(LossModel::Bernoulli { p }, SmallRng::seed_from_u64(seed));
        PathChannel::new(vec![hop], SmallRng::seed_from_u64(seed + 1))
    }

    #[test]
    fn rtt_probe_measures_base_delay() {
        let mut f = ideal(25.0, 1);
        let mut r = ideal(25.0, 2);
        let p = rtt_probe_std(&mut f, &mut r, SimTime::EPOCH);
        assert_eq!(p.received, 5);
        let rtt = p.min_rtt_ms.unwrap();
        assert!((50.0..51.5).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn min_of_five_below_mean() {
        // With jitter, min of 5 samples is below the average sample.
        let mut f = ideal(25.0, 3);
        let mut r = ideal(25.0, 4);
        let mut mins = Vec::new();
        for i in 0..50u64 {
            let t = SimTime::EPOCH + Dur::from_secs(i * 10);
            mins.push(rtt_probe_std(&mut f, &mut r, t).min_rtt_ms.unwrap());
        }
        let avg_min: f64 = mins.iter().sum::<f64>() / mins.len() as f64;
        assert!(avg_min < 50.6, "avg of mins {avg_min}");
    }

    #[test]
    fn total_loss_yields_none() {
        let mut f = lossy(1.0, 5);
        let mut r = ideal(5.0, 6);
        let p = rtt_probe_std(&mut f, &mut r, SimTime::EPOCH);
        assert_eq!(p.received, 0);
        assert_eq!(p.min_rtt_ms, None);
    }

    #[test]
    fn loss_train_counts() {
        let mut f = lossy(0.1, 7);
        let mut r = ideal(5.0, 8);
        let t = loss_train(&mut f, &mut r, SimTime::EPOCH, 100);
        assert_eq!(t.sent, 100);
        assert!(t.lost >= 3 && t.lost <= 20, "lost {}", t.lost);
        assert!(t.lossy());
        assert!((t.loss_frac() - f64::from(t.lost) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn rounds_schedule() {
        let r = rounds(SimTime::EPOCH, Dur::from_mins(10), Dur::from_hours(1));
        assert_eq!(r.len(), 6);
        assert_eq!(r[1] - r[0], Dur::from_mins(10));
    }

    #[test]
    fn summary_folds() {
        let mut s = TrainSummary::default();
        s.add(&LossTrain {
            at: SimTime::EPOCH,
            sent: 100,
            lost: 0,
        });
        s.add(&LossTrain {
            at: SimTime::EPOCH,
            sent: 100,
            lost: 10,
        });
        assert_eq!(s.rounds, 2);
        assert_eq!(s.lossy_rounds, 1);
        assert!((s.avg_loss_frac() - 0.05).abs() < 1e-12);
    }
}
