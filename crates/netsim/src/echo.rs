//! One echo round trip over a channel pair.
//!
//! Every measurement in the paper is this operation: put a packet train on
//! a path, have the far end send each arrival straight back, and count
//! what returns and when (Sec 4.1's RTT probes, Sec 5.2's last-mile
//! trains, Sec 5.1's media sessions through echo servers). The forward
//! leg's delivered `now` column *is* the reverse leg's send column, so the
//! two [`PathChannel::send_column`] calls chain with nothing but column
//! reads; the one piece of bookkeeping — a reverse-leg index addresses the
//! forward leg's delivered set, not the original train — is resolved here,
//! once, so callers only ever see original packet indices.

use crate::arena::{scratch, Scratch};
use crate::channel::PathChannel;

/// Pooled columns for echo round trips (both legs' [`crate::BatchScratch`]
/// blocks); reuse one across all the chunks of a train.
#[derive(Debug)]
pub struct EchoScratch {
    fwd: Scratch,
    rev: Scratch,
}

/// Takes the two leg blocks from the current thread's pool.
pub fn echo_scratch() -> EchoScratch {
    EchoScratch {
        fwd: scratch(),
        rev: scratch(),
    }
}

/// What one chunk's round trip produced. Every index is an **original**
/// index into the `sent_ns` slice the round trip was given.
#[derive(Debug, Clone, Copy)]
pub struct Echo<'a> {
    /// Packets that reached the far end.
    pub delivered_out: usize,
    /// Return clocks (ns) of the packets that made it back, in send order.
    pub back: &'a [u64],
    /// Original index of each `back` slot — or empty for the identity
    /// mapping (nothing was lost on either leg: slot `j` is packet `j`),
    /// which lets callers keep a branch-free loop for the common case.
    pub orig: &'a [u32],
    /// Forward-leg drops, packed `(original index << 8) | hop`.
    pub lost_fwd: &'a [u32],
    /// Reverse-leg drops, packed `(original index << 8) | reverse hop`.
    pub lost_rev: &'a [u32],
}

impl EchoScratch {
    /// Sends the packets whose send clocks (ns, send order, at most
    /// [`crate::BATCH_LEN`]) are `sent_ns` down `forward` and echoes every
    /// arrival back on `reverse` at its arrival instant.
    pub fn round_trip(
        &mut self,
        sent_ns: &[u64],
        forward: &mut PathChannel,
        reverse: &mut PathChannel,
    ) -> Echo<'_> {
        let (fwd, rev) = (&mut *self.fwd, &mut *self.rev);
        let k = forward.send_column(sent_ns, fwd);
        let m = reverse.send_column(&fwd.now[..k], rev);
        if !fwd.idx.is_empty() {
            // The reverse leg numbered its packets by forward delivered
            // slot; chase those through the forward map to the originals.
            for pk in rev.lost.iter_mut() {
                *pk = (fwd.idx[(*pk >> 8) as usize] << 8) | (*pk & 0xff);
            }
            for i in rev.idx.iter_mut() {
                *i = fwd.idx[*i as usize];
            }
        }
        let orig: &[u32] = if !rev.idx.is_empty() {
            &rev.idx[..m]
        } else if !fwd.idx.is_empty() {
            &fwd.idx[..k]
        } else {
            &[]
        };
        Echo {
            delivered_out: k,
            back: &rev.now[..m],
            orig,
            lost_fwd: &fwd.lost,
            lost_rev: &rev.lost,
        }
    }
}

impl Echo<'_> {
    /// `(original index, return clock in ns)` of every packet that made it
    /// back, in send order. Hot loops should branch on `orig.is_empty()`
    /// themselves; this is the convenient form for short trains.
    pub fn returned(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.back.iter().enumerate().map(|(j, &back)| {
            let orig = self.orig.get(j).map_or(j, |&i| i as usize);
            (orig, back)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::HopChannel;
    use crate::fault::BlackoutSchedule;
    use crate::time::{Dur, SimTime};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn channel(hop: HopChannel, seed: u64) -> PathChannel {
        PathChannel::new(vec![hop], SmallRng::seed_from_u64(seed))
    }

    #[test]
    fn lossless_round_trip_is_identity() {
        let mut fwd = channel(HopChannel::ideal(10.0), 1);
        let mut rev = channel(HopChannel::ideal(20.0), 2);
        let sent: Vec<u64> = (0..50u64).map(|i| i * 1_000_000).collect();
        let mut scratch = echo_scratch();
        let echo = scratch.round_trip(&sent, &mut fwd, &mut rev);
        assert_eq!(echo.delivered_out, 50);
        assert!(echo.orig.is_empty() && echo.lost_fwd.is_empty() && echo.lost_rev.is_empty());
        for (orig, back) in echo.returned() {
            let rtt_ms = (back - sent[orig]) as f64 * 1e-6;
            assert!((30.0..31.5).contains(&rtt_ms), "rtt {rtt_ms}");
        }
    }

    #[test]
    fn reverse_losses_are_keyed_by_original_index() {
        // Forward drops packets 2..4 (blackout at send time); reverse
        // drops whatever arrives inside its own window — forward delivered
        // slots 4..6, which are original packets 6..8.
        let ms = |m: u64| SimTime::EPOCH + Dur::from_millis(m);
        let mut f = HopChannel::ideal(10.0);
        f.blackouts = BlackoutSchedule::new(vec![(ms(200), ms(400))]);
        let mut r = HopChannel::ideal(10.0);
        r.blackouts = BlackoutSchedule::new(vec![(ms(605), ms(805))]);
        let (mut fwd, mut rev) = (channel(f, 3), channel(r, 4));
        let sent: Vec<u64> = (0..10u64).map(|i| ms(i * 100).as_nanos()).collect();
        let mut scratch = echo_scratch();
        let echo = scratch.round_trip(&sent, &mut fwd, &mut rev);
        assert_eq!(echo.delivered_out, 8);
        assert_eq!(echo.lost_fwd, [2 << 8, 3 << 8]);
        assert_eq!(echo.lost_rev, [6 << 8, 7 << 8]);
        assert_eq!(echo.orig, [0, 1, 4, 5, 8, 9]);
        let origs: Vec<usize> = echo.returned().map(|(o, _)| o).collect();
        assert_eq!(origs, [0, 1, 4, 5, 8, 9]);
    }
}
