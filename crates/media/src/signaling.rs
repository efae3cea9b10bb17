//! SIP-style call signalling over lossy paths.
//!
//! The paper's media relays are "TURN relays, SIP B2BUA, or Multipoint
//! Conferencing Units"; users authenticate to the anycast TURN address and
//! set calls up with SIP (Sec 3.1, Sec 4.4 measures the authentication
//! requests). This module models the latency-relevant part of that
//! signalling: an INVITE transaction with RFC 3261 timer-A
//! retransmissions (T1 = 500 ms doubling), a provisional response, a final
//! 200, and the ACK. Packet loss on the signalling path turns directly
//! into call-setup delay — a second-order cost of lossy transport that
//! loss percentages alone don't show.

use vns_netsim::{Dur, PathChannel, PathOutcome, SimTime};

/// RFC 3261 T1.
pub const SIP_T1: Dur = Dur::from_millis(500);
/// Timer B: transaction timeout = 64 × T1.
pub const SIP_TIMER_B: Dur = Dur::from_millis(64 * 500);

/// Result of one call-setup attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupReport {
    /// Did the call set up before timer B?
    pub established: bool,
    /// Time from first INVITE to receiving the 200 OK, ms.
    pub setup_ms: f64,
    /// INVITE retransmissions needed.
    pub invite_retransmissions: u32,
    /// Total signalling messages put on the wire (both directions).
    pub messages_sent: u32,
}

/// One signalling round trip: request out, response back. Returns the
/// response arrival time if both legs survive.
fn transact(
    fwd: &mut PathChannel,
    rev: &mut PathChannel,
    at: SimTime,
    messages: &mut u32,
) -> Option<SimTime> {
    *messages += 1;
    let PathOutcome::Delivered { arrival, .. } = fwd.send(at) else {
        return None;
    };
    *messages += 1;
    match rev.send(arrival) {
        PathOutcome::Delivered { arrival, .. } => Some(arrival),
        PathOutcome::Lost { .. } => None,
    }
}

/// Runs an INVITE transaction starting at `start`: retransmit on T1
/// doubling until a 200 round trip completes or timer B fires, then ACK.
pub fn setup_call(fwd: &mut PathChannel, rev: &mut PathChannel, start: SimTime) -> SetupReport {
    let deadline = start + SIP_TIMER_B;
    let mut messages = 0u32;
    let mut retransmissions = 0u32;
    let mut attempt_at = start;
    let mut interval = SIP_T1;
    loop {
        if let Some(ok_at) = transact(fwd, rev, attempt_at, &mut messages) {
            // ACK (fire and forget).
            messages += 1;
            let _ = fwd.send(ok_at);
            return SetupReport {
                established: true,
                setup_ms: (ok_at - start).as_millis_f64(),
                invite_retransmissions: retransmissions,
                messages_sent: messages,
            };
        }
        attempt_at += interval;
        interval = interval + interval; // T1 doubling
        retransmissions += 1;
        if attempt_at >= deadline {
            return SetupReport {
                established: false,
                setup_ms: (deadline - start).as_millis_f64(),
                invite_retransmissions: retransmissions,
                messages_sent: messages,
            };
        }
    }
}

/// Result of one BYE teardown exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeardownReport {
    /// The far end confirmed the BYE with a 200 before timer F.
    pub confirmed: bool,
    /// Time from first BYE to the 200 arriving, ms (timer F on failure).
    pub teardown_ms: f64,
    /// Signalling messages put on the wire (both directions).
    pub messages_sent: u32,
}

/// Runs a BYE transaction at `start`: retransmit on T1 doubling until a
/// 200 round trip completes or timer F (= 64 × T1, RFC 3261 non-INVITE
/// timeout) fires. Either way the session is torn down locally — an
/// unconfirmed BYE only means the relay holds the port until its own
/// timeout, which is why the service plane frees capacity at the
/// *scheduled* departure instant, not at BYE confirmation.
pub fn teardown_call(
    fwd: &mut PathChannel,
    rev: &mut PathChannel,
    start: SimTime,
) -> TeardownReport {
    let deadline = start + SIP_TIMER_B; // timer F has the same 64*T1 value
    let mut messages = 0u32;
    let mut attempt_at = start;
    let mut interval = SIP_T1;
    loop {
        if let Some(ok_at) = transact(fwd, rev, attempt_at, &mut messages) {
            return TeardownReport {
                confirmed: true,
                teardown_ms: (ok_at - start).as_millis_f64(),
                messages_sent: messages,
            };
        }
        attempt_at += interval;
        interval = interval + interval;
        if attempt_at >= deadline {
            return TeardownReport {
                confirmed: false,
                teardown_ms: (deadline - start).as_millis_f64(),
                messages_sent: messages,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vns_netsim::{HopChannel, LossModel, LossProcess};

    fn channel(base_ms: f64, p: f64, seed: u64) -> PathChannel {
        let mut hop = HopChannel::ideal(base_ms);
        hop.loss = LossProcess::new(LossModel::Bernoulli { p }, SmallRng::seed_from_u64(seed));
        PathChannel::new(vec![hop], SmallRng::seed_from_u64(seed + 1))
    }

    #[test]
    fn clean_path_sets_up_in_one_rtt() {
        let mut fwd = channel(40.0, 0.0, 1);
        let mut rev = channel(40.0, 0.0, 2);
        let r = setup_call(&mut fwd, &mut rev, SimTime::EPOCH);
        assert!(r.established);
        assert_eq!(r.invite_retransmissions, 0);
        assert!(r.setup_ms >= 80.0 && r.setup_ms < 83.0, "{}", r.setup_ms);
        assert_eq!(r.messages_sent, 3); // INVITE, 200, ACK
    }

    #[test]
    fn loss_inflates_setup_time() {
        // 20% loss: many setups need a 500 ms (or longer) retransmission.
        // At this loss rate a rare setup can exhaust timer B (~1.4% per
        // call), so tolerate a handful of failures rather than asserting
        // every single one establishes.
        let mut slow = 0;
        let mut established = 0;
        let mut fwd = channel(30.0, 0.2, 3);
        let mut rev = channel(30.0, 0.2, 4);
        let mut t = SimTime::EPOCH;
        for _ in 0..200 {
            let r = setup_call(&mut fwd, &mut rev, t);
            if r.established {
                established += 1;
            }
            if r.setup_ms > 400.0 {
                slow += 1;
            }
            t += Dur::from_secs(60);
        }
        assert!(established >= 195, "established {established}/200");
        assert!((40..150).contains(&slow), "slow setups {slow}");
    }

    #[test]
    fn dead_path_times_out_at_timer_b() {
        let mut fwd = channel(10.0, 1.0, 5);
        let mut rev = channel(10.0, 0.0, 6);
        let r = setup_call(&mut fwd, &mut rev, SimTime::EPOCH);
        assert!(!r.established);
        assert!(r.setup_ms <= SIP_TIMER_B.as_millis_f64() + 1e-6);
        assert!(
            r.invite_retransmissions >= 6,
            "{}",
            r.invite_retransmissions
        );
    }

    #[test]
    fn teardown_is_one_round_trip_when_clean() {
        let mut fwd = channel(35.0, 0.0, 11);
        let mut rev = channel(35.0, 0.0, 12);
        let r = teardown_call(&mut fwd, &mut rev, SimTime::EPOCH);
        assert!(r.confirmed);
        assert_eq!(r.messages_sent, 2); // BYE, 200
        assert!((70.0..74.0).contains(&r.teardown_ms), "{}", r.teardown_ms);
    }

    #[test]
    fn teardown_gives_up_at_timer_f() {
        let mut fwd = channel(10.0, 1.0, 13);
        let mut rev = channel(10.0, 0.0, 14);
        let r = teardown_call(&mut fwd, &mut rev, SimTime::EPOCH);
        assert!(!r.confirmed);
        assert!(r.teardown_ms <= SIP_TIMER_B.as_millis_f64() + 1e-6);
        assert!(r.messages_sent >= 6, "{}", r.messages_sent);
    }
}
