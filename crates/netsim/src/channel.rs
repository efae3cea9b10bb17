//! A traffic flow's view of a multi-hop path.
//!
//! `vns-topo` resolves a (source, destination) pair to a sequence of hops;
//! this module turns that sequence into something probes and media streams
//! can push packets through: each hop has a loss process, a delay sampler
//! and an optional blackout schedule, and a packet either dies at some hop
//! or arrives after the summed one-way delay.
//!
//! # The engine
//!
//! A per-packet send costs, naively, per hop: a blackout binary search, a
//! loss-process state step (diurnal trig for congestion models), a loss
//! draw and an exponential delay draw. The quantities driving those are
//! slowly varying — the diurnal curve moves over hours, the congestion
//! fluctuation is resampled every five minutes — so [`PathChannel`]
//! quantises them per hop on a fixed 1 s sim-time **epoch** into a
//! `HopEpoch` snapshot:
//!
//! * the per-packet loss probability, frozen at the epoch start, with loss
//!   realised by **geometric gap sampling**
//!   ([`LossProcess::gap_to_next_loss`]) instead of a Bernoulli draw per
//!   packet;
//! * the mean queueing delay (the only trig consumer on the delay side);
//! * the blackout segment containing the current time — cached but
//!   **exact**: window edges bound segments, so membership answers never
//!   quantise (see [`BlackoutSchedule::segment_at`]).
//!
//! There is one engine, `run_hops`: a structure-of-arrays pass over a live
//! set of up to [`BATCH_LEN`] packets held as two plain columns — running
//! clocks (`u64` nanoseconds) and original indices — with each hop making
//! one pass over them. Within a hop the engine detects **runs**: maximal
//! stretches of consecutive packets whose clocks fall inside the
//! intersection of the cached epoch and blackout segment. A blacked-out
//! run is dropped wholesale; a live run executes as a tight loop of one
//! `next_u64`, one table-driven draw ([`crate::delay`]), a multiply and a
//! min per packet. Lost packets are compacted out of the columns in stable
//! order, and each hop owns its delay RNG, so hop-major column order
//! consumes every stream exactly as a packet-at-a-time walk would.
//!
//! It has two doors: [`PathChannel::send_column`] (the columnar live-set
//! send every packet train uses — see [`crate::echo`] for the round-trip
//! form) and [`PathChannel::send`], a one-slot adapter for callers that
//! pick each send instant from the previous packet's fate (SIP
//! retransmission timers, ARQ). The per-packet state machines the engine
//! is specified against live outside production code, in
//! `tests/support/`: an exact per-packet reference and a per-packet
//! specification of the epoch semantics, both built from [`HopChannel`]'s
//! public fields.
//!
//! Packet counts go to the per-thread [`crate::ledger`] (flushed on channel
//! drop), so the hot loop never touches a shared cache line.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::arena::BatchScratch;
use crate::delay::DelaySampler;
use crate::fault::BlackoutSchedule;
use crate::loss::LossProcess;
use crate::time::{Dur, SimTime};

/// Quantisation epoch: 1 s, far below the 5-minute congestion fluctuation
/// correlation and the hour-scale diurnal curve the loss and delay models
/// already assume.
const EPOCH: Dur = Dur::from_secs(1);

/// Column width of the engine: the most packets one
/// [`PathChannel::send_column`] call takes. Large enough to amortise
/// per-chunk setup to noise, small enough that the scratch columns stay
/// L1/L2-resident.
pub const BATCH_LEN: usize = 1024;

/// Longest path a [`PathChannel`] accepts: the sparse loss column packs
/// the dropping hop's index into one byte.
pub const MAX_HOPS: usize = 255;

/// Packets sent through [`PathChannel`]s, as visible to this thread (see
/// [`crate::ledger::packets_sent`]).
pub fn packets_sent() -> u64 {
    crate::ledger::packets_sent()
}

/// One hop of a path, as seen by a single flow.
#[derive(Debug, Clone)]
pub struct HopChannel {
    /// Loss process (per-flow state).
    pub loss: LossProcess,
    /// Delay sampler.
    pub delay: DelaySampler,
    /// Blackout windows (shared schedule, e.g. convergence events on the
    /// underlying link).
    pub blackouts: BlackoutSchedule,
}

impl HopChannel {
    /// A lossless fixed-delay hop (useful in tests).
    pub fn ideal(base_ms: f64) -> Self {
        use crate::loss::LossModel;
        Self {
            loss: LossProcess::new(LossModel::None, SmallRng::seed_from_u64(0)),
            delay: DelaySampler::fixed(base_ms),
            blackouts: BlackoutSchedule::none(),
        }
    }
}

/// Outcome of sending one packet down a path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathOutcome {
    /// Delivered; arrival instant and one-way delay.
    Delivered {
        /// Arrival time at the destination.
        arrival: SimTime,
        /// Accumulated one-way delay.
        delay: Dur,
    },
    /// Lost at hop `hop` (index into the path).
    Lost {
        /// Index of the hop that dropped the packet.
        hop: usize,
    },
}

impl PathOutcome {
    /// True when the packet arrived.
    pub fn delivered(&self) -> bool {
        matches!(self, PathOutcome::Delivered { .. })
    }

    /// One-way delay in ms, `None` when lost.
    pub fn delay_ms(&self) -> Option<f64> {
        match self {
            PathOutcome::Delivered { delay, .. } => Some(delay.as_millis_f64()),
            PathOutcome::Lost { .. } => None,
        }
    }
}

/// Per-hop epoch snapshot: the slowly-varying quantities a packet consults,
/// frozen at the epoch start (see the module docs for what each caches).
#[derive(Debug, Clone)]
struct HopEpoch {
    /// Epoch validity `[valid_from, valid_until)`.
    valid_from: SimTime,
    valid_until: SimTime,
    /// Loss probability frozen at the epoch start.
    loss_p: f64,
    /// Packets that survive before the next loss (geometric gap).
    gap_left: u64,
    /// Mean queueing delay frozen at the epoch start, in nanoseconds (the
    /// scale the engine's clock arithmetic runs in).
    mean_queue_ns: f64,
    /// Cached blackout segment `[seg_lo, seg_hi)` — exact, not quantised.
    seg_lo: SimTime,
    seg_hi: SimTime,
    seg_blacked: bool,
}

impl HopEpoch {
    /// A snapshot no time falls into, forcing a refresh on first use.
    fn stale() -> Self {
        HopEpoch {
            valid_from: SimTime::MAX,
            valid_until: SimTime::EPOCH,
            loss_p: 0.0,
            gap_left: u64::MAX,
            mean_queue_ns: 0.0,
            seg_lo: SimTime::MAX,
            seg_hi: SimTime::EPOCH,
            seg_blacked: false,
        }
    }
}

/// Per-hop constants of the delay draw, hoisted out of the per-packet
/// loops into the nanosecond scale: the buffer cap, and the fixed base
/// with the half-up rounding term pre-added so a delay is one f64 add and
/// one truncating cast from its queue draw. Assembled identically by
/// [`DelaySampler::sample_ns`], which is what lets the test oracles
/// reproduce the engine's delays bit for bit from public parts.
#[derive(Clone, Copy)]
struct HopNs {
    cap_ns: f64,
    base_half_ns: f64,
}

impl HopNs {
    fn of(delay: &DelaySampler) -> Self {
        HopNs {
            cap_ns: delay.max_queue_ms * 1_000_000.0,
            base_half_ns: delay.base_ms * 1_000_000.0 + 0.5,
        }
    }
}

/// The innermost delay kernel: advances every clock in `run` by one
/// sampled hop delay, in place. Deliberately `inline(never)`: runs are
/// hundreds of packets long (one per epoch × blackout-segment intersection),
/// so the call is noise, while giving the loop its own frame keeps the
/// surrounding hop bookkeeping from spilling its registers — measured ~2×
/// on the per-packet cost over the inlined form.
#[inline(never)]
fn advance_run(
    run: &mut [u64],
    rng: &mut SmallRng,
    tables: &crate::delay::LnTables,
    mean_ns: f64,
    ns: HopNs,
) {
    for x in run.iter_mut() {
        let q = crate::delay::queue_draw(tables, mean_ns, ns.cap_ns, rng);
        *x += (ns.base_half_ns + q) as u64;
    }
}

/// Refreshes a hop's epoch snapshot for the epoch containing `now`.
fn refresh_epoch(hop: &mut HopChannel, ep: &mut HopEpoch, now: SimTime) {
    let e = EPOCH.as_nanos();
    let start = SimTime::from_nanos((now.as_nanos() / e) * e);
    ep.valid_from = start;
    ep.valid_until = start + EPOCH;
    ep.loss_p = hop.loss.loss_prob(start).clamp(0.0, 1.0);
    // Geometric gaps are memoryless: discarding the previous epoch's
    // unexhausted gap and re-drawing here preserves the loss distribution
    // even when loss_p did not change.
    ep.gap_left = hop.loss.gap_to_next_loss(ep.loss_p);
    ep.mean_queue_ns = hop.delay.mean_queue_ms(start) * 1_000_000.0;
}

/// A flow's multi-hop channel: owns per-hop state, shared by all packets of
/// the flow.
#[derive(Debug)]
pub struct PathChannel {
    hops: Vec<HopChannel>,
    /// One delay RNG per hop, seeded in hop order from the construction
    /// RNG. Hop-local streams are what let the engine process packets
    /// hop-major while consuming every stream in the exact order a
    /// packet-major walk does.
    delay_rngs: Vec<SmallRng>,
    cache: Vec<HopEpoch>,
    /// Locally counted packets, flushed to [`crate::ledger`] on drop.
    pending_count: u64,
}

impl Clone for PathChannel {
    fn clone(&self) -> Self {
        Self {
            hops: self.hops.clone(),
            delay_rngs: self.delay_rngs.clone(),
            cache: self.cache.clone(),
            // The clone has sent nothing yet; the original keeps (and will
            // flush) its own tally.
            pending_count: 0,
        }
    }
}

impl Drop for PathChannel {
    fn drop(&mut self) {
        if self.pending_count > 0 {
            crate::ledger::add_packets(self.pending_count);
        }
    }
}

impl PathChannel {
    /// Builds a channel; `rng` seeds the per-hop delay streams.
    ///
    /// # Panics
    ///
    /// When `hops` is longer than [`MAX_HOPS`]: the loss column could not
    /// name the dropping hop.
    pub fn new(hops: Vec<HopChannel>, mut rng: SmallRng) -> Self {
        assert!(
            hops.len() <= MAX_HOPS,
            "a path of {} hops exceeds MAX_HOPS ({MAX_HOPS})",
            hops.len()
        );
        let cache = vec![HopEpoch::stale(); hops.len()];
        let delay_rngs = hops
            .iter()
            .map(|_| SmallRng::seed_from_u64(rng.next_u64()))
            .collect();
        Self {
            hops,
            delay_rngs,
            cache,
            pending_count: 0,
        }
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Sends one packet at `sent`: a one-slot [`PathChannel::send_column`]
    /// (same engine, same RNG and loss-state consumption) read back as an
    /// outcome. For callers that choose each send instant from the previous
    /// packet's fate; packet trains belong on the columnar call.
    pub fn send(&mut self, sent: SimTime) -> PathOutcome {
        let mut cols = crate::arena::scratch();
        if self.send_column(&[sent.as_nanos()], &mut cols) == 1 {
            let arrival = SimTime::from_nanos(cols.now[0]);
            PathOutcome::Delivered {
                arrival,
                delay: arrival - sent,
            }
        } else {
            PathOutcome::Lost {
                hop: (cols.lost[0] & 0xff) as usize,
            }
        }
    }

    /// Columnar live-set send: pushes the packets whose send clocks (ns,
    /// send order, at most [`BATCH_LEN`]) are `sent_ns` down the path and
    /// returns the delivered count `k`, leaving the results in `cols` —
    /// `now[0..k]` holds arrival clocks in ns, `idx` the original-index
    /// map (empty = identity: delivered slot `j` is original packet `j`),
    /// `lost` one packed `(original index << 8) | hop` entry per dropped
    /// packet. The input is a plain clock column so a leg can be fed
    /// straight from the `now` column another leg left behind (see
    /// [`crate::echo`]).
    pub fn send_column(&mut self, sent_ns: &[u64], cols: &mut BatchScratch) -> usize {
        let BatchScratch { now, idx, lost } = cols;
        assert!(sent_ns.len() <= BATCH_LEN, "column sends are single-chunk");
        self.pending_count += sent_ns.len() as u64;
        now.clear();
        now.extend_from_slice(sent_ns);
        idx.clear();
        lost.clear();
        self.run_hops(now, idx, lost)
    }

    /// The engine: the hop passes over one pre-filled chunk of live
    /// columns. On entry `now` holds the chunk's send clocks (ns, send
    /// order) and `idx`/`lost` are empty; on return the first `live`
    /// (returned) slots of `now` are arrival clocks, `idx` is the
    /// original-index map — left empty (identity) when no packet was
    /// dropped, materialised lazily on the first drop — and `lost` gained
    /// one `(orig << 8) | hop` entry per drop. The chunk cap keeps `orig`
    /// comfortably inside the packed 24 bits; hop indices fit the low byte
    /// by construction ([`MAX_HOPS`]).
    fn run_hops(&mut self, now: &mut [u64], idx: &mut Vec<u32>, lost: &mut Vec<u32>) -> usize {
        debug_assert!(now.len() <= BATCH_LEN);
        debug_assert!(idx.is_empty());
        let n = now.len();
        let tables = crate::delay::ln_tables();
        let mut live = n;
        for (h, ((hop, ep), rng)) in self
            .hops
            .iter_mut()
            .zip(self.cache.iter_mut())
            .zip(self.delay_rngs.iter_mut())
            .enumerate()
        {
            if live == 0 {
                break;
            }
            let ns = HopNs::of(&hop.delay);
            // Work on a local copy of the hop RNG so the run loops keep its
            // 32-byte state in registers instead of round-tripping the Vec
            // slot through memory on every draw; written back after the
            // hop's passes.
            let mut hop_rng = rng.clone();
            let mut w = 0usize; // write cursor: live packets kept so far
            let mut r = 0usize; // read cursor
            while r < live {
                let t = SimTime::from_nanos(now[r]);
                // Per-packet resolution order of the specification:
                // segment containment, blackout short-circuit (no epoch
                // refresh, no loss draw), then epoch refresh.
                if t < ep.seg_lo || t >= ep.seg_hi {
                    let (lo, hi, blacked) = hop.blackouts.segment_at(t);
                    ep.seg_lo = lo;
                    ep.seg_hi = hi;
                    ep.seg_blacked = blacked;
                }
                if ep.seg_blacked {
                    if idx.is_empty() {
                        // First drop in the chunk: the mapping is still
                        // identity everywhere, so materialise it now.
                        idx.extend(0..n as u32);
                    }
                    let lo = ep.seg_lo.as_nanos();
                    let hi = ep.seg_hi.as_nanos();
                    while r < live && now[r] >= lo && now[r] < hi {
                        lost.push((idx[r] << 8) | h as u32);
                        r += 1;
                    }
                    continue;
                }
                if t < ep.valid_from || t >= ep.valid_until {
                    refresh_epoch(hop, ep, t);
                }
                // Run: consecutive packets inside both the epoch and the
                // (non-blacked) blackout segment share all cached state.
                let lo = ep.seg_lo.max(ep.valid_from).as_nanos();
                let hi = ep.seg_hi.min(ep.valid_until).as_nanos();
                let e = r
                    + 1
                    + now[r + 1..live]
                        .iter()
                        .position(|&x| x < lo || x >= hi)
                        .unwrap_or(live - r - 1);
                let mean = ep.mean_queue_ns;
                // A run survives wholesale when its loss gap outlasts it;
                // fold that case into the pure-delay path so lossy hops in
                // quiet epochs run the same tight loop as clean hops.
                let run_len = (e - r) as u64;
                let survives = ep.loss_p <= 0.0 || ep.gap_left >= run_len;
                if survives && w == r {
                    // Nothing has been compacted out of this hop yet, so
                    // clocks advance where they stand and `idx` is
                    // untouched: [`advance_run`] is one next_u64, one
                    // inverse-CDF interpolation, a multiply, a min and an
                    // in-place add per packet, with no bounds checks.
                    if ep.loss_p > 0.0 {
                        ep.gap_left -= run_len;
                    }
                    advance_run(&mut now[r..e], &mut hop_rng, tables, mean, ns);
                    w = e;
                } else if survives {
                    if ep.loss_p > 0.0 {
                        ep.gap_left -= run_len;
                    }
                    for j in r..e {
                        let q = crate::delay::queue_draw(tables, mean, ns.cap_ns, &mut hop_rng);
                        now[w] = now[j] + (ns.base_half_ns + q) as u64;
                        idx[w] = idx[j];
                        w += 1;
                    }
                } else {
                    if idx.is_empty() {
                        // As above: a loss is about to land in this run.
                        idx.extend(0..n as u32);
                    }
                    for j in r..e {
                        if ep.gap_left == 0 {
                            ep.gap_left = hop.loss.gap_to_next_loss(ep.loss_p);
                            lost.push((idx[j] << 8) | h as u32);
                        } else {
                            ep.gap_left -= 1;
                            let q = crate::delay::queue_draw(tables, mean, ns.cap_ns, &mut hop_rng);
                            now[w] = now[j] + (ns.base_half_ns + q) as u64;
                            idx[w] = idx[j];
                            w += 1;
                        }
                    }
                }
                r = e;
            }
            *rng = hop_rng;
            live = w;
        }
        live
    }

    /// Minimum possible one-way delay (sum of hop bases), ms — what a probe
    /// of `n` packets converges to as its observed minimum.
    pub fn base_delay_ms(&self) -> f64 {
        self.hops.iter().map(|h| h.delay.base_ms).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{LossModel, LossProcess};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn ideal_path_delivers_with_base_delay() {
        let mut ch = PathChannel::new(
            vec![HopChannel::ideal(10.0), HopChannel::ideal(20.0)],
            rng(1),
        );
        assert_eq!(ch.base_delay_ms(), 30.0);
        let out = ch.send(SimTime::EPOCH);
        let d = out.delay_ms().expect("delivered");
        assert!((30.0..31.5).contains(&d), "delay {d}");
    }

    #[test]
    fn lossy_hop_reports_index() {
        let mut hops = vec![HopChannel::ideal(1.0), HopChannel::ideal(1.0)];
        hops[1].loss = LossProcess::new(LossModel::Bernoulli { p: 1.0 }, rng(2));
        let mut ch = PathChannel::new(hops, rng(3));
        assert_eq!(ch.send(SimTime::EPOCH), PathOutcome::Lost { hop: 1 });
    }

    #[test]
    fn blackout_drops_everything_inside_window() {
        use crate::fault::BlackoutSchedule;
        let mut hop = HopChannel::ideal(1.0);
        let w0 = SimTime::EPOCH + Dur::from_secs(10);
        hop.blackouts = BlackoutSchedule::new(vec![(w0, w0 + Dur::from_secs(5))]);
        let mut ch = PathChannel::new(vec![hop], rng(4));
        assert!(ch.send(SimTime::EPOCH).delivered());
        assert!(!ch.send(w0 + Dur::from_secs(1)).delivered());
        assert!(ch.send(w0 + Dur::from_secs(6)).delivered());
    }

    #[test]
    fn delay_accumulates_across_hops() {
        // A packet reaches hop 2 later than it was sent; blackout on hop 2
        // starting after send time can still drop it.
        let hop1 = HopChannel::ideal(1000.0); // 1 second
        let mut hop2 = HopChannel::ideal(1.0);
        let w0 = SimTime::EPOCH + Dur::from_millis(500);
        hop2.blackouts = BlackoutSchedule::new(vec![(w0, w0 + Dur::from_secs(2))]);
        let mut ch = PathChannel::new(vec![hop1, hop2], rng(5));
        // Sent at t=0, arrives at hop2 at ~t=1s which is inside [0.5s, 2.5s).
        assert_eq!(ch.send(SimTime::EPOCH), PathOutcome::Lost { hop: 1 });
    }

    #[test]
    fn hop_count_is_bounded_at_construction() {
        // 255 hops is the longest path the packed loss column can name; a
        // drop at the last hop must come back attributed to it, and to the
        // right packet.
        let mut hops = vec![HopChannel::ideal(0.1); MAX_HOPS];
        hops[MAX_HOPS - 1].loss = LossProcess::new(LossModel::Bernoulli { p: 1.0 }, rng(6));
        let mut ch = PathChannel::new(hops, rng(7));
        assert_eq!(
            ch.send(SimTime::EPOCH),
            PathOutcome::Lost { hop: MAX_HOPS - 1 }
        );
        let mut cols = crate::arena::scratch();
        assert_eq!(ch.send_column(&[0, 1_000, 2_000], &mut cols), 0);
        assert_eq!(cols.lost, [254, (1 << 8) | 254, (2 << 8) | 254]);

        let refused = std::panic::catch_unwind(|| {
            PathChannel::new(vec![HopChannel::ideal(0.1); MAX_HOPS + 1], rng(8))
        });
        assert!(refused.is_err(), "a 256-hop channel must be refused");
    }

    #[test]
    fn packet_counter_flushes_on_drop() {
        // The ledger keeps unmerged counts thread-local, so concurrently
        // running tests on other threads cannot skew this delta.
        let before = packets_sent();
        {
            let mut ch = PathChannel::new(vec![HopChannel::ideal(1.0)], rng(10));
            for i in 0..37u64 {
                let _ = ch.send(SimTime::EPOCH + Dur::from_millis(i));
            }
            // A clone must not double-count the original's tally.
            let clone = ch.clone();
            drop(clone);
        }
        assert_eq!(packets_sent() - before, 37);
    }

    #[test]
    fn send_column_counts_packets() {
        let before = packets_sent();
        {
            let mut ch = PathChannel::new(vec![HopChannel::ideal(1.0)], rng(11));
            let mut cols = crate::arena::scratch();
            let sent: Vec<u64> = (0..500u64).map(|i| i * 1_000_000).collect();
            assert_eq!(ch.send_column(&sent, &mut cols), 500);
        }
        assert_eq!(packets_sent() - before, 500);
    }
}
