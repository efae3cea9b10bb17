//! Video stream models and RTP packet schedules.
//!
//! The paper streams "actual recordings of 720p and 1080p HD video
//! conferences … captured on industry-standard professional video
//! equipment". We model such a recording statistically: constant frame
//! cadence, an I/P GOP structure with large I-frames, lognormal-ish size
//! variation around the target bitrate, and packetisation into MTU-sized
//! RTP packets sent back-to-back per frame.

use rand::rngs::SmallRng;
use rand::Rng;
use vns_netsim::{Dur, SimTime};

/// A video stream class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoSpec {
    /// Human name (`"1080p"`).
    pub name: &'static str,
    /// Target video bitrate, bits/s.
    pub bitrate_bps: f64,
    /// Frames per second.
    pub fps: f64,
    /// Frames per GOP (one leading I-frame each).
    pub gop: usize,
    /// I-frame size relative to a P-frame.
    pub i_frame_ratio: f64,
    /// RTP payload bytes per packet.
    pub mtu_payload: usize,
}

impl VideoSpec {
    /// 1080p HD conference stream (~4 Mb/s).
    pub const HD1080: VideoSpec = VideoSpec {
        name: "1080p",
        bitrate_bps: 4.0e6,
        fps: 30.0,
        gop: 30,
        i_frame_ratio: 5.0,
        mtu_payload: 1200,
    };

    /// 720p HD conference stream (~2.2 Mb/s) — fewer, therefore
    /// jitter-sensitive, packets (Sec 5.1.1).
    pub const HD720: VideoSpec = VideoSpec {
        name: "720p",
        bitrate_bps: 2.2e6,
        fps: 30.0,
        gop: 30,
        i_frame_ratio: 5.0,
        mtu_payload: 1200,
    };

    /// Mean P-frame size in bytes, derived from the bitrate and GOP
    /// structure.
    pub fn mean_p_frame_bytes(&self) -> f64 {
        // Per GOP: 1 I-frame (= ratio * p) + (gop-1) P-frames.
        let frames_per_sec = self.fps;
        let bytes_per_sec = self.bitrate_bps / 8.0;
        let bytes_per_frame_avg = bytes_per_sec / frames_per_sec;
        let weight = (self.i_frame_ratio + (self.gop as f64 - 1.0)) / self.gop as f64;
        bytes_per_frame_avg / weight
    }

    /// Generates the packet send schedule for a session of `duration`
    /// starting at `start`. Frame sizes vary ±20% around their class mean;
    /// packets of one frame leave back-to-back at a 100 µs pacing.
    ///
    /// This materialises [`VideoSpec::packets`] into a `Vec` — a 2-minute
    /// 1080p session is ~51k packets (~1.6 MB). Session runners should
    /// prefer the lazy iterator; the materialised form remains for call
    /// sites that index or re-walk the schedule.
    pub fn schedule(&self, start: SimTime, duration: Dur, rng: &mut SmallRng) -> PacketSchedule {
        PacketSchedule {
            packets: self.packets(start, duration, rng).collect(),
        }
    }

    /// Lazily yields the same packet sequence as [`VideoSpec::schedule`],
    /// in send order, without materialising it. Draws exactly one frame-size
    /// variate per frame from `rng`, in frame order — identical RNG
    /// consumption to `schedule`, so the two are interchangeable under a
    /// shared seed.
    pub fn packets<'r>(
        &self,
        start: SimTime,
        duration: Dur,
        rng: &'r mut SmallRng,
    ) -> PacketIter<'r> {
        let frame_interval = Dur::from_millis_f64(1000.0 / self.fps);
        PacketIter {
            spec: *self,
            rng,
            pacing: Dur::from_micros(100),
            frame_interval,
            p_bytes: self.mean_p_frame_bytes(),
            n_frames: duration.div_count(frame_interval) as usize,
            next_frame: 0,
            frame_start: start,
            frame_size: 0,
            n_pkts: 0,
            k: 0,
        }
    }
}

/// Batched source of packet send clocks (nanoseconds, the packet engine's
/// column format) — the one packet attribute the echo session consumes. Implemented natively by [`PacketIter`] (which
/// fills a whole frame per inner loop, skipping per-packet struct
/// assembly) and generically by the materialised schedule's iterator.
pub trait PacketFeed {
    /// Appends up to `cap` send clocks (ns) to `out` in send order. Returns
    /// the number appended; `0` means the source is exhausted.
    fn fill_times(&mut self, out: &mut Vec<u64>, cap: usize) -> usize;
}

impl PacketFeed for PacketIter<'_> {
    fn fill_times(&mut self, out: &mut Vec<u64>, cap: usize) -> usize {
        let mut left = cap;
        while left > 0 {
            while self.k >= self.n_pkts {
                if self.next_frame >= self.n_frames {
                    return cap - left;
                }
                if self.next_frame > 0 {
                    self.frame_start += self.frame_interval;
                }
                let base = if self.next_frame.is_multiple_of(self.spec.gop) {
                    self.p_bytes * self.spec.i_frame_ratio
                } else {
                    self.p_bytes
                };
                self.frame_size = (base * self.rng.gen_range(0.8..1.2)).max(64.0) as usize;
                self.n_pkts = self.frame_size.div_ceil(self.spec.mtu_payload);
                self.k = 0;
                self.next_frame += 1;
            }
            let take = (self.n_pkts - self.k).min(left);
            // Packets of one frame leave back-to-back at `pacing`; emit the
            // run with an incremental add (identical ns arithmetic to
            // `frame_start + pacing.mul(k)`).
            let mut t = (self.frame_start + self.pacing.mul(self.k as u64)).as_nanos();
            for _ in 0..take {
                out.push(t);
                t += self.pacing.as_nanos();
            }
            self.k += take;
            left -= take;
        }
        cap
    }
}

impl PacketFeed for std::iter::Copied<std::slice::Iter<'_, ScheduledPacket>> {
    fn fill_times(&mut self, out: &mut Vec<u64>, cap: usize) -> usize {
        let before = out.len();
        out.extend(self.by_ref().take(cap).map(|p| p.sent.as_nanos()));
        out.len() - before
    }
}

/// Lazy packet generator for one stream (see [`VideoSpec::packets`]).
#[derive(Debug)]
pub struct PacketIter<'r> {
    spec: VideoSpec,
    rng: &'r mut SmallRng,
    pacing: Dur,
    frame_interval: Dur,
    p_bytes: f64,
    n_frames: usize,
    /// Next frame to start (frames `0..next_frame` are begun or done).
    next_frame: usize,
    /// Send instant of the current frame's first packet.
    frame_start: SimTime,
    frame_size: usize,
    n_pkts: usize,
    /// Next packet index within the current frame.
    k: usize,
}

impl Iterator for PacketIter<'_> {
    type Item = ScheduledPacket;

    fn next(&mut self) -> Option<ScheduledPacket> {
        while self.k >= self.n_pkts {
            if self.next_frame >= self.n_frames {
                return None;
            }
            if self.next_frame > 0 {
                self.frame_start += self.frame_interval;
            }
            let base = if self.next_frame.is_multiple_of(self.spec.gop) {
                self.p_bytes * self.spec.i_frame_ratio
            } else {
                self.p_bytes
            };
            self.frame_size = (base * self.rng.gen_range(0.8..1.2)).max(64.0) as usize;
            self.n_pkts = self.frame_size.div_ceil(self.spec.mtu_payload);
            self.k = 0;
            self.next_frame += 1;
        }
        let k = self.k;
        self.k += 1;
        let payload = if k + 1 == self.n_pkts {
            self.frame_size - self.spec.mtu_payload * (self.n_pkts - 1)
        } else {
            self.spec.mtu_payload
        };
        Some(ScheduledPacket {
            sent: self.frame_start + self.pacing.mul(k as u64),
            payload_bytes: payload,
            frame: (self.next_frame - 1) as u32,
        })
    }
}

/// One packet in a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledPacket {
    /// Send instant.
    pub sent: SimTime,
    /// Payload bytes.
    pub payload_bytes: usize,
    /// Frame index the packet belongs to.
    pub frame: u32,
}

/// The full send schedule of one stream.
#[derive(Debug, Clone)]
pub struct PacketSchedule {
    /// Packets in send order.
    pub packets: Vec<ScheduledPacket>,
}

impl PacketSchedule {
    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

impl<'a> IntoIterator for &'a PacketSchedule {
    type Item = ScheduledPacket;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, ScheduledPacket>>;

    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn bitrate_roughly_met() {
        let spec = VideoSpec::HD1080;
        let sched = spec.schedule(SimTime::EPOCH, Dur::from_secs(120), &mut rng());
        let bytes: usize = sched.packets.iter().map(|p| p.payload_bytes).sum();
        let bits = bytes as f64 * 8.0;
        let rate = bits / 120.0;
        assert!(
            (rate - spec.bitrate_bps).abs() / spec.bitrate_bps < 0.1,
            "rate {rate}"
        );
    }

    #[test]
    fn packets_in_time_order_and_window() {
        let spec = VideoSpec::HD720;
        let start = SimTime::EPOCH + Dur::from_hours(5);
        let sched = spec.schedule(start, Dur::from_secs(10), &mut rng());
        assert!(!sched.is_empty());
        for w in sched.packets.windows(2) {
            assert!(w[0].sent <= w[1].sent);
        }
        assert!(sched.packets.first().unwrap().sent >= start);
        assert!(sched.packets.last().unwrap().sent < start + Dur::from_secs(10));
    }

    #[test]
    fn i_frames_bigger() {
        let spec = VideoSpec::HD1080;
        let sched = spec.schedule(SimTime::EPOCH, Dur::from_secs(4), &mut rng());
        let frame_pkts = |f: u32| sched.packets.iter().filter(|p| p.frame == f).count();
        // Frame 0 is an I-frame, frame 1 a P-frame.
        assert!(frame_pkts(0) >= 3 * frame_pkts(1));
    }

    #[test]
    fn packet_counts_by_definition() {
        // 720p streams have fewer packets than 1080p over the same window.
        let s720 = VideoSpec::HD720.schedule(SimTime::EPOCH, Dur::from_secs(30), &mut rng());
        let s1080 = VideoSpec::HD1080.schedule(SimTime::EPOCH, Dur::from_secs(30), &mut rng());
        assert!(s720.len() < s1080.len());
    }

    #[test]
    fn lazy_iterator_matches_materialised_schedule() {
        for spec in [VideoSpec::HD720, VideoSpec::HD1080] {
            let start = SimTime::EPOCH + Dur::from_hours(7);
            let dur = Dur::from_secs(20);
            let sched = spec.schedule(start, dur, &mut rng());
            let lazy: Vec<ScheduledPacket> = spec.packets(start, dur, &mut rng()).collect();
            assert_eq!(sched.packets, lazy, "{}", spec.name);
        }
    }

    #[test]
    fn mean_p_frame_consistent() {
        let spec = VideoSpec::HD1080;
        let p = spec.mean_p_frame_bytes();
        let per_gop = p * spec.i_frame_ratio + p * (spec.gop as f64 - 1.0);
        let rate = per_gop * 8.0 * (spec.fps / spec.gop as f64);
        assert!((rate - spec.bitrate_bps).abs() / spec.bitrate_bps < 1e-9);
    }
}
