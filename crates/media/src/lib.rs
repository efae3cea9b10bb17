//! Video-conferencing media plane.
//!
//! The paper's Sec 5.1 experiment streams pre-recorded 720p/1080p HD video
//! conferences between custom SIP/RTP clients and echo servers, measuring
//! packet loss (overall and per 5-second slot) and RFC 3550 jitter. This
//! crate reproduces that tooling against simulated paths:
//!
//! * [`VideoSpec`] — 720p/1080p stream models: frame cadence, GOP
//!   structure, bitrate, RTP packetisation at a fixed MTU;
//! * [`rtp`] — minimal RTP packet bookkeeping (sequence numbers, 90 kHz
//!   timestamps) and the RFC 3550 interarrival-jitter estimator;
//! * [`session`] — the measuring client ↔ echo server loop over a pair of
//!   `vns-netsim` path channels, producing a [`SessionReport`] with
//!   exactly the metrics the paper plots: loss percentage (Fig 9), lossy
//!   5-second slot counts (Fig 10) and jitter (Sec 5.1.1);
//! * [`fec`] — XOR-parity forward error correction, and
//! * [`arq`] — deadline-bounded selective retransmission; both are the
//!   loss countermeasures the paper's related-work section discusses, with
//!   ablation benches showing where each works (random vs bursty loss).

pub mod arq;
pub mod fec;
pub mod rtp;
pub mod session;
pub mod signaling;
pub mod stream;

pub use arq::send_with_arq;
pub use fec::FecConfig;
pub use rtp::JitterEstimator;
pub use session::{run_echo_session, SessionConfig, SessionReport};
pub use signaling::{setup_call, teardown_call, SetupReport, TeardownReport};
pub use stream::{PacketIter, PacketSchedule, ScheduledPacket, VideoSpec};
