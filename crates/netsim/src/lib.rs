//! Deterministic discrete-event network simulation substrate.
//!
//! The paper's evaluation ran on a production global network; this crate is
//! the laptop-scale stand-in. It provides the pieces every campaign needs:
//!
//! * [`SimTime`]/[`Dur`] — nanosecond simulation clock with calendar helpers
//!   (hour-of-day drives the diurnal congestion models of Fig 12);
//! * [`RngTree`] — a master seed fanned out into independent, reproducible
//!   per-component streams;
//! * [`EventQueue`]/[`Engine`] — a classic discrete-event loop with
//!   deterministic FIFO tie-breaking;
//! * [`DiurnalProfile`] — time-of-day utilisation curves (business,
//!   residential, flat) that shape congestion loss;
//! * [`LossModel`]/[`LossProcess`] — Bernoulli, Gilbert–Elliott bursty and
//!   congestion-coupled loss processes;
//! * [`Par`]/[`par_map`] — deterministic parallel map over independent
//!   campaign work units (byte-identical output at any thread count);
//! * [`DelaySampler`] — propagation + utilisation-dependent queueing delay;
//! * [`HopChannel`]/[`PathChannel`] — a packet's eye view of a multi-hop
//!   path, used by both the probing and media crates: one columnar
//!   structure-of-arrays engine behind [`PathChannel::send_column`], with
//!   [`PathChannel::send`] as its single-packet adapter;
//! * [`echo`] — the forward→reverse echo round trip every probe and media
//!   session is built from, results keyed by original packet index;
//! * [`ledger`] — per-thread packet/unit throughput cells, merged in
//!   canonical worker order at `par_map` joins;
//! * [`arena`] — recycled per-thread scratch blocks backing the engine
//!   (no allocation on the steady-state session path);
//! * [`fault`] — scheduled blackout windows modelling routing-convergence
//!   events (the bursty-outlier cause in Fig 10);
//! * [`ArrivalProcess`] — windowed non-homogeneous Poisson call arrivals
//!   for the live service plane (rate shaped by a diurnal profile).
//!
//! Everything is deterministic given a master seed: no wall clock, no global
//! RNG, no iteration-order dependence.

pub mod arena;
pub mod arrivals;
pub mod channel;
pub mod delay;
pub mod diurnal;
pub mod echo;
pub mod engine;
pub mod event;
pub mod fault;
pub mod ledger;
pub mod loss;
pub mod par;
pub mod rng;
pub mod time;

pub use arena::{scratch, BatchScratch, Scratch};
pub use arrivals::ArrivalProcess;
pub use channel::{packets_sent, HopChannel, PathChannel, PathOutcome, BATCH_LEN, MAX_HOPS};
pub use delay::DelaySampler;
pub use diurnal::{DiurnalProfile, DiurnalShape};
pub use echo::{echo_scratch, Echo, EchoScratch};
pub use engine::Engine;
pub use event::EventQueue;
pub use fault::{BlackoutSchedule, FaultGenerator};
pub use ledger::LedgerDelta;
pub use loss::{LossModel, LossProcess};
pub use par::{par_map, Par};
pub use rng::{LabelHash, RngTree};
pub use time::{Dur, SimTime, Window};
