//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation against the simulated world.
//!
//! Each experiment module builds (or receives) a [`World`] — a generated
//! Internet plus a VNS deployment — runs the paper's measurement
//! methodology at a configurable scale, and returns a result struct that
//! both prints the figure's series/rows and exposes the headline numbers
//! for assertions. The `vns-bench` binary drives them through the one
//! table that names them, [`experiments::EXPERIMENTS`] (flags parsed by
//! [`cli`], shared with `vns-verify` and `vns-explain`); the integration
//! tests assert the paper's qualitative shapes hold (who wins, roughly by
//! how much, where the crossovers are).
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`experiments::fig3`] | Fig 3 — geo-routing precision (CDF + scatter) |
//! | [`experiments::congruence`] | Sec 4.1 — same-AS prefix congruence stats |
//! | [`experiments::fig4`] | Fig 4 — egress PoP distribution before/after |
//! | [`experiments::fig5`] | Fig 5 — neighbour shares and transit fraction |
//! | [`experiments::fig6`] | Fig 6 — RTT via VNS vs via upstreams |
//! | [`experiments::fig7`] | Fig 7 — anycast landing matrix |
//! | [`experiments::fig9`] | Fig 9 — stream loss CCDF, VNS vs transit |
//! | [`experiments::fig10`] | Fig 10 — loss magnitude vs lossy slots |
//! | [`experiments::fig11`] | Fig 11 — last-mile loss by PoP and region |
//! | [`experiments::fig12`] | Fig 12 — diurnal loss patterns by AS type |
//! | [`experiments::table1`] | Table 1 — last-mile loss by AS type/region |
//! | [`experiments::jitter`] | Sec 5.1.1 — jitter percentiles |
//! | [`experiments::ablate`] | beyond-paper ablations (lp shape, best-external, GeoIP errors, FEC/ARQ, L2 topology) |
//! | [`experiments::failover`] | beyond-paper failure & reconvergence campaign (link/PoP/RR faults, outage windows) |
//! | [`experiments::steady_state`] | beyond-paper live call churn with a churn-under-failure phase |
//! | [`experiments::adversarial`] | beyond-paper attack corpus vs the verifier — detection matrix and catch rate |
//! | [`experiments::scale_curve`] | beyond-paper control-plane scale sweep — build + verify per ladder rung |

pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod world;

pub use world::{World, WorldConfig};
