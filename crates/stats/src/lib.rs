//! Statistics and result-presentation utilities shared by all `vns` crates.
//!
//! The experiment harnesses in `vns-bench` reduce raw measurements into the
//! same summaries the paper reports: empirical CDFs and CCDFs (Figs 3, 6, 9),
//! per-bucket averages (Fig 11, Table 1), hour-of-day histograms (Fig 12) and
//! plain-text tables. This crate keeps those reductions small, allocation-
//! light and independent of any plotting backend: every figure is emitted as
//! a printable series of `(x, y)` rows so results can be diffed and re-plotted
//! externally.
//!
//! Everything here is deterministic: no interior RNG, no wall-clock.

pub mod cdf;
pub mod histogram;
pub mod quantile;
pub mod series;
pub mod table;

pub use cdf::{Ccdf, Cdf};
pub use histogram::Histogram;
pub use quantile::QuantileSketch;
pub use series::{Figure, Series};
pub use table::{pct, Table};
