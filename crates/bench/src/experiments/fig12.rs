//! Fig 12 — diurnal patterns in last-mile loss, by AS type and region.
//!
//! From the San Jose vantage: for each hour of the day (CET, as in the
//! paper), the number of probe rounds that saw any loss, split by
//! destination AS type and region. Expected shapes: loss towards EU/NA
//! destinations peaks with the *destination's* busy hours, while loss
//! towards AP destinations follows AP's own clock regardless (its transit
//! is hot enough to mask remote congestion); CAHPs show the strongest
//! diurnal swing.

use vns_core::PopId;
use vns_geo::Region;
use vns_stats::{Figure, Histogram, Series};
use vns_topo::AsType;

use crate::experiments::fig11::LastMileData;

/// CET offset used for the x axis (the paper plots CET).
const CET_OFFSET_HOURS: f64 = 1.0;

/// The four panels (one per destination AS type).
#[derive(Debug)]
pub struct Fig12 {
    /// `(type, figure with one series per destination region)`.
    pub panels: Vec<(AsType, Figure)>,
    /// Peak-to-trough ratio of lossy-round counts per (type, region).
    pub swing: Vec<(AsType, Region, f64)>,
}

/// Reduces the shared campaign from the SJS perspective.
pub fn run(data: &LastMileData) -> Fig12 {
    // One ledger unit per probe-train record reduced.
    vns_netsim::ledger::add_units(data.records.len() as u64);
    let sjs = PopId(1);
    let mut panels = Vec::new();
    let mut swing = Vec::new();
    for ty in AsType::ALL {
        let mut fig = Figure::new(
            format!("Fig 12 (SJS to {ty}s)"),
            format!("Lossy probe rounds per hour of day (CET), SJS to {ty} destinations"),
            "Hour of the day (CET)",
            "Loss frequency",
        );
        for region in [Region::AsiaPacific, Region::Europe, Region::NorthAmerica] {
            let mut hist = Histogram::hourly();
            for rec in &data.records {
                if rec.pop != sjs {
                    continue;
                }
                let host = &data.hosts[rec.host];
                if host.ty != ty || host.region != region {
                    continue;
                }
                if rec.train.lossy() {
                    hist.record(rec.train.at.local_hour(CET_OFFSET_HOURS));
                }
            }
            let rows: Vec<(f64, f64)> = hist
                .rows()
                .into_iter()
                .map(|(h, c)| (h, c as f64))
                .collect();
            let peak = rows.iter().map(|r| r.1).fold(0.0, f64::max);
            let trough = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
            swing.push((ty, region, peak / trough.max(1.0)));
            fig.push(Series::new(region.code(), rows));
        }
        panels.push((ty, fig));
    }
    Fig12 { panels, swing }
}

impl std::fmt::Display for Fig12 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (_, fig) in &self.panels {
            writeln!(f, "{fig}")?;
        }
        writeln!(f, "peak/trough swing per (type, destination region):")?;
        for (ty, region, s) in &self.swing {
            writeln!(f, "  {ty} in {region}: {s:.1}x")?;
        }
        writeln!(
            f,
            "(paper: clear diurnal patterns; AP destinations follow AP's own clock; CAHP swings hardest)"
        )
    }
}
