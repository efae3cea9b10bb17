//! The geo route-reflector preference — the paper's modified Quagga.
//!
//! Sec 3.2, "Basic operation": *"Our Quagga RR is modified to assign a
//! local preference value to each route based on its geographic location.
//! When it receives an update message from an egress router A concerning a
//! network prefix p, it calculates the geographic distance d between A and
//! p. … After calculating d, our route reflector computes the
//! corresponding local preference lp as a function of d … The newly
//! assigned local preference is always much higher than the default value
//! of 100. Finally, it re-advertises the modified route to all neighbors
//! except A."*
//!
//! [`Vns::assigned_pref`] is that rule: the egress router is the route's
//! next hop (next-hop-self at ingress preserves it across iBGP), its
//! location is known from the PoP map, and the prefix's location comes from
//! the GeoIP database. The management overrides (Sec 3.2, "Overriding
//! Geo-routing") are consulted first. Because the result depends only on
//! the egress router and the prefix, the reflectors hold it as a table
//! ([`vns_bgp::ImportPrefs`]) filled for every prefix × VNS router at
//! deploy, before each management route refresh, and when an ingest attack
//! swaps the GeoIP copy they score with.

use std::sync::Arc;

use vns_bgp::{Prefix, SpeakerId, DEFAULT_LOCAL_PREF};
use vns_geo::GeoIpDb;
use vns_topo::Internet;

use crate::config::RoutingMode;
use crate::mgmt::Override;
use crate::service::Vns;

/// LOCAL_PREF given to the forced egress PoP's routes.
pub const FORCED_EXIT_PREF: u32 = 100_000;
/// LOCAL_PREF given to every other egress when an exit is forced (still
/// above default so hot-potato doesn't resurface through a stale route).
pub const FORCED_OTHER_PREF: u32 = 150;

impl Vns {
    /// The LOCAL_PREF the reflectors assign to a route for `prefix`
    /// egressing at `egress`, with `geoip` locating the prefix and the
    /// current overrides included; `None` leaves the route untouched
    /// (prefix missing from `geoip`, or an egress that is no VNS router,
    /// with no override active).
    ///
    /// This is the *whole* transformation: it depends only on the egress
    /// router and the prefix, never on the incoming attributes — which is
    /// what lets the reflectors hold it as a table and `vns-verify`
    /// recompute the expected preference for every reflector Adj-RIB-In
    /// entry.
    pub fn assigned_pref(
        &self,
        geoip: &GeoIpDb<Prefix>,
        egress: SpeakerId,
        prefix: Prefix,
    ) -> Option<u32> {
        match self.overrides.get(&prefix) {
            // Exempted from geo-routing: fall back to default preference,
            // i.e. plain BGP behaviour (Sec 3.2: "exempting a prefix
            // altogether from being geo-routed, in case it is spread
            // globally").
            Some(Override::Exempt) => Some(DEFAULT_LOCAL_PREF),
            Some(Override::ForceExit(forced)) => {
                Some(if self.pop_of_router(egress) == Some(forced) {
                    FORCED_EXIT_PREF
                } else {
                    FORCED_OTHER_PREF
                })
            }
            // Normal geo scoring. Prefixes missing from the GeoIP database
            // keep their default preference (the paper's fallback).
            None => {
                let loc = geoip.lookup(prefix).ok()?;
                let rloc = self.router_locations.get(&egress)?;
                Some(self.lp_fn().compute(rloc.distance_km(&loc)))
            }
        }
    }

    /// Fills the reflectors' import preferences — [`Vns::assigned_pref`]
    /// over the reflectors' GeoIP copy for every prefix the network names
    /// × every VNS router — and gives both reflectors the one table.
    /// Returns how many reflectors got it; a hot-potato deployment has no
    /// geo preference and gets none.
    ///
    /// The table takes effect on the routes the reflectors import next, so
    /// every change follows it with a route refresh
    /// ([`Vns::refresh_imports`]). A prefix named after
    /// the push has no row, so its routes keep their preference until the
    /// next push: an override set on a prefix no router had named at the
    /// last push does not apply when that prefix is originated later.
    pub(crate) fn push_import_prefs(&self, internet: &mut Internet) -> usize {
        if self.mode() != RoutingMode::GeoColdPotato {
            return 0;
        }
        let routers = self.router_locations.keys().copied().collect();
        let prefs = Arc::new(internet.net.import_prefs(routers, |prefix, egress| {
            self.assigned_pref(&self.reflector_geoip, egress, prefix)
        }));
        let mut pushed = 0;
        for rr in self.reflectors() {
            if let Some(speaker) = internet.net.speaker_mut(rr) {
                speaker.set_import_prefs(Arc::clone(&prefs));
                pushed += 1;
            }
        }
        pushed
    }

    /// [`Vns::push_import_prefs`], then route refresh from every border so
    /// the next reconvergence re-imports every route under the new table.
    pub(crate) fn refresh_imports(&self, internet: &mut Internet) -> usize {
        let pushed = self.push_import_prefs(internet);
        for b in self.pops().iter().flat_map(|p| p.borders) {
            if let Some(s) = internet.net.speaker_mut(b) {
                s.request_refresh_all();
            }
        }
        pushed
    }
}
