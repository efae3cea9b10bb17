//! VNS deployment configuration.

use crate::lpfunc::LocalPrefFn;

/// Which routing policy the overlay runs — the paper's before/after axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Default BGP: flat import preference, eBGP-over-iBGP, IGP-metric
    /// tie-breaks. The "before" of Figs 4 and 5 ("the use of hot-potato
    /// was prevalent; an egress router always preferred eBGP routes over
    /// iBGP routes").
    HotPotato,
    /// The contribution: route reflectors rewrite LOCAL_PREF from
    /// geographic distance, so traffic exits at the PoP closest to the
    /// destination prefix.
    GeoColdPotato,
}

/// Build-time configuration of the overlay.
#[derive(Debug, Clone)]
pub struct VnsConfig {
    /// Routing policy.
    pub mode: RoutingMode,
    /// The `lp = f(d)` shape installed on the reflectors.
    pub lp_fn: LocalPrefFn,
    /// Advertise best-external on border routers (the Sec 3.2 hidden-routes
    /// fix; disable only for the ablation).
    pub best_external: bool,
    /// How many upstream transit providers to contract (the paper has 7).
    pub upstream_count: usize,
    /// Transit sessions per PoP (how many of the upstreams each PoP buys
    /// from locally).
    pub upstreams_per_pop: usize,
    /// Fraction of co-located candidate networks VNS peers with ("VNS
    /// peers openly with any other interested AS").
    pub peer_fraction: f64,
    /// Use a US-centric Tier-1 as London's primary upstream, with the
    /// interconnect backhauled to Ashburn — the misconfiguration behind
    /// Fig 11's London anomaly.
    pub london_us_upstream: bool,
    /// Seed for peer-selection randomness.
    pub seed: u64,
    /// Message budget for convergence runs.
    pub message_budget: u64,
    /// Worker threads for the sharded reconvergence after the deployment
    /// is wired in ([`vns_bgp::BgpNet::run_sharded`]); `0` means one per
    /// available hardware thread. Never affects the built world — only
    /// wall-clock.
    pub convergence_threads: usize,
    /// Replace the paper's cluster topology (regional meshes + 5 long-haul
    /// circuits) with a full PoP mesh — the cost/quality ablation of the
    /// Sec 3.1 design choice.
    pub full_mesh_l2: bool,
}

impl Default for VnsConfig {
    fn default() -> Self {
        Self {
            mode: RoutingMode::GeoColdPotato,
            lp_fn: LocalPrefFn::default(),
            best_external: true,
            upstream_count: 7,
            upstreams_per_pop: 4,
            peer_fraction: 0.6,
            london_us_upstream: true,
            seed: 0x5653_4e53, // "VSNS"
            message_budget: 100_000_000,
            convergence_threads: 0,
            full_mesh_l2: false,
        }
    }
}

impl VnsConfig {
    /// The same deployment in hot-potato ("before") mode.
    pub fn before(mut self) -> Self {
        self.mode = RoutingMode::HotPotato;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = VnsConfig::default();
        assert_eq!(c.mode, RoutingMode::GeoColdPotato);
        assert_eq!(c.upstream_count, 7);
        assert!(c.best_external);
        assert_eq!(c.before().mode, RoutingMode::HotPotato);
    }
}
