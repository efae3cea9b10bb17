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

/// Message budget for every convergence run of a VNS deployment.
pub const MESSAGE_BUDGET: u64 = 100_000_000;

/// Build-time configuration of the overlay.
///
/// The fields are what the experiments, ablations and runs vary. The
/// deployment's fixed facts are constants of [`crate::build_vns`]:
/// seven Tier-1 upstreams, four of them at each PoP, open peering with
/// 60% of the co-located candidates, and London's US-centric transit
/// behind Fig 11's anomaly (Sec 3.1; DESIGN.md §1).
#[derive(Debug, Clone)]
pub struct VnsConfig {
    /// Routing policy.
    pub mode: RoutingMode,
    /// The `lp = f(d)` shape installed on the reflectors.
    pub lp_fn: LocalPrefFn,
    /// Advertise best-external on border routers (the Sec 3.2 hidden-routes
    /// fix; disable only for the ablation).
    pub best_external: bool,
    /// Seed for peer-selection randomness.
    pub seed: u64,
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
            seed: 0x5653_4e53, // "VSNS"
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
        assert!(c.best_external);
        assert_eq!(c.before().mode, RoutingMode::HotPotato);
    }
}
