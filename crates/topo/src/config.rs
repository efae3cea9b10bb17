//! Generator configuration.

use vns_geo::Region;

/// Message budget for the initial BGP convergence of a generated Internet.
pub const MESSAGE_BUDGET: u64 = 50_000_000;

/// Configuration for [`crate::generate`].
///
/// The defaults build a ~200-AS, ~600-prefix Internet that converges in
/// well under a second — the paper's 400k-prefix table is scaled down by
/// ~3 orders of magnitude, preserving structure (see DESIGN.md). The AS
/// counts below are the size axis that `vns-bench --scale` multiplies;
/// prefixes per AS, the AP trans-Pacific and spread-AS fractions, the
/// GeoIP jitter radius and the convergence budget are constants of the
/// generator ([`MESSAGE_BUDGET`] is public for code that converges a
/// [`crate::wire`]d world itself).
#[derive(Debug, Clone)]
pub struct TopoConfig {
    /// Master seed for all generator randomness.
    pub seed: u64,
    /// Number of global Tier-1-style LTPs.
    pub ltps: usize,
    /// STPs per unit-weight region (scaled by region weight).
    pub stps_per_region: usize,
    /// CAHPs per unit-weight region.
    pub cahps_per_region: usize,
    /// ECs per unit-weight region.
    pub ecs_per_region: usize,
    /// Probability that two same-region STPs peer (given a shared city).
    pub stp_peering_prob: f64,
    /// Probability that two same-region CAHPs peer at a regional hub.
    pub cahp_peering_prob: f64,
    /// Whether to apply the GeoIP error models (city jitter + the Russian
    /// centroid collapse + the Indian stale-WHOIS relocation).
    pub geoip_errors: bool,
    /// Worker threads for the sharded initial convergence
    /// ([`vns_bgp::BgpNet::run_sharded`]); `0` means one per available
    /// hardware thread. The count never affects generated worlds — only
    /// wall-clock — matching the campaign engine's determinism contract.
    pub convergence_threads: usize,
}

impl Default for TopoConfig {
    fn default() -> Self {
        Self {
            seed: 20130909, // CoNEXT'13 camera-ready season
            ltps: 8,
            stps_per_region: 6,
            cahps_per_region: 14,
            ecs_per_region: 12,
            stp_peering_prob: 0.5,
            cahp_peering_prob: 0.25,
            geoip_errors: true,
            convergence_threads: 0,
        }
    }
}

impl TopoConfig {
    /// Relative AS density per region, reflecting where the Internet's
    /// networks actually are: EU and NA dense, AP medium, the rest sparse.
    pub fn region_weight(region: Region) -> f64 {
        match region {
            Region::Europe => 1.0,
            Region::NorthAmerica => 1.0,
            Region::AsiaPacific => 0.85,
            Region::Oceania => 0.35,
            Region::SouthAmerica => 0.3,
            Region::MiddleEast => 0.25,
            Region::Africa => 0.25,
        }
    }

    /// How many ASes of a per-region count to create in `region`.
    pub fn scaled_count(&self, per_region: usize, region: Region) -> usize {
        ((per_region as f64) * Self::region_weight(region)).round() as usize
    }

    /// A smaller config for fast unit/integration tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            ltps: 4,
            stps_per_region: 3,
            cahps_per_region: 5,
            ecs_per_region: 4,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = TopoConfig::default();
        assert!(c.ltps >= 2);
    }

    #[test]
    fn region_scaling() {
        let c = TopoConfig::default();
        let eu = c.scaled_count(10, Region::Europe);
        let af = c.scaled_count(10, Region::Africa);
        assert_eq!(eu, 10);
        assert!(af < eu && af >= 1);
    }
}
