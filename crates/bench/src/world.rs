//! Shared world construction for all experiments.

use vns_core::{build_vns, RoutingMode, Vns, VnsConfig};
use vns_netsim::RngTree;
use vns_topo::{generate, CalibrationConfig, ChannelFactory, Internet, TopoConfig};

/// Knobs shared by every experiment run.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed.
    pub seed: u64,
    /// Multiplier on the generated Internet's AS counts (1.0 ≈ 180 ASes /
    /// ~520 prefixes; the paper's table is ~3 orders of magnitude bigger).
    pub scale: f64,
    /// VNS deployment configuration.
    pub vns: VnsConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 77,
            scale: 1.0,
            vns: VnsConfig::default(),
        }
    }
}

impl WorldConfig {
    /// A small/fast configuration for unit-style checks.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            scale: 0.45,
            ..Self::default()
        }
    }

    /// The topology config this world generates with.
    ///
    /// Below `scale = 1` every knob shrinks linearly — the historical
    /// mapping, unchanged so existing worlds (and the committed campaign
    /// baseline) stay byte-identical. Above `scale = 1` the mapping keeps
    /// the Internet's *shape* realistic while the AS count grows:
    ///
    /// * the Tier-1 clique grows with √s (the real Internet added ASes
    ///   ~1000× faster than Tier-1s);
    /// * regional peering probabilities are damped by 1/s, holding the
    ///   expected peer *degree* per AS constant, so session count — and
    ///   with it Adj-RIB memory — grows linearly in s instead of
    ///   quadratically.
    pub fn topo(&self) -> TopoConfig {
        let s = self.scale.max(0.05);
        let scaled = |n: usize| ((n as f64 * s).round() as usize).max(1);
        let base = TopoConfig::default();
        let damp = s.max(1.0); // 1 for s <= 1: legacy worlds untouched
        TopoConfig {
            seed: self.seed,
            // Both convergence runs (generation + deployment) share one
            // worker count.
            convergence_threads: self.vns.convergence_threads,
            ltps: if s <= 1.0 {
                scaled(8).max(3)
            } else {
                ((8.0 * s.sqrt()).round() as usize).max(8)
            },
            stps_per_region: scaled(6),
            cahps_per_region: scaled(14),
            ecs_per_region: scaled(12),
            stp_peering_prob: base.stp_peering_prob / damp,
            cahp_peering_prob: base.cahp_peering_prob / damp,
            ..base
        }
    }
}

/// A generated Internet with a VNS deployment and a channel factory.
#[derive(Debug)]
pub struct World {
    /// The combined control/data plane.
    pub internet: Internet,
    /// The overlay.
    pub vns: Vns,
    /// Channel factory for data-plane campaigns.
    pub factory: ChannelFactory,
    /// The configuration used.
    pub config: WorldConfig,
}

impl World {
    /// Builds a world per `config`: generates its Internet and deploys on it.
    pub fn build(config: WorldConfig) -> World {
        let internet = generate(&config.topo()).expect("topology generation");
        World::deploy(internet, config)
    }

    /// Deploys and converges VNS per `config.vns` on `internet`, one
    /// generated per `config.topo()` or a clone of one.
    pub fn deploy(mut internet: Internet, config: WorldConfig) -> World {
        let vns = build_vns(&mut internet, &config.vns).expect("VNS convergence");
        World::from_parts(internet, vns, config)
    }

    /// A copy for a campaign unit to rewrite, the source left as it was,
    /// with the fresh channel factory every world starts with.
    pub fn fork(&self) -> World {
        World::from_parts(self.internet.clone(), self.vns.clone(), self.config.clone())
    }

    fn from_parts(internet: Internet, vns: Vns, config: WorldConfig) -> World {
        let factory = ChannelFactory::new(
            CalibrationConfig::default(),
            RngTree::new(config.seed).subtree("channels"),
        );
        World {
            internet,
            vns,
            factory,
            config,
        }
    }

    /// A geo-cold-potato world with default settings.
    pub fn geo(seed: u64, scale: f64) -> World {
        World::build(WorldConfig {
            seed,
            scale,
            ..WorldConfig::default()
        })
    }

    /// The same deployment in hot-potato ("before") mode.
    pub fn hot(seed: u64, scale: f64) -> World {
        let mut cfg = WorldConfig {
            seed,
            scale,
            ..WorldConfig::default()
        };
        cfg.vns.mode = RoutingMode::HotPotato;
        World::build(cfg)
    }
}
