//! Shared world-building support for the integration tests.
//!
//! Every suite used to roll its own near-identical helper (a tiny world at
//! a pinned seed, a seed-sweep world per routing mode, a tiny world with a
//! mode override, a raw `(Internet, Vns)` pair). They live here once; each
//! test binary pulls this in with `mod testworld;`.

#![allow(dead_code)] // each test binary uses its own subset

use vns_bench::{World, WorldConfig};
use vns_core::{
    build_vns, Applied, AttackKind, Change, ChangeError, FaultInjector, MgmtChange, RoutingMode,
    Vns, VnsConfig,
};
use vns_topo::{generate, Internet, TopoConfig};

/// Fixed seed of the cross-thread reproducibility suite.
pub const REPRO_SEED: u64 = 2024;

/// The certification seed sweep (matches the CI verify-dataplane leg).
pub const SWEEP_SEEDS: [u64; 3] = [21, 77, 1234];

/// Scale the certification sweep builds at (large enough for every PoP and
/// prefix class, small enough to sweep quickly).
pub const SWEEP_SCALE: f64 = 0.35;

/// The routing mode a `hot` flag selects.
pub fn mode(hot: bool) -> RoutingMode {
    if hot {
        RoutingMode::HotPotato
    } else {
        RoutingMode::GeoColdPotato
    }
}

/// A tiny world at `seed` with default (geo) routing.
pub fn tiny(seed: u64) -> World {
    World::build(WorldConfig::tiny(seed))
}

/// A tiny world at `seed` with an explicit routing mode.
pub fn tiny_mode(seed: u64, hot: bool) -> World {
    let mut config = WorldConfig::tiny(seed);
    config.vns.mode = mode(hot);
    World::build(config)
}

/// A seed-sweep world at [`SWEEP_SCALE`] in the given mode.
pub fn sweep(seed: u64, hot: bool) -> World {
    if hot {
        World::hot(seed, SWEEP_SCALE)
    } else {
        World::geo(seed, SWEEP_SCALE)
    }
}

/// `World::hot(seed, scale)` and `World::geo(seed, scale)`, deployed on
/// clones of one generated Internet as `Ctx` deploys its two worlds.
pub fn hot_and_geo(seed: u64, scale: f64) -> (World, World) {
    let geo = WorldConfig {
        seed,
        scale,
        ..WorldConfig::default()
    };
    let mut hot = geo.clone();
    hot.vns.mode = RoutingMode::HotPotato;
    let internet = generate(&geo.topo()).expect("topology generation");
    (
        World::deploy(internet.clone(), hot),
        World::deploy(internet, geo),
    )
}

/// A raw `(Internet, Vns)` pair from a tiny topology — for suites that
/// mutate the control plane directly and don't need `World`'s channel
/// factory or RNG tree.
pub fn raw_tiny(seed: u64) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("generate");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("converge");
    (internet, vns)
}

/// Launches `kind` on `world` through `Vns::apply`, with a fresh injector.
pub fn launch(world: &mut World, kind: AttackKind, seed: u64) -> Result<Applied, ChangeError> {
    let attack = Change::Attack { kind, seed };
    world
        .vns
        .apply(&mut world.internet, &mut FaultInjector::new(), attack)
}

/// Applies a management action through `Vns::apply`, with a fresh
/// injector.
pub fn mgmt(internet: &mut Internet, vns: &mut Vns, action: MgmtChange) {
    vns.apply(internet, &mut FaultInjector::new(), Change::Mgmt(action))
        .expect("reconverges");
}

/// The first European last-mile /16 of a world (the prefix the management
/// interface tests steer or force).
pub fn european_prefix(internet: &Internet) -> vns_bgp::Prefix {
    internet
        .prefixes()
        .find(|p| p.last_mile && vns_geo::city(p.city).region == vns_geo::Region::Europe)
        .map(|p| p.prefix)
        .expect("a European last-mile prefix")
}

/// Every speaker's Adj-RIB-In and Loc-RIB, attributes and sources spelled
/// out.
pub fn rib_snapshot(internet: &Internet) -> Vec<(vns_bgp::SpeakerId, Vec<String>)> {
    internet
        .net
        .speaker_ids()
        .map(|id| {
            let sp = internet.net.speaker(id).expect("listed speaker");
            let learned = sp
                .adj_rib_in_entries()
                .map(|(p, _, from, c)| format!("in {p} {from} {:?} {:?}", c.attrs, c.source));
            let selected = sp
                .loc_rib_entries()
                .map(|(p, _, c)| format!("best {p} {:?} {:?}", c.attrs, c.source));
            (id, learned.chain(selected).collect())
        })
        .collect()
}
