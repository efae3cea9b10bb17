//! Differential property test: sharded delta convergence must produce the
//! same Loc-RIBs as the single-queue activation engine.
//!
//! For safe (Gao–Rexford) policies the BGP fixpoint is unique, so the two
//! engines — which process messages in very different orders — must agree
//! exactly on every speaker's selected routes, for any seed, either routing
//! mode, and any worker-thread count. The world builders always converge
//! sharded; the reference here wires the same world with [`vns_topo::wire`]
//! / [`vns_core::deploy_vns`] and converges each half by calling
//! [`vns_bgp::BgpNet::run`] itself.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vns_core::{build_vns, deploy_vns, RoutingMode, VnsConfig};
use vns_topo::{generate, wire, Internet, TopoConfig};

type Ribs = BTreeMap<(vns_bgp::SpeakerId, vns_bgp::Prefix), String>;

/// Canonical Loc-RIB snapshot: `(speaker, prefix) -> rendered best route`.
fn ribs(internet: &Internet) -> Ribs {
    let ids: Vec<_> = internet.net.speaker_ids().collect();
    let mut snap = BTreeMap::new();
    for id in ids {
        let sp = internet.net.speaker(id).expect("listed speaker");
        for prefix in sp.loc_rib_prefixes().collect::<Vec<_>>() {
            let best = sp.best(&prefix).expect("loc-rib entry has a best");
            snap.insert((id, prefix), format!("{:?}|{:?}", best.attrs, best.source));
        }
    }
    snap
}

fn configs(seed: u64, mode: RoutingMode, threads: usize) -> (TopoConfig, VnsConfig) {
    let topo = TopoConfig {
        convergence_threads: threads,
        ..TopoConfig::tiny(seed)
    };
    let vns = VnsConfig {
        mode,
        seed,
        convergence_threads: threads,
        ..VnsConfig::default()
    };
    (topo, vns)
}

/// A full world (synthetic Internet + VNS overlay) as production builds it.
fn sharded_ribs(seed: u64, mode: RoutingMode, threads: usize) -> Ribs {
    let (topo, vns) = configs(seed, mode, threads);
    let mut internet = generate(&topo).expect("topology generation");
    build_vns(&mut internet, &vns).expect("VNS convergence");
    ribs(&internet)
}

/// The same world, both halves converged by the single-queue engine.
fn reference_ribs(seed: u64, mode: RoutingMode) -> Ribs {
    let (topo, vns) = configs(seed, mode, 1);
    let mut internet = wire(&topo);
    internet
        .net
        .run(vns_topo::config::MESSAGE_BUDGET)
        .expect("topology generation");
    deploy_vns(&mut internet, &vns);
    internet
        .net
        .run(vns_core::config::MESSAGE_BUDGET)
        .expect("VNS convergence");
    ribs(&internet)
}

proptest! {
    // Each case builds two complete worlds; keep the sample small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_delta_matches_monolithic_full_run(
        seed in 1u64..10_000,
        geo in any::<bool>(),
        threads in 1usize..4,
    ) {
        let mode = if geo {
            RoutingMode::GeoColdPotato
        } else {
            RoutingMode::HotPotato
        };
        prop_assert_eq!(reference_ribs(seed, mode), sharded_ribs(seed, mode, threads));
    }
}
