//! Service-API tests: local-exit semantics, upstream ports, relay
//! composition.

use vns_core::{build_vns, PopId, Vns, VnsConfig};
use vns_topo::{generate, HopKind, Internet, TopoConfig};

fn world(seed: u64) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("generate");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("converge");
    (internet, vns)
}

#[test]
fn local_exit_never_uses_vns_circuits() {
    let (internet, vns) = world(71);
    let mut checked = 0;
    for p in internet.prefixes().filter(|p| p.last_mile).step_by(3) {
        for pop in [PopId(9), PopId(1), PopId(7)] {
            let Ok(path) = vns.path_via_local_exit(&internet, pop, p.prefix.first_host()) else {
                continue;
            };
            checked += 1;
            assert!(
                !path.hops.iter().any(|h| matches!(
                    h.kind,
                    HopKind::IntraAs {
                        dedicated: true,
                        ..
                    }
                )),
                "local exit must not ride VNS circuits: {:?}",
                path.hops
                    .iter()
                    .map(|h| h.label.to_string())
                    .collect::<Vec<_>>()
            );
            // The first hop leaves from the PoP's own city.
            assert_eq!(path.hops[0].from_city, vns.pop(pop).city);
        }
    }
    assert!(checked > 100, "checked {checked}");
}

#[test]
fn local_exit_prefers_short_paths_over_the_primary_port() {
    // For destinations with a local peer route, the local exit must not be
    // longer than the primary-upstream exit.
    let (internet, vns) = world(72);
    let mut shorter_or_equal = 0;
    let mut total = 0;
    for p in internet.prefixes().filter(|p| p.last_mile).step_by(4) {
        let ip = p.prefix.first_host();
        let (Ok(local), Ok(upstream)) = (
            vns.path_via_local_exit(&internet, PopId(9), ip),
            vns.path_via_upstream(&internet, PopId(9), ip),
        ) else {
            continue;
        };
        total += 1;
        if local.total_km() <= upstream.total_km() + 1.0 {
            shorter_or_equal += 1;
        }
    }
    assert!(total > 20);
    assert!(
        shorter_or_equal as f64 / total as f64 > 0.7,
        "local exit should usually be at least as direct ({shorter_or_equal}/{total})"
    );
}

#[test]
fn every_pop_has_an_upstream_port() {
    let (internet, vns) = world(73);
    for pop in vns.pops() {
        let (as_id, entry_city) = vns.primary_upstream(pop.id());
        let info = internet.as_info(as_id);
        assert_eq!(info.ty, vns_topo::AsType::Ltp, "upstreams are Tier-1s");
        // The port city is real and the upstream has a router near it.
        assert!(internet.router_of(as_id, entry_city).is_some());
    }
    // London's port is the misconfigured Ashburn one.
    let (_, lon_port) = vns.primary_upstream(PopId(10));
    assert_eq!(vns_geo::city(lon_port).name, "Ashburn");
}

#[test]
fn media_path_enters_at_the_anycast_pop() {
    let (internet, vns) = world(74);
    let prefixes: Vec<u32> = internet
        .prefixes()
        .filter(|p| p.last_mile)
        .map(|p| p.prefix.first_host())
        .collect();
    for (i, &caller) in prefixes.iter().enumerate().step_by(9).take(8) {
        let callee = prefixes[(i + 17) % prefixes.len()];
        let (ingress, _) = vns.anycast_landing(&internet, caller).expect("lands");
        let media = vns.media_path(&internet, caller, callee).expect("resolves");
        // The first VNS router on the media path belongs to the ingress PoP.
        let first_vns = media
            .routers
            .iter()
            .find_map(|r| vns.pop_of_router(*r))
            .expect("path enters VNS");
        assert_eq!(first_vns, ingress);
    }
}

#[test]
fn exit_neighbor_is_a_real_session() {
    let (internet, vns) = world(75);
    let mut checked = 0;
    for p in internet.prefixes().filter(|p| p.last_mile).step_by(5) {
        let Some(asn) = vns.exit_neighbor(&internet, PopId(4), p.prefix.first_host()) else {
            continue;
        };
        let info = internet
            .ases()
            .find(|a| a.asn == asn)
            .expect("neighbour AS exists");
        // It must be an upstream or a configured peer.
        let known = vns.upstreams().contains(&info.id) || vns.peers().contains(&info.id);
        assert!(known, "exit neighbour {asn} is neither upstream nor peer");
        checked += 1;
    }
    assert!(checked >= 25, "checked {checked}");
}

#[test]
fn spill_order_is_distance_sorted_and_complete() {
    let (_, vns) = world(77);
    for pop in vns.pops() {
        let order = vns.spill_order(pop.id());
        assert_eq!(order.len(), vns.pops().len() - 1);
        assert!(!order.contains(&pop.id()), "never spills to itself");
        let origin = pop.location();
        let dists: Vec<f64> = order
            .iter()
            .map(|&id| origin.distance_km(&vns.pop(id).location()))
            .collect();
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1]),
            "{} spill order not sorted: {dists:?}",
            pop.code()
        );
    }
    // Amsterdam's first spill choices are the nearby EU PoPs, not AP/OC.
    let first3 = &vns.spill_order(PopId(9))[..3];
    for id in first3 {
        assert_eq!(
            vns.pop(*id).spec.cluster,
            vns_core::ClusterId::Eu,
            "AMS should spill within Europe first"
        );
    }
}

#[test]
fn capacity_apportionment_conserves_and_floors() {
    let (_, vns) = world(78);
    let caps = vns.apportion_capacity(100_000);
    assert_eq!(caps.len(), vns.pops().len());
    assert_eq!(caps.iter().map(|(_, c)| c).sum::<u64>(), 100_000);
    for (id, cap) in &caps {
        assert!(*cap > 0, "{id} got zero capacity");
    }
    // Proportional to relay units: AMS (3 units) gets ~3x OSL (1 unit).
    let cap_of = |code: &str| {
        let id = vns.pop_by_code(code).unwrap().id();
        caps.iter().find(|(i, _)| *i == id).unwrap().1
    };
    let (ams, osl) = (cap_of("AMS"), cap_of("OSL"));
    assert!(
        (ams as f64 / osl as f64 - 3.0).abs() < 0.1,
        "AMS {ams} vs OSL {osl}"
    );
    // Tiny budgets still give every PoP at least one slot.
    let tiny = vns.apportion_capacity(3);
    assert!(tiny.iter().all(|(_, c)| *c >= 1));
}

#[test]
fn pop_lookup_helpers() {
    let (_, vns) = world(76);
    assert_eq!(vns.pop_by_code("AMS").unwrap().id(), PopId(9));
    assert!(vns.pop_by_code("XXX").is_none());
    let ams = vns.pop(PopId(9));
    assert_eq!(vns.nearest_pop(ams.location()), PopId(9));
    for pop in vns.pops() {
        for b in pop.borders {
            assert_eq!(vns.pop_of_router(b), Some(pop.id()));
        }
    }
    for rr in vns.reflectors() {
        assert_eq!(
            vns.pop_of_router(rr),
            None,
            "reflectors sit outside PoP data plane"
        );
    }
}
