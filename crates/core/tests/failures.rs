//! Failure injection on the control plane: reflector redundancy ("in
//! reality multiple RRs are deployed to ensure operation stability",
//! paper Sec 3.2 fn. 1) and upstream-session failure.

use vns_core::{build_vns, PopId, RoutingMode, Vns, VnsConfig};
use vns_topo::{generate, Internet, TopoConfig};

fn world(seed: u64) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("generate");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("converge");
    (internet, vns)
}

fn routable_fraction(internet: &Internet, vns: &Vns, from: PopId) -> f64 {
    let mut ok = 0usize;
    let mut total = 0usize;
    for p in internet.prefixes().filter(|p| p.last_mile) {
        total += 1;
        if vns
            .path_via_vns(internet, from, p.prefix.first_host())
            .is_ok()
        {
            ok += 1;
        }
    }
    ok as f64 / total.max(1) as f64
}

#[test]
fn reflector_failure_is_survivable() {
    let (mut internet, vns) = world(81);
    assert!(routable_fraction(&internet, &vns, PopId(10)) > 0.999);

    // Kill route reflector 0: tear down every one of its iBGP sessions.
    let [rr0, _rr1] = vns.reflectors();
    let sessions: Vec<_> = internet
        .net
        .speaker(rr0)
        .expect("rr exists")
        .peer_ids()
        .collect();
    for peer in sessions {
        internet.net.disconnect(rr0, peer);
    }
    vns.reconverge(&mut internet).expect("reconverges");

    // The surviving reflector keeps the AS fully routed.
    let after = routable_fraction(&internet, &vns, PopId(10));
    assert!(after > 0.999, "after RR failure: {after}");

    // Geo routing still works: a European prefix still exits in Europe.
    let eu = internet
        .prefixes()
        .find(|p| {
            p.last_mile
                && vns_geo::city(p.city).region == vns_geo::Region::Europe
                && internet.geoip.error_km(p.prefix).unwrap_or(1e9) < 150.0
        })
        .expect("EU prefix");
    let egress = vns
        .egress_pop(&internet, PopId(1), eu.prefix.first_host())
        .expect("routed");
    assert_eq!(
        vns.pop(egress).spec.region,
        vns_geo::PopRegion::Eu,
        "geo routing survives the RR failure"
    );
}

#[test]
fn losing_both_reflectors_partitions_the_control_plane() {
    let (mut internet, vns) = world(82);
    for rr in vns.reflectors() {
        let sessions: Vec<_> = internet
            .net
            .speaker(rr)
            .expect("rr exists")
            .peer_ids()
            .collect();
        for peer in sessions {
            internet.net.disconnect(rr, peer);
        }
    }
    vns.reconverge(&mut internet).expect("reconverges");
    // Border routers keep only their own eBGP routes; cross-PoP iBGP
    // knowledge is gone, so remote-egress routing collapses but local
    // exits survive.
    let from = PopId(10);
    let mut local_only = true;
    let mut routed = 0;
    for p in internet.prefixes().filter(|p| p.last_mile).take(60) {
        if let Some(egress) = vns.egress_pop(&internet, from, p.prefix.first_host()) {
            routed += 1;
            if egress != from {
                local_only = false;
            }
        }
    }
    assert!(routed > 0, "local eBGP still works");
    assert!(
        local_only,
        "without reflectors no remote egress should be learnable"
    );
}

#[test]
fn upstream_session_failure_reroutes() {
    let (mut internet, vns) = world(83);
    let pop = PopId(9); // Amsterdam
    let border = vns.pop(pop).borders[0];
    // Tear down ALL of the border's eBGP transit sessions.
    let peers: Vec<_> = internet
        .net
        .speaker(border)
        .expect("border exists")
        .peer_ids()
        .filter(|p| internet.as_of_speaker(*p) != Some(vns.as_id()))
        .collect();
    assert!(!peers.is_empty());
    for p in peers {
        internet.net.disconnect(border, p);
    }
    vns.reconverge(&mut internet).expect("reconverges");
    // Everything stays reachable through the other PoPs' sessions.
    let frac = routable_fraction(&internet, &vns, pop);
    assert!(frac > 0.999, "after upstream failure: {frac}");
    // And the paths genuinely avoid the dead border for external legs.
    for p in internet.prefixes().filter(|p| p.last_mile).take(20) {
        let path = vns
            .path_via_vns(&internet, pop, p.prefix.first_host())
            .expect("rerouted");
        let egress_router = path
            .routers
            .iter()
            .rev()
            .find(|r| vns.pop_of_router(**r).is_some())
            .expect("has VNS egress");
        assert_ne!(*egress_router, border, "dead border must not be the egress");
    }
}

#[test]
fn before_mode_also_survives_rr_loss() {
    let mut internet = generate(&TopoConfig::tiny(84)).expect("generate");
    let vns = build_vns(
        &mut internet,
        &VnsConfig {
            mode: RoutingMode::HotPotato,
            ..VnsConfig::default()
        },
    )
    .expect("converge");
    let [_, rr1] = vns.reflectors();
    let sessions: Vec<_> = internet
        .net
        .speaker(rr1)
        .expect("rr exists")
        .peer_ids()
        .collect();
    for peer in sessions {
        internet.net.disconnect(rr1, peer);
    }
    vns.reconverge(&mut internet).expect("reconverges");
    assert!(routable_fraction(&internet, &vns, PopId(7)) > 0.999);
}
