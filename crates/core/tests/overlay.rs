//! End-to-end tests of the VNS overlay over a generated Internet.

use vns_core::{
    build_vns, Change, FaultInjector, MgmtChange, Override, PopId, RoutingMode, Vns, VnsConfig,
};
use vns_geo::{PopRegion, Region};
use vns_topo::{generate, Internet, TopoConfig};

fn world(seed: u64, mode: RoutingMode) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("topology generates");
    let cfg = VnsConfig {
        mode,
        ..VnsConfig::default()
    };
    let vns = build_vns(&mut internet, &cfg).expect("overlay converges");
    (internet, vns)
}

/// Applies a management action through `Vns::apply`.
fn mgmt(internet: &mut Internet, vns: &mut Vns, action: MgmtChange) {
    vns.apply(internet, &mut FaultInjector::new(), Change::Mgmt(action))
        .expect("reconverges");
}

#[test]
fn overlay_builds_and_converges() {
    let (internet, vns) = world(11, RoutingMode::GeoColdPotato);
    assert_eq!(vns.pops().len(), 11);
    assert!(vns.upstreams().len() >= 2);
    assert!(!vns.peers().is_empty(), "VNS should have IXP peers");
    // Every PoP's border router holds a route to every external prefix.
    let border = vns.pop(PopId(10)).borders[0];
    let speaker = internet.net.speaker(border).unwrap();
    let missing = internet
        .prefixes()
        .filter(|p| speaker.best(&p.prefix).is_none())
        .count();
    assert_eq!(missing, 0, "full table at the London border router");
}

#[test]
fn geo_mode_exits_at_geographically_close_pops() {
    let (internet, vns) = world(12, RoutingMode::GeoColdPotato);
    // For prefixes with clean GeoIP, the selected egress PoP should be
    // near the prefix: its distance to the prefix must be within a small
    // margin of the true nearest PoP's distance (coarse GeoIP jitter and
    // banding allow small displacements).
    let mut checked = 0;
    let mut good = 0;
    for pinfo in internet.prefixes() {
        if internet.geoip.error_km(pinfo.prefix).unwrap_or(1e9) > 150.0 {
            continue; // only judge on well-geolocated prefixes
        }
        let Some(egress) = vns.egress_pop(&internet, PopId(10), pinfo.prefix.first_host()) else {
            continue;
        };
        let d_sel = vns.pop(egress).location().distance_km(&pinfo.location);
        let nearest = vns.nearest_pop(pinfo.location);
        let d_best = vns.pop(nearest).location().distance_km(&pinfo.location);
        checked += 1;
        if d_sel <= d_best + 500.0 {
            good += 1;
        }
    }
    assert!(checked > 50, "checked {checked}");
    let frac = good as f64 / checked as f64;
    assert!(frac > 0.9, "geo egress precision {frac} ({good}/{checked})");
}

#[test]
fn hot_potato_mode_mostly_exits_locally() {
    let (internet, vns) = world(13, RoutingMode::HotPotato);
    let from = PopId(10);
    let mut local = 0;
    let mut total = 0;
    for pinfo in internet.prefixes() {
        if let Some(egress) = vns.egress_pop(&internet, from, pinfo.prefix.first_host()) {
            total += 1;
            if egress == from {
                local += 1;
            }
        }
    }
    let frac = local as f64 / total as f64;
    // The paper's Fig 4 shows ~70% local exit before geo-routing.
    assert!(
        frac > 0.5,
        "hot potato should exit mostly locally, got {frac}"
    );
}

#[test]
fn modes_actually_differ() {
    let (i_geo, v_geo) = world(14, RoutingMode::GeoColdPotato);
    let (i_hot, v_hot) = world(14, RoutingMode::HotPotato);
    let mut diff = 0;
    let mut total = 0;
    for pinfo in i_geo.prefixes() {
        let ip = pinfo.prefix.first_host();
        let a = v_geo.egress_pop(&i_geo, PopId(10), ip);
        let b = v_hot.egress_pop(&i_hot, PopId(10), ip);
        if a.is_some() && b.is_some() {
            total += 1;
            if a != b {
                diff += 1;
            }
        }
    }
    assert!(
        diff as f64 / total as f64 > 0.2,
        "geo routing should change many egress choices ({diff}/{total})"
    );
}

#[test]
fn anycast_follows_geography() {
    let (internet, vns) = world(15, RoutingMode::GeoColdPotato);
    // Requests from each world region should mostly land in the home PoP
    // region (Fig 7).
    let mut match_count = 0;
    let mut total = 0;
    for pinfo in internet.prefixes() {
        let region = vns_geo::city(pinfo.city).region;
        let Ok((pop, _)) = vns.anycast_landing(&internet, pinfo.prefix.first_host()) else {
            continue;
        };
        total += 1;
        if vns.pop(pop).spec.region == region.home_pop_region() {
            match_count += 1;
        }
    }
    assert!(total > 100, "landed {total}");
    let frac = match_count as f64 / total as f64;
    assert!(
        frac > 0.5,
        "incoming traffic should follow geography to a large extent, got {frac}"
    );
}

#[test]
fn vns_internal_path_uses_dedicated_links() {
    let (internet, vns) = world(16, RoutingMode::GeoColdPotato);
    // AMS -> Singapore echo server must ride dedicated hops only.
    let sin_echo = vns
        .echo_servers()
        .iter()
        .find(|e| e.pop == PopId(7))
        .unwrap();
    let path = vns
        .path_via_vns(&internet, PopId(9), sin_echo.address())
        .expect("path resolves");
    assert!(!path.hops.is_empty());
    for hop in &path.hops {
        match hop.kind {
            vns_topo::HopKind::IntraAs { dedicated, .. } => {
                assert!(dedicated, "hop {} must be dedicated", hop.label);
            }
            other => panic!("unexpected hop kind {other:?} on internal path"),
        }
    }
    // The AMS->SIN leg is a direct circuit (Sec 4.3): roughly the
    // great-circle AMS-SIN, not a detour via the US.
    let km = path.total_km();
    assert!((8_000.0..13_000.0).contains(&km), "AMS->SIN km {km}");
}

#[test]
fn upstream_path_leaves_immediately() {
    let (internet, vns) = world(17, RoutingMode::GeoColdPotato);
    let target = internet.prefixes().next().unwrap().prefix.first_host();
    let path = vns
        .path_via_upstream(&internet, PopId(9), target)
        .expect("path resolves");
    // First hop is the transit port; no dedicated VNS hops at all.
    let dedicated = path
        .hops
        .iter()
        .filter(|h| {
            matches!(
                h.kind,
                vns_topo::HopKind::IntraAs {
                    dedicated: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(dedicated, 0, "upstream path must bypass VNS circuits");
}

#[test]
fn london_upstream_backhauls_to_us() {
    let (internet, vns) = world(18, RoutingMode::GeoColdPotato);
    let (_, entry_city) = vns.primary_upstream(PopId(10));
    assert_eq!(
        vns_geo::city(entry_city).name,
        "Ashburn",
        "the Fig 11 London misconfiguration"
    );
    // Path from London via upstream to an EU prefix crosses the Atlantic
    // twice: total length far exceeds the direct distance.
    let eu_prefix = internet
        .prefixes()
        .find(|p| vns_geo::city(p.city).region == Region::Europe && p.last_mile)
        .unwrap();
    let lon = vns.pop(PopId(10)).location();
    let direct = lon.distance_km(&eu_prefix.location);
    let path = vns
        .path_via_upstream(&internet, PopId(10), eu_prefix.prefix.first_host())
        .unwrap();
    assert!(
        path.total_km() > direct + 8_000.0,
        "double Atlantic crossing expected: path {} km vs direct {} km",
        path.total_km(),
        direct
    );
}

#[test]
fn management_force_exit_and_exempt() {
    let (mut internet, mut vns) = world(19, RoutingMode::GeoColdPotato);
    // Pick a European prefix currently exiting in the EU, then force it
    // through Singapore.
    let pinfo = internet
        .prefixes()
        .find(|p| {
            vns_geo::city(p.city).region == Region::Europe
                && p.last_mile
                && internet.geoip.error_km(p.prefix).unwrap_or(1e9) < 150.0
        })
        .map(|p| (p.prefix, p.prefix.first_host()))
        .unwrap();
    let (prefix, ip) = pinfo;
    let before = vns.egress_pop(&internet, PopId(10), ip).unwrap();
    assert_eq!(
        vns.pop(before).spec.region,
        PopRegion::Eu,
        "sanity: EU prefix exits in EU"
    );
    let force = MgmtChange::ForceExit {
        prefix,
        pop: PopId(7),
    };
    mgmt(&mut internet, &mut vns, force);
    let forced = vns.egress_pop(&internet, PopId(10), ip).unwrap();
    assert_eq!(forced, PopId(7), "forced exit via Singapore");
    // Clearing restores geography.
    mgmt(&mut internet, &mut vns, MgmtChange::Clear(prefix));
    let after = vns.egress_pop(&internet, PopId(10), ip).unwrap();
    assert_eq!(vns.pop(after).spec.region, PopRegion::Eu);
    // Exempting falls back to default BGP (egress may or may not change,
    // but the override table must reflect it and reconvergence succeed).
    mgmt(&mut internet, &mut vns, MgmtChange::Exempt(prefix));
    assert_eq!(vns.overrides().get(&prefix), Some(Override::Exempt));
}

#[test]
fn management_more_specific_steers_within_vns() {
    let (mut internet, mut vns) = world(20, RoutingMode::GeoColdPotato);
    // Take a European /16 and steer one /18 of it via Hong Kong (as if
    // that subnet were actually in Asia).
    let parent = internet
        .prefixes()
        .find(|p| vns_geo::city(p.city).region == Region::Europe && p.last_mile)
        .map(|p| p.prefix)
        .unwrap();
    let sub = parent.subnet(18, 1);
    let ip_in_sub = sub.first_host();
    let before = vns.egress_pop(&internet, PopId(10), ip_in_sub).unwrap();
    assert_eq!(vns.pop(before).spec.region, PopRegion::Eu);
    let inject = MgmtChange::InjectMoreSpecific {
        prefix: sub,
        pop: PopId(8),
    };
    mgmt(&mut internet, &mut vns, inject);
    // Inside VNS, the more-specific wins and steers to HKG.
    let after = vns.egress_pop(&internet, PopId(10), ip_in_sub).unwrap();
    assert_eq!(after, PopId(8), "steered via the injected more-specific");
    // Addresses outside the injected subnet keep their old egress.
    let other_ip = parent.subnet(18, 0).first_host();
    let other = vns.egress_pop(&internet, PopId(10), other_ip).unwrap();
    assert_eq!(vns.pop(other).spec.region, PopRegion::Eu);
    // The more-specific must NOT leak to the Internet (NO_EXPORT): no
    // external speaker may hold a route for it.
    let leaked = internet
        .ases()
        .filter_map(|a| a.speaker)
        .filter_map(|sp| internet.net.speaker(sp))
        .filter(|s| s.best(&sub).is_some())
        .count();
    assert_eq!(leaked, 0, "NO_EXPORT must contain the more-specific");
    // Data plane: the path from London enters VNS, rides to HKG, and only
    // then exits to the Internet.
    let path = vns.path_via_vns(&internet, PopId(10), ip_in_sub).unwrap();
    let hkg_border = vns.pop(PopId(8)).borders;
    assert!(
        path.routers.iter().any(|r| hkg_border.contains(r)),
        "path must traverse HKG: {:?}",
        path.routers
    );
}

#[test]
fn best_external_prevents_hidden_routes() {
    // Build the same world with and without best-external; with it off,
    // geo-routing converges onto fewer distinct egress choices because
    // borders hide their eBGP routes once an iBGP route wins.
    let build = |best_external: bool| {
        let mut internet = generate(&TopoConfig::tiny(21)).unwrap();
        let cfg = VnsConfig {
            best_external,
            ..VnsConfig::default()
        };
        let vns = build_vns(&mut internet, &cfg).unwrap();
        (internet, vns)
    };
    let (i_on, v_on) = build(true);
    let (i_off, v_off) = build(false);
    // Measure geo precision in both: fraction of clean prefixes whose
    // egress is (near-)optimal.
    let precision = |internet: &Internet, vns: &Vns| {
        let mut good = 0;
        let mut total = 0;
        for pinfo in internet.prefixes() {
            if internet.geoip.error_km(pinfo.prefix).unwrap_or(1e9) > 150.0 {
                continue;
            }
            let Some(egress) = vns.egress_pop(internet, PopId(10), pinfo.prefix.first_host())
            else {
                continue;
            };
            let d_sel = vns.pop(egress).location().distance_km(&pinfo.location);
            let nearest = vns.nearest_pop(pinfo.location);
            let d_best = vns.pop(nearest).location().distance_km(&pinfo.location);
            total += 1;
            if d_sel <= d_best + 500.0 {
                good += 1;
            }
        }
        good as f64 / total.max(1) as f64
    };
    let p_on = precision(&i_on, &v_on);
    let p_off = precision(&i_off, &v_off);
    assert!(
        p_on >= p_off,
        "best-external must not hurt precision: on {p_on} off {p_off}"
    );
}

#[test]
fn deterministic_worlds() {
    let (i1, v1) = world(22, RoutingMode::GeoColdPotato);
    let (i2, v2) = world(22, RoutingMode::GeoColdPotato);
    for pinfo in i1.prefixes().take(50) {
        let ip = pinfo.prefix.first_host();
        assert_eq!(
            v1.egress_pop(&i1, PopId(9), ip),
            v2.egress_pop(&i2, PopId(9), ip)
        );
    }
}
