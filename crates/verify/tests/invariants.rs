//! End-to-end verifier tests: build a real (tiny) world, seed each
//! invariant class broken, and assert `vns-verify` catches every one —
//! plus the override-precedence semantics the management interface
//! promises.

use vns_bgp::{
    Asn, Community, Message, Origin, PeerKind, Prefix, RouteAttrs, RouteSource, SpeakerId,
    DEFAULT_LOCAL_PREF,
};
use vns_core::{
    build_vns, Change, FaultInjector, LocalPrefFn, MgmtChange, Override, PopId, RoutingMode, Vns,
    VnsConfig,
};
use vns_topo::{generate, Internet, TopoConfig};
use vns_verify::{verify, Invariant, Severity};

fn world_with(seed: u64, tweak: impl FnOnce(&mut VnsConfig)) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("topology generation");
    let mut cfg = VnsConfig::default();
    tweak(&mut cfg);
    let vns = build_vns(&mut internet, &cfg).expect("VNS convergence");
    (internet, vns)
}

fn world(seed: u64) -> (Internet, Vns) {
    world_with(seed, |_| {})
}

/// Applies a management action through `Vns::apply`.
fn mgmt(internet: &mut Internet, vns: &mut Vns, action: MgmtChange) {
    vns.apply(internet, &mut FaultInjector::new(), Change::Mgmt(action))
        .expect("reconvergence");
}

fn force(prefix: Prefix, pop: PopId) -> MgmtChange {
    MgmtChange::ForceExit { prefix, pop }
}

/// First externally learned prefix in a reflector's Adj-RIB-In (non-empty
/// AS path — VNS-originated service prefixes are exempt from geo scoring).
fn reflector_external_prefix(internet: &Internet, vns: &Vns) -> Prefix {
    let rr = vns.reflectors()[0];
    let sp = internet.net.speaker(rr).expect("reflector registered");
    sp.adj_rib_in_entries()
        .find(|(.., c)| !c.attrs.as_path.is_empty())
        .map(|(p, ..)| p)
        .expect("reflector sees external routes")
}

fn wire_attrs(as_path: Vec<Asn>, communities: Vec<Community>) -> RouteAttrs {
    RouteAttrs {
        local_pref: DEFAULT_LOCAL_PREF,
        as_path: as_path.into(),
        origin: Origin::Igp,
        med: 0,
        communities,
        next_hop: SpeakerId(0),
        originator_id: None,
        cluster_list: vec![],
    }
}

#[test]
fn tiny_world_verifies_clean_in_both_modes() {
    for mode in [RoutingMode::GeoColdPotato, RoutingMode::HotPotato] {
        let (internet, vns) = world_with(41, |c| c.mode = mode);
        let report = verify(&internet, &vns);
        assert!(report.is_clean(), "{mode:?}:\n{}", report.render());
    }
}

#[test]
fn broken_lp_fn_deployment_flagged() {
    // A floor of 0 collapses every geo score to ~0 — below the BGP
    // default, so geo-scored routes lose to untouched ones.
    let (internet, vns) = world_with(42, |c| {
        c.lp_fn = LocalPrefFn::BandedLinear {
            floor: 0,
            band_km: 1_000_000.0,
        };
    });
    let report = verify(&internet, &vns);
    assert!(
        report
            .of(Invariant::LpFnShape)
            .any(|v| v.severity == Severity::Error),
        "{}",
        report.render()
    );
}

#[test]
fn stale_override_table_flagged() {
    let (internet, vns) = world(43);
    assert!(verify(&internet, &vns).is_clean());
    // Force an exit on a clone of the deployment, through the management
    // interface but on a clone of the Internet: the original reflectors'
    // RIBs never hear of it and still carry the old geo preferences,
    // contradicting the clone's override table.
    let prefix = reflector_external_prefix(&internet, &vns);
    let mut changed = vns.clone();
    mgmt(&mut internet.clone(), &mut changed, force(prefix, PopId(1)));
    assert!(vns.overrides().is_empty(), "the original is untouched");
    let report = verify(&internet, &changed);
    assert!(
        report
            .of(Invariant::GeoPreference)
            .any(|v| v.severity == Severity::Error && v.prefix == Some(prefix)),
        "{}",
        report.render()
    );
}

#[test]
fn no_export_leak_flagged() {
    let (mut internet, vns) = world(44);
    // Deliver a NO_EXPORT-tagged update across an eBGP session, as a buggy
    // border that failed to filter would: the community is now outside the
    // originating AS.
    let border = vns.pops()[0].borders[0];
    let ext_peer = {
        let sp = internet.net.speaker(border).expect("border registered");
        sp.peer_ids()
            .find(|p| sp.peer_config(*p).is_some_and(|c| c.kind.is_ebgp()))
            .expect("border has external sessions")
    };
    let leaked: Prefix = "123.45.0.0/20".parse().expect("prefix");
    let attrs = wire_attrs(vec![vns.asn()], vec![Community::NoExport]);
    internet
        .net
        .speaker_mut(ext_peer)
        .expect("peer registered")
        .receive(
            border,
            Message::Update {
                prefix: leaked,
                attrs: attrs.into(),
            },
        );
    let report = verify(&internet, &vns);
    assert!(
        report
            .of(Invariant::NoExportLeak)
            .any(|v| v.severity == Severity::Error && v.prefix == Some(leaked)),
        "{}",
        report.render()
    );
}

#[test]
fn corrupted_override_table_flagged() {
    let (mut internet, mut vns) = world(45);
    // Force a prefix to a PoP that does not exist.
    let ghost: Prefix = "200.1.0.0/16".parse().expect("prefix");
    mgmt(&mut internet, &mut vns, force(ghost, PopId(99)));
    let report = verify(&internet, &vns);
    assert!(
        report
            .of(Invariant::OverrideSanity)
            .any(|v| v.prefix == Some(ghost) && v.message.contains("not a deployed PoP")),
        "{}",
        report.render()
    );
    assert!(!report.passes());
}

#[test]
fn hidden_routes_surface_without_best_external() {
    // The paper's pathology, reproduced deliberately: with best-external
    // off, borders whose best route is iBGP-learned hide their eBGP
    // alternatives from the reflectors. Warning severity (the deployment
    // chose this), never error.
    let (internet, vns) = world_with(46, |c| c.best_external = false);
    let report = verify(&internet, &vns);
    let hidden: Vec<_> = report.of(Invariant::HiddenRoute).collect();
    assert!(!hidden.is_empty(), "{}", report.render());
    assert!(
        hidden.iter().all(|v| v.severity == Severity::Warning),
        "{}",
        report.render()
    );
    // Warnings alone must not fail the campaign pre-flight gate.
    assert!(report.passes(), "{}", report.render());
}

#[test]
fn missing_reflector_session_is_one_finding() {
    // The scale-1 world at seed 77. Cutting the iBGP session between
    // border R183 and reflector R205 used to report the missing session
    // once per prefix the border audits (347 errors, 100 identical lines
    // and a suppression summary); it is one finding, with no prefix.
    let mut internet = generate(&TopoConfig {
        seed: 77,
        ..TopoConfig::default()
    })
    .expect("topology generation");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("VNS convergence");
    let (border, rr) = (SpeakerId(183), SpeakerId(205));
    assert!(vns.pops().iter().any(|p| p.borders.contains(&border)));
    assert!(vns.reflectors().contains(&rr));
    internet.net.disconnect(border, rr);
    vns.reconverge(&mut internet).expect("reconverges");
    let report = verify(&internet, &vns);
    let want = format!("border has no iBGP session to reflector {rr}");
    assert_eq!(
        (report.error_count(), report.warning_count()),
        (1, 0),
        "{}",
        report.render()
    );
    let [only] = report.violations() else {
        panic!("{}", report.render());
    };
    assert_eq!(
        (only.invariant, only.speaker, only.prefix, &only.message),
        (Invariant::HiddenRoute, Some(border), None, &want)
    );
}

#[test]
fn valley_violation_flagged() {
    let (mut internet, vns) = world(47);
    // Find an external neighbour that VNS relates to as a *peer*, holding
    // a best route it learned from its own provider or peer — a route
    // Gao–Rexford forbids it from exporting to us.
    let mut seeded = None;
    'outer: for pop in vns.pops() {
        for b in pop.borders {
            let sp = internet.net.speaker(b).expect("border registered");
            let peers: Vec<SpeakerId> = sp
                .peer_ids()
                .filter(|p| {
                    matches!(
                        sp.peer_config(*p).map(|c| c.kind),
                        Some(PeerKind::Ebgp {
                            relation: vns_bgp::Relation::Peer,
                            ..
                        })
                    )
                })
                .collect();
            for x in peers {
                let xs = internet.net.speaker(x).expect("peer registered");
                let candidate = xs.loc_rib_prefixes().find(|p| {
                    matches!(
                        xs.best(p).map(|c| &c.source),
                        Some(RouteSource::Ebgp {
                            relation: vns_bgp::Relation::Peer | vns_bgp::Relation::Provider,
                            ..
                        })
                    )
                });
                if let Some(prefix) = candidate {
                    seeded = Some((b, x, xs.asn(), prefix));
                    break 'outer;
                }
            }
        }
    }
    let (border, x, x_asn, prefix) = seeded.expect("a peer with a non-exportable best route");
    // Deliver the forbidden advertisement over the session.
    let attrs = wire_attrs(vec![x_asn, Asn(64_999)], vec![]);
    internet
        .net
        .speaker_mut(border)
        .expect("border registered")
        .receive(
            x,
            Message::Update {
                prefix,
                attrs: attrs.into(),
            },
        );
    let report = verify(&internet, &vns);
    assert!(
        report
            .of(Invariant::ValleyFree)
            .any(|v| v.severity == Severity::Error
                && v.speaker == Some(border)
                && v.prefix == Some(prefix)),
        "{}",
        report.render()
    );
}

#[test]
fn unresolvable_next_hop_flagged() {
    let (mut internet, vns) = world(48);
    // An iBGP update naming a next hop outside the VNS IGP: wins on
    // LOCAL_PREF, blackholes on forwarding.
    let border = vns.pops()[0].borders[0];
    let rr = vns.reflectors()[0];
    let bogus: Prefix = "99.99.0.0/16".parse().expect("prefix");
    let mut attrs = wire_attrs(vec![Asn(65_000)], vec![]);
    attrs.local_pref = 1_000_000;
    attrs.next_hop = SpeakerId(9_999);
    internet
        .net
        .speaker_mut(border)
        .expect("border registered")
        .receive(
            rr,
            Message::Update {
                prefix: bogus,
                attrs: attrs.into(),
            },
        );
    let report = verify(&internet, &vns);
    assert!(
        report
            .of(Invariant::NextHopResolution)
            .any(|v| v.severity == Severity::Error
                && v.speaker == Some(border)
                && v.prefix == Some(bogus)),
        "{}",
        report.render()
    );
}

/// A last-mile prefix plus two PoPs that can both reach it externally:
/// the geo egress and a different PoP to force it to.
fn steerable_prefix(internet: &Internet, vns: &Vns) -> (Prefix, u32, PopId, PopId) {
    for info in internet.prefixes().filter(|p| p.last_mile) {
        let ip = info.prefix.first_host();
        let Some(geo) = vns.egress_pop(internet, vns.pops()[0].id(), ip) else {
            continue;
        };
        let other = vns.pops().iter().find(|p| {
            p.id() != geo
                && internet
                    .net
                    .speaker(p.borders[0])
                    .is_some_and(|sp| sp.best_external_route(&info.prefix).is_some())
        });
        if let Some(other) = other {
            return (info.prefix, ip, geo, other.id());
        }
    }
    panic!("no steerable prefix in tiny world");
}

#[test]
fn override_precedence_end_to_end() {
    let (mut internet, mut vns) = world(49);
    let vantage = vns.pops()[0].id();
    let (prefix, ip, geo_egress, forced) = steerable_prefix(&internet, &vns);

    // Force wins over geography, and the refreshed RIBs agree with the
    // table (verifier clean).
    mgmt(&mut internet, &mut vns, force(prefix, forced));
    assert_eq!(vns.egress_pop(&internet, vantage, ip), Some(forced));
    let report = verify(&internet, &vns);
    assert!(report.passes(), "{}", report.render());

    // Exempt replaces force (this order)…
    mgmt(&mut internet, &mut vns, MgmtChange::Exempt(prefix));
    assert_eq!(vns.overrides().get(&prefix), Some(Override::Exempt));
    assert!(verify(&internet, &vns).passes());

    // …and force replaces exempt (the other order).
    mgmt(&mut internet, &mut vns, force(prefix, forced));
    assert_eq!(
        vns.overrides().get(&prefix),
        Some(Override::ForceExit(forced))
    );
    assert_eq!(vns.egress_pop(&internet, vantage, ip), Some(forced));

    // Clear restores pure geo-routing.
    mgmt(&mut internet, &mut vns, MgmtChange::Clear(prefix));
    assert!(vns.overrides().is_empty());
    assert_eq!(vns.egress_pop(&internet, vantage, ip), Some(geo_egress));
    let report = verify(&internet, &vns);
    assert!(report.is_clean(), "{}", report.render());
}
