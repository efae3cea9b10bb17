//! The geo preference rule (`Vns::assigned_pref`), the import table the
//! reflectors hold, and a deployment healed back to a pristine clone.

use std::sync::Arc;

use vns_bgp::{Prefix, SpeakerId, DEFAULT_LOCAL_PREF};
use vns_core::georr::{FORCED_EXIT_PREF, FORCED_OTHER_PREF};
use vns_core::{build_vns, Change, FaultInjector, MgmtChange, PopId, Vns, VnsConfig};
use vns_geo::cities::city_by_name;
use vns_geo::GeoIpDb;
use vns_topo::{generate, Internet, TopoConfig};

fn world(seed: u64) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("topology generates");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("overlay converges");
    (internet, vns)
}

/// Applies a management action through `Vns::apply`.
fn mgmt(internet: &mut Internet, vns: &mut Vns, action: MgmtChange) {
    vns.apply(internet, &mut FaultInjector::new(), Change::Mgmt(action))
        .expect("reconverges");
}

/// A tiny geo world, a GeoIP database placing one prefix in Paris, and
/// the first borders of the Amsterdam and Singapore PoPs.
fn setup() -> (
    Internet,
    Vns,
    GeoIpDb<Prefix>,
    Prefix,
    [(SpeakerId, PopId); 2],
) {
    let (internet, vns) = world(31);
    let prefix: Prefix = "20.0.0.0/16".parse().expect("prefix");
    let paris = city_by_name("Paris").expect("Paris in table").1.location;
    let mut geoip = GeoIpDb::new();
    geoip.insert(prefix, paris, "FR");
    let border = |code| {
        let pop = vns.pop_by_code(code).expect("PoP code");
        (pop.borders[0], pop.id())
    };
    let routers = [border("AMS"), border("SIN")];
    (internet, vns, geoip, prefix, routers)
}

/// The first externally learned prefix in a reflector's Adj-RIB-In.
fn reflector_external_prefix(internet: &Internet, vns: &Vns) -> Prefix {
    let rr = vns.reflectors()[0];
    internet
        .net
        .speaker(rr)
        .expect("reflector registered")
        .adj_rib_in_entries()
        .find(|(.., c)| !c.attrs.as_path.is_empty())
        .map(|(p, ..)| p)
        .expect("reflector sees external routes")
}

#[test]
fn closer_egress_scores_higher() {
    let (_, vns, geoip, prefix, [(ams, _), (sin, _)]) = setup();
    // Paris prefix: Amsterdam egress beats Singapore egress.
    let a = vns.assigned_pref(&geoip, ams, prefix).unwrap();
    let b = vns.assigned_pref(&geoip, sin, prefix).unwrap();
    assert!(a > b, "{a} vs {b}");
    assert!(b > DEFAULT_LOCAL_PREF, "always above default");
}

#[test]
fn unknown_prefix_untouched() {
    let (_, vns, geoip, _, [(ams, _), _]) = setup();
    let other: Prefix = "99.0.0.0/16".parse().unwrap();
    assert_eq!(vns.assigned_pref(&geoip, ams, other), None);
}

#[test]
fn ebgp_updates_ignored() {
    // Only the reflectors hold the table, and they have no eBGP sessions:
    // no route learned over eBGP is ever geo-scored.
    let (internet, vns, ..) = setup();
    let [rr0, rr1] = vns.reflectors();
    let table = |id| internet.net.speaker(id).unwrap().import_prefs();
    assert!(Arc::ptr_eq(table(rr0).unwrap(), table(rr1).unwrap()));
    for pop in vns.pops() {
        for b in pop.borders {
            assert!(table(b).is_none(), "border {b} holds a table");
        }
    }
}

#[test]
fn exempt_prefix_reverts_to_default() {
    let (mut internet, mut vns, geoip, prefix, [(ams, _), _]) = setup();
    mgmt(&mut internet, &mut vns, MgmtChange::Exempt(prefix));
    assert_eq!(
        vns.assigned_pref(&geoip, ams, prefix),
        Some(DEFAULT_LOCAL_PREF)
    );
}

#[test]
fn forced_exit_dominates_geography() {
    let (mut internet, mut vns, geoip, prefix, [(ams, _), (sin, sin_pop)]) = setup();
    // Force the Paris prefix out of Singapore.
    let force = MgmtChange::ForceExit {
        prefix,
        pop: sin_pop,
    };
    mgmt(&mut internet, &mut vns, force);
    assert_eq!(
        vns.assigned_pref(&geoip, sin, prefix),
        Some(FORCED_EXIT_PREF)
    );
    assert_eq!(
        vns.assigned_pref(&geoip, ams, prefix),
        Some(FORCED_OTHER_PREF)
    );
}

/// The reflectors' table against the rule, cell by cell: every prefix the
/// network names × every VNS router.
fn assert_table_is_the_rule(internet: &Internet, vns: &Vns) {
    let routers: Vec<SpeakerId> = vns
        .pops()
        .iter()
        .flat_map(|p| p.borders)
        .chain(vns.reflectors())
        .collect();
    let [rr0, rr1] = vns.reflectors();
    let table_of = |rr| {
        let sp = internet.net.speaker(rr).expect("reflector registered");
        sp.import_prefs().expect("geo reflectors hold a table")
    };
    let (table, other) = (table_of(rr0), table_of(rr1));
    assert!(Arc::ptr_eq(table, other), "one table for both reflectors");
    let mut scored = 0;
    for (prefix, id) in internet.net.prefix_ids() {
        for &router in &routers {
            let want = vns.assigned_pref(vns.reflector_geoip(), router, prefix);
            assert_eq!(table.get(id, router), want, "{prefix} via {router}");
            scored += usize::from(want.is_some());
        }
    }
    assert!(scored > 0);
}

#[test]
fn pushed_table_equals_the_rule_through_every_override() {
    let (mut internet, mut vns) = world(31);
    assert_table_is_the_rule(&internet, &vns);
    let prefix = reflector_external_prefix(&internet, &vns);
    let pop = vns.pop_by_code("SIN").unwrap().id();
    mgmt(&mut internet, &mut vns, MgmtChange::Exempt(prefix));
    assert_table_is_the_rule(&internet, &vns);
    mgmt(
        &mut internet,
        &mut vns,
        MgmtChange::ForceExit { prefix, pop },
    );
    assert_table_is_the_rule(&internet, &vns);
    mgmt(&mut internet, &mut vns, MgmtChange::Clear(prefix));
    assert_table_is_the_rule(&internet, &vns);
}

/// Every speaker's Adj-RIB-In and Loc-RIB, attributes and sources spelled
/// out.
fn rib_snapshot(internet: &Internet) -> Vec<(SpeakerId, Vec<String>)> {
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

#[test]
fn force_then_clear_heals_to_a_pristine_clone() {
    let (mut internet, mut vns) = world(23);
    let pristine = internet.clone();
    let prefix = reflector_external_prefix(&internet, &vns);
    let pop = vns.pop_by_code("SYD").unwrap().id();
    mgmt(
        &mut internet,
        &mut vns,
        MgmtChange::ForceExit { prefix, pop },
    );
    assert_ne!(rib_snapshot(&internet), rib_snapshot(&pristine));
    mgmt(&mut internet, &mut vns, MgmtChange::Clear(prefix));
    assert_eq!(rib_snapshot(&internet), rib_snapshot(&pristine));
    assert!(vns.overrides().is_empty());
}
