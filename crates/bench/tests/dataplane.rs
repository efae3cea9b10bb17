//! Data-plane model-checker certification: zero false positives on every
//! clean seed-sweep×mode world, and a measured 100% catch rate over the
//! planted-defect corpus — each defect reported under the right check
//! name at the planted location. A checker proves nothing until it has
//! demonstrably caught something.

mod testworld;

use vns_bench::World;
use vns_service::{EndpointTable, PathTable};
use vns_verify::{
    plant_defect, verify_dataplane_scoped, verify_dataplane_with_service, DataplaneConfig,
    DataplaneReport, Invariant, VerifyScope, DEFECT_NAMES,
};

use testworld::SWEEP_SEEDS as SEEDS;

fn verify_world(world: &World) -> DataplaneReport {
    let endpoints = EndpointTable::build(&world.internet, &world.vns);
    let paths = PathTable::build(&world.internet, &world.vns, &endpoints);
    verify_dataplane_with_service(
        &world.internet,
        &world.vns,
        &VerifyScope::default(),
        &DataplaneConfig::default(),
        &endpoints,
        &paths,
    )
}

/// Zero false positives: every clean world in the seed sweep, in both
/// routing modes, verifies with no findings at all — and fast enough to
/// run as a campaign pre-flight.
#[test]
fn clean_worlds_have_zero_findings() {
    for seed in SEEDS {
        for hot in [false, true] {
            let world = testworld::sweep(seed, hot);
            let report = verify_world(&world);
            assert!(
                report.report.is_clean(),
                "false positive on clean world (seed {seed}, hot {hot}):\n{}",
                report.render()
            );
            assert!(
                report.total_seconds() < 2.0,
                "pre-flight budget blown: {:.3}s (seed {seed}, hot {hot})",
                report.total_seconds()
            );
        }
    }
}

/// Plants `name` into a fresh world and returns the planted description
/// plus the checker's report. Table-corruption defects verify against the
/// corrupted service tables; RIB defects verify graph-only so the finding
/// attribution stays crisp.
fn plant_and_verify(
    world: &mut World,
    name: &'static str,
) -> (vns_verify::PlantedDefect, DataplaneReport) {
    let needs_tables = matches!(name, "poisoned-landing-table" | "swapped-tails");
    if needs_tables {
        let endpoints = EndpointTable::build(&world.internet, &world.vns);
        let mut paths = PathTable::build(&world.internet, &world.vns, &endpoints);
        let planted = plant_defect(
            name,
            &mut world.internet,
            &world.vns,
            Some((&endpoints, &mut paths)),
        )
        .unwrap_or_else(|| panic!("defect {name} found no site"));
        let report = verify_dataplane_with_service(
            &world.internet,
            &world.vns,
            &VerifyScope::default(),
            &DataplaneConfig::default(),
            &endpoints,
            &paths,
        );
        (planted, report)
    } else {
        let planted = plant_defect(name, &mut world.internet, &world.vns, None)
            .unwrap_or_else(|| panic!("defect {name} found no site"));
        let report = verify_dataplane_scoped(
            &world.internet,
            &world.vns,
            &VerifyScope::default(),
            &DataplaneConfig::default(),
        );
        (planted, report)
    }
}

fn assert_caught(planted: &vns_verify::PlantedDefect, report: &DataplaneReport, ctx: &str) {
    let hits: Vec<_> = report.report.of(planted.expect).collect();
    assert!(
        !hits.is_empty(),
        "{ctx}: defect {} not caught — expected {} to fire\n{}",
        planted.name,
        planted.expect.code(),
        report.render()
    );
    if let Some(speaker) = planted.speaker {
        assert!(
            hits.iter().any(|v| v.speaker == Some(speaker)),
            "{ctx}: defect {} caught by {} but never located at planted {speaker}\n{}",
            planted.name,
            planted.expect.code(),
            report.render()
        );
    }
    if let Some(prefix) = planted.prefix {
        assert!(
            hits.iter().any(|v| v.prefix == Some(prefix)),
            "{ctx}: defect {} caught by {} but never named planted prefix {prefix}\n{}",
            planted.name,
            planted.expect.code(),
            report.render()
        );
    }
}

/// 100% catch rate on geo worlds: all twelve corpus defects are caught,
/// each under its expected check name at the planted location.
#[test]
fn geo_catch_rate_is_total() {
    for seed in SEEDS {
        let mut caught = 0;
        for name in DEFECT_NAMES {
            let mut world = testworld::sweep(seed, false);
            let (planted, report) = plant_and_verify(&mut world, name);
            assert_caught(&planted, &report, &format!("geo seed {seed}"));
            caught += 1;
        }
        assert_eq!(
            caught,
            DEFECT_NAMES.len(),
            "corpus incomplete on seed {seed}"
        );
    }
}

/// The mode-independent defects are also caught on hot-potato worlds.
/// The geo-gated checks (ANYCAST-NEAREST, STRETCH-BOUND) don't run under
/// hot-potato — far landings and detours are the paper's measured
/// baseline there, not deployment defects.
#[test]
fn hot_catch_rate_covers_mode_independent_defects() {
    let geo_only = ["anycast-far-landing", "echo-detour", "echo-detour-return"];
    for name in DEFECT_NAMES {
        if geo_only.contains(&name) {
            continue;
        }
        let mut world = testworld::sweep(77, true);
        let (planted, report) = plant_and_verify(&mut world, name);
        assert_caught(&planted, &report, "hot seed 77");
    }
}

/// A planted defect never leaks into the *other* checks' clean verdicts
/// on the graph-only stage: LOOP-FREE defects don't fabricate blackhole
/// findings for unrelated prefixes and vice versa. (The same defect may
/// legitimately surface under several checks — a cycle also denies
/// delivery — so this asserts the expected check fires, not exclusivity.)
#[test]
fn defect_reports_carry_check_name_and_location() {
    let mut world = testworld::sweep(77, false);
    let (planted, report) = plant_and_verify(&mut world, "ibgp-border-cycle");
    assert_eq!(planted.expect, Invariant::LoopFree);
    let hit = report
        .report
        .of(Invariant::LoopFree)
        .next()
        .expect("LOOP-FREE fired");
    assert_eq!(hit.speaker, planted.speaker);
    assert_eq!(hit.prefix, planted.prefix);
    assert!(
        hit.message.contains("cycle"),
        "message should describe the ring: {}",
        hit.message
    );
}

/// Scoped verification accepts the fault vocabulary: a world with a dead
/// border verifies clean when the scope declares the router dead (its
/// traffic is an explicit DeadSink, not a blackhole).
#[test]
fn scoped_verification_accepts_declared_dead_routers() {
    let world = testworld::sweep(21, false);
    let dead = world.vns.pops()[0].borders[0];
    // Without the scope the dead router is just... alive, so the graph is
    // clean either way here; the point is that declaring routers dead
    // must never *create* findings on a healthy world.
    let report = verify_dataplane_scoped(
        &world.internet,
        &world.vns,
        &VerifyScope::with_dead_routers([dead]),
        &DataplaneConfig::default(),
    );
    assert!(
        report.passes(),
        "declaring a dead router created findings:\n{}",
        report.render()
    );
}

/// A Sec 3.2 steering more-specific is originated at a PoP's borders and
/// never registered, so it is a destination of its own: a healthy one
/// verifies clean, and a defect only its traffic meets is found on it.
#[test]
fn steered_subnets_are_verified_destinations() {
    use vns_bgp::{PathError, Prefix, SpeakerId};
    use vns_core::{MgmtChange, PopId};

    let verify = |internet: &vns_topo::Internet, vns: &vns_core::Vns| {
        verify_dataplane_scoped(
            internet,
            vns,
            &VerifyScope::default(),
            &DataplaneConfig::default(),
        )
    };
    // A /18 of a European last-mile /16, steered via Hong Kong, with one
    // corruption of the /18's route at London's first border: the report,
    // and what the resolver makes of a packet from London into the /18.
    let steered = |corrupt: &dyn Fn(&mut vns_bgp::Speaker, &Prefix, SpeakerId)| {
        let (mut internet, mut vns) = testworld::raw_tiny(20);
        let sub = testworld::european_prefix(&internet).subnet(18, 1);
        let inject = MgmtChange::InjectMoreSpecific {
            prefix: sub,
            pop: PopId(8),
        };
        testworld::mgmt(&mut internet, &mut vns, inject);
        let lon = vns.pop(PopId(10)).borders[0];
        corrupt(
            internet.net.speaker_mut(lon).expect("LON border"),
            &sub,
            lon,
        );
        let resolved = vns.path_via_vns(&internet, PopId(10), sub.first_host());
        (verify(&internet, &vns), sub, lon, resolved)
    };
    let found = |report: &DataplaneReport, check, sub: Prefix, lon| {
        let hit = report
            .report
            .of(check)
            .any(|v| v.prefix == Some(sub) && v.speaker == Some(lon));
        assert!(hit, "nothing on the steered /18:\n{}", report.render());
    };

    let (internet, vns) = testworld::raw_tiny(20);
    let before = verify(&internet, &vns);
    let (after, ..) = steered(&|_, _, _| {});
    assert!(before.report.is_clean() && after.report.is_clean());
    assert_eq!(after.destinations, before.destinations + 1);

    let (report, sub, lon, resolved) = steered(&|sp, sub, lon| {
        assert!(sp.corrupt_redirect_ibgp(sub, lon));
    });
    assert_eq!(resolved.err(), Some(PathError::ForwardingLoop));
    found(&report, Invariant::LoopFree, sub, lon);

    let (report, sub, lon, resolved) = steered(&|sp, sub, _| {
        assert!(sp.corrupt_redirect_ibgp(sub, SpeakerId(u32::MAX)));
    });
    assert!(resolved.is_err());
    found(&report, Invariant::NoBlackhole, sub, lon);

    // Losing the /18 at a border is not a defect: the longest match falls
    // back onto the covering /16, which still delivers.
    let (report, _, _, resolved) = steered(&|sp, sub, _| {
        assert!(sp.corrupt_drop_route(sub));
    });
    assert!(resolved.is_ok());
    assert!(report.report.is_clean(), "{}", report.render());
}
