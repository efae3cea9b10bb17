//! The `Certifier` oracle: one certified change equals the sequence every
//! campaign used to write by hand — apply the event, run the engine within
//! the deployment's budget, demand quiescence, scope the dead routers, run
//! both stages — on each of the failover campaign's five scenarios, and
//! equals what the campaign itself records. Every management action and
//! attack costs through the one door what it cost before there was one.
//! Refused changes change nothing.

mod testworld;

use vns_bench::experiments::failover;
use vns_bench::{World, WorldConfig};
use vns_bgp::ConvergenceStats;
use vns_core::{
    AttackKind, Change, ChangeError, FaultError, FaultEvent, FaultInjector, FaultPlan, MgmtChange,
    PopId, Vns,
};
use vns_netsim::Par;
use vns_topo::Internet;
use vns_verify::{
    verify_dataplane_scoped, verify_scoped, Certified, Certifier, CertifyError, DataplaneConfig,
    VerifyScope,
};

use testworld::REPRO_SEED;

/// The failover campaign's five plans, restated in artefact order.
fn failover_plans(world: &World) -> Vec<FaultPlan> {
    let vns = &world.vns;
    let upstream_of = |pop: PopId| {
        let (up_as, up_city) = vns.primary_upstream(pop);
        let upstream = world
            .internet
            .router_of(up_as, up_city)
            .expect("upstream router exists");
        (vns.pop(pop).borders[0], upstream)
    };
    let [rr0, _] = vns.reflectors();
    let sin = vns.pop(PopId(7)).borders[0];
    let ams = vns.pop(PopId(9)).borders[0];
    let (ams_border, ams_up) = upstream_of(PopId(9));
    let (sjs_border, sjs_up) = upstream_of(PopId(1));
    vec![
        FaultPlan::router_blip("rr-failover", rr0),
        FaultPlan::router_blip("pop-border-loss", sin),
        FaultPlan::circuit_blip("longhaul-cut", sin, ams),
        FaultPlan::new(
            "upstream-cut",
            vec![
                FaultEvent::SessionCut {
                    a: ams_border,
                    b: ams_up,
                },
                FaultEvent::SessionRestore {
                    a: ams_border,
                    b: ams_up,
                },
            ],
        ),
        FaultPlan::session_flap("ebgp-flap", sjs_border, sjs_up, 3),
    ]
}

/// What one step yields, in comparable form: the reconvergence and both
/// stages' rendered findings (the data-plane timing ledger left out).
type Outcome = (ConvergenceStats, String, String);

fn rendered(c: &Certified) -> Outcome {
    (c.stats, c.control.render(), c.dataplane.report.render())
}

/// The hand-written sequence, as the campaigns ran it before the
/// `Certifier`: the engine is called directly, so this also pins
/// `Vns::reconverge` to the call it replaced.
fn by_hand(inj: &mut FaultInjector, internet: &mut Internet, vns: &Vns, e: FaultEvent) -> Outcome {
    inj.apply(internet, vns, e).expect("scripted event applies");
    let stats = internet
        .net
        .run(vns.message_budget())
        .expect("reconverges within budget");
    assert!(internet.net.is_quiescent(), "{e} left the net torn");
    let scope = VerifyScope::with_dead_routers(inj.dead_routers());
    let control = verify_scoped(internet, vns, &scope);
    let dataplane = verify_dataplane_scoped(internet, vns, &scope, &DataplaneConfig::default());
    (stats, control.render(), dataplane.report.render())
}

#[test]
fn certified_steps_equal_the_hand_written_sequence_and_the_campaign() {
    let world = World::build(WorldConfig::tiny(REPRO_SEED));
    let campaign = failover::run(&world, Par::seq());
    let plans = failover_plans(&world);
    assert_eq!(campaign.scenarios.len(), plans.len());
    for (plan, recorded) in plans.iter().zip(&campaign.scenarios) {
        assert_eq!(plan.name, recorded.name);
        assert_eq!(plan.steps.len(), recorded.steps.len(), "{}", plan.name);
        let mut certified_world = world.fork();
        let mut hand_world = world.fork();
        let mut certifier = Certifier::default();
        let mut inj = FaultInjector::new();
        for (&event, step) in plan.steps.iter().zip(&recorded.steps) {
            let got = certifier
                .apply(
                    &mut certified_world.internet,
                    &mut certified_world.vns,
                    Change::Fault(event),
                )
                .unwrap_or_else(|e| panic!("{}: {event}: {e}", plan.name));
            let want = by_hand(&mut inj, &mut hand_world.internet, &hand_world.vns, event);
            assert_eq!(rendered(&got), want, "{}: {event}", plan.name);

            assert_eq!(step.event, event.to_string(), "{}", plan.name);
            assert_eq!(step.stats, got.stats, "{}: {event}", plan.name);
            let counts = (
                got.control.error_count(),
                got.control.warning_count(),
                got.dataplane.error_count(),
                got.dataplane.warning_count(),
            );
            let recorded_counts = (
                step.verify_errors,
                step.verify_warnings,
                step.dataplane_errors,
                step.dataplane_warnings,
            );
            assert_eq!(counts, recorded_counts, "{}: {event}", plan.name);
        }
        assert!(certifier.fully_restored(), "{}", plan.name);
    }
}

#[test]
fn refused_events_change_nothing() {
    let mut world = World::build(WorldConfig::tiny(REPRO_SEED));
    let [rr0, _] = world.vns.reflectors();
    let border = world.vns.pop(PopId(9)).borders[0];
    let (up_as, up_city) = world.vns.primary_upstream(PopId(9));
    let upstream = world.internet.router_of(up_as, up_city).expect("upstream");
    let mut certifier = Certifier::default();
    let mut apply = |world: &mut World, event| {
        certifier.apply(&mut world.internet, &mut world.vns, Change::Fault(event))
    };
    let certifies = |c: Result<Certified, CertifyError>| {
        let c = c.expect("a valid event certifies");
        assert!(c.control.passes() && c.dataplane.passes());
    };

    // A router that was never downed cannot come up.
    assert_eq!(
        apply(&mut world, FaultEvent::RouterUp { router: rr0 }).err(),
        Some(CertifyError::Change(ChangeError::Fault(
            FaultError::UnknownRouter(rr0)
        )))
    );
    certifies(apply(&mut world, FaultEvent::RouterDown { router: rr0 }));

    // A session that was never cut cannot be restored.
    let (a, b) = (border, upstream);
    assert_eq!(
        apply(&mut world, FaultEvent::SessionRestore { a, b }).err(),
        Some(CertifyError::Change(ChangeError::Fault(
            FaultError::UnknownSession(a, b)
        )))
    );
    certifies(apply(&mut world, FaultEvent::RouterUp { router: rr0 }));
    assert!(certifier.fully_restored());
}

#[test]
fn more_specific_at_an_unknown_pop_is_refused_unstaged() {
    let mut world = World::build(WorldConfig::tiny(REPRO_SEED));
    let before = testworld::rib_snapshot(&world.internet);
    let sub = testworld::european_prefix(&world.internet).subnet(18, 1);
    let inject = MgmtChange::InjectMoreSpecific {
        prefix: sub,
        pop: PopId(99),
    };
    let got = Certifier::default().apply(&mut world.internet, &mut world.vns, Change::Mgmt(inject));
    assert!(
        matches!(got, Err(CertifyError::Change(ChangeError::NoTarget(_)))),
        "{got:?}"
    );
    assert!(world.internet.net.is_quiescent());
    assert_eq!(testworld::rib_snapshot(&world.internet), before);
}

/// One row of [`GOLDEN`]: the change, the events an attack reports (`None`
/// for a management action), messages, activations, and error-severity
/// findings of the control and data-plane stages.
type GoldenRow = (Change, Option<usize>, u64, u64, usize, usize);

/// Every management action and every attack, each on its own fork of the
/// scale-0.45 geo world at `REPRO_SEED`, as commit a211588 measured them:
/// `mgmt_force_exit` / `mgmt_exempt` / `mgmt_clear` /
/// `mgmt_inject_more_specific` (instrumented to report the convergence
/// stats they dropped) or `launch_attack`, then `Certifier::check`. The
/// management rows act on `testworld::european_prefix` and its second /18.
#[rustfmt::skip] // one change per line reads as the table it is
fn golden(prefix: vns_bgp::Prefix) -> [GoldenRow; 14] {
    let force = MgmtChange::ForceExit { prefix, pop: PopId(7) };
    let inject = MgmtChange::InjectMoreSpecific { prefix: prefix.subnet(18, 1), pop: PopId(8) };
    let mgmt = Change::Mgmt;
    let attack = |kind| Change::Attack { kind, seed: REPRO_SEED };
    [
        (mgmt(force),                                None,     3924,  119,    0, 0),
        (mgmt(MgmtChange::Exempt(prefix)),           None,     3947,  142,    0, 0),
        (mgmt(MgmtChange::Clear(prefix)),            None,     3878,   74,    0, 0),
        (mgmt(inject),                               None,       48,   47,    0, 0),
        (attack(AttackKind::AnycastExactHijack),     Some(1),   175,    3,    0, 1),
        (attack(AttackKind::AnycastInterception),    Some(1),   514,  200,   24, 1),
        (attack(AttackKind::LastMileHijack),         Some(1),   618,  246,    0, 1),
        (attack(AttackKind::RouteLeak),              Some(2),  1626,  144,  166, 0),
        (attack(AttackKind::GeoPoisonDb),            Some(1),     0,    0, 1004, 0),
        (attack(AttackKind::GeoPoisonIngested),      Some(2),  6500,  142, 1004, 0),
        (attack(AttackKind::GeoShiftIngested),       Some(2), 13930,  142, 4042, 0),
        (attack(AttackKind::FlapStorm),              Some(18), 6276, 1721,    0, 0),
        (attack(AttackKind::ByzantineLoop),          Some(2),     0,    2,    0, 1),
        (attack(AttackKind::ByzantineBlackhole),     Some(1),     0,    1,    0, 1),
    ]
}

#[test]
fn every_change_costs_through_the_door_what_it_cost_before() {
    let world = World::build(WorldConfig::tiny(REPRO_SEED));
    let rows = golden(testworld::european_prefix(&world.internet));
    for (change, events, messages, activations, control, dataplane) in rows {
        let mut fork = world.fork();
        let got = Certifier::default()
            .apply(&mut fork.internet, &mut fork.vns, change)
            .unwrap_or_else(|e| panic!("{change:?}: {e}"));
        let measured = (
            got.attack.map(|a| a.events),
            got.stats.messages,
            got.stats.activations,
            got.control.error_count(),
            got.dataplane.error_count(),
        );
        assert_eq!(
            measured,
            (events, messages, activations, control, dataplane),
            "{change:?}"
        );
    }
}
