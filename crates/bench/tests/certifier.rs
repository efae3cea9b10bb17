//! The `Certifier` oracle: one certified change equals the sequence every
//! campaign used to write by hand — apply the event, run the engine within
//! the deployment's budget, demand quiescence, scope the dead routers, run
//! both stages — on each of the failover campaign's five scenarios, and
//! equals what the campaign itself records. Refused events change nothing.

mod testworld;

use vns_bench::experiments::failover;
use vns_bench::{World, WorldConfig};
use vns_bgp::ConvergenceStats;
use vns_core::{FaultError, FaultEvent, FaultInjector, FaultPlan, PopId, Vns};
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
                .apply(&mut certified_world.internet, &certified_world.vns, event)
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
    let mut apply =
        |world: &mut World, event| certifier.apply(&mut world.internet, &world.vns, event);
    let certifies = |c: Result<Certified, CertifyError>| {
        let c = c.expect("a valid event certifies");
        assert!(c.control.passes() && c.dataplane.passes());
    };

    // A router that was never downed cannot come up.
    assert_eq!(
        apply(&mut world, FaultEvent::RouterUp { router: rr0 }).err(),
        Some(CertifyError::Fault(FaultError::UnknownRouter(rr0)))
    );
    certifies(apply(&mut world, FaultEvent::RouterDown { router: rr0 }));

    // A session that was never cut cannot be restored.
    let (a, b) = (border, upstream);
    assert_eq!(
        apply(&mut world, FaultEvent::SessionRestore { a, b }).err(),
        Some(CertifyError::Fault(FaultError::UnknownSession(a, b)))
    );
    certifies(apply(&mut world, FaultEvent::RouterUp { router: rr0 }));
    assert!(certifier.fully_restored());
}
