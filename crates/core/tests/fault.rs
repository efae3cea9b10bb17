//! The fault-injection subsystem: scripted cut/restore events must be
//! exactly undoable — after a restore and an incremental reconvergence the
//! control plane routes like nothing happened.

use vns_bgp::SpeakerId;
use vns_core::{
    build_vns, FaultError, FaultEvent, FaultInjector, FaultPlan, PopId, Vns, VnsConfig,
};
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
fn session_cut_and_restore_round_trips() {
    let (mut internet, vns) = world(7);
    let pop = &vns.pops()[0];
    let border = pop.borders[0];
    let (up_as, up_city) = vns.primary_upstream(pop.id());
    let upstream = internet.router_of(up_as, up_city).expect("upstream router");

    let mut inj = FaultInjector::new();
    inj.apply(
        &mut internet,
        &vns,
        FaultEvent::SessionCut {
            a: border,
            b: upstream,
        },
    )
    .expect("cut");
    vns.reconverge(&mut internet).expect("reconverge");
    assert!(internet.net.is_quiescent());
    assert!(!inj.fully_restored());

    inj.apply(
        &mut internet,
        &vns,
        FaultEvent::SessionRestore {
            a: border,
            b: upstream,
        },
    )
    .expect("restore");
    vns.reconverge(&mut internet).expect("reconverge");
    assert!(internet.net.is_quiescent());
    assert!(inj.fully_restored());
    let frac = routable_fraction(&internet, &vns, pop.id());
    assert!(frac > 0.999, "post-restore routable fraction: {frac}");
}

#[test]
fn reflector_blip_survives_and_recovers() {
    let (mut internet, vns) = world(81);
    let [rr0, _] = vns.reflectors();
    let plan = FaultPlan::router_blip("rr0-blip", rr0);
    let mut inj = FaultInjector::new();

    for (i, &step) in plan.steps.iter().enumerate() {
        inj.apply(&mut internet, &vns, step).expect("apply");
        vns.reconverge(&mut internet).expect("reconverge");
        assert!(internet.net.is_quiescent(), "step {i} left the net torn");
        // The surviving reflector keeps the AS routed even mid-plan.
        let frac = routable_fraction(&internet, &vns, PopId(10));
        assert!(frac > 0.999, "step {i}: routable fraction {frac}");
    }
    assert!(inj.fully_restored());
    assert_eq!(inj.dead_routers().count(), 0);
}

#[test]
fn router_down_marks_dead_until_up() {
    let (mut internet, vns) = world(3);
    let [rr0, _] = vns.reflectors();
    let sessions = peer_count(&internet, rr0);
    assert!(sessions > 0);
    let mut inj = FaultInjector::new();
    inj.apply(&mut internet, &vns, FaultEvent::RouterDown { router: rr0 })
        .expect("down");
    assert_eq!(inj.dead_routers().collect::<Vec<_>>(), vec![rr0]);
    assert_eq!(
        peer_count(&internet, rr0),
        0,
        "a down router holds no session"
    );
    inj.apply(&mut internet, &vns, FaultEvent::RouterUp { router: rr0 })
        .expect("up");
    assert!(inj.fully_restored());
    assert_eq!(peer_count(&internet, rr0), sessions);
}

fn peer_count(internet: &Internet, router: SpeakerId) -> usize {
    internet
        .net
        .speaker(router)
        .expect("speaker")
        .peer_ids()
        .count()
}

/// A border of PoP 0 and its primary upstream: a session to cut on purpose
/// around an outage of the border.
fn border_and_upstream(internet: &Internet, vns: &Vns) -> (SpeakerId, SpeakerId) {
    let pop = &vns.pops()[0];
    let (up_as, up_city) = vns.primary_upstream(pop.id());
    let upstream = internet.router_of(up_as, up_city).expect("upstream router");
    (pop.borders[0], upstream)
}

/// Applies `events` in order, reconverging after each.
fn apply_all(inj: &mut FaultInjector, internet: &mut Internet, vns: &Vns, events: &[FaultEvent]) {
    for &event in events {
        inj.apply(internet, vns, event)
            .unwrap_or_else(|e| panic!("{event}: {e}"));
        vns.reconverge(internet).expect("reconverge");
        assert!(internet.net.is_quiescent(), "{event} left the net torn");
    }
}

fn session_is_up(internet: &Internet, a: SpeakerId, b: SpeakerId) -> bool {
    let holds = |x, y| {
        let sp = internet.net.speaker(x).expect("speaker");
        sp.peer_config(y).is_some()
    };
    holds(a, b) && holds(b, a)
}

fn assert_healed(inj: &FaultInjector, internet: &Internet, vns: &Vns, a: SpeakerId, b: SpeakerId) {
    assert!(inj.fully_restored());
    assert!(session_is_up(internet, a, b));
    let frac = routable_fraction(internet, vns, vns.pops()[0].id());
    assert!(frac > 0.999, "post-restore routable fraction: {frac}");
}

#[test]
fn router_up_leaves_a_session_cut_on_purpose_cut() {
    let (mut internet, vns) = world(7);
    let (a, b) = border_and_upstream(&internet, &vns);
    let sessions = peer_count(&internet, a);
    let mut inj = FaultInjector::new();
    apply_all(
        &mut inj,
        &mut internet,
        &vns,
        &[
            FaultEvent::SessionCut { a, b },
            FaultEvent::RouterDown { router: a },
            FaultEvent::RouterUp { router: a },
        ],
    );
    // The outage took the border's other sessions and gave them back; the
    // cut is still somebody's decision.
    assert!(!session_is_up(&internet, a, b));
    assert_eq!(peer_count(&internet, a), sessions - 1);
    assert!(!inj.fully_restored());
    apply_all(
        &mut inj,
        &mut internet,
        &vns,
        &[FaultEvent::SessionRestore { a, b }],
    );
    assert_healed(&inj, &internet, &vns, a, b);
}

#[test]
fn session_restore_during_an_outage_waits_for_router_up() {
    let (mut internet, vns) = world(7);
    let (a, b) = border_and_upstream(&internet, &vns);
    let mut inj = FaultInjector::new();
    // Named the other way round: `a~b` and `b~a` are one session.
    apply_all(
        &mut inj,
        &mut internet,
        &vns,
        &[
            FaultEvent::SessionCut { a, b },
            FaultEvent::RouterDown { router: a },
            FaultEvent::SessionRestore { a: b, b: a },
        ],
    );
    assert!(
        !session_is_up(&internet, a, b),
        "a down router holds no session"
    );
    assert_eq!(inj.dead_routers().collect::<Vec<_>>(), vec![a]);
    apply_all(
        &mut inj,
        &mut internet,
        &vns,
        &[FaultEvent::RouterUp { router: a }],
    );
    assert_healed(&inj, &internet, &vns, a, b);
}

#[test]
fn session_cut_during_an_outage_is_refused_and_owns_nothing() {
    let (mut internet, vns) = world(7);
    let (a, b) = border_and_upstream(&internet, &vns);
    let mut inj = FaultInjector::new();
    apply_all(
        &mut inj,
        &mut internet,
        &vns,
        &[FaultEvent::RouterDown { router: a }],
    );
    // The session is already gone with its router: nothing to cut.
    assert_eq!(
        inj.apply(&mut internet, &vns, FaultEvent::SessionCut { a, b }),
        Err(FaultError::UnknownSession(a, b))
    );
    apply_all(
        &mut inj,
        &mut internet,
        &vns,
        &[FaultEvent::RouterUp { router: a }],
    );
    assert_healed(&inj, &internet, &vns, a, b);
}

#[test]
fn circuit_cut_and_restore_round_trips() {
    let (mut internet, vns) = world(5);
    // Cut the intra-PoP link between the two borders of PoP 0: both stay
    // reachable via the cluster mesh, and the restore puts the cost back.
    let pop = &vns.pops()[0];
    let [b0, b1] = pop.borders;
    let mut inj = FaultInjector::new();
    inj.apply(&mut internet, &vns, FaultEvent::CircuitCut { a: b0, b: b1 })
        .expect("cut");
    vns.reconverge(&mut internet).expect("reconverge");
    assert!(internet.net.is_quiescent());
    inj.apply(
        &mut internet,
        &vns,
        FaultEvent::CircuitRestore { a: b0, b: b1 },
    )
    .expect("restore");
    vns.reconverge(&mut internet).expect("reconverge");
    assert!(inj.fully_restored());
    let frac = routable_fraction(&internet, &vns, pop.id());
    assert!(frac > 0.999, "post-restore routable fraction: {frac}");
}

#[test]
fn unknown_targets_are_rejected() {
    let (mut internet, vns) = world(11);
    let [rr0, rr1] = vns.reflectors();
    let bogus = vns_bgp::SpeakerId(u32::MAX);
    let mut inj = FaultInjector::new();
    assert_eq!(
        inj.apply(
            &mut internet,
            &vns,
            FaultEvent::RouterDown { router: bogus }
        ),
        Err(FaultError::UnknownRouter(bogus))
    );
    // Restoring a session never severed by this injector is an error, even
    // though the session exists.
    assert_eq!(
        inj.apply(
            &mut internet,
            &vns,
            FaultEvent::SessionRestore { a: rr0, b: rr1 }
        ),
        Err(FaultError::UnknownSession(rr0, rr1))
    );
    // No circuit between the two reflectors (they attach via borders).
    assert_eq!(
        inj.apply(
            &mut internet,
            &vns,
            FaultEvent::CircuitCut { a: rr0, b: rr1 }
        ),
        Err(FaultError::UnknownCircuit(rr0, rr1))
    );
}

#[test]
fn flap_plan_expands_to_alternating_steps() {
    let a = vns_bgp::SpeakerId(1);
    let b = vns_bgp::SpeakerId(2);
    let plan = FaultPlan::session_flap("flap", a, b, 3);
    assert_eq!(plan.steps.len(), 6);
    assert_eq!(plan.steps[0], FaultEvent::SessionCut { a, b });
    assert_eq!(plan.steps[1], FaultEvent::SessionRestore { a, b });
    assert_eq!(plan.steps[4], FaultEvent::SessionCut { a, b });
}
