//! The verifier's forwarding graph and the data-plane resolver are two
//! loops around one forwarding decision
//! (`vns_topo::path::forwarding_decision`; its own decision table lives
//! beside it). What each loop adds is its own — cycle detection, the IGP
//! walk against `reachable`, the interconnect choice, termination — and
//! this suite pins that they agree: on a clean world, after every event of
//! the failover campaign's fault plans, with RIB defects planted, under the
//! management interface's overrides and with a forged more-specific in the
//! registry, every (live speaker, destination) pair gets the same fate from
//! both —
//!
//! * `Origin { at }` / `Anycast { at }` ⇔ `Ok`, ending at router `at`;
//! * `Blackhole` ⇔ `Err(NoRoute | NoSuchSpeaker)`;
//! * `Cycle` ⇔ `Err(ForwardingLoop)`;
//! * no outcome (the speaker holds no covering route) ⇔ `Err(NoRoute)` at
//!   the speaker itself.

mod testworld;

use vns_bgp::{PathError, SpeakerId};
use vns_core::{AttackKind, Change, FaultEvent, FaultInjector, FaultPlan, MgmtChange, PopId, Vns};
use vns_topo::path::resolve_path;
use vns_topo::Internet;
use vns_verify::forwarding_graph::{analyze, Terminal};
use vns_verify::{plant_defect, VerifyScope};

/// Asserts graph ≡ resolver for every live speaker and destination;
/// returns how many pairs ended in (delivery, blackhole, cycle).
fn assert_agreement(internet: &Internet, scope: &VerifyScope, context: &str) -> [usize; 3] {
    let analysis = analyze(internet, scope);
    assert!(
        !analysis.destinations.is_empty(),
        "{context}: no destinations"
    );
    let mut seen = [0usize; 3];
    for dest in &analysis.destinations {
        for id in internet.net.speaker_ids().filter(|&s| !scope.is_dead(s)) {
            // The entry city picks among parallel interconnects, never the
            // next router, so any city gives the same router sequence.
            let city = internet.city_of_router(id).expect("speaker has a city");
            let resolved = resolve_path(internet, id, city, dest.ip);
            let at = |e: &str| format!("{context}: {id} -> {} ({e})", dest.prefix);
            match dest.outcome(id) {
                None => assert_eq!(
                    resolved.as_ref().err(),
                    Some(&PathError::NoRoute(id)),
                    "{}",
                    at("no outcome")
                ),
                Some(Terminal::Origin { at: end } | Terminal::Anycast { at: end }) => {
                    seen[0] += 1;
                    let path = resolved.unwrap_or_else(|e| panic!("{}", at(&e.to_string())));
                    assert_eq!(path.routers.last(), Some(&end), "{}", at("delivery router"));
                }
                Some(Terminal::Blackhole { .. }) => {
                    seen[1] += 1;
                    assert!(
                        matches!(
                            resolved,
                            Err(PathError::NoRoute(_) | PathError::NoSuchSpeaker(_))
                        ),
                        "{}: {resolved:?}",
                        at("blackhole")
                    );
                }
                Some(Terminal::Cycle { .. }) => {
                    seen[2] += 1;
                    assert_eq!(
                        resolved.as_ref().err(),
                        Some(&PathError::ForwardingLoop),
                        "{}",
                        at("cycle")
                    );
                }
                // The scope, which the resolver does not know, ends this walk.
                Some(Terminal::DeadSink { .. }) => {}
            }
        }
    }
    seen
}

/// The failover campaign's scenarios (`experiments/failover.rs`): reflector
/// loss, egress border loss, a long-haul circuit cut, an upstream session
/// cut, and a flapping eBGP session.
fn fault_plans(internet: &Internet, vns: &Vns) -> Vec<FaultPlan> {
    let border = |pop: u8| vns.pop(PopId(pop)).borders[0];
    let upstream = |pop: u8| -> SpeakerId {
        let (up_as, up_city) = vns.primary_upstream(PopId(pop));
        internet.router_of(up_as, up_city).expect("upstream router")
    };
    vec![
        FaultPlan::router_blip("rr-failover", vns.reflectors()[0]),
        FaultPlan::router_blip("pop-border-loss", border(7)),
        FaultPlan::circuit_blip("longhaul-cut", border(7), border(9)),
        FaultPlan::new(
            "upstream-cut",
            vec![
                FaultEvent::SessionCut {
                    a: border(9),
                    b: upstream(9),
                },
                FaultEvent::SessionRestore {
                    a: border(9),
                    b: upstream(9),
                },
            ],
        ),
        FaultPlan::session_flap("ebgp-flap", border(1), upstream(1), 2),
    ]
}

#[test]
fn graph_agrees_with_resolver_on_clean_and_faulted_worlds() {
    for seed in [7, 77] {
        let (mut internet, vns) = testworld::raw_tiny(seed);
        let clean = assert_agreement(&internet, &VerifyScope::default(), "clean");
        assert!(clean[0] > 1_000, "seed {seed}: only {clean:?} pairs");
        assert_eq!(clean[1..], [0, 0], "seed {seed}: clean world misroutes");

        for plan in fault_plans(&internet, &vns) {
            let mut inj = FaultInjector::new();
            for (i, &event) in plan.steps.iter().enumerate() {
                inj.apply(&mut internet, &vns, event)
                    .expect("event applies");
                internet
                    .net
                    .run(vns.message_budget())
                    .expect("reconverges within budget");
                let scope = VerifyScope::with_dead_routers(inj.dead_routers());
                let context = format!("seed {seed} {} step {i} ({event})", plan.name);
                assert_agreement(&internet, &scope, &context);
            }
            assert!(inj.fully_restored(), "{} left residue", plan.name);
        }
    }
}

#[test]
fn graph_agrees_with_resolver_on_planted_rib_defects() {
    // The corpus entries that corrupt RIBs (the others corrupt service
    // tables or geography, which neither side reads).
    let (mut blackholes, mut cycles) = (0, 0);
    for name in [
        "ibgp-border-cycle",
        "ebgp-echo-cycle",
        "self-next-hop",
        "dropped-transit-rib",
        "dropped-anycast-rib",
        "igp-unreachable-next-hop",
        "phantom-next-hop",
    ] {
        let (mut internet, vns) = testworld::raw_tiny(77);
        plant_defect(name, &mut internet, &vns, None)
            .unwrap_or_else(|| panic!("defect {name} found no site"));
        let seen = assert_agreement(&internet, &VerifyScope::default(), name);
        assert!(seen[1] + seen[2] > 0, "{name} changed no pair's fate");
        blackholes += seen[1];
        cycles += seen[2];
    }
    assert!(blackholes > 0 && cycles > 0, "{blackholes} / {cycles}");
}

#[test]
fn graph_agrees_with_resolver_under_management_overrides() {
    let scope = VerifyScope::default();
    // A steered /18 is a destination of its own, walked through the
    // steering branch of the decision at every HKG border.
    let (mut internet, mut vns) = testworld::raw_tiny(20);
    let clean = analyze(&internet, &scope).destinations.len();
    let sub = testworld::european_prefix(&internet).subnet(18, 1);
    let inject = MgmtChange::InjectMoreSpecific {
        prefix: sub,
        pop: PopId(8),
    };
    testworld::mgmt(&mut internet, &mut vns, inject);
    let seen = assert_agreement(&internet, &scope, "steered /18");
    assert_eq!(seen[1..], [0, 0], "a healthy steered subnet misroutes");
    let analysis = analyze(&internet, &scope);
    assert_eq!(analysis.destinations.len(), clean + 1);
    let steered = analysis.destinations.last().expect("destinations");
    assert_eq!((steered.prefix, steered.ip), (sub, sub.first_host()));
    // Only VNS routers hold the NO_EXPORT /18, but every speaker with the
    // covering /16 is a source for an address inside it.
    let parent = analysis
        .destination(&testworld::european_prefix(&internet))
        .expect("parent analysed");
    assert_eq!(steered.sources(), parent.sources());

    // A forced exit moves the egress, not the agreement.
    let (mut internet, mut vns) = testworld::raw_tiny(20);
    let prefix = testworld::european_prefix(&internet);
    let force = MgmtChange::ForceExit {
        prefix,
        pop: PopId(7),
    };
    testworld::mgmt(&mut internet, &mut vns, force);
    let seen = assert_agreement(&internet, &scope, "forced exit");
    assert_eq!(seen[1..], [0, 0], "a forced exit misroutes");
}

#[test]
fn graph_agrees_with_resolver_with_a_forged_more_specific_registered() {
    // `anycast-interception` registers a /20 under the anycast /16: the
    // registry holds two populated lengths and the /16 is shadowed at its
    // first host.
    let (mut internet, mut vns) = testworld::raw_tiny(77);
    let interception = Change::Attack {
        kind: AttackKind::AnycastInterception,
        seed: 77,
    };
    let attack = vns
        .apply(&mut internet, &mut FaultInjector::new(), interception)
        .expect("attack launches")
        .attack
        .expect("attack staged");
    let forged = attack.victim_prefix.expect("forged prefix");
    let seen = assert_agreement(&internet, &VerifyScope::default(), "anycast-interception");
    assert!(seen[0] > 1_000, "only {seen:?} pairs");
    let analysis = analyze(&internet, &VerifyScope::default());
    assert!(analysis.destination(&forged).is_some());
    assert!(analysis.destination(&vns.anycast_prefix()).is_none());
}
