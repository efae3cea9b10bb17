//! The verifier says exactly what it said when every read searched.
//!
//! The control-plane stage reads a sender's best route by the prefix id its
//! Adj-RIB-In walk already holds, and the forwarding graph matches each
//! destination against the network's prefix table once, then reads every
//! router's Loc-RIB at those ids. This suite restates both the way they were
//! written before — VALLEY-FREE reading `sender.best(&prefix)`, and a graph
//! walk in which every router runs its own longest match
//! (`Speaker::lookup_up_to`) — and requires identical output: the
//! VALLEY-FREE lines of `Report::render()`, and every destination, outcome
//! and cycle of the `ForwardingAnalysis`. Worlds: the seed sweep in both
//! routing modes, each of the twelve planted defects, each of the ten
//! attacks, and every event of two failover plans.
//!
//! The oracle walk is deliberately naive: each source is followed hop by
//! hop to its fate, with no memo, so cycles are found (and numbered) in the
//! order the sources are visited.

mod testworld;

use std::collections::BTreeMap;

use vns_bgp::policy::relation_from_tags;
use vns_bgp::{may_export, Prefix, RouteSource, Speaker, SpeakerId};
use vns_core::{AttackKind, FaultInjector, FaultPlan, PopId, Vns};
use vns_service::{EndpointTable, PathTable};
use vns_topo::path::Forward;
use vns_topo::{AsId, Internet, PrefixInfo};
use vns_verify::forwarding_graph::{analyze, BlackholeCause, Terminal};
use vns_verify::{plant_defect, verify_scoped, Invariant, VerifyScope, Violation, DEFECT_NAMES};

/// The report's per-invariant cap (`MAX_PER_INVARIANT` in `vns-verify`).
const CAP: usize = 100;

/// VALLEY-FREE as it read before prefix ids: every eBGP-learned
/// Adj-RIB-In entry checked against the sender's best *by prefix*.
fn valley_free_by_prefix(internet: &Internet) -> Vec<Violation> {
    let net = &internet.net;
    let mut out = Vec::new();
    for id in net.speaker_ids() {
        let sp = net.speaker(id).expect("listed speaker");
        for (prefix, _, _, cand) in sp.adj_rib_in_entries() {
            let RouteSource::Ebgp { peer, relation, .. } = cand.source else {
                continue;
            };
            let error = |msg: String| {
                Violation::error(Invariant::ValleyFree, msg)
                    .at(id)
                    .on(prefix)
            };
            let Some(sender) = net.speaker(peer) else {
                out.push(error(format!(
                    "eBGP route from {peer}, which is not a registered speaker"
                )));
                continue;
            };
            let Some(sbest) = sender.best(&prefix) else {
                continue;
            };
            if sbest.source.peer() == Some(id) {
                out.push(error(format!(
                    "{peer}'s best route for this prefix was learned \
                     from us, yet we hold its advertisement — the \
                     route was echoed back across the session"
                )));
                continue;
            }
            let learned = match &sbest.source {
                RouteSource::Local => None,
                RouteSource::Ebgp { relation, .. } => Some(*relation),
                RouteSource::Ibgp { .. } => match relation_from_tags(&sbest.attrs) {
                    Some(r) => Some(r),
                    None if sbest.attrs.as_path.is_empty() => None,
                    None => {
                        out.push(error(format!(
                            "{peer} exported an iBGP-learned transit \
                             route with no ingress-relation tag; its \
                             Gao–Rexford class cannot be established"
                        )));
                        continue;
                    }
                },
            };
            let sender_to_us = relation.inverse();
            if !may_export(learned, sender_to_us) {
                out.push(error(format!(
                    "{peer} exported a {learned:?}-learned route to a \
                     {sender_to_us:?} — a valley: peer/provider routes \
                     may only be exported to customers"
                )));
            }
        }
    }
    out
}

/// The VALLEY-FREE lines `Report::render()` prints for `found`: the first
/// [`CAP`], then the suppression summary.
fn rendered(found: &[Violation]) -> Vec<String> {
    let mut lines: Vec<String> = found.iter().take(CAP).map(|v| format!("  {v}")).collect();
    if found.len() > CAP {
        let mut summary = Violation::error(
            Invariant::ValleyFree,
            format!(
                "… and {} more {} violations suppressed",
                found.len() - CAP,
                Invariant::ValleyFree
            ),
        );
        summary.severity = found.iter().map(|v| v.severity).max().expect("findings");
        lines.push(format!("  {summary}"));
    }
    lines
}

/// `forwarding_decision` as it read before covering lists: every router
/// runs its own longest match, and resolves a steering more-specific over
/// the best-external route of the covering prefix by value.
fn decision_by_lookup<'a>(
    sp: &Speaker,
    cur_as: Option<AsId>,
    ip: u32,
    pinfo: Option<&'a PrefixInfo>,
) -> Option<Forward<'a>> {
    let mut ceiling: Option<u8> = None;
    while let Some((matched, cand)) = sp.lookup_up_to(ip, ceiling) {
        ceiling = Some(matched.len());
        match cand.source {
            RouteSource::Ebgp { peer, .. } => return Some(Forward::Ebgp(peer)),
            RouteSource::Ibgp { .. } => return Some(Forward::Ibgp(cand.attrs.next_hop)),
            RouteSource::Local => {
                if pinfo.is_none_or(|pi| Some(pi.origin) == cur_as) {
                    return Some(Forward::Deliver(pinfo));
                }
                let own_exit = sp
                    .lookup_up_to(ip, ceiling)
                    .and_then(|(covering, _)| sp.best_external_route(&covering));
                if let Some(RouteSource::Ebgp { peer, .. }) = own_exit.map(|c| c.source) {
                    return Some(Forward::Ebgp(peer));
                }
            }
        }
    }
    ceiling.map(|_| Forward::NoRoute)
}

/// One step of the oracle walk.
enum Step {
    Next(SpeakerId),
    End(Terminal),
}

/// Where `cur` sends traffic for `ip`: the same checks the graph makes of
/// the decision (a known next router, an interconnect, an IGP path).
fn step(internet: &Internet, cur: SpeakerId, ip: u32, pinfo: Option<&PrefixInfo>) -> Option<Step> {
    let sp = internet.net.speaker(cur)?;
    let cur_as = internet.as_of_speaker(cur);
    let dead = |cause| Step::End(Terminal::Blackhole { at: cur, cause });
    let forward = decision_by_lookup(sp, cur_as, ip, pinfo)?;
    let Some(cur_as) = cur_as else {
        return Some(dead(BlackholeCause::UnknownSpeaker));
    };
    let known = |id: SpeakerId| internet.net.speaker(id).is_some();
    Some(match forward {
        Forward::NoRoute => dead(BlackholeCause::NoRoute),
        Forward::Deliver(pinfo) if pinfo.is_some_and(|pi| pi.anycast) => {
            Step::End(Terminal::Anycast { at: cur })
        }
        Forward::Deliver(_) => Step::End(Terminal::Origin { at: cur }),
        Forward::Ebgp(peer) if !known(peer) => dead(BlackholeCause::UnknownSpeaker),
        Forward::Ebgp(peer) if internet.links_between(cur, peer).is_empty() => {
            dead(BlackholeCause::NoInterconnect)
        }
        Forward::Ebgp(peer) => Step::Next(peer),
        Forward::Ibgp(nh) if nh == cur => Step::Next(cur),
        Forward::Ibgp(nh) if !known(nh) => dead(BlackholeCause::UnknownSpeaker),
        Forward::Ibgp(nh) => {
            let igp = internet.as_info(cur_as).igp.as_ref();
            if igp.is_some_and(|g| g.reachable(cur, nh)) {
                Step::Next(nh)
            } else {
                dead(BlackholeCause::IgpUnreachable)
            }
        }
    })
}

/// One destination of the oracle analysis.
type Destination = (
    Prefix,
    u32,
    BTreeMap<SpeakerId, Terminal>,
    Vec<Vec<SpeakerId>>,
);

/// Follows every live source to its fate, hop by hop.
fn walk_destination(internet: &Internet, scope: &VerifyScope, prefix: Prefix) -> Destination {
    let ip = prefix.first_host();
    let pinfo = internet.lookup_prefix(ip);
    let mut outcomes = BTreeMap::new();
    let mut cycles: Vec<Vec<SpeakerId>> = Vec::new();
    for src in internet.net.speaker_ids().filter(|&s| !scope.is_dead(s)) {
        let mut chain: Vec<SpeakerId> = Vec::new();
        let mut cur = src;
        let fate = loop {
            if scope.is_dead(cur) {
                break Some(Terminal::DeadSink { at: cur });
            }
            match step(internet, cur, ip, pinfo) {
                None => {
                    break (!chain.is_empty()).then_some(Terminal::Blackhole {
                        at: cur,
                        cause: BlackholeCause::NoRoute,
                    })
                }
                Some(Step::End(t)) => break Some(t),
                Some(Step::Next(next)) => {
                    chain.push(cur);
                    if let Some(at) = chain.iter().position(|&s| s == next) {
                        let mut members = chain[at..].to_vec();
                        let lead = (0..members.len())
                            .min_by_key(|&i| members[i])
                            .expect("a cycle has members");
                        members.rotate_left(lead);
                        let idx = match cycles.iter().position(|c| *c == members) {
                            Some(idx) => idx,
                            None => {
                                cycles.push(members);
                                cycles.len() - 1
                            }
                        };
                        break Some(Terminal::Cycle { idx });
                    }
                    cur = next;
                }
            }
        };
        if let Some(t) = fate {
            outcomes.insert(src, t);
        }
    }
    (prefix, ip, outcomes, cycles)
}

/// The oracle analysis: registered prefixes no more-specific registration
/// shadows, then originated-but-unregistered ones, each in address order.
fn walk_by_lookup(internet: &Internet, scope: &VerifyScope) -> Vec<Destination> {
    let registered = internet.prefixes().map(|pi| pi.prefix).filter(|p| {
        internet
            .lookup_prefix(p.first_host())
            .is_some_and(|m| m.prefix == *p)
    });
    let mut steered: Vec<Prefix> = internet
        .net
        .speaker_ids()
        .filter_map(|id| internet.net.speaker(id))
        .flat_map(Speaker::originated_prefixes)
        .filter(|p| internet.prefix_info(p).is_none())
        .collect();
    steered.sort();
    steered.dedup();
    registered
        .chain(steered)
        .map(|p| walk_destination(internet, scope, p))
        .collect()
}

/// Both oracles against both stages; returns how many VALLEY-FREE findings
/// and graph cycles the world holds, so callers can require the cases to
/// bite.
fn assert_says_what_it_said(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    ctx: &str,
) -> (usize, usize) {
    let report = verify_scoped(internet, vns, scope);
    // A finding line opens with `  [SEVERITY CODE]`.
    let got: Vec<String> = report
        .render()
        .lines()
        .filter(|l| {
            l.strip_prefix("  [")
                .and_then(|l| l.split_once(']'))
                .is_some_and(|(head, _)| head.ends_with(Invariant::ValleyFree.code()))
        })
        .map(str::to_string)
        .collect();
    let found = valley_free_by_prefix(internet);
    assert_eq!(got, rendered(&found), "{ctx}: VALLEY-FREE lines");

    let analysis = analyze(internet, scope);
    let got: Vec<Destination> = analysis
        .destinations
        .into_iter()
        .map(|d| (d.prefix, d.ip, d.outcomes, d.cycles))
        .collect();
    let want = walk_by_lookup(internet, scope);
    assert_eq!(got.len(), want.len(), "{ctx}: destinations");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{ctx}: destination {}", w.0);
    }
    (found.len(), want.iter().map(|d| d.3.len()).sum())
}

#[test]
fn seed_sweep_worlds_say_what_they_said() {
    for seed in testworld::SWEEP_SEEDS {
        for hot in [false, true] {
            let world = testworld::sweep(seed, hot);
            let ctx = format!("seed {seed} hot {hot}");
            assert_says_what_it_said(&world.internet, &world.vns, &VerifyScope::default(), &ctx);
        }
    }
}

#[test]
fn planted_defects_say_what_they_said() {
    let mut cycles = 0;
    for name in DEFECT_NAMES {
        let mut world = testworld::tiny(77);
        let endpoints = EndpointTable::build(&world.internet, &world.vns);
        let mut paths = PathTable::build(&world.internet, &world.vns, &endpoints);
        plant_defect(
            name,
            &mut world.internet,
            &world.vns,
            Some((&endpoints, &mut paths)),
        )
        .unwrap_or_else(|| panic!("defect {name} found no site"));
        let (_, c) =
            assert_says_what_it_said(&world.internet, &world.vns, &VerifyScope::default(), name);
        cycles += c;
    }
    assert!(cycles > 0, "no planted cycle reached the comparison");
}

#[test]
fn attacks_say_what_they_said() {
    let mut valleys = 0;
    for kind in AttackKind::ALL {
        let mut world = testworld::tiny(77);
        testworld::launch(&mut world, kind, 77)
            .unwrap_or_else(|e| panic!("{kind}: launch failed: {e}"));
        let (v, _) = assert_says_what_it_said(
            &world.internet,
            &world.vns,
            &VerifyScope::default(),
            &kind.to_string(),
        );
        valleys += v;
    }
    assert!(
        valleys > 0,
        "no attack left a VALLEY-FREE finding to compare"
    );
}

#[test]
fn failover_events_say_what_they_said() {
    let (mut internet, vns) = testworld::raw_tiny(77);
    let border = vns.pop(PopId(7)).borders[0];
    let (up_as, up_city) = vns.primary_upstream(PopId(1));
    let upstream = internet.router_of(up_as, up_city).expect("upstream router");
    let plans = [
        FaultPlan::router_blip("pop-border-loss", border),
        FaultPlan::session_flap("ebgp-flap", vns.pop(PopId(1)).borders[0], upstream, 2),
    ];
    for plan in plans {
        let mut inj = FaultInjector::new();
        for (i, &event) in plan.steps.iter().enumerate() {
            inj.apply(&mut internet, &vns, event)
                .expect("event applies");
            internet
                .net
                .run(vns.message_budget())
                .expect("reconverges within budget");
            let scope = VerifyScope::with_dead_routers(inj.dead_routers());
            let ctx = format!("{} step {i} ({event})", plan.name);
            assert_says_what_it_said(&internet, &vns, &scope, &ctx);
        }
    }
}
