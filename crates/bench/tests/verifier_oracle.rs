//! The verifier says exactly what it said when every read searched and
//! every check recomputed per RIB entry.
//!
//! The control-plane stage walks every RIB in one prefix order built per
//! call and reads each speaker by prefix id; VALLEY-FREE reads a table of
//! every sender's best route built once per call; GEO-PREF computes each
//! (prefix, egress) preference once; HIDDEN-ROUTE asks only whether a
//! border advertises. The forwarding graph matches each destination
//! against the network's prefix table once, reads every router's Loc-RIB
//! at those ids, and keeps each destination's fates in a table by speaker
//! ordinal. This suite restates the four RIB-walking checks the way they
//! read before — each speaker's own `adj_rib_in_entries` and
//! `loc_rib_entries`, GEO-PREF calling `Vns::assigned_pref` per entry,
//! NO-EXPORT and HIDDEN-ROUTE building each export with `exported_to`,
//! VALLEY-FREE reading `sender.best(&prefix)` per entry — and a graph walk
//! in which every router runs its own longest match
//! (`Speaker::lookup_up_to`), and requires identical output: the whole of
//! `Report::render()`, and every destination, outcome and cycle of the
//! `ForwardingAnalysis`, read through its accessors. Worlds: the seed sweep
//! in both routing modes, each of the twelve planted defects, each of the
//! ten attacks, and every event of two failover plans.
//!
//! LP-SHAPE, OVERRIDE and NEXT-HOP read no RIB in a way this suite
//! restates: their lines are taken from the report itself, so the
//! comparison pins where they sit and what they add to the header counts.
//!
//! The oracle walk is deliberately naive: each source is followed hop by
//! hop to its fate, with no memo, so cycles are found (and numbered) in the
//! order the sources are visited.

mod testworld;

use std::collections::BTreeMap;

use vns_bench::{World, WorldConfig};
use vns_bgp::policy::relation_from_tags;
use vns_bgp::{may_export, Community, Message, Prefix, RouteSource, Speaker, SpeakerId};
use vns_core::{AttackKind, FaultInjector, FaultPlan, PopId, RoutingMode, Vns};
use vns_service::{EndpointTable, PathTable};
use vns_topo::path::Forward;
use vns_topo::{AsId, Internet, PrefixInfo};
use vns_verify::forwarding_graph::{analyze, BlackholeCause, Terminal};
use vns_verify::{
    plant_defect, verify_scoped, Invariant, Severity, VerifyScope, Violation, DEFECT_NAMES,
};

/// The report's per-invariant cap (`MAX_PER_INVARIANT` in `vns-verify`).
const CAP: usize = 100;

/// GEO-PREF as it read before the per-call preference table: every
/// reflector Adj-RIB-In entry compared with `Vns::assigned_pref` computed
/// for it.
fn geo_pref_per_entry(internet: &Internet, vns: &Vns, scope: &VerifyScope) -> Vec<Violation> {
    let mut out = Vec::new();
    if vns.mode() != RoutingMode::GeoColdPotato {
        return out;
    }
    for rr in vns.reflectors() {
        if scope.is_dead(rr) {
            continue;
        }
        let Some(sp) = internet.net.speaker(rr) else {
            out.push(
                Violation::error(
                    Invariant::GeoPreference,
                    "reflector is not a registered speaker",
                )
                .at(rr),
            );
            continue;
        };
        for (prefix, _, from, cand) in sp.adj_rib_in_entries() {
            let error = |msg: String| {
                Violation::error(Invariant::GeoPreference, msg)
                    .at(rr)
                    .on(prefix)
            };
            if !cand.source.is_ibgp() {
                out.push(error(format!(
                    "reflector holds a non-iBGP route from {from}; \
                     reflectors must have no external sessions"
                )));
                continue;
            }
            if cand.attrs.as_path.is_empty() {
                continue;
            }
            let egress = cand.attrs.next_hop;
            if let Some(expected) = vns.assigned_pref(&internet.geoip, egress, prefix) {
                let got = cand.attrs.local_pref;
                if got != expected {
                    let pop = vns
                        .pop_of_router(egress)
                        .map_or_else(|| "unknown PoP".to_string(), |p| p.to_string());
                    out.push(error(format!(
                        "Adj-RIB-In route from {from} via egress \
                         {egress} ({pop}) carries LOCAL_PREF {got} but \
                         the geo hook assigns {expected} — stale or \
                         mis-applied geo preference"
                    )));
                }
            }
        }
    }
    out
}

/// NO-EXPORT as it read before: each speaker's own Adj-RIB-In walk for the
/// receive side, then its own Loc-RIB walk with a full `exported_to` per
/// eBGP peer for the send side.
fn no_export_by_exports(internet: &Internet) -> Vec<Violation> {
    let net = &internet.net;
    let mut out = Vec::new();
    for id in net.speaker_ids() {
        let sp = net.speaker(id).expect("listed speaker");
        for (prefix, _, from, cand) in sp.adj_rib_in_entries() {
            if cand.source.is_ebgp() && cand.attrs.has_community(Community::NoExport) {
                out.push(
                    Violation::error(
                        Invariant::NoExportLeak,
                        format!(
                            "NO_EXPORT route learned over eBGP from {from} — \
                             the community crossed an AS boundary; injected \
                             steering more-specifics must stay inside the \
                             originating AS"
                        ),
                    )
                    .at(id)
                    .on(prefix),
                );
            }
        }
        let ebgp_peers: Vec<SpeakerId> = sp
            .peer_ids()
            .filter(|p| sp.peer_config(*p).is_some_and(|c| c.kind.is_ebgp()))
            .collect();
        for (prefix, _, best) in sp.loc_rib_entries() {
            let tagged_best = best.attrs.has_community(Community::NoExport);
            let tagged_ext = sp.best_external_enabled()
                && sp
                    .best_external_route(&prefix)
                    .is_some_and(|c| c.attrs.has_community(Community::NoExport));
            if !tagged_best && !tagged_ext {
                continue;
            }
            for &peer in &ebgp_peers {
                if sp
                    .exported_to(peer, &prefix)
                    .is_some_and(|attrs| attrs.has_community(Community::NoExport))
                {
                    out.push(
                        Violation::error(
                            Invariant::NoExportLeak,
                            format!(
                                "export pipeline would advertise a \
                                 NO_EXPORT route over the eBGP session to \
                                 {peer}"
                            ),
                        )
                        .at(id)
                        .on(prefix),
                    );
                }
            }
        }
    }
    out
}

/// HIDDEN-ROUTE as it read before: "nothing advertised" is a full
/// `exported_to` that comes back empty.
fn hidden_routes_by_exports(internet: &Internet, vns: &Vns, scope: &VerifyScope) -> Vec<Violation> {
    let mut out = Vec::new();
    for pop in vns.pops() {
        for b in pop.borders {
            if scope.is_dead(b) {
                continue;
            }
            let Some(sp) = internet.net.speaker(b) else {
                out.push(
                    Violation::error(Invariant::HiddenRoute, "border is not a registered speaker")
                        .at(b),
                );
                continue;
            };
            let mut reflectors = Vec::new();
            for rr in vns.reflectors() {
                if scope.is_dead(rr) {
                    continue;
                }
                if sp.peer_config(rr).is_some() {
                    reflectors.push(rr);
                } else {
                    out.push(
                        Violation::error(
                            Invariant::HiddenRoute,
                            format!("border has no iBGP session to reflector {rr}"),
                        )
                        .at(b),
                    );
                }
            }
            for (prefix, _, best) in sp.loc_rib_entries() {
                if !best.source.is_ibgp() {
                    continue;
                }
                let Some(ext) = sp.best_external_route(&prefix) else {
                    continue;
                };
                if ext.attrs.has_community(Community::NoAdvertise) {
                    continue;
                }
                for &rr in &reflectors {
                    if sp.exported_to(rr, &prefix).is_some() {
                        continue;
                    }
                    let v = if sp.best_external_enabled() {
                        Violation::error(
                            Invariant::HiddenRoute,
                            format!(
                                "best route is iBGP-learned and an eBGP \
                                 alternative exists, but nothing is \
                                 advertised to reflector {rr} despite \
                                 best-external being enabled"
                            ),
                        )
                    } else {
                        Violation::warning(
                            Invariant::HiddenRoute,
                            format!(
                                "hidden route: eBGP alternative is \
                                 invisible to reflector {rr}; enable \
                                 best-external (Sec 3.2)"
                            ),
                        )
                    };
                    out.push(v.at(b).on(prefix));
                }
            }
        }
    }
    out
}

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

/// Every finding of one invariant, untruncated, in the order it was found.
struct Findings {
    invariant: Invariant,
    /// What the invariant reported individually.
    shown: Vec<Violation>,
    /// Errors and warnings found, reported or suppressed.
    errors: usize,
    warnings: usize,
}

impl Findings {
    /// A restated check's complete findings: the report shows the first
    /// [`CAP`].
    fn restated(invariant: Invariant, found: Vec<Violation>) -> Self {
        let errors = found
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count();
        let warnings = found.len() - errors;
        let shown = found.into_iter().take(CAP).collect();
        Self {
            invariant,
            shown,
            errors,
            warnings,
        }
    }

    /// An invariant this suite does not restate, as the report shows it. A
    /// suppression summary counts its suppressed findings at the summary's
    /// severity: exact for OVERRIDE and NEXT-HOP, which only raise errors,
    /// and LP-SHAPE raises at most four findings per call.
    fn as_reported(invariant: Invariant, report: &vns_verify::Report) -> Self {
        let mut found = Self::restated(invariant, Vec::new());
        let summary = format!("more {invariant} violations suppressed");
        for v in report.of(invariant) {
            let n = if v.message.ends_with(&summary) {
                v.message
                    .trim_start_matches("… and ")
                    .split(' ')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("a summary names its count")
            } else {
                found.shown.push(v.clone());
                1
            };
            match v.severity {
                Severity::Error => found.errors += n,
                Severity::Warning => found.warnings += n,
            }
        }
        found
    }

    fn total(&self) -> usize {
        self.errors + self.warnings
    }
}

/// `Report::render()` of a report holding `groups`, pushed in this order:
/// the header, every shown finding, then one suppression summary per
/// truncated invariant in `Invariant::ALL` order.
fn render(groups: &[Findings]) -> String {
    let errors: usize = groups.iter().map(|g| g.errors).sum();
    let warnings: usize = groups.iter().map(|g| g.warnings).sum();
    if errors + warnings == 0 {
        return "vns-verify: clean (no violations)\n".to_string();
    }
    let mut out = format!("vns-verify: {errors} error(s), {warnings} warning(s)\n");
    for v in groups.iter().flat_map(|g| &g.shown) {
        out.push_str(&format!("  {v}\n"));
    }
    for inv in Invariant::ALL {
        let Some(g) = groups.iter().find(|g| g.invariant == inv) else {
            continue;
        };
        if g.total() > CAP {
            let mut summary = Violation::error(
                inv,
                format!("… and {} more {inv} violations suppressed", g.total() - CAP),
            );
            if g.errors == 0 {
                summary.severity = Severity::Warning;
            }
            out.push_str(&format!("  {summary}\n"));
        }
    }
    out
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

/// What one world's comparison saw, so callers can require each restated
/// check to bite somewhere.
#[derive(Debug, Default)]
struct Bites {
    geo_pref: usize,
    no_export: usize,
    hidden: usize,
    valley: usize,
    cycles: usize,
}

impl std::ops::AddAssign for Bites {
    fn add_assign(&mut self, o: Self) {
        self.geo_pref += o.geo_pref;
        self.no_export += o.no_export;
        self.hidden += o.hidden;
        self.valley += o.valley;
        self.cycles += o.cycles;
    }
}

/// Both oracles against both stages; returns how many findings each
/// restated check and the graph's cycles hold.
fn assert_says_what_it_said(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    ctx: &str,
) -> Bites {
    let report = verify_scoped(internet, vns, scope);
    let restated = |inv, found| Findings::restated(inv, found);
    // The order `verify_scoped` pushes in.
    let groups = [
        Findings::as_reported(Invariant::LpFnShape, &report),
        Findings::as_reported(Invariant::OverrideSanity, &report),
        restated(
            Invariant::GeoPreference,
            geo_pref_per_entry(internet, vns, scope),
        ),
        restated(Invariant::NoExportLeak, no_export_by_exports(internet)),
        restated(
            Invariant::HiddenRoute,
            hidden_routes_by_exports(internet, vns, scope),
        ),
        restated(Invariant::ValleyFree, valley_free_by_prefix(internet)),
        Findings::as_reported(Invariant::NextHopResolution, &report),
    ];
    let got = report.render();
    let want = render(&groups);
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{ctx}: the control report moved at line {first}:\n got: {:?}\nwant: {:?}",
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }

    let analysis = analyze(internet, scope);
    let mut got: Vec<Destination> = Vec::new();
    for d in &analysis.destinations {
        let outcomes: BTreeMap<SpeakerId, Terminal> = d.outcomes().collect();
        // The by-id reader and the count agree with the in-order one.
        for id in internet.net.speaker_ids() {
            assert_eq!(
                d.outcome(id),
                outcomes.get(&id).copied(),
                "{ctx}: {} at {id}",
                d.prefix
            );
        }
        assert_eq!(d.sources(), outcomes.len(), "{ctx}: {}", d.prefix);
        got.push((d.prefix, d.ip, outcomes, d.cycles.clone()));
    }
    let want = walk_by_lookup(internet, scope);
    assert_eq!(got.len(), want.len(), "{ctx}: destinations");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{ctx}: destination {}", w.0);
    }
    Bites {
        geo_pref: groups[2].total(),
        no_export: groups[3].total(),
        hidden: groups[4].total(),
        valley: groups[5].total(),
        cycles: want.iter().map(|d| d.3.len()).sum(),
    }
}

#[test]
fn seed_sweep_worlds_say_what_they_said() {
    let mut bites = Bites::default();
    for seed in testworld::SWEEP_SEEDS {
        for hot in [false, true] {
            let world = testworld::sweep(seed, hot);
            let ctx = format!("seed {seed} hot {hot}");
            bites += assert_says_what_it_said(
                &world.internet,
                &world.vns,
                &VerifyScope::default(),
                &ctx,
            );
        }
    }
    // With best-external off, every hidden route is a HIDDEN-ROUTE
    // warning: the advertised-or-not test decides each one.
    let mut config = WorldConfig::tiny(77);
    config.vns.best_external = false;
    let world = World::build(config);
    bites += assert_says_what_it_said(
        &world.internet,
        &world.vns,
        &VerifyScope::default(),
        "best-external off",
    );
    eprintln!("{bites:?}");
    assert!(bites.hidden > 0, "no hidden route reached the comparison");
}

#[test]
fn planted_defects_say_what_they_said() {
    let mut bites = Bites::default();
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
        bites +=
            assert_says_what_it_said(&world.internet, &world.vns, &VerifyScope::default(), name);
    }
    eprintln!("{bites:?}");
    assert!(bites.cycles > 0, "no planted cycle reached the comparison");
}

#[test]
fn attacks_say_what_they_said() {
    let mut bites = Bites::default();
    for kind in AttackKind::ALL {
        let mut world = testworld::tiny(77);
        testworld::launch(&mut world, kind, 77)
            .unwrap_or_else(|e| panic!("{kind}: launch failed: {e}"));
        bites += assert_says_what_it_said(
            &world.internet,
            &world.vns,
            &VerifyScope::default(),
            &kind.to_string(),
        );
    }
    eprintln!("{bites:?}");
    assert!(
        bites.valley > 0,
        "no attack left a VALLEY-FREE finding to compare"
    );
}

#[test]
fn a_no_export_leak_says_what_it_said() {
    // A NO_EXPORT update delivered across an eBGP session, as a border
    // that failed to filter would send it, for a prefix no router had
    // named: the receiver names it in a table of its own, which the walk
    // order must include.
    let (mut internet, vns) = testworld::raw_tiny(44);
    let border = vns.pops()[0].borders[0];
    let sp = internet.net.speaker(border).expect("border registered");
    let ext_peer = sp
        .peer_ids()
        .find(|p| sp.peer_config(*p).is_some_and(|c| c.kind.is_ebgp()))
        .expect("border has external sessions");
    let mut attrs = (*sp.loc_rib_entries().next().expect("a route").2.attrs).clone();
    attrs.as_path = vec![vns.asn()].into();
    attrs.communities = vec![Community::NoExport];
    internet
        .net
        .speaker_mut(ext_peer)
        .expect("peer registered")
        .receive(
            border,
            Message::Update {
                prefix: "123.45.0.0/20".parse().expect("prefix"),
                attrs: attrs.into(),
            },
        );
    let bites =
        assert_says_what_it_said(&internet, &vns, &VerifyScope::default(), "NO_EXPORT leak");
    assert!(bites.no_export > 0, "the leak reached no comparison");
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
    let mut bites = Bites::default();
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
            bites += assert_says_what_it_said(&internet, &vns, &scope, &ctx);
        }
    }
    eprintln!("{bites:?}");
}
