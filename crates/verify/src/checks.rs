//! The seven invariant checks.
//!
//! Each check walks read-only control-plane state (the introspection
//! accessors on [`vns_bgp::Speaker`]) and pushes [`Violation`]s into the
//! shared [`Reporter`]. None of them mutate the network or depend on
//! check order.

use std::collections::BTreeSet;

use vns_bgp::policy::relation_from_tags;
use vns_bgp::{
    may_export, BgpNet, Candidate, Community, Prefix, PrefixId, RouteSource, SpeakerId,
    DEFAULT_LOCAL_PREF,
};
use vns_core::lpfunc::MAX_DISTANCE_KM;
use vns_core::{LocalPrefFn, RoutingMode, Vns};
use vns_topo::Internet;

use crate::{Invariant, Reporter, VerifyScope, Violation};

/// Floor must exceed this multiple of the BGP default to count as the
/// paper's "always much higher than the default value of 100"; between
/// `DEFAULT_LOCAL_PREF` and this it is legal but fragile (warning).
const FLOOR_HEADROOM: u32 = 5;

/// Sweep granularity over the distance domain, km. 1 km resolves every
/// band of every implemented shape (the coarsest real structure is the
/// 25 km default band).
const SWEEP_STEP_KM: f64 = 1.0;

/// Invariant 1 — LP-SHAPE: `f(d)` is monotone nonincreasing over the whole
/// great-circle domain, its floor stays ≫ 100, and out-of-domain inputs
/// clamp to the endpoints. `label` names the audited function in each
/// finding.
pub(crate) fn lp_fn_shape(lp_fn: LocalPrefFn, label: &str, rep: &mut Reporter) {
    let mut prev = lp_fn.compute(0.0);
    let mut min = prev;
    let mut monotone_broken = false;
    let mut d = SWEEP_STEP_KM;
    while d <= MAX_DISTANCE_KM {
        let lp = lp_fn.compute(d);
        if lp > prev && !monotone_broken {
            monotone_broken = true;
            rep.push(Violation::error(
                Invariant::LpFnShape,
                format!(
                    "{label} {lp_fn:?} is not monotone nonincreasing: \
                     f({:.0} km) = {prev} but f({d:.0} km) = {lp} — a farther \
                     egress would be preferred over a nearer one",
                    d - SWEEP_STEP_KM
                ),
            ));
        }
        min = min.min(lp);
        prev = lp;
        d += SWEEP_STEP_KM;
    }
    let floor = lp_fn.compute(MAX_DISTANCE_KM);
    min = min.min(floor);
    if min <= DEFAULT_LOCAL_PREF {
        rep.push(Violation::error(
            Invariant::LpFnShape,
            format!(
                "{label} {lp_fn:?} floor is {min}, at or below the BGP default \
                 of {DEFAULT_LOCAL_PREF}: geo-scored routes would lose to (or \
                 tie with) routes the hook never touched"
            ),
        ));
    } else if min < DEFAULT_LOCAL_PREF * FLOOR_HEADROOM {
        rep.push(Violation::warning(
            Invariant::LpFnShape,
            format!(
                "{label} {lp_fn:?} floor is {min} — above the BGP default of \
                 {DEFAULT_LOCAL_PREF} but not \"much higher\" (Sec 3.2); \
                 expected at least {}",
                DEFAULT_LOCAL_PREF * FLOOR_HEADROOM
            ),
        ));
    }
    // Out-of-domain inputs must clamp, not extrapolate: a GeoIP artefact
    // (negative or antipode-exceeding distance) must never mint an
    // off-scale preference.
    if lp_fn.compute(-1_000.0) != lp_fn.compute(0.0) {
        rep.push(Violation::error(
            Invariant::LpFnShape,
            format!("{label} {lp_fn:?} does not clamp negative distances to f(0)"),
        ));
    }
    if lp_fn.compute(MAX_DISTANCE_KM + 1_000.0) != floor {
        rep.push(Violation::error(
            Invariant::LpFnShape,
            format!(
                "{label} {lp_fn:?} does not clamp beyond-antipode distances \
                 to f({MAX_DISTANCE_KM:.0})"
            ),
        ));
    }
}

/// Invariant 4 — OVERRIDE: forced exits reference PoPs that exist, and the
/// exempt set and forced map are disjoint (the table's own mutators keep
/// them so; a corrupted table makes the geo preference depend on lookup
/// order).
pub(crate) fn override_sanity(vns: &Vns, rep: &mut Reporter) {
    let pop_ids: BTreeSet<_> = vns.pops().iter().map(|p| p.id()).collect();
    let overrides = vns.overrides();
    let exempt: BTreeSet<Prefix> = overrides.exempt_prefixes().collect();
    for (prefix, pop) in overrides.forced_exits() {
        if !pop_ids.contains(&pop) {
            rep.push(
                Violation::error(
                    Invariant::OverrideSanity,
                    format!(
                        "forced exit references {pop}, which is not a deployed \
                         PoP — the force can never take effect"
                    ),
                )
                .on(prefix),
            );
        }
        if exempt.contains(&prefix) {
            rep.push(
                Violation::error(
                    Invariant::OverrideSanity,
                    format!(
                        "prefix is both exempt from geo-routing and forced to \
                         exit at {pop}; the two directives contradict and the \
                         hook's behaviour depends on evaluation order"
                    ),
                )
                .on(prefix),
            );
        }
    }
}

/// Invariant 2 — GEO-PREF: every route in a reflector's Adj-RIB-In carries
/// exactly the LOCAL_PREF [`Vns::assigned_pref`] assigns for (egress,
/// prefix) over the *live* GeoIP database and the *current* override
/// table. Catches a preference that was skipped or mis-applied, a GeoIP
/// snapshot the reflectors ingested that disagrees with the registry, or
/// — the common operational failure — an override change that was never
/// pushed through a route refresh, leaving the RIBs stale.
pub(crate) fn geo_preference(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    rep: &mut Reporter,
) {
    if vns.mode() != RoutingMode::GeoColdPotato {
        // Hot-potato deployments assign no geo preference; nothing to audit.
        return;
    }
    for rr in vns.reflectors() {
        if scope.is_dead(rr) {
            // A downed reflector's Adj-RIB-In is empty by construction;
            // nothing it holds can be stale.
            continue;
        }
        let Some(sp) = internet.net.speaker(rr) else {
            rep.push(
                Violation::error(
                    Invariant::GeoPreference,
                    "reflector is not a registered speaker",
                )
                .at(rr),
            );
            continue;
        };
        for (prefix, _, from, cand) in sp.adj_rib_in_entries() {
            if !cand.source.is_ibgp() {
                rep.push(
                    Violation::error(
                        Invariant::GeoPreference,
                        format!(
                            "reflector holds a non-iBGP route from {from}; \
                             reflectors must have no external sessions"
                        ),
                    )
                    .at(rr)
                    .on(prefix),
                );
                continue;
            }
            if cand.attrs.as_path.is_empty() {
                // VNS-originated service prefixes are exempt from geo
                // scoring by design (the import table skips empty AS
                // paths).
                continue;
            }
            let egress = cand.attrs.next_hop;
            if let Some(expected) = vns.assigned_pref(&internet.geoip, egress, prefix) {
                let got = cand.attrs.local_pref;
                if got != expected {
                    let pop = vns
                        .pop_of_router(egress)
                        .map_or_else(|| "unknown PoP".to_string(), |p| p.to_string());
                    rep.push(
                        Violation::error(
                            Invariant::GeoPreference,
                            format!(
                                "Adj-RIB-In route from {from} via egress \
                                 {egress} ({pop}) carries LOCAL_PREF {got} but \
                                 the geo hook assigns {expected} — stale or \
                                 mis-applied geo preference"
                            ),
                        )
                        .at(rr)
                        .on(prefix),
                    );
                }
            }
            // `None` means the prefix is absent from GeoIP with no override
            // active: the reflectors leave such routes untouched by design.
        }
    }
}

/// Invariants 3 and 6, which both read every speaker's Adj-RIB-In, in one
/// pass over it (NO-EXPORT findings go to `rep`, VALLEY-FREE findings to
/// `valley`, so the caller can place each where its report order wants it).
///
/// NO-EXPORT: `NO_EXPORT`-tagged routes never cross an AS boundary.
/// Checked from both ends of every session: (a) receive side — an
/// eBGP-learned Adj-RIB-In entry carrying the community means a leak
/// already happened; (b) send side — recompute every eBGP export for
/// prefixes whose best (or best-external) route carries the community and
/// confirm the export pipeline dropped it.
///
/// VALLEY-FREE: see [`valley_free_entry`].
///
/// Both walks hold each prefix's [`PrefixId`] beside it and read the
/// sender's Loc-RIB, the best-external route and the exports by that id,
/// so the pass over every Adj-RIB-In entry probes no prefix table.
pub(crate) fn no_export_and_valley_free(
    internet: &Internet,
    rep: &mut Reporter,
    valley: &mut Reporter,
) {
    let net = &internet.net;
    for id in net.speaker_ids() {
        let Some(sp) = net.speaker(id) else { continue };
        for (prefix, pid, from, cand) in sp.adj_rib_in_entries() {
            // NO-EXPORT (a): receive side.
            if cand.source.is_ebgp() && cand.attrs.has_community(Community::NoExport) {
                rep.push(
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
            valley_free_entry(net, id, (prefix, pid), cand, valley);
        }
        // NO-EXPORT (b): send side.
        let ebgp_peers: Vec<SpeakerId> = sp
            .peer_ids()
            .filter(|p| sp.peer_config(*p).is_some_and(|c| c.kind.is_ebgp()))
            .collect();
        if ebgp_peers.is_empty() {
            continue;
        }
        for (prefix, pid, best) in sp.loc_rib_entries() {
            let tagged_best = best.attrs.has_community(Community::NoExport);
            let tagged_ext = sp.best_external_enabled()
                && sp
                    .best_external_route(pid)
                    .is_some_and(|c| c.attrs.has_community(Community::NoExport));
            if !tagged_best && !tagged_ext {
                continue;
            }
            for &peer in &ebgp_peers {
                if let Some(attrs) = sp.exported_to(peer, pid) {
                    if attrs.has_community(Community::NoExport) {
                        rep.push(
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
    }
}

/// Invariant 5 — HIDDEN-ROUTE: a border whose overall best route is
/// iBGP-learned but which holds a viable eBGP alternative must still
/// advertise that external route to both reflectors (Sec 3.2: without
/// best-external the alternative is invisible AS-wide and geo-routing
/// cannot consider that egress). Error when best-external is enabled and
/// the advertisement is still missing (machinery broken); warning when the
/// deployment runs with best-external off (the paper's pathology,
/// reproduced deliberately). A border with no session to a live reflector
/// is one error, found before any prefix is audited; that reflector's
/// per-prefix audit is skipped, since nothing crosses a missing session.
pub(crate) fn hidden_routes(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    rep: &mut Reporter,
) {
    for pop in vns.pops() {
        for b in pop.borders {
            if scope.is_dead(b) {
                // A downed border advertises nothing; there is no
                // best-external machinery left to audit.
                continue;
            }
            let Some(sp) = internet.net.speaker(b) else {
                rep.push(
                    Violation::error(Invariant::HiddenRoute, "border is not a registered speaker")
                        .at(b),
                );
                continue;
            };
            // Sessions to a dead reflector are *expected* to be gone; the
            // surviving reflector's visibility is what keeps a route
            // un-hidden.
            let mut reflectors = vns.reflectors().to_vec();
            reflectors.retain(|&rr| {
                if scope.is_dead(rr) {
                    return false;
                }
                let up = sp.peer_config(rr).is_some();
                if !up {
                    rep.push(
                        Violation::error(
                            Invariant::HiddenRoute,
                            format!("border has no iBGP session to reflector {rr}"),
                        )
                        .at(b),
                    );
                }
                up
            });
            for (prefix, pid, best) in sp.loc_rib_entries() {
                if !best.source.is_ibgp() {
                    continue;
                }
                let Some(ext) = sp.best_external_route(pid) else {
                    continue;
                };
                if ext.attrs.has_community(Community::NoAdvertise) {
                    continue;
                }
                for &rr in &reflectors {
                    if sp.exported_to(rr, pid).is_none() {
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
                        rep.push(v.at(b).on(prefix));
                    }
                }
            }
        }
    }
}

/// Invariant 6 — VALLEY-FREE, for one Adj-RIB-In entry `cand` for `prefix`
/// (with its net-wide id `pid`) held by `id`: if it is eBGP-learned, the
/// *sender's* current best route for that prefix was exportable to us under
/// Gao–Rexford scoping (own and customer routes go everywhere; peer- and
/// provider-learned routes go only to customers). Also flags routes echoed
/// straight back to the speaker they were learned from.
fn valley_free_entry(
    net: &BgpNet,
    id: SpeakerId,
    (prefix, pid): (Prefix, PrefixId),
    cand: &Candidate,
    rep: &mut Reporter,
) {
    let RouteSource::Ebgp { peer, relation, .. } = cand.source else {
        return;
    };
    let Some(sender) = net.speaker(peer) else {
        rep.push(
            Violation::error(
                Invariant::ValleyFree,
                format!("eBGP route from {peer}, which is not a registered speaker"),
            )
            .at(id)
            .on(prefix),
        );
        return;
    };
    // Converged state: what the sender advertised derives from its
    // current best for the prefix. Absence means a withdraw is the
    // correct converged state — skip rather than guess.
    let Some(sbest) = sender.best(pid) else {
        return;
    };
    if sbest.source.peer() == Some(id) {
        rep.push(
            Violation::error(
                Invariant::ValleyFree,
                format!(
                    "{peer}'s best route for this prefix was learned \
                     from us, yet we hold its advertisement — the \
                     route was echoed back across the session"
                ),
            )
            .at(id)
            .on(prefix),
        );
        return;
    }
    let learned = match &sbest.source {
        RouteSource::Local => None,
        RouteSource::Ebgp { relation, .. } => Some(*relation),
        RouteSource::Ibgp { .. } => match relation_from_tags(&sbest.attrs) {
            Some(r) => Some(r),
            None if sbest.attrs.as_path.is_empty() => None,
            None => {
                rep.push(
                    Violation::error(
                        Invariant::ValleyFree,
                        format!(
                            "{peer} exported an iBGP-learned transit \
                             route with no ingress-relation tag; its \
                             Gao–Rexford class cannot be established"
                        ),
                    )
                    .at(id)
                    .on(prefix),
                );
                return;
            }
        },
    };
    // `relation` is *our* relationship to the sender; the sender
    // sees us as the inverse.
    let sender_to_us = relation.inverse();
    if !may_export(learned, sender_to_us) {
        rep.push(
            Violation::error(
                Invariant::ValleyFree,
                format!(
                    "{peer} exported a {learned:?}-learned route to a \
                     {sender_to_us:?} — a valley: peer/provider routes \
                     may only be exported to customers"
                ),
            )
            .at(id)
            .on(prefix),
        );
    }
}

/// Invariant 7 — NEXT-HOP: every iBGP-learned route a VNS router holds
/// (selected or candidate) names a next hop reachable in the VNS IGP.
/// The decision process compares LOCAL_PREF before resolvability, so an
/// unresolvable high-preference candidate would win selection and
/// blackhole traffic.
pub(crate) fn next_hop_resolution(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    rep: &mut Reporter,
) {
    let routers: Vec<SpeakerId> = vns
        .pops()
        .iter()
        .flat_map(|p| p.borders)
        .chain(vns.reflectors())
        .collect();
    for r in routers {
        if scope.is_dead(r) {
            // A downed router forwards nothing; routes *naming it* as next
            // hop are still audited from the surviving routers below.
            continue;
        }
        let Some(sp) = internet.net.speaker(r) else {
            rep.push(
                Violation::error(
                    Invariant::NextHopResolution,
                    "VNS router is not a registered speaker",
                )
                .at(r),
            );
            continue;
        };
        let mut seen: BTreeSet<(Prefix, SpeakerId)> = BTreeSet::new();
        for (prefix, _, from, cand) in sp.adj_rib_in_entries() {
            if !cand.source.is_ibgp() {
                continue;
            }
            let nh = cand.attrs.next_hop;
            if nh != r && sp.igp_cost(nh).is_none() && seen.insert((prefix, nh)) {
                rep.push(
                    Violation::error(
                        Invariant::NextHopResolution,
                        format!(
                            "iBGP route from {from} names next hop {nh}, \
                             which is unreachable in the VNS IGP — if \
                             selected it blackholes traffic"
                        ),
                    )
                    .at(r)
                    .on(prefix),
                );
            }
        }
        for (prefix, _, best) in sp.loc_rib_entries() {
            if !best.source.is_ibgp() {
                continue;
            }
            let nh = best.attrs.next_hop;
            if nh != r && sp.igp_cost(nh).is_none() && seen.insert((prefix, nh)) {
                rep.push(
                    Violation::error(
                        Invariant::NextHopResolution,
                        format!("selected route names IGP-unreachable next hop {nh}"),
                    )
                    .at(r)
                    .on(prefix),
                );
            }
        }
    }
}
