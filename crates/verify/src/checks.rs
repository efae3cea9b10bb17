//! The seven invariant checks.
//!
//! Each check walks read-only control-plane state (the introspection
//! accessors on [`vns_bgp::Speaker`]) and pushes [`Violation`]s into the
//! shared [`Reporter`]. None of them mutate the network or depend on
//! check order.
//!
//! **What a check reads.** The checks that walk RIBs walk them in one
//! prefix order, [`PrefixOrder`], built once per verify call, and read
//! each speaker at each prefix by id — the same entries, in the same order,
//! as each speaker's own `adj_rib_in_entries` / `loc_rib_entries`, without
//! walking every speaker's prefix table. What depends only on (prefix,
//! egress) or (sender, prefix) is computed once per call: GEO-PREF's
//! expected preference ([`AssignedPrefs`]) and VALLEY-FREE's reading of a
//! sender's best route ([`SenderClasses`]). HIDDEN-ROUTE asks only
//! *whether* a border advertises to a reflector
//! ([`vns_bgp::Speaker::advertises_to`]), not what. The tables decide
//! which entries need a closer look; the findings are worded by the code
//! that looks.

use std::collections::BTreeSet;

use vns_bgp::policy::relation_from_tags;
use vns_bgp::{
    may_export, BgpNet, Candidate, Community, Prefix, PrefixId, Relation, RouteSource, Speaker,
    SpeakerId, DEFAULT_LOCAL_PREF,
};
use vns_core::lpfunc::MAX_DISTANCE_KM;
use vns_core::{LocalPrefFn, Override, RoutingMode, Vns};
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

/// Invariant 4 — OVERRIDE: forced exits reference PoPs that exist.
pub(crate) fn override_sanity(vns: &Vns, rep: &mut Reporter) {
    let pop_ids: BTreeSet<_> = vns.pops().iter().map(|p| p.id()).collect();
    for (prefix, row) in vns.overrides().iter() {
        let Override::ForceExit(pop) = row else {
            continue;
        };
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
    order: &PrefixOrder,
    rep: &mut Reporter,
) {
    if vns.mode() != RoutingMode::GeoColdPotato {
        // Hot-potato deployments assign no geo preference; nothing to audit.
        return;
    }
    let mut assigned = AssignedPrefs::new(internet, vns, order.len());
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
        for (k, prefix, _, from, cand) in order.adj_rib_in(sp) {
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
            if let Some(expected) = assigned.get(k, prefix, egress) {
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

/// The network's prefixes in `(addr, len)` order, with their ids: the
/// order every speaker's RIB readers walk, built once per verify call. A
/// prefix's position in it (`k`) indexes the per-call tables below.
pub(crate) struct PrefixOrder(Vec<(Prefix, PrefixId)>);

impl PrefixOrder {
    pub(crate) fn new(net: &BgpNet) -> Self {
        let mut order: Vec<(Prefix, PrefixId)> = net.prefix_ids().collect();
        order.sort_unstable_by_key(|&(prefix, _)| prefix);
        Self(order)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Every prefix with its position and id, in order.
    fn iter(&self) -> impl Iterator<Item = (usize, Prefix, PrefixId)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(k, &(prefix, id))| (k, prefix, id))
    }

    /// `sp`'s Adj-RIB-In as `(position, prefix, id, sender, candidate)`:
    /// the entries of `sp.adj_rib_in_entries()`, in its order.
    fn adj_rib_in<'a>(
        &'a self,
        sp: &'a Speaker,
    ) -> impl Iterator<Item = (usize, Prefix, PrefixId, SpeakerId, &'a Candidate)> + 'a {
        self.iter().flat_map(move |(k, prefix, id)| {
            sp.adj_rib_in(id)
                .map(move |(from, cand)| (k, prefix, id, from, cand))
        })
    }

    /// `sp`'s Loc-RIB as `(position, prefix, id, best)`: the entries of
    /// `sp.loc_rib_entries()`, in its order.
    fn loc_rib<'a>(
        &'a self,
        sp: &'a Speaker,
    ) -> impl Iterator<Item = (usize, Prefix, PrefixId, &'a Candidate)> + 'a {
        self.iter()
            .filter_map(|(k, prefix, id)| Some((k, prefix, id, sp.best(id)?)))
    }
}

/// GEO-PREF's expected preferences: [`Vns::assigned_pref`] once per
/// (prefix, egress) per verify call, on first ask, shared by both
/// reflectors. Egresses are the deployment's routers (the next hops its
/// borders set); any other next hop is computed on every ask.
struct AssignedPrefs<'a> {
    internet: &'a Internet,
    vns: &'a Vns,
    /// The egresses with a column, sorted.
    egresses: Vec<SpeakerId>,
    /// `cells[k * egresses.len() + column]`: `None` until asked.
    cells: Vec<Option<Option<u32>>>,
}

impl<'a> AssignedPrefs<'a> {
    fn new(internet: &'a Internet, vns: &'a Vns, prefixes: usize) -> Self {
        let mut egresses: Vec<SpeakerId> = vns
            .pops()
            .iter()
            .flat_map(|p| p.borders)
            .chain(vns.reflectors().iter().copied())
            .collect();
        egresses.sort_unstable();
        egresses.dedup();
        Self {
            internet,
            vns,
            cells: vec![None; prefixes * egresses.len()],
            egresses,
        }
    }

    /// The preference `vns` assigns a route to `prefix` (at position `k`)
    /// via `egress`.
    fn get(&mut self, k: usize, prefix: Prefix, egress: SpeakerId) -> Option<u32> {
        let (internet, vns) = (self.internet, self.vns);
        let assign = || vns.assigned_pref(&internet.geoip, egress, prefix);
        match self.egresses.binary_search(&egress) {
            Ok(column) => *self.cells[k * self.egresses.len() + column].get_or_insert_with(assign),
            Err(_) => assign(),
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
/// Both go in `order` and read every RIB by prefix id. VALLEY-FREE
/// reads each sender's Loc-RIB once per prefix, up front
/// ([`SenderClasses`]): an entry the table clears costs one load, and only
/// an entry it flags goes through [`valley_free_entry`], which words the
/// finding. The send side runs the best-external decision only where the
/// receive side met an eBGP-learned `NO_EXPORT` route, the only kind it
/// can select.
pub(crate) fn no_export_and_valley_free(
    internet: &Internet,
    order: &PrefixOrder,
    rep: &mut Reporter,
    valley: &mut Reporter,
) {
    let net = &internet.net;
    let classes = SenderClasses::new(net, order);
    // The current speaker's eBGP-learned entries, for the receive side.
    let mut learned: Vec<(usize, Prefix, SpeakerId, &Candidate)> = Vec::new();
    // The positions at which it holds an eBGP-learned NO_EXPORT route:
    // only there can its best-external route carry one.
    let mut leaked: Vec<usize> = Vec::new();
    for id in net.speaker_ids() {
        let Some(sp) = net.speaker(id) else { continue };
        learned.clear();
        leaked.clear();
        for (k, prefix, pid, from, cand) in order.adj_rib_in(sp) {
            if cand.source.is_ebgp() {
                learned.push((k, prefix, from, cand));
            }
            if classes.flags(id, k, cand) {
                valley_free_entry(net, id, (prefix, pid), cand, valley);
            }
        }
        // NO-EXPORT (a): receive side, over the entries the walk collected
        // (a loop with nothing else in it overlaps their attribute loads).
        for &(k, prefix, from, cand) in &learned {
            if cand.attrs.has_community(Community::NoExport) {
                leaked.push(k);
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
        }
        // NO-EXPORT (b): send side.
        let ebgp_peers: Vec<SpeakerId> = sp
            .peer_ids()
            .filter(|p| sp.peer_config(*p).is_some_and(|c| c.kind.is_ebgp()))
            .collect();
        if ebgp_peers.is_empty() {
            continue;
        }
        for (k, prefix, pid, best) in order.loc_rib(sp) {
            let tagged_best = best.attrs.has_community(Community::NoExport);
            let tagged_ext = sp.best_external_enabled()
                && leaked.contains(&k)
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
    order: &PrefixOrder,
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
            for (_, prefix, pid, best) in order.loc_rib(sp) {
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
                    if !sp.advertises_to(rr, pid) {
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

/// VALLEY-FREE's reading of every sender's best route, one [`SenderClass`]
/// per (speaker, prefix position), row by speaker id. A speaker id with no
/// speaker holds [`SenderClass::RECHECK`] throughout.
struct SenderClasses {
    prefixes: usize,
    cells: Vec<SenderClass>,
}

impl SenderClasses {
    fn new(net: &BgpNet, order: &PrefixOrder) -> Self {
        let prefixes = order.len();
        let rows = net.speaker_ids().last().map_or(0, |id| id.0 as usize + 1);
        let mut cells = vec![SenderClass::RECHECK; rows * prefixes];
        for id in net.speaker_ids() {
            let Some(sp) = net.speaker(id) else { continue };
            let row = &mut cells[id.0 as usize * prefixes..][..prefixes];
            for (cell, (_, _, pid)) in row.iter_mut().zip(order.iter()) {
                *cell = SenderClass::of(sp.best(pid));
            }
        }
        Self { prefixes, cells }
    }

    /// Whether the Adj-RIB-In entry `cand`, held by `id` for the prefix at
    /// position `k`, needs [`valley_free_entry`]: true for an eBGP-learned
    /// entry the table does not clear — its sender unknown, its sender's
    /// best learned from `id` (an echo), untagged transit or not
    /// exportable to `id`.
    fn flags(&self, id: SpeakerId, k: usize, cand: &Candidate) -> bool {
        let RouteSource::Ebgp { peer, relation, .. } = cand.source else {
            return false;
        };
        let Some(&class) = self.cells.get(peer.0 as usize * self.prefixes + k) else {
            return true;
        };
        match class.learned() {
            Err(recheck) => recheck,
            Ok(learned) => class.is_from(id) || !may_export(learned, relation.inverse()),
        }
    }
}

/// A sender's best route for one prefix as VALLEY-FREE reads it, in four
/// bytes: the class in the top three bits — no best, recheck, own,
/// customer-, peer- or provider-learned — and the best's sender plus one
/// (0 for none) in the rest, for the echo test. A best that cannot be
/// classed here (untagged iBGP transit, a sender id too large to pack) is
/// `RECHECK`: its entries go to [`valley_free_entry`] as they always did.
#[derive(Debug, Clone, Copy)]
struct SenderClass(u32);

impl SenderClass {
    const SHIFT: u32 = 29;
    const SENDER: u32 = (1 << Self::SHIFT) - 1;
    const NO_BEST: Self = Self(0);
    const RECHECK: Self = Self(1 << Self::SHIFT);
    const OWN: u32 = 2;
    const CUSTOMER: u32 = 3;
    const PEER: u32 = 4;
    const PROVIDER: u32 = 5;

    fn of(best: Option<&Candidate>) -> Self {
        let Some(best) = best else {
            return Self::NO_BEST;
        };
        let Some(learned) = learned_over(best) else {
            return Self::RECHECK;
        };
        let class = match learned {
            None => Self::OWN,
            Some(Relation::Customer) => Self::CUSTOMER,
            Some(Relation::Peer) => Self::PEER,
            Some(Relation::Provider) => Self::PROVIDER,
        };
        let sender = match best.source.peer() {
            None => 0,
            Some(peer) => match peer.0.checked_add(1).filter(|s| *s <= Self::SENDER) {
                Some(s) => s,
                None => return Self::RECHECK,
            },
        };
        Self(class << Self::SHIFT | sender)
    }

    /// The relation the best was learned over (`None`: this AS's own), or
    /// whether the entry needs rechecking when there is no class: `false`
    /// with no best (a withdraw is the converged state), `true` for
    /// `RECHECK`.
    fn learned(self) -> Result<Option<Relation>, bool> {
        match self.0 >> Self::SHIFT {
            Self::OWN => Ok(None),
            Self::CUSTOMER => Ok(Some(Relation::Customer)),
            Self::PEER => Ok(Some(Relation::Peer)),
            Self::PROVIDER => Ok(Some(Relation::Provider)),
            class => Err(class != 0),
        }
    }

    /// Whether the best was learned from `id`.
    fn is_from(self, id: SpeakerId) -> bool {
        id.0.checked_add(1) == Some(self.0 & Self::SENDER)
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
    let Some(learned) = learned_over(sbest) else {
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

/// The relation a best route was learned over, as Gao–Rexford scoping
/// reads it: `Some(None)` for this AS's own route, `None` for an
/// iBGP-learned transit route with no ingress-relation tag, whose class
/// cannot be established.
fn learned_over(best: &Candidate) -> Option<Option<Relation>> {
    match &best.source {
        RouteSource::Local => Some(None),
        RouteSource::Ebgp { relation, .. } => Some(Some(*relation)),
        RouteSource::Ibgp { .. } => match relation_from_tags(&best.attrs) {
            Some(r) => Some(Some(r)),
            None if best.attrs.as_path.is_empty() => Some(None),
            None => None,
        },
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
