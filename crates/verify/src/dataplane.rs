//! Stage 2: the data-plane model checker.
//!
//! Five whole-network properties proved statically over the derived
//! forwarding graph ([`crate::forwarding_graph`]), in the style CDN
//! overlay systems use to validate path selection before deployment:
//!
//! 1. **LOOP-FREE** — no forwarding cycles anywhere, for any destination.
//! 2. **NO-BLACKHOLE** — every reachable source resolves to an origin (or
//!    an explicit dead-router sink under a fault [`VerifyScope`]).
//! 3. **ANYCAST-NEAREST** — the *fraction* of client prefixes whose
//!    anycast landing falls beyond a stretch tolerance of their
//!    geo-nearest *live* PoP stays under a deployment-level threshold.
//!    BGP decides landings, so a per-client tail exists even in healthy
//!    deployments (the paper's Fig. 3 distribution); what the checker
//!    rules out is the landing *collapse* a poisoned anycast
//!    announcement produces, where most clients ride to one far PoP.
//! 4. **WAYPOINT** — the service plane's pre-resolved
//!    [`vns_service::PathTable`] agrees with the forwarding graph:
//!    landings match, tails start at the admitted PoP's border, and
//!    admitted calls' media paths traverse their assigned relay PoP.
//! 5. **STRETCH-BOUND** — geodesic stretch of every PoP→destination
//!    egress path stays under the campaign bound (geo cold-potato mode
//!    only: hot-potato detours are the paper's disease, not a checker
//!    defect).
//!
//! Each run carries a per-check wall-clock ledger so campaigns can prove
//! the pre-flight stays cheap. Timings are **never** part of campaign
//! artifacts — only violation counts are — so byte-identity across
//! thread counts is preserved.

use std::collections::BTreeMap;
use std::time::Instant;

use vns_bgp::SpeakerId;
use vns_core::{RoutingMode, Vns};
use vns_geo::GeoPoint;
use vns_service::{EndpointTable, PathTable};
use vns_topo::{Internet, PrefixInfo};

use crate::forwarding_graph::{self, ForwardingAnalysis, Terminal};
use crate::{Invariant, Report, Reporter, VerifyScope, Violation};

/// Tolerances for the geometric properties.
///
/// The defaults are calibrated against every clean seed-sweep×mode world
/// (zero false positives) while still catching planted geo defects by an
/// order of magnitude — see `crates/bench/tests/dataplane.rs`.
#[derive(Debug, Clone, Copy)]
pub struct DataplaneConfig {
    /// ANYCAST-NEAREST: allowed ratio of landing distance to the
    /// geo-nearest live PoP distance.
    pub anycast_stretch: f64,
    /// ANYCAST-NEAREST: additive slack in km (keeps the ratio meaningful
    /// for clients sitting practically on top of a PoP).
    pub anycast_slack_km: f64,
    /// ANYCAST-NEAREST: maximum tolerated fraction of clients landing
    /// beyond the stretch tolerance. Clean seed-sweep worlds sit at
    /// 0.06–0.16 (the Fig. 3 BGP tail); a poisoned announcement that
    /// drags landings to one far PoP pushes this near 1.0.
    pub anycast_tail_frac: f64,
    /// STRETCH-BOUND: allowed ratio of egress path length to the
    /// great-circle distance.
    pub stretch_bound: f64,
    /// STRETCH-BOUND: additive slack in km (short geodesics cross IXPs
    /// and last-mile segments whose length is independent of distance).
    pub stretch_slack_km: f64,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        Self {
            anycast_stretch: 2.0,
            anycast_slack_km: 2_500.0,
            anycast_tail_frac: 0.35,
            stretch_bound: 4.0,
            stretch_slack_km: 4_000.0,
        }
    }
}

/// One entry in the per-check timing ledger.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Check (or derivation stage) name.
    pub stage: &'static str,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

/// The outcome of a data-plane verification pass: violations plus the
/// timing ledger proving the pass is cheap enough for pre-flight use.
#[derive(Debug)]
pub struct DataplaneReport {
    /// The violations, via the shared report machinery.
    pub report: Report,
    /// Per-stage wall-clock ledger. Excluded from campaign artifacts.
    pub timings: Vec<StageTiming>,
    /// Destination prefixes analysed.
    pub destinations: usize,
    /// (source, destination) pairs resolved.
    pub pairs: usize,
}

impl DataplaneReport {
    /// True when no error-severity violations were found.
    pub fn passes(&self) -> bool {
        self.report.passes()
    }

    /// Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.report.error_count()
    }

    /// Warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.report.warning_count()
    }

    /// Total wall-clock seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.timings.iter().map(|t| t.seconds).sum()
    }

    /// Renders the violations, or the counts of a clean pass: a function
    /// of the checked state alone, with no wall-clock figure in it.
    pub fn render(&self) -> String {
        if self.report.is_clean() {
            format!(
                "vns-verify dataplane: clean ({} destinations, {} source-destination pairs)\n",
                self.destinations, self.pairs
            )
        } else {
            self.report.render()
        }
    }

    /// Renders the timing ledger as one line (CLI diagnostics; never
    /// written into campaign artifacts).
    pub fn render_timings(&self) -> String {
        let stages: Vec<String> = self
            .timings
            .iter()
            .map(|t| format!("{} {:.3}s", t.stage, t.seconds))
            .collect();
        format!(
            "  timing: {} | total {:.3}s\n",
            stages.join(", "),
            self.total_seconds()
        )
    }
}

/// Runs the data-plane checks on a healthy converged deployment with
/// default tolerances (no service-plane tables: WAYPOINT is skipped).
pub fn verify_dataplane(internet: &Internet, vns: &Vns) -> DataplaneReport {
    verify_dataplane_scoped(
        internet,
        vns,
        &VerifyScope::default(),
        &DataplaneConfig::default(),
    )
}

/// Runs the graph-level data-plane checks (LOOP-FREE, NO-BLACKHOLE,
/// ANYCAST-NEAREST, STRETCH-BOUND) under a fault scope. WAYPOINT needs
/// the service plane's tables — see [`verify_dataplane_with_service`].
pub fn verify_dataplane_scoped(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    cfg: &DataplaneConfig,
) -> DataplaneReport {
    run(internet, vns, scope, cfg, None)
}

/// Runs all five data-plane checks, cross-checking the service plane's
/// pre-resolved [`PathTable`] (WAYPOINT) against the forwarding graph.
pub fn verify_dataplane_with_service(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    cfg: &DataplaneConfig,
    endpoints: &EndpointTable,
    paths: &PathTable,
) -> DataplaneReport {
    run(internet, vns, scope, cfg, Some((endpoints, paths)))
}

fn run(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    cfg: &DataplaneConfig,
    service: Option<(&EndpointTable, &PathTable)>,
) -> DataplaneReport {
    let mut rep = Reporter::default();
    let mut timings = Vec::new();

    let t0 = Instant::now();
    let analysis = forwarding_graph::analyze(internet, scope);
    timings.push(StageTiming {
        stage: "graph",
        seconds: t0.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    check_loop_free(&analysis, &mut rep);
    timings.push(StageTiming {
        stage: "loop-free",
        seconds: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    check_no_blackhole(&analysis, &mut rep);
    timings.push(StageTiming {
        stage: "no-blackhole",
        seconds: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    check_anycast_nearest(internet, vns, scope, cfg, &analysis, &mut rep);
    timings.push(StageTiming {
        stage: "anycast-nearest",
        seconds: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    if let Some((endpoints, paths)) = service {
        check_waypoint(internet, vns, &analysis, endpoints, paths, &mut rep);
    }
    timings.push(StageTiming {
        stage: "waypoint",
        seconds: t.elapsed().as_secs_f64(),
    });

    let t = Instant::now();
    check_stretch_bound(internet, vns, scope, cfg, &mut rep);
    timings.push(StageTiming {
        stage: "stretch-bound",
        seconds: t.elapsed().as_secs_f64(),
    });

    DataplaneReport {
        report: rep.finish(),
        timings,
        destinations: analysis.destinations.len(),
        pairs: analysis.pairs(),
    }
}

/// LOOP-FREE: no destination's forwarding graph contains a cycle.
fn check_loop_free(analysis: &ForwardingAnalysis, rep: &mut Reporter) {
    for dest in &analysis.destinations {
        for (idx, members) in dest.cycles.iter().enumerate() {
            let feeders = dest.sources_with(Terminal::Cycle { idx });
            let ring: Vec<String> = members.iter().map(|s| s.to_string()).collect();
            let lead = members.first().copied().unwrap_or(SpeakerId(0));
            rep.push(
                Violation::error(
                    Invariant::LoopFree,
                    format!(
                        "forwarding cycle {} -> {} ({feeders} sources feed it)",
                        ring.join(" -> "),
                        ring.first().map_or("?", String::as_str)
                    ),
                )
                .at(lead)
                .on(dest.prefix),
            );
        }
    }
}

/// NO-BLACKHOLE: every reachable source's traffic is delivered (or sinks
/// at a router the scope declares dead — an accounted-for fault, not a
/// silent failure).
fn check_no_blackhole(analysis: &ForwardingAnalysis, rep: &mut Reporter) {
    for dest in &analysis.destinations {
        let mut seen: Vec<Terminal> = Vec::new();
        for (_, t) in dest.outcomes() {
            let Terminal::Blackhole { at, cause } = t else {
                continue;
            };
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            let affected = dest.sources_with(t);
            rep.push(
                Violation::error(
                    Invariant::NoBlackhole,
                    format!("traffic dies at {at}: {cause} ({affected} sources affected)"),
                )
                .at(at)
                .on(dest.prefix),
            );
        }
    }
}

/// PoPs that still have at least one live border under the scope.
fn live_pops(vns: &Vns, scope: &VerifyScope) -> Vec<(vns_core::PopId, GeoPoint)> {
    vns.pops()
        .iter()
        .filter(|p| p.borders.iter().any(|&b| !scope.is_dead(b)))
        .map(|p| (p.id(), p.location()))
        .collect()
}

/// ANYCAST-NEAREST: the fraction of client prefixes whose anycast
/// landing falls beyond the stretch tolerance of their geo-nearest live
/// PoP stays under `anycast_tail_frac`. Geo cold-potato deployments
/// only — under hot-potato announcements, far landings are the paper's
/// Fig. 3 baseline pathology, not a deployment defect.
fn check_anycast_nearest(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    cfg: &DataplaneConfig,
    analysis: &ForwardingAnalysis,
    rep: &mut Reporter,
) {
    if vns.mode() != RoutingMode::GeoColdPotato {
        return;
    }
    let anycast = vns.anycast_prefix();
    let Some(dest) = analysis.destination(&anycast) else {
        rep.push(Violation::error(
            Invariant::AnycastNearest,
            "anycast prefix missing from the forwarding analysis",
        ));
        return;
    };
    let live = live_pops(vns, scope);
    let mut clients = 0usize;
    // Tail landings, counted per delivering router so the dominant far
    // landing can be named in the finding.
    let mut tail: BTreeMap<SpeakerId, usize> = BTreeMap::new();
    for pi in internet.prefixes().filter(|p| p.last_mile) {
        let Some(client) = internet.router_of(pi.origin, pi.city) else {
            continue;
        };
        match dest.outcome(client) {
            // No route to the anycast address (possible under faults; the
            // service plane records these callers as unreachable) — and
            // blackholes/cycles are LOOP-FREE / NO-BLACKHOLE findings, not
            // landing-quality ones.
            None
            | Some(Terminal::Blackhole { .. })
            | Some(Terminal::Cycle { .. })
            | Some(Terminal::DeadSink { .. }) => {}
            Some(Terminal::Origin { at }) => {
                rep.push(
                    Violation::error(
                        Invariant::AnycastNearest,
                        format!("anycast traffic terminates as unicast at {at}"),
                    )
                    .at(at)
                    .on(pi.prefix),
                );
            }
            Some(Terminal::Anycast { at }) => {
                clients += 1;
                let Some(pop) = vns.pop_of_router(at) else {
                    rep.push(
                        Violation::error(
                            Invariant::AnycastNearest,
                            format!("anycast delivery at {at}, which is not a PoP border"),
                        )
                        .at(at)
                        .on(pi.prefix),
                    );
                    continue;
                };
                let landing_km = pi.location.distance_km(&vns.pop(pop).location());
                let nearest_km = live
                    .iter()
                    .map(|(_, loc)| pi.location.distance_km(loc))
                    .min_by(f64::total_cmp)
                    .unwrap_or(0.0);
                if landing_km > cfg.anycast_stretch * nearest_km + cfg.anycast_slack_km {
                    *tail.entry(at).or_insert(0) += 1;
                }
            }
        }
    }
    let far = tail.values().sum::<usize>();
    if clients > 0 && (far as f64) > cfg.anycast_tail_frac * (clients as f64) {
        // Name the dominant far landing (ties break to the smallest id —
        // BTreeMap iteration order makes this deterministic).
        let (&dominant, &count) = tail
            .iter()
            .max_by_key(|&(&id, &n)| (n, std::cmp::Reverse(id)))
            .unwrap_or((&SpeakerId(0), &0));
        let pop = vns
            .pop_of_router(dominant)
            .map_or_else(|| "?".into(), |p| vns.pop(p).code().to_string());
        rep.push(
            Violation::error(
                Invariant::AnycastNearest,
                format!(
                    "{far} of {clients} clients land beyond {}x nearest + {:.0} km \
                     (tolerated fraction {:.2}); dominant far landing {dominant} ({pop}, \
                     {count} clients)",
                    cfg.anycast_stretch, cfg.anycast_slack_km, cfg.anycast_tail_frac
                ),
            )
            .at(dominant)
            .on(anycast),
        );
    }
}

/// WAYPOINT: the service plane's pre-resolved paths agree with the
/// forwarding graph and traverse the admitted relay PoP.
fn check_waypoint(
    internet: &Internet,
    vns: &Vns,
    analysis: &ForwardingAnalysis,
    endpoints: &EndpointTable,
    paths: &PathTable,
    rep: &mut Reporter,
) {
    let anycast = analysis.destination(&vns.anycast_prefix());
    let graph_landing = |ip: u32| -> Option<vns_core::PopId> {
        let pi = internet.lookup_prefix(ip)?;
        let client = internet.router_of(pi.origin, pi.city)?;
        match anycast?.outcome(client) {
            Some(Terminal::Anycast { at }) => vns.pop_of_router(at),
            _ => None,
        }
    };

    // Landings: table vs graph, per endpoint.
    for i in 0..endpoints.len() {
        let ip = endpoints.endpoint(i).ip;
        let table = paths.landing_pop(i);
        let graph = graph_landing(ip);
        if table == graph {
            continue;
        }
        let pfx = internet.lookup_prefix(ip).map(|p| p.prefix);
        let name = |p: Option<vns_core::PopId>| match p {
            Some(id) => vns.pop(id).code().to_string(),
            None => "none".to_string(),
        };
        let mut v = Violation::error(
            Invariant::Waypoint,
            format!(
                "PathTable lands endpoint {i} on {} but the forwarding graph says {}",
                name(table),
                name(graph)
            ),
        );
        if let Some(p) = pfx {
            v = v.on(p);
        }
        if let Some(pop) = table {
            v = v.at(vns.pop(pop).borders[0]);
        }
        rep.push(v);
    }

    // Tails: each cached PoP→callee path must start at that PoP's border
    // and never revisit a router.
    for pop in vns.pops() {
        for i in 0..endpoints.len() {
            let Some(tail) = paths.tail(pop.id(), i) else {
                continue;
            };
            let start = tail.routers.first().copied();
            if start != Some(pop.borders[0]) {
                rep.push(
                    Violation::error(
                        Invariant::Waypoint,
                        format!(
                            "tail for callee {i} from {} starts at {:?}, not its border {}",
                            pop.code(),
                            start,
                            pop.borders[0]
                        ),
                    )
                    .at(pop.borders[0]),
                );
                continue;
            }
            let mut seen = std::collections::BTreeSet::new();
            if !tail.routers.iter().all(|r| seen.insert(*r)) {
                rep.push(
                    Violation::error(
                        Invariant::Waypoint,
                        format!("tail for callee {i} from {} revisits a router", pop.code()),
                    )
                    .at(pop.borders[0]),
                );
            }
        }
    }

    // Relay traversal: an admitted call's media path must cross a router
    // of its admitted PoP. One routable caller/callee pair suffices per
    // PoP — the tail and splice parts are shared across calls.
    let caller = (0..endpoints.len()).find(|&i| paths.landing_pop(i).is_some());
    if let Some(caller) = caller {
        let callee = (caller + 1) % endpoints.len();
        for pop in vns.pops() {
            let Some(path) = paths.call_path(caller, callee, pop.id()) else {
                continue;
            };
            let hits_relay = path
                .routers
                .iter()
                .any(|&r| vns.pop_of_router(r) == Some(pop.id()));
            if !hits_relay {
                rep.push(
                    Violation::error(
                        Invariant::Waypoint,
                        format!(
                            "media path admitted at {} never traverses that PoP",
                            pop.code()
                        ),
                    )
                    .at(pop.borders[0]),
                );
            }
        }
    }
}

/// Destinations for STRETCH-BOUND: the VNS's own unicast infrastructure
/// prefixes (echo servers). Paths to *external* last-mile prefixes ride
/// the public Internet past the egress, where double-digit geodesic
/// stretch is the paper's measured baseline — only the managed backbone
/// promises tight paths, so only VNS-origin destinations are bounded.
fn stretch_destinations<'a>(
    internet: &'a Internet,
    vns: &Vns,
) -> impl Iterator<Item = &'a PrefixInfo> {
    let vns_as = vns.as_id();
    internet
        .prefixes()
        .filter(move |p| !p.anycast && p.origin == vns_as)
}

/// STRETCH-BOUND: geodesic stretch of every live-PoP→destination path
/// stays under the bound. Geo cold-potato deployments only — hot-potato
/// detours are the paper's measured pathology, not a checker defect.
fn check_stretch_bound(
    internet: &Internet,
    vns: &Vns,
    scope: &VerifyScope,
    cfg: &DataplaneConfig,
    rep: &mut Reporter,
) {
    if vns.mode() != RoutingMode::GeoColdPotato {
        return;
    }
    for pop in vns.pops() {
        if scope.is_dead(pop.borders[0]) {
            continue;
        }
        let from = pop.location();
        for pi in stretch_destinations(internet, vns) {
            let Ok(path) = vns.path_via_vns(internet, pop.id(), pi.prefix.first_host()) else {
                // Unreachable destinations are NO-BLACKHOLE's domain.
                continue;
            };
            let km = path.total_km();
            let gc = from.distance_km(&pi.location);
            let bound = cfg.stretch_bound * gc + cfg.stretch_slack_km;
            if km > bound {
                rep.push(
                    Violation::error(
                        Invariant::StretchBound,
                        format!(
                            "egress path from {} rides {km:.0} km for a {gc:.0} km geodesic \
                             (bound {bound:.0} km)",
                            pop.code()
                        ),
                    )
                    .at(pop.borders[0])
                    .on(pi.prefix),
                );
            }
        }
    }
}
