//! Static control-plane invariant checker for a built VNS deployment.
//!
//! `vns-verify` is to this simulator what Batfish is to vendor configs: it
//! audits *converged control-plane state* — every speaker's Adj-RIB-In,
//! Loc-RIB and (recomputed) Adj-RIB-Out — against the routing invariants
//! the paper's design depends on, without running the simulator forward.
//! A deployment that converges can still be silently wrong: a stale
//! override table, a LOCAL_PREF function that dips below the BGP default,
//! a `NO_EXPORT` more-specific that escaped the AS, or a hidden route the
//! reflectors never saw. Each of those is a paper-level failure mode
//! (Secs 3.2 and 4.2), and each has a check here.
//!
//! The seven invariants:
//!
//! 1. **LP-SHAPE** — the `lp = f(d)` function is monotone nonincreasing
//!    over the whole great-circle distance domain and its floor stays
//!    *much* higher than the default preference of 100 (Sec 3.2: "always
//!    much higher than the default value of 100").
//! 2. **GEO-PREF** — every route in a reflector's Adj-RIB-In carries
//!    exactly the LOCAL_PREF `Vns::assigned_pref` assigns for its egress
//!    router and prefix over the live GeoIP database, overrides included
//!    (the reflectors scored it and the override table is not stale).
//! 3. **NO-EXPORT** — no `NO_EXPORT`-tagged route crossed or would cross
//!    an AS boundary (Sec 3.2: injected steering more-specifics must stay
//!    inside VNS).
//! 4. **OVERRIDE** — the management override table is sane: forced exits
//!    reference existing PoPs (the table holds one row per prefix, so a
//!    prefix cannot be both exempt and forced).
//! 5. **HIDDEN-ROUTE** — a border router whose best route is iBGP-learned
//!    but which holds an eBGP alternative still advertises that external
//!    route to the reflectors (Sec 3.2's hidden-routes pathology and its
//!    best-external fix).
//! 6. **VALLEY-FREE** — every eBGP advertisement respects Gao–Rexford
//!    export scoping: peer- or provider-learned routes are only exported
//!    to customers.
//! 7. **NEXT-HOP** — every iBGP-learned route held by a VNS router has a
//!    next hop reachable in the VNS IGP (a route that wins on LOCAL_PREF
//!    but cannot be resolved would blackhole traffic).
//!
//! Those checks are *local*: each one audits a single router's RIBs. A
//! control plane can pass all of them and still forward wrongly — two
//! routers pointing at each other loop traffic even though each next hop
//! resolves locally. The second stage is therefore a **data-plane model
//! checker** ([`dataplane`]): it derives the whole-network forwarding
//! graph from the converged RIBs + IGP next hops ([`forwarding_graph`])
//! and statically proves five global properties — LOOP-FREE,
//! NO-BLACKHOLE, ANYCAST-NEAREST, WAYPOINT and STRETCH-BOUND. The checker
//! itself is validated by a planted-defect corpus ([`mutations`]) with a
//! measured catch rate.
//!
//! The checks assume the network has been run to quiescence
//! ([`vns_core::Vns::apply`] reconverges after every change); on a
//! mid-convergence network they may report transients.
//!
//! Entry points: a [`Certifier`] applies a change — a fault, a management
//! action or an attack — and runs both stages scoped to the dead routers
//! ([`Certifier::apply`]), runs
//! them on the current state ([`Certifier::check`]) and certifies a rebuilt
//! `PathTable` ([`Certifier::rebuild_paths`]), over [`verify_scoped`] and
//! [`verify_dataplane_scoped`]. The `vns-verify` binary (in `vns-bench`)
//! pretty-prints the reports and exits nonzero on errors.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use vns_bgp::{Prefix, SpeakerId};
use vns_core::Vns;
use vns_topo::Internet;

mod certify;
mod checks;
pub mod dataplane;
pub mod forwarding_graph;
pub mod mutations;

pub use certify::{Certified, Certifier, CertifyError};
pub use dataplane::{
    verify_dataplane, verify_dataplane_scoped, verify_dataplane_with_service, DataplaneConfig,
    DataplaneReport,
};
pub use mutations::{plant_defect, PlantedDefect, DEFECT_NAMES};

/// What the verifier should assume about the deployment's health.
///
/// The default scope audits a fully healthy deployment. When a fault
/// campaign has deliberately taken routers down (e.g. a route-reflector
/// failover scenario), checks that assert the *presence* of sessions or
/// RIB state on those routers would report the injected fault itself as a
/// violation — a border router is *supposed* to have no iBGP session to a
/// dead reflector. Scoping the dead routers lets the remaining invariants
/// (which are exactly the ones that must still hold on the surviving
/// topology) be enforced at full strength.
#[derive(Debug, Clone, Default)]
pub struct VerifyScope {
    dead: BTreeSet<SpeakerId>,
}

impl VerifyScope {
    /// A scope in which the given routers are known to be down
    /// (control-plane dead: all BGP sessions torn).
    pub fn with_dead_routers(dead: impl IntoIterator<Item = SpeakerId>) -> Self {
        VerifyScope {
            dead: dead.into_iter().collect(),
        }
    }

    /// True when `router` is assumed dead under this scope.
    pub fn is_dead(&self, router: SpeakerId) -> bool {
        self.dead.contains(&router)
    }
}

/// How bad a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (e.g. a hidden route on a
    /// deployment that deliberately disabled best-external).
    Warning,
    /// The invariant is broken; the deployment will misroute.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("WARN"),
            Severity::Error => f.write_str("ERROR"),
        }
    }
}

/// Which invariant a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// LOCAL_PREF function shape (monotonicity + floor).
    LpFnShape,
    /// Reflector Adj-RIB-In preference matches the geo preference rule.
    GeoPreference,
    /// `NO_EXPORT` containment inside the AS.
    NoExportLeak,
    /// Override table sanity.
    OverrideSanity,
    /// Best-external visibility of hidden routes.
    HiddenRoute,
    /// Gao–Rexford export compliance.
    ValleyFree,
    /// IGP resolvability of iBGP next hops.
    NextHopResolution,
    /// No forwarding cycles anywhere in the derived forwarding graph.
    LoopFree,
    /// Every reachable source resolves to an origin (or an explicit
    /// dead-router sink under a fault scope).
    NoBlackhole,
    /// Each client's anycast landing is its geo-nearest live PoP within
    /// the configured stretch tolerance (the paper's Fig. 3 property).
    AnycastNearest,
    /// Admitted calls' forward paths traverse their assigned relay PoP
    /// (cross-checked against the service plane's `PathTable`).
    Waypoint,
    /// Geodesic stretch of egress paths stays under the campaign bound.
    StretchBound,
}

impl Invariant {
    /// Short code used in rendered reports.
    pub fn code(self) -> &'static str {
        match self {
            Invariant::LpFnShape => "LP-SHAPE",
            Invariant::GeoPreference => "GEO-PREF",
            Invariant::NoExportLeak => "NO-EXPORT",
            Invariant::OverrideSanity => "OVERRIDE",
            Invariant::HiddenRoute => "HIDDEN-ROUTE",
            Invariant::ValleyFree => "VALLEY-FREE",
            Invariant::NextHopResolution => "NEXT-HOP",
            Invariant::LoopFree => "LOOP-FREE",
            Invariant::NoBlackhole => "NO-BLACKHOLE",
            Invariant::AnycastNearest => "ANYCAST-NEAREST",
            Invariant::Waypoint => "WAYPOINT",
            Invariant::StretchBound => "STRETCH-BOUND",
        }
    }

    /// The control-plane (stage 1) invariants, in report order.
    pub const CONTROL_PLANE: [Invariant; 7] = [
        Invariant::LpFnShape,
        Invariant::GeoPreference,
        Invariant::NoExportLeak,
        Invariant::OverrideSanity,
        Invariant::HiddenRoute,
        Invariant::ValleyFree,
        Invariant::NextHopResolution,
    ];

    /// The data-plane (stage 2) properties, in report order.
    pub const DATA_PLANE: [Invariant; 5] = [
        Invariant::LoopFree,
        Invariant::NoBlackhole,
        Invariant::AnycastNearest,
        Invariant::Waypoint,
        Invariant::StretchBound,
    ];

    /// All invariants across both stages, in report order.
    pub const ALL: [Invariant; 12] = [
        Invariant::LpFnShape,
        Invariant::GeoPreference,
        Invariant::NoExportLeak,
        Invariant::OverrideSanity,
        Invariant::HiddenRoute,
        Invariant::ValleyFree,
        Invariant::NextHopResolution,
        Invariant::LoopFree,
        Invariant::NoBlackhole,
        Invariant::AnycastNearest,
        Invariant::Waypoint,
        Invariant::StretchBound,
    ];
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: an invariant broken at a specific place.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant that is violated.
    pub invariant: Invariant,
    /// How bad it is.
    pub severity: Severity,
    /// The speaker where the violation was observed, if localisable.
    pub speaker: Option<SpeakerId>,
    /// The prefix involved, if localisable.
    pub prefix: Option<Prefix>,
    /// Human explanation of what is wrong and why it matters.
    pub message: String,
}

impl Violation {
    /// An error-severity violation.
    pub fn error(invariant: Invariant, message: impl Into<String>) -> Self {
        Self {
            invariant,
            severity: Severity::Error,
            speaker: None,
            prefix: None,
            message: message.into(),
        }
    }

    /// A warning-severity violation.
    pub fn warning(invariant: Invariant, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warning,
            ..Self::error(invariant, message)
        }
    }

    /// Attaches the speaker the violation was observed at.
    #[must_use]
    pub fn at(mut self, speaker: SpeakerId) -> Self {
        self.speaker = Some(speaker);
        self
    }

    /// Attaches the prefix involved.
    #[must_use]
    pub fn on(mut self, prefix: Prefix) -> Self {
        self.prefix = Some(prefix);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}]", self.severity, self.invariant)?;
        if let Some(s) = self.speaker {
            write!(f, " {s}")?;
        }
        if let Some(p) = self.prefix {
            write!(f, " {p}")?;
        }
        write!(f, " — {}", self.message)
    }
}

/// Per-invariant cap on individually reported violations; a single broken
/// mechanism (say, a stale override table) can taint thousands of RIB
/// entries, and one summary line carries the same signal as the flood.
const MAX_PER_INVARIANT: usize = 100;

/// Collects violations with per-invariant truncation.
#[derive(Debug, Default)]
pub(crate) struct Reporter {
    violations: Vec<Violation>,
    /// (invariant, severity) -> total observed (reported + suppressed).
    counts: BTreeMap<(Invariant, Severity), usize>,
}

impl Reporter {
    /// Records a violation (dropped past [`MAX_PER_INVARIANT`] per
    /// invariant; the total still counts toward the summary).
    pub(crate) fn push(&mut self, v: Violation) {
        *self.counts.entry((v.invariant, v.severity)).or_default() += 1;
        let reported: usize = Severity::ALL_FOR_COUNT
            .iter()
            .filter_map(|s| self.counts.get(&(v.invariant, *s)))
            .sum();
        if reported <= MAX_PER_INVARIANT {
            self.violations.push(v);
        }
    }

    /// Appends everything `other` collected. Exact only when the two
    /// reporters hold disjoint invariants (the cap is per invariant): this
    /// is how one pass over the RIBs can feed two checks and still report
    /// each in its own place.
    pub(crate) fn absorb(&mut self, other: Reporter) {
        self.violations.extend(other.violations);
        for (key, n) in other.counts {
            *self.counts.entry(key).or_default() += n;
        }
    }

    /// Finalises into a [`Report`], appending one summary line per
    /// truncated invariant.
    pub(crate) fn finish(mut self) -> Report {
        for inv in Invariant::ALL {
            let total: usize = Severity::ALL_FOR_COUNT
                .iter()
                .filter_map(|s| self.counts.get(&(inv, *s)))
                .sum();
            if total > MAX_PER_INVARIANT {
                let worst = if self.counts.contains_key(&(inv, Severity::Error)) {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                let suppressed = total - MAX_PER_INVARIANT;
                let mut v = Violation::error(
                    inv,
                    format!("… and {suppressed} more {inv} violations suppressed"),
                );
                v.severity = worst;
                self.violations.push(v);
            }
        }
        Report {
            violations: self.violations,
            counts: self.counts,
        }
    }
}

impl Severity {
    /// Both severities (counting helper).
    const ALL_FOR_COUNT: [Severity; 2] = [Severity::Warning, Severity::Error];
}

/// The outcome of a verification run.
#[derive(Debug)]
pub struct Report {
    violations: Vec<Violation>,
    /// Total observed per (invariant, severity), truncation included.
    counts: BTreeMap<(Invariant, Severity), usize>,
}

impl Report {
    /// All recorded violations (per-invariant truncated, summary lines
    /// included).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations of a specific invariant.
    pub fn of(&self, invariant: Invariant) -> impl Iterator<Item = &Violation> + '_ {
        self.violations
            .iter()
            .filter(move |v| v.invariant == invariant)
    }

    /// Total error-severity findings (untruncated count).
    pub fn error_count(&self) -> usize {
        self.counts
            .iter()
            .filter(|((_, s), _)| *s == Severity::Error)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total warning-severity findings (untruncated count).
    pub fn warning_count(&self) -> usize {
        self.counts
            .iter()
            .filter(|((_, s), _)| *s == Severity::Warning)
            .map(|(_, n)| n)
            .sum()
    }

    /// True when no violations at all were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when no *error*-severity violations were found (the campaign
    /// pre-flight gate).
    pub fn passes(&self) -> bool {
        self.error_count() == 0
    }

    /// Renders the whole report as human-readable text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str("vns-verify: clean (no violations)\n");
            return out;
        }
        out.push_str(&format!(
            "vns-verify: {} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Runs every invariant check against a converged deployment.
///
/// `internet` must have been run to quiescence; `vns` is the deployment
/// built into it by [`vns_core::build_vns`].
pub fn verify(internet: &Internet, vns: &Vns) -> Report {
    verify_scoped(internet, vns, &VerifyScope::default())
}

/// Runs the invariant checks against a deployment that may be running
/// degraded: routers listed dead in `scope` are exempt from
/// presence-asserting checks (HIDDEN-ROUTE's session-to-reflector audit,
/// GEO-PREF and NEXT-HOP on the dead routers themselves), while every
/// other invariant still applies at full strength to the surviving
/// topology. With an empty scope this is exactly [`verify`].
///
/// `internet` must still have been run to quiescence *after* the faults
/// were injected — this scopes what "healthy" means, it does not excuse
/// mid-convergence transients.
pub fn verify_scoped(internet: &Internet, vns: &Vns, scope: &VerifyScope) -> Report {
    let mut rep = Reporter::default();
    // The RIB walks all go in one prefix order, built once.
    let order = checks::PrefixOrder::new(&internet.net);
    checks::lp_fn_shape(vns.lp_fn(), "deployed", &mut rep);
    checks::override_sanity(vns, &mut rep);
    checks::geo_preference(internet, vns, scope, &order, &mut rep);
    // NO-EXPORT and VALLEY-FREE share one pass over every Adj-RIB-In;
    // VALLEY-FREE's findings are reported after HIDDEN-ROUTE's.
    let mut valley = Reporter::default();
    checks::no_export_and_valley_free(internet, &order, &mut rep, &mut valley);
    checks::hidden_routes(internet, vns, scope, &order, &mut rep);
    rep.absorb(valley);
    checks::next_hop_resolution(internet, vns, scope, &mut rep);
    rep.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_core::LocalPrefFn;

    /// Invariant 1 alone on a candidate `f(d)`.
    fn shape_violations(lp_fn: LocalPrefFn) -> Vec<Violation> {
        let mut rep = Reporter::default();
        checks::lp_fn_shape(lp_fn, "candidate", &mut rep);
        rep.finish().violations
    }

    #[test]
    fn violation_renders_location() {
        let v = Violation::error(Invariant::GeoPreference, "mismatch")
            .at(SpeakerId(7))
            .on("10.0.0.0/8".parse().expect("prefix"));
        let s = v.to_string();
        assert!(s.contains("ERROR"), "{s}");
        assert!(s.contains("GEO-PREF"), "{s}");
        assert!(s.contains("R7"), "{s}");
        assert!(s.contains("10.0.0.0/8"), "{s}");
    }

    #[test]
    fn reporter_truncates_per_invariant() {
        let mut rep = Reporter::default();
        for _ in 0..(MAX_PER_INVARIANT + 50) {
            rep.push(Violation::error(Invariant::ValleyFree, "x"));
        }
        rep.push(Violation::warning(Invariant::HiddenRoute, "y"));
        let report = rep.finish();
        // 100 individual + 1 summary for valley-free, 1 for hidden-route.
        assert_eq!(report.violations().len(), MAX_PER_INVARIANT + 2);
        assert_eq!(report.error_count(), MAX_PER_INVARIANT + 50);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.passes());
        let summary = report
            .of(Invariant::ValleyFree)
            .last()
            .expect("summary line");
        assert!(summary.message.contains("50 more"), "{}", summary.message);
    }

    #[test]
    fn clean_report_renders_clean() {
        let report = Reporter::default().finish();
        assert!(report.is_clean());
        assert!(report.passes());
        assert!(report.render().contains("clean"));
    }

    #[test]
    fn default_shapes_pass_shape_check() {
        for f in [
            LocalPrefFn::default(),
            LocalPrefFn::Inverse {
                floor: 1_000,
                scale: 2_000_000.0,
            },
            LocalPrefFn::Stepped,
        ] {
            let vs = shape_violations(f);
            assert!(vs.is_empty(), "{f:?}: {vs:?}");
        }
    }

    #[test]
    fn broken_shapes_flagged() {
        // Floor at or below the BGP default: geo scores stop dominating
        // plain routes.
        let low = shape_violations(LocalPrefFn::BandedLinear {
            floor: 0,
            band_km: 1_000_000.0,
        });
        assert!(low.iter().any(|v| v.severity == Severity::Error), "{low:?}");
        // Floor above default but nowhere near "much higher": warning.
        let near = shape_violations(LocalPrefFn::BandedLinear {
            floor: 150,
            band_km: 1_000_000.0,
        });
        assert!(
            near.iter().any(|v| v.severity == Severity::Warning),
            "{near:?}"
        );
    }
}
