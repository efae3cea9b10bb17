//! Adversarial — the attack corpus vs the two-stage verifier, with a
//! measured catch rate.
//!
//! PR-5's fault campaigns established that the network *recovers from
//! accidents*; this campaign asks whether the verifier *detects malice*.
//! Each work unit forks the converged geo world, applies one attack
//! from [`vns_core::AttackKind`]'s corpus (prefix hijacks, sub-prefix
//! interception with forged registry cover, a valley-violating route leak,
//! GeoIP feed poisoning, an eBGP flap storm, Byzantine RIB corruptions)
//! through [`Certifier::apply`], which reconverges incrementally, and then
//! measures two planes:
//!
//! * **data-plane damage** — monitored client→echo flows are re-resolved
//!   and the affected ones replay an HD session over the post-attack path
//!   (lost packets, path stretch); every external client prefix's anycast
//!   landing is re-resolved (shifted / lost landings); a short live call
//!   slice runs on the attacked service plane (rejected / unreachable
//!   arrivals);
//! * **detection** — both verifier stages run on the post-attack RIBs
//!   and the campaign records *which* invariant fired, per attack — the
//!   detection matrix. An attack counts as detected only when every
//!   invariant its kind declares ([`AttackKind::expected_invariants`])
//!   produced at least one error-severity finding.
//!
//! Two un-attacked control rows (geo and hot-potato) pin the
//! false-positive side: a verifier that cries wolf on a clean world would
//! make every detection above meaningless. The flap storm is the corpus's
//! documented honest miss — it fully restores every session, so a clean
//! converged verdict is *correct*, and the headline catch rate charges it
//! against the corpus anyway (9/10 = 90%).
//!
//! Each attack unit rewrites its own [`World::fork`] and derives its RNG
//! streams from `(seed, "adversarial", attack name)`, so the artefact is
//! byte-identical at any `--threads N`.

use std::collections::BTreeMap;
use std::fmt;

use vns_bgp::{ConvergenceStats, Prefix};
use vns_core::{AttackKind, Change, PopId};
use vns_media::VideoSpec;
use vns_netsim::diurnal::DiurnalShape;
use vns_netsim::{echo_scratch, DiurnalProfile, Dur, Par, RngTree, SimTime};
use vns_service::{EndpointTable, Orchestrator, PathTable, ServiceConfig, ServiceEnv};
use vns_verify::{Certifier, DataplaneReport, Invariant, Report, Severity};

use crate::campaign::{
    assert_certified, channel_pair_args, echo_replay, monitored_flows, resolve_flows,
};
use crate::world::World;

/// Replayed session length per affected flow (~427 pkt/s at HD1080).
const SESSION: Dur = Dur::from_secs(10);

/// External last-mile prefixes sampled as egress targets per client PoP
/// (geo poisoning and Byzantine corruptions damage egress paths, which
/// the intra-VNS echo flows never cross).
const EXTERNAL_TARGETS: usize = 6;

/// Live-call slice sizing: two 2-minute windows against a modest target,
/// enough to surface rejected/unreachable arrivals without fig9-scale
/// cost.
const CALL_TARGET: u64 = 1200;
const CALL_HOLD: Dur = Dur::from_mins(4);
const CALL_WINDOW: Dur = Dur::from_mins(2);
const CALL_WINDOWS: u64 = 2;

/// Error-severity finding counts per invariant code, in report order.
pub type FiredCounts = Vec<(&'static str, usize)>;

/// An un-attacked control row (the false-positive side of the matrix).
#[derive(Debug, Clone)]
pub struct CleanRow {
    /// Hot-potato mode (else geo cold-potato).
    pub hot: bool,
    /// Error-severity findings on the clean world (must be empty).
    pub fired: FiredCounts,
}

impl CleanRow {
    /// Stable row label.
    pub fn label(&self) -> &'static str {
        if self.hot {
            "clean-hot"
        } else {
            "clean-geo"
        }
    }

    /// Total error-severity findings (any finding is a false positive).
    pub fn findings(&self) -> usize {
        self.fired.iter().map(|(_, n)| n).sum()
    }
}

/// Everything measured for one attack.
#[derive(Debug, Clone)]
pub struct AttackRow {
    /// Which attack ran.
    pub kind: AttackKind,
    /// Concrete staging (victim, attacker, sessions touched).
    pub detail: String,
    /// Aggregated reconvergence work across the attack's incremental runs.
    pub stats: ConvergenceStats,
    /// Discrete adversarial actions applied.
    pub events: usize,
    /// Error-severity finding counts per invariant, post-attack.
    pub fired: FiredCounts,
    /// Monitored client→echo flows.
    pub flows_monitored: usize,
    /// Flows whose forwarding path changed across the attack.
    pub flows_rerouted: usize,
    /// Flows that lost all routes.
    pub flows_unroutable: usize,
    /// Packets sent replaying affected flows post-attack.
    pub replay_sent: u64,
    /// Packets lost in those replays (unroutable flows lose everything).
    pub replay_lost: u64,
    /// Worst post/pre path-length stretch over rerouted flows.
    pub worst_stretch: Option<f64>,
    /// External client prefixes with a pre-attack anycast landing.
    pub landings_total: usize,
    /// Landings that moved to a different PoP.
    pub landings_shifted: usize,
    /// Landings lost entirely (no PoP reachable, or delivery off-VNS).
    pub landings_lost: usize,
    /// Call-slice arrivals offered post-attack.
    pub calls_offered: u64,
    /// Arrivals rejected for capacity.
    pub calls_rejected: u64,
    /// Arrivals that could not reach any relay PoP.
    pub calls_unreachable: u64,
}

impl AttackRow {
    /// Error-severity findings recorded under `code`.
    pub fn fired_count(&self, code: &str) -> usize {
        self.fired
            .iter()
            .find(|(c, _)| *c == code)
            .map_or(0, |(_, n)| *n)
    }

    /// Whether every invariant this attack is expected to trip fired.
    /// Attacks with an empty expectation (the self-healing flap storm)
    /// report `false` — they are the corpus's documented misses.
    pub fn detected(&self) -> bool {
        let expected = self.kind.expected_invariants();
        !expected.is_empty() && expected.iter().all(|code| self.fired_count(code) > 0)
    }
}

/// The adversarial campaign artefact.
#[derive(Debug, Clone)]
pub struct Adversarial {
    /// Un-attacked control rows (geo, hot), in artefact order.
    pub clean: Vec<CleanRow>,
    /// Per-attack rows in [`AttackKind::ALL`] order.
    pub attacks: Vec<AttackRow>,
}

impl Adversarial {
    /// The row for a specific attack kind.
    pub fn row(&self, kind: AttackKind) -> Option<&AttackRow> {
        self.attacks.iter().find(|r| r.kind == kind)
    }

    /// Attacks whose declared expectation fired in full.
    pub fn detected_count(&self) -> usize {
        self.attacks.iter().filter(|r| r.detected()).count()
    }

    /// Attacks that declare at least one expected invariant.
    pub fn detectable_count(&self) -> usize {
        self.attacks
            .iter()
            .filter(|r| !r.kind.expected_invariants().is_empty())
            .count()
    }

    /// Headline catch rate: detected attacks over the *whole* corpus —
    /// the self-healing rows charge as misses.
    pub fn catch_rate(&self) -> f64 {
        if self.attacks.is_empty() {
            return 0.0;
        }
        self.detected_count() as f64 / self.attacks.len() as f64
    }

    /// Total error-severity findings across the clean control rows
    /// (each one is a false positive; must be zero).
    pub fn false_positives(&self) -> usize {
        self.clean.iter().map(CleanRow::findings).sum()
    }
}

/// One parallel work unit.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Clean { hot: bool },
    Attack(AttackKind),
}

/// A unit's result (units run in canonical order, so the partition back
/// into clean/attack rows is positional).
enum UnitResult {
    Clean(CleanRow),
    Attack(Box<AttackRow>),
}

/// Runs the campaign: two clean control rows, which verify `geo` and
/// `hot` as they are, plus every attack in [`AttackKind::ALL`] on a fork
/// of `geo` (half the corpus targets the geo machinery), one parallel
/// unit each. Neither world is changed.
pub fn run(geo: &World, hot: &World, par: Par) -> Adversarial {
    let mut units: Vec<Unit> = vec![Unit::Clean { hot: false }, Unit::Clean { hot: true }];
    units.extend(AttackKind::ALL.into_iter().map(Unit::Attack));
    let results = par.map(&units, |_, &unit| match unit {
        Unit::Clean { hot: h } => {
            let world = if h { hot } else { geo };
            let (control, data) = Certifier::default().check(&world.internet, &world.vns);
            let fired = fired_invariants(&control, &data);
            UnitResult::Clean(CleanRow { hot: h, fired })
        }
        Unit::Attack(kind) => UnitResult::Attack(Box::new(run_attack(geo, kind))),
    });
    let mut clean = Vec::new();
    let mut attacks = Vec::new();
    for r in results {
        match r {
            UnitResult::Clean(row) => clean.push(row),
            UnitResult::Attack(row) => attacks.push(*row),
        }
    }
    Adversarial { clean, attacks }
}

/// Error-severity finding counts in both verifier stages' reports, in
/// report order.
fn fired_invariants(control: &Report, data: &DataplaneReport) -> FiredCounts {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let errors = control
        .violations()
        .iter()
        .chain(data.report.violations())
        .filter(|v| v.severity == Severity::Error);
    for v in errors {
        *counts.entry(v.invariant.code()).or_insert(0) += 1;
    }
    // Report order, not alphabetical.
    Invariant::ALL
        .iter()
        .filter_map(|inv| counts.get(inv.code()).map(|&n| (inv.code(), n)))
        .collect()
}

/// Every external last-mile prefix with its representative host (the
/// anycast landing sample, and the egress-target pool).
fn client_prefixes(world: &World) -> Vec<(Prefix, u32)> {
    world
        .internet
        .prefixes()
        .filter(|p| p.last_mile && p.origin != world.vns.as_id())
        .map(|p| (p.prefix, p.prefix.first_host()))
        .collect()
}

fn landing(world: &World, ip: u32) -> Option<PopId> {
    world
        .vns
        .anycast_landing(&world.internet, ip)
        .ok()
        .map(|(pop, _)| pop)
}

#[allow(clippy::too_many_lines)] // one linear measurement recipe
fn run_attack(geo: &World, kind: AttackKind) -> AttackRow {
    let mut world = geo.fork();
    assert_certified(&world);
    let seed = world.config.seed;
    let tree = RngTree::new(seed)
        .subtree("adversarial")
        .subtree(kind.name());

    // Pre-attack reference state. Monitored flows: the vantage PoPs
    // towards every echo server (intra-VNS damage) and an even sample of
    // external last-mile prefixes (egress damage).
    let externals = client_prefixes(&world);
    let step = (externals.len() / EXTERNAL_TARGETS).max(1);
    let targets: Vec<(Prefix, u32)> = externals
        .iter()
        .step_by(step)
        .take(EXTERNAL_TARGETS)
        .copied()
        .collect();
    let flows = monitored_flows(&world, &targets);
    let pre = resolve_flows(&world, &flows);
    let pre_land: Vec<Option<PopId>> = externals
        .iter()
        .map(|&(_, ip)| landing(&world, ip))
        .collect();
    // The endpoint inventory is the service plane's *pre-attack* knowledge
    // — a hijack redirects its traffic, it does not erase the endpoints
    // (and a total landing collapse must surface as unreachable arrivals,
    // not as an empty table).
    let endpoints = EndpointTable::build(&world.internet, &world.vns);

    // Launch, reconverge, and detect: both verifier stages on the
    // post-attack RIBs, unscoped (the flap storm restores what it cuts).
    let attack = Change::Attack { kind, seed };
    let certified = Certifier::default()
        .apply(&mut world.internet, &mut world.vns, attack)
        .unwrap_or_else(|e| panic!("{kind}: launch failed: {e}"));
    let fired = fired_invariants(&certified.control, &certified.dataplane);
    let launched = certified
        .attack
        .unwrap_or_else(|| panic!("{kind}: staged nothing"));

    // Flow damage: re-resolve every monitored flow; affected ones replay
    // an HD session over the post-attack path (an unroutable flow loses
    // the whole session).
    let mut flows_rerouted = 0usize;
    let mut flows_unroutable = 0usize;
    let mut replay_sent = 0u64;
    let mut replay_lost = 0u64;
    let mut worst_stretch: Option<f64> = None;
    let mut scratch = echo_scratch();
    let post = resolve_flows(&world, &flows);
    for (fi, ((flow, pre_path), post_path)) in flows.iter().zip(&pre).zip(post).enumerate() {
        let Some(pre_path) = pre_path else { continue };
        let changed = post_path
            .as_ref()
            .is_none_or(|p| p.routers != pre_path.routers);
        if !changed {
            continue;
        }
        match &post_path {
            None => flows_unroutable += 1,
            Some(p) => {
                flows_rerouted += 1;
                if pre_path.total_km() > 0.0 {
                    let s = p.total_km() / pre_path.total_km();
                    worst_stretch = Some(worst_stretch.map_or(s, |w| w.max(s)));
                }
            }
        }
        let mut pair = post_path.as_ref().map(|p| {
            channel_pair_args(
                &world,
                p,
                format_args!("adv:{}:{}", kind.name(), flow.label),
            )
        });
        let mut rng = tree.stream_args(format_args!("flow:{fi}"));
        let t0 = SimTime::EPOCH + Dur::from_hours(6);
        let sent: Vec<u64> = VideoSpec::HD1080
            .packets(t0, SESSION, &mut rng)
            .map(|p| p.sent.as_nanos())
            .collect();
        replay_sent += sent.len() as u64;
        replay_lost += match pair.as_mut() {
            Some((fwd, rev)) => u64::from(echo_replay(&mut scratch, &sent, fwd, rev).0),
            None => sent.len() as u64,
        };
    }

    // Anycast landing shifts over the client-prefix sample.
    let mut landings_total = 0usize;
    let mut landings_shifted = 0usize;
    let mut landings_lost = 0usize;
    for (&(_, ip), pre_pop) in externals.iter().zip(&pre_land) {
        let Some(pre_pop) = pre_pop else { continue };
        landings_total += 1;
        match landing(&world, ip) {
            None => landings_lost += 1,
            Some(post_pop) if post_pop != *pre_pop => landings_shifted += 1,
            Some(_) => {}
        }
    }

    // A short live call slice on the attacked service plane: the path
    // table is rebuilt for the post-attack routing epoch.
    let paths = PathTable::build(&world.internet, &world.vns, &endpoints);
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.55, 0.35, 0.0);
    let mut scfg = ServiceConfig::sized(CALL_TARGET, CALL_HOLD, CALL_WINDOW, profile);
    scfg.warmup_windows = 0;
    scfg.setup_stride = 8;
    scfg.qos_stride = 64;
    let mut orch = Orchestrator::new(&world.vns, scfg, tree.subtree("calls"));
    let env = ServiceEnv {
        internet: &world.internet,
        vns: &world.vns,
        factory: &world.factory,
        endpoints: &endpoints,
        paths: &paths,
    };
    // The unit itself is one parallel task; the slice stays sequential.
    orch.run_windows(&env, CALL_WINDOWS, Par::seq());
    let telemetry = orch.into_telemetry();
    let (mut calls_offered, mut calls_rejected, mut calls_unreachable) = (0u64, 0u64, 0u64);
    for w in &telemetry.windows {
        calls_offered += w.arrivals;
        calls_rejected += w.rejected;
        calls_unreachable += w.unreachable;
    }

    AttackRow {
        kind,
        detail: launched.detail,
        stats: certified.stats,
        events: launched.events,
        fired,
        flows_monitored: flows.len(),
        flows_rerouted,
        flows_unroutable,
        replay_sent,
        replay_lost,
        worst_stretch,
        landings_total,
        landings_shifted,
        landings_lost,
        calls_offered,
        calls_rejected,
        calls_unreachable,
    }
}

/// The six matrix columns the threat model names (DESIGN.md §12), with
/// short headers; everything else folds into `other`.
const MATRIX: [(Invariant, &str); 6] = [
    (Invariant::ValleyFree, "V-FREE"),
    (Invariant::HiddenRoute, "H-ROUTE"),
    (Invariant::GeoPreference, "G-PREF"),
    (Invariant::LoopFree, "L-FREE"),
    (Invariant::NoBlackhole, "NO-BH"),
    (Invariant::AnycastNearest, "A-NEAR"),
];

impl fmt::Display for Adversarial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Adversarial: attack corpus vs the two-stage verifier (detection matrix)"
        )?;
        writeln!(f, "\ncontrol rows (no attack):")?;
        for row in &self.clean {
            let verdict = if row.findings() == 0 {
                "clean".to_string()
            } else {
                format!("FALSE POSITIVE ({} findings)", row.findings())
            };
            writeln!(f, "  {}: {verdict}", row.label())?;
        }
        for row in &self.attacks {
            writeln!(f, "\nattack {}: {}", row.kind.name(), row.detail)?;
            writeln!(
                f,
                "  reconvergence: {} events, {} msgs, {} activations",
                row.events, row.stats.messages, row.stats.activations
            )?;
            let stretch = row
                .worst_stretch
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
            writeln!(
                f,
                "  damage: flows {}/{} rerouted, {} unroutable (replay loss {}/{}, \
                 worst stretch {stretch}) | landings {}/{} shifted, {} lost | \
                 calls {} offered, {} rejected, {} unreachable",
                row.flows_rerouted,
                row.flows_monitored,
                row.flows_unroutable,
                row.replay_lost,
                row.replay_sent,
                row.landings_shifted,
                row.landings_total,
                row.landings_lost,
                row.calls_offered,
                row.calls_rejected,
                row.calls_unreachable,
            )?;
            let fired = if row.fired.is_empty() {
                "none".to_string()
            } else {
                row.fired
                    .iter()
                    .map(|(c, n)| format!("{c}({n})"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let expected = row.kind.expected_invariants();
            let verdict = if row.detected() {
                "DETECTED"
            } else if expected.is_empty() {
                "undetected (self-healing; documented miss)"
            } else {
                "MISSED"
            };
            writeln!(f, "  fired: {fired} | expected {expected:?} -> {verdict}")?;
        }

        writeln!(f, "\ndetection matrix (error findings per invariant):")?;
        write!(f, "  {:<24}", "attack")?;
        for (_, hdr) in MATRIX {
            write!(f, " {hdr:>7}")?;
        }
        writeln!(f, " {:>7} verdict", "other")?;
        for row in &self.attacks {
            write!(f, "  {:<24}", row.kind.name())?;
            let mut named = 0usize;
            for (inv, _) in MATRIX {
                let n = row.fired_count(inv.code());
                named += n;
                if n == 0 {
                    write!(f, " {:>7}", ".")?;
                } else {
                    write!(f, " {n:>7}")?;
                }
            }
            let other: usize = row.fired.iter().map(|(_, n)| n).sum::<usize>() - named;
            if other == 0 {
                write!(f, " {:>7}", ".")?;
            } else {
                write!(f, " {other:>7}")?;
            }
            let verdict = if row.detected() {
                "DETECTED"
            } else if row.kind.expected_invariants().is_empty() {
                "n/a"
            } else {
                "MISSED"
            };
            writeln!(f, " {verdict}")?;
        }
        writeln!(
            f,
            "\nsummary: catch rate {}/{} ({:.0}%) over the corpus, {}/{} over \
             detectable attacks; false positives: {} findings on {} clean rows",
            self.detected_count(),
            self.attacks.len(),
            100.0 * self.catch_rate(),
            self.detected_count(),
            self.detectable_count(),
            self.false_positives(),
            self.clean.len(),
        )
    }
}
