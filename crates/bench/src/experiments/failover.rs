//! Failover — scripted control-plane faults and reconvergence measurement.
//!
//! The paper's network keeps calls alive because its resilience mechanisms
//! — meshed regional clusters, redundant long-haul circuits, paired
//! geo route reflectors, best-external on borders (Secs 2–3) — absorb
//! failures the best-effort Internet cannot. This campaign exercises
//! exactly those mechanisms: from a converged world it injects scripted
//! [`FaultEvent`]s (long-haul circuit cut, egress border-router loss, geo
//! route-reflector failover, flapping eBGP session), re-runs the BGP
//! engine incrementally after each event, and measures three planes at
//! once:
//!
//! * **control plane** — activations and messages per event
//!   ([`vns_bgp::ConvergenceStats`]); each event goes through
//!   [`Certifier::apply`], which refuses a torn net, so a torn RIB is never
//!   silently measured;
//! * **data plane** — monitored client→echo flows are re-resolved across
//!   the routing epoch and an in-flight HD session is replayed over the
//!   pre→post path swap, yielding the outage window, packets lost during
//!   reconvergence, and post-failure path stretch vs. the geo-optimal
//!   pre-failure exit;
//! * **invariants** — both vns-verify stages re-run on the post-event RIBs,
//!   scoped to the surviving topology, so GEO-PREF / HIDDEN-ROUTE / NEXT-HOP
//!   and LOOP-FREE / NO-BLACKHOLE must still hold mid-incident.
//!
//! ## Reconvergence-time model
//!
//! The simulator's control plane is event-stepped, not wall-clocked, so
//! the outage window is derived from a deterministic timing model:
//! failure detection takes [`DETECTION_MS`] (BFD-style fast detection on
//! dedicated circuits/sessions — 3 × 100 ms intervals), and each BGP
//! message delivered during reconvergence costs [`PER_MSG_MS`] of
//! serialized propagation/processing. Restorative events (session/router/
//! circuit up) converge make-before-break: the old path keeps forwarding
//! while the new state propagates, so their modeled outage is zero and
//! only the measured swap gap applies.
//!
//! Each scenario is one parallel work unit that rewrites its own fork of
//! the converged geo world ([`World::fork`]) — a pure function of the
//! master seed — so artefacts are byte-identical at any `--threads N`.

use std::fmt;

use vns_bgp::ConvergenceStats;
use vns_core::{Change, FaultEvent, FaultPlan, PopId};
use vns_media::VideoSpec;
use vns_netsim::{echo_scratch, Dur, Par, PathChannel, RngTree, SimTime};
use vns_topo::ResolvedPath;
use vns_verify::Certifier;

use crate::campaign::{
    assert_certified, channel_pair_args, echo_replay, monitored_flows, resolve_flows, MonitoredFlow,
};
use crate::world::World;

/// Modeled failure-detection delay, ms (BFD-style: 3 × 100 ms).
pub const DETECTION_MS: f64 = 300.0;

/// Modeled serialized cost per delivered BGP message, ms.
pub const PER_MSG_MS: f64 = 1.0;

/// Replayed session length. Long enough to observe the full outage window
/// and post-swap recovery at ~427 packets/s without fig9-scale cost.
const SESSION: Dur = Dur::from_secs(30);

/// Event injection time, relative to session start.
const EVENT_AT: Dur = Dur::from_secs(10);

/// The scripted scenarios, in artefact order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScenarioKind {
    /// Geo route-reflector loss and recovery (RR redundancy).
    RrFailover,
    /// Egress PoP border-router loss and recovery (best-external +
    /// intra-PoP pairing).
    PopBorderLoss,
    /// Long-haul inter-cluster circuit cut and repair (cluster meshing).
    LonghaulCut,
    /// Primary upstream eBGP session cut and restore.
    UpstreamCut,
    /// Flapping eBGP session (3 cut/restore cycles).
    EbgpFlap,
}

const SCENARIOS: [ScenarioKind; 5] = [
    ScenarioKind::RrFailover,
    ScenarioKind::PopBorderLoss,
    ScenarioKind::LonghaulCut,
    ScenarioKind::UpstreamCut,
    ScenarioKind::EbgpFlap,
];

impl ScenarioKind {
    /// Expands into a concrete [`FaultPlan`] against a built world.
    fn plan(self, world: &World) -> FaultPlan {
        let vns = &world.vns;
        match self {
            ScenarioKind::RrFailover => {
                let [rr0, _] = vns.reflectors();
                FaultPlan::router_blip("rr-failover", rr0)
            }
            ScenarioKind::PopBorderLoss => {
                // SIN's first border: the Asia-Pacific egress every
                // monitored AP flow crosses.
                let border = vns.pop(PopId(7)).borders[0];
                FaultPlan::router_blip("pop-border-loss", border)
            }
            ScenarioKind::LonghaulCut => {
                // The SIN=AMS long-haul circuit (an INTER_CLUSTER_LINKS
                // member joining the AP and EU clusters).
                let a = vns.pop(PopId(7)).borders[0];
                let b = vns.pop(PopId(9)).borders[0];
                FaultPlan::circuit_blip("longhaul-cut", a, b)
            }
            ScenarioKind::UpstreamCut => {
                let pop = PopId(9); // AMS
                let border = vns.pop(pop).borders[0];
                let (up_as, up_city) = vns.primary_upstream(pop);
                let upstream = world
                    .internet
                    .router_of(up_as, up_city)
                    .expect("upstream router exists");
                FaultPlan::new(
                    "upstream-cut",
                    vec![
                        FaultEvent::SessionCut {
                            a: border,
                            b: upstream,
                        },
                        FaultEvent::SessionRestore {
                            a: border,
                            b: upstream,
                        },
                    ],
                )
            }
            ScenarioKind::EbgpFlap => {
                let pop = PopId(1); // SJS
                let border = vns.pop(pop).borders[0];
                let (up_as, up_city) = vns.primary_upstream(pop);
                let upstream = world
                    .internet
                    .router_of(up_as, up_city)
                    .expect("upstream router exists");
                FaultPlan::session_flap("ebgp-flap", border, upstream, 3)
            }
        }
    }
}

/// Data-plane impact on one monitored flow for one event.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// `"AMS->SIN"`-style flow label.
    pub label: String,
    /// The flow's forwarding path changed across the event.
    pub rerouted: bool,
    /// The pre-event path crossed the failed element (traffic blackholed
    /// until reconvergence).
    pub hit: bool,
    /// Outage window, ms: first post-event round-trip delivery minus the
    /// event time. Zero for untouched flows.
    pub outage_ms: f64,
    /// Packets lost in the reconvergence window.
    pub lost_packets: u32,
    /// Pre-event path length, km (the geo-optimal reference).
    pub pre_km: f64,
    /// Post-event path length, km (`None` when the flow lost all routes).
    pub post_km: Option<f64>,
}

impl FlowOutcome {
    /// Post-failure path stretch vs. the geo-optimal pre-failure path.
    pub fn stretch(&self) -> Option<f64> {
        let post = self.post_km?;
        (self.pre_km > 0.0).then(|| post / self.pre_km)
    }
}

/// Everything measured for one scripted event.
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// The event, rendered (`"router-down R42"`).
    pub event: String,
    /// Control-plane reconvergence cost.
    pub stats: ConvergenceStats,
    /// Modeled reconvergence time, ms (detection + per-message cost).
    pub conv_ms: f64,
    /// Error-severity invariant violations on the post-event RIBs
    /// (scoped to the surviving topology).
    pub verify_errors: usize,
    /// Warning-severity findings, same scope.
    pub verify_warnings: usize,
    /// Error-severity data-plane model-checker findings on the post-event
    /// forwarding graph (same scope; loops and blackholes must not exist
    /// even mid-incident).
    pub dataplane_errors: usize,
    /// Warning-severity data-plane findings, same scope.
    pub dataplane_warnings: usize,
    /// Flows whose path changed or which crossed the failed element;
    /// untouched flows are counted in `flows_monitored` only.
    pub affected: Vec<FlowOutcome>,
    /// Total monitored flows.
    pub flows_monitored: usize,
}

/// One scenario's measured steps.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (stable artefact/RNG key).
    pub name: String,
    /// Per-event measurements in script order.
    pub steps: Vec<EventOutcome>,
}

/// The failover campaign artefact.
#[derive(Debug, Clone)]
pub struct Failover {
    /// Scenario outcomes in canonical order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Runs every scripted scenario, one parallel unit each. Each unit forks
/// `world` (left as it is), injects its plan step by step, and measures
/// control plane, data plane and invariants after every step.
pub fn run(world: &World, par: Par) -> Failover {
    let scenarios = par.map(&SCENARIOS, |_, &kind| run_scenario(world, kind));
    Failover { scenarios }
}

/// Modeled reconvergence time for one event, ms. Failure events pay the
/// detection delay; restorative events converge make-before-break.
fn convergence_ms(event: FaultEvent, stats: &ConvergenceStats) -> f64 {
    let detection = match event {
        FaultEvent::SessionCut { .. }
        | FaultEvent::RouterDown { .. }
        | FaultEvent::CircuitCut { .. } => DETECTION_MS,
        FaultEvent::SessionRestore { .. }
        | FaultEvent::RouterUp { .. }
        | FaultEvent::CircuitRestore { .. } => 0.0,
    };
    detection + stats.messages as f64 * PER_MSG_MS
}

/// Whether a resolved path crosses the failed element of `event`.
fn path_hit(path: &ResolvedPath, event: FaultEvent) -> bool {
    match event {
        FaultEvent::RouterDown { router } => path.routers.contains(&router),
        FaultEvent::SessionCut { a, b } | FaultEvent::CircuitCut { a, b } => path
            .routers
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a)),
        FaultEvent::SessionRestore { .. }
        | FaultEvent::RouterUp { .. }
        | FaultEvent::CircuitRestore { .. } => false,
    }
}

fn run_scenario(source: &World, kind: ScenarioKind) -> ScenarioOutcome {
    let mut world = source.fork();
    assert_certified(&world);
    let plan = kind.plan(&world);
    let flows = monitored_flows(&world, &[]);
    let tree = RngTree::new(world.config.seed)
        .subtree("failover")
        .subtree(&plan.name);
    let mut certifier = Certifier::default();
    let mut steps = Vec::with_capacity(plan.steps.len());

    for (step_idx, &event) in plan.steps.iter().enumerate() {
        let pre = resolve_flows(&world, &flows);

        let certified = certifier
            .apply(&mut world.internet, &mut world.vns, Change::Fault(event))
            .unwrap_or_else(|e| panic!("{}: step {step_idx} ({event}): {e}", plan.name));
        let conv_ms = convergence_ms(event, &certified.stats);

        let post = resolve_flows(&world, &flows);
        let mut affected = Vec::new();
        for (fi, ((flow, pre_path), post_path)) in flows.iter().zip(&pre).zip(post).enumerate() {
            let Some(pre_path) = pre_path else { continue };
            let hit = path_hit(pre_path, event);
            let rerouted = post_path
                .as_ref()
                .is_none_or(|p| p.routers != pre_path.routers);
            if !hit && !rerouted {
                continue;
            }
            let mut rng = tree.stream_args(format_args!("flow:{step_idx}:{fi}"));
            affected.push(replay_flow(
                &world,
                flow,
                pre_path,
                post_path.as_ref(),
                hit,
                conv_ms,
                &mut rng,
                &plan.name,
                step_idx,
            ));
        }

        steps.push(EventOutcome {
            event: event.to_string(),
            stats: certified.stats,
            conv_ms,
            verify_errors: certified.control.error_count(),
            verify_warnings: certified.control.warning_count(),
            dataplane_errors: certified.dataplane.error_count(),
            dataplane_warnings: certified.dataplane.warning_count(),
            affected,
            flows_monitored: flows.len(),
        });
    }
    assert!(certifier.fully_restored(), "{} left a fault", plan.name);

    ScenarioOutcome {
        name: plan.name,
        steps,
    }
}

/// Replays an in-flight HD session across the pre→post path swap.
///
/// Packets sent before the event ride the pre-event path. During the
/// modeled reconvergence window, packets on a flow that crossed the
/// failed element are blackholed; an unaffected-but-rerouting flow keeps
/// using its (still valid) old path. After the window, packets ride the
/// post-event path. The outage window is measured, not assumed: the send
/// time of the first packet delivered round-trip after the event, minus
/// the event time.
#[allow(clippy::too_many_arguments)] // measurement context, not an API
fn replay_flow(
    world: &World,
    flow: &MonitoredFlow,
    pre: &ResolvedPath,
    post: Option<&ResolvedPath>,
    hit: bool,
    conv_ms: f64,
    rng: &mut rand::rngs::SmallRng,
    scenario: &str,
    step_idx: usize,
) -> FlowOutcome {
    let t0 = SimTime::EPOCH + Dur::from_hours(6);
    let t_event = t0 + EVENT_AT;
    let t_swap = t_event + Dur::from_millis_f64(conv_ms);
    let session_end = t0 + SESSION;

    let (mut pre_fwd, mut pre_rev) = channel_pair_args(
        world,
        pre,
        format_args!("fo:{scenario}:{step_idx}:{}:pre", flow.label),
    );
    let mut post_pair = post.map(|p| {
        channel_pair_args(
            world,
            p,
            format_args!("fo:{scenario}:{step_idx}:{}:post", flow.label),
        )
    });

    let sent: Vec<u64> = VideoSpec::HD1080
        .packets(t0, SESSION, rng)
        .map(|p| p.sent.as_nanos())
        .collect();
    let (lost_packets, first_ok_after) = replay_across_swap(
        &sent,
        (t_event, t_swap),
        hit,
        (&mut pre_fwd, &mut pre_rev),
        post_pair.as_mut().map(|(f, r)| (f, r)),
    );

    let outage_ms = match first_ok_after {
        Some(t) => (t - t_event).as_millis_f64(),
        // Nothing came back after the event: the outage spans the rest of
        // the session.
        None => (session_end - t_event).as_millis_f64(),
    };
    FlowOutcome {
        label: flow.label.clone(),
        rerouted: post.is_none_or(|p| p.routers != pre.routers),
        hit,
        outage_ms,
        lost_packets,
        pre_km: pre.total_km(),
        post_km: post.map(ResolvedPath::total_km),
    }
}

/// The packet replay of [`replay_flow`]: `sent` (send clocks in ns,
/// non-decreasing, so the three phases are contiguous and each is a run of
/// echo chunks on one channel pair) echoed across the `(event, swap)`
/// instants. Returns the packets counted lost — the blackholed or dropped
/// in-window ones, plus everything after the swap when no route is left —
/// and the send time of the first packet at or after the event that
/// completed its round trip.
fn replay_across_swap(
    sent: &[u64],
    (t_event, t_swap): (SimTime, SimTime),
    hit: bool,
    (pre_fwd, pre_rev): (&mut PathChannel, &mut PathChannel),
    post: Option<(&mut PathChannel, &mut PathChannel)>,
) -> (u32, Option<SimTime>) {
    let n_pre = sent.partition_point(|&t| t < t_event.as_nanos());
    let n_swap = sent.partition_point(|&t| t < t_swap.as_nanos());
    let (before, in_window, after) = (&sent[..n_pre], &sent[n_pre..n_swap], &sent[n_swap..]);

    let mut scratch = echo_scratch();
    // Pre-event packets only advance the old path's channel state.
    let _ = echo_replay(&mut scratch, before, pre_fwd, pre_rev);
    // Reconvergence window: a flow that crossed the failed element is
    // blackholed; any other keeps using its (still valid) old path.
    let (mut lost, mut first_ok) = if hit {
        (in_window.len() as u32, None)
    } else {
        echo_replay(&mut scratch, in_window, pre_fwd, pre_rev)
    };
    match post {
        Some((fwd, rev)) => first_ok = first_ok.or(echo_replay(&mut scratch, after, fwd, rev).1),
        None => lost += after.len() as u32,
    }
    (lost, first_ok)
}

impl Failover {
    /// Total BGP messages across every scenario step.
    pub fn total_messages(&self) -> u64 {
        self.scenarios
            .iter()
            .flat_map(|s| &s.steps)
            .map(|e| e.stats.messages)
            .sum()
    }

    /// Largest measured outage window, ms.
    pub fn max_outage_ms(&self) -> f64 {
        self.scenarios
            .iter()
            .flat_map(|s| &s.steps)
            .flat_map(|e| &e.affected)
            .map(|f| f.outage_ms)
            .fold(0.0, f64::max)
    }

    /// True when every step passed the scoped invariant suite AND the
    /// scoped data-plane model checker.
    pub fn all_verified(&self) -> bool {
        self.scenarios
            .iter()
            .flat_map(|s| &s.steps)
            .all(|e| e.verify_errors == 0 && e.dataplane_errors == 0)
    }
}

impl fmt::Display for Failover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Failover: scripted control-plane faults, incremental reconvergence"
        )?;
        writeln!(
            f,
            "(detection {DETECTION_MS:.0} ms + {PER_MSG_MS:.1} ms/msg; \
             restores are make-before-break)"
        )?;
        for sc in &self.scenarios {
            writeln!(f, "\nscenario {}:", sc.name)?;
            for (i, step) in sc.steps.iter().enumerate() {
                writeln!(
                    f,
                    "  step {i}: {} | {} msgs, {} activations | conv {:.1} ms \
                     | verify {}E/{}W | dataplane {}E/{}W | {}/{} flows affected",
                    step.event,
                    step.stats.messages,
                    step.stats.activations,
                    step.conv_ms,
                    step.verify_errors,
                    step.verify_warnings,
                    step.dataplane_errors,
                    step.dataplane_warnings,
                    step.affected.len(),
                    step.flows_monitored,
                )?;
                for flow in &step.affected {
                    let post = flow
                        .post_km
                        .map_or_else(|| "unroutable".to_string(), |km| format!("{km:.0} km"));
                    let stretch = flow
                        .stretch()
                        .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
                    writeln!(
                        f,
                        "    {} {}: outage {:.1} ms, lost {}, path {:.0} km -> {} (stretch {})",
                        flow.label,
                        match (flow.hit, flow.rerouted) {
                            (true, _) => "blackholed",
                            (false, true) => "rerouted",
                            (false, false) => "touched",
                        },
                        flow.outage_ms,
                        flow.lost_packets,
                        flow.pre_km,
                        post,
                        stretch,
                    )?;
                }
            }
        }
        writeln!(
            f,
            "\nsummary: {} reconvergence messages, max outage {:.1} ms, \
             invariants post-event: {}",
            self.total_messages(),
            self.max_outage_ms(),
            if self.all_verified() {
                "clean"
            } else {
                "VIOLATED"
            }
        )
    }
}

#[cfg(test)]
#[path = "../../../netsim/tests/support/mod.rs"]
mod support;

#[cfg(test)]
mod tests {
    use super::support::{EpochOracle, Send1};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vns_netsim::{HopChannel, LossModel, LossProcess, PathOutcome};

    fn hops(p: f64, seed: u64) -> Vec<HopChannel> {
        let lossy = |ms: f64, model: LossModel, s: u64| {
            let mut hop = HopChannel::ideal(ms);
            hop.loss = LossProcess::new(model, SmallRng::seed_from_u64(s));
            hop
        };
        vec![
            lossy(3.0, LossModel::Bernoulli { p }, seed),
            HopChannel::ideal(20.0),
            lossy(6.0, LossModel::bursty(0.02, 0.5, 1.0), seed + 1),
        ]
    }

    /// The replay one packet at a time, on the per-packet specification of
    /// the channel: classify each packet by its send time, skip the
    /// blackholed window, swap the channel pair after it.
    fn per_packet(
        sent: &[u64],
        (t_event, t_swap): (SimTime, SimTime),
        hit: bool,
        pre: &mut (EpochOracle, EpochOracle),
        mut post: Option<&mut (EpochOracle, EpochOracle)>,
    ) -> (u32, Option<SimTime>) {
        let (mut lost, mut first_ok) = (0u32, None);
        for &t in sent {
            let t = SimTime::from_nanos(t);
            let before_event = t < t_event;
            let in_window = !before_event && t < t_swap;
            if in_window && hit {
                lost += 1;
                continue;
            }
            let pair = if before_event || in_window {
                Some(&mut *pre)
            } else {
                post.as_deref_mut()
            };
            let Some((fwd, rev)) = pair else {
                lost += 1;
                continue;
            };
            let round_trip = match fwd.send(t) {
                PathOutcome::Delivered { arrival, .. } => rev.send(arrival).delivered(),
                PathOutcome::Lost { .. } => false,
            };
            if round_trip && !before_event {
                first_ok.get_or_insert(t);
            } else if !round_trip && in_window {
                lost += 1;
            }
        }
        (lost, first_ok)
    }

    #[test]
    fn chunked_replay_matches_per_packet_form() {
        let t0 = SimTime::EPOCH + Dur::from_hours(6);
        let t_event = t0 + EVENT_AT;
        let rng = |s: u64| SmallRng::seed_from_u64(s);
        let mut cases = 0;
        for seed in 0..6u64 {
            let sent: Vec<u64> = VideoSpec::HD1080
                .packets(t0, SESSION, &mut rng(seed))
                .map(|p| p.sent.as_nanos())
                .collect();
            for conv_ms in [0.0, 301.0, 1_450.5] {
                for (hit, routed) in [(true, true), (false, true), (true, false), (false, false)] {
                    let swap = (t_event, t_event + Dur::from_millis_f64(conv_ms));
                    let p = 0.01 + 0.04 * seed as f64;
                    let mut pre = (
                        PathChannel::new(hops(p, seed), rng(seed + 10)),
                        PathChannel::new(hops(p, seed + 2), rng(seed + 11)),
                    );
                    let mut post = (
                        PathChannel::new(hops(p, seed + 4), rng(seed + 12)),
                        PathChannel::new(hops(p, seed + 6), rng(seed + 13)),
                    );
                    let got = replay_across_swap(
                        &sent,
                        swap,
                        hit,
                        (&mut pre.0, &mut pre.1),
                        routed.then_some((&mut post.0, &mut post.1)),
                    );
                    let mut pre = (
                        EpochOracle::new(hops(p, seed), rng(seed + 10)),
                        EpochOracle::new(hops(p, seed + 2), rng(seed + 11)),
                    );
                    let mut post = (
                        EpochOracle::new(hops(p, seed + 4), rng(seed + 12)),
                        EpochOracle::new(hops(p, seed + 6), rng(seed + 13)),
                    );
                    let want = per_packet(&sent, swap, hit, &mut pre, routed.then_some(&mut post));
                    assert_eq!(
                        got, want,
                        "seed {seed} conv {conv_ms} hit {hit} routed {routed}"
                    );
                    cases += usize::from(want.0 > 0);
                }
            }
        }
        assert!(cases > 20, "the replays must actually lose packets");
    }
}
