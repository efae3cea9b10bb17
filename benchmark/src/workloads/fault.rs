//! `fault-reconverge` — the control plane used incrementally: withdraw and
//! update instead of bulk load.
//!
//! One scale-1 world, one scripted sequence of faults and repairs (border
//! and reflector loss, long-haul circuit cuts, eBGP session cuts), each
//! followed by what a service must do before it trusts routing again:
//! reconverge → rebuild the `PathTable` → both scoped verifier stages
//! (findings on a degraded overlay are data; after a repair there must be
//! none).
//! Reconvergence itself is a few percent of an event; the wholesale table
//! rebuild and the full re-verification are the bill. This is the probe
//! for the ROADMAP's delta-`PathTable` item: it must win here and must not
//! move `control-build`.

use std::fmt::Write as _;
use std::time::Instant;

use rand::seq::SliceRandom;
use vns_bench::World;
use vns_bgp::PeerKind;
use vns_core::pops::INTER_CLUSTER_LINKS;
use vns_core::{FaultEvent, FaultInjector};
use vns_netsim::RngTree;
use vns_service::{EndpointTable, PathTable};
use vns_verify::VerifyScope;

use crate::digest::Digest;
use crate::fixture::{verify_scoped, world_config, Fixture};
use crate::span::SpanId;
use crate::workloads::{ms_since, Ctx, Rep, Workload};

/// The order fault classes take turns in: (B)order router, eBGP (S)ession,
/// route (R)eflector, long-haul (C)ircuit — the mix of the full element
/// list (22 borders, 2 reflectors, 5 circuits, ~50 sessions), so a script
/// of any length keeps roughly that proportion.
const CLASS_TURNS: [usize; 8] = [0, 1, 0, 1, 2, 3, 1, 0];

/// Builds the fault script: `events / 2` (fault, repair) pairs over
/// elements drawn per class by `seed`. Every fault is repaired by the next
/// event, so the script leaves the world as it found it.
pub fn script(world: &World, seed: u64, events: usize) -> Vec<FaultEvent> {
    let vns = &world.vns;
    let down_up = |router| {
        [
            FaultEvent::RouterDown { router },
            FaultEvent::RouterUp { router },
        ]
    };
    let borders = vns.pops().iter().flat_map(|p| p.borders).map(down_up);
    let reflectors = vns.reflectors().into_iter().map(down_up);
    // Only circuits whose loss leaves the overlay connected: SIN–SYD is
    // Sydney's one link, and cutting it is a partition (thousands of
    // verifier findings), not a reroute.
    let igp = world.internet.as_info(vns.as_id()).igp.as_ref();
    let circuits = INTER_CLUSTER_LINKS
        .iter()
        .map(|&(a, b)| (vns.pop(a).borders[0], vns.pop(b).borders[0]))
        .filter(|&(a, b)| {
            igp.cloned().is_some_and(|mut g| {
                g.remove_link(a, b).is_some() && g.shortest_path(a, b).is_some()
            })
        })
        .map(|(a, b)| {
            [
                FaultEvent::CircuitCut { a, b },
                FaultEvent::CircuitRestore { a, b },
            ]
        });
    let sessions = vns.pops().iter().flat_map(|p| p.borders).flat_map(|a| {
        world
            .internet
            .net
            .speaker(a)
            .into_iter()
            .flat_map(move |s| {
                s.peer_ids()
                    .filter(move |b| {
                        s.peer_config(*b)
                            .is_some_and(|c| matches!(c.kind, PeerKind::Ebgp { .. }))
                    })
                    .map(move |b| {
                        [
                            FaultEvent::SessionCut { a, b },
                            FaultEvent::SessionRestore { a, b },
                        ]
                    })
            })
    });
    let tree = RngTree::new(seed).subtree("fault-script");
    let mut classes: [Vec<[FaultEvent; 2]>; 4] = [
        borders.collect(),
        sessions.collect(),
        reflectors.collect(),
        circuits.collect(),
    ];
    for (i, class) in classes.iter_mut().enumerate() {
        class.shuffle(&mut tree.stream_indexed("class", i as u64));
    }
    let mut out = Vec::with_capacity(events);
    let mut turn = 0;
    while out.len() + 2 <= events && classes.iter().any(|c| !c.is_empty()) {
        if let Some(pair) = classes[CLASS_TURNS[turn % CLASS_TURNS.len()]].pop() {
            out.extend(pair);
        }
        turn += 1;
    }
    out
}

/// The workload state: a pre-flighted world, its endpoint table and the
/// script.
#[derive(Debug)]
pub struct FaultReconverge {
    fixture: Fixture,
    endpoints: EndpointTable,
    script: Vec<FaultEvent>,
}

impl Workload for FaultReconverge {
    const NAME: &'static str = "fault-reconverge";
    const WHY: &'static str = "incremental control plane: scripted faults each followed by reconverge, PathTable rebuild and both scoped verifier stages; rebuild + re-verify are the bill";
    const OP: &'static str =
        "one event: applied, quiescent, table rebuilt, both scoped stages clean";
    const FLOW_SPAN: Option<&'static str> = None;

    fn setup(ctx: &Ctx<'_>, parent: SpanId) -> Result<Self, String> {
        let tr = ctx.tr;
        let fixture = Fixture::build(world_config(ctx.seed, ctx.sizes.scale), tr, parent)?;
        let world = &fixture.world;
        let endpoints = tr.within("service.endpoint_table_build", parent, |_| {
            EndpointTable::build(&world.internet, &world.vns)
        });
        let script = script(world, ctx.seed, ctx.sizes.fault_events);
        Ok(FaultReconverge {
            fixture,
            endpoints,
            script,
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, parent: SpanId) -> Rep {
        let tr = ctx.tr;
        let world = &mut self.fixture.world;
        let mut rep = Rep::default();
        let mut digest = Digest::new();
        let mut inj = FaultInjector::new();
        let (mut msgs, mut rounds, mut activations, mut findings) = (0, 0, 0, 0);
        for &event in &self.script {
            let t0 = Instant::now();
            let span = tr.span("fault.event", parent);
            let applied = tr.within("core.fault_apply", span.id(), |_| {
                inj.apply(&mut world.internet, &world.vns, event)
            });
            rep.check(applied.is_ok());
            let budget = world.vns.message_budget();
            let stats = tr.within("bgp.reconverge", span.id(), |_| {
                world.internet.net.run(budget)
            });
            rep.check(stats.is_ok() && world.internet.net.is_quiescent());
            let stats = stats.unwrap_or_default();
            let paths = tr.within("service.path_table_build", span.id(), |_| {
                PathTable::build(&world.internet, &world.vns, &self.endpoints)
            });
            let scope = VerifyScope::with_dead_routers(inj.dead_routers());
            let errors = verify_scoped(world, &scope, tr, span.id());
            // A degraded overlay may legitimately exceed a stretch or
            // nearest-PoP bound — that is the verifier's output, and it is
            // digested. A repaired one must be clean.
            if inj.fully_restored() {
                rep.check(errors == 0);
            }
            drop(span);
            rep.ops_ms.push(ms_since(t0));

            msgs += stats.messages;
            rounds += stats.rounds;
            activations += stats.activations;
            findings += errors;
            let _ = writeln!(
                digest,
                "{event} {stats:?} routable {} findings {errors}",
                paths.routable_endpoints()
            );
            for caller in 0..self.endpoints.len() {
                let _ = write!(digest, "{:?}", paths.landing_pop(caller).map(|p| p.0));
            }
        }
        rep.check(inj.fully_restored());
        rep.check(self.fixture.findings == 0);
        rep.digest = digest.value();
        let events = self.script.len() as u64;
        rep.counts = vec![
            ("fault.events", events),
            ("bgp.conv_msgs", msgs),
            ("bgp.conv_rounds", rounds),
            ("bgp.conv_activations", activations),
            ("bgp.reconverge_msgs_per_event", msgs / events.max(1)),
            ("verify.findings", findings),
        ];
        rep
    }

    fn world(&self) -> &World {
        &self.fixture.world
    }
}
