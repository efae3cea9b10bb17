//! `media-long-flows` — few long flows: the column loops do the work.
//!
//! Fig 9's campaign: three clients × every echo server × {VNS, transit},
//! two-minute HD1080 echo sessions. Each flow resolves one path, builds
//! one channel pair and then pushes ~100k packets through
//! `vns-media::run_echo_session`, so > 90 % of a rep is the `vns-netsim`
//! batch engine and per-flow set-up is a rounding error. A faster packet
//! engine must show here; a faster path resolver or channel constructor
//! must not.

use std::fmt::Write as _;
use std::time::Instant;

use vns_bench::campaign::MediaArm;
use vns_bench::experiments::fig9::CLIENTS;
use vns_bench::World;
use vns_core::PopId;
use vns_geo::Region;
use vns_media::{run_echo_session, SessionConfig, SessionReport, VideoSpec};
use vns_netsim::{Dur, RngTree, SimTime};

use crate::digest::Digest;
use crate::fixture::{world_config, Fixture};
use crate::span::{SpanId, Tracer};
use crate::workloads::{channel_pair, ms_since, par, Ctx, Rep, Workload};

/// The result of one flow: the session report (`None` when the arm has no
/// route) and the host milliseconds the flow took.
pub type Flow = (Option<(MediaArm, SessionReport)>, f64);

/// `vns_bench::campaign::media_campaign` without its pre-flight (that is
/// set-up here), decomposed so path resolution, channel construction and
/// the session are separate spans under one `media.flow` span per unit.
/// Same units, same labels, same order: the reports are identical.
pub fn run_flows(
    world: &World,
    clients: &[PopId],
    spec: VideoSpec,
    sessions_per_arm: usize,
    start: SimTime,
    tr: &Tracer,
    parent: SpanId,
) -> Vec<Flow> {
    let cfg = SessionConfig::default();
    let echo: Vec<(PopId, Region, u32)> = world
        .vns
        .echo_servers()
        .iter()
        .map(|e| {
            let region = world.vns.pop(e.pop).spec.region.measurement_region();
            (e.pop, region, e.address())
        })
        .collect();
    let mut units: Vec<(MediaArm, u32, u32)> = Vec::new();
    for &client in clients {
        for &(echo_pop, region, addr) in &echo {
            for via_vns in [true, false] {
                let arm = MediaArm {
                    client,
                    echo_pop,
                    region,
                    via_vns,
                };
                for s in 0..sessions_per_arm as u32 {
                    units.push((arm, addr, s));
                }
            }
        }
    }
    let tree = RngTree::new(world.config.seed)
        .subtree("media-campaign")
        .subtree(spec.name);
    par().map(&units, |_, &(arm, addr, s)| {
        let t0 = Instant::now();
        let flow = tr.span("media.flow", parent);
        let path = tr.within("core.path_resolve", flow.id(), |_| {
            if arm.via_vns {
                world.vns.path_via_vns(&world.internet, arm.client, addr)
            } else {
                world
                    .vns
                    .path_via_upstream(&world.internet, arm.client, addr)
            }
        });
        let Ok(path) = path else {
            return (None, ms_since(t0));
        };
        let (mut fwd, mut rev) = channel_pair(
            world,
            &path,
            format_args!(
                "media:{}:{}:{}:{}:s{s}",
                spec.name, arm.client.0, arm.echo_pop.0, arm.via_vns
            ),
            tr,
            flow.id(),
        );
        let session = tr.span("media.session", flow.id());
        let mut rng = tree.stream_args(format_args!(
            "arm:{}:{}:{}:s{s}",
            arm.client.0, arm.echo_pop.0, arm.via_vns
        ));
        let t = start + Dur::from_mins(30).mul(u64::from(s));
        let report = run_echo_session(
            spec.packets(t, cfg.duration, &mut rng),
            &cfg,
            &mut fwd,
            &mut rev,
        );
        // Packet-hops: every sent packet enters the forward path, every
        // delivered one enters the reverse path.
        let hops = path.hop_count() as u64;
        tr.set_work(
            session.end(),
            (u64::from(report.sent) + u64::from(report.delivered_out)) * hops,
        );
        (Some((arm, report)), ms_since(t0))
    })
}

/// The workload state: a pre-flighted scale-1 world.
#[derive(Debug)]
pub struct MediaLongFlows {
    fixture: Fixture,
    clients: Vec<PopId>,
}

impl Workload for MediaLongFlows {
    const NAME: &'static str = "media-long-flows";
    const WHY: &'static str = "few long flows (fig9 HD1080 echo sessions): the netsim column loops do >90% of the work, per-flow set-up <5%";
    const OP: &'static str = "one flow: resolve, build channel pair, 2-min session";
    const FLOW_SPAN: Option<&'static str> = Some("media.flow");

    fn setup(ctx: &Ctx<'_>, parent: SpanId) -> Result<Self, String> {
        let fixture = Fixture::build(world_config(ctx.seed, ctx.sizes.scale), ctx.tr, parent)?;
        Ok(MediaLongFlows {
            fixture,
            clients: CLIENTS.iter().map(|(_, id)| PopId(*id)).collect(),
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, parent: SpanId) -> Rep {
        let flows = run_flows(
            &self.fixture.world,
            &self.clients,
            VideoSpec::HD1080,
            ctx.sizes.media_sessions_per_arm,
            SimTime::EPOCH + Dur::from_hours(6),
            ctx.tr,
            parent,
        );
        let mut rep = Rep::default();
        let mut digest = Digest::new();
        let mut measured = 0u64;
        for (result, ms) in &flows {
            rep.ops_ms.push(*ms);
            if let Some((arm, report)) = result {
                measured += 1;
                let _ = writeln!(
                    digest,
                    "{}>{} {} {report:?}",
                    arm.client.0,
                    arm.echo_pop.0,
                    arm.label()
                );
            }
        }
        rep.digest = digest.value();
        rep.counts.push(("flows", measured));
        rep.check(self.fixture.findings == 0);
        // Every arm of the paper's campaign is routable on a healthy world.
        rep.check(measured == flows.len() as u64);
        rep
    }

    fn world(&self) -> &World {
        &self.fixture.world
    }
}
