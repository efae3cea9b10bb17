//! `probe-short-flows` — many short flows: path resolution and channel
//! construction dominate, and packets leave the batch fast path.
//!
//! The same packet layer as `media-long-flows` used the other way. Per
//! rep: an RTT sweep (every last-mile prefix × every PoP via local exit —
//! fig3's matrix — plus rounds of via-VNS / via-upstream probes from AMS —
//! fig6's method), ~5k flows of 10 packets each; then the Sec 5.2
//! last-mile loss trains, ~1.2k flows of a few thousand packets on the
//! scalar `send_many` path. A fresh `ChannelFactory` per rep, so the
//! blackout memo is refilled as in a real campaign. A faster path resolver
//! or channel constructor must show here and must not on
//! `media-long-flows`.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use vns_bench::campaign::{prefix_metas, select_hosts, HostMeta, PrefixMeta, TrainRecord};
use vns_bench::experiments::fig11::VANTAGES;
use vns_bench::World;
use vns_bgp::PathError;
use vns_core::PopId;
use vns_netsim::{Dur, SimTime};
use vns_probe::{loss_train, rtt_probe_std};
use vns_topo::ResolvedPath;

use crate::digest::Digest;
use crate::fixture::{fresh_factory, world_config, Fixture};
use crate::span::{SpanId, Tracer};
use crate::workloads::{channel_pair, ms_since, par, Ctx, Rep, Workload};

/// How a probe leaves the PoP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// Best local external route (Secs 4.1 / 5.2).
    LocalExit,
    /// Through VNS routing.
    Vns,
    /// Through the PoP's primary upstream.
    Upstream,
}

impl Via {
    /// The flow-label tag `vns_bench::campaign` uses for this exit.
    fn tag(self) -> &'static str {
        match self {
            Via::LocalExit => "rttl",
            Via::Vns => "rttv",
            Via::Upstream => "rttu",
        }
    }

    fn resolve(self, world: &World, pop: PopId, ip: u32) -> Result<ResolvedPath, PathError> {
        match self {
            Via::LocalExit => world.vns.path_via_local_exit(&world.internet, pop, ip),
            Via::Vns => world.vns.path_via_vns(&world.internet, pop, ip),
            Via::Upstream => world.vns.path_via_upstream(&world.internet, pop, ip),
        }
    }
}

/// A flow's result and the host milliseconds the flow took.
pub type Timed<T> = (T, f64);

/// `vns_bench::campaign::rtt_via_{local_exit,vns,upstream}`, decomposed:
/// one `probe.rtt_flow` span per flow with path resolution, both channel
/// builds and the 5-ping probe as children.
pub fn rtt_flow(
    world: &World,
    via: Via,
    pop: PopId,
    ip: u32,
    t: SimTime,
    tr: &Tracer,
    parent: SpanId,
) -> Timed<Option<f64>> {
    let t0 = Instant::now();
    let flow = tr.span("probe.rtt_flow", parent);
    let path = tr.within("core.path_resolve", flow.id(), |_| {
        via.resolve(world, pop, ip)
    });
    let Ok(path) = path else {
        return (None, ms_since(t0));
    };
    let (mut fwd, mut rev) = channel_pair(
        world,
        &path,
        format_args!("{}:{}:{ip}", via.tag(), pop.0),
        tr,
        flow.id(),
    );
    let probe = tr.within("probe.rtt_probe", flow.id(), |_| {
        rtt_probe_std(&mut fwd, &mut rev, t)
    });
    (probe.min_rtt_ms, ms_since(t0))
}

/// `vns_bench::campaign::rtt_matrix` without its pre-flight: `[prefix][pop]`
/// minimum RTTs via local exit, one work unit per prefix row.
pub fn rtt_matrix(
    world: &World,
    metas: &[PrefixMeta],
    pops: &[PopId],
    t: SimTime,
    tr: &Tracer,
    parent: SpanId,
) -> Vec<Vec<Timed<Option<f64>>>> {
    par().map(metas, |_, m| {
        pops.iter()
            .map(|&p| rtt_flow(world, Via::LocalExit, p, m.ip, t, tr, parent))
            .collect()
    })
}

/// `vns_bench::campaign::lastmile_campaign` without its pre-flight: every
/// host probed from every vantage with a 100-packet train per round, one
/// `probe.train_flow` span per (vantage, host) unit.
pub fn lastmile_trains(
    world: &World,
    pops: &[PopId],
    hosts: &[HostMeta],
    interval: Dur,
    span: Dur,
    tr: &Tracer,
    parent: SpanId,
) -> Vec<Timed<Vec<TrainRecord>>> {
    let rounds = vns_probe::rounds(SimTime::EPOCH, interval, span);
    let mut units: Vec<(PopId, usize)> = Vec::with_capacity(pops.len() * hosts.len());
    for &pop in pops {
        for hi in 0..hosts.len() {
            units.push((pop, hi));
        }
    }
    par().map(&units, |_, &(pop, hi)| {
        let t0 = Instant::now();
        let host = &hosts[hi];
        let flow = tr.span("probe.train_flow", parent);
        let path = tr.within("core.path_resolve", flow.id(), |_| {
            world.vns.path_via_local_exit(&world.internet, pop, host.ip)
        });
        let Ok(path) = path else {
            return (Vec::new(), ms_since(t0));
        };
        let (mut fwd, mut rev) = channel_pair(
            world,
            &path,
            format_args!("lm:{}:{}", pop.0, host.ip),
            tr,
            flow.id(),
        );
        let packets_before = vns_netsim::packets_sent();
        let series = tr.span("probe.train_series", flow.id());
        let records: Vec<TrainRecord> = rounds
            .iter()
            .map(|&at| TrainRecord {
                pop,
                host: hi,
                train: loss_train(&mut fwd, &mut rev, at, 100),
            })
            .collect();
        let series = series.end();
        // Channels flush their packet tallies to the ledger on drop.
        drop((fwd, rev));
        tr.set_work(series, vns_netsim::packets_sent() - packets_before);
        (records, ms_since(t0))
    })
}

/// The AMS vantage of the via-VNS / via-upstream rounds.
const VIA_VANTAGE: PopId = PopId(9);

/// The workload state: a pre-flighted scale-1 world and the campaign's
/// target lists.
#[derive(Debug)]
pub struct ProbeShortFlows {
    fixture: Fixture,
    metas: Vec<PrefixMeta>,
    pops: Vec<PopId>,
    /// One address per origin AS (fig6's target set).
    via_targets: Vec<u32>,
    hosts: Vec<HostMeta>,
    vantages: Vec<PopId>,
}

impl Workload for ProbeShortFlows {
    const NAME: &'static str = "probe-short-flows";
    const WHY: &'static str = "many short flows (RTT sweep + last-mile trains): path resolution and channel construction dominate and packets leave the batch fast path";
    const OP: &'static str = "one flow: resolve, build channel pair, 5-ping probe or train series";
    const FLOW_SPAN: Option<&'static str> = Some("probe.rtt_flow");

    fn setup(ctx: &Ctx<'_>, parent: SpanId) -> Result<Self, String> {
        let fixture = Fixture::build(world_config(ctx.seed, ctx.sizes.scale), ctx.tr, parent)?;
        let world = &fixture.world;
        let metas = prefix_metas(world);
        let mut seen = BTreeSet::new();
        let via_targets = metas
            .iter()
            .filter(|m| seen.insert(m.origin_asn))
            .map(|m| m.ip)
            .collect();
        let hosts = select_hosts(world, ctx.sizes.probe_hosts_per_cell);
        Ok(ProbeShortFlows {
            pops: world.vns.pops().iter().map(|p| p.id()).collect(),
            vantages: VANTAGES.iter().map(|(_, id)| PopId(*id)).collect(),
            metas,
            via_targets,
            hosts,
            fixture,
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, parent: SpanId) -> Rep {
        let tr = ctx.tr;
        self.fixture.world.factory = fresh_factory(ctx.seed);
        let world = &self.fixture.world;
        let mut rep = Rep::default();
        let mut digest = Digest::new();

        let sweep = tr.span("probe.rtt_sweep", parent);
        let matrix = rtt_matrix(
            world,
            &self.metas,
            &self.pops,
            SimTime::EPOCH + Dur::from_hours(10),
            tr,
            sweep.id(),
        );
        let mut via_rtts: Vec<Timed<Option<f64>>> = Vec::new();
        for r in 0..ctx.sizes.probe_via_rounds {
            let t = SimTime::EPOCH + Dur::from_hours((3 + r * 7) as u64 % 24);
            let pairs = par().map(&self.via_targets, |_, &ip| {
                [
                    rtt_flow(world, Via::Vns, VIA_VANTAGE, ip, t, tr, sweep.id()),
                    rtt_flow(world, Via::Upstream, VIA_VANTAGE, ip, t, tr, sweep.id()),
                ]
            });
            via_rtts.extend(pairs.into_iter().flatten());
        }
        drop(sweep);
        let rtts = matrix.iter().flatten().chain(&via_rtts);
        let mut rtt_flows = 0u64;
        for (rtt, ms) in rtts {
            rtt_flows += 1;
            rep.ops_ms.push(*ms);
            let _ = writeln!(digest, "{rtt:?}");
        }

        let trains = tr.span("probe.trains", parent);
        let records = lastmile_trains(
            world,
            &self.vantages,
            &self.hosts,
            Dur::from_mins(30),
            Dur::from_hours(ctx.sizes.probe_train_hours),
            tr,
            trains.id(),
        );
        drop(trains);
        let train_flows = records.len() as u64;
        for (series, ms) in &records {
            rep.ops_ms.push(*ms);
            for r in series {
                let _ = writeln!(digest, "{} {} {:?}", r.pop.0, r.host, r.train);
            }
        }

        rep.digest = digest.value();
        rep.counts.push(("flows", rtt_flows + train_flows));
        rep.counts.push(("probe.rtt_flows", rtt_flows));
        rep.counts.push(("probe.train_flows", train_flows));
        rep.counts.push((
            "topo.blackout_cache_entries",
            world.factory.cached_blackout_schedules() as u64,
        ));
        rep.check(self.fixture.findings == 0);
        rep
    }

    fn world(&self) -> &World {
        &self.fixture.world
    }
}
