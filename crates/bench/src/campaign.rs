//! Shared measurement campaigns (probing matrices, media sessions, loss
//! trains) reused across experiments.
//!
//! Every campaign here decomposes into independent work units — a probed
//! prefix, a (client, echo, via) media arm, a (vantage, host) train series
//! — whose randomness is derived from `(master seed, unit label)`, never
//! from shared walking state. The campaigns fan units out over
//! [`Par`]/[`vns_netsim::par_map`] and merge in canonical unit order, so
//! their artefacts are byte-identical at any thread count.

use vns_bgp::{Asn, Prefix};
use vns_core::PopId;
use vns_geo::{GeoPoint, Region};
use vns_media::{run_echo_session, SessionConfig, SessionReport, VideoSpec};
use vns_netsim::{Dur, EchoScratch, Par, PathChannel, SimTime, BATCH_LEN};
use vns_probe::{loss_train, rtt_probe_std, LossTrain};
use vns_topo::{AsType, ResolvedPath};
use vns_verify::Certifier;

use crate::world::World;

/// Fail-fast pre-flight: both `vns-verify` stages ([`Certifier::check`])
/// before a campaign spends simulated hours of packets on the world. A
/// deployment that converged into a broken state (stale overrides, leaked
/// `NO_EXPORT`, unresolvable next hops, a loop, …) produces figures that
/// look plausible and are quietly wrong — better to die here with the report.
///
/// # Panics
/// With the rendered report of the first failing stage on any error-severity
/// finding. Warnings (e.g. hidden routes on a deployment that deliberately
/// disabled best-external for the ablation) pass.
pub fn assert_certified(world: &World) {
    let (control, dataplane) = Certifier::default().check(&world.internet, &world.vns);
    assert!(
        control.passes(),
        "control-plane pre-flight failed:\n{}",
        control.render()
    );
    assert!(
        dataplane.passes(),
        "data-plane pre-flight failed:\n{}",
        dataplane.render()
    );
}

/// Everything an experiment needs to know about a probed prefix.
#[derive(Debug, Clone)]
pub struct PrefixMeta {
    /// The prefix.
    pub prefix: Prefix,
    /// The probed address ("the first IP address in each destination
    /// prefix").
    pub ip: u32,
    /// Origin AS number.
    pub origin_asn: Asn,
    /// Origin AS type.
    pub ty: AsType,
    /// Region of the prefix's true location.
    pub region: Region,
    /// Ground-truth location.
    pub truth: GeoPoint,
    /// GeoIP-reported location (what the route reflector sees).
    pub reported: Option<GeoPoint>,
    /// GeoIP displacement, km.
    pub geoip_err_km: f64,
}

/// External, last-mile prefixes with their metadata (VNS service prefixes
/// excluded).
pub fn prefix_metas(world: &World) -> Vec<PrefixMeta> {
    world
        .internet
        .prefixes()
        .filter(|p| p.last_mile)
        .map(|p| {
            let info = world.internet.as_info(p.origin);
            PrefixMeta {
                prefix: p.prefix,
                ip: p.prefix.first_host(),
                origin_asn: info.asn,
                ty: info.ty,
                region: vns_geo::city(p.city).region,
                truth: p.location,
                reported: world.internet.geoip.lookup(p.prefix).ok(),
                geoip_err_km: world.internet.geoip.error_km(p.prefix).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Builds a forward/return channel pair for a resolved path.
pub fn channel_pair(world: &World, path: &ResolvedPath, label: &str) -> (PathChannel, PathChannel) {
    channel_pair_args(world, path, format_args!("{label}"))
}

/// [`channel_pair`] with a `format_args!` label: the per-probe hot paths
/// build one channel pair per (pop, ip) probe, and hashing the label as it
/// renders avoids three `String` allocations per probe. Hash-compatible
/// with the `&str` form.
pub fn channel_pair_args(
    world: &World,
    path: &ResolvedPath,
    label: std::fmt::Arguments<'_>,
) -> (PathChannel, PathChannel) {
    let fwd = world
        .factory
        .channel_args(path, format_args!("{label}:fwd"));
    let rev = world
        .factory
        .channel_args(&path.reversed(), format_args!("{label}:rev"));
    (fwd, rev)
}

/// Echoes a run of packets (send clocks in ns, send order) over a channel
/// pair, chunk by chunk — the replay loop of the failover and adversarial
/// campaigns. Returns how many failed the round trip and the send time of
/// the first that completed it.
pub fn echo_replay(
    scratch: &mut EchoScratch,
    sent: &[u64],
    fwd: &mut PathChannel,
    rev: &mut PathChannel,
) -> (u32, Option<SimTime>) {
    let mut lost = 0u32;
    let mut first_ok = None;
    for chunk in sent.chunks(BATCH_LEN) {
        let echo = scratch.round_trip(chunk, fwd, rev);
        lost += (chunk.len() - echo.back.len()) as u32;
        if first_ok.is_none() {
            first_ok = echo
                .returned()
                .next()
                .map(|(i, _)| SimTime::from_nanos(chunk[i]));
        }
    }
    (lost, first_ok)
}

/// The vantage PoPs the failover and adversarial campaigns monitor (the
/// paper's three plotted vantage PoPs).
const MONITOR_CLIENTS: [(&str, u8); 3] = [("AMS", 9), ("SJS", 1), ("SYD", 11)];

/// One monitored flow from a vantage PoP.
#[derive(Debug, Clone)]
pub(crate) struct MonitoredFlow {
    /// `"AMS->SIN"` (echo server) or `"AMS=>16.1.0.0/16"` (external
    /// prefix) label.
    pub(crate) label: String,
    /// Client PoP.
    pub(crate) client: PopId,
    /// Destination address.
    pub(crate) addr: u32,
}

/// Monitored flows: every vantage PoP towards every echo server outside
/// it, then towards each of `externals` (`(prefix, host address)`), in
/// vantage order.
pub(crate) fn monitored_flows(world: &World, externals: &[(Prefix, u32)]) -> Vec<MonitoredFlow> {
    let mut flows = Vec::new();
    for (code, id) in MONITOR_CLIENTS {
        for echo in world.vns.echo_servers() {
            if echo.pop == PopId(id) {
                continue; // co-located: no long-haul path to disturb
            }
            flows.push(MonitoredFlow {
                label: format!("{code}->{}", world.vns.pop(echo.pop).spec.code),
                client: PopId(id),
                addr: echo.address(),
            });
        }
        for (prefix, ip) in externals {
            flows.push(MonitoredFlow {
                label: format!("{code}=>{prefix}"),
                client: PopId(id),
                addr: *ip,
            });
        }
    }
    flows
}

/// Each flow's current path through VNS, `None` where it is unroutable:
/// read once before a change and once after it.
pub(crate) fn resolve_flows(world: &World, flows: &[MonitoredFlow]) -> Vec<Option<ResolvedPath>> {
    flows
        .iter()
        .map(|f| {
            world
                .vns
                .path_via_vns(&world.internet, f.client, f.addr)
                .ok()
        })
        .collect()
}

/// Minimum RTT (5-ping probe) from a PoP to `ip`, exiting immediately via
/// the PoP's primary upstream. `None` when unroutable or all probes lost.
pub fn rtt_via_upstream(world: &World, pop: PopId, ip: u32, t: SimTime) -> Option<f64> {
    let path = world.vns.path_via_upstream(&world.internet, pop, ip).ok()?;
    let (mut fwd, mut rev) = channel_pair_args(world, &path, format_args!("rttu:{}:{ip}", pop.0));
    rtt_probe_std(&mut fwd, &mut rev, t).min_rtt_ms
}

/// Minimum RTT (5-ping probe) from a PoP to `ip`, exiting immediately via
/// the PoP's best local external route (the Sec 4.1/5.2 "forced out of VNS
/// immediately at each PoP" semantics).
pub fn rtt_via_local_exit(world: &World, pop: PopId, ip: u32, t: SimTime) -> Option<f64> {
    let path = world
        .vns
        .path_via_local_exit(&world.internet, pop, ip)
        .ok()?;
    let (mut fwd, mut rev) = channel_pair_args(world, &path, format_args!("rttl:{}:{ip}", pop.0));
    rtt_probe_std(&mut fwd, &mut rev, t).min_rtt_ms
}

/// Minimum RTT (5-ping probe) from a PoP to `ip` through VNS routing.
pub fn rtt_via_vns(world: &World, pop: PopId, ip: u32, t: SimTime) -> Option<f64> {
    let path = world.vns.path_via_vns(&world.internet, pop, ip).ok()?;
    let (mut fwd, mut rev) = channel_pair_args(world, &path, format_args!("rttv:{}:{ip}", pop.0));
    rtt_probe_std(&mut fwd, &mut rev, t).min_rtt_ms
}

/// RTT matrix `[prefix][pop]` via each PoP's upstream (the Sec 4.1
/// methodology: probes forced out of VNS immediately at each PoP).
///
/// One work unit per probed prefix (a matrix row); every probe's channel
/// state is derived from its `rttl:{pop}:{ip}` label, so rows computed on
/// any thread at any time are identical to the sequential walk.
pub fn rtt_matrix(
    world: &World,
    metas: &[PrefixMeta],
    pops: &[PopId],
    t: SimTime,
    par: Par,
) -> Vec<Vec<Option<f64>>> {
    assert_certified(world);
    par.map(metas, |_, m| {
        pops.iter()
            .map(|&p| rtt_via_local_exit(world, p, m.ip, t))
            .collect()
    })
}

/// One media measurement arm: a client PoP streaming to an echo server,
/// either through VNS or through the client PoP's upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaArm {
    /// Client location (co-located with a PoP, as the paper's were).
    pub client: PopId,
    /// Echo server PoP.
    pub echo_pop: PopId,
    /// The echo server's measurement region (EU/NA/AP).
    pub region: Region,
    /// Through VNS (`true`, the "I" curves) or through upstream transit
    /// (`false`, the "T" curves).
    pub via_vns: bool,
}

impl MediaArm {
    /// Legend label matching the paper (`"I-AP"`, `"T-EU"`, …).
    pub fn label(&self) -> String {
        format!(
            "{}-{}",
            if self.via_vns { "I" } else { "T" },
            self.region.code()
        )
    }
}

/// Runs a media campaign: every (client, echo, via) arm runs
/// `sessions_per_arm` two-minute sessions, one every 30 minutes (the
/// paper's cadence), starting at `start`.
///
/// One work unit per (arm, session): every session's recording schedule
/// and channel state are pure functions of `(master seed, arm, session
/// index)` — stable sub-unit labels in the [`vns_netsim::RngTree`] scheme
/// — never of which units ran before it. Splitting below the arm matters
/// for load balance: fig9's 36 arms become 1440 units, so 8 threads stay
/// busy instead of tail-waiting on the last coarse arm. Sessions of one
/// arm are 30 simulated minutes apart — far beyond every correlation
/// scale in the loss models — so re-deriving channel state per session
/// leaves the measured distributions unchanged while making the unit
/// order irrelevant: artefacts are byte-identical at any `--threads N`.
pub fn media_campaign(
    world: &World,
    clients: &[PopId],
    spec: VideoSpec,
    sessions_per_arm: usize,
    start: SimTime,
    par: Par,
) -> Vec<(MediaArm, SessionReport)> {
    assert_certified(world);
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
    let tree = vns_netsim::RngTree::new(world.config.seed)
        .subtree("media-campaign")
        .subtree(spec.name);
    let per_unit: Vec<Option<(MediaArm, SessionReport)>> = par.map(&units, |_, &(arm, addr, s)| {
        let path = if arm.via_vns {
            world.vns.path_via_vns(&world.internet, arm.client, addr)
        } else {
            world
                .vns
                .path_via_upstream(&world.internet, arm.client, addr)
        };
        let Ok(path) = path else { return None };
        let (mut fwd, mut rev) = channel_pair_args(
            world,
            &path,
            format_args!(
                "media:{}:{}:{}:{}:s{s}",
                spec.name, arm.client.0, arm.echo_pop.0, arm.via_vns
            ),
        );
        let mut rng = tree.stream_args(format_args!(
            "arm:{}:{}:{}:s{s}",
            arm.client.0, arm.echo_pop.0, arm.via_vns
        ));
        let t0 = start + Dur::from_mins(30).mul(s as u64);
        // Stream the packets straight off the generator — no ~51k-element
        // schedule Vec per session. Same RNG walk as spec.schedule().
        let packets = spec.packets(t0, cfg.duration, &mut rng);
        let report = run_echo_session(packets, &cfg, &mut fwd, &mut rev);
        Some((arm, report))
    });
    per_unit.into_iter().flatten().collect()
}

/// A probed last-mile host.
#[derive(Debug, Clone, Copy)]
pub struct HostMeta {
    /// Probed address.
    pub ip: u32,
    /// AS type of its network.
    pub ty: AsType,
    /// Its region (EU / NA / AP).
    pub region: Region,
}

/// Selects up to `per_cell` hosts for every (AS type, region) cell over
/// EU/NA/AP, maximising AS diversity (one host per AS first).
pub fn select_hosts(world: &World, per_cell: usize) -> Vec<HostMeta> {
    let metas = prefix_metas(world);
    let mut out = Vec::new();
    for region in [Region::Europe, Region::NorthAmerica, Region::AsiaPacific] {
        for ty in AsType::ALL {
            let mut seen_as = std::collections::BTreeSet::new();
            let mut cell: Vec<HostMeta> = Vec::new();
            // First pass: one prefix per AS.
            for m in metas.iter().filter(|m| m.ty == ty && m.region == region) {
                if cell.len() >= per_cell {
                    break;
                }
                if seen_as.insert(m.origin_asn) {
                    cell.push(HostMeta {
                        ip: m.ip,
                        ty,
                        region,
                    });
                }
            }
            // Second pass: fill up with further prefixes.
            for m in metas.iter().filter(|m| m.ty == ty && m.region == region) {
                if cell.len() >= per_cell {
                    break;
                }
                if !cell.iter().any(|h| h.ip == m.ip) {
                    cell.push(HostMeta {
                        ip: m.ip,
                        ty,
                        region,
                    });
                }
            }
            out.extend(cell);
        }
    }
    out
}

/// One loss-train result within a campaign.
#[derive(Debug, Clone, Copy)]
pub struct TrainRecord {
    /// Vantage PoP.
    pub pop: PopId,
    /// Index into the host list.
    pub host: usize,
    /// The train.
    pub train: LossTrain,
}

/// Runs the Sec 5.2 campaign: every host probed from every PoP with a
/// 100-packet back-to-back train every `interval` for `span`.
///
/// One work unit per (vantage PoP, host) pair; the train rounds within a
/// pair stay sequential because they share the pair's channel (its
/// loss-process state is the unit's own walk, seeded from the
/// `lm:{pop}:{ip}` label).
pub fn lastmile_campaign(
    world: &World,
    pops: &[PopId],
    hosts: &[HostMeta],
    interval: Dur,
    span: Dur,
    par: Par,
) -> Vec<TrainRecord> {
    assert_certified(world);
    let rounds = vns_probe::rounds(SimTime::EPOCH, interval, span);
    let mut units: Vec<(PopId, usize)> = Vec::with_capacity(pops.len() * hosts.len());
    for &pop in pops {
        for hi in 0..hosts.len() {
            units.push((pop, hi));
        }
    }
    let per_unit: Vec<Vec<TrainRecord>> = par.map(&units, |_, &(pop, hi)| {
        let host = &hosts[hi];
        let Ok(path) = world.vns.path_via_local_exit(&world.internet, pop, host.ip) else {
            return Vec::new();
        };
        let (mut fwd, mut rev) =
            channel_pair_args(world, &path, format_args!("lm:{}:{}", pop.0, host.ip));
        rounds
            .iter()
            .map(|&at| TrainRecord {
                pop,
                host: hi,
                train: loss_train(&mut fwd, &mut rev, at, 100),
            })
            .collect()
    });
    per_unit.into_iter().flatten().collect()
}
