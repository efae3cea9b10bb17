//! The fixed-sample layer replay of a traced run.
//!
//! Some layers cannot be entered from outside while a composite call runs
//! (`Orchestrator::run_windows` measures a call in one piece), and some do
//! no work at all on a given workload. So that every per-layer metric has
//! a number on every workload — and a change to a layer is attributable
//! even where that layer is a rounding error — a traced run ends by
//! pushing a fixed sample of the same units through the public pieces
//! (`PathTable::call_path` → `channel_args` → `setup_call` →
//! `run_echo_session`, plus the small fixed-input probes below) on the
//! workload's scale-1 world. Per-layer metrics prefer spans from the timed
//! reps and fall back to these.

use std::hint::black_box;

use vns_bench::campaign::prefix_metas;
use vns_bench::World;
use vns_core::PopId;
use vns_media::{run_echo_session, setup_call, SessionConfig, VideoSpec};
use vns_netsim::{Dur, RngTree, SimTime};
use vns_probe::rtt_probe_std;
use vns_service::{EndpointTable, PathTable};
use vns_stats::QuantileSketch;

use crate::span::{SpanId, Tracer};
use crate::workloads::channel_pair;

/// Sampled calls, prefixes and sketch operations: enough for a stable
/// median, small enough that the replay stays well under a second.
const CALLS: usize = 256;
const PREFIXES: usize = 48;
const SKETCH_RECORDS: u64 = 400_000;
const SKETCH_MERGES: u64 = 4_000;
const GEOIP_ROUNDS: u64 = 200;

/// Runs the replay under `parent`.
pub fn replay(world: &World, tr: &Tracer, parent: SpanId) {
    let endpoints = tr.within("service.endpoint_table_build", parent, |_| {
        EndpointTable::build(&world.internet, &world.vns)
    });
    let paths = tr.within("service.path_table_build", parent, |_| {
        PathTable::build(&world.internet, &world.vns, &endpoints)
    });

    let metas = prefix_metas(world);
    let stride = (metas.len() / PREFIXES).max(1);
    let sampled: Vec<_> = metas.iter().step_by(stride).take(PREFIXES).collect();

    // vns-bgp: Loc-RIB walks from every border towards sampled prefixes.
    let span = tr.span("bgp.forwarding_path", parent);
    let mut walks = 0u64;
    for pop in world.vns.pops() {
        for border in pop.borders {
            for m in &sampled {
                black_box(world.internet.net.forwarding_path(border, &m.prefix).ok());
                walks += 1;
            }
        }
    }
    tr.set_work(span.end(), walks);

    // vns-core: the three resolvers the campaigns use, from AMS.
    for m in &sampled {
        let ams = PopId(9);
        tr.within("core.path_resolve", parent, |_| {
            black_box(world.vns.path_via_vns(&world.internet, ams, m.ip).ok())
        });
        tr.within("core.path_resolve", parent, |_| {
            black_box(world.vns.path_via_upstream(&world.internet, ams, m.ip).ok())
        });
        tr.within("core.path_resolve", parent, |_| {
            black_box(
                world
                    .vns
                    .path_via_local_exit(&world.internet, ams, m.ip)
                    .ok(),
            )
        });
    }

    // vns-service → vns-topo → vns-media → vns-probe: calls as
    // `Orchestrator` measures them, piece by piece.
    let tree = RngTree::new(world.config.seed).subtree("layer-replay");
    let mut rng = tree.stream("calls");
    let burst = Dur::from_secs(1);
    let session_cfg = SessionConfig {
        slot: burst,
        duration: burst,
    };
    for id in 0..CALLS {
        let (caller, callee) = endpoints.sample_pair(&mut rng);
        let Some(landing) = paths.landing_pop(caller) else {
            continue;
        };
        let call = tr.span("service.call", parent);
        let path = tr.within("service.call_path", call.id(), |_| {
            paths.call_path(caller, callee, landing)
        });
        let Some(path) = path else { continue };
        let (mut fwd, mut rev) =
            channel_pair(world, &path, format_args!("replay:{id}"), tr, call.id());
        let at = SimTime::EPOCH + Dur::from_hours(6);
        let setup = tr.within("media.setup_call", call.id(), |_| {
            setup_call(&mut fwd, &mut rev, at)
        });
        let start = at + Dur::from_millis_f64(setup.setup_ms);
        let session = tr.span("media.session", call.id());
        let mut media_rng = tree.stream_indexed("media", id as u64);
        let report = run_echo_session(
            VideoSpec::HD720.packets(start, burst, &mut media_rng),
            &session_cfg,
            &mut fwd,
            &mut rev,
        );
        tr.set_work(
            session.end(),
            (u64::from(report.sent) + u64::from(report.delivered_out)) * path.hop_count() as u64,
        );
        tr.within("probe.rtt_probe", call.id(), |_| {
            black_box(rtt_probe_std(&mut fwd, &mut rev, start + burst))
        });
    }

    // vns-stats: the telemetry sketches, on fixed inputs.
    let mut sketch = vns_service::telemetry::setup_sketch();
    let span = tr.span("stats.sketch_record", parent);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..SKETCH_RECORDS {
        // Weyl sequence over the sketch's 0–32 s range: every bin is hit.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        sketch.record((x >> 40) as f64 * (32_000.0 / (1u64 << 24) as f64));
    }
    tr.set_work(span.end(), SKETCH_RECORDS);
    let span = tr.span("stats.sketch_merge", parent);
    let mut all: QuantileSketch = vns_service::telemetry::setup_sketch();
    for _ in 0..SKETCH_MERGES {
        all.merge(black_box(&sketch));
    }
    black_box(all.p99());
    tr.set_work(span.end(), SKETCH_MERGES);

    // vns-geo: the lookup behind the geo-LOCAL_PREF hook.
    let span = tr.span("geo.geoip_lookup", parent);
    for _ in 0..GEOIP_ROUNDS {
        for m in &metas {
            black_box(world.internet.geoip.lookup(m.prefix).ok());
        }
    }
    tr.set_work(span.end(), GEOIP_ROUNDS * metas.len() as u64);
}
