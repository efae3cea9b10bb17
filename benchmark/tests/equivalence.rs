//! Driver-equivalence: the harness's decomposed drivers produce exactly
//! what the `vns-bench` campaigns produce, so the benchmark provably
//! measures the work `vns-bench` does. Tiny 0.45-scale world.

use vns_bench::campaign::{
    lastmile_campaign, media_campaign, prefix_metas, rtt_matrix, rtt_via_upstream, rtt_via_vns,
    select_hosts,
};
use vns_bench::experiments::steady_state::{self, SteadyStateOpts};
use vns_bench::{World, WorldConfig};
use vns_benchmark::span::{Phase, SpanId, Tracer};
use vns_benchmark::workloads::{media, probe, service};
use vns_core::PopId;
use vns_media::VideoSpec;
use vns_netsim::{Dur, Par, SimTime};
use vns_service::{EndpointTable, PathTable};

const SEED: u64 = 7;

/// A recorder that is on, so the equivalence holds with spans recorded.
fn tracer() -> Tracer {
    let tr = Tracer::new();
    tr.set_enabled(true);
    tr.set_rep(Phase::Timed, 0);
    tr
}

#[test]
fn media_driver_equals_media_campaign() {
    let world = World::build(WorldConfig::tiny(SEED));
    let clients = [PopId(9), PopId(1), PopId(11)];
    let start = SimTime::EPOCH + Dur::from_hours(6);
    let want = media_campaign(&world, &clients, VideoSpec::HD720, 2, start, Par::seq());

    let tr = tracer();
    let flows = media::run_flows(
        &world,
        &clients,
        VideoSpec::HD720,
        2,
        start,
        &tr,
        SpanId::NONE,
    );
    let got: Vec<_> = flows.into_iter().filter_map(|(r, _)| r).collect();
    assert!(!want.is_empty());
    assert_eq!(got, want);

    // One parent-linked flow span per unit, three layer calls under each.
    let trace = tr.finish();
    assert_eq!(trace.of("media.flow").len(), want.len());
    assert_eq!(trace.of("media.session").len(), want.len());
    assert_eq!(trace.of("topo.channel_build").len(), 2 * want.len());
    let sessions = trace.of("media.session");
    assert!(sessions.iter().all(|s| s.parent != SpanId::NONE));
    // Packet-hops; a client co-located with its echo server crosses none.
    assert!(sessions.iter().any(|s| s.work > 0));
}

#[test]
fn probe_drivers_equal_the_probe_campaigns() {
    let world = World::build(WorldConfig::tiny(SEED));
    let tr = tracer();
    let metas = prefix_metas(&world);
    let pops: Vec<PopId> = world.vns.pops().iter().map(|p| p.id()).collect();
    let t = SimTime::EPOCH + Dur::from_hours(10);

    let want = rtt_matrix(&world, &metas, &pops, t, Par::seq());
    let got: Vec<Vec<Option<f64>>> = probe::rtt_matrix(&world, &metas, &pops, t, &tr, SpanId::NONE)
        .into_iter()
        .map(|row| row.into_iter().map(|(rtt, _)| rtt).collect())
        .collect();
    assert!(want.iter().flatten().any(Option::is_some));
    assert_eq!(got, want);

    let ams = PopId(9);
    for m in metas.iter().take(40) {
        let via = |v| probe::rtt_flow(&world, v, ams, m.ip, t, &tr, SpanId::NONE).0;
        assert_eq!(via(probe::Via::Vns), rtt_via_vns(&world, ams, m.ip, t));
        assert_eq!(
            via(probe::Via::Upstream),
            rtt_via_upstream(&world, ams, m.ip, t)
        );
    }

    let hosts = select_hosts(&world, 2);
    let vantages = [PopId(9), PopId(1), PopId(11)];
    let (interval, span) = (Dur::from_mins(30), Dur::from_hours(3));
    let want = lastmile_campaign(&world, &vantages, &hosts, interval, span, Par::seq());
    let got: Vec<_> =
        probe::lastmile_trains(&world, &vantages, &hosts, interval, span, &tr, SpanId::NONE)
            .into_iter()
            .flat_map(|(series, _)| series)
            .collect();
    assert!(!want.is_empty());
    // `TrainRecord` has no `PartialEq`; its `Debug` shows every field.
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    // The series span's work is the ledger's packet count for the unit.
    let packets: u64 = tr
        .finish()
        .of("probe.train_series")
        .iter()
        .map(|s| s.work)
        .sum();
    let sent: u64 = want.iter().map(|r| u64::from(r.train.sent)).sum();
    assert!(packets > sent && packets <= 2 * sent);
}

#[test]
fn service_driver_equals_steady_state_run() {
    let config = WorldConfig::tiny(SEED);
    let opts = SteadyStateOpts {
        target_concurrent: 2_000,
        windows: 6,
    };
    let want = steady_state::run(&config, opts, Par::seq());

    let tr = tracer();
    let mut world = World::build(config);
    let endpoints = EndpointTable::build(&world.internet, &world.vns);
    let mut paths = PathTable::build(&world.internet, &world.vns, &endpoints);
    let got = service::run_churn(&mut world, &endpoints, &mut paths, opts, &tr, SpanId::NONE);
    assert!(!got.broken);
    assert_eq!(got.telemetry.to_string(), want.telemetry.to_string());
    assert_eq!(got.steady_sustained, want.steady_sustained);
    assert_eq!(got.torn_down, want.torn_down);
    assert_eq!(got.reconvergence_messages, want.reconvergence_messages);
    assert_eq!(
        got.findings,
        (want.verify_errors + want.dataplane_errors) as u64
    );
    assert_eq!(got.routable_during_fault, want.routable_during_fault);
    // One window span per telemetry window, arrivals recorded as its work.
    assert_eq!(got.window_ms.len(), want.telemetry.windows.len());
    let trace = tr.finish();
    let arrivals: u64 = [
        "service.window.steady",
        "service.window.fault",
        "service.window.recovered",
    ]
    .iter()
    .flat_map(|name| trace.of(name))
    .map(|s| s.work)
    .sum();
    assert_eq!(arrivals, want.telemetry.total_arrivals());
}
