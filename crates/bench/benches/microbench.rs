//! Criterion microbenchmarks for the performance-critical substrate:
//! event engine throughput, BGP machinery, path resolution, channel
//! sampling and topology generation/convergence.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_bench::campaign::prefix_metas;
use vns_bench::World;
use vns_bgp::{compare_routes, Candidate, DecisionContext, LpmMap, Prefix};
use vns_core::PopId;
use vns_geo::GeoPoint;
use vns_netsim::{Dur, Engine, LossModel, LossProcess, SimTime};

fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("engine/1M_events", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::new();
            for i in 0..1000u32 {
                eng.schedule(SimTime::EPOCH + Dur::from_micros(u64::from(i)), i);
            }
            let mut n = 0u64;
            eng.run_to_completion(|ctx, ev| {
                n += 1;
                if n < 1_000_000 {
                    ctx.schedule_in(Dur::from_micros(1), ev);
                }
            });
            black_box(n);
        });
    });
}

fn bench_great_circle(c: &mut Criterion) {
    let a = GeoPoint::new(52.37, 4.90);
    let bpt = GeoPoint::new(1.35, 103.82);
    c.bench_function("geo/great_circle", |b| {
        b.iter(|| black_box(vns_geo::great_circle_km(black_box(a), black_box(bpt))));
    });
}

/// Longest match on the table shapes that exist and one that does not.
/// `bgp/lpm_random_10k` is 10k random /12–/24 — thirteen populated
/// lengths, a shape no caller builds, kept as the record of what the
/// census design is worst at. `topo/lookup_prefix/*` is the shape
/// `Internet::lookup_prefix` really serves, probed at registered first
/// hosts like a path resolution does: scale 10's registry, 3,252
/// consecutive /16s (one populated length: every generated world), and the
/// same with the one forged /20 an attack adds (two: one more probe).
fn bench_lpm(c: &mut Criterion) {
    let mut table = LpmMap::new();
    let mut rng = SmallRng::seed_from_u64(5);
    use rand::Rng;
    for i in 0..10_000u32 {
        let len = rng.gen_range(12..=24);
        table.insert(Prefix::new(rng.gen(), len), i);
    }
    c.bench_function("bgp/lpm_random_10k", |b| {
        let mut ip = 0u32;
        b.iter(|| {
            ip = ip.wrapping_add(0x9e37_79b9);
            black_box(table.lookup(black_box(ip)));
        });
    });

    let mut internet = vns_topo::Internet::new();
    let (cid, city) = vns_geo::cities::city_by_name("Amsterdam").expect("known city");
    let register = |internet: &mut vns_topo::Internet, prefix: Prefix| {
        let info = vns_topo::PrefixInfo {
            prefix,
            origin: vns_topo::AsId(0),
            city: cid,
            location: city.location,
            last_mile: true,
            anycast: false,
        };
        internet.add_prefix(info, "NL", city.location);
    };
    for i in 0..3_252u32 {
        register(&mut internet, Prefix::new(0x1000_0000 + (i << 16), 16));
    }
    let hosts: Vec<u32> = internet.prefixes().map(|p| p.prefix.first_host()).collect();
    let mut g = c.benchmark_group("topo/lookup_prefix");
    for name in ["slash16s", "slash16s_and_a_slash20"] {
        if name != "slash16s" {
            let forged = Prefix::new(0x1000_0000 + (1_600 << 16), 16).subnet(20, 1);
            register(&mut internet, forged);
        }
        g.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1_009) % hosts.len();
                black_box(internet.lookup_prefix(black_box(hosts[i])));
            });
        });
    }
    g.finish();
}

fn bench_decision(c: &mut Criterion) {
    use vns_bgp::{Asn, Origin, Relation, RouteAttrs, RouteSource, SpeakerId};
    let mk = |lp: u32, path_len: usize, peer: u32| Candidate {
        attrs: RouteAttrs {
            local_pref: lp,
            as_path: (0..path_len as u32).map(Asn).collect(),
            origin: Origin::Igp,
            med: 0,
            communities: vec![],
            next_hop: SpeakerId(peer),
            originator_id: None,
            cluster_list: vec![],
        }
        .into(),
        source: RouteSource::Ebgp {
            peer: SpeakerId(peer),
            peer_as: Asn(peer),
            relation: Relation::Provider,
        },
    };
    let a = mk(100, 3, 7);
    let b2 = mk(100, 3, 9);
    let ctx = DecisionContext::no_igp();
    c.bench_function("bgp/compare_routes", |b| {
        b.iter(|| black_box(compare_routes(black_box(&a), black_box(&b2), &ctx)));
    });
}

/// What one update costs on its way through a router: in
/// (`bgp/receive_update/*`: hand a held message over — the sender's
/// per-neighbour copy — and import it) and out (`bgp/reselect_fanout/k`:
/// one changed update in, the decision process, `k` eBGP neighbours told).
/// `reselect_fanout` holds one prefix, so every map it touches has one
/// entry; `bgp/reselect_table/k` is the same step on a scale-2-sized table
/// (685 prefixes, the changed update rotating through them) and
/// `bgp/reselect_quiet/64` the commonest real reselect: a candidate that
/// loses re-delivered, every neighbour visited, nothing to say.
fn bench_update_flow(c: &mut Criterion) {
    use vns_bgp::{
        Asn, BgpNet, Message, Origin, PeerConfig, PeerKind, Policy, Relation, RouteAttrs, Speaker,
        SpeakerId,
    };
    let prefix = Prefix::new(0x0a00_0000, 8);
    // A reflector with the geo table's stand-in: LOCAL_PREF 999 for the
    // prefix via any next hop of the updates below. A network names the
    // prefix and hands the speaker its table.
    let boosted = || {
        let mut net = BgpNet::new();
        net.add_speaker(Speaker::new(SpeakerId(1), Asn(100)));
        net.add_speaker(Speaker::new(SpeakerId(2), Asn(100)));
        net.originate(SpeakerId(2), prefix);
        let boost = net.import_prefs(vec![SpeakerId(7)], |_, _| Some(999));
        let mut sp = net.speaker_mut(SpeakerId(1)).expect("added").clone();
        sp.set_import_prefs(std::sync::Arc::new(boost));
        sp
    };
    // A route as a reflector's client sees it: a few ASes of path, one
    // community, one cluster id. `tail` tells two versions apart so every
    // delivery replaces the entry and changes what is exported.
    let update = |tail: u32| Message::Update {
        prefix,
        attrs: RouteAttrs {
            local_pref: 100,
            as_path: [200, 300, 400, tail].into_iter().map(Asn).collect(),
            origin: Origin::Igp,
            med: 0,
            communities: vec![vns_bgp::Community::Tag(5)],
            next_hop: SpeakerId(7),
            originator_id: Some(SpeakerId(7)),
            cluster_list: vec![9],
        }
        .into(),
    };
    let versions = [update(500), update(501)];
    let ebgp = |peer_as, relation| PeerConfig {
        kind: PeerKind::Ebgp {
            peer_as: Asn(peer_as),
            relation,
        },
        import: Policy::GaoRexford,
    };
    let ibgp = PeerConfig {
        kind: PeerKind::Ibgp,
        import: Policy::FlatPreference,
    };
    let from = SpeakerId(2);

    let mut g = c.benchmark_group("bgp/receive_update");
    for (name, cfg, boost) in [
        ("ebgp", ebgp(200, Relation::Customer), false),
        ("ibgp", ibgp, false),
        ("ibgp_hook", ibgp, true),
    ] {
        let mut sp = if boost {
            boosted()
        } else {
            Speaker::new(SpeakerId(1), Asn(100))
        };
        sp.add_peer(from, cfg);
        g.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                sp.receive(from, black_box(&versions[i % 2]).clone());
                // An inbox is drained, then processed: without this the
                // dirty queue would grow for as long as the bench runs.
                if i.is_multiple_of(1024) {
                    black_box(sp.process());
                }
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("bgp/reselect_fanout");
    for k in [4u32, 64] {
        let mut sp = Speaker::new(SpeakerId(1), Asn(100));
        sp.add_peer(from, ebgp(200, Relation::Customer));
        for n in 0..k {
            sp.add_peer(SpeakerId(100 + n), ebgp(1000 + n, Relation::Peer));
        }
        g.bench_function(k.to_string(), |b| {
            let mut i = 0;
            b.iter(|| {
                i ^= 1;
                sp.receive(from, versions[i].clone());
                let out = sp.process();
                assert_eq!(out.len(), k as usize);
                black_box(out)
            });
        });
    }
    g.finish();

    // The table benches: `from` (a customer) wins every prefix; `loser` (a
    // provider) holds a second candidate for each and, with `k - 1` peers,
    // makes the `k` neighbours that hear the best.
    const TABLE: u32 = 685;
    let loser = SpeakerId(3);
    let table_update = |n: u32, first_as: u32, tail: u32| {
        let Message::Update { attrs, .. } = update(tail) else {
            unreachable!("update() builds updates")
        };
        let mut attrs = RouteAttrs::clone(&attrs);
        attrs.as_path = [first_as, 300, 400, tail].into_iter().map(Asn).collect();
        Message::Update {
            prefix: Prefix::new(0x0a00_0000 + (n << 8), 24),
            attrs: attrs.into(),
        }
    };
    let table_speaker = |k: u32| {
        let mut sp = Speaker::new(SpeakerId(1), Asn(100));
        sp.add_peer(from, ebgp(200, Relation::Customer));
        sp.add_peer(loser, ebgp(201, Relation::Provider));
        for n in 1..k {
            sp.add_peer(SpeakerId(100 + n), ebgp(1000 + n, Relation::Peer));
        }
        for n in 0..TABLE {
            sp.receive(from, table_update(n, 200, 500));
            sp.receive(loser, table_update(n, 201, 500));
        }
        assert_eq!(sp.process().len(), (k * TABLE) as usize);
        sp
    };
    let mut g = c.benchmark_group("bgp/reselect_table");
    for k in [8u32, 64] {
        let mut sp = table_speaker(k);
        let versions: Vec<[Message; 2]> = (0..TABLE)
            .map(|n| [table_update(n, 200, 501), table_update(n, 200, 500)])
            .collect();
        g.bench_function(k.to_string(), |b| {
            let mut i = 0;
            b.iter(|| {
                // Each pass over the table delivers the other version.
                let msg = &versions[i % TABLE as usize][(i / TABLE as usize) % 2];
                i += 1;
                sp.receive(from, msg.clone());
                let out = sp.process();
                assert_eq!(out.len(), k as usize);
                black_box(out)
            });
        });
    }
    g.finish();

    let mut sp = table_speaker(64);
    let held: Vec<Message> = (0..TABLE).map(|n| table_update(n, 201, 500)).collect();
    c.bench_function("bgp/reselect_quiet/64", |b| {
        let mut i = 0;
        b.iter(|| {
            let msg = &held[i % TABLE as usize];
            i += 1;
            sp.receive(loser, msg.clone());
            let out = sp.process();
            assert!(out.is_empty());
            black_box(out)
        });
    });
}

fn bench_loss_process(c: &mut Criterion) {
    let model = LossModel::bursty(0.01, 0.4, 2.0);
    c.bench_function("netsim/ge_loss_sample", |b| {
        let mut p = LossProcess::new(model.clone(), SmallRng::seed_from_u64(1));
        let mut t = SimTime::EPOCH;
        b.iter(|| {
            t += Dur::from_millis(2);
            black_box(p.packet_lost(t));
        });
    });
}

fn bench_topology(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("generate+converge", "scale0.45"), |b| {
        b.iter(|| black_box(World::geo(black_box(3), 0.45)));
    });
    g.finish();
}

fn bench_path_resolution(c: &mut Criterion) {
    let world = World::geo(11, 0.45);
    let metas = prefix_metas(&world);
    c.bench_function("path/resolve_via_vns", |b| {
        let mut i = 0;
        b.iter(|| {
            let m = &metas[i % metas.len()];
            i += 1;
            black_box(world.vns.path_via_vns(&world.internet, PopId(9), m.ip).ok());
        });
    });
}

/// The read paths certification runs through, each on the scale-1 world
/// (the size `benchmark/`'s `fault-reconverge` rebuilds and re-verifies
/// after every event): Loc-RIB longest match, IGP shortest path, the
/// service plane's wholesale `PathTable` build and both verifier stages
/// (the data-plane stage also as its forwarding graph alone).
fn bench_certification_reads(c: &mut Criterion) {
    use vns_service::{EndpointTable, PathTable};
    use vns_verify::{forwarding_graph, verify, verify_dataplane, VerifyScope};
    let world = World::geo(77, 1.0);
    let (internet, vns) = (&world.internet, &world.vns);

    let border = internet
        .net
        .speaker(vns.pop(PopId(9)).borders[0])
        .expect("AMS border");
    let hits: Vec<u32> = prefix_metas(&world).iter().map(|m| m.ip).collect();
    let mut g = c.benchmark_group("bgp/loc_rib_lpm");
    // 240.0.0.0/4 is never allocated by the generator: every lookup there
    // probes each populated length and finds nothing.
    for (name, base, stride, ceiling) in [
        ("hit", None, 0, None),
        ("hit_ceiling16", None, 0, Some(16)),
        ("miss", Some(0xf000_0000u32), 0x9e37, None),
        ("miss_ceiling16", Some(0xf000_0000), 0x9e37, Some(16)),
    ] {
        g.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let ip = match base {
                    Some(base) => base | ((i as u32).wrapping_mul(stride) & 0x0fff_ffff),
                    None => hits[i % hits.len()],
                };
                black_box(border.lookup_up_to(black_box(ip), ceiling).map(|(p, _)| p));
            });
        });
    }
    // `hit` with each address's covering list built beforehand, as the
    // resolver and the verifier build it once for every router they ask.
    let coverings: Vec<_> = hits.iter().map(|&ip| internet.net.covering(ip)).collect();
    g.bench_function("hit_in_covering", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let covering = black_box(&coverings[i % coverings.len()]);
            black_box(border.lookup_in(covering, None).map(|(p, ..)| p));
        });
    });
    g.finish();

    let igp = internet
        .as_info(vns.as_id())
        .igp
        .as_ref()
        .expect("VNS has an IGP");
    let routers: Vec<_> = igp.nodes().collect();
    c.bench_function("igp/shortest_path_vns", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let (a, z) = (routers[i % routers.len()], routers[(i * 7) % routers.len()]);
            black_box(igp.shortest_path(black_box(a), black_box(z)));
        });
    });

    // Whole-world passes of tens of ms each.
    let endpoints = EndpointTable::build(internet, vns);
    let scope = VerifyScope::default();
    c.bench_function("service/path_table_build", |b| {
        b.iter(|| black_box(PathTable::build(internet, vns, &endpoints)));
    });
    c.bench_function("verify/forwarding_graph", |b| {
        b.iter(|| black_box(forwarding_graph::analyze(internet, &scope)));
    });
    c.bench_function("verify/control_checks", |b| {
        b.iter(|| black_box(verify(internet, vns)));
    });
    // The whole data-plane stage: the graph, the five checks and dropping
    // the analysis.
    c.bench_function("verify/dataplane", |b| {
        b.iter(|| black_box(verify_dataplane(internet, vns).pairs));
    });
}

/// What a short flow pays before its first packet, each on the scale-1
/// world: a channel per direction (`ChannelFactory::channel_args`, fresh
/// flow label every time), the per-world calibration table behind it
/// (`ChannelFactory::new` = seven `LossModel::mean_rate` integrals), and
/// the service plane's unit of work — one steady telemetry window at
/// `benchmark/`'s `service-churn` sizes (16k target sessions, ten steady
/// windows, setup stride 4, QoS stride 64).
fn bench_flow_setup(c: &mut Criterion) {
    use vns_netsim::diurnal::{DiurnalProfile, DiurnalShape};
    use vns_netsim::{Par, RngTree};
    use vns_service::{EndpointTable, Orchestrator, PathTable, ServiceConfig, ServiceEnv};
    use vns_topo::{CalibrationConfig, ChannelFactory};
    let world = World::geo(77, 1.0);
    let (internet, vns) = (&world.internet, &world.vns);
    let endpoints = EndpointTable::build(internet, vns);
    let paths = PathTable::build(internet, vns, &endpoints);

    // An RTT probe's path (out of AMS through its best local exit) and a
    // call's (spilled: access + L2 splice + tail).
    let rtt_path = prefix_metas(&world)
        .iter()
        .find_map(|m| vns.path_via_local_exit(internet, PopId(9), m.ip).ok())
        .expect("AMS reaches a prefix");
    let call_path = (0..endpoints.len())
        .find_map(|caller| {
            let landing = paths.landing_pop(caller)?;
            let admitted = vns.pops().iter().map(|p| p.id()).find(|&p| p != landing)?;
            paths.call_path(caller, (caller + 1) % endpoints.len(), admitted)
        })
        .expect("a spilled call path");
    let mut g = c.benchmark_group("topo/channel_build");
    for (name, path) in [("rtt_path", &rtt_path), ("call_path", &call_path)] {
        g.bench_function(name, |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                black_box(world.factory.channel_args(path, format_args!("bench:{i}")))
            });
        });
    }
    g.finish();

    c.bench_function("topo/factory_new", |b| {
        let tree = RngTree::new(77);
        b.iter(|| {
            black_box(ChannelFactory::new(
                black_box(CalibrationConfig::default()),
                tree.subtree("channels"),
            ))
        });
    });
    let congestion = LossModel::Congestion {
        profile: DiurnalProfile::new(DiurnalShape::Mixed, 0.45, 0.18, 5.5),
        knee: 0.80,
        max_p: 1.0,
        fluctuation_sigma: 0.35,
    };
    c.bench_function("netsim/congestion_mean_rate", |b| {
        b.iter(|| black_box(black_box(&congestion).mean_rate()));
    });

    let window = Dur::from_mins(5);
    let hold = Dur::from_millis_f64(window.as_millis_f64() * 10.0 / 3.3);
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.55, 0.35, 0.0);
    let mut cfg = ServiceConfig::sized(16_000, hold, window, profile);
    cfg.setup_stride = 4;
    cfg.qos_stride = 64;
    let mut orch = Orchestrator::new(vns, cfg, RngTree::new(77).subtree("steady-state"));
    let env = ServiceEnv {
        internet,
        vns,
        factory: &world.factory,
        endpoints: &endpoints,
        paths: &paths,
    };
    // Fill the fleet first: ramp-up from empty takes a few hold times.
    orch.run_windows(&env, 10, Par::new(1));
    let mut g = c.benchmark_group("service");
    g.sample_size(10);
    g.bench_function("measure_window", |b| {
        b.iter(|| orch.run_windows(&env, 1, Par::new(1)));
    });
    g.finish();
}

fn bench_path_channel_send(c: &mut Criterion) {
    use vns_netsim::diurnal::{DiurnalProfile, DiurnalShape};
    use vns_netsim::{DelaySampler, HopChannel, PathChannel};
    // A realistic three-hop path: last mile + congested haul + clean edge.
    let hops = || {
        let mut lm = HopChannel::ideal(3.0);
        lm.loss = LossProcess::new(
            LossModel::Congestion {
                profile: DiurnalProfile::new(DiurnalShape::Residential, 0.5, 0.42, 1.0),
                knee: 0.7,
                max_p: 0.05,
                fluctuation_sigma: 0.35,
            },
            SmallRng::seed_from_u64(21),
        );
        lm.delay = DelaySampler::contended(
            3.0,
            DiurnalProfile::new(DiurnalShape::Residential, 0.5, 0.42, 1.0),
        );
        let mut haul = HopChannel::ideal(40.0);
        haul.loss = LossProcess::new(
            LossModel::bursty(0.002, 0.3, 1.5),
            SmallRng::seed_from_u64(22),
        );
        vec![lm, haul, HopChannel::ideal(2.0)]
    };
    let mut g = c.benchmark_group("channel");
    g.bench_function("send_single", |b| {
        let mut ch = PathChannel::new(hops(), SmallRng::seed_from_u64(23));
        let mut t = SimTime::EPOCH;
        b.iter(|| {
            t += Dur::from_micros(100);
            black_box(ch.send(t));
        });
    });
    g.bench_function("send_column_1k", |b| {
        let mut ch = PathChannel::new(hops(), SmallRng::seed_from_u64(23));
        let mut cols = vns_netsim::scratch();
        let mut t = SimTime::EPOCH;
        b.iter(|| {
            t += Dur::from_millis(100);
            let train: Vec<u64> = (0..1000u64).map(|i| t.as_nanos() + i * 100_000).collect();
            black_box(ch.send_column(&train, &mut cols));
        });
    });
    g.finish();
}

fn bench_diurnal(c: &mut Criterion) {
    use vns_netsim::diurnal::{DiurnalProfile, DiurnalShape};
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.4, 0.2, 5.5);
    c.bench_function("netsim/diurnal_utilization", |b| {
        let mut t = SimTime::EPOCH;
        b.iter(|| {
            t += Dur::from_secs(61);
            black_box(profile.utilization(black_box(t)));
        });
    });
}

fn bench_media_session(c: &mut Criterion) {
    use vns_media::{run_echo_session, SessionConfig, VideoSpec};
    let world = World::geo(13, 0.45);
    let echo = world.vns.echo_servers()[0];
    let path = world
        .vns
        .path_via_upstream(&world.internet, PopId(1), echo.address())
        .expect("path");
    let mut fwd = world.factory.channel(&path, "bench-f");
    let mut rev = world.factory.channel(&path.reversed(), "bench-r");
    let cfg = SessionConfig::default();
    let mut rng = SmallRng::seed_from_u64(2);
    let mut g = c.benchmark_group("media");
    g.sample_size(20);
    g.bench_function("echo_session_2min_1080p", |b| {
        let mut t = SimTime::EPOCH;
        b.iter(|| {
            t += Dur::from_mins(30);
            let sched = VideoSpec::HD1080.schedule(t, cfg.duration, &mut rng);
            black_box(run_echo_session(&sched, &cfg, &mut fwd, &mut rev));
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_engine,
    bench_great_circle,
    bench_lpm,
    bench_decision,
    bench_update_flow,
    bench_loss_process,
    bench_path_channel_send,
    bench_diurnal,
    bench_topology,
    bench_path_resolution,
    bench_certification_reads,
    bench_flow_setup,
    bench_media_session
);
criterion_main!(benches);
