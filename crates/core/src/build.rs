//! Assembling the VNS deployment inside a generated Internet.
//!
//! Build order mirrors a real deployment: racks (routers) into PoPs,
//! dedicated L2 circuits and the IGP over them, iBGP to the reflectors,
//! transit and peering sessions at each PoP, then service prefixes (the
//! anycast relay address and the echo servers) — and finally BGP
//! convergence.

use std::collections::BTreeMap;

use rand::Rng;

use vns_bgp::{
    Asn, ConvergenceError, IgpGraph, PeerConfig, PeerKind, Policy, Prefix, Relation, Speaker,
    SpeakerId,
};
use vns_geo::cities::city_by_name;
use vns_geo::{city, CityId, GeoPoint, Region};
use vns_netsim::RngTree;
use vns_topo::internet::{AsInfo, PrefixInfo};
use vns_topo::{AsId, AsType, Internet};

use crate::config::{RoutingMode, VnsConfig, MESSAGE_BUDGET};
use crate::mgmt::Overrides;
use crate::pops::{resolve_city, Pop, PopId, INTER_CLUSTER_LINKS, POP_SPECS};
use crate::service::{EchoServer, Vns};

/// Base of the VNS service address space (96.0.0.0; /16 per service).
const VNS_PREFIX_BASE: u32 = 0x6000_0000;

/// Upstream transit providers contracted (the paper has 7).
const UPSTREAM_COUNT: usize = 7;

/// Transit sessions per PoP: how many of the upstreams each PoP buys from
/// locally.
const UPSTREAMS_PER_POP: usize = 4;

/// Fraction of co-located candidate networks VNS peers with ("VNS peers
/// openly with any other interested AS").
const PEER_FRACTION: f64 = 0.6;

/// Builds VNS into `internet` and converges the combined control plane:
/// [`deploy_vns`], then an incremental reconvergence in which only the
/// speakers the deployment touched start active.
pub fn build_vns(internet: &mut Internet, config: &VnsConfig) -> Result<Vns, ConvergenceError> {
    let vns = deploy_vns(internet, config);
    internet.converge(MESSAGE_BUDGET, config.convergence_threads)?;
    Ok(vns)
}

/// Wires the VNS deployment into `internet` — routers, circuits, sessions,
/// service prefixes — without exchanging a BGP message. The returned
/// [`Vns`] describes a control plane that has yet to converge.
pub fn deploy_vns(internet: &mut Internet, config: &VnsConfig) -> Vns {
    let tree = RngTree::new(config.seed).subtree("vns");
    let asn = internet.alloc_asn();

    // --- Routers & PoPs ---------------------------------------------------
    let mut pops: Vec<Pop> = Vec::with_capacity(POP_SPECS.len());
    for spec in POP_SPECS {
        let city_id = resolve_city(&spec);
        let b0 = internet.alloc_speaker_id();
        let b1 = internet.alloc_speaker_id();
        for id in [b0, b1] {
            let mut s = Speaker::new(id, asn);
            s.set_best_external(config.best_external);
            internet.net.add_speaker(s);
        }
        pops.push(Pop {
            spec,
            city: city_id,
            borders: [b0, b1],
        });
    }
    let rr0 = internet.alloc_speaker_id();
    let rr1 = internet.alloc_speaker_id();
    let pop_by_id = |id: PopId| -> &Pop { pops.iter().find(|p| p.id() == id).expect("pop id") };
    let ams = pop_by_id(PopId(9)).city;
    let ash = pop_by_id(PopId(5)).city;
    for (rr, _rr_city) in [(rr0, ams), (rr1, ash)] {
        internet.net.add_speaker(Speaker::new(rr, asn));
    }

    // --- AS registration ----------------------------------------------------
    let as_id = internet.add_as(AsInfo {
        id: internet.next_as_id(),
        asn,
        ty: AsType::Stp,
        region: Region::Europe,
        home_city: ams,
        presence: pops.iter().map(|p| p.city).collect(),
        speaker: None,
        routers: pops
            .iter()
            .flat_map(|p| p.borders.map(|b| (p.city, b)))
            .collect(),
        dedicated: true,
        igp: None,
    });
    for pop in &pops {
        for b in pop.borders {
            internet.register_router(b, as_id, pop.city);
        }
    }
    internet.register_router(rr0, as_id, ams);
    internet.register_router(rr1, as_id, ash);

    // --- Dedicated L2 topology + IGP ---------------------------------------
    let mut igp = IgpGraph::new();
    for pop in &pops {
        igp.add_link(pop.borders[0], pop.borders[1], 1);
    }
    // Regional clusters: full mesh between the border-0 routers. The
    // full-mesh ablation links every PoP pair instead.
    for i in 0..pops.len() {
        for j in (i + 1)..pops.len() {
            if config.full_mesh_l2 || pops[i].spec.cluster == pops[j].spec.cluster {
                let km = Internet::city_km(pops[i].city, pops[j].city).max(1.0) as u64;
                igp.add_link(pops[i].borders[0], pops[j].borders[0], km);
            }
        }
    }
    if !config.full_mesh_l2 {
        for (a, b) in INTER_CLUSTER_LINKS {
            let (pa, pb) = (pop_by_id(a), pop_by_id(b));
            let km = Internet::city_km(pa.city, pb.city).max(1.0) as u64;
            igp.add_link(pa.borders[0], pb.borders[0], km);
        }
    }
    igp.add_link(rr0, pop_by_id(PopId(9)).borders[0], 1);
    igp.add_link(rr1, pop_by_id(PopId(5)).borders[0], 1);
    internet.set_igp(as_id, igp);

    // --- iBGP ----------------------------------------------------------------
    let flat = Policy::FlatPreference;
    for rr in [rr0, rr1] {
        for pop in &pops {
            for b in pop.borders {
                internet.net.connect_rr_client(rr, b, flat);
            }
        }
    }
    internet.net.connect(
        rr0,
        PeerConfig {
            kind: PeerKind::Ibgp,
            import: flat,
        },
        rr1,
        PeerConfig {
            kind: PeerKind::Ibgp,
            import: flat,
        },
    );

    // --- Geo preference ---------------------------------------------------------
    // The reflectors score with the registry's GeoIP database as it stands
    // now, before the service prefixes below are registered; the import
    // table itself is filled once the deployment is assembled.
    let mut router_pop: BTreeMap<SpeakerId, PopId> = BTreeMap::new();
    let mut router_locations: BTreeMap<SpeakerId, GeoPoint> = BTreeMap::new();
    for pop in &pops {
        for b in pop.borders {
            router_pop.insert(b, pop.id());
            router_locations.insert(b, pop.location());
        }
    }
    router_locations.insert(rr0, city(ams).location);
    router_locations.insert(rr1, city(ash).location);
    let reflector_geoip = internet.geoip.clone();
    if config.mode == RoutingMode::GeoColdPotato {
        for rr in [rr0, rr1] {
            let speaker = internet.net.speaker_mut(rr).expect("rr exists");
            // Geo mode overrides hot potato, so the reflectors' own IGP
            // position must not leak into their choice: with two
            // reflectors at different sites, a vantage-dependent
            // tie-break between equally geo-preferred egresses lets each
            // reflector pick a different one, and the two egresses —
            // each preferring the other's reflected route over its own
            // eBGP route (geo LOCAL_PREF > default) — then deflect
            // traffic to each other in a stable forwarding loop. The
            // `igp-metric ignore` knob makes every reflector resolve the
            // tie identically (cluster list, then sender id).
            speaker.set_ignore_igp_metric(true);
        }
    }

    // --- Transit (upstreams) ----------------------------------------------------
    let upstream_ltps: Vec<AsId> = internet
        .ases()
        .filter(|a| a.ty == AsType::Ltp)
        .take(UPSTREAM_COUNT)
        .map(|a| a.id)
        .collect();
    assert!(
        !upstream_ltps.is_empty(),
        "the generated Internet must contain at least one LTP"
    );
    let ashburn_city = city_by_name("Ashburn").expect("Ashburn in table").0;
    let mut pop_upstream: BTreeMap<PopId, (AsId, CityId)> = BTreeMap::new();
    for (i, pop) in pops.iter().enumerate() {
        let is_london = pop.spec.code == "LON";
        let mut chosen: Vec<(AsId, CityId)> = Vec::new();
        if is_london {
            // The Fig 11 anomaly: London's main transit is a US-centric
            // Tier-1. The port is physically in London — so in BGP it looks
            // local and wins hot-potato ties, which is exactly why the
            // operator doesn't notice — but the circuit backhauls to the
            // provider's Ashburn fabric, so the data plane crosses the
            // Atlantic twice for destinations that are around the corner.
            chosen.push((upstream_ltps[0], ashburn_city));
        }
        // Candidates present at the PoP's own city, rotated per PoP for
        // diversity; fall back to the nearest presence city.
        let mut candidates: Vec<(AsId, CityId)> = upstream_ltps
            .iter()
            .map(|&ltp| {
                let info = internet.as_info(ltp);
                let entry = if info.presence.contains(&pop.city) {
                    pop.city
                } else {
                    *info
                        .presence
                        .iter()
                        .min_by(|a, b| {
                            Internet::city_km(pop.city, **a)
                                .total_cmp(&Internet::city_km(pop.city, **b))
                        })
                        .expect("LTPs have presence")
                };
                (ltp, entry)
            })
            .collect();
        candidates.rotate_left(i % upstream_ltps.len());
        for cand in candidates {
            if chosen.iter().any(|(a, _)| *a == cand.0) {
                continue;
            }
            chosen.push(cand);
            if chosen.len() >= UPSTREAMS_PER_POP {
                break;
            }
        }
        pop_upstream.insert(pop.id(), chosen[0]);
        for (i, (ltp, entry_city)) in chosen.into_iter().enumerate() {
            let misconfigured_port = is_london && i == 0;
            let ltp_sp = internet
                .router_of(ltp, entry_city)
                .expect("LTP has routers");
            let ltp_asn = internet.as_info(ltp).asn;
            connect_session(
                internet,
                pop.borders[0],
                asn,
                pop.city,
                ltp_sp,
                ltp_asn,
                entry_city,
                Relation::Provider,
            );
            let router_city = internet.city_of_router(ltp_sp).expect("registered");
            let cost = Internet::city_km(router_city, entry_city) as u64;
            if let Some(s) = internet.net.speaker_mut(ltp_sp) {
                s.set_session_cost(pop.borders[0], cost);
            }
            if misconfigured_port {
                // The border router believes this is a local port: zero
                // exit cost, so the session wins hot-potato ties even
                // though the circuit actually lands across the Atlantic.
                if let Some(s) = internet.net.speaker_mut(pop.borders[0]) {
                    s.set_session_cost(ltp_sp, 0);
                }
            }
        }
    }

    // --- Peering -------------------------------------------------------------
    // "VNS peers openly with any other interested AS … if a peer is present
    // with VNS at different IXPs, VNS always establishes peering at all
    // sites if possible."
    let mut rng = tree.stream("peering");
    let peer_candidates: Vec<(AsId, Asn, SpeakerId, CityId, Vec<CityId>)> = internet
        .ases()
        .filter(|a| matches!(a.ty, AsType::Stp | AsType::Cahp))
        .filter_map(|a| {
            a.speaker
                .map(|sp| (a.id, a.asn, sp, a.home_city, a.presence.clone()))
        })
        .collect();
    let mut peers: Vec<AsId> = Vec::new();
    for (peer_id, peer_asn, peer_sp, peer_home, presence) in peer_candidates {
        let shared_pops: Vec<(SpeakerId, CityId)> = pops
            .iter()
            .filter(|p| presence.contains(&p.city))
            .map(|p| (p.borders[1], p.city))
            .collect();
        if shared_pops.is_empty() || !rng.gen_bool(PEER_FRACTION) {
            continue;
        }
        peers.push(peer_id);
        for (border, pop_city) in shared_pops {
            connect_session(
                internet,
                border,
                asn,
                pop_city,
                peer_sp,
                peer_asn,
                pop_city,
                Relation::Peer,
            );
            let cost = Internet::city_km(peer_home, pop_city) as u64;
            if let Some(s) = internet.net.speaker_mut(peer_sp) {
                s.set_session_cost(border, cost);
            }
        }
    }

    // --- Service prefixes ------------------------------------------------------
    // Anycast TURN relay address, originated at every border router.
    let anycast_prefix = Prefix::new(VNS_PREFIX_BASE, 16);
    internet.add_prefix(
        PrefixInfo {
            prefix: anycast_prefix,
            origin: as_id,
            city: ams,
            location: city(ams).location,
            last_mile: false,
            anycast: true,
        },
        city(ams).country,
        city(ams).location,
    );
    for pop in &pops {
        for b in pop.borders {
            internet.net.originate(b, anycast_prefix);
        }
    }
    // Echo servers: two per measurement region (Sec 5.1 uses six).
    let echo_pops = [PopId(9), PopId(6), PopId(5), PopId(1), PopId(7), PopId(8)];
    let mut echo_servers = Vec::new();
    for (i, pid) in echo_pops.into_iter().enumerate() {
        let pop = pop_by_id(pid);
        let prefix = Prefix::new(VNS_PREFIX_BASE + (((i as u32) + 1) << 16), 16);
        internet.add_prefix(
            PrefixInfo {
                prefix,
                origin: as_id,
                city: pop.city,
                location: pop.location(),
                last_mile: false,
                anycast: false,
            },
            city(pop.city).country,
            pop.location(),
        );
        for b in pop.borders {
            internet.net.originate(b, prefix);
        }
        echo_servers.push(EchoServer { prefix, pop: pid });
    }
    let vns = Vns {
        as_id,
        asn,
        mode: config.mode,
        lp_fn: config.lp_fn,
        pops,
        rrs: [rr0, rr1],
        upstreams: upstream_ltps,
        pop_upstream,
        peers,
        anycast_prefix,
        echo_servers,
        router_pop,
        router_locations,
        overrides: Overrides::default(),
        reflector_geoip,
    };
    vns.push_import_prefs(internet);
    vns
}

/// Creates an eBGP session between a VNS border router and an external
/// AS-level speaker, recording the interconnect geometry.
#[allow(clippy::too_many_arguments)]
fn connect_session(
    internet: &mut Internet,
    border: SpeakerId,
    vns_asn: Asn,
    vns_city: CityId,
    ext_sp: SpeakerId,
    ext_asn: Asn,
    ext_city: CityId,
    vns_view: Relation,
) {
    internet.net.connect(
        border,
        PeerConfig {
            kind: PeerKind::Ebgp {
                peer_as: ext_asn,
                relation: vns_view,
            },
            import: Policy::FlatPreference,
        },
        ext_sp,
        PeerConfig {
            kind: PeerKind::Ebgp {
                peer_as: vns_asn,
                relation: vns_view.inverse(),
            },
            import: Policy::GaoRexford,
        },
    );
    internet.record_link(border, vns_city, ext_sp, ext_city);
    // Hot-potato cost at the border: the haul from the PoP to the far end
    // of the transit/peering port (0 for same-metro cross-connects; the
    // trans-Atlantic backhaul of London's US upstream is ~5900 km, so that
    // session only wins when its route is strictly shorter).
    let cost = Internet::city_km(vns_city, ext_city) as u64;
    if let Some(s) = internet.net.speaker_mut(border) {
        s.set_session_cost(ext_sp, cost);
    }
}
