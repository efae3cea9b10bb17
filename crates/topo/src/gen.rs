//! The Internet generator.
//!
//! Builds an [`Internet`] with the structure the paper's measurements see:
//! a small clique of global Tier-1 LTPs, regional STPs hanging off them
//! (some AP providers with their own trans-Pacific legs), stub CAHPs and
//! ECs multihomed into the regional fabric, IXP-style peering inside
//! regions, prefixes placed in real cities, and a GeoIP database whose
//! error patterns match the ones the paper diagnosed.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use vns_bgp::{ConvergenceError, Policy, Prefix, Relation, Speaker};
use vns_geo::cities::{cities_in_region, city_by_name};
use vns_geo::{city, CityId, GeoIpErrorModel, GeoPoint, Region};
use vns_netsim::RngTree;

use crate::astype::AsType;
use crate::config::{TopoConfig, MESSAGE_BUDGET};
use crate::internet::{AsId, AsInfo, Internet, PrefixInfo};

/// Generation failure.
#[derive(Debug)]
pub enum GenError {
    /// BGP did not converge within the configured budget.
    Convergence(ConvergenceError),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Convergence(e) => write!(f, "topology generation: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

/// First /16 block handed to the prefix allocator (16.0.0.0).
const PREFIX_BASE: u32 = 0x1000_0000;

/// Fraction of AP transit providers that also maintain their own
/// trans-Pacific presence on the US west coast (the paper observed "many
/// Asian network providers carry data to the USA over own trans-Pacific
/// infrastructure").
const AP_TRANSPACIFIC_FRACTION: f64 = 0.35;

/// Fraction of stub ASes whose prefixes are geographically spread across
/// two regions (the paper's Sec 3.2 "subnets of a contiguous prefix can
/// have a large geographic spread").
const SPREAD_AS_FRACTION: f64 = 0.05;

/// Uniform city-level GeoIP jitter radius, km.
const GEOIP_JITTER_KM: f64 = 60.0;

/// Generates an Internet per `config` and converges its control plane.
pub fn generate(config: &TopoConfig) -> Result<Internet, GenError> {
    let mut internet = wire(config);
    internet
        .converge(MESSAGE_BUDGET, config.convergence_threads)
        .map_err(GenError::Convergence)?;
    Ok(internet)
}

/// The generator without the convergence: ASes, sessions, prefixes and
/// GeoIP wired up, no BGP message exchanged yet. [`generate`] is this plus
/// [`Internet::converge`].
pub fn wire(config: &TopoConfig) -> Internet {
    let tree = RngTree::new(config.seed).subtree("topo");
    let mut internet = Internet::new();
    let mut next_block: u32 = 0;

    // --- 1. Create ASes -------------------------------------------------
    let hub_cities: Vec<CityId> = vns_geo::cities::CITIES
        .iter()
        .enumerate()
        .filter(|(_, c)| c.major_hub)
        .map(|(i, _)| CityId(i as u16))
        .collect();

    let mut rng = tree.stream("ases");
    let mut ltps: Vec<AsId> = Vec::new();
    for i in 0..config.ltps {
        // Spread LTP headquarters across the three big regions; the first
        // one is deliberately US-centric ("upstream 1 has a strong presence
        // in North America", Sec 4.2.2).
        let home_region = match i % 3 {
            0 => Region::NorthAmerica,
            1 => Region::Europe,
            _ => Region::AsiaPacific,
        };
        let home = *pick(&mut rng, &region_hubs(&hub_cities, home_region));
        // Global presence: most hubs, always the home.
        let mut presence: Vec<CityId> = hub_cities
            .iter()
            .copied()
            .filter(|c| *c == home || rng.gen_bool(0.85))
            .collect();
        if !presence.contains(&home) {
            presence.push(home);
        }
        ltps.push(create_ltp(&mut internet, city(home).region, home, presence));
    }

    let mut stps: Vec<AsId> = Vec::new();
    let mut cahps: Vec<AsId> = Vec::new();
    let mut ecs: Vec<AsId> = Vec::new();
    for region in Region::ALL {
        let region_cities = cities_in_region(region);
        let hubs = region_hubs(&hub_cities, region);
        for _ in 0..config.scaled_count(config.stps_per_region, region) {
            let home = *pick(&mut rng, &hubs);
            let mut presence = vec![home];
            for _ in 0..rng.gen_range(1..=3usize) {
                let c = *pick(&mut rng, &region_cities);
                if !presence.contains(&c) {
                    presence.push(c);
                }
            }
            // Some AP transit providers maintain their own trans-Pacific
            // leg to the US west coast (Sec 4.1's "delay-closer to NA").
            if region == Region::AsiaPacific && rng.gen_bool(AP_TRANSPACIFIC_FRACTION) {
                let west = ["Seattle", "SanJose", "LosAngeles"];
                let pickw = west[rng.gen_range(0..west.len())];
                presence.push(city_by_name(pickw).expect("west coast city").0);
            }
            stps.push(create_as(
                &mut internet,
                AsType::Stp,
                region,
                home,
                presence,
            ));
        }
        for _ in 0..config.scaled_count(config.cahps_per_region, region) {
            let home = *pick(&mut rng, &region_cities);
            let mut presence = vec![home];
            if rng.gen_bool(0.3) {
                let c = *pick(&mut rng, &region_cities);
                if !presence.contains(&c) {
                    presence.push(c);
                }
            }
            cahps.push(create_as(
                &mut internet,
                AsType::Cahp,
                region,
                home,
                presence,
            ));
        }
        for _ in 0..config.scaled_count(config.ecs_per_region, region) {
            let home = *pick(&mut rng, &region_cities);
            ecs.push(create_as(
                &mut internet,
                AsType::Ec,
                region,
                home,
                vec![home],
            ));
        }
    }

    // Geographic spread: a few stubs grow a leg in a distant region.
    let mut rng_spread = tree.stream("spread");
    let mut spread_ases: Vec<AsId> = Vec::new();
    for id in cahps.iter().chain(ecs.iter()) {
        if rng_spread.gen_bool(SPREAD_AS_FRACTION) {
            let home_region = internet.as_info(*id).region;
            let other = *pick(
                &mut rng_spread,
                &Region::ALL
                    .into_iter()
                    .filter(|r| *r != home_region)
                    .collect::<Vec<_>>(),
            );
            let remote = *pick(&mut rng_spread, &cities_in_region(other));
            internet.as_info_mut(*id).presence.push(remote);
            spread_ases.push(*id);
        }
    }

    // --- 2. Links and sessions ------------------------------------------
    let mut rng_links = tree.stream("links");
    // LTP full peer mesh: Tier-1 pairs interconnect in *every* region both
    // are present in (one shared hub per region), as real Tier-1s do —
    // otherwise inter-provider traffic would hairpin through one continent.
    for i in 0..ltps.len() {
        for j in (i + 1)..ltps.len() {
            let shared = shared_cities(&internet, ltps[i], ltps[j]);
            let mut cities: Vec<CityId> = Vec::new();
            for region in Region::ALL {
                // Up to three geographically spread interconnects per
                // region (real Tier-1 pairs meet in many metros; one
                // east-coast-only meet point would haul west-coast traffic
                // across the continent).
                let in_region: Vec<CityId> = shared
                    .iter()
                    .copied()
                    .filter(|c| city(*c).region == region)
                    .collect();
                let Some(&first) = in_region.first() else {
                    continue;
                };
                cities.push(first);
                if let Some(&far) = in_region.iter().max_by(|a, b| {
                    Internet::city_km(first, **a).total_cmp(&Internet::city_km(first, **b))
                }) {
                    if far != first {
                        cities.push(far);
                        if let Some(&mid) = in_region.iter().max_by(|a, b| {
                            let da = Internet::city_km(first, **a).min(Internet::city_km(far, **a));
                            let db = Internet::city_km(first, **b).min(Internet::city_km(far, **b));
                            da.total_cmp(&db)
                        }) {
                            if mid != first && mid != far {
                                cities.push(mid);
                            }
                        }
                    }
                }
            }
            if !cities.is_empty() {
                connect(&mut internet, ltps[i], ltps[j], Relation::Peer, &cities);
            }
        }
    }
    // STPs: 1–2 LTP providers; public peering with other LTPs at the home
    // IXP (common for mid-size transit networks and what keeps regional
    // paths short); regional STP peering.
    for &stp in &stps {
        let n = rng_links.gen_range(1..=2usize);
        let mut choices = ltps.clone();
        choices.shuffle(&mut rng_links);
        let providers: Vec<AsId> = choices.iter().take(n).copied().collect();
        for &ltp in &providers {
            connect_customer(&mut internet, stp, ltp);
        }
        let home = internet.as_info(stp).home_city;
        for &ltp in &ltps {
            if providers.contains(&ltp) {
                continue;
            }
            if internet.as_info(ltp).presence.contains(&home) && rng_links.gen_bool(0.5) {
                connect_at(&mut internet, stp, home, ltp, home, Relation::Peer);
            }
        }
    }
    for i in 0..stps.len() {
        for j in (i + 1)..stps.len() {
            let (a, b) = (stps[i], stps[j]);
            if internet.as_info(a).region != internet.as_info(b).region {
                continue;
            }
            if !rng_links.gen_bool(config.stp_peering_prob) {
                continue;
            }
            let shared = shared_cities(&internet, a, b);
            if let Some(cty) = shared.first() {
                connect(&mut internet, a, b, Relation::Peer, &[*cty]);
            }
        }
    }
    // CAHPs: providers from regional STPs (fallback LTP); occasional
    // regional peering at the nearest hub (IXP-style).
    for &cahp in &cahps {
        let region = internet.as_info(cahp).region;
        let regional_stps: Vec<AsId> = stps
            .iter()
            .copied()
            .filter(|s| internet.as_info(*s).region == region)
            .collect();
        let n = rng_links.gen_range(1..=2usize);
        for k in 0..n {
            let use_ltp = regional_stps.is_empty() || (k == 1 && rng_links.gen_bool(0.3));
            let provider = if use_ltp {
                *pick(&mut rng_links, &ltps)
            } else {
                *pick(&mut rng_links, &regional_stps)
            };
            connect_customer(&mut internet, cahp, provider);
        }
    }
    for i in 0..cahps.len() {
        for j in (i + 1)..cahps.len() {
            let (a, b) = (cahps[i], cahps[j]);
            let region = internet.as_info(a).region;
            if internet.as_info(b).region != region {
                continue;
            }
            if !rng_links.gen_bool(config.cahp_peering_prob) {
                continue;
            }
            // Meet at the regional hub closest to a's home.
            let hubs = region_hubs(&hub_cities, region);
            let ix = *hubs
                .iter()
                .min_by(|x, y| {
                    let dx = Internet::city_km(internet.as_info(a).home_city, **x);
                    let dy = Internet::city_km(internet.as_info(a).home_city, **y);
                    dx.total_cmp(&dy)
                })
                .expect("every region has a hub");
            connect(&mut internet, a, b, Relation::Peer, &[ix]);
        }
    }
    // ECs: 1–2 providers (STP-heavy, some LTP).
    for &ec in &ecs {
        let region = internet.as_info(ec).region;
        let regional_stps: Vec<AsId> = stps
            .iter()
            .copied()
            .filter(|s| internet.as_info(*s).region == region)
            .collect();
        let n = rng_links.gen_range(1..=2usize);
        for _ in 0..n {
            let provider = if !regional_stps.is_empty() && rng_links.gen_bool(0.7) {
                *pick(&mut rng_links, &regional_stps)
            } else {
                *pick(&mut rng_links, &ltps)
            };
            connect_customer(&mut internet, ec, provider);
        }
    }

    // --- 3. Prefixes ------------------------------------------------------
    let mut rng_pfx = tree.stream("prefixes");
    let all_as: Vec<AsId> = (0..internet.as_count() as u32).map(AsId).collect();
    for id in all_as {
        // Prefixes originated per AS: the bigger the network, the more
        // address space it announces.
        let count = match internet.as_info(id).ty {
            AsType::Ltp => 5,
            AsType::Stp => 4,
            AsType::Cahp => 3,
            AsType::Ec => 1,
        };
        let is_spread = spread_ases.contains(&id);
        for _ in 0..count {
            let block = next_block;
            next_block += 1;
            let prefix = Prefix::new(PREFIX_BASE + (block << 16), 16);
            let pcity = {
                let info = internet.as_info(id);
                // Spread ASes place ~a third of their space at the remote
                // leg; everyone else concentrates near home.
                if is_spread && rng_pfx.gen_bool(0.33) {
                    *info.presence.last().expect("presence non-empty")
                } else if rng_pfx.gen_bool(0.6) || info.presence.len() == 1 {
                    info.home_city
                } else {
                    info.presence[rng_pfx.gen_range(0..info.presence.len())]
                }
            };
            // Originate at the AS's router nearest the prefix (matters for
            // multi-router LTPs: their address space is regional).
            let speaker = internet.router_of(id, pcity).expect("AS has routers");
            let base = city(pcity).location;
            // Hosts scatter ~25 km around the city centre.
            let location = GeoPoint::new(
                base.lat_deg + rng_pfx.gen_range(-0.2..0.2),
                base.lon_deg + rng_pfx.gen_range(-0.25..0.25),
            );
            let country = city(pcity).country;
            internet.add_prefix(
                PrefixInfo {
                    prefix,
                    origin: id,
                    city: pcity,
                    location,
                    last_mile: true,
                    anycast: false,
                },
                country,
                location,
            );
            internet.net.originate(speaker, prefix);
        }
    }

    // --- 4. GeoIP error models -------------------------------------------
    if config.geoip_errors {
        let toronto = city_by_name("Toronto")
            .expect("Toronto in table")
            .1
            .location;
        internet.geoip.apply_error_model(
            &GeoIpErrorModel::CityJitter {
                max_km: GEOIP_JITTER_KM,
            },
            tree.seed_for("geoip-jitter"),
        );
        internet.geoip.apply_error_model(
            &GeoIpErrorModel::CentroidCollapse {
                country: "RU".into(),
            },
            tree.seed_for("geoip-ru"),
        );
        internet.geoip.apply_error_model(
            &GeoIpErrorModel::StaleWhois {
                country: "IN".into(),
                reported_at: toronto,
                fraction: 0.8,
            },
            tree.seed_for("geoip-in"),
        );
    }
    internet
}

/// Fraction of (speaker, prefix) pairs with a selected route — a generated
/// valley-free Internet should be ~fully reachable.
pub fn reachability(internet: &Internet) -> f64 {
    let prefixes: Vec<Prefix> = internet.prefixes().map(|p| p.prefix).collect();
    let mut have = 0usize;
    let mut total = 0usize;
    for info in internet.ases() {
        let Some(sp) = info.speaker else { continue };
        let speaker = internet.net.speaker(sp).expect("registered speaker");
        for p in &prefixes {
            total += 1;
            if speaker.best(p).is_some() {
                have += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        have as f64 / total as f64
    }
}

fn pick<'a, T>(rng: &mut SmallRng, slice: &'a [T]) -> &'a T {
    &slice[rng.gen_range(0..slice.len())]
}

fn region_hubs(hubs: &[CityId], region: Region) -> Vec<CityId> {
    let v: Vec<CityId> = hubs
        .iter()
        .copied()
        .filter(|c| city(*c).region == region)
        .collect();
    assert!(!v.is_empty(), "region {region} has no hub city");
    v
}

fn create_as(
    internet: &mut Internet,
    ty: AsType,
    region: Region,
    home: CityId,
    presence: Vec<CityId>,
) -> AsId {
    let asn = internet.alloc_asn();
    let speaker_id = internet.alloc_speaker_id();
    let mut speaker = Speaker::new(speaker_id, asn);
    speaker.set_best_external(false);
    internet.net.add_speaker(speaker);
    internet.add_as(AsInfo {
        id: internet.next_as_id(),
        asn,
        ty,
        region,
        home_city: home,
        presence,
        speaker: Some(speaker_id),
        routers: vec![(home, speaker_id)],
        dedicated: false,
        igp: None,
    })
}

/// Creates a global transit provider with one router per region of
/// presence: iBGP full mesh, IGP costs = inter-city great-circle km. This
/// is what makes hot-potato behave geographically inside Tier-1s — a
/// packet entering the provider in Europe exits at a European interconnect,
/// regardless of where the company is headquartered.
fn create_ltp(
    internet: &mut Internet,
    home_region: Region,
    home: CityId,
    presence: Vec<CityId>,
) -> AsId {
    let asn = internet.alloc_asn();
    // One router per region, sited at the region's first presence city
    // (presence lists hubs, so this is a major interconnection site).
    let mut routers: Vec<(CityId, vns_bgp::SpeakerId)> = Vec::new();
    for region in Region::ALL {
        let Some(&site) = presence.iter().find(|c| city(**c).region == region) else {
            continue;
        };
        let id = internet.alloc_speaker_id();
        let mut s = Speaker::new(id, asn);
        s.set_export_own_ibgp(true);
        internet.net.add_speaker(s);
        routers.push((site, id));
    }
    debug_assert!(!routers.is_empty(), "LTP with no presence");
    // Backbone IGP: full mesh between regional routers (every router a
    // node, so a one-region provider has one too).
    let mut igp = vns_bgp::IgpGraph::new();
    for &(_, r) in &routers {
        igp.add_node(r);
    }
    for i in 0..routers.len() {
        for j in (i + 1)..routers.len() {
            let km = Internet::city_km(routers[i].0, routers[j].0).max(1.0) as u64;
            igp.add_link(routers[i].1, routers[j].1, km);
        }
    }
    // iBGP full mesh.
    for i in 0..routers.len() {
        for j in (i + 1)..routers.len() {
            let cfg = vns_bgp::PeerConfig {
                kind: vns_bgp::PeerKind::Ibgp,
                import: Policy::GaoRexford,
            };
            internet.net.connect(routers[i].1, cfg, routers[j].1, cfg);
        }
    }
    let primary = routers
        .iter()
        .find(|(c, _)| *c == home)
        .or(routers.first())
        .map(|&(_, s)| s);
    let id = internet.add_as(AsInfo {
        id: internet.next_as_id(),
        asn,
        ty: AsType::Ltp,
        region: home_region,
        home_city: home,
        presence,
        speaker: primary,
        routers,
        dedicated: false,
        igp: None,
    });
    internet.set_igp(id, igp);
    id
}

/// Cities where both ASes are present, sorted for determinism.
fn shared_cities(internet: &Internet, a: AsId, b: AsId) -> Vec<CityId> {
    let pa = &internet.as_info(a).presence;
    let pb = &internet.as_info(b).presence;
    let mut out: Vec<CityId> = pa.iter().copied().filter(|c| pb.contains(c)).collect();
    out.sort();
    out.dedup();
    out
}

/// Customer `c` buys transit from `p`; interconnect at the geometrically
/// best presence pair (plus a second leg when both are multi-city).
fn connect_customer(internet: &mut Internet, c: AsId, p: AsId) {
    let pairs = best_city_pairs(internet, c, p, 2);
    for (cc, pc) in pairs {
        connect_at(internet, c, cc, p, pc, Relation::Provider);
    }
}

/// Generic connect: relation is `a`'s view of `b`, interconnecting at each
/// of `same_cities` (IXP peering: same metro on both sides).
fn connect(internet: &mut Internet, a: AsId, b: AsId, a_view: Relation, same_cities: &[CityId]) {
    for &cty in same_cities {
        connect_at(internet, a, cty, b, cty, a_view);
    }
}

/// Creates (or extends) the session between the routers of `a` and `b`
/// nearest the given interconnect cities, records the link geometry and
/// sets hot-potato session costs (haul from each router's own city to its
/// side of the interconnect).
fn connect_at(
    internet: &mut Internet,
    a: AsId,
    city_a: CityId,
    b: AsId,
    city_b: CityId,
    a_view: Relation,
) {
    let ra = internet.router_of(a, city_a).expect("a has routers");
    let rb = internet.router_of(b, city_b).expect("b has routers");
    internet
        .net
        .connect_ebgp(ra, rb, a_view, Policy::GaoRexford);
    internet.record_link(ra, city_a, rb, city_b);
    let ca = Internet::city_km(internet.city_of_router(ra).expect("registered"), city_a) as u64;
    let cb = Internet::city_km(internet.city_of_router(rb).expect("registered"), city_b) as u64;
    if let Some(s) = internet.net.speaker_mut(ra) {
        s.set_session_cost(rb, ca);
    }
    if let Some(s) = internet.net.speaker_mut(rb) {
        s.set_session_cost(ra, cb);
    }
}

/// The `k` geometrically closest presence-city pairs between two ASes.
fn best_city_pairs(internet: &Internet, a: AsId, b: AsId, k: usize) -> Vec<(CityId, CityId)> {
    let pa = internet.as_info(a).presence.clone();
    let pb = internet.as_info(b).presence.clone();
    let mut pairs: Vec<(f64, CityId, CityId)> = Vec::new();
    for &ca in &pa {
        for &cb in &pb {
            pairs.push((Internet::city_km(ca, cb), ca, cb));
        }
    }
    pairs.sort_by(|x, y| x.0.total_cmp(&y.0).then((x.1, x.2).cmp(&(y.1, y.2))));
    pairs
        .into_iter()
        .take(k)
        .map(|(_, ca, cb)| (ca, cb))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_and_converges() {
        let internet = generate(&TopoConfig::tiny(1)).expect("generation");
        assert!(internet.as_count() > 30, "ases {}", internet.as_count());
        let n_prefixes = internet.prefixes().count();
        assert!(n_prefixes > 50, "prefixes {n_prefixes}");
        let reach = reachability(&internet);
        assert!(reach > 0.995, "reachability {reach}");
    }

    #[test]
    fn deterministic() {
        let a = generate(&TopoConfig::tiny(5)).unwrap();
        let b = generate(&TopoConfig::tiny(5)).unwrap();
        assert_eq!(a.as_count(), b.as_count());
        let pa: Vec<_> = a.prefixes().map(|p| (p.prefix, p.city)).collect();
        let pb: Vec<_> = b.prefixes().map(|p| (p.prefix, p.city)).collect();
        assert_eq!(pa, pb);
        // Same route choices at a sample speaker.
        let sp = a.ases().find_map(|x| x.speaker).unwrap();
        for p in pa.iter().take(20) {
            let ra = a
                .net
                .speaker(sp)
                .and_then(|s| s.best(&p.0))
                .map(|c| c.attrs.as_path.clone());
            let rb = b
                .net
                .speaker(sp)
                .and_then(|s| s.best(&p.0))
                .map(|c| c.attrs.as_path.clone());
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopoConfig::tiny(1)).unwrap();
        let b = generate(&TopoConfig::tiny(2)).unwrap();
        let pa: Vec<_> = a.prefixes().map(|p| p.city).collect();
        let pb: Vec<_> = b.prefixes().map(|p| p.city).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn all_four_types_present() {
        let internet = generate(&TopoConfig::tiny(3)).unwrap();
        for ty in AsType::ALL {
            assert!(internet.ases().any(|a| a.ty == ty), "missing AS type {ty}");
        }
    }

    #[test]
    fn valley_free_paths() {
        // Every selected route's AS path must be valley-free: once the
        // path goes "down" (provider->customer) or sideways, it never goes
        // back "up".
        let internet = generate(&TopoConfig::tiny(4)).unwrap();
        // Relation lookup per (asn, asn): from the link records. Rebuild
        // from the ases' speakers.
        let mut rel = std::collections::BTreeMap::new();
        for a in internet.ases() {
            let Some(sa) = a.speaker else { continue };
            let sp = internet.net.speaker(sa).unwrap();
            for peer in sp.peer_ids() {
                if let Some(cfg) = sp.peer_config(peer) {
                    if let vns_bgp::PeerKind::Ebgp { peer_as, relation } = cfg.kind {
                        rel.insert((a.asn, peer_as), relation);
                    }
                }
            }
        }
        let mut checked = 0;
        for a in internet.ases().take(30) {
            let Some(sa) = a.speaker else { continue };
            let sp = internet.net.speaker(sa).unwrap();
            for prefix in internet.prefixes().take(50) {
                let Some(best) = sp.best(&prefix.prefix) else {
                    continue;
                };
                let mut path = vec![a.asn];
                path.extend(best.attrs.as_path.iter().copied());
                // Classify each step: Up (to provider), Down (to customer),
                // Flat (peer).
                let mut gone_down = false;
                for w in path.windows(2) {
                    let Some(r) = rel.get(&(w[0], w[1])) else {
                        continue;
                    };
                    match r {
                        Relation::Provider => {
                            assert!(!gone_down, "valley in path {path:?}");
                        }
                        Relation::Peer | Relation::Customer => {
                            gone_down = true;
                        }
                    }
                }
                checked += 1;
            }
        }
        assert!(checked > 100, "checked {checked}");
    }

    #[test]
    fn geoip_errors_present_when_enabled() {
        let internet = generate(&TopoConfig::tiny(6)).unwrap();
        // Some prefix must have nonzero GeoIP error (at least the jitter).
        let with_err = internet
            .prefixes()
            .filter(|p| internet.geoip.error_km(p.prefix).unwrap_or(0.0) > 1.0)
            .count();
        assert!(with_err > 0, "expected jittered geoip entries");

        let mut cfg = TopoConfig::tiny(6);
        cfg.geoip_errors = false;
        let clean = generate(&cfg).unwrap();
        let with_err = clean
            .prefixes()
            .filter(|p| clean.geoip.error_km(p.prefix).unwrap_or(0.0) > 1.0)
            .count();
        assert_eq!(with_err, 0, "no errors when disabled");
    }

    #[test]
    fn ltp_asymmetry_for_fig5() {
        // The first LTP must be NA-homed (the "upstream 1" of Fig 5).
        let internet = generate(&TopoConfig::tiny(9)).unwrap();
        let first_ltp = internet.ases().find(|a| a.ty == AsType::Ltp).unwrap();
        assert_eq!(first_ltp.region, Region::NorthAmerica);
    }
}
