//! Data-plane path resolution.
//!
//! Given a converged control plane, this module expands a (source router,
//! entry city, destination IP) triple into the concrete sequence of hops a
//! packet crosses:
//!
//! * at each speaker the destination is matched against its Loc-RIB
//!   (longest prefix first, so VNS-internal more-specifics injected by the
//!   management interface steer correctly);
//! * an eBGP step hauls the packet across the current AS from its entry
//!   city to the hot-potato-chosen interconnect city, then over the
//!   cross-connect;
//! * an iBGP step walks the AS's IGP shortest path towards the egress
//!   border router, emitting one hop per internal link (VNS's dedicated L2
//!   topology is followed link by link, so delay reflects the real cluster
//!   routing, e.g. Amsterdam→Sydney via Singapore);
//! * at the origin AS the packet hauls to the prefix's city and crosses
//!   the last mile.

use vns_bgp::{Asn, PathError, RouteSource, SpeakerId};
use vns_geo::{CityId, Region};

use crate::astype::AsType;
use crate::internet::Internet;

/// What kind of infrastructure a hop crosses (selects its loss/delay
/// profile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HopKind {
    /// A haul inside one AS between two of its cities.
    IntraAs {
        /// The AS.
        asn: Asn,
        /// Its type.
        ty: AsType,
        /// Region paired with the start city's region to pick the hop's
        /// shared-transit profile. [`resolve_path`] sets it to the region
        /// of the hop's *destination* city — but [`ResolvedPath::reversed`]
        /// copies `kind` while swapping the cities, so on a reversed hop
        /// this is the region of the hop's *origin* and the profile rule
        /// sees (B, B) where the forward leg saw (A, B): the return leg of
        /// an NA→AP haul takes the hot AP profile where the forward leg
        /// takes the milder NA one. A known asymmetry (ROADMAP item 7);
        /// closing it moves every packet artefact.
        region: Region,
        /// True on well-provisioned dedicated infrastructure (VNS L2).
        dedicated: bool,
    },
    /// A cross-connect between two ASes (IXP port / private interconnect).
    InterAs {
        /// Region of the interconnect.
        region: Region,
    },
    /// The access segment from the origin AS's aggregation point to the
    /// destination host.
    LastMile {
        /// Destination AS type.
        ty: AsType,
        /// Destination region.
        region: Region,
    },
}

/// One resolved hop.
#[derive(Debug, Clone)]
pub struct ResolvedHop {
    /// Profile selector.
    pub kind: HopKind,
    /// Start city.
    pub from_city: CityId,
    /// End city.
    pub to_city: CityId,
    /// Great-circle length, km.
    pub km: f64,
    /// Diagnostic label, stable across flows on the same hop (shared
    /// blackout schedules key on it).
    pub label: String,
}

/// A fully resolved path.
#[derive(Debug, Clone)]
pub struct ResolvedPath {
    /// Hops in order.
    pub hops: Vec<ResolvedHop>,
    /// Routers whose Loc-RIBs were consulted (diagnostics; first is the
    /// source).
    pub routers: Vec<SpeakerId>,
}

impl ResolvedPath {
    /// Total great-circle length, km.
    pub fn total_km(&self) -> f64 {
        self.hops.iter().map(|h| h.km).sum()
    }

    /// Number of resolved hops (`hops.len()`: intra-AS hauls, backbone
    /// links, cross-connects and last miles each count one).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The same path traversed in the opposite direction (echo replies,
    /// return media legs). Hop labels are preserved so direction pairs
    /// share blackout schedules — a convergence event takes out both
    /// directions, as in reality.
    pub fn reversed(&self) -> ResolvedPath {
        let hops = self
            .hops
            .iter()
            .rev()
            .map(|h| ResolvedHop {
                kind: h.kind,
                from_city: h.to_city,
                to_city: h.from_city,
                km: h.km,
                label: h.label.clone(),
            })
            .collect();
        let routers = self.routers.iter().rev().copied().collect();
        ResolvedPath { hops, routers }
    }
}

/// Speed factor applied to intra-AS hauls of AS-granularity networks whose
/// internal topology we don't model: real paths are not great circles.
const EXTERNAL_PATH_INFLATION: f64 = 1.3;

/// Resolves the path from `start` (a BGP speaker: an external AS or a VNS
/// router), entering that AS at `entry_city`, towards `dst_ip`. Whether
/// the path ends with a last-mile hop is the destination prefix's own
/// [`crate::PrefixInfo::last_mile`] flag (false for infrastructure such as
/// the echo servers inside PoPs).
///
/// The walk takes at most [`vns_bgp::BgpNet::hop_limit`] steps — the bound
/// [`Internet::converge`] derives from the world's size, shared with
/// [`vns_bgp::BgpNet::forwarding_path`] — and reports exhaustion as
/// [`PathError::HopLimitExceeded`], never as a loop: only a revisited
/// router is a [`PathError::ForwardingLoop`].
pub fn resolve_path(
    internet: &Internet,
    start: SpeakerId,
    entry_city: CityId,
    dst_ip: u32,
) -> Result<ResolvedPath, PathError> {
    let mut hops: Vec<ResolvedHop> = Vec::new();
    let mut routers = vec![start];
    let mut cur = start;
    let mut cur_city = entry_city;
    // Longest-match ceiling: lowered when we fall through a locally
    // injected steering more-specific onto its covering route.
    let mut max_len: Option<u8> = None;

    let hop_limit = internet.net.hop_limit();
    for _ in 0..hop_limit {
        let speaker = internet
            .net
            .speaker(cur)
            .ok_or(PathError::NoSuchSpeaker(cur))?;
        let (matched, cand) = speaker
            .lookup_up_to(dst_ip, max_len)
            .ok_or(PathError::NoRoute(cur))?;
        let cur_as = internet
            .as_of_speaker(cur)
            .ok_or(PathError::NoSuchSpeaker(cur))?;
        let cur_info = internet.as_info(cur_as);

        match cand.source {
            RouteSource::Local => {
                let Some(pinfo) = internet.lookup_prefix(dst_ip) else {
                    // Locally originated but unregistered (pure control-
                    // plane prefixes): terminate at the current city.
                    return Ok(ResolvedPath { hops, routers });
                };
                if pinfo.origin != cur_as {
                    // This speaker locally injects a steering more-specific
                    // for someone else's prefix (the management interface's
                    // Sec 3.2 mechanism). It resolves the injected route
                    // over its *own external* route to the covering prefix
                    // ("given that it has a route to the less-specific
                    // prefix") — using the AS-wide best would bounce the
                    // traffic straight back to another PoP.
                    if matched.len() == 0 {
                        return Err(PathError::NoRoute(cur));
                    }
                    let covering = speaker
                        .lookup_up_to(dst_ip, Some(matched.len()))
                        .map(|(p, _)| p)
                        .ok_or(PathError::NoRoute(cur))?;
                    if let Some(ext) = speaker.best_external_route(&covering) {
                        if let RouteSource::Ebgp { peer, .. } = ext.source {
                            let links = internet.links_between(cur, peer);
                            let (near, far) = links
                                .iter()
                                .copied()
                                .min_by(|(a, _), (b, _)| {
                                    Internet::city_km(cur_city, *a)
                                        .total_cmp(&Internet::city_km(cur_city, *b))
                                })
                                .ok_or(PathError::NoRoute(cur))?;
                            if near != cur_city {
                                hops.push(intra_hop(cur_info, cur_city, near));
                            }
                            hops.push(ResolvedHop {
                                kind: HopKind::InterAs {
                                    region: vns_geo::city(far).region,
                                },
                                from_city: near,
                                to_city: far,
                                km: Internet::city_km(near, far).max(1.0),
                                label: format!(
                                    "ix:{}:{}@{}",
                                    cur_info.asn,
                                    peer,
                                    vns_geo::city(far).name
                                ),
                            });
                            if routers.contains(&peer) {
                                return Err(PathError::ForwardingLoop);
                            }
                            routers.push(peer);
                            cur = peer;
                            cur_city = far;
                            max_len = None;
                            continue;
                        }
                    }
                    // No external route of its own: fall through onto the
                    // covering route (loop detection catches pathologies).
                    max_len = Some(matched.len());
                    continue;
                }
                if pinfo.anycast {
                    // Anycast: the service instance is wherever the route
                    // led — terminate here.
                    return Ok(ResolvedPath { hops, routers });
                }
                // Arrived at the origin AS: haul to the prefix city, then
                // the last mile.
                if pinfo.city != cur_city {
                    hops.push(intra_hop(cur_info, cur_city, pinfo.city));
                }
                if pinfo.last_mile {
                    let region = vns_geo::city(pinfo.city).region;
                    hops.push(ResolvedHop {
                        kind: HopKind::LastMile {
                            ty: cur_info.ty,
                            region,
                        },
                        from_city: pinfo.city,
                        to_city: pinfo.city,
                        km: 30.0,
                        label: format!("lastmile:{}:{}", cur_info.asn, pinfo.prefix),
                    });
                }
                return Ok(ResolvedPath { hops, routers });
            }
            RouteSource::Ebgp { peer, .. } => {
                // Hot-potato link choice among parallel interconnects.
                let links = internet.links_between(cur, peer);
                let (near, far) = links
                    .iter()
                    .copied()
                    .min_by(|(a, _), (b, _)| {
                        let da = Internet::city_km(cur_city, *a);
                        let db = Internet::city_km(cur_city, *b);
                        da.total_cmp(&db)
                    })
                    .ok_or(PathError::NoRoute(cur))?;
                if near != cur_city {
                    hops.push(intra_hop(cur_info, cur_city, near));
                }
                let ix_region = vns_geo::city(far).region;
                hops.push(ResolvedHop {
                    kind: HopKind::InterAs { region: ix_region },
                    from_city: near,
                    to_city: far,
                    km: Internet::city_km(near, far).max(1.0),
                    label: format!("ix:{}:{}@{}", cur_info.asn, peer, vns_geo::city(far).name),
                });
                if routers.contains(&peer) {
                    return Err(PathError::ForwardingLoop);
                }
                routers.push(peer);
                cur = peer;
                cur_city = far;
                max_len = None;
            }
            RouteSource::Ibgp { .. } => {
                // Walk the IGP towards the egress border router, one
                // internal link per hop.
                let nh = cand.attrs.next_hop;
                if nh == cur || routers.contains(&nh) {
                    return Err(PathError::ForwardingLoop);
                }
                let igp = cur_info.igp.as_ref().ok_or(PathError::NoRoute(cur))?;
                let walk = igp.shortest_path(cur, nh).ok_or(PathError::NoRoute(cur))?;
                let mut city_cursor = cur_city;
                for w in walk.windows(2) {
                    let to_city = internet
                        .city_of_router(w[1])
                        .ok_or(PathError::NoSuchSpeaker(w[1]))?;
                    if to_city != city_cursor {
                        hops.push(backbone_hop(cur_info, city_cursor, to_city));
                        city_cursor = to_city;
                    }
                    // Record every router the IGP walk crosses, so the
                    // router sequence mirrors the physical circuit chain
                    // (per-circuit load attribution depends on it).
                    routers.push(w[1]);
                }
                cur = nh;
                cur_city = city_cursor;
                max_len = None;
            }
        }
    }
    Err(PathError::HopLimitExceeded { limit: hop_limit })
}

/// Resolves a path that starts at a *host* inside `src_prefix` (the host's
/// last mile is crossed first, then its origin AS forwards).
pub fn resolve_from_prefix(
    internet: &Internet,
    src_prefix_ip: u32,
    dst_ip: u32,
) -> Result<ResolvedPath, PathError> {
    let pinfo = internet
        .lookup_prefix(src_prefix_ip)
        .ok_or(PathError::NoRoute(SpeakerId(0)))?;
    let origin = internet.as_info(pinfo.origin);
    let speaker = internet
        .router_of(pinfo.origin, pinfo.city)
        .ok_or(PathError::NoSuchSpeaker(SpeakerId(0)))?;
    let mut first_hops = Vec::new();
    if pinfo.last_mile {
        let region = vns_geo::city(pinfo.city).region;
        first_hops.push(ResolvedHop {
            kind: HopKind::LastMile {
                ty: origin.ty,
                region,
            },
            from_city: pinfo.city,
            to_city: pinfo.city,
            km: 30.0,
            label: format!("lastmile:{}:{}", origin.asn, pinfo.prefix),
        });
    }
    let mut rest = resolve_path(internet, speaker, pinfo.city, dst_ip)?;
    first_hops.append(&mut rest.hops);
    Ok(ResolvedPath {
        hops: first_hops,
        routers: rest.routers,
    })
}

/// An intra-AS haul on shared (non-dedicated) infrastructure.
fn intra_hop(info: &crate::internet::AsInfo, from: CityId, to: CityId) -> ResolvedHop {
    let km = Internet::city_km(from, to) * EXTERNAL_PATH_INFLATION;
    ResolvedHop {
        kind: HopKind::IntraAs {
            asn: info.asn,
            ty: info.ty,
            region: vns_geo::city(to).region,
            dedicated: info.dedicated,
        },
        from_city: from,
        to_city: to,
        km,
        label: format!(
            "intra:{}:{}->{}",
            info.asn,
            vns_geo::city(from).name,
            vns_geo::city(to).name
        ),
    }
}

/// One backbone link inside a multi-router AS. For VNS these are the
/// dedicated leased wavelengths (no inflation, near-lossless profile); for
/// a Tier-1's backbone they are shared circuits.
fn backbone_hop(info: &crate::internet::AsInfo, from: CityId, to: CityId) -> ResolvedHop {
    let inflation = if info.dedicated { 1.0 } else { 1.15 };
    ResolvedHop {
        kind: HopKind::IntraAs {
            asn: info.asn,
            ty: info.ty,
            region: vns_geo::city(to).region,
            dedicated: info.dedicated,
        },
        from_city: from,
        to_city: to,
        km: Internet::city_km(from, to) * inflation,
        label: format!(
            "{}:{}:{}->{}",
            if info.dedicated { "l2" } else { "bb" },
            info.asn,
            vns_geo::city(from).name,
            vns_geo::city(to).name
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopoConfig;
    use crate::gen::generate;
    use crate::internet::{AsId, AsInfo, PrefixInfo};
    use vns_bgp::{Policy, Prefix, Relation, Speaker};

    /// A provider chain of `n` single-router ASes, all in one city, with one
    /// prefix originated by the last: from the first AS every packet takes
    /// `n - 1` eBGP steps plus the delivery.
    fn chain_world(n: u32) -> (Internet, SpeakerId, CityId, u32) {
        let (cid, c) = vns_geo::cities::city_by_name("Amsterdam").expect("known city");
        let mut internet = Internet::new();
        let mut speakers = Vec::new();
        for i in 0..n {
            let sp = internet.alloc_speaker_id();
            let asn = internet.alloc_asn();
            internet.net.add_speaker(Speaker::new(sp, asn));
            internet.add_as(AsInfo {
                id: AsId(i),
                asn,
                ty: AsType::Stp,
                region: c.region,
                home_city: cid,
                presence: vec![cid],
                speaker: Some(sp),
                routers: vec![(cid, sp)],
                prefixes: vec![],
                dedicated: false,
                igp: None,
            });
            if let Some(&prev) = speakers.last() {
                internet
                    .net
                    .connect_ebgp(prev, sp, Relation::Customer, Policy::GaoRexford);
                internet.record_link(prev, cid, sp, cid);
            }
            speakers.push(sp);
        }
        let prefix: Prefix = "10.0.0.0/8".parse().expect("prefix");
        internet.add_prefix(
            PrefixInfo {
                prefix,
                origin: AsId(n - 1),
                city: cid,
                location: c.location,
                last_mile: true,
                anycast: false,
            },
            "NL",
            c.location,
        );
        internet.net.originate(speakers[n as usize - 1], prefix);
        internet.converge(10_000_000, 1).expect("chain converges");
        (internet, speakers[0], cid, prefix.first_host())
    }

    #[test]
    fn long_legal_paths_resolve_and_exhaustion_is_typed() {
        // 80 ASes: 79 eBGP steps, past the old fixed bound of 64, inside
        // the bound `converge` derives (2·80 + 2).
        let (mut internet, start, city, ip) = chain_world(80);
        assert_eq!(internet.net.hop_limit(), 162);
        let path = resolve_path(&internet, start, city, ip).expect("long path resolves");
        assert_eq!(path.routers.len(), 80);
        assert!(matches!(
            path.hops.last().map(|h| h.kind),
            Some(HopKind::LastMile { .. })
        ));
        // Running out of steps is not a loop.
        internet.net.set_hop_limit(40);
        assert_eq!(
            resolve_path(&internet, start, city, ip).err(),
            Some(PathError::HopLimitExceeded { limit: 40 })
        );
    }

    #[test]
    fn resolves_paths_between_generated_prefixes() {
        let internet = generate(&TopoConfig::tiny(7)).expect("generation succeeds");
        let prefixes: Vec<u32> = internet.prefixes().map(|p| p.prefix.first_host()).collect();
        assert!(prefixes.len() > 20);
        // Resolve a batch of host-to-host paths; all must terminate.
        let mut resolved = 0;
        for (i, &src) in prefixes.iter().enumerate().take(20) {
            let dst = prefixes[(i * 7 + 13) % prefixes.len()];
            if src == dst {
                continue;
            }
            let path = resolve_from_prefix(&internet, src, dst).expect("path resolves");
            assert!(!path.hops.is_empty());
            // Both endpoints' last miles must be present.
            let lm = path
                .hops
                .iter()
                .filter(|h| matches!(h.kind, HopKind::LastMile { .. }))
                .count();
            assert_eq!(lm, 2, "src and dst last miles");
            resolved += 1;
        }
        assert!(resolved >= 15);
    }

    #[test]
    fn paths_have_sane_lengths() {
        let internet = generate(&TopoConfig::tiny(8)).expect("generation succeeds");
        let prefixes: Vec<&crate::internet::PrefixInfo> = internet.prefixes().collect();
        let far_pair = prefixes
            .iter()
            .flat_map(|a| prefixes.iter().map(move |b| (a, b)))
            .max_by(|(a1, b1), (a2, b2)| {
                let d1 = a1.location.distance_km(&b1.location);
                let d2 = a2.location.distance_km(&b2.location);
                d1.partial_cmp(&d2).unwrap()
            })
            .unwrap();
        let (a, b) = far_pair;
        let gc = a.location.distance_km(&b.location);
        let path =
            resolve_from_prefix(&internet, a.prefix.first_host(), b.prefix.first_host()).unwrap();
        // The routed path can't be shorter than ~the great circle and
        // shouldn't exceed a generous stretch bound.
        assert!(
            path.total_km() >= gc * 0.6,
            "path {} vs gc {}",
            path.total_km(),
            gc
        );
        assert!(path.total_km() <= gc * 4.0 + 4000.0);
    }
}
