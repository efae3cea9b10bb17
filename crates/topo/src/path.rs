//! Data-plane path resolution.
//!
//! Given a converged control plane, this module expands a (source router,
//! entry city, destination IP) triple into the concrete sequence of hops a
//! packet crosses:
//!
//! * at each speaker the destination is matched against its Loc-RIB
//!   (longest prefix first, so VNS-internal more-specifics injected by the
//!   management interface steer correctly), over the list of the network's
//!   prefixes containing the destination that the walk builds once;
//! * an eBGP step hauls the packet across the current AS from its entry
//!   city to the hot-potato-chosen interconnect city, then over the
//!   cross-connect;
//! * an iBGP step walks the AS's IGP shortest path towards the egress
//!   border router, emitting one hop per internal link (VNS's dedicated L2
//!   topology is followed link by link, so delay reflects the real cluster
//!   routing, e.g. Amsterdam→Sydney via Singapore);
//! * at the origin AS the packet hauls to the prefix's city and crosses
//!   the last mile.

use std::fmt;

use vns_bgp::{Asn, Covering, PathError, Prefix, RouteSource, Speaker, SpeakerId};
use vns_geo::{CityId, Region};
use vns_netsim::LabelHash;

use crate::astype::AsType;
use crate::internet::{AsId, Internet, PrefixInfo};

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
        /// takes the milder NA one. A known asymmetry (ROADMAP, *One
        /// reviewed artefact diff*); closing it moves every packet
        /// artefact.
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

/// A hop's identity: the ids that name the infrastructure it crosses, one
/// variant per kind of hop the resolver and the service plane build.
///
/// Labels are RNG stream names (blackout schedules and per-flow loss
/// seeds), but only through their rendered text: [`HopLabel::write_to`]
/// is the only renderer, and both the seed hash ([`LabelHash`]) and
/// [`fmt::Display`] are writers it writes into, so a seed hashes exactly
/// the text the label prints. Every variant's text starts with its own tag
/// and city names are unique, so two distinct labels never render the same
/// text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopLabel {
    /// `lastmile:{asn}:{prefix}`: the access segment of `prefix`, whose
    /// origin is `asn`.
    LastMile {
        /// The origin AS.
        asn: Asn,
        /// The host prefix.
        prefix: Prefix,
    },
    /// `ix:{asn}:{peer}@{city}`: the cross-connect from `asn` to the
    /// speaker `peer`, landing in `city`.
    Ix {
        /// The AS the packet leaves.
        asn: Asn,
        /// The speaker across the session.
        peer: SpeakerId,
        /// The far end of the interconnect.
        city: CityId,
    },
    /// `intra:{asn}:{from}->{to}`: a haul across an AS whose internal
    /// topology is not modelled.
    Intra {
        /// The AS.
        asn: Asn,
        /// Start city.
        from: CityId,
        /// End city.
        to: CityId,
    },
    /// `l2:{asn}:{from}->{to}` when `dedicated`, else
    /// `bb:{asn}:{from}->{to}`: one backbone link of a multi-router AS.
    Backbone {
        /// The AS.
        asn: Asn,
        /// VNS's dedicated L2 circuits (`l2`) or shared circuits (`bb`).
        dedicated: bool,
        /// Start city.
        from: CityId,
        /// End city.
        to: CityId,
    },
    /// `transit-port:{asn}:{upstream}@{city}`: a PoP's access leg to its
    /// primary upstream's port in `city`.
    TransitPort {
        /// The overlay's AS.
        asn: Asn,
        /// The upstream's AS.
        upstream: Asn,
        /// The city of the transit port.
        city: CityId,
    },
    /// `exit:{asn}:{peer}@{city}`: a PoP's exit over its best local
    /// external session.
    Exit {
        /// The overlay's AS.
        asn: Asn,
        /// The speaker across the session.
        peer: SpeakerId,
        /// The far end of the interconnect.
        city: CityId,
    },
    /// `spill:PoP{from}->PoP{to}`: the dedicated L2 splice leg a spilled
    /// call rides between two PoPs, by their raw PoP ids.
    Spill {
        /// The landing PoP.
        from: u8,
        /// The admitting PoP.
        to: u8,
    },
}

/// Where [`HopLabel::write_to`] puts a label's text: fixed tags and city
/// names as text, ids as decimal integers.
pub trait LabelWriter {
    /// Appends `s`.
    fn text(&mut self, s: &str);
    /// Appends `n` in decimal.
    fn uint(&mut self, n: u64);
}

impl LabelWriter for LabelHash {
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn uint(&mut self, n: u64) {
        LabelHash::uint(self, n);
    }
}

impl HopLabel {
    /// Writes the label's text into `w`, each id's number in place of its
    /// own `Display` (`AS{n}`, `R{n}`, `PoP{n}`) and a prefix as
    /// `{a}.{b}.{c}.{d}/{len}`: the bytes the seven construction sites
    /// once formatted, without a formatting pass.
    pub fn write_to<W: LabelWriter>(&self, w: &mut W) {
        match *self {
            HopLabel::LastMile { asn, prefix } => {
                head(w, "lastmile", asn);
                let a = prefix.addr();
                w.uint((a >> 24).into());
                for shift in [16, 8, 0] {
                    w.text(".");
                    w.uint(((a >> shift) & 0xff).into());
                }
                w.text("/");
                w.uint(prefix.len().into());
            }
            HopLabel::Ix { asn, peer, city } => {
                head(w, "ix", asn);
                id_at(w, "R", peer.0, city);
            }
            HopLabel::Intra { asn, from, to } => {
                head(w, "intra", asn);
                span(w, from, to);
            }
            HopLabel::Backbone {
                asn,
                dedicated,
                from,
                to,
            } => {
                head(w, if dedicated { "l2" } else { "bb" }, asn);
                span(w, from, to);
            }
            HopLabel::TransitPort {
                asn,
                upstream,
                city,
            } => {
                head(w, "transit-port", asn);
                id_at(w, "AS", upstream.0, city);
            }
            HopLabel::Exit { asn, peer, city } => {
                head(w, "exit", asn);
                id_at(w, "R", peer.0, city);
            }
            HopLabel::Spill { from, to } => {
                w.text("spill:PoP");
                w.uint(from.into());
                w.text("->PoP");
                w.uint(to.into());
            }
        }
    }
}

/// `{tag}:AS{asn}:`, the head of every label but the splice leg's.
fn head<W: LabelWriter>(w: &mut W, tag: &str, asn: Asn) {
    w.text(tag);
    w.text(":AS");
    w.uint(asn.0.into());
    w.text(":");
}

/// `{from}->{to}` by city name.
fn span<W: LabelWriter>(w: &mut W, from: CityId, to: CityId) {
    w.text(vns_geo::city(from).name);
    w.text("->");
    w.text(vns_geo::city(to).name);
}

/// `{kind}{id}@{city}`: a speaker or AS id landing in a named city.
fn id_at<W: LabelWriter>(w: &mut W, kind: &str, id: u32, city: CityId) {
    w.text(kind);
    w.uint(id.into());
    w.text("@");
    w.text(vns_geo::city(city).name);
}

/// [`fmt::Display`]'s [`LabelWriter`]: a formatter that keeps the first
/// write error.
struct FmtWriter<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    result: fmt::Result,
}

impl LabelWriter for FmtWriter<'_, '_> {
    fn text(&mut self, s: &str) {
        if self.result.is_ok() {
            self.result = self.f.write_str(s);
        }
    }

    fn uint(&mut self, n: u64) {
        if self.result.is_ok() {
            self.result = write!(self.f, "{n}");
        }
    }
}

impl fmt::Display for HopLabel {
    /// The text [`HopLabel::write_to`] writes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = FmtWriter { f, result: Ok(()) };
        self.write_to(&mut w);
        w.result
    }
}

/// One resolved hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedHop {
    /// Profile selector.
    pub kind: HopKind,
    /// Start city.
    pub from_city: CityId,
    /// End city.
    pub to_city: CityId,
    /// Great-circle length, km.
    pub km: f64,
    /// The hop's identity, stable across flows on the same hop (shared
    /// blackout schedules key on it, and per-flow seeds hash its text).
    pub label: HopLabel,
}

/// A fully resolved path.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPath {
    /// Hops in order.
    pub hops: Vec<ResolvedHop>,
    /// Every router the packet crosses, source first: the ones whose
    /// Loc-RIBs were consulted and the ones an IGP walk passes between
    /// them.
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
            .map(|&h| ResolvedHop {
                from_city: h.to_city,
                to_city: h.from_city,
                ..h
            })
            .collect();
        let routers = self.routers.iter().rev().copied().collect();
        ResolvedPath { hops, routers }
    }
}

/// Speed factor applied to intra-AS hauls of AS-granularity networks whose
/// internal topology we don't model: real paths are not great circles.
const EXTERNAL_PATH_INFLATION: f64 = 1.3;

/// Where one speaker sends a packet: the answer of
/// [`forwarding_decision`], before the caller checks that the named next
/// router exists and is reachable.
#[derive(Debug, Clone, Copy)]
pub enum Forward<'a> {
    /// The matched route is locally originated and the packet ends here:
    /// at the origin AS (or, for an anycast prefix, at whichever instance
    /// the routes led to) of the registered prefix given, or — `None` — of
    /// a pure control-plane prefix nobody registered.
    Deliver(Option<&'a PrefixInfo>),
    /// Over the eBGP session to this peer.
    Ebgp(SpeakerId),
    /// Across the AS towards this iBGP next hop.
    Ibgp(SpeakerId),
    /// The longest match is a steering more-specific with neither an
    /// external route of this speaker's own nor a covering route under it.
    NoRoute,
}

/// The forwarding decision of `speaker` (a router of AS `cur_as`; `None`
/// when the world does not know the speaker, whose Loc-RIB is still read so
/// that "holds no route" keeps precedence over "unknown") for the
/// destination address `covering` lists the network's prefixes of (see
/// [`vns_bgp::BgpNet::covering`]), whose covering registered prefix is
/// `pinfo`: the longest Loc-RIB match, except that a *locally originated*
/// route for somebody else's prefix is the management interface's steering
/// more-specific (Sec 3.2), which the speaker resolves over its **own
/// external** route to the covering prefix ("given that it has a route to
/// the less-specific prefix" — the AS-wide best would bounce the traffic
/// straight back to another PoP) and, having none, falls through onto the
/// covering route itself by lowering the longest-match ceiling. The ceiling
/// decreases every round, so the loop terminates. `None` when the speaker
/// holds no covering route at all.
///
/// The caller builds `covering` once per address and asks every router on
/// the way with it, so a walk probes the network's prefix table once, not
/// once per router.
pub fn forwarding_decision<'a>(
    speaker: &Speaker,
    cur_as: Option<AsId>,
    covering: &Covering,
    pinfo: Option<&'a PrefixInfo>,
) -> Option<Forward<'a>> {
    let mut ceiling: Option<u8> = None;
    while let Some((matched, _, cand)) = speaker.lookup_in(covering, ceiling) {
        // Whatever this match falls through onto lies strictly under it.
        ceiling = Some(matched.len());
        match cand.source {
            RouteSource::Ebgp { peer, .. } => return Some(Forward::Ebgp(peer)),
            RouteSource::Ibgp { .. } => return Some(Forward::Ibgp(cand.attrs.next_hop)),
            RouteSource::Local => {
                if pinfo.is_none_or(|pi| Some(pi.origin) == cur_as) {
                    return Some(Forward::Deliver(pinfo));
                }
                let own_exit = speaker
                    .lookup_in(covering, ceiling)
                    .and_then(|(_, under, _)| speaker.best_external_route(under));
                if let Some(RouteSource::Ebgp { peer, .. }) = own_exit.map(|c| c.source) {
                    return Some(Forward::Ebgp(peer));
                }
            }
        }
    }
    // Nothing at all, or nothing under a steering more-specific.
    ceiling.map(|_| Forward::NoRoute)
}

/// Resolves the path from `start` (a BGP speaker: an external AS or a VNS
/// router), entering that AS at `entry_city`, towards `dst_ip`: one
/// [`forwarding_decision`] per router, turned into hops. Whether the path
/// ends with a last-mile hop is the destination prefix's own
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
    // The routers that took a forwarding decision. A loop is one of them
    // deciding twice; a router an IGP walk merely crossed may still be the
    // next hop of a later decision (a steering PoP's second border falling
    // through onto a remote egress that hands the packet to the first).
    let mut decided = vec![start];
    let mut cur = start;
    let mut cur_city = entry_city;
    // Both prefix tables probed once per path, not once per router.
    let pinfo = internet.lookup_prefix(dst_ip);
    let covering = internet.net.covering(dst_ip);

    let hop_limit = internet.net.hop_limit();
    for _ in 0..hop_limit {
        let speaker = internet
            .net
            .speaker(cur)
            .ok_or(PathError::NoSuchSpeaker(cur))?;
        let cur_as = internet.as_of_speaker(cur);
        let forward = forwarding_decision(speaker, cur_as, &covering, pinfo)
            .ok_or(PathError::NoRoute(cur))?;
        let cur_info = internet.as_info(cur_as.ok_or(PathError::NoSuchSpeaker(cur))?);

        match forward {
            Forward::NoRoute => return Err(PathError::NoRoute(cur)),
            // Unregistered (pure control-plane) prefixes terminate at the
            // current city; an anycast service instance is wherever the
            // route led.
            Forward::Deliver(None) => return Ok(ResolvedPath { hops, routers }),
            Forward::Deliver(Some(pinfo)) if pinfo.anycast => {
                return Ok(ResolvedPath { hops, routers })
            }
            Forward::Deliver(Some(pinfo)) => {
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
                        label: HopLabel::LastMile {
                            asn: cur_info.asn,
                            prefix: pinfo.prefix,
                        },
                    });
                }
                return Ok(ResolvedPath { hops, routers });
            }
            Forward::Ebgp(peer) => {
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
                    label: HopLabel::Ix {
                        asn: cur_info.asn,
                        peer,
                        city: far,
                    },
                });
                if decided.contains(&peer) {
                    return Err(PathError::ForwardingLoop);
                }
                routers.push(peer);
                decided.push(peer);
                cur = peer;
                cur_city = far;
            }
            Forward::Ibgp(nh) => {
                // Walk the IGP towards the egress border router, one
                // internal link per hop.
                if decided.contains(&nh) {
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
                decided.push(nh);
                cur = nh;
                cur_city = city_cursor;
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
            label: HopLabel::LastMile {
                asn: origin.asn,
                prefix: pinfo.prefix,
            },
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
        label: HopLabel::Intra {
            asn: info.asn,
            from,
            to,
        },
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
        label: HopLabel::Backbone {
            asn: info.asn,
            dedicated: info.dedicated,
            from,
            to,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopoConfig;
    use crate::gen::generate;
    use crate::internet::{AsId, AsInfo, PrefixInfo};
    use vns_bgp::{Policy, Prefix, Relation, Speaker};

    /// Registers a shared-infrastructure AS whose routers all sit in
    /// Amsterdam and adds a speaker for each to the control plane.
    fn add_stub_as(internet: &mut Internet, routers: usize) -> (AsId, Vec<SpeakerId>) {
        let (cid, c) = vns_geo::cities::city_by_name("Amsterdam").expect("known city");
        let id = internet.next_as_id();
        let asn = internet.alloc_asn();
        let speakers: Vec<SpeakerId> = (0..routers)
            .map(|_| {
                let sp = internet.alloc_speaker_id();
                internet.net.add_speaker(Speaker::new(sp, asn));
                sp
            })
            .collect();
        internet.add_as(AsInfo {
            id,
            asn,
            ty: AsType::Stp,
            region: c.region,
            home_city: cid,
            presence: vec![cid],
            speaker: (routers == 1).then(|| speakers[0]),
            routers: speakers.iter().map(|&sp| (cid, sp)).collect(),
            dedicated: false,
            igp: None,
        });
        (id, speakers)
    }

    /// Registers `prefix` in Amsterdam as `origin`'s.
    fn register(internet: &mut Internet, prefix: &str, origin: AsId, anycast: bool) -> Prefix {
        let (cid, c) = vns_geo::cities::city_by_name("Amsterdam").expect("known city");
        let prefix: Prefix = prefix.parse().expect("prefix");
        internet.add_prefix(
            PrefixInfo {
                prefix,
                origin,
                city: cid,
                location: c.location,
                last_mile: true,
                anycast,
            },
            "NL",
            c.location,
        );
        prefix
    }

    /// A provider chain of `n` single-router ASes, all in one city, with one
    /// prefix originated by the last: from the first AS every packet takes
    /// `n - 1` eBGP steps plus the delivery.
    fn chain_world(n: u32) -> (Internet, SpeakerId, CityId, u32) {
        let (cid, _) = vns_geo::cities::city_by_name("Amsterdam").expect("known city");
        let mut internet = Internet::new();
        let mut speakers: Vec<SpeakerId> = Vec::new();
        for _ in 0..n {
            let sp = add_stub_as(&mut internet, 1).1[0];
            if let Some(&prev) = speakers.last() {
                internet
                    .net
                    .connect_ebgp(prev, sp, Relation::Customer, Policy::GaoRexford);
                internet.record_link(prev, cid, sp, cid);
            }
            speakers.push(sp);
        }
        let prefix = register(&mut internet, "10.0.0.0/8", AsId(n - 1), false);
        internet.net.originate(speakers[n as usize - 1], prefix);
        internet.converge(10_000_000, 1).expect("chain converges");
        (internet, speakers[0], cid, prefix.first_host())
    }

    #[test]
    fn forwarding_decision_table() {
        // Origin AS O (router `o`) is a customer of V and of transit T.
        // V has five routers: `b1` peers with `o`; `b2` buys transit from
        // `t` and hears `b1` over iBGP, so its AS-wide best to O's /8 is
        // the iBGP (customer) route while its *own* external route is the
        // provider one; `b3` only hears `b1`; `b4` and `b5` hear nobody.
        // `b1`..`b4` all inject the steering more-specific 10.64.0.0/10 of
        // O's 10.0.0.0/8 (NO_EXPORT); `b5` originates a default route.
        use vns_bgp::{Community, PeerConfig, PeerKind};
        let mut internet = Internet::new();
        let (as_o, o) = add_stub_as(&mut internet, 1);
        let (as_v, v) = add_stub_as(&mut internet, 5);
        let (_, t) = add_stub_as(&mut internet, 1);
        let (o, t) = (o[0], t[0]);
        let (b1, b2, b3, b4, b5) = (v[0], v[1], v[2], v[3], v[4]);
        let net = &mut internet.net;
        net.connect_ebgp(b1, o, Relation::Customer, Policy::GaoRexford);
        net.connect_ebgp(t, o, Relation::Customer, Policy::GaoRexford);
        net.connect_ebgp(t, b2, Relation::Customer, Policy::GaoRexford);
        let ibgp = PeerConfig {
            kind: PeerKind::Ibgp,
            import: Policy::GaoRexford,
        };
        net.connect(b1, ibgp, b2, ibgp);
        net.connect(b1, ibgp, b3, ibgp);

        let p8 = register(&mut internet, "10.0.0.0/8", as_o, false);
        let unrouted = register(&mut internet, "20.0.0.0/8", as_o, false);
        let anycast = register(&mut internet, "30.0.0.0/24", as_v, true);
        let steer: Prefix = "10.64.0.0/10".parse().expect("prefix");
        let private: Prefix = "192.168.0.0/16".parse().expect("prefix");
        internet.net.originate(o, p8);
        internet.net.originate(o, private);
        for b in [b1, b2] {
            internet.net.originate(b, anycast);
        }
        for b in [b1, b2, b3, b4] {
            internet
                .net
                .originate_with(b, steer, vec![Community::NoExport]);
        }
        internet.net.originate(b5, Prefix::DEFAULT);
        // Known to the control plane, not to the registry.
        let ghost = internet.alloc_speaker_id();
        internet.net.add_speaker(Speaker::new(ghost, Asn(64_999)));
        internet
            .net
            .originate(ghost, "50.0.0.0/8".parse().expect("prefix"));
        internet.converge(1_000_000, 1).expect("converges");

        let decide = |at: SpeakerId, ip: u32| -> String {
            let speaker = internet.net.speaker(at).expect("speaker");
            let pinfo = internet.lookup_prefix(ip);
            let covering = internet.net.covering(ip);
            match forwarding_decision(speaker, internet.as_of_speaker(at), &covering, pinfo) {
                None => "none".into(),
                Some(Forward::NoRoute) => "no-route".into(),
                Some(Forward::Deliver(None)) => "deliver(unregistered)".into(),
                Some(Forward::Deliver(Some(pi))) if pi.anycast => {
                    format!("deliver(anycast {})", pi.prefix)
                }
                Some(Forward::Deliver(Some(pi))) => format!("deliver({})", pi.prefix),
                Some(Forward::Ebgp(peer)) => format!("ebgp({peer})"),
                Some(Forward::Ibgp(nh)) => format!("ibgp({nh})"),
            }
        };
        let (plain, steered) = (p8.first_host(), steer.first_host());
        let table = [
            // Delivery: at the origin AS; the /10 never leaves V; a local
            // route nobody registered; an anycast instance.
            (o, plain, format!("deliver({p8})")),
            (o, steered, format!("deliver({p8})")),
            (o, private.first_host(), "deliver(unregistered)".into()),
            (
                b1,
                anycast.first_host(),
                format!("deliver(anycast {anycast})"),
            ),
            (
                b2,
                anycast.first_host(),
                format!("deliver(anycast {anycast})"),
            ),
            // Plain longest match.
            (o, anycast.first_host(), format!("ebgp({b1})")),
            (b1, plain, format!("ebgp({o})")),
            (b2, plain, format!("ibgp({b1})")),
            (b3, plain, format!("ibgp({b1})")),
            (b4, plain, "none".into()),
            (o, unrouted.first_host(), "none".into()),
            // Steering: over the own external route where there is one —
            // at `b2` that is the transit session, not the AS-wide best —
            // else onto the covering route, else nowhere.
            (b1, steered, format!("ebgp({o})")),
            (b2, steered, format!("ebgp({t})")),
            (b3, steered, format!("ibgp({b1})")),
            (b4, steered, "no-route".into()),
            // A default route is a local route for somebody else's prefix
            // with nothing shorter to fall onto; for an unregistered
            // destination it just delivers.
            (b5, unrouted.first_host(), "no-route".into()),
            (b5, 0x0b00_0001, "deliver(unregistered)".into()),
        ];
        for (at, ip, want) in table {
            assert_eq!(decide(at, ip), want, "{at} -> {ip:#x}");
        }

        // Precedence at a speaker the registry does not know: holding no
        // route comes first, then being unknown.
        let (cid, _) = vns_geo::cities::city_by_name("Amsterdam").expect("known city");
        assert_eq!(
            resolve_path(&internet, ghost, cid, plain).err(),
            Some(PathError::NoRoute(ghost))
        );
        assert_eq!(
            resolve_path(&internet, ghost, cid, 0x3200_0001).err(),
            Some(PathError::NoSuchSpeaker(ghost))
        );
        assert_eq!(
            resolve_path(&internet, b4, cid, steered).err(),
            Some(PathError::NoRoute(b4))
        );
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
