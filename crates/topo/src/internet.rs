//! The assembled Internet: AS registry, interconnection geometry, prefix
//! table and the running BGP network.
//!
//! This structure is shared by the generator (which fills it with external
//! ASes) and `vns-core` (which registers the VNS AS: multi-router, with an
//! IGP and dedicated links). The data-plane resolver in [`crate::path`]
//! reads everything it needs from here.
//!
//! **By speaker id.** Speaker ids are dense ([`Internet::alloc_speaker_id`]
//! mints them in order), so what the resolver and the verifier read on every
//! hop — a router's AS, its city, the interconnects of a session — sits in
//! `Vec`s indexed by [`SpeakerId`], as `BgpNet` keeps its speakers: a read
//! is an indexed load, and for a session a binary search of one router's
//! few peers. An id that was never registered, or lies past the end, reads
//! as absent. A registration grows the `Vec`s to the id, so ids must stay
//! dense — like `BgpNet`, this is no place for an arbitrary `u32`.
//! Re-registering a router replaces what was recorded for it. A session's
//! parallel links keep the order they were recorded in: the resolver's
//! hot-potato choice keeps the first of equally near links, so that order
//! is an artefact input.

use std::sync::OnceLock;

use vns_bgp::{Asn, BgpNet, IgpGraph, LpmMap, Prefix, SpeakerId};
use vns_geo::cities::CITIES;
use vns_geo::{city, CityId, GeoIpDb, GeoPoint, Region};

use crate::astype::AsType;

/// `id` as an index into the per-speaker `Vec`s.
fn index(id: SpeakerId) -> usize {
    id.0 as usize
}

/// The speaker id at index `i` of the per-speaker `Vec`s.
fn speaker(i: usize) -> SpeakerId {
    SpeakerId(u32::try_from(i).expect("indices come from u32 ids"))
}

/// The interconnects of one session, (near city, far city) each, in
/// recording order.
type Links = Vec<(CityId, CityId)>;

/// Index into the AS registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// Registry index.
    pub id: AsId,
    /// AS number.
    pub asn: Asn,
    /// Classification.
    pub ty: AsType,
    /// Home region (where most of its infrastructure is).
    pub region: Region,
    /// Home city — its "traffic centre of mass" for hot-potato modelling.
    pub home_city: CityId,
    /// Cities where the AS has presence.
    pub presence: Vec<CityId>,
    /// The AS's BGP speaker when modelled at AS granularity (`None` for
    /// multi-router ASes like VNS, whose routers are registered
    /// separately).
    pub speaker: Option<SpeakerId>,
    /// All of the AS's routers with their cities. Single-router ASes have
    /// one entry; multi-router transit providers (and VNS) have several.
    pub routers: Vec<(CityId, SpeakerId)>,
    /// True for well-provisioned dedicated infrastructure (VNS): its
    /// intra-AS hops use the near-lossless channel profile.
    pub dedicated: bool,
    /// Intra-AS router topology for multi-router ASes (drives hop-by-hop
    /// expansion of internal paths).
    pub igp: Option<IgpGraph>,
}

/// Where a prefix lives (ground truth, for the data plane and evaluation).
#[derive(Debug, Clone)]
pub struct PrefixInfo {
    /// The prefix.
    pub prefix: Prefix,
    /// Originating AS.
    pub origin: AsId,
    /// City whose location is the prefix's ground truth.
    pub city: CityId,
    /// Exact ground-truth location (city plus placement scatter).
    pub location: GeoPoint,
    /// Whether reaching hosts in this prefix crosses a last-mile access
    /// segment (false for infrastructure prefixes, e.g. VNS echo servers
    /// that live inside a PoP).
    pub last_mile: bool,
    /// True for anycast prefixes originated at many sites (VNS TURN
    /// relays): the data plane terminates at whichever originating router
    /// the route led to, not at `city`.
    pub anycast: bool,
}

/// The world.
#[derive(Debug, Clone)]
pub struct Internet {
    /// The BGP control plane (external AS speakers + any registered
    /// routers).
    pub net: BgpNet,
    /// The GeoIP database keyed by prefix (reported locations may be
    /// wrong; ground truth lives in [`PrefixInfo`]).
    pub geoip: GeoIpDb<Prefix>,
    ases: Vec<AsInfo>,
    /// `speaker_index[id]`: the AS of registered router `id`.
    speaker_index: Vec<Option<AsId>>,
    /// `router_city[id]`: the city of registered router `id` (AS-level
    /// speakers: home city).
    router_city: Vec<Option<CityId>>,
    /// `session_links[a]`: per peer `b` of `a`, sorted by `b`, the
    /// interconnect geometry (near city, far city) of each parallel link
    /// from `a` towards `b`, in recording order. Recorded in both
    /// directions.
    session_links: Vec<Vec<(SpeakerId, Links)>>,
    prefix_table: LpmMap<PrefixInfo>,
    next_speaker: u32,
    next_asn: u32,
    /// Stats of every convergence run over `net`, in order (topology
    /// generation first, then each reconvergence — VNS build, failovers).
    /// Lets scale tooling report message/round counts without re-running.
    pub convergence_log: Vec<vns_bgp::ConvergenceStats>,
}

impl Default for Internet {
    fn default() -> Self {
        Self::new()
    }
}

impl Internet {
    /// An empty world.
    pub fn new() -> Self {
        Self {
            net: BgpNet::new(),
            geoip: GeoIpDb::new(),
            ases: Vec::new(),
            speaker_index: Vec::new(),
            router_city: Vec::new(),
            session_links: Vec::new(),
            prefix_table: LpmMap::new(),
            next_speaker: 1,
            next_asn: 1,
            convergence_log: Vec::new(),
        }
    }

    /// Mints a fresh speaker id (also used by `vns-core` for VNS routers).
    pub fn alloc_speaker_id(&mut self) -> SpeakerId {
        let id = SpeakerId(self.next_speaker);
        self.next_speaker += 1;
        id
    }

    /// Mints a fresh AS number.
    pub fn alloc_asn(&mut self) -> Asn {
        let asn = Asn(self.next_asn);
        self.next_asn += 1;
        asn
    }

    /// Registers an AS. Returns its id.
    pub fn add_as(&mut self, info: AsInfo) -> AsId {
        let id = AsId(self.ases.len() as u32);
        debug_assert_eq!(info.id, id, "AsInfo.id must match registry position");
        if let Some(sp) = info.speaker {
            self.register_router(sp, id, info.home_city);
        }
        for &(city, sp) in &info.routers {
            self.register_router(sp, id, city);
        }
        self.ases.push(info);
        id
    }

    /// The AS's router closest to `near_city` (for binding interconnects
    /// and starting data-plane walks). `None` when the AS has no routers.
    pub fn router_of(&self, as_id: AsId, near_city: CityId) -> Option<SpeakerId> {
        let info = self.as_info(as_id);
        info.routers
            .iter()
            .min_by(|(a, _), (b, _)| {
                Self::city_km(near_city, *a).total_cmp(&Self::city_km(near_city, *b))
            })
            .map(|&(_, sp)| sp)
            .or(info.speaker)
    }

    /// Next AS id that [`Internet::add_as`] will assign.
    pub fn next_as_id(&self) -> AsId {
        AsId(self.ases.len() as u32)
    }

    /// Registers a router belonging to a multi-router AS (VNS border
    /// routers and reflectors).
    pub fn register_router(&mut self, router: SpeakerId, as_id: AsId, city: CityId) {
        let i = index(router);
        if self.speaker_index.len() <= i {
            self.speaker_index.resize(i + 1, None);
            self.router_city.resize(i + 1, None);
        }
        self.speaker_index[i] = Some(as_id);
        self.router_city[i] = Some(city);
    }

    /// Converges the control plane with the build-time engine
    /// ([`vns_bgp::BgpNet::run_sharded`]) on `threads` workers (`0` = one
    /// per hardware thread; the count never affects the result, only
    /// wall-clock) and appends the run to [`Self::convergence_log`].
    ///
    /// First assigns every registered router to the shard of its city's
    /// world region and derives the [`vns_bgp::BgpNet::set_hop_limit`]
    /// bound from the world's size: router-level paths cross each AS at
    /// most twice, so `2·|AS| + 2` can never cut a legal path short,
    /// however deep the provider chains get on scaled worlds. Call again
    /// after registering more routers (e.g. the VNS deployment's).
    pub fn converge(
        &mut self,
        budget: u64,
        threads: usize,
    ) -> Result<(), vns_bgp::ConvergenceError> {
        for (i, c) in self.router_city.iter().enumerate() {
            if let Some(c) = *c {
                self.net.set_shard(speaker(i), city(c).region.index());
            }
        }
        let hop_limit = (2 * self.ases.len() as u32 + 2).max(vns_bgp::DEFAULT_HOP_LIMIT);
        self.net.set_hop_limit(hop_limit);
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let stats = self.net.run_sharded(budget, threads)?;
        self.convergence_log.push(stats);
        Ok(())
    }

    /// Records interconnect geometry for a session between two speakers:
    /// the link lands in `city_a` on `a`'s side and `city_b` on `b`'s side
    /// (usually the same metro). Parallel links at more cities may be
    /// recorded by calling again.
    pub fn record_link(&mut self, a: SpeakerId, city_a: CityId, b: SpeakerId, city_b: CityId) {
        for (near, near_city, far, far_city) in [(a, city_a, b, city_b), (b, city_b, a, city_a)] {
            let i = index(near);
            if self.session_links.len() <= i {
                self.session_links.resize_with(i + 1, Vec::new);
            }
            let row = &mut self.session_links[i];
            let at = match row.binary_search_by_key(&far, |(peer, _)| *peer) {
                Ok(at) => at,
                Err(at) => {
                    row.insert(at, (far, Vec::new()));
                    at
                }
            };
            row[at].1.push((near_city, far_city));
        }
    }

    /// Interconnect candidates from `a` towards `b`, in recording order.
    pub fn links_between(&self, a: SpeakerId, b: SpeakerId) -> &[(CityId, CityId)] {
        let Some(row) = self.session_links.get(index(a)) else {
            return &[];
        };
        match row.binary_search_by_key(&b, |(peer, _)| *peer) {
            Ok(at) => &row[at].1,
            Err(_) => &[],
        }
    }

    /// Registers a prefix: control plane origination is the caller's job;
    /// this records ground truth and the GeoIP view.
    pub fn add_prefix(&mut self, info: PrefixInfo, country: &str, reported: GeoPoint) {
        self.geoip.insert(info.prefix, reported, country);
        self.prefix_table.insert(info.prefix, info);
    }

    /// Ground-truth info for the longest prefix containing `ip`.
    pub fn lookup_prefix(&self, ip: u32) -> Option<&PrefixInfo> {
        self.prefix_table.lookup(ip).map(|(_, v)| v)
    }

    /// Ground-truth info registered for exactly `prefix`.
    pub fn prefix_info(&self, prefix: &Prefix) -> Option<&PrefixInfo> {
        self.prefix_table.get(prefix)
    }

    /// All registered prefixes in `(addr, len)` order — an artefact input:
    /// campaigns sample destinations by position in this sequence.
    pub fn prefixes(&self) -> impl Iterator<Item = &PrefixInfo> {
        self.prefix_table.iter().map(|(_, v)| v)
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// AS by id.
    pub fn as_info(&self, id: AsId) -> &AsInfo {
        &self.ases[id.0 as usize]
    }

    /// Mutable AS access (the generator and `vns-core` extend entries).
    pub fn as_info_mut(&mut self, id: AsId) -> &mut AsInfo {
        &mut self.ases[id.0 as usize]
    }

    /// Lays `graph` down as the intra-AS topology of `as_id`: stores it in
    /// [`AsInfo::igp`] and installs each node's shortest-cost row into that
    /// router, in node order, marking the router active (its hot-potato
    /// inputs changed). The one place an IGP lands, at build time and
    /// after a circuit fault alike.
    pub fn set_igp(&mut self, as_id: AsId, graph: IgpGraph) {
        for router in graph.nodes() {
            self.net
                .speaker_mut(router)
                .expect("every IGP node is a router of the network")
                .set_igp_costs(graph.shortest_costs(router));
        }
        self.as_info_mut(as_id).igp = Some(graph);
    }

    /// The AS a speaker belongs to.
    pub fn as_of_speaker(&self, sp: SpeakerId) -> Option<AsId> {
        self.speaker_index.get(index(sp)).copied().flatten()
    }

    /// The city a router sits in.
    pub fn city_of_router(&self, sp: SpeakerId) -> Option<CityId> {
        self.router_city.get(index(sp)).copied().flatten()
    }

    /// Iterates over all ASes.
    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.ases.iter()
    }

    /// Great-circle km between two cities: a load from a table of every
    /// city pair, filled on first use with the haversine of each pair (the
    /// same `f64`s computing it in place gives). The resolver asks this
    /// several times per hop.
    pub fn city_km(a: CityId, b: CityId) -> f64 {
        static KM: OnceLock<Vec<f64>> = OnceLock::new();
        let n = CITIES.len();
        let km = KM.get_or_init(|| {
            CITIES
                .iter()
                .flat_map(|a| CITIES.iter().map(|b| a.location.distance_km(&b.location)))
                .collect()
        });
        km[usize::from(a.0) * n..][..n][usize::from(b.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_geo::cities::city_by_name;

    fn test_as(id: u32, asn: u32, speaker: Option<SpeakerId>, city_name: &str) -> AsInfo {
        let (cid, _) = city_by_name(city_name).unwrap();
        AsInfo {
            id: AsId(id),
            asn: Asn(asn),
            ty: AsType::Stp,
            region: Region::Europe,
            home_city: cid,
            presence: vec![cid],
            speaker,
            routers: speaker.map(|s| (cid, s)).into_iter().collect(),
            dedicated: false,
            igp: None,
        }
    }

    #[test]
    fn registry_roundtrip() {
        let mut net = Internet::new();
        let sp = net.alloc_speaker_id();
        let id = net.add_as(test_as(0, 100, Some(sp), "Amsterdam"));
        assert_eq!(net.as_count(), 1);
        assert_eq!(net.as_info(id).asn, Asn(100));
        assert_eq!(net.ases().find(|a| a.asn == Asn(100)).unwrap().id, id);
        assert_eq!(net.as_of_speaker(sp), Some(id));
        assert_eq!(
            net.city_of_router(sp),
            Some(city_by_name("Amsterdam").unwrap().0)
        );
    }

    #[test]
    fn link_geometry_bidirectional() {
        let mut net = Internet::new();
        let a = net.alloc_speaker_id();
        let b = net.alloc_speaker_id();
        let (ams, _) = city_by_name("Amsterdam").unwrap();
        let (lon, _) = city_by_name("London").unwrap();
        net.record_link(a, ams, b, lon);
        assert_eq!(net.links_between(a, b), &[(ams, lon)]);
        assert_eq!(net.links_between(b, a), &[(lon, ams)]);
        assert!(net.links_between(a, a).is_empty());
    }

    #[test]
    fn sparse_and_late_ids_read_as_registered() {
        let (ams, _) = city_by_name("Amsterdam").unwrap();
        let (lon, _) = city_by_name("London").unwrap();
        let (par, _) = city_by_name("Paris").unwrap();
        let mut net = Internet::new();
        // Id 0 (never minted, but a valid index) and a gap up to 7.
        let (zero, seven) = (SpeakerId(0), SpeakerId(7));
        let as0 = net.add_as(test_as(0, 100, Some(zero), "Amsterdam"));
        let as1 = net.next_as_id();
        net.add_as(AsInfo {
            routers: vec![(lon, seven)],
            ..test_as(1, 101, None, "London")
        });
        assert_eq!(net.as_of_speaker(zero), Some(as0));
        assert_eq!(net.as_of_speaker(seven), Some(as1));
        assert_eq!(net.city_of_router(seven), Some(lon));
        for gap in [1, 3, 6, 8, 1_000_000] {
            assert_eq!(net.as_of_speaker(SpeakerId(gap)), None, "R{gap}");
            assert_eq!(net.city_of_router(SpeakerId(gap)), None, "R{gap}");
            assert!(net.links_between(zero, SpeakerId(gap)).is_empty());
            assert!(net.links_between(SpeakerId(gap), seven).is_empty());
        }
        // Re-registered to another city: the newest registration holds.
        net.register_router(seven, as1, par);
        assert_eq!(net.city_of_router(seven), Some(par));
        assert_eq!(net.as_of_speaker(seven), Some(as1));
        // A router added after the world was built and converged (as an
        // attacker AS joins one) reads like any other; nobody else moves.
        net.converge(1_000, 1).expect("empty net converges");
        let late = SpeakerId(40);
        net.register_router(late, as0, ams);
        net.record_link(late, ams, zero, ams);
        assert_eq!(net.as_of_speaker(late), Some(as0));
        assert_eq!(net.city_of_router(late), Some(ams));
        assert_eq!(net.links_between(zero, late), &[(ams, ams)]);
        assert_eq!(net.city_of_router(seven), Some(par));
        assert_eq!(net.as_of_speaker(SpeakerId(39)), None);
    }

    #[test]
    fn parallel_links_keep_recording_order() {
        // The resolver keeps the first of equally near links, so the order
        // links were recorded in is what it reads, peers of either side
        // recorded in any order.
        let city = |name| city_by_name(name).unwrap().0;
        let (ams, lon, par, fra) = (
            city("Amsterdam"),
            city("London"),
            city("Paris"),
            city("Frankfurt"),
        );
        let mut net = Internet::new();
        let (a, b, c) = (SpeakerId(5), SpeakerId(2), SpeakerId(9));
        net.record_link(a, par, b, par);
        net.record_link(a, fra, c, lon);
        net.record_link(b, ams, a, ams);
        net.record_link(a, lon, b, lon);
        assert_eq!(
            net.links_between(a, b),
            &[(par, par), (ams, ams), (lon, lon)]
        );
        assert_eq!(
            net.links_between(b, a),
            &[(par, par), (ams, ams), (lon, lon)]
        );
        assert_eq!(net.links_between(a, c), &[(fra, lon)]);
        assert_eq!(net.links_between(c, a), &[(lon, fra)]);
        assert!(net.links_between(b, c).is_empty());
    }

    fn register(net: &mut Internet, origin: AsId, prefix: &str) -> Prefix {
        let (cid, c) = city_by_name("Amsterdam").unwrap();
        let prefix: Prefix = prefix.parse().unwrap();
        net.add_prefix(
            PrefixInfo {
                prefix,
                origin,
                city: cid,
                location: c.location,
                last_mile: true,
                anycast: false,
            },
            "NL",
            c.location,
        );
        prefix
    }

    #[test]
    fn prefix_lookup_longest_match() {
        let mut net = Internet::new();
        let sp = net.alloc_speaker_id();
        let as_id = net.add_as(test_as(0, 100, Some(sp), "Amsterdam"));
        let p8 = register(&mut net, as_id, "10.0.0.0/8");
        let p16 = register(&mut net, as_id, "10.1.0.0/16");
        assert_eq!(net.lookup_prefix(0x0a010001).unwrap().prefix, p16);
        assert_eq!(net.lookup_prefix(0x0aff0001).unwrap().prefix, p8);
        assert!(net.lookup_prefix(0x0b000001).is_none());
        assert_eq!(net.geoip.len(), 2);
    }

    #[test]
    fn prefixes_iterate_in_addr_then_len_order() {
        // Campaigns pick destinations by position in `prefixes()`, so the
        // order is an artefact input: address first, then mask length (a
        // covering prefix before its more-specifics), whatever the
        // registration order was.
        let mut net = Internet::new();
        let sp = net.alloc_speaker_id();
        let as_id = net.add_as(test_as(0, 100, Some(sp), "Amsterdam"));
        for pre in [
            "16.9.0.0/16",
            "16.5.16.0/20",
            "10.0.0.0/8",
            "16.5.0.0/16",
            "10.0.0.0/16",
        ] {
            register(&mut net, as_id, pre);
        }
        let order: Vec<String> = net.prefixes().map(|pi| pi.prefix.to_string()).collect();
        assert_eq!(
            order,
            [
                "10.0.0.0/8",
                "10.0.0.0/16",
                "16.5.0.0/16",
                "16.5.16.0/20",
                "16.9.0.0/16"
            ]
        );
    }

    #[test]
    fn id_minting_unique() {
        let mut net = Internet::new();
        let ids: Vec<_> = (0..10).map(|_| net.alloc_speaker_id()).collect();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 10);
        assert_ne!(net.alloc_asn(), net.alloc_asn());
    }
}
