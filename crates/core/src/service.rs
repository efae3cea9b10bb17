//! The running VNS service: egress analysis, path resolution via VNS or
//! via raw transit, and the anycast relay service.

use std::collections::BTreeMap;

use vns_bgp::{Asn, ConvergenceError, ConvergenceStats, PathError, Prefix, RouteSource, SpeakerId};
use vns_geo::{city, CityId, GeoIpDb, GeoPoint};
use vns_topo::path::{resolve_from_prefix, resolve_path, HopKind, HopLabel, ResolvedHop};
use vns_topo::{AsId, Internet, ResolvedPath};

use crate::config::{RoutingMode, MESSAGE_BUDGET};
use crate::lpfunc::LocalPrefFn;
use crate::mgmt::Overrides;
use crate::pops::{Pop, PopId};

/// One echo server deployment (Sec 5.1: "SIP media servers programmed to
/// stream back any incoming video stream").
#[derive(Debug, Clone, Copy)]
pub struct EchoServer {
    /// Its service prefix.
    pub prefix: Prefix,
    /// The PoP hosting it.
    pub pop: PopId,
}

impl EchoServer {
    /// The address media is sent to.
    pub fn address(&self) -> u32 {
        self.prefix.first_host()
    }
}

/// A built VNS deployment (see [`crate::build_vns`]).
#[derive(Debug, Clone)]
pub struct Vns {
    pub(crate) as_id: AsId,
    pub(crate) asn: Asn,
    pub(crate) mode: RoutingMode,
    pub(crate) lp_fn: LocalPrefFn,
    pub(crate) pops: Vec<Pop>,
    pub(crate) rrs: [SpeakerId; 2],
    pub(crate) upstreams: Vec<AsId>,
    pub(crate) pop_upstream: BTreeMap<PopId, (AsId, CityId)>,
    pub(crate) peers: Vec<AsId>,
    pub(crate) anycast_prefix: Prefix,
    pub(crate) echo_servers: Vec<EchoServer>,
    /// The PoP of every border router.
    pub(crate) router_pop: BTreeMap<SpeakerId, PopId>,
    /// The location of every VNS router: borders and reflectors.
    pub(crate) router_locations: BTreeMap<SpeakerId, GeoPoint>,
    /// The management overrides ([`crate::mgmt`]).
    pub(crate) overrides: Overrides,
    /// The GeoIP database the reflectors score with: the registry's, as
    /// the deployment found it (before its own service prefixes were
    /// registered), until an ingest attack replaces it.
    pub(crate) reflector_geoip: GeoIpDb<Prefix>,
}

impl Vns {
    /// The VNS AS id in the Internet registry.
    pub fn as_id(&self) -> AsId {
        self.as_id
    }

    /// The VNS AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Routing mode this deployment was built with.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// The `lp = f(d)` shape the reflectors score with (what `vns-verify`
    /// audits against the converged RIBs).
    pub fn lp_fn(&self) -> LocalPrefFn {
        self.lp_fn
    }

    /// All PoPs in id order.
    pub fn pops(&self) -> &[Pop] {
        &self.pops
    }

    /// PoP by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn pop(&self, id: PopId) -> &Pop {
        self.pops
            .iter()
            .find(|p| p.id() == id)
            .unwrap_or_else(|| panic!("unknown {id}"))
    }

    /// PoP by short code (`"AMS"`, `"SJS"`, …).
    pub fn pop_by_code(&self, code: &str) -> Option<&Pop> {
        self.pops.iter().find(|p| p.code() == code)
    }

    /// The two route reflectors.
    pub fn reflectors(&self) -> [SpeakerId; 2] {
        self.rrs
    }

    /// Upstream transit providers, most-preferred first ("upstream 1" of
    /// Fig 5 is index 0).
    pub fn upstreams(&self) -> &[AsId] {
        &self.upstreams
    }

    /// ASes VNS peers with.
    pub fn peers(&self) -> &[AsId] {
        &self.peers
    }

    /// A PoP's primary upstream and the city where that transit port
    /// lands.
    pub fn primary_upstream(&self, pop: PopId) -> (AsId, CityId) {
        self.pop_upstream[&pop]
    }

    /// The anycast TURN relay address.
    pub fn anycast_address(&self) -> u32 {
        self.anycast_prefix.first_host()
    }

    /// The anycast prefix.
    pub fn anycast_prefix(&self) -> Prefix {
        self.anycast_prefix
    }

    /// Echo server deployments.
    pub fn echo_servers(&self) -> &[EchoServer] {
        &self.echo_servers
    }

    /// The management override table: what [`Vns::assigned_pref`]
    /// consults first.
    pub fn overrides(&self) -> &Overrides {
        &self.overrides
    }

    /// The GeoIP database the reflectors' import table was filled from.
    pub fn reflector_geoip(&self) -> &GeoIpDb<Prefix> {
        &self.reflector_geoip
    }

    /// Message budget for reconvergence runs ([`MESSAGE_BUDGET`]).
    pub fn message_budget(&self) -> u64 {
        MESSAGE_BUDGET
    }

    /// Reconverges `internet` after a change within
    /// [`Vns::message_budget`]: the one call that picks that engine, made
    /// only by [`Vns::apply`] outside tests.
    pub fn reconverge(
        &self,
        internet: &mut Internet,
    ) -> Result<ConvergenceStats, ConvergenceError> {
        internet.net.run(MESSAGE_BUDGET)
    }

    /// The PoP a VNS router belongs to.
    pub fn pop_of_router(&self, router: SpeakerId) -> Option<PopId> {
        self.router_pop.get(&router).copied()
    }

    /// The geographically nearest PoP to a location.
    pub fn nearest_pop(&self, loc: GeoPoint) -> PopId {
        self.pops
            .iter()
            .min_by(|a, b| {
                a.location()
                    .distance_km(&loc)
                    .total_cmp(&b.location().distance_km(&loc))
            })
            .expect("pops non-empty")
            .id()
    }

    /// PoPs ordered by great-circle distance from PoP `from` (nearest
    /// first, `from` itself excluded). This is the admission controller's
    /// spill order: when `from` is at capacity a call is offered to each
    /// PoP in this order up to the spill depth, so regional saturation
    /// degrades to nearby PoPs before it rejects.
    pub fn spill_order(&self, from: PopId) -> Vec<PopId> {
        let origin = self.pop(from).location();
        let mut rest: Vec<(f64, PopId)> = self
            .pops
            .iter()
            .filter(|p| p.id() != from)
            .map(|p| (origin.distance_km(&p.location()), p.id()))
            .collect();
        // Ties (if any) break on PoP id so the order is total and stable.
        rest.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        rest.into_iter().map(|(_, id)| id).collect()
    }

    /// Apportions an absolute concurrent-session budget across PoPs in
    /// proportion to their [`crate::pops::PopSpec::relay_units`], largest-
    /// remainder rounding, every PoP guaranteed at least one slot. Returns
    /// `(PopId, capacity)` in id order.
    pub fn apportion_capacity(&self, total_sessions: u64) -> Vec<(PopId, u64)> {
        let units: u64 = self
            .pops
            .iter()
            .map(|p| u64::from(p.spec.relay_units))
            .sum();
        let mut rows: Vec<(PopId, u64, u64)> = self
            .pops
            .iter()
            .map(|p| {
                let u = u64::from(p.spec.relay_units);
                let exact = total_sessions * u;
                (p.id(), exact / units, exact % units)
            })
            .collect();
        let assigned: u64 = rows.iter().map(|r| r.1).sum();
        let mut leftover = total_sessions.saturating_sub(assigned);
        // Largest remainder first; PoP id breaks ties deterministically.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| rows[b].2.cmp(&rows[a].2).then(rows[a].0.cmp(&rows[b].0)));
        for i in order {
            if leftover == 0 {
                break;
            }
            rows[i].1 += 1;
            leftover -= 1;
        }
        rows.into_iter()
            .map(|(id, cap, _)| (id, cap.max(1)))
            .collect()
    }

    /// From PoP `from`'s perspective, the egress PoP its best route to
    /// `dst_ip` uses (the Fig 4 metric). `None` when no route.
    pub fn egress_pop(&self, internet: &Internet, from: PopId, dst_ip: u32) -> Option<PopId> {
        let border = self.pop(from).borders[0];
        let speaker = internet.net.speaker(border)?;
        let (_, cand) = speaker.lookup(dst_ip)?;
        match cand.source {
            RouteSource::Ebgp { .. } | RouteSource::Local => Some(from),
            RouteSource::Ibgp { .. } => self.pop_of_router(cand.attrs.next_hop),
        }
    }

    /// The neighbouring AS the selected route exits through, from PoP
    /// `from`'s perspective (the Fig 5 metric). `None` for VNS-internal
    /// destinations or missing routes.
    pub fn exit_neighbor(&self, internet: &Internet, from: PopId, dst_ip: u32) -> Option<Asn> {
        let border = self.pop(from).borders[0];
        let speaker = internet.net.speaker(border)?;
        let (_, cand) = speaker.lookup(dst_ip)?;
        match cand.source {
            RouteSource::Local => None,
            RouteSource::Ebgp { peer_as, .. } => Some(peer_as),
            RouteSource::Ibgp { .. } => {
                // Ask the egress router which eBGP neighbour it selected.
                let egress = cand.attrs.next_hop;
                let es = internet.net.speaker(egress)?;
                let (_, ecand) = es.lookup(dst_ip)?;
                match ecand.source {
                    RouteSource::Ebgp { peer_as, .. } => Some(peer_as),
                    _ => None,
                }
            }
        }
    }

    /// Resolves the data-plane path from PoP `from` to `dst_ip` *through
    /// VNS routing* (internal L2 to the selected egress, then the
    /// Internet).
    pub fn path_via_vns(
        &self,
        internet: &Internet,
        from: PopId,
        dst_ip: u32,
    ) -> Result<ResolvedPath, PathError> {
        let pop = self.pop(from);
        resolve_path(internet, pop.borders[0], pop.city, dst_ip)
    }

    /// Resolves the data-plane path from PoP `from` to `dst_ip` leaving
    /// immediately through the PoP's primary upstream (the paper's
    /// "probes are forced out of VNS immediately at each PoP" and the
    /// "through upstreams" arm of every comparison).
    pub fn path_via_upstream(
        &self,
        internet: &Internet,
        from: PopId,
        dst_ip: u32,
    ) -> Result<ResolvedPath, PathError> {
        let pop = self.pop(from);
        let (up_as, entry_city) = self.pop_upstream[&from];
        let info = internet.as_info(up_as);
        let up_sp = internet
            .router_of(up_as, entry_city)
            .expect("upstream has routers");
        // Access leg: PoP city to the transit port. Same-metro for every
        // PoP except the London misconfiguration, where the port is in
        // Ashburn and the leg is a shared long-haul circuit.
        let km = Internet::city_km(pop.city, entry_city).max(1.0);
        let access = ResolvedHop {
            kind: HopKind::InterAs {
                region: city(entry_city).region,
            },
            from_city: pop.city,
            to_city: entry_city,
            km,
            label: HopLabel::TransitPort {
                asn: self.asn,
                upstream: info.asn,
                city: entry_city,
            },
        };
        let mut rest = resolve_path(internet, up_sp, entry_city, dst_ip)?;
        let mut hops = vec![access];
        hops.append(&mut rest.hops);
        let mut routers = vec![pop.borders[0]];
        routers.append(&mut rest.routers);
        Ok(ResolvedPath { hops, routers })
    }

    /// Resolves the path from PoP `from` to `dst_ip`, leaving through the
    /// PoP's best *local* external route — peer sessions included. This is
    /// the paper's "probes are forced out of VNS immediately at each PoP"
    /// (Secs 4.1 and 5.2): no VNS circuit is used, but the PoP's whole
    /// local table is.
    pub fn path_via_local_exit(
        &self,
        internet: &Internet,
        from: PopId,
        dst_ip: u32,
    ) -> Result<ResolvedPath, PathError> {
        let pop = self.pop(from);
        // Best eBGP-learned candidate across the PoP's border routers.
        let mut best: Option<(vns_bgp::Candidate, SpeakerId)> = None;
        let ctx = vns_bgp::DecisionContext::no_igp();
        for b in pop.borders {
            let Some(sp) = internet.net.speaker(b) else {
                continue;
            };
            let Some((covering, _)) = sp.lookup(dst_ip) else {
                continue;
            };
            let Some(c) = sp.best_external_route(&covering) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((cur, _)) => {
                    vns_bgp::compare_routes(c, cur, &ctx) == std::cmp::Ordering::Greater
                }
            };
            if better {
                best = Some((c.clone(), b));
            }
        }
        let (cand, border) = best.ok_or(PathError::NoRoute(pop.borders[0]))?;
        let RouteSource::Ebgp { peer, .. } = cand.source else {
            return Err(PathError::NoRoute(border));
        };
        // Exit over that session's interconnect.
        let links = internet.links_between(border, peer);
        let &(near, far) = links.first().ok_or(PathError::NoRoute(border))?;
        let mut hops = Vec::new();
        hops.push(ResolvedHop {
            kind: HopKind::InterAs {
                region: city(far).region,
            },
            from_city: near,
            to_city: far,
            km: Internet::city_km(near, far).max(1.0),
            label: HopLabel::Exit {
                asn: self.asn,
                peer,
                city: far,
            },
        });
        let mut rest = resolve_path(internet, peer, far, dst_ip)?;
        hops.append(&mut rest.hops);
        let mut routers = vec![border];
        routers.append(&mut rest.routers);
        Ok(ResolvedPath { hops, routers })
    }

    /// Where a service request from a host in `src_ip`'s prefix lands:
    /// resolves the path to the anycast relay address and reports the
    /// receiving PoP (the Fig 7 measurement).
    pub fn anycast_landing(
        &self,
        internet: &Internet,
        src_ip: u32,
    ) -> Result<(PopId, ResolvedPath), PathError> {
        let path = resolve_from_prefix(internet, src_ip, self.anycast_address())?;
        let last = *path.routers.last().expect("non-empty path");
        let pop = self.pop_of_router(last).ok_or(PathError::NoRoute(last))?;
        Ok((pop, path))
    }

    /// The media path for a relayed call: caller's last mile → ingress
    /// relay PoP (anycast) → VNS internal → egress PoP nearest the callee
    /// → callee. Returns the concatenated resolved path.
    pub fn media_path(
        &self,
        internet: &Internet,
        caller_ip: u32,
        callee_ip: u32,
    ) -> Result<ResolvedPath, PathError> {
        let (ingress, mut first) = self.anycast_landing(internet, caller_ip)?;
        let rest = self.path_via_vns(internet, ingress, callee_ip)?;
        first.hops.extend(rest.hops);
        first.routers.extend(rest.routers.into_iter().skip(1));
        Ok(first)
    }
}
