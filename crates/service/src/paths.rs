//! Pre-resolved media paths for the service plane.
//!
//! Resolving a path is a routing-table walk; doing it per call at 10⁵+
//! concurrent sessions would dwarf the actual packet work. The service
//! plane instead resolves everything the data plane can need *once per
//! routing epoch*:
//!
//! * the anycast landing (caller prefix → ingress PoP + access path);
//! * the VNS tail (each PoP → each callee prefix);
//! * the dedicated L2 splice legs between PoP pairs, for spilled calls.
//!
//! A call's end-to-end path is then a concatenation of cached parts.
//! After a routing event (fault injection + reconvergence) the table is
//! rebuilt — paths are an epoch artefact, exactly like the fast-path
//! channel caches.

use vns_core::{PopId, Vns};
use vns_geo::city;
use vns_topo::path::{HopKind, HopLabel, ResolvedHop};
use vns_topo::{Internet, ResolvedPath};

use crate::endpoints::EndpointTable;

/// Cached path parts for one routing epoch.
#[derive(Debug)]
pub struct PathTable {
    /// Per endpoint index: ingress PoP and the caller→PoP access path.
    /// `None` when the endpoint cannot currently reach the anycast address
    /// (possible after a fault, even though the table is built from
    /// endpoints that were routable at world construction).
    landings: Vec<Option<(PopId, ResolvedPath)>>,
    /// Per `(pop index, endpoint index)`: the PoP→callee tail, when the
    /// PoP's RIB has a route.
    tails: Vec<Option<ResolvedPath>>,
    /// Per `(pop index, pop index)`: the dedicated L2 splice leg.
    splices: Vec<Option<ResolvedHop>>,
    /// PoP ids in `Vns::pops` order (index ↔ id mapping).
    pop_ids: Vec<PopId>,
}

impl PathTable {
    /// Resolves every cacheable part for the current routing state.
    pub fn build(internet: &Internet, vns: &Vns, endpoints: &EndpointTable) -> Self {
        let pop_ids: Vec<PopId> = vns.pops().iter().map(|p| p.id()).collect();
        let n = endpoints.len();

        let landings: Vec<Option<(PopId, ResolvedPath)>> = (0..n)
            .map(|i| vns.anycast_landing(internet, endpoints.endpoint(i).ip).ok())
            .collect();

        let mut tails = Vec::with_capacity(pop_ids.len() * n);
        for &pop in &pop_ids {
            for i in 0..n {
                tails.push(
                    vns.path_via_vns(internet, pop, endpoints.endpoint(i).ip)
                        .ok(),
                );
            }
        }

        // Dedicated L2 legs between every PoP pair, modelled as one
        // dedicated intra-AS hop (the admission spill ride). The VNS AS's
        // own info supplies asn/type so the channel calibration treats the
        // leg exactly like the resolver's own L2 hops.
        let info = internet.as_info(vns.as_id());
        let mut splices = Vec::with_capacity(pop_ids.len() * pop_ids.len());
        for &a in &pop_ids {
            for &b in &pop_ids {
                if a == b {
                    splices.push(None);
                    continue;
                }
                let (from, to) = (vns.pop(a), vns.pop(b));
                splices.push(Some(ResolvedHop {
                    kind: HopKind::IntraAs {
                        asn: info.asn,
                        ty: info.ty,
                        region: city(to.city).region,
                        dedicated: true,
                    },
                    from_city: from.city,
                    to_city: to.city,
                    km: Internet::city_km(from.city, to.city).max(1.0),
                    label: HopLabel::Spill { from: a.0, to: b.0 },
                }));
            }
        }

        Self {
            landings,
            tails,
            splices,
            pop_ids,
        }
    }

    fn pop_index(&self, id: PopId) -> Option<usize> {
        let idx = self.pop_ids.iter().position(|&p| p == id);
        debug_assert!(idx.is_some(), "unknown {id}");
        idx
    }

    /// The ingress PoP a caller endpoint lands on; `None` when the caller
    /// cannot reach the anycast address under the current routing state.
    pub fn landing_pop(&self, caller: usize) -> Option<PopId> {
        self.landings[caller].as_ref().map(|&(pop, _)| pop)
    }

    /// How many endpoints currently have an anycast landing.
    pub fn routable_endpoints(&self) -> usize {
        self.landings.iter().filter(|l| l.is_some()).count()
    }

    /// The cached PoP→callee tail path, when the PoP has a route.
    pub fn tail(&self, pop: PopId, callee: usize) -> Option<&ResolvedPath> {
        let idx = self.pop_index(pop)?;
        self.tails[idx * self.landings.len() + callee].as_ref()
    }

    /// The full caller→relay→callee media path for a call landed at
    /// `landing` and admitted at `admitted` (same PoP for unspilled calls;
    /// spilled calls ride the dedicated L2 splice leg in between).
    /// `None` when the admitted PoP has no route to the callee.
    pub fn call_path(&self, caller: usize, callee: usize, admitted: PopId) -> Option<ResolvedPath> {
        let (landing, access) = self.landings[caller].as_ref()?;
        let tail = self.tail(admitted, callee)?;
        // Hops are `Copy`: the path is three slice copies into one buffer.
        let mut hops = Vec::with_capacity(access.hops.len() + 1 + tail.hops.len());
        let mut routers = Vec::with_capacity(access.routers.len() + tail.routers.len());
        hops.extend_from_slice(&access.hops);
        routers.extend_from_slice(&access.routers);
        if *landing == admitted {
            // The access path already ends at the admitted PoP's border:
            // drop the tail's duplicate of it.
            routers.extend_from_slice(tail.routers.get(1..).unwrap_or_default());
        } else {
            // Distinct PoPs always get a splice leg at build time, so a
            // `None` here means the table was handed an unknown PoP pair.
            let splice = self
                .splices
                .get(self.pop_index(*landing)? * self.pop_ids.len() + self.pop_index(admitted)?)?
                .as_ref()?;
            hops.push(*splice);
            routers.extend_from_slice(&tail.routers);
        }
        hops.extend_from_slice(&tail.hops);
        Some(ResolvedPath { hops, routers })
    }

    // --- Planted-defect harness (vns-verify mutation corpus) ------------
    //
    // These hooks corrupt the cached table the way a stale or buggy
    // rebuild would — the data the admission path trusts goes silently
    // wrong while the control plane stays healthy. Only the verification
    // harness calls them.

    /// Rewrites a caller's cached anycast landing to `pop`, keeping the
    /// (now inconsistent) access path — the shape of a poisoned GeoIP
    /// landing. Returns `false` when the caller had no landing or the PoP
    /// is unknown.
    pub fn corrupt_landing(&mut self, caller: usize, pop: PopId) -> bool {
        if self.pop_index(pop).is_none() {
            return false;
        }
        match self.landings.get_mut(caller).and_then(|l| l.as_mut()) {
            Some(entry) => {
                entry.0 = pop;
                true
            }
            None => false,
        }
    }

    /// Swaps the entire cached tail rows of two PoPs — the shape of a
    /// wrong-relay path table. Returns `false` for unknown or identical
    /// PoPs.
    pub fn corrupt_swap_tails(&mut self, a: PopId, b: PopId) -> bool {
        let (Some(ia), Some(ib)) = (self.pop_index(a), self.pop_index(b)) else {
            return false;
        };
        if ia == ib {
            return false;
        }
        let n = self.landings.len();
        for callee in 0..n {
            self.tails.swap(ia * n + callee, ib * n + callee);
        }
        true
    }
}
