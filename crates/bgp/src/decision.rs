//! The BGP route-selection process.
//!
//! Implemented exactly in the order the paper summarises (Sec 3.2), which is
//! the RFC 4271 order restricted to the attributes we model:
//!
//! 1. highest LOCAL_PREF (administrative preference — the knob the geo
//!    route reflector turns);
//! 2. shortest AS_PATH;
//! 3. lowest ORIGIN;
//! 4. lowest MED, compared between routes from the same neighbour AS;
//! 5. eBGP-learned over iBGP-learned (first "exit quickly" rule);
//! 6. lowest IGP metric to the next hop (hot-potato proper);
//! 7. shortest CLUSTER_LIST (reflection tie-break);
//! 8. lowest sender router id (deterministic final tie-break).

use std::cmp::Ordering;
use std::sync::Arc;

#[cfg(test)]
use crate::route::SpeakerId;
use crate::route::{RouteAttrs, RouteSource};

/// A candidate route as held in an Adj-RIB-In.
///
/// The attribute set is shared, not owned: cloning a candidate (into the
/// Loc-RIB, out of a lookup) is a refcount bump, and a writer goes through
/// `Arc::make_mut` so it never edits what another RIB reads (see
/// [`crate::speaker`]'s module docs for who shares what).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Route attributes after import policy.
    pub attrs: Arc<RouteAttrs>,
    /// How it was learned.
    pub source: RouteSource,
}

/// Per-router inputs the decision process needs beyond the routes
/// themselves.
pub struct DecisionContext<'a> {
    /// "Distance to the exit" cost for a candidate — the hot-potato input.
    ///
    /// For a router inside a multi-router AS this is the IGP cost to the
    /// candidate's next hop (0 for its own eBGP routes). For an AS-level
    /// speaker (`vns-topo` models each external AS as one speaker) it is
    /// the intra-AS haul from the AS's traffic centre to the eBGP session's
    /// interconnect city, which reproduces hot-potato exit selection at AS
    /// granularity. `None` means unreachable — such routes lose the
    /// tie-break.
    pub exit_cost: &'a dyn Fn(&Candidate) -> Option<u64>,
}

impl std::fmt::Debug for DecisionContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionContext").finish_non_exhaustive()
    }
}

impl DecisionContext<'_> {
    /// A context with no IGP (single-router ASes): every exit costs 0.
    pub fn no_igp() -> DecisionContext<'static> {
        DecisionContext {
            exit_cost: &|_| Some(0),
        }
    }
}

/// Sender router id used for the final tie-break: the announcing peer, or
/// self for local routes (locals always win earlier steps anyway).
fn sender_id(c: &Candidate) -> u32 {
    c.source.peer().map_or(0, |p| p.0)
}

/// Compares two candidates; `Ordering::Greater` means `a` is preferred.
pub fn compare_routes(a: &Candidate, b: &Candidate, ctx: &DecisionContext<'_>) -> Ordering {
    // 1. LOCAL_PREF, higher wins.
    match a.attrs.local_pref.cmp(&b.attrs.local_pref) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 2. AS_PATH length, shorter wins.
    match b.attrs.as_path.len().cmp(&a.attrs.as_path.len()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 3. ORIGIN, lower wins.
    match b.attrs.origin.cmp(&a.attrs.origin) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 4. MED, lower wins, only between routes from the same neighbour AS.
    if let (Some(na), Some(nb)) = (a.attrs.neighbor_as(), b.attrs.neighbor_as()) {
        if na == nb {
            match b.attrs.med.cmp(&a.attrs.med) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
    }
    // 5. eBGP over iBGP (local routes rank with eBGP here; in practice they
    //    differ in earlier steps or are the only candidate).
    let ebgp_rank = |c: &Candidate| match c.source {
        RouteSource::Local | RouteSource::Ebgp { .. } => 1,
        RouteSource::Ibgp { .. } => 0,
    };
    match ebgp_rank(a).cmp(&ebgp_rank(b)) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 6. IGP metric to the exit, lower wins; unknown cost loses.
    let cost = |c: &Candidate| (ctx.exit_cost)(c).unwrap_or(u64::MAX);
    match cost(b).cmp(&cost(a)) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 7. Shorter CLUSTER_LIST wins.
    match b.attrs.cluster_list.len().cmp(&a.attrs.cluster_list.len()) {
        Ordering::Equal => {}
        ord => return ord,
    }
    // 8. Lowest sender router id wins.
    sender_id(b).cmp(&sender_id(a))
}

/// Picks the best candidate from a non-empty iterator; `None` on empty.
pub fn select_best<'a, I>(candidates: I, ctx: &DecisionContext<'_>) -> Option<&'a Candidate>
where
    I: IntoIterator<Item = &'a Candidate>,
{
    candidates
        .into_iter()
        .fold(None, |best: Option<&'a Candidate>, c| match best {
            None => Some(c),
            Some(b) => {
                if compare_routes(c, b, ctx) == Ordering::Greater {
                    Some(c)
                } else {
                    Some(b)
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Relation;
    use crate::route::{Asn, Origin};

    fn cand(lp: u32, path: Vec<u32>, src: RouteSource) -> Candidate {
        Candidate {
            attrs: Arc::new(RouteAttrs {
                local_pref: lp,
                as_path: path.into_iter().map(Asn).collect(),
                origin: Origin::Igp,
                med: 0,
                communities: vec![],
                next_hop: SpeakerId(1),
                originator_id: None,
                cluster_list: vec![],
            }),
            source: src,
        }
    }

    fn ebgp(peer: u32) -> RouteSource {
        RouteSource::Ebgp {
            peer: SpeakerId(peer),
            peer_as: Asn(peer),
            relation: Relation::Provider,
        }
    }

    fn ibgp(peer: u32) -> RouteSource {
        RouteSource::Ibgp {
            peer: SpeakerId(peer),
        }
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let ctx = DecisionContext::no_igp();
        let a = cand(200, vec![1, 2, 3, 4], ebgp(9));
        let b = cand(100, vec![1], ebgp(8));
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);
    }

    #[test]
    fn path_length_then_origin() {
        let ctx = DecisionContext::no_igp();
        let a = cand(100, vec![1, 2], ebgp(9));
        let b = cand(100, vec![1, 2, 3], ebgp(8));
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);

        let mut c = cand(100, vec![1, 2], ebgp(9));
        Arc::make_mut(&mut c.attrs).origin = Origin::Incomplete;
        let d = cand(100, vec![3, 4], ebgp(8));
        assert_eq!(compare_routes(&d, &c, &ctx), Ordering::Greater);
    }

    #[test]
    fn med_only_within_same_neighbor() {
        let ctx = DecisionContext::no_igp();
        // Same neighbour AS 7: lower MED wins.
        let mut a = cand(100, vec![7, 9], ebgp(1));
        Arc::make_mut(&mut a.attrs).med = 10;
        let mut b = cand(100, vec![7, 8], ebgp(2));
        Arc::make_mut(&mut b.attrs).med = 20;
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);
        // Different neighbour AS: MED skipped, falls to router id (lower
        // sender wins).
        let mut c = cand(100, vec![5, 9], ebgp(1));
        Arc::make_mut(&mut c.attrs).med = 99;
        let mut d = cand(100, vec![7, 8], ebgp(2));
        Arc::make_mut(&mut d.attrs).med = 0;
        assert_eq!(compare_routes(&c, &d, &ctx), Ordering::Greater);
    }

    #[test]
    fn ebgp_beats_ibgp() {
        let ctx = DecisionContext::no_igp();
        let a = cand(100, vec![1, 2], ebgp(9));
        let b = cand(100, vec![1, 2], ibgp(3));
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);
        assert_eq!(compare_routes(&b, &a, &ctx), Ordering::Less);
    }

    #[test]
    fn igp_metric_hot_potato() {
        // Two iBGP routes to next hops 10 (cost 5) and 20 (cost 50): hot
        // potato picks the nearer egress.
        let costs = |c: &Candidate| Some(if c.attrs.next_hop.0 == 10 { 5 } else { 50 });
        let ctx = DecisionContext { exit_cost: &costs };
        let mut a = cand(100, vec![1, 2], ibgp(3));
        Arc::make_mut(&mut a.attrs).next_hop = SpeakerId(10);
        let mut b = cand(100, vec![4, 5], ibgp(6));
        Arc::make_mut(&mut b.attrs).next_hop = SpeakerId(20);
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);
    }

    #[test]
    fn unknown_igp_cost_loses() {
        let costs = |c: &Candidate| {
            if c.attrs.next_hop.0 == 10 {
                Some(5)
            } else {
                None
            }
        };
        let ctx = DecisionContext { exit_cost: &costs };
        let mut a = cand(100, vec![1, 2], ibgp(3));
        Arc::make_mut(&mut a.attrs).next_hop = SpeakerId(10);
        let mut b = cand(100, vec![4, 5], ibgp(6));
        Arc::make_mut(&mut b.attrs).next_hop = SpeakerId(99);
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);
    }

    #[test]
    fn cluster_list_then_router_id() {
        let ctx = DecisionContext::no_igp();
        let mut a = cand(100, vec![1, 2], ibgp(9));
        Arc::make_mut(&mut a.attrs).cluster_list = vec![1];
        let mut b = cand(100, vec![4, 5], ibgp(3));
        Arc::make_mut(&mut b.attrs).cluster_list = vec![1, 2];
        assert_eq!(compare_routes(&a, &b, &ctx), Ordering::Greater);

        let c = cand(100, vec![1, 2], ibgp(3));
        let d = cand(100, vec![4, 5], ibgp(9));
        assert_eq!(compare_routes(&c, &d, &ctx), Ordering::Greater);
    }

    #[test]
    fn total_order_antisymmetry_on_samples() {
        let ctx = DecisionContext::no_igp();
        let cands = vec![
            cand(100, vec![1], ebgp(2)),
            cand(100, vec![1], ibgp(3)),
            cand(130, vec![1, 2, 3], ebgp(4)),
            cand(100, vec![1, 2], ebgp(5)),
        ];
        for x in &cands {
            assert_eq!(compare_routes(x, x, &ctx), Ordering::Equal);
            for y in &cands {
                let xy = compare_routes(x, y, &ctx);
                let yx = compare_routes(y, x, &ctx);
                assert_eq!(xy, yx.reverse());
            }
        }
    }

    #[test]
    fn select_best_works() {
        let ctx = DecisionContext::no_igp();
        let cands = [
            cand(100, vec![1, 2], ebgp(2)),
            cand(130, vec![1, 2, 3], ebgp(4)),
            cand(100, vec![1], ebgp(5)),
        ];
        let best = select_best(cands.iter(), &ctx).unwrap();
        assert_eq!(best.attrs.local_pref, 130);
        assert!(select_best([].iter(), &ctx).is_none());
    }
}
