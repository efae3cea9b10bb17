//! Routing policy: business relations, import preferences, export scoping.
//!
//! The synthetic Internet follows the standard Gao–Rexford model the paper
//! assumes of transit providers: routes from customers are preferred over
//! routes from peers over routes from providers, and only customer/own
//! routes are exported to peers and providers. VNS itself deviates from
//! this — its geo route reflector overwrites LOCAL_PREF "without taking
//! into account business relationships" (Sec 4.2) — which is exactly the
//! contrast Figs 4 and 5 measure.

use crate::route::{Community, RouteAttrs, DEFAULT_LOCAL_PREF};

/// Our business relationship to a neighbouring AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relation {
    /// The neighbour pays us for transit (they are our customer).
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay them for transit (they are our provider/upstream).
    Provider,
}

impl Relation {
    /// The relation as seen from the other side of the link.
    pub fn inverse(&self) -> Relation {
        match self {
            Relation::Customer => Relation::Provider,
            Relation::Peer => Relation::Peer,
            Relation::Provider => Relation::Customer,
        }
    }
}

/// Import policy applied to eBGP-learned routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Gao–Rexford: LOCAL_PREF by relation (customer 130 > peer 110 >
    /// provider 90).
    GaoRexford,
    /// Flat: every eBGP route gets the default LOCAL_PREF (100). This is
    /// VNS's baseline ("before") configuration, where the decision falls
    /// through to AS-path length and hot-potato IGP metric.
    FlatPreference,
}

/// LOCAL_PREF assigned by [`Policy::GaoRexford`] per relation.
pub fn gao_rexford_local_pref(rel: Relation) -> u32 {
    match rel {
        Relation::Customer => 130,
        Relation::Peer => 110,
        Relation::Provider => 90,
    }
}

/// Community tags recording which relation a route was learned over, so
/// multi-router ASes can apply valley-free export to iBGP-learned routes
/// (real operators do exactly this with ingress community tagging).
pub const REL_TAG_CUSTOMER: Community = Community::Tag(0xFFF1);
/// See [`REL_TAG_CUSTOMER`].
pub const REL_TAG_PEER: Community = Community::Tag(0xFFF2);
/// See [`REL_TAG_CUSTOMER`].
pub const REL_TAG_PROVIDER: Community = Community::Tag(0xFFF3);

/// The ingress tag for a relation.
pub fn relation_tag(rel: Relation) -> Community {
    match rel {
        Relation::Customer => REL_TAG_CUSTOMER,
        Relation::Peer => REL_TAG_PEER,
        Relation::Provider => REL_TAG_PROVIDER,
    }
}

/// Reads a relation tag back from a route's communities.
pub fn relation_from_tags(attrs: &RouteAttrs) -> Option<Relation> {
    if attrs.has_community(REL_TAG_CUSTOMER) {
        Some(Relation::Customer)
    } else if attrs.has_community(REL_TAG_PEER) {
        Some(Relation::Peer)
    } else if attrs.has_community(REL_TAG_PROVIDER) {
        Some(Relation::Provider)
    } else {
        None
    }
}

/// Removes relation tags (done at eBGP export — the tags are AS-internal).
pub fn strip_relation_tags(attrs: &mut RouteAttrs) {
    attrs
        .communities
        .retain(|c| !matches!(c, &REL_TAG_CUSTOMER | &REL_TAG_PEER | &REL_TAG_PROVIDER));
}

impl Policy {
    /// Applies the import policy to a route learned over eBGP from a
    /// neighbour related to us as `rel`, rewriting `attrs` in place. Every
    /// policy accepts; rejection is the speaker's loop checks.
    pub fn import_ebgp(&self, rel: Relation, attrs: &mut RouteAttrs) {
        match self {
            Policy::GaoRexford => {
                attrs.local_pref = gao_rexford_local_pref(rel);
                // Tag the ingress relation so sibling routers in this AS
                // can export valley-free.
                strip_relation_tags(attrs);
                attrs.communities.push(relation_tag(rel));
            }
            Policy::FlatPreference => attrs.local_pref = DEFAULT_LOCAL_PREF,
        }
    }
}

/// Export scoping over eBGP (Gao–Rexford): may a route learned from
/// `learned_from` be exported to a neighbour related to us as `export_to`?
///
/// `learned_from = None` means locally originated (always exported).
/// iBGP-learned routes are handled by the speaker (exported over eBGP only
/// when the local AS provides transit, which VNS does not).
pub fn may_export(learned_from: Option<Relation>, export_to: Relation) -> bool {
    match learned_from {
        // Own routes go to everyone.
        None => true,
        // Customer routes go to everyone (we are paid to carry them).
        Some(Relation::Customer) => true,
        // Peer/provider routes only go to customers (no free transit).
        Some(Relation::Peer) | Some(Relation::Provider) => export_to == Relation::Customer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{Origin, SpeakerId};

    fn attrs() -> RouteAttrs {
        RouteAttrs {
            local_pref: 0,
            as_path: vec![].into(),
            origin: Origin::Igp,
            med: 0,
            communities: vec![],
            next_hop: SpeakerId(0),
            originator_id: None,
            cluster_list: vec![],
        }
    }

    #[test]
    fn inverse_relations() {
        assert_eq!(Relation::Customer.inverse(), Relation::Provider);
        assert_eq!(Relation::Provider.inverse(), Relation::Customer);
        assert_eq!(Relation::Peer.inverse(), Relation::Peer);
    }

    #[test]
    fn gao_rexford_preference_order() {
        assert!(
            gao_rexford_local_pref(Relation::Customer) > gao_rexford_local_pref(Relation::Peer)
        );
        assert!(
            gao_rexford_local_pref(Relation::Peer) > gao_rexford_local_pref(Relation::Provider)
        );
    }

    #[test]
    fn import_sets_local_pref() {
        let mut a = attrs();
        Policy::GaoRexford.import_ebgp(Relation::Peer, &mut a);
        assert_eq!(a.local_pref, 110);
        let mut b = attrs();
        Policy::FlatPreference.import_ebgp(Relation::Customer, &mut b);
        assert_eq!(b.local_pref, DEFAULT_LOCAL_PREF);
    }

    #[test]
    fn valley_free_export_matrix() {
        use Relation::*;
        // (learned_from, export_to) -> allowed
        let cases = [
            (None, Customer, true),
            (None, Peer, true),
            (None, Provider, true),
            (Some(Customer), Customer, true),
            (Some(Customer), Peer, true),
            (Some(Customer), Provider, true),
            (Some(Peer), Customer, true),
            (Some(Peer), Peer, false),
            (Some(Peer), Provider, false),
            (Some(Provider), Customer, true),
            (Some(Provider), Peer, false),
            (Some(Provider), Provider, false),
        ];
        for (from, to, want) in cases {
            assert_eq!(may_export(from, to), want, "from {from:?} to {to:?}");
        }
    }
}
