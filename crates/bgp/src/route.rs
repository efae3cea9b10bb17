//! Route attributes and identifiers.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::policy::Relation;

/// An Autonomous System number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A BGP speaker (router) identifier, unique across the whole simulated
/// network. Doubles as the router id used in the final decision tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpeakerId(pub u32);

impl fmt::Display for SpeakerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// An AS_PATH: an immutable, atomically reference-counted AS sequence,
/// nearest AS first.
///
/// Shared by provenance, not interned: `clone` is a refcount bump, so every
/// copy *derived from* a path — the attribute sets a router copies on
/// import or reflection, and everything that shares those sets — points at
/// one allocation, while [`AsPath::prepend`] (the only mutation BGP ever
/// performs, once per eBGP export form) builds a new one. Two routers that
/// arrive at equal paths independently hold two allocations; no table
/// looks paths up by value, so equality is a slice comparison.
///
/// Derefs to `[Asn]`, so slice reads (`len`, `iter`, `first`, `contains`)
/// work unchanged.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AsPath(Arc<[Asn]>);

impl AsPath {
    /// The empty path (locally originated routes).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A new path with `asn` prepended — the eBGP export operation. The
    /// receiver-side path is one element longer; the original is shared,
    /// untouched.
    #[must_use]
    pub fn prepend(&self, asn: Asn) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.push(asn);
        v.extend_from_slice(&self.0);
        AsPath(v.into())
    }

    /// The path as a slice, nearest AS first.
    pub fn as_slice(&self) -> &[Asn] {
        &self.0
    }
}

impl Deref for AsPath {
    type Target = [Asn];

    fn deref(&self) -> &[Asn] {
        &self.0
    }
}

impl From<Vec<Asn>> for AsPath {
    fn from(v: Vec<Asn>) -> Self {
        AsPath(v.into())
    }
}

impl From<&[Asn]> for AsPath {
    fn from(v: &[Asn]) -> Self {
        AsPath(v.into())
    }
}

impl<const N: usize> From<[Asn; N]> for AsPath {
    fn from(v: [Asn; N]) -> Self {
        AsPath(v.as_slice().into())
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        AsPath(iter.into_iter().collect())
    }
}

impl PartialEq<Vec<Asn>> for AsPath {
    fn eq(&self, other: &Vec<Asn>) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<[Asn]> for AsPath {
    fn eq(&self, other: &[Asn]) -> bool {
        *self.0 == *other
    }
}

impl<const N: usize> PartialEq<[Asn; N]> for AsPath {
    fn eq(&self, other: &[Asn; N]) -> bool {
        *self.0 == other[..]
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a AsPath {
    type Item = &'a Asn;
    type IntoIter = std::slice::Iter<'a, Asn>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The ORIGIN attribute; lower is preferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    /// Learned from an interior protocol (best).
    Igp,
    /// Learned via EGP.
    Egp,
    /// Redistributed/unknown (worst).
    Incomplete,
}

/// BGP community values. Only the well-known ones the paper uses are
/// modelled, plus free-form tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Community {
    /// RFC 1997 `NO_EXPORT`: do not advertise over eBGP. The management
    /// interface tags injected more-specifics with this so they never leak
    /// outside VNS (Sec 3.2).
    NoExport,
    /// RFC 1997 `NO_ADVERTISE`: do not advertise to any peer.
    NoAdvertise,
    /// Operator-defined tag.
    Tag(u32),
}

/// Default LOCAL_PREF assigned when a route carries none (RFC-typical 100;
/// the paper's geo values are always "much higher than the default of 100").
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// The attributes of one route announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAttrs {
    /// LOCAL_PREF — higher wins; meaningful only inside an AS.
    pub local_pref: u32,
    /// AS_PATH, nearest AS first (shared, not copied; see [`AsPath`]).
    pub as_path: AsPath,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// Multi-Exit Discriminator — lower wins, compared between routes from
    /// the same neighbour AS.
    pub med: u32,
    /// Communities.
    pub communities: Vec<Community>,
    /// The border router through which traffic exits the local AS (set to
    /// the receiving router at eBGP ingress, preserved across iBGP — i.e.
    /// next-hop-self convention).
    pub next_hop: SpeakerId,
    /// ORIGINATOR_ID — set by a route reflector to the router that injected
    /// the route into iBGP (loop prevention).
    pub originator_id: Option<SpeakerId>,
    /// CLUSTER_LIST — cluster ids prepended by each reflector (loop
    /// prevention + tie-break).
    pub cluster_list: Vec<u32>,
}

impl RouteAttrs {
    /// Attributes for a locally originated route on router `me`.
    pub fn originate(me: SpeakerId) -> Self {
        Self {
            local_pref: DEFAULT_LOCAL_PREF,
            as_path: AsPath::empty(),
            origin: Origin::Igp,
            med: 0,
            communities: Vec::new(),
            next_hop: me,
            originator_id: None,
            cluster_list: Vec::new(),
        }
    }

    /// Whether a community is present.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.contains(&c)
    }

    /// The neighbouring AS this route was heard from (first AS on the
    /// path); `None` for locally originated routes.
    pub fn neighbor_as(&self) -> Option<Asn> {
        self.as_path.first().copied()
    }

    /// Whether `asn` appears on the AS path (eBGP loop check).
    pub fn path_contains(&self, asn: Asn) -> bool {
        self.as_path.contains(&asn)
    }
}

/// How a RIB entry was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSource {
    /// Learned over eBGP from `peer` in `peer_as`, related to us as
    /// `relation` (our view: the peer is our customer/peer/provider).
    Ebgp {
        /// Sending router.
        peer: SpeakerId,
        /// Its AS.
        peer_as: Asn,
        /// Our business relationship to that AS.
        relation: Relation,
    },
    /// Learned over iBGP from `peer`.
    Ibgp {
        /// Sending router (RR or client).
        peer: SpeakerId,
    },
    /// Locally originated.
    Local,
}

impl RouteSource {
    /// True for eBGP-learned routes.
    pub fn is_ebgp(&self) -> bool {
        matches!(self, RouteSource::Ebgp { .. })
    }

    /// True for iBGP-learned routes.
    pub fn is_ibgp(&self) -> bool {
        matches!(self, RouteSource::Ibgp { .. })
    }

    /// The sending router, `None` for local routes.
    pub fn peer(&self) -> Option<SpeakerId> {
        match self {
            RouteSource::Ebgp { peer, .. } | RouteSource::Ibgp { peer } => Some(*peer),
            RouteSource::Local => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_ordering() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn path_helpers() {
        let mut a = RouteAttrs::originate(SpeakerId(1));
        assert_eq!(a.neighbor_as(), None);
        a.as_path = vec![Asn(10), Asn(20), Asn(30)].into();
        assert_eq!(a.neighbor_as(), Some(Asn(10)));
        assert!(a.path_contains(Asn(20)));
        assert!(!a.path_contains(Asn(40)));
    }

    #[test]
    fn as_path_prepend_shares_tail_allocation() {
        let base: AsPath = vec![Asn(20), Asn(30)].into();
        let longer = base.prepend(Asn(10));
        assert_eq!(longer, vec![Asn(10), Asn(20), Asn(30)]);
        // The original is untouched and clones are refcount bumps.
        assert_eq!(base, vec![Asn(20), Asn(30)]);
        let copy = longer.clone();
        assert!(std::ptr::eq(copy.as_slice(), longer.as_slice()));
    }

    #[test]
    fn as_path_slice_reads() {
        let p: AsPath = vec![Asn(1), Asn(2)].into();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(p.contains(&Asn(2)));
        assert_eq!(p.first(), Some(&Asn(1)));
        assert_eq!(p.last(), Some(&Asn(2)));
        assert!(AsPath::empty().is_empty());
        let collected: Vec<Asn> = p.iter().copied().collect();
        assert_eq!(p, collected);
    }

    #[test]
    fn communities() {
        let mut a = RouteAttrs::originate(SpeakerId(1));
        assert!(!a.has_community(Community::NoExport));
        a.communities.push(Community::NoExport);
        a.communities.push(Community::Tag(7));
        assert!(a.has_community(Community::NoExport));
        assert!(a.has_community(Community::Tag(7)));
        assert!(!a.has_community(Community::Tag(8)));
    }

    #[test]
    fn source_kinds() {
        let e = RouteSource::Ebgp {
            peer: SpeakerId(2),
            peer_as: Asn(2),
            relation: Relation::Peer,
        };
        assert!(e.is_ebgp() && !e.is_ibgp());
        assert_eq!(e.peer(), Some(SpeakerId(2)));
        assert_eq!(RouteSource::Local.peer(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Asn(64500).to_string(), "AS64500");
        assert_eq!(SpeakerId(3).to_string(), "R3");
    }
}
