//! A BGP speaker: one router's RIBs, import/export processing, route
//! reflection and best-external.
//!
//! The update flow mirrors a real implementation:
//!
//! ```text
//! receive() ── import policy / loop checks / import preferences ──▶ Adj-RIB-In
//! process() ── decision process per dirty prefix ──▶ Loc-RIB
//!          └── export policy per peer, diffed against Adj-RIB-Out ──▶ messages
//! ```
//!
//! The **import preferences** are where the paper's contribution plugs in:
//! `vns-core` gives the route-reflector speakers an [`ImportPrefs`] table
//! holding the LOCAL_PREF of every (prefix, egress router) pair, filled
//! from the great-circle distance between the router and the prefix's
//! GeoIP location (Sec 3.2).
//!
//! **Best external** (Sec 3.2, "hidden routes"): when a border router's
//! overall best route is iBGP-learned, it would normally stay silent over
//! iBGP, hiding its own eBGP alternative from the reflectors — which can
//! lock the whole AS onto a geographically wrong egress. With
//! `best_external` enabled the router advertises its best eBGP-learned
//! route to its iBGP peers in that situation, exactly the vendor feature
//! the paper enables.
//!
//! **One slot per prefix.** Everything a speaker holds for one prefix — the
//! Adj-RIB-In candidates, its own origination and the Adj-RIB-Out row —
//! sits in one slot, and the slots sit in a `Vec` indexed by the prefix's
//! dense id in the network's prefix table (`prefix_ids`); the Loc-RIB entry
//! sits at the same index of a second `Vec`, `loc_rib`. Inside a
//! [`crate::BgpNet`] every message carries that id, so `receive` and
//! `reselect` reach a prefix's whole state by index and search no map. The
//! Loc-RIB is a column of its own for its readers: the resolver and the
//! verifier's graph read one selected route per speaker per destination, and
//! 24-byte entries put the next destination's on the same cache line where a
//! slot-wide stride put every read on a line of its own. A world's speakers
//! hold nearly every prefix (scale 2: 350 speakers × 685 prefixes, every
//! pair with a Loc-RIB entry), so a speaker sizes both to the whole table;
//! the network fits them exactly before it converges, so they carry no
//! growth slack. A slot's candidate list and row keep their first two
//! entries inline (72 % of a scale-2 world's candidate lists hold one or
//! two).
//!
//! **Who names prefixes, and in which order.** The speakers of a network
//! share its prefix table (an `Arc`); a standalone speaker owns one. The
//! table orders every reader: `loc_rib_entries`, `adj_rib_in_entries` and
//! `loc_rib_prefixes` walk it in `(addr, len)` order and index the slots,
//! and `originated_prefixes` keeps its ids in prefix order — ids are
//! first-seen (a steering /18 arrives after its /16), so id order is not
//! prefix order. [`Speaker::lookup_up_to`] probes the table's longest-match
//! census, longest first, and indexes the Loc-RIB: the longest named prefix
//! this speaker has selected. [`Speaker::lookup_in`] takes the same matches
//! from a [`Covering`] list the caller built once for every speaker it asks;
//! one helper picks the first selected match for both. The readers hand out
//! each prefix's [`PrefixId`] beside it, and the by-prefix readers accept
//! the id instead ([`PrefixKey`]), so a walk that holds one indexes. The
//! dirty queue holds ids and drains in prefix order, so
//! [`Speaker::process`] emits what it always has, in that order.
//!
//! **Adj-RIB-In order.** A slot's candidates are sorted by sender, one per
//! sender: a prefix's candidates are visited in sender order, and
//! whole-RIB iteration is prefix order, then sender order — the order the
//! decision process and every reader (`candidates`, `adj_rib_in_entries`)
//! have always seen.
//!
//! **Who shares an attribute set.** `Candidate::attrs`, `Message::Update`
//! and locally originated routes hold an `Arc<RouteAttrs>`. Sharing follows
//! provenance only — a clone of something is the same allocation, two equal
//! sets built independently are two allocations; there is no interner. One
//! allocation is shared by: an Adj-RIB-In entry and the Loc-RIB entry it
//! won; a locally originated route and its Loc-RIB entry; every message one
//! reselect emits in the same export form; and, over iBGP, the sender's
//! form and the Adj-RIB-In entry of every receiver whose import
//! preferences leave the route's LOCAL_PREF as it is.
//! Writers copy first (`Arc::make_mut`): eBGP import (LOCAL_PREF,
//! next-hop-self, relation tag), an import preference that changes
//! LOCAL_PREF, and the planted-defect hooks.
//!
//! **The export-form rule.** What a candidate looks like on the wire does
//! not depend on who receives it; only *whether* a peer may hear it does.
//! A candidate has three forms — as-is (own and eBGP-learned routes over
//! iBGP: the candidate's own allocation), the eBGP form (relation tags
//! stripped, own AS prepended, LOCAL_PREF / MED / next hop / reflection
//! attributes reset) and the reflected form (ORIGINATOR_ID and
//! CLUSTER_LIST stamped). A reselect builds each form, and its Adj-RIB-Out
//! fingerprint, at most once per candidate; per peer it only runs the
//! allow/deny filter and bumps a refcount. The part of that filter that
//! does not depend on the receiver either — `NO_ADVERTISE`, and whether the
//! route may cross an eBGP session at all and as learned over which
//! relation — is read off the communities once per candidate
//! (`ExportForms::new`), so a neighbour visit scans no community list.
//!
//! **Adj-RIB-Out rows.** What was last advertised is kept per prefix, not
//! per peer: a slot's row is `(peer, fingerprint)` sorted by peer. A
//! reselect exports one prefix to every peer in peer order, so it takes the
//! row out of the slot and merge-joins it with the peer table (a `Vec`
//! sorted by peer) behind a single cursor — in-place update, insert or
//! remove at the cursor — instead of searching per neighbour. Two
//! invariants: a row is sorted by peer with each peer at most once; a row
//! names configured peers only. `remove_peer` keeps the second by purging
//! the peer from every row — an entry for a peer the walk never visits
//! would park the cursor in front of it, and every later peer would read
//! "nothing sent" and re-send on every reselect. Writers: `reselect` (the
//! walk), `remove_peer` (the purge) and `request_refresh_all` (poisons
//! fingerprints in place).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::decision::{select_best, Candidate, DecisionContext};
use crate::net::WorkCounters;
use crate::policy::{may_export, relation_from_tags, strip_relation_tags, Policy, Relation};
use crate::prefix::Prefix;
use crate::prefix_ids::{Covering, PrefixId, PrefixKey, PrefixTable};
use crate::route::{Asn, Community, RouteAttrs, RouteSource, SpeakerId, DEFAULT_LOCAL_PREF};

/// A BGP message on a session.
///
/// `P` names the prefix: a [`Prefix`] on a speaker's own API
/// ([`Speaker::receive`], [`Speaker::process`]); the network's dense prefix
/// id between the speakers of a [`crate::BgpNet`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message<P = Prefix> {
    /// Announce/replace a route to `prefix`.
    Update {
        /// The prefix.
        prefix: P,
        /// Attributes as sent on the wire; every message one reselect
        /// emits in the same export form shares this allocation.
        attrs: Arc<RouteAttrs>,
    },
    /// Withdraw the previously announced route to `prefix`.
    Withdraw {
        /// The prefix.
        prefix: P,
    },
}

/// Session type, from the configuring speaker's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerKind {
    /// External session to a router in `peer_as`, which is our
    /// customer/peer/provider per `relation`.
    Ebgp {
        /// The neighbour's AS.
        peer_as: Asn,
        /// Our relationship to it.
        relation: Relation,
    },
    /// Internal session to a regular iBGP neighbour (from a client's view,
    /// its route reflector; or RR-to-RR).
    Ibgp,
    /// Internal session to one of *our* reflection clients (we are the RR).
    IbgpClient,
}

impl PeerKind {
    /// True for external sessions.
    pub fn is_ebgp(&self) -> bool {
        matches!(self, PeerKind::Ebgp { .. })
    }
}

/// Per-peer configuration.
#[derive(Debug, Clone, Copy)]
pub struct PeerConfig {
    /// Session type.
    pub kind: PeerKind,
    /// Import policy applied to routes from this peer (eBGP only).
    pub import: Policy,
}

/// LOCAL_PREF by prefix and next hop: what a speaker assigns to every
/// iBGP-learned route with a non-empty AS path before it enters
/// Adj-RIB-In.
///
/// This is how `vns-core` implements the paper's modified Quagga: the geo
/// route reflector's LOCAL_PREF depends only on the route's egress router
/// (its next hop, which next-hop-self at ingress preserves across iBGP) and
/// the prefix, so `vns-core` fills one table — every prefix the network
/// names × every VNS router — and gives it to both reflectors. A row is a
/// prefix id of the network's table ([`crate::BgpNet::import_prefs`]
/// builds one); a column, a next hop. A missing row or cell (a prefix named
/// after the table was built, a next hop without a column, a cell left
/// `None`) leaves the route alone, and so does a route learned over eBGP or
/// originated inside the AS (empty AS path).
#[derive(Debug, Clone)]
pub struct ImportPrefs {
    /// The next hops with a column, sorted.
    next_hops: Vec<SpeakerId>,
    /// `cells[row * next_hops.len() + column]`.
    cells: Vec<Option<u32>>,
}

impl ImportPrefs {
    /// The table `pref` gives every prefix `table` names (one row per id)
    /// × every hop in `next_hops`.
    pub(crate) fn build(
        table: &PrefixTable,
        mut next_hops: Vec<SpeakerId>,
        mut pref: impl FnMut(Prefix, SpeakerId) -> Option<u32>,
    ) -> Self {
        next_hops.sort_unstable();
        next_hops.dedup();
        let mut cells = Vec::with_capacity(table.len() * next_hops.len());
        for i in 0..table.len() {
            let prefix = table.prefix(PrefixId::from_index(i));
            cells.extend(next_hops.iter().map(|&hop| pref(prefix, hop)));
        }
        Self { next_hops, cells }
    }

    /// The LOCAL_PREF of a route to prefix `id` via `next_hop`; `None`
    /// leaves such a route alone.
    pub fn get(&self, id: PrefixId, next_hop: SpeakerId) -> Option<u32> {
        let column = self.next_hops.binary_search(&next_hop).ok()?;
        *self.cells.get(id.index() * self.next_hops.len() + column)?
    }

    /// Applies the table to a route for prefix `id` learned from `source`.
    /// The attributes stay the sender's allocation unless the preference
    /// changes; only then are they copied.
    fn apply(&self, id: PrefixId, source: &RouteSource, attrs: &mut Arc<RouteAttrs>) {
        if !source.is_ibgp() || attrs.as_path.is_empty() {
            return;
        }
        if let Some(lp) = self
            .get(id, attrs.next_hop)
            .filter(|lp| *lp != attrs.local_pref)
        {
            Arc::make_mut(attrs).local_pref = lp;
        }
    }
}

/// Stable hash of advertised attributes, used to diff Adj-RIB-Out without
/// storing full copies.
fn attrs_fingerprint(attrs: &RouteAttrs) -> u64 {
    let mut h = DefaultHasher::new();
    attrs.local_pref.hash(&mut h);
    attrs.as_path.hash(&mut h);
    (attrs.origin as u8).hash(&mut h);
    attrs.med.hash(&mut h);
    attrs.communities.hash(&mut h);
    attrs.next_hop.hash(&mut h);
    attrs.originator_id.hash(&mut h);
    attrs.cluster_list.hash(&mut h);
    h.finish()
}

/// One wire form of a candidate: the attributes as sent and their
/// Adj-RIB-Out fingerprint.
type Export = (Arc<RouteAttrs>, u64);

/// Which of a candidate's wire forms a peer hears (the export-form rule in
/// the module docs).
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Own and eBGP-learned routes over iBGP: the candidate's allocation.
    AsIs,
    /// Any exportable route over eBGP.
    Ebgp,
    /// iBGP-learned routes a reflector passes on.
    Reflected,
}

/// One candidate's wire forms during one export pass, each built on first
/// use and then handed to every further peer by reference.
struct ExportForms<'a> {
    candidate: &'a Candidate,
    // The exporter's identity, copied so the export loop can write
    // Adj-RIB-Out while the forms are alive.
    id: SpeakerId,
    asn: Asn,
    cluster_id: u32,
    /// The candidate was learned from one of the exporter's reflection
    /// clients.
    from_client: bool,
    /// Carries `NO_ADVERTISE`: no peer hears it.
    no_advertise: bool,
    /// `None`: stays off every eBGP session. `Some(learned)`: may cross
    /// one, subject to [`may_export`] from the relation it was learned
    /// over (`None` = this AS's own route).
    ebgp_scope: Option<Option<Relation>>,
    built: [Option<Export>; 3],
}

impl<'a> ExportForms<'a> {
    fn new(exporter: &Speaker, candidate: &'a Candidate) -> Self {
        let from_client = match candidate.source {
            RouteSource::Ibgp { peer } => exporter
                .peer_config(peer)
                .is_some_and(|c| c.kind == PeerKind::IbgpClient),
            RouteSource::Local | RouteSource::Ebgp { .. } => false,
        };
        let attrs = &candidate.attrs;
        // Valley-free scoping. iBGP-learned routes export over eBGP only
        // when an ingress relation tag proves they came from a
        // customer/peer/provider session elsewhere in this AS (multi-router
        // transit providers); untagged ones (VNS runs FlatPreference and
        // never tags) stay internal — VNS provides no transit.
        let ebgp_scope = if attrs.has_community(Community::NoExport) {
            None
        } else {
            match candidate.source {
                RouteSource::Local => Some(None),
                RouteSource::Ebgp { relation, .. } => Some(Some(relation)),
                RouteSource::Ibgp { .. } => match relation_from_tags(attrs) {
                    Some(rel) => Some(Some(rel)),
                    // Empty path + no tag = originated by a sibling router
                    // in this AS.
                    None if exporter.export_own_ibgp && attrs.as_path.is_empty() => Some(None),
                    None => None,
                },
            }
        };
        Self {
            candidate,
            id: exporter.id,
            asn: exporter.asn,
            cluster_id: exporter.cluster_id,
            from_client,
            no_advertise: attrs.has_community(Community::NoAdvertise),
            ebgp_scope,
            built: [None, None, None],
        }
    }

    /// How many wire forms were built.
    fn built(&self) -> u64 {
        self.built.iter().flatten().count() as u64
    }

    /// The per-peer half of the export rules: whether `peer` may hear this
    /// candidate at all, and in which form. Reads only, and only what
    /// depends on the peer — the rest was decided in [`ExportForms::new`].
    fn form_for(&self, peer: SpeakerId, kind: PeerKind) -> Option<Form> {
        let candidate = self.candidate;
        // Never echo a route back to the peer it came from.
        if candidate.source.peer() == Some(peer) || self.no_advertise {
            return None;
        }
        match kind {
            PeerKind::Ebgp { peer_as, relation } => {
                if !may_export(self.ebgp_scope?, relation) {
                    return None;
                }
                // Sender-side loop avoidance.
                if candidate.attrs.path_contains(peer_as) {
                    return None;
                }
                Some(Form::Ebgp)
            }
            PeerKind::Ibgp | PeerKind::IbgpClient => match candidate.source {
                // Own and eBGP-learned routes go to every iBGP peer.
                RouteSource::Local | RouteSource::Ebgp { .. } => Some(Form::AsIs),
                // iBGP-learned routes: reflection rules. Plain iBGP (not
                // from a client, not to a client) never re-advertises.
                RouteSource::Ibgp { .. } => {
                    (self.from_client || kind == PeerKind::IbgpClient).then_some(Form::Reflected)
                }
            },
        }
    }

    /// The candidate in `form` with its fingerprint, built on first use.
    fn get(&mut self, form: Form) -> &Export {
        let Self {
            candidate,
            id,
            asn,
            cluster_id,
            ..
        } = *self;
        self.built[form as usize].get_or_insert_with(|| {
            let attrs = match form {
                Form::AsIs => Arc::clone(&candidate.attrs),
                Form::Ebgp => {
                    let mut attrs = RouteAttrs::clone(&candidate.attrs);
                    strip_relation_tags(&mut attrs);
                    attrs.as_path = attrs.as_path.prepend(asn);
                    attrs.local_pref = DEFAULT_LOCAL_PREF; // non-transitive
                    attrs.med = 0; // non-transitive
                    attrs.next_hop = id;
                    attrs.originator_id = None;
                    attrs.cluster_list.clear();
                    Arc::new(attrs)
                }
                Form::Reflected => {
                    // Acting as reflector: stamp ORIGINATOR_ID (the iBGP
                    // peer the route was learned from) and CLUSTER_LIST.
                    let mut attrs = RouteAttrs::clone(&candidate.attrs);
                    attrs.originator_id = attrs.originator_id.or(candidate.source.peer());
                    attrs.cluster_list.insert(0, cluster_id);
                    Arc::new(attrs)
                }
            };
            let fingerprint = attrs_fingerprint(&attrs);
            (attrs, fingerprint)
        })
    }
}

/// Which candidate a peer hears, and in which form.
#[derive(Debug, Clone, Copy)]
enum Heard {
    /// The best route.
    Best(Form),
    /// The best-external fallback.
    External(Form),
}

/// The export decision: whether `peer` hears anything, and what — the best
/// route in the form its session takes, else the best-external fallback.
/// Builds nothing; [`export_for`] builds what it decides, and
/// [`Speaker::advertises_to`] reads only the decision.
fn heard(
    best: &ExportForms<'_>,
    best_ext: Option<&ExportForms<'_>>,
    peer: SpeakerId,
    kind: PeerKind,
) -> Option<Heard> {
    if let Some(form) = best.form_for(peer, kind) {
        return Some(Heard::Best(form));
    }
    // Best-external: when the best route is iBGP-learned (and therefore
    // not advertised back over iBGP by the rules above), a border router
    // still offers its best eBGP-learned route to its iBGP peers so the
    // reflectors keep seeing every external option.
    if !kind.is_ebgp() && best.candidate.source.is_ibgp() {
        return best_ext?.form_for(peer, kind).map(Heard::External);
    }
    None
}

/// What (if anything) `peer` should currently hear: [`heard`]'s decision,
/// built.
fn export_for<'f>(
    best: Option<&'f mut ExportForms<'_>>,
    best_ext: Option<&'f mut ExportForms<'_>>,
    peer: SpeakerId,
    kind: PeerKind,
) -> Option<&'f Export> {
    let best = best?;
    match heard(best, best_ext.as_deref(), peer, kind)? {
        Heard::Best(form) => Some(best.get(form)),
        Heard::External(form) => best_ext.map(|ext| ext.get(form)),
    }
}

/// A short list its owner keeps sorted: up to two entries inline, more on
/// the heap.
#[derive(Debug, Clone, Default)]
enum Few<T> {
    #[default]
    Zero,
    One(T),
    Two([T; 2]),
    /// Three or more.
    Many(Vec<T>),
}

impl<T> Few<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Few::Zero => &[],
            Few::One(a) => std::slice::from_ref(a),
            Few::Two(ab) => ab,
            Few::Many(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Few::Zero => &mut [],
            Few::One(a) => std::slice::from_mut(a),
            Few::Two(ab) => ab,
            Few::Many(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        matches!(self, Few::Zero)
    }

    /// Inserts `x` at position `at`, shifting the rest up.
    fn insert(&mut self, at: usize, x: T) {
        *self = match std::mem::take(self) {
            Few::Zero => Few::One(x),
            Few::One(a) if at == 0 => Few::Two([x, a]),
            Few::One(a) => Few::Two([a, x]),
            Few::Two([a, b]) => {
                let mut v = Vec::with_capacity(3);
                v.extend([a, b]);
                v.insert(at, x);
                Few::Many(v)
            }
            Few::Many(mut v) => {
                v.insert(at, x);
                Few::Many(v)
            }
        };
    }

    /// Removes and returns the entry at `at`; a list back down to two
    /// entries gives its heap buffer back.
    fn remove(&mut self, at: usize) -> T {
        let (rest, x) = match std::mem::take(self) {
            Few::Zero => panic!("remove({at}) from an empty list"),
            Few::One(a) => {
                assert_eq!(at, 0, "remove({at}) from a one-entry list");
                (Few::Zero, a)
            }
            Few::Two([a, b]) if at == 0 => (Few::One(b), a),
            Few::Two([a, b]) => {
                assert_eq!(at, 1, "remove({at}) from a two-entry list");
                (Few::One(a), b)
            }
            Few::Many(mut v) => {
                let x = v.remove(at);
                match <[T; 2]>::try_from(v) {
                    Ok(ab) => (Few::Two(ab), x),
                    Err(v) => (Few::Many(v), x),
                }
            }
        };
        *self = rest;
        x
    }
}

/// Everything one speaker holds for one prefix (see the module docs).
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Adj-RIB-In: the candidates heard, one per sender, sorted by sender.
    learned: Few<Candidate>,
    /// This speaker's own origination.
    local: Option<Arc<RouteAttrs>>,
    /// Adj-RIB-Out: `(peer, fingerprint of what we last advertised)`,
    /// sorted by peer, configured peers only.
    row: Few<(SpeakerId, u64)>,
}

impl Slot {
    /// Where `from`'s candidate is, or would go, in `learned`.
    fn find_learned(&self, from: SpeakerId) -> Result<usize, usize> {
        self.learned
            .as_slice()
            .binary_search_by_key(&Some(from), |c| c.source.peer())
    }
}

/// The sender of an Adj-RIB-In candidate.
fn sender(c: &Candidate) -> SpeakerId {
    c.source
        .peer()
        .expect("a learned candidate names its sender")
}

/// The value at `key` in a list sorted by key.
fn lookup<V>(list: &[(SpeakerId, V)], key: SpeakerId) -> Option<&V> {
    let at = list.binary_search_by_key(&key, |(k, _)| *k).ok()?;
    Some(&list[at].1)
}

/// Sets the value at `key` in a list sorted by key.
fn upsert<V>(list: &mut Vec<(SpeakerId, V)>, key: SpeakerId, value: V) {
    match list.binary_search_by_key(&key, |(k, _)| *k) {
        Ok(at) => list[at].1 = value,
        Err(at) => list.insert(at, (key, value)),
    }
}

/// One router.
#[derive(Debug, Clone)]
pub struct Speaker {
    id: SpeakerId,
    asn: Asn,
    cluster_id: u32,
    /// Sessions, sorted by peer.
    peers: Vec<(SpeakerId, PeerConfig)>,
    /// The network's prefix ids (see the module docs).
    prefixes: Arc<PrefixTable>,
    /// `slots[id]`: everything held for prefix `id` but the selected
    /// route; an id past the end holds nothing.
    slots: Vec<Slot>,
    /// `loc_rib[id]`: the selected route for prefix `id`, the same length
    /// as `slots`.
    loc_rib: Vec<Option<Candidate>>,
    /// The prefixes whose slot holds an own origination, with their ids,
    /// in prefix order. Kept by prefix because a speaker's table may not
    /// name them yet (see [`crate::BgpNet`]'s table docs).
    originated: Vec<(Prefix, PrefixId)>,
    /// IGP cost from this router to other routers in the AS, sorted by
    /// router.
    igp_costs: Vec<(SpeakerId, u64)>,
    /// Hot-potato cost of exiting through a given eBGP peer (AS-level
    /// speakers: intra-AS haul to that session's interconnect; router-level
    /// speakers leave this empty, meaning 0), sorted by peer.
    session_costs: Vec<(SpeakerId, u64)>,
    /// LOCAL_PREF for iBGP imports (route reflectors in VNS), shared with
    /// the other reflectors.
    import_prefs: Option<Arc<ImportPrefs>>,
    best_external: bool,
    /// Skip the IGP-metric step of the decision process (step 6), the
    /// `bgp bestpath igp-metric ignore` of real routers. Deployed on
    /// route reflectors whose choice is re-advertised network-wide: a
    /// vantage-dependent tie-break there lets two reflectors pick
    /// different egresses for equally-preferred routes, and clients of
    /// different reflectors then deflect traffic to each other — a stable
    /// forwarding loop. With the metric ignored, ties fall through to the
    /// vantage-independent steps (cluster list, sender id), so every
    /// reflector picks the same egress.
    ignore_igp_metric: bool,
    /// Whether iBGP-learned routes *originated inside this AS* (empty AS
    /// path, no ingress relation tag) are exported over eBGP. Multi-router
    /// transit providers announce their whole address space at every edge
    /// (true); VNS keeps PoP-local service prefixes PoP-local (false).
    export_own_ibgp: bool,
    /// Prefixes awaiting reselection: unsorted, may repeat;
    /// [`Speaker::process`] sorts them by prefix and dedups. `k`
    /// `remove_peer`s queue `k` × |Loc-RIB| ids until the next `process()`.
    dirty: Vec<PrefixId>,
}

impl Speaker {
    /// Creates a speaker. `cluster_id` only matters for route reflectors;
    /// by convention we use the router id.
    pub fn new(id: SpeakerId, asn: Asn) -> Self {
        Self {
            id,
            asn,
            cluster_id: id.0,
            peers: Vec::new(),
            prefixes: Arc::default(),
            slots: Vec::new(),
            loc_rib: Vec::new(),
            originated: Vec::new(),
            igp_costs: Vec::new(),
            session_costs: Vec::new(),
            import_prefs: None,
            best_external: false,
            ignore_igp_metric: false,
            export_own_ibgp: false,
            dirty: Vec::new(),
        }
    }

    /// Router id.
    pub fn id(&self) -> SpeakerId {
        self.id
    }

    /// AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Configures a peer session (one side; the other side configures its
    /// own view).
    pub fn add_peer(&mut self, peer: SpeakerId, config: PeerConfig) {
        upsert(&mut self.peers, peer, config);
    }

    /// Tears a session down: the peer's routes leave Adj-RIB-In (as if a
    /// withdraw arrived for each), our advertisements to it are forgotten,
    /// and affected prefixes are reselected on the next
    /// [`Speaker::process`]. Models session/router failure.
    pub fn remove_peer(&mut self, peer: SpeakerId) {
        let Ok(at) = self.peers.binary_search_by_key(&peer, |(p, _)| *p) else {
            return;
        };
        self.peers.remove(at);
        for (i, (slot, best)) in self.slots.iter_mut().zip(&self.loc_rib).enumerate() {
            let id = PrefixId::from_index(i);
            if let Ok(k) = slot.find_learned(peer) {
                slot.learned.remove(k);
                self.dirty.push(id);
            }
            if let Ok(k) = slot
                .row
                .as_slice()
                .binary_search_by_key(&peer, |(to, _)| *to)
            {
                slot.row.remove(k);
            }
            // Best-external and reflection decisions can change even for
            // prefixes the peer never announced (it may have been an
            // export target): reconsider everything we currently advertise.
            if best.is_some() {
                self.dirty.push(id);
            }
        }
    }

    /// The configured peers.
    pub fn peer_ids(&self) -> impl Iterator<Item = SpeakerId> + '_ {
        self.peers.iter().map(|(p, _)| *p)
    }

    /// Peer configuration lookup.
    pub fn peer_config(&self, peer: SpeakerId) -> Option<&PeerConfig> {
        lookup(&self.peers, peer)
    }

    /// Installs the import preferences (route reflectors in VNS). They
    /// apply to routes imported from now on: a route refresh from the
    /// senders re-imports what is already held.
    pub fn set_import_prefs(&mut self, prefs: Arc<ImportPrefs>) {
        self.import_prefs = Some(prefs);
    }

    /// The import preferences, if any were installed.
    pub fn import_prefs(&self) -> Option<&Arc<ImportPrefs>> {
        self.import_prefs.as_ref()
    }

    /// Enables best-external advertisement (border routers in VNS).
    pub fn set_best_external(&mut self, on: bool) {
        self.best_external = on;
    }

    /// Enables eBGP export of AS-internal (empty-path) iBGP-learned routes
    /// (multi-router transit providers; see the field docs).
    pub fn set_export_own_ibgp(&mut self, on: bool) {
        self.export_own_ibgp = on;
    }

    /// Sets IGP costs from this router to others in its AS.
    pub fn set_igp_costs(&mut self, costs: BTreeMap<SpeakerId, u64>) {
        self.igp_costs = costs.into_iter().collect();
        // Hot-potato inputs changed: every prefix could select differently.
        self.mark_learned_dirty();
        self.dirty.extend(self.originated.iter().map(|(_, id)| *id));
    }

    /// Originates a prefix locally with default attributes. Inside a
    /// [`crate::BgpNet`], originate through [`crate::BgpNet::originate`],
    /// which names the prefix in the network's table; a speaker names a
    /// prefix new to the network in a copy of its own.
    pub fn originate(&mut self, prefix: Prefix) {
        self.originate_with(prefix, Vec::new());
    }

    /// Originates a prefix locally with communities (e.g. `NO_EXPORT` for
    /// the management interface's injected more-specifics). Inside a
    /// [`crate::BgpNet`], use [`crate::BgpNet::originate_with`].
    pub fn originate_with(&mut self, prefix: Prefix, communities: Vec<Community>) {
        let id = self.intern(prefix);
        self.originate_id(prefix, id, communities);
    }

    /// Originates `prefix`, named `id` in the network's table.
    pub(crate) fn originate_id(
        &mut self,
        prefix: Prefix,
        id: PrefixId,
        communities: Vec<Community>,
    ) {
        let mut attrs = RouteAttrs::originate(self.id);
        attrs.communities = communities;
        if self.slot_mut(id).local.replace(Arc::new(attrs)).is_none() {
            let at = self.originated.partition_point(|(p, _)| *p < prefix);
            self.originated.insert(at, (prefix, id));
        }
        self.dirty.push(id);
    }

    /// Requests a full re-advertisement to every peer (BGP route refresh,
    /// outbound). Used after import-policy state changes on a neighbour —
    /// e.g. the management interface flipping a geo-routing override —
    /// so the neighbour re-receives (and re-transforms) every route.
    pub fn request_refresh_all(&mut self) {
        // Poison the out-fingerprints so the next process() re-sends even
        // unchanged advertisements.
        for slot in &mut self.slots {
            for (_, fp) in slot.row.as_mut_slice() {
                *fp ^= 0x5a5a_5a5a_5a5a_5a5a;
            }
        }
        self.schedule_initial_advertisement();
    }

    /// Schedules re-evaluation (and hence re-export) of every known prefix
    /// *without* poisoning existing Adj-RIB-Out fingerprints. Peers that
    /// already hold the current state diff each re-export to a no-op; a
    /// freshly (re)connected peer — whose fingerprints were cleared at
    /// session teardown — receives the full table. This is the outbound
    /// half of BGP session establishment, used by
    /// [`crate::BgpNet::reconnect`].
    pub fn schedule_initial_advertisement(&mut self) {
        for (i, (slot, best)) in self.slots.iter().zip(&self.loc_rib).enumerate() {
            if !slot.learned.is_empty() || slot.local.is_some() || best.is_some() {
                self.dirty.push(PrefixId::from_index(i));
            }
        }
    }

    /// Marks every prefix with a learned candidate for reselection.
    fn mark_learned_dirty(&mut self) {
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.learned.is_empty() {
                self.dirty.push(PrefixId::from_index(i));
            }
        }
    }

    /// Stops originating a prefix.
    pub fn withdraw_local(&mut self, prefix: Prefix) {
        let Ok(at) = self.originated.binary_search_by_key(&prefix, |(p, _)| *p) else {
            return;
        };
        let (_, id) = self.originated.remove(at);
        self.slots[id.index()].local = None;
        self.dirty.push(id);
    }

    /// Handles one incoming message from `from`. Call [`Speaker::process`]
    /// afterwards to recompute and collect outbound messages.
    pub fn receive(&mut self, from: SpeakerId, msg: Message) {
        let msg = match msg {
            Message::Update { prefix, attrs } => Message::Update {
                prefix: self.intern(prefix),
                attrs,
            },
            Message::Withdraw { prefix } => match self.prefixes.id(&prefix) {
                Some(id) => Message::Withdraw { prefix: id },
                // Never heard, so there is nothing to withdraw.
                None => return,
            },
        };
        self.deliver(from, msg);
    }

    /// [`Speaker::receive`] for a message between the speakers of a
    /// network: the prefix is already an id of its table.
    pub(crate) fn deliver(&mut self, from: SpeakerId, msg: Message<PrefixId>) {
        let Some(cfg) = self.peer_config(from).copied() else {
            debug_assert!(false, "message from unconfigured peer {from}");
            return;
        };
        match msg {
            Message::Withdraw { prefix: id } => {
                if let Some(slot) = self.slots.get_mut(id.index()) {
                    if let Ok(k) = slot.find_learned(from) {
                        slot.learned.remove(k);
                        self.dirty.push(id);
                    }
                }
            }
            Message::Update {
                prefix: id,
                mut attrs,
            } => {
                let source = match cfg.kind {
                    PeerKind::Ebgp { peer_as, relation } => {
                        // eBGP loop prevention: our AS already on the path.
                        if attrs.path_contains(self.asn) {
                            // Treat as implicit withdraw of any previous
                            // route from this peer.
                            self.deliver(from, Message::Withdraw { prefix: id });
                            return;
                        }
                        // The sender's other neighbours hold this same
                        // allocation: import rewrites a copy of our own.
                        let attrs = Arc::make_mut(&mut attrs);
                        // Import policy sets LOCAL_PREF.
                        cfg.import.import_ebgp(relation, attrs);
                        // Next-hop-self at ingress; reflection attributes
                        // never cross AS boundaries.
                        attrs.next_hop = self.id;
                        attrs.originator_id = None;
                        attrs.cluster_list.clear();
                        RouteSource::Ebgp {
                            peer: from,
                            peer_as,
                            relation,
                        }
                    }
                    PeerKind::Ibgp | PeerKind::IbgpClient => {
                        // iBGP loop prevention (reflection).
                        if attrs.originator_id == Some(self.id)
                            || attrs.cluster_list.contains(&self.cluster_id)
                        {
                            return;
                        }
                        RouteSource::Ibgp { peer: from }
                    }
                };
                if let Some(prefs) = &self.import_prefs {
                    prefs.apply(id, &source, &mut attrs);
                }
                let candidate = Candidate { attrs, source };
                let slot = self.slot_mut(id);
                match slot.find_learned(from) {
                    Ok(k) => slot.learned.as_mut_slice()[k] = candidate,
                    Err(k) => slot.learned.insert(k, candidate),
                }
                self.dirty.push(id);
            }
        }
    }

    /// Sets the hot-potato cost of exiting through eBGP peer `peer`
    /// (AS-level modelling; see [`DecisionContext::exit_cost`]).
    pub fn set_session_cost(&mut self, peer: SpeakerId, cost: u64) {
        upsert(&mut self.session_costs, peer, cost);
        self.mark_learned_dirty();
    }

    /// Enables/disables the IGP-metric decision step (step 6). See the
    /// field doc: reflectors ignore it so their choice is
    /// vantage-independent. Re-runs the decision process on every prefix.
    pub fn set_ignore_igp_metric(&mut self, on: bool) {
        self.ignore_igp_metric = on;
        self.mark_learned_dirty();
    }

    /// Hot-potato exit cost for a candidate (decision step 6).
    fn exit_cost(&self, c: &Candidate) -> Option<u64> {
        if self.ignore_igp_metric {
            return Some(0);
        }
        match c.source {
            RouteSource::Local => Some(0),
            RouteSource::Ebgp { peer, .. } => {
                Some(lookup(&self.session_costs, peer).copied().unwrap_or(0))
            }
            RouteSource::Ibgp { .. } => {
                let nh = c.attrs.next_hop;
                if nh == self.id {
                    Some(0)
                } else {
                    lookup(&self.igp_costs, nh).copied()
                }
            }
        }
    }

    /// The decision process over `candidates`.
    fn select<'a>(
        &self,
        candidates: impl IntoIterator<Item = &'a Candidate>,
    ) -> Option<&'a Candidate> {
        let ctx_costs = |c: &Candidate| self.exit_cost(c);
        let ctx = DecisionContext {
            exit_cost: &ctx_costs,
        };
        select_best(candidates, &ctx)
    }

    /// The best eBGP-learned candidate of a slot.
    fn best_ebgp<'a>(&self, slot: &'a Slot) -> Option<&'a Candidate> {
        self.select(
            slot.learned
                .as_slice()
                .iter()
                .filter(|c| c.source.is_ebgp()),
        )
    }

    /// Recomputes all dirty prefixes; returns the messages to deliver.
    pub fn process(&mut self) -> Vec<(SpeakerId, Message)> {
        let mut out = Vec::new();
        self.process_as(&mut out, &mut WorkCounters::default(), PrefixTable::prefix);
        out
    }

    /// [`Speaker::process`] for a network: appends the messages, prefixes
    /// named by id, to `out` and counts the work into `work`.
    pub(crate) fn process_into(
        &mut self,
        out: &mut Vec<(SpeakerId, Message<PrefixId>)>,
        work: &mut WorkCounters,
    ) {
        self.process_as(out, work, |_, id| id);
    }

    /// Reselects every dirty prefix, naming each in the messages by `name`.
    fn process_as<P: Copy>(
        &mut self,
        out: &mut Vec<(SpeakerId, Message<P>)>,
        work: &mut WorkCounters,
        name: fn(&PrefixTable, PrefixId) -> P,
    ) {
        for id in self.take_dirty() {
            let prefix = name(&self.prefixes, id);
            self.reselect(id, prefix, out, work);
        }
    }

    /// Drains the dirty queue into reselection order: ascending by prefix,
    /// each prefix once however often it was queued.
    fn take_dirty(&mut self) -> Vec<PrefixId> {
        let mut dirty = std::mem::take(&mut self.dirty);
        let table = &self.prefixes;
        dirty.sort_unstable_by_key(|&id| table.prefix(id));
        dirty.dedup();
        dirty
    }

    /// Whether any prefix awaits processing.
    pub fn has_pending_work(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Reselects prefix `id`, named `prefix` in the messages it emits.
    fn reselect<P: Copy>(
        &mut self,
        id: PrefixId,
        prefix: P,
        out: &mut Vec<(SpeakerId, Message<P>)>,
        work: &mut WorkCounters,
    ) {
        let emitted = out.len();
        let i = id.index();
        let slot = self.slot_mut(id);
        let local = slot.local.as_ref().map(|attrs| Candidate {
            attrs: Arc::clone(attrs),
            source: RouteSource::Local,
        });
        let slot = &self.slots[i];
        let best = self
            .select(slot.learned.as_slice().iter().chain(local.iter()))
            .cloned();
        // Best eBGP-learned candidate (for best-external).
        let best_ext = if self.best_external {
            self.best_ebgp(slot).cloned()
        } else {
            None
        };
        // The Loc-RIB write; then the row leaves the slot for the walk, so
        // the walk can write it while reading the rest of the speaker.
        self.loc_rib[i] = best;
        let mut row = std::mem::take(&mut self.slots[i].row);

        // Export to every peer: the forms are per candidate, only the
        // filter and the Adj-RIB-Out diff are per peer.
        let mut best_forms = self.loc_rib[i].as_ref().map(|c| ExportForms::new(self, c));
        let mut ext_forms = best_ext.as_ref().map(|c| ExportForms::new(self, c));
        // The row and the peer table both ascend by peer: `at` is the
        // first row entry not yet passed.
        let mut at = 0;
        for &(peer, cfg) in &self.peers {
            let desired = export_for(best_forms.as_mut(), ext_forms.as_mut(), peer, cfg.kind);
            // Runtime twin of the vns-verify no-export containment
            // invariant: a NO_EXPORT route must never be put on an eBGP
            // session's wire.
            debug_assert!(
                !(cfg.kind.is_ebgp()
                    && desired.is_some_and(|(a, _)| a.has_community(Community::NoExport))),
                "NO_EXPORT route for {} would leak over eBGP {} -> {peer}",
                self.prefixes.prefix(id),
                self.id
            );
            let next = row.as_slice().get(at).copied();
            debug_assert!(
                next.is_none_or(|(to, _)| to >= peer),
                "Adj-RIB-Out row for {} at {} holds {next:?}, passed over before {peer}",
                self.prefixes.prefix(id),
                self.id
            );
            let sent = next.filter(|(to, _)| *to == peer).map(|(_, fp)| fp);
            match (desired, sent) {
                // Advertised and unchanged: step over it.
                (Some((_, new_fp)), Some(old)) if old == *new_fp => at += 1,
                (Some((attrs, new_fp)), old) => {
                    if old.is_some() {
                        row.as_mut_slice()[at].1 = *new_fp;
                    } else {
                        row.insert(at, (peer, *new_fp));
                    }
                    at += 1;
                    let attrs = Arc::clone(attrs);
                    out.push((peer, Message::Update { prefix, attrs }));
                }
                (None, Some(_)) => {
                    row.remove(at);
                    out.push((peer, Message::Withdraw { prefix }));
                }
                (None, None) => {}
            }
        }
        debug_assert_eq!(
            at,
            row.len(),
            "Adj-RIB-Out row for {} at {} names a peer the walk never met",
            self.prefixes.prefix(id),
            self.id
        );
        let sent = (out.len() - emitted) as u64;
        *work += WorkCounters {
            reselects: 1,
            visits: self.peers.len() as u64,
            emitting_visits: sent,
            silent_reselects: u64::from(sent == 0),
            forms_built: best_forms.map_or(0, |f| f.built()) + ext_forms.map_or(0, |f| f.built()),
        };
        self.slots[i].row = row;
    }

    /// The id of `prefix`, naming it on first sight — in this speaker's
    /// own copy of the table when it shares the network's (the network
    /// adopts the copy; see [`crate::BgpNet`]'s table docs).
    fn intern(&mut self, prefix: Prefix) -> PrefixId {
        match self.prefixes.id(&prefix) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.prefixes).intern(prefix),
        }
    }

    /// The slot of `id`, if any.
    fn slot(&self, id: PrefixId) -> Option<&Slot> {
        self.slots.get(id.index())
    }

    /// The slot of `prefix`, if any.
    fn slot_of(&self, prefix: impl PrefixKey) -> Option<&Slot> {
        self.slot(self.prefixes.id_of(prefix)?)
    }

    /// The slot of `id`, created on first use together with one for every
    /// other prefix the table names.
    fn slot_mut(&mut self, id: PrefixId) -> &mut Slot {
        let i = id.index();
        if i >= self.slots.len() {
            let n = self.prefixes.len().max(i + 1);
            self.slots.resize_with(n, Slot::default);
            self.loc_rib.resize(n, None);
        }
        &mut self.slots[i]
    }

    /// The selected route of `id`, if any.
    fn selected(&self, id: PrefixId) -> Option<&Candidate> {
        self.loc_rib.get(id.index())?.as_ref()
    }

    /// Every slot in `(addr, len)` order, with its prefix and id.
    fn slots_in_order(&self) -> impl Iterator<Item = (Prefix, PrefixId, &Slot)> + '_ {
        self.prefixes
            .iter()
            .filter_map(|(prefix, id)| Some((prefix, id, self.slot(id)?)))
    }

    /// The network's prefix table, as this speaker sees it.
    pub(crate) fn prefixes(&self) -> &Arc<PrefixTable> {
        &self.prefixes
    }

    /// Sees the network's prefixes through `table` from now on.
    pub(crate) fn share_prefixes(&mut self, table: &Arc<PrefixTable>) {
        if !Arc::ptr_eq(&self.prefixes, table) {
            self.prefixes = Arc::clone(table);
        }
    }

    /// Sizes the slots to the table exactly — one per named prefix, no
    /// growth slack — so convergence never grows them.
    pub(crate) fn fit_slots(&mut self) {
        let n = self.prefixes.len();
        if self.slots.len() < n {
            self.slots.reserve_exact(n - self.slots.len());
            self.slots.resize_with(n, Slot::default);
            self.loc_rib.reserve_exact(n - self.loc_rib.len());
            self.loc_rib.resize(n, None);
        }
        self.slots.shrink_to_fit();
        self.loc_rib.shrink_to_fit();
    }

    /// The current best route for `prefix` (by value or by id).
    pub fn best(&self, prefix: impl PrefixKey) -> Option<&Candidate> {
        self.selected(self.prefixes.id_of(prefix)?)
    }

    /// All prefixes with a selected route, in prefix order.
    pub fn loc_rib_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.loc_rib_entries().map(|(prefix, ..)| prefix)
    }

    /// The prefixes this speaker originates itself, in prefix order.
    pub fn originated_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.originated.iter().map(|(prefix, _)| *prefix)
    }

    /// Every selected route as `(prefix, id, best)`, in prefix order.
    pub fn loc_rib_entries(&self) -> impl Iterator<Item = (Prefix, PrefixId, &Candidate)> + '_ {
        self.prefixes
            .iter()
            .filter_map(|(prefix, id)| Some((prefix, id, self.selected(id)?)))
    }

    /// Longest-prefix match over the Loc-RIB for a host address.
    pub fn lookup(&self, ip: u32) -> Option<(Prefix, &Candidate)> {
        self.lookup_up_to(ip, None)
    }

    /// Longest-prefix match restricted to prefixes *shorter than*
    /// `max_len_exclusive`. The data-plane resolver uses this to fall
    /// through a locally injected steering more-specific (the management
    /// interface's Sec 3.2 trick) onto the covering route that actually
    /// leaves the AS.
    pub fn lookup_up_to(
        &self,
        ip: u32,
        max_len_exclusive: Option<u8>,
    ) -> Option<(Prefix, &Candidate)> {
        let matches = self.prefixes.matches_up_to(ip, max_len_exclusive);
        self.first_selected(matches)
            .map(|(prefix, _, best)| (prefix, best))
    }

    /// [`Speaker::lookup_up_to`] for the address `covering` was built for,
    /// with the matched prefix's id: the same longest match, read off a
    /// list of the network's prefixes containing the address instead of
    /// probing the table. A caller matching one address at many speakers
    /// builds the list once ([`crate::BgpNet::covering`]).
    pub fn lookup_in(
        &self,
        covering: &Covering,
        max_len_exclusive: Option<u8>,
    ) -> Option<(Prefix, PrefixId, &Candidate)> {
        self.first_selected(covering.up_to(max_len_exclusive))
    }

    /// The first of `matches` (prefixes containing one address, longest
    /// first) this speaker has selected: the longest match.
    fn first_selected(
        &self,
        mut matches: impl Iterator<Item = (Prefix, PrefixId)>,
    ) -> Option<(Prefix, PrefixId, &Candidate)> {
        matches.find_map(|(prefix, id)| Some((prefix, id, self.selected(id)?)))
    }

    /// The best *eBGP-learned* candidate for a prefix (by value or by id),
    /// regardless of what the overall decision selected. A router that
    /// statically injects a steering more-specific (Sec 3.2) resolves it
    /// over its own external route to the covering prefix — this is that
    /// route.
    pub fn best_external_route(&self, prefix: impl PrefixKey) -> Option<&Candidate> {
        self.best_ebgp(self.slot_of(prefix)?)
    }

    /// Candidates currently in Adj-RIB-In for a prefix (diagnostics).
    pub fn candidates(&self, prefix: &Prefix) -> Vec<&Candidate> {
        self.slot_of(prefix)
            .into_iter()
            .flat_map(|slot| slot.learned.as_slice())
            .collect()
    }

    // --- Read-only introspection (static analysis / vns-verify) -----------
    //
    // These accessors expose converged control-plane state without any
    // mutation, so an external checker can audit RIBs the way Batfish
    // audits vendor configs: what is in Adj-RIB-In, what *would* go out on
    // each session, and whether next hops resolve.

    /// Every Adj-RIB-In entry as `(prefix, id, sending peer, candidate)`,
    /// in prefix order, then sender order. Read-only; intended for
    /// invariant checkers.
    pub fn adj_rib_in_entries(
        &self,
    ) -> impl Iterator<Item = (Prefix, PrefixId, SpeakerId, &Candidate)> + '_ {
        self.slots_in_order().flat_map(|(prefix, id, slot)| {
            slot.learned
                .as_slice()
                .iter()
                .map(move |c| (prefix, id, sender(c), c))
        })
    }

    /// The Adj-RIB-In entries for prefix `id` as `(sending peer,
    /// candidate)`, in sender order: what [`Speaker::adj_rib_in_entries`]
    /// yields for it. A caller walking many speakers in one prefix order
    /// builds the order once ([`crate::BgpNet::prefix_ids`]) and reads each
    /// speaker by id.
    pub fn adj_rib_in(&self, id: PrefixId) -> impl Iterator<Item = (SpeakerId, &Candidate)> + '_ {
        self.slot(id)
            .map_or(&[][..], |slot| slot.learned.as_slice())
            .iter()
            .map(|c| (sender(c), c))
    }

    /// How many `(peer, prefix)` advertisements the Adj-RIB-Out remembers.
    pub fn adj_rib_out_len(&self) -> usize {
        self.slots.iter().map(|slot| slot.row.len()).sum()
    }

    /// Recomputes the exact attributes this router would currently
    /// advertise to `peer` for `prefix` (by value or by id) — the full
    /// export pipeline (echo suppression, community filtering, valley-free
    /// scoping, best-external fallback, reflection stamping) applied to the
    /// converged best route. `None` when nothing would be advertised or
    /// the peer is not configured.
    ///
    /// The stored Adj-RIB-Out keeps only fingerprints to diff against; this
    /// is the authoritative way to inspect outbound state.
    pub fn exported_to(&self, peer: SpeakerId, prefix: impl PrefixKey) -> Option<Arc<RouteAttrs>> {
        let (kind, mut best, mut best_ext) = self.export_inputs(peer, prefix)?;
        export_for(Some(&mut best), best_ext.as_mut(), peer, kind)
            .map(|(attrs, _)| Arc::clone(attrs))
    }

    /// Whether this router currently advertises anything to `peer` for
    /// `prefix` (by value or by id): `exported_to(peer, prefix).is_some()`,
    /// by the same export decision, without building the wire form.
    pub fn advertises_to(&self, peer: SpeakerId, prefix: impl PrefixKey) -> bool {
        self.export_inputs(peer, prefix)
            .is_some_and(|(kind, best, best_ext)| {
                heard(&best, best_ext.as_ref(), peer, kind).is_some()
            })
    }

    /// What the export decision towards `peer` for `prefix` reads: the
    /// session kind, and the forms of the best route and of the
    /// best-external fallback. `None` when the peer is not configured or
    /// nothing is selected.
    fn export_inputs(
        &self,
        peer: SpeakerId,
        prefix: impl PrefixKey,
    ) -> Option<(PeerKind, ExportForms<'_>, Option<ExportForms<'_>>)> {
        let cfg = self.peer_config(peer)?;
        let id = self.prefixes.id_of(prefix)?;
        let slot = self.slot(id)?;
        let best = ExportForms::new(self, self.selected(id)?);
        let best_ext = self
            .best_external
            .then(|| self.best_ebgp(slot))
            .flatten()
            .map(|c| ExportForms::new(self, c));
        Some((cfg.kind, best, best_ext))
    }

    /// Installed IGP cost from this router to `to` (`Some(0)` for itself,
    /// `None` when `to` is IGP-unreachable or outside the AS).
    pub fn igp_cost(&self, to: SpeakerId) -> Option<u64> {
        if to == self.id {
            return Some(0);
        }
        lookup(&self.igp_costs, to).copied()
    }

    /// Whether best-external advertisement is enabled on this router.
    pub fn best_external_enabled(&self) -> bool {
        self.best_external
    }

    // --- Planted-defect harness (vns-verify mutation corpus) ---------------
    //
    // These hooks corrupt the *selected* route in the Loc-RIB in place,
    // without touching Adj-RIB-In, the Adj-RIB-Out fingerprints, or the
    // dirty queue. The control plane stays quiescent and keeps believing its
    // own (now wrong) state — exactly the kind of silent forwarding-plane
    // damage the data-plane model checker exists to catch. The simulator
    // itself never calls them; only the verification harness does.

    /// The Loc-RIB entry of `prefix`, for the hooks below.
    fn selected_mut(&mut self, prefix: &Prefix) -> Option<&mut Candidate> {
        let id = self.prefixes.id(prefix)?;
        self.loc_rib.get_mut(id.index())?.as_mut()
    }

    /// Drops the selected route for `prefix` from the Loc-RIB (downstream
    /// routers still forward here — a silent blackhole). Returns `false`
    /// when no route was selected.
    pub fn corrupt_drop_route(&mut self, prefix: &Prefix) -> bool {
        let Some(id) = self.prefixes.id(prefix) else {
            return false;
        };
        self.loc_rib
            .get_mut(id.index())
            .and_then(Option::take)
            .is_some()
    }

    /// Rewrites the selected route for `prefix` into an iBGP-style entry
    /// whose next hop is `next_hop`, keeping the original path attributes.
    /// Pointing two routers at each other forges a forwarding cycle;
    /// pointing at an IGP-unreachable or phantom speaker forges a
    /// blackhole. Returns `false` when no route was selected.
    pub fn corrupt_redirect_ibgp(&mut self, prefix: &Prefix, next_hop: SpeakerId) -> bool {
        match self.selected_mut(prefix) {
            Some(cand) => {
                // The selected route shares its attributes with this
                // router's Adj-RIB-In entry and with peers' RIBs: corrupt
                // a copy, never the original.
                Arc::make_mut(&mut cand.attrs).next_hop = next_hop;
                cand.source = RouteSource::Ibgp { peer: next_hop };
                true
            }
            None => false,
        }
    }

    /// Replaces the selected route for `prefix` wholesale, returning the
    /// previous entry. Lets the harness restore a candidate corruption
    /// site that turned out unusable and move to the next one.
    pub fn corrupt_replace_route(&mut self, prefix: Prefix, cand: Candidate) -> Option<Candidate> {
        let id = self.intern(prefix);
        self.slot_mut(id);
        self.loc_rib[id.index()].replace(cand)
    }

    /// Rewrites the forwarding peer of an eBGP-selected route for `prefix`
    /// (the AS-level analogue of a corrupted FIB next hop). Returns `false`
    /// when the selected route is not eBGP-learned.
    pub fn corrupt_forward_peer(&mut self, prefix: &Prefix, peer: SpeakerId) -> bool {
        match self.selected_mut(prefix) {
            Some(cand) => match cand.source {
                RouteSource::Ebgp {
                    peer_as, relation, ..
                } => {
                    cand.source = RouteSource::Ebgp {
                        peer,
                        peer_as,
                        relation,
                    };
                    true
                }
                _ => false,
            },
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Origin;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ebgp_cfg(peer_as: u32, rel: Relation) -> PeerConfig {
        PeerConfig {
            kind: PeerKind::Ebgp {
                peer_as: Asn(peer_as),
                relation: rel,
            },
            import: Policy::GaoRexford,
        }
    }

    fn update(prefix: Prefix, path: Vec<u32>, from: SpeakerId) -> Message {
        Message::Update {
            prefix,
            attrs: RouteAttrs {
                local_pref: DEFAULT_LOCAL_PREF,
                as_path: path.into_iter().map(Asn).collect(),
                origin: Origin::Igp,
                med: 0,
                communities: vec![],
                next_hop: from,
                originator_id: None,
                cluster_list: vec![],
            }
            .into(),
        }
    }

    #[test]
    fn origination_advertises_to_peers() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Peer));
        s.originate(p("10.0.0.0/8"));
        let msgs = s.process();
        assert_eq!(msgs.len(), 1);
        let (to, Message::Update { prefix, attrs }) = &msgs[0] else {
            panic!("expected update")
        };
        assert_eq!(*to, SpeakerId(2));
        assert_eq!(*prefix, p("10.0.0.0/8"));
        assert_eq!(attrs.as_path, vec![Asn(100)]);
    }

    #[test]
    fn ebgp_loop_rejected() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200, 100, 300], SpeakerId(2)),
        );
        s.process();
        assert!(s.best(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn import_sets_local_pref_and_next_hop_self() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Customer));
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        s.process();
        let best = s.best(&p("10.0.0.0/8")).unwrap();
        assert_eq!(best.attrs.local_pref, 130); // customer preference
        assert_eq!(best.attrs.next_hop, SpeakerId(1)); // next-hop-self
    }

    #[test]
    fn customer_route_preferred_over_provider() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.add_peer(SpeakerId(3), ebgp_cfg(300, Relation::Customer));
        // Provider offers a shorter path; customer still wins on LOCAL_PREF.
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        s.receive(
            SpeakerId(3),
            update(p("10.0.0.0/8"), vec![300, 400, 500], SpeakerId(3)),
        );
        s.process();
        let best = s.best(&p("10.0.0.0/8")).unwrap();
        assert_eq!(best.attrs.neighbor_as(), Some(Asn(300)));
    }

    #[test]
    fn no_export_not_advertised_over_ebgp() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Peer));
        s.add_peer(
            SpeakerId(3),
            PeerConfig {
                kind: PeerKind::Ibgp,
                import: Policy::FlatPreference,
            },
        );
        s.originate_with(p("10.0.0.0/8"), vec![Community::NoExport]);
        let msgs = s.process();
        // Only the iBGP peer hears about it.
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, SpeakerId(3));
    }

    #[test]
    fn peer_routes_not_given_to_peers() {
        // Valley-free: a route learned from a peer is not exported to
        // another peer, only to customers.
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Peer));
        s.add_peer(SpeakerId(3), ebgp_cfg(300, Relation::Peer));
        s.add_peer(SpeakerId(4), ebgp_cfg(400, Relation::Customer));
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        let msgs = s.process();
        let to: Vec<SpeakerId> = msgs.iter().map(|(t, _)| *t).collect();
        assert_eq!(to, vec![SpeakerId(4)]);
    }

    #[test]
    fn withdraw_propagates() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.add_peer(SpeakerId(4), ebgp_cfg(400, Relation::Customer));
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        let msgs = s.process();
        assert_eq!(msgs.len(), 1, "advertised to customer");
        s.receive(
            SpeakerId(2),
            Message::Withdraw {
                prefix: p("10.0.0.0/8"),
            },
        );
        let msgs = s.process();
        assert!(matches!(msgs.as_slice(), [(to, Message::Withdraw { .. })] if *to == SpeakerId(4)));
        assert!(s.best(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn no_duplicate_updates() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.add_peer(SpeakerId(4), ebgp_cfg(400, Relation::Customer));
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        assert_eq!(s.process().len(), 1);
        // Same update again: nothing new to say.
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        assert_eq!(s.process().len(), 0);
    }

    #[test]
    fn reflector_stamps_cluster_list_and_originator() {
        let mut rr = Speaker::new(SpeakerId(10), Asn(100));
        rr.add_peer(
            SpeakerId(1),
            PeerConfig {
                kind: PeerKind::IbgpClient,
                import: Policy::FlatPreference,
            },
        );
        rr.add_peer(
            SpeakerId(2),
            PeerConfig {
                kind: PeerKind::IbgpClient,
                import: Policy::FlatPreference,
            },
        );
        // Client 1 sends an iBGP update (its eBGP-learned route).
        rr.receive(
            SpeakerId(1),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(1)),
        );
        let msgs = rr.process();
        // Reflected to client 2 only (not back to 1).
        assert_eq!(msgs.len(), 1);
        let (to, Message::Update { attrs, .. }) = &msgs[0] else {
            panic!("expected update");
        };
        assert_eq!(*to, SpeakerId(2));
        assert_eq!(attrs.originator_id, Some(SpeakerId(1)));
        assert_eq!(attrs.cluster_list, vec![10]);
    }

    #[test]
    fn reflection_loop_prevented() {
        let mut rr = Speaker::new(SpeakerId(10), Asn(100));
        rr.add_peer(
            SpeakerId(1),
            PeerConfig {
                kind: PeerKind::IbgpClient,
                import: Policy::FlatPreference,
            },
        );
        let mut msg = update(p("10.0.0.0/8"), vec![200], SpeakerId(1));
        if let Message::Update { attrs, .. } = &mut msg {
            Arc::make_mut(attrs).cluster_list = vec![10]; // our own cluster id
        }
        rr.receive(SpeakerId(1), msg);
        rr.process();
        assert!(rr.best(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn plain_ibgp_does_not_re_advertise() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(
            SpeakerId(2),
            PeerConfig {
                kind: PeerKind::Ibgp,
                import: Policy::FlatPreference,
            },
        );
        s.add_peer(
            SpeakerId(3),
            PeerConfig {
                kind: PeerKind::Ibgp,
                import: Policy::FlatPreference,
            },
        );
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        let msgs = s.process();
        assert!(
            msgs.is_empty(),
            "iBGP-learned must not go to plain iBGP peers"
        );
    }

    #[test]
    fn best_external_advertises_ebgp_alternative() {
        // Border router: best route is iBGP-learned (higher LOCAL_PREF set
        // by an RR hook elsewhere), but it still tells its RR about its own
        // eBGP route when best-external is on.
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.set_best_external(true);
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.add_peer(
            SpeakerId(10),
            PeerConfig {
                kind: PeerKind::Ibgp,
                import: Policy::FlatPreference,
            },
        );
        // Own eBGP route.
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        let msgs = s.process();
        assert_eq!(msgs.len(), 1, "eBGP best goes to RR");
        // Now the RR sends a better (geo-boosted) route via iBGP.
        let mut better = update(p("10.0.0.0/8"), vec![300, 200], SpeakerId(10));
        if let Message::Update { attrs, .. } = &mut better {
            let attrs = Arc::make_mut(attrs);
            attrs.local_pref = 500;
            attrs.next_hop = SpeakerId(5);
        }
        s.receive(SpeakerId(10), better);
        let msgs = s.process();
        // Best is now iBGP-learned; without best-external we would withdraw
        // from the RR. With it, we keep advertising the eBGP route.
        assert!(
            msgs.is_empty(),
            "best-external keeps the previous eBGP advertisement in place: {msgs:?}"
        );
        let best = s.best(&p("10.0.0.0/8")).unwrap();
        assert!(best.source.is_ibgp());
    }

    #[test]
    fn without_best_external_route_hides() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.add_peer(
            SpeakerId(10),
            PeerConfig {
                kind: PeerKind::Ibgp,
                import: Policy::FlatPreference,
            },
        );
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        assert_eq!(s.process().len(), 1);
        let mut better = update(p("10.0.0.0/8"), vec![300, 200], SpeakerId(10));
        if let Message::Update { attrs, .. } = &mut better {
            let attrs = Arc::make_mut(attrs);
            attrs.local_pref = 500;
            attrs.next_hop = SpeakerId(5);
        }
        s.receive(SpeakerId(10), better);
        let msgs = s.process();
        // The hidden-routes pathology: our eBGP route is withdrawn from the
        // RR's view.
        assert!(
            matches!(msgs.as_slice(), [(to, Message::Withdraw { .. })] if *to == SpeakerId(10)),
            "got {msgs:?}"
        );
    }

    fn ibgp_cfg(kind: PeerKind) -> PeerConfig {
        PeerConfig {
            kind,
            import: Policy::FlatPreference,
        }
    }

    /// Names `prefixes` at `s`, then gives it the table `pref` fills over
    /// every prefix it names × `next_hops` — standing in for the geo
    /// reflector's.
    fn install_prefs(
        s: &mut Speaker,
        prefixes: &[Prefix],
        next_hops: Vec<SpeakerId>,
        pref: impl FnMut(Prefix, SpeakerId) -> Option<u32>,
    ) {
        for &prefix in prefixes {
            s.intern(prefix);
        }
        let prefs = ImportPrefs::build(s.prefixes(), next_hops, pref);
        s.set_import_prefs(Arc::new(prefs));
    }

    #[test]
    fn import_prefs_rewrite_ibgp_local_pref() {
        let prefix = p("10.0.0.0/8");
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        install_prefs(&mut s, &[prefix], vec![SpeakerId(2)], |_, _| Some(999));
        s.add_peer(SpeakerId(2), ibgp_cfg(PeerKind::IbgpClient));
        s.receive(SpeakerId(2), update(prefix, vec![200], SpeakerId(2)));
        s.process();
        assert_eq!(s.best(&prefix).unwrap().attrs.local_pref, 999);
    }

    #[test]
    fn import_prefs_leave_ebgp_empty_path_and_unnamed_routes_alone() {
        let (named, late) = (p("10.0.0.0/8"), p("11.0.0.0/8"));
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        // Every cell of every row and column says 999; the table is built
        // before `late` is named, so `late`'s row is past the end.
        install_prefs(
            &mut s,
            &[named],
            vec![SpeakerId(2), SpeakerId(3)],
            |_, _| Some(999),
        );
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Customer));
        s.add_peer(SpeakerId(3), ibgp_cfg(PeerKind::IbgpClient));
        s.receive(SpeakerId(2), update(named, vec![200], SpeakerId(2)));
        let ebgp = &s.candidates(&named)[0].attrs;
        assert_eq!(
            ebgp.local_pref, 130,
            "the customer policy's, not the table's"
        );
        s.receive(SpeakerId(3), update(named, vec![], SpeakerId(3)));
        s.receive(SpeakerId(3), update(late, vec![300], SpeakerId(3)));
        let own = &s.candidates(&named)[1].attrs;
        assert_eq!(own.local_pref, DEFAULT_LOCAL_PREF, "empty AS path");
        let unnamed = &s.candidates(&late)[0].attrs;
        assert_eq!(unnamed.local_pref, DEFAULT_LOCAL_PREF, "past-the-end row");
        let prefs = s.import_prefs().unwrap();
        assert_eq!(prefs.get(PrefixId::from_index(0), SpeakerId(3)), Some(999));
        assert_eq!(prefs.get(PrefixId::from_index(1), SpeakerId(3)), None);
        assert_eq!(prefs.get(PrefixId::from_index(0), SpeakerId(4)), None);
    }

    fn update_attrs(msg: &Message) -> &Arc<RouteAttrs> {
        match msg {
            Message::Update { attrs, .. } => attrs,
            Message::Withdraw { .. } => panic!("expected update, got {msg:?}"),
        }
    }

    /// A RIB entry and a message are a pointer and a source, not an
    /// attribute set: by-value attributes would show here first.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn rib_entries_and_messages_hold_a_pointer() {
        assert_eq!(std::mem::size_of::<Candidate>(), 24);
        assert_eq!(std::mem::size_of::<Message>(), 16);
        assert_eq!(std::mem::size_of::<Message<PrefixId>>(), 16);
        // Two candidates inline (48), the own route (8), two row entries
        // inline (40), and beside the slot a Loc-RIB entry (24): a world
        // holds one of each per (speaker, prefix), so every byte here is
        // 240k bytes at scale 2.
        assert_eq!(std::mem::size_of::<Slot>(), 96);
        assert_eq!(std::mem::size_of::<Option<Candidate>>(), 24);
    }

    #[test]
    fn one_reselect_shares_one_allocation_across_ebgp_neighbours() {
        let k = 6;
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Customer));
        for i in 0..k {
            s.add_peer(SpeakerId(10 + i), ebgp_cfg(1000 + i, Relation::Customer));
        }
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        let msgs = s.process();
        assert_eq!(msgs.len(), k as usize, "every neighbour but the sender");
        let first = update_attrs(&msgs[0].1);
        assert_eq!(first.as_path, vec![Asn(100), Asn(200)]);
        for (_, msg) in &msgs {
            assert!(Arc::ptr_eq(first, update_attrs(msg)));
        }
    }

    #[test]
    fn ibgp_receiver_copies_the_senders_allocation_only_for_a_changed_pref() {
        let prefix = p("10.0.0.0/8");
        // Border 1 learns over eBGP and passes the route on as-is to its
        // reflectors 10 (no table), 11 (a table that changes the
        // preference) and 12 (a table that assigns the one it has).
        let mut border = Speaker::new(SpeakerId(1), Asn(100));
        border.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        for rr in [10, 11, 12] {
            border.add_peer(SpeakerId(rr), ibgp_cfg(PeerKind::Ibgp));
        }
        border.receive(SpeakerId(2), update(prefix, vec![200], SpeakerId(2)));
        let msgs = border.process();
        assert_eq!(msgs.len(), 3);
        let selected = &border.best(&prefix).unwrap().attrs;
        assert!(Arc::ptr_eq(selected, &border.candidates(&prefix)[0].attrs));
        for (_, msg) in &msgs {
            assert!(Arc::ptr_eq(selected, update_attrs(msg)), "as-is form");
        }

        let mut rrs: Vec<Speaker> = [(10, None), (11, Some(999)), (12, Some(90))]
            .into_iter()
            .map(|(id, lp)| {
                let mut rr = Speaker::new(SpeakerId(id), Asn(100));
                rr.add_peer(SpeakerId(1), ibgp_cfg(PeerKind::IbgpClient));
                if lp.is_some() {
                    install_prefs(&mut rr, &[prefix], vec![SpeakerId(1)], |_, _| lp);
                }
                rr
            })
            .collect();
        for ((to, msg), rr) in msgs.into_iter().zip(&mut rrs) {
            assert_eq!(to, rr.id());
            rr.receive(SpeakerId(1), msg);
            rr.process();
        }
        let selected = &border.best(&prefix).unwrap().attrs;
        let [plain, changed, unchanged] = &rrs[..] else {
            unreachable!("three reflectors")
        };
        assert!(Arc::ptr_eq(selected, &plain.candidates(&prefix)[0].attrs));
        assert!(Arc::ptr_eq(selected, &plain.best(&prefix).unwrap().attrs));
        let rewritten = &changed.candidates(&prefix)[0].attrs;
        assert!(!Arc::ptr_eq(selected, rewritten));
        assert_eq!(rewritten.local_pref, 999);
        assert_eq!(selected.local_pref, 90, "sender keeps its provider pref");
        let kept = &unchanged.candidates(&prefix)[0].attrs;
        assert!(Arc::ptr_eq(selected, kept), "an unchanged pref is no copy");
    }

    #[test]
    fn planted_defects_copy_on_write() {
        let prefix = p("10.0.0.0/8");
        let mut border = Speaker::new(SpeakerId(1), Asn(100));
        border.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        border.add_peer(SpeakerId(10), ibgp_cfg(PeerKind::Ibgp));
        border.receive(SpeakerId(2), update(prefix, vec![200], SpeakerId(2)));
        let msgs = border.process();
        let mut rr = Speaker::new(SpeakerId(10), Asn(100));
        rr.add_peer(SpeakerId(1), ibgp_cfg(PeerKind::IbgpClient));
        for (_, msg) in msgs {
            rr.receive(SpeakerId(1), msg);
        }
        rr.process();
        // One allocation, four holders: both routers' Adj-RIB-In and
        // Loc-RIB entries.
        let original = rr.best(&prefix).unwrap().clone();
        assert!(Arc::ptr_eq(
            &original.attrs,
            &border.best(&prefix).unwrap().attrs
        ));
        let learned = rr.candidates(&prefix)[0].clone();
        let sender_best = border.best(&prefix).unwrap().clone();

        assert!(rr.corrupt_redirect_ibgp(&prefix, SpeakerId(77)));
        let corrupted = rr.best(&prefix).unwrap();
        assert_eq!(corrupted.attrs.next_hop, SpeakerId(77));
        assert_eq!(corrupted.source.peer(), Some(SpeakerId(77)));
        assert_eq!(rr.candidates(&prefix), vec![&learned]);
        assert_eq!(border.best(&prefix), Some(&sender_best));
        assert_eq!(border.candidates(&prefix)[0].attrs.next_hop, SpeakerId(1));

        // Restoring the original (what the harness does at an unusable
        // site) shares again and still leaves every other holder alone.
        let forged = rr.corrupt_replace_route(prefix, original.clone()).unwrap();
        assert_eq!(forged.attrs.next_hop, SpeakerId(77));
        assert_eq!(rr.best(&prefix), Some(&original));
        assert_eq!(rr.candidates(&prefix), vec![&learned]);
        assert_eq!(border.best(&prefix), Some(&sender_best));
    }

    /// The row invariants of the module docs, and a list's own: three or
    /// more entries, or inline.
    fn assert_rows_well_formed(s: &Speaker) {
        for (i, slot) in s.slots.iter().enumerate() {
            let (prefix, row) = (
                s.prefixes.prefix(PrefixId::from_index(i)),
                slot.row.as_slice(),
            );
            assert!(
                !matches!(&slot.row, Few::Many(v) if v.len() < 3),
                "row for {prefix} spilled with {} entries",
                row.len()
            );
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row for {prefix} out of peer order: {row:?}"
            );
            assert!(
                row.iter().all(|(to, _)| s.peer_config(*to).is_some()),
                "row for {prefix} names an unconfigured peer: {row:?}"
            );
        }
    }

    /// Rows holding at least one advertisement.
    fn rows_in_use(s: &Speaker) -> usize {
        s.slots.iter().filter(|slot| !slot.row.is_empty()).count()
    }

    #[test]
    fn adj_rib_out_rows_stay_sorted_and_configured() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let peers = [
            (SpeakerId(2), ebgp_cfg(200, Relation::Customer)),
            (SpeakerId(3), ebgp_cfg(201, Relation::Peer)),
            (SpeakerId(4), ebgp_cfg(202, Relation::Provider)),
            (SpeakerId(20), ibgp_cfg(PeerKind::Ibgp)),
            (SpeakerId(30), ibgp_cfg(PeerKind::IbgpClient)),
            (SpeakerId(31), ibgp_cfg(PeerKind::IbgpClient)),
        ];
        let prefixes = [p("10.0.0.0/8"), p("10.0.0.0/9"), p("11.0.0.0/8")];
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.set_best_external(true);
        let mut rng = SmallRng::seed_from_u64(23);
        let (mut widest, mut emptied) = (0, 0);
        for _ in 0..6000 {
            let (peer, cfg) = peers[rng.gen_range(0..peers.len())];
            let prefix = prefixes[rng.gen_range(0..prefixes.len())];
            let rows_before = rows_in_use(&s);
            match rng.gen_range(0..12) {
                0..=3 if s.peer_config(peer).is_some() => {
                    let path = vec![200 + peer.0, rng.gen_range(300..303)];
                    s.receive(peer, update(prefix, path, peer));
                }
                4 | 5 if s.peer_config(peer).is_some() => {
                    s.receive(peer, Message::Withdraw { prefix });
                }
                6 => s.remove_peer(peer),
                7 => s.add_peer(peer, cfg),
                8 => {
                    s.add_peer(peer, cfg);
                    s.schedule_initial_advertisement();
                }
                9 => s.request_refresh_all(),
                _ => {
                    s.process();
                }
            }
            assert_rows_well_formed(&s);
            widest = widest.max(s.slots.iter().map(|slot| slot.row.len()).max().unwrap_or(0));
            emptied += usize::from(rows_in_use(&s) < rows_before);
        }
        // The walk reached rows naming most peers, and rows that emptied.
        assert!(widest >= 4 && emptied > 50, "{widest} {emptied}");
    }

    #[test]
    fn few_matches_a_vec_and_keeps_two_inline() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(5);
        let (mut few, mut model) = (Few::default(), Vec::new());
        for step in 0..20_000u32 {
            if model.is_empty() || (model.len() < 6 && rng.gen_bool(0.55)) {
                let at = rng.gen_range(0..=model.len());
                few.insert(at, step);
                model.insert(at, step);
            } else {
                let at = rng.gen_range(0..model.len());
                assert_eq!(few.remove(at), model.remove(at));
            }
            assert_eq!(few.as_slice(), &model[..]);
            assert_eq!(matches!(few, Few::Many(_)), model.len() > 2, "{model:?}");
        }
    }

    #[test]
    fn a_prefix_queued_five_times_reselects_once() {
        let (low, high) = (p("10.0.0.0/8"), p("11.0.0.0/8"));
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.add_peer(SpeakerId(4), ebgp_cfg(400, Relation::Customer));
        // Queued out of order, the higher prefix five times over.
        for i in 0..5 {
            s.receive(SpeakerId(2), update(high, vec![200, 300 + i], SpeakerId(2)));
            if i == 2 {
                s.originate(low);
            }
        }
        let queued = s.dirty.clone();
        assert_eq!(queued.len(), 6);
        let drained: Vec<Prefix> = s
            .take_dirty()
            .into_iter()
            .map(|id| s.prefixes.prefix(id))
            .collect();
        assert_eq!(drained, vec![low, high]);
        s.dirty = queued;
        let msgs = s.process();
        assert!(!s.has_pending_work());
        // One reselect each, in prefix order: the own route to both
        // neighbours, then the last-heard route to the customer.
        let heard: Vec<_> = msgs
            .iter()
            .map(|(to, m)| (*to, update_attrs(m).as_path.clone()))
            .collect();
        assert_eq!(
            heard,
            vec![
                (SpeakerId(2), vec![Asn(100)].into()),
                (SpeakerId(4), vec![Asn(100)].into()),
                (SpeakerId(4), vec![Asn(100), Asn(200), Asn(304)].into()),
            ]
        );
    }

    /// The per-peer export rules as they were before export forms: one
    /// full evaluation, clone and rewrite per (candidate, peer). Kept as the
    /// oracle the once-per-candidate forms must equal.
    fn advertise_oracle(
        s: &Speaker,
        candidate: &Candidate,
        peer: SpeakerId,
        cfg: &PeerConfig,
    ) -> Option<RouteAttrs> {
        if candidate.source.peer() == Some(peer) {
            return None;
        }
        if candidate.attrs.has_community(Community::NoAdvertise) {
            return None;
        }
        match cfg.kind {
            PeerKind::Ebgp { peer_as, relation } => {
                if candidate.attrs.has_community(Community::NoExport) {
                    return None;
                }
                let learned_rel = match candidate.source {
                    RouteSource::Local => None,
                    RouteSource::Ebgp { relation, .. } => Some(relation),
                    RouteSource::Ibgp { .. } => match relation_from_tags(&candidate.attrs) {
                        Some(rel) => Some(rel),
                        None if s.export_own_ibgp && candidate.attrs.as_path.is_empty() => None,
                        None => return None,
                    },
                };
                if !may_export(learned_rel, relation) {
                    return None;
                }
                if candidate.attrs.path_contains(peer_as) {
                    return None;
                }
                let mut attrs = RouteAttrs::clone(&candidate.attrs);
                strip_relation_tags(&mut attrs);
                attrs.as_path = attrs.as_path.prepend(s.asn);
                attrs.local_pref = DEFAULT_LOCAL_PREF;
                attrs.med = 0;
                attrs.next_hop = s.id;
                attrs.originator_id = None;
                attrs.cluster_list.clear();
                Some(attrs)
            }
            PeerKind::Ibgp | PeerKind::IbgpClient => match candidate.source {
                RouteSource::Local | RouteSource::Ebgp { .. } => {
                    Some(RouteAttrs::clone(&candidate.attrs))
                }
                RouteSource::Ibgp { peer: learned_from } => {
                    let from_client = s
                        .peer_config(learned_from)
                        .is_some_and(|c| c.kind == PeerKind::IbgpClient);
                    let to_client = cfg.kind == PeerKind::IbgpClient;
                    if !from_client && !to_client {
                        return None;
                    }
                    let mut attrs = RouteAttrs::clone(&candidate.attrs);
                    if attrs.originator_id.is_none() {
                        attrs.originator_id = Some(learned_from);
                    }
                    attrs.cluster_list.insert(0, s.cluster_id);
                    Some(attrs)
                }
            },
        }
    }

    /// The old `export_for`: best route, else the best-external fallback.
    fn export_oracle(
        s: &Speaker,
        best: Option<&Candidate>,
        best_ext: Option<&Candidate>,
        peer: SpeakerId,
        cfg: &PeerConfig,
    ) -> Option<RouteAttrs> {
        let best = best?;
        if let Some(attrs) = advertise_oracle(s, best, peer, cfg) {
            return Some(attrs);
        }
        if !cfg.kind.is_ebgp() && best.source.is_ibgp() {
            if let Some(ext) = best_ext {
                return advertise_oracle(s, ext, peer, cfg);
            }
        }
        None
    }

    #[test]
    fn export_forms_equal_the_per_peer_oracle() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // Every session kind, two of each so "not the sender" has a
        // same-kind witness; eBGP peer ASes 200.. can appear on paths.
        let ebgp = [
            (SpeakerId(2), 200, Relation::Customer),
            (SpeakerId(3), 201, Relation::Customer),
            (SpeakerId(4), 202, Relation::Peer),
            (SpeakerId(5), 203, Relation::Peer),
            (SpeakerId(6), 204, Relation::Provider),
            (SpeakerId(7), 205, Relation::Provider),
        ];
        let ibgp = [
            (SpeakerId(20), PeerKind::Ibgp),
            (SpeakerId(21), PeerKind::Ibgp),
            (SpeakerId(30), PeerKind::IbgpClient),
            (SpeakerId(31), PeerKind::IbgpClient),
        ];
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        for (id, asn, rel) in ebgp {
            s.add_peer(id, ebgp_cfg(asn, rel));
        }
        for (id, kind) in ibgp {
            s.add_peer(id, ibgp_cfg(kind));
        }
        let tags = [
            Community::NoExport,
            Community::NoAdvertise,
            crate::policy::REL_TAG_CUSTOMER,
            crate::policy::REL_TAG_PEER,
            crate::policy::REL_TAG_PROVIDER,
            Community::Tag(5),
        ];
        let mut rng = SmallRng::seed_from_u64(17);
        let candidate = |rng: &mut SmallRng, ebgp_only: bool| {
            let source = match rng.gen_range(0..if ebgp_only { 6 } else { 12 }) {
                i @ 0..=5 => {
                    let (peer, asn, relation) = ebgp[i];
                    RouteSource::Ebgp {
                        peer,
                        peer_as: Asn(asn),
                        relation,
                    }
                }
                i @ 6..=9 => RouteSource::Ibgp {
                    peer: ibgp[i - 6].0,
                },
                // An iBGP peer that has since been removed.
                10 => RouteSource::Ibgp {
                    peer: SpeakerId(99),
                },
                _ => RouteSource::Local,
            };
            // Mostly short communities lists: a route with three random
            // tags is almost never exportable.
            let communities = tags
                .iter()
                .filter(|_| rng.gen_range(0..6) == 0)
                .copied()
                .collect();
            Candidate {
                attrs: Arc::new(RouteAttrs {
                    local_pref: rng.gen_range(90..200),
                    as_path: (0..rng.gen_range(0..4))
                        .map(|_| Asn(rng.gen_range(198..208)))
                        .collect(),
                    origin: Origin::Igp,
                    med: rng.gen_range(0..3),
                    communities,
                    next_hop: SpeakerId(rng.gen_range(1..40)),
                    originator_id: rng.gen::<bool>().then(|| SpeakerId(rng.gen_range(1..40))),
                    cluster_list: (0..rng.gen_range(0..3))
                        .map(|_| rng.gen_range(1..9))
                        .collect(),
                }),
                source,
            }
        };
        let (mut some, mut none, mut fallbacks) = (0, 0, 0);
        for case in 0..4000 {
            s.export_own_ibgp = case % 2 == 0;
            let best = candidate(&mut rng, false);
            let best_ext = (case % 3 != 0).then(|| candidate(&mut rng, true));
            // One set of forms serves every peer, as in `reselect`.
            let mut best_forms = ExportForms::new(&s, &best);
            let mut ext_forms = best_ext.as_ref().map(|c| ExportForms::new(&s, c));
            for (peer, cfg) in &s.peers {
                let peer = *peer;
                let want = export_oracle(&s, Some(&best), best_ext.as_ref(), peer, cfg);
                let got = export_for(Some(&mut best_forms), ext_forms.as_mut(), peer, cfg.kind);
                assert_eq!(
                    got.map(|(attrs, _)| &**attrs),
                    want.as_ref(),
                    "case {case}: {best:?} / {best_ext:?} towards {peer} {cfg:?}"
                );
                if let Some((attrs, fp)) = got {
                    assert_eq!(*fp, attrs_fingerprint(attrs), "case {case} towards {peer}");
                }
                match &want {
                    Some(w) if advertise_oracle(&s, &best, peer, cfg).as_ref() != Some(w) => {
                        fallbacks += 1;
                    }
                    Some(_) => some += 1,
                    None => none += 1,
                }
            }
            assert!(export_for(
                None,
                ext_forms.as_mut(),
                SpeakerId(2),
                s.peer_config(SpeakerId(2)).unwrap().kind
            )
            .is_none());
        }
        // The generator reaches all three outcomes, each often.
        assert!(
            some > 4000 && none > 4000 && fallbacks > 400,
            "{some} {none} {fallbacks}"
        );
    }

    /// A small network: AS 100 is a reflector (1) with two border clients
    /// (2, 3); around it a provider (10), a peer (11), a customer (12) and a
    /// stub (13) multi-homed to the provider and the peer. Border 2 also
    /// originates a NO_EXPORT more-specific, border 3 a NO_ADVERTISE route.
    fn advertising_net(best_external: bool) -> crate::BgpNet {
        use crate::BgpNet;
        let mut net = BgpNet::new();
        for (id, asn) in [
            (1, 100),
            (2, 100),
            (3, 100),
            (10, 200),
            (11, 300),
            (12, 400),
        ] {
            net.add_speaker(Speaker::new(SpeakerId(id), Asn(asn)));
        }
        net.add_speaker(Speaker::new(SpeakerId(13), Asn(500)));
        for (rr, client) in [(1, 2), (1, 3)] {
            net.connect_rr_client(SpeakerId(rr), SpeakerId(client), Policy::GaoRexford);
        }
        for (a, b, rel) in [
            (2, 10, Relation::Provider),
            (3, 10, Relation::Provider),
            (3, 11, Relation::Peer),
            (2, 12, Relation::Customer),
            (10, 13, Relation::Customer),
            (11, 13, Relation::Customer),
        ] {
            net.connect_ebgp(SpeakerId(a), SpeakerId(b), rel, Policy::GaoRexford);
        }
        for id in [1, 2, 3] {
            let costs = [(1, 10), (2, 10), (3, 10)]
                .into_iter()
                .filter(|&(to, _)| to != id)
                .map(|(to, c)| (SpeakerId(to), c))
                .collect();
            let sp = net.speaker_mut(SpeakerId(id)).unwrap();
            sp.set_igp_costs(costs);
            sp.set_best_external(best_external && id != 1);
        }
        for (at, prefix) in [
            (13, "10.13.0.0/16"),
            (12, "10.12.0.0/16"),
            (11, "10.11.0.0/16"),
            (10, "10.10.0.0/16"),
            (3, "10.3.0.0/16"),
        ] {
            net.originate(SpeakerId(at), p(prefix));
        }
        net.originate_with(SpeakerId(2), p("10.13.64.0/18"), vec![Community::NoExport]);
        net.originate_with(
            SpeakerId(3),
            p("10.3.128.0/17"),
            vec![Community::NoAdvertise],
        );
        net.run(100_000).unwrap();
        net
    }

    /// `advertises_to` is `exported_to(..).is_some()` for every speaker ×
    /// configured peer × prefix, and says no to a peer that is not
    /// configured; returns how many pairs advertise.
    fn assert_advertises_as_exported(net: &crate::BgpNet, ctx: &str) -> usize {
        let ids: Vec<PrefixId> = net.prefix_ids().map(|(_, id)| id).collect();
        let mut advertised = 0;
        for sid in net.speaker_ids() {
            let sp = net.speaker(sid).unwrap();
            for &id in &ids {
                for peer in sp.peer_ids() {
                    let exported = sp.exported_to(peer, id).is_some();
                    assert_eq!(
                        sp.advertises_to(peer, id),
                        exported,
                        "{ctx}: {sid} -> {peer} for {}",
                        sp.prefixes.prefix(id)
                    );
                    advertised += usize::from(exported);
                }
                assert!(!sp.advertises_to(SpeakerId(99), id), "{ctx}: unconfigured");
            }
        }
        advertised
    }

    #[test]
    fn advertises_to_is_exported_to_is_some() {
        for best_external in [true, false] {
            let mut net = advertising_net(best_external);
            let ctx = format!("best-external {best_external}");
            let converged = assert_advertises_as_exported(&net, &ctx);
            // Cut the reflector from one border, then the border's
            // provider session: the survivors re-decide.
            net.disconnect(SpeakerId(1), SpeakerId(3));
            net.run(100_000).unwrap();
            assert_advertises_as_exported(&net, &format!("{ctx}, 1-3 cut"));
            net.disconnect(SpeakerId(2), SpeakerId(10));
            net.run(100_000).unwrap();
            let cut = assert_advertises_as_exported(&net, &format!("{ctx}, 2-10 cut"));
            assert!(converged > cut && cut > 0, "{ctx}: {converged} {cut}");
        }
        // Best-external is what the fallback branch decides: with it on, a
        // border whose best is iBGP-learned still advertises its external
        // route to the reflector.
        let on = advertising_net(true);
        let off = advertising_net(false);
        let heard = |net: &crate::BgpNet| {
            let borders = [2, 3].map(|b| net.speaker(SpeakerId(b)).unwrap());
            net.prefix_ids()
                .filter(|&(_, id)| {
                    borders.iter().any(|sp| {
                        sp.best(id).is_some_and(|c| c.source.is_ibgp())
                            && sp.advertises_to(SpeakerId(1), id)
                    })
                })
                .count()
        };
        assert!(heard(&on) > heard(&off), "{} {}", heard(&on), heard(&off));
    }

    #[test]
    fn lookup_longest_match() {
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.originate(p("10.0.0.0/8"));
        s.originate(p("10.1.0.0/16"));
        s.process();
        let (pre, _) = s.lookup(0x0a010203).unwrap();
        assert_eq!(pre, p("10.1.0.0/16"));
        let (pre, _) = s.lookup(0x0aff0000).unwrap();
        assert_eq!(pre, p("10.0.0.0/8"));
    }
}
