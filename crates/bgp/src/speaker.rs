//! A BGP speaker: one router's RIBs, import/export processing, route
//! reflection and best-external.
//!
//! The update flow mirrors a real implementation:
//!
//! ```text
//! receive() ── import policy / loop checks / import hook ──▶ Adj-RIB-In
//! process() ── decision process per dirty prefix ──▶ Loc-RIB
//!          └── export policy per peer, diffed against Adj-RIB-Out ──▶ messages
//! ```
//!
//! The **import hook** is the extension point the paper's contribution
//! plugs into: `vns-core` installs a hook on the route-reflector speakers
//! that rewrites LOCAL_PREF from the great-circle distance between the
//! route's egress router and the prefix's GeoIP location (Sec 3.2).
//!
//! **Best external** (Sec 3.2, "hidden routes"): when a border router's
//! overall best route is iBGP-learned, it would normally stay silent over
//! iBGP, hiding its own eBGP alternative from the reflectors — which can
//! lock the whole AS onto a geographically wrong egress. With
//! `best_external` enabled the router advertises its best eBGP-learned
//! route to its iBGP peers in that situation, exactly the vendor feature
//! the paper enables.
//!
//! **Longest-match index.** The Loc-RIB stays an ordered map — its
//! iteration order feeds artefacts, and convergence inserts into it on
//! every reselect — so longest-prefix match does not get a second
//! structure holding the routes. Beside the map the speaker keeps
//! `loc_rib_lens`, how many Loc-RIB keys there are of each mask length
//! (`/0`..=`/32`), and [`Speaker::lookup_up_to`] answers with exact-key
//! probes of the populated lengths under the ceiling, longest first: at
//! most 33 `O(log n)` probes, in practice the two or three lengths a
//! world uses. Invariant: `loc_rib_lens[l]` equals the number of Loc-RIB
//! keys of length `l`. Every Loc-RIB mutation goes through
//! `loc_rib_insert` / `loc_rib_remove` (the decision process and the
//! planted-defect hooks), which are the only writers of both; nothing
//! resets the index because nothing else can move the map.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use crate::decision::{select_best, Candidate, DecisionContext};
use crate::policy::{may_export, Policy, Relation};
use crate::prefix::Prefix;
use crate::route::{Asn, Community, RouteAttrs, RouteSource, SpeakerId, DEFAULT_LOCAL_PREF};

/// A BGP message on a session.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Announce/replace a route to `prefix`.
    Update {
        /// The prefix.
        prefix: Prefix,
        /// Attributes as sent on the wire.
        attrs: RouteAttrs,
    },
    /// Withdraw the previously announced route to `prefix`.
    Withdraw {
        /// The prefix.
        prefix: Prefix,
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

/// Hook applied to every accepted route before it enters Adj-RIB-In.
///
/// This is how `vns-core` implements the paper's modified Quagga: the geo
/// route reflector's hook rewrites `attrs.local_pref` as a function of the
/// distance between `attrs.next_hop` (the egress border router) and the
/// prefix's GeoIP location.
///
/// `Send + Sync` so a converged network (and the hooks installed on its
/// speakers) can be shared read-only across campaign worker threads.
pub trait ImportHook: std::fmt::Debug + Send + Sync {
    /// Inspect/rewrite an accepted route. `from` is the sending peer.
    fn on_import(
        &self,
        from: SpeakerId,
        prefix: Prefix,
        source: &RouteSource,
        attrs: &mut RouteAttrs,
    );
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

/// One router.
#[derive(Debug)]
pub struct Speaker {
    id: SpeakerId,
    asn: Asn,
    cluster_id: u32,
    peers: BTreeMap<SpeakerId, PeerConfig>,
    /// prefix -> sender -> candidate (post-import).
    adj_rib_in: BTreeMap<Prefix, BTreeMap<SpeakerId, Candidate>>,
    /// Locally originated routes.
    local: BTreeMap<Prefix, RouteAttrs>,
    /// Current best per prefix. Written only through
    /// [`Speaker::loc_rib_insert`] / [`Speaker::loc_rib_remove`].
    loc_rib: BTreeMap<Prefix, Candidate>,
    /// Loc-RIB keys per mask length (the longest-match index; see the
    /// module docs).
    loc_rib_lens: [u32; 33],
    /// peer -> prefix -> fingerprint of what we last advertised.
    adj_rib_out: BTreeMap<SpeakerId, BTreeMap<Prefix, u64>>,
    /// IGP cost from this router to other routers in the AS.
    igp_costs: BTreeMap<SpeakerId, u64>,
    /// Hot-potato cost of exiting through a given eBGP peer (AS-level
    /// speakers: intra-AS haul to that session's interconnect; router-level
    /// speakers leave this empty, meaning 0).
    session_costs: BTreeMap<SpeakerId, u64>,
    import_hook: Option<Box<dyn ImportHook>>,
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
    dirty: BTreeSet<Prefix>,
}

impl Speaker {
    /// Creates a speaker. `cluster_id` only matters for route reflectors;
    /// by convention we use the router id.
    pub fn new(id: SpeakerId, asn: Asn) -> Self {
        Self {
            id,
            asn,
            cluster_id: id.0,
            peers: BTreeMap::new(),
            adj_rib_in: BTreeMap::new(),
            local: BTreeMap::new(),
            loc_rib: BTreeMap::new(),
            loc_rib_lens: [0; 33],
            adj_rib_out: BTreeMap::new(),
            igp_costs: BTreeMap::new(),
            session_costs: BTreeMap::new(),
            import_hook: None,
            best_external: false,
            ignore_igp_metric: false,
            export_own_ibgp: false,
            dirty: BTreeSet::new(),
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
        self.peers.insert(peer, config);
    }

    /// Tears a session down: the peer's routes leave Adj-RIB-In (as if a
    /// withdraw arrived for each), our advertisements to it are forgotten,
    /// and affected prefixes are reselected on the next
    /// [`Speaker::process`]. Models session/router failure.
    pub fn remove_peer(&mut self, peer: SpeakerId) {
        if self.peers.remove(&peer).is_none() {
            return;
        }
        for (prefix, per_peer) in self.adj_rib_in.iter_mut() {
            if per_peer.remove(&peer).is_some() {
                self.dirty.insert(*prefix);
            }
        }
        self.adj_rib_out.remove(&peer);
        // Best-external and reflection decisions can change even for
        // prefixes the peer never announced (it may have been an export
        // target): reconsider everything we currently advertise.
        let all: Vec<Prefix> = self.loc_rib.keys().copied().collect();
        self.dirty.extend(all);
    }

    /// The configured peers.
    pub fn peer_ids(&self) -> impl Iterator<Item = SpeakerId> + '_ {
        self.peers.keys().copied()
    }

    /// Peer configuration lookup.
    pub fn peer_config(&self, peer: SpeakerId) -> Option<&PeerConfig> {
        self.peers.get(&peer)
    }

    /// Installs the import hook (route reflectors in VNS).
    pub fn set_import_hook(&mut self, hook: Box<dyn ImportHook>) {
        self.import_hook = Some(hook);
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
        self.igp_costs = costs;
        // Hot-potato inputs changed: every prefix could select differently.
        let all: Vec<Prefix> = self
            .adj_rib_in
            .keys()
            .chain(self.local.keys())
            .copied()
            .collect();
        self.dirty.extend(all);
    }

    /// Originates a prefix locally with default attributes.
    pub fn originate(&mut self, prefix: Prefix) {
        self.originate_with(prefix, Vec::new());
    }

    /// Originates a prefix locally with communities (e.g. `NO_EXPORT` for
    /// the management interface's injected more-specifics).
    pub fn originate_with(&mut self, prefix: Prefix, communities: Vec<Community>) {
        let mut attrs = RouteAttrs::originate(self.id);
        attrs.communities = communities;
        self.local.insert(prefix, attrs);
        self.dirty.insert(prefix);
    }

    /// Requests a full re-advertisement to every peer (BGP route refresh,
    /// outbound). Used after import-policy state changes on a neighbour —
    /// e.g. the management interface flipping a geo-routing override —
    /// so the neighbour re-receives (and re-transforms) every route.
    pub fn request_refresh_all(&mut self) {
        // Poison the out-fingerprints so the next process() re-sends even
        // unchanged advertisements.
        for per_peer in self.adj_rib_out.values_mut() {
            for fp in per_peer.values_mut() {
                *fp ^= 0x5a5a_5a5a_5a5a_5a5a;
            }
        }
        let all: Vec<Prefix> = self
            .adj_rib_in
            .keys()
            .chain(self.local.keys())
            .chain(self.loc_rib.keys())
            .copied()
            .collect();
        self.dirty.extend(all);
    }

    /// Schedules re-evaluation (and hence re-export) of every known prefix
    /// *without* poisoning existing Adj-RIB-Out fingerprints. Peers that
    /// already hold the current state diff each re-export to a no-op; a
    /// freshly (re)connected peer — whose fingerprints were cleared at
    /// session teardown — receives the full table. This is the outbound
    /// half of BGP session establishment, used by
    /// [`crate::BgpNet::reconnect`].
    pub fn schedule_initial_advertisement(&mut self) {
        let all: Vec<Prefix> = self
            .adj_rib_in
            .keys()
            .chain(self.local.keys())
            .chain(self.loc_rib.keys())
            .copied()
            .collect();
        self.dirty.extend(all);
    }

    /// Stops originating a prefix.
    pub fn withdraw_local(&mut self, prefix: Prefix) {
        if self.local.remove(&prefix).is_some() {
            self.dirty.insert(prefix);
        }
    }

    /// Handles one incoming message from `from`. Call [`Speaker::process`]
    /// afterwards to recompute and collect outbound messages.
    pub fn receive(&mut self, from: SpeakerId, msg: Message) {
        let Some(cfg) = self.peers.get(&from).copied() else {
            debug_assert!(false, "message from unconfigured peer {from}");
            return;
        };
        match msg {
            Message::Withdraw { prefix } => {
                if let Some(per_peer) = self.adj_rib_in.get_mut(&prefix) {
                    if per_peer.remove(&from).is_some() {
                        self.dirty.insert(prefix);
                    }
                }
            }
            Message::Update { prefix, mut attrs } => {
                let source = match cfg.kind {
                    PeerKind::Ebgp { peer_as, relation } => {
                        // eBGP loop prevention: our AS already on the path.
                        if attrs.path_contains(self.asn) {
                            // Treat as implicit withdraw of any previous
                            // route from this peer.
                            self.receive(from, Message::Withdraw { prefix });
                            return;
                        }
                        // Import policy sets LOCAL_PREF.
                        let _ = cfg.import.import_ebgp(relation, &mut attrs);
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
                if let Some(hook) = &self.import_hook {
                    hook.on_import(from, prefix, &source, &mut attrs);
                }
                self.adj_rib_in
                    .entry(prefix)
                    .or_default()
                    .insert(from, Candidate { attrs, source });
                self.dirty.insert(prefix);
            }
        }
    }

    /// Sets the hot-potato cost of exiting through eBGP peer `peer`
    /// (AS-level modelling; see [`DecisionContext::exit_cost`]).
    pub fn set_session_cost(&mut self, peer: SpeakerId, cost: u64) {
        self.session_costs.insert(peer, cost);
        let all: Vec<Prefix> = self.adj_rib_in.keys().copied().collect();
        self.dirty.extend(all);
    }

    /// Enables/disables the IGP-metric decision step (step 6). See the
    /// field doc: reflectors ignore it so their choice is
    /// vantage-independent. Re-runs the decision process on every prefix.
    pub fn set_ignore_igp_metric(&mut self, on: bool) {
        self.ignore_igp_metric = on;
        let all: Vec<Prefix> = self.adj_rib_in.keys().copied().collect();
        self.dirty.extend(all);
    }

    /// Hot-potato exit cost for a candidate (decision step 6).
    fn exit_cost(&self, c: &Candidate) -> Option<u64> {
        if self.ignore_igp_metric {
            return Some(0);
        }
        match c.source {
            RouteSource::Local => Some(0),
            RouteSource::Ebgp { peer, .. } => {
                Some(self.session_costs.get(&peer).copied().unwrap_or(0))
            }
            RouteSource::Ibgp { .. } => {
                let nh = c.attrs.next_hop;
                if nh == self.id {
                    Some(0)
                } else {
                    self.igp_costs.get(&nh).copied()
                }
            }
        }
    }

    /// Recomputes all dirty prefixes; returns the messages to deliver.
    pub fn process(&mut self) -> Vec<(SpeakerId, Message)> {
        let dirty: Vec<Prefix> = std::mem::take(&mut self.dirty).into_iter().collect();
        let mut out = Vec::new();
        for prefix in dirty {
            self.reselect(prefix, &mut out);
        }
        out
    }

    /// Whether any prefix awaits processing.
    pub fn has_pending_work(&self) -> bool {
        !self.dirty.is_empty()
    }

    fn reselect(&mut self, prefix: Prefix, out: &mut Vec<(SpeakerId, Message)>) {
        // Gather candidates: learned + local.
        let local_cand = self.local.get(&prefix).map(|attrs| Candidate {
            attrs: attrs.clone(),
            source: RouteSource::Local,
        });
        let ctx_costs = |c: &Candidate| self.exit_cost(c);
        let ctx = DecisionContext {
            exit_cost: &ctx_costs,
        };
        let learned = self.adj_rib_in.get(&prefix);
        let best = {
            let iter = learned
                .into_iter()
                .flat_map(|m| m.values())
                .chain(local_cand.iter());
            select_best(iter, &ctx).cloned()
        };

        // Best eBGP-learned candidate (for best-external).
        let best_ext = if self.best_external {
            let iter = learned
                .into_iter()
                .flat_map(|m| m.values())
                .filter(|c| c.source.is_ebgp());
            select_best(iter, &ctx).cloned()
        } else {
            None
        };

        match &best {
            Some(b) => {
                self.loc_rib_insert(prefix, b.clone());
            }
            None => {
                self.loc_rib_remove(&prefix);
            }
        }

        // Export to every peer.
        let peers: Vec<(SpeakerId, PeerConfig)> =
            self.peers.iter().map(|(k, v)| (*k, *v)).collect();
        for (peer, cfg) in peers {
            let desired = self.export_for(&best, best_ext.as_ref(), peer, &cfg);
            // Runtime twin of the vns-verify no-export containment
            // invariant: a NO_EXPORT route must never be put on an eBGP
            // session's wire.
            debug_assert!(
                !(cfg.kind.is_ebgp()
                    && desired
                        .as_ref()
                        .is_some_and(|a| a.has_community(Community::NoExport))),
                "NO_EXPORT route for {prefix} would leak over eBGP {} -> {peer}",
                self.id
            );
            let fp = desired.as_ref().map(attrs_fingerprint);
            let sent = self
                .adj_rib_out
                .get(&peer)
                .and_then(|m| m.get(&prefix))
                .copied();
            match (desired, fp, sent) {
                (Some(attrs), Some(new_fp), old) if old != Some(new_fp) => {
                    self.adj_rib_out
                        .entry(peer)
                        .or_default()
                        .insert(prefix, new_fp);
                    out.push((peer, Message::Update { prefix, attrs }));
                }
                (None, _, Some(_)) => {
                    self.adj_rib_out.entry(peer).or_default().remove(&prefix);
                    out.push((peer, Message::Withdraw { prefix }));
                }
                _ => {}
            }
        }
    }

    /// Computes what (if anything) to advertise to `peer` for the current
    /// best route.
    fn export_for(
        &self,
        best: &Option<Candidate>,
        best_ext: Option<&Candidate>,
        peer: SpeakerId,
        cfg: &PeerConfig,
    ) -> Option<RouteAttrs> {
        let best = best.as_ref()?;
        if let Some(attrs) = self.advertise(best, peer, cfg) {
            return Some(attrs);
        }
        // Best-external: when the best route is iBGP-learned (and therefore
        // not advertised back over iBGP by the rules above), a border
        // router still offers its best eBGP-learned route to its iBGP
        // peers so the reflectors keep seeing every external option.
        if !cfg.kind.is_ebgp() && best.source.is_ibgp() {
            if let Some(ext) = best_ext {
                return self.advertise(ext, peer, cfg);
            }
        }
        None
    }

    /// Standard export rules for one concrete candidate.
    fn advertise(
        &self,
        candidate: &Candidate,
        peer: SpeakerId,
        cfg: &PeerConfig,
    ) -> Option<RouteAttrs> {
        // Never echo a route back to the peer it came from.
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
                // Valley-free scoping. iBGP-learned routes export over
                // eBGP only when an ingress relation tag proves they came
                // from a customer/peer/provider session elsewhere in this
                // AS (multi-router transit providers); untagged ones (VNS
                // runs FlatPreference and never tags) stay internal — VNS
                // provides no transit.
                let learned_rel = match candidate.source {
                    RouteSource::Local => None,
                    RouteSource::Ebgp { relation, .. } => Some(relation),
                    RouteSource::Ibgp { .. } => {
                        match crate::policy::relation_from_tags(&candidate.attrs) {
                            Some(rel) => Some(rel),
                            // Empty path + no tag = originated by a sibling
                            // router in this AS.
                            None if self.export_own_ibgp && candidate.attrs.as_path.is_empty() => {
                                None
                            }
                            None => return None,
                        }
                    }
                };
                if !may_export(learned_rel, relation) {
                    return None;
                }
                // Sender-side loop avoidance.
                if candidate.attrs.path_contains(peer_as) {
                    return None;
                }
                let mut attrs = candidate.attrs.clone();
                crate::policy::strip_relation_tags(&mut attrs);
                attrs.as_path = attrs.as_path.prepend(self.asn);
                attrs.local_pref = DEFAULT_LOCAL_PREF; // non-transitive
                attrs.med = 0; // non-transitive
                attrs.next_hop = self.id;
                attrs.originator_id = None;
                attrs.cluster_list.clear();
                Some(attrs)
            }
            PeerKind::Ibgp | PeerKind::IbgpClient => {
                match candidate.source {
                    // Own and eBGP-learned routes go to every iBGP peer.
                    RouteSource::Local | RouteSource::Ebgp { .. } => Some(candidate.attrs.clone()),
                    // iBGP-learned routes: reflection rules.
                    RouteSource::Ibgp { peer: learned_from } => {
                        let from_client = self
                            .peers
                            .get(&learned_from)
                            .is_some_and(|c| c.kind == PeerKind::IbgpClient);
                        let to_client = cfg.kind == PeerKind::IbgpClient;
                        if !from_client && !to_client {
                            // Plain iBGP: no re-advertisement.
                            return None;
                        }
                        // Acting as reflector: stamp ORIGINATOR_ID and
                        // CLUSTER_LIST.
                        let mut attrs = candidate.attrs.clone();
                        if attrs.originator_id.is_none() {
                            attrs.originator_id = Some(learned_from);
                        }
                        attrs.cluster_list.insert(0, self.cluster_id);
                        Some(attrs)
                    }
                }
            }
        }
    }

    /// The current best route for `prefix`.
    pub fn best(&self, prefix: &Prefix) -> Option<&Candidate> {
        self.loc_rib.get(prefix)
    }

    /// All prefixes with a selected route.
    pub fn loc_rib_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.loc_rib.keys().copied()
    }

    /// Every selected route as `(prefix, best)`, in prefix order.
    pub fn loc_rib_entries(&self) -> impl Iterator<Item = (Prefix, &Candidate)> + '_ {
        self.loc_rib.iter().map(|(p, c)| (*p, c))
    }

    /// Installs `cand` as the selected route for `prefix`, keeping the
    /// per-length index in step. Returns the previous entry.
    fn loc_rib_insert(&mut self, prefix: Prefix, cand: Candidate) -> Option<Candidate> {
        let prev = self.loc_rib.insert(prefix, cand);
        if prev.is_none() {
            self.loc_rib_lens[usize::from(prefix.len())] += 1;
        }
        self.debug_check_lens();
        prev
    }

    /// Drops the selected route for `prefix`, keeping the per-length index
    /// in step. Returns the removed entry.
    fn loc_rib_remove(&mut self, prefix: &Prefix) -> Option<Candidate> {
        let prev = self.loc_rib.remove(prefix);
        if prev.is_some() {
            self.loc_rib_lens[usize::from(prefix.len())] -= 1;
        }
        self.debug_check_lens();
        prev
    }

    /// Debug builds: the index accounts for every Loc-RIB key.
    fn debug_check_lens(&self) {
        debug_assert_eq!(
            self.loc_rib_lens.iter().map(|&n| n as usize).sum::<usize>(),
            self.loc_rib.len(),
            "Loc-RIB length index out of step at {}",
            self.id
        );
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
        // One exact-key probe per populated mask length under the ceiling,
        // longest first: `ip` has exactly one candidate key per length.
        let ceiling = max_len_exclusive.map_or(33, |m| m.min(33));
        (0..ceiling)
            .rev()
            .filter(|&len| self.loc_rib_lens[usize::from(len)] > 0)
            .find_map(|len| self.loc_rib.get_key_value(&Prefix::new(ip, len)))
            .map(|(p, c)| (*p, c))
    }

    /// The best *eBGP-learned* candidate for a prefix, regardless of what
    /// the overall decision selected. A router that statically injects a
    /// steering more-specific (Sec 3.2) resolves it over its own external
    /// route to the covering prefix — this is that route.
    pub fn best_external_route(&self, prefix: &Prefix) -> Option<&Candidate> {
        let ctx_costs = |c: &Candidate| self.exit_cost(c);
        let ctx = DecisionContext {
            exit_cost: &ctx_costs,
        };
        let learned = self.adj_rib_in.get(prefix)?;
        select_best(learned.values().filter(|c| c.source.is_ebgp()), &ctx)
    }

    /// Candidates currently in Adj-RIB-In for a prefix (diagnostics).
    pub fn candidates(&self, prefix: &Prefix) -> Vec<&Candidate> {
        self.adj_rib_in
            .get(prefix)
            .map(|m| m.values().collect())
            .unwrap_or_default()
    }

    // --- Read-only introspection (static analysis / vns-verify) -----------
    //
    // These accessors expose converged control-plane state without any
    // mutation, so an external checker can audit RIBs the way Batfish
    // audits vendor configs: what is in Adj-RIB-In, what *would* go out on
    // each session, and whether next hops resolve.

    /// Every Adj-RIB-In entry as `(prefix, sending peer, candidate)`, in
    /// prefix order. Read-only; intended for invariant checkers.
    pub fn adj_rib_in_entries(&self) -> impl Iterator<Item = (Prefix, SpeakerId, &Candidate)> + '_ {
        self.adj_rib_in
            .iter()
            .flat_map(|(p, per_peer)| per_peer.iter().map(|(from, c)| (*p, *from, c)))
    }

    /// Recomputes the exact attributes this router would currently
    /// advertise to `peer` for `prefix` — the full export pipeline
    /// (echo suppression, community filtering, valley-free scoping,
    /// best-external fallback, reflection stamping) applied to the
    /// converged best route. `None` when nothing would be advertised or
    /// the peer is not configured.
    ///
    /// The stored Adj-RIB-Out keeps only fingerprints to diff against; this
    /// is the authoritative way to inspect outbound state.
    pub fn exported_to(&self, peer: SpeakerId, prefix: &Prefix) -> Option<RouteAttrs> {
        let cfg = self.peers.get(&peer)?;
        let best = self.loc_rib.get(prefix).cloned();
        let best_ext = if self.best_external {
            self.best_external_route(prefix).cloned()
        } else {
            None
        };
        self.export_for(&best, best_ext.as_ref(), peer, cfg)
    }

    /// Installed IGP cost from this router to `to` (`Some(0)` for itself,
    /// `None` when `to` is IGP-unreachable or outside the AS).
    pub fn igp_cost(&self, to: SpeakerId) -> Option<u64> {
        if to == self.id {
            return Some(0);
        }
        self.igp_costs.get(&to).copied()
    }

    /// Whether best-external advertisement is enabled on this router.
    pub fn best_external_enabled(&self) -> bool {
        self.best_external
    }

    // --- Planted-defect harness (vns-verify mutation corpus) ---------------
    //
    // These hooks corrupt the *selected* route in the Loc-RIB in place,
    // without touching Adj-RIB-In, the Adj-RIB-Out fingerprints, or the
    // dirty set. The control plane stays quiescent and keeps believing its
    // own (now wrong) state — exactly the kind of silent forwarding-plane
    // damage the data-plane model checker exists to catch. The simulator
    // itself never calls them; only the verification harness does.

    /// Drops the selected route for `prefix` from the Loc-RIB (downstream
    /// routers still forward here — a silent blackhole). Returns `false`
    /// when no route was selected.
    pub fn corrupt_drop_route(&mut self, prefix: &Prefix) -> bool {
        self.loc_rib_remove(prefix).is_some()
    }

    /// Rewrites the selected route for `prefix` into an iBGP-style entry
    /// whose next hop is `next_hop`, keeping the original path attributes.
    /// Pointing two routers at each other forges a forwarding cycle;
    /// pointing at an IGP-unreachable or phantom speaker forges a
    /// blackhole. Returns `false` when no route was selected.
    pub fn corrupt_redirect_ibgp(&mut self, prefix: &Prefix, next_hop: SpeakerId) -> bool {
        match self.loc_rib.get_mut(prefix) {
            Some(cand) => {
                cand.attrs.next_hop = next_hop;
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
        self.loc_rib_insert(prefix, cand)
    }

    /// Rewrites the forwarding peer of an eBGP-selected route for `prefix`
    /// (the AS-level analogue of a corrupted FIB next hop). Returns `false`
    /// when the selected route is not eBGP-learned.
    pub fn corrupt_forward_peer(&mut self, prefix: &Prefix, peer: SpeakerId) -> bool {
        match self.loc_rib.get_mut(prefix) {
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
            },
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
            attrs.cluster_list = vec![10]; // our own cluster id
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

    #[test]
    fn import_hook_rewrites_local_pref() {
        #[derive(Debug)]
        struct Boost;
        impl ImportHook for Boost {
            fn on_import(
                &self,
                _from: SpeakerId,
                _prefix: Prefix,
                _source: &RouteSource,
                attrs: &mut RouteAttrs,
            ) {
                attrs.local_pref = 999;
            }
        }
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        s.set_import_hook(Box::new(Boost));
        s.add_peer(SpeakerId(2), ebgp_cfg(200, Relation::Provider));
        s.receive(
            SpeakerId(2),
            update(p("10.0.0.0/8"), vec![200], SpeakerId(2)),
        );
        s.process();
        assert_eq!(s.best(&p("10.0.0.0/8")).unwrap().attrs.local_pref, 999);
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
    #[test]
    fn length_index_tracks_every_loc_rib_mutation() {
        fn recount(s: &Speaker) -> [u32; 33] {
            let mut lens = [0; 33];
            for p in s.loc_rib.keys() {
                lens[usize::from(p.len())] += 1;
            }
            lens
        }
        let mut s = Speaker::new(SpeakerId(1), Asn(100));
        let (p8, p16, p24) = (p("10.0.0.0/8"), p("10.1.0.0/16"), p("10.1.2.0/24"));
        for pre in [p8, p16, p24, p("11.0.0.0/8")] {
            s.originate(pre);
        }
        s.process();
        assert_eq!(s.loc_rib_lens, recount(&s));
        assert_eq!(s.loc_rib_lens[8], 2);
        // Re-selecting an existing key is not a new key.
        s.originate(p8);
        s.process();
        assert_eq!(s.loc_rib_lens, recount(&s));
        // The decision process removing a route.
        s.withdraw_local(p16);
        s.process();
        assert_eq!(s.loc_rib_lens, recount(&s));
        assert_eq!(s.lookup(0x0a010001).map(|(m, _)| m), Some(p8));
        // The planted-defect hooks write the Loc-RIB directly.
        let donor = s.best(&p8).expect("selected").clone();
        assert!(s.corrupt_drop_route(&p24));
        assert!(!s.corrupt_drop_route(&p24));
        assert_eq!(s.loc_rib_lens, recount(&s));
        assert_eq!(s.lookup(0x0a010201).map(|(m, _)| m), Some(p8));
        assert!(s.corrupt_replace_route(p16, donor.clone()).is_none());
        assert!(s.corrupt_replace_route(p16, donor).is_some());
        assert_eq!(s.loc_rib_lens, recount(&s));
        assert_eq!(s.lookup(0x0a010201).map(|(m, _)| m), Some(p16));
        assert_eq!(
            s.lookup_up_to(0x0a010201, Some(16)).map(|(m, _)| m),
            Some(p8)
        );
        assert_eq!(s.lookup_up_to(0x0a010201, Some(8)).map(|(m, _)| m), None);
    }
}
