//! Property tests for the BGP machinery: prefix canonicalisation, the
//! longest-match table against a linear-scan table, the Loc-RIB's longest
//! match against the linear scan it replaced, the flat Adj-RIB-In against the
//! nested per-prefix maps it replaced, the Adj-RIB-Out rows against the
//! per-peer maps they replaced, prefix order and longest match under any
//! prefix-naming order and every engine, the slot lifecycle, one covering
//! list per address against every speaker's own longest match (and the
//! readers by prefix against the same readers by id), decision-process
//! order axioms, and valley-free export.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use vns_bgp::policy::{REL_TAG_CUSTOMER, REL_TAG_PEER};
use vns_bgp::{
    compare_routes, may_export, select_best, Asn, BgpNet, Candidate, Community, DecisionContext,
    LpmMap, Message, Origin, PeerConfig, PeerKind, Policy, Prefix, Relation, RibCensus, RouteAttrs,
    RouteSource, Speaker, SpeakerId,
};

/// The linear-scan model of [`LpmMap`]: the same map contract as an
/// unordered `Vec` scan — slow, but so simple it is obviously correct. The
/// property test drives both with identical operation sequences and
/// requires identical observations.
#[derive(Default)]
struct ScanTable<V> {
    entries: Vec<(Prefix, V)>,
}

impl<V> ScanTable<V> {
    fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        for (p, v) in &mut self.entries {
            if *p == prefix {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((prefix, value));
        None
    }

    fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let i = self.entries.iter().position(|(p, _)| p == prefix)?;
        Some(self.entries.swap_remove(i).1)
    }

    fn get(&self, prefix: &Prefix) -> Option<&V> {
        self.entries
            .iter()
            .find(|(p, _)| p == prefix)
            .map(|(_, v)| v)
    }

    /// Longest match among the entries shorter than `ceiling`, by scanning
    /// every entry.
    fn lookup_up_to(&self, ip: u32, ceiling: Option<u8>) -> Option<(Prefix, &V)> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(ip) && ceiling.is_none_or(|c| p.len() < c))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (*p, v))
    }

    /// Every entry in `(addr, len)` order.
    fn sorted(&self) -> Vec<(Prefix, &V)> {
        let mut out: Vec<_> = self.entries.iter().map(|(p, v)| (*p, v)).collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

fn prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(a, l))
}

fn source() -> impl Strategy<Value = RouteSource> {
    prop_oneof![
        Just(RouteSource::Local),
        (1u32..100).prop_map(|p| RouteSource::Ibgp { peer: SpeakerId(p) }),
        (
            1u32..100,
            prop_oneof![
                Just(Relation::Customer),
                Just(Relation::Peer),
                Just(Relation::Provider)
            ]
        )
            .prop_map(|(p, relation)| RouteSource::Ebgp {
                peer: SpeakerId(p),
                peer_as: Asn(p),
                relation,
            }),
    ]
}

fn candidate() -> impl Strategy<Value = Candidate> {
    (
        90u32..200,
        prop::collection::vec(1u32..50, 0..5),
        0u32..3,
        0u32..20,
        1u32..40,
        prop::collection::vec(1u32..8, 0..3),
        source(),
    )
        .prop_map(|(lp, path, origin, med, nh, clusters, source)| Candidate {
            attrs: RouteAttrs {
                local_pref: lp,
                as_path: path.into_iter().map(Asn).collect(),
                origin: match origin {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    _ => Origin::Incomplete,
                },
                med,
                communities: vec![],
                next_hop: SpeakerId(nh),
                originator_id: None,
                cluster_list: clusters,
            }
            .into(),
            source,
        })
}

/// Speakers of the small net the longest-match property drives.
const LPM_SPEAKERS: u32 = 5;

/// A provider chain 1 ← 2 ← 3 ← 4 ← 5 (each the customer of the one before)
/// plus a 1–5 peering, so routes spread both ways and a disconnect removes
/// Loc-RIB entries somewhere.
fn lpm_sessions() -> Vec<(SpeakerId, SpeakerId, Relation)> {
    let mut out: Vec<_> = (1..LPM_SPEAKERS)
        .map(|i| (SpeakerId(i), SpeakerId(i + 1), Relation::Customer))
        .collect();
    out.push((SpeakerId(1), SpeakerId(LPM_SPEAKERS), Relation::Peer));
    out
}

fn lpm_net() -> BgpNet {
    let mut net = BgpNet::new();
    for i in 1..=LPM_SPEAKERS {
        net.add_speaker(Speaker::new(SpeakerId(i), Asn(100 + i)));
    }
    for (a, b, rel) in lpm_sessions() {
        net.connect_ebgp(a, b, rel, Policy::GaoRexford);
    }
    net
}

/// A prefix from a collision-heavy space: few distinct addresses, every
/// mask length, so more- and less-specifics of one another abound.
fn lpm_prefix(addr_sel: u32, len: u8) -> Prefix {
    Prefix::new(addr_sel.rotate_right(6).wrapping_mul(0x9e37_79b9), len)
}

/// The scan `Speaker::lookup_up_to` used to be: filter the whole Loc-RIB,
/// keep the longest match under the ceiling.
fn scan_lookup(sp: &Speaker, ip: u32, ceiling: Option<u8>) -> Option<Prefix> {
    sp.loc_rib_prefixes()
        .filter(|p| p.contains(ip) && ceiling.is_none_or(|m| p.len() < m))
        .max_by_key(Prefix::len)
}

/// `lookup_up_to` ≡ the scan at every speaker, for every probe address and
/// every ceiling `None | 0..=32`.
fn assert_lpm_matches_scan(net: &BgpNet, probes: &[u32]) {
    for id in net.speaker_ids() {
        let sp = net.speaker(id).expect("listed speaker");
        for &ip in probes {
            for ceiling in std::iter::once(None).chain((0..=32).map(Some)) {
                let got = sp.lookup_up_to(ip, ceiling);
                let want = scan_lookup(sp, ip, ceiling);
                assert_eq!(
                    got.map(|(p, _)| p),
                    want,
                    "{id} ip {ip:#x} ceiling {ceiling:?}"
                );
                if let Some((p, cand)) = got {
                    let best = sp.best(&p).expect("matched prefix is selected");
                    assert!(std::ptr::eq(cand, best));
                }
            }
        }
    }
}

/// The router whose Adj-RIB-In the layout property drives.
const ME: SpeakerId = SpeakerId(1);
const ME_ASN: Asn = Asn(100);

/// Its sessions. The sender ids sit on both ends of the id space, so a key
/// range that is off by one sender on either side loses a candidate.
fn rib_peers() -> Vec<(SpeakerId, PeerConfig)> {
    let ebgp = |peer_as, relation, import| PeerConfig {
        kind: PeerKind::Ebgp {
            peer_as: Asn(peer_as),
            relation,
        },
        import,
    };
    let ibgp = |kind| PeerConfig {
        kind,
        import: Policy::FlatPreference,
    };
    vec![
        (
            SpeakerId(0),
            ebgp(200, Relation::Customer, Policy::GaoRexford),
        ),
        (SpeakerId(5), ebgp(201, Relation::Peer, Policy::GaoRexford)),
        (SpeakerId(9), ibgp(PeerKind::Ibgp)),
        (SpeakerId(12), ibgp(PeerKind::IbgpClient)),
        (
            SpeakerId(u32::MAX),
            ebgp(202, Relation::Provider, Policy::FlatPreference),
        ),
    ]
}

/// Neighbouring keys: a prefix, its two halves, and the next block, so one
/// prefix's key range borders another's on both sides.
fn rib_prefixes() -> [Prefix; 4] {
    [
        Prefix::new(0x0a00_0000, 8),
        Prefix::new(0x0a00_0000, 9),
        Prefix::new(0x0a80_0000, 9),
        Prefix::new(0x0b00_0000, 8),
    ]
}

/// The Adj-RIB-In as it was laid out before the flat `(prefix, sender)`
/// map — prefix, then sender — fed by a restatement of
/// `Speaker::receive`'s import rules.
#[derive(Default)]
struct NestedRib(BTreeMap<Prefix, BTreeMap<SpeakerId, Candidate>>);

impl NestedRib {
    fn receive(&mut self, from: SpeakerId, cfg: &PeerConfig, msg: &Message) {
        let (prefix, attrs) = match msg {
            Message::Withdraw { prefix } => {
                if let Some(per_peer) = self.0.get_mut(prefix) {
                    per_peer.remove(&from);
                }
                return;
            }
            Message::Update { prefix, attrs } => (*prefix, attrs),
        };
        let mut attrs = RouteAttrs::clone(attrs);
        let source = match cfg.kind {
            PeerKind::Ebgp { peer_as, relation } => {
                if attrs.path_contains(ME_ASN) {
                    // Implicit withdraw.
                    self.receive(from, cfg, &Message::Withdraw { prefix });
                    return;
                }
                cfg.import.import_ebgp(relation, &mut attrs);
                attrs.next_hop = ME;
                attrs.originator_id = None;
                attrs.cluster_list.clear();
                RouteSource::Ebgp {
                    peer: from,
                    peer_as,
                    relation,
                }
            }
            PeerKind::Ibgp | PeerKind::IbgpClient => {
                if attrs.originator_id == Some(ME) || attrs.cluster_list.contains(&ME.0) {
                    return;
                }
                RouteSource::Ibgp { peer: from }
            }
        };
        let attrs = attrs.into();
        self.0
            .entry(prefix)
            .or_default()
            .insert(from, Candidate { attrs, source });
    }

    fn remove_peer(&mut self, peer: SpeakerId) {
        for per_peer in self.0.values_mut() {
            per_peer.remove(&peer);
        }
    }

    fn candidates(&self, prefix: &Prefix) -> Vec<&Candidate> {
        self.0
            .get(prefix)
            .map(|m| m.values().collect())
            .unwrap_or_default()
    }
}

/// The sessions the Adj-RIB-Out property drives: every kind, ids on both
/// ends of the id space. The first and the last start unconfigured, so
/// their first `add_peer` brings an id lower / higher than every existing
/// peer's — a row entry in front of, and behind, all the others.
fn out_peers() -> [(SpeakerId, PeerConfig); 6] {
    let mut peers = rib_peers();
    peers.insert(
        4,
        (
            SpeakerId(20),
            PeerConfig {
                kind: PeerKind::Ebgp {
                    peer_as: Asn(203),
                    relation: Relation::Customer,
                },
                import: Policy::GaoRexford,
            },
        ),
    );
    peers.try_into().expect("six peers")
}

/// The Adj-RIB-Out as it was laid out before the per-prefix rows — peer,
/// then prefix — with the old per-peer diff ("send iff the fingerprint
/// differs, withdraw iff sent and no longer desired") and the old dirty
/// *set*. What a peer should hear comes from `Speaker::exported_to`, so
/// nothing here runs the speaker's row walk.
#[derive(Default)]
struct PerPeerOut {
    sent: BTreeMap<SpeakerId, BTreeMap<Prefix, u64>>,
    dirty: BTreeSet<Prefix>,
}

impl PerPeerOut {
    fn fingerprint(attrs: &RouteAttrs) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{attrs:?}").hash(&mut h);
        h.finish()
    }

    /// Every prefix the speaker knows: what `schedule_initial_advertisement`
    /// queues (this speaker originates nothing it has not selected).
    fn mark_all(&mut self, sp: &Speaker) {
        self.dirty.extend(sp.adj_rib_in_entries().map(|(p, ..)| p));
        self.dirty.extend(sp.loc_rib_prefixes());
    }

    /// Call before `sp.remove_peer(peer)`.
    fn remove_peer(&mut self, sp: &Speaker, peer: SpeakerId) {
        if sp.peer_config(peer).is_none() {
            return;
        }
        let heard = sp
            .adj_rib_in_entries()
            .filter(|(_, _, from, _)| *from == peer);
        self.dirty.extend(heard.map(|(p, ..)| p));
        self.dirty.extend(sp.loc_rib_prefixes());
        self.sent.remove(&peer);
    }

    fn poison(&mut self) {
        for fp in self.sent.values_mut().flat_map(BTreeMap::values_mut) {
            *fp ^= 0x5a5a_5a5a_5a5a_5a5a;
        }
    }

    /// Call after `sp.process()`: the export diff over the Loc-RIB it left.
    fn process(&mut self, sp: &Speaker) -> Vec<(SpeakerId, Message)> {
        let mut out = Vec::new();
        for prefix in std::mem::take(&mut self.dirty) {
            for peer in sp.peer_ids() {
                let desired = sp
                    .exported_to(peer, &prefix)
                    .map(|attrs| (Self::fingerprint(&attrs), attrs));
                let sent = self.sent.get(&peer).and_then(|m| m.get(&prefix)).copied();
                match (desired, sent) {
                    (Some((fp, attrs)), old) if old != Some(fp) => {
                        self.sent.entry(peer).or_default().insert(prefix, fp);
                        out.push((peer, Message::Update { prefix, attrs }));
                    }
                    (None, Some(_)) => {
                        self.sent.entry(peer).or_default().remove(&prefix);
                        out.push((peer, Message::Withdraw { prefix }));
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.sent.values().map(BTreeMap::len).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn adj_rib_out_rows_match_per_peer_maps(
        export_own_ibgp in any::<bool>(),
        // (op, peer selector, prefix selector, three attribute selectors).
        ops in prop::collection::vec((0u8..20, 0usize..6, 0usize..4, 0u32..4, 0u32..6, 0u32..3), 1..120),
    ) {
        let peers = out_peers();
        let prefixes = rib_prefixes();
        let mut sp = Speaker::new(ME, ME_ASN);
        sp.set_best_external(true);
        sp.set_export_own_ibgp(export_own_ibgp);
        for (id, cfg) in &peers[1..5] {
            sp.add_peer(*id, *cfg);
        }
        let mut oracle = PerPeerOut::default();
        // One own route, so every kind of peer has something to hear.
        sp.originate(prefixes[3]);
        oracle.dirty.insert(prefixes[3]);
        for (op, peer_sel, prefix_sel, a, b, c) in ops {
            let (peer, cfg) = peers[peer_sel];
            let prefix = prefixes[prefix_sel];
            let up = sp.peer_config(peer).is_some();
            let held = sp.adj_rib_in_entries().any(|(p, _, from, _)| (p, from) == (prefix, peer));
            let mut emitted = None;
            match op {
                // Update; `a == 3` is an eBGP loop (implicit withdraw).
                // `b` picks the communities that decide the export scope.
                0..=7 if up => {
                    let looped = cfg.kind.is_ebgp() && a == 3;
                    if held || !looped {
                        oracle.dirty.insert(prefix);
                    }
                    let communities = match b {
                        0 => vec![Community::NoExport],
                        1 => vec![Community::NoAdvertise],
                        2 => vec![REL_TAG_CUSTOMER],
                        3 => vec![Community::Tag(5), REL_TAG_PEER],
                        _ => vec![],
                    };
                    let attrs = RouteAttrs {
                        local_pref: 100 + 10 * c,
                        // `a == 2` is a sibling's own route over iBGP.
                        as_path: [200 + peer_sel as u32, if a == 3 { ME_ASN.0 } else { 300 + a }]
                            .into_iter()
                            .filter(|_| a != 2)
                            .map(Asn)
                            .collect(),
                        origin: Origin::Igp,
                        med: 0,
                        communities,
                        next_hop: SpeakerId(30 + a),
                        originator_id: None,
                        cluster_list: vec![7],
                    };
                    sp.receive(peer, Message::Update { prefix, attrs: attrs.into() });
                }
                8..=10 if up => {
                    if held {
                        oracle.dirty.insert(prefix);
                    }
                    sp.receive(peer, Message::Withdraw { prefix });
                }
                11 | 12 => {
                    oracle.remove_peer(&sp, peer);
                    sp.remove_peer(peer);
                }
                // A session configured but not yet advertised to: it hears
                // a prefix the next time something else queues it.
                13 => sp.add_peer(peer, cfg),
                // The speaker's half of `BgpNet::reconnect`.
                14 => {
                    sp.add_peer(peer, cfg);
                    sp.schedule_initial_advertisement();
                    oracle.mark_all(&sp);
                }
                15 => {
                    sp.request_refresh_all();
                    oracle.poison();
                    oracle.mark_all(&sp);
                }
                16..=19 => emitted = Some(sp.process()),
                _ => {}
            }
            if let Some(got) = emitted {
                prop_assert_eq!(got, oracle.process(&sp));
            }
            prop_assert_eq!(sp.has_pending_work(), !oracle.dirty.is_empty());
            prop_assert_eq!(sp.adj_rib_out_len(), oracle.len());
        }
    }
}

proptest! {
    #[test]
    fn flat_adj_rib_in_matches_nested_maps(
        // (op, peer selector, prefix selector, three attribute selectors).
        ops in prop::collection::vec((0u8..12, 0usize..5, 0usize..4, 0u32..4, 0u32..4, 0u32..3), 1..80),
    ) {
        let peers = rib_peers();
        let prefixes = rib_prefixes();
        let mut sp = Speaker::new(ME, ME_ASN);
        sp.set_best_external(true);
        for (id, cfg) in &peers {
            sp.add_peer(*id, *cfg);
        }
        let mut up: BTreeSet<SpeakerId> = peers.iter().map(|(id, _)| *id).collect();
        let mut oracle = NestedRib::default();
        for (op, peer_sel, prefix_sel, a, b, c) in ops {
            let (from, cfg) = peers[peer_sel];
            let prefix = prefixes[prefix_sel];
            let msg = match op {
                // Update; `a == 3` puts our own AS on the path (an eBGP
                // loop: implicit withdraw), `b == 3` our cluster id on the
                // cluster list (an iBGP reflection loop: ignored).
                0..=5 => Some(Message::Update {
                    prefix,
                    attrs: RouteAttrs {
                        local_pref: 100 + 10 * c,
                        as_path: [200 + peer_sel as u32, if a == 3 { ME_ASN.0 } else { 300 + a }]
                            .into_iter()
                            .map(Asn)
                            .collect(),
                        origin: Origin::Igp,
                        med: b,
                        communities: vec![],
                        next_hop: SpeakerId(20 + a),
                        originator_id: None,
                        cluster_list: if b == 3 { vec![7, ME.0] } else { vec![7] },
                    }
                    .into(),
                }),
                6 | 7 => Some(Message::Withdraw { prefix }),
                8 => {
                    sp.remove_peer(from);
                    oracle.remove_peer(from);
                    up.remove(&from);
                    None
                }
                // The speaker's half of `BgpNet::reconnect`.
                9 => {
                    sp.add_peer(from, cfg);
                    sp.schedule_initial_advertisement();
                    up.insert(from);
                    None
                }
                _ => {
                    sp.process();
                    None
                }
            };
            // A torn-down session delivers nothing.
            if let Some(msg) = msg.filter(|_| up.contains(&from)) {
                oracle.receive(from, &cfg, &msg);
                sp.receive(from, msg);
            }
            let ctx = DecisionContext::no_igp();
            for p in &prefixes {
                let want = oracle.candidates(p);
                prop_assert_eq!(&sp.candidates(p), &want, "candidates({})", p);
                let want_ext = select_best(want.into_iter().filter(|c| c.source.is_ebgp()), &ctx);
                prop_assert_eq!(sp.best_external_route(p), want_ext, "best_external_route({})", p);
            }
            let got: Vec<_> = sp.adj_rib_in_entries().map(|(p, _, from, c)| (p, from, c)).collect();
            let want: Vec<_> = oracle
                .0
                .iter()
                .flat_map(|(p, per_peer)| per_peer.iter().map(|(from, c)| (*p, *from, c)))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn loc_rib_lookup_matches_scan(
        // (op, speaker selector, address selector, mask length).
        ops in prop::collection::vec((0u8..8, 0u32..64, 0u32..12, 0u8..=32), 1..60),
        salts in prop::collection::vec(any::<u32>(), 4..5),
    ) {
        let mut net = lpm_net();
        let sessions = lpm_sessions();
        // Probe inside every address block the ops can touch, plus noise.
        let probes: Vec<u32> = (0..12)
            .flat_map(|a| salts.iter().map(move |s| lpm_prefix(a, 32).addr() ^ (s >> 12)))
            .chain(salts.iter().copied())
            .collect();
        for (op, sp_sel, addr_sel, len) in ops {
            let at = SpeakerId(1 + sp_sel % LPM_SPEAKERS);
            let prefix = lpm_prefix(addr_sel, len);
            match op {
                0..=2 => net.originate(at, prefix),
                3 => net.speaker_mut(at).expect("speaker").withdraw_local(prefix),
                4 => {
                    let (a, b, _) = sessions[sp_sel as usize % sessions.len()];
                    net.disconnect(a, b);
                }
                // The planted-defect hooks write the Loc-RIB behind the
                // decision process's back; the index must follow them too.
                5 => {
                    net.speaker_mut(at).expect("speaker").corrupt_drop_route(&prefix);
                }
                6 => {
                    let donor = net.speaker(at).and_then(|s| s.loc_rib_entries().next().map(|(.., c)| c.clone()));
                    if let Some(cand) = donor {
                        net.speaker_mut(at).expect("speaker").corrupt_replace_route(prefix, cand);
                    }
                }
                _ => {
                    net.speaker_mut(at).expect("speaker").corrupt_redirect_ibgp(&prefix, SpeakerId(99));
                }
            }
            net.run(1_000_000).expect("small net converges");
            assert_lpm_matches_scan(&net, &probes);
        }
    }

    #[test]
    fn prefix_display_parse_roundtrip(p in prefix()) {
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn prefix_contains_its_own_hosts(p in prefix(), salt in any::<u32>()) {
        // Any address formed by ORing host bits into the network stays in.
        let host_mask = if p.len() == 0 { u32::MAX } else if p.len() == 32 { 0 } else { u32::MAX >> p.len() };
        let ip = p.addr() | (salt & host_mask);
        prop_assert!(p.contains(ip));
        prop_assert!(p.contains(p.first_host()));
    }

    #[test]
    fn split_partitions_the_prefix(p in prefix(), salt in any::<u32>()) {
        if let Some((lo, hi)) = p.split() {
            let host_mask = if p.len() == 0 { u32::MAX } else { u32::MAX >> p.len() };
            let ip = p.addr() | (salt & host_mask);
            prop_assert!(lo.contains(ip) ^ hi.contains(ip));
            prop_assert!(p.covers(&lo) && p.covers(&hi));
        }
    }

    #[test]
    fn lpm_map_matches_scan_oracle(
        // Ops over a deliberately collision-heavy space (few distinct
        // addresses, full /0..=/32 length range) so inserts overwrite,
        // removes hit, and default routes and host routes both occur.
        ops in prop::collection::vec(
            (any::<bool>(), 0u32..64, 0u8..=32),
            1..200
        ),
        probes in prop::collection::vec(any::<u32>(), 1..60)
    ) {
        let mut map = LpmMap::new();
        let mut oracle = ScanTable::default();
        for (i, (is_insert, addr_sel, len)) in ops.iter().enumerate() {
            // Spread the few address selectors across the whole space so
            // short and long prefixes overlap.
            let p = lpm_prefix(*addr_sel, *len);
            if *is_insert {
                prop_assert_eq!(map.insert(p, i), oracle.insert(p, i));
            } else {
                prop_assert_eq!(map.remove(&p), oracle.remove(&p));
            }
            prop_assert_eq!(map.len(), oracle.entries.len());
            prop_assert_eq!(map.is_empty(), oracle.entries.is_empty());
            prop_assert_eq!(map.get(&p), oracle.get(&p));
        }
        // Iteration agrees entry for entry, in (addr, len) order.
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), oracle.sorted());
        prop_assert!(map.keys().eq(oracle.sorted().into_iter().map(|(p, _)| p)));
        // Probe the stored networks too: random addresses rarely fall under
        // a long prefix.
        let stored: Vec<u32> = map.keys().map(|p| p.first_host()).collect();
        for ip in probes.into_iter().chain(stored) {
            prop_assert_eq!(map.lookup(ip), oracle.lookup_up_to(ip, None));
            for c in 0..=33 {
                prop_assert_eq!(
                    map.lookup_up_to(ip, Some(c)),
                    oracle.lookup_up_to(ip, Some(c)),
                    "ip {:#x} ceiling {}", ip, c
                );
            }
        }
    }

    #[test]
    fn decision_is_reflexive_and_antisymmetric(a in candidate(), b in candidate()) {
        let ctx = DecisionContext::no_igp();
        prop_assert_eq!(compare_routes(&a, &a, &ctx), std::cmp::Ordering::Equal);
        let ab = compare_routes(&a, &b, &ctx);
        let ba = compare_routes(&b, &a, &ctx);
        prop_assert_eq!(ab, ba.reverse());
    }

    #[test]
    fn decision_is_transitive(a in candidate(), b in candidate(), c in candidate()) {
        use std::cmp::Ordering::*;
        let ctx = DecisionContext::no_igp();
        let ab = compare_routes(&a, &b, &ctx);
        let bc = compare_routes(&b, &c, &ctx);
        let ac = compare_routes(&a, &c, &ctx);
        // The tie-break chain is lexicographic except for MED's
        // same-neighbour scoping, which can break transitivity in
        // pathological cases (a well-known BGP wart). Restrict the check to
        // candidate sets where MED scoping is uniform.
        let same_neighbor = a.attrs.neighbor_as() == b.attrs.neighbor_as()
            && b.attrs.neighbor_as() == c.attrs.neighbor_as();
        let no_med = a.attrs.med == b.attrs.med && b.attrs.med == c.attrs.med;
        if same_neighbor || no_med {
            if ab == Greater && bc == Greater {
                prop_assert_eq!(ac, Greater);
            }
            if ab == Less && bc == Less {
                prop_assert_eq!(ac, Less);
            }
        }
    }

    #[test]
    fn valley_free_never_exports_peer_routes_upward(
        to in prop_oneof![Just(Relation::Peer), Just(Relation::Provider)]
    ) {
        // Routes learned from peers/providers go to customers only.
        prop_assert!(!may_export(Some(Relation::Peer), to));
        prop_assert!(!may_export(Some(Relation::Provider), to));
        // Own and customer routes go anywhere.
        prop_assert!(may_export(None, to));
        prop_assert!(may_export(Some(Relation::Customer), to));
    }
}

/// The nested prefixes the prefix-id properties originate: a /16, a /18
/// and a /20 inside it, a /32 inside those, and a /0.
fn nested_prefixes(addr: u32) -> [Prefix; 5] {
    [
        Prefix::new(addr, 16),
        Prefix::new(addr, 18),
        Prefix::new(addr, 20),
        Prefix::DEFAULT,
        Prefix::new(addr, 32),
    ]
}

/// `lpm_net` with its five speakers spread over two or three shards (1 and
/// 2 always apart), originating `prefixes[k]` at `origins[k]` in the order
/// `keys` sorts them — so a more-specific is often named before the prefix
/// covering it.
fn nested_net(prefixes: &[Prefix], origins: &[u32], keys: &[u32], shards: &[u32]) -> BgpNet {
    let mut net = lpm_net();
    for (i, shard) in shards.iter().enumerate() {
        net.set_shard(SpeakerId(1 + i as u32), *shard);
    }
    let mut order: Vec<usize> = (0..prefixes.len()).collect();
    order.sort_by_key(|&k| keys[k]);
    for k in order {
        net.originate(SpeakerId(origins[k]), prefixes[k]);
    }
    net
}

/// Every reader of every speaker, rendered: what "equal RIBs" means below.
/// Prefix ids are left out: they follow the order prefixes were first
/// named in, which two equal networks need not share.
fn readers(net: &BgpNet) -> Vec<String> {
    net.speaker_ids()
        .map(|id| {
            let sp = net.speaker(id).expect("listed speaker");
            format!(
                "{id} loc {:?} in {:?} own {:?} out {}",
                sp.loc_rib_entries()
                    .map(|(p, _, c)| (p, c))
                    .collect::<Vec<_>>(),
                sp.adj_rib_in_entries()
                    .map(|(p, _, from, c)| (p, from, c))
                    .collect::<Vec<_>>(),
                sp.originated_prefixes().collect::<Vec<_>>(),
                sp.adj_rib_out_len(),
            )
        })
        .collect()
}

/// Every ordered reader ascends strictly, and `lookup_up_to` equals a scan
/// of `loc_rib_entries` for every probe and every ceiling `None | 0..=33`.
fn assert_ordered_and_matching(net: &BgpNet, probes: &[u32]) {
    for id in net.speaker_ids() {
        let sp = net.speaker(id).expect("listed speaker");
        let loc: Vec<Prefix> = sp.loc_rib_entries().map(|(p, ..)| p).collect();
        assert!(loc.windows(2).all(|w| w[0] < w[1]), "{id} loc {loc:?}");
        assert!(sp.loc_rib_prefixes().eq(loc.iter().copied()), "{id}");
        let own: Vec<Prefix> = sp.originated_prefixes().collect();
        assert!(own.windows(2).all(|w| w[0] < w[1]), "{id} own {own:?}");
        let heard: Vec<(Prefix, SpeakerId)> = sp
            .adj_rib_in_entries()
            .map(|(p, _, from, _)| (p, from))
            .collect();
        assert!(heard.windows(2).all(|w| w[0] < w[1]), "{id} in {heard:?}");
        for &ip in probes {
            for ceiling in std::iter::once(None).chain((0..=33).map(Some)) {
                let want = sp
                    .loc_rib_entries()
                    .filter(|(p, ..)| p.contains(ip) && ceiling.is_none_or(|m| p.len() < m))
                    .max_by_key(|(p, ..)| p.len());
                let got = sp.lookup_up_to(ip, ceiling);
                assert_eq!(
                    got.map(|(p, c)| (p, c as *const Candidate)),
                    want.map(|(p, _, c)| (p, c as *const Candidate)),
                    "{id} ip {ip:#x} ceiling {ceiling:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prefix ids are first-seen, readers are ordered by prefix: whatever
    /// order the nested prefixes are named in, every engine and thread
    /// count converges to the same RIBs, read in `(addr, len)` order.
    #[test]
    fn readers_keep_prefix_order_whatever_the_naming_order(
        addr in any::<u32>(),
        origins in prop::collection::vec(1u32..=LPM_SPEAKERS, 5..6),
        keys in prop::collection::vec(any::<u32>(), 5..6),
        shard_count in 2u32..=3,
        assign in prop::collection::vec(0u32..3, 5..6),
    ) {
        let prefixes = nested_prefixes(addr);
        let shards: Vec<u32> = (0..LPM_SPEAKERS as usize)
            .map(|i| if i < 2 { i as u32 } else { assign[i] % shard_count })
            .collect();
        let probes: Vec<u32> = prefixes
            .iter()
            .flat_map(|p| [p.first_host(), p.addr() | !0u32 >> p.len().min(31)])
            .chain([addr ^ 0x8000_0000, addr ^ 0x0000_4000, addr ^ 1])
            .collect();
        let mut mono = nested_net(&prefixes, &origins, &keys, &shards);
        mono.run(1_000_000).expect("small net converges");
        prop_assert!(mono.is_quiescent());
        assert_ordered_and_matching(&mono, &probes);
        let want = readers(&mono);
        for threads in 1..=3 {
            let mut net = nested_net(&prefixes, &origins, &keys, &shards);
            net.run_sharded(1_000_000, threads).expect("small net converges");
            prop_assert!(net.is_quiescent());
            assert_ordered_and_matching(&net, &probes);
            prop_assert_eq!(readers(&net), want.clone(), "threads {}", threads);
        }
    }

    /// A speaker's slots outlive the prefixes in them: withdrawing every
    /// origination empties every RIB, and re-originating builds exactly
    /// what a fresh network builds.
    #[test]
    fn withdrawn_then_reoriginated_equals_a_fresh_build(
        addr in any::<u32>(),
        origins in prop::collection::vec(1u32..=LPM_SPEAKERS, 5..6),
        keys in prop::collection::vec(any::<u32>(), 5..6),
        reorder in prop::collection::vec(any::<u32>(), 5..6),
    ) {
        let prefixes = nested_prefixes(addr);
        let shards = [0, 1, 0, 1, 0];
        let mut net = nested_net(&prefixes, &origins, &keys, &shards);
        net.run_sharded(1_000_000, 1).expect("small net converges");
        for (prefix, at) in prefixes.iter().zip(&origins) {
            net.speaker_mut(SpeakerId(*at)).expect("speaker").withdraw_local(*prefix);
        }
        net.run_sharded(1_000_000, 1).expect("small net converges");
        prop_assert_eq!(net.rib_census(), RibCensus::default());
        let empty: Vec<String> = net
            .speaker_ids()
            .map(|id| format!("{id} loc [] in [] own [] out 0"))
            .collect();
        prop_assert_eq!(readers(&net), empty);
        // Named again in another order: the ids stay the first naming's.
        let mut order: Vec<usize> = (0..prefixes.len()).collect();
        order.sort_by_key(|&k| reorder[k]);
        for &k in &order {
            net.originate(SpeakerId(origins[k]), prefixes[k]);
        }
        net.run_sharded(1_000_000, 1).expect("small net converges");
        let mut fresh = nested_net(&prefixes, &origins, &reorder, &shards);
        fresh.run_sharded(1_000_000, 1).expect("small net converges");
        prop_assert_eq!(net.rib_census(), fresh.rib_census());
        prop_assert_eq!(readers(&net), readers(&fresh));
    }
}

/// Nested prefixes at seven lengths — more than any world populates.
fn nested_at_every_length(addr: u32) -> [Prefix; 7] {
    [0, 8, 16, 18, 20, 24, 32].map(|len| Prefix::new(addr, len))
}

/// At every speaker, for every probe and every ceiling `None | 0..=33`: the
/// longest match over the network's covering list is the speaker's own
/// longest match, and every reader that takes a prefix answers the same by
/// prefix and by the id the readers hand out beside it.
fn assert_covering_matches_each_lookup(net: &BgpNet, probes: &[u32]) {
    for &ip in probes {
        let covering = net.covering(ip);
        for id in net.speaker_ids() {
            let sp = net.speaker(id).expect("listed speaker");
            for ceiling in std::iter::once(None).chain((0..=33).map(Some)) {
                let got = sp.lookup_in(&covering, ceiling);
                let want = sp.lookup_up_to(ip, ceiling);
                assert_eq!(
                    got.map(|(p, _, c)| (p, c as *const Candidate)),
                    want.map(|(p, c)| (p, c as *const Candidate)),
                    "{id} ip {ip:#x} ceiling {ceiling:?}"
                );
                if let Some((p, pid, c)) = got {
                    assert!(std::ptr::eq(sp.best(pid).expect("selected"), c));
                    assert_eq!(sp.best(&p), sp.best(pid), "{id} {p}");
                }
            }
        }
    }
    for id in net.speaker_ids() {
        let sp = net.speaker(id).expect("listed speaker");
        for (p, pid, c) in sp.loc_rib_entries() {
            assert!(std::ptr::eq(sp.best(pid).expect("selected"), c));
            assert_eq!(sp.best_external_route(&p), sp.best_external_route(pid));
            for peer in sp.peer_ids() {
                assert_eq!(sp.exported_to(peer, &p), sp.exported_to(peer, pid));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One longest match per destination ≡ a longest match per router:
    /// after convergence, and after a lent speaker names a prefix the
    /// network has not (its table then runs ahead of the network's, and
    /// the covering list must come from it).
    #[test]
    fn one_covering_list_matches_every_speakers_lookup(
        addr in any::<u32>(),
        origins in prop::collection::vec(1u32..=LPM_SPEAKERS, 7..8),
        keys in prop::collection::vec(any::<u32>(), 7..8),
        lent in 1u32..=LPM_SPEAKERS,
        late_sel in 0usize..6,
        by_origination in any::<bool>(),
        salts in prop::collection::vec(any::<u32>(), 4..5),
    ) {
        let prefixes = nested_at_every_length(addr);
        let mut net = lpm_net();
        let mut order: Vec<usize> = (0..prefixes.len()).collect();
        order.sort_by_key(|&k| keys[k]);
        for k in order {
            net.originate(SpeakerId(origins[k]), prefixes[k]);
        }
        net.run(1_000_000).expect("small net converges");
        // Inside and just outside every nested prefix, plus noise.
        let probes: Vec<u32> = prefixes
            .iter()
            .flat_map(|p| [p.first_host(), p.addr() | !0u32 >> p.len().min(31)])
            .chain([addr ^ 0x8000_0000, addr ^ 0x0001_0000, addr ^ 0x0000_0100, addr ^ 1])
            .chain(salts.iter().copied())
            .collect();
        assert_covering_matches_each_lookup(&net, &probes);

        // A length no nested prefix has, so the network has not named it.
        let late = Prefix::new(addr, [4, 12, 17, 22, 28, 31][late_sel]);
        let sp = net.speaker_mut(SpeakerId(lent)).expect("speaker");
        if by_origination {
            sp.originate(late);
            sp.process();
        } else {
            let cand = Candidate {
                attrs: RouteAttrs::originate(SpeakerId(lent)).into(),
                source: RouteSource::Local,
            };
            sp.corrupt_replace_route(late, cand);
        }
        prop_assert!(net.speaker(SpeakerId(lent)).and_then(|s| s.best(&late)).is_some());
        let probes: Vec<u32> = probes.into_iter().chain([late.first_host()]).collect();
        assert_covering_matches_each_lookup(&net, &probes);
    }
}
