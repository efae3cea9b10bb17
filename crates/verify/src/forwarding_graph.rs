//! Whole-network forwarding-graph extraction from converged RIBs.
//!
//! The control-plane checks audit routers one at a time; this module
//! derives what the *network* does: for every destination it computes each
//! speaker's forwarding successor — [`vns_topo::path::forwarding_decision`],
//! the same longest match and steering fall-through
//! [`vns_topo::path::resolve_path`] walks, checked here for a known next
//! router, an interconnect and an IGP path where the resolver builds hops
//! (`crates/bench/tests/graph_vs_resolver.rs` pins that the two loops around
//! the one decision agree) — and walks the resulting functional graph.
//! Because each speaker has at most one successor per destination, every
//! walk is a rho-shaped chain: terminal fates are memoised and propagated
//! backwards, so the whole pass is linear in `speakers × destinations`
//! successor evaluations.
//!
//! **Dense walk state.** One [`analyze`] call numbers the speakers once
//! (their *ordinal*: position in id order, found from a speaker id by
//! indexing a table over the dense ids, not by searching) and resolves per
//! ordinal what every step needs — the speaker, its AS, whether the scope
//! declares it dead. Per destination it probes the network's prefix table
//! once, for the list of prefixes containing the destination's address
//! ([`vns_bgp::BgpNet::covering`]), and every speaker's decision reads its
//! own Loc-RIB at those ids. The walk then runs on `Vec`s indexed by
//! ordinal: the memoised terminal, an on-chain stamp with the chain
//! position it vouches for, and one chain buffer reused across sources.
//! The memoised terminals are the result: every destination's row of one
//! table (row by destination, column by ordinal), allocated once per call
//! and shared, with the ordinal ↔ id map, by every [`DestinationAnalysis`],
//! which answers by id through that map — no per-destination map or
//! allocation is built. Invariant: a
//! chain position is meaningful only under the *current* walk's stamp (the
//! source's ordinal + 1, unique per walk), so nothing is cleared between
//! sources and a stale stamp can never be taken for chain membership.
//! Nothing but the results outlives the call: the tables borrow the
//! `Internet`, so there is no cache to invalidate.
//!
//! **Destinations.** Every registered prefix that no more-specific
//! registration shadows at its first host, then every prefix some speaker
//! *originates* without it being registered — the management interface's
//! steering more-specifics (Sec 3.2), which exist only in the control plane
//! — each analysed at its own first host against the covering registration.
//! Without the second group no walk starts inside a steered subnet, and a
//! loop only its traffic takes goes unseen.
//!
//! The output ([`ForwardingAnalysis`]) assigns every reachable source a
//! [`Terminal`]: delivery at the origin AS, delivery at an anycast
//! instance, an explicit dead-router sink (under a fault
//! [`VerifyScope`]), a blackhole with a cause, or membership in a
//! forwarding cycle. The data-plane properties in [`crate::dataplane`]
//! are all predicates over this structure.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use vns_bgp::{Covering, Prefix, Speaker, SpeakerId};
use vns_topo::path::{forwarding_decision, Forward};
use vns_topo::{AsId, Internet, PrefixInfo};

use crate::VerifyScope;

/// Why traffic dies at a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlackholeCause {
    /// No covering Loc-RIB entry (the route a neighbour forwarded on no
    /// longer exists here).
    NoRoute,
    /// The selected route forwards to an eBGP peer with no interconnect
    /// link.
    NoInterconnect,
    /// The selected iBGP next hop does not resolve in the AS's IGP.
    IgpUnreachable,
    /// The next hop is not a known speaker at all.
    UnknownSpeaker,
}

impl fmt::Display for BlackholeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlackholeCause::NoRoute => f.write_str("no covering route"),
            BlackholeCause::NoInterconnect => f.write_str("no interconnect to forwarding peer"),
            BlackholeCause::IgpUnreachable => f.write_str("iBGP next hop IGP-unreachable"),
            BlackholeCause::UnknownSpeaker => f.write_str("next hop is not a known speaker"),
        }
    }
}

/// Where a speaker's traffic for one destination ultimately ends up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Delivered at `at`, a router of the destination's origin AS.
    Origin {
        /// The delivering router.
        at: SpeakerId,
    },
    /// Delivered at anycast instance `at` (whichever originating router
    /// the routes led to).
    Anycast {
        /// The instance reached.
        at: SpeakerId,
    },
    /// The walk entered a router declared dead by the [`VerifyScope`] —
    /// an explicit, accounted-for sink under an injected fault, never a
    /// silent failure.
    DeadSink {
        /// The dead router.
        at: SpeakerId,
    },
    /// Traffic dies at `at`.
    Blackhole {
        /// The router where it dies.
        at: SpeakerId,
        /// Why.
        cause: BlackholeCause,
    },
    /// Traffic feeds forwarding cycle `idx` in
    /// [`DestinationAnalysis::cycles`].
    Cycle {
        /// Index into the destination's cycle list.
        idx: usize,
    },
}

/// One forwarding decision: where a speaker sends traffic for a
/// destination, or why it cannot.
enum Step {
    /// Delivered here; `anycast` when the destination prefix is anycast.
    Deliver {
        /// Whether this is an anycast delivery.
        anycast: bool,
    },
    /// Forwarded to the next BGP-level router (by speaker ordinal, see
    /// [`Speakers`]).
    Forward(usize),
    /// Dies here.
    Dead(BlackholeCause),
}

/// The speakers of one [`analyze`] call in id order: an ordinal's id, and
/// an id's ordinal by index.
#[derive(Debug)]
struct Roster {
    ids: Vec<SpeakerId>,
    /// `ordinals[id]`: the ordinal of speaker `id`, `None` for an id with
    /// no speaker.
    ordinals: Vec<Option<usize>>,
}

impl Roster {
    fn ordinal(&self, id: SpeakerId) -> Option<usize> {
        self.ordinals.get(id.0 as usize).copied().flatten()
    }
}

/// Every destination's fates, shared by the destinations of one [`analyze`]
/// call: `table[row * n + ordinal]` is the fate of the speaker with that
/// ordinal for the destination at `row` (`n` speakers in the roster).
#[derive(Debug)]
struct Fates {
    roster: Roster,
    table: Vec<Fate>,
}

/// A [`Terminal`], or none (the speaker is not a source: no covering
/// route, or dead), in the eight bytes a table cell holds: the variant, and
/// a blackhole's cause, in `kind` (0 for none); the router's id or the
/// cycle's index in `arg`. A cycle index fits: a destination's cycles are disjoint, so there
/// are fewer than speakers, whose ids are `u32`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Fate {
    kind: u32,
    arg: u32,
}

impl Fate {
    /// Blackhole causes in `kind` order, after the other four variants.
    const CAUSES: [BlackholeCause; 4] = [
        BlackholeCause::NoRoute,
        BlackholeCause::NoInterconnect,
        BlackholeCause::IgpUnreachable,
        BlackholeCause::UnknownSpeaker,
    ];

    fn of(t: Terminal) -> Self {
        let (kind, arg) = match t {
            Terminal::Origin { at } => (1, at.0),
            Terminal::Anycast { at } => (2, at.0),
            Terminal::DeadSink { at } => (3, at.0),
            Terminal::Cycle { idx } => (4, idx as u32),
            Terminal::Blackhole { at, cause } => (5 + cause as u32, at.0),
        };
        Self { kind, arg }
    }

    fn terminal(self) -> Option<Terminal> {
        let at = SpeakerId(self.arg);
        Some(match self.kind {
            0 => return None,
            1 => Terminal::Origin { at },
            2 => Terminal::Anycast { at },
            3 => Terminal::DeadSink { at },
            4 => Terminal::Cycle {
                idx: self.arg as usize,
            },
            kind => Terminal::Blackhole {
                at,
                cause: *Self::CAUSES.get(kind as usize - 5)?,
            },
        })
    }
}

/// The per-destination slice of the forwarding graph: every speaker that
/// holds a covering route, with where its traffic ends.
#[derive(Debug)]
pub struct DestinationAnalysis {
    /// The destination prefix.
    pub prefix: Prefix,
    /// The representative host address the graph was derived for.
    pub ip: u32,
    /// The call's fates; this destination's are row `row`.
    fates: Arc<Fates>,
    row: usize,
    /// Distinct forwarding cycles, each canonicalised to start at its
    /// smallest member.
    pub cycles: Vec<Vec<SpeakerId>>,
}

impl DestinationAnalysis {
    /// This destination's fates, by ordinal.
    fn row(&self) -> &[Fate] {
        let n = self.fates.roster.ids.len();
        &self.fates.table[self.row * n..][..n]
    }

    /// The terminal fate of source `id`; `None` when `id` is not a source.
    pub fn outcome(&self, id: SpeakerId) -> Option<Terminal> {
        self.row()[self.fates.roster.ordinal(id)?].terminal()
    }

    /// Every source with its terminal fate, in id order.
    pub fn outcomes(&self) -> impl Iterator<Item = (SpeakerId, Terminal)> + '_ {
        self.fates
            .roster
            .ids
            .iter()
            .zip(self.row())
            .filter_map(|(&id, fate)| Some((id, fate.terminal()?)))
    }

    /// How many sources reach a terminal: the (source, destination) pairs
    /// this destination contributes.
    pub fn sources(&self) -> usize {
        self.row().iter().filter(|fate| fate.kind != 0).count()
    }

    /// Sources whose terminal equals `t` (used for affected-source counts).
    pub fn sources_with(&self, t: Terminal) -> usize {
        let t = Fate::of(t);
        self.row().iter().filter(|fate| **fate == t).count()
    }
}

/// The whole-network forwarding analysis: one [`DestinationAnalysis`] per
/// destination (see the module docs for which prefixes are destinations).
#[derive(Debug)]
pub struct ForwardingAnalysis {
    /// Per-destination analyses: registered prefixes in address order, then
    /// originated-but-unregistered ones in address order.
    pub destinations: Vec<DestinationAnalysis>,
}

impl ForwardingAnalysis {
    /// The analysis for a specific destination prefix.
    pub fn destination(&self, prefix: &Prefix) -> Option<&DestinationAnalysis> {
        self.destinations.iter().find(|d| d.prefix == *prefix)
    }

    /// Total (source, destination) pairs analysed.
    pub fn pairs(&self) -> usize {
        self.destinations
            .iter()
            .map(DestinationAnalysis::sources)
            .sum()
    }
}

/// The speakers of one world in id order, with what every forwarding
/// decision needs of each resolved once: built per [`analyze`] call, shared
/// by all destinations. A speaker's position is its *ordinal*, the index
/// the per-destination walk state is kept under; the [`Roster`] maps a
/// speaker id back to it by index.
struct Speakers<'a> {
    internet: &'a Internet,
    roster: Roster,
    speakers: Vec<&'a Speaker>,
    as_of: Vec<Option<AsId>>,
    dead: Vec<bool>,
}

impl<'a> Speakers<'a> {
    fn new(internet: &'a Internet, scope: &VerifyScope) -> Self {
        let net = &internet.net;
        let (ids, speakers): (Vec<SpeakerId>, Vec<&Speaker>) = net
            .speaker_ids()
            .filter_map(|id| Some((id, net.speaker(id)?)))
            .unzip();
        let mut ordinals = vec![None; ids.last().map_or(0, |id| id.0 as usize + 1)];
        for (ordinal, id) in ids.iter().enumerate() {
            ordinals[id.0 as usize] = Some(ordinal);
        }
        let as_of = ids.iter().map(|&id| internet.as_of_speaker(id)).collect();
        let dead = ids.iter().map(|&id| scope.is_dead(id)).collect();
        Self {
            internet,
            roster: Roster { ids, ordinals },
            speakers,
            as_of,
            dead,
        }
    }

    fn ordinal(&self, id: SpeakerId) -> Option<usize> {
        self.roster.ordinal(id)
    }

    fn id(&self, ordinal: usize) -> SpeakerId {
        self.roster.ids[ordinal]
    }

    /// The forwarding decision of the speaker with ordinal `cur` for the
    /// address `covering` lists the prefixes of, whose covering
    /// registration is `pinfo`, as a [`Step`]: the next router must be a
    /// known speaker, an eBGP step needs an interconnect and an iBGP step
    /// an IGP path. Returns `None` when the speaker holds no covering route
    /// at all.
    fn successor(
        &self,
        cur: usize,
        covering: &Covering,
        pinfo: Option<&PrefixInfo>,
    ) -> Option<Step> {
        let cur_id = self.id(cur);
        let forward = forwarding_decision(self.speakers[cur], self.as_of[cur], covering, pinfo)?;
        let Some(cur_as) = self.as_of[cur] else {
            return Some(Step::Dead(BlackholeCause::UnknownSpeaker));
        };
        Some(match forward {
            Forward::NoRoute => Step::Dead(BlackholeCause::NoRoute),
            Forward::Deliver(pinfo) => Step::Deliver {
                anycast: pinfo.is_some_and(|pi| pi.anycast),
            },
            Forward::Ebgp(peer) => match self.ordinal(peer) {
                None => Step::Dead(BlackholeCause::UnknownSpeaker),
                Some(_) if self.internet.links_between(cur_id, peer).is_empty() => {
                    Step::Dead(BlackholeCause::NoInterconnect)
                }
                Some(next) => Step::Forward(next),
            },
            // Degenerate self-next-hop: surfaces as a 1-cycle.
            Forward::Ibgp(nh) if nh == cur_id => Step::Forward(cur),
            Forward::Ibgp(nh) => {
                let Some(next) = self.ordinal(nh) else {
                    return Some(Step::Dead(BlackholeCause::UnknownSpeaker));
                };
                let igp = self.internet.as_info(cur_as).igp.as_ref();
                if igp.is_some_and(|g| g.reachable(cur_id, nh)) {
                    Step::Forward(next)
                } else {
                    Step::Dead(BlackholeCause::IgpUnreachable)
                }
            }
        })
    }

    /// Derives the forwarding graph for the destination at `prefix`'s first
    /// host and walks every source to its terminal, memoised in `terminal`
    /// (its row of the call's table, by speaker ordinal); returns the
    /// distinct cycles. All walk state is dense, indexed by ordinal.
    fn walk_destination(&self, prefix: Prefix, terminal: &mut [Fate]) -> Vec<Vec<SpeakerId>> {
        let ip = prefix.first_host();
        // Both prefix tables probed once per destination, not once per
        // speaker.
        let pinfo = self.internet.lookup_prefix(ip);
        let covering = self.internet.net.covering(ip);

        let n = self.speakers.len();
        // `chain_pos[s]` is `s`'s position on the current walk's chain iff
        // `on_chain[s]` carries the current walk's stamp (its source's
        // ordinal + 1); stamps from earlier walks are never equal to it, so
        // nothing is cleared between sources.
        let mut on_chain: Vec<usize> = vec![0; n];
        let mut chain_pos: Vec<usize> = vec![0; n];
        let mut chain: Vec<usize> = Vec::new();
        let mut cycles: Vec<Vec<SpeakerId>> = Vec::new();

        for src in 0..n {
            if terminal[src].kind != 0 || self.dead[src] {
                continue;
            }
            let stamp = src + 1;
            chain.clear();
            let mut cur = src;
            let fate: Option<Terminal> = loop {
                if let Some(t) = terminal[cur].terminal() {
                    break Some(t);
                }
                if self.dead[cur] {
                    break Some(Terminal::DeadSink { at: self.id(cur) });
                }
                match self.successor(cur, &covering, pinfo) {
                    None => {
                        // `cur` holds no covering route. At the walk's
                        // origin that just means it is not a source for
                        // this destination; downstream it is a silent
                        // blackhole.
                        break (!chain.is_empty()).then_some(Terminal::Blackhole {
                            at: self.id(cur),
                            cause: BlackholeCause::NoRoute,
                        });
                    }
                    Some(Step::Deliver { anycast }) => {
                        let at = self.id(cur);
                        let t = if anycast {
                            Terminal::Anycast { at }
                        } else {
                            Terminal::Origin { at }
                        };
                        terminal[cur] = Fate::of(t);
                        break Some(t);
                    }
                    Some(Step::Dead(cause)) => {
                        let t = Terminal::Blackhole {
                            at: self.id(cur),
                            cause,
                        };
                        terminal[cur] = Fate::of(t);
                        break Some(t);
                    }
                    Some(Step::Forward(next)) => {
                        on_chain[cur] = stamp;
                        chain_pos[cur] = chain.len();
                        chain.push(cur);
                        if on_chain[next] == stamp {
                            let mut members: Vec<SpeakerId> = chain[chain_pos[next]..]
                                .iter()
                                .map(|&s| self.id(s))
                                .collect();
                            let lead = members
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, s)| **s)
                                .map_or(0, |(i, _)| i);
                            members.rotate_left(lead);
                            let idx = cycles.iter().position(|c| *c == members);
                            break Some(Terminal::Cycle {
                                idx: idx.unwrap_or_else(|| {
                                    cycles.push(members);
                                    cycles.len() - 1
                                }),
                            });
                        }
                        cur = next;
                    }
                }
            };
            if let Some(t) = fate {
                for &s in &chain {
                    terminal[s] = Fate::of(t);
                }
            }
        }
        cycles
    }
}

/// Derives and walks the forwarding graph for every destination: the
/// registered, unshadowed prefixes, then the originated-but-unregistered
/// ones (see the module docs).
pub fn analyze(internet: &Internet, scope: &VerifyScope) -> ForwardingAnalysis {
    let speakers = Speakers::new(internet, scope);
    // A registered prefix shadowed by a more-specific registered prefix
    // has no representative host of its own; its fate is the more specific
    // destination's.
    let registered = internet.prefixes().map(|pi| pi.prefix).filter(|p| {
        internet
            .lookup_prefix(p.first_host())
            .is_some_and(|m| m.prefix == *p)
    });
    // Total originations are about one per prefix, not speakers × prefixes.
    let steered: BTreeSet<Prefix> = speakers
        .speakers
        .iter()
        .flat_map(|sp| sp.originated_prefixes())
        .filter(|p| internet.prefix_info(p).is_none())
        .collect();
    let prefixes: Vec<Prefix> = registered.chain(steered).collect();
    let n = speakers.speakers.len();
    let mut table = vec![Fate::default(); prefixes.len() * n];
    let cycles: Vec<Vec<Vec<SpeakerId>>> = prefixes
        .iter()
        .enumerate()
        .map(|(row, &p)| speakers.walk_destination(p, &mut table[row * n..][..n]))
        .collect();
    let fates = Arc::new(Fates {
        roster: speakers.roster,
        table,
    });
    let destinations = prefixes
        .into_iter()
        .zip(cycles)
        .enumerate()
        .map(|(row, (prefix, cycles))| DestinationAnalysis {
            prefix,
            ip: prefix.first_host(),
            fates: Arc::clone(&fates),
            row,
            cycles,
        })
        .collect();
    ForwardingAnalysis { destinations }
}
