//! The convergence engine: runs a set of speakers to quiescence.
//!
//! An activation queue drives processing: delivering a message marks the
//! receiver active; an active speaker ingests its inbox, reruns the decision
//! process for dirty prefixes, and emits further messages. The queue drains
//! in router-id order, so runs are deterministic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::decision::Candidate;
use crate::prefix::Prefix;
pub use crate::route::SpeakerId;
use crate::route::{Asn, RouteAttrs, RouteSource};
use crate::speaker::{Message, PeerConfig, PeerKind, Speaker};

/// Statistics from a convergence run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvergenceStats {
    /// Speaker activations processed.
    pub activations: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Inter-shard merge rounds ([`BgpNet::run_sharded`] only; `0` for the
    /// monolithic [`BgpNet::run`]).
    pub rounds: u64,
}

/// What the RIBs of a whole network hold, counted by walking them (see
/// [`BgpNet::rib_census`]). Every field is a pure function of the
/// network's message history, so it repeats exactly at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RibCensus {
    /// Adj-RIB-In entries, one per `(speaker, prefix, sender)`.
    pub adj_rib_in: usize,
    /// Loc-RIB entries, one per `(speaker, prefix)`.
    pub loc_rib: usize,
    /// Adj-RIB-Out fingerprints, one per `(speaker, peer, prefix)`.
    pub adj_rib_out: usize,
    /// Distinct [`RouteAttrs`] allocations behind the Adj-RIB-In and
    /// Loc-RIB entries, told apart by address: shared sets count once.
    pub attr_sets: usize,
    /// Distinct AS_PATH allocations behind those attribute sets.
    pub as_paths: usize,
}

/// Error from [`BgpNet::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceError {
    /// The message budget was exhausted before quiescence (almost certainly
    /// a policy dispute / oscillation).
    BudgetExhausted {
        /// Messages delivered before giving up.
        messages: u64,
    },
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvergenceError::BudgetExhausted { messages } => {
                write!(f, "BGP did not converge within {messages} messages")
            }
        }
    }
}

impl std::error::Error for ConvergenceError {}

/// Error from data-plane resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// The starting speaker does not exist.
    NoSuchSpeaker(SpeakerId),
    /// No route to the prefix at some speaker on the way.
    NoRoute(SpeakerId),
    /// A forwarding loop was detected (should not happen post-convergence).
    ForwardingLoop,
    /// The walk exceeded the configured hop limit without reaching the
    /// originator or revisiting a router. On correctly sized worlds this
    /// means the limit (see [`BgpNet::set_hop_limit`]) was not derived from
    /// the world's diameter.
    HopLimitExceeded {
        /// The limit that was hit.
        limit: u32,
    },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::NoSuchSpeaker(s) => write!(f, "unknown speaker {s}"),
            PathError::NoRoute(s) => write!(f, "no route at {s}"),
            PathError::ForwardingLoop => f.write_str("forwarding loop"),
            PathError::HopLimitExceeded { limit } => {
                write!(f, "forwarding path exceeded {limit} hops")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// Default [`BgpNet::forwarding_path`] hop bound — generous for the
/// few-hundred-AS default worlds; scaled worlds derive a diameter-based
/// bound via [`BgpNet::set_hop_limit`].
pub const DEFAULT_HOP_LIMIT: u32 = 64;

/// A network of speakers plus in-flight messages.
#[derive(Debug)]
pub struct BgpNet {
    speakers: BTreeMap<SpeakerId, Speaker>,
    inboxes: BTreeMap<SpeakerId, VecDeque<(SpeakerId, Message)>>,
    active: BTreeSet<SpeakerId>,
    /// Convergence shard per speaker (region index on generated worlds);
    /// unassigned speakers fall into shard 0. Only consulted by
    /// [`BgpNet::run_sharded`].
    shards: BTreeMap<SpeakerId, u32>,
    /// Hop bound for [`BgpNet::forwarding_path`].
    hop_limit: u32,
}

impl Default for BgpNet {
    fn default() -> Self {
        Self {
            speakers: BTreeMap::new(),
            inboxes: BTreeMap::new(),
            active: BTreeSet::new(),
            shards: BTreeMap::new(),
            hop_limit: DEFAULT_HOP_LIMIT,
        }
    }
}

impl BgpNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `id` to a convergence shard (see [`BgpNet::run_sharded`]).
    /// Speakers never assigned live in shard 0.
    pub fn set_shard(&mut self, id: SpeakerId, shard: u32) {
        self.shards.insert(id, shard);
    }

    /// Sets the [`BgpNet::forwarding_path`] hop bound. World generators
    /// derive this from the generated diameter so that deep-but-legal
    /// paths on 10k-AS worlds are distinguishable from actual loops.
    pub fn set_hop_limit(&mut self, limit: u32) {
        self.hop_limit = limit.max(1);
    }

    /// The current [`BgpNet::forwarding_path`] hop bound.
    pub fn hop_limit(&self) -> u32 {
        self.hop_limit
    }

    /// Adds a speaker.
    ///
    /// # Panics
    /// Panics when the id is already taken.
    pub fn add_speaker(&mut self, speaker: Speaker) {
        let id = speaker.id();
        let prev = self.speakers.insert(id, speaker);
        assert!(prev.is_none(), "duplicate speaker id {id}");
        self.inboxes.entry(id).or_default();
    }

    /// Number of speakers.
    pub fn len(&self) -> usize {
        self.speakers.len()
    }

    /// True when no speakers exist.
    pub fn is_empty(&self) -> bool {
        self.speakers.is_empty()
    }

    /// Immutable speaker access.
    pub fn speaker(&self, id: SpeakerId) -> Option<&Speaker> {
        self.speakers.get(&id)
    }

    /// Mutable speaker access; marks the speaker active (its state may have
    /// changed).
    pub fn speaker_mut(&mut self, id: SpeakerId) -> Option<&mut Speaker> {
        self.active.insert(id);
        self.speakers.get_mut(&id)
    }

    /// All speaker ids in order.
    pub fn speaker_ids(&self) -> impl Iterator<Item = SpeakerId> + '_ {
        self.speakers.keys().copied()
    }

    /// Walks every speaker's RIBs and counts entries per structure and the
    /// distinct attribute-set and AS_PATH allocations they point at — the
    /// sharing the RIB layout achieves, measured rather than inferred from
    /// process RSS. Costs one pointer per entry while it runs.
    pub fn rib_census(&self) -> RibCensus {
        let mut census = RibCensus::default();
        for sp in self.speakers.values() {
            census.adj_rib_in += sp.adj_rib_in_entries().count();
            census.loc_rib += sp.loc_rib_entries().count();
            census.adj_rib_out += sp.adj_rib_out_len();
        }
        let mut sets: Vec<&RouteAttrs> = Vec::with_capacity(census.adj_rib_in + census.loc_rib);
        for sp in self.speakers.values() {
            let learned = sp.adj_rib_in_entries().map(|(_, _, c)| c);
            let selected = sp.loc_rib_entries().map(|(_, c)| c);
            sets.extend(learned.chain(selected).map(|c| &*c.attrs));
        }
        sets.sort_unstable_by_key(|a| *a as *const RouteAttrs);
        sets.dedup_by(|a, b| std::ptr::eq(*a, *b));
        census.attr_sets = sets.len();
        let mut paths: Vec<*const Asn> = sets.iter().map(|a| a.as_path.as_ptr()).collect();
        paths.sort_unstable();
        paths.dedup();
        census.as_paths = paths.len();
        census
    }

    /// Configures both sides of a session.
    ///
    /// # Panics
    /// Panics when either speaker is missing or the kinds are inconsistent
    /// (e.g. one side eBGP and the other iBGP).
    pub fn connect(&mut self, a: SpeakerId, a_cfg: PeerConfig, b: SpeakerId, b_cfg: PeerConfig) {
        assert_eq!(
            a_cfg.kind.is_ebgp(),
            b_cfg.kind.is_ebgp(),
            "session kind mismatch between {a} and {b}"
        );
        {
            let sa = self.speakers.get_mut(&a).expect("speaker a exists");
            sa.add_peer(b, a_cfg);
        }
        {
            let sb = self.speakers.get_mut(&b).expect("speaker b exists");
            sb.add_peer(a, b_cfg);
        }
    }

    /// Tears down the session between `a` and `b` (both directions),
    /// discarding any in-flight messages on it. Both speakers reconverge
    /// on the next [`BgpNet::run`]. Models a link/router failure between
    /// them.
    pub fn disconnect(&mut self, a: SpeakerId, b: SpeakerId) {
        if let Some(sa) = self.speakers.get_mut(&a) {
            sa.remove_peer(b);
            self.active.insert(a);
        }
        if let Some(sb) = self.speakers.get_mut(&b) {
            sb.remove_peer(a);
            self.active.insert(b);
        }
        if let Some(inbox) = self.inboxes.get_mut(&a) {
            inbox.retain(|(from, _)| *from != b);
        }
        if let Some(inbox) = self.inboxes.get_mut(&b) {
            inbox.retain(|(from, _)| *from != a);
        }
    }

    /// Re-establishes a previously [`BgpNet::disconnect`]ed session using
    /// the captured per-side configs (capture them with
    /// [`Speaker::peer_config`] before tearing the session down).
    ///
    /// Besides wiring the configs back up, both endpoints schedule a full
    /// re-advertisement: teardown cleared the Adj-RIB-Out fingerprints for
    /// the lost peer, so the fresh session receives the whole table while
    /// established peers diff every re-export to a no-op. This models BGP
    /// session establishment without the refresh-storm of poisoning every
    /// fingerprint on the speaker.
    ///
    /// # Panics
    /// Panics when either speaker is missing or the kinds are inconsistent,
    /// exactly like [`BgpNet::connect`].
    pub fn reconnect(&mut self, a: SpeakerId, a_cfg: PeerConfig, b: SpeakerId, b_cfg: PeerConfig) {
        self.connect(a, a_cfg, b, b_cfg);
        for id in [a, b] {
            let sp = self.speakers.get_mut(&id).expect("speaker exists");
            sp.schedule_initial_advertisement();
            self.active.insert(id);
        }
    }

    /// Originates a prefix at a speaker and schedules propagation.
    pub fn originate(&mut self, at: SpeakerId, prefix: Prefix) {
        self.speakers
            .get_mut(&at)
            .expect("speaker exists")
            .originate(prefix);
        self.active.insert(at);
    }

    /// True when the network holds no unprocessed work: the activation
    /// queue is empty, every inbox is drained, and no speaker has dirty
    /// prefixes.
    ///
    /// Budget exhaustion no longer poisons this check: since the engine
    /// enqueues a speaker's full outgoing batch before the budget test can
    /// fire, an aborted run leaves every counted message in an inbox and
    /// the remaining work visibly queued — `is_quiescent` stays `false`
    /// until a later [`BgpNet::run`] (or [`BgpNet::run_sharded`]) finishes
    /// the job, and honestly reports `true` once one does.
    pub fn is_quiescent(&self) -> bool {
        self.active.is_empty()
            && self.inboxes.values().all(VecDeque::is_empty)
            && self.speakers.values().all(|s| !s.has_pending_work())
    }

    /// Runs to quiescence. `message_budget` bounds total deliveries.
    ///
    /// # Budget exhaustion is a resumable pause
    /// The budget is tested *between* activation batches, never inside
    /// one: a speaker's whole outgoing batch is enqueued and counted
    /// first, so [`ConvergenceError::BudgetExhausted`] reports a message
    /// count that exactly matches the enqueued state (the run may overshoot
    /// the budget by at most one batch). Nothing is dropped — `active` and
    /// the inboxes hold precisely the remaining work, and a later run with
    /// fresh budget resumes convergence where this one stopped.
    pub fn run(&mut self, message_budget: u64) -> Result<ConvergenceStats, ConvergenceError> {
        let mut stats = ConvergenceStats::default();
        // Any speaker with local state changes starts active.
        for (id, s) in &self.speakers {
            if s.has_pending_work() {
                self.active.insert(*id);
            }
        }
        while let Some(id) = self.active.pop_first() {
            stats.activations += 1;
            let speaker = self.speakers.get_mut(&id).expect("active speaker exists");
            if let Some(inbox) = self.inboxes.get_mut(&id) {
                while let Some((from, msg)) = inbox.pop_front() {
                    speaker.receive(from, msg);
                }
            }
            let outgoing = speaker.process();
            for (to, msg) in outgoing {
                stats.messages += 1;
                self.inboxes.entry(to).or_default().push_back((id, msg));
                self.active.insert(to);
            }
            if stats.messages > message_budget {
                return Err(ConvergenceError::BudgetExhausted {
                    messages: stats.messages,
                });
            }
        }
        Ok(stats)
    }

    /// Runs to quiescence with per-shard parallelism: speakers are grouped
    /// by their [`BgpNet::set_shard`] assignment, each round sweeps every
    /// active speaker of every live shard exactly once (router-id order
    /// within a shard, shards on parallel workers), and all messages —
    /// intra- and cross-shard — are merged between rounds in canonical
    /// shard order. The thread count only affects wall-clock, never
    /// results: each shard round is a pure function of the shard's state
    /// at the round start, and the merge order is fixed — the same
    /// label-derived-stream discipline the campaign engine uses.
    ///
    /// Like [`BgpNet::run`] this is *delta* convergence: only speakers
    /// with pending work (topology edits, originations, undrained inboxes)
    /// start active, so incremental edits reconverge incrementally.
    ///
    /// The budget is tested between rounds (each live shard may spend up
    /// to the remaining budget within one round, so the overshoot bound is
    /// one round rather than one batch); on
    /// [`ConvergenceError::BudgetExhausted`] all counted messages are
    /// enqueued and the run is resumable, exactly like [`BgpNet::run`].
    pub fn run_sharded(
        &mut self,
        message_budget: u64,
        threads: usize,
    ) -> Result<ConvergenceStats, ConvergenceError> {
        let mut stats = ConvergenceStats::default();
        for (id, s) in &self.speakers {
            if s.has_pending_work() {
                self.active.insert(*id);
            }
        }
        // Partition every speaker, inbox, and activation by shard.
        let mut shards: BTreeMap<u32, Shard> = BTreeMap::new();
        for (id, sp) in std::mem::take(&mut self.speakers) {
            let sid = self.shards.get(&id).copied().unwrap_or(0);
            shards.entry(sid).or_default().speakers.insert(id, sp);
        }
        for (id, q) in std::mem::take(&mut self.inboxes) {
            if !q.is_empty() {
                let sid = self.shards.get(&id).copied().unwrap_or(0);
                shards.entry(sid).or_default().inbox.insert(id, q);
            }
        }
        for id in std::mem::take(&mut self.active) {
            let sid = self.shards.get(&id).copied().unwrap_or(0);
            shards.entry(sid).or_default().active.insert(id);
        }

        let mut failed = false;
        loop {
            let mut live: Vec<(u32, &mut Shard)> = shards
                .iter_mut()
                .filter(|(_, sh)| !sh.active.is_empty())
                .map(|(sid, sh)| (*sid, sh))
                .collect();
            if live.is_empty() {
                break;
            }
            stats.rounds += 1;
            let remaining = message_budget.saturating_sub(stats.messages);
            let workers = threads.max(1).min(live.len());
            let outputs: Vec<(u32, ShardRound)> = if workers <= 1 {
                live.iter_mut()
                    .map(|(sid, sh)| (*sid, run_shard(sh, remaining)))
                    .collect()
            } else {
                // Contiguous chunks, one worker each; chunk outputs are
                // re-joined in spawn order, so `outputs` stays sorted by
                // shard id whatever the scheduling did.
                let chunk = live.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(workers);
                    for part in live.chunks_mut(chunk) {
                        handles.push(scope.spawn(move || {
                            part.iter_mut()
                                .map(|(sid, sh)| (*sid, run_shard(sh, remaining)))
                                .collect::<Vec<_>>()
                        }));
                    }
                    handles
                        .into_iter()
                        .flat_map(|h| match h.join() {
                            Ok(v) => v,
                            Err(payload) => std::panic::resume_unwind(payload),
                        })
                        .collect()
                })
            };
            // Canonical-order merge: shard ids ascending, each outbox in
            // its shard's deterministic processing order.
            let mut exhausted = false;
            for (_, round) in outputs {
                stats.activations += round.activations;
                stats.messages += round.messages;
                exhausted |= round.stopped;
                for (from, to, msg) in round.outbox {
                    let sid = self.shards.get(&to).copied().unwrap_or(0);
                    let target = shards.entry(sid).or_default();
                    target.inbox.entry(to).or_default().push_back((from, msg));
                    target.active.insert(to);
                }
            }
            if exhausted || stats.messages > message_budget {
                failed = true;
                break;
            }
        }

        // Reassemble; on failure the residual work survives in
        // `active`/inboxes, making the pause resumable.
        for sh in shards.into_values() {
            self.speakers.extend(sh.speakers);
            for (id, q) in sh.inbox {
                if !q.is_empty() {
                    self.inboxes.insert(id, q);
                }
            }
            self.active.extend(sh.active);
        }
        let ids: Vec<SpeakerId> = self.speakers.keys().copied().collect();
        for id in ids {
            self.inboxes.entry(id).or_default();
        }
        if failed {
            Err(ConvergenceError::BudgetExhausted {
                messages: stats.messages,
            })
        } else {
            Ok(stats)
        }
    }

    /// The best route at `speaker` for `prefix`.
    pub fn best_route(&self, speaker: SpeakerId, prefix: &Prefix) -> Option<&Candidate> {
        self.speakers.get(&speaker)?.best(prefix)
    }

    /// Resolves the router-level forwarding path from `from` towards
    /// `prefix`, following each router's Loc-RIB until the route's
    /// originator is reached. Consecutive entries alternate between
    /// intra-AS moves (towards the iBGP next hop) and eBGP hops.
    pub fn forwarding_path(
        &self,
        from: SpeakerId,
        prefix: &Prefix,
    ) -> Result<Vec<SpeakerId>, PathError> {
        let mut path = vec![from];
        let mut cur = from;
        // Bound derived from world diameter by the generator (router-level
        // paths cross each AS at most twice); see `set_hop_limit`.
        for _ in 0..self.hop_limit {
            let speaker = self
                .speakers
                .get(&cur)
                .ok_or(PathError::NoSuchSpeaker(cur))?;
            let best = speaker.best(prefix).ok_or(PathError::NoRoute(cur))?;
            match best.source {
                RouteSource::Local => return Ok(path),
                RouteSource::Ebgp { peer, .. } => {
                    if path.contains(&peer) {
                        return Err(PathError::ForwardingLoop);
                    }
                    path.push(peer);
                    cur = peer;
                }
                RouteSource::Ibgp { .. } => {
                    // Move inside the AS to the egress border router.
                    let nh = best.attrs.next_hop;
                    if nh == cur || path.contains(&nh) {
                        return Err(PathError::ForwardingLoop);
                    }
                    path.push(nh);
                    cur = nh;
                }
            }
        }
        Err(PathError::HopLimitExceeded {
            limit: self.hop_limit,
        })
    }

    /// Convenience for building sessions: standard eBGP both ways with the
    /// given relation as seen from `a` (`b` gets the inverse).
    pub fn connect_ebgp(
        &mut self,
        a: SpeakerId,
        b: SpeakerId,
        a_view: crate::policy::Relation,
        import: crate::policy::Policy,
    ) {
        let a_asn = self.speakers.get(&a).expect("a exists").asn();
        let b_asn = self.speakers.get(&b).expect("b exists").asn();
        self.connect(
            a,
            PeerConfig {
                kind: PeerKind::Ebgp {
                    peer_as: b_asn,
                    relation: a_view,
                },
                import,
            },
            b,
            PeerConfig {
                kind: PeerKind::Ebgp {
                    peer_as: a_asn,
                    relation: a_view.inverse(),
                },
                import,
            },
        );
    }

    /// Convenience: reflector/client iBGP pair (`rr` treats `client` as a
    /// reflection client).
    pub fn connect_rr_client(
        &mut self,
        rr: SpeakerId,
        client: SpeakerId,
        import: crate::policy::Policy,
    ) {
        self.connect(
            rr,
            PeerConfig {
                kind: PeerKind::IbgpClient,
                import,
            },
            client,
            PeerConfig {
                kind: PeerKind::Ibgp,
                import,
            },
        );
    }
}

/// One shard's share of the network during [`BgpNet::run_sharded`]:
/// its speakers, their inboxes, and the activation queue.
#[derive(Debug, Default)]
struct Shard {
    speakers: BTreeMap<SpeakerId, Speaker>,
    inbox: BTreeMap<SpeakerId, VecDeque<(SpeakerId, Message)>>,
    active: BTreeSet<SpeakerId>,
}

/// What one shard did in one round of [`BgpNet::run_sharded`].
#[derive(Debug, Default)]
struct ShardRound {
    activations: u64,
    messages: u64,
    /// The shard stopped on its local budget before reaching local
    /// quiescence; residual work remains queued in the shard.
    stopped: bool,
    /// Cross-shard messages, `(from, to, msg)`, in deterministic
    /// processing order.
    outbox: Vec<(SpeakerId, SpeakerId, Message)>,
}

/// Runs one synchronous sweep over a shard: every speaker active at the
/// round start drains its inbox and processes exactly once, in router-id
/// order. All deliveries — intra-shard and cross-shard alike — take
/// effect at the *next* round, which keeps rounds pure functions of the
/// round-start state and, crucially, bounds BGP path exploration: letting
/// a shard chase full local quiescence over stale cross-shard state
/// amplifies path hunting combinatorially, while the synchronous model
/// converges in O(diameter) rounds like a classic synchronous BGP
/// simulator. Thread scheduling cannot affect any of it.
fn run_shard(sh: &mut Shard, budget: u64) -> ShardRound {
    let mut round = ShardRound::default();
    let sweep = std::mem::take(&mut sh.active);
    let mut sweep = sweep.into_iter();
    for id in sweep.by_ref() {
        round.activations += 1;
        let outgoing = {
            let speaker = sh.speakers.get_mut(&id).expect("active speaker in shard");
            if let Some(inbox) = sh.inbox.get_mut(&id) {
                while let Some((from, msg)) = inbox.pop_front() {
                    speaker.receive(from, msg);
                }
            }
            speaker.process()
        };
        for (to, msg) in outgoing {
            round.messages += 1;
            if sh.speakers.contains_key(&to) {
                sh.inbox.entry(to).or_default().push_back((id, msg));
                sh.active.insert(to);
            } else {
                round.outbox.push((id, to, msg));
            }
        }
        if round.messages > budget {
            round.stopped = true;
            break;
        }
    }
    // On a budget stop the un-swept speakers keep their activation so a
    // resumed run picks them straight back up.
    sh.active.extend(sweep);
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, Relation};
    use crate::route::Asn;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Chain: AS1 (customer) -> AS2 (provider of 1, customer of 3) -> AS3.
    fn chain() -> BgpNet {
        let mut net = BgpNet::new();
        for i in 1..=3 {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(i)));
        }
        net.connect_ebgp(
            SpeakerId(1),
            SpeakerId(2),
            Relation::Provider,
            Policy::GaoRexford,
        );
        net.connect_ebgp(
            SpeakerId(2),
            SpeakerId(3),
            Relation::Provider,
            Policy::GaoRexford,
        );
        net
    }

    #[test]
    fn propagation_along_chain() {
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        let stats = net.run(10_000).unwrap();
        assert!(stats.messages >= 2);
        let best3 = net.best_route(SpeakerId(3), &p("10.1.0.0/16")).unwrap();
        assert_eq!(best3.attrs.as_path, vec![Asn(2), Asn(1)]);
        let path = net
            .forwarding_path(SpeakerId(3), &p("10.1.0.0/16"))
            .unwrap();
        assert_eq!(path, vec![SpeakerId(3), SpeakerId(2), SpeakerId(1)]);
    }

    #[test]
    fn valley_free_blocks_peer_transit() {
        // AS1 -peer- AS2 -peer- AS3: AS3 must NOT learn AS1's prefix via
        // AS2 (peer routes don't go to peers).
        let mut net = BgpNet::new();
        for i in 1..=3 {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(i)));
        }
        net.connect_ebgp(
            SpeakerId(1),
            SpeakerId(2),
            Relation::Peer,
            Policy::GaoRexford,
        );
        net.connect_ebgp(
            SpeakerId(2),
            SpeakerId(3),
            Relation::Peer,
            Policy::GaoRexford,
        );
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        assert!(net.best_route(SpeakerId(2), &p("10.1.0.0/16")).is_some());
        assert!(net.best_route(SpeakerId(3), &p("10.1.0.0/16")).is_none());
    }

    #[test]
    fn prefers_peer_over_provider_path() {
        // AS4 can reach AS1 via provider AS2 or via peer AS3; Gao-Rexford
        // picks the peer.
        let mut net = BgpNet::new();
        for i in 1..=4 {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(i)));
        }
        // AS1 is customer of both 2 and 3.
        net.connect_ebgp(
            SpeakerId(1),
            SpeakerId(2),
            Relation::Provider,
            Policy::GaoRexford,
        );
        net.connect_ebgp(
            SpeakerId(1),
            SpeakerId(3),
            Relation::Provider,
            Policy::GaoRexford,
        );
        // AS4 buys transit from AS2, peers with AS3.
        net.connect_ebgp(
            SpeakerId(4),
            SpeakerId(2),
            Relation::Provider,
            Policy::GaoRexford,
        );
        net.connect_ebgp(
            SpeakerId(4),
            SpeakerId(3),
            Relation::Peer,
            Policy::GaoRexford,
        );
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        let best = net.best_route(SpeakerId(4), &p("10.1.0.0/16")).unwrap();
        assert_eq!(best.attrs.neighbor_as(), Some(Asn(3)));
    }

    #[test]
    fn withdraw_reconverges() {
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        assert!(net.best_route(SpeakerId(3), &p("10.1.0.0/16")).is_some());
        net.speaker_mut(SpeakerId(1))
            .unwrap()
            .withdraw_local(p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        assert!(net.best_route(SpeakerId(3), &p("10.1.0.0/16")).is_none());
        assert!(net.best_route(SpeakerId(2), &p("10.1.0.0/16")).is_none());
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let mut net = chain();
            net.originate(SpeakerId(1), p("10.1.0.0/16"));
            let stats = net.run(10_000).unwrap();
            (
                stats,
                net.best_route(SpeakerId(3), &p("10.1.0.0/16"))
                    .unwrap()
                    .attrs
                    .clone(),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn budget_error() {
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        let err = net.run(1).unwrap_err();
        assert!(matches!(err, ConvergenceError::BudgetExhausted { .. }));
    }

    #[test]
    fn quiescence_tracks_runs() {
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        assert!(!net.is_quiescent(), "pending origination is visible work");
        net.run(10_000).unwrap();
        assert!(net.is_quiescent());
    }

    #[test]
    fn budget_exhaustion_counts_exactly_what_it_enqueued() {
        // Regression: the engine used to count the budget-tripping message
        // without enqueueing it and drop the rest of the batch, so the
        // reported count disagreed with the visible state. Enqueue-then-fail
        // means every counted message is in an inbox when the error returns.
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        let err = net.run(0).unwrap_err();
        let ConvergenceError::BudgetExhausted { messages } = err;
        let queued: u64 = net.inboxes.values().map(|q| q.len() as u64).sum();
        assert_eq!(messages, queued, "every counted message is enqueued");
        assert!(!net.is_quiescent());
    }

    #[test]
    fn budget_exhaustion_is_a_resumable_pause() {
        // Regression: exhaustion used to drop the aborting speaker's
        // remaining batch, leaving peers permanently stale. Now nothing is
        // lost, so a later run with fresh budget finishes the job and the
        // result matches an uninterrupted run.
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        let mut paused = 0;
        let mut resumed_messages = 0;
        loop {
            match net.run(1) {
                Ok(stats) => {
                    resumed_messages += stats.messages;
                    break;
                }
                Err(ConvergenceError::BudgetExhausted { messages }) => {
                    paused += 1;
                    resumed_messages += messages;
                    assert!(paused < 100, "must converge eventually");
                }
            }
        }
        assert!(paused >= 1, "budget 1 must pause at least once");
        assert!(
            net.is_quiescent(),
            "a completed resume is honest quiescence"
        );
        let best3 = net.best_route(SpeakerId(3), &p("10.1.0.0/16")).unwrap();
        assert_eq!(best3.attrs.as_path, vec![Asn(2), Asn(1)]);
        // Pausing preserves the activation queue and inboxes exactly, so
        // the resumed sequence delivers the same messages an uninterrupted
        // run would.
        let mut mono = chain();
        mono.originate(SpeakerId(1), p("10.1.0.0/16"));
        let mono_stats = mono.run(10_000).unwrap();
        assert_eq!(resumed_messages, mono_stats.messages);
    }

    #[test]
    fn reconnect_restores_withdrawn_routes() {
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        let cfg12 = *net
            .speaker(SpeakerId(1))
            .unwrap()
            .peer_config(SpeakerId(2))
            .unwrap();
        let cfg21 = *net
            .speaker(SpeakerId(2))
            .unwrap()
            .peer_config(SpeakerId(1))
            .unwrap();
        net.disconnect(SpeakerId(1), SpeakerId(2));
        net.run(10_000).unwrap();
        assert!(net.best_route(SpeakerId(3), &p("10.1.0.0/16")).is_none());
        net.reconnect(SpeakerId(1), cfg12, SpeakerId(2), cfg21);
        net.run(10_000).unwrap();
        assert!(net.is_quiescent());
        let best3 = net.best_route(SpeakerId(3), &p("10.1.0.0/16")).unwrap();
        assert_eq!(best3.attrs.as_path, vec![Asn(2), Asn(1)]);
    }

    /// A linear eBGP chain of `n` ASes with FlatPreference (Gao-Rexford
    /// would be fine too — every link is customer→provider).
    fn deep_chain(n: u32) -> BgpNet {
        let mut net = BgpNet::new();
        for i in 1..=n {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(i)));
        }
        for i in 1..n {
            net.connect_ebgp(
                SpeakerId(i),
                SpeakerId(i + 1),
                Relation::Provider,
                Policy::GaoRexford,
            );
        }
        net
    }

    #[test]
    fn hop_limit_is_typed_and_configurable() {
        // Regression: deep-but-legal paths used to fall through the
        // hard-coded 64-iteration bound and masquerade as ForwardingLoop.
        let n = 80;
        let mut net = deep_chain(n);
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        net.run(1_000_000).unwrap();
        let err = net
            .forwarding_path(SpeakerId(n), &p("10.1.0.0/16"))
            .unwrap_err();
        assert_eq!(
            err,
            PathError::HopLimitExceeded {
                limit: DEFAULT_HOP_LIMIT
            },
            "a deep legal path is a hop-limit problem, not a loop"
        );
        // Derive the bound from the world's depth and the walk succeeds.
        net.set_hop_limit(2 * n + 2);
        let path = net
            .forwarding_path(SpeakerId(n), &p("10.1.0.0/16"))
            .unwrap();
        assert_eq!(path.len() as u32, n);
        assert_eq!(path[0], SpeakerId(n));
        assert_eq!(*path.last().unwrap(), SpeakerId(1));
    }

    /// Loc-RIB fingerprint of the whole net: every speaker's best routes.
    fn rib_snapshot(net: &BgpNet) -> Vec<(SpeakerId, Vec<(Prefix, String)>)> {
        net.speaker_ids()
            .map(|id| {
                let sp = net.speaker(id).unwrap();
                let routes = sp
                    .loc_rib_prefixes()
                    .map(|pfx| {
                        let best = sp.best(&pfx).unwrap();
                        (pfx, format!("{:?}|{:?}", best.attrs, best.source))
                    })
                    .collect();
                (id, routes)
            })
            .collect()
    }

    /// A two-region world: regions 0 and 1 each hold a provider/customer
    /// pair, the providers peer across regions.
    fn two_region_net() -> BgpNet {
        let mut net = BgpNet::new();
        for i in 1..=4 {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(i)));
        }
        // 1 provider of 2 (region 0), 3 provider of 4 (region 1), 1—3 peer.
        net.connect_ebgp(
            SpeakerId(2),
            SpeakerId(1),
            Relation::Provider,
            Policy::GaoRexford,
        );
        net.connect_ebgp(
            SpeakerId(4),
            SpeakerId(3),
            Relation::Provider,
            Policy::GaoRexford,
        );
        net.connect_ebgp(
            SpeakerId(1),
            SpeakerId(3),
            Relation::Peer,
            Policy::GaoRexford,
        );
        for id in [1, 2] {
            net.set_shard(SpeakerId(id), 0);
        }
        for id in [3, 4] {
            net.set_shard(SpeakerId(id), 1);
        }
        net
    }

    #[test]
    fn sharded_convergence_matches_monolithic() {
        let build = |sharded: Option<usize>| {
            let mut net = two_region_net();
            net.originate(SpeakerId(2), p("10.2.0.0/16"));
            net.originate(SpeakerId(4), p("10.4.0.0/16"));
            match sharded {
                Some(threads) => {
                    net.run_sharded(100_000, threads).unwrap();
                }
                None => {
                    net.run(100_000).unwrap();
                }
            }
            assert!(net.is_quiescent());
            rib_snapshot(&net)
        };
        let mono = build(None);
        for threads in [1, 2, 8] {
            assert_eq!(build(Some(threads)), mono, "threads {threads}");
        }
    }

    #[test]
    fn sharded_delta_reconvergence_after_disconnect() {
        // Sharded runs are delta runs: after an edit only the dirty
        // speakers reactivate, and the result matches a monolithic
        // reconvergence.
        let run_case = |sharded: bool| {
            let mut net = two_region_net();
            net.originate(SpeakerId(2), p("10.2.0.0/16"));
            if sharded {
                net.run_sharded(100_000, 2).unwrap();
            } else {
                net.run(100_000).unwrap();
            }
            assert!(net.best_route(SpeakerId(4), &p("10.2.0.0/16")).is_some());
            net.disconnect(SpeakerId(1), SpeakerId(3));
            let stats = if sharded {
                net.run_sharded(100_000, 2).unwrap()
            } else {
                net.run(100_000).unwrap()
            };
            assert!(net.is_quiescent());
            // Peer link gone: region 1 loses the route entirely.
            assert!(net.best_route(SpeakerId(4), &p("10.2.0.0/16")).is_none());
            (rib_snapshot(&net), stats.activations)
        };
        let (mono_rib, mono_acts) = run_case(false);
        let (sharded_rib, sharded_acts) = run_case(true);
        assert_eq!(sharded_rib, mono_rib);
        // Delta, not full re-run: reconvergence touches a handful of
        // speakers, far fewer than the initial propagation did.
        assert!(mono_acts <= 8, "delta reconvergence stays local");
        assert!(sharded_acts <= 8, "sharded delta reconvergence stays local");
    }

    #[test]
    fn sharded_budget_exhaustion_is_resumable() {
        let mut net = two_region_net();
        net.originate(SpeakerId(2), p("10.2.0.0/16"));
        net.originate(SpeakerId(4), p("10.4.0.0/16"));
        let mut paused = 0;
        loop {
            match net.run_sharded(1, 2) {
                Ok(_) => break,
                Err(ConvergenceError::BudgetExhausted { .. }) => {
                    paused += 1;
                    assert!(paused < 100, "must converge eventually");
                }
            }
        }
        assert!(paused >= 1);
        assert!(net.is_quiescent());
        let mut mono = two_region_net();
        mono.originate(SpeakerId(2), p("10.2.0.0/16"));
        mono.originate(SpeakerId(4), p("10.4.0.0/16"));
        mono.run(100_000).unwrap();
        assert_eq!(rib_snapshot(&net), rib_snapshot(&mono));
    }

    /// Converges by `run_sharded(budget, threads)` calls, each resuming
    /// where the last one paused; returns the messages summed over them.
    fn converge_in_slices(net: &mut BgpNet, budget: u64, threads: usize) -> u64 {
        let mut messages = 0;
        for _ in 0..10_000 {
            match net.run_sharded(budget, threads) {
                Ok(stats) => return messages + stats.messages,
                Err(ConvergenceError::BudgetExhausted { messages: spent }) => messages += spent,
            }
        }
        panic!("budget {budget} never converged");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Wherever the budget runs out — before the first message,
        /// mid-round in one shard, between rounds — the pause loses
        /// nothing: same RIBs and same message total as never pausing.
        #[test]
        fn sharded_pause_resume_equals_an_uninterrupted_run(
            // (originating speaker, which of its prefixes). A prefix has
            // one origin: two peers originating the same one prefer each
            // other's route (peer 110 > own 100), withdraw their own, and
            // flip for ever under synchronous rounds.
            originations in prop::collection::vec((1u32..=4, 0u32..4), 1..10),
            session in 0usize..3,
            // A phase is 1–27 messages: half the budgets pause it, often
            // more than once; the other half mostly let it through.
            budget in prop_oneof![0u64..8, 0u64..200],
            threads in 1usize..=3,
        ) {
            let (a, b) = [(2, 1), (4, 3), (1, 3)][session];
            let (a, b) = (SpeakerId(a), SpeakerId(b));
            let mut paused = two_region_net();
            let mut whole = two_region_net();
            let a_cfg = *whole.speaker(a).unwrap().peer_config(b).unwrap();
            let b_cfg = *whole.speaker(b).unwrap().peer_config(a).unwrap();
            // Three edits, each converged before the next.
            for phase in 0..3 {
                for net in [&mut paused, &mut whole] {
                    match phase {
                        0 => {
                            for &(at, sel) in &originations {
                                net.originate(SpeakerId(at), Prefix::new(0x0a00_0000 + ((4 * at + sel) << 16), 16));
                            }
                        }
                        1 => net.disconnect(a, b),
                        _ => net.reconnect(a, a_cfg, b, b_cfg),
                    }
                }
                let sliced = converge_in_slices(&mut paused, budget, threads);
                let uninterrupted = whole.run_sharded(u64::MAX, 1).unwrap().messages;
                prop_assert_eq!(sliced, uninterrupted, "messages, phase {}", phase);
                prop_assert!(paused.is_quiescent(), "phase {}", phase);
                prop_assert_eq!(rib_snapshot(&paused), rib_snapshot(&whole), "phase {}", phase);
            }
        }
    }

    /// Equal-preference boost for client routes at a reflector — a
    /// stand-in for the geo LOCAL_PREF rewrite when two egresses fall in
    /// the same distance band.
    #[derive(Debug)]
    struct FlatBoost;

    impl crate::speaker::ImportHook for FlatBoost {
        fn on_import(
            &self,
            _from: SpeakerId,
            _prefix: Prefix,
            source: &crate::route::RouteSource,
            attrs: &mut crate::route::RouteAttrs,
        ) {
            if source.is_ibgp() {
                attrs.local_pref = 200;
            }
        }
    }

    /// AS100 with borders 1, 2 and reflectors 3 (near border 1) and
    /// 4 (near border 2); both borders hold an equally-preferred external
    /// route to the same prefix, boosted above the default by the
    /// reflectors' import hook. Reproduces the two-reflector deflection
    /// loop: with a vantage-dependent IGP tie-break each reflector picks
    /// its nearest egress, and each border then prefers the *other*
    /// border's reflected route over its own external one.
    fn two_reflector_net(fixed: bool) -> BgpNet {
        let mut net = BgpNet::new();
        for i in 1..=4 {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(100)));
        }
        net.add_speaker(Speaker::new(SpeakerId(5), Asn(200)));
        net.add_speaker(Speaker::new(SpeakerId(6), Asn(300)));
        net.connect_ebgp(
            SpeakerId(1),
            SpeakerId(5),
            Relation::Provider,
            Policy::FlatPreference,
        );
        net.connect_ebgp(
            SpeakerId(2),
            SpeakerId(6),
            Relation::Provider,
            Policy::FlatPreference,
        );
        for rr in [3, 4] {
            for client in [1, 2] {
                net.connect_rr_client(SpeakerId(rr), SpeakerId(client), Policy::FlatPreference);
            }
        }
        let ibgp = PeerConfig {
            kind: PeerKind::Ibgp,
            import: Policy::FlatPreference,
        };
        net.connect(SpeakerId(3), ibgp, SpeakerId(4), ibgp);
        for (rr, near, far) in [(3, 1, 2), (4, 2, 1)] {
            let sp = net.speaker_mut(SpeakerId(rr)).expect("rr exists");
            sp.set_import_hook(Box::new(FlatBoost));
            sp.set_igp_costs(
                [(SpeakerId(near), 1), (SpeakerId(far), 10)]
                    .into_iter()
                    .collect(),
            );
            sp.set_ignore_igp_metric(fixed);
        }
        for b in [1, 2] {
            net.speaker_mut(SpeakerId(b))
                .expect("border exists")
                .set_best_external(true);
        }
        net.originate(SpeakerId(5), p("10.9.0.0/16"));
        net.originate(SpeakerId(6), p("10.9.0.0/16"));
        net
    }

    #[test]
    fn reflector_igp_tiebreak_creates_deflection_loop() {
        // The pathology, pinned: without `igp-metric ignore` the two
        // reflectors disagree, and the borders deflect to each other —
        // a stable forwarding loop in a fully converged network.
        let mut net = two_reflector_net(false);
        net.run(100_000).unwrap();
        let dst = p("10.9.0.0/16");
        let best1 = net.best_route(SpeakerId(1), &dst).unwrap();
        let best2 = net.best_route(SpeakerId(2), &dst).unwrap();
        assert!(best1.source.is_ibgp());
        assert!(best2.source.is_ibgp());
        assert_eq!(best1.attrs.next_hop, SpeakerId(2));
        assert_eq!(best2.attrs.next_hop, SpeakerId(1));
    }

    #[test]
    fn reflector_igp_metric_ignore_breaks_deflection_loop() {
        // The fix: with the metric ignored, both reflectors resolve the
        // tie identically (lowest sender id — border 1), so border 1
        // keeps its own external route and border 2 deflects to it:
        // consistent egress, no loop.
        let mut net = two_reflector_net(true);
        net.run(100_000).unwrap();
        let dst = p("10.9.0.0/16");
        let best1 = net.best_route(SpeakerId(1), &dst).unwrap();
        let best2 = net.best_route(SpeakerId(2), &dst).unwrap();
        assert!(matches!(
            best1.source,
            crate::route::RouteSource::Ebgp { .. }
        ));
        assert!(best2.source.is_ibgp());
        assert_eq!(best2.attrs.next_hop, SpeakerId(1));
        let path = net.forwarding_path(SpeakerId(2), &dst).unwrap();
        assert_eq!(path, vec![SpeakerId(2), SpeakerId(1), SpeakerId(5)]);
    }

    #[test]
    fn rib_census_counts_entries_and_shared_allocations() {
        // AS200 (speaker 2) announces to border 11; reflector 10 hears it
        // as-is and reflects it to border 12.
        let mut net = BgpNet::new();
        net.add_speaker(Speaker::new(SpeakerId(2), Asn(200)));
        for i in [10, 11, 12] {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(100)));
        }
        net.connect_ebgp(
            SpeakerId(11),
            SpeakerId(2),
            Relation::Provider,
            Policy::FlatPreference,
        );
        net.connect_rr_client(SpeakerId(10), SpeakerId(11), Policy::FlatPreference);
        net.connect_rr_client(SpeakerId(10), SpeakerId(12), Policy::FlatPreference);
        assert_eq!(net.rib_census(), RibCensus::default());
        net.originate(SpeakerId(2), p("10.2.0.0/16"));
        net.run(10_000).unwrap();
        assert_eq!(
            net.rib_census(),
            RibCensus {
                adj_rib_in: 3,  // at 11, 10, 12
                loc_rib: 4,     // everywhere
                adj_rib_out: 3, // 2 -> 11 -> 10 -> 12
                // 2's origination; 11's import copy, which 10 holds too;
                // 10's reflected form at 12.
                attr_sets: 3,
                // The reflected form keeps the imported path's allocation.
                as_paths: 2,
            }
        );
    }

    #[test]
    fn ibgp_full_propagation_with_rr() {
        // AS100: border routers 11, 12, RR 10. External AS200 (speaker 2)
        // announces to router 11; router 12 must learn it via the RR.
        let mut net = BgpNet::new();
        net.add_speaker(Speaker::new(SpeakerId(2), Asn(200)));
        for i in [10, 11, 12] {
            net.add_speaker(Speaker::new(SpeakerId(i), Asn(100)));
        }
        net.connect_ebgp(
            SpeakerId(11),
            SpeakerId(2),
            Relation::Provider,
            Policy::FlatPreference,
        );
        net.connect_rr_client(SpeakerId(10), SpeakerId(11), Policy::FlatPreference);
        net.connect_rr_client(SpeakerId(10), SpeakerId(12), Policy::FlatPreference);
        net.originate(SpeakerId(2), p("10.2.0.0/16"));
        net.run(10_000).unwrap();
        let best12 = net.best_route(SpeakerId(12), &p("10.2.0.0/16")).unwrap();
        assert!(best12.source.is_ibgp());
        assert_eq!(best12.attrs.next_hop, SpeakerId(11));
        // Data plane: 12 -> 11 (intra-AS) -> 2 (eBGP).
        let path = net
            .forwarding_path(SpeakerId(12), &p("10.2.0.0/16"))
            .unwrap();
        assert_eq!(path, vec![SpeakerId(12), SpeakerId(11), SpeakerId(2)]);
    }
}
