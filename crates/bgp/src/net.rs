//! The convergence engine: runs a set of speakers to quiescence.
//!
//! An activation queue drives processing: delivering a message marks the
//! receiver active; an active speaker ingests its inbox, reruns the decision
//! process for dirty prefixes, and emits further messages. The queue drains
//! in router-id order, so runs are deterministic.
//!
//! **Addressed by index.** Speaker ids are dense — a generated world's are
//! `SpeakerId(0..n)` — so the network keeps its speakers, their inboxes and
//! their shard assignment in `Vec`s indexed by [`SpeakerId`]. Every message
//! in flight names its prefix by the network's dense prefix id, and the
//! receiver keeps one slot per id (see [`crate::speaker`]), so a delivery is
//! an indexed load and a queue push, and the receiver reaches the prefix's
//! whole state with one more.
//!
//! **One prefix table.** The network names every prefix it has seen in one
//! table, and every speaker holds it (an `Arc`): a speaker's readers —
//! `loc_rib_entries`, `lookup_up_to` — need the table and get only
//! `&Speaker`. Ids are only ever added, so an older version of the table
//! agrees with the current one on every id it names, and a speaker may
//! hold one as long as it names every prefix the speaker holds state for.
//! That lets the table be handed out lazily: to every speaker when a
//! convergence starts (messages carry ids the receiver must know), and to
//! the speaker [`BgpNet::speaker_mut`] lends out. In between,
//! [`BgpNet::originate`] names new prefixes in the network's copy alone —
//! the first new prefix after a hand-out copies the table once, the rest of
//! a burst (a world names all its prefixes in one) grow it in place — and
//! the originating speaker holds its own route by id and keeps the prefix
//! beside it in its list of originations, so no reader needs the name
//! early. A lent speaker may name a prefix itself (its own `receive`,
//! `originate` or `corrupt_replace_route` met one the network has not): it
//! grows a copy of its own, which extends the network's table, and the
//! network adopts that copy at its next call that lends a speaker, names a
//! prefix or converges — so at most one table ever runs ahead of the
//! network's, and ids never fork.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use crate::prefix::Prefix;
use crate::prefix_ids::{Covering, PrefixId, PrefixTable};
pub use crate::route::SpeakerId;
use crate::route::{Asn, Community, RouteAttrs, RouteSource};
use crate::speaker::{ImportPrefs, Message, PeerConfig, PeerKind, Speaker};

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

/// What the decision process and the export walk did, counted where it
/// happens: a host-independent record that two versions of the engine did
/// the same work, whatever each took in time. Exact at any thread count
/// (shards sum theirs in merge order). Kept apart from
/// [`ConvergenceStats`], whose `Debug` form artefacts digest; read it from
/// [`BgpNet::work`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Prefixes reselected: one decision process each.
    pub reselects: u64,
    /// Neighbours the export walk visited: every peer, every reselect.
    pub visits: u64,
    /// Visits that emitted a message.
    pub emitting_visits: u64,
    /// Reselects that emitted nothing.
    pub silent_reselects: u64,
    /// Export forms built: at most three per candidate per reselect.
    pub forms_built: u64,
}

impl std::ops::AddAssign for WorkCounters {
    fn add_assign(&mut self, other: Self) {
        self.reselects += other.reselects;
        self.visits += other.visits;
        self.emitting_visits += other.emitting_visits;
        self.silent_reselects += other.silent_reselects;
        self.forms_built += other.forms_built;
    }
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

/// Messages waiting for one receiver: `(sender, message)` in arrival order.
type Inbox = VecDeque<(SpeakerId, Message<PrefixId>)>;

/// `id` as an index into the per-speaker `Vec`s.
fn index(id: SpeakerId) -> usize {
    id.0 as usize
}

/// A network of speakers plus in-flight messages.
///
/// Speaker ids index `Vec`s here (see the module docs): give speakers dense
/// ids, as `vns-topo`'s `Internet::alloc_speaker_id` does.
#[derive(Debug, Clone)]
pub struct BgpNet {
    /// `speakers[id]`, `None` where no speaker has the id.
    speakers: Vec<Option<Speaker>>,
    /// `inboxes[id]`: messages not yet delivered to speaker `id`.
    inboxes: Vec<Inbox>,
    active: BTreeSet<SpeakerId>,
    /// Convergence shard per speaker id (region index on generated worlds);
    /// ids never assigned fall into shard 0. Only consulted by
    /// [`BgpNet::run_sharded`].
    shards: Vec<u32>,
    /// Every prefix the network has seen (see the module docs).
    prefixes: Arc<PrefixTable>,
    /// The speaker [`BgpNet::speaker_mut`] lent out last, whose table may
    /// run ahead of the network's.
    lent: Option<SpeakerId>,
    /// What every convergence so far did.
    work: WorkCounters,
    /// Hop bound for [`BgpNet::forwarding_path`].
    hop_limit: u32,
}

impl Default for BgpNet {
    fn default() -> Self {
        Self {
            speakers: Vec::new(),
            inboxes: Vec::new(),
            active: BTreeSet::new(),
            shards: Vec::new(),
            prefixes: Arc::default(),
            lent: None,
            work: WorkCounters::default(),
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
        let i = index(id);
        if self.shards.len() <= i {
            self.shards.resize(i + 1, 0);
        }
        self.shards[i] = shard;
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
    /// Panics when the id is already taken, or when the speaker already
    /// names prefixes of its own (it received or originated routes before
    /// joining): a speaker joins empty and sees the network's prefixes.
    pub fn add_speaker(&mut self, speaker: Speaker) {
        let id = speaker.id();
        assert!(
            speaker.prefixes().is_empty(),
            "speaker {id} joins the network naming prefixes of its own"
        );
        let i = index(id);
        if self.speakers.len() <= i {
            self.speakers.resize_with(i + 1, || None);
            self.inboxes.resize_with(i + 1, VecDeque::new);
        }
        assert!(self.speakers[i].is_none(), "duplicate speaker id {id}");
        self.speakers[i] = Some(speaker);
    }

    /// Number of speakers.
    pub fn len(&self) -> usize {
        self.speakers.iter().flatten().count()
    }

    /// True when no speakers exist.
    pub fn is_empty(&self) -> bool {
        self.speakers.iter().all(Option::is_none)
    }

    /// Immutable speaker access.
    pub fn speaker(&self, id: SpeakerId) -> Option<&Speaker> {
        self.speakers.get(index(id))?.as_ref()
    }

    /// Mutable speaker access; marks the speaker active (its state may have
    /// changed).
    pub fn speaker_mut(&mut self, id: SpeakerId) -> Option<&mut Speaker> {
        self.sync_prefixes();
        let speaker = self.speakers.get_mut(index(id))?.as_mut()?;
        // Lent out with the network's table, so a prefix it names itself
        // extends that table.
        speaker.share_prefixes(&self.prefixes);
        self.active.insert(id);
        self.lent = Some(id);
        Some(speaker)
    }

    /// Mutable speaker access for the network's own edits.
    fn get_mut(&mut self, id: SpeakerId) -> Option<&mut Speaker> {
        self.speakers.get_mut(index(id))?.as_mut()
    }

    /// All speaker ids in order.
    pub fn speaker_ids(&self) -> impl Iterator<Item = SpeakerId> + '_ {
        self.speakers.iter().flatten().map(Speaker::id)
    }

    /// What every convergence of this network so far did (see
    /// [`WorkCounters`]).
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// Adopts the table of the speaker lent out last, if it named prefixes
    /// of its own (see the module docs).
    fn sync_prefixes(&mut self) {
        let Some(id) = self.lent.take() else {
            return;
        };
        let Some(ahead) = self.speaker(id).map(|sp| Arc::clone(sp.prefixes())) else {
            return;
        };
        if Arc::ptr_eq(&ahead, &self.prefixes) {
            return;
        }
        debug_assert!(
            ahead.extends(&self.prefixes),
            "{id}'s prefix table forked the network's"
        );
        self.prefixes = ahead;
    }

    /// The newest prefix table: the network's, or the one the speaker lent
    /// out last has grown ahead of it (see the module docs), so a prefix a
    /// lent speaker named after convergence is in it.
    fn newest_prefixes(&self) -> &PrefixTable {
        let lent = self.lent.and_then(|id| self.speaker(id));
        match lent.map(|sp| &**sp.prefixes()) {
            Some(ahead) if ahead.len() > self.prefixes.len() => {
                debug_assert!(ahead.extends(&self.prefixes), "a lent table forked");
                ahead
            }
            _ => &self.prefixes,
        }
    }

    /// Every prefix the network names that contains `ip`, longest first,
    /// with its id — from the newest table. [`Speaker::lookup_in`] over it
    /// is [`Speaker::lookup_up_to`] at every speaker of the network, for
    /// one probe of the table per address instead of one per speaker.
    pub fn covering(&self, ip: u32) -> Covering {
        self.newest_prefixes().covering(ip)
    }

    /// Every prefix the network names, with its id, in id order.
    pub fn prefix_ids(&self) -> impl Iterator<Item = (Prefix, PrefixId)> + '_ {
        let table = self.newest_prefixes();
        (0..table.len()).map(|i| {
            let id = PrefixId::from_index(i);
            (table.prefix(id), id)
        })
    }

    /// The import preferences `pref(prefix, next_hop)` gives every prefix
    /// the network names × every hop in `next_hops`, one row per prefix id
    /// (see [`ImportPrefs`]). A prefix named later has no row.
    pub fn import_prefs(
        &self,
        next_hops: Vec<SpeakerId>,
        pref: impl FnMut(Prefix, SpeakerId) -> Option<u32>,
    ) -> ImportPrefs {
        ImportPrefs::build(self.newest_prefixes(), next_hops, pref)
    }

    /// The network's id for `prefix`, named on first sight. The speakers
    /// keep the version they hold (see the module docs): only the first new
    /// prefix after a hand-out copies the table.
    fn intern(&mut self, prefix: Prefix) -> PrefixId {
        self.sync_prefixes();
        match self.prefixes.id(&prefix) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.prefixes).intern(prefix),
        }
    }

    /// Walks every speaker's RIBs and counts entries per structure and the
    /// distinct attribute-set and AS_PATH allocations they point at — the
    /// sharing the RIB layout achieves, measured rather than inferred from
    /// process RSS. Costs one pointer per entry while it runs.
    pub fn rib_census(&self) -> RibCensus {
        let mut census = RibCensus::default();
        for sp in self.speakers.iter().flatten() {
            census.adj_rib_in += sp.adj_rib_in_entries().count();
            census.loc_rib += sp.loc_rib_entries().count();
            census.adj_rib_out += sp.adj_rib_out_len();
        }
        let mut sets: Vec<&RouteAttrs> = Vec::with_capacity(census.adj_rib_in + census.loc_rib);
        for sp in self.speakers.iter().flatten() {
            let learned = sp.adj_rib_in_entries().map(|(.., c)| c);
            let selected = sp.loc_rib_entries().map(|(.., c)| c);
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
        self.get_mut(a)
            .expect("speaker a exists")
            .add_peer(b, a_cfg);
        self.get_mut(b)
            .expect("speaker b exists")
            .add_peer(a, b_cfg);
    }

    /// Tears down the session between `a` and `b` (both directions),
    /// discarding any in-flight messages on it. Both speakers reconverge
    /// on the next [`BgpNet::run`]. Models a link/router failure between
    /// them.
    pub fn disconnect(&mut self, a: SpeakerId, b: SpeakerId) {
        for (me, other) in [(a, b), (b, a)] {
            if let Some(sp) = self.get_mut(me) {
                sp.remove_peer(other);
                self.active.insert(me);
            }
        }
        for (me, other) in [(a, b), (b, a)] {
            if let Some(inbox) = self.inboxes.get_mut(index(me)) {
                inbox.retain(|(from, _)| *from != other);
            }
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
            let sp = self.get_mut(id).expect("speaker exists");
            sp.schedule_initial_advertisement();
            self.active.insert(id);
        }
    }

    /// Originates a prefix at a speaker and schedules propagation.
    pub fn originate(&mut self, at: SpeakerId, prefix: Prefix) {
        self.originate_with(at, prefix, Vec::new());
    }

    /// Originates a prefix at a speaker with communities (e.g. `NO_EXPORT`
    /// for the management interface's injected more-specifics) and
    /// schedules propagation.
    ///
    /// # Panics
    /// Panics when the speaker is missing.
    pub fn originate_with(&mut self, at: SpeakerId, prefix: Prefix, communities: Vec<Community>) {
        let id = self.intern(prefix);
        self.get_mut(at)
            .expect("speaker exists")
            .originate_id(prefix, id, communities);
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
            && self.inboxes.iter().all(VecDeque::is_empty)
            && self
                .speakers
                .iter()
                .flatten()
                .all(|s| !s.has_pending_work())
    }

    /// Readies a convergence: adopts a lent speaker's prefixes, hands the
    /// table to every speaker (messages name prefixes by id), fits every
    /// speaker's slots to it (so delivery never grows them) and activates
    /// every speaker with pending work — the local state changes a run
    /// starts from.
    fn prepare(&mut self) {
        self.sync_prefixes();
        for sp in self.speakers.iter_mut().flatten() {
            sp.share_prefixes(&self.prefixes);
            sp.fit_slots();
            if sp.has_pending_work() {
                self.active.insert(sp.id());
            }
        }
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
        self.prepare();
        let mut stats = ConvergenceStats::default();
        let mut out = Vec::new();
        while let Some(id) = self.active.pop_first() {
            stats.activations += 1;
            let i = index(id);
            let speaker = self.speakers[i].as_mut().expect("active speaker exists");
            // Drained by value: the inbox gives its buffer back.
            for (from, msg) in std::mem::take(&mut self.inboxes[i]) {
                speaker.deliver(from, msg);
            }
            speaker.process_into(&mut out, &mut self.work);
            for (to, msg) in out.drain(..) {
                stats.messages += 1;
                self.inboxes
                    .get_mut(index(to))
                    .expect("messages go to speakers of this network")
                    .push_back((id, msg));
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

    /// Runs to quiescence with per-shard parallelism. Speakers are grouped
    /// by their [`BgpNet::set_shard`] assignment, and each round sweeps, on
    /// parallel workers, every live shard once: each speaker active at the
    /// round start drains its inbox and processes exactly once, in
    /// router-id order within its shard (see `run_shard`). A message to a
    /// speaker of the same shard is delivered at once — a receiver later in
    /// the sweep drains it in the same round — while a message to another
    /// shard is held and merged between rounds, in canonical shard order.
    ///
    /// The thread count only affects wall-clock, never results: a shard's
    /// round reads only its own state and what was merged into it before
    /// the round, and the merge order is fixed — the same
    /// label-derived-stream discipline the campaign engine uses. The shard
    /// *assignment* does affect results, through that intra-shard delivery:
    /// a 1→2→3 provider chain originating at 1 and 2 converges in 2 rounds
    /// (5 activations) as one shard and in 3 rounds (6 activations) as
    /// three, sending the same 4 messages either way.
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
        self.prepare();
        let mut stats = ConvergenceStats::default();
        // Partition every speaker, inbox and activation by shard: shards
        // ascend by shard id, a shard's speakers by speaker id, and
        // `place[id]` is `(shard, index within it)`.
        let shard_of = |i: usize| self.shards.get(i).copied().unwrap_or(0);
        let mut shard_ids: Vec<u32> = (0..self.speakers.len())
            .filter(|&i| self.speakers[i].is_some())
            .map(shard_of)
            .collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        let mut shards: Vec<Shard> = shard_ids.iter().map(|_| Shard::default()).collect();
        let mut place = vec![None; self.speakers.len()];
        for (i, entry) in self.speakers.iter_mut().enumerate() {
            let Some(sp) = entry.take() else {
                continue;
            };
            let shard_id = self.shards.get(i).copied().unwrap_or(0);
            let s = shard_ids
                .binary_search(&shard_id)
                .expect("every speaker's shard is listed");
            let sh = &mut shards[s];
            place[i] = Some((s, sh.speakers.len()));
            sh.speakers.push(sp);
            sh.inboxes.push(std::mem::take(&mut self.inboxes[i]));
            sh.queued.push(false);
        }
        for id in std::mem::take(&mut self.active) {
            let (s, k) = placed(&place, id);
            shards[s].activate(k);
        }

        let mut failed = false;
        loop {
            let mut live: Vec<(usize, &mut Shard)> = shards
                .iter_mut()
                .enumerate()
                .filter(|(_, sh)| !sh.active.is_empty())
                .collect();
            if live.is_empty() {
                break;
            }
            stats.rounds += 1;
            let remaining = message_budget.saturating_sub(stats.messages);
            let workers = threads.max(1).min(live.len());
            let place = &place;
            let outputs: Vec<ShardRound> = if workers <= 1 {
                live.iter_mut()
                    .map(|(s, sh)| run_shard(sh, *s, place, remaining))
                    .collect()
            } else {
                // Contiguous chunks, one worker each; chunk outputs are
                // re-joined in spawn order, so `outputs` stays in shard
                // order whatever the scheduling did.
                let chunk = live.len().div_ceil(workers);
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(workers);
                    for part in live.chunks_mut(chunk) {
                        handles.push(scope.spawn(move || {
                            part.iter_mut()
                                .map(|(s, sh)| run_shard(sh, *s, place, remaining))
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
            // Canonical-order merge: shards ascending, each outbox in its
            // shard's deterministic processing order.
            let mut exhausted = false;
            for round in outputs {
                stats.activations += round.activations;
                stats.messages += round.messages;
                self.work += round.work;
                exhausted |= round.stopped;
                for (from, to, msg) in round.outbox {
                    let (s, k) = placed(place, to);
                    shards[s].inboxes[k].push_back((from, msg));
                    shards[s].activate(k);
                }
            }
            if exhausted || stats.messages > message_budget {
                failed = true;
                break;
            }
        }

        // Reassemble; on failure the residual work survives in
        // `active`/inboxes, making the pause resumable.
        for sh in shards {
            self.active
                .extend(sh.active.iter().map(|&k| sh.speakers[k].id()));
            for (sp, inbox) in sh.speakers.into_iter().zip(sh.inboxes) {
                let i = index(sp.id());
                self.inboxes[i] = inbox;
                self.speakers[i] = Some(sp);
            }
        }
        if failed {
            Err(ConvergenceError::BudgetExhausted {
                messages: stats.messages,
            })
        } else {
            Ok(stats)
        }
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
            let speaker = self.speaker(cur).ok_or(PathError::NoSuchSpeaker(cur))?;
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
        let a_asn = self.speaker(a).expect("a exists").asn();
        let b_asn = self.speaker(b).expect("b exists").asn();
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

/// One shard's share of the network during [`BgpNet::run_sharded`]: its
/// speakers, their inboxes, and its activations.
#[derive(Debug, Default)]
struct Shard {
    /// The shard's speakers, ascending by id.
    speakers: Vec<Speaker>,
    /// `inboxes[k]`: messages not yet delivered to `speakers[k]`.
    inboxes: Vec<Inbox>,
    /// The speakers (by index) to sweep next round, in activation order;
    /// `queued[k]` says whether `k` is among them.
    active: Vec<usize>,
    queued: Vec<bool>,
}

impl Shard {
    /// Schedules `speakers[k]` for the next sweep.
    fn activate(&mut self, k: usize) {
        if !self.queued[k] {
            self.queued[k] = true;
            self.active.push(k);
        }
    }
}

/// What one shard did in one round of [`BgpNet::run_sharded`].
#[derive(Debug, Default)]
struct ShardRound {
    activations: u64,
    messages: u64,
    work: WorkCounters,
    /// The shard stopped on its local budget before reaching local
    /// quiescence; residual work remains queued in the shard.
    stopped: bool,
    /// Cross-shard messages, `(from, to, msg)`, in deterministic
    /// processing order.
    outbox: Vec<(SpeakerId, SpeakerId, Message<PrefixId>)>,
}

/// Where [`BgpNet::run_sharded`] put speaker `id`: `(shard, index within
/// it)`.
fn placed(place: &[Option<(usize, usize)>], id: SpeakerId) -> (usize, usize) {
    place
        .get(index(id))
        .copied()
        .flatten()
        .expect("messages go to speakers of this network")
}

/// Runs one sweep over shard `me`: every speaker active at the round start
/// drains its inbox and processes exactly once, in router-id order.
///
/// A message to a speaker of this shard is delivered at once and activates
/// the receiver for the next round; a receiver later in this sweep drains
/// it in this round too. A message to another shard waits in the outbox
/// for the merge between rounds. So a cross-shard delivery always takes
/// effect at the next round, an intra-shard one as soon as the sweep
/// reaches its receiver — which is why one shard converges the 1→2→3
/// chain a round sooner than three (see [`BgpNet::run_sharded`]). Bounding
/// a round to one sweep is what matters: letting a shard chase full local
/// quiescence over stale cross-shard state amplifies path hunting
/// combinatorially, while one sweep per round converges in O(diameter)
/// rounds like a classic synchronous BGP simulator. Thread scheduling
/// cannot affect any of it.
fn run_shard(
    sh: &mut Shard,
    me: usize,
    place: &[Option<(usize, usize)>],
    budget: u64,
) -> ShardRound {
    let mut round = ShardRound::default();
    let mut sweep = std::mem::take(&mut sh.active);
    sweep.sort_unstable();
    for &k in &sweep {
        sh.queued[k] = false;
    }
    let mut out = Vec::new();
    let mut swept = 0;
    for &k in &sweep {
        swept += 1;
        round.activations += 1;
        let speaker = &mut sh.speakers[k];
        // Drained by value: the inbox gives its buffer back.
        for (from, msg) in std::mem::take(&mut sh.inboxes[k]) {
            speaker.deliver(from, msg);
        }
        speaker.process_into(&mut out, &mut round.work);
        let id = speaker.id();
        for (to, msg) in out.drain(..) {
            round.messages += 1;
            match placed(place, to) {
                (s, j) if s == me => {
                    sh.inboxes[j].push_back((id, msg));
                    sh.activate(j);
                }
                _ => round.outbox.push((id, to, msg)),
            }
        }
        if round.messages > budget {
            round.stopped = true;
            break;
        }
    }
    // On a budget stop the un-swept speakers keep their activation so a
    // resumed run picks them straight back up.
    for &k in &sweep[swept..] {
        sh.activate(k);
    }
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
        let best3 = net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .unwrap();
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
        assert!(net
            .speaker(SpeakerId(2))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .is_some());
        assert!(net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .is_none());
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
        let best = net
            .speaker(SpeakerId(4))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .unwrap();
        assert_eq!(best.attrs.neighbor_as(), Some(Asn(3)));
    }

    #[test]
    fn withdraw_reconverges() {
        let mut net = chain();
        net.originate(SpeakerId(1), p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        assert!(net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .is_some());
        net.speaker_mut(SpeakerId(1))
            .unwrap()
            .withdraw_local(p("10.1.0.0/16"));
        net.run(10_000).unwrap();
        assert!(net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .is_none());
        assert!(net
            .speaker(SpeakerId(2))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .is_none());
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let mut net = chain();
            net.originate(SpeakerId(1), p("10.1.0.0/16"));
            let stats = net.run(10_000).unwrap();
            (
                stats,
                net.speaker(SpeakerId(3))
                    .and_then(|s| s.best(&p("10.1.0.0/16")))
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
        let queued: u64 = net.inboxes.iter().map(|q| q.len() as u64).sum();
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
        let best3 = net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .unwrap();
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
        assert!(net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .is_none());
        net.reconnect(SpeakerId(1), cfg12, SpeakerId(2), cfg21);
        net.run(10_000).unwrap();
        assert!(net.is_quiescent());
        let best3 = net
            .speaker(SpeakerId(3))
            .and_then(|s| s.best(&p("10.1.0.0/16")))
            .unwrap();
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
    fn intra_shard_delivery_lands_in_the_same_sweep() {
        // The chain 1 → 2 → 3 originating at 1 and 2. As one shard, round 1
        // sweeps 1 then 2, and 2 drains 1's update before its own turn, so
        // it tells 3 about both prefixes at once; as three shards, 1's
        // update reaches 2 only at the merge, and 2 tells 3 about it a
        // round later. Same messages, same RIBs, one more round.
        let converge = |shards: [u32; 3]| {
            let mut net = chain();
            for (i, shard) in (1..=3).zip(shards) {
                net.set_shard(SpeakerId(i), shard);
            }
            net.originate(SpeakerId(1), p("10.1.0.0/16"));
            net.originate(SpeakerId(2), p("10.2.0.0/16"));
            let stats = net.run_sharded(10_000, 1).unwrap();
            (stats, rib_snapshot(&net))
        };
        let (one, one_rib) = converge([0, 0, 0]);
        let (three, three_rib) = converge([1, 2, 3]);
        let stats = |activations, rounds| ConvergenceStats {
            activations,
            messages: 4,
            rounds,
        };
        assert_eq!(one, stats(5, 2));
        assert_eq!(three, stats(6, 3));
        assert_eq!(one_rib, three_rib);
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
            assert!(net
                .speaker(SpeakerId(4))
                .and_then(|s| s.best(&p("10.2.0.0/16")))
                .is_some());
            net.disconnect(SpeakerId(1), SpeakerId(3));
            let stats = if sharded {
                net.run_sharded(100_000, 2).unwrap()
            } else {
                net.run(100_000).unwrap()
            };
            assert!(net.is_quiescent());
            // Peer link gone: region 1 loses the route entirely.
            assert!(net
                .speaker(SpeakerId(4))
                .and_then(|s| s.best(&p("10.2.0.0/16")))
                .is_none());
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

    /// AS100 with borders 1, 2 and reflectors 3 (near border 1) and
    /// 4 (near border 2); both borders hold an equally-preferred external
    /// route to the same prefix, boosted above the default by the
    /// reflectors' import preferences — a flat 200 via either border,
    /// standing in for the geo LOCAL_PREF when two egresses fall in the
    /// same distance band. Reproduces the two-reflector deflection
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
        net.originate(SpeakerId(5), p("10.9.0.0/16"));
        net.originate(SpeakerId(6), p("10.9.0.0/16"));
        let flat_boost =
            Arc::new(net.import_prefs(vec![SpeakerId(1), SpeakerId(2)], |_, _| Some(200)));
        for (rr, near, far) in [(3, 1, 2), (4, 2, 1)] {
            let sp = net.speaker_mut(SpeakerId(rr)).expect("rr exists");
            sp.set_import_prefs(Arc::clone(&flat_boost));
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
        let best1 = net
            .speaker(SpeakerId(1))
            .and_then(|s| s.best(&dst))
            .unwrap();
        let best2 = net
            .speaker(SpeakerId(2))
            .and_then(|s| s.best(&dst))
            .unwrap();
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
        let best1 = net
            .speaker(SpeakerId(1))
            .and_then(|s| s.best(&dst))
            .unwrap();
        let best2 = net
            .speaker(SpeakerId(2))
            .and_then(|s| s.best(&dst))
            .unwrap();
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
        let best12 = net
            .speaker(SpeakerId(12))
            .and_then(|s| s.best(&p("10.2.0.0/16")))
            .unwrap();
        assert!(best12.source.is_ibgp());
        assert_eq!(best12.attrs.next_hop, SpeakerId(11));
        // Data plane: 12 -> 11 (intra-AS) -> 2 (eBGP).
        let path = net
            .forwarding_path(SpeakerId(12), &p("10.2.0.0/16"))
            .unwrap();
        assert_eq!(path, vec![SpeakerId(12), SpeakerId(11), SpeakerId(2)]);
    }
}
