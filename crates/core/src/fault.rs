//! Scripted control-plane fault injection and restoration.
//!
//! The VNS exists to keep calls alive when the Internet misbehaves: meshed
//! regional clusters, redundant long-haul circuits, paired route
//! reflectors, and best-external on border routers are all resilience
//! mechanisms (PAPER.md §2–3). This module provides the vocabulary for
//! exercising them: a [`FaultEvent`] names one control-plane incident, a
//! [`FaultPlan`] scripts a sequence of them, and a [`FaultInjector`]
//! applies events to a converged world while remembering enough state
//! (session configs, circuit costs) to undo each one exactly.
//!
//! The injector only mutates control-plane state — BGP sessions and IGP
//! link weights. It never deletes speakers: a "dead" router is one whose
//! BGP sessions are all torn down (control-plane crash), which is both the
//! common real-world failure and the one the paper's mechanisms defend
//! against. An event is a [`crate::Change::Fault`]: [`Vns::apply`] runs it
//! through an injector and reconverges, the incremental reconvergence the
//! failover campaign measures.

use std::collections::{BTreeMap, BTreeSet};

use vns_bgp::{PeerConfig, SpeakerId};
use vns_topo::Internet;

use crate::service::Vns;

/// One scripted control-plane incident (or its repair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Tear down the BGP session between two speakers (eBGP or iBGP).
    SessionCut {
        /// One endpoint.
        a: SpeakerId,
        /// The other endpoint.
        b: SpeakerId,
    },
    /// Re-establish a session previously cut through the same injector.
    /// While either endpoint is down the session stays severed and comes
    /// back with that router's [`FaultEvent::RouterUp`].
    SessionRestore {
        /// One endpoint.
        a: SpeakerId,
        /// The other endpoint.
        b: SpeakerId,
    },
    /// Control-plane loss of a router: every BGP session it holds is cut.
    /// The router itself (and its IGP adjacencies) stays up — this models
    /// a BGP daemon crash / maintenance drain, not a line-card fire.
    RouterDown {
        /// The failing router.
        router: SpeakerId,
    },
    /// Restore every session of `router` that [`FaultEvent::RouterDown`]
    /// took with it. A session somebody cut on purpose
    /// ([`FaultEvent::SessionCut`]) stays cut until its own
    /// [`FaultEvent::SessionRestore`].
    RouterUp {
        /// The recovering router.
        router: SpeakerId,
    },
    /// Cut the dedicated L2 circuit between two VNS routers: the IGP link
    /// disappears and every VNS router's IGP cost table is recomputed.
    /// BGP sessions are untouched (they ride the remaining mesh).
    CircuitCut {
        /// One endpoint.
        a: SpeakerId,
        /// The other endpoint.
        b: SpeakerId,
    },
    /// Restore a circuit previously cut through the same injector, at its
    /// original cost.
    CircuitRestore {
        /// One endpoint.
        a: SpeakerId,
        /// The other endpoint.
        b: SpeakerId,
    },
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::SessionCut { a, b } => write!(f, "cut-session {a}~{b}"),
            FaultEvent::SessionRestore { a, b } => write!(f, "restore-session {a}~{b}"),
            FaultEvent::RouterDown { router } => write!(f, "router-down {router}"),
            FaultEvent::RouterUp { router } => write!(f, "router-up {router}"),
            FaultEvent::CircuitCut { a, b } => write!(f, "cut-circuit {a}={b}"),
            FaultEvent::CircuitRestore { a, b } => write!(f, "restore-circuit {a}={b}"),
        }
    }
}

/// A named, ordered script of fault events. Each step is applied and
/// measured individually by the failover driver.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Stable scenario label (also the RNG stream / display key).
    pub name: String,
    /// Events in application order.
    pub steps: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from explicit steps.
    pub fn new(name: impl Into<String>, steps: Vec<FaultEvent>) -> Self {
        FaultPlan {
            name: name.into(),
            steps,
        }
    }

    /// Cut + restore of one session, repeated `cycles` times — a flapping
    /// eBGP session (each half-cycle is a measured step).
    pub fn session_flap(
        name: impl Into<String>,
        a: SpeakerId,
        b: SpeakerId,
        cycles: usize,
    ) -> Self {
        let mut steps = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            steps.push(FaultEvent::SessionCut { a, b });
            steps.push(FaultEvent::SessionRestore { a, b });
        }
        FaultPlan::new(name, steps)
    }

    /// Router loss followed by recovery (two measured steps).
    pub fn router_blip(name: impl Into<String>, router: SpeakerId) -> Self {
        FaultPlan::new(
            name,
            vec![
                FaultEvent::RouterDown { router },
                FaultEvent::RouterUp { router },
            ],
        )
    }

    /// Circuit cut followed by repair (two measured steps).
    pub fn circuit_blip(name: impl Into<String>, a: SpeakerId, b: SpeakerId) -> Self {
        FaultPlan::new(
            name,
            vec![
                FaultEvent::CircuitCut { a, b },
                FaultEvent::CircuitRestore { a, b },
            ],
        )
    }
}

/// Error from [`FaultInjector::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// The named session does not exist (cut) or was never severed by this
    /// injector (restore).
    UnknownSession(SpeakerId, SpeakerId),
    /// The router does not exist in the network.
    UnknownRouter(SpeakerId),
    /// The named IGP circuit does not exist (cut) or was never cut by this
    /// injector (restore), or the VNS has no IGP installed.
    UnknownCircuit(SpeakerId, SpeakerId),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownSession(a, b) => write!(f, "no such session {a}~{b}"),
            FaultError::UnknownRouter(r) => write!(f, "no such router {r}"),
            FaultError::UnknownCircuit(a, b) => write!(f, "no such circuit {a}={b}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// Canonical (low, high) session key so `a~b` and `b~a` are one session.
fn session_key(a: SpeakerId, b: SpeakerId) -> (SpeakerId, SpeakerId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Applies [`FaultEvent`]s to a world and remembers how to undo them.
///
/// Severed sessions keep both endpoints' [`PeerConfig`]s so a restore
/// re-establishes the session exactly as built; cut circuits keep their
/// IGP cost. The injector also tracks which routers are currently down so
/// verification can be scoped to the degraded topology
/// (see `vns_verify::Certifier`).
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    /// Severed sessions: canonical key → (config at key.0 for key.1,
    /// config at key.1 for key.0).
    severed: BTreeMap<(SpeakerId, SpeakerId), (PeerConfig, PeerConfig)>,
    /// The severed sessions a [`FaultEvent::SessionCut`] asked for and no
    /// [`FaultEvent::SessionRestore`] has released: a subset of `severed`'s
    /// keys that [`FaultEvent::RouterUp`] must leave alone.
    cut_on_purpose: BTreeSet<(SpeakerId, SpeakerId)>,
    /// Routers currently down (all sessions cut via [`FaultEvent::RouterDown`]).
    down: BTreeSet<SpeakerId>,
    /// Cut circuits: canonical key → original IGP cost.
    cut_circuits: BTreeMap<(SpeakerId, SpeakerId), u64>,
}

impl FaultInjector {
    /// A fresh injector with nothing severed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routers currently down, in id order. Feed this to
    /// `vns_verify::VerifyScope` when auditing a degraded control plane.
    pub fn dead_routers(&self) -> impl Iterator<Item = SpeakerId> + '_ {
        self.down.iter().copied()
    }

    /// True when every injected fault has been restored.
    pub fn fully_restored(&self) -> bool {
        self.severed.is_empty() && self.down.is_empty() && self.cut_circuits.is_empty()
    }

    /// Applies one event to the world, queued until [`Vns::reconverge`]
    /// runs; [`Vns::apply`] does both, and `vns_verify::Certifier::apply`
    /// certifies the result.
    pub fn apply(
        &mut self,
        internet: &mut Internet,
        vns: &Vns,
        event: FaultEvent,
    ) -> Result<(), FaultError> {
        match event {
            FaultEvent::SessionCut { a, b } => {
                self.cut_session(internet, a, b)?;
                self.cut_on_purpose.insert(session_key(a, b));
                Ok(())
            }
            FaultEvent::SessionRestore { a, b } => {
                let key = session_key(a, b);
                if !self.severed.contains_key(&key) {
                    return Err(FaultError::UnknownSession(a, b));
                }
                self.cut_on_purpose.remove(&key);
                // A down router holds no sessions: its `RouterUp` brings
                // this one back with the rest.
                if self.down.contains(&a) || self.down.contains(&b) {
                    return Ok(());
                }
                self.restore_session(internet, a, b)
            }
            FaultEvent::RouterDown { router } => self.router_down(internet, router),
            FaultEvent::RouterUp { router } => self.router_up(internet, router),
            FaultEvent::CircuitCut { a, b } => self.circuit_cut(internet, vns, a, b),
            FaultEvent::CircuitRestore { a, b } => self.circuit_restore(internet, vns, a, b),
        }
    }

    fn cut_session(
        &mut self,
        internet: &mut Internet,
        a: SpeakerId,
        b: SpeakerId,
    ) -> Result<(), FaultError> {
        let key = session_key(a, b);
        let cfg_lo = internet
            .net
            .speaker(key.0)
            .and_then(|s| s.peer_config(key.1).copied())
            .ok_or(FaultError::UnknownSession(a, b))?;
        let cfg_hi = internet
            .net
            .speaker(key.1)
            .and_then(|s| s.peer_config(key.0).copied())
            .ok_or(FaultError::UnknownSession(a, b))?;
        self.severed.insert(key, (cfg_lo, cfg_hi));
        internet.net.disconnect(key.0, key.1);
        Ok(())
    }

    fn restore_session(
        &mut self,
        internet: &mut Internet,
        a: SpeakerId,
        b: SpeakerId,
    ) -> Result<(), FaultError> {
        let key = session_key(a, b);
        let (cfg_lo, cfg_hi) = self
            .severed
            .remove(&key)
            .ok_or(FaultError::UnknownSession(a, b))?;
        internet.net.reconnect(key.0, cfg_lo, key.1, cfg_hi);
        Ok(())
    }

    fn router_down(
        &mut self,
        internet: &mut Internet,
        router: SpeakerId,
    ) -> Result<(), FaultError> {
        let peers: Vec<SpeakerId> = internet
            .net
            .speaker(router)
            .ok_or(FaultError::UnknownRouter(router))?
            .peer_ids()
            .collect();
        for peer in peers {
            self.cut_session(internet, router, peer)?;
        }
        self.down.insert(router);
        Ok(())
    }

    fn router_up(&mut self, internet: &mut Internet, router: SpeakerId) -> Result<(), FaultError> {
        if !self.down.remove(&router) {
            return Err(FaultError::UnknownRouter(router));
        }
        let sessions: Vec<(SpeakerId, SpeakerId)> = self
            .severed
            .keys()
            .copied()
            .filter(|&(x, y)| x == router || y == router)
            .filter(|key| !self.cut_on_purpose.contains(key))
            .collect();
        for (x, y) in sessions {
            // Sessions to a peer that is itself still down stay severed
            // until that peer recovers.
            let other = if x == router { y } else { x };
            if self.down.contains(&other) {
                continue;
            }
            self.restore_session(internet, x, y)?;
        }
        Ok(())
    }

    fn circuit_cut(
        &mut self,
        internet: &mut Internet,
        vns: &Vns,
        a: SpeakerId,
        b: SpeakerId,
    ) -> Result<(), FaultError> {
        let key = session_key(a, b);
        let mut igp = internet
            .as_info(vns.as_id())
            .igp
            .clone()
            .ok_or(FaultError::UnknownCircuit(a, b))?;
        let cost = igp
            .remove_link(key.0, key.1)
            .ok_or(FaultError::UnknownCircuit(a, b))?;
        self.cut_circuits.insert(key, cost);
        internet.set_igp(vns.as_id(), igp);
        Ok(())
    }

    fn circuit_restore(
        &mut self,
        internet: &mut Internet,
        vns: &Vns,
        a: SpeakerId,
        b: SpeakerId,
    ) -> Result<(), FaultError> {
        let key = session_key(a, b);
        let cost = self
            .cut_circuits
            .remove(&key)
            .ok_or(FaultError::UnknownCircuit(a, b))?;
        let mut igp = internet
            .as_info(vns.as_id())
            .igp
            .clone()
            .ok_or(FaultError::UnknownCircuit(a, b))?;
        igp.add_link(key.0, key.1, cost);
        internet.set_igp(vns.as_id(), igp);
        Ok(())
    }
}
