//! Call lifecycle: the deterministic arrival/departure event loop.
//!
//! The [`SessionManager`] owns a `vns-netsim` discrete-event engine whose
//! events are call arrivals and scheduled departures. Everything that
//! mutates shared state — admission bookkeeping, the active-session set —
//! happens here, sequentially, in event-time order. The per-call packet
//! work (signalling, media QoS) is pure with respect to this state and
//! runs afterwards on worker threads.

use std::collections::BTreeMap;

use vns_core::PopId;
use vns_netsim::{Engine, SimTime};

use crate::admission::AdmissionController;

/// Events driving the service plane.
#[derive(Debug, Clone, Copy)]
pub enum ServiceEvent {
    /// A new call arrives (caller/callee are drawn when it is handled, from
    /// the call-id-labelled stream, so handling order ≡ event-time order).
    Arrival,
    /// A previously admitted call hangs up.
    Departure {
        /// The call's id.
        id: u64,
        /// The PoP holding its slot.
        pop: PopId,
    },
}

/// One admitted call, as recorded by the bookkeeping pass. Everything a
/// worker thread needs to measure the call is in here (plus the shared
/// read-only environment) — workers never touch mutable service state.
#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    /// Monotone call id; also the RNG stream label.
    pub id: u64,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Scheduled departure instant (arrival + exponential hold).
    pub departure: SimTime,
    /// Caller endpoint index.
    pub caller: usize,
    /// Callee endpoint index.
    pub callee: usize,
    /// Anycast landing PoP.
    pub landing: PopId,
    /// PoP that actually took the call.
    pub admitted: PopId,
    /// Whether admission spilled away from the landing PoP.
    pub spilled: bool,
}

/// What one measured call produced (pure function of the call record and
/// the read-only environment).
#[derive(Debug, Clone, Copy)]
pub struct CallOutcome {
    /// The call's id.
    pub id: u64,
    /// The admitted PoP had no route to the callee.
    pub no_route: bool,
    /// SIP setup completed before timer B.
    pub established: bool,
    /// Setup latency, ms (timer B value when not established).
    pub setup_ms: f64,
    /// `(round-trip loss %, jitter ms)` for QoS-sampled calls.
    pub qos: Option<(f64, f64)>,
    /// BYE confirmation for QoS-sampled calls (`None` when not sampled).
    pub teardown_confirmed: Option<bool>,
}

/// Owns the event engine and the active-session set.
#[derive(Debug, Default)]
pub struct SessionManager {
    /// The arrival/departure event loop. Persistent across windows: time
    /// is monotone over the whole campaign.
    pub(crate) engine: Engine<ServiceEvent>,
    /// Active call id → admitted PoP.
    pub(crate) active: BTreeMap<u64, PopId>,
    /// Next call id.
    pub(crate) next_id: u64,
    /// Sessions force-torn by PoP failures.
    pub(crate) torn_down: u64,
}

impl SessionManager {
    /// A fresh manager at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Sessions force-torn by PoP failures so far.
    pub fn torn_down(&self) -> u64 {
        self.torn_down
    }

    /// Tears down every active session on `pop` (PoP failure): frees the
    /// slots immediately and forgets the sessions, so their scheduled
    /// departure events become no-ops. Returns how many were torn down.
    pub fn force_teardown(&mut self, pop: PopId, admission: &mut AdmissionController) -> u64 {
        let doomed: Vec<u64> = self
            .active
            .iter()
            .filter(|&(_, &p)| p == pop)
            .map(|(&id, _)| id)
            .collect();
        for id in &doomed {
            self.active.remove(id);
            // Only errs on an unknown PoP, which `release`'s debug_assert
            // twin catches in debug builds.
            let _ = admission.release(pop);
        }
        self.torn_down += doomed.len() as u64;
        doomed.len() as u64
    }
}
