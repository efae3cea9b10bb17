//! One door for every change to a deployed world.
//!
//! A fault, an operator's management override (Sec 3.2, "Overriding
//! Geo-routing") and a scripted attack all act on the same live
//! reflectors, borders and sessions. A [`Change`] names any of them, and
//! [`Vns::apply`] stages it and reconverges: the one place a deployed
//! world reconverges, so every change's cost is counted the same way and
//! `vns_verify::Certifier::apply` can certify what any change leaves.

use std::fmt;

use vns_bgp::{ConvergenceError, ConvergenceStats, Prefix};
use vns_topo::Internet;

use crate::adversary::{self, AttackKind, LaunchedAttack};
use crate::fault::{FaultError, FaultEvent, FaultInjector};
use crate::pops::PopId;
use crate::service::Vns;

/// One change to a deployed world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// A control-plane incident or its repair, through a [`FaultInjector`].
    Fault(FaultEvent),
    /// An operator action through the management interface.
    Mgmt(MgmtChange),
    /// A scripted attack from the corpus.
    Attack {
        /// Which attack.
        kind: AttackKind,
        /// Drives any poisoning randomness.
        seed: u64,
    },
}

/// An action of the management interface ([`crate::mgmt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgmtChange {
    /// Force `prefix` to exit at `pop`.
    ForceExit {
        /// The steered prefix.
        prefix: Prefix,
        /// Its exit PoP.
        pop: PopId,
    },
    /// Exempt a prefix from geo-routing.
    Exempt(Prefix),
    /// Clear any override on a prefix.
    Clear(Prefix),
    /// Statically advertise the more-specific `prefix` from PoP `pop`,
    /// tagged `NO_EXPORT` so it steers a remote subnet without leaking.
    InjectMoreSpecific {
        /// The advertised more-specific.
        prefix: Prefix,
        /// The PoP whose borders originate it.
        pop: PopId,
    },
}

/// What an applied change cost.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Reconvergence work over every run the change took: one, plus one
    /// per follow-on fault event of an attack.
    pub stats: ConvergenceStats,
    /// What a [`Change::Attack`] staged.
    pub attack: Option<LaunchedAttack>,
}

/// Why a change did not apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeError {
    /// The injector refused a fault event.
    Fault(FaultError),
    /// The world lacks what the change acts on (attack target, PoP).
    NoTarget(&'static str),
    /// The message budget ran out before quiescence.
    Convergence(ConvergenceError),
}

impl fmt::Display for ChangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeError::Fault(e) => write!(f, "fault refused: {e}"),
            ChangeError::NoTarget(what) => write!(f, "no target: {what}"),
            ChangeError::Convergence(e) => write!(f, "does not reconverge: {e}"),
        }
    }
}

impl std::error::Error for ChangeError {}

impl Vns {
    /// Stages `change` and reconverges within [`Vns::message_budget`]. An
    /// attack's follow-on fault events (the flap storm's cut/restore steps)
    /// then go through `injector` one at a time, each followed by its own
    /// reconvergence. A more-specific at a PoP the deployment lacks is
    /// refused before anything is staged.
    pub fn apply(
        &mut self,
        internet: &mut Internet,
        injector: &mut FaultInjector,
        change: Change,
    ) -> Result<Applied, ChangeError> {
        let (attack, follow_on) = match change {
            Change::Fault(event) => {
                injector
                    .apply(internet, self, event)
                    .map_err(ChangeError::Fault)?;
                (None, Vec::new())
            }
            Change::Mgmt(action) => {
                self.stage_mgmt(internet, action)?;
                (None, Vec::new())
            }
            Change::Attack { kind, seed } => {
                let (launched, steps) = adversary::stage(kind, internet, self, seed)?;
                (Some(launched), steps)
            }
        };
        let mut stats = self
            .reconverge(internet)
            .map_err(ChangeError::Convergence)?;
        for event in follow_on {
            injector
                .apply(internet, self, event)
                .map_err(ChangeError::Fault)?;
            let step = self
                .reconverge(internet)
                .map_err(ChangeError::Convergence)?;
            stats.activations += step.activations;
            stats.messages += step.messages;
        }
        Ok(Applied { stats, attack })
    }
}
