//! The management interface (Sec 3.2, "Overriding Geo-routing").
//!
//! Two failure modes make pure geo-routing pick wrong exits: routing
//! policy can make the geographically closest PoP not the delay-closest,
//! and a prefix's subnets can be geographically spread. The paper's
//! management interface "communicates with the Quagga-RR and border
//! routers" to (a) force a different exit PoP, (b) exempt a prefix from
//! geo-routing entirely, and (c) statically advertise remote more-specific
//! subnets from their closest PoP, tagged `NO_EXPORT`.
//!
//! [`Overrides`] is the table [`Vns::assigned_pref`] consults first. Each
//! action is a [`MgmtChange`] applied through [`Vns::apply`], the door
//! faults and attacks take too: an override edits the table, gives the
//! reflectors its new import table and requests route refresh from every
//! border so they re-import; a more-specific is originated at its PoP's
//! borders; then the world reconverges.

use std::collections::{BTreeMap, BTreeSet};

use vns_bgp::{Community, Prefix};
use vns_topo::Internet;

use crate::change::{ChangeError, MgmtChange};
use crate::pops::PopId;
use crate::service::Vns;

/// Live override table.
#[derive(Debug, Default, Clone)]
pub struct Overrides {
    exempt: BTreeSet<Prefix>,
    forced: BTreeMap<Prefix, PopId>,
}

impl Overrides {
    /// Marks a prefix exempt from geo-routing.
    pub fn exempt(&mut self, prefix: Prefix) {
        self.exempt.insert(prefix);
        self.forced.remove(&prefix);
    }

    /// Forces a prefix's exit PoP.
    pub fn force_exit(&mut self, prefix: Prefix, pop: PopId) {
        self.forced.insert(prefix, pop);
        self.exempt.remove(&prefix);
    }

    /// Clears any override on a prefix.
    pub fn clear(&mut self, prefix: &Prefix) {
        self.exempt.remove(prefix);
        self.forced.remove(prefix);
    }

    /// Whether the prefix is exempt.
    pub fn is_exempt(&self, prefix: &Prefix) -> bool {
        self.exempt.contains(prefix)
    }

    /// The forced exit PoP, if any.
    pub fn forced_exit(&self, prefix: &Prefix) -> Option<PopId> {
        self.forced.get(prefix).copied()
    }

    /// Number of active overrides.
    pub fn len(&self) -> usize {
        self.exempt.len() + self.forced.len()
    }

    /// True when no overrides are active.
    pub fn is_empty(&self) -> bool {
        self.exempt.is_empty() && self.forced.is_empty()
    }

    /// Exempted prefixes in address order (for auditing — `vns-verify`'s
    /// override-sanity check walks the whole table).
    pub fn exempt_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.exempt.iter().copied()
    }

    /// Forced exits as `(prefix, pop)` in address order.
    pub fn forced_exits(&self) -> impl Iterator<Item = (Prefix, PopId)> + '_ {
        self.forced.iter().map(|(p, pop)| (*p, *pop))
    }
}

impl Vns {
    /// Fault injection for verifier tests: puts `prefix` in *both* the
    /// exempt set and the forced map of the override table, violating the
    /// mutual exclusion that [`Overrides::exempt`]/[`Overrides::force_exit`]
    /// maintain, and pushes nothing. Exists so tests can prove `vns-verify`
    /// catches a corrupted table; never call it from operational code.
    #[doc(hidden)]
    pub fn inject_inconsistent_override_for_test(&mut self, prefix: Prefix, pop: PopId) {
        self.overrides.exempt.insert(prefix);
        self.overrides.forced.insert(prefix, pop);
    }

    /// Stages a management action for [`Vns::apply`]: an override edits
    /// the table and refreshes the imports ([`Vns::refresh_imports`]); a
    /// more-specific is originated at its PoP's borders, if it has the PoP.
    pub(crate) fn stage_mgmt(
        &mut self,
        internet: &mut Internet,
        action: MgmtChange,
    ) -> Result<(), ChangeError> {
        match action {
            MgmtChange::ForceExit { prefix, pop } => self.overrides.force_exit(prefix, pop),
            MgmtChange::Exempt(prefix) => self.overrides.exempt(prefix),
            MgmtChange::Clear(prefix) => self.overrides.clear(&prefix),
            MgmtChange::InjectMoreSpecific { prefix, pop } => {
                let pop = self
                    .pops()
                    .iter()
                    .find(|p| p.id() == pop)
                    .ok_or(ChangeError::NoTarget("no such PoP for the more-specific"))?;
                for b in pop.borders {
                    internet
                        .net
                        .originate_with(b, prefix, vec![Community::NoExport]);
                }
                return Ok(());
            }
        }
        self.refresh_imports(internet);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn override_table_semantics() {
        let mut o = Overrides::default();
        assert!(o.is_empty());
        o.exempt(p("10.0.0.0/8"));
        assert!(o.is_exempt(&p("10.0.0.0/8")));
        assert_eq!(o.len(), 1);
        // Forcing replaces exemption.
        o.force_exit(p("10.0.0.0/8"), PopId(7));
        assert!(!o.is_exempt(&p("10.0.0.0/8")));
        assert_eq!(o.forced_exit(&p("10.0.0.0/8")), Some(PopId(7)));
        // Exempting replaces forcing.
        o.exempt(p("10.0.0.0/8"));
        assert_eq!(o.forced_exit(&p("10.0.0.0/8")), None);
        o.clear(&p("10.0.0.0/8"));
        assert!(o.is_empty());
    }
}
