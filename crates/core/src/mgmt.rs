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
//! [`Overrides`] is the table [`Vns::assigned_pref`] consults first; the
//! apply-functions here push the change through the control plane (a new
//! import table for the reflectors, route refresh from the clients so the
//! reflectors re-import, then reconvergence).

use std::collections::{BTreeMap, BTreeSet};

use vns_bgp::{Community, ConvergenceError, Prefix};
use vns_topo::Internet;

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
    /// Forces `prefix` to exit at `pop` and reconverges.
    pub fn mgmt_force_exit(
        &mut self,
        internet: &mut Internet,
        prefix: Prefix,
        pop: PopId,
    ) -> Result<(), ConvergenceError> {
        self.overrides.force_exit(prefix, pop);
        self.refresh_and_run(internet)
    }

    /// Exempts `prefix` from geo-routing and reconverges.
    pub fn mgmt_exempt(
        &mut self,
        internet: &mut Internet,
        prefix: Prefix,
    ) -> Result<(), ConvergenceError> {
        self.overrides.exempt(prefix);
        self.refresh_and_run(internet)
    }

    /// Clears overrides on `prefix` and reconverges.
    pub fn mgmt_clear(
        &mut self,
        internet: &mut Internet,
        prefix: Prefix,
    ) -> Result<(), ConvergenceError> {
        self.overrides.clear(&prefix);
        self.refresh_and_run(internet)
    }

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

    /// Statically advertises `more_specific` from PoP `pop`, tagged
    /// `NO_EXPORT` so it never leaks outside VNS (Sec 3.2: remote subnets
    /// of a mostly-regional prefix are steered to their own closest PoP,
    /// "given that it has a route to the less-specific prefix").
    pub fn mgmt_inject_more_specific(
        &self,
        internet: &mut Internet,
        more_specific: Prefix,
        pop: PopId,
    ) -> Result<(), ConvergenceError> {
        for b in self.pop(pop).borders {
            internet
                .net
                .originate_with(b, more_specific, vec![Community::NoExport]);
        }
        self.reconverge(internet).map(|_| ())
    }

    /// Gives the reflectors the import table of the current overrides,
    /// requests route refresh from every border router and reconverges —
    /// how override changes reach the reflectors' imports.
    fn refresh_and_run(&self, internet: &mut Internet) -> Result<(), ConvergenceError> {
        self.push_import_prefs(internet);
        for pop in self.pops() {
            for b in pop.borders {
                internet
                    .net
                    .speaker_mut(b)
                    .expect("VNS border router registered")
                    .request_refresh_all();
            }
        }
        self.reconverge(internet).map(|_| ())
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
