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
//! [`Overrides`] is the table [`Vns::assigned_pref`] consults first: one
//! row per prefix, since a prefix carries at most one directive — an
//! [`Override::Exempt`] or an [`Override::ForceExit`]. Each action is a
//! [`MgmtChange`] applied through [`Vns::apply`], the door faults and
//! attacks take too: `ForceExit` and `Exempt` write the prefix's row,
//! `Clear` removes it; the reflectors then get their new import table and
//! route refresh is requested from every border so they re-import; a
//! more-specific is originated at its PoP's borders; then the world
//! reconverges.

use std::collections::BTreeMap;

use vns_bgp::{Community, Prefix};
use vns_topo::Internet;

use crate::change::{ChangeError, MgmtChange};
use crate::pops::PopId;
use crate::service::Vns;

/// The one directive a prefix carries: the row [`Overrides`] holds for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Override {
    /// Exempt from geo-routing: the reflectors assign the default
    /// preference, i.e. plain BGP.
    Exempt,
    /// Exit at this PoP.
    ForceExit(PopId),
}

/// Live override table: at most one [`Override`] per prefix.
#[derive(Debug, Default, Clone)]
pub struct Overrides {
    rows: BTreeMap<Prefix, Override>,
}

impl Overrides {
    /// The prefix's directive, if it has one.
    pub fn get(&self, prefix: &Prefix) -> Option<Override> {
        self.rows.get(prefix).copied()
    }

    /// Every row in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, Override)> + '_ {
        self.rows.iter().map(|(p, o)| (*p, *o))
    }

    /// True when no overrides are active.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Vns {
    /// Stages a management action for [`Vns::apply`]: an override edits
    /// the table and refreshes the imports ([`Vns::refresh_imports`]); a
    /// more-specific is originated at its PoP's borders, if it has the PoP.
    pub(crate) fn stage_mgmt(
        &mut self,
        internet: &mut Internet,
        action: MgmtChange,
    ) -> Result<(), ChangeError> {
        let rows = &mut self.overrides.rows;
        // Each arm yields the row it replaced.
        match action {
            MgmtChange::ForceExit { prefix, pop } => rows.insert(prefix, Override::ForceExit(pop)),
            MgmtChange::Exempt(prefix) => rows.insert(prefix, Override::Exempt),
            MgmtChange::Clear(prefix) => rows.remove(&prefix),
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
        };
        self.refresh_imports(internet);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_topo::{generate, TopoConfig};

    use crate::{build_vns, VnsConfig};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn force(prefix: Prefix, pop: u8) -> MgmtChange {
        let pop = PopId(pop);
        MgmtChange::ForceExit { prefix, pop }
    }

    #[test]
    fn override_table_semantics() {
        let mut internet = generate(&TopoConfig::tiny(61)).unwrap();
        let mut vns = build_vns(&mut internet, &VnsConfig::default()).unwrap();
        assert!(vns.overrides().is_empty());
        let (a, b, pop) = (p("10.0.0.0/8"), p("11.0.0.0/8"), PopId(5));
        let (exempt, forced) = (Override::Exempt, |pop| Override::ForceExit(PopId(pop)));
        let more_specific = MgmtChange::InjectMoreSpecific {
            prefix: p("11.0.0.0/9"),
            pop,
        };
        // After each change, the whole table: every change writes its
        // prefix's row, the last writer wins, and a more-specific is
        // originated without touching the table.
        let script = [
            (MgmtChange::Exempt(a), vec![(a, exempt)]),
            (force(a, 7), vec![(a, forced(7))]),
            (force(a, 3), vec![(a, forced(3))]),
            (MgmtChange::Exempt(a), vec![(a, exempt)]),
            (force(b, 5), vec![(a, exempt), (b, forced(5))]),
            (MgmtChange::Clear(a), vec![(b, forced(5))]),
            (MgmtChange::Clear(a), vec![(b, forced(5))]),
            (more_specific, vec![(b, forced(5))]),
            (MgmtChange::Clear(b), vec![]),
        ];
        for (change, rows) in script {
            vns.stage_mgmt(&mut internet, change).unwrap();
            assert_eq!(
                vns.overrides().iter().collect::<Vec<_>>(),
                rows,
                "{change:?}"
            );
            for (prefix, row) in rows {
                assert_eq!(vns.overrides().get(&prefix), Some(row));
            }
        }
        assert!(vns.overrides().is_empty() && vns.overrides().get(&a).is_none());
    }
}
