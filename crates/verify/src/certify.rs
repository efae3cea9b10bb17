//! One certified change. A [`Certifier`] owns the [`FaultInjector`], so the
//! scope both stages run under is always the set of routers its faults took
//! down: it applies a [`Change`] through [`Vns::apply`], refuses a torn net
//! as a typed [`CertifyError`], and certifies the result and the rebuilt
//! [`PathTable`].

use std::fmt;

use vns_bgp::ConvergenceStats;
use vns_core::{Change, ChangeError, FaultInjector, LaunchedAttack, Vns};
use vns_service::{EndpointTable, PathTable};
use vns_topo::Internet;

use crate::dataplane::{
    verify_dataplane_scoped, verify_dataplane_with_service, DataplaneConfig, DataplaneReport,
};
use crate::{verify_scoped, Report, VerifyScope};

/// Applies [`Change`]s to a world and certifies each state they leave.
#[derive(Debug, Default)]
pub struct Certifier {
    injector: FaultInjector,
}

/// What one certified change cost and what both stages found after it.
#[derive(Debug)]
pub struct Certified {
    /// The reconvergence the change caused.
    pub stats: ConvergenceStats,
    /// What an attack staged ([`vns_core::Applied::attack`]).
    pub attack: Option<LaunchedAttack>,
    /// Stage 1 on the post-change RIBs, scoped to the routers that are down.
    pub control: Report,
    /// Stage 2 on the post-change forwarding graph, same scope.
    pub dataplane: DataplaneReport,
}

/// Why a change could not be certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyError {
    /// The change did not apply or did not reconverge.
    Change(ChangeError),
    /// The run returned with work still queued: a transient, not a state.
    Torn,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Change(e) => e.fmt(f),
            CertifyError::Torn => f.write_str("left the net torn"),
        }
    }
}

impl std::error::Error for CertifyError {}

impl Certifier {
    /// Applies `change` through [`Vns::apply`] with this certifier's
    /// injector and runs both stages scoped to the routers that are down
    /// afterwards.
    pub fn apply(
        &mut self,
        internet: &mut Internet,
        vns: &mut Vns,
        change: Change,
    ) -> Result<Certified, CertifyError> {
        let applied = vns
            .apply(internet, &mut self.injector, change)
            .map_err(CertifyError::Change)?;
        if !internet.net.is_quiescent() {
            return Err(CertifyError::Torn);
        }
        let (control, dataplane) = self.check(internet, vns);
        Ok(Certified {
            stats: applied.stats,
            attack: applied.attack,
            control,
            dataplane,
        })
    }

    /// Both stages on the current state, scoped to the routers that are
    /// down (none before the first fault). WAYPOINT needs a path table.
    pub fn check(&self, internet: &Internet, vns: &Vns) -> (Report, DataplaneReport) {
        let scope = self.scope();
        let control = verify_scoped(internet, vns, &scope);
        let dataplane = verify_dataplane_scoped(internet, vns, &scope, &DataplaneConfig::default());
        (control, dataplane)
    }

    /// Builds the [`PathTable`] for the current routing epoch and certifies
    /// it with all five data-plane properties, WAYPOINT included.
    pub fn rebuild_paths(
        &self,
        internet: &Internet,
        vns: &Vns,
        endpoints: &EndpointTable,
    ) -> (PathTable, DataplaneReport) {
        let paths = PathTable::build(internet, vns, endpoints);
        let report = verify_dataplane_with_service(
            internet,
            vns,
            &self.scope(),
            &DataplaneConfig::default(),
            endpoints,
            &paths,
        );
        (paths, report)
    }

    /// True when every applied fault has been undone.
    pub fn fully_restored(&self) -> bool {
        self.injector.fully_restored()
    }

    fn scope(&self) -> VerifyScope {
        VerifyScope::with_dead_routers(self.injector.dead_routers())
    }
}
