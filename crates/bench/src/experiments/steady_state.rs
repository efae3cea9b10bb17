//! Steady-state — live call churn over the service plane, with a
//! churn-under-failure phase.
//!
//! The figure campaigns measure individual probes and sessions; this
//! campaign asks the operator's question: with calls arriving in a
//! Poisson stream shaped by the diurnal demand curve, holding for
//! exponential times and hanging up, does the PoP fleet actually sustain
//! the target concurrency — and what do the loss/jitter/setup-latency
//! *percentiles* look like window over window?
//!
//! Three phases, one continuous simulated clock:
//!
//! 1. **Steady churn** — the system ramps from empty to Little's-law
//!    equilibrium (`concurrency = rate × hold`) and holds it. The
//!    sustained-concurrency figure is the post-warmup minimum of
//!    end-of-window concurrency over this phase.
//! 2. **Churn under failure** — the busiest PoP's transit border loses its
//!    BGP control plane ([`FaultEvent::RouterDown`]); BGP reconverges
//!    incrementally; both scoped verifier stages re-run (control-plane
//!    invariants and the data-plane model checker); the path table is
//!    rebuilt for the new routing epoch and re-certified against the
//!    forwarding graph; every live session on the PoP is
//!    torn down and its admission capacity drops to zero. Churn continues:
//!    landing traffic spills to the nearest PoPs or is rejected.
//! 3. **Recovery** — the router comes back, routing reconverges again, the
//!    path table is rebuilt once more, capacity is restored, and the fleet
//!    refills.
//!
//! All bookkeeping runs on the deterministic event loop; per-call
//! measurement fans out over `--threads N` workers with call-id-derived
//! RNG streams, so the artefact is byte-identical at any thread count.

use std::fmt;

use vns_core::{Change, FaultEvent, PopId};
use vns_netsim::diurnal::DiurnalShape;
use vns_netsim::{DiurnalProfile, Dur, Par, RngTree};
use vns_service::{
    EndpointTable, Orchestrator, PathTable, ServiceConfig, ServiceEnv, ServiceTelemetry,
};
use vns_verify::Certifier;

use crate::campaign::assert_certified;
use crate::world::{World, WorldConfig};

/// Telemetry window width.
const WINDOW: Dur = Dur::from_mins(5);

/// Windows run with the PoP failed, then again after recovery.
const FAULT_WINDOWS: u64 = 2;
const RECOVERY_WINDOWS: u64 = 2;

/// Campaign sizing, derived from the CLI's `--sessions`/`--days` knobs.
#[derive(Debug, Clone, Copy)]
pub struct SteadyStateOpts {
    /// Concurrent sessions the plane is sized to sustain (Little's law
    /// pegs the diurnal-trough arrival rate to this).
    pub target_concurrent: u64,
    /// Steady-phase windows (5 minutes each).
    pub windows: u64,
}

impl SteadyStateOpts {
    /// Maps the CLI knobs: `--sessions 40` (default) targets 128 000
    /// concurrent sessions; `--days` scales the steady horizon (2.0 days →
    /// ten 5-minute windows, floor six).
    pub fn from_cli(sessions: usize, days: f64) -> Self {
        Self {
            target_concurrent: (sessions as u64) * 3200,
            windows: ((days * 5.0).round() as u64).max(6),
        }
    }
}

/// The full campaign artefact.
#[derive(Debug)]
pub struct SteadyStateResult {
    /// Windowed telemetry across all three phases.
    pub telemetry: ServiceTelemetry,
    /// Steady-phase windows (phase boundaries for the artefact).
    pub steady_windows: u64,
    /// Sustained concurrency over the steady phase (post-warmup minimum) —
    /// the headline number.
    pub steady_sustained: u64,
    /// Concurrency target the plane was sized for.
    pub target_concurrent: u64,
    /// Code of the PoP failed in phase 2.
    pub victim: &'static str,
    /// Sessions force-torn when the PoP failed.
    pub torn_down: u64,
    /// BGP messages delivered during fail + recovery reconvergence.
    pub reconvergence_messages: u64,
    /// Scoped-verify errors after each routing change (must be zero).
    pub verify_errors: usize,
    /// Scoped data-plane model-checker errors after each routing change,
    /// including the WAYPOINT cross-check of every rebuilt path table
    /// (must be zero).
    pub dataplane_errors: usize,
    /// Endpoints with an anycast landing during the fault epoch / total.
    pub routable_during_fault: (usize, usize),
}

impl SteadyStateResult {
    /// Whether every routing epoch passed the scoped invariant suite and
    /// the scoped data-plane model checker.
    pub fn all_verified(&self) -> bool {
        self.verify_errors == 0 && self.dataplane_errors == 0
    }

    /// Rejection + unreachable rate during the fault windows, percent.
    pub fn fault_denied_pct(&self) -> f64 {
        let fault = self
            .telemetry
            .windows
            .iter()
            .skip(self.steady_windows as usize)
            .take(FAULT_WINDOWS as usize);
        let (mut denied, mut arrivals) = (0u64, 0u64);
        for w in fault {
            denied += w.rejected + w.unreachable;
            arrivals += w.arrivals;
        }
        if arrivals == 0 {
            0.0
        } else {
            100.0 * denied as f64 / arrivals as f64
        }
    }
}

impl fmt::Display for SteadyStateResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# steady-state: live call churn (target {} concurrent; phases: \
             {} steady + {FAULT_WINDOWS} failed[{}] + {RECOVERY_WINDOWS} recovered)",
            self.target_concurrent, self.steady_windows, self.victim
        )?;
        write!(f, "{}", self.telemetry)?;
        writeln!(
            f,
            "steady phase: sustained {} concurrent (target {}; {})",
            self.steady_sustained,
            self.target_concurrent,
            if self.steady_sustained >= self.target_concurrent * 4 / 5 {
                "OK"
            } else {
                "UNDER TARGET"
            }
        )?;
        writeln!(
            f,
            "failure phase: {} down, {} sessions torn, {}/{} endpoints routable, \
             {:.2}% of arrivals denied, {} BGP messages to reconverge, \
             verify errors {}, dataplane errors {}",
            self.victim,
            self.torn_down,
            self.routable_during_fault.0,
            self.routable_during_fault.1,
            self.fault_denied_pct(),
            self.reconvergence_messages,
            self.verify_errors,
            self.dataplane_errors,
        )
    }
}

/// The campaign on a world built from `config` alone, the form
/// `benchmark/`'s equivalence test compares its service driver against.
pub fn run(config: &WorldConfig, opts: SteadyStateOpts, par: Par) -> SteadyStateResult {
    run_on(&World::build(config.clone()), opts, par)
}

/// Runs the steady-state campaign on a fork of `world` (left as it is),
/// because the failure phase mutates the control plane.
pub fn run_on(world: &World, opts: SteadyStateOpts, par: Par) -> SteadyStateResult {
    let mut world = world.fork();
    assert_certified(&world);
    let endpoints = EndpointTable::build(&world.internet, &world.vns);
    let mut paths = PathTable::build(&world.internet, &world.vns, &endpoints);
    let total_endpoints = endpoints.len();

    // Demand follows a mixed business/residential day; the horizon and the
    // mean hold are tied (horizon ≈ 3.3 holds) so the ramp-up fits in the
    // warmup windows at any --days.
    let horizon_ms = WINDOW.as_millis_f64() * opts.windows as f64;
    let hold = Dur::from_millis_f64(horizon_ms / 3.3);
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.55, 0.35, 0.0);
    let mut cfg = ServiceConfig::sized(opts.target_concurrent, hold, WINDOW, profile);
    cfg.warmup_windows = (opts.windows * 3 / 5) as usize;
    // Measure every 4th call's setup (the stride divides qos_stride, so
    // QoS sampling is unaffected): at 6×10⁵ arrivals the percentiles are
    // indistinguishable and the campaign stays inside the perf budget.
    cfg.setup_stride = 4;
    cfg.qos_stride = 64;
    let tree = RngTree::new(world.config.seed).subtree("steady-state");
    let mut orch = Orchestrator::new(&world.vns, cfg, tree);

    // Phase 1: steady churn.
    run_phase(&mut orch, &world, &endpoints, &paths, opts.windows, par);
    let steady_sustained = orch.telemetry().sustained_concurrent();

    // Phase 2: fail the busiest PoP — service plane and control plane.
    let victim_id = busiest_pop(&orch);
    let victim = world.vns.pop(victim_id).code();
    let border = world.vns.pop(victim_id).borders[0];
    let mut certifier = Certifier::default();
    let mut verify_errors = 0;
    let mut dataplane_errors = 0;
    let mut messages = 0;
    // One certified routing change, then the path table rebuilt for the
    // new epoch and re-certified against the forwarding graph.
    let mut change = |world: &mut World, event| {
        let certified = certifier
            .apply(&mut world.internet, &mut world.vns, Change::Fault(event))
            .unwrap_or_else(|e| panic!("steady-state: {event}: {e}"));
        let (paths, report) = certifier.rebuild_paths(&world.internet, &world.vns, &endpoints);
        messages += certified.stats.messages;
        verify_errors += certified.control.error_count();
        dataplane_errors += certified.dataplane.error_count() + report.error_count();
        paths
    };
    paths = change(&mut world, FaultEvent::RouterDown { router: border });
    let (prev_cap, torn_down) = orch.fail_pop(victim_id).expect("victim is a known PoP");
    let routable_during_fault = (paths.routable_endpoints(), total_endpoints);
    run_phase(&mut orch, &world, &endpoints, &paths, FAULT_WINDOWS, par);

    // Phase 3: recovery.
    paths = change(&mut world, FaultEvent::RouterUp { router: border });
    orch.restore_pop(victim_id, prev_cap)
        .expect("victim is a known PoP");
    run_phase(&mut orch, &world, &endpoints, &paths, RECOVERY_WINDOWS, par);

    let steady_windows = opts.windows;
    let target_concurrent = opts.target_concurrent;
    SteadyStateResult {
        telemetry: orch.into_telemetry(),
        steady_windows,
        steady_sustained,
        target_concurrent,
        victim,
        torn_down,
        reconvergence_messages: messages,
        verify_errors,
        dataplane_errors,
        routable_during_fault,
    }
}

fn run_phase(
    orch: &mut Orchestrator,
    world: &World,
    endpoints: &EndpointTable,
    paths: &PathTable,
    windows: u64,
    par: Par,
) {
    let env = ServiceEnv {
        internet: &world.internet,
        vns: &world.vns,
        factory: &world.factory,
        endpoints,
        paths,
    };
    orch.run_windows(&env, windows, par);
}

/// The PoP with the highest occupancy (lowest id on ties).
fn busiest_pop(orch: &Orchestrator) -> PopId {
    orch.admission()
        .occupancy_rows()
        .iter()
        .copied()
        .max_by_key(|&(p, occ, _)| (occ, std::cmp::Reverse(p)))
        .map(|(p, _, _)| p)
        .expect("pops exist")
}
