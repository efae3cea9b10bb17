//! `service-churn` — the service plane does the work: event-loop
//! bookkeeping, admission, per-call channels, signaling, sketches.
//!
//! `vns-bench steady-state` driven window by window: steady churn, the
//! busiest PoP's border fails (reconverge, scoped verification, table
//! rebuild and certification, sessions torn down), churn continues, the
//! border recovers, the fleet refills. Packets per second sit two orders
//! of magnitude below `media-long-flows` because per-call cost, not
//! per-packet cost, rules — this is the probe for the ROADMAP's
//! steady-state-on-the-fast-path item.

use std::fmt::Write as _;
use std::time::Instant;

use vns_bench::experiments::steady_state::SteadyStateOpts;
use vns_bench::World;
use vns_core::{FaultEvent, FaultInjector, PopId};
use vns_netsim::diurnal::DiurnalShape;
use vns_netsim::{DiurnalProfile, Dur, RngTree};
use vns_service::{
    EndpointTable, Orchestrator, PathTable, ServiceConfig, ServiceEnv, ServiceTelemetry,
};
use vns_verify::{verify_dataplane_with_service, DataplaneConfig, VerifyScope};

use crate::digest::Digest;
use crate::fixture::{verify_scoped, world_config, Fixture};
use crate::span::{SpanId, Tracer};
use crate::workloads::{ms_since, par, Ctx, Rep, Workload};

/// `steady_state`'s telemetry window and phase lengths (private there).
const WINDOW: Dur = Dur::from_mins(5);
const FAULT_WINDOWS: u64 = 2;
const RECOVERY_WINDOWS: u64 = 2;

/// What one pass of the campaign produced — the fields of
/// `steady_state::SteadyStateResult`, plus host time per window.
#[derive(Debug)]
pub struct Churn {
    /// Windowed telemetry across all three phases.
    pub telemetry: ServiceTelemetry,
    /// Sustained concurrency over the steady phase.
    pub steady_sustained: u64,
    /// Sessions force-torn when the PoP failed.
    pub torn_down: u64,
    /// BGP messages delivered during fail + recovery reconvergence.
    pub reconvergence_messages: u64,
    /// Error findings of both scoped stages and both table certifications,
    /// over the failed and the recovered epoch.
    pub findings: u64,
    /// The part of `findings` raised after the border recovered. A degraded
    /// overlay may legitimately exceed a verifier bound; a repaired one
    /// must be clean.
    pub findings_after_repair: u64,
    /// Endpoints with an anycast landing during the fault epoch / total.
    pub routable_during_fault: (usize, usize),
    /// Host milliseconds per telemetry window.
    pub window_ms: Vec<f64>,
    /// A scripted event failed to apply or the net did not reconverge.
    pub broken: bool,
}

/// `steady_state::run` on an already built and pre-flighted world, one
/// `Orchestrator::run_windows(env, 1, par())` per telemetry window. `paths`
/// is the baseline table on entry and is rebuilt for the recovered epoch
/// on exit, so back-to-back passes start from the same state.
pub fn run_churn(
    world: &mut World,
    endpoints: &EndpointTable,
    paths: &mut PathTable,
    opts: SteadyStateOpts,
    tr: &Tracer,
    parent: SpanId,
) -> Churn {
    let horizon_ms = WINDOW.as_millis_f64() * opts.windows as f64;
    let hold = Dur::from_millis_f64(horizon_ms / 3.3);
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.55, 0.35, 0.0);
    let mut cfg = ServiceConfig::sized(opts.target_concurrent, hold, WINDOW, profile);
    cfg.warmup_windows = (opts.windows * 3 / 5) as usize;
    cfg.setup_stride = 4;
    cfg.qos_stride = 64;
    let tree = RngTree::new(world.config.seed).subtree("steady-state");
    let mut orch = Orchestrator::new(&world.vns, cfg, tree);
    let mut window_ms = Vec::new();
    let phase = |orch: &mut Orchestrator,
                 world: &World,
                 paths: &PathTable,
                 windows: u64,
                 name: &'static str,
                 window_ms: &mut Vec<f64>| {
        let env = ServiceEnv {
            internet: &world.internet,
            vns: &world.vns,
            factory: &world.factory,
            endpoints,
            paths,
        };
        for _ in 0..windows {
            let t0 = Instant::now();
            let span = tr.span(name, parent);
            orch.run_windows(&env, 1, par());
            let arrivals = orch.telemetry().windows.last().map_or(0, |w| w.arrivals);
            tr.set_work(span.end(), arrivals);
            window_ms.push(ms_since(t0));
        }
    };
    // One routing change: apply, reconverge, both scoped stages, rebuild
    // the table for the new epoch and certify it (WAYPOINT cross-check).
    // Returns (BGP messages, error findings, whether anything broke).
    let change = |world: &mut World, paths: &mut PathTable, inj: &mut FaultInjector, event| {
        let applied = tr.within("core.fault_apply", parent, |_| {
            inj.apply(&mut world.internet, &world.vns, event)
        });
        let budget = world.vns.message_budget();
        let stats = tr.within("bgp.reconverge", parent, |_| world.internet.net.run(budget));
        let broken = applied.is_err() || stats.is_err() || !world.internet.net.is_quiescent();
        let scope = VerifyScope::with_dead_routers(inj.dead_routers());
        let mut findings = verify_scoped(world, &scope, tr, parent);
        *paths = tr.within("service.path_table_build", parent, |_| {
            PathTable::build(&world.internet, &world.vns, endpoints)
        });
        findings += tr.within("verify.dataplane_service", parent, |_| {
            verify_dataplane_with_service(
                &world.internet,
                &world.vns,
                &scope,
                &DataplaneConfig::default(),
                endpoints,
                paths,
            )
            .error_count() as u64
        });
        (stats.map_or(0, |s| s.messages), findings, broken)
    };

    phase(
        &mut orch,
        world,
        paths,
        opts.windows,
        "service.window.steady",
        &mut window_ms,
    );
    let steady_sustained = orch.telemetry().sustained_concurrent();

    let victim = busiest_pop(&orch);
    let border = world.vns.pop(victim).borders[0];
    let mut inj = FaultInjector::new();
    let down = change(
        world,
        paths,
        &mut inj,
        FaultEvent::RouterDown { router: border },
    );
    let failed = tr.within("service.fail_pop", parent, |_| orch.fail_pop(victim));
    let routable_during_fault = (paths.routable_endpoints(), endpoints.len());
    phase(
        &mut orch,
        world,
        paths,
        FAULT_WINDOWS,
        "service.window.fault",
        &mut window_ms,
    );

    let up = change(
        world,
        paths,
        &mut inj,
        FaultEvent::RouterUp { router: border },
    );
    let pop_failed = failed.is_ok();
    let (prev_cap, torn_down) = failed.unwrap_or((0, 0));
    let restored = orch.restore_pop(victim, prev_cap);
    phase(
        &mut orch,
        world,
        paths,
        RECOVERY_WINDOWS,
        "service.window.recovered",
        &mut window_ms,
    );
    let broken = down.2 || up.2 || !pop_failed || restored.is_err();

    Churn {
        telemetry: orch.into_telemetry(),
        steady_sustained,
        torn_down,
        reconvergence_messages: down.0 + up.0,
        findings: down.1 + up.1,
        findings_after_repair: up.1,
        routable_during_fault,
        window_ms,
        broken,
    }
}

/// The PoP with the highest occupancy (lowest id on ties), as
/// `steady_state` picks its victim.
fn busiest_pop(orch: &Orchestrator) -> PopId {
    orch.admission()
        .occupancy_rows()
        .iter()
        .copied()
        .max_by_key(|&(p, occ, _)| (occ, std::cmp::Reverse(p)))
        .map_or(PopId(0), |(p, _, _)| p)
}

/// The workload state: a pre-flighted world and its service tables.
#[derive(Debug)]
pub struct ServiceChurn {
    fixture: Fixture,
    endpoints: EndpointTable,
    paths: PathTable,
}

impl Workload for ServiceChurn {
    const NAME: &'static str = "service-churn";
    const WHY: &'static str = "the service plane (event loop, admission, per-call channels, signaling, sketches) under churn through a PoP failure; per-call cost rules, not per-packet";
    const OP: &'static str = "one 5-minute telemetry window";
    const FLOW_SPAN: Option<&'static str> = None;

    fn setup(ctx: &Ctx<'_>, parent: SpanId) -> Result<Self, String> {
        let tr = ctx.tr;
        let fixture = Fixture::build(world_config(ctx.seed, ctx.sizes.scale), tr, parent)?;
        let world = &fixture.world;
        let endpoints = tr.within("service.endpoint_table_build", parent, |_| {
            EndpointTable::build(&world.internet, &world.vns)
        });
        let paths = tr.within("service.path_table_build", parent, |_| {
            PathTable::build(&world.internet, &world.vns, &endpoints)
        });
        Ok(ServiceChurn {
            fixture,
            endpoints,
            paths,
        })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, parent: SpanId) -> Rep {
        let opts = SteadyStateOpts::from_cli(ctx.sizes.service_sessions, ctx.sizes.service_days);
        let churn = run_churn(
            &mut self.fixture.world,
            &self.endpoints,
            &mut self.paths,
            opts,
            ctx.tr,
            parent,
        );
        let t = &churn.telemetry;
        let mut digest = Digest::new();
        let _ = writeln!(
            digest,
            "{t}\nsustained {} torn {} reconvergence {} findings {} routable {:?}",
            churn.steady_sustained,
            churn.torn_down,
            churn.reconvergence_messages,
            churn.findings,
            churn.routable_during_fault,
        );
        let sum = |f: fn(&vns_service::WindowReport) -> u64| t.windows.iter().map(f).sum::<u64>();
        let mut rep = Rep {
            digest: digest.value(),
            counts: vec![
                ("service.arrivals", t.total_arrivals()),
                ("service.admitted", sum(|w| w.admitted)),
                (
                    "service.measured_calls",
                    sum(|w| w.setup.count() + w.no_route),
                ),
                ("service.rejected", t.total_rejected()),
                ("service.spilled", t.total_spilled()),
                ("service.unreachable", t.total_unreachable()),
                ("service.sustained_concurrent", churn.steady_sustained),
                ("bgp.conv_msgs", churn.reconvergence_messages),
                ("verify.findings", churn.findings),
            ],
            ops_ms: churn.window_ms,
            ..Rep::default()
        };
        rep.check(!churn.broken);
        rep.check(churn.findings_after_repair == 0);
        rep.check(self.fixture.findings == 0);
        rep
    }

    fn world(&self) -> &World {
        &self.fixture.world
    }
}
