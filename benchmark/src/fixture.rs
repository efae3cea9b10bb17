//! The world every workload sets up, built through the crates' public
//! pieces with a span around each layer call.
//!
//! This is `vns_bench::World::build` plus the two pre-flight audits
//! `vns-bench` campaigns run (`assert_control_plane`, `assert_data_plane`),
//! decomposed so `topo.generate`, `core.build_vns` and each verifier stage
//! are separate spans, and returning findings instead of panicking.

use vns_bench::{World, WorldConfig};
use vns_core::{build_vns, VnsConfig};
use vns_netsim::RngTree;
use vns_topo::{generate, CalibrationConfig, ChannelFactory};
use vns_verify::{DataplaneConfig, DataplaneReport, VerifyScope};

use crate::span::{SpanId, Tracer};
use crate::workloads::THREADS;

/// The verifier's data-plane stages: its own stage label, the span
/// recorded for it, and the per-layer metric that reports it.
pub const DATAPLANE_STAGES: [(&str, &str, &str); 6] = [
    (
        "graph",
        "verify.dataplane_stage.graph",
        "verify.dataplane_stage_s.graph",
    ),
    (
        "loop-free",
        "verify.dataplane_stage.loop-free",
        "verify.dataplane_stage_s.loop-free",
    ),
    (
        "no-blackhole",
        "verify.dataplane_stage.no-blackhole",
        "verify.dataplane_stage_s.no-blackhole",
    ),
    (
        "anycast-nearest",
        "verify.dataplane_stage.anycast-nearest",
        "verify.dataplane_stage_s.anycast-nearest",
    ),
    (
        "waypoint",
        "verify.dataplane_stage.waypoint",
        "verify.dataplane_stage_s.waypoint",
    ),
    (
        "stretch-bound",
        "verify.dataplane_stage.stretch-bound",
        "verify.dataplane_stage_s.stretch-bound",
    ),
];

/// The world configuration of a run: `vns-bench`'s default deployment at
/// `scale`, converging on [`THREADS`] workers.
pub fn world_config(seed: u64, scale: f64) -> WorldConfig {
    WorldConfig {
        seed,
        scale,
        vns: VnsConfig {
            convergence_threads: THREADS,
            ..VnsConfig::default()
        },
    }
}

/// A channel factory exactly as `World::build` makes it. `probe-short-flows`
/// swaps a fresh one in per rep so the blackout memo is refilled as in a
/// real campaign.
pub fn fresh_factory(seed: u64) -> ChannelFactory {
    ChannelFactory::new(
        CalibrationConfig::default(),
        RngTree::new(seed).subtree("channels"),
    )
}

/// `World::build`, decomposed: `topo.generate` → `core.build_vns` under one
/// span called `name`.
pub fn build_world(
    config: WorldConfig,
    name: &'static str,
    tr: &Tracer,
    parent: SpanId,
) -> Result<World, String> {
    let span = tr.span(name, parent);
    let mut internet = tr
        .within("topo.generate", span.id(), |_| generate(&config.topo()))
        .map_err(|e| format!("topology generation: {e}"))?;
    let vns = tr
        .within("core.build_vns", span.id(), |_| {
            build_vns(&mut internet, &config.vns)
        })
        .map_err(|e| format!("VNS convergence: {e}"))?;
    Ok(World {
        internet,
        vns,
        factory: fresh_factory(config.seed),
        config,
    })
}

/// Records the verifier's own stage ledger as child spans of the call.
fn record_dataplane_stages(tr: &Tracer, call: SpanId, report: &DataplaneReport) {
    let stages: Vec<(&'static str, f64)> = report
        .timings
        .iter()
        .filter_map(|t| {
            DATAPLANE_STAGES
                .iter()
                .find(|(stage, _, _)| *stage == t.stage)
                .map(|(_, span, _)| (*span, t.seconds))
        })
        .collect();
    tr.record_stages(call, &stages);
}

/// Both verifier stages on a healthy converged world; returns the number
/// of error-severity findings (must be 0).
pub fn verify_converged(world: &World, tr: &Tracer, parent: SpanId) -> u64 {
    let control = tr.within("verify.control", parent, |_| {
        vns_verify::verify(&world.internet, &world.vns)
    });
    let span = tr.span("verify.dataplane", parent);
    let data = vns_verify::verify_dataplane(&world.internet, &world.vns);
    record_dataplane_stages(tr, span.end(), &data);
    (control.error_count() + data.error_count()) as u64
}

/// Both verifier stages scoped to a degraded topology (after a fault);
/// returns the number of error-severity findings (must be 0).
pub fn verify_scoped(world: &World, scope: &VerifyScope, tr: &Tracer, parent: SpanId) -> u64 {
    let control = tr.within("verify.control_scoped", parent, |_| {
        vns_verify::verify_scoped(&world.internet, &world.vns, scope)
    });
    let span = tr.span("verify.dataplane_scoped", parent);
    let data = vns_verify::verify_dataplane_scoped(
        &world.internet,
        &world.vns,
        scope,
        &DataplaneConfig::default(),
    );
    record_dataplane_stages(tr, span.end(), &data);
    (control.error_count() + data.error_count()) as u64
}

/// A pre-flighted world: what every workload's set-up starts from.
#[derive(Debug)]
pub struct Fixture {
    /// The world.
    pub world: World,
    /// Error-severity verifier findings at pre-flight (must be 0).
    pub findings: u64,
}

impl Fixture {
    /// Builds the world and runs both pre-flight audits.
    pub fn build(config: WorldConfig, tr: &Tracer, parent: SpanId) -> Result<Fixture, String> {
        let world = build_world(config, "bench.world_build", tr, parent)?;
        let findings = tr.within("bench.preflight", parent, |sp| {
            verify_converged(&world, tr, sp)
        });
        Ok(Fixture { world, findings })
    }
}
