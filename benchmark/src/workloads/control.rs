//! `control-build` — bulk initial convergence and RIB memory; the packet
//! engine does nothing here.
//!
//! Per rep: generate a larger world, deploy VNS into it, run both verifier
//! stages, build the service tables, drop everything. This is the scale
//! curve's inner loop at the largest rung that fits a repeated run, and
//! the probe for the ROADMAP's scale-cliff item: message-proportional
//! convergence (`conv_msgs_per_s`) and resident memory after convergence.
//! A delta `PathTable` or a faster packet engine must not move it.

use std::fmt::Write as _;
use std::time::Instant;

use vns_bench::World;
use vns_service::{EndpointTable, PathTable};

use crate::digest::Digest;
use crate::fixture::{build_world, verify_converged, world_config, Fixture};
use crate::host;
use crate::span::SpanId;
use crate::workloads::{ms_since, Ctx, Rep, Workload};

/// The workload state. A rep builds its own world from the seed, so there
/// is nothing for set-up to prepare: it builds, once, the scale-1 world the
/// pre-flight check and a traced run's layer replay use.
#[derive(Debug)]
pub struct ControlBuild {
    fixture: Fixture,
}

impl Workload for ControlBuild {
    const NAME: &'static str = "control-build";
    const WHY: &'static str = "bulk initial convergence and RIB memory at scale 2 (generate, build_vns, both verifier stages, service tables); zero packets";
    const OP: &'static str = "one convergence: generate + build_vns";
    const FLOW_SPAN: Option<&'static str> = None;
    const REPS_USE_SETUP: bool = false;

    fn setup(ctx: &Ctx<'_>, parent: SpanId) -> Result<Self, String> {
        let fixture = Fixture::build(world_config(ctx.seed, ctx.sizes.scale), ctx.tr, parent)?;
        Ok(ControlBuild { fixture })
    }

    fn rep(&mut self, ctx: &Ctx<'_>, parent: SpanId) -> Rep {
        let tr = ctx.tr;
        let mut rep = Rep::default();
        let t0 = Instant::now();
        let build = tr.span("control.build", parent);
        let config = world_config(ctx.seed, ctx.sizes.control_scale);
        let world = match build_world(config, "control.converge", tr, build.id()) {
            Ok(world) => world,
            Err(e) => {
                eprintln!("control-build: {e}");
                rep.check(false);
                return rep;
            }
        };
        // The ROADMAP's message-proportional number is `bgp.conv_msgs` over
        // this; verification, tables and the drop are the rest of `wall_s`.
        rep.ops_ms.push(ms_since(t0));
        rep.values
            .push(("bgp.rss_after_converge_mib", host::rss_mib()));
        let findings = verify_converged(&world, tr, build.id());
        let endpoints = tr.within("service.endpoint_table_build", build.id(), |_| {
            EndpointTable::build(&world.internet, &world.vns)
        });
        let paths = tr.within("service.path_table_build", build.id(), |_| {
            PathTable::build(&world.internet, &world.vns, &endpoints)
        });

        let log = &world.internet.convergence_log;
        let mut digest = Digest::new();
        let _ = writeln!(
            digest,
            "{} ases {} prefixes {} endpoints {} routable {findings} findings\n{log:?}",
            world.internet.as_count(),
            world.internet.prefixes().count(),
            endpoints.len(),
            paths.routable_endpoints(),
        );
        for caller in 0..endpoints.len() {
            let _ = writeln!(digest, "{:?}", paths.landing_pop(caller));
        }
        rep.digest = digest.value();
        rep.counts = vec![
            ("bgp.conv_msgs", log.iter().map(|c| c.messages).sum()),
            ("bgp.conv_rounds", log.iter().map(|c| c.rounds).sum()),
            (
                "bgp.conv_activations",
                log.iter().map(|c| c.activations).sum(),
            ),
            ("verify.findings", findings),
        ];
        rep.check(findings == 0);
        rep.check(self.fixture.findings == 0);
        rep.check(world.internet.net.is_quiescent());
        // Dropping ~0.5 GiB of RIBs is part of what a repeated build costs.
        tr.within("control.drop", build.id(), |_| {
            drop((world, endpoints, paths));
        });
        drop(build);
        rep
    }

    fn world(&self) -> &World {
        &self.fixture.world
    }
}
