//! `vns-verify` — static two-stage checker CLI.
//!
//! ```text
//! vns-verify [control|dataplane|all] [--seed N] [--scale F] [--mode geo|hot] [--quiet]
//! ```
//!
//! Builds the standard world (generated Internet + VNS deployment, same
//! knobs as `vns-bench`) and runs the selected verification stage:
//!
//! * `control` — the per-router control-plane invariants over converged
//!   RIBs (stage 1);
//! * `dataplane` — the whole-network data-plane model checker: derives
//!   the forwarding graph and proves LOOP-FREE, NO-BLACKHOLE,
//!   ANYCAST-NEAREST, WAYPOINT (against freshly built service tables)
//!   and STRETCH-BOUND, with a per-check timing ledger (stage 2);
//! * `all` (default) — both stages.
//!
//! Stdout carries only findings and counts, so two runs with the same
//! arguments print the same bytes; the timing ledger and the wall-clock
//! summary go to stderr.
//!
//! Exits 1 when any error-severity violation exists. Use it before a long
//! campaign run, or after hand-editing deployment knobs, to catch a
//! misconfigured control plane in seconds instead of hours. A bad command
//! line (unknown flag, stage or mode, `--scale` not a finite number > 0)
//! prints the reason and the usage on stderr and exits 2 before any world
//! is built.

use std::process::ExitCode;

use vns_bench::cli::{Args, CliError};
use vns_bench::{World, WorldConfig};
use vns_core::RoutingMode;
use vns_service::EndpointTable;
use vns_verify::Certifier;

/// Which verification stage(s) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Control,
    Dataplane,
    All,
}

#[derive(Debug, Clone)]
struct Opts {
    stage: Stage,
    seed: u64,
    scale: f64,
    mode: RoutingMode,
    quiet: bool,
}

const USAGE: &str = "usage: vns-verify [control|dataplane|all] [--seed N] [--scale F] \
     [--mode geo|hot] [--quiet]\n\
     --scale takes a finite number > 0";

fn parse_args(mut args: Args) -> Result<Opts, CliError> {
    let opts = Opts {
        seed: args.value("--seed")?.unwrap_or(77),
        scale: args.positive("--scale")?.unwrap_or(1.0),
        mode: match args.value::<String>("--mode")?.as_deref() {
            None | Some("geo") => RoutingMode::GeoColdPotato,
            Some("hot") => RoutingMode::HotPotato,
            Some(other) => {
                return Err(CliError::BadValue {
                    flag: "--mode",
                    value: other.to_string(),
                    reason: "expected geo|hot".to_string(),
                })
            }
        },
        quiet: args.switch(&["--quiet", "-q"]),
        stage: match args.positional().as_deref() {
            None | Some("all") => Stage::All,
            Some("control") => Stage::Control,
            Some("dataplane") => Stage::Dataplane,
            Some(other) => return Err(CliError::Unknown(other.to_string())),
        },
    };
    args.finish()?;
    Ok(opts)
}

fn run(opts: &Opts) -> ExitCode {
    let timer = std::time::Instant::now();
    eprintln!(
        "== vns-verify {:?} (seed {}, scale {}, mode {:?}) ==",
        opts.stage, opts.seed, opts.scale, opts.mode
    );
    let mut cfg = WorldConfig {
        seed: opts.seed,
        scale: opts.scale,
        ..WorldConfig::default()
    };
    cfg.vns.mode = opts.mode;
    let world = World::build(cfg);

    let mut ok = true;
    if opts.stage != Stage::Dataplane {
        let report = vns_verify::verify(&world.internet, &world.vns);
        if !opts.quiet || !report.passes() {
            print!("{}", report.render());
        }
        ok &= report.passes();
    }
    if opts.stage != Stage::Control {
        // Build the service plane's cached tables so WAYPOINT has
        // something to cross-check, exactly as the steady-state campaign
        // would hold them.
        let endpoints = EndpointTable::build(&world.internet, &world.vns);
        let (_, report) =
            Certifier::default().rebuild_paths(&world.internet, &world.vns, &endpoints);
        if !opts.quiet || !report.passes() {
            print!("{}", report.render());
            eprint!("{}", report.render_timings());
        }
        ok &= report.passes();
    }
    eprintln!(
        "== checked {} speakers in {:.2}s ==",
        world.internet.net.speaker_ids().count(),
        timer.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(Args::from_env()) {
        Ok(opts) => run(&opts),
        Err(err) => err.exit(USAGE),
    }
}
