//! `vns-explain` — prints how traffic flows, hop by hop, for a sample of
//! destinations, with each hop's loss-model mean. Useful for understanding
//! the simulated world and for debugging calibration.
//!
//! ```sh
//! vns-explain [--seed N] [--scale F] [--pop CODE] [--count N]
//! ```
//!
//! A bad command line (unknown flag or PoP code, `--scale` not a finite
//! number > 0, `--count 0`) prints the reason and the usage on stderr and
//! exits 2 before any world is built.

use std::process::ExitCode;

use vns_bench::campaign::prefix_metas;
use vns_bench::cli::{Args, CliError};
use vns_bench::World;
use vns_core::pops::POP_SPECS;
use vns_core::PopId;

const USAGE: &str = "usage: vns-explain [--seed N] [--scale F] [--pop CODE] [--count N]\n\
     --scale takes a finite number > 0, --count a whole number >= 1, --pop a PoP code (AMS, LON, ...)";

struct Opts {
    seed: u64,
    scale: f64,
    pop_code: String,
    count: usize,
}

fn parse_args(mut args: Args) -> Result<Opts, CliError> {
    let opts = Opts {
        seed: args.value("--seed")?.unwrap_or(77),
        scale: args.positive("--scale")?.unwrap_or(0.6),
        pop_code: args.value("--pop")?.unwrap_or_else(|| "AMS".to_string()),
        count: args.count("--count")?.unwrap_or(5),
    };
    args.finish()?;
    if !POP_SPECS.iter().any(|p| p.code == opts.pop_code) {
        return Err(CliError::BadValue {
            flag: "--pop",
            value: opts.pop_code,
            reason: "no PoP has this code".to_string(),
        });
    }
    Ok(opts)
}

fn main() -> ExitCode {
    match parse_args(Args::from_env()) {
        Ok(opts) => explain(&opts),
        Err(err) => err.exit(USAGE),
    }
}

fn explain(opts: &Opts) -> ExitCode {
    let (pop_code, count) = (opts.pop_code.as_str(), opts.count);
    let w = World::geo(opts.seed, opts.scale);
    let pop = w
        .vns
        .pop_by_code(pop_code)
        .expect("code checked against POP_SPECS")
        .id();
    let metas = prefix_metas(&w);
    println!(
        "world: {} ASes, {} prefixes; vantage {}",
        w.internet.as_count(),
        metas.len(),
        pop_code
    );
    for m in metas
        .iter()
        .step_by((metas.len() / count).max(1))
        .take(count)
    {
        println!(
            "\n=== {} ({} {}, geoip err {:.0} km)",
            m.prefix,
            m.ty,
            m.region.code(),
            m.geoip_err_km
        );
        for (tag, path) in [
            ("via VNS     ", w.vns.path_via_vns(&w.internet, pop, m.ip)),
            (
                "local exit  ",
                w.vns.path_via_local_exit(&w.internet, pop, m.ip),
            ),
        ] {
            match path {
                Ok(p) => {
                    println!("  {tag} ({:.0} km):", p.total_km());
                    for h in &p.hops {
                        let mean = w.factory.loss_model(h).mean_rate();
                        println!(
                            "    {:>7.0} km  loss {:>8.5}%  {}",
                            h.km,
                            mean * 100.0,
                            h.label
                        );
                    }
                }
                Err(e) => println!("  {tag}: unroutable ({e})"),
            }
        }
        if let Some(egress) = w.vns.egress_pop(&w.internet, PopId(10), m.ip) {
            println!("  egress from London's view: {}", w.vns.pop(egress).code());
        }
    }
    ExitCode::SUCCESS
}
