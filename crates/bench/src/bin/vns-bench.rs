//! `vns-bench` — regenerates every table and figure of the paper.
//!
//! ```text
//! vns-bench [--seed N] [--scale F] [--sessions N] [--hosts N] [--days F]
//!           [--threads N] [--out DIR] <experiment>|all
//! ```
//!
//! The experiments are the rows of [`vns_bench::experiments::EXPERIMENTS`]
//! (`vns-bench --help` lists them); `all` runs every row the table marks
//! `in_all`, in table order, sharing the worlds and campaigns they have in
//! common. `scale-curve` is the one row outside `all`: it sweeps a ladder
//! of world scales up to `--scale` (see
//! [`vns_bench::experiments::scale_curve`]).
//!
//! Results print to stdout as labelled series/tables (see EXPERIMENTS.md
//! for paper-vs-measured) and, with `--out DIR`, each experiment is also
//! written to `DIR/<experiment>.txt`. Run with `--release`; the default
//! scales finish in a few minutes combined.
//!
//! Campaigns fan their work units out over `--threads N` workers
//! (default: all hardware threads; `--threads 1` is the sequential path).
//! Output artefacts are byte-identical at any thread count — the thread
//! count only moves wall-clock, which is recorded per experiment in
//! `BENCH_campaigns.json` (written next to the artefacts with `--out`;
//! without it, only a full baseline run — `all` at scale 1 — takes that
//! name in the working directory, anything else writes
//! `BENCH_campaigns.local.json` so the committed baseline stays intact).
//!
//! A bad command line (unknown flag or experiment, unparsable or
//! out-of-range value) prints the reason and the usage on stderr and
//! exits 2 before any world is built.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vns_bench::cli::{Args, CliError};
use vns_bench::experiments::{Ctx, ExpRecord, Experiment, Opts, EXPERIMENTS};
use vns_netsim::Par;

/// The command that selects every `in_all` row of the table.
const ALL: &str = "all";

/// One parsed invocation.
#[derive(Debug)]
struct Invocation {
    opts: Opts,
    par: Par,
    out: Option<PathBuf>,
    cmd: String,
}

fn parse_args(mut args: Args) -> Result<Invocation, CliError> {
    let inv = Invocation {
        opts: Opts {
            seed: args.value("--seed")?.unwrap_or(77),
            scale: args.positive("--scale")?.unwrap_or(1.0),
            sessions: args.count("--sessions")?.unwrap_or(40),
            hosts_per_cell: args.count("--hosts")?.unwrap_or(10),
            days: args.positive("--days")?.unwrap_or(2.0),
        },
        // 0 (the default) = every hardware thread.
        par: Par::new(args.value("--threads")?.unwrap_or(0)),
        out: args.value("--out")?,
        cmd: args.positional().ok_or(CliError::Help)?,
    };
    args.finish()?;
    if inv.cmd != ALL && !EXPERIMENTS.iter().any(|e| e.name == inv.cmd) {
        return Err(CliError::Unknown(inv.cmd));
    }
    Ok(inv)
}

/// The usage text; the experiment list is the table's.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).chain([ALL]).collect();
    let lines: Vec<String> = names.chunks(6).map(|line| line.join(" ")).collect();
    format!(
        "usage: vns-bench [--seed N] [--scale F] [--sessions N] [--hosts N] [--days F] \
         [--threads N] [--out DIR] <experiment>\n\
         experiments: {}\n\
         --scale and --days take a finite number > 0; --sessions and --hosts a whole number >= 1\n\
         --threads 0 (default) uses every hardware thread; artefacts are byte-identical at any count",
        lines.join("\n             ")
    )
}

/// Renders the perf ledger. Hand-formatted JSON: the workspace has no
/// serde, and the schema is flat.
fn campaigns_json(inv: &Invocation, records: &[ExpRecord], total_s: f64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"cmd\": \"{}\",\n", inv.cmd));
    s.push_str(&format!("  \"seed\": {},\n", inv.opts.seed));
    s.push_str(&format!("  \"scale\": {},\n", inv.opts.scale));
    s.push_str(&format!("  \"threads\": {},\n", inv.par.threads()));
    s.push_str(&format!("  \"total_wall_s\": {total_s:.3},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, r) in records.iter().enumerate() {
        let tput = if r.wall_s > 0.0 {
            r.units as f64 / r.wall_s
        } else {
            0.0
        };
        let pkt_tput = if r.wall_s > 0.0 {
            r.packets as f64 / r.wall_s
        } else {
            0.0
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": {}, \"wall_s\": {:.3}, \"units\": {}, \"units_per_s\": {tput:.1}, \"packets\": {}, \"packets_per_s\": {pkt_tput:.0}}}{}\n",
            r.name,
            r.scale,
            r.wall_s,
            r.units,
            r.packets,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes the perf ledger to `--out`, or the working directory without it.
///
/// Without `--out` the working directory is typically the repo root, where
/// `BENCH_campaigns.json` is the committed full-campaign baseline that the
/// CI perf gate compares against. Only a run with the baseline's shape
/// (`all` at scale 1) may take that name; anything else — a single
/// experiment, a reduced scale — lands in `BENCH_campaigns.local.json`
/// (gitignored) so scratch runs cannot clobber the baseline.
fn write_campaigns(inv: &Invocation, records: &[ExpRecord], total_s: f64) -> Result<(), String> {
    let (dir, name) = match inv.out.clone() {
        Some(dir) => (dir, "BENCH_campaigns.json"),
        None if inv.cmd == ALL && inv.opts.scale == 1.0 => {
            (PathBuf::from("."), "BENCH_campaigns.json")
        }
        None => {
            eprintln!(
                "note: not a full baseline run (cmd {}, scale {}); writing \
                 BENCH_campaigns.local.json — pass --out DIR to name it \
                 BENCH_campaigns.json elsewhere",
                inv.cmd, inv.opts.scale
            );
            (PathBuf::from("."), "BENCH_campaigns.local.json")
        }
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, campaigns_json(inv, records, total_s))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Prints a result and, with `--out`, also writes it to `DIR/<name>.txt`
/// so the series can be re-plotted without re-running.
fn emit(out: Option<&PathBuf>, name: &str, body: String) -> Result<(), String> {
    println!("{body}");
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Runs the selected rows of the table — one, or every `in_all` row —
/// through the same timed → emit loop, then writes the perf ledger.
fn run(inv: &Invocation) -> Result<(), String> {
    let selected = |e: &&Experiment| e.name == inv.cmd || (inv.cmd == ALL && e.in_all);
    let mut ctx = Ctx::new(inv.opts.clone(), inv.par);
    let t0 = Instant::now();
    for exp in EXPERIMENTS.iter().filter(selected) {
        let timer = Instant::now();
        eprintln!(
            "== {} (seed {}, scale {}, threads {}) ==",
            exp.name,
            inv.opts.seed,
            inv.opts.scale,
            inv.par.threads()
        );
        let body = ctx.timed(exp.name, inv.opts.scale, exp.run)?;
        emit(inv.out.as_ref(), exp.name, body)?;
        eprintln!(
            "== {} done in {:.1}s ==",
            exp.name,
            timer.elapsed().as_secs_f64()
        );
    }
    write_campaigns(inv, &ctx.records, t0.elapsed().as_secs_f64())
}

fn main() -> ExitCode {
    let inv = match parse_args(Args::from_env()) {
        Ok(inv) => inv,
        Err(err) => return err.exit(&usage()),
    };
    match run(&inv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
