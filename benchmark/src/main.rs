//! `vns-benchmark` — one command for every metric.
//!
//! ```text
//! vns-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! vns-benchmark all [--seed N] [--seconds S] [--trace] [--smoke]
//! vns-benchmark contract
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! this process, every metric printed by name with its unit, the contract's
//! JSON object as the last line of standard output. `all` runs each
//! workload in a child process of its own (so `peak_rss_mib` is per
//! workload), untraced and — with `--trace` — traced too, and checks that
//! both runs produced the same artefact digest. `contract` prints
//! `BENCHMARK.json` as rendered from the harness's own metric tables.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use vns_benchmark::host::Env;
use vns_benchmark::metrics::{contract_json, json_number, result_line};
use vns_benchmark::sizes::Sizes;
use vns_benchmark::workloads::THREADS;
use vns_benchmark::{run, Outcome, RunOpts, RUN_SECONDS, WORKLOADS};

const USAGE: &str =
    "usage: vns-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
       vns-benchmark all [--seed N] [--seconds S] [--trace] [--smoke]\n\
       vns-benchmark contract\n\
workloads: media-long-flows probe-short-flows control-build fault-reconverge service-churn";

#[derive(Debug)]
struct Cli {
    /// A workload name, `all` or `contract`.
    target: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        target: String::new(),
        seed: 77,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("missing value after {name}"))
        };
        match a.as_str() {
            "--workload" => cli.target = value("--workload")?.clone(),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds: {s} is outside 0..=600"));
                }
                cli.seconds = Some(s);
            }
            // `--trace 0|1` (the contract's form) or bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            word if !word.starts_with('-') && cli.target.is_empty() => {
                cli.target = word.to_string();
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if cli.target.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(cli)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything a run measured, as text: one `kind name value unit` line per
/// number, so two result files diff cleanly.
fn render(opts: &RunOpts, env: &Env, o: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# vns-benchmark {} seed={} seconds={} trace={} threads={}",
        o.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        THREADS,
    );
    let row = |xs: &[f64]| {
        let cells: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        cells.join(" ")
    };
    let _ = writeln!(s, "# set-up walls, s: {}", row(&o.setup_walls_s));
    let _ = writeln!(s, "# timed rep walls, s: {}", row(&o.rep_walls_s));
    let _ = writeln!(s, "# timed rep op p50s, ms: {}", row(&o.rep_op_ms));
    if opts.sizes == Sizes::SMOKE {
        let _ = writeln!(s, "# SMOKE SIZES — plumbing check only, NOT FOR CLAIMS");
    }
    let _ = writeln!(s, "# sizes {}", opts.sizes);
    let _ = writeln!(
        s,
        "# env rustc=\"{}\" kernel={} commit={} available_parallelism={}",
        env.rustc, env.kernel, env.commit, env.available_parallelism
    );
    let _ = writeln!(s, "# op_ms_p50 times {}", o.op);
    let _ = writeln!(s, "# claim null");
    for m in &o.metrics {
        let _ = writeln!(s, "metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    for (name, value) in &o.counts {
        let _ = writeln!(s, "count {name} {value}");
    }
    if let Some(trace) = &o.trace {
        for (name, count, self_ns) in trace.self_times() {
            let _ = writeln!(
                s,
                "self-time {name} {count} spans {:.3} ms",
                self_ns as f64 / 1e6
            );
        }
    }
    let _ = writeln!(
        s,
        "digest {} {} {} {:016x}",
        o.workload, opts.sizes.label, opts.seed, o.digest
    );
    s
}

fn run_one(cli: &Cli) -> Result<ExitCode, String> {
    let opts = RunOpts {
        workload: cli.target.clone(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(RUN_SECONDS as f64),
        trace: cli.trace,
        sizes: if cli.smoke {
            Sizes::SMOKE
        } else {
            Sizes::STANDARD
        },
    };
    let outcome = run(&opts)?;
    let text = render(&opts, &Env::read(), &outcome);
    print!("{text}");

    // Result files are a convenience; the contract is standard output.
    let dir = out_dir();
    let stem = format!("{}.trace{}", outcome.workload, u8::from(opts.trace));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), &text))
        .and_then(|()| match &outcome.trace {
            Some(trace) => trace.write_json(&dir.join(format!("trace-{}.json", outcome.workload))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("note: could not write under {}: {e}", dir.display());
    }

    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process, passes its output through, and
/// returns its `digest` line.
fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload} (trace {trace}): {}", out.status));
    }
    stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .map(str::to_string)
        .ok_or_else(|| format!("{workload}: no digest line"))
}

fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    for (workload, _) in WORKLOADS {
        let untraced = run_child(cli, workload, false)?;
        if cli.trace {
            let traced = run_child(cli, workload, true)?;
            if traced != untraced {
                return Err(format!(
                    "{workload}: traced and untraced runs disagree:\n  {untraced}\n  {traced}"
                ));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cli| match cli.target.as_str() {
        "contract" => {
            print!("{}", contract_json(&WORKLOADS, RUN_SECONDS));
            Ok(ExitCode::SUCCESS)
        }
        "all" => run_all(&cli),
        _ => run_one(&cli),
    });
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        ExitCode::FAILURE
    })
}
