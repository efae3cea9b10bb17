//! The CLI layer: every rejected command line maps to its typed
//! [`CliError`] naming the offending flag, the experiment table agrees
//! with the committed ledger and the docs, and the three built binaries
//! turn a bad line into a usage message and exit code 2 — never a panic,
//! never a world.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use vns_bench::cli::{Args, CliError};
use vns_bench::experiments::EXPERIMENTS;

/// Every flag of the three binaries, claimed the way they claim them.
#[derive(Debug, PartialEq)]
struct Line {
    seed: u64,
    scale: f64,
    days: f64,
    sessions: usize,
    hosts: usize,
    count: usize,
    threads: usize,
    out: Option<String>,
    quiet: bool,
    cmd: Option<String>,
}

fn parse(line: &str) -> Result<Line, CliError> {
    let mut args = Args::new(line.split_whitespace());
    let parsed = Line {
        seed: args.value("--seed")?.unwrap_or(77),
        scale: args.positive("--scale")?.unwrap_or(1.0),
        days: args.positive("--days")?.unwrap_or(2.0),
        sessions: args.count("--sessions")?.unwrap_or(40),
        hosts: args.count("--hosts")?.unwrap_or(10),
        count: args.count("--count")?.unwrap_or(5),
        threads: args.value("--threads")?.unwrap_or(0),
        out: args.value("--out")?,
        quiet: args.switch(&["--quiet", "-q"]),
        cmd: args.positional(),
    };
    args.finish()?;
    Ok(parsed)
}

/// `(variant, the flag or argument the error names)`.
fn kind(err: &CliError) -> (&'static str, &str) {
    match err {
        CliError::MissingValue(flag) => ("MissingValue", flag),
        CliError::BadValue { flag, .. } => ("BadValue", flag),
        CliError::OutOfRange { flag, .. } => ("OutOfRange", flag),
        CliError::Unknown(arg) => ("Unknown", arg),
        CliError::Help => ("Help", ""),
    }
}

#[test]
fn rejected_lines_map_to_their_variant_and_name_the_flag() {
    let cases = [
        ("--count 0", "OutOfRange", "--count"),
        ("--sessions 0 fig9", "OutOfRange", "--sessions"),
        ("--hosts 0 fig11", "OutOfRange", "--hosts"),
        ("--scale NaN fig7", "OutOfRange", "--scale"),
        ("--scale 0", "OutOfRange", "--scale"),
        ("--scale -3", "OutOfRange", "--scale"),
        ("--scale inf", "OutOfRange", "--scale"),
        ("--days NaN fig11", "OutOfRange", "--days"),
        ("--days -1 fig11", "OutOfRange", "--days"),
        ("--scale abc", "BadValue", "--scale"),
        ("--sessions -1 fig9", "BadValue", "--sessions"),
        ("--threads two fig9", "BadValue", "--threads"),
        ("--seed 1.5", "BadValue", "--seed"),
        ("fig3 --seed", "MissingValue", "--seed"),
        ("--out", "MissingValue", "--out"),
        ("--bogus fig3", "Unknown", "--bogus"),
        ("fig3 fig4", "Unknown", "fig4"),
        ("--seed 1 --seed 2 fig3", "Unknown", "--seed"),
        ("--help", "Help", ""),
        ("fig3 -h", "Help", ""),
    ];
    for (line, variant, names) in cases {
        let err = parse(line).expect_err(line);
        assert_eq!(kind(&err), (variant, names), "{line}: {err:?}");
        if variant != "Help" {
            assert!(err.to_string().contains(names), "{line}: {err}");
        }
    }
}

#[test]
fn a_full_valid_line_round_trips() {
    let line = "--seed 9 --scale 0.45 fig9 --sessions 8 --hosts 4 --days 0.5 \
                --threads 0 --out dir -q --count 3";
    let expect = Line {
        seed: 9,
        scale: 0.45,
        days: 0.5,
        sessions: 8,
        hosts: 4,
        count: 3,
        threads: 0, // "all hardware threads" stays a legal value
        out: Some("dir".to_string()),
        quiet: true,
        cmd: Some("fig9".to_string()),
    };
    assert_eq!(parse(line), Ok(expect));
    assert_eq!(
        parse("").map(|l| (l.seed, l.quiet, l.cmd)),
        Ok((77, false, None))
    );
}

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn table_names_are_unique_and_documented() {
    let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    assert!(!names.contains("all"), "`all` is the selection, not a row");
    let docs = repo_file("README.md") + &repo_file("EXPERIMENTS.md");
    for name in names {
        assert!(
            docs.contains(name),
            "{name} is in neither README.md nor EXPERIMENTS.md"
        );
    }
}

/// `all` runs the `in_all` rows in table order, and the committed baseline
/// ledger is an `all` run: its row names are that sequence.
#[test]
fn all_rows_match_the_committed_ledger() {
    let ledger = repo_file("BENCH_campaigns.json");
    let ledger_names: Vec<&str> = ledger
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("{\"name\": \""))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let in_all: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect();
    assert_eq!(in_all, ledger_names);
}

#[test]
fn binaries_refuse_bad_lines_with_usage_and_exit_2() {
    let lines: [(&str, &[&str]); 12] = [
        (env!("CARGO_BIN_EXE_vns-bench"), &["--scale", "NaN", "fig7"]),
        (env!("CARGO_BIN_EXE_vns-bench"), &["--days", "-1", "fig11"]),
        (
            env!("CARGO_BIN_EXE_vns-bench"),
            &["--sessions", "0", "fig9"],
        ),
        (env!("CARGO_BIN_EXE_vns-bench"), &["no-such-experiment"]),
        (env!("CARGO_BIN_EXE_vns-bench"), &["--help"]),
        (env!("CARGO_BIN_EXE_vns-verify"), &["--scale", "0"]),
        (env!("CARGO_BIN_EXE_vns-verify"), &["--mode", "cold"]),
        (env!("CARGO_BIN_EXE_vns-verify"), &["--help"]),
        (env!("CARGO_BIN_EXE_vns-explain"), &["--count", "0"]),
        (env!("CARGO_BIN_EXE_vns-explain"), &["--pop", "XXX"]),
        (
            env!("CARGO_BIN_EXE_vns-explain"),
            &["--scale", "1", "--seed"],
        ),
        (env!("CARGO_BIN_EXE_vns-explain"), &["--help"]),
    ];
    for (bin, args) in lines {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: vns-"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed an artefact");
    }
}

#[test]
fn verify_stdout_is_a_function_of_its_arguments() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_vns-verify"))
            .args(["all", "--seed", "21", "--scale", "0.45"])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (out.stdout, stderr)
    };
    let (first, stderr) = run();
    let (second, _) = run();
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("vns-verify dataplane: clean"), "{text}");
    assert!(!text.contains("timing:"), "{text}");
    // The wall-clock ledger is still printed, on stderr.
    assert!(stderr.contains("timing:"), "{stderr}");
    assert!(first == second, "two runs printed different stdout");
}
