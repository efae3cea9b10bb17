//! The repo's single performance yardstick: five named workloads,
//! end-to-end and per-layer metrics, a traced run.
//!
//! A run of one workload is: set-up (several times; `setup_s` is the
//! median) → one discarded warm-up rep → timed reps of a fixed amount of
//! work until `--seconds` have passed. Time-valued metrics are medians
//! over the timed reps; everything else a rep produces — its artefact
//! digest and every count — must repeat exactly, and is checked. A traced
//! run records a span around every call into a crate on every other timed
//! rep, so the same process yields both the per-layer numbers and the cost
//! of recording them.
//!
//! The harness binds only to `pub` items of the crates and claims no gain:
//! it defines the names every later claim must use. See `README.md`.

use std::time::Instant;

pub mod digest;
pub mod fixture;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod sizes;
pub mod span;
pub mod workloads;

use metrics::{median, Metric};
use sizes::Sizes;
use span::{Phase, SpanId, Trace, Tracer};
use workloads::control::ControlBuild;
use workloads::fault::FaultReconverge;
use workloads::media::MediaLongFlows;
use workloads::probe::ProbeShortFlows;
use workloads::service::ServiceChurn;
use workloads::{Ctx, Rep, Workload};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u64 = 10;

/// Timed reps run until `--seconds` have passed, but at least this many, so
/// a traced run always has one rep of each kind.
const MIN_TIMED_REPS: usize = 2;

/// The workloads, `(name, why)`, in the order `all` runs them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (MediaLongFlows::NAME, MediaLongFlows::WHY),
    (ProbeShortFlows::NAME, ProbeShortFlows::WHY),
    (ControlBuild::NAME, ControlBuild::WHY),
    (FaultReconverge::NAME, FaultReconverge::WHY),
    (ServiceChurn::NAME, ServiceChurn::WHY),
];

/// Seed-keyed artefact digests committed with the benchmark, one
/// `<preset> <workload> <seed> <digest>` per line.
const EXPECTED: &str = include_str!("../expected/digests.txt");

/// The committed digest for `(preset, workload, seed)`, if any.
pub fn expected_digest(preset: &str, workload: &str, seed: u64) -> Option<u64> {
    EXPECTED.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            [p, w, s, digest] if p == preset && w == workload && s.parse() == Ok(seed) => {
                u64::from_str_radix(digest, 16).ok()
            }
            _ => None,
        }
    })
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed reps run until this many seconds have passed.
    pub seconds: f64,
    /// Record spans (on every other timed rep) and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// What `op_ms_p50` times on this workload.
    pub op: &'static str,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// The contract's metrics for this kind of run: every end-to-end
    /// metric (untraced) or every per-layer metric (traced).
    pub metrics: Vec<Metric>,
    /// Counts of one rep; identical in every rep.
    pub counts: Vec<(&'static str, u64)>,
    /// Artefact digest of one rep; identical in every rep.
    pub digest: u64,
    /// Wall clock of each set-up, seconds, in run order.
    pub setup_walls_s: Vec<f64>,
    /// Wall clock of each timed rep, seconds, in run order.
    pub rep_walls_s: Vec<f64>,
    /// Median operation latency of each timed rep, ms, in run order.
    pub rep_op_ms: Vec<f64>,
    /// The recorded spans (traced).
    pub trace: Option<Trace>,
}

/// Runs the workload `opts` names.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        MediaLongFlows::NAME => run_workload::<MediaLongFlows>(opts),
        ProbeShortFlows::NAME => run_workload::<ProbeShortFlows>(opts),
        ControlBuild::NAME => run_workload::<ControlBuild>(opts),
        FaultReconverge::NAME => run_workload::<FaultReconverge>(opts),
        ServiceChurn::NAME => run_workload::<ServiceChurn>(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One rep with the ledger sampled around it.
fn one_rep<W: Workload>(
    state: &mut W,
    ctx: &Ctx<'_>,
    phase: Phase,
    index: u32,
    traced: bool,
) -> (Rep, f64) {
    ctx.tr.set_enabled(traced);
    ctx.tr.set_rep(phase, index);
    let packets = vns_netsim::packets_sent();
    let units = vns_netsim::par::units_processed();
    let t0 = Instant::now();
    let mut rep = ctx
        .tr
        .within("rep", SpanId::NONE, |root| state.rep(ctx, root));
    let wall_s = t0.elapsed().as_secs_f64();
    rep.counts
        .push(("netsim.packets", vns_netsim::packets_sent() - packets));
    rep.counts
        .push(("netsim.units", vns_netsim::par::units_processed() - units));
    (rep, wall_s)
}

/// Medians, by name, of the host-dependent values the reps measured.
fn median_values(reps: &[&Rep]) -> Vec<(&'static str, f64)> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .values
        .iter()
        .map(|&(name, _)| {
            let all: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.values.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (name, median(&all))
        })
        .collect()
}

fn run_workload<W: Workload>(opts: &RunOpts) -> Result<Outcome, String> {
    let sizes = &opts.sizes;
    let tr = Tracer::new();
    let ctx = Ctx {
        seed: opts.seed,
        sizes,
        tr: &tr,
    };

    // Set-up, several times where the reps use it: its cost is a metric of
    // its own, so work moved into set-up shows. The last one is kept.
    tr.set_enabled(opts.trace);
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    let setup_reps = if W::REPS_USE_SETUP {
        sizes.setup_reps.max(1)
    } else {
        1
    };
    for i in 0..setup_reps {
        drop(state.take());
        tr.set_rep(Phase::Setup, i as u32);
        let t0 = Instant::now();
        let built = tr.within("setup", SpanId::NONE, |root| W::setup(&ctx, root))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(built);
    }
    let mut state = state.ok_or("no set-up ran")?;

    // First-touch memory on a small VM makes a process's first pass 2–4×
    // slower than its second (15 s of `sys` on a 20 s cold build was
    // measured), so one rep is discarded before timing starts. It is
    // discarded for the digest too: a freshly built world and one that has
    // been through a fault/repair cycle hold the same routes but reconverge
    // with different message counts, and only the second is a fixed point.
    let (warmup, _) = one_rep(&mut state, &ctx, Phase::Warmup, 0, opts.trace);

    // A traced run records every other timed rep, so its untraced reps are
    // the baseline the tracing overhead is measured against.
    let mut reps: Vec<(Rep, f64, bool)> = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && reps.len() % 2 == 0;
        let (rep, wall_s) = one_rep(&mut state, &ctx, Phase::Timed, reps.len() as u32, traced);
        reps.push((rep, wall_s, traced));
    }

    if opts.trace {
        tr.set_enabled(true);
        tr.set_rep(Phase::Sample, 0);
        tr.within("replay", SpanId::NONE, |root| {
            layers::replay(state.world(), &tr, root);
        });
    }
    drop(state);

    // Correctness: the workload's own checks, every timed rep ≡ the first
    // (this is also traced ≡ untraced), and the committed digest for this
    // seed.
    let first = reps[0].0.clone();
    let mut attempted = warmup.attempted;
    let mut failed = warmup.failed;
    for (i, (rep, _, _)) in reps.iter().enumerate() {
        attempted += rep.attempted + 1;
        failed += rep.failed;
        if rep.digest != first.digest || rep.counts != first.counts {
            eprintln!(
                "{}: timed rep {i} differs from rep 0: digest {:016x} vs {:016x}, counts {:?} vs {:?}",
                W::NAME,
                rep.digest,
                first.digest,
                rep.counts,
                first.counts
            );
            failed += 1;
        }
    }
    if let Some(want) = expected_digest(sizes.label, W::NAME, opts.seed) {
        attempted += 1;
        if want != first.digest {
            eprintln!(
                "{}: digest {:016x} differs from the committed {want:016x} (seed {})",
                W::NAME,
                first.digest,
                opts.seed
            );
            failed += 1;
        }
    }

    // Per timed rep: its wall clock and the median latency of its
    // operations, for reps of one kind (traced / untraced) or all of them.
    let select = |traced: Option<bool>| {
        reps.iter()
            .filter(move |(_, _, t)| traced.map_or(true, |want| want == *t))
    };
    let walls = |traced| -> Vec<f64> { select(traced).map(|(_, w, _)| *w).collect() };
    let op_medians =
        |traced| -> Vec<f64> { select(traced).map(|(r, _, _)| median(&r.ops_ms)).collect() };

    let (metrics, trace) = if opts.trace {
        let trace = tr.finish();
        let timed: Vec<&Rep> = reps.iter().map(|(r, _, _)| r).collect();
        let mut values = median_values(&timed);
        let usage = host::usage();
        // Fastest rep of each kind: host noise only ever slows a rep down,
        // and with a handful of reps per kind a median would carry it.
        let fastest = |traced| {
            walls(Some(traced))
                .into_iter()
                .fold(f64::INFINITY, f64::min)
        };
        let overhead = fastest(true) / fastest(false) - 1.0;
        let setup_share = W::FLOW_SPAN.map_or(0.0, |flow| {
            trace.child_share(flow, &["core.path_resolve", "topo.channel_build"])
        });
        values.extend([
            ("host.cpu_user_s", usage.cpu_user_s),
            ("host.cpu_sys_s", usage.cpu_sys_s),
            ("host.minor_faults", usage.minor_faults),
            ("host.tracing_overhead_pct", overhead * 100.0),
            ("bench.flow_setup_share_pct", setup_share * 100.0),
            ("bench.traced_op_ms_p50", median(&op_medians(Some(true)))),
        ]);
        (
            metrics::per_layer(&trace, &first.counts, &values),
            Some(trace),
        )
    } else {
        let measured = [
            median(&setup_s),
            median(&walls(None)),
            median(&op_medians(None)),
            host::peak_rss_mib(),
        ];
        let metrics = metrics::END_TO_END
            .iter()
            .zip(measured)
            .map(|(&(name, unit, _, _), value)| Metric { name, value, unit })
            .collect();
        (metrics, None)
    };

    // A metric JSON cannot carry is a failed check, not a silent zero.
    attempted += 1;
    if !metrics.iter().all(|m| m.value.is_finite()) {
        failed += 1;
    }

    Ok(Outcome {
        workload: W::NAME,
        op: W::OP,
        attempted,
        failed,
        metrics,
        counts: first.counts,
        digest: first.digest,
        setup_walls_s: setup_s,
        rep_walls_s: walls(None),
        rep_op_ms: op_medians(None),
        trace,
    })
}
