//! The five workloads and what they share.
//!
//! A workload is a set-up (→ `setup_s`), then reps of a fixed amount of
//! work. Everything a rep produces is deterministic given the seed — its
//! digest and every count repeat exactly — so the only thing that varies
//! between reps, runs and hosts is time.

use std::fmt;
use std::time::Instant;

use vns_bench::World;
use vns_netsim::{Par, PathChannel};
use vns_topo::ResolvedPath;

use crate::sizes::Sizes;
use crate::span::{SpanId, Tracer};

pub mod control;
pub mod fault;
pub mod media;
pub mod probe;
pub mod service;

/// What a run hands every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// `--seed`: the only source of generated inputs.
    pub seed: u64,
    /// Fixed sizes.
    pub sizes: &'a Sizes,
    /// The span recorder.
    pub tr: &'a Tracer,
}

/// Workers for the campaign fan-out and for sharded convergence. The
/// reference box has two shared vCPUs and the ROADMAP's reference numbers
/// are single-core: no scaling claim is supportable here, so this is not
/// an option. The issue that brings a multi-thread workload brings the
/// flag, its test and a box that can carry the claim.
pub const THREADS: usize = 1;

/// The campaign fan-out configuration.
pub fn par() -> Par {
    Par::new(THREADS)
}

/// What one rep did.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// 64-bit digest of the rendered artefact.
    pub digest: u64,
    /// Host milliseconds of each operation ([`Workload::OP`]).
    pub ops_ms: Vec<f64>,
    /// Counts that must repeat exactly in every rep of every run.
    pub counts: Vec<(&'static str, u64)>,
    /// Measured values that vary with the host (times, memory).
    pub values: Vec<(&'static str, f64)>,
    /// Correctness checks made.
    pub attempted: u64,
    /// Correctness checks failed.
    pub failed: u64,
}

impl Rep {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One named workload.
pub trait Workload: Sized {
    /// Name, as `BENCHMARK.json` lists it.
    const NAME: &'static str;
    /// One line: why this workload exists.
    const WHY: &'static str;
    /// The operation `op_ms_p50` times on this workload.
    const OP: &'static str;
    /// The span whose `core.path_resolve` + `topo.channel_build` children
    /// are this workload's per-flow set-up (for `bench.flow_setup_share_pct`).
    const FLOW_SPAN: Option<&'static str>;

    /// Whether the reps work on what set-up built. Where they do, set-up
    /// is repeated ([`Sizes::setup_reps`]) and `setup_s` is the median;
    /// where they do not, it runs once.
    const REPS_USE_SETUP: bool = true;

    /// Untimed set-up: world build, pre-flight, tables.
    fn setup(ctx: &Ctx<'_>, parent: SpanId) -> Result<Self, String>;

    /// One rep of the fixed work. Must leave `self` as it found it.
    fn rep(&mut self, ctx: &Ctx<'_>, parent: SpanId) -> Rep;

    /// The scale-1 world the fixed-sample layer replay runs against.
    fn world(&self) -> &World;
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `vns_bench::campaign::channel_pair_args` with a span around each
/// `ChannelFactory::channel_args` call. Label-compatible: the seeds are
/// hashed from the rendered label, and `{label}:fwd` renders the same
/// bytes either way.
pub fn channel_pair(
    world: &World,
    path: &ResolvedPath,
    label: fmt::Arguments<'_>,
    tr: &Tracer,
    parent: SpanId,
) -> (PathChannel, PathChannel) {
    let fwd = tr.within("topo.channel_build", parent, |_| {
        world
            .factory
            .channel_args(path, format_args!("{label}:fwd"))
    });
    let rev = tr.within("topo.channel_build", parent, |_| {
        world
            .factory
            .channel_args(&path.reversed(), format_args!("{label}:rev"))
    });
    (fwd, rev)
}
