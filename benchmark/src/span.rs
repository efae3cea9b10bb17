//! The harness's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate (spans inside the crates are a later issue). A span is
//! `(name, start, end, parent, phase, rep, work)`; everything stays in
//! memory until [`Tracer::write_json`] flushes it at exit. With tracing
//! off, [`Tracer::span`] takes no clock reading and records nothing, so
//! the untraced run pays one branch per call site.
//!
//! The recorder is `Sync` (a mutex around the span vector) because the
//! decomposed drivers hand their units to `Par::map` exactly as the
//! `vns-bench` campaigns do, and that closure must be `Sync` even when it
//! runs on one thread. Parents are passed explicitly for the same reason:
//! there is no per-thread "current span" to consult.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] is "no parent" and also what
/// every span gets while tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The root / the disabled recorder's only id.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// Which part of a run a span belongs to. Per-layer numbers prefer timed
/// reps, then the fixed-sample replay, then set-up (see `Trace::durs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// World build, pre-flight and tables, before any rep.
    Setup = 0,
    /// The discarded warm-up rep.
    Warmup = 1,
    /// A timed rep.
    Timed = 2,
    /// The fixed-sample replay through the public pieces.
    Sample = 3,
}

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Layer call, `crate.call` (e.g. `topo.channel_build`).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 until the guard drops).
    pub end: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Run phase.
    pub phase: Phase,
    /// Rep index within the phase.
    pub rep: u32,
    /// Work done inside the span in the layer's own unit (packets,
    /// packet-hops, arrivals …); 0 when not set.
    pub work: u64,
}

impl SpanRec {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    phase: AtomicU32,
    rep: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder with tracing off.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            phase: AtomicU32::new(Phase::Setup as u32),
            rep: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off. Only called between reps, never while a
    /// span is open.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: a flag read by the thread that set it (or by workers
        // spawned after the store); it publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Stamps subsequent spans with `(phase, rep)`.
    pub fn set_rep(&self, phase: Phase, rep: u32) {
        self.phase.store(phase as u32, Ordering::Relaxed);
        self.rep.store(rep, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        // Every update is a push or a single-field store, so the vector is
        // valid at every step; a worker's panic must not hide the trace.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span; it closes when the guard drops (or at
    /// [`Span::end`]).
    pub fn span(&self, name: &'static str, parent: SpanId) -> Span<'_> {
        if !self.enabled() {
            return Span {
                tracer: self,
                id: SpanId::NONE,
            };
        }
        let phase = match self.phase.load(Ordering::Relaxed) {
            0 => Phase::Setup,
            1 => Phase::Warmup,
            2 => Phase::Timed,
            _ => Phase::Sample,
        };
        let rec = SpanRec {
            name,
            start: self.now(),
            end: 0,
            parent,
            phase,
            rep: self.rep.load(Ordering::Relaxed),
            work: 0,
        };
        let mut spans = self.lock();
        let id = SpanId(spans.len() as u32);
        spans.push(rec);
        Span { tracer: self, id }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let span = self.span(name, parent);
        f(span.id())
    }

    /// Records child spans whose durations were measured elsewhere (the
    /// verifier's own stage ledger), laid end to end from `parent`'s start.
    pub fn record_stages(&self, parent: SpanId, stages: &[(&'static str, f64)]) {
        if parent == SpanId::NONE {
            return;
        }
        let mut spans = self.lock();
        let Some(p) = spans.get(parent.0 as usize).copied() else {
            return;
        };
        let mut at = p.start;
        for &(name, seconds) in stages {
            let end = at + (seconds * 1e9) as u64;
            spans.push(SpanRec {
                name,
                start: at,
                end,
                parent,
                phase: p.phase,
                rep: p.rep,
                work: 0,
            });
            at = end;
        }
    }

    /// Sets the work done inside an already recorded span.
    pub fn set_work(&self, id: SpanId, work: u64) {
        if id == SpanId::NONE {
            return;
        }
        if let Some(rec) = self.lock().get_mut(id.0 as usize) {
            rec.work = work;
        }
    }

    /// Takes the recorded spans for analysis.
    pub fn finish(&self) -> Trace {
        Trace {
            spans: std::mem::take(&mut *self.lock()),
        }
    }
}

/// Guard of an open span.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: SpanId,
}

impl Span<'_> {
    /// This span's id, to pass as the parent of spans it causes.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span now and returns its id (for [`Tracer::set_work`]).
    pub fn end(self) -> SpanId {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.id == SpanId::NONE {
            return;
        }
        let end = self.tracer.now();
        if let Some(rec) = self.tracer.lock().get_mut(self.id.0 as usize) {
            rec.end = end;
        }
    }
}

/// A finished trace and the queries the per-layer metrics are built from.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans, in open order (a parent always precedes its children).
    pub spans: Vec<SpanRec>,
}

impl Trace {
    /// Spans called `name` from the most relevant phase that has any:
    /// timed reps first, then the fixed-sample replay, then set-up. The
    /// warm-up rep is never used.
    pub fn of(&self, name: &str) -> Vec<&SpanRec> {
        for phase in [Phase::Timed, Phase::Sample, Phase::Setup] {
            let hits: Vec<&SpanRec> = self
                .spans
                .iter()
                .filter(|s| s.phase == phase && s.name == name)
                .collect();
            if !hits.is_empty() {
                return hits;
            }
        }
        Vec::new()
    }

    /// Durations of [`Trace::of`]`(name)`, ns.
    pub fn durs(&self, name: &str) -> Vec<f64> {
        self.of(name).iter().map(|s| s.dur() as f64).collect()
    }

    /// `sum(duration) / sum(work)` over [`Trace::of`] of each name, ns per
    /// unit of work; 0 when no work was recorded.
    pub fn ns_per_work(&self, names: &[&str]) -> f64 {
        let (ns, work) = names
            .iter()
            .flat_map(|n| self.of(n))
            .fold((0u64, 0u64), |(ns, w), s| (ns + s.dur(), w + s.work));
        if work == 0 {
            0.0
        } else {
            ns as f64 / work as f64
        }
    }

    /// Self time per span name over the timed reps, ns: a span's duration
    /// minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                child_ns[s.parent.0 as usize] += s.dur();
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.phase == Phase::Timed {
                let e = by_name.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.dur().saturating_sub(child_ns[i]);
            }
        }
        by_name.into_iter().map(|(n, (c, ns))| (n, c, ns)).collect()
    }

    /// Share of `outer` spans' time that direct children named in `inner`
    /// cover, over the timed reps (0..=1; 0 when `outer` never ran).
    pub fn child_share(&self, outer: &str, inner: &[&str]) -> f64 {
        let mut outer_ns = 0u64;
        let mut inner_ns = 0u64;
        for s in self.spans.iter().filter(|s| s.phase == Phase::Timed) {
            if s.name == outer {
                outer_ns += s.dur();
            } else if inner.contains(&s.name)
                && s.parent != SpanId::NONE
                && self.spans[s.parent.0 as usize].name == outer
            {
                inner_ns += s.dur();
            }
        }
        if outer_ns == 0 {
            0.0
        } else {
            inner_ns as f64 / outer_ns as f64
        }
    }

    /// Writes the trace as one JSON object: a name table and one compact
    /// row per span, `[name, start_ns, end_ns, parent, phase, rep, work]`
    /// (`parent` is a row index, -1 for none).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"phase\", \"rep\", \"work\"], \"phases\": [\"setup\", \"warmup\", \"timed\", \"sample\"], \"names\": [")?;
        for (i, n) in names.iter().enumerate() {
            write!(out, "{}\"{n}\"", if i == 0 { "" } else { ", " })?;
        }
        writeln!(out, "], \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).unwrap_or(0);
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                i64::from(s.parent.0)
            };
            writeln!(
                out,
                "[{name},{},{},{parent},{},{},{}]{}",
                s.start,
                s.end,
                s.phase as u32,
                s.rep,
                s.work,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        let id = tr.within("a", SpanId::NONE, |id| id);
        assert_eq!(id, SpanId::NONE);
        assert!(tr.finish().spans.is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.set_rep(Phase::Timed, 0);
        tr.within("outer", SpanId::NONE, |outer| {
            tr.within("inner", outer, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let trace = tr.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, SpanId(0));
        let selfs = trace.self_times();
        let outer = selfs.iter().find(|s| s.0 == "outer").expect("outer");
        let inner = selfs.iter().find(|s| s.0 == "inner").expect("inner");
        assert!(inner.2 >= 5_000_000);
        assert!(outer.2 < inner.2, "outer self time excludes the child");
        assert!(trace.child_share("outer", &["inner"]) > 0.5);
    }

    #[test]
    fn phases_fall_back_timed_then_sample_then_setup() {
        let tr = Tracer::new();
        tr.set_enabled(true);
        tr.set_rep(Phase::Setup, 0);
        drop(tr.span("x", SpanId::NONE));
        tr.set_rep(Phase::Warmup, 0);
        drop(tr.span("x", SpanId::NONE));
        drop(tr.span("y", SpanId::NONE));
        tr.set_rep(Phase::Sample, 0);
        drop(tr.span("x", SpanId::NONE));
        let trace = tr.finish();
        assert_eq!(trace.of("x").len(), 1);
        assert_eq!(trace.of("x")[0].phase, Phase::Sample);
        assert!(trace.of("y").is_empty(), "warm-up spans are never used");
    }
}
