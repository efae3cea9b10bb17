//! The window-by-window service-plane orchestrator.
//!
//! Each telemetry window runs in three strictly separated passes:
//!
//! 1. **Arrivals** — the window's Poisson arrival instants come from the
//!    per-window stream (`arrivals:{window}` via [`ArrivalProcess`]), a
//!    pure function of (master seed, window index).
//! 2. **Bookkeeping** — the discrete-event engine processes arrivals and
//!    departures in event-time order, sequentially: endpoint draws,
//!    admission, hold-time draws, occupancy. This pass is cheap (no packet
//!    work) and is the only pass that mutates shared state.
//! 3. **Measurement** — admitted calls are measured in parallel. Each call
//!    is a pure function of its [`CallRecord`] and the read-only
//!    environment: channels are derived from `svc:{id}:*` labels, never
//!    from worker identity or order. Outcomes fold into the window report
//!    in canonical call-id order.
//!
//! Thread count therefore cannot affect any artefact byte — the invariant
//! the cross-thread reproducibility suite pins for every campaign.

use vns_core::{PopId, Vns};
use vns_media::{run_echo_session, setup_call, teardown_call, SessionConfig, VideoSpec};
use vns_netsim::{ArrivalProcess, DiurnalProfile, Dur, Par, RngTree, SimTime, Window};
use vns_topo::{ChannelFactory, Internet};

use rand::Rng;

use crate::admission::{Admission, AdmissionController};
use crate::endpoints::EndpointTable;
use crate::error::ServiceError;
use crate::lifecycle::{CallOutcome, CallRecord, ServiceEvent, SessionManager};
use crate::paths::PathTable;
use crate::telemetry::{ServiceTelemetry, WindowReport};

/// Relay capacity budget as a multiple of `target_concurrent`: the diurnal
/// peak deliberately overshoots it, so admission spill and rejection are
/// exercised daily.
const CAPACITY_HEADROOM: f64 = 1.25;

/// How many nearest PoPs admission may spill to.
const SPILL_DEPTH: usize = 3;

/// Length of a measured call's media QoS burst.
const QOS_BURST: Dur = Dur::from_secs(1);

/// Service-plane parameters: the demand the plane is sized for and which
/// calls it measures. The relay capacity headroom, the admission spill
/// depth and the QoS burst length are constants of the orchestrator.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrency the plane is sized to sustain at the diurnal trough.
    pub target_concurrent: u64,
    /// Mean call hold time (exponential).
    pub hold_mean: Dur,
    /// Telemetry window width.
    pub window: Dur,
    /// Diurnal demand shape.
    pub profile: DiurnalProfile,
    /// Peak call arrival rate, calls/s (see [`ServiceConfig::sized`]).
    pub peak_rate_per_s: f64,
    /// Measure SIP setup on every `setup_stride`-th call (1 = all). Only
    /// these calls are measured at all, so this stride also gates
    /// [`ServiceConfig::qos_stride`].
    pub setup_stride: u64,
    /// Run a media QoS burst on every `qos_stride`-th call *among those
    /// `setup_stride` lets through*: the call id must be a multiple of
    /// both, so the real rate is every lcm(`setup_stride`,
    /// `qos_stride`)-th call — `qos_stride` itself only when
    /// `setup_stride` divides it.
    pub qos_stride: u64,
    /// Windows to exclude from the sustained-concurrency figure (ramp-up
    /// from an empty system takes a few hold times).
    pub warmup_windows: usize,
}

impl ServiceConfig {
    /// Sizes the arrival process so the diurnal *trough* still offers
    /// `target_concurrent` sessions in expectation (Little's law:
    /// concurrency = rate × hold), i.e. the target is sustained around the
    /// clock rather than only at peak.
    pub fn sized(
        target_concurrent: u64,
        hold_mean: Dur,
        window: Dur,
        profile: DiurnalProfile,
    ) -> Self {
        let trough = (0..96)
            .map(|i| profile.utilization_at_hour(f64::from(i) / 4.0))
            .fold(f64::INFINITY, f64::min)
            .max(1e-6);
        let peak_rate_per_s = target_concurrent as f64 / (hold_mean.as_secs_f64() * trough);
        Self {
            target_concurrent,
            hold_mean,
            window,
            profile,
            peak_rate_per_s,
            setup_stride: 1,
            qos_stride: 32,
            warmup_windows: 2,
        }
    }

    /// The total relay capacity budget.
    pub fn capacity_budget(&self) -> u64 {
        (self.target_concurrent as f64 * CAPACITY_HEADROOM).round() as u64
    }
}

/// The read-only world the orchestrator measures against. Borrowed per
/// [`Orchestrator::run_windows`] call rather than owned, so a campaign can
/// inject faults, reconverge routing, rebuild the [`PathTable`] and resume
/// the same orchestrator on the post-fault world.
#[derive(Debug, Clone, Copy)]
pub struct ServiceEnv<'a> {
    /// The simulated internet.
    pub internet: &'a Internet,
    /// The relay service overlay.
    pub vns: &'a Vns,
    /// Per-flow channel construction.
    pub factory: &'a ChannelFactory,
    /// Population-weighted endpoints.
    pub endpoints: &'a EndpointTable,
    /// Epoch-cached resolved paths.
    pub paths: &'a PathTable,
}

/// Drives the service plane window by window.
#[derive(Debug)]
pub struct Orchestrator {
    cfg: ServiceConfig,
    tree: RngTree,
    arrivals: ArrivalProcess,
    admission: AdmissionController,
    lifecycle: SessionManager,
    next_window: u64,
    telemetry: ServiceTelemetry,
}

impl Orchestrator {
    /// Builds the orchestrator. `tree` should be a dedicated subtree (e.g.
    /// `tree.subtree("service")`).
    pub fn new(vns: &Vns, cfg: ServiceConfig, tree: RngTree) -> Self {
        let arrivals = ArrivalProcess::new(cfg.peak_rate_per_s, cfg.profile, cfg.window);
        let admission = AdmissionController::new(vns, cfg.capacity_budget(), SPILL_DEPTH);
        let warmup_windows = cfg.warmup_windows;
        Self {
            cfg,
            tree,
            arrivals,
            admission,
            lifecycle: SessionManager::new(),
            next_window: 0,
            telemetry: ServiceTelemetry {
                windows: Vec::new(),
                warmup_windows,
                pop_codes: vns.pops().iter().map(|p| (p.id(), p.code())).collect(),
            },
        }
    }

    /// The telemetry accumulated so far.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// Consumes the orchestrator, yielding its telemetry.
    pub fn into_telemetry(self) -> ServiceTelemetry {
        self.telemetry
    }

    /// Admission state (occupancy, counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The lifecycle manager (active count, clock).
    pub fn lifecycle(&self) -> &SessionManager {
        &self.lifecycle
    }

    /// Configuration access.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Fails `pop`: capacity drops to zero and every live session on it is
    /// torn down immediately. Returns `(previous capacity, sessions torn)`
    /// — hand the capacity back to [`Orchestrator::restore_pop`] later.
    pub fn fail_pop(&mut self, pop: PopId) -> Result<(u64, u64), ServiceError> {
        let prev = self.admission.capacity(pop);
        self.admission.fail_pop(pop)?;
        let torn = self.lifecycle.force_teardown(pop, &mut self.admission);
        Ok((prev, torn))
    }

    /// Restores a failed PoP to capacity `cap`.
    pub fn restore_pop(&mut self, pop: PopId, cap: u64) -> Result<(), ServiceError> {
        self.admission.restore_pop(pop, cap)
    }

    /// Runs the next `count` telemetry windows against `env`, appending one
    /// [`WindowReport`] per window.
    pub fn run_windows(&mut self, env: &ServiceEnv<'_>, count: u64, par: Par) {
        for _ in 0..count {
            let report = self.run_one_window(env, par);
            self.telemetry.windows.push(report);
        }
    }

    fn run_one_window(&mut self, env: &ServiceEnv<'_>, par: Par) -> WindowReport {
        let idx = self.next_window;
        self.next_window += 1;
        let win = Window {
            index: idx,
            width: self.cfg.window,
        };
        let mut report = WindowReport::empty(win);

        // Pass 1: this window's arrival instants (pure function of
        // (seed, idx) — no dependence on previous windows).
        for &t in &self.arrivals.window_arrivals(&self.tree, idx) {
            self.lifecycle.engine.schedule(t, ServiceEvent::Arrival);
        }

        // Pass 2: sequential bookkeeping in event-time order. Split borrows
        // by field so the engine can hand its context to a handler that
        // mutates the sibling state.
        let mut admitted_calls: Vec<CallRecord> = Vec::new();
        {
            let Self {
                cfg,
                tree,
                admission,
                lifecycle,
                ..
            } = self;
            let SessionManager {
                engine,
                active,
                next_id,
                ..
            } = lifecycle;
            // Events at exactly `win.end()` belong to the next window.
            let until = SimTime::from_nanos(win.end().as_nanos().saturating_sub(1));
            engine.run_until(until, |ctx, ev| match ev {
                ServiceEvent::Arrival => {
                    report.arrivals += 1;
                    let id = *next_id;
                    *next_id += 1;
                    let mut rng = tree.stream_args(format_args!("call:{id}"));
                    let (caller, callee) = env.endpoints.sample_pair(&mut rng);
                    let Some(landing) = env.paths.landing_pop(caller) else {
                        // Routing fault cut the caller off from the anycast
                        // address entirely: not an admission rejection.
                        report.unreachable += 1;
                        return;
                    };
                    let (admitted, spilled) = match admission.offer(landing) {
                        Ok(Admission::Primary(pop)) => (pop, false),
                        Ok(Admission::Spilled { admitted, .. }) => (admitted, true),
                        // An unknown landing PoP (Err) is an internal
                        // invariant breach — the debug_assert twin inside
                        // `offer` fires in debug builds; release builds
                        // degrade it to a rejection.
                        Ok(Admission::Rejected) | Err(_) => {
                            report.rejected += 1;
                            return;
                        }
                    };
                    report.admitted += 1;
                    if spilled {
                        report.spilled += 1;
                    }
                    let u: f64 = rng.gen();
                    let hold_ms = (-(1.0 - u).ln() * cfg.hold_mean.as_millis_f64()).max(1.0);
                    let departure = ctx.now() + Dur::from_millis_f64(hold_ms);
                    ctx.schedule_at(departure, ServiceEvent::Departure { id, pop: admitted });
                    active.insert(id, admitted);
                    admitted_calls.push(CallRecord {
                        id,
                        arrival: ctx.now(),
                        departure,
                        caller,
                        callee,
                        landing,
                        admitted,
                        spilled,
                    });
                }
                ServiceEvent::Departure { id, pop } => {
                    // Sessions force-torn by a PoP failure already left the
                    // active set; their departure events are no-ops.
                    if active.remove(&id).is_some() {
                        // The slot was booked at admission on this same
                        // controller, so release only errs on an internal
                        // id mix-up — the debug_assert twin covers it.
                        let _ = admission.release(pop);
                        report.departures += 1;
                    }
                }
            });
        }

        // Pass 3: parallel measurement of the sampled calls. Results fold
        // in canonical (call-id) order regardless of which worker measured
        // what.
        let measured: Vec<CallRecord> = admitted_calls
            .into_iter()
            .filter(|r| r.id.is_multiple_of(self.cfg.setup_stride))
            .collect();
        let outcomes = par.map(&measured, |_, rec| {
            measure_call(env, &self.cfg, &self.tree, rec)
        });
        for o in &outcomes {
            if o.no_route {
                report.no_route += 1;
                continue;
            }
            report.setup.record(o.setup_ms);
            if !o.established {
                report.setup_failures += 1;
            }
            if let Some((loss_pct, jitter_ms)) = o.qos {
                report.qos_samples += 1;
                report.loss.record(loss_pct);
                report.jitter.record(jitter_ms);
            }
            if let Some(confirmed) = o.teardown_confirmed {
                report.teardowns += 1;
                if confirmed {
                    report.teardowns_confirmed += 1;
                }
            }
        }

        report.concurrent_end = self.admission.total_occupancy();
        report.pop_occupancy = self.admission.occupancy_rows();
        report
    }
}

/// Measures one admitted call: SIP setup on the composed caller→relay→
/// callee path; for QoS-sampled calls, a short HD echo burst and the BYE
/// teardown at the scheduled departure. Pure: all randomness comes from
/// `svc:{id}:*` labels.
fn measure_call(
    env: &ServiceEnv<'_>,
    cfg: &ServiceConfig,
    tree: &RngTree,
    rec: &CallRecord,
) -> CallOutcome {
    let id = rec.id;
    let Some(path) = env.paths.call_path(rec.caller, rec.callee, rec.admitted) else {
        return CallOutcome {
            id,
            no_route: true,
            established: false,
            setup_ms: 0.0,
            qos: None,
            teardown_confirmed: None,
        };
    };
    let back = path.reversed();
    let mut fwd = env
        .factory
        .channel_args(&path, format_args!("svc:{id}:fwd"));
    let mut rev = env
        .factory
        .channel_args(&back, format_args!("svc:{id}:rev"));
    let setup = setup_call(&mut fwd, &mut rev, rec.arrival);
    let mut qos = None;
    let mut teardown_confirmed = None;
    if setup.established && id.is_multiple_of(cfg.qos_stride) {
        let media_start = rec.arrival + Dur::from_millis_f64(setup.setup_ms);
        let mut media_rng = tree.stream_args(format_args!("svc:{id}:media"));
        let session_cfg = SessionConfig {
            slot: QOS_BURST,
            duration: QOS_BURST,
        };
        let r = run_echo_session(
            VideoSpec::HD720.packets(media_start, QOS_BURST, &mut media_rng),
            &session_cfg,
            &mut fwd,
            &mut rev,
        );
        qos = Some((r.rt_loss_pct(), r.jitter_ms));
        // The BYE goes out when the call actually ends (the scheduled
        // departure, or right after the burst for very short holds).
        let bye_at = rec.departure.max(media_start + QOS_BURST);
        teardown_confirmed = Some(teardown_call(&mut fwd, &mut rev, bye_at).confirmed);
    }
    CallOutcome {
        id,
        no_route: false,
        established: setup.established,
        setup_ms: setup.setup_ms,
        qos,
        teardown_confirmed,
    }
}
