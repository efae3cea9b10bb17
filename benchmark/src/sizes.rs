//! The fixed sizes of every workload.
//!
//! Two presets and nothing else to tune: `standard` is what
//! `BENCHMARK.json` runs and what any claim must use; `smoke` exists to
//! exercise the plumbing (schema, digests, spans) in seconds and is marked
//! not-for-claims in its output.
//!
//! `standard` is sized so one rep of every workload takes 1–3 s on the
//! reference box (2 shared vCPUs): a 10 s run then holds 4–10 timed reps
//! behind the warm-up rep, which is what makes the medians steady. The
//! larger shapes the ROADMAP quotes (fig9 at 120 sessions/arm, a scale-3
//! build, 128k-call steady-state) are the same code paths at 8× the work;
//! they stay on the `vns-bench` ledger.

use std::fmt;

/// Workload sizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Preset name.
    pub label: &'static str,
    /// Scale of the world every workload sets up (1.0 ≈ 139 ASes, 366
    /// prefixes).
    pub scale: f64,
    /// How many times set-up is repeated where the reps use what it builds
    /// (`Workload::REPS_USE_SETUP`); `setup_s` is the median.
    pub setup_reps: usize,
    /// `media-long-flows`: 2-minute HD1080 sessions per (client, echo,
    /// via) arm.
    pub media_sessions_per_arm: usize,
    /// `probe-short-flows`: via-VNS / via-upstream probe rounds from AMS.
    pub probe_via_rounds: usize,
    /// `probe-short-flows`: hosts per (AS type, region) cell.
    pub probe_hosts_per_cell: usize,
    /// `probe-short-flows`: last-mile train campaign span, hours (one
    /// 100-packet train per host per vantage every 30 minutes).
    pub probe_train_hours: u64,
    /// `control-build`: scale of the world built and verified per rep.
    pub control_scale: f64,
    /// `fault-reconverge`: events in the script (even: every fault is
    /// followed by its repair).
    pub fault_events: usize,
    /// `service-churn`: `vns-bench --sessions` (target concurrency / 3200).
    pub service_sessions: usize,
    /// `service-churn`: `vns-bench --days` (steady windows / 5, floor 6).
    pub service_days: f64,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub const STANDARD: Sizes = Sizes {
        label: "standard",
        scale: 1.0,
        setup_reps: 5,
        media_sessions_per_arm: 15,
        probe_via_rounds: 3,
        probe_hosts_per_cell: 10,
        probe_train_hours: 24,
        control_scale: 2.0,
        fault_events: 16,
        service_sessions: 5,
        service_days: 2.0,
    };

    /// Plumbing check only — not for claims.
    pub const SMOKE: Sizes = Sizes {
        label: "smoke",
        scale: 0.45,
        setup_reps: 1,
        media_sessions_per_arm: 2,
        probe_via_rounds: 1,
        probe_hosts_per_cell: 2,
        probe_train_hours: 6,
        control_scale: 0.45,
        fault_events: 12,
        service_sessions: 1,
        service_days: 0.5,
    };
}

impl fmt::Display for Sizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preset={} scale={} setup_reps={} media_sessions_per_arm={} probe_via_rounds={} \
             probe_hosts_per_cell={} probe_train_hours={} control_scale={} fault_events={} \
             service_sessions={} service_days={}",
            self.label,
            self.scale,
            self.setup_reps,
            self.media_sessions_per_arm,
            self.probe_via_rounds,
            self.probe_hosts_per_cell,
            self.probe_train_hours,
            self.control_scale,
            self.fault_events,
            self.service_sessions,
            self.service_days,
        )
    }
}
