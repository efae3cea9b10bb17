//! Metric names, units and directions — the one table `BENCHMARK.json` is
//! rendered from — and the arithmetic that fills them in.

use std::fmt::Write as _;

use crate::fixture::DATAPLANE_STAGES;
use crate::span::Trace;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, exactly as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An end-to-end metric: `(name, unit, better, regression bound)`.
///
/// Every workload reports every one of these, none is ever 0, and each is
/// something a user of the repo feels. The bound is the share of the
/// parent's median by which the metric may worsen before a change counts
/// as a regression; see `README.md` for how each was sized from the A/A
/// spreads on the reference box.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    // Median of the set-up repeats: world build + pre-flight + tables.
    ("setup_s", "s", "lower", 0.25),
    // Wall clock of one timed rep of the workload's fixed work.
    ("wall_s", "s", "lower", 0.25),
    // Host latency of the workload's operation (a flow, a convergence, a
    // fault event to certified, a telemetry window): the median within
    // each timed rep. No tail percentile is bounded: `control-build` has
    // one operation per rep, far short of the hundred a p90 needs.
    ("op_ms_p50", "ms", "lower", 0.25),
    // VmHWM of the process that ran the workload.
    ("peak_rss_mib", "MiB", "lower", 0.05),
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Median duration of the named span, times a factor from ns.
    Median(&'static str, f64),
    /// Mean duration of the named span, times a factor from ns.
    Mean(&'static str, f64),
    /// Total duration / total recorded work over the named spans, times a
    /// factor from ns.
    PerWork(&'static [&'static str], f64),
    /// A count that repeats exactly (`#` in the README).
    Count(&'static str),
    /// A host-dependent value the run measured directly.
    Value(&'static str),
}

const NS_TO_S: f64 = 1e-9;
const NS_TO_MS: f64 = 1e-6;
const NS_TO_US: f64 = 1e-3;

/// A per-layer metric: `(name, unit, better, source)`. Layers are the
/// crates; every workload's traced run reports every one (0 where the
/// layer does nothing on that workload and the replay has no stand-in).
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [(&str, &str, &str, Source); 56] = [
    // vns-topo
    ("topo.generate_s", "s", "lower", Source::Median("topo.generate", NS_TO_S)),
    ("topo.channel_build_us", "us", "lower", Source::Median("topo.channel_build", NS_TO_US)),
    ("topo.blackout_cache_entries", "count", "lower", Source::Count("topo.blackout_cache_entries")),
    // vns-bgp
    ("bgp.conv_msgs", "count", "lower", Source::Count("bgp.conv_msgs")),
    ("bgp.conv_rounds", "count", "lower", Source::Count("bgp.conv_rounds")),
    ("bgp.conv_activations", "count", "lower", Source::Count("bgp.conv_activations")),
    ("bgp.reconverge_ms_p50", "ms", "lower", Source::Median("bgp.reconverge", NS_TO_MS)),
    ("bgp.reconverge_msgs_per_event", "count", "lower", Source::Count("bgp.reconverge_msgs_per_event")),
    ("bgp.forwarding_path_us", "us", "lower", Source::PerWork(&["bgp.forwarding_path"], NS_TO_US)),
    ("bgp.rss_after_converge_mib", "MiB", "lower", Source::Value("bgp.rss_after_converge_mib")),
    // vns-core
    ("core.build_vns_s", "s", "lower", Source::Median("core.build_vns", NS_TO_S)),
    ("core.path_resolve_us", "us", "lower", Source::Median("core.path_resolve", NS_TO_US)),
    ("core.fault_apply_ms", "ms", "lower", Source::Median("core.fault_apply", NS_TO_MS)),
    // vns-netsim + vns-media
    ("netsim.packets", "count", "higher", Source::Count("netsim.packets")),
    ("netsim.units", "count", "higher", Source::Count("netsim.units")),
    ("media.session_ms_p50", "ms", "lower", Source::Median("media.session", NS_TO_MS)),
    ("media.ns_per_pkt_hop", "ns", "lower", Source::PerWork(&["media.session"], 1.0)),
    ("media.setup_call_us", "us", "lower", Source::Median("media.setup_call", NS_TO_US)),
    // vns-probe
    ("probe.rtt_probe_us", "us", "lower", Source::Median("probe.rtt_probe", NS_TO_US)),
    ("probe.train_ns_per_pkt", "ns", "lower", Source::PerWork(&["probe.train_series"], 1.0)),
    // vns-service
    ("service.endpoint_table_build_ms", "ms", "lower", Source::Median("service.endpoint_table_build", NS_TO_MS)),
    ("service.path_table_build_ms", "ms", "lower", Source::Median("service.path_table_build", NS_TO_MS)),
    ("service.call_path_us", "us", "lower", Source::Median("service.call_path", NS_TO_US)),
    ("service.window_ms_steady_p50", "ms", "lower", Source::Median("service.window.steady", NS_TO_MS)),
    ("service.window_ms_fault_mean", "ms", "lower", Source::Mean("service.window.fault", NS_TO_MS)),
    (
        "service.us_per_arrival",
        "us",
        "lower",
        Source::PerWork(
            &["service.window.steady", "service.window.fault", "service.window.recovered"],
            NS_TO_US,
        ),
    ),
    ("service.fail_pop_ms", "ms", "lower", Source::Median("service.fail_pop", NS_TO_MS)),
    ("service.arrivals", "count", "higher", Source::Count("service.arrivals")),
    ("service.admitted", "count", "higher", Source::Count("service.admitted")),
    ("service.measured_calls", "count", "higher", Source::Count("service.measured_calls")),
    ("service.rejected", "count", "lower", Source::Count("service.rejected")),
    ("service.spilled", "count", "lower", Source::Count("service.spilled")),
    ("service.unreachable", "count", "lower", Source::Count("service.unreachable")),
    ("service.sustained_concurrent", "count", "higher", Source::Count("service.sustained_concurrent")),
    // vns-stats
    ("stats.sketch_record_ns", "ns", "lower", Source::PerWork(&["stats.sketch_record"], 1.0)),
    ("stats.sketch_merge_us", "us", "lower", Source::PerWork(&["stats.sketch_merge"], NS_TO_US)),
    // vns-verify
    ("verify.control_s", "s", "lower", Source::Median("verify.control", NS_TO_S)),
    ("verify.dataplane_s", "s", "lower", Source::Median("verify.dataplane", NS_TO_S)),
    (DATAPLANE_STAGES[0].2, "s", "lower", Source::Median(DATAPLANE_STAGES[0].1, NS_TO_S)),
    (DATAPLANE_STAGES[1].2, "s", "lower", Source::Median(DATAPLANE_STAGES[1].1, NS_TO_S)),
    (DATAPLANE_STAGES[2].2, "s", "lower", Source::Median(DATAPLANE_STAGES[2].1, NS_TO_S)),
    (DATAPLANE_STAGES[3].2, "s", "lower", Source::Median(DATAPLANE_STAGES[3].1, NS_TO_S)),
    (DATAPLANE_STAGES[4].2, "s", "lower", Source::Median(DATAPLANE_STAGES[4].1, NS_TO_S)),
    (DATAPLANE_STAGES[5].2, "s", "lower", Source::Median(DATAPLANE_STAGES[5].1, NS_TO_S)),
    ("verify.control_scoped_ms_p50", "ms", "lower", Source::Median("verify.control_scoped", NS_TO_MS)),
    ("verify.dataplane_scoped_ms_p50", "ms", "lower", Source::Median("verify.dataplane_scoped", NS_TO_MS)),
    ("verify.findings", "count", "lower", Source::Count("verify.findings")),
    // vns-geo
    ("geo.geoip_lookup_ns", "ns", "lower", Source::PerWork(&["geo.geoip_lookup"], 1.0)),
    // vns-bench (set-up) and the host
    ("bench.world_build_s", "s", "lower", Source::Median("bench.world_build", NS_TO_S)),
    ("bench.preflight_s", "s", "lower", Source::Median("bench.preflight", NS_TO_S)),
    ("bench.flow_setup_share_pct", "%", "lower", Source::Value("bench.flow_setup_share_pct")),
    ("bench.traced_op_ms_p50", "ms", "lower", Source::Value("bench.traced_op_ms_p50")),
    ("host.cpu_user_s", "s", "lower", Source::Value("host.cpu_user_s")),
    ("host.cpu_sys_s", "s", "lower", Source::Value("host.cpu_sys_s")),
    ("host.minor_faults", "count", "lower", Source::Value("host.minor_faults")),
    ("host.tracing_overhead_pct", "%", "lower", Source::Value("host.tracing_overhead_pct")),
];

/// Quantile `q` of `xs` by linear interpolation between closest ranks; 0
/// for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

fn lookup<T: Copy + Default>(pairs: &[(&'static str, T)], name: &str) -> T {
    pairs
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(T::default(), |(_, v)| *v)
}

/// Fills in every [`PER_LAYER`] metric from a traced run's spans, its
/// exact counts and its directly measured values.
pub fn per_layer(
    trace: &Trace,
    counts: &[(&'static str, u64)],
    values: &[(&'static str, f64)],
) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _, source)| {
            let value = match source {
                Source::Median(span, k) => median(&trace.durs(span)) * k,
                Source::Mean(span, k) => {
                    let d = trace.durs(span);
                    if d.is_empty() {
                        0.0
                    } else {
                        d.iter().sum::<f64>() / d.len() as f64 * k
                    }
                }
                Source::PerWork(spans, k) => trace.ns_per_work(spans) * k,
                Source::Count(c) => lookup(counts, c) as f64,
                Source::Value(v) => lookup(values, v),
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A finite JSON number with all its digits (`Display` for `f64` is the
/// shortest string that round-trips); non-finite values, which JSON cannot
/// carry, become 0 and are caught by the caller's checks.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// `BENCHMARK.json`, rendered from the tables above and the workload list.
pub fn contract_json(workloads: &[(&str, &str)], run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}",
            if i + 1 == workloads.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{}",
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better, _)) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{}",
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            3,
            0,
            &[Metric {
                name: "wall_s",
                value: 1.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
