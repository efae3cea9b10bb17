//! The harness against its own contract: `BENCHMARK.json` is what the
//! metric tables render, and a smoke run of every workload — untraced and
//! traced — reports every metric under exactly those names, passes every
//! check, and matches the committed seed-77 digests.

use vns_benchmark::metrics::{contract_json, END_TO_END, PER_LAYER};
use vns_benchmark::sizes::Sizes;
use vns_benchmark::span::SpanId;
use vns_benchmark::{expected_digest, run, Outcome, RunOpts, RUN_SECONDS, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> Outcome {
    run(&RunOpts {
        workload: workload.to_string(),
        seed: 77,
        seconds: 0.0,
        trace,
        sizes: Sizes::SMOKE,
    })
    .expect("smoke run")
}

#[test]
fn benchmark_json_is_rendered_from_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        contract_json(&WORKLOADS, RUN_SECONDS),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- contract > BENCHMARK.json`"
    );
    assert!(committed.len() < 64 * 1024);
    assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for (workload, _) in WORKLOADS {
        assert!(
            expected_digest("smoke", workload, 77).is_some(),
            "{workload}: no committed smoke digest"
        );
        assert!(
            expected_digest("standard", workload, 77).is_some()
                && expected_digest("standard", workload, 1234).is_some(),
            "{workload}: no committed standard digest for seeds 77 and 1234"
        );

        let untraced = smoke(workload, false);
        assert_eq!(untraced.failed, 0, "{workload}");
        assert!(untraced.attempted >= 1);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{workload}");
        for m in &untraced.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload} {}",
                m.name
            );
        }

        let traced = smoke(workload, true);
        assert_eq!(traced.failed, 0, "{workload}");
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{workload}");
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        if workload == "control-build" {
            let packets = traced.metrics.iter().find(|m| m.name == "netsim.packets");
            assert_eq!(
                packets.map(|m| m.value),
                Some(0.0),
                "the packet engine idles"
            );
        }

        // Traced ≡ untraced: same artefact, same counts.
        assert_eq!(traced.digest, untraced.digest, "{workload}");
        assert_eq!(traced.counts, untraced.counts, "{workload}");

        // Parent-linked spans: every span but the roots names a parent
        // that opened before it.
        let trace = traced.trace.expect("a traced run keeps its spans");
        assert!(trace.spans.len() > 10, "{workload}");
        let linked = trace
            .spans
            .iter()
            .filter(|s| s.parent != SpanId::NONE)
            .count();
        assert!(linked * 10 >= trace.spans.len() * 9, "{workload}");
    }
}
