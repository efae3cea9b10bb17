//! Cross-thread reproducibility: the whole point of the deterministic
//! campaign engine. Every experiment artefact must be **byte-identical**
//! whether a campaign runs on one worker or eight — the work units'
//! RNG streams derive from (seed, unit label), never from walk order, and
//! results merge in canonical unit order.
//!
//! Each check renders the experiment's full `Display` artefact (the thing
//! `vns-bench` prints and writes with `--out`) at `--threads 1` and
//! `--threads 8` from freshly built worlds and compares the strings.

mod testworld;

use vns_bench::experiments::{
    adversarial, failover, fig10, fig11, fig3, fig9, steady_state, table1,
};
use vns_bench::World;
use vns_netsim::{Dur, Par};

fn tiny_world() -> World {
    testworld::tiny(testworld::REPRO_SEED)
}

/// Renders one artefact at a given thread count, world built fresh so no
/// state leaks between runs.
fn render(par: Par, run: impl Fn(&World, Par) -> String) -> String {
    let w = tiny_world();
    run(&w, par)
}

fn assert_identical(name: &str, run: impl Fn(&World, Par) -> String) {
    let seq = render(Par::seq(), &run);
    assert!(!seq.is_empty(), "{name}: empty artefact");
    for threads in [2, 8] {
        let par = render(Par::new(threads), &run);
        assert_eq!(
            seq, par,
            "{name}: artefact differs between --threads 1 and --threads {threads}"
        );
    }
    // And a second sequential run from scratch reproduces too (guards
    // against hidden global state masquerading as thread-sensitivity).
    let seq2 = render(Par::seq(), &run);
    assert_eq!(seq, seq2, "{name}: sequential rerun differs");
}

#[test]
fn fig3_artefact_is_byte_identical_across_thread_counts() {
    assert_identical("fig3", |w, par| fig3::run(w, par).to_string());
}

#[test]
fn fig9_artefact_is_byte_identical_across_thread_counts() {
    assert_identical("fig9", |w, par| fig9::run(w, 6, par).to_string());
}

#[test]
fn fig11_artefact_is_byte_identical_across_thread_counts() {
    assert_identical("fig11", |w, par| {
        let data = fig11::run_campaign(w, 3, Dur::from_mins(60), Dur::from_hours(12), par);
        fig11::run(&data).to_string()
    });
}

#[test]
fn fig10_artefact_is_byte_identical_across_thread_counts() {
    // fig10 reuses fig9's raw sessions, so this also pins the per-slot
    // loss counts (not just the aggregated CCDF) across thread counts.
    assert_identical("fig10", |w, par| {
        let nine = fig9::run(w, 6, par);
        fig10::run(&nine.sessions).to_string()
    });
}

#[test]
fn table1_artefact_is_byte_identical_across_thread_counts() {
    assert_identical("table1", |w, par| {
        let data = fig11::run_campaign(w, 3, Dur::from_mins(60), Dur::from_hours(12), par);
        table1::run(&data).to_string()
    });
}

#[test]
fn failover_artefact_is_byte_identical_across_thread_counts() {
    // Failover units each mutate their own fork of the world, so this
    // also pins the incremental-reconvergence engine (disconnect/
    // reconnect, fault injection, scoped verify) across thread counts.
    assert_identical("failover", |w, par| failover::run(w, par).to_string());
}

#[test]
fn adversarial_artefact_is_byte_identical_across_thread_counts() {
    // Each unit forks and attacks the world; this pins the whole corpus —
    // attack staging, incremental reconvergence, both verifier stages,
    // flow replay and the live call slice — across thread counts.
    let hot = testworld::tiny_mode(testworld::REPRO_SEED, true);
    assert_identical("adversarial", |w, par| {
        adversarial::run(w, &hot, par).to_string()
    });
}

#[test]
fn steady_state_artefact_is_byte_identical_across_thread_counts() {
    // The full three-phase campaign: Poisson churn, PoP failure with
    // reconvergence + path-table rebuild, recovery. Per-call measurement
    // fans out over the workers, so this pins the service plane's
    // label-derived RNG streams and canonical-order folds end to end.
    let opts = steady_state::SteadyStateOpts {
        target_concurrent: 900,
        windows: 6,
    };
    assert_identical("steady-state", |w, par| {
        steady_state::run_on(w, opts, par).to_string()
    });
}

#[test]
fn rr_failover_reconverges_clean_with_bounded_outage() {
    // The acceptance scenario: a route-reflector failover must reconverge
    // to quiescence with zero scoped-verify violations, and no monitored
    // flow's outage window may exceed a sane bound.
    let w = tiny_world();
    let result = failover::run(&w, Par::seq());
    let rr = result.scenarios.iter().find(|s| s.name == "rr-failover");
    let rr = rr.expect("scenario present");
    assert!(!rr.steps.is_empty());
    for step in &rr.steps {
        assert_eq!(step.verify_errors, 0, "{}: verify errors", step.event);
    }
    // RR loss is control-plane only: the redundant reflector keeps every
    // data path alive (the paper's Sec 3.2 fn. 1 redundancy claim).
    assert!(
        rr.steps[0].affected.is_empty(),
        "RR failover perturbed data paths: {:?}",
        rr.steps[0].affected
    );
    assert!(result.all_verified());
    let max_outage = result.max_outage_ms();
    assert!(
        max_outage < 30_000.0,
        "unbounded outage window: {max_outage} ms"
    );
}

#[test]
fn media_sub_units_are_per_session_and_ledger_counted() {
    // The batch engine splits media arms into (arm × session) sub-units:
    // the ledger must count one unit per session, and the merged report
    // list must be in canonical (arm, session) order — byte-identical at
    // threads 1/2/8 — because every sub-unit's RNG state derives from its
    // stable label, never from walk order.
    use vns_bench::campaign::media_campaign;
    use vns_core::PopId;
    use vns_media::VideoSpec;
    use vns_netsim::{ledger, SimTime};

    let w = tiny_world();
    let clients = [PopId(1), PopId(2)];
    let sessions_per_arm = 7usize;
    let run = |par: Par| {
        media_campaign(
            &w,
            &clients,
            VideoSpec::HD720,
            sessions_per_arm,
            SimTime::EPOCH + Dur::from_hours(8),
            par,
        )
    };
    // A sequential run counts into this thread's ledger cell only; other
    // tests' multi-worker runs move the process-wide merged total.
    let earlier = ledger::take_local();
    let seq = run(Par::seq());
    let counted = ledger::take_local();
    ledger::merge(earlier);
    ledger::merge(counted);
    let expected_units = clients.len() * w.vns.echo_servers().len() * 2 * sessions_per_arm;
    assert_eq!(
        counted.units, expected_units as u64,
        "one ledger unit per (arm, session) sub-unit"
    );
    assert_eq!(seq.len(), expected_units, "every sub-unit routed");
    for threads in [2, 8] {
        assert_eq!(
            seq,
            run(Par::new(threads)),
            "media sub-unit reports differ at --threads {threads}"
        );
    }
}

#[test]
fn odd_thread_counts_agree_too() {
    // 3 workers over a unit count that does not divide evenly exercises
    // uneven work stealing; the artefact must still match.
    let a = render(Par::new(3), |w, par| fig9::run(w, 5, par).to_string());
    let b = render(Par::seq(), |w, par| fig9::run(w, 5, par).to_string());
    assert_eq!(a, b, "fig9 differs at --threads 3");
}
