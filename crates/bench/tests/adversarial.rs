//! Verifier catch-rate gate for the adversarial corpus: every attack whose
//! kind declares expected invariants must trip **exactly those** checks on
//! a converged geo world, and clean worlds in both modes must stay
//! finding-free. This is the committed detection baseline — if a refactor
//! weakens a check and an attack stops being caught, this suite fails the
//! build before the campaign artefact ever drifts.

mod testworld;

use std::collections::BTreeSet;

use vns_bench::World;
use vns_core::AttackKind;
use vns_topo::Internet;
use vns_verify::{verify_dataplane_scoped, DataplaneConfig, Severity, VerifyScope};

/// Seed the gate pins its matrix at (part of the CI sweep).
const GATE_SEED: u64 = 77;

/// Runs both verifier stages and collects the codes of every
/// error-severity finding.
fn fired_invariants(internet: &Internet, vns: &vns_core::Vns) -> BTreeSet<&'static str> {
    let mut fired = BTreeSet::new();
    let control = vns_verify::verify_scoped(internet, vns, &VerifyScope::default());
    for v in control.violations() {
        if v.severity == Severity::Error {
            fired.insert(v.invariant.code());
        }
    }
    let data = verify_dataplane_scoped(
        internet,
        vns,
        &VerifyScope::default(),
        &DataplaneConfig::default(),
    );
    for v in data.report.violations() {
        if v.severity == Severity::Error {
            fired.insert(v.invariant.code());
        }
    }
    fired
}

/// Launches `kind` on a fresh geo world and returns the fired codes.
fn attack_and_verify(kind: AttackKind) -> BTreeSet<&'static str> {
    let mut world: World = testworld::sweep(GATE_SEED, false);
    testworld::launch(&mut world, kind, GATE_SEED)
        .unwrap_or_else(|e| panic!("{kind}: launch failed: {e}"));
    fired_invariants(&world.internet, &world.vns)
}

/// The committed detection baseline: every expected invariant fires for
/// its attack. A regression below this matrix fails the build.
#[test]
fn every_expected_invariant_fires() {
    let mut caught = 0usize;
    let mut detectable = 0usize;
    let mut missed: Vec<String> = Vec::new();
    for kind in AttackKind::ALL {
        let expected = kind.expected_invariants();
        if expected.is_empty() {
            continue; // the declared-miss rows (flap storm) are pinned below
        }
        detectable += 1;
        let fired = attack_and_verify(kind);
        let all_fired = expected.iter().all(|code| fired.contains(code));
        if all_fired {
            caught += 1;
        } else {
            missed.push(format!("{kind}: expected {expected:?}, fired {fired:?}"));
        }
    }
    assert!(
        missed.is_empty(),
        "detection regressed below baseline:\n{}",
        missed.join("\n")
    );
    assert_eq!(caught, detectable);
    // The corpus-wide catch rate the campaign reports: 9 of 10 attacks
    // detected (the flap storm is the documented honest miss).
    let rate = caught as f64 / AttackKind::ALL.len() as f64;
    assert!(rate >= 0.9, "catch rate {rate:.2} below the 0.90 gate");
}

/// The flap storm is the corpus's honest miss: it fully restores every
/// session, so a converged verifier pass *should* be clean — a finding
/// here would be a false positive on a healed network.
#[test]
fn flap_storm_is_clean_after_restoration() {
    let fired = attack_and_verify(AttackKind::FlapStorm);
    assert!(
        fired.is_empty(),
        "healed flap storm raised findings: {fired:?}"
    );
}

/// Zero false positives: un-attacked worlds in both modes have no
/// error-severity findings from either stage.
#[test]
fn clean_worlds_fire_nothing() {
    for hot in [false, true] {
        let world = testworld::sweep(GATE_SEED, hot);
        let fired = fired_invariants(&world.internet, &world.vns);
        assert!(
            fired.is_empty(),
            "false positive on clean world (hot {hot}): {fired:?}"
        );
    }
}

/// The campaign-level gate: the full adversarial campaign's own detection
/// accounting must meet the committed baseline — ≥ 90% catch rate over
/// the corpus, 100% over detectable attacks, zero false positives — and
/// every per-attack verdict must match the per-kind expectation.
#[test]
fn campaign_catch_rate_meets_the_committed_baseline() {
    let geo = testworld::sweep(GATE_SEED, false);
    let hot = testworld::sweep(GATE_SEED, true);
    let result = vns_bench::experiments::adversarial::run(&geo, &hot, vns_netsim::Par::seq());
    for row in &result.attacks {
        let expected_detected = !row.kind.expected_invariants().is_empty();
        assert_eq!(
            row.detected(),
            expected_detected,
            "{}: detection verdict regressed (fired {:?})",
            row.kind,
            row.fired
        );
    }
    assert_eq!(
        result.detected_count(),
        result.detectable_count(),
        "a detectable attack was missed"
    );
    assert!(
        result.catch_rate() >= 0.9,
        "catch rate {:.2} below the 0.90 gate",
        result.catch_rate()
    );
    assert_eq!(
        result.false_positives(),
        0,
        "clean control rows raised findings"
    );
}
