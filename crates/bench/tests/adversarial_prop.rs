//! Property: the verifier survives *arbitrary* adversarial pressure.
//! Random attack sequences — any kinds, any order, stacked on one world
//! in either routing mode — must never panic either verifier stage, and
//! the control plane must stay quiescent after every launched attack.
//! On geo worlds, a converged anycast hijack must always be caught: the
//! exact hijack by NO-BLACKHOLE, the forged-registry interception by
//! ANYCAST-NEAREST.

mod testworld;

use proptest::prelude::*;
use vns_core::AttackKind;
use vns_verify::{verify_dataplane_scoped, DataplaneConfig, Severity, VerifyScope};

/// Error-severity invariant codes fired by both stages.
fn fired(world: &vns_bench::World) -> std::collections::BTreeSet<&'static str> {
    let scope = VerifyScope::default();
    let control = vns_verify::verify_scoped(&world.internet, &world.vns, &scope);
    let data = verify_dataplane_scoped(
        &world.internet,
        &world.vns,
        &scope,
        &DataplaneConfig::default(),
    );
    control
        .violations()
        .iter()
        .chain(data.report.violations())
        .filter(|v| v.severity == Severity::Error)
        .map(|v| v.invariant.code())
        .collect()
}

proptest! {
    // Each case builds and converges a full world, then reconverges it
    // after every attack; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Attack sequences of any composition leave a quiescent net and a
    /// checker that completes both stages without panicking. Attacks may
    /// legitimately fail to stage (`Err` on a world with no target); they
    /// must never tear the net or kill the verifier.
    #[test]
    fn random_attack_sequences_never_panic_the_checker(
        seed in 0u64..64,
        hot in any::<bool>(),
        picks in prop::collection::vec(0usize..AttackKind::ALL.len(), 1..4),
    ) {
        let mut world = testworld::tiny_mode(seed, hot);
        for pick in picks {
            let kind = AttackKind::ALL[pick];
            // An attack may fail to stage (no viable target on this
            // world); staged or not, the net must be left quiescent.
            let staged = testworld::launch(&mut world, kind, seed).is_ok();
            prop_assert!(
                world.internet.net.is_quiescent(),
                "{kind} left the net torn (staged {staged}, seed {seed}, hot {hot})"
            );
            // Both stages must complete on every intermediate state.
            let _ = fired(&world);
        }
    }

    /// Every converged anycast hijack on a geo world is detected: the
    /// checker has no blind spot anywhere in the seed space, not just on
    /// the seeds the example tests sweep.
    #[test]
    fn converged_anycast_hijacks_are_always_detected_on_geo(
        seed in 0u64..64,
        interception in any::<bool>(),
    ) {
        let kind = if interception {
            AttackKind::AnycastInterception
        } else {
            AttackKind::AnycastExactHijack
        };
        let mut world = testworld::tiny_mode(seed, false);
        testworld::launch(&mut world, kind, seed)
            .expect("anycast attacks always stage (the VNS always has an upstream)");
        let codes = fired(&world);
        for code in kind.expected_invariants() {
            prop_assert!(
                codes.contains(code),
                "{kind} escaped {code} on seed {seed} (fired {codes:?})"
            );
        }
    }
}
