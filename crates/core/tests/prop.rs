//! Property tests for VNS components: the LOCAL_PREF function.

use proptest::prelude::*;
use vns_core::LocalPrefFn;

fn lp_fn() -> impl Strategy<Value = LocalPrefFn> {
    prop_oneof![
        (200u32..5_000, 5.0f64..3_000.0)
            .prop_map(|(floor, band_km)| LocalPrefFn::BandedLinear { floor, band_km }),
        (200u32..5_000, 1.0e5f64..1.0e7)
            .prop_map(|(floor, scale)| LocalPrefFn::Inverse { floor, scale }),
        Just(LocalPrefFn::Stepped),
    ]
}

proptest! {
    #[test]
    fn lp_always_above_default(f in lp_fn(), d in -100.0f64..25_000.0) {
        prop_assert!(f.compute(d) > 100, "{f:?} at {d}");
    }

    #[test]
    fn lp_monotone_nonincreasing(f in lp_fn(), a in 0.0f64..20_000.0, b in 0.0f64..20_000.0) {
        let (near, far) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(f.compute(near) >= f.compute(far), "{f:?}: {near} vs {far}");
    }
}
