//! Property tests: CDF axioms, quantile bounds and histogram conservation.

use proptest::prelude::*;
use vns_stats::{Ccdf, Cdf, Histogram};

fn samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, 1..300)
}

proptest! {
    #[test]
    fn cdf_monotone_and_bounded(xs in samples(), probes in prop::collection::vec(-2.0e6f64..2.0e6, 1..50)) {
        let cdf = Cdf::new(xs);
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for x in sorted {
            let f = cdf.at(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        prop_assert_eq!(cdf.at(f64::INFINITY), 1.0);
    }

    #[test]
    fn quantiles_within_sample_range(xs in samples(), q in 0.0f64..=1.0) {
        let cdf = Cdf::new(xs.clone());
        let v = cdf.quantile(q).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min && v <= max);
        prop_assert!(xs.contains(&v), "nearest-rank returns a sample");
    }

    #[test]
    fn ccdf_complements_cdf(xs in samples(), probe in -2.0e6f64..2.0e6) {
        let cdf = Cdf::new(xs.clone());
        let ccdf = Ccdf::new(xs);
        prop_assert!((cdf.at(probe) + ccdf.at(probe) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_conserves_count(xs in prop::collection::vec(-10.0f64..40.0, 0..200)) {
        let mut h = Histogram::hourly();
        for x in &xs {
            h.record(*x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let from_rows: u64 = h.rows().iter().map(|(_, c)| c).sum();
        prop_assert_eq!(from_rows, xs.len() as u64);
    }
}
