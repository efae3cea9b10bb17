//! Seed-sweep smoke test: the simulator must not be tuned to the default
//! seed. Three seeds × both routing modes must build, converge, and come
//! out of `vns-verify` without error-severity findings.

mod testworld;

use vns_bench::World;

const SEEDS: [u64; 3] = [21, 77, 1234];

fn check(mode: &str, seed: u64, w: &World) {
    assert!(
        !w.vns.pops().is_empty(),
        "{mode} seed {seed}: no PoPs built"
    );
    let report = vns_verify::verify(&w.internet, &w.vns);
    assert!(
        report.passes(),
        "{mode} seed {seed}: control plane not clean:\n{report}"
    );
}

/// Both modes at each seed, deployed on one generated Internet.
#[test]
fn both_modes_converge_clean_across_seeds() {
    for seed in SEEDS {
        let (hot, geo) = testworld::hot_and_geo(seed, 0.35);
        check("geo", seed, &geo);
        check("hot", seed, &hot);
    }
}
