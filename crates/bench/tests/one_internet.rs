//! One Internet per run: a deployment on a clone of a generated Internet
//! is the world `World::build` gives, and the campaigns that rewrite a
//! control plane leave the world they fork as it was, because the later
//! rows of a `vns-bench` run read that world.

mod testworld;

use vns_bench::experiments::{adversarial, failover, steady_state};
use vns_bench::{World, WorldConfig};
use vns_netsim::Par;
use vns_topo::generate;

use testworld::{rib_snapshot, REPRO_SEED};

#[test]
fn a_deployment_on_a_cloned_internet_equals_a_build() {
    let internet = generate(&WorldConfig::tiny(REPRO_SEED).topo()).expect("generate");
    for hot in [false, true] {
        let mut config = WorldConfig::tiny(REPRO_SEED);
        config.vns.mode = testworld::mode(hot);
        let deployed = World::deploy(internet.clone(), config.clone());
        let built = World::build(config);
        assert_eq!(
            rib_snapshot(&deployed.internet),
            rib_snapshot(&built.internet),
            "hot {hot}"
        );
        assert_eq!(
            deployed.internet.convergence_log, built.internet.convergence_log,
            "hot {hot}"
        );
    }
}

#[test]
fn campaigns_leave_the_world_they_fork_as_it_was() {
    let geo = testworld::tiny(REPRO_SEED);
    let hot = testworld::tiny_mode(REPRO_SEED, true);
    let igp_edges = |w: &World| {
        let igp = w.internet.as_info(w.vns.as_id()).igp.as_ref();
        igp.expect("VNS IGP").edges()
    };
    let geo_ribs = rib_snapshot(&geo.internet);
    let hot_ribs = rib_snapshot(&hot.internet);
    let geo_igp = igp_edges(&geo);

    let par = Par::new(2);
    assert!(failover::run(&geo, par).all_verified());
    assert!(!adversarial::run(&geo, &hot, par).attacks.is_empty());
    let opts = steady_state::SteadyStateOpts {
        target_concurrent: 300,
        windows: 4,
    };
    steady_state::run_on(&geo, opts, par);

    assert_eq!(rib_snapshot(&geo.internet), geo_ribs);
    assert_eq!(rib_snapshot(&hot.internet), hot_ribs);
    assert_eq!(igp_edges(&geo), geo_igp);
    assert!(geo.vns.overrides().is_empty());
}
