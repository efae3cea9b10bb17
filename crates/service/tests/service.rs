//! End-to-end service-plane tests on a tiny world.

use vns_core::{build_vns, Pop, Vns, VnsConfig};
use vns_geo::city;
use vns_netsim::diurnal::DiurnalShape;
use vns_netsim::{DiurnalProfile, Dur, Par, RngTree};
use vns_service::{
    AdmissionController, EndpointTable, Orchestrator, PathTable, ServiceConfig, ServiceEnv,
};
use vns_topo::channels::{CalibrationConfig, ChannelFactory};
use vns_topo::{generate, HopKind, HopLabel, Internet, ResolvedHop, ResolvedPath, TopoConfig};

struct World {
    internet: Internet,
    vns: Vns,
    factory: ChannelFactory,
    endpoints: EndpointTable,
    paths: PathTable,
}

fn world(seed: u64) -> World {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("generate");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("converge");
    let tree = RngTree::new(seed);
    let factory = ChannelFactory::new(CalibrationConfig::default(), tree.subtree("channels"));
    let endpoints = EndpointTable::build(&internet, &vns);
    let paths = PathTable::build(&internet, &vns, &endpoints);
    World {
        internet,
        vns,
        factory,
        endpoints,
        paths,
    }
}

fn env(w: &World) -> ServiceEnv<'_> {
    ServiceEnv {
        internet: &w.internet,
        vns: &w.vns,
        factory: &w.factory,
        endpoints: &w.endpoints,
        paths: &w.paths,
    }
}

fn small_config() -> ServiceConfig {
    let profile = DiurnalProfile::new(DiurnalShape::Mixed, 0.6, 0.3, 0.0);
    let mut cfg = ServiceConfig::sized(300, Dur::from_secs(240), Dur::from_secs(300), profile);
    cfg.qos_stride = 16;
    cfg
}

/// Fingerprint of everything determinism must pin: counts, occupancy and
/// sketch-derived percentiles per window.
fn fingerprint(o: &Orchestrator) -> String {
    let mut out = String::new();
    for w in &o.telemetry().windows {
        out.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}\n",
            w.window,
            w.arrivals,
            w.admitted,
            w.spilled,
            w.rejected,
            w.concurrent_end,
            w.pop_occupancy,
            w.setup.quantile(0.99),
            w.loss.quantile(0.99),
            w.jitter.quantile(0.99),
        ));
    }
    out
}

#[test]
fn endpoint_table_covers_routable_prefixes() {
    let w = world(11);
    assert!(w.endpoints.len() > 10, "endpoints {}", w.endpoints.len());
    // Weighted sampling touches many distinct endpoints.
    let mut rng = RngTree::new(9).stream("sample");
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..500 {
        let (a, b) = w.endpoints.sample_pair(&mut rng);
        assert_ne!(a, b, "caller == callee");
        seen.insert(a);
        seen.insert(b);
    }
    assert!(seen.len() > w.endpoints.len() / 4, "seen {}", seen.len());
}

#[test]
fn path_table_composes_spilled_paths() {
    let w = world(11);
    let pops: Vec<_> = w.vns.pops().iter().map(|p| p.id()).collect();
    let mut direct = 0;
    let mut spliced = 0;
    for caller in 0..w.endpoints.len().min(8) {
        let landing = w.paths.landing_pop(caller).expect("routable at build");
        let callee = (caller + 1) % w.endpoints.len();
        if let Some(p) = w.paths.call_path(caller, callee, landing) {
            direct = direct.max(p.hops.len());
        }
        for &other in &pops {
            if other == landing {
                continue;
            }
            if let Some(p) = w.paths.call_path(caller, callee, other) {
                spliced = spliced.max(p.hops.len());
                assert!(
                    p.hops
                        .iter()
                        .any(|h| matches!(h.label, HopLabel::Spill { .. })),
                    "spilled path carries the splice leg"
                );
            }
        }
    }
    assert!(direct >= 2, "direct path hops {direct}");
    assert!(spliced > 0, "no spilled path resolved");
}

/// Hops are `Copy`, and a call path is three slice copies. Over the
/// scale-1 world's endpoints and every (landing, admitted) PoP pair it
/// must equal, hop for hop and label for label, the concatenation the
/// clone-based code built: the access path, then the splice leg (restated
/// here) for a spilled call, then the tail. Reversing it twice gives it
/// back.
#[test]
fn call_paths_by_copy_equal_the_cloned_concatenation() {
    let mut internet = generate(&TopoConfig {
        seed: 77,
        ..TopoConfig::default()
    })
    .expect("generate");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("converge");
    let endpoints = EndpointTable::build(&internet, &vns);
    let paths = PathTable::build(&internet, &vns, &endpoints);
    let info = internet.as_info(vns.as_id());
    let n = endpoints.len();
    let (mut direct, mut spilled) = (0, 0);
    for caller in 0..n {
        let Ok((landing, access)) = vns.anycast_landing(&internet, endpoints.endpoint(caller).ip)
        else {
            assert_eq!(paths.landing_pop(caller), None);
            continue;
        };
        assert_eq!(paths.landing_pop(caller), Some(landing));
        for admitted in vns.pops().iter().map(Pop::id) {
            let callee = (caller * 31 + usize::from(admitted.0)) % n;
            let want = paths.tail(admitted, callee).map(|tail| {
                let mut hops = access.hops.clone();
                let mut routers = access.routers.clone();
                if landing == admitted {
                    routers.extend(tail.routers.iter().skip(1).cloned());
                } else {
                    let (from, to) = (vns.pop(landing).city, vns.pop(admitted).city);
                    hops.push(ResolvedHop {
                        kind: HopKind::IntraAs {
                            asn: info.asn,
                            ty: info.ty,
                            region: city(to).region,
                            dedicated: true,
                        },
                        from_city: from,
                        to_city: to,
                        km: Internet::city_km(from, to).max(1.0),
                        label: HopLabel::Spill {
                            from: landing.0,
                            to: admitted.0,
                        },
                    });
                    routers.extend(tail.routers.iter().cloned());
                }
                hops.extend(tail.hops.iter().cloned());
                ResolvedPath { hops, routers }
            });
            let got = paths.call_path(caller, callee, admitted);
            assert_eq!(got, want, "caller {caller} callee {callee} at {admitted}");
            if let Some(path) = got {
                assert_eq!(path.reversed().reversed(), path);
                if landing == admitted {
                    direct += 1;
                } else {
                    spilled += 1;
                }
            }
        }
    }
    assert!(direct > n / 2, "direct {direct} of {n} callers");
    assert!(spilled > direct, "spilled {spilled}, direct {direct}");
}

#[test]
fn admission_spills_then_rejects() {
    let w = world(11);
    let mut ctl = AdmissionController::new(&w.vns, 40, 2);
    let landing = w.vns.pops()[0].id();
    let mut primary = 0;
    let mut spilled = 0;
    let mut rejected = 0;
    for _ in 0..200 {
        match ctl.offer(landing).expect("landing is a known PoP") {
            vns_service::Admission::Primary(_) => primary += 1,
            vns_service::Admission::Spilled { .. } => spilled += 1,
            vns_service::Admission::Rejected => rejected += 1,
        }
    }
    assert!(primary > 0 && spilled > 0 && rejected > 0);
    // Spill depth 2: only landing + 2 nearest can fill.
    let filled: u64 = ctl.occupancy_rows().iter().map(|&(_, occ, _)| occ).sum();
    assert_eq!(filled, ctl.total_admitted());
    assert_eq!(ctl.total_rejected(), rejected);
}

#[test]
fn steady_state_reaches_and_holds_target() {
    let w = world(11);
    let cfg = small_config();
    let target = cfg.target_concurrent;
    let mut orch = Orchestrator::new(&w.vns, cfg, RngTree::new(7).subtree("service"));
    orch.run_windows(&env(&w), 8, Par::seq());
    let t = orch.telemetry();
    assert_eq!(t.windows.len(), 8);
    // Little's law: concurrency ramps to ~ rate*hold >= target.
    let sustained = t.sustained_concurrent();
    assert!(
        sustained as f64 > target as f64 * 0.7,
        "sustained {sustained} vs target {target}"
    );
    // Capacity is a hard ceiling.
    let budget = orch.config().capacity_budget();
    for w in &t.windows {
        assert!(w.concurrent_end <= budget);
        for &(_, occ, cap) in &w.pop_occupancy {
            assert!(occ <= cap, "occupancy over capacity");
        }
    }
    // Setup latencies were actually measured.
    assert!(t.setup_overall().count() > 100);
    assert!(t.loss_overall().count() > 0, "no QoS samples");
}

#[test]
fn thread_count_cannot_change_telemetry() {
    let run = |par: Par| {
        let w = world(11);
        let mut orch = Orchestrator::new(&w.vns, small_config(), RngTree::new(7).subtree("svc"));
        orch.run_windows(&env(&w), 4, par);
        fingerprint(&orch)
    };
    let seq = run(Par::seq());
    assert!(!seq.is_empty());
    assert_eq!(seq, run(Par::new(2)));
    assert_eq!(seq, run(Par::new(8)));
}

#[test]
fn pop_failure_tears_down_and_redirects() {
    let w = world(11);
    let mut orch = Orchestrator::new(&w.vns, small_config(), RngTree::new(7).subtree("svc"));
    let e = env(&w);
    orch.run_windows(&e, 3, Par::seq());
    // Fail the busiest PoP (lowest id on ties).
    let victim = orch
        .admission()
        .occupancy_rows()
        .iter()
        .copied()
        .max_by_key(|&(p, occ, _)| (occ, std::cmp::Reverse(p)))
        .map(|(p, _, _)| p)
        .expect("pops exist");
    let before = orch.admission().occupancy(victim);
    assert!(before > 0, "victim should be loaded");
    let (prev_cap, torn) = orch.fail_pop(victim).expect("victim is a known PoP");
    assert_eq!(torn, before, "all sessions on the dead PoP torn down");
    assert_eq!(orch.admission().occupancy(victim), 0);
    assert_eq!(orch.admission().capacity(victim), 0);
    // Churn continues: the dead PoP admits nothing, spill takes the load.
    orch.run_windows(&e, 2, Par::seq());
    assert_eq!(orch.admission().occupancy(victim), 0);
    let spilled_after = orch.telemetry().windows.last().expect("windows").spilled;
    assert!(
        spilled_after > 0,
        "landing traffic must spill off the dead PoP"
    );
    // Restore: the PoP fills up again.
    orch.restore_pop(victim, prev_cap)
        .expect("victim is a known PoP");
    orch.run_windows(&e, 2, Par::seq());
    assert!(
        orch.admission().occupancy(victim) > 0,
        "restored PoP takes calls"
    );
}

/// Exercises one admission-controller mutator with a PoP id the
/// controller does not apportion. Debug builds fail the twin
/// `debug_assert!` at the fault site; release builds degrade to the
/// typed `ServiceError::UnknownPop`.
fn assert_unknown_pop<T: std::fmt::Debug>(
    ctl: &mut AdmissionController,
    ghost: vns_core::PopId,
    op: impl FnOnce(&mut AdmissionController) -> Result<T, vns_service::ServiceError>,
) {
    if cfg!(debug_assertions) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(ctl)));
        assert!(
            outcome.is_err(),
            "debug build must assert at the fault site for unknown {ghost}"
        );
    } else {
        match op(ctl) {
            Err(vns_service::ServiceError::UnknownPop(p)) => assert_eq!(p, ghost),
            other => panic!("expected UnknownPop({ghost}), got {other:?}"),
        }
    }
}

#[test]
fn offer_at_unknown_pop_is_a_typed_error() {
    let w = world(11);
    let mut ctl = AdmissionController::new(&w.vns, 40, 2);
    let ghost = vns_core::PopId(200);
    assert!(!w.vns.pops().iter().any(|p| p.id() == ghost));
    assert_unknown_pop(&mut ctl, ghost, |c| c.offer(ghost));
    // The failed offer books nothing and counts nowhere.
    assert_eq!(ctl.total_admitted(), 0);
    assert_eq!(ctl.total_rejected(), 0);
    assert_eq!(ctl.total_occupancy(), 0);
}

#[test]
fn release_at_unknown_pop_is_a_typed_error() {
    let w = world(11);
    let mut ctl = AdmissionController::new(&w.vns, 40, 2);
    let ghost = vns_core::PopId(201);
    assert_unknown_pop(&mut ctl, ghost, |c| c.release(ghost));
    assert_eq!(ctl.total_occupancy(), 0);
}

#[test]
fn fail_pop_at_unknown_pop_is_a_typed_error() {
    let w = world(11);
    let mut ctl = AdmissionController::new(&w.vns, 40, 2);
    let ghost = vns_core::PopId(202);
    assert_unknown_pop(&mut ctl, ghost, |c| c.fail_pop(ghost));
    // No real PoP lost capacity as a side effect.
    for pop in w.vns.pops() {
        assert!(
            ctl.capacity(pop.id()) > 0,
            "{} capacity clobbered",
            pop.id()
        );
    }
}

#[test]
fn restore_pop_at_unknown_pop_is_a_typed_error() {
    let w = world(11);
    let mut ctl = AdmissionController::new(&w.vns, 40, 2);
    let ghost = vns_core::PopId(203);
    assert_unknown_pop(&mut ctl, ghost, |c| c.restore_pop(ghost, 7));
    // The ghost gained no capacity: a follow-up mutator still errs.
    assert_unknown_pop(&mut ctl, ghost, |c| c.fail_pop(ghost));
}
