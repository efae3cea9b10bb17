//! Calibration-rule tests for the channel factory: the region-pair rules
//! that encode the paper's transit observations, and the factory's
//! per-world calibration table against the per-hop integral it replaced.

use vns_bgp::Asn;
use vns_geo::cities::{cities_in_region, city_by_name};
use vns_geo::{city, Region};
use vns_netsim::{DiurnalProfile, DiurnalShape, LossModel, RngTree};
use vns_topo::channels::TransitProfile;
use vns_topo::path::{HopKind, HopLabel, ResolvedHop, ResolvedPath};
use vns_topo::{AsType, CalibrationConfig, ChannelFactory};

fn factory() -> ChannelFactory {
    ChannelFactory::new(CalibrationConfig::default(), RngTree::new(1).subtree("t"))
}

fn haul(from: &str, to: &str, km: f64) -> ResolvedHop {
    let (from, to) = (
        city_by_name(from).expect("known city").0,
        city_by_name(to).expect("known city").0,
    );
    ResolvedHop {
        kind: HopKind::IntraAs {
            asn: Asn(9),
            ty: AsType::Ltp,
            region: city(to).region,
            dedicated: false,
        },
        from_city: from,
        to_city: to,
        km,
        label: HopLabel::Intra {
            asn: Asn(9),
            from,
            to,
        },
    }
}

#[test]
fn transatlantic_takes_the_milder_profile() {
    // NA->EU ~ EU->EU per km (the paper: "loss from NA PoPs to EU
    // destinations is comparable to that from EU PoPs").
    let f = factory();
    let atlantic = f.loss_model(&haul("NewYork", "London", 6000.0)).mean_rate();
    let eu_same_km = f.loss_model(&haul("Oslo", "Athens", 6000.0)).mean_rate();
    assert!(
        atlantic <= eu_same_km * 1.3,
        "atlantic {atlantic} vs EU-internal {eu_same_km}"
    );
}

#[test]
fn eu_ap_route_is_hot() {
    // The Suez-era EU<->AP haul takes the heavy AP profile: far lossier
    // than a trans-Atlantic of the same length.
    let f = factory();
    let suez = f
        .loss_model(&haul("Frankfurt", "Singapore", 6000.0))
        .mean_rate();
    let atlantic = f.loss_model(&haul("NewYork", "London", 6000.0)).mean_rate();
    assert!(
        suez > 2.0 * atlantic,
        "EU-AP {suez} should dwarf Atlantic {atlantic}"
    );
}

#[test]
fn transpacific_is_premium() {
    // NA<->AP takes the milder NA profile (the paper's SJS observation).
    let f = factory();
    let pacific = f
        .loss_model(&haul("SanJose", "Singapore", 13000.0))
        .mean_rate();
    let suez = f
        .loss_model(&haul("Frankfurt", "Singapore", 13000.0))
        .mean_rate();
    assert!(
        pacific < suez,
        "trans-Pacific {pacific} should be cleaner than EU-AP {suez}"
    );
}

#[test]
fn scarce_regions_dominate_their_hauls() {
    // Anything touching OC/ME/AF/SA runs on the hot "rest" profile.
    let f = factory();
    let au = f
        .loss_model(&haul("Singapore", "Sydney", 6300.0))
        .mean_rate();
    let intra_ap = f
        .loss_model(&haul("Singapore", "HongKong", 6300.0))
        .mean_rate();
    assert!(
        au >= intra_ap,
        "AU haul {au} at least as hot as AP {intra_ap}"
    );
}

#[test]
fn long_leased_ports_are_oversubscribed() {
    // The >2000 km InterAs case (London's Ashburn port) must be far
    // lossier than a metro cross-connect.
    let f = factory();
    let mk = |km| ResolvedHop {
        kind: HopKind::InterAs {
            region: Region::NorthAmerica,
        },
        from_city: city_by_name("London").unwrap().0,
        to_city: city_by_name("Ashburn").unwrap().0,
        km,
        label: HopLabel::TransitPort {
            asn: Asn(9),
            upstream: Asn(10),
            city: city_by_name("Ashburn").unwrap().0,
        },
    };
    let metro = f.loss_model(&mk(1.0)).mean_rate();
    let backhaul = f.loss_model(&mk(5900.0)).mean_rate();
    assert!(
        backhaul > 20.0 * metro,
        "backhaul {backhaul} vs metro {metro}"
    );
}

#[test]
fn last_mile_diurnality_differs_by_type() {
    // CAHPs peak in the evening, ECs during business hours.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vns_netsim::{Dur, LossProcess, SimTime};
    let f = factory();
    let lm = |ty| ResolvedHop {
        kind: HopKind::LastMile {
            ty,
            region: Region::Europe,
        },
        from_city: city_by_name("Amsterdam").unwrap().0,
        to_city: city_by_name("Amsterdam").unwrap().0,
        km: 30.0,
        label: HopLabel::LastMile {
            asn: Asn(ty as u32),
            prefix: "10.0.0.0/24".parse().unwrap(),
        },
    };
    let prob_at = |ty, hour: u64| {
        let model = f.loss_model(&lm(ty));
        // Average the window probability over many fluctuation draws.
        let mut acc = 0.0;
        for s in 0..60 {
            let mut p = LossProcess::new(model.clone(), SmallRng::seed_from_u64(s));
            acc += p.loss_prob(SimTime::EPOCH + Dur::from_hours(hour) + Dur::from_secs(s));
        }
        acc / 60.0
    };
    // Amsterdam is UTC+0.33h; local evening ~ 20:00 local ≈ 20h sim.
    let cahp_evening = prob_at(AsType::Cahp, 20);
    let cahp_dawn = prob_at(AsType::Cahp, 4);
    assert!(
        cahp_evening > 3.0 * cahp_dawn.max(1e-9),
        "CAHP evening {cahp_evening} vs dawn {cahp_dawn}"
    );
    let ec_noon = prob_at(AsType::Ec, 13);
    let ec_dawn = prob_at(AsType::Ec, 4);
    assert!(
        ec_noon > 3.0 * ec_dawn.max(1e-9),
        "EC noon {ec_noon} vs dawn {ec_dawn}"
    );
}

/// The loss model as `ChannelFactory::loss_model` computed it before the
/// calibration table: every congestion hop builds a probe model at
/// `max_p = 1` and integrates it ([`LossModel::mean_rate`]) to scale its
/// peak probability. Kept here as the oracle the table must equal.
mod oracle {
    use super::*;

    fn congestion_with_mean(
        target: f64,
        shape: DiurnalShape,
        base: f64,
        amplitude: f64,
        knee: f64,
        utc_offset: f64,
        sigma: f64,
    ) -> LossModel {
        let probe = LossModel::Congestion {
            profile: DiurnalProfile::new(shape, base, amplitude, utc_offset),
            knee,
            max_p: 1.0,
            fluctuation_sigma: sigma,
        };
        let unit_mean = probe.mean_rate();
        let max_p = if unit_mean > 0.0 {
            (target / unit_mean).min(1.0)
        } else {
            0.0
        };
        LossModel::Congestion {
            profile: DiurnalProfile::new(shape, base, amplitude, utc_offset),
            knee,
            max_p,
            fluctuation_sigma: sigma,
        }
    }

    fn cap_max_p(model: LossModel, cap: f64) -> LossModel {
        match model {
            LossModel::Congestion {
                profile,
                knee,
                max_p,
                fluctuation_sigma,
            } => LossModel::Congestion {
                profile,
                knee,
                max_p: max_p.min(cap),
                fluctuation_sigma,
            },
            other => other,
        }
    }

    fn haul(cfg: &CalibrationConfig, t: TransitProfile, km: f64, mid_offset: f64) -> LossModel {
        let spans = 0.5 + (km / 4000.0);
        LossModel::Composite(vec![
            LossModel::Bernoulli {
                p: (t.bernoulli_per_4000km * spans).min(0.01),
            },
            cap_max_p(
                congestion_with_mean(
                    (t.mean_per_4000km * spans).min(0.05),
                    DiurnalShape::Mixed,
                    t.base_util,
                    t.amplitude,
                    t.knee,
                    mid_offset,
                    cfg.fluctuation_sigma,
                ),
                t.window_cap,
            ),
        ])
    }

    fn transit_model(
        cfg: &CalibrationConfig,
        from: Region,
        to: Region,
        km: f64,
        mid_offset: f64,
    ) -> LossModel {
        let a = cfg.transit(from);
        let b = cfg.transit(to);
        let rest_group = |r: Region| {
            !matches!(
                r,
                Region::Europe | Region::NorthAmerica | Region::AsiaPacific
            )
        };
        let eu_ap = |x: Region, y: Region| {
            matches!(
                (x, y),
                (Region::Europe, Region::AsiaPacific) | (Region::AsiaPacific, Region::Europe)
            )
        };
        let t = if rest_group(from) || rest_group(to) {
            cfg.transit_rest
        } else if eu_ap(from, to) {
            cfg.transit_ap
        } else if a.base_util + a.amplitude <= b.base_util + b.amplitude {
            a
        } else {
            b
        };
        haul(cfg, t, km, mid_offset)
    }

    pub fn loss_model(cfg: &CalibrationConfig, hop: &ResolvedHop) -> LossModel {
        let mid_offset = (city(hop.from_city).location.utc_offset_hours()
            + city(hop.to_city).location.utc_offset_hours())
            / 2.0;
        match hop.kind {
            HopKind::IntraAs {
                dedicated: true, ..
            } => LossModel::Composite(vec![
                LossModel::Bernoulli {
                    p: cfg.dedicated_bernoulli,
                },
                LossModel::bursty(cfg.dedicated_burst_rate, 0.15, 0.5),
            ]),
            HopKind::IntraAs { region, .. } => {
                transit_model(cfg, city(hop.from_city).region, region, hop.km, mid_offset)
            }
            HopKind::InterAs { .. } if hop.km > 2000.0 => {
                haul(cfg, cfg.transit_rest, hop.km, mid_offset)
            }
            HopKind::InterAs { region } if hop.km > 500.0 => {
                transit_model(cfg, city(hop.from_city).region, region, hop.km, mid_offset)
            }
            HopKind::InterAs { .. } => LossModel::Bernoulli { p: 1e-5 },
            HopKind::LastMile { ty, region } => {
                let target = cfg.last_mile_target(ty, region);
                let offset = city(hop.to_city).location.utc_offset_hours();
                let shape = match ty {
                    AsType::Cahp => DiurnalShape::Residential,
                    AsType::Ec => DiurnalShape::Business,
                    AsType::Ltp | AsType::Stp => DiurnalShape::Mixed,
                };
                LossModel::Composite(vec![
                    LossModel::Bernoulli { p: target * 0.2 },
                    congestion_with_mean(
                        target * 0.8,
                        shape,
                        0.50,
                        0.42,
                        0.70,
                        offset,
                        cfg.fluctuation_sigma,
                    ),
                ])
            }
        }
    }
}

/// Every hop the factory can be asked about: each `HopKind` (shared and
/// dedicated hauls of all four AS types, interconnects, last miles of all
/// four types) × every ordered region pair × a km ladder straddling the
/// 500 / 2000 km interconnect thresholds — and each of those `reversed()`,
/// which keeps `kind` (so its `region`) while swapping the cities.
fn every_hop() -> Vec<ResolvedHop> {
    let kinds = |region| {
        let mut kinds = vec![HopKind::InterAs { region }];
        for ty in AsType::ALL {
            kinds.push(HopKind::LastMile { ty, region });
            for dedicated in [false, true] {
                kinds.push(HopKind::IntraAs {
                    asn: Asn(9),
                    ty,
                    region,
                    dedicated,
                });
            }
        }
        kinds
    };
    let mut hops = Vec::new();
    for from in Region::ALL {
        for to in Region::ALL {
            let from_city = cities_in_region(from)[0];
            let to_city = *cities_in_region(to).last().expect("region has a city");
            for km in [30.0, 400.0, 501.0, 1999.0, 2001.0, 6000.0, 12000.0] {
                for kind in kinds(to) {
                    let path = ResolvedPath {
                        hops: vec![ResolvedHop {
                            kind,
                            from_city,
                            to_city,
                            km,
                            label: HopLabel::Intra {
                                asn: Asn(km as u32),
                                from: from_city,
                                to: to_city,
                            },
                        }],
                        routers: vec![],
                    };
                    hops.extend(path.reversed().hops);
                    hops.extend(path.hops);
                }
            }
        }
    }
    hops
}

fn assert_table_equals_integral(cfg: CalibrationConfig) {
    let f = ChannelFactory::new(cfg.clone(), RngTree::new(1).subtree("t"));
    let hops = every_hop();
    assert_eq!(hops.len(), 7 * 7 * 7 * 13 * 2);
    for hop in &hops {
        // `LossModel: PartialEq` compares every `f64` exactly.
        assert_eq!(
            f.loss_model(hop),
            oracle::loss_model(&cfg, hop),
            "{:?} {} km, {} -> {}",
            hop.kind,
            hop.km,
            city(hop.from_city).name,
            city(hop.to_city).name,
        );
    }
}

#[test]
fn calibration_table_equals_per_hop_integral_default_config() {
    assert_table_equals_integral(CalibrationConfig::default());
}

#[test]
fn calibration_table_follows_the_factorys_own_config() {
    // Every transit profile and the fluctuation sigma moved off their
    // defaults (and EU made hotter than NA, so the milder-endpoint rule
    // picks differently): a table computed from `default()` instead of
    // the factory's config cannot pass.
    let d = CalibrationConfig::default();
    let perturb = |t: TransitProfile, base_util, amplitude, knee| TransitProfile {
        base_util,
        amplitude,
        knee,
        mean_per_4000km: t.mean_per_4000km * 1.7,
        ..t
    };
    let cfg = CalibrationConfig {
        transit_eu: perturb(d.transit_eu, 0.47, 0.21, 0.75),
        transit_na: perturb(d.transit_na, 0.33, 0.10, 0.85),
        transit_ap: perturb(d.transit_ap, 0.41, 0.30, 0.78),
        transit_rest: perturb(d.transit_rest, 0.60, 0.15, 0.90),
        fluctuation_sigma: 0.5,
        ..d
    };
    assert_table_equals_integral(cfg);
}
