//! The reproduction's acceptance tests: do the paper's qualitative shapes
//! hold? Each test runs a scaled-down version of one experiment and
//! asserts the direction/ordering the paper reports — who wins, roughly by
//! what factor, where the crossovers are.

mod testworld;

use vns_bench::experiments::{
    ablate, congruence, fig10, fig11, fig3, fig4, fig5, fig7, fig9, jitter, steady_state, table1,
};
use vns_bench::{World, WorldConfig};
use vns_core::PopId;
use vns_geo::Region;
use vns_netsim::{Dur, Par};
use vns_topo::{generate, AsType, Internet};

const SCALE: f64 = 0.45;

/// `World::geo(seed, SCALE)` and the Internet it is deployed on, for the
/// ablations that deploy their variants on a clone of that Internet.
fn geo_on_internet(seed: u64) -> (Internet, World) {
    let config = WorldConfig {
        seed,
        scale: SCALE,
        ..WorldConfig::default()
    };
    let internet = generate(&config.topo()).expect("topology generation");
    let world = World::deploy(internet.clone(), config);
    (internet, world)
}

#[test]
fn fig3_geo_metric_mostly_matches_network_proximity() {
    let w = World::geo(101, SCALE);
    let r = fig3::run(&w, Par::seq());
    assert!(r.measured > 80, "measured {}", r.measured);
    // Paper: 90% of prefixes displaced <= 20 ms. Shape bar: >= 75%.
    assert!(
        r.within_20ms_all > 0.75,
        "within 20 ms: {}",
        r.within_20ms_all
    );
    // The GeoIP pathologies put a visible outlier population beyond 100 ms
    // (the Fig 3 scatter clusters).
    assert!(
        r.outliers_beyond(100.0) >= 3,
        "outlier clusters missing: {}",
        r.outliers_beyond(100.0)
    );
}

#[test]
fn sec41_same_as_prefixes_are_congruent() {
    let w = World::geo(102, SCALE);
    let c = congruence::run(&w, Par::seq());
    assert!(c.ases_measured > 20);
    // Paper: >= 25% match in 99% of ASes; >= 90% match in 60%.
    assert!(
        c.frac_ases_quarter_match > 0.9,
        "quarter match {}",
        c.frac_ases_quarter_match
    );
    assert!(
        c.frac_ases_ninety_match > 0.45,
        "ninety match {}",
        c.frac_ases_ninety_match
    );
}

#[test]
fn fig4_geo_routing_spreads_egress() {
    let (before, after) = testworld::hot_and_geo(103, SCALE);
    let r = fig4::run(&before, &after);
    // Paper: ~70% local exit before; a spread distribution after.
    assert!(
        r.local_share_before() > 45.0,
        "before local {}",
        r.local_share_before()
    );
    assert!(
        r.local_share_after() < r.local_share_before() / 2.0,
        "after local {} vs before {}",
        r.local_share_after(),
        r.local_share_before()
    );
    assert!(
        r.max_share_after() < r.local_share_before(),
        "after distribution must be more even"
    );
}

#[test]
fn fig5_transit_share_high_and_stable() {
    let (before, after) = testworld::hot_and_geo(104, SCALE);
    let r = fig5::run(&before, &after);
    // Paper: ~80% of prefixes reached through upstreams, stable across the
    // change (we tolerate a modest shift).
    assert!(
        r.transit_share_before > 0.6,
        "before transit {}",
        r.transit_share_before
    );
    assert!(
        r.transit_share_after > 0.6,
        "after transit {}",
        r.transit_share_after
    );
    assert!(
        (r.transit_share_after - r.transit_share_before).abs() < 0.2,
        "transit share should not swing wildly"
    );
    // After the change, upstream 1 (the NA-heavy Tier-1) is the most-used
    // upstream — the paper's "emerged as more preferred". (Its *growth*
    // relative to before is seed-sensitive at test scale; the harness
    // reports it at full scale.)
    let best_other_after = r
        .neighbors
        .iter()
        .skip(1)
        .filter(|n| n.1)
        .map(|n| n.3)
        .fold(0.0, f64::max);
    assert!(
        r.upstream1.1 >= 0.8 * best_other_after,
        "upstream 1 after {} vs best other upstream {}",
        r.upstream1.1,
        best_other_after
    );
}

#[test]
fn fig7_anycast_follows_geography() {
    let w = World::geo(105, SCALE);
    let r = fig7::run(&w, Par::seq());
    assert!(
        r.overall_home_fraction() > 0.6,
        "home fraction {}",
        r.overall_home_fraction()
    );
    // The big three regions must be strongly home-routed.
    for region in [Region::Europe, Region::NorthAmerica, Region::AsiaPacific] {
        assert!(
            r.home_fraction(region) > 0.6,
            "{region}: {}",
            r.home_fraction(region)
        );
    }
}

#[test]
fn fig9_vns_eliminates_stream_loss() {
    let w = World::geo(106, SCALE);
    let r = fig9::run(&w, 10, Par::seq());
    // Paper: VNS consistently below transit; AP is the lossy destination.
    assert!(
        r.mean_loss(true) < r.mean_loss(false) / 5.0,
        "VNS {} vs transit {}",
        r.mean_loss(true),
        r.mean_loss(false)
    );
    // Streams to AP through transit exceed 0.15% far more often than
    // through VNS, from every client.
    for client in ["AMS", "SJS", "SYD"] {
        let t = r.frac_over_150m(client, "AP", false);
        let i = r.frac_over_150m(client, "AP", true);
        assert!(t > i, "{client}: transit {t} should exceed VNS {i}");
    }
}

#[test]
fn table1_and_fig11_last_mile_shapes() {
    let w = World::geo(107, SCALE);
    let data = fig11::run_campaign(&w, 5, Dur::from_mins(60), Dur::from_days(1), Par::seq());
    let t1 = table1::run(&data);
    // Table 1 orderings: AP & EU rank CAHP > EC > LTP and STP > LTP;
    // NA is flat (max/min < 2.5).
    for region in [Region::AsiaPacific, Region::Europe] {
        assert!(
            t1.loss(region, AsType::Cahp) > t1.loss(region, AsType::Ec),
            "{region} CAHP vs EC"
        );
        assert!(
            t1.loss(region, AsType::Ec) > t1.loss(region, AsType::Ltp),
            "{region} EC vs LTP"
        );
        assert!(
            t1.loss(region, AsType::Stp) > t1.loss(region, AsType::Ltp),
            "{region} STP vs LTP"
        );
    }
    let na: Vec<f64> = AsType::ALL
        .iter()
        .map(|t| t1.loss(Region::NorthAmerica, *t))
        .collect();
    let spread = na.iter().cloned().fold(f64::MIN, f64::max)
        / na.iter().cloned().fold(f64::MAX, f64::min).max(1e-9);
    assert!(spread < 2.5, "NA spread {spread}");

    // Fig 11: distance raises loss; the London misconfiguration doubles
    // its EU loss relative to the other European PoPs.
    let f11 = fig11::run(&data);
    let lon_eu = f11.loss("LON", Region::Europe).unwrap();
    let other_eu = f11.mean_loss(&["AMS", "FRA", "OSL"], Region::Europe);
    assert!(
        lon_eu > 1.4 * other_eu,
        "London anomaly: LON {lon_eu} vs others {other_eu}"
    );
    // Loss to AP from anywhere exceeds loss to EU from EU.
    let to_ap = f11.mean_loss(&["AMS", "FRA", "OSL", "ATL", "SJS"], Region::AsiaPacific);
    assert!(
        to_ap > 1.5 * other_eu,
        "to AP {to_ap} vs EU-local {other_eu}"
    );
}

#[test]
fn ablation_fec_vs_arq_crossover() {
    let a = ablate::fec_arq(108);
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    // FEC repairs random loss well but bursty loss poorly (paper Sec 2).
    assert!(get("random 1%:fec") < get("random 1%:raw") / 5.0);
    assert!(get("bursty 1%:fec") > get("bursty 1%:raw") / 3.0);
    // Retransmission over a short hop fixes both; over a long hop it
    // cannot meet the deadline.
    assert!(get("random 1%:arq20") < get("random 1%:raw") / 10.0);
    assert!(get("bursty 1%:arq20") < get("bursty 1%:raw") / 2.0);
    assert!(get("random 1%:arq150") > get("random 1%:arq20"));
}

#[test]
fn ablation_l2_topology_cost() {
    let (internet, base) = geo_on_internet(109);
    let a = ablate::l2_topology(&internet, &base);
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .unwrap()
    };
    // The paper's cluster topology spends far fewer circuit-km than a full
    // mesh at a modest internal delay stretch.
    assert!(get("clusters (paper):km") < 0.6 * get("full mesh:km"));
    assert!(get("clusters (paper):stretch") < 2.5 * get("full mesh:stretch"));
}

#[test]
fn ablation_best_external_never_hurts() {
    let (internet, base) = geo_on_internet(110);
    let a = ablate::best_external(&internet, &base);
    let on = a.values.iter().find(|(l, _)| l == "true").unwrap().1;
    let off = a.values.iter().find(|(l, _)| l == "false").unwrap().1;
    assert!(on + 1e-9 >= off, "best-external on {on} vs off {off}");
}

#[test]
fn world_config_scales() {
    let small = WorldConfig::tiny(111);
    let big = WorldConfig {
        seed: 111,
        scale: 1.0,
        ..WorldConfig::default()
    };
    let ws = World::build(small);
    let wb = World::build(big);
    assert!(wb.internet.as_count() > ws.internet.as_count());
    assert_eq!(ws.vns.pops().len(), 11);
    assert_eq!(wb.vns.pops().len(), 11);
    let _ = PopId(1);
}

#[test]
fn fig6_cold_potato_does_not_stretch_delay() {
    let w = World::geo(112, SCALE);
    let r = vns_bench::experiments::fig6::run(&w, 2, Par::seq());
    for (code, _, le0, le50) in &r.per_pop {
        // Paper: VNS ≤ upstream in 10–65% of cases; ≤ 50 ms stretch in
        // 87–93%. Shape bars: a meaningful win fraction, and most
        // destinations within 50 ms.
        assert!(*le0 > 0.15, "{code}: win fraction {le0}");
        assert!(*le50 > 0.6, "{code}: within-50ms {le50}");
    }
    // Singapore's direct circuits put it among the best PoPs.
    let sin = r.pop("SIN").expect("SIN measured").2;
    let max_other = r
        .per_pop
        .iter()
        .filter(|(c, _, _, _)| c != "SIN")
        .map(|(_, _, le0, _)| *le0)
        .fold(0.0, f64::max);
    assert!(
        sin > 0.6 * max_other,
        "SIN {sin} should be competitive with the best ({max_other})"
    );
}

#[test]
fn fig12_ap_masking_effect() {
    let w = World::geo(113, SCALE);
    let data = fig11::run_campaign(&w, 5, Dur::from_mins(60), Dur::from_days(2), Par::seq());
    let r = vns_bench::experiments::fig12::run(&data);
    // Every (type, region) shows a diurnal swing.
    for (ty, region, swing) in &r.swing {
        assert!(
            *swing > 1.5,
            "{ty} {region}: diurnal swing {swing} too flat"
        );
    }
    // The masking effect: loss toward AP destinations concentrates in AP's
    // waking hours (~09:00–24:00 local ≈ 02:00–17:00 CET), not in AP's
    // night — regardless of the SJS vantage's own clock.
    for ty in [AsType::Cahp, AsType::Stp] {
        let panel = &r.panels.iter().find(|(t, _)| *t == ty).expect("panel").1;
        let series = panel
            .series_named(Region::AsiaPacific.code())
            .expect("AP series");
        let (mut waking, mut night) = (0.0, 0.0);
        for (h, c) in &series.points {
            if (2.0..17.0).contains(h) {
                waking += c;
            } else {
                night += c;
            }
        }
        // Waking covers 15 of 24 hours; normalise per hour.
        assert!(
            waking / 15.0 > night / 9.0,
            "{ty}: AP losses should follow AP's clock (waking {waking}, night {night})"
        );
    }
}

#[test]
fn steady_state_holds_target_and_survives_failure() {
    let cfg = WorldConfig {
        seed: 124,
        scale: SCALE,
        ..WorldConfig::default()
    };
    let opts = steady_state::SteadyStateOpts {
        target_concurrent: 1500,
        windows: 6,
    };
    let r = steady_state::run(&cfg, opts, Par::seq());
    // Little's law holds through the diurnal trough.
    assert!(
        r.steady_sustained as f64 > 0.7 * r.target_concurrent as f64,
        "sustained {} vs target {}",
        r.steady_sustained,
        r.target_concurrent
    );
    // The failure phase tears down the victim's sessions, keeps routing
    // verified, and the denial rate stays bounded (spill absorbs most of
    // the landing traffic).
    assert!(r.torn_down > 0, "no sessions torn by the PoP failure");
    assert!(r.all_verified(), "verify errors {}", r.verify_errors);
    let denied = r.fault_denied_pct();
    assert!(denied < 60.0, "fault-phase denial {denied}%");
    // Recovery refills: the last window's concurrency is back above the
    // fault phase's low point.
    let windows = &r.telemetry.windows;
    let fault_low = windows[opts.windows as usize..]
        .iter()
        .map(|w| w.concurrent_end)
        .min()
        .expect("fault windows");
    let final_conc = windows.last().expect("windows").concurrent_end;
    assert!(
        final_conc >= fault_low,
        "recovery did not refill: final {final_conc} vs low {fault_low}"
    );
    // Telemetry measured real setups and QoS bursts in every phase.
    assert!(r.telemetry.setup_overall().count() > 100);
    assert!(r.telemetry.loss_overall().count() > 0);
}

#[test]
fn economics_shapes() {
    let (hot, geo) = testworld::hot_and_geo(114, SCALE);
    let a = ablate::economics(&geo, &hot);
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    // Economies of scale: cost/Mbps falls steeply with volume.
    assert!(get("per_mbps@6400") < get("per_mbps@100") / 10.0);
    // Cold potato fills the circuit commits far better than hot potato
    // (compare below saturation).
    assert!(get("l2_util@400") > 1.5 * get("l2_util_hot@400"));
}

#[test]
fn setup_time_shapes() {
    let a = ablate::setup_time(&World::geo(115, SCALE));
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    // Lossy transit signalling needs at least as many SIP retransmissions
    // as VNS signalling.
    assert!(get("via transit:retrans") >= get("via VNS:retrans"));
}

#[test]
fn auto_override_closes_the_gap() {
    let a = ablate::auto_override(&World::geo(116, SCALE), 30.0, Par::seq());
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .unwrap()
    };
    assert!(get("bad_after") <= get("bad_before") * 0.25 + 1.0);
}

#[test]
fn definitions_do_not_change_the_loss_story() {
    // Paper Sec 5.1.1: "there are no qualitative differences in loss when
    // sending 1080p compared to 720p video".
    use vns_bench::campaign::media_campaign;
    use vns_media::VideoSpec;
    use vns_netsim::{Dur, SimTime};
    let w = World::geo(117, SCALE);
    let start = SimTime::EPOCH + Dur::from_hours(6);
    let mut means = Vec::new();
    for spec in [VideoSpec::HD1080, VideoSpec::HD720] {
        let sessions = media_campaign(&w, &[PopId(9), PopId(11)], spec, 12, start, Par::seq());
        let mean = |via: bool| {
            let l: Vec<f64> = sessions
                .iter()
                .filter(|(a, _)| a.via_vns == via)
                .map(|(_, r)| r.rt_loss_pct())
                .collect();
            l.iter().sum::<f64>() / l.len().max(1) as f64
        };
        means.push((mean(true), mean(false)));
    }
    // Both definitions: VNS far below transit.
    for (vns_loss, transit_loss) in &means {
        assert!(
            *vns_loss < transit_loss / 3.0,
            "VNS {vns_loss} vs transit {transit_loss}"
        );
    }
    // And the transit loss rates of the two definitions are the same
    // order of magnitude.
    let (t1080, t720) = (means[0].1, means[1].1);
    let ratio = t1080.max(t720) / t1080.min(t720).max(1e-9);
    assert!(
        ratio < 5.0,
        "definitions diverge: 1080p {t1080} vs 720p {t720}"
    );
}

#[test]
fn fig10_vns_removes_baseline_and_outliers() {
    let w = World::geo(118, SCALE);
    let nine = fig9::run(&w, 12, Par::seq());
    let r = fig10::run(&nine.sessions);
    let ups = r.upstream_nature;
    let vns = r.vns_nature;
    assert!(ups.total() > 0 && vns.total() > 0, "both arms measured");
    // Upstream sessions show the lossy population the paper plots.
    let ups_lossy = ups.total() - ups.clean;
    assert!(ups_lossy > 0, "no lossy upstream sessions at all");
    // Through VNS both the multi-slot baseline and the outliers shrink
    // away: fewer lossy sessions, and a higher clean fraction.
    let vns_lossy = vns.total() - vns.clean;
    assert!(
        (vns_lossy as f64) < 0.8 * ups_lossy as f64,
        "VNS lossy {vns_lossy} vs upstream lossy {ups_lossy}"
    );
    assert!(
        vns.clean as f64 / vns.total() as f64 > ups.clean as f64 / ups.total() as f64,
        "VNS clean fraction should exceed upstream's"
    );
    assert!(
        vns.sustained_outliers <= ups.sustained_outliers,
        "sustained congestion outliers must not appear through VNS"
    );
}

#[test]
fn jitter_stays_low_and_vns_is_not_worse() {
    let w = World::geo(119, SCALE);
    let r = jitter::run(&w, 12, Par::seq());
    for (name, (vns, transit)) in [("1080p", r.hd1080), ("720p", r.hd720)] {
        assert!(vns.streams > 0 && transit.streams > 0, "{name}: streams");
        // Paper: measured jitter is mostly below 20 ms in both arms.
        assert!(vns.sub_20ms > 0.8, "{name}: VNS sub-20ms {}", vns.sub_20ms);
        assert!(
            transit.sub_20ms > 0.6,
            "{name}: transit sub-20ms {}",
            transit.sub_20ms
        );
        // "Differences between videos sent through VNS and through
        // upstreams are negligible" — VNS must not be worse.
        assert!(
            vns.sub_10ms + 0.1 >= transit.sub_10ms,
            "{name}: VNS sub-10ms {} vs transit {}",
            vns.sub_10ms,
            transit.sub_10ms
        );
    }
    // 720p streams carry fewer packets and so jitter more (99% vs 97%).
    assert!(
        r.hd1080.0.sub_10ms + 0.1 >= r.hd720.0.sub_10ms,
        "1080p {} should not jitter more than 720p {}",
        r.hd1080.0.sub_10ms,
        r.hd720.0.sub_10ms
    );
}

#[test]
fn ablation_lp_shape_default_is_near_optimal() {
    let (internet, base) = geo_on_internet(120);
    let a = ablate::lp_shape(&internet, &base);
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    let default = get("banded-25km (default)");
    // The paper's banded shape keeps egress selection near-optimal …
    assert!(default > 0.5, "default precision {default}");
    // … and no alternative shape beats it by a meaningful margin.
    for alt in ["banded-2000km", "inverse", "stepped"] {
        assert!(
            default + 0.05 >= get(alt),
            "{alt} ({}) should not beat the default ({default})",
            get(alt)
        );
    }
}

#[test]
fn ablation_geoip_errors_cost_precision_and_mgmt_recovers_it() {
    let a = ablate::geoip(&World::geo(121, SCALE));
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    // A perfect database can only help, and the exemption workflow must
    // keep precision in the same band as before (its win concentrates on
    // the pathological prefixes, which are a small share of the total —
    // a few points of seed noise on the rest is acceptable).
    assert!(
        get("perfect") + 0.02 >= get("with errors"),
        "perfect {} vs with errors {}",
        get("perfect"),
        get("with errors")
    );
    assert!(
        get("fixed") + 0.05 >= get("with errors"),
        "fixed {} vs with errors {}",
        get("fixed"),
        get("with errors")
    );
    assert!(get("fixed") > 0.8, "fixed precision {}", get("fixed"));
}

#[test]
fn ablation_mode_delay_cold_potato_detours() {
    let (hot, geo) = testworld::hot_and_geo(122, SCALE);
    let a = ablate::mode_delay(&geo, &hot);
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    // Cold potato hauls traffic internally to the geographically right
    // exit, which shortens the *total* delivery path (that is the point
    // of geo routing) — but only by a detour-sized margin, not a rewrite
    // of the map.
    let (cold, hot) = (get("geo cold potato"), get("hot potato"));
    assert!(cold > 0.0 && hot > 0.0, "degenerate path lengths");
    assert!(
        cold <= hot * 1.05,
        "cold {cold} should not exceed hot {hot}"
    );
    assert!(
        cold > 0.5 * hot,
        "cold {cold} implausibly short vs hot {hot}"
    );
}

#[test]
fn ablation_measurement_beats_geo_on_precision() {
    let a = ablate::geo_vs_measurement(&World::geo(123, SCALE), Par::seq());
    let get = |label: &str| {
        a.values
            .iter()
            .find(|(l, _)| l == label)
            .map_or_else(|| panic!("missing {label}"), |(_, v)| *v)
    };
    // Active measurement is the precision ceiling (it probes the truth);
    // the geo metric must land close behind it at zero probe cost.
    assert!(
        get("measurement") + 1e-9 >= get("geo"),
        "measurement {} vs geo {}",
        get("measurement"),
        get("geo")
    );
    assert!(get("geo") > 0.5, "geo precision {}", get("geo"));
}
