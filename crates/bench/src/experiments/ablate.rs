//! Ablations beyond the paper — quantifying the design choices DESIGN.md
//! calls out.
//!
//! * `lp_shape` — the paper only requires `lp = f(d)` to be decreasing and
//!   ≫ 100; how much does the shape matter?
//! * `best_external` — reproduce the Sec 3.2 hidden-routes pathology by
//!   turning the fix off.
//! * `geoip` — what geo-routing costs when the GeoIP database is wrong,
//!   and how much the management overrides claw back.
//! * `fec_arq` — the Sec 2 discussion: FEC fixes random loss but not
//!   bursts; retransmission needs a nearby relay.
//! * `l2_topology` — regional clusters + 5 long-haul circuits vs a full
//!   PoP mesh: delay stretch vs circuit kilometres (the cost driver the
//!   paper's Sec 6 economics discussion identifies).
//!
//! Rows borrow the default geo (or hot) world — `base` is the world
//! `Ctx::geo()` holds. A variant is `base.config` with one deployment knob
//! turned, deployed on a clone of `internet`, the Internet `base` was
//! deployed on (`Ctx::internet()`); only `geoip`'s perfect database needs
//! an Internet of its own. Rows that mutate a world (`auto_override`,
//! `geoip`'s exemptions) mutate a [`World::fork`] of `base`.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use vns_core::{Change, FaultInjector, LocalPrefFn, MgmtChange, PopId, VnsConfig};
use vns_netsim::{Dur, HopChannel, LossModel, LossProcess, PathChannel, SimTime, BATCH_LEN};
use vns_stats::Table;
use vns_topo::Internet;

use crate::campaign::prefix_metas;
use crate::world::World;

/// Egress-selection quality: fraction of choices within 500 km of
/// optimal, and the mean excess distance (km) — over the prefixes whose
/// GeoIP error is known and at most `max_geoip_err_km`, or over all of
/// them (`None`: the metric that exposes GeoIP damage).
fn egress_precision(world: &World, max_geoip_err_km: Option<f64>) -> (f64, f64) {
    let mut good = 0usize;
    let mut total = 0usize;
    let mut excess = 0.0;
    for m in prefix_metas(world) {
        if max_geoip_err_km.is_some_and(|max| !m.geoip_err_km.is_finite() || m.geoip_err_km > max) {
            continue;
        }
        let Some(egress) = world.vns.egress_pop(&world.internet, PopId(10), m.ip) else {
            continue;
        };
        let d_sel = world.vns.pop(egress).location().distance_km(&m.truth);
        let nearest = world.vns.nearest_pop(m.truth);
        let d_best = world.vns.pop(nearest).location().distance_km(&m.truth);
        total += 1;
        excess += (d_sel - d_best).max(0.0);
        if d_sel <= d_best + 500.0 {
            good += 1;
        }
    }
    // One ledger unit per prefix judged.
    vns_netsim::ledger::add_units(total as u64);
    (
        good as f64 / total.max(1) as f64,
        excess / total.max(1) as f64,
    )
}

/// GeoIP error up to which a prefix counts as well geolocated.
const WELL_LOCATED_KM: f64 = 150.0;

/// `base`'s deployment with one knob turned, on a clone of `internet`.
fn variant(internet: &Internet, base: &World, turn: impl FnOnce(&mut VnsConfig)) -> World {
    let mut cfg = base.config.clone();
    turn(&mut cfg.vns);
    World::deploy(internet.clone(), cfg)
}

/// One ablation table.
#[derive(Debug)]
pub struct Ablation {
    /// Name.
    pub name: &'static str,
    /// Result rows.
    pub table: Table,
    /// Key numbers for assertions: `(label, value)`.
    pub values: Vec<(String, f64)>,
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "## Ablation — {}", self.name)?;
        writeln!(f, "{}", self.table)
    }
}

/// LOCAL_PREF shape ablation (`base` runs the default shape).
pub fn lp_shape(internet: &Internet, base: &World) -> Ablation {
    let shapes: [(&str, LocalPrefFn); 4] = [
        ("banded-25km (default)", LocalPrefFn::default()),
        (
            "banded-2000km",
            LocalPrefFn::BandedLinear {
                floor: 1_000,
                band_km: 2_000.0,
            },
        ),
        (
            "inverse",
            LocalPrefFn::Inverse {
                floor: 1_000,
                scale: 2_000_000.0,
            },
        ),
        ("stepped", LocalPrefFn::Stepped),
    ];
    let mut table = Table::new(["f(d) shape", "near-optimal egress", "mean excess km"]);
    let mut values = Vec::new();
    for (i, (name, lp_fn)) in shapes.into_iter().enumerate() {
        let built = (i > 0).then(|| variant(internet, base, |vns| vns.lp_fn = lp_fn));
        let world = built.as_ref().unwrap_or(base);
        let (frac, excess) = egress_precision(world, Some(WELL_LOCATED_KM));
        table.push([
            name.to_string(),
            vns_stats::pct(frac),
            format!("{excess:.0}"),
        ]);
        values.push((name.to_string(), frac));
    }
    Ablation {
        name: "LOCAL_PREF shape lp = f(d)",
        table,
        values,
    }
}

/// Best-external on/off (the hidden-routes fix; `base` has it on).
pub fn best_external(internet: &Internet, base: &World) -> Ablation {
    let mut table = Table::new(["best-external", "near-optimal egress", "mean excess km"]);
    let mut values = Vec::new();
    for on in [true, false] {
        let built = (!on).then(|| variant(internet, base, |vns| vns.best_external = false));
        let world = built.as_ref().unwrap_or(base);
        let (frac, excess) = egress_precision(world, Some(WELL_LOCATED_KM));
        table.push([
            if on { "on (paper)" } else { "off" }.to_string(),
            vns_stats::pct(frac),
            format!("{excess:.0}"),
        ]);
        values.push((format!("{on}"), frac));
    }
    Ablation {
        name: "best-external (hidden routes, Sec 3.2)",
        table,
        values,
    }
}

/// GeoIP errors on/off, plus the management fix for the two documented
/// pathologies (`base` is the erroneous-database world).
pub fn geoip(base: &World) -> Ablation {
    let mut table = Table::new(["GeoIP database", "near-optimal egress", "mean excess km"]);
    let mut values = Vec::new();
    let mut row = |label: String, key: &str, world: &World| {
        let (frac, excess) = egress_precision(world, None);
        table.push([label, vns_stats::pct(frac), format!("{excess:.0}")]);
        values.push((key.to_string(), frac));
    };

    // Perfect database: the one variant on an Internet of its own.
    let mut topo = base.config.topo();
    topo.geoip_errors = false;
    let internet = vns_topo::generate(&topo).expect("generate");
    let world_perfect = World::deploy(internet, base.config.clone());
    row("perfect".into(), "perfect", &world_perfect);

    // Erroneous database (default).
    row("with errors".into(), "with errors", base);

    // Erroneous + management overrides: exempt every prefix whose GeoIP
    // error exceeds 1000 km (what an operator does after spotting the
    // Fig 3 outlier clusters).
    let mut world_fixed = base.fork();
    let bad: Vec<vns_bgp::Prefix> = prefix_metas(&world_fixed)
        .iter()
        .filter(|m| m.geoip_err_km.is_finite() && m.geoip_err_km > 1_000.0)
        .map(|m| m.prefix)
        .collect();
    let n_bad = bad.len();
    let mut injector = FaultInjector::new();
    let World { internet, vns, .. } = &mut world_fixed;
    for p in bad {
        let exempt = Change::Mgmt(MgmtChange::Exempt(p));
        vns.apply(internet, &mut injector, exempt)
            .expect("reconverges");
    }
    row(
        format!("with errors + {n_bad} exemptions"),
        "fixed",
        &world_fixed,
    );

    Ablation {
        name: "GeoIP quality (Fig 3 outlier clusters)",
        table,
        values,
    }
}

/// FEC vs deadline-bounded retransmission under random vs bursty loss.
pub fn fec_arq(seed: u64) -> Ablation {
    // Enough packets at 10 ms spacing to span many Gilbert–Elliott burst
    // cycles (the bursty channel's mean burst gap is ~100 s).
    let packets = 120_000u32;
    let mk_channel = |model: LossModel, s: u64, base_ms: f64| {
        let mut hop = HopChannel::ideal(base_ms);
        hop.loss = LossProcess::new(model, SmallRng::seed_from_u64(s));
        PathChannel::new(vec![hop], SmallRng::seed_from_u64(s + 1))
    };
    let random = LossModel::Bernoulli { p: 0.01 };
    let bursty = LossModel::bursty(0.01, 0.5, 2.0);

    let mut table = Table::new([
        "loss type",
        "raw loss",
        "FEC k=10 residual",
        "ARQ 20ms-hop residual",
        "ARQ 150ms-hop residual",
    ]);
    let mut values = Vec::new();
    for (name, model) in [("random 1%", random), ("bursty 1%", bursty)] {
        // Raw + FEC: one packet every 10 ms; every 11th is the parity
        // packet of the ten data packets before it.
        let mut ch = mk_channel(model.clone(), seed, 20.0);
        let sent: Vec<u64> = (0..u64::from(packets + packets / 10))
            .map(|i| (SimTime::EPOCH + Dur::from_millis(10).mul(i)).as_nanos())
            .collect();
        let mut arrived = vec![true; sent.len()];
        let mut cols = vns_netsim::scratch();
        for (c, chunk) in sent.chunks(BATCH_LEN).enumerate() {
            ch.send_column(chunk, &mut cols);
            for &pk in &cols.lost {
                arrived[c * BATCH_LEN + (pk >> 8) as usize] = false;
            }
        }
        let mut delivered = Vec::with_capacity(packets as usize);
        let mut parity = Vec::new();
        for (i, &ok) in arrived.iter().enumerate() {
            if i % 11 == 10 {
                parity.push(ok);
            } else {
                delivered.push(ok);
            }
        }
        let raw = delivered.iter().filter(|d| !**d).count() as f64 / delivered.len() as f64;
        let fec = vns_media::FecConfig::K10.residual_loss(&delivered, &parity);
        // One ledger unit per channel replay (raw+FEC counts as one).
        vns_netsim::ledger::add_units(1);
        // ARQ at two relay distances.
        let mut arq_residual = Vec::new();
        for (s_off, base_ms) in [(100, 20.0), (200, 150.0)] {
            let mut ch = mk_channel(model.clone(), seed + s_off, base_ms);
            let mut lost = 0u32;
            let mut t = SimTime::EPOCH;
            for _ in 0..packets {
                let out = vns_media::send_with_arq(&mut ch, t, Dur::from_millis(200), 2);
                if !out.delivered {
                    lost += 1;
                }
                t += Dur::from_millis(10);
            }
            arq_residual.push(lost as f64 / packets as f64);
            vns_netsim::ledger::add_units(1);
        }
        table.push([
            name.to_string(),
            vns_stats::pct(raw),
            vns_stats::pct(fec),
            vns_stats::pct(arq_residual[0]),
            vns_stats::pct(arq_residual[1]),
        ]);
        values.push((format!("{name}:raw"), raw));
        values.push((format!("{name}:fec"), fec));
        values.push((format!("{name}:arq20"), arq_residual[0]));
        values.push((format!("{name}:arq150"), arq_residual[1]));
    }
    Ablation {
        name: "FEC vs selective retransmission (Sec 2 countermeasures)",
        table,
        values,
    }
}

/// Cluster topology vs full L2 mesh: circuit cost vs delay stretch
/// (`base` is the clustered deployment).
pub fn l2_topology(internet: &Internet, base: &World) -> Ablation {
    let mut table = Table::new([
        "L2 topology",
        "circuits",
        "circuit km (cost proxy)",
        "mean internal stretch",
    ]);
    let mut values = Vec::new();
    for full_mesh in [false, true] {
        let built = full_mesh.then(|| variant(internet, base, |vns| vns.full_mesh_l2 = true));
        let world = built.as_ref().unwrap_or(base);
        let igp = world
            .internet
            .as_info(world.vns.as_id())
            .igp
            .as_ref()
            .expect("vns igp");
        // Count only real circuits (cost > 1 filters intra-PoP links).
        let circuits: Vec<_> = igp.edges().into_iter().filter(|(_, _, c)| *c > 1).collect();
        let total_km: u64 = circuits.iter().map(|(_, _, c)| c).sum();
        // Internal delay stretch: PoP-to-PoP IGP cost vs great circle.
        let mut stretch = 0.0;
        let mut pairs = 0;
        for a in world.vns.pops() {
            for b in world.vns.pops() {
                if a.id() >= b.id() {
                    continue;
                }
                let costs = igp.shortest_costs(a.borders[0]);
                let Some(&c) = costs.get(&b.borders[0]) else {
                    continue;
                };
                let gc = a.location().distance_km(&b.location()).max(1.0);
                stretch += c as f64 / gc;
                pairs += 1;
            }
        }
        let mean_stretch = stretch / pairs.max(1) as f64;
        // One ledger unit per PoP pair measured.
        vns_netsim::ledger::add_units(pairs as u64);
        let name = if full_mesh {
            "full mesh"
        } else {
            "clusters (paper)"
        };
        table.push([
            name.to_string(),
            circuits.len().to_string(),
            total_km.to_string(),
            format!("{mean_stretch:.2}"),
        ]);
        values.push((format!("{name}:km"), total_km as f64));
        values.push((format!("{name}:stretch"), mean_stretch));
    }
    Ablation {
        name: "dedicated L2 topology (Sec 3.1 cost argument)",
        table,
        values,
    }
}

/// Hot-potato vs cold-potato delay cost inside VNS: how much extra RTT the
/// cold-potato detour adds before traffic exits (complementary to Fig 6).
pub fn mode_delay(geo: &World, hot: &World) -> Ablation {
    let mut table = Table::new(["mode", "mean path km (PoP10 -> all prefixes)"]);
    let mut values = Vec::new();
    for (name, world) in [("geo cold potato", geo), ("hot potato", hot)] {
        let mut km = 0.0;
        let mut n = 0;
        for m in prefix_metas(world) {
            if let Ok(p) = world.vns.path_via_vns(&world.internet, PopId(10), m.ip) {
                km += p.total_km();
                n += 1;
            }
        }
        let mean = km / n.max(1) as f64;
        // One ledger unit per prefix resolved.
        vns_netsim::ledger::add_units(n as u64);
        table.push([name.to_string(), format!("{mean:.0}")]);
        values.push((name.to_string(), mean));
    }
    Ablation {
        name: "routing mode path-length cost",
        table,
        values,
    }
}

/// The alternative the paper rejected (Sec 3.2): pick the egress by
/// active RTT measurement instead of GeoIP distance. Compares precision
/// (fraction of prefixes whose selected egress is delay-best within
/// 10 ms) against the control-plane overhead (probe packets per routing
/// decision — the geo metric needs none).
pub fn geo_vs_measurement(world: &World, par: vns_netsim::Par) -> Ablation {
    use crate::campaign::{prefix_metas, rtt_matrix};
    use vns_netsim::{Dur, SimTime};

    let metas = prefix_metas(world);
    let pops: Vec<PopId> = world.vns.pops().iter().map(|p| p.id()).collect();
    let t = SimTime::EPOCH + Dur::from_hours(10);
    let matrix = rtt_matrix(world, &metas, &pops, t, par);

    let mut geo_good = 0usize;
    let mut meas_good = 0usize;
    let mut judged = 0usize;
    for (mi, m) in metas.iter().enumerate() {
        let Some(reported) = m.reported else { continue };
        let rtts = &matrix[mi];
        let Some(best) = rtts.iter().flatten().cloned().reduce(f64::min) else {
            continue;
        };
        // Geo pick: nearest PoP by reported location.
        let geo_idx = pops
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = world.vns.pop(**a).location().distance_km(&reported);
                let db = world.vns.pop(**b).location().distance_km(&reported);
                da.partial_cmp(&db).expect("finite")
            })
            .map(|(i, _)| i)
            .expect("pops");
        // Measurement pick: argmin of the probed RTTs (this IS the truth
        // here, modulo probe-time queueing noise — re-probing at another
        // time may differ).
        let meas_idx = rtts
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|x| (i, x)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("reachable");
        judged += 1;
        if rtts[geo_idx].is_some_and(|r| r - best <= 10.0) {
            geo_good += 1;
        }
        if rtts[meas_idx].is_some_and(|r| r - best <= 10.0) {
            meas_good += 1;
        }
    }
    // Overhead: the paper's method is 5 pings per (prefix, PoP) per
    // routing decision; geo needs one GeoIP lookup.
    let probes_per_decision = (pops.len() * 5 * 2) as f64; // RTT = echo + reply
    let mut table = Table::new([
        "egress selector",
        "delay-best within 10 ms",
        "probe pkts / decision",
    ]);
    table.push([
        "GeoIP distance (paper)".to_string(),
        vns_stats::pct(geo_good as f64 / judged.max(1) as f64),
        "0".to_string(),
    ]);
    table.push([
        "active measurement".to_string(),
        vns_stats::pct(meas_good as f64 / judged.max(1) as f64),
        format!("{probes_per_decision:.0}"),
    ]);
    Ablation {
        name: "geo metric vs active measurement (Sec 3.2's rejected alternative)",
        table,
        values: vec![
            ("geo".into(), geo_good as f64 / judged.max(1) as f64),
            (
                "measurement".into(),
                meas_good as f64 / judged.max(1) as f64,
            ),
        ],
    }
}

/// The paper's operational loop (Sec 3.2): "prefixes that suffer from
/// these shortcomings are identified using continuous, low-overhead active
/// measurements" and fixed through the management interface. Probes every
/// prefix once, force-exits the ones whose geo egress is ≥ `threshold_ms`
/// worse than the best PoP, and reports precision before/after. Rewrites
/// the control plane, so it works on a clone of `base`.
pub fn auto_override(base: &World, threshold_ms: f64, par: vns_netsim::Par) -> Ablation {
    use crate::campaign::{prefix_metas, rtt_matrix};
    use vns_netsim::{Dur, SimTime};

    let mut world = base.fork();
    let metas = prefix_metas(&world);
    let pops: Vec<PopId> = world.vns.pops().iter().map(|p| p.id()).collect();
    let t = SimTime::EPOCH + Dur::from_hours(10);
    let matrix = rtt_matrix(&world, &metas, &pops, t, par);

    let displaced = |world: &World, mi: usize, m: &crate::campaign::PrefixMeta| -> Option<f64> {
        let egress = world.vns.egress_pop(&world.internet, PopId(10), m.ip)?;
        let idx = pops.iter().position(|p| *p == egress)?;
        let sel = matrix[mi][idx]?;
        let best = matrix[mi].iter().flatten().cloned().reduce(f64::min)?;
        Some(sel - best)
    };

    let count_bad = |world: &World| {
        metas
            .iter()
            .enumerate()
            .filter(|(mi, m)| displaced(world, *mi, m).is_some_and(|d| d > threshold_ms))
            .count()
    };
    let bad_before = count_bad(&world);

    // Apply the overrides: force each bad prefix out of its delay-best PoP.
    let mut injector = FaultInjector::new();
    let mut fixed = 0usize;
    for (mi, m) in metas.iter().enumerate() {
        if displaced(&world, mi, m).is_none_or(|d| d <= threshold_ms) {
            continue;
        }
        let best_idx = matrix[mi]
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|x| (i, x)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("reachable");
        let (prefix, pop) = (m.prefix, pops[best_idx]);
        let force = Change::Mgmt(MgmtChange::ForceExit { prefix, pop });
        let World { internet, vns, .. } = &mut world;
        vns.apply(internet, &mut injector, force)
            .expect("reconverges");
        fixed += 1;
    }
    let bad_after = count_bad(&world);

    let mut table = Table::new(["state", "prefixes displaced beyond threshold"]);
    table.push(["before overrides".to_string(), bad_before.to_string()]);
    table.push([
        format!("after {fixed} force-exit overrides"),
        bad_after.to_string(),
    ]);
    Ablation {
        name: "continuous-measurement auto-overrides (Sec 3.2 ops loop)",
        table,
        values: vec![
            ("bad_before".into(), bad_before as f64),
            ("bad_after".into(), bad_after as f64),
            ("fixed".into(), fixed as f64),
        ],
    }
}

/// The Sec 6 economics analysis: cost per Mbps vs traffic volume, geo vs
/// hot-potato, with the cost breakdown.
pub fn economics(geo: &World, hot: &World) -> Ablation {
    use vns_core::economics::{analyze, sample_demands, CostModel};

    let seed = geo.config.seed;
    let model = CostModel::default();
    let mut table = Table::new([
        "calls (4 Mbps each)",
        "cost/Mbps (geo)",
        "L2 share",
        "commit util (geo)",
        "commit util (hot)",
    ]);
    let mut values = Vec::new();
    for n in [100usize, 400, 1600, 6400] {
        let demands = sample_demands(&geo.internet, n, 4.0, seed);
        let cb = analyze(&geo.vns, &geo.internet, &model, &demands);
        let demands_hot = sample_demands(&hot.internet, n, 4.0, seed);
        let cb_hot = analyze(&hot.vns, &hot.internet, &model, &demands_hot);
        // One ledger unit per demand routed through the cost model.
        vns_netsim::ledger::add_units((demands.len() + demands_hot.len()) as u64);
        table.push([
            n.to_string(),
            format!("{:.2}", cb.per_mbps()),
            vns_stats::pct(cb.l2 / cb.total()),
            vns_stats::pct(cb.l2_commit_utilization),
            vns_stats::pct(cb_hot.l2_commit_utilization),
        ]);
        values.push((format!("per_mbps@{n}"), cb.per_mbps()));
        values.push((format!("l2_util@{n}"), cb.l2_commit_utilization));
        values.push((format!("l2_util_hot@{n}"), cb_hot.l2_commit_utilization));
    }
    Ablation {
        name: "VNS economics (Sec 6: scale, L2 dominance, cold-potato utilisation)",
        table,
        values,
    }
}

/// Call-setup latency through VNS vs raw transit — signalling loss turns
/// into SIP retransmission delay (beyond-paper second-order effect).
pub fn setup_time(world: &World) -> Ablation {
    use vns_media::setup_call;
    use vns_netsim::{Dur, SimTime};

    let clients = [PopId(9), PopId(1), PopId(11)];
    let mut table = Table::new([
        "path",
        "median setup ms",
        "p95 setup ms",
        "setups needing retransmission",
    ]);
    let mut values = Vec::new();
    for via_vns in [true, false] {
        let mut setups = Vec::new();
        let mut retrans = 0usize;
        for &client in &clients {
            for echo in world.vns.echo_servers().to_vec() {
                let path = if via_vns {
                    world
                        .vns
                        .path_via_vns(&world.internet, client, echo.address())
                } else {
                    world
                        .vns
                        .path_via_upstream(&world.internet, client, echo.address())
                };
                let Ok(path) = path else { continue };
                let label = format!("sip:{}:{}:{}", client.0, echo.prefix, via_vns);
                let mut fwd = world.factory.channel(&path, &label);
                let mut rev = world
                    .factory
                    .channel(&path.reversed(), &format!("{label}:r"));
                for s in 0..40u64 {
                    let t = SimTime::EPOCH + Dur::from_mins(31 * s);
                    let r = setup_call(&mut fwd, &mut rev, t);
                    if r.established {
                        setups.push(r.setup_ms);
                    }
                    if r.invite_retransmissions > 0 {
                        retrans += 1;
                    }
                }
                // One ledger unit per call setup attempted.
                vns_netsim::ledger::add_units(40);
            }
        }
        let cdf = vns_stats::Cdf::new(setups);
        let name = if via_vns { "via VNS" } else { "via transit" };
        table.push([
            name.to_string(),
            format!("{:.0}", cdf.median().unwrap_or(f64::NAN)),
            format!("{:.0}", cdf.quantile(0.95).unwrap_or(f64::NAN)),
            retrans.to_string(),
        ]);
        values.push((format!("{name}:retrans"), retrans as f64));
        values.push((
            format!("{name}:p95"),
            cdf.quantile(0.95).unwrap_or(f64::NAN),
        ));
    }
    Ablation {
        name: "call-setup latency (SIP over lossy signalling paths)",
        table,
        values,
    }
}
