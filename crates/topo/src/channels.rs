//! From resolved paths to live channels: loss/delay profile assignment.
//!
//! This is where the paper's measured world is encoded as model parameters.
//! The calibration targets (see EXPERIMENTS.md for the fit):
//!
//! * **Dedicated VNS hops** — near-lossless: the paper sees zero loss
//!   intra-region and <0.01% residual cross-region (L2 circuits are
//!   multiplexed at a lower layer, so a tiny residual remains).
//! * **Shared transit hauls** — a small random baseline plus congestion
//!   loss whose diurnal clock is the hop's local time; the AP region runs
//!   hot (its local peak dominates everything routed through it — Fig 12),
//!   EU runs coolest, NA in between. Long hauls accumulate more loss
//!   (more internal hops), scaled by distance.
//! * **Convergence blackouts** — Poisson windows shared by every flow on a
//!   hop (Fig 10's bursty outliers).
//! * **Last miles** — per (AS type, region) mean-loss targets derived from
//!   Table 1: CAHPs are residential-congested (evening peak), ECs peak in
//!   business hours, LTP/STP edges are cleaner; NA is flat across types
//!   because LTPs there also serve residences.
//!
//! What is computed when:
//!
//! * **Per world** ([`ChannelFactory::new`]) — the calibration integrals.
//!   A congestion model hits a target mean by scaling `max_p`, and the
//!   scale is the curve's long-run mean at `max_p = 1`
//!   ([`LossModel::mean_rate`]: 96 day samples × 16 fluctuation
//!   quantiles). That integral reads the curve's shape, base, amplitude,
//!   knee and sigma and nothing else — not the hop, not its UTC offset —
//!   so one config has exactly seven of them: the four transit profiles
//!   and the three last-mile shapes. `new` evaluates all seven; nothing
//!   below it integrates.
//! * **Per hop** — the blackout schedule, generated on the first flow that
//!   crosses the hop and shared (not copied) by every later one, in either
//!   direction.
//! * **Per flow** — everything else: each hop's [`LossModel`] (arithmetic
//!   on the per-world means), its [`DelaySampler`], the loss-process and
//!   delay RNG seeds derived from the flow label.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_geo::{city, Region};
use vns_netsim::{
    BlackoutSchedule, DelaySampler, DiurnalProfile, Dur, FaultGenerator, HopChannel, LossModel,
    LossProcess, PathChannel, RngTree, SimTime,
};

use crate::astype::AsType;
use crate::path::{HopKind, HopLabel, ResolvedHop, ResolvedPath};

use vns_netsim::diurnal::DiurnalShape;

/// Regional shared-transit congestion parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransitProfile {
    /// Off-peak utilisation.
    pub base_util: f64,
    /// Peak add-on.
    pub amplitude: f64,
    /// Loss knee.
    pub knee: f64,
    /// Target long-run mean congestion loss per 4000 km of haul
    /// (fraction); the peak probability is derived from it.
    pub mean_per_4000km: f64,
    /// Random loss floor per 4000 km of haul (fraction).
    pub bernoulli_per_4000km: f64,
    /// Cap on the per-window loss probability (how bad a congested
    /// five-minute window can get on this region's hauls).
    pub window_cap: f64,
}

/// All tunable numbers.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Shared-transit profile per region.
    pub transit_eu: TransitProfile,
    /// See [`CalibrationConfig::transit_eu`].
    pub transit_na: TransitProfile,
    /// See [`CalibrationConfig::transit_eu`].
    pub transit_ap: TransitProfile,
    /// Profile for the remaining regions (OC/SA/ME/AF).
    pub transit_rest: TransitProfile,
    /// Random loss on a dedicated (VNS) L2 hop.
    pub dedicated_bernoulli: f64,
    /// Bursty residual on dedicated hops (lower-layer multiplexing):
    /// long-run rate.
    pub dedicated_burst_rate: f64,
    /// Convergence blackout events per day on each shared haul.
    pub blackout_events_per_day: f64,
    /// Blackout horizon (schedules are generated once per hop for this
    /// span).
    pub blackout_horizon: Dur,
    /// Mean last-mile loss targets, `[region][type]` with regions
    /// EU/NA/AP/rest and types LTP/STP/CAHP/EC, as *fractions*.
    pub last_mile_targets: [[f64; 4]; 4],
    /// Short-term congestion fluctuation (lognormal sigma).
    pub fluctuation_sigma: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            // Transit runs below the knee deterministically; loss happens
            // when a five-minute lognormal fluctuation window pushes a haul
            // over it. With sigma 0.35 and knee 0.80 the knee-crossing
            // probability is ~1.6% at utilisation 0.40, ~6% at 0.50, ~16%
            // at 0.60, ~29% at 0.70 — these levels set how often streams
            // meet a congested window (Fig 9's exceedance fractions).
            transit_eu: TransitProfile {
                base_util: 0.35,
                amplitude: 0.12,
                knee: 0.80,
                mean_per_4000km: 0.00010,
                bernoulli_per_4000km: 1.5e-5,
                window_cap: 0.04,
            },
            // NA a bit hotter.
            transit_na: TransitProfile {
                base_util: 0.40,
                amplitude: 0.12,
                knee: 0.80,
                mean_per_4000km: 0.00028,
                bernoulli_per_4000km: 2.5e-5,
                window_cap: 0.05,
            },
            // AP runs hot around the clock (its trough still crosses the
            // knee ~6% of windows), and its *local* business day dominates
            // — Fig 12's masking effect.
            transit_ap: TransitProfile {
                base_util: 0.45,
                amplitude: 0.18,
                knee: 0.80,
                mean_per_4000km: 0.00180,
                bernoulli_per_4000km: 6e-5,
                window_cap: 0.12,
            },
            transit_rest: TransitProfile {
                base_util: 0.54,
                amplitude: 0.24,
                knee: 0.80,
                mean_per_4000km: 0.00200,
                bernoulli_per_4000km: 5e-5,
                window_cap: 0.12,
            },
            dedicated_bernoulli: 8e-6,
            dedicated_burst_rate: 2e-6,
            blackout_events_per_day: 4.0,
            blackout_horizon: Dur::from_days(30),
            // Means as fractions: rows EU, NA, AP, rest; cols LTP, STP,
            // CAHP, EC. Derived from Table 1 minus the transit component.
            // One-way means; a ping round trip crosses the last mile
            // twice, so the measured Table 1 values are ~2x these plus
            // transit.
            last_mile_targets: [
                [0.0003, 0.0027, 0.0073, 0.0023], // EU
                [0.0018, 0.0015, 0.0015, 0.0018], // NA (flat; LTPs serve homes)
                [0.0002, 0.0017, 0.0044, 0.0028], // AP
                [0.0004, 0.0022, 0.0050, 0.0032], // OC/SA/ME/AF
            ],
            fluctuation_sigma: 0.35,
        }
    }
}

/// Which of the four shared-transit profiles a haul runs on. A profile and
/// its calibration integral are both selected by slot, so a unit mean can
/// only ever meet the curve it was computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransitSlot {
    Eu,
    Na,
    Ap,
    /// OC/SA/ME/AF.
    Rest,
}

impl TransitSlot {
    const ALL: [TransitSlot; 4] = [Self::Eu, Self::Na, Self::Ap, Self::Rest];

    fn of(region: Region) -> Self {
        match region {
            Region::Europe => Self::Eu,
            Region::NorthAmerica => Self::Na,
            Region::AsiaPacific => Self::Ap,
            _ => Self::Rest,
        }
    }
}

impl CalibrationConfig {
    /// Transit profile for a region.
    pub fn transit(&self, region: Region) -> TransitProfile {
        self.transit_in(TransitSlot::of(region))
    }

    fn transit_in(&self, slot: TransitSlot) -> TransitProfile {
        match slot {
            TransitSlot::Eu => self.transit_eu,
            TransitSlot::Na => self.transit_na,
            TransitSlot::Ap => self.transit_ap,
            TransitSlot::Rest => self.transit_rest,
        }
    }

    /// Mean last-mile loss target.
    pub fn last_mile_target(&self, ty: AsType, region: Region) -> f64 {
        let r = match region {
            Region::Europe => 0,
            Region::NorthAmerica => 1,
            Region::AsiaPacific => 2,
            _ => 3,
        };
        let t = match ty {
            AsType::Ltp => 0,
            AsType::Stp => 1,
            AsType::Cahp => 2,
            AsType::Ec => 3,
        };
        self.last_mile_targets[r][t]
    }
}

/// Every last mile runs the same utilisation curve; only its diurnal
/// shape differs by AS type.
const LAST_MILE_BASE_UTIL: f64 = 0.50;
const LAST_MILE_AMPLITUDE: f64 = 0.42;
const LAST_MILE_KNEE: f64 = 0.70;

/// The three last-mile shapes, in [`last_mile_slot`] order.
const LAST_MILE_SHAPES: [DiurnalShape; 3] = [
    DiurnalShape::Mixed,
    DiurnalShape::Residential,
    DiurnalShape::Business,
];

/// Index into [`LAST_MILE_SHAPES`] (and the factory's last-mile unit
/// means) for a last mile of the given AS type.
fn last_mile_slot(ty: AsType) -> usize {
    match ty {
        AsType::Ltp | AsType::Stp => 0,
        AsType::Cahp => 1,
        AsType::Ec => 2,
    }
}

/// The utilisation curve of a last mile of the given AS type whose local
/// clock runs `utc_offset` hours off UTC.
fn last_mile_profile(ty: AsType, utc_offset: f64) -> DiurnalProfile {
    DiurnalProfile::new(
        LAST_MILE_SHAPES[last_mile_slot(ty)],
        LAST_MILE_BASE_UTIL,
        LAST_MILE_AMPLITUDE,
        utc_offset,
    )
}

/// Clamps a congestion model's peak window probability.
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

/// Builds a congestion model whose long-run mean equals `target` by scaling
/// `max_p`. The mean is linear in `max_p`, so the curve's mean at
/// `max_p = 1` (`unit_mean`, one of the factory's seven) calibrates the
/// peak probability exactly.
fn congestion_with_mean(
    target: f64,
    unit_mean: f64,
    profile: DiurnalProfile,
    knee: f64,
    sigma: f64,
) -> LossModel {
    let max_p = if unit_mean > 0.0 {
        (target / unit_mean).min(1.0)
    } else {
        0.0
    };
    LossModel::Congestion {
        profile,
        knee,
        max_p,
        fluctuation_sigma: sigma,
    }
}

/// Builds [`PathChannel`]s from resolved paths, caching per-hop blackout
/// schedules so concurrent flows see the same outage windows.
///
/// The seven calibration integrals (module docs) are a table fixed by the
/// config at construction, not a cache: there is no miss and nothing to
/// invalidate.
///
/// Every schedule and seed is derived from the factory's [`RngTree`] by
/// label, never from call order — so [`ChannelFactory::channel`] takes
/// `&self` and can be called from campaign worker threads concurrently
/// with byte-identical results at any thread count. The blackout cache is
/// pure memoization behind a [`Mutex`]; a cache hit and a recomputation
/// return the same schedule.
#[derive(Debug)]
pub struct ChannelFactory {
    config: CalibrationConfig,
    /// Mean loss at `max_p = 1` of each transit profile's congestion
    /// curve, indexed by [`TransitSlot`].
    transit_unit_means: [f64; 4],
    /// The same for the last-mile curve under each of
    /// [`LAST_MILE_SHAPES`], indexed by [`last_mile_slot`].
    last_mile_unit_means: [f64; 3],
    rng: RngTree,
    blackout_cache: Mutex<BTreeMap<HopLabel, BlackoutSchedule>>,
}

impl ChannelFactory {
    /// Creates a factory. `rng` should be a dedicated subtree (e.g.
    /// `tree.subtree("channels")`).
    pub fn new(config: CalibrationConfig, rng: RngTree) -> Self {
        // The integral does not read the profile's UTC offset (a full day
        // is averaged either way), so one value serves every hop.
        let unit_mean = |shape, base, amplitude, knee| {
            LossModel::Congestion {
                profile: DiurnalProfile::new(shape, base, amplitude, 0.0),
                knee,
                max_p: 1.0,
                fluctuation_sigma: config.fluctuation_sigma,
            }
            .mean_rate()
        };
        let transit_unit_means = TransitSlot::ALL.map(|slot| {
            let t = config.transit_in(slot);
            unit_mean(DiurnalShape::Mixed, t.base_util, t.amplitude, t.knee)
        });
        let last_mile_unit_means = LAST_MILE_SHAPES.map(|shape| {
            unit_mean(
                shape,
                LAST_MILE_BASE_UTIL,
                LAST_MILE_AMPLITUDE,
                LAST_MILE_KNEE,
            )
        });
        Self {
            config,
            transit_unit_means,
            last_mile_unit_means,
            rng,
            blackout_cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of hop blackout schedules memoized so far (diagnostics).
    pub fn cached_blackout_schedules(&self) -> usize {
        // The cache is a pure memo of deterministic schedules — always
        // valid, so recover from poisoning rather than cascading a
        // worker's panic into misleading poisoned-lock aborts under par_map.
        self.blackout_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Configuration access.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// The loss model of a shared haul of `km` on the given transit profile.
    fn haul_model(&self, slot: TransitSlot, km: f64, mid_offset: f64) -> LossModel {
        let t = self.config.transit_in(slot);
        let spans = 0.5 + (km / 4000.0);
        LossModel::Composite(vec![
            LossModel::Bernoulli {
                p: (t.bernoulli_per_4000km * spans).min(0.01),
            },
            cap_max_p(
                congestion_with_mean(
                    (t.mean_per_4000km * spans).min(0.05),
                    self.transit_unit_means[slot as usize],
                    DiurnalProfile::new(DiurnalShape::Mixed, t.base_util, t.amplitude, mid_offset),
                    t.knee,
                    self.config.fluctuation_sigma,
                ),
                // Sustained transit congestion tops out at several
                // percent even in a terrible five-minute window (Fig 10's
                // upper-right outliers reach ~5–10% per stream, not 50%).
                t.window_cap,
            ),
        ])
    }

    /// The shared-haul loss model for a hop of `km` between two regions.
    ///
    /// Cross-region hauls take the *milder* endpoint profile: submarine
    /// long-haul systems are managed point-to-point capacity, and the
    /// congestion the paper measures lives in domestic aggregation — which
    /// is also why its SJS vantage reaches AP destinations about as well
    /// as AP's own PoPs do (Sec 5.2.2).
    ///
    /// `to` is the hop kind's `region`, which on a
    /// [`ResolvedPath::reversed`] hop equals `from` — so the rule holds on
    /// forward legs only (see [`HopKind::IntraAs`]'s `region`), and a
    /// hop's label does not determine its model.
    fn transit_model(&self, from: Region, to: Region, km: f64, mid_offset: f64) -> LossModel {
        use TransitSlot::{Ap, Eu, Rest};
        let (from, to) = (TransitSlot::of(from), TransitSlot::of(to));
        let peak = |slot| {
            let t = self.config.transit_in(slot);
            t.base_util + t.amplitude
        };
        // Regions with scarce international capacity (OC/SA/ME/AF) keep
        // their hot profile on any haul touching them. The EU<->AP route
        // (Suez/overland) was congested in the measurement era, so it takes
        // the heavier AP profile; the trans-Pacific and trans-Atlantic
        // systems were premium capacity, so those hauls take the milder
        // endpoint — which is why the paper's SJS vantage reaches AP about
        // as well as AP's own PoPs, and NA->EU looks like EU->EU.
        let slot = if from == Rest || to == Rest {
            Rest
        } else if matches!((from, to), (Eu, Ap) | (Ap, Eu)) {
            Ap
        } else if peak(from) <= peak(to) {
            from
        } else {
            to
        };
        self.haul_model(slot, km, mid_offset)
    }

    /// The loss model for one hop (public for calibration tests).
    pub fn loss_model(&self, hop: &ResolvedHop) -> LossModel {
        let mid_offset = (city(hop.from_city).location.utc_offset_hours()
            + city(hop.to_city).location.utc_offset_hours())
            / 2.0;
        match hop.kind {
            HopKind::IntraAs {
                dedicated: true, ..
            } => LossModel::Composite(vec![
                LossModel::Bernoulli {
                    p: self.config.dedicated_bernoulli,
                },
                LossModel::bursty(self.config.dedicated_burst_rate, 0.15, 0.5),
            ]),
            HopKind::IntraAs { region, .. } => {
                self.transit_model(city(hop.from_city).region, region, hop.km, mid_offset)
            }
            // A very long "interconnect" is a leased backhaul port (the
            // London transit port landing in Ashburn): oversubscribed
            // bargain capacity — the scarce-capacity profile applies.
            HopKind::InterAs { .. } if hop.km > 2000.0 => {
                self.haul_model(TransitSlot::Rest, hop.km, mid_offset)
            }
            // A medium "interconnect" is an access circuit: regional haul
            // profile.
            HopKind::InterAs { region } if hop.km > 500.0 => {
                self.transit_model(city(hop.from_city).region, region, hop.km, mid_offset)
            }
            HopKind::InterAs { .. } => LossModel::Bernoulli { p: 1e-5 },
            HopKind::LastMile { ty, region } => {
                let target = self.config.last_mile_target(ty, region);
                let offset = city(hop.to_city).location.utc_offset_hours();
                LossModel::Composite(vec![
                    // A fifth of the target is state-free random loss …
                    LossModel::Bernoulli { p: target * 0.2 },
                    // … the rest follows the type's diurnal congestion.
                    congestion_with_mean(
                        target * 0.8,
                        self.last_mile_unit_means[last_mile_slot(ty)],
                        last_mile_profile(ty, offset),
                        LAST_MILE_KNEE,
                        self.config.fluctuation_sigma,
                    ),
                ])
            }
        }
    }

    /// The delay sampler for one hop.
    pub fn delay_sampler(&self, hop: &ResolvedHop) -> DelaySampler {
        let prop_ms = vns_geo::coords::propagation_delay_ms(hop.km);
        match hop.kind {
            HopKind::IntraAs {
                dedicated: true, ..
            } => {
                // Dedicated circuits: propagation + small switching margin.
                DelaySampler::fixed(prop_ms + 0.15)
            }
            HopKind::IntraAs { region, .. } => {
                let t = self.config.transit(region);
                let mid_offset = (city(hop.from_city).location.utc_offset_hours()
                    + city(hop.to_city).location.utc_offset_hours())
                    / 2.0;
                DelaySampler::contended(
                    prop_ms + 0.3,
                    DiurnalProfile::new(DiurnalShape::Mixed, t.base_util, t.amplitude, mid_offset),
                )
            }
            HopKind::InterAs { .. } => DelaySampler::fixed(prop_ms + 0.2),
            HopKind::LastMile { ty, .. } => {
                let offset = city(hop.to_city).location.utc_offset_hours();
                DelaySampler::contended(3.0, last_mile_profile(ty, offset))
            }
        }
    }

    /// Blackout schedule for a hop (cached by label: flows share outages).
    ///
    /// The schedule is a pure function of (factory seed, hop label); the
    /// cache only avoids regenerating it, so concurrent callers racing on
    /// the same label compute identical schedules either way. A hit hands
    /// out a clone that shares the cached windows, so the lock is held for
    /// a map lookup and a reference-count bump.
    fn blackouts(&self, hop: &ResolvedHop) -> BlackoutSchedule {
        let subject_to_faults = matches!(
            hop.kind,
            HopKind::IntraAs {
                dedicated: false,
                ..
            }
        ) || (matches!(hop.kind, HopKind::InterAs { .. })
            && hop.km > 500.0);
        if !subject_to_faults || self.config.blackout_events_per_day <= 0.0 {
            return BlackoutSchedule::none();
        }
        // Pure memo: never invalid, so a panicked peer's poison is safe to
        // strip (see cached_blackout_schedules).
        let mut cache = self
            .blackout_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(s) = cache.get(&hop.label) {
            return s.clone();
        }
        let gen = FaultGenerator::convergence(self.config.blackout_events_per_day);
        let mut label = self.rng.label_hash();
        label.bytes(b"blackout:");
        hop.label.write_to(&mut label);
        let mut rng = SmallRng::seed_from_u64(label.finish());
        let schedule = gen.generate(SimTime::EPOCH, self.config.blackout_horizon, &mut rng);
        cache.insert(hop.label, schedule.clone());
        schedule
    }

    /// Builds a per-flow channel for `path`. `flow_label` individualises
    /// the flow's loss-process state and delay draws; reusing a label
    /// reproduces the identical packet fate sequence.
    pub fn channel(&self, path: &ResolvedPath, flow_label: &str) -> PathChannel {
        self.channel_args(path, format_args!("{flow_label}"))
    }

    /// Like [`ChannelFactory::channel`], but takes the flow label as
    /// `format_args!` so campaign hot paths (one channel per probe) derive
    /// seeds without materialising a label `String`. Hash-compatible with
    /// the `&str` form: `channel_args(p, format_args!("x"))` ==
    /// `channel(p, "x")`.
    ///
    /// Hop `i`'s loss process is seeded by the factory tree's
    /// `seed_for("flow:{flow_label}:hop{i}:{label}")`, where `{label}` is
    /// the hop label's text, and the flow's delay stream by
    /// `stream("flowdelay:{flow_label}")`. The per-hop label is never
    /// rendered: `flow:{flow_label}:hop` is hashed once into a
    /// [`LabelHash`](vns_netsim::LabelHash), and each hop resumes a copy
    /// of it with `{i}:` and [`HopLabel::write_to`].
    pub fn channel_args(&self, path: &ResolvedPath, flow_label: fmt::Arguments<'_>) -> PathChannel {
        let mut flow = self.rng.label_hash();
        flow.bytes(b"flow:");
        flow.args(flow_label);
        flow.bytes(b":hop");
        let mut hops = Vec::with_capacity(path.hops.len());
        for (i, hop) in path.hops.iter().enumerate() {
            let model = self.loss_model(hop);
            let delay = self.delay_sampler(hop);
            let blackouts = self.blackouts(hop);
            let mut label = flow;
            label.uint(i as u64);
            label.bytes(b":");
            hop.label.write_to(&mut label);
            let seed = label.finish();
            debug_assert_eq!(
                seed,
                self.rng
                    .seed_for_args(format_args!("flow:{flow_label}:hop{i}:{}", hop.label)),
                "resumed seed of hop {i} ({}) of flow {flow_label}",
                hop.label
            );
            hops.push(HopChannel {
                loss: LossProcess::new(model, SmallRng::seed_from_u64(seed)),
                delay,
                blackouts,
            });
        }
        let rng = self.rng.stream_args(format_args!("flowdelay:{flow_label}"));
        PathChannel::new(hops, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_bgp::Asn;
    use vns_geo::cities::city_by_name;

    fn hop(kind: HopKind, from: &str, to: &str, km: f64, label: HopLabel) -> ResolvedHop {
        ResolvedHop {
            kind,
            from_city: city_by_name(from).unwrap().0,
            to_city: city_by_name(to).unwrap().0,
            km,
            label,
        }
    }

    /// A test label of the backbone shape between two named cities.
    fn bb(asn: u32, dedicated: bool, from: &str, to: &str) -> HopLabel {
        HopLabel::Backbone {
            asn: Asn(asn),
            dedicated,
            from: city_by_name(from).unwrap().0,
            to: city_by_name(to).unwrap().0,
        }
    }

    /// A test label of the last-mile shape.
    fn lm(asn: u32) -> HopLabel {
        HopLabel::LastMile {
            asn: Asn(asn),
            prefix: "10.0.0.0/24".parse().unwrap(),
        }
    }

    fn factory() -> ChannelFactory {
        ChannelFactory::new(CalibrationConfig::default(), RngTree::new(42).subtree("ch"))
    }

    #[test]
    fn dedicated_hops_nearly_lossless() {
        let f = factory();
        let h = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Stp,
                region: Region::Europe,
                dedicated: true,
            },
            "Amsterdam",
            "London",
            360.0,
            bb(1, true, "Amsterdam", "London"),
        );
        let rate = f.loss_model(&h).mean_rate();
        assert!(rate < 1e-4, "dedicated rate {rate}");
    }

    #[test]
    fn ap_transit_lossier_than_eu() {
        let f = factory();
        let eu = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::Europe,
                dedicated: false,
            },
            "Amsterdam",
            "Frankfurt",
            360.0,
            bb(1, false, "Amsterdam", "Frankfurt"),
        );
        let ap = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::AsiaPacific,
                dedicated: false,
            },
            "Singapore",
            "HongKong",
            2600.0,
            bb(1, false, "Singapore", "HongKong"),
        );
        let eu_rate = f.loss_model(&eu).mean_rate();
        let ap_rate = f.loss_model(&ap).mean_rate();
        assert!(
            ap_rate > 3.0 * eu_rate,
            "AP {ap_rate} should dwarf EU {eu_rate}"
        );
    }

    #[test]
    fn longer_hauls_lose_more() {
        let f = factory();
        let mk = |km| {
            hop(
                HopKind::IntraAs {
                    asn: Asn(1),
                    ty: AsType::Ltp,
                    region: Region::NorthAmerica,
                    dedicated: false,
                },
                "NewYork",
                "LosAngeles",
                km,
                bb(1, false, "NewYork", "LosAngeles"),
            )
        };
        assert!(
            f.loss_model(&mk(8000.0)).mean_rate() > 1.5 * f.loss_model(&mk(1000.0)).mean_rate()
        );
    }

    #[test]
    fn last_mile_means_match_targets() {
        let f = factory();
        let cfg = CalibrationConfig::default();
        for (ty, region, cname) in [
            (AsType::Cahp, Region::AsiaPacific, "Singapore"),
            (AsType::Ltp, Region::Europe, "Amsterdam"),
            (AsType::Ec, Region::NorthAmerica, "Atlanta"),
        ] {
            let h = hop(HopKind::LastMile { ty, region }, cname, cname, 30.0, lm(1));
            let target = cfg.last_mile_target(ty, region);
            let got = f.loss_model(&h).mean_rate();
            assert!(
                (got - target).abs() / target < 0.25,
                "{ty} {region}: target {target}, got {got}"
            );
        }
    }

    #[test]
    fn table1_ordering_holds_in_targets() {
        // AP & EU: CAHP > EC > STP > LTP; NA: roughly flat.
        let cfg = CalibrationConfig::default();
        for region in [Region::AsiaPacific, Region::Europe] {
            let lm = |t| cfg.last_mile_target(t, region);
            assert!(lm(AsType::Cahp) > lm(AsType::Ec), "{region}");
            assert!(lm(AsType::Ec) > lm(AsType::Ltp), "{region}");
            assert!(lm(AsType::Stp) > lm(AsType::Ltp), "{region}");
        }
        let na: Vec<f64> = AsType::ALL
            .iter()
            .map(|t| cfg.last_mile_target(*t, Region::NorthAmerica))
            .collect();
        let spread = na.iter().cloned().fold(f64::MIN, f64::max)
            / na.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.5, "NA should be flat, spread {spread}");
    }

    #[test]
    fn blackout_schedules_shared_across_flows() {
        let f = factory();
        let h = hop(
            HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::Europe,
                dedicated: false,
            },
            "Amsterdam",
            "Frankfurt",
            360.0,
            bb(1, false, "Amsterdam", "Frankfurt"),
        );
        let path = ResolvedPath {
            hops: vec![h],
            routers: vec![],
        };
        let a = f.channel(&path, "flow-a");
        let b = f.channel(&path, "flow-b");
        // Same hop label -> same blackout schedule object contents. Verify
        // indirectly: both channels have one hop and identical base delay.
        assert_eq!(a.hop_count(), 1);
        assert_eq!(a.base_delay_ms(), b.base_delay_ms());
        assert_eq!(f.cached_blackout_schedules(), 1);
    }

    #[test]
    fn channel_construction_deterministic() {
        let mk = || {
            let f = factory();
            let h = hop(
                HopKind::LastMile {
                    ty: AsType::Cahp,
                    region: Region::Europe,
                },
                "Amsterdam",
                "Amsterdam",
                30.0,
                lm(1),
            );
            let path = ResolvedPath {
                hops: vec![h],
                routers: vec![],
            };
            let mut ch = f.channel(&path, "flow");
            let mut outcomes = Vec::new();
            for i in 0..2000u64 {
                let t = SimTime::EPOCH + Dur::from_secs(i * 40);
                outcomes.push(ch.send(t).delivered());
            }
            outcomes
        };
        assert_eq!(mk(), mk());
    }

    /// A call-shaped path: last mile, shared haul, long leased
    /// interconnect, dedicated VNS leg.
    fn mixed_path() -> ResolvedPath {
        let haul = |region, dedicated| HopKind::IntraAs {
            asn: Asn(7),
            ty: AsType::Ltp,
            region,
            dedicated,
        };
        let last_mile = HopKind::LastMile {
            ty: AsType::Cahp,
            region: Region::Europe,
        };
        let port = HopKind::InterAs {
            region: Region::NorthAmerica,
        };
        ResolvedPath {
            hops: vec![
                hop(last_mile, "Amsterdam", "Amsterdam", 30.0, lm(7)),
                hop(
                    haul(Region::Europe, false),
                    "Amsterdam",
                    "London",
                    360.0,
                    bb(7, false, "Amsterdam", "London"),
                ),
                hop(
                    port,
                    "London",
                    "Ashburn",
                    5900.0,
                    HopLabel::Ix {
                        asn: Asn(7),
                        peer: vns_bgp::SpeakerId(8),
                        city: city_by_name("Ashburn").unwrap().0,
                    },
                ),
                hop(
                    haul(Region::AsiaPacific, true),
                    "Ashburn",
                    "Singapore",
                    15500.0,
                    bb(7, true, "Ashburn", "Singapore"),
                ),
            ],
            routers: vec![],
        }
    }

    #[test]
    fn channels_do_not_depend_on_factory_history() {
        // Nothing a factory has built before may leak into the next
        // channel: the calibration table is fixed at construction and the
        // blackout memo only ever returns what it would recompute.
        let (used, fresh) = (factory(), factory());
        let path = mixed_path();
        let back = path.reversed();
        let mut unrelated = path.clone();
        for (i, h) in unrelated.hops.iter_mut().enumerate() {
            h.label = HopLabel::Intra {
                asn: Asn(900 + i as u32),
                from: h.from_city,
                to: h.to_city,
            };
            h.km += 777.0;
        }
        for i in 0..1000 {
            let _ = used.channel(&unrelated, &format!("warm:{i}"));
        }
        // 10k packet fates, 30 s apart: 3.5 days cross diurnal peaks,
        // fluctuation resamples and blackout windows.
        let fates = |f: &ChannelFactory, p: &ResolvedPath, label: &str| {
            let mut ch = f.channel(p, label);
            (0..10_000u64)
                .map(|i| ch.send(SimTime::EPOCH + Dur::from_secs(i * 30)))
                .collect::<Vec<_>>()
        };
        for (p, label) in [(&path, "call:fwd"), (&back, "call:rev")] {
            let got = fates(&used, p, label);
            assert_eq!(got, fates(&fresh, p, label), "{label}");
            let lost = got.iter().filter(|o| !o.delivered()).count();
            assert!(lost > 0 && lost < got.len(), "{label}: lost {lost}");
        }
    }
}

#[cfg(test)]
mod blackout_tests {
    use super::*;
    use vns_bgp::Asn;
    use vns_geo::cities::city_by_name;

    #[test]
    fn faultable_hops_get_blackout_schedules() {
        let f = ChannelFactory::new(CalibrationConfig::default(), RngTree::new(7).subtree("ch"));
        let hop = ResolvedHop {
            kind: HopKind::IntraAs {
                asn: Asn(1),
                ty: AsType::Ltp,
                region: Region::NorthAmerica,
                dedicated: false,
            },
            from_city: city_by_name("NewYork").unwrap().0,
            to_city: city_by_name("Ashburn").unwrap().0,
            km: 455.0,
            label: HopLabel::Backbone {
                asn: Asn(1),
                dedicated: false,
                from: city_by_name("NewYork").unwrap().0,
                to: city_by_name("Ashburn").unwrap().0,
            },
        };
        let path = ResolvedPath {
            hops: vec![hop],
            routers: vec![],
        };
        let ch = f.channel(&path, "flow");
        let _ = ch;
        let sched = f
            .blackout_cache
            .lock()
            .unwrap()
            .get(&hop.label)
            .expect("schedule cached")
            .clone();
        // 30-day horizon at 4 events/day: ~120 windows.
        assert!(
            (60..240).contains(&sched.len()),
            "blackout windows {}",
            sched.len()
        );
        // A dense packet train over 30 days must hit some of them.
        let mut ch = f.channel(&path, "flow2");
        let mut lost = 0;
        let mut t = SimTime::EPOCH;
        for _ in 0..(30 * 24 * 360) {
            if !ch.send(t).delivered() {
                lost += 1;
            }
            t += Dur::from_secs(10);
        }
        // Expected blackout hits alone: ~120 windows * 4.5 s / 10 s ≈ 54.
        assert!(lost > 30, "lost {lost}");
    }
}
