//! Packet-loss processes.
//!
//! Sec 5 of the paper distinguishes three kinds of loss, all of which appear
//! in Fig 10:
//!
//! * a **random baseline** — small, evenly spread over time (FEC-fixable);
//! * **bursty loss** — large loss concentrated in a few seconds (routing
//!   convergence, transient congestion);
//! * **sustained congestion loss** — elevated loss across a whole session,
//!   diurnal, prevalent on under-provisioned links and residential edges.
//!
//! They are modelled respectively by [`LossModel::Bernoulli`], a
//! continuous-time Gilbert–Elliott chain ([`LossModel::GilbertElliott`]) and
//! a utilisation-coupled model ([`LossModel::Congestion`]) driven by a
//! [`DiurnalProfile`]. [`LossModel::Composite`] stacks them, which is how
//! link profiles in `vns-topo` are built.
//!
//! A [`LossModel`] is pure configuration; a [`LossProcess`] adds the mutable
//! state (chain state, fluctuation multiplier, RNG) that a single traffic
//! flow walks through time. Distinct flows over the same link get distinct
//! processes — we model loss correlation *within* a flow (bursts hit
//! back-to-back packets), not across flows.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::diurnal::DiurnalProfile;
use crate::time::{Dur, SimTime};

/// Loss-model configuration (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// Never loses a packet.
    None,
    /// Independent per-packet loss with probability `p`.
    Bernoulli {
        /// Per-packet loss probability.
        p: f64,
    },
    /// Two-state continuous-time Gilbert–Elliott chain. The chain spends
    /// exponential sojourns in Good/Bad; packets are dropped with
    /// `loss_good`/`loss_bad` depending on the state at send time.
    GilbertElliott {
        /// Good→Bad transition rate (events per second).
        g2b_per_sec: f64,
        /// Bad→Good transition rate (events per second).
        b2g_per_sec: f64,
        /// Per-packet loss probability in Good.
        loss_good: f64,
        /// Per-packet loss probability in Bad.
        loss_bad: f64,
    },
    /// Congestion loss: per-packet probability grows once utilisation
    /// exceeds the knee. Utilisation comes from the diurnal profile times a
    /// slowly resampled lognormal fluctuation (5-minute correlation), which
    /// produces lossy and clean slots rather than a constant drizzle.
    Congestion {
        /// Time-of-day utilisation curve of the link.
        profile: DiurnalProfile,
        /// Utilisation above which queues start dropping.
        knee: f64,
        /// Loss probability when utilisation reaches 1.0 (quadratic ramp
        /// from the knee).
        max_p: f64,
        /// Std-dev of the lognormal short-term fluctuation (0 disables).
        fluctuation_sigma: f64,
    },
    /// Independent stacked models; a packet survives only if it survives
    /// every component.
    Composite(Vec<LossModel>),
}

impl LossModel {
    /// Convenience: a bursty model with a target *long-run* loss rate.
    ///
    /// * `overall_rate` — stationary packet-loss fraction,
    /// * `loss_bad` — in-burst loss fraction (e.g. 0.3),
    /// * `mean_burst_secs` — average burst duration.
    ///
    /// The Good state is lossless; the chain's stationary Bad occupancy is
    /// chosen so `occupancy * loss_bad = overall_rate`.
    pub fn bursty(overall_rate: f64, loss_bad: f64, mean_burst_secs: f64) -> LossModel {
        assert!(
            overall_rate < loss_bad,
            "burst loss must exceed target rate"
        );
        assert!(mean_burst_secs > 0.0);
        let occupancy = overall_rate / loss_bad; // πB
        let b2g = 1.0 / mean_burst_secs;
        // πB = g2b / (g2b + b2g)  =>  g2b = b2g * πB / (1 - πB)
        let g2b = b2g * occupancy / (1.0 - occupancy);
        LossModel::GilbertElliott {
            g2b_per_sec: g2b,
            b2g_per_sec: b2g,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// Long-run mean per-packet loss probability (time-averaged over a day
    /// for congestion models). Used for calibration and tests; sampling a
    /// process converges to this.
    pub fn mean_rate(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott {
                g2b_per_sec,
                b2g_per_sec,
                loss_good,
                loss_bad,
            } => {
                let total = g2b_per_sec + b2g_per_sec;
                if total <= 0.0 {
                    return *loss_good;
                }
                let pi_bad = g2b_per_sec / total;
                pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
            }
            LossModel::Congestion {
                profile,
                knee,
                max_p,
                fluctuation_sigma,
            } => {
                // Average over the day AND over the lognormal short-term
                // fluctuation (16 quantile midpoints). The fluctuation is
                // what lets a link whose deterministic peak sits below the
                // knee still lose packets in bad five-minute windows, so
                // ignoring it would bias calibration to zero.
                //
                // The lognormal multiplier depends on the quantile only,
                // so it is evaluated once per quantile, outside the day
                // loop (`vns-topo` runs this integral seven times per
                // `ChannelFactory`).
                let quantiles: &[f64] = if *fluctuation_sigma > 0.0 {
                    &STD_NORMAL_Q16
                } else {
                    &[0.0]
                };
                let mut flucts = [0.0; STD_NORMAL_Q16.len()];
                for (fluct, &z) in flucts.iter_mut().zip(quantiles) {
                    *fluct =
                        (z * fluctuation_sigma - 0.5 * fluctuation_sigma * fluctuation_sigma).exp();
                }
                let flucts = &flucts[..quantiles.len()];
                let n = 96;
                let mut acc = 0.0;
                for i in 0..n {
                    let u0 = profile.utilization_at_hour(24.0 * i as f64 / n as f64);
                    for &fluct in flucts {
                        acc += congestion_p((u0 * fluct).clamp(0.0, 1.0), *knee, *max_p);
                    }
                }
                acc / (n as f64 * flucts.len() as f64)
            }
            LossModel::Composite(models) => {
                // Survival product under independence.
                1.0 - models.iter().map(|m| 1.0 - m.mean_rate()).product::<f64>()
            }
        }
    }
}

/// Midpoints of the 16 equal-probability bands of the standard normal
/// (z-scores at p = 1/32, 3/32, …, 31/32).
const STD_NORMAL_Q16: [f64; 16] = [
    -1.863, -1.318, -1.010, -0.776, -0.579, -0.402, -0.237, -0.078, 0.078, 0.237, 0.402, 0.579,
    0.776, 1.010, 1.318, 1.863,
];

/// Quadratic congestion ramp above the knee.
fn congestion_p(util: f64, knee: f64, max_p: f64) -> f64 {
    if util <= knee || knee >= 1.0 {
        0.0
    } else {
        let x = ((util - knee) / (1.0 - knee)).clamp(0.0, 1.0);
        max_p * x * x
    }
}

/// How often the congestion fluctuation multiplier is resampled.
const FLUCTUATION_PERIOD: Dur = Dur::from_secs(300);

/// Per-flow mutable state for one [`LossModel`].
#[derive(Debug, Clone)]
pub struct LossProcess {
    /// The configuration `state` walks. A composite's children were moved
    /// into their own processes (`State::Composite`), so its list is
    /// empty here.
    model: LossModel,
    rng: SmallRng,
    state: State,
}

#[derive(Debug, Clone)]
enum State {
    Stateless,
    Ge { bad: bool, last: SimTime },
    Congestion { fluct: f64, next_resample: SimTime },
    Composite(Vec<LossProcess>),
}

impl LossProcess {
    /// Creates a process for `model`, seeded by `rng`. A composite draws
    /// one seed from `rng` per child, in order, and moves each child model
    /// into that child's process.
    pub fn new(mut model: LossModel, mut rng: SmallRng) -> Self {
        let state = match &mut model {
            LossModel::None | LossModel::Bernoulli { .. } => State::Stateless,
            &mut LossModel::GilbertElliott {
                g2b_per_sec,
                b2g_per_sec,
                ..
            } => {
                // Start from the stationary distribution so early samples
                // are unbiased.
                let total = g2b_per_sec + b2g_per_sec;
                let pi_bad = if total > 0.0 {
                    g2b_per_sec / total
                } else {
                    0.0
                };
                State::Ge {
                    bad: rng.gen_bool(pi_bad.clamp(0.0, 1.0)),
                    last: SimTime::EPOCH,
                }
            }
            LossModel::Congestion { .. } => State::Congestion {
                fluct: 1.0,
                next_resample: SimTime::EPOCH,
            },
            LossModel::Composite(models) => {
                use rand::SeedableRng;
                let children = std::mem::take(models)
                    .into_iter()
                    .map(|m| {
                        let seed: u64 = rng.gen();
                        LossProcess::new(m, SmallRng::seed_from_u64(seed))
                    })
                    .collect();
                State::Composite(children)
            }
        };
        Self { model, rng, state }
    }

    /// Instantaneous per-packet loss probability at time `t`, evolving the
    /// internal state to `t` first.
    pub fn loss_prob(&mut self, t: SimTime) -> f64 {
        // Split borrows: state and rng are distinct fields.
        match (&self.model, &mut self.state) {
            (LossModel::None, _) => 0.0,
            (LossModel::Bernoulli { p }, _) => *p,
            (
                LossModel::GilbertElliott {
                    g2b_per_sec,
                    b2g_per_sec,
                    loss_good,
                    loss_bad,
                },
                State::Ge { bad, last },
            ) => {
                let dt = if t >= *last {
                    (t - *last).as_secs_f64()
                } else {
                    0.0
                };
                if dt > 0.0 {
                    // Closed-form 2-state CTMC transient: sample the state
                    // at t conditioned on the state at `last`.
                    let lam = *g2b_per_sec;
                    let mu = *b2g_per_sec;
                    let total = lam + mu;
                    if total > 0.0 {
                        let pi_bad = lam / total;
                        let decay = (-total * dt).exp();
                        let p_bad_now = if *bad {
                            pi_bad + (1.0 - pi_bad) * decay
                        } else {
                            pi_bad * (1.0 - decay)
                        };
                        *bad = self.rng.gen_bool(p_bad_now.clamp(0.0, 1.0));
                    }
                    *last = t;
                } else if t > *last {
                    *last = t;
                }
                if *bad {
                    *loss_bad
                } else {
                    *loss_good
                }
            }
            (
                LossModel::Congestion {
                    profile,
                    knee,
                    max_p,
                    fluctuation_sigma,
                },
                State::Congestion {
                    fluct,
                    next_resample,
                },
            ) => {
                if t >= *next_resample {
                    *fluct = if *fluctuation_sigma > 0.0 {
                        // Lognormal with mean ~1.
                        let z: f64 = sample_standard_normal(&mut self.rng);
                        (z * fluctuation_sigma - 0.5 * fluctuation_sigma * fluctuation_sigma).exp()
                    } else {
                        1.0
                    };
                    *next_resample = t + FLUCTUATION_PERIOD;
                }
                let util = (profile.utilization(t) * *fluct).clamp(0.0, 1.0);
                congestion_p(util, *knee, *max_p)
            }
            (LossModel::Composite(_), State::Composite(children)) => {
                let mut survive = 1.0;
                for c in children {
                    survive *= 1.0 - c.loss_prob(t);
                }
                1.0 - survive
            }
            _ => unreachable!("state/model mismatch is a construction bug"),
        }
    }

    /// Samples whether a packet sent at `t` is lost.
    pub fn packet_lost(&mut self, t: SimTime) -> bool {
        let p = self.loss_prob(t);
        p > 0.0 && self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Samples the geometric gap to the next loss for a span of packets
    /// with constant per-packet loss probability `p`: the returned count is
    /// how many packets *survive* before one is lost (0 means the next
    /// packet is lost). Distributionally equivalent to drawing `gen_bool(p)`
    /// per packet, at the cost of one `ln` per loss instead of one RNG
    /// draw per packet. Because the geometric distribution is memoryless,
    /// discarding an unexhausted gap and re-drawing (as the fast path does
    /// at every epoch boundary) does not bias the loss rate.
    pub fn gap_to_next_loss(&mut self, p: f64) -> u64 {
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = u.ln() / (1.0 - p).ln();
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    }
}

/// Box–Muller standard normal (avoids pulling in rand_distr).
fn sample_standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalShape;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn sample_rate(model: LossModel, packets: u32, gap: Dur, seed: u64) -> f64 {
        let mut p = LossProcess::new(model, rng(seed));
        let mut t = SimTime::EPOCH;
        let mut lost = 0u32;
        for _ in 0..packets {
            if p.packet_lost(t) {
                lost += 1;
            }
            t += gap;
        }
        lost as f64 / packets as f64
    }

    #[test]
    fn none_never_loses() {
        assert_eq!(
            sample_rate(LossModel::None, 10_000, Dur::from_millis(1), 1),
            0.0
        );
    }

    #[test]
    fn bernoulli_converges() {
        let r = sample_rate(
            LossModel::Bernoulli { p: 0.02 },
            200_000,
            Dur::from_millis(1),
            2,
        );
        assert!((r - 0.02).abs() < 0.003, "rate {r}");
    }

    #[test]
    fn bursty_long_run_rate() {
        let model = LossModel::bursty(0.01, 0.4, 2.0);
        assert!((model.mean_rate() - 0.01).abs() < 1e-9);
        // Sample over many hours with 100 ms gaps.
        let r = sample_rate(model, 400_000, Dur::from_millis(100), 3);
        assert!((r - 0.01).abs() < 0.004, "rate {r}");
    }

    #[test]
    fn bursts_are_bursty() {
        // Back-to-back packets should see correlated loss: the variance of
        // per-window loss counts must exceed the Bernoulli prediction.
        let model = LossModel::bursty(0.02, 0.5, 2.0);
        let mut p = LossProcess::new(model, rng(4));
        let mut t = SimTime::EPOCH;
        let window = 1000usize;
        let mut counts = Vec::new();
        for _ in 0..200 {
            let mut lost = 0;
            for _ in 0..window {
                if p.packet_lost(t) {
                    lost += 1;
                }
                t += Dur::from_millis(2);
            }
            counts.push(lost as f64);
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        let bernoulli_var = mean * (1.0 - mean / window as f64);
        assert!(
            var > 3.0 * bernoulli_var,
            "var {var} should exceed Bernoulli {bernoulli_var}"
        );
    }

    #[test]
    fn congestion_loses_only_at_peak() {
        let profile = DiurnalProfile::new(DiurnalShape::Business, 0.3, 0.6, 0.0);
        let model = LossModel::Congestion {
            profile,
            knee: 0.7,
            max_p: 0.1,
            fluctuation_sigma: 0.0,
        };
        let mut p = LossProcess::new(model, rng(5));
        let night = SimTime::EPOCH + Dur::from_hours(3);
        let noon = SimTime::EPOCH + Dur::from_hours(13);
        assert_eq!(p.loss_prob(night), 0.0);
        assert!(p.loss_prob(noon) > 0.0);
    }

    #[test]
    fn congestion_fluctuation_creates_variation() {
        let profile = DiurnalProfile::flat(0.75);
        let model = LossModel::Congestion {
            profile,
            knee: 0.7,
            max_p: 0.2,
            fluctuation_sigma: 0.8,
        };
        let mut p = LossProcess::new(model, rng(6));
        let mut probs = Vec::new();
        for i in 0..200 {
            let t = SimTime::EPOCH + Dur::from_secs(301 * i);
            probs.push(p.loss_prob(t));
        }
        let zeros = probs.iter().filter(|&&x| x == 0.0).count();
        let positives = probs.iter().filter(|&&x| x > 0.0).count();
        assert!(zeros > 10, "fluctuation should create clean intervals");
        assert!(positives > 10, "and lossy intervals");
    }

    /// The congestion integral with the lognormal multiplier evaluated
    /// inside the day loop (96 × 16 `exp`) — the form `mean_rate` had
    /// before the multiplier was hoisted; kept as its reference.
    fn nested_congestion_mean(
        profile: &DiurnalProfile,
        knee: f64,
        max_p: f64,
        fluctuation_sigma: f64,
    ) -> f64 {
        let quantiles: &[f64] = if fluctuation_sigma > 0.0 {
            &STD_NORMAL_Q16
        } else {
            &[0.0]
        };
        let n = 96;
        let mut acc = 0.0;
        for i in 0..n {
            let u0 = profile.utilization_at_hour(24.0 * i as f64 / n as f64);
            for &z in quantiles {
                let fluct =
                    (z * fluctuation_sigma - 0.5 * fluctuation_sigma * fluctuation_sigma).exp();
                acc += congestion_p((u0 * fluct).clamp(0.0, 1.0), knee, max_p);
            }
        }
        acc / (n as f64 * quantiles.len() as f64)
    }

    #[test]
    fn congestion_mean_rate_bit_identical_to_nested_reference() {
        use DiurnalShape::{Business, Flat, Mixed, Residential};
        // (shape, base, amplitude, knee): the seven tuples `vns-topo`
        // calibrates under its default config, then a grid around them.
        let mut cases = vec![
            (Mixed, 0.35, 0.12, 0.80),
            (Mixed, 0.40, 0.12, 0.80),
            (Mixed, 0.45, 0.18, 0.80),
            (Mixed, 0.54, 0.24, 0.80),
            (Mixed, 0.50, 0.42, 0.70),
            (Residential, 0.50, 0.42, 0.70),
            (Business, 0.50, 0.42, 0.70),
        ];
        for shape in [Flat, Business, Residential, Mixed] {
            for base in [0.0, 0.3, 0.75, 1.2] {
                for amplitude in [0.0, 0.25, 0.9] {
                    for knee in [0.0, 0.7, 1.0] {
                        cases.push((shape, base, amplitude, knee));
                    }
                }
            }
        }
        for (shape, base, amplitude, knee) in cases {
            for sigma in [0.0, 0.35, 0.8] {
                for max_p in [1.0, 0.037] {
                    let profile = DiurnalProfile::new(shape, base, amplitude, 5.5);
                    let got = LossModel::Congestion {
                        profile,
                        knee,
                        max_p,
                        fluctuation_sigma: sigma,
                    }
                    .mean_rate();
                    let want = nested_congestion_mean(&profile, knee, max_p, sigma);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{shape:?} base {base} amp {amplitude} knee {knee} sigma {sigma} \
                         max_p {max_p}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn composite_stacks() {
        let m = LossModel::Composite(vec![
            LossModel::Bernoulli { p: 0.01 },
            LossModel::Bernoulli { p: 0.02 },
        ]);
        let expected = 1.0 - 0.99 * 0.98;
        assert!((m.mean_rate() - expected).abs() < 1e-12);
        let r = sample_rate(m, 200_000, Dur::from_millis(1), 7);
        assert!((r - expected).abs() < 0.003, "rate {r}");
    }

    /// A composite as `LossProcess::new` built one before its children
    /// were moved: each child model cloned and seeded by the parent's next
    /// draw, in order; the parent's RNG (held by `shell`) keeps the rest.
    struct ClonedComposite {
        shell: LossProcess,
        children: Vec<LossProcess>,
    }

    impl ClonedComposite {
        fn new(model: &LossModel, mut parent: SmallRng) -> Self {
            let LossModel::Composite(models) = model else {
                panic!("not a composite: {model:?}")
            };
            let children = models
                .iter()
                .map(|child| LossProcess::new(child.clone(), SmallRng::seed_from_u64(parent.gen())))
                .collect();
            Self {
                shell: LossProcess::new(LossModel::None, parent),
                children,
            }
        }

        fn loss_prob(&mut self, t: SimTime) -> f64 {
            let mut survive = 1.0;
            for c in &mut self.children {
                survive *= 1.0 - c.loss_prob(t);
            }
            1.0 - survive
        }

        fn packet_lost(&mut self, t: SimTime) -> bool {
            let p = self.loss_prob(t);
            p > 0.0 && self.shell.rng.gen_bool(p.clamp(0.0, 1.0))
        }
    }

    #[test]
    fn composite_by_move_walks_the_cloned_sequence() {
        let congestion = LossModel::Congestion {
            profile: DiurnalProfile::new(DiurnalShape::Business, 0.45, 0.4, 2.0),
            knee: 0.7,
            max_p: 0.2,
            fluctuation_sigma: 0.8,
        };
        let stacks = [
            vec![LossModel::Bernoulli { p: 0.01 }, congestion],
            vec![
                LossModel::Bernoulli { p: 0.005 },
                LossModel::bursty(0.02, 0.5, 2.0),
            ],
        ];
        for (k, stack) in stacks.into_iter().enumerate() {
            let model = LossModel::Composite(stack);
            let seed = 40 + k as u64;
            let mut cloned = ClonedComposite::new(&model, rng(seed));
            let mut moved = LossProcess::new(model, rng(seed));
            let (mut lost, mut lossy) = (0, 0);
            // A day of instants, 3 s apart: diurnal peaks, fluctuation
            // resamples and chain transitions all happen.
            for i in 0..28_800u64 {
                let t = SimTime::EPOCH + Dur::from_secs(3 * i);
                let p = moved.loss_prob(t);
                assert_eq!(
                    p.to_bits(),
                    cloned.loss_prob(t).to_bits(),
                    "stack {k} at {i}"
                );
                let l = moved.packet_lost(t);
                assert_eq!(l, cloned.packet_lost(t), "stack {k} at {i}");
                let gap = moved.gap_to_next_loss(p);
                assert_eq!(gap, cloned.shell.gap_to_next_loss(p), "stack {k} at {i}");
                lost += u32::from(l);
                lossy += u32::from(p > 0.0);
            }
            assert!(
                lost > 10 && lossy > 100,
                "stack {k}: {lost} lost, {lossy} lossy"
            );
        }
    }

    #[test]
    fn gap_sampling_matches_bernoulli_rate() {
        // Consuming geometric gaps must reproduce the per-packet rate.
        for p in [0.001, 0.02, 0.3] {
            let mut proc = LossProcess::new(LossModel::Bernoulli { p }, rng(8));
            let n = 400_000u64;
            let mut lost = 0u64;
            let mut gap = proc.gap_to_next_loss(p);
            for _ in 0..n {
                if gap == 0 {
                    lost += 1;
                    gap = proc.gap_to_next_loss(p);
                } else {
                    gap -= 1;
                }
            }
            let rate = lost as f64 / n as f64;
            let sigma = (p * (1.0 - p) / n as f64).sqrt();
            assert!((rate - p).abs() < 6.0 * sigma + 1e-5, "p {p} rate {rate}");
        }
    }

    #[test]
    fn gap_edge_cases() {
        let mut proc = LossProcess::new(LossModel::None, rng(9));
        assert_eq!(proc.gap_to_next_loss(0.0), u64::MAX);
        assert_eq!(proc.gap_to_next_loss(-1.0), u64::MAX);
        assert_eq!(proc.gap_to_next_loss(1.0), 0);
        assert_eq!(proc.gap_to_next_loss(2.0), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = LossModel::bursty(0.05, 0.5, 1.0);
        let a = sample_rate(m.clone(), 10_000, Dur::from_millis(3), 11);
        let b = sample_rate(m, 10_000, Dur::from_millis(3), 11);
        assert_eq!(a, b);
    }
}
