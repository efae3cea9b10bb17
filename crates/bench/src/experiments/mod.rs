//! One module per paper artefact (see the crate docs for the index), and
//! the one table that names them: [`EXPERIMENTS`]. `vns-bench <name>` and
//! `vns-bench all` are the same loop over a selection of its rows, so a
//! new experiment is one row plus its module.

use std::cell::{Cell, OnceCell};
use std::fmt::Display;
use std::time::Instant;

use vns_core::RoutingMode;
use vns_netsim::{Dur, Par};
use vns_topo::{generate, Internet};

use crate::{World, WorldConfig};

pub mod ablate;
pub mod adversarial;
pub mod congruence;
pub mod failover;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod jitter;
pub mod scale_curve;
pub mod steady_state;
pub mod table1;

/// The sizing knobs every experiment reads, as `vns-bench` parsed them.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `--seed`: master seed.
    pub seed: u64,
    /// `--scale`: world scale (finite, > 0).
    pub scale: f64,
    /// `--sessions`: media sessions per arm (>= 1).
    pub sessions: usize,
    /// `--hosts`: last-mile hosts per (AS type, region) cell (>= 1).
    pub hosts_per_cell: usize,
    /// `--days`: last-mile campaign span (finite, > 0).
    pub days: f64,
}

/// One timed experiment for `BENCH_campaigns.json`.
#[derive(Debug)]
pub struct ExpRecord {
    /// Ledger row name.
    pub name: &'static str,
    /// World scale the row ran at.
    pub scale: f64,
    /// Wall clock without the shared builds ([`Ctx::internet`]'s one
    /// generation, [`Ctx::geo`]'s and [`Ctx::hot`]'s deployments); what a row
    /// builds itself, a variant's deployment or a unit's fork, counts.
    pub wall_s: f64,
    /// Work units processed.
    pub units: u64,
    /// Packets sent.
    pub packets: u64,
}

/// What a run of experiments shares: the parsed options, the worker pool,
/// the perf ledger, and — built on first use, then reused by every later
/// row — the one generated Internet, the two standard worlds deployed on
/// clones of it, the Fig 9 campaign Fig 10 reduces, and the last-mile
/// campaign Fig 11 / Fig 12 / Table 1 reduce.
#[derive(Debug)]
pub struct Ctx {
    /// The sizing knobs.
    pub opts: Opts,
    /// Campaign worker pool.
    pub par: Par,
    /// Ledger rows so far, in run order.
    pub records: Vec<ExpRecord>,
    internet: OnceCell<Internet>,
    geo: OnceCell<World>,
    hot: OnceCell<World>,
    fig9: OnceCell<fig9::Fig9>,
    lastmile: OnceCell<fig11::LastMileData>,
    /// Seconds spent on the shared builds (kept out of `wall_s`).
    world_build_s: Cell<f64>,
}

impl Ctx {
    /// A context with nothing built yet.
    pub fn new(opts: Opts, par: Par) -> Self {
        Self {
            opts,
            par,
            records: Vec::new(),
            internet: OnceCell::new(),
            geo: OnceCell::new(),
            hot: OnceCell::new(),
            fig9: OnceCell::new(),
            lastmile: OnceCell::new(),
            world_build_s: Cell::new(0.0),
        }
    }

    fn shared<T>(&self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = build();
        self.world_build_s
            .set(self.world_build_s.get() + t0.elapsed().as_secs_f64());
        built
    }

    /// The run's Internet as generated, before any VNS is deployed on it.
    pub fn internet(&self) -> &Internet {
        self.internet.get_or_init(|| {
            self.shared(|| generate(&self.world_config().topo()).expect("topology generation"))
        })
    }

    fn world<'a>(&'a self, cell: &'a OnceCell<World>, mode: RoutingMode) -> &'a World {
        cell.get_or_init(|| {
            let internet = self.internet();
            let mut config = self.world_config();
            config.vns.mode = mode;
            self.shared(|| World::deploy(internet.clone(), config))
        })
    }

    /// The geo-cold-potato world.
    pub fn geo(&self) -> &World {
        self.world(&self.geo, RoutingMode::GeoColdPotato)
    }

    /// The same deployment in hot-potato ("before") mode.
    pub fn hot(&self) -> &World {
        self.world(&self.hot, RoutingMode::HotPotato)
    }

    /// The configuration of [`Ctx::geo`]. `--threads` is the one thread
    /// budget: what is built from this converges on the campaigns' workers.
    pub fn world_config(&self) -> WorldConfig {
        let mut config = WorldConfig {
            seed: self.opts.seed,
            scale: self.opts.scale,
            ..WorldConfig::default()
        };
        config.vns.convergence_threads = self.par.threads();
        config
    }

    /// The Fig 9 media campaign.
    pub fn fig9(&self) -> &fig9::Fig9 {
        self.fig9
            .get_or_init(|| fig9::run(self.geo(), self.opts.sessions, self.par))
    }

    /// The last-mile loss-train campaign.
    pub fn lastmile(&self) -> &fig11::LastMileData {
        self.lastmile.get_or_init(|| {
            let span = Dur::from_mins((self.opts.days * 24.0 * 60.0) as u64);
            let hosts = self.opts.hosts_per_cell;
            fig11::run_campaign(self.geo(), hosts, Dur::from_mins(30), span, self.par)
        })
    }

    /// Times `f` into a ledger row named `name`, sampling the global
    /// work-unit and packet counters around it. Channels flush their
    /// packet tallies on drop and every experiment drops its channels
    /// before returning, so the deltas are complete. `scale` is recorded
    /// per row: experiments pass the invocation's, the scale sweep each
    /// rung's own.
    pub fn timed<T>(&mut self, name: &'static str, scale: f64, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let units0 = vns_netsim::par::units_processed();
        let packets0 = vns_netsim::packets_sent();
        let builds0 = self.world_build_s.get();
        let t0 = Instant::now();
        let out = f(self);
        self.records.push(ExpRecord {
            name,
            scale,
            wall_s: t0.elapsed().as_secs_f64() - (self.world_build_s.get() - builds0),
            units: vns_netsim::par::units_processed() - units0,
            packets: vns_netsim::packets_sent() - packets0,
        });
        out
    }
}

/// A row of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The command-line name, ledger row name and `--out` file stem.
    pub name: &'static str,
    /// Whether `vns-bench all` runs it.
    pub in_all: bool,
    /// Runs it and renders the artefact.
    pub run: fn(&mut Ctx) -> Result<String, String>,
}

const fn row(name: &'static str, run: fn(&mut Ctx) -> Result<String, String>) -> Experiment {
    Experiment {
        name,
        in_all: true,
        run,
    }
}

fn show(artefact: impl Display) -> Result<String, String> {
    Ok(artefact.to_string())
}

/// Every experiment `vns-bench` knows, in `all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    row("fig3", |c| show(fig3::run(c.geo(), c.par))),
    row("as-congruence", |c| show(congruence::run(c.geo(), c.par))),
    row("fig4", |c| show(fig4::run(c.hot(), c.geo()))),
    row("fig5", |c| show(fig5::run(c.hot(), c.geo()))),
    row("fig6", |c| show(fig6::run(c.geo(), 3, c.par))),
    row("fig7", |c| show(fig7::run(c.geo(), c.par))),
    row("fig9", |c| show(c.fig9())),
    row("fig10", |c| show(fig10::run(&c.fig9().sessions))),
    row("fig11", |c| show(fig11::run(c.lastmile()))),
    row("fig12", |c| show(fig12::run(c.lastmile()))),
    row("table1", |c| show(table1::run(c.lastmile()))),
    row("jitter", |c| {
        show(jitter::run(c.geo(), c.opts.sessions.min(20), c.par))
    }),
    row("failover", |c| show(failover::run(c.geo(), c.par))),
    row("adversarial", |c| {
        show(adversarial::run(c.geo(), c.hot(), c.par))
    }),
    row("steady-state", |c| {
        let sizing = steady_state::SteadyStateOpts::from_cli(c.opts.sessions, c.opts.days);
        show(steady_state::run_on(c.geo(), sizing, c.par))
    }),
    row("ablate-lp", |c| {
        show(ablate::lp_shape(c.internet(), c.geo()))
    }),
    row("ablate-best-external", |c| {
        show(ablate::best_external(c.internet(), c.geo()))
    }),
    row("ablate-geoip", |c| show(ablate::geoip(c.geo()))),
    row("ablate-fec", |c| show(ablate::fec_arq(c.opts.seed))),
    row("ablate-l2", |c| {
        show(ablate::l2_topology(c.internet(), c.geo()))
    }),
    row("ablate-mode", |c| {
        show(ablate::mode_delay(c.geo(), c.hot()))
    }),
    row("ablate-measurement", |c| {
        show(ablate::geo_vs_measurement(c.geo(), c.par))
    }),
    row("ablate-auto-override", |c| {
        show(ablate::auto_override(c.geo(), 30.0, c.par))
    }),
    row("economics", |c| show(ablate::economics(c.geo(), c.hot()))),
    row("setup-time", |c| show(ablate::setup_time(c.geo()))),
    Experiment {
        name: "scale-curve",
        in_all: false,
        run: scale_curve::run,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_flag_reaches_the_control_plane() {
        let opts = Opts {
            seed: 1,
            scale: 0.1,
            sessions: 1,
            hosts_per_cell: 1,
            days: 1.0,
        };
        let ctx = Ctx::new(opts, Par::new(1));
        assert_eq!(ctx.world_config().vns.convergence_threads, 1);
    }
}
