//! An event-driven composition test: a ping-pong protocol between two
//! endpoints over lossy channels, scheduled entirely through the
//! discrete-event [`Engine`] — exercising the engine, channels and loss
//! processes together.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_netsim::{
    Dur, Engine, HopChannel, LossModel, LossProcess, PathChannel, PathOutcome, SimTime,
};

#[derive(Debug)]
enum Ev {
    /// Client sends probe number `n`.
    Send(u32),
    /// Reply for probe `n` arrives at the client.
    Reply(u32),
    /// Client-side timeout for probe `n`.
    Timeout(u32),
}

struct PingPong {
    fwd: PathChannel,
    rev: PathChannel,
    /// Forward probes sent / lost on the forward leg.
    probes: (u32, u32),
    outstanding: std::collections::BTreeSet<u32>,
    completed: Vec<(u32, Dur)>,
    timeouts: u32,
    sent_at: std::collections::BTreeMap<u32, SimTime>,
}

impl PingPong {
    fn new(loss_p: f64, seed: u64) -> Self {
        let lossy_hop = |s| {
            let mut hop = HopChannel::ideal(30.0);
            hop.loss = LossProcess::new(
                LossModel::Bernoulli { p: loss_p },
                SmallRng::seed_from_u64(s),
            );
            hop
        };
        Self {
            fwd: PathChannel::new(vec![lossy_hop(seed)], SmallRng::seed_from_u64(seed + 10)),
            rev: PathChannel::new(
                vec![lossy_hop(seed + 1)],
                SmallRng::seed_from_u64(seed + 11),
            ),
            probes: (0, 0),
            outstanding: Default::default(),
            completed: Vec::new(),
            timeouts: 0,
            sent_at: Default::default(),
        }
    }
}

#[test]
fn event_driven_ping_pong() {
    let mut sim = PingPong::new(0.2, 7);
    let mut engine: Engine<Ev> = Engine::new();
    engine.schedule(SimTime::EPOCH, Ev::Send(0));
    let total = 400u32;

    engine.run_to_completion(|ctx, ev| match ev {
        Ev::Send(n) => {
            sim.outstanding.insert(n);
            sim.sent_at.insert(n, ctx.now());
            let out = sim.fwd.send(ctx.now());
            sim.probes.0 += 1;
            sim.probes.1 += u32::from(!out.delivered());
            if let PathOutcome::Delivered { arrival, .. } = out {
                // Server echoes immediately.
                if let PathOutcome::Delivered {
                    arrival: back_at, ..
                } = sim.rev.send(arrival)
                {
                    ctx.schedule_at(back_at, Ev::Reply(n));
                }
            }
            // One-second client timeout.
            ctx.schedule_in(Dur::from_secs(1), Ev::Timeout(n));
            if n + 1 < total {
                ctx.schedule_in(Dur::from_millis(250), Ev::Send(n + 1));
            }
        }
        Ev::Reply(n) => {
            if sim.outstanding.remove(&n) {
                let rtt = ctx.now() - sim.sent_at[&n];
                sim.completed.push((n, rtt));
            }
        }
        Ev::Timeout(n) => {
            if sim.outstanding.remove(&n) {
                sim.timeouts += 1;
            }
        }
    });

    // Every probe resolved exactly one way.
    assert!(sim.outstanding.is_empty());
    assert_eq!(sim.completed.len() as u32 + sim.timeouts, total);
    // ~64% survive both 20%-loss legs.
    let ok = sim.completed.len() as f64 / f64::from(total);
    assert!((0.5..0.8).contains(&ok), "completion {ok}");
    // RTTs are exactly two 30 ms legs plus jitter.
    for (_, rtt) in &sim.completed {
        let ms = rtt.as_millis_f64();
        assert!((60.0..64.0).contains(&ms), "rtt {ms}");
    }
    // Every forward send was accounted for.
    assert_eq!(sim.probes.0, total);
    assert!(sim.probes.1 > 0);
    // Replies arrive in send order here (constant-ish delay), so RTT list
    // is sorted by probe id.
    let ids: Vec<u32> = sim.completed.iter().map(|(n, _)| *n).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

#[test]
fn engine_composition_is_deterministic() {
    let run = |seed| {
        let mut sim = PingPong::new(0.1, seed);
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(SimTime::EPOCH, Ev::Send(0));
        engine.run_to_completion(|ctx, ev| match ev {
            Ev::Send(n) => {
                let out = sim.fwd.send(ctx.now());
                if let PathOutcome::Delivered { arrival, .. } = out {
                    ctx.schedule_at(arrival, Ev::Reply(n));
                }
                if n < 200 {
                    ctx.schedule_in(Dur::from_millis(100), Ev::Send(n + 1));
                }
            }
            Ev::Reply(n) => sim.completed.push((n, Dur::ZERO)),
            Ev::Timeout(_) => {}
        });
        sim.completed.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}
