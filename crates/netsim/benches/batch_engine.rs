//! Criterion microbenchmarks for the packet engine's two doors — the
//! single-packet adapter vs the live column on representative multi-hop
//! channels — and the arena scratch pool vs fresh heap allocation on the
//! session-setup path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vns_netsim::{
    scratch, BatchScratch, DiurnalProfile, DiurnalShape, HopChannel, LossModel, LossProcess,
    PathChannel, SimTime,
};

/// A media-like 5-hop path: two clean access hops, a contended transit
/// hop with Bernoulli loss, a bursty hop, and a clean long-haul hop.
fn media_hops(seed: u64) -> Vec<HopChannel> {
    let profile = DiurnalProfile::new(DiurnalShape::Business, 0.3, 0.6, 0.0);
    let mk = |base: f64, model: LossModel, s: u64| {
        let mut h = HopChannel::ideal(base);
        h.loss = LossProcess::new(model, SmallRng::seed_from_u64(s));
        h
    };
    let mut contended = mk(12.0, LossModel::Bernoulli { p: 0.004 }, seed + 2);
    contended.delay = vns_netsim::DelaySampler::contended(12.0, profile);
    vec![
        mk(2.0, LossModel::None, seed),
        mk(5.0, LossModel::None, seed + 1),
        contended,
        mk(
            8.0,
            LossModel::GilbertElliott {
                g2b_per_sec: 1.0 / 30.0,
                b2g_per_sec: 3.0,
                loss_good: 0.0001,
                loss_bad: 0.3,
            },
            seed + 3,
        ),
        mk(25.0, LossModel::None, seed + 4),
    ]
}

fn times(n: u64) -> Vec<u64> {
    // ~1200-byte packets of a 4 Mb/s stream: one every ~2.4 ms.
    (0..n).map(|i| i * 2_400_000).collect()
}

/// A fresh channel over `hops`, the whole train through the columnar door
/// in `BATCH_LEN` chunks; returns the delivered count.
fn send_columns(hops: Vec<HopChannel>, ts: &[u64]) -> usize {
    let mut ch = PathChannel::new(hops, SmallRng::seed_from_u64(9));
    let mut s = scratch();
    ts.chunks(vns_netsim::BATCH_LEN)
        .map(|chunk| ch.send_column(chunk, &mut s))
        .sum()
}

fn bench_send_single_vs_column(c: &mut Criterion) {
    let ts = times(8192);
    let mut g = c.benchmark_group("channel");
    g.bench_function("send/single_8k", |b| {
        b.iter(|| {
            let mut ch = PathChannel::new(media_hops(7), SmallRng::seed_from_u64(9));
            let mut delivered = 0u32;
            for &t in &ts {
                if ch.send(SimTime::from_nanos(t)).delivered() {
                    delivered += 1;
                }
            }
            black_box(delivered);
        });
    });
    // The door every packet train uses: no outcome enums, delivered clocks
    // left in `now`, losses in the sparse column.
    g.bench_function("send/column_8k", |b| {
        b.iter(|| {
            black_box(send_columns(media_hops(7), &ts));
        });
    });
    g.finish();
}

fn bench_arena_vs_heap(c: &mut Criterion) {
    let ts = times(512);
    let mut g = c.benchmark_group("arena");
    // Session-setup shape: take scratch, run one short batch, drop it.
    g.bench_function("setup/pooled_scratch", |b| {
        b.iter(|| {
            let mut s = scratch();
            s.now.extend_from_slice(&ts);
            black_box(s.now.len());
        });
    });
    g.bench_function("setup/fresh_heap", |b| {
        b.iter(|| {
            let mut s = BatchScratch::default();
            s.now.extend_from_slice(&ts);
            black_box(s.now.len());
        });
    });
    g.finish();
}

criterion_main!(benches, probes);

fn bench_components(c: &mut Criterion) {
    let ts = times(8192);
    let mut g = c.benchmark_group("probe");
    g.bench_function("ideal_1hop_column_8k", |b| {
        b.iter(|| black_box(send_columns(vec![HopChannel::ideal(5.0)], &ts)));
    });
    g.bench_function("ideal_5hop_column_8k", |b| {
        let hops = || [2.0, 5.0, 12.0, 8.0, 25.0].map(HopChannel::ideal).to_vec();
        b.iter(|| black_box(send_columns(hops(), &ts)));
    });
    g.finish();
}

criterion_group!(benches, bench_send_single_vs_column, bench_arena_vs_heap);
criterion_group!(probes, bench_components);
