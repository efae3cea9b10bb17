//! The control-plane scale sweep (DESIGN.md §14): builds the world at each
//! rung of a fixed ladder up to `--scale` (e.g. `--scale 10` measures
//! scales 1, 2, 5, 10) with sharded delta convergence, runs both verifier
//! stages on it, and tabulates AS/prefix/session counts, convergence
//! messages and rounds, the walked RIB census (Adj-RIB-In entries,
//! Adj-RIB-Out fingerprints and the distinct attribute-set allocations
//! behind the RIBs), the convergence's work counters (reselects and
//! neighbour visits), the (source, destination) pairs the data-plane stage
//! walked, wall clock and peak RSS. Each rung lands in the perf
//! ledger as `scale-build` / `scale-verify` rows stamped with the rung's
//! own scale.

use std::time::Instant;

use vns_service::EndpointTable;
use vns_verify::Certifier;

use super::Ctx;
use crate::{World, WorldConfig};

/// Peak resident set (`VmHWM`) in MiB from `/proc/self/status`, `0.0`
/// where unavailable. Monotonic over the process lifetime, so in a sweep
/// the per-rung value is the high-water mark *up to* that rung.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the sweep; `Err` (carrying the table so far) when a rung fails
/// verification.
pub fn run(ctx: &mut Ctx) -> Result<String, String> {
    const LADDER: [f64; 7] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];
    let top = ctx.opts.scale;
    let mut rungs: Vec<f64> = LADDER.iter().copied().filter(|s| *s < top).collect();
    rungs.push(top);
    let mut body = String::from(
        "scale-curve: control-plane cost vs world scale (sharded delta convergence)\n\
         scale    ases  prefixes  sessions  conv_msgs    rounds  adj_in      adj_out     attr_sets   reselects   visits       fwd_pairs  build_s  verify_s  peak_rss_mib  verdict\n",
    );
    for &s in &rungs {
        let t0 = Instant::now();
        // A lone build: it converges on the whole `--threads` budget.
        let w = ctx.timed("scale-build", s, |c| {
            World::build(WorldConfig {
                scale: s,
                ..c.world_config()
            })
        });
        let build_s = t0.elapsed().as_secs_f64();
        let ases = w.internet.as_count();
        let prefixes = w.internet.prefixes().count();
        let sessions = w
            .internet
            .net
            .speaker_ids()
            .collect::<Vec<_>>()
            .iter()
            .map(|id| {
                w.internet
                    .net
                    .speaker(*id)
                    .map_or(0, |sp| sp.peer_ids().count())
            })
            .sum::<usize>()
            / 2;
        let msgs: u64 = w.internet.convergence_log.iter().map(|c| c.messages).sum();
        let rounds: u64 = w.internet.convergence_log.iter().map(|c| c.rounds).sum();
        let work = w.internet.net.work();
        let t1 = Instant::now();
        let (ok, fwd_pairs) = ctx.timed("scale-verify", s, |_| {
            let control = vns_verify::verify(&w.internet, &w.vns);
            let endpoints = EndpointTable::build(&w.internet, &w.vns);
            let (_, data) = Certifier::default().rebuild_paths(&w.internet, &w.vns, &endpoints);
            (control.passes() && data.passes(), data.pairs)
        });
        let verify_s = t1.elapsed().as_secs_f64();
        // Read the high-water mark first: the census holds a pointer per
        // RIB entry while it sorts them, ~5 % on top of the world it counts.
        let peak_rss = peak_rss_mib();
        let census = w.internet.net.rib_census();
        let verdict = if ok { "pass" } else { "FAIL" };
        body.push_str(&format!(
            "{s:<7} {ases:<5} {prefixes:<9} {sessions:<9} {msgs:<12} {rounds:<7} {:<11} {:<11} {:<11} {:<11} {:<12} {fwd_pairs:<10} {build_s:<8.2} {verify_s:<9.2} {peak_rss:<13.1} {verdict}\n",
            census.adj_rib_in,
            census.adj_rib_out,
            census.attr_sets,
            work.reselects,
            work.visits,
        ));
        eprintln!(
            "scale {s}: {ases} ASes, {prefixes} prefixes, {sessions} sessions, \
             {msgs} msgs / {rounds} rounds, build {build_s:.2}s, verify {verify_s:.2}s, {verdict}; \
             RIB entries {} in / {} loc / {} out on {} attribute sets, {} AS paths",
            census.adj_rib_in,
            census.loc_rib,
            census.adj_rib_out,
            census.attr_sets,
            census.as_paths,
        );
        if !ok {
            return Err(format!("scale-curve: verifier failed at scale {s}\n{body}"));
        }
    }
    Ok(body)
}
