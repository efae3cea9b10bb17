//! Property: the control plane survives *any* scripted sequence of
//! session cut/restore events. Every event is a certified change: the net
//! reconverges within budget to true quiescence and the data plane stays
//! loop-free, by the forwarding walk and by the model checker; after
//! restoring every severed session, the vns-verify invariant suite still
//! passes — churn must leave no residue.

mod testworld;

use proptest::prelude::*;
use vns_bgp::{PathError, SpeakerId};
use vns_core::{Change, FaultEvent, Vns};
use vns_topo::Internet;
use vns_verify::{Certifier, Invariant};

use testworld::raw_tiny as world;

/// Every BGP session touching a VNS router (eBGP to upstreams/peers and
/// iBGP to the reflectors), canonically ordered and deduplicated.
fn vns_sessions(internet: &Internet, vns: &Vns) -> Vec<(SpeakerId, SpeakerId)> {
    let mut out = std::collections::BTreeSet::new();
    let routers: Vec<SpeakerId> = vns
        .pops()
        .iter()
        .flat_map(|p| p.borders)
        .chain(vns.reflectors())
        .collect();
    for &r in &routers {
        let sp = internet.net.speaker(r).expect("VNS router exists");
        for peer in sp.peer_ids() {
            out.insert(if r <= peer { (r, peer) } else { (peer, r) });
        }
    }
    out.into_iter().collect()
}

/// No forwarding loop from any border towards any VNS service prefix;
/// `NoRoute` is legal mid-churn, a loop never is.
fn assert_loop_free(internet: &Internet, vns: &Vns, context: &str) {
    let targets: Vec<vns_bgp::Prefix> = std::iter::once(vns.anycast_prefix())
        .chain(vns.echo_servers().iter().map(|e| e.prefix))
        .collect();
    for pop in vns.pops() {
        for border in pop.borders {
            for prefix in &targets {
                if let Err(PathError::ForwardingLoop) = internet.net.forwarding_path(border, prefix)
                {
                    panic!("{context}: forwarding loop at {border} towards {prefix}");
                }
            }
        }
    }
}

proptest! {
    // Each case rebuilds and reconverges a world per event; keep it small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_session_churn_reconverges_clean(
        seed in 0u64..64,
        choices in prop::collection::vec(any::<u16>(), 1..8),
    ) {
        let (mut internet, mut vns) = world(seed);
        let sessions = vns_sessions(&internet, &vns);
        prop_assert!(!sessions.is_empty());

        let mut certifier = Certifier::default();
        let mut severed = std::collections::BTreeSet::new();
        for (i, &c) in choices.iter().enumerate() {
            let (a, b) = sessions[c as usize % sessions.len()];
            let event = if severed.contains(&(a, b)) {
                severed.remove(&(a, b));
                FaultEvent::SessionRestore { a, b }
            } else {
                severed.insert((a, b));
                FaultEvent::SessionCut { a, b }
            };
            let certified = certifier
                .apply(&mut internet, &mut vns, Change::Fault(event))
                .unwrap_or_else(|e| panic!("event {i} ({event}): {e}"));
            let loops: Vec<_> = certified.dataplane.report.of(Invariant::LoopFree).collect();
            prop_assert!(
                loops.is_empty(),
                "event {i} ({event}): {} msgs, LOOP-FREE findings {loops:?}",
                certified.stats.messages
            );
            assert_loop_free(&internet, &vns, &format!("after event {i} ({event})"));
        }

        // Heal everything and demand a spotless control plane.
        for (a, b) in severed {
            certifier
                .apply(&mut internet, &mut vns, Change::Fault(FaultEvent::SessionRestore { a, b }))
                .unwrap_or_else(|e| panic!("restore {a}~{b}: {e}"));
        }
        prop_assert!(certifier.fully_restored());
        prop_assert!(internet.net.is_quiescent());
        assert_loop_free(&internet, &vns, "after full restoration");
        let report = vns_verify::verify(&internet, &vns);
        prop_assert!(
            report.passes(),
            "invariants violated after churn + full restore:\n{}",
            report.render()
        );
    }
}
