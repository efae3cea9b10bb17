//! Control-plane churn tests: flapping origins, route refresh, MED-based
//! steering, and convergence determinism under repeated reconvergence.

use vns_bgp::{
    Asn, BgpNet, Message, Origin, PeerConfig, PeerKind, Policy, Prefix, Relation, RouteAttrs,
    Speaker, SpeakerId,
};

fn p(s: &str) -> Prefix {
    s.parse().expect("valid prefix literal")
}

/// AS1 --AS2 -- AS3 chain with AS4 multihomed to AS2 and AS3.
fn diamond() -> BgpNet {
    let mut net = BgpNet::new();
    for i in 1..=4 {
        net.add_speaker(Speaker::new(SpeakerId(i), Asn(i)));
    }
    net.connect_ebgp(
        SpeakerId(1),
        SpeakerId(2),
        Relation::Provider,
        Policy::GaoRexford,
    );
    net.connect_ebgp(
        SpeakerId(2),
        SpeakerId(3),
        Relation::Peer,
        Policy::GaoRexford,
    );
    net.connect_ebgp(
        SpeakerId(4),
        SpeakerId(2),
        Relation::Provider,
        Policy::GaoRexford,
    );
    net.connect_ebgp(
        SpeakerId(4),
        SpeakerId(3),
        Relation::Provider,
        Policy::GaoRexford,
    );
    net
}

#[test]
fn origin_flap_converges_every_time() {
    let mut net = diamond();
    let prefix = p("10.4.0.0/16");
    for round in 0..10 {
        net.originate(SpeakerId(4), prefix);
        net.run(100_000).unwrap();
        assert!(
            net.speaker(SpeakerId(1)).unwrap().best(&prefix).is_some(),
            "round {round}: reachable after announce"
        );
        net.speaker_mut(SpeakerId(4))
            .unwrap()
            .withdraw_local(prefix);
        net.run(100_000).unwrap();
        assert!(
            net.speaker(SpeakerId(1)).unwrap().best(&prefix).is_none(),
            "round {round}: gone after withdraw"
        );
        assert!(
            net.speaker(SpeakerId(2)).unwrap().best(&prefix).is_none(),
            "round {round}: no stale state at AS2"
        );
    }
}

#[test]
fn flap_leaves_identical_state() {
    // State after announce-withdraw-announce equals state after announce.
    let build = |flaps: usize| {
        let mut net = diamond();
        let prefix = p("10.4.0.0/16");
        for _ in 0..flaps {
            net.originate(SpeakerId(4), prefix);
            net.run(100_000).unwrap();
            net.speaker_mut(SpeakerId(4))
                .unwrap()
                .withdraw_local(prefix);
            net.run(100_000).unwrap();
        }
        net.originate(SpeakerId(4), prefix);
        net.run(100_000).unwrap();
        (1..=3)
            .map(|i| {
                net.speaker(SpeakerId(i))
                    .unwrap()
                    .best(&prefix)
                    .map(|c| c.attrs.as_path.clone())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(build(0), build(5));
}

#[test]
fn refresh_is_idempotent_at_steady_state() {
    let mut net = diamond();
    let prefix = p("10.4.0.0/16");
    net.originate(SpeakerId(4), prefix);
    net.run(100_000).unwrap();
    let before: Vec<_> = (1..=4)
        .map(|i| net.speaker(SpeakerId(i)).unwrap().best(&prefix).cloned())
        .collect();
    // Refresh every speaker: messages flow, state must not change.
    for i in 1..=4 {
        net.speaker_mut(SpeakerId(i)).unwrap().request_refresh_all();
    }
    let stats = net.run(100_000).unwrap();
    assert!(stats.messages > 0, "refresh re-sends advertisements");
    let after: Vec<_> = (1..=4)
        .map(|i| net.speaker(SpeakerId(i)).unwrap().best(&prefix).cloned())
        .collect();
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.as_ref().map(|c| &c.attrs), a.as_ref().map(|c| &c.attrs));
    }
}

#[test]
fn med_steers_between_parallel_sessions() {
    // One AS (AS2, two routers) hears the same prefix from AS1's two
    // routers with different MEDs: the lower MED must win.
    let mut net = BgpNet::new();
    // AS1: routers 11 and 12 (iBGP mesh), both originate-and-tag via MED.
    for i in [11, 12] {
        let mut s = Speaker::new(SpeakerId(i), Asn(1));
        s.set_export_own_ibgp(true);
        net.add_speaker(s);
    }
    net.connect(
        SpeakerId(11),
        PeerConfig {
            kind: PeerKind::Ibgp,
            import: Policy::GaoRexford,
        },
        SpeakerId(12),
        PeerConfig {
            kind: PeerKind::Ibgp,
            import: Policy::GaoRexford,
        },
    );
    net.add_speaker(Speaker::new(SpeakerId(2), Asn(2)));
    net.connect_ebgp(
        SpeakerId(11),
        SpeakerId(2),
        Relation::Customer,
        Policy::GaoRexford,
    );
    net.connect_ebgp(
        SpeakerId(12),
        SpeakerId(2),
        Relation::Customer,
        Policy::GaoRexford,
    );
    let prefix = p("10.1.0.0/16");
    // Hand-deliver updates with MEDs (the speaker API resets MED on its
    // own originations, so drive the receiving side directly).
    let mk = |med: u32, nh: u32| Message::Update {
        prefix,
        attrs: RouteAttrs {
            local_pref: 100,
            as_path: vec![Asn(1)].into(),
            origin: Origin::Igp,
            med,
            communities: vec![],
            next_hop: SpeakerId(nh),
            originator_id: None,
            cluster_list: vec![],
        }
        .into(),
    };
    {
        let s2 = net.speaker_mut(SpeakerId(2)).unwrap();
        s2.receive(SpeakerId(11), mk(50, 11));
        s2.receive(SpeakerId(12), mk(10, 12));
        s2.process();
    }
    let best = net.speaker(SpeakerId(2)).unwrap().best(&prefix).unwrap();
    assert_eq!(
        best.attrs.med, 10,
        "lower MED wins between same-AS sessions"
    );
    assert_eq!(best.source.peer(), Some(SpeakerId(12)));
}

#[test]
fn no_export_stays_inside_the_as() {
    use vns_bgp::Community;
    let mut net = diamond();
    let prefix = p("10.4.64.0/18");
    net.originate_with(SpeakerId(4), prefix, vec![Community::NoExport]);
    net.run(100_000).unwrap();
    // Direct eBGP neighbours 2 and 3 never hear it (AS-level speakers:
    // NO_EXPORT blocks the very first eBGP hop).
    for i in 1..=3 {
        assert!(
            net.speaker(SpeakerId(i)).unwrap().best(&prefix).is_none(),
            "AS{i} must not learn a NO_EXPORT origination"
        );
    }
}

#[test]
fn convergence_message_count_is_deterministic() {
    let run = || {
        let mut net = diamond();
        for (i, pre) in [(1u32, "10.1.0.0/16"), (4, "10.4.0.0/16")] {
            net.originate(SpeakerId(i), p(pre));
        }
        net.run(100_000).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.activations, b.activations);
}
