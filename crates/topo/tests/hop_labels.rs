//! The hop-label oracle. A hop's label is a value, but blackout schedules
//! and per-flow seeds hash its rendered text, so `HopLabel`'s byte writer
//! (and `Display`, which writes through it) must write exactly the bytes
//! each construction site once formatted, and a flow's per-hop seed,
//! resumed from a hash of the flow's prefix, must equal the seed of the
//! whole label hashed in one piece. [`old_format`] restates those seven
//! `format!` expressions; every label here is checked against it:
//! arbitrary ids of every shape, and every hop the service plane and the
//! PoP probes resolve on generated worlds — including one grown by an
//! attacker AS, whose ids are the last handed out.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vns_bgp::{Asn, Prefix, SpeakerId};
use vns_core::adversary::spawn_malicious_as;
use vns_core::{build_vns, PopId, Vns, VnsConfig};
use vns_geo::cities::CITIES;
use vns_geo::{city, CityId};
use vns_netsim::RngTree;
use vns_service::{EndpointTable, PathTable};
use vns_topo::path::{HopKind, HopLabel, ResolvedHop, ResolvedPath};
use vns_topo::{generate, CalibrationConfig, ChannelFactory, Internet, PrefixInfo, TopoConfig};

/// The label text as it was built before labels were values: the
/// resolver's four `format!`s, the overlay's two and the service plane's
/// splice leg, over the same ids.
fn old_format(label: &HopLabel) -> String {
    match *label {
        HopLabel::LastMile { asn, prefix } => format!("lastmile:{asn}:{prefix}"),
        HopLabel::Ix {
            asn,
            peer,
            city: far,
        } => format!("ix:{asn}:{peer}@{}", city(far).name),
        HopLabel::Intra { asn, from, to } => {
            format!("intra:{asn}:{}->{}", city(from).name, city(to).name)
        }
        HopLabel::Backbone {
            asn,
            dedicated,
            from,
            to,
        } => format!(
            "{}:{asn}:{}->{}",
            if dedicated { "l2" } else { "bb" },
            city(from).name,
            city(to).name
        ),
        HopLabel::TransitPort {
            asn,
            upstream,
            city: port,
        } => format!("transit-port:{asn}:{upstream}@{}", city(port).name),
        HopLabel::Exit {
            asn,
            peer,
            city: far,
        } => format!("exit:{asn}:{peer}@{}", city(far).name),
        HopLabel::Spill { from, to } => format!("spill:{}->{}", PopId(from), PopId(to)),
    }
}

/// A label of any of the seven shapes over arbitrary ids.
fn any_label() -> impl Strategy<Value = HopLabel> {
    let cities = 0..u16::try_from(CITIES.len()).expect("city table fits u16");
    (
        0u8..7,
        any::<u32>(),
        any::<u32>(),
        cities.clone(),
        cities,
        0u8..=32,
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(|(shape, a, b, c, d, len, dedicated, pop)| {
            let (asn, from, to) = (Asn(a), CityId(c), CityId(d));
            match shape {
                0 => HopLabel::LastMile {
                    asn,
                    prefix: Prefix::new(b, len),
                },
                1 => HopLabel::Ix {
                    asn,
                    peer: SpeakerId(b),
                    city: to,
                },
                2 => HopLabel::Intra { asn, from, to },
                3 => HopLabel::Backbone {
                    asn,
                    dedicated,
                    from,
                    to,
                },
                4 => HopLabel::TransitPort {
                    asn,
                    upstream: Asn(b),
                    city: to,
                },
                5 => HopLabel::Exit {
                    asn,
                    peer: SpeakerId(b),
                    city: to,
                },
                _ => HopLabel::Spill {
                    from: pop,
                    to: b.to_le_bytes()[0],
                },
            }
        })
}

/// Hop `i`'s seed as `ChannelFactory::channel_args` derives it: the
/// flow's prefix `flow:{flow}:hop` hashed once, then a copy resumed with
/// `{i}:` and the label's byte writer.
fn resumed_seed(tree: &RngTree, flow: &str, i: usize, label: &HopLabel) -> u64 {
    let mut prefix = tree.label_hash();
    prefix.bytes(b"flow:");
    prefix.bytes(flow.as_bytes());
    prefix.bytes(b":hop");
    let mut hop = prefix;
    hop.uint(u64::try_from(i).expect("hop index fits u64"));
    hop.bytes(b":");
    label.write_to(&mut hop);
    hop.finish()
}

/// The same seed the way it was derived before: the whole label rendered
/// and hashed in one piece.
fn one_shot_seed(tree: &RngTree, flow: &str, i: usize, label: &HopLabel) -> u64 {
    tree.seed_for(&format!("flow:{flow}:hop{i}:{}", old_format(label)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn display_writes_the_old_text(label in any_label()) {
        prop_assert_eq!(label.to_string(), old_format(&label));
    }

    #[test]
    fn resumed_seed_finishes_to_the_one_shot_seed(
        label in any_label(),
        i in 0usize..100_000,
        flow in prop::collection::vec(b' '..b'~', 0..24)
            .prop_map(|text| String::from_utf8(text).expect("printable ASCII")),
        master in any::<u64>(),
    ) {
        let tree = RngTree::new(master);
        prop_assert_eq!(
            resumed_seed(&tree, &flow, i, &label),
            one_shot_seed(&tree, &flow, i, &label),
            "{:?} hop {} of flow {:?}", label, i, flow
        );
    }

    #[test]
    fn distinct_labels_render_distinct_text(a in any_label(), b in any_label()) {
        prop_assert_eq!(a == b, a.to_string() == b.to_string(), "{a:?} vs {b:?}");
    }
}

/// Hops the factory gives a blackout schedule (restated from
/// `ChannelFactory`'s rule): shared hauls and long interconnects.
fn faultable(hop: &ResolvedHop) -> bool {
    matches!(
        hop.kind,
        HopKind::IntraAs {
            dedicated: false,
            ..
        }
    ) || (matches!(hop.kind, HopKind::InterAs { .. }) && hop.km > 500.0)
}

/// Checks that `hop`'s label names the hop it sits on: the cities, the AS
/// and the kind the hop itself carries.
fn assert_label_names_hop(internet: &Internet, vns: &Vns, hop: &ResolvedHop) {
    let at = |c: CityId| city(c).name;
    let ok = match (hop.label, hop.kind) {
        (HopLabel::LastMile { asn, prefix }, HopKind::LastMile { .. }) => {
            let pinfo = internet
                .lookup_prefix(prefix.first_host())
                .expect("registered");
            pinfo.prefix == prefix
                && internet.as_info(pinfo.origin).asn == asn
                && (hop.from_city, hop.to_city) == (pinfo.city, pinfo.city)
        }
        (HopLabel::Intra { asn, from, to }, HopKind::IntraAs { asn: a, .. }) => {
            asn == a && (from, to) == (hop.from_city, hop.to_city)
        }
        (
            HopLabel::Backbone {
                asn,
                dedicated,
                from,
                to,
            },
            HopKind::IntraAs {
                asn: a,
                dedicated: d,
                ..
            },
        ) => asn == a && dedicated == d && (from, to) == (hop.from_city, hop.to_city),
        (
            HopLabel::Ix { city: c, .. }
            | HopLabel::Exit { city: c, .. }
            | HopLabel::TransitPort { city: c, .. },
            HopKind::InterAs { .. },
        ) => c == hop.to_city,
        (HopLabel::Spill { from, to }, HopKind::IntraAs { dedicated, .. }) => {
            dedicated
                && vns.pop(PopId(from)).city == hop.from_city
                && vns.pop(PopId(to)).city == hop.to_city
        }
        _ => false,
    };
    assert!(
        ok,
        "{} on a {:?} hop {} -> {}",
        hop.label,
        hop.kind,
        at(hop.from_city),
        at(hop.to_city)
    );
}

/// Every path one world's service plane and PoP probes resolve: every
/// cached tail, every call path (each caller's landing, and the splice
/// leg to each other PoP), and the upstream and local-exit paths from each
/// PoP to each endpoint.
fn world_paths(internet: &Internet, vns: &Vns) -> Vec<ResolvedPath> {
    let endpoints = EndpointTable::build(internet, vns);
    let table = PathTable::build(internet, vns, &endpoints);
    let n = endpoints.len();
    let mut paths = Vec::new();
    for pop in vns.pops() {
        for callee in 0..n {
            let ip = endpoints.endpoint(callee).ip;
            paths.extend(table.tail(pop.id(), callee).cloned());
            paths.extend(vns.path_via_upstream(internet, pop.id(), ip).ok());
            paths.extend(vns.path_via_local_exit(internet, pop.id(), ip).ok());
        }
    }
    for caller in 0..n {
        for (k, pop) in vns.pops().iter().enumerate() {
            let callee = (caller + k + 1) % n;
            paths.extend(table.call_path(caller, callee, pop.id()));
        }
    }
    paths
}

/// Runs the oracle over one world: every hop's text, every hop's resumed
/// seed, every label naming its own hop, injectivity over the world's
/// label set, and the blackout memo holding one schedule per distinct
/// faultable text.
fn check_world(internet: &Internet, vns: &Vns, seed: u64) -> BTreeSet<HopLabel> {
    let paths = world_paths(internet, vns);
    let tree = RngTree::new(seed).subtree("channels");
    for (p, path) in paths.iter().enumerate() {
        let flow = format!("oracle:{p}");
        for (i, hop) in path.hops.iter().enumerate() {
            assert_eq!(
                resumed_seed(&tree, &flow, i, &hop.label),
                one_shot_seed(&tree, &flow, i, &hop.label),
                "seed {seed}: hop {i} of {flow}"
            );
        }
    }
    let mut labels = BTreeSet::new();
    let mut faultable_text = BTreeSet::new();
    let mut shapes = BTreeSet::new();
    for hop in paths.iter().flat_map(|p| &p.hops) {
        let text = hop.label.to_string();
        assert_eq!(text, old_format(&hop.label), "seed {seed}");
        assert_label_names_hop(internet, vns, hop);
        labels.insert(hop.label);
        shapes.insert(text.split(':').next().map(str::to_owned));
        if faultable(hop) {
            faultable_text.insert(text);
        }
    }
    let texts: BTreeSet<String> = labels.iter().map(ToString::to_string).collect();
    assert_eq!(
        texts.len(),
        labels.len(),
        "seed {seed}: two labels, one text"
    );
    // Every shape occurs, both tags of the backbone one included.
    for tag in [
        "lastmile",
        "ix",
        "intra",
        "l2",
        "bb",
        "transit-port",
        "exit",
        "spill",
    ] {
        assert!(
            shapes.contains(&Some(tag.to_owned())),
            "seed {seed}: no {tag} hop among {shapes:?}"
        );
    }

    // In a debug build each of these channels also checks every hop's
    // resumed seed against the old rendering.
    let factory = ChannelFactory::new(CalibrationConfig::default(), tree);
    for (p, path) in paths.iter().enumerate() {
        let _ = factory.channel(path, &format!("oracle:{p}"));
    }
    assert_eq!(
        factory.cached_blackout_schedules(),
        faultable_text.len(),
        "seed {seed}"
    );
    labels
}

fn world(seed: u64) -> (Internet, Vns) {
    let mut internet = generate(&TopoConfig::tiny(seed)).expect("generate");
    let vns = build_vns(&mut internet, &VnsConfig::default()).expect("converge");
    (internet, vns)
}

#[test]
fn every_hop_of_generated_worlds_renders_the_old_text() {
    for seed in [7, 46, 99] {
        let (internet, vns) = world(seed);
        let labels = check_world(&internet, &vns, seed);
        assert!(labels.len() > 500, "seed {seed}: {} labels", labels.len());
    }
}

#[test]
fn an_attacker_as_late_ids_render_the_old_text() {
    // The attacker's ASN and speaker id are the last the world allocated;
    // give it a last-mile prefix of its own so both reach hop labels.
    let seed = 7;
    let (mut internet, vns) = world(seed);
    let (asn, attacker) = spawn_malicious_as(&mut internet, &vns).expect("attacker");
    let prefix: Prefix = "203.0.113.0/24".parse().expect("prefix");
    let origin = internet.as_of_speaker(attacker).expect("registered AS");
    let home = internet.as_info(origin).home_city;
    let location = city(home).location;
    internet.add_prefix(
        PrefixInfo {
            prefix,
            origin,
            city: home,
            location,
            last_mile: true,
            anycast: false,
        },
        city(home).country,
        location,
    );
    internet.net.originate(attacker, prefix);
    vns.reconverge(&mut internet).expect("reconverges");
    assert!(internet.net.is_quiescent());

    let labels = check_world(&internet, &vns, seed);
    assert!(labels.contains(&HopLabel::LastMile { asn, prefix }));
    assert!(
        labels
            .iter()
            .any(|l| matches!(l, HopLabel::Ix { peer, .. } if *peer == attacker)),
        "no hop into {attacker}"
    );
}
