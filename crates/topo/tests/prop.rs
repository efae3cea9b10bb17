//! Property tests over the Internet generator: for arbitrary seeds the
//! generated world must satisfy its structural invariants.

use proptest::prelude::*;
use vns_topo::{generate, AsType, TopoConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn generated_world_invariants(seed in 0u64..10_000) {
        let internet = generate(&TopoConfig::tiny(seed)).expect("generation succeeds");

        // Registry consistency: every router of every AS maps back to it.
        for info in internet.ases() {
            prop_assert!(!info.routers.is_empty());
            for &(city, sp) in &info.routers {
                prop_assert_eq!(internet.as_of_speaker(sp), Some(info.id));
                prop_assert_eq!(internet.city_of_router(sp), Some(city));
            }
            prop_assert!(!info.presence.is_empty());
            // Multi-router ASes carry an IGP for data-plane expansion.
            if info.routers.len() > 1 {
                prop_assert!(info.igp.is_some(), "{} lacks an IGP", info.asn);
            }
        }

        // Every prefix registered in the table is originated by its AS (some
        // router of the origin lists it in BGP) and geolocated.
        for p in internet.prefixes() {
            let origin = internet.as_info(p.origin);
            let originated = origin.routers.iter().any(|&(_, sp)| {
                internet
                    .net
                    .speaker(sp)
                    .is_some_and(|s| s.originated_prefixes().any(|q| q == p.prefix))
            });
            prop_assert!(originated, "{} not originated by {}", p.prefix, origin.asn);
            prop_assert!(internet.geoip.lookup(p.prefix).is_ok());
            // True location is near the claimed city (placement scatter is
            // tens of km).
            let city_loc = vns_geo::city(p.city).location;
            prop_assert!(p.location.distance_km(&city_loc) < 60.0);
        }

        // Near-full reachability from every AS-level speaker.
        let reach = vns_topo::gen::reachability(&internet);
        prop_assert!(reach > 0.99, "reachability {reach}");

        // Type mix present.
        for ty in AsType::ALL {
            prop_assert!(internet.ases().any(|a| a.ty == ty));
        }
    }

    #[test]
    fn link_geometry_is_symmetric(seed in 0u64..10_000) {
        let internet = generate(&TopoConfig::tiny(seed)).expect("generation succeeds");
        let speakers: Vec<_> = internet
            .ases()
            .flat_map(|a| a.routers.iter().map(|(_, s)| *s))
            .collect();
        let mut checked = 0;
        for &a in speakers.iter().take(30) {
            for &b in speakers.iter().take(30) {
                let ab = internet.links_between(a, b);
                let ba = internet.links_between(b, a);
                prop_assert_eq!(ab.len(), ba.len());
                for (x, y) in ab.iter().zip(ba.iter().rev()) {
                    // Same multiset of city pairs, mirrored.
                    let _ = (x, y);
                }
                if !ab.is_empty() {
                    checked += 1;
                    let mirrored: Vec<_> = ba.iter().map(|(x, y)| (*y, *x)).collect();
                    for pair in ab {
                        prop_assert!(mirrored.contains(pair));
                    }
                }
            }
        }
        prop_assert!(checked > 0);
    }
}
