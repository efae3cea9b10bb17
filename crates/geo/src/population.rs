//! Metro-area populations for the embedded city table.
//!
//! The live service plane samples caller and callee cities in proportion
//! to how many people could plausibly place a call from each — a
//! population-weighted endpoint model, the same assumption the paper's
//! Sec 5 user base implies (conferencing demand follows where users live,
//! then the diurnal profile says *when* they call).
//!
//! Figures are approximate metro-area populations in thousands; they only
//! need to be the right relative magnitude (Tokyo ≫ Oslo), not census-
//! accurate. Keyed by city name so the table cannot silently fall out of
//! alignment if [`crate::cities::CITIES`] is reordered; a unit test pins
//! full coverage.

use crate::cities::{city, CityId};

/// `(city name, metro population in thousands)` for every city in
/// [`CITIES`].
static METRO_POP_K: &[(&str, u32)] = &[
    // --- Europe ---
    ("Amsterdam", 2_480),
    ("London", 14_800),
    ("Frankfurt", 2_700),
    ("Oslo", 1_590),
    ("Paris", 13_000),
    ("Stockholm", 2_400),
    ("Madrid", 6_750),
    ("Milan", 4_340),
    ("Vienna", 2_900),
    ("Warsaw", 3_100),
    ("Zurich", 1_400),
    ("Copenhagen", 2_100),
    ("Dublin", 2_000),
    ("Helsinki", 1_500),
    ("Brussels", 2_600),
    ("Prague", 2_700),
    ("Budapest", 3_000),
    ("Bucharest", 2_300),
    ("Athens", 3_150),
    ("Lisbon", 2_900),
    ("Kyiv", 3_000),
    ("Moscow", 17_100),
    ("StPetersburg", 5_400),
    ("Novosibirsk", 1_600),
    ("Yekaterinburg", 1_500),
    ("Istanbul", 15_600),
    // --- North & Central America ---
    ("NewYork", 19_500),
    ("Ashburn", 300),
    ("Atlanta", 6_100),
    ("Miami", 6_200),
    ("Chicago", 9_500),
    ("Dallas", 7_600),
    ("Denver", 3_000),
    ("LosAngeles", 12_900),
    ("SanJose", 2_000),
    ("Seattle", 4_000),
    ("Boston", 4_900),
    ("Phoenix", 4_900),
    ("Houston", 7_100),
    ("Minneapolis", 3_700),
    ("Toronto", 6_400),
    ("Montreal", 4_300),
    ("Vancouver", 2_700),
    ("MexicoCity", 21_800),
    ("PanamaCity", 1_900),
    // --- South America ---
    ("SaoPaulo", 22_400),
    ("RioDeJaneiro", 13_600),
    ("BuenosAires", 15_400),
    ("Santiago", 6_900),
    ("Bogota", 11_300),
    ("Lima", 11_000),
    // --- Asia-Pacific ---
    ("Singapore", 5_900),
    ("HongKong", 7_500),
    ("Tokyo", 37_300),
    ("Osaka", 19_100),
    ("Seoul", 25_500),
    ("Taipei", 7_000),
    ("Shanghai", 28_500),
    ("Beijing", 21_500),
    ("Guangzhou", 13_900),
    ("Mumbai", 21_300),
    ("Delhi", 32_900),
    ("Bangalore", 13_200),
    ("Chennai", 11_500),
    ("KualaLumpur", 8_400),
    ("Jakarta", 33_400),
    ("Bangkok", 17_000),
    ("Manila", 14_400),
    ("HoChiMinh", 9_300),
    ("Karachi", 17_200),
    ("Dhaka", 23_200),
    ("Colombo", 2_500),
    // --- Oceania ---
    ("Sydney", 5_300),
    ("Melbourne", 5_200),
    ("Brisbane", 2_600),
    ("Perth", 2_100),
    ("Auckland", 1_700),
    ("Wellington", 420),
    // --- Middle East ---
    ("Dubai", 3_600),
    ("TelAviv", 4_300),
    ("Riyadh", 7_700),
    ("Doha", 2_400),
    ("Amman", 4_600),
    ("Tehran", 9_600),
    // --- Africa ---
    ("Johannesburg", 6_100),
    ("CapeTown", 4_800),
    ("Cairo", 21_800),
    ("Lagos", 15_900),
    ("Nairobi", 5_100),
    ("Casablanca", 3_800),
];

/// Metro population of `id` in thousands.
///
/// Unlisted cities (none today — a test pins full coverage) weigh in at a
/// nominal 1 000k so sampling degrades gracefully rather than panicking.
pub fn metro_population_k(id: CityId) -> u32 {
    let name = city(id).name;
    METRO_POP_K
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(1_000, |(_, p)| *p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::{city_by_name, CITIES};

    #[test]
    fn every_city_is_listed() {
        for (i, c) in CITIES.iter().enumerate() {
            assert!(
                METRO_POP_K.iter().any(|(n, _)| *n == c.name),
                "city {} (#{i}) missing from population table",
                c.name
            );
        }
    }

    #[test]
    fn no_stale_entries() {
        for (n, p) in METRO_POP_K {
            assert!(city_by_name(n).is_some(), "{n} not in CITIES");
            assert!(*p > 0, "{n} has zero population");
        }
    }

    #[test]
    fn relative_magnitudes_are_sane() {
        let pop = |n: &str| {
            let (id, _) = city_by_name(n).unwrap();
            metro_population_k(id)
        };
        assert!(pop("Tokyo") > 10 * pop("Oslo"));
        assert!(pop("Delhi") > pop("Amsterdam"));
        assert_eq!(pop("Oslo"), 1_590);
    }

    #[test]
    fn every_city_weighs_something() {
        assert!((0..CITIES.len()).all(|i| metro_population_k(CityId(i as u16)) > 0));
    }
}
