//! A MaxMind-style GeoIP database with injectable error models.
//!
//! The paper resolves destination-prefix locations through a commercial
//! GeoIP database (MaxMind) queried by the modified route reflector. Prior
//! work it cites ([Poese et al. 2011]) found such databases locate ~60% of
//! prefixes within 100 km and are country-accurate but city-sloppy; the
//! paper's own Fig 3 scatter shows two outlier clusters caused by concrete
//! database pathologies:
//!
//! * **centroid collapse** — all Russian prefixes geolocated to a single
//!   point in the centre of Russia, making them look closer to Asian PoPs
//!   than European ones;
//! * **stale WHOIS** — Indian prefixes still geolocated in Canada because
//!   their former Canadian owner was acquired by an Indian company.
//!
//! [`GeoIpDb`] stores, per key, the location the database *reports*; the
//! error models rewrite reported locations at build time so the routing
//! layer sees exactly the kind of wrong answers a real deployment would.
//!
//! The database is generic over its key type: `vns-bgp` keys it by prefix,
//! unit tests key it by integers.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cities::{cities_in_region, city, country_centroid};
use crate::coords::GeoPoint;
use crate::region::Region;

/// Lookup failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoIpError {
    /// The key is not present in the database. Real GeoIP databases have
    /// incomplete coverage; the route reflector falls back to the default
    /// LOCAL_PREF in that case.
    Unknown,
}

impl std::fmt::Display for GeoIpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoIpError::Unknown => f.write_str("prefix not in GeoIP database"),
        }
    }
}

impl std::error::Error for GeoIpError {}

/// One database record.
#[derive(Debug, Clone)]
struct Record {
    /// Ground-truth location (what the prefix's hosts actually are).
    truth: GeoPoint,
    /// Location the database reports (= truth unless an error model
    /// rewrote it).
    reported: GeoPoint,
    /// ISO country code of the prefix's registrant.
    country: String,
}

/// Error models that can be applied to a freshly built database.
#[derive(Debug, Clone)]
pub enum GeoIpErrorModel {
    /// Map every prefix registered in `country` to that country's city
    /// centroid (the "centre of Russia" pathology).
    CentroidCollapse {
        /// ISO country code to collapse.
        country: String,
    },
    /// Relocate every prefix registered in `country` to `reported_at`
    /// (the "Indian prefixes in Canada" pathology). `fraction` in `0..=1`
    /// selects how much of the country's address space is affected.
    StaleWhois {
        /// ISO country code whose prefixes are mislocated.
        country: String,
        /// Where the database (wrongly) reports them.
        reported_at: GeoPoint,
        /// Fraction of that country's prefixes affected.
        fraction: f64,
    },
    /// City-level imprecision: displace every reported location by a
    /// uniformly random offset of up to `max_km` kilometres. Models the
    /// "country right, city sloppy" behaviour of commercial databases.
    CityJitter {
        /// Maximum displacement in kilometres.
        max_km: f64,
    },
    /// Adversarial poisoning: relocate every prefix registered in a
    /// country of region `from` to a (deterministically) random city of
    /// region `to`. Unlike the benign models above this is not an
    /// accuracy artefact — it is what a compromised GeoIP feed looks
    /// like when an attacker wants a whole region's traffic routed to
    /// the wrong continent.
    RegionSwap {
        /// Region whose prefixes are rewritten.
        from: Region,
        /// Region whose cities the poisoned feed reports instead.
        to: Region,
    },
    /// Adversarial poisoning: drag every reported location `weight`
    /// (`0..=1`) of the way toward `target`. A targeted variant of
    /// jitter — instead of random noise, the attacker biases the whole
    /// feed toward a point of their choosing (e.g. a PoP they can tap),
    /// which systematically skews geo-derived LOCAL_PREFs.
    AdversarialShift {
        /// The point the poisoned feed pulls locations toward.
        target: GeoPoint,
        /// How far toward `target` each record moves (0 = no-op,
        /// 1 = every record reports exactly `target`).
        weight: f64,
    },
}

/// The GeoIP database.
#[derive(Debug, Clone)]
pub struct GeoIpDb<K: Copy + Ord> {
    records: BTreeMap<K, Record>,
}

impl<K: Copy + Ord> Default for GeoIpDb<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord> GeoIpDb<K> {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self {
            records: BTreeMap::new(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the database has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts (or replaces) a record; the reported location starts equal to
    /// the truth until an error model rewrites it.
    pub fn insert(&mut self, key: K, truth: GeoPoint, country: &str) {
        self.records.insert(
            key,
            Record {
                truth,
                reported: truth,
                country: country.to_string(),
            },
        );
    }

    /// The location the database reports for `key` — what the route
    /// reflector sees.
    pub fn lookup(&self, key: K) -> Result<GeoPoint, GeoIpError> {
        self.records
            .get(&key)
            .map(|r| r.reported)
            .ok_or(GeoIpError::Unknown)
    }

    /// Ground-truth location (for evaluation only; a real operator cannot
    /// call this).
    pub fn truth(&self, key: K) -> Result<GeoPoint, GeoIpError> {
        self.records
            .get(&key)
            .map(|r| r.truth)
            .ok_or(GeoIpError::Unknown)
    }

    /// Registered country for `key`.
    pub fn country(&self, key: K) -> Result<&str, GeoIpError> {
        self.records
            .get(&key)
            .map(|r| r.country.as_str())
            .ok_or(GeoIpError::Unknown)
    }

    /// Reported-vs-truth displacement in km (0 when no error model touched
    /// the record).
    pub fn error_km(&self, key: K) -> Result<f64, GeoIpError> {
        self.records
            .get(&key)
            .map(|r| r.truth.distance_km(&r.reported))
            .ok_or(GeoIpError::Unknown)
    }

    /// Applies an error model to the whole database. Deterministic given
    /// `seed`: the per-record randomness is consumed in key order, which
    /// the ordered map makes stable by construction.
    pub fn apply_error_model(&mut self, model: &GeoIpErrorModel, seed: u64) {
        let keys: Vec<K> = self.records.keys().copied().collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        match model {
            GeoIpErrorModel::CentroidCollapse { country } => {
                let Some(centroid) = country_centroid(country) else {
                    return;
                };
                for k in keys {
                    let rec = self.records.get_mut(&k).expect("key from map");
                    if rec.country == *country {
                        rec.reported = centroid;
                    }
                }
            }
            GeoIpErrorModel::StaleWhois {
                country,
                reported_at,
                fraction,
            } => {
                for k in keys {
                    let hit = rng.gen_bool(fraction.clamp(0.0, 1.0));
                    let rec = self.records.get_mut(&k).expect("key from map");
                    if rec.country == *country && hit {
                        rec.reported = *reported_at;
                    }
                }
            }
            GeoIpErrorModel::CityJitter { max_km } => {
                for k in keys {
                    let dist: f64 = rng.gen_range(0.0..*max_km);
                    let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                    let rec = self.records.get_mut(&k).expect("key from map");
                    // Small-displacement approximation: convert km to degrees
                    // locally. Adequate for <=200 km jitters away from poles.
                    let dlat = dist * angle.cos() / 111.0;
                    let coslat = rec.reported.lat_deg.to_radians().cos().max(0.05);
                    let dlon = dist * angle.sin() / (111.0 * coslat);
                    rec.reported =
                        GeoPoint::new(rec.reported.lat_deg + dlat, rec.reported.lon_deg + dlon);
                }
            }
            GeoIpErrorModel::RegionSwap { from, to } => {
                let countries: std::collections::BTreeSet<&str> = cities_in_region(*from)
                    .into_iter()
                    .map(|c| city(c).country)
                    .collect();
                let targets = cities_in_region(*to);
                if targets.is_empty() {
                    return;
                }
                for k in keys {
                    // Consume randomness for every key so hits don't shift
                    // when unrelated records are added.
                    let pick = targets[rng.gen_range(0..targets.len())];
                    let rec = self.records.get_mut(&k).expect("key from map");
                    if countries.contains(rec.country.as_str()) {
                        rec.reported = city(pick).location;
                    }
                }
            }
            GeoIpErrorModel::AdversarialShift { target, weight } => {
                let w = weight.clamp(0.0, 1.0);
                for k in keys {
                    let rec = self.records.get_mut(&k).expect("key from map");
                    rec.reported = GeoPoint::new(
                        rec.reported.lat_deg + (target.lat_deg - rec.reported.lat_deg) * w,
                        rec.reported.lon_deg + (target.lon_deg - rec.reported.lon_deg) * w,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::{city_by_name, country_centroid};

    fn moscow() -> GeoPoint {
        city_by_name("Moscow").unwrap().1.location
    }

    #[test]
    fn lookup_roundtrip_and_unknown() {
        let mut db: GeoIpDb<u32> = GeoIpDb::new();
        db.insert(1, moscow(), "RU");
        assert_eq!(db.lookup(1).unwrap(), moscow());
        assert_eq!(db.country(1).unwrap(), "RU");
        assert_eq!(db.lookup(2), Err(GeoIpError::Unknown));
        assert_eq!(db.error_km(1).unwrap(), 0.0);
    }

    #[test]
    fn centroid_collapse_moves_russian_prefixes() {
        let mut db: GeoIpDb<u32> = GeoIpDb::new();
        db.insert(1, moscow(), "RU");
        db.insert(2, city_by_name("Amsterdam").unwrap().1.location, "NL");
        db.apply_error_model(
            &GeoIpErrorModel::CentroidCollapse {
                country: "RU".into(),
            },
            7,
        );
        let centroid = country_centroid("RU").unwrap();
        assert_eq!(db.lookup(1).unwrap(), centroid);
        assert!(
            db.error_km(1).unwrap() > 500.0,
            "Moscow is far from centroid"
        );
        // Dutch prefix untouched.
        assert_eq!(db.error_km(2).unwrap(), 0.0);
    }

    #[test]
    fn stale_whois_relocates_fraction() {
        let mumbai = city_by_name("Mumbai").unwrap().1.location;
        let toronto = city_by_name("Toronto").unwrap().1.location;
        let mut db: GeoIpDb<u32> = GeoIpDb::new();
        for k in 0..200 {
            db.insert(k, mumbai, "IN");
        }
        db.apply_error_model(
            &GeoIpErrorModel::StaleWhois {
                country: "IN".into(),
                reported_at: toronto,
                fraction: 0.5,
            },
            42,
        );
        let moved = (0..200)
            .filter(|&k| db.lookup(k).unwrap() == toronto)
            .count();
        assert!(
            (60..=140).contains(&moved),
            "about half should move, moved {moved}"
        );
    }

    #[test]
    fn city_jitter_bounded() {
        let mut db: GeoIpDb<u32> = GeoIpDb::new();
        for k in 0..100 {
            db.insert(k, moscow(), "RU");
        }
        db.apply_error_model(&GeoIpErrorModel::CityJitter { max_km: 100.0 }, 3);
        for k in 0..100 {
            let err = db.error_km(k).unwrap();
            // The planar approximation can overshoot slightly at high
            // latitude; allow 15% slack.
            assert!(err <= 115.0, "jitter must stay bounded, got {err}");
        }
        let mean: f64 = (0..100).map(|k| db.error_km(k).unwrap()).sum::<f64>() / 100.0;
        assert!(mean > 10.0, "jitter should actually displace records");
    }

    #[test]
    fn region_swap_relocates_only_the_target_region() {
        let mut db: GeoIpDb<u32> = GeoIpDb::new();
        db.insert(1, city_by_name("Amsterdam").unwrap().1.location, "NL");
        db.insert(2, moscow(), "RU");
        db.insert(3, city_by_name("Mumbai").unwrap().1.location, "IN");
        db.apply_error_model(
            &GeoIpErrorModel::RegionSwap {
                from: crate::Region::Europe,
                to: crate::Region::AsiaPacific,
            },
            11,
        );
        // Both European prefixes land on Asia-Pacific cities, thousands of
        // kilometres from home.
        assert!(db.error_km(1).unwrap() > 2000.0);
        assert!(db.error_km(2).unwrap() > 1000.0);
        // The Indian prefix is untouched.
        assert_eq!(db.error_km(3).unwrap(), 0.0);
    }

    #[test]
    fn adversarial_shift_drags_toward_target() {
        let toronto = city_by_name("Toronto").unwrap().1.location;
        let mut db: GeoIpDb<u32> = GeoIpDb::new();
        db.insert(1, moscow(), "RU");
        db.apply_error_model(
            &GeoIpErrorModel::AdversarialShift {
                target: toronto,
                weight: 1.0,
            },
            5,
        );
        let got = db.lookup(1).unwrap();
        assert!(got.distance_km(&toronto) < 1.0, "weight 1 pins to target");

        let mut half: GeoIpDb<u32> = GeoIpDb::new();
        half.insert(1, moscow(), "RU");
        half.apply_error_model(
            &GeoIpErrorModel::AdversarialShift {
                target: toronto,
                weight: 0.5,
            },
            5,
        );
        let part = half.error_km(1).unwrap();
        assert!(part > 500.0, "half weight still displaces, got {part}");
        assert!(
            part < db.error_km(1).unwrap() + 1.0 && part < moscow().distance_km(&toronto),
            "half weight moves less than the full span"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut db: GeoIpDb<u32> = GeoIpDb::new();
            for k in 0..50 {
                db.insert(k, moscow(), "RU");
            }
            db.apply_error_model(&GeoIpErrorModel::CityJitter { max_km: 50.0 }, 9);
            (0..50).map(|k| db.lookup(k).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(
            build()
                .iter()
                .map(|p| (p.lat_deg, p.lon_deg))
                .collect::<Vec<_>>(),
            build()
                .iter()
                .map(|p| (p.lat_deg, p.lon_deg))
                .collect::<Vec<_>>()
        );
    }
}
