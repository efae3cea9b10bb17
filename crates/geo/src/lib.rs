//! Geography substrate for the VNS reproduction.
//!
//! The paper's routing contribution is *geo-based cold-potato BGP*: a route
//! reflector assigns LOCAL_PREF from the great-circle distance between an
//! egress router and the GeoIP location of the destination prefix. This
//! crate supplies everything geographic:
//!
//! * [`GeoPoint`] and [`great_circle_km`] — positions and the spherical
//!   distance the paper's modified Quagga computes (Sec 3.2);
//! * [`Region`] — the seven world regions of Fig 7 and the four PoP regions;
//! * [`cities`] — an embedded table of ~90 real cities used to place ASes,
//!   IXPs and PoPs;
//! * [`GeoIpDb`] — a MaxMind-like prefix→location database with injectable
//!   error models reproducing the two documented failure classes that cause
//!   the Fig 3 outlier clusters (country-centroid collapse and stale-WHOIS
//!   relocation after M&A).

pub mod cities;
pub mod coords;
pub mod geoip;
pub mod population;
pub mod region;

pub use cities::{city, city_opt, City, CityId};
pub use coords::{great_circle_km, initial_bearing_deg, GeoPoint, EARTH_RADIUS_KM};
pub use geoip::{GeoIpDb, GeoIpError, GeoIpErrorModel};
pub use population::metro_population_k;
pub use region::{PopRegion, Region};
