//! **VNS** — the paper's contribution: a well-provisioned network-layer
//! overlay for video conferencing with geography-based cold-potato BGP
//! routing.
//!
//! The overlay (Sec 3 of the paper) is a single autonomous system of 11
//! PoPs on four continents. PoPs in one geographic region form a fully
//! meshed *cluster* over dedicated guaranteed-bandwidth L2 links; clusters
//! are joined by a few long-haul circuits (Singapore's direct legs to the
//! US, Europe and Australia are called out in Sec 4.3). Media enters and
//! leaves through TURN-style relays reachable on one anycast address.
//!
//! Routing (Sec 3.2): every border router speaks eBGP to upstream transit
//! providers and IXP peers, and iBGP to two route reflectors. The route
//! reflectors run the paper's modified Quagga logic — implemented here as
//! an import table on the reflector speakers, filled by
//! [`Vns::assigned_pref`]: on every update from a client, LOCAL_PREF is
//! rewritten as a decreasing function of the great-circle distance between
//! the announcing egress router and the prefix's GeoIP location, so the
//! whole AS converges on the geographically closest egress ("cold
//! potato"). Border routers advertise *best external* to
//! keep alternatives visible (the hidden-routes fix), and a management
//! interface ([`mgmt`]) can force exits, exempt badly geolocated prefixes,
//! or inject `NO_EXPORT`-tagged more-specifics. Faults, management actions
//! and attacks are all [`Change`]s, staged and reconverged by
//! [`Vns::apply`].
//!
//! [`RoutingMode::HotPotato`] builds the same overlay without the geo
//! preference — the paper's "before" configuration that Figs 4 and 5 compare
//! against.

pub mod adversary;
pub mod build;
pub mod change;
pub mod config;
pub mod economics;
pub mod fault;
pub mod georr;
pub mod lpfunc;
pub mod mgmt;
pub mod pops;
pub mod service;

pub use adversary::{AttackKind, LaunchedAttack};
pub use build::{build_vns, deploy_vns};
pub use change::{Applied, Change, ChangeError, MgmtChange};
pub use config::{RoutingMode, VnsConfig};
pub use economics::{analyze as analyze_economics, CostBreakdown, CostModel, Demand};
pub use fault::{FaultError, FaultEvent, FaultInjector, FaultPlan};
pub use lpfunc::LocalPrefFn;
pub use mgmt::{Override, Overrides};
pub use pops::{ClusterId, Pop, PopId, POP_COUNT};
pub use service::Vns;
