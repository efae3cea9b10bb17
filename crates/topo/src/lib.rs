//! Synthetic Internet topology: the substrate the paper's production
//! deployment ran on top of.
//!
//! The paper measures VNS against "the Internet": Tier-1 transit providers,
//! regional ISPs, content/access networks and enterprises, interconnected by
//! transit contracts and IXP peering, with prefixes scattered over the
//! globe. This crate generates a scaled-down but structurally faithful
//! replica:
//!
//! * ASes of the four Dhamdhere–Dovrolis classes the paper's last-mile
//!   study uses ([`AsType`]: LTP, STP, CAHP, EC), each with geographic
//!   presence in real cities;
//! * valley-free transit/peering links bound to interconnection cities,
//!   with hot-potato exit modelling at both the routing and data planes;
//! * prefixes with ground-truth locations and a GeoIP view that can carry
//!   the error patterns the paper documents;
//! * per-link loss/delay profiles: regional congestion with diurnal
//!   shapes, bursty convergence blackouts, and last-mile profiles per
//!   (AS type, region) — the knobs behind Figs 9–12 and Table 1;
//! * data-plane path resolution ([`path`]) that expands a BGP forwarding
//!   decision into concrete hops, and a [`channels`] factory that turns a
//!   resolved path into a `vns-netsim` `PathChannel` probes and media
//!   streams can use.
//!
//! `vns-core` plugs the VNS overlay into this Internet: it registers its
//! border routers, dedicated L2 links and IGP with the same [`Internet`]
//! structure, so one resolver handles paths that traverse both worlds.

pub mod astype;
pub mod channels;
pub mod config;
pub mod gen;
pub mod internet;
pub mod path;

pub use astype::AsType;
pub use channels::{CalibrationConfig, ChannelFactory};
pub use config::TopoConfig;
pub use gen::{generate, wire};
pub use internet::{AsId, AsInfo, Internet, PrefixInfo};
pub use path::{HopKind, HopLabel, ResolvedHop, ResolvedPath};
