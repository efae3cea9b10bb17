//! A message-level BGP implementation.
//!
//! The paper's routing contribution is a *modification* of BGP route
//! reflection: LOCAL_PREF rewritten from geographic distance (Sec 3.2). To
//! show that mechanism's behaviour — including the hidden-routes pathology
//! and its best-external fix — this crate implements the protocol machinery
//! it sits on:
//!
//! * [`Prefix`] and [`LpmMap`], the longest-prefix-match table under both
//!   a network's prefix ids (every Loc-RIB's longest match) and `vns-topo`'s
//!   prefix registry;
//! * [`PrefixId`], a network's dense name for a prefix, which readers hand
//!   out beside the prefix and accept in its place ([`PrefixKey`]), and
//!   [`Covering`], the network's prefixes containing one address, so a walk
//!   that asks many speakers about one address probes the table once;
//! * [`RouteAttrs`] — LOCAL_PREF, AS_PATH, ORIGIN, MED, communities
//!   (including `NO_EXPORT`), originator/cluster list;
//! * the full [`decision`] process in the order the paper lists it
//!   (Sec 3.2): local-pref ▸ AS-path length ▸ origin ▸ MED ▸ eBGP-over-iBGP
//!   ▸ IGP metric to next hop (hot potato) ▸ router id;
//! * [`policy`] — Gao–Rexford import preferences and export scoping used by
//!   the synthetic Internet, plus community filtering;
//! * [`speaker`] — per-router Adj-RIB-In / Loc-RIB / Adj-RIB-Out state, one
//!   slot per prefix, with route-reflector semantics (cluster list,
//!   originator id), *best external* advertisement, and an import
//!   preference table ([`ImportPrefs`]) through which `vns-core` injects the
//!   geo LOCAL_PREF rewrite;
//! * [`igp`] — weighted shortest paths inside an AS, driving the hot-potato
//!   tie-break;
//! * [`net`] — an activation-queue convergence engine over a set of
//!   speakers, deterministic and run-to-quiescence.
//!
//! One speaker models one router. The synthetic Internet runs one speaker
//! per AS (standard practice for interdomain studies); the VNS AS runs one
//! speaker per border router plus dedicated route reflectors, which is what
//! the paper's figures are about.

pub mod decision;
pub mod igp;
pub mod lpm;
pub mod net;
pub mod policy;
pub mod prefix;
mod prefix_ids;
pub mod route;
pub mod speaker;

pub use decision::{compare_routes, select_best, Candidate, DecisionContext};
pub use igp::IgpGraph;
pub use lpm::LpmMap;
pub use net::{
    BgpNet, ConvergenceError, ConvergenceStats, PathError, RibCensus, SpeakerId, WorkCounters,
    DEFAULT_HOP_LIMIT,
};
pub use policy::{may_export, Policy, Relation};
pub use prefix::Prefix;
pub use prefix_ids::{Covering, PrefixId, PrefixKey};
pub use route::{AsPath, Asn, Community, Origin, RouteAttrs, RouteSource, DEFAULT_LOCAL_PREF};
pub use speaker::{ImportPrefs, Message, PeerConfig, PeerKind, Speaker};
