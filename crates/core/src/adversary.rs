//! Scripted hostile control-plane input: the attack library behind the
//! `adversarial` campaign.
//!
//! The paper's design trusts geography-derived signals — GeoIP locations
//! and the geo-cold-potato LOCAL_PREF they produce — plus the ordinary BGP
//! ecosystem around the VNS. Production control planes also ingest hostile
//! input: prefix hijacks, more-specific interceptions, valley-violating
//! route leaks, poisoned geolocation feeds, flap storms and byzantine
//! routers. This module scripts each of those as a deterministic mutation
//! of a converged world, layered on the fault machinery
//! ([`crate::fault`]) and the [`vns_geo::GeoIpErrorModel`] poisoning
//! variants. An attack is a [`crate::Change::Attack`]: [`Vns::apply`]
//! stages it, reconverges, and runs the flap storm's cut/restore steps
//! through the caller's injector, one reconvergence each.
//!
//! Each [`AttackKind`] names the invariant(s) the two-stage verifier is
//! *expected* to raise ([`AttackKind::expected_invariants`], as
//! `vns_verify::Invariant::code()` strings — `vns-core` deliberately does
//! not depend on `vns-verify`). The bench campaign applies every attack
//! to a fork of the converged world, measures data-plane damage and
//! records which invariants actually fired — the detection matrix with
//! its measured catch rate.

use vns_bgp::{PeerConfig, PeerKind, Policy, Prefix, Relation, Speaker, SpeakerId};
use vns_geo::cities::city_by_name;
use vns_geo::{city, CityId, GeoIpErrorModel, Region};
use vns_topo::{AsId, AsInfo, AsType, Internet};

use crate::change::ChangeError;
use crate::config::RoutingMode;
use crate::fault::{FaultEvent, FaultPlan};
use crate::service::Vns;

/// Where the synthetic malicious AS homes: far from the EU/NA client mass
/// so hijacked traffic visibly detours and interception skews anycast
/// landings past the tail-fraction bound.
pub const ATTACKER_HOME: &str = "Sydney";

/// PoPs whose primary upstream sessions the default flap storm batters.
pub const FLAP_STORM_POPS: [&str; 3] = ["AMS", "SJS", "SIN"];

/// Cut/restore cycles per flapped session in the storm (burst rate =
/// sessions × cycles events).
pub const FLAP_STORM_CYCLES: usize = 3;

/// One scripted attack from the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackKind {
    /// A malicious stub AS originates the exact VNS anycast /16 into its
    /// transit provider. ASes that prefer the forged route forward media
    /// to a router with no covering route — a blackhole.
    AnycastExactHijack,
    /// The stub announces a more-specific /20 inside the anycast /16 and
    /// forges a registry entry claiming ownership. Longest-match steers
    /// every client to the attacker, which terminates the intercepted
    /// flows itself — anycast landings collapse onto one rogue site.
    AnycastInterception,
    /// The stub originates an existing external last-mile /16 (a classic
    /// full-prefix hijack of someone else's eyeball space).
    LastMileHijack,
    /// A multihomed stub leaks provider-learned routes across a peering
    /// session it misdeclares as a customer link — the Gao–Rexford valley.
    RouteLeak,
    /// The GeoIP feed itself is poisoned (every Europe-registered prefix
    /// relocated to Asia-Pacific) but no route refresh happens: converged
    /// RIB preferences no longer match the current database.
    GeoPoisonDb,
    /// The reflectors *ingest* a region-swapped GeoIP snapshot and refresh
    /// all routes: the control plane reconverges on poisoned geography
    /// while ground truth is unchanged.
    GeoPoisonIngested,
    /// The reflectors ingest a snapshot in which every reported location
    /// was dragged most of the way to the attacker's home — the gradual
    /// adversarial-shift variant of feed poisoning.
    GeoShiftIngested,
    /// eBGP flap storm: primary upstream sessions of several PoPs cut and
    /// restored in bursts. Ends fully restored — the converged-state
    /// verifier is expected to stay silent (a documented blind spot).
    FlapStorm,
    /// Two byzantine borders in one PoP silently rewrite their selected
    /// route for a victim prefix to point at each other: a forged
    /// forwarding cycle.
    ByzantineLoop,
    /// A byzantine egress border silently drops its selected route while
    /// the rest of the AS keeps forwarding through it.
    ByzantineBlackhole,
}

impl AttackKind {
    /// The whole scripted corpus, in campaign order.
    pub const ALL: [AttackKind; 10] = [
        AttackKind::AnycastExactHijack,
        AttackKind::AnycastInterception,
        AttackKind::LastMileHijack,
        AttackKind::RouteLeak,
        AttackKind::GeoPoisonDb,
        AttackKind::GeoPoisonIngested,
        AttackKind::GeoShiftIngested,
        AttackKind::FlapStorm,
        AttackKind::ByzantineLoop,
        AttackKind::ByzantineBlackhole,
    ];

    /// Stable label (artefact key and RNG stream name).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::AnycastExactHijack => "anycast-exact-hijack",
            AttackKind::AnycastInterception => "anycast-interception",
            AttackKind::LastMileHijack => "lastmile-hijack",
            AttackKind::RouteLeak => "route-leak",
            AttackKind::GeoPoisonDb => "geoip-poison-db",
            AttackKind::GeoPoisonIngested => "geoip-poison-ingested",
            AttackKind::GeoShiftIngested => "geoip-shift-ingested",
            AttackKind::FlapStorm => "ebgp-flap-storm",
            AttackKind::ByzantineLoop => "byzantine-loop",
            AttackKind::ByzantineBlackhole => "byzantine-blackhole",
        }
    }

    /// `vns_verify::Invariant::code()` strings the verifier is expected to
    /// raise for this attack on a geo-mode world. Empty for attacks the
    /// converged-state verifier cannot see (the flap storm ends restored).
    pub fn expected_invariants(self) -> &'static [&'static str] {
        match self {
            AttackKind::AnycastExactHijack
            | AttackKind::LastMileHijack
            | AttackKind::ByzantineBlackhole => &["NO-BLACKHOLE"],
            AttackKind::AnycastInterception => &["ANYCAST-NEAREST"],
            AttackKind::RouteLeak => &["VALLEY-FREE"],
            AttackKind::GeoPoisonDb
            | AttackKind::GeoPoisonIngested
            | AttackKind::GeoShiftIngested => &["GEO-PREF"],
            AttackKind::FlapStorm => &[],
            AttackKind::ByzantineLoop => &["LOOP-FREE"],
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a launched attack did to the world (control-plane accounting; the
/// campaign adds data-plane damage and verifier findings).
#[derive(Debug, Clone)]
pub struct LaunchedAttack {
    /// Which attack ran.
    pub kind: AttackKind,
    /// Human-readable account of the concrete staging (victim, attacker,
    /// sessions touched).
    pub detail: String,
    /// The hijacked / corrupted prefix, when the attack has one.
    pub victim_prefix: Option<Prefix>,
    /// The synthetic malicious speaker, when one was spawned.
    pub attacker: Option<SpeakerId>,
    /// Discrete adversarial actions applied (originations, session events,
    /// corruptions, poisonings).
    pub events: usize,
}

/// Stages one attack against a converged world without reconverging, for
/// [`Vns::apply`]. Returns what was staged and the fault events to apply
/// after it, one reconvergence each: the flap storm's cut/restore steps,
/// none for any other attack.
pub(crate) fn stage(
    kind: AttackKind,
    internet: &mut Internet,
    vns: &mut Vns,
    seed: u64,
) -> Result<(LaunchedAttack, Vec<FaultEvent>), ChangeError> {
    let launched = match kind {
        AttackKind::AnycastExactHijack => anycast_exact_hijack(internet, vns),
        AttackKind::AnycastInterception => anycast_interception(internet, vns),
        AttackKind::LastMileHijack => lastmile_hijack(internet, vns),
        AttackKind::RouteLeak => route_leak(internet, vns),
        AttackKind::GeoPoisonDb => Ok(geo_poison_db(internet, vns, seed)),
        AttackKind::GeoPoisonIngested => Ok(geo_poison_ingested(internet, vns, seed)),
        AttackKind::GeoShiftIngested => geo_shift_ingested(internet, vns),
        AttackKind::FlapStorm => return flap_storm(internet, vns),
        AttackKind::ByzantineLoop => byzantine_loop(internet, vns),
        AttackKind::ByzantineBlackhole => byzantine_blackhole(internet, vns),
    }?;
    Ok((launched, Vec::new()))
}

/// The city of [`ATTACKER_HOME`].
fn attacker_home() -> Result<CityId, ChangeError> {
    city_by_name(ATTACKER_HOME)
        .map(|(id, _)| id)
        .ok_or(ChangeError::NoTarget("attacker home city unknown"))
}

/// Registers a synthetic malicious stub AS homed at [`ATTACKER_HOME`] as a
/// customer of the VNS's most-preferred upstream, with a full initial
/// table transfer scheduled (the attacker needs covering routes to forward
/// intercepted traffic onward). Returns `(asn, speaker)`; the caller runs
/// the net.
pub fn spawn_malicious_as(
    internet: &mut Internet,
    vns: &Vns,
) -> Result<(vns_bgp::Asn, SpeakerId), ChangeError> {
    let home = attacker_home()?;
    let provider_as: AsId = *vns
        .upstreams()
        .first()
        .ok_or(ChangeError::NoTarget("VNS has no upstream providers"))?;
    let provider_sp = internet
        .router_of(provider_as, home)
        .ok_or(ChangeError::NoTarget("upstream provider has no routers"))?;
    let provider_city = internet.city_of_router(provider_sp).unwrap_or(home);

    let asn = internet.alloc_asn();
    let sp_id = internet.alloc_speaker_id();
    let mut sp = Speaker::new(sp_id, asn);
    sp.set_best_external(false);
    internet.net.add_speaker(sp);
    internet.add_as(AsInfo {
        id: internet.next_as_id(),
        asn,
        ty: AsType::Ec,
        region: city(home).region,
        home_city: home,
        presence: vec![home],
        speaker: Some(sp_id),
        routers: vec![(home, sp_id)],
        dedicated: false,
        igp: None,
    });
    internet
        .net
        .connect_ebgp(sp_id, provider_sp, Relation::Provider, Policy::GaoRexford);
    internet.record_link(sp_id, home, provider_sp, provider_city);
    let km = Internet::city_km(home, provider_city) as u64;
    if let Some(s) = internet.net.speaker_mut(sp_id) {
        s.set_session_cost(provider_sp, km);
        s.schedule_initial_advertisement();
    }
    if let Some(s) = internet.net.speaker_mut(provider_sp) {
        s.set_session_cost(sp_id, km);
        s.schedule_initial_advertisement();
    }
    Ok((asn, sp_id))
}

fn anycast_exact_hijack(internet: &mut Internet, vns: &Vns) -> Result<LaunchedAttack, ChangeError> {
    let (asn, attacker) = spawn_malicious_as(internet, vns)?;
    let pfx = vns.anycast_prefix();
    internet.net.originate(attacker, pfx);
    Ok(LaunchedAttack {
        kind: AttackKind::AnycastExactHijack,
        detail: format!(
            "AS{} at {ATTACKER_HOME} originates the exact VNS anycast {pfx} \
             into its transit provider",
            asn.0
        ),
        victim_prefix: Some(pfx),
        attacker: Some(attacker),
        events: 1,
    })
}

fn anycast_interception(internet: &mut Internet, vns: &Vns) -> Result<LaunchedAttack, ChangeError> {
    let (asn, attacker) = spawn_malicious_as(internet, vns)?;
    let base = vns.anycast_prefix();
    // Sub-prefix interception with registry cover: the attacker announces
    // a more-specific of the anycast block *and* forges a registry entry
    // claiming ownership, so intercepted flows terminate at its own
    // infrastructure instead of blackholing. The forged entry shadows the
    // anycast /16's representative host out of the forwarding analysis —
    // which is precisely what ANYCAST-NEAREST flags.
    let more = Prefix::new(base.addr(), 20);
    let as_id = internet
        .as_of_speaker(attacker)
        .ok_or(ChangeError::NoTarget("attacker AS not registered"))?;
    let home = internet.as_info(as_id).home_city;
    let location = city(home).location;
    let country = city(home).country.to_string();
    internet.add_prefix(
        vns_topo::PrefixInfo {
            prefix: more,
            origin: as_id,
            city: home,
            location,
            last_mile: false,
            anycast: false,
        },
        &country,
        location,
    );
    internet.net.originate(attacker, more);
    Ok(LaunchedAttack {
        kind: AttackKind::AnycastInterception,
        detail: format!(
            "AS{} at {ATTACKER_HOME} announces {more}, a forged-registry \
             more-specific of the VNS anycast {base}, terminating \
             intercepted flows at its own infrastructure",
            asn.0
        ),
        victim_prefix: Some(more),
        attacker: Some(attacker),
        events: 1,
    })
}

fn lastmile_hijack(internet: &mut Internet, vns: &Vns) -> Result<LaunchedAttack, ChangeError> {
    let victim = internet
        .prefixes()
        .find(|p| p.last_mile && p.origin != vns.as_id())
        .map(|p| p.prefix)
        .ok_or(ChangeError::NoTarget("no external last-mile prefix"))?;
    let (asn, attacker) = spawn_malicious_as(internet, vns)?;
    internet.net.originate(attacker, victim);
    Ok(LaunchedAttack {
        kind: AttackKind::LastMileHijack,
        detail: format!(
            "AS{} at {ATTACKER_HOME} originates {victim}, an external \
             eyeball prefix it does not own",
            asn.0
        ),
        victim_prefix: Some(victim),
        attacker: Some(attacker),
        events: 1,
    })
}

fn route_leak(internet: &mut Internet, vns: &Vns) -> Result<LaunchedAttack, ChangeError> {
    let (asn, attacker) = spawn_malicious_as(internet, vns)?;
    // Second leg: a session with one of the VNS's IXP peers that the peer
    // declares as settlement-free peering but the stub misdeclares as a
    // customer link. The stub's export filter then happily floods its
    // provider-learned table across — the Gao–Rexford valley. Because the
    // peer only advertises its customer cone back, the stub's best routes
    // for the rest of the table stay provider-learned, so the leak is
    // substantive, not an echo.
    let peer_as: AsId = *vns
        .peers()
        .first()
        .ok_or(ChangeError::NoTarget("VNS has no IXP peers to leak across"))?;
    let home = attacker_home()?;
    let peer_sp = internet
        .router_of(peer_as, home)
        .ok_or(ChangeError::NoTarget("peer AS has no routers"))?;
    let peer_city = internet.city_of_router(peer_sp).unwrap_or(home);
    let peer_asn = internet.as_info(peer_as).asn;
    internet.net.connect(
        attacker,
        PeerConfig {
            kind: PeerKind::Ebgp {
                peer_as: peer_asn,
                relation: Relation::Customer,
            },
            import: Policy::GaoRexford,
        },
        peer_sp,
        PeerConfig {
            kind: PeerKind::Ebgp {
                peer_as: asn,
                relation: Relation::Peer,
            },
            import: Policy::GaoRexford,
        },
    );
    internet.record_link(attacker, home, peer_sp, peer_city);
    for id in [attacker, peer_sp] {
        if let Some(s) = internet.net.speaker_mut(id) {
            s.schedule_initial_advertisement();
        }
    }
    Ok(LaunchedAttack {
        kind: AttackKind::RouteLeak,
        detail: format!(
            "multihomed stub AS{} leaks its provider-learned table to \
             AS{} across a peering session misdeclared as customer",
            asn.0, peer_asn.0
        ),
        victim_prefix: None,
        attacker: Some(attacker),
        events: 2,
    })
}

/// The region-swap poisoning every GeoIP attack uses: prefixes registered
/// in Europe get relocated to random Asia-Pacific cities.
fn region_swap() -> GeoIpErrorModel {
    GeoIpErrorModel::RegionSwap {
        from: Region::Europe,
        to: Region::AsiaPacific,
    }
}

fn geo_poison_db(internet: &mut Internet, vns: &Vns, seed: u64) -> LaunchedAttack {
    internet.geoip.apply_error_model(&region_swap(), seed);
    let detail = if vns.mode() == RoutingMode::GeoColdPotato {
        "live GeoIP database region-swapped (Europe → Asia-Pacific) with no \
         route refresh: converged preferences are stale against the feed"
            .to_string()
    } else {
        "live GeoIP database region-swapped, but hot-potato routing never \
         consults it — the poison is inert"
            .to_string()
    };
    LaunchedAttack {
        kind: AttackKind::GeoPoisonDb,
        detail,
        victim_prefix: None,
        attacker: None,
        events: 1,
    }
}

/// What an ingest attack stages on a hot-potato deployment: nothing.
fn nothing_to_poison(kind: AttackKind) -> LaunchedAttack {
    LaunchedAttack {
        kind,
        detail: "hot-potato deployment installs no geo hook; there is \
                 nothing to poison"
            .to_string(),
        victim_prefix: None,
        attacker: None,
        events: 0,
    }
}

fn geo_poison_ingested(internet: &mut Internet, vns: &mut Vns, seed: u64) -> LaunchedAttack {
    if vns.mode() != RoutingMode::GeoColdPotato {
        return nothing_to_poison(AttackKind::GeoPoisonIngested);
    }
    let mut poisoned = internet.geoip.clone();
    poisoned.apply_error_model(&region_swap(), seed);
    // The reflectors score with the snapshot from now on, and every border
    // session is refreshed onto the poisoned geography.
    vns.reflector_geoip = poisoned;
    let events = vns.refresh_imports(internet);
    LaunchedAttack {
        kind: AttackKind::GeoPoisonIngested,
        detail: "reflectors ingested a region-swapped GeoIP snapshot \
                 (Europe → Asia-Pacific) and refreshed every border: RIB \
                 preferences now disagree with the clean database"
            .to_string(),
        victim_prefix: None,
        attacker: None,
        events,
    }
}

fn geo_shift_ingested(
    internet: &mut Internet,
    vns: &mut Vns,
) -> Result<LaunchedAttack, ChangeError> {
    if vns.mode() != RoutingMode::GeoColdPotato {
        return Ok(nothing_to_poison(AttackKind::GeoShiftIngested));
    }
    let target = city(attacker_home()?).location;
    let mut poisoned = internet.geoip.clone();
    poisoned.apply_error_model(
        &GeoIpErrorModel::AdversarialShift {
            target,
            weight: 0.85,
        },
        0, // the shift is deterministic; the seed is unused entropy
    );
    vns.reflector_geoip = poisoned;
    let events = vns.refresh_imports(internet);
    Ok(LaunchedAttack {
        kind: AttackKind::GeoShiftIngested,
        detail: format!(
            "reflectors ingested a snapshot with every reported location \
             dragged 85% of the way to {ATTACKER_HOME} and refreshed every \
             border"
        ),
        victim_prefix: None,
        attacker: None,
        events,
    })
}

/// eBGP flap storm: at each of [`FLAP_STORM_POPS`], the primary upstream
/// session of border 0 is cut and restored [`FLAP_STORM_CYCLES`] times.
/// Stages nothing itself; the cut/restore steps are its follow-on events,
/// so it ends fully restored.
fn flap_storm(
    internet: &Internet,
    vns: &Vns,
) -> Result<(LaunchedAttack, Vec<FaultEvent>), ChangeError> {
    let mut steps = Vec::new();
    for code in FLAP_STORM_POPS {
        let pop = vns
            .pop_by_code(code)
            .ok_or(ChangeError::NoTarget("unknown PoP code in flap storm"))?;
        let border = pop.borders[0];
        let (up_as, entry_city) = vns.primary_upstream(pop.id());
        let upstream = internet
            .router_of(up_as, entry_city)
            .ok_or(ChangeError::NoTarget("primary upstream has no routers"))?;
        let flap = FaultPlan::session_flap(code, border, upstream, FLAP_STORM_CYCLES);
        steps.extend(flap.steps);
    }
    let launched = LaunchedAttack {
        kind: AttackKind::FlapStorm,
        detail: format!(
            "primary upstream sessions at {} flapped {FLAP_STORM_CYCLES}× each \
             ({} events), all restored",
            FLAP_STORM_POPS.join("/"),
            steps.len()
        ),
        victim_prefix: None,
        attacker: None,
        events: steps.len(),
    };
    Ok((launched, steps))
}

/// First external last-mile prefix for which `want` holds.
fn pick_external_lastmile(
    internet: &Internet,
    vns: &Vns,
    mut want: impl FnMut(&Internet, Prefix) -> bool,
) -> Option<Prefix> {
    internet
        .prefixes()
        .filter(|p| p.last_mile && p.origin != vns.as_id())
        .map(|p| p.prefix)
        .find(|&p| want(internet, p))
}

fn byzantine_loop(internet: &mut Internet, vns: &Vns) -> Result<LaunchedAttack, ChangeError> {
    let pop = vns
        .pop_by_code("AMS")
        .ok_or(ChangeError::NoTarget("AMS PoP missing"))?;
    let [b0, b1] = pop.borders;
    let victim = pick_external_lastmile(internet, vns, |net, p| {
        net.net.speaker(b0).and_then(|s| s.best(&p)).is_some()
            && net.net.speaker(b1).and_then(|s| s.best(&p)).is_some()
    })
    .ok_or(ChangeError::NoTarget(
        "no external last-mile prefix routed at both AMS borders",
    ))?;
    for (at, to) in [(b0, b1), (b1, b0)] {
        let ok = internet
            .net
            .speaker_mut(at)
            .is_some_and(|s| s.corrupt_redirect_ibgp(&victim, to));
        if !ok {
            return Err(ChangeError::NoTarget("loop corruption site unusable"));
        }
    }
    Ok(LaunchedAttack {
        kind: AttackKind::ByzantineLoop,
        detail: format!(
            "AMS borders {b0} and {b1} silently rewrote their selected \
             route for {victim} to point at each other"
        ),
        victim_prefix: Some(victim),
        attacker: Some(b0),
        events: 2,
    })
}

fn byzantine_blackhole(internet: &mut Internet, vns: &Vns) -> Result<LaunchedAttack, ChangeError> {
    let rr0 = vns.reflectors()[0];
    // Victim: a prefix the reflector routes via some egress border — that
    // border is downstream of every other VNS router for this prefix, so
    // dropping its route blackholes the AS interior.
    let mut egress = None;
    let victim = pick_external_lastmile(internet, vns, |net, p| {
        match net.net.speaker(rr0).and_then(|s| s.best(&p)) {
            Some(cand) => {
                egress = Some(cand.attrs.next_hop);
                true
            }
            None => false,
        }
    })
    .ok_or(ChangeError::NoTarget(
        "no external last-mile prefix routed at the reflector",
    ))?;
    let egress = egress.ok_or(ChangeError::NoTarget("reflector best has no next hop"))?;
    let ok = internet
        .net
        .speaker_mut(egress)
        .is_some_and(|s| s.corrupt_drop_route(&victim));
    if !ok {
        return Err(ChangeError::NoTarget(
            "egress border holds no route to drop",
        ));
    }
    Ok(LaunchedAttack {
        kind: AttackKind::ByzantineBlackhole,
        detail: format!(
            "egress border {egress} silently dropped its selected route \
             for {victim} while the AS keeps forwarding through it"
        ),
        victim_prefix: Some(victim),
        attacker: Some(egress),
        events: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vns_bgp::RouteSource;
    use vns_topo::{generate, TopoConfig};

    use crate::build::build_vns;
    use crate::change::{Applied, Change};
    use crate::config::VnsConfig;
    use crate::fault::FaultInjector;

    fn tiny_world(seed: u64) -> (Internet, Vns) {
        let mut internet = generate(&TopoConfig::tiny(seed)).unwrap();
        let vns = build_vns(&mut internet, &VnsConfig::default()).unwrap();
        (internet, vns)
    }

    /// Applies `kind` through [`Vns::apply`] with a fresh injector.
    fn launch(kind: AttackKind, internet: &mut Internet, vns: &mut Vns, seed: u64) -> Applied {
        let change = Change::Attack { kind, seed };
        vns.apply(internet, &mut FaultInjector::new(), change)
            .unwrap()
    }

    #[test]
    fn corpus_is_complete_and_uniquely_named() {
        let names: std::collections::BTreeSet<_> =
            AttackKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), AttackKind::ALL.len());
        // Expected invariants stay within the verifier's published codes.
        let known = [
            "VALLEY-FREE",
            "HIDDEN-ROUTE",
            "GEO-PREF",
            "LOOP-FREE",
            "NO-BLACKHOLE",
            "ANYCAST-NEAREST",
        ];
        for kind in AttackKind::ALL {
            for code in kind.expected_invariants() {
                assert!(known.contains(code), "{kind}: unknown invariant {code}");
            }
        }
        // Every invariant named by the issue is expected by some attack.
        for code in ["VALLEY-FREE", "GEO-PREF", "LOOP-FREE", "NO-BLACKHOLE"] {
            assert!(
                AttackKind::ALL
                    .iter()
                    .any(|k| k.expected_invariants().contains(&code)),
                "no attack expects {code}"
            );
        }
    }

    #[test]
    fn exact_hijack_converges_with_forged_origin() {
        let (mut internet, mut vns) = tiny_world(7);
        let applied = launch(AttackKind::AnycastExactHijack, &mut internet, &mut vns, 7);
        let attacker = applied.attack.unwrap().attacker.unwrap();
        let best = internet
            .net
            .speaker(attacker)
            .unwrap()
            .best(&vns.anycast_prefix())
            .unwrap();
        assert!(matches!(best.source, RouteSource::Local));
        // The forged origin must have propagated beyond the attacker.
        assert!(applied.stats.messages > 0);
    }

    #[test]
    fn interception_keeps_a_covering_route() {
        let (mut internet, mut vns) = tiny_world(8);
        let hit = launch(AttackKind::AnycastInterception, &mut internet, &mut vns, 8)
            .attack
            .unwrap();
        let attacker = hit.attacker.unwrap();
        let sp = internet.net.speaker(attacker).unwrap();
        // The /20 is locally originated; the covering /16 was learned from
        // the provider, so intercepted traffic can flow onward.
        assert!(matches!(
            sp.best(&hit.victim_prefix.unwrap()).unwrap().source,
            RouteSource::Local
        ));
        assert!(matches!(
            sp.best(&vns.anycast_prefix()).unwrap().source,
            RouteSource::Ebgp { .. }
        ));
    }

    #[test]
    fn route_leak_plants_a_valley() {
        let (mut internet, mut vns) = tiny_world(9);
        if vns.peers().is_empty() {
            return; // tiny worlds may lack IXP peers; campaign worlds don't
        }
        let hit = launch(AttackKind::RouteLeak, &mut internet, &mut vns, 9)
            .attack
            .unwrap();
        let attacker = hit.attacker.unwrap();
        // Some prefix in the peer's Adj-RIB-In from the attacker must be
        // provider-learned at the attacker — the valley the verifier flags.
        let valley = internet.net.speaker_ids().any(|id| {
            let Some(sp) = internet.net.speaker(id) else {
                return false;
            };
            sp.adj_rib_in_entries().any(|(prefix, _, from, _)| {
                from == attacker
                    && internet
                        .net
                        .speaker(attacker)
                        .and_then(|a| a.best(&prefix))
                        .is_some_and(|b| {
                            matches!(
                                b.source,
                                RouteSource::Ebgp {
                                    relation: Relation::Provider,
                                    ..
                                }
                            )
                        })
            })
        });
        assert!(valley, "leak left no provider-learned route at a peer");
    }

    #[test]
    fn flap_storm_ends_restored_and_quiescent() {
        let (mut internet, mut vns) = tiny_world(10);
        let mut inj = FaultInjector::new();
        let change = Change::Attack {
            kind: AttackKind::FlapStorm,
            seed: 10,
        };
        let applied = vns.apply(&mut internet, &mut inj, change).unwrap();
        let hit = applied.attack.unwrap();
        assert_eq!(hit.events, FLAP_STORM_POPS.len() * FLAP_STORM_CYCLES * 2);
        assert!(applied.stats.messages > 0);
        assert!(inj.fully_restored());
        assert!(internet.net.is_quiescent());
    }

    #[test]
    fn ingested_poison_changes_reflector_preferences() {
        let (mut internet, mut vns) = tiny_world(11);
        // Snapshot reflector Adj-RIB-In preferences before the attack.
        let rr = vns.reflectors()[0];
        let before: Vec<u32> = internet
            .net
            .speaker(rr)
            .unwrap()
            .adj_rib_in_entries()
            .map(|(.., c)| c.attrs.local_pref)
            .collect();
        launch(AttackKind::GeoPoisonIngested, &mut internet, &mut vns, 11);
        let after: Vec<u32> = internet
            .net
            .speaker(rr)
            .unwrap()
            .adj_rib_in_entries()
            .map(|(.., c)| c.attrs.local_pref)
            .collect();
        assert_ne!(before, after, "poisoned ingest left every pref unchanged");
        // Ground truth (the registry's own database) was not touched.
        let clean = tiny_world(11).0;
        assert_eq!(clean.geoip.len(), internet.geoip.len());
    }

    #[test]
    fn byzantine_corruptions_survive_reconvergence() {
        let (mut internet, mut vns) = tiny_world(12);
        let hit = launch(AttackKind::ByzantineLoop, &mut internet, &mut vns, 12)
            .attack
            .unwrap();
        let victim = hit.victim_prefix.unwrap();
        let pop = vns.pop_by_code("AMS").unwrap();
        let [b0, b1] = pop.borders;
        let nh0 = internet.net.speaker(b0).unwrap().best(&victim).unwrap();
        let nh1 = internet.net.speaker(b1).unwrap().best(&victim).unwrap();
        assert_eq!(nh0.attrs.next_hop, b1);
        assert_eq!(nh1.attrs.next_hop, b0);

        let (mut internet, mut vns) = tiny_world(13);
        let hit = launch(AttackKind::ByzantineBlackhole, &mut internet, &mut vns, 13)
            .attack
            .unwrap();
        let victim = hit.victim_prefix.unwrap();
        let egress = hit.attacker.unwrap();
        assert!(internet
            .net
            .speaker(egress)
            .unwrap()
            .best(&victim)
            .is_none());
    }
}
