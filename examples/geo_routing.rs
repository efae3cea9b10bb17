//! Geo-based cold-potato routing in action, plus the management interface.
//!
//! ```sh
//! cargo run --release --example geo_routing
//! ```
//!
//! Builds the same Internet twice — once with default hot-potato BGP, once
//! with the geo route reflector — and shows, from London's perspective,
//! how egress selection changes for destinations around the world. Then
//! demonstrates the three management overrides of Sec 3.2: forcing an
//! exit, exempting a badly geolocated prefix, and injecting a NO_EXPORT
//! more-specific.

use vns::core::{build_vns, Change, FaultInjector, MgmtChange, PopId, RoutingMode, VnsConfig};
use vns::topo::{generate, TopoConfig};

fn main() {
    let topo = TopoConfig::default();
    let viewpoint = PopId(10); // London

    println!("Building the 'before' world (hot potato)...");
    let mut before_net = generate(&topo).expect("generate");
    let before = build_vns(&mut before_net, &VnsConfig::default().before()).expect("converge");

    println!("Building the 'after' world (geo cold potato)...");
    let mut after_net = generate(&topo).expect("generate");
    let mut after = build_vns(&mut after_net, &VnsConfig::default()).expect("converge");

    println!("\nEgress PoP from London for sample prefixes:");
    println!(
        "{:<18} {:<14} {:>10} {:>10}",
        "prefix", "located", "before", "after"
    );
    for p in after_net
        .prefixes()
        .filter(|p| p.last_mile)
        .step_by(23)
        .take(14)
    {
        let ip = p.prefix.first_host();
        let b = before
            .egress_pop(&before_net, viewpoint, ip)
            .map_or("-", |e| before.pop(e).code());
        let a = after
            .egress_pop(&after_net, viewpoint, ip)
            .map_or("-", |e| after.pop(e).code());
        println!(
            "{:<18} {:<14} {:>10} {:>10}",
            p.prefix.to_string(),
            vns::geo::city(p.city).name,
            b,
            a
        );
    }

    // Local-exit shares.
    let share = |vns: &vns::core::Vns, net: &vns::topo::Internet| {
        let mut local = 0;
        let mut total = 0;
        for p in net.prefixes().filter(|p| p.last_mile) {
            if let Some(e) = vns.egress_pop(net, viewpoint, p.prefix.first_host()) {
                total += 1;
                if e == viewpoint {
                    local += 1;
                }
            }
        }
        100.0 * local as f64 / total as f64
    };
    println!(
        "\nLondon exits locally for {:.0}% of routes before, {:.0}% after (paper: ~70% -> spread)",
        share(&before, &before_net),
        share(&after, &after_net)
    );

    // --- Management interface demo ---------------------------------------
    let victim = after_net
        .prefixes()
        .find(|p| p.last_mile && vns::geo::city(p.city).region == vns::geo::Region::Europe)
        .map(|p| p.prefix)
        .expect("a European prefix");
    let ip = victim.first_host();
    println!("\nManagement interface on {victim}:");
    let show = |vns: &vns::core::Vns, net: &vns::topo::Internet, label: &str| {
        let e = vns.egress_pop(net, viewpoint, ip).expect("egress resolves");
        println!("  {label}: exits at {}", vns.pop(e).code());
    };
    // Every management action is a `Change`, applied through the door
    // faults and attacks take too.
    let mut injector = FaultInjector::new();
    let mut mgmt = |vns: &mut vns::core::Vns, net: &mut vns::topo::Internet, action| {
        vns.apply(net, &mut injector, Change::Mgmt(action))
            .expect("reconverges");
    };
    show(&after, &after_net, "geo default     ");
    let force = MgmtChange::ForceExit {
        prefix: victim,
        pop: PopId(7),
    };
    mgmt(&mut after, &mut after_net, force);
    show(&after, &after_net, "forced to SIN   ");
    mgmt(&mut after, &mut after_net, MgmtChange::Exempt(victim));
    show(&after, &after_net, "exempted        ");
    mgmt(&mut after, &mut after_net, MgmtChange::Clear(victim));
    show(&after, &after_net, "cleared         ");

    // Steer one /18 of it via Hong Kong without leaking the route.
    let sub = victim.subnet(18, 2);
    let inject = MgmtChange::InjectMoreSpecific {
        prefix: sub,
        pop: PopId(8),
    };
    mgmt(&mut after, &mut after_net, inject);
    let e = after
        .egress_pop(&after_net, viewpoint, sub.first_host())
        .expect("egress resolves");
    println!(
        "  injected {} at HKG: that subnet now exits at {} (NO_EXPORT keeps it inside VNS)",
        sub,
        after.pop(e).code()
    );
    let _ = RoutingMode::HotPotato;
}
