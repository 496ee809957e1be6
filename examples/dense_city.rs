//! Dense-city stress scenario: clustered placement, heavier traffic, and a
//! side-by-side with the MACs the paper set out to replace.
//!
//! ```sh
//! cargo run --release --example dense_city
//! ```
//!
//! Stations cluster into "buildings" (Gaussian clusters) instead of the
//! uniform disk of the analysis — the §6.1 claim under test is that power
//! control adapts to density variation and the scheme stays collision-free
//! where contention MACs shed packets.

use parn::baseline::{BaselineConfig, Contention, MacKind};
use parn::core::{DestPolicy, NetConfig, Network};
use parn::phys::placement::Placement;
use parn::phys::PowerW;
use parn::sim::Duration;

fn clustered() -> Placement {
    Placement::Clustered {
        clusters: 8,
        per_cluster: 12,
        sigma: 18.0,
        radius: 160.0,
    }
}

fn main() {
    let seed = 7;
    let rate = 6.0; // arrivals per station per second — busy

    println!("dense city: 8 clusters x 12 stations, {rate} pkt/s each\n");

    // The Shepard scheme, single-hop neighbour traffic for comparability.
    let mut cfg = NetConfig::paper_default(96, seed);
    cfg.placement = clustered();
    cfg.traffic.arrivals_per_station_per_sec = rate;
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.run_for = Duration::from_secs(15);
    cfg.warmup = Duration::from_secs(2);
    let shepard = Network::run(cfg.clone());

    // The contention MACs on the very same world.
    let mk = |mac: MacKind| Contention::run(&cfg, BaselineConfig::new(mac));
    let aloha = mk(MacKind::PureAloha);
    let slotted = mk(MacKind::SlottedAloha);
    let csma = mk(MacKind::Csma {
        sense_threshold: PowerW(1e-8),
    });
    let maca = mk(MacKind::Maca {
        ctrl_airtime: Duration::from_micros(250),
    });

    println!(
        "{:<14} {:>9} {:>10} {:>11} {:>12} {:>11}",
        "MAC", "delivered", "delivery%", "hop succ%", "collisions", "delay ms"
    );
    for (name, m) in [
        ("shepard", &shepard),
        ("pure aloha", &aloha),
        ("slotted aloha", &slotted),
        ("csma", &csma),
        ("maca", &maca),
    ] {
        println!(
            "{:<14} {:>9} {:>9.1}% {:>10.2}% {:>12} {:>11.1}",
            name,
            m.delivered,
            100.0 * m.delivery_rate(),
            100.0 * m.hop_success_rate(),
            m.collision_losses(),
            m.e2e_delay.mean() * 1e3,
        );
    }

    println!(
        "\nshepard collision losses: {} (the scheme's guarantee)",
        shepard.collision_losses()
    );
    assert_eq!(shepard.collision_losses(), 0);
}
