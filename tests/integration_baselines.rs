//! Integration tests contrasting the scheme with the baseline MACs over
//! identical physics (experiment E3's acceptance criteria).

use parn::baseline::{BaselineConfig, Contention, MacKind};
use parn::core::{DestPolicy, FaultPlan, Metrics, NetConfig, Network, PhyBackend};
use parn::phys::PowerW;
use parn::sim::Duration;

const N: usize = 40;
const SEED: u64 = 11;

/// The one scenario both the scheme and every baseline run on.
fn scenario(rate: f64) -> NetConfig {
    let mut c = NetConfig::paper_default(N, SEED);
    c.traffic.arrivals_per_station_per_sec = rate;
    c.traffic.dest = DestPolicy::Neighbors;
    c.run_for = Duration::from_secs(8);
    c.warmup = Duration::from_secs(1);
    c
}

fn baseline(mac: MacKind, rate: f64) -> Metrics {
    Contention::run(&scenario(rate), BaselineConfig::new(mac))
}

fn scheme(rate: f64) -> Metrics {
    Network::run(scenario(rate))
}

#[test]
fn scheme_beats_aloha_on_loss_at_heavy_load() {
    let rate = 30.0;
    let s = scheme(rate);
    let a = baseline(MacKind::PureAloha, rate);
    assert_eq!(s.collision_losses(), 0);
    assert!(a.collision_losses() > 0, "{}", a.summary());
    assert!(s.hop_success_rate() > a.hop_success_rate());
}

#[test]
fn slotted_aloha_sits_between_pure_and_scheme() {
    let rate = 30.0;
    let pure = baseline(MacKind::PureAloha, rate);
    let slotted = baseline(MacKind::SlottedAloha, rate);
    assert!(slotted.hop_success_rate() >= pure.hop_success_rate());
    assert!(slotted.collision_losses() > 0);
}

#[test]
fn aloha_collisions_grow_with_load() {
    let low = baseline(MacKind::PureAloha, 2.0);
    let high = baseline(MacKind::PureAloha, 30.0);
    assert!(high.collision_losses() > low.collision_losses());
}

#[test]
fn csma_trades_collisions_for_delay() {
    let rate = 20.0;
    let aggressive = baseline(
        MacKind::Csma {
            sense_threshold: PowerW(1e-3), // barely ever defers
        },
        rate,
    );
    let cautious = baseline(
        MacKind::Csma {
            sense_threshold: PowerW(1e-10), // defers at a whisper
        },
        rate,
    );
    assert!(
        cautious.collision_losses() <= aggressive.collision_losses(),
        "cautious {} vs aggressive {}",
        cautious.collision_losses(),
        aggressive.collision_losses()
    );
    assert!(
        cautious.e2e_delay.mean() > aggressive.e2e_delay.mean(),
        "deferral should cost delay"
    );
}

#[test]
fn maca_control_overhead_is_visible() {
    let rate = 3.0;
    let m = baseline(
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        },
        rate,
    );
    let s = scheme(rate);
    assert!(m.delivered > 0 && s.delivered > 0);
    // Air time per delivered packet: MACA pays RTS+CTS on top of data.
    let maca_air = m.tx_airtime.iter().sum::<f64>() / m.delivered as f64;
    let scheme_air = s.tx_airtime.iter().sum::<f64>() / s.delivered as f64;
    assert!(
        maca_air > scheme_air * 1.1,
        "maca {maca_air} vs scheme {scheme_air}"
    );
}

#[test]
fn all_macs_deliver_at_light_load() {
    let rate = 0.5;
    let s = scheme(rate);
    let a = baseline(MacKind::PureAloha, rate);
    let c = baseline(
        MacKind::Csma {
            sense_threshold: PowerW(1e-8),
        },
        rate,
    );
    let m = baseline(
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        },
        rate,
    );
    for (name, x) in [("scheme", &s), ("aloha", &a), ("csma", &c), ("maca", &m)] {
        assert!(
            x.delivery_rate() > 0.8,
            "{name} delivered only {:.1}%",
            100.0 * x.delivery_rate()
        );
    }
}

#[test]
fn identical_physics_across_macs() {
    // The comparison is honest only if every MAC, the scheme included,
    // sees the same world: the gains built from the shared config must be
    // identical for every pair, on the dense matrix and the spatial index.
    for backend in [PhyBackend::Dense, PhyBackend::Grid { far_field: None }] {
        let mut cfg = scenario(1.0);
        cfg.phy_backend = backend;
        let scheme = Network::new(cfg.clone());
        let aloha = Contention::new(&cfg, BaselineConfig::new(MacKind::PureAloha));
        let csma = Contention::new(
            &cfg,
            BaselineConfig::new(MacKind::Csma {
                sense_threshold: PowerW(1e-8),
            }),
        );
        for i in 0..N {
            for j in 0..N {
                let g = scheme.gains().gain(i, j);
                assert_eq!(aloha.gains().gain(i, j), g, "{:?}", cfg.phy_backend);
                assert_eq!(csma.gains().gain(i, j), g, "{:?}", cfg.phy_backend);
            }
        }
    }
}

#[test]
#[should_panic(expected = "no fault plan")]
fn baselines_reject_a_fault_plan() {
    // A baseline run would ignore the crash and still record the plan in
    // its provenance; refusing it keeps the artifact honest.
    let mut cfg = scenario(1.0);
    cfg.faults = FaultPlan::none().crash(Duration::from_secs(2), 5);
    Contention::new(&cfg, BaselineConfig::new(MacKind::PureAloha));
}
