//! Property tests for dynamic topology: generated motion + churn plans
//! must keep the packet-conservation ledger exact, stay bit-deterministic
//! across reruns and thread counts, and be invariant across PHY backends
//! — the motion-equivalence suite pinning the incremental reindexing
//! path (E9).

use parn::core::{
    ChurnPlan, DestPolicy, FarFieldConfig, HealConfig, HealMode, MobilityConfig, MobilityModel,
    NetConfig, Network, PhyBackend, RouteMode,
};
use parn::sim::{Duration, Rng};
use parn::testkit::cases;

/// A small network with randomized motion (either model), a generated
/// churn plan, and randomized heal/route modes.
fn motion_config(rng: &mut Rng) -> NetConfig {
    let n = 12 + rng.below(28) as usize;
    let mut cfg = NetConfig::paper_default(n, rng.below(1000));
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_millis(500);
    cfg.traffic.arrivals_per_station_per_sec = (5 + rng.below(25)) as f64 / 10.0;
    let speed = rng.range_f64(0.5, 8.0);
    let model = if rng.chance(0.5) {
        MobilityModel::RandomWaypoint { speed }
    } else {
        MobilityModel::RandomWalk { speed }
    };
    cfg.mobility = Some(MobilityConfig {
        model,
        epoch: Duration::from_millis(100 + rng.below(400)),
    });
    let radius = cfg.placement.region().radius;
    let count = 1 + rng.below(4) as usize;
    cfg.churn = ChurnPlan::generate(rng.below(1 << 32), n, count, cfg.run_for, radius);
    if rng.chance(0.5) {
        cfg.heal = HealConfig::local();
    }
    if rng.chance(0.3) {
        cfg.route_mode = RouteMode::Distributed;
    } else if cfg.heal.mode == HealMode::Oracle && rng.chance(0.5) {
        // Single-hop neighbour traffic under oracle healing: a station
        // that returns before the next reroute must not address a
        // neighbour the current table cannot reach.
        cfg.route_mode = RouteMode::OneHop;
        cfg.traffic.dest = DestPolicy::Neighbors;
    }
    cfg
}

#[test]
fn conservation_holds_under_motion_and_churn() {
    cases(14, "mobility_conservation", |_, rng| {
        let cfg = motion_config(rng);
        let churn_events = cfg.churn.len() as u64;
        let m = Network::run(cfg.clone());
        // Per-packet book: everything generated is delivered, in flight,
        // or settled as an attributed drop — through every move, leave
        // and join.
        assert!(
            m.conservation_holds(),
            "conservation broke under {:?} / {:?}: {}",
            cfg.mobility,
            cfg.churn,
            m.summary()
        );
        // Per-reception book: every failed hop attempt has a cause.
        assert_eq!(
            m.hop_attempts - m.hop_successes,
            m.total_losses(),
            "hop ledger broke under {:?} / {:?}: {}",
            cfg.mobility,
            cfg.churn,
            m.summary()
        );
        assert!(m.motion_epochs > 0, "{}", m.summary());
        assert!(
            m.leaves + m.joins <= 2 * churn_events,
            "more churn than planned: {}",
            m.summary()
        );
    });
}

#[test]
fn mobility_runs_are_bit_deterministic() {
    cases(8, "mobility_determinism", |_, rng| {
        let cfg = motion_config(rng);
        let a = Network::run(cfg.clone());
        let b = Network::run(cfg);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.station_moves, b.station_moves);
        assert_eq!(a.motion_epochs, b.motion_epochs);
        assert_eq!(a.leaves, b.leaves);
        assert_eq!(a.joins, b.joins);
        assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
    });
}

#[test]
fn motion_is_backend_invariant() {
    // The same motion + churn plan must produce bit-identical simulations
    // on the dense reference matrix and the exact spatial index: the
    // incremental relocate/rebucket path may not diverge from a dense
    // recompute, in either heal mode or route mode.
    cases(8, "mobility_backend", |_, rng| {
        let dense = motion_config(rng);
        let mut grid = dense.clone();
        grid.phy_backend = PhyBackend::Grid { far_field: None };
        let a = Network::run(dense.clone());
        let b = Network::run(grid);
        assert_eq!(a.generated, b.generated, "{:?}", dense.mobility);
        assert_eq!(a.delivered, b.delivered, "{:?}", dense.mobility);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.station_moves, b.station_moves);
        assert_eq!(a.leaves, b.leaves);
        assert_eq!(a.joins, b.joins);
    });
}

#[test]
fn motion_is_thread_count_invariant() {
    // The sharded far-field sweep recomputes moved receptions in
    // parallel; the result may not depend on how many shards did it.
    cases(4, "mobility_threads", |_, rng| {
        let mut cfg = motion_config(rng);
        cfg.phy_backend = PhyBackend::Grid {
            far_field: Some(FarFieldConfig::default_for_paper()),
        };
        let mut runs = Vec::new();
        for threads in [1, 2, 8] {
            let mut c = cfg.clone();
            c.threads = threads;
            runs.push(Network::run(c));
        }
        let a = &runs[0];
        for b in &runs[1..] {
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.hop_attempts, b.hop_attempts);
            assert_eq!(a.losses, b.losses);
            assert_eq!(a.drops, b.drops);
            assert_eq!(a.station_moves, b.station_moves);
            assert_eq!(a.leaves, b.leaves);
            assert_eq!(a.joins, b.joins);
            assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
        }
    });
}

#[test]
fn pure_churn_without_motion_conserves() {
    // Churn without a mobility model: joins still relocate stations
    // one at a time through the incremental path.
    cases(8, "churn_only", |_, rng| {
        let mut cfg = motion_config(rng);
        cfg.mobility = None;
        let m = Network::run(cfg.clone());
        assert!(
            m.conservation_holds(),
            "conservation broke under {:?}: {}",
            cfg.churn,
            m.summary()
        );
        assert_eq!(m.hop_attempts - m.hop_successes, m.total_losses());
        assert_eq!(m.motion_epochs, 0);
        // Only re-admissions at a fresh position relocate; timed-outage
        // returns come back in place.
        assert!(m.station_moves <= m.joins, "{}", m.summary());
    });
}

#[test]
fn returning_station_waits_for_the_reroute_to_pick_neighbours() {
    // The E9 mobile-churn arm at n=60 (one-hop, neighbour traffic,
    // oracle healing). Under seed 5 a departed station returns and draws
    // an arrival before the next reroute; it used to pick a neighbour from
    // its pre-departure list and find no route to it.
    let n = 60;
    let mut cfg = NetConfig::paper_default(n, 5);
    cfg.run_for = Duration::from_secs(2);
    cfg.warmup = Duration::from_millis(500);
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.traffic.arrivals_per_station_per_sec = 0.5;
    cfg.mobility = Some(MobilityConfig {
        model: MobilityModel::RandomWaypoint { speed: 1.5 },
        epoch: Duration::from_millis(200),
    });
    let radius = cfg.placement.region().radius;
    cfg.churn = ChurnPlan::generate(5, n, 30, cfg.run_for, radius);
    let m = Network::run(cfg);
    assert!(m.joins > 0, "{}", m.summary());
    assert!(m.conservation_holds(), "{}", m.summary());
    assert_eq!(m.hop_attempts - m.hop_successes, m.total_losses());
}
