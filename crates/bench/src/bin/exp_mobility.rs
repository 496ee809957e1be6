//! E9 — dynamic topology: delivery and reconvergence under station
//! mobility and join/leave churn, at metro scale.
//!
//! Static-topology experiments validate the scheme's steady state; this
//! one measures what motion costs. Every station advances each epoch
//! (random-waypoint), a generated churn plan injects clean departures
//! and re-admissions, and the PHY relocates stations *incrementally* —
//! per-move grid rebucketing, per-station gain-cache epochs, and
//! scoped far-field invalidation, never a global cache rebuild. The
//! committed artifact proves that: the `phys.sinr.scoped_invalidations`
//! counter is nonzero while `phys.sinr.full_invalidations` (the
//! `gains_changed`-style global drop, reserved for partition overlays)
//! stays zero.
//!
//! Modes, mirroring `exp_scale`:
//!
//! * no args — driver: spawns `--one` subprocesses for the speed × churn
//!   sweep at n ∈ {10³, 10⁴, 10⁵} and collects `BENCH_mobility.json`;
//! * `--one <n> <speed_mps> <churn_events> [threads]` — one
//!   configuration, one artifact line;
//! * `--smoke` — the n=10³ corner of the sweep only;
//! * `--determinism <n>` — grid-far mobility runs at 1/2/8 sweep threads
//!   must produce byte-identical metrics JSON.
//!
//! Scale arms use the single-hop regime ([`DestPolicy::Neighbors`] +
//! [`RouteMode::OneHop`]) like E6; the n=10³ arms run the full
//! centralized table so per-epoch reroutes (`route_repairs`) are part of
//! what's measured.

use parn_bench::report::{determinism_matrix, peak_rss_kb, spawn_self, Reporter, Run};
use parn_core::{
    ChurnPlan, DestPolicy, FarFieldConfig, MobilityConfig, MobilityModel, NetConfig, Network,
    PhyBackend, RouteMode,
};
use parn_sim::Duration;
use std::time::Instant;

fn mobility_config(n: usize, speed: f64, churn_events: usize, threads: usize) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, 1996);
    cfg.threads = threads;
    cfg.run_for = Duration::from_secs(2);
    cfg.warmup = Duration::from_millis(500);
    cfg.traffic.arrivals_per_station_per_sec = 0.5;
    cfg.mobility = Some(MobilityConfig {
        model: MobilityModel::RandomWaypoint { speed },
        epoch: Duration::from_millis(200),
    });
    if churn_events > 0 {
        let radius = cfg.placement.region().radius;
        cfg.churn = ChurnPlan::generate(cfg.seed, n, churn_events, cfg.run_for, radius);
    }
    if n >= 10_000 {
        // Metro arms: spatial index + far-field aggregation, single-hop
        // regime (O(E) routing state, like E6).
        cfg.phy_backend = PhyBackend::Grid {
            far_field: Some(FarFieldConfig::default_for_paper()),
        };
        cfg.route_mode = RouteMode::OneHop;
        cfg.traffic.dest = DestPolicy::Neighbors;
    } else {
        // Small arms: exact grid backend, full centralized table — the
        // per-epoch oracle reroute is part of the measurement.
        cfg.phy_backend = PhyBackend::Grid { far_field: None };
    }
    cfg
}

fn run_one(n: usize, speed: f64, churn_events: usize, threads: usize) {
    let cfg = mobility_config(n, speed, churn_events, threads);
    parn_sim::obs::reset();
    let start = Instant::now();
    let m = Network::run(cfg.clone());
    let wall = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    let threads_suffix = if threads > 1 {
        format!(" threads={threads}")
    } else {
        String::new()
    };
    let counters = parn_sim::obs::counters_snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|&&(cn, _)| cn == name)
            .map_or(0, |&(_, v)| v)
    };
    Reporter::append("mobility").record(&Run {
        label: format!("n={n} speed={speed} churn={churn_events}{threads_suffix}"),
        config: cfg.to_json(),
        metrics: m.to_json(),
        wall_s: wall,
    });
    assert!(
        m.station_moves > 0,
        "mobility run without moves at n={n}: {}",
        m.summary()
    );
    assert!(
        m.conservation_holds(),
        "conservation broke at n={n} speed={speed} churn={churn_events}: {}",
        m.summary()
    );
    assert!(
        m.delivered > 0,
        "nothing delivered at n={n} speed={speed}: {}",
        m.summary()
    );
    // The headline guarantee of the incremental path: every relocation
    // invalidates only its own station's cached state. A nonzero
    // full-invalidation count would mean motion fell back to the global
    // `gains_changed` drop (reserved for partition overlays).
    let scoped = counter("phys.sinr.scoped_invalidations");
    let full = counter("phys.sinr.full_invalidations");
    assert!(
        scoped > 0,
        "no scoped invalidations at n={n}: the incremental move path did not run"
    );
    assert_eq!(
        full, 0,
        "motion triggered {full} global cache rebuilds at n={n}: \
         scoped invalidation regressed to gains_changed"
    );
    println!(
        "n={n} speed={speed} churn={churn_events}{threads_suffix} wall_s={wall:.2} \
         peak_rss_mb={rss_mb:.1} delivered={} moves={} leaves={} joins={} \
         relocations={} scoped_inval={scoped} full_inval={full} collisions={}",
        m.delivered,
        m.station_moves,
        m.leaves,
        m.joins,
        counter("phys.grid.relocations"),
        m.collision_losses()
    );
}

fn drive(sweep: &[(usize, f64, usize)]) {
    let reporter = Reporter::create("mobility"); // truncate; children append
    println!("# E9: delivery and reconvergence vs speed x churn, with incremental reindexing");
    println!("# artifact: {}", reporter.path().display());
    println!("# (each line is an independent subprocess; RSS is per-configuration)\n");
    for &(n, speed, churn) in sweep {
        spawn_self(
            &[
                "--one",
                &n.to_string(),
                &speed.to_string(),
                &churn.to_string(),
                "1",
            ],
            None,
        );
    }
}

/// The determinism matrix: same seed, grid + far field, threads 1/2/8 →
/// the metrics JSON must match byte-for-byte through every move.
fn determinism(n: usize) {
    determinism_matrix("mobility", &["--one", &n.to_string(), "3", "8"]);
    println!("determinism OK at n={n}: mobility metrics byte-identical across threads 1/2/8");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--one", n, speed, churn] => run_one(
            n.parse().expect("n"),
            speed.parse().expect("speed"),
            churn.parse().expect("churn"),
            1,
        ),
        ["--one", n, speed, churn, threads] => run_one(
            n.parse().expect("n"),
            speed.parse().expect("speed"),
            churn.parse().expect("churn"),
            threads.parse().expect("threads"),
        ),
        ["--determinism", n] => determinism(n.parse().expect("n")),
        ["--smoke"] => drive(&[(1_000, 1.5, 10), (1_000, 6.0, 10)]),
        _ => drive(&[
            (1_000, 1.5, 0),
            (1_000, 1.5, 10),
            (1_000, 6.0, 10),
            (10_000, 1.5, 30),
            (100_000, 1.5, 100),
        ]),
    }
}
