//! E6 — metro scale: dense O(M²) matrix vs the spatial index.
//!
//! The dense [`parn_phys::GainMatrix`] stores M² gains — 8 MB at 10³
//! stations, 800 MB at 10⁴, and ~80 GB at 10⁵, where it stops being a
//! simulation backend and starts being a swap benchmark. The grid
//! backend ([`parn_phys::GridGainModel`] + far-field aggregation in the
//! SINR tracker) keeps memory O(M) and lets the same scheme run at
//! 10⁵–10⁶ stations with the collision-freedom invariant intact.
//!
//! Each configuration runs in its *own subprocess* so peak RSS (VmHWM)
//! is measured per configuration, not accumulated across them:
//!
//! * no args — driver mode: spawns itself with `--one n backend` for
//!   the whole sweep and prints a result table;
//! * `--one <n> <dense|grid|grid-far> [threads]` — run one configuration
//!   and print a single result line;
//! * `--determinism <n>` — run `grid-far` at `n` with 1, 2 and 8 sweep
//!   threads into throwaway artifact dirs, assert the metrics JSON is
//!   byte-identical across thread counts (the stable-reduction-order
//!   guarantee), and assert the far-field snapshot cache hit rate stays
//!   ≥ 50% (the per-cell invalidation fix can't silently regress).
//!
//! The scale runs use the single-hop regime ([`DestPolicy::Neighbors`]
//! with [`RouteMode::OneHop`]) — O(E) routing state — with a short
//! measured window; the point is memory and wall-clock scaling plus the
//! zero-collision invariant, not long-run throughput statistics.

use parn_bench::report::{determinism_matrix, peak_rss_kb, spawn_self, Reporter, Run};
use parn_core::{DestPolicy, FarFieldConfig, NetConfig, Network, PhyBackend, RouteMode};
use parn_sim::{Duration, Json};
use std::time::Instant;

fn backend_from_name(name: &str) -> PhyBackend {
    match name {
        "dense" => PhyBackend::Dense,
        "grid" => PhyBackend::Grid { far_field: None },
        "grid-far" => PhyBackend::Grid {
            far_field: Some(FarFieldConfig::default_for_paper()),
        },
        other => panic!("unknown backend {other:?} (want dense|grid|grid-far)"),
    }
}

fn scale_config(n: usize, backend: PhyBackend, threads: usize) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, 42);
    cfg.phy_backend = backend;
    cfg.threads = threads;
    // Single-hop regime: O(E) routing state instead of the O(M²)
    // all-pairs table, and destinations drawn among routing neighbours.
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.traffic.arrivals_per_station_per_sec = 0.5;
    cfg.run_for = Duration::from_secs(2);
    cfg.warmup = Duration::from_millis(500);
    cfg
}

fn run_one(n: usize, backend_name: &str, threads: usize) {
    let cfg = scale_config(n, backend_from_name(backend_name), threads);
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
    // The driver truncated the artifact; each subprocess appends its line
    // (peak RSS in provenance is then per-configuration, the point of the
    // subprocess split).
    Reporter::append("scale").record(&Run {
        label: format!("n={n} backend={backend_name}{threads_suffix}"),
        config: cfg.to_json(),
        metrics: m.to_json(),
        wall_s: wall,
    });
    assert_eq!(
        m.collision_losses(),
        0,
        "collision-freedom broken at n={n} backend={backend_name}: {}",
        m.summary()
    );
    assert!(
        m.delivered > 0,
        "nothing delivered at n={n} backend={backend_name}: {}",
        m.summary()
    );
    println!(
        "n={n} backend={backend_name}{threads_suffix} wall_s={wall:.2} \
         peak_rss_mb={rss_mb:.1} delivered={} collisions={} violations={}",
        m.delivered,
        m.collision_losses(),
        m.schedule_violations
    );
}

fn drive(sweep: &[(usize, &str, usize)]) {
    let reporter = Reporter::create("scale"); // truncate; children append
    println!("# E6: wall-clock and peak RSS, dense vs spatial index");
    println!("# artifact: {}", reporter.path().display());
    println!("# (each line is an independent subprocess; RSS is per-configuration)\n");
    for &(n, backend, threads) in sweep {
        spawn_self(
            &["--one", &n.to_string(), backend, &threads.to_string()],
            None,
        );
    }
    println!("\n# dense at n=10^5 is omitted: the matrix alone is ~80 GB (8 B x 10^10).");
}

/// Counter value from a run record, defaulting to 0 when absent.
fn counter_of(record: &Json, name: &str) -> u64 {
    match record.get("counters").and_then(|c| c.get(name)) {
        Some(Json::UInt(v)) => *v,
        _ => 0,
    }
}

/// The determinism matrix on `grid-far` at `n`, plus a far-cache floor.
fn determinism(n: usize) {
    let single = determinism_matrix("scale", &["--one", &n.to_string(), "grid-far"]);
    // Hit-rate floor, checked on the single-threaded child (its counters
    // are not split across per-thread caches): the per-cell epoch fix
    // must keep the snapshot cache alive under churn.
    let hits = counter_of(&single, "phys.far_cache.hit");
    let recomputes = counter_of(&single, "phys.far_cache.recompute");
    let rate = hits as f64 / (hits + recomputes).max(1) as f64;
    assert!(
        rate >= 0.5,
        "far-cache hit rate regressed: {hits} hits / {recomputes} recomputes = {rate:.3} < 0.5"
    );
    println!(
        "determinism OK at n={n}: metrics byte-identical across threads 1/2/8, \
         far-cache hit rate {rate:.3}"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--one", n, backend] => run_one(n.parse().expect("n"), backend, 1),
        ["--one", n, backend, threads] => run_one(
            n.parse().expect("n"),
            backend,
            threads.parse().expect("threads"),
        ),
        ["--determinism", n] => determinism(n.parse().expect("n")),
        // `cargo test` passes `--test`-style flags to bins it never runs;
        // anything other than `--one` gets the default sweep. A smaller
        // sweep keeps smoke invocations (`--quick`) under a minute.
        ["--quick"] => drive(&[
            (1_000, "dense", 1),
            (1_000, "grid", 1),
            (1_000, "grid-far", 1),
        ]),
        _ => drive(&[
            (1_000, "dense", 1),
            (1_000, "grid-far", 1),
            (10_000, "dense", 1),
            (10_000, "grid-far", 1),
            (100_000, "grid-far", 1),
            (1_000_000, "grid-far", 2),
        ]),
    }
}
