//! End-to-end simulator benchmarks: scenario construction cost and
//! simulated-seconds-per-wall-second for the full scheme and for the
//! baselines at matched load.

use parn_baseline::{BaselineConfig, Contention, MacKind};
use parn_bench::harness;
use parn_core::{DestPolicy, NetConfig, Network};
use parn_sim::Duration;

fn scenario(n: usize) -> NetConfig {
    let mut cfg = NetConfig::paper_default(n, 77);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.run_for = Duration::from_secs(3);
    cfg.warmup = Duration::from_secs(1);
    cfg
}

fn main() {
    let mut h = harness("network");

    let mut group = h.group("network_build");
    for &n in &[50usize, 100, 300] {
        group.bench(n, || Network::new(scenario(n)));
    }

    let mut group = h.group("network_run_3s");
    for &n in &[50usize, 100] {
        group.bench(n, || Network::run(scenario(n)));
    }

    let mut group = h.group("baseline_aloha_run_3s");
    for &n in &[50usize, 100] {
        let mut cfg = scenario(n);
        cfg.traffic.dest = DestPolicy::Neighbors;
        group.bench(n, || {
            Contention::run(&cfg, BaselineConfig::new(MacKind::PureAloha))
        });
    }
}
