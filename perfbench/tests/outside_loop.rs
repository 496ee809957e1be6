//! The benchmark's traced runs drive the simulator from outside. These
//! tests pin that its loop is `Network::run`'s: every workload's
//! configuration, at reduced size, gives byte-identical metrics JSON.

use parn_core::Network;
use parn_perfbench::{horizon, run_traced, Workload};
use parn_sim::Duration;

fn assert_outside_loop_is_run_built(w: Workload, seed: u64, n: usize, run_for: Duration) {
    let cfg = w.config_at(seed, n, run_for);
    let end = horizon(&cfg);
    let reference = Network::run(cfg.clone());
    assert!(reference.delivered > 0, "{}: nothing delivered", w.name());
    let reference = reference.to_json().to_string();
    let (traced, trace) = run_traced(Network::new(cfg), end);
    assert_eq!(
        traced.to_json().to_string(),
        reference,
        "{}: traced loop",
        w.name()
    );
    let spans: u64 = trace.handle.iter().map(|h| h.count()).sum();
    assert_eq!(spans, trace.events, "{}: one span per event", w.name());
}

#[test]
fn metro_static_outside_loop_matches_run() {
    assert_outside_loop_is_run_built(Workload::MetroStatic, 42, 600, Duration::from_secs(1));
}

#[test]
fn mobile_churn_outside_loop_matches_run() {
    assert_outside_loop_is_run_built(Workload::MobileChurn, 1996, 600, Duration::from_secs(1));
}

#[test]
fn dv_repair_outside_loop_matches_run() {
    assert_outside_loop_is_run_built(Workload::DvRepair, 13, 36, Duration::from_secs(6));
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("metro"), None);
}

#[test]
fn span_hist_reports_median_and_the_deepest_tail_with_ten_beyond() {
    let mut h = parn_perfbench::SpanHist::default();
    for us in 1..=1000u64 {
        h.add(us * 1000);
    }
    let p50 = h.quantile_ns(0.5) as f64;
    assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.033, "p50 {p50}");
    // 1000 samples: ten lie beyond p99, one beyond p99.9.
    let (pct, ns) = h.tail();
    assert!((pct - 99.0).abs() < 1e-9, "tail percentile {pct}");
    assert!(
        (ns as f64 - 990_000.0).abs() / 990_000.0 < 0.033,
        "p99 {ns}"
    );

    let mut few = parn_perfbench::SpanHist::default();
    for ns in [5, 70, 900] {
        few.add(ns);
    }
    assert_eq!(
        few.tail(),
        (100.0, 900),
        "fewer than ten beyond p90: the max"
    );
}
