//! Golden-JSON regression pins: `RouteMode::Centralized` and
//! `RouteMode::OneHop` behavior, the baseline MACs, and the
//! `Metrics::to_json` wire format must stay byte-identical across
//! refactors. The routing fixtures under `tests/golden/` were captured
//! before the per-station distance-vector exchange landed, the baseline
//! fixtures before the per-MAC simulators were merged; any diff here
//! means a change leaked into behavior that was supposed to be untouched.
//!
//! Regenerate (only when a format change is intentional) with:
//! `GOLDEN_REGEN=1 cargo test --test golden_metrics`

use parn::baseline::{BaselineConfig, Contention, MacKind};
use parn::core::{DestPolicy, FaultPlan, HealConfig, NetConfig, Network, RouteMode};
use parn::phys::PowerW;
use parn::sim::Duration;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        expected, actual,
        "metrics JSON for {name} diverged from the pinned fixture; if the \
         change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

/// Centralized routing through a crash-recover fault under local healing
/// (oracle clock sync): pins the full heal bookkeeping and loss/drop
/// ledgers byte-for-byte.
#[test]
fn centralized_crash_recover_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(40, 21);
    cfg.run_for = Duration::from_secs(14);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 2.0;
    cfg.heal = HealConfig::local();
    cfg.faults = FaultPlan::none().crash_recover(Duration::from_secs(4), 7, Duration::from_secs(4));
    let m = Network::run(cfg);
    check("centralized_crash_recover.json", &m.to_json().to_string());
}

/// One-hop routing with neighbor-only traffic: pins the single-hop mode's
/// delivery statistics and the metrics wire format with empty fault books.
#[test]
fn one_hop_neighbor_traffic_metrics_are_pinned() {
    let mut cfg = NetConfig::paper_default(25, 5);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 1.0;
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    let m = Network::run(cfg);
    check("one_hop_neighbors.json", &m.to_json().to_string());
}

/// Static-topology runs must not leak any dynamic-topology state into
/// the wire formats: with no mobility model and an empty churn plan,
/// both `NetConfig::to_json` and `Metrics::to_json` stay byte-identical
/// to the pinned fixtures (no `mobility`/`churn` keys anywhere).
#[test]
fn static_runs_emit_no_dynamic_topology_keys() {
    let mut cfg = NetConfig::paper_default(25, 5);
    cfg.run_for = Duration::from_secs(6);
    cfg.warmup = Duration::from_secs(1);
    cfg.traffic.arrivals_per_station_per_sec = 1.0;
    cfg.route_mode = RouteMode::OneHop;
    cfg.traffic.dest = DestPolicy::Neighbors;
    let cfg_json = cfg.to_json().to_string();
    assert!(!cfg_json.contains("\"mobility\""), "{cfg_json}");
    assert!(!cfg_json.contains("\"churn\""), "{cfg_json}");
    let m = Network::run(cfg);
    let m_json = m.to_json().to_string();
    assert!(!m_json.contains("\"mobility\""), "{m_json}");
    assert!(!m_json.contains("motion_epochs"), "{m_json}");
}

/// One baseline MAC at a load where every MAC retries, so the
/// backoff/requeue path is part of what the fixture pins.
fn baseline_json(mac: MacKind) -> String {
    let mut cfg = NetConfig::paper_default(30, 13);
    cfg.traffic.arrivals_per_station_per_sec = 20.0;
    cfg.traffic.dest = DestPolicy::Neighbors;
    cfg.run_for = Duration::from_secs(4);
    cfg.warmup = Duration::from_secs(1);
    let m = Contention::run(&cfg, BaselineConfig::new(mac));
    assert!(
        m.retransmissions > 0,
        "no retries at this load: {}",
        m.summary()
    );
    m.to_json().to_string()
}

#[test]
fn pure_aloha_metrics_are_pinned() {
    check(
        "baseline_pure_aloha.json",
        &baseline_json(MacKind::PureAloha),
    );
}

#[test]
fn slotted_aloha_metrics_are_pinned() {
    check(
        "baseline_slotted_aloha.json",
        &baseline_json(MacKind::SlottedAloha),
    );
}

#[test]
fn csma_metrics_are_pinned() {
    let mac = MacKind::Csma {
        sense_threshold: PowerW(1e-7),
    };
    check("baseline_csma.json", &baseline_json(mac));
}

#[test]
fn maca_metrics_are_pinned() {
    let mac = MacKind::Maca {
        ctrl_airtime: Duration::from_micros(250),
    };
    check("baseline_maca.json", &baseline_json(mac));
}
