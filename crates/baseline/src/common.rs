//! Shared scenario setup for the baseline MACs.
//!
//! Every baseline runs under *exactly the same physical model* as the
//! Shepard scheme: the same placement, gain matrix, SINR tracker and
//! reception criterion — only the channel-access rule changes. That is
//! the point of experiment E3: at loads where ALOHA/CSMA/MACA lose
//! packets to collisions, the schedule-based scheme loses none.

use parn_core::power::PowerPolicy;
use parn_core::{Metrics, PhyBackend};
use parn_phys::placement::{density, Placement};
use parn_phys::propagation::FreeSpace;
use parn_phys::sinr::SinrTracker;
use parn_phys::{
    Gain, GainMatrix, GainModel, GridGainModel, PowerW, ReceptionCriterion, StationId,
};
use parn_sim::{Duration, Rng, Time};
use std::sync::Arc;

/// Which baseline MAC to run.
#[derive(Clone, Debug)]
pub enum MacKind {
    /// Transmit the moment a packet is ready (classic ALOHA).
    PureAloha,
    /// Transmit at the next global slot boundary (slotted ALOHA — note
    /// this baseline *assumes* the network-wide synchronization the paper
    /// argues is impractical at scale).
    SlottedAloha {
        /// Global slot length (= packet air time).
        slot: Duration,
    },
    /// Carrier sense: defer while total sensed power exceeds a threshold,
    /// then transmit.
    Csma {
        /// Sensed-power level above which the channel is "busy".
        sense_threshold: PowerW,
    },
    /// MACA-style RTS/CTS handshake with NAV deferral on overheard
    /// control packets.
    Maca {
        /// Air time of RTS/CTS control packets.
        ctrl_airtime: Duration,
    },
}

/// Scenario parameters for a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Root seed.
    pub seed: u64,
    /// Placement model.
    pub placement: Placement,
    /// Reception criterion (same as the scheme's).
    pub criterion: ReceptionCriterion,
    /// Power policy.
    pub power: PowerPolicy,
    /// Thermal + external noise floor.
    pub noise: PowerW,
    /// Self-interference gain.
    pub self_gain: f64,
    /// Despreading channels per receiver.
    pub despreaders: usize,
    /// Successive-interference-cancellation depth at receivers (0 = off;
    /// §3.4 footnote 2's multiuser-detection upgrade).
    pub sic_depth: usize,
    /// Usable-hop reach factor (× characteristic distance).
    pub reach_factor: f64,
    /// Packet air time (kept equal to the scheme's quarter-slot).
    pub airtime: Duration,
    /// Poisson arrivals per station per second; destinations are random
    /// in-range neighbours (single-hop, the regime where all MACs are
    /// comparable).
    pub arrivals_per_station_per_sec: f64,
    /// Mean random backoff after a failed attempt.
    pub mean_backoff: Duration,
    /// Retransmission limit.
    pub max_retries: u32,
    /// The MAC under test.
    pub mac: MacKind,
    /// PHY gain backend (dense reference matrix or spatial index) — the
    /// same selector the scheme uses, so baseline-vs-scheme comparisons
    /// stay apples-to-apples at any scale.
    pub phy_backend: PhyBackend,
    /// Run length.
    pub run_for: Duration,
    /// Warmup excluded from statistics.
    pub warmup: Duration,
}

impl BaselineConfig {
    /// Serialize the scenario for `BENCH_*.json` provenance manifests
    /// (schema in `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> parn_sim::Json {
        use parn_sim::json::{obj, Json};
        let placement = match &self.placement {
            Placement::UniformDisk { n, radius } => obj([
                ("kind", "uniform_disk".into()),
                ("n", (*n).into()),
                ("radius_m", (*radius).into()),
            ]),
            other => obj([("kind", format!("{other:?}").into())]),
        };
        let power = match self.power {
            PowerPolicy::Controlled { target, max } => obj([
                ("kind", "controlled".into()),
                ("target_w", target.value().into()),
                ("max_w", max.value().into()),
            ]),
            PowerPolicy::Fixed(p) => obj([("kind", "fixed".into()), ("power_w", p.value().into())]),
        };
        let mac = match &self.mac {
            MacKind::PureAloha => obj([("kind", "pure_aloha".into())]),
            MacKind::SlottedAloha { slot } => obj([
                ("kind", "slotted_aloha".into()),
                ("slot_s", slot.as_secs_f64().into()),
            ]),
            MacKind::Csma { sense_threshold } => obj([
                ("kind", "csma".into()),
                ("sense_threshold_w", sense_threshold.value().into()),
            ]),
            MacKind::Maca { ctrl_airtime } => obj([
                ("kind", "maca".into()),
                ("ctrl_airtime_s", ctrl_airtime.as_secs_f64().into()),
            ]),
        };
        let phy_backend = match &self.phy_backend {
            PhyBackend::Dense => obj([("kind", "dense".into())]),
            PhyBackend::Grid { far_field } => obj([
                ("kind", "grid".into()),
                (
                    "far_field",
                    match far_field {
                        None => Json::Null,
                        Some(ff) => obj([
                            ("near_radius_factor", ff.near_radius_factor.into()),
                            ("tolerance", ff.tolerance.into()),
                        ]),
                    },
                ),
            ]),
        };
        obj([
            ("seed", self.seed.into()),
            ("placement", placement),
            (
                "criterion",
                obj([
                    ("rate_bps", self.criterion.rate_bps.into()),
                    ("bandwidth_hz", self.criterion.bandwidth_hz.into()),
                    ("margin", self.criterion.margin.into()),
                ]),
            ),
            ("power", power),
            ("noise_w", self.noise.value().into()),
            ("self_gain", self.self_gain.into()),
            ("despreaders", self.despreaders.into()),
            ("sic_depth", self.sic_depth.into()),
            ("reach_factor", self.reach_factor.into()),
            ("airtime_s", self.airtime.as_secs_f64().into()),
            (
                "arrivals_per_station_per_sec",
                self.arrivals_per_station_per_sec.into(),
            ),
            ("mean_backoff_s", self.mean_backoff.as_secs_f64().into()),
            ("max_retries", u64::from(self.max_retries).into()),
            ("mac", mac),
            ("phy_backend", phy_backend),
            ("run_for_s", self.run_for.as_secs_f64().into()),
            ("warmup_s", self.warmup.as_secs_f64().into()),
        ])
    }

    /// A baseline scenario matched to [`parn_core::NetConfig::paper_default`]:
    /// same density, criterion, power control and packet size.
    pub fn matched(n: usize, seed: u64, mac: MacKind) -> BaselineConfig {
        let rho = 0.01;
        let radius = (n as f64 / (std::f64::consts::PI * rho)).sqrt();
        BaselineConfig {
            seed,
            placement: Placement::UniformDisk { n, radius },
            criterion: ReceptionCriterion::with_5db_margin(1e5, 1e7),
            power: PowerPolicy::Controlled {
                target: PowerW(1e-6),
                max: PowerW(1.0),
            },
            noise: PowerW(1e-13),
            self_gain: 1e12,
            despreaders: 8,
            sic_depth: 0,
            reach_factor: 2.0,
            airtime: Duration::from_micros(2500),
            arrivals_per_station_per_sec: 2.0,
            mean_backoff: Duration::from_millis(20),
            max_retries: 10,
            mac,
            phy_backend: PhyBackend::Dense,
            run_for: Duration::from_secs(20),
            warmup: Duration::from_secs(2),
        }
    }
}

/// The assembled physical scenario shared by all baseline MACs.
pub struct Scenario {
    /// Scenario config.
    pub cfg: BaselineConfig,
    /// Pairwise gains (dense matrix or spatial index, per the config).
    pub gains: Arc<dyn GainModel>,
    /// The interference bookkeeper.
    pub tracker: SinrTracker,
    /// In-range neighbours of each station.
    pub neighbors: Vec<Vec<StationId>>,
    /// Reception SINR threshold.
    pub threshold: f64,
    /// Traffic randomness.
    pub rng: Rng,
    /// Metrics under construction.
    pub metrics: Metrics,
    /// Warmup boundary.
    pub warm_at: Time,
    /// Run end.
    pub end: Time,
}

impl Scenario {
    /// Build the physical world for a config.
    pub fn new(cfg: BaselineConfig) -> Scenario {
        let root = Rng::new(cfg.seed);
        let mut rng_place = root.substream("placement");
        let rng = root.substream("traffic");
        let positions = cfg.placement.generate(&mut rng_place);
        let n = positions.len();
        assert!(n >= 2, "need at least two stations");
        let gains: Arc<dyn GainModel> = match &cfg.phy_backend {
            PhyBackend::Dense => Arc::new(GainMatrix::build(&positions, &FreeSpace::unit())),
            PhyBackend::Grid { .. } => {
                Arc::new(GridGainModel::new(&positions, Box::new(FreeSpace::unit())))
            }
        };
        let region = cfg.placement.region();
        let rho = density(&positions, &region);
        let reach = cfg.reach_factor / rho.sqrt();
        let usable = Gain(1.0 / (reach * reach));
        let neighbors: Vec<Vec<StationId>> = (0..n).map(|s| gains.hearable_by(s, usable)).collect();
        let mut tracker =
            SinrTracker::new(Arc::clone(&gains), cfg.noise, cfg.self_gain).with_sic(cfg.sic_depth);
        if let PhyBackend::Grid {
            far_field: Some(ff),
        } = &cfg.phy_backend
        {
            tracker = tracker.with_far_field(ff.near_radius_factor * reach, ff.tolerance);
        }
        let threshold = cfg.criterion.threshold();
        let warm_at = Time::ZERO + cfg.warmup;
        let end = Time::ZERO + cfg.run_for;
        let mut metrics = Metrics::new(n);
        metrics.measured_span = cfg.run_for.saturating_sub(cfg.warmup);
        Scenario {
            cfg,
            gains,
            tracker,
            neighbors,
            threshold,
            rng,
            metrics,
            warm_at,
            end,
        }
    }

    /// Whether a time falls in the measured region.
    pub fn measured(&self, t: Time) -> bool {
        t >= self.warm_at
    }

    /// Exponential interarrival for the configured rate.
    pub fn next_interarrival(&mut self) -> Duration {
        let mean = 1.0 / self.cfg.arrivals_per_station_per_sec;
        Duration::from_secs_f64(self.rng.exp(mean))
    }

    /// Exponential random backoff.
    pub fn backoff(&mut self) -> Duration {
        Duration::from_secs_f64(self.rng.exp(self.cfg.mean_backoff.as_secs_f64()))
    }

    /// Random in-range neighbour of `s`, if any.
    pub fn random_neighbor(&mut self, s: StationId) -> Option<StationId> {
        if self.neighbors[s].is_empty() {
            None
        } else {
            Some(*self.rng.choose(&self.neighbors[s]))
        }
    }

    /// Transmit power toward a neighbour under the configured policy.
    pub fn tx_power(&self, s: StationId, nh: StationId) -> PowerW {
        self.cfg.power.tx_power(self.gains.gain(nh, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_scenario_builds() {
        let cfg = BaselineConfig::matched(30, 5, MacKind::PureAloha);
        let sc = Scenario::new(cfg);
        assert_eq!(sc.neighbors.len(), 30);
        // Dense enough that most stations have neighbours.
        let with_nb = sc.neighbors.iter().filter(|v| !v.is_empty()).count();
        assert!(with_nb > 25, "only {with_nb} stations have neighbours");
        assert!(sc.threshold > 0.0 && sc.threshold < 1.0);
    }

    #[test]
    fn power_matches_policy() {
        let cfg = BaselineConfig::matched(10, 6, MacKind::PureAloha);
        let sc = Scenario::new(cfg);
        // Find a pair of neighbours and confirm delivered power is target.
        let s = (0..10).find(|&s| !sc.neighbors[s].is_empty()).unwrap();
        let nh = sc.neighbors[s][0];
        let p = sc.tx_power(s, nh);
        let delivered = sc.gains.gain(nh, s).apply(p);
        assert!((delivered.value() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn measured_gate() {
        let cfg = BaselineConfig::matched(5, 1, MacKind::PureAloha);
        let sc = Scenario::new(cfg);
        assert!(!sc.measured(Time::from_secs(1)));
        assert!(sc.measured(Time::from_secs(3)));
    }

    #[test]
    fn grid_backend_matches_dense_exactly() {
        // The spatial index without far-field aggregation must be
        // bit-identical to the dense matrix — same neighbours, same
        // sensed power, same outcomes. CSMA exercises the carrier-sense
        // path (`sensed_power`) hardest.
        let mut cfg = BaselineConfig::matched(
            30,
            9,
            MacKind::Csma {
                sense_threshold: PowerW(1e-9),
            },
        );
        cfg.run_for = Duration::from_secs(6);
        cfg.warmup = Duration::from_secs(1);
        let mut grid_cfg = cfg.clone();
        grid_cfg.phy_backend = PhyBackend::Grid { far_field: None };
        let dense = crate::Contention::run(Scenario::new(cfg));
        let grid = crate::Contention::run(Scenario::new(grid_cfg));
        assert_eq!(dense.generated, grid.generated);
        assert_eq!(dense.delivered, grid.delivered);
        assert_eq!(dense.total_losses(), grid.total_losses());
        assert_eq!(dense.collision_losses(), grid.collision_losses());
    }
}
