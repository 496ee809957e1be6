//! The physical world a [`NetConfig`] describes: station positions, the
//! gain backend, the usable-hop reach and the SINR tracker.
//!
//! The scheme's [`Network`](crate::Network) and the contention baselines
//! both build their physics here, so a comparison between them runs on one
//! world by construction rather than by copying settings.

use crate::config::{NetConfig, PhyBackend};
use parn_phys::placement::density;
use parn_phys::propagation::{FreeSpace, Propagation, Shadowed};
use parn_phys::sinr::SinrTracker;
use parn_phys::{Disk, Gain, GainMatrix, GainModel, GridGainModel, Point, PowerW};
use parn_sim::Rng;
use std::sync::Arc;

/// Positions, gains and reach for one configuration.
pub struct World {
    /// Station positions, drawn from the seed's `"placement"` substream.
    pub positions: Vec<Point>,
    /// The placement's nominal region.
    pub region: Disk,
    /// Pairwise gains under the configured backend and shadowing.
    pub gains: Arc<dyn GainModel>,
    /// Usable-hop reach, `reach_factor / √ρ` (§6: ~2/√ρ).
    pub reach: f64,
    /// Gain threshold of a usable hop, `1 / reach²`.
    pub usable_gain: Gain,
    /// Receiver noise floor: thermal plus external.
    noise: PowerW,
    /// Self-interference gain of a station's own transmitter.
    self_gain: f64,
    /// Far-field aggregation (near radius, tolerance), Grid backend only.
    far_field: Option<(f64, f64)>,
    /// SINR sweep threads.
    threads: usize,
}

impl World {
    /// Build the world for `cfg`. Deterministic in `cfg.seed`.
    pub fn new(cfg: &NetConfig) -> World {
        let mut rng_place = Rng::new(cfg.seed).substream("placement");
        let positions = cfg.placement.generate(&mut rng_place);
        assert!(positions.len() >= 2, "need at least two stations");
        let shadow = (cfg.shadowing_sigma_db > 0.0).then(|| Shadowed {
            inner: FreeSpace::unit(),
            sigma_db: cfg.shadowing_sigma_db,
            seed: cfg.seed ^ 0x5AAD_0E5D,
        });
        let gains: Arc<dyn GainModel> = match &cfg.phy_backend {
            // `build_shared` keeps the propagation model alive so dense
            // backends can recompute rows on relocation; the table it
            // builds is bit-identical to `build`'s.
            PhyBackend::Dense => match shadow {
                Some(model) => Arc::new(GainMatrix::build_shared(&positions, Arc::new(model))),
                None => Arc::new(GainMatrix::build_shared(
                    &positions,
                    Arc::new(FreeSpace::unit()),
                )),
            },
            PhyBackend::Grid { .. } => {
                let model: Box<dyn Propagation + Send + Sync> = match shadow {
                    Some(model) => Box::new(model),
                    None => Box::new(FreeSpace::unit()),
                };
                Arc::new(GridGainModel::new(&positions, model))
            }
        };
        let region = cfg.placement.region();
        let reach = cfg.reach_factor / density(&positions, &region).sqrt();
        let far_field = match &cfg.phy_backend {
            PhyBackend::Grid {
                far_field: Some(ff),
            } => Some((ff.near_radius_factor * reach, ff.tolerance)),
            _ => None,
        };
        World {
            positions,
            region,
            gains,
            reach,
            usable_gain: Gain(1.0 / (reach * reach)),
            noise: cfg.thermal_noise + cfg.external_din,
            self_gain: cfg.self_gain,
            far_field,
            threads: cfg.threads,
        }
    }

    /// The SINR tracker over `self.gains`: thermal plus external noise,
    /// far-field aggregation on the Grid backend when configured, and the
    /// configured sweep threads. A caller that wraps the gains (the
    /// scheme's partition overlay) does so before calling this.
    pub fn tracker(&self) -> SinrTracker {
        let mut tracker = SinrTracker::new(Arc::clone(&self.gains), self.noise, self.self_gain);
        if let Some((near_radius, tolerance)) = self.far_field {
            tracker = tracker.with_far_field(near_radius, tolerance);
        }
        if self.threads > 1 {
            tracker = tracker.with_threads(self.threads);
        }
        tracker
    }
}
