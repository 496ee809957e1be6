//! `parn-core`: Shepard's decentralized, collision-free channel access
//! scheme for large dense packet radio networks (SIGCOMM '96), as a
//! runnable simulation and library.
//!
//! * [`config`] — scenario description with paper-flavoured defaults;
//! * [`faults`] — deterministic fault plans (crash / crash-recover /
//!   clock jump / jammer) and the healing policy (oracle vs local);
//! * [`mobility`] — station motion models and join/leave churn plans
//!   (dynamic topology);
//! * [`packet`] — packets and loss causes;
//! * [`power`] — §6.1 power control (deliver constant power);
//! * [`collision`] — the §5 collision taxonomy over PHY failure reports;
//! * [`station`] — per-station protocol state;
//! * [`world`] — the physical world a config describes (positions, gains,
//!   reach, SINR tracker), shared by the scheme and the baselines;
//! * [`network`] — the full event-driven simulator (MAC + PHY + routing +
//!   traffic);
//! * [`traffic`] — composable traffic models (Poisson / bursty on-off
//!   sources × uniform / neighbour / gravity / hotspot destinations);
//! * [`metrics`] — loss/delay/duty accounting.
//!
//! ```
//! use parn_core::{NetConfig, Network};
//! let mut cfg = NetConfig::paper_default(20, 1);
//! cfg.run_for = parn_sim::Duration::from_secs(3);
//! cfg.warmup = parn_sim::Duration::from_secs(1);
//! let metrics = Network::run(cfg);
//! assert_eq!(metrics.collision_losses(), 0);
//! ```

#![warn(missing_docs)]

pub mod collision;
pub mod config;
pub mod faults;
pub mod metrics;
pub mod mobility;
pub mod network;
pub mod packet;
pub mod power;
pub mod station;
pub mod traffic;
pub mod world;

pub use collision::{classify, classify_with, CollisionKinds};
pub use config::{
    ClockConfig, DestPolicy, DvConfig, FarFieldConfig, NeighborProtection, NetConfig, PhyBackend,
    RouteMode, SourceModel, SyncMode, TrafficConfig,
};
pub use faults::{ByzMode, CutAxis, FaultEvent, FaultKind, FaultPlan, HealConfig, HealMode};
pub use metrics::Metrics;
pub use mobility::{ChurnEvent, ChurnKind, ChurnPlan, MobilityConfig, MobilityModel};
pub use network::{Event, Network};
pub use packet::{ControlPayload, LossCause, Packet, PacketKind};
pub use power::PowerPolicy;
pub use world::World;
