//! `parn-route`: minimum-energy routing (paper §6.2).
//!
//! Routes are chosen "so as to minimize each packet's total contribution
//! to interference at distant stations": hop cost = reciprocal path gain
//! (the transmit energy under power control), minimized end-to-end.
//!
//! * [`graph`] — the energy-cost graph from the propagation matrix;
//! * [`dijkstra`](mod@dijkstra) — centralized reference shortest paths;
//! * [`dv`] — the distributed asynchronous Bellman–Ford computation as a
//!   message-passing *protocol*: one private [`DvState`] per station,
//!   advertisements with split horizon / poisoned reverse, hold-down, and
//!   a hop-count cap;
//! * [`table`] — all-pairs next-hop tables with consistency checking;
//! * [`relay`] — the diameter-circle relay property and route geometry.

#![warn(missing_docs)]

pub mod dijkstra;
pub mod dv;
pub mod graph;
pub mod relay;
pub mod table;

pub use dijkstra::{dijkstra, ShortestPaths};
pub use dv::{DvCluster, DvEntry, DvState};
pub use graph::EnergyGraph;
pub use table::RouteTable;
