//! `parn-baseline`: the channel-access schemes the paper positions itself
//! against (§2), implemented under the *same* physical interference model
//! as the Shepard scheme.
//!
//! [`Contention`] runs pure and slotted ALOHA, CSMA with power-threshold
//! deferral, and MACA-style RTS/CTS with NAV deferral in one event loop;
//! the scenario's [`MacKind`] picks the access rule.
//!
//! All of them lose packets to collisions under load; the scheme does not.
//! That contrast is experiment E3.

#![warn(missing_docs)]

pub mod common;
pub mod contention;

pub use common::{BaselineConfig, MacKind, Scenario};
pub use contention::Contention;
