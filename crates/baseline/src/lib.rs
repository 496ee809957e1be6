//! `parn-baseline`: the channel-access schemes the paper positions itself
//! against (§2), implemented under the *same* physical interference model
//! as the Shepard scheme.
//!
//! [`Contention`] runs pure and slotted ALOHA, CSMA with power-threshold
//! deferral, and MACA-style RTS/CTS with NAV deferral in one event loop;
//! the [`BaselineConfig`]'s [`MacKind`] picks the access rule. The world
//! itself — placement, gains, criterion, power, noise, load, run length —
//! is the scheme's own [`parn_core::NetConfig`], built by the same
//! [`parn_core::World`] the scheme uses.
//!
//! All of them lose packets to collisions under load; the scheme does not.
//! That contrast is experiment E3.

#![warn(missing_docs)]

pub mod contention;

pub use contention::{BaselineConfig, Contention, MacKind};
