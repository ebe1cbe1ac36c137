//! # bnb-hashring
//!
//! Consistent-hashing substrate for the *Balls into non-uniform bins*
//! reproduction.
//!
//! The paper's motivation (§1) is that P2P systems like Chord cannot give
//! every peer the same selection probability: peers own *arcs* of a hash
//! ring, the longest arc is a `Θ(log n)` factor above the average, and a
//! request that hashes to a point is served by the arc's owner — so bins
//! are effectively chosen with probability proportional to arc length.
//! Byers et al. showed that probing `d ≥ 2` points and taking the least
//! loaded successor still achieves `ln ln n / ln d + Θ(1)`.
//!
//! This crate builds that whole setting from scratch:
//!
//! * [`ring::HashRing`] — a ring over the full `u64` space with peers,
//!   virtual nodes and successor lookup,
//! * [`arcs`] — arc-length statistics (verifying the `Θ(log n)` max/avg
//!   imbalance that motivates the paper),
//! * [`byers::ByersGame`] — the d-point probing game of Byers et al.,
//!   plus the bridge [`byers::ring_selection`] that converts a ring into
//!   an explicit [`bnb_core::Selection`] weight vector, connecting the
//!   P2P world to the abstract weighted game of `bnb-core`,
//! * [`chord`] — Chord-style finger tables with O(log n) lookups, to
//!   make the substrate a faithful miniature of the systems the paper
//!   cites.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arcs;
pub mod byers;
pub mod chord;
pub mod churn;
pub mod hash;
pub mod rendezvous;
pub mod ring;

pub use byers::ByersGame;
pub use chord::ChordOverlay;
pub use churn::{ChurnSimulator, MembershipRing};
pub use rendezvous::Rendezvous;
pub use ring::HashRing;
