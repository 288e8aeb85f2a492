//! # midas-net
//!
//! Multi-AP network layer for the MIDAS (CoNEXT'14) reproduction: everything
//! that happens *between* APs — carrier-sense relationships, spatial reuse,
//! coverage and hidden terminals — plus the end-to-end PHY+MAC simulator that
//! regenerates the paper's Figs. 12–16.
//!
//! * [`deployment`] — paired CAS/DAS topology generation (same APs and
//!   clients, different antenna placement) for like-for-like comparisons.
//! * [`contention`] — carrier-sense graphs between antennas and APs.
//! * [`capture`] — the physical contention model: energy-detect carrier
//!   sensing at a configurable threshold plus SINR-based capture at the
//!   receiver, selectable via `ContentionModel` (Fig. 16 calibration).
//! * [`spatial_reuse`] — the simultaneous-transmission experiment of §5.3.1
//!   (Fig. 12).
//! * [`coverage`] — dead-zone mapping of §5.3.3 (Fig. 13).
//! * [`hidden_terminal`] — the hidden-terminal spot analysis of §5.3.4.
//! * [`simulator`] — round-based end-to-end network simulation combining the
//!   MIDAS / CAS MACs with the precoders (Figs. 15 and 16).
//! * [`dynamics`] — the long-horizon mutation layer: client mobility
//!   (random waypoint, corridor flow), per-round roaming with hysteresis,
//!   all off by default (static runs stay byte-identical).
//! * [`traffic`] — the downlink workloads of [`TrafficKind`] (the paper's
//!   full buffer and on/off bursts), a pure function of the seed, the
//!   global client id and the round, deciding which clients are backlogged
//!   each round.
//! * [`observer`] — streaming per-round result consumers (`RunningSummary`
//!   is memory-flat in the round count; `Accumulate`, one plus the
//!   per-round series, rebuilds `TopologyResult` bit-for-bit).
//! * [`scale`] — the enterprise-scale subsystem: arbitrary floor grids,
//!   a uniform-grid spatial index that answers every finite-range lookup,
//!   pluggable client-association policies, and the named scenarios.
//! * [`metrics`] — CDFs and summary statistics used by every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capture;
pub mod contention;
pub mod coverage;
pub mod deployment;
pub mod dynamics;
pub mod hidden_terminal;
pub mod metrics;
pub mod observer;
pub mod scale;
mod setup;
pub mod simulator;
pub mod spatial_reuse;
pub mod traffic;

pub use capture::{ContentionModel, PhysicalConfig};
pub use dynamics::{DynamicsSpec, MobilityModel, ReassociationSpec};
pub use metrics::Cdf;
pub use observer::{Accumulate, Observer, RoundRecord, RunningSummary};
pub use scale::{AssociationPolicy, FloorGrid, Scenario, SpatialIndex};
pub use simulator::{NetworkSimConfig, NetworkSimulator, TopologyResult};
pub use traffic::TrafficKind;
