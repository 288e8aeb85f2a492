//! Enterprise-scale deployment subsystem.
//!
//! The paper's large-scale story (§5.4, Fig. 16) stops at an 8-AP floor
//! plan; this module takes the simulator to arbitrary enterprise
//! deployments — tens of APs, hundreds of clients:
//!
//! * [`grid`] — [`grid::FloorGrid`]: W×H floor grids with configurable AP
//!   spacing, wall attenuation and client placement models (uniform,
//!   hotspot-clustered, corridor), generalising the fixed testbed layouts.
//! * [`index`] — [`index::SpatialIndex`]: a uniform-grid spatial index keyed
//!   by the radio interaction range, turning the O(n²) carrier-sense /
//!   interference sweeps into O(n·k) neighbourhood queries that are
//!   bit-identical to the brute-force scans.
//! * [`association`] — pluggable client-association policies (nearest-AP
//!   RSSI, antenna-aware for DAS, load-balanced), so distributed antennas
//!   actually shape association at scale.
//! * [`scenario`] — a library of named enterprise scenarios (office,
//!   auditorium, dense apartment) wired into the experiment runners and the
//!   `enterprise_scaling` bench target.

pub mod association;
pub mod grid;
pub mod index;
pub mod scenario;

pub use association::{associate, AssociationPolicy, Reassociator};
pub use grid::{ClientPlacement, FloorGrid, FloorGridError};
pub use index::{NeighborTracker, SpatialIndex};
pub use scenario::{Scenario, ScenarioKind};
