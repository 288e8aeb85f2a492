//! # midas
//!
//! Top-level crate of the MIDAS (CoNEXT'14) reproduction: *Multiple-Input
//! Distributed Antenna Systems* for 802.11ac MU-MIMO.
//!
//! MIDAS couples a distributed-antenna (DAS) deployment of an 802.11ac AP
//! with three software mechanisms:
//!
//! 1. **Power-balanced ZFBF precoding** under the per-antenna power
//!    constraint (reverse water-filling, §3.1.2) — `midas_phy`.
//! 2. **Per-antenna carrier sensing** with opportunistic antenna selection
//!    (§3.2.2–3.2.3) — `midas_mac`.
//! 3. **Virtual packet tagging + antenna-specific DRR client selection**
//!    (§3.2.4–3.2.5) — `midas_mac`.
//!
//! This crate assembles those pieces into a small, high-level API
//! ([`SingleApSystem`], [`config::SystemConfig`]) and into the composable
//! session layer ([`sim`]): topology sources, paired experiment sessions,
//! full-buffer or on/off traffic, streaming observers, and one declarative
//! [`sim::ExperimentSpec`] per table/figure of the paper's evaluation,
//! which the benchmark harness (`crates/bench`) and the examples drive;
//! [`sim::ExperimentSpec::run`] is the one public way to run an
//! experiment.  [`experiment`] holds the figures' output types and the
//! Fig. 16 calibration band.
//!
//! ## Quick start
//!
//! ```
//! use midas::prelude::*;
//!
//! // One 4-antenna AP, four single-antenna clients, in the enterprise office.
//! let config = SystemConfig::default();
//! let system = SingleApSystem::generate(&config, 42);
//!
//! // Capacity of a 4x4 MU-MIMO downlink transmission under MIDAS and under a
//! // conventional co-located 802.11ac AP.
//! let outcome = system.downlink_comparison();
//! assert!(outcome.midas_capacity > 0.0);
//! assert!(outcome.cas_capacity > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod experiment;
pub mod runner;
pub mod sim;
pub mod system;

pub use config::SystemConfig;
pub use runner::SeedSweep;
pub use sim::{ExperimentOutput, ExperimentSpec, Session, SessionBuilder};
pub use system::{DownlinkOutcome, SingleApSystem};

/// Convenience re-exports for users of the library.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::sim::{
        ExperimentOutput, ExperimentSpec, PairedRecipe, Session, SessionBuilder, TopologySource,
    };
    pub use crate::system::{DownlinkOutcome, SingleApSystem};
    pub use midas_channel::{DeploymentKind, Environment, EnvironmentKind, SimRng};
    pub use midas_net::metrics::Cdf;
    pub use midas_phy::precoder::{Precoder, PrecoderKind};
}
