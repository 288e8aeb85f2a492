//! The session API: one composable entry point for every MIDAS experiment.
//!
//! Four PRs of per-figure free functions (`fig03_…` … `enterprise_scaling`,
//! plus duplicated `…_with_model` variants) are replaced by three
//! composable layers:
//!
//! 1. **[`TopologySource`]** — where paired CAS/DAS deployments come from:
//!    the paper's [`PairedRecipe`] layouts (single-AP, 3-AP testbed, 8-AP
//!    large-scale), the enterprise [`Scenario`](midas_net::scale::Scenario)
//!    library, or a custom impl.
//! 2. **[`SessionBuilder`] → [`Session`]** — composes a source with a
//!    [`ContentionModel`], a [`TrafficKind`] workload (the closed set of
//!    library workloads; there is no custom traffic model), round count,
//!    seed mix and worker count, then fans paired trials through the
//!    deterministic `SeedSweep` engine.  Results stream through the
//!    [`Observer`] trait: [`Accumulate`] rebuilds the full
//!    [`TopologyResult`](midas_net::simulator::TopologyResult) bit for
//!    bit, [`RunningSummary`] keeps fixed-size sums so long-horizon
//!    64-AP / 512-client runs hold peak memory flat in the round count.
//! 3. **[`ExperimentSpec`]** — every paper figure (and the beyond-paper
//!    enterprise sweep) as a declarative value with a typed
//!    [`ExperimentOutput`]; the benchmark harness and examples drive these
//!    instead of free functions.
//!
//! ## Migration from the free-function zoo
//!
//! Each former `midas::experiment` runner is one [`ExperimentSpec`]
//! variant run with [`ExperimentSpec::run`]; a bespoke `NetworkSimulator`
//! loop is `SessionBuilder::new(source)…build()` plus [`Session::run`] or
//! [`Session::stream`], and a figure recipe under other knobs is
//! [`ExperimentSpec::session_builder`] plus the knobs, then
//! [`ExperimentSpec::run_session`].
//!
//! ## Example
//!
//! ```
//! use midas::sim::{PairedRecipe, SessionBuilder, TrafficKind};
//! use midas_net::observer::RunningSummary;
//!
//! // The Fig. 15 testbed, but at 30 % duty-cycled traffic, streamed
//! // through fixed-size observers.
//! let session = SessionBuilder::new(PairedRecipe::three_ap_paper())
//!     .rounds(8)
//!     .traffic(TrafficKind::OnOff { duty: 0.3, mean_burst_rounds: 4.0 })
//!     .build();
//! for (cas, midas) in session.stream(3, 42, RunningSummary::new) {
//!     assert!(midas.mean_capacity() >= 0.0);
//!     assert!(cas.rounds() == 8);
//! }
//! ```

mod session;
mod source;
mod spec;

pub use session::{PairedSamples, Session, SessionBuilder, SessionSeries, SessionTrial};
pub use source::{PairedRecipe, TopologySource};
pub use spec::{ExperimentOutput, ExperimentSpec, LoadGainRow};

// The building blocks a session composes, re-exported so `midas::sim` is a
// one-stop import for session users.
pub use midas_net::capture::{ContentionModel, PhysicalConfig};
pub use midas_net::dynamics::{DynamicsSpec, MobilityModel, ReassociationSpec};
pub use midas_net::observer::{Accumulate, Observer, RoundRecord, RunningSummary, Tee};
pub use midas_net::simulator::{MacKind, StageTimings};
pub use midas_net::traffic::TrafficKind;
