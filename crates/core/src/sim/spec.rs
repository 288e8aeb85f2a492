//! Declarative experiment specifications: every table/figure of the paper's
//! evaluation as a value.
//!
//! An [`ExperimentSpec`] names one experiment *and its scale* (topology
//! count, rounds, contention model, …); [`ExperimentSpec::run`] executes it
//! through the session machinery and returns a typed [`ExperimentOutput`].
//! The benchmark harness and the examples construct specs instead of
//! calling per-figure free functions, so adding an experiment means adding
//! a variant — not another function zoo.
//!
//! The numbered constructors ([`ExperimentSpec::fig03`] …) pin the bench
//! scale of each paper figure (the sample counts the figure targets print
//! at `midas_bench::BENCH_SEED`).

use crate::experiment::{
    ablation_antenna_wait, ablation_das_radius, ablation_tag_width, fig03_naive_scaling_drop,
    fig07_link_snr, fig08_09_capacity, fig10_smart_precoding, fig11_optimal_comparison,
    fig12_simultaneous_tx, fig13_deadzones, fig14_packet_tagging, fig16_calibration,
    sec534_hidden_terminals, CalibrationCell, CalibrationGrid, EnterpriseScalingSeries,
    SmartPrecodingSeries,
};
use crate::sim::session::{PairedSamples, Session, SessionBuilder, SessionSeries, SessionTrial};
use crate::sim::source::PairedRecipe;
use midas_channel::{Environment, EnvironmentKind};
use midas_net::capture::ContentionModel;
use midas_net::contention::ContentionGraph;
use midas_net::coverage::DeadzoneComparison;
use midas_net::dynamics::DynamicsSpec;
use midas_net::hidden_terminal::HiddenTerminalComparison;
use midas_net::scale::scenario::INTERACTION_MARGIN_DB;
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, TopologyResult};
use midas_net::traffic::TrafficKind;

/// One experiment of the paper's evaluation (plus the beyond-paper
/// enterprise sweep), as a value.  See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentSpec {
    /// Fig. 3 — capacity drop caused by naïve per-antenna power scaling.
    NaiveScalingDrop {
        /// Random topologies sampled.
        topologies: usize,
    },
    /// Fig. 7 — SISO link SNR across clients, CAS vs DAS.
    LinkSnr {
        /// Random topologies sampled.
        topologies: usize,
    },
    /// Figs. 8 / 9 — MU-MIMO sum-capacity, CAS vs MIDAS precoding.
    MuMimoCapacity {
        /// Propagation environment (Office A for Fig. 8, B for Fig. 9).
        environment: EnvironmentKind,
        /// Antenna (= client) count per AP.
        antennas: usize,
        /// Random topologies sampled.
        topologies: usize,
    },
    /// Fig. 10 — power-balanced precoding on CAS and DAS separately.
    SmartPrecoding {
        /// Random topologies sampled.
        topologies: usize,
    },
    /// Fig. 11 — MIDAS precoder vs the numerically optimal precoder.
    OptimalComparison {
        /// Random topologies sampled.
        topologies: usize,
        /// Apply the optimal precoder to ~2 s-stale CSI (the testbed
        /// panel).
        stale_csi: bool,
    },
    /// Fig. 12 — ratio of simultaneous transmissions, MIDAS / CAS.
    SimultaneousTx {
        /// Random 3-AP topologies sampled.
        topologies: usize,
    },
    /// Fig. 13 / §5.3.3 — dead-zone comparison.
    Deadzones {
        /// Random deployments sampled.
        deployments: usize,
    },
    /// §5.3.4 — hidden-terminal spots removed by the DAS deployment.
    HiddenTerminals {
        /// Random deployments sampled.
        deployments: usize,
    },
    /// Fig. 14 — virtual packet tagging vs random client selection.
    PacketTagging {
        /// Random topologies sampled.
        topologies: usize,
    },
    /// Figs. 15 / 16 — end-to-end network capacity, CAS vs MIDAS, over
    /// random multi-AP topologies.  Both MACs run the same contention
    /// model: the paper's testbed CAS is subject to the same carrier
    /// sensing and capture effects as MIDAS, only with co-located vantage
    /// points.
    EndToEnd {
        /// 8-AP large-scale layout (Fig. 16) instead of the 3-AP testbed
        /// (Fig. 15).
        eight_aps: bool,
        /// Random topologies sampled.
        topologies: usize,
        /// TXOP rounds per topology.
        rounds: usize,
        /// Contention semantics both MACs run under.
        contention: ContentionModel,
    },
    /// Fig. 16 calibration — {CS × margin × σ} grid sweep of the physical
    /// model.
    Fig16Calibration {
        /// The parameter grid to score.
        grid: CalibrationGrid,
        /// Random topologies per cell.
        topologies: usize,
        /// TXOP rounds per topology.
        rounds: usize,
    },
    /// Beyond Fig. 16 — enterprise scenario sweep at scale.  Runs with the
    /// finite interaction range that activates the spatial-index scan
    /// truncation, which is what keeps 64-AP / 512-client floors tractable.
    EnterpriseScaling {
        /// The floor scenario (`midas_net::scale`).
        scenario: Scenario,
        /// Random floor realisations.
        topologies: usize,
        /// TXOP rounds per realisation.
        rounds: usize,
    },
    /// Beyond the paper — MIDAS-vs-CAS capacity gain as a function of
    /// offered load, with optional long-horizon client mobility.  Each duty
    /// cycle becomes one on/off workload point on the 3-AP testbed; the
    /// row reports the paired median network capacities and their ratio.
    LoadVsGain {
        /// On/off duty cycles swept (offered-load points, each in `[0, 1]`).
        duty_cycles: Vec<f64>,
        /// Random topologies per point.
        topologies: usize,
        /// TXOP rounds per topology.
        rounds: usize,
        /// Walker speed (m/s) for the roaming-walk dynamics layer; `0`
        /// keeps the sweep static (byte-identical to the legacy pipeline).
        speed_mps: f64,
    },
    /// Ablation — tag-width sweep (§3.2.4).
    TagWidth {
        /// Tag widths to sweep.
        widths: Vec<usize>,
        /// Random topologies per width.
        topologies: usize,
    },
    /// Ablation — DAS placement radius sweep (§7).
    DasRadius {
        /// `(lo, hi)` annulus bounds as fractions of the coverage range.
        fractions: Vec<(f64, f64)>,
        /// Random topologies per band.
        topologies: usize,
    },
    /// Ablation — opportunistic antenna-wait window sweep (§3.2.3).
    AntennaWait {
        /// Wait windows (µs) to sweep.
        windows_us: Vec<u64>,
        /// Random busy patterns per window.
        trials: usize,
    },
}

impl ExperimentSpec {
    /// Fig. 3 at bench scale.
    pub fn fig03() -> Self {
        ExperimentSpec::NaiveScalingDrop { topologies: 60 }
    }

    /// Fig. 7 at bench scale.
    pub fn fig07() -> Self {
        ExperimentSpec::LinkSnr { topologies: 60 }
    }

    /// Fig. 8 (Office A) / Fig. 9 (Office B) at bench scale, one antenna
    /// count per spec.
    pub fn fig08_09(environment: EnvironmentKind, antennas: usize) -> Self {
        ExperimentSpec::MuMimoCapacity {
            environment,
            antennas,
            topologies: 60,
        }
    }

    /// Fig. 10 at bench scale.
    pub fn fig10() -> Self {
        ExperimentSpec::SmartPrecoding { topologies: 60 }
    }

    /// Fig. 11 at bench scale (one panel per `stale_csi` value).
    pub fn fig11(stale_csi: bool) -> Self {
        ExperimentSpec::OptimalComparison {
            topologies: 20,
            stale_csi,
        }
    }

    /// Fig. 12 at bench scale.
    pub fn fig12() -> Self {
        ExperimentSpec::SimultaneousTx { topologies: 30 }
    }

    /// Fig. 13 at bench scale.
    pub fn fig13() -> Self {
        ExperimentSpec::Deadzones { deployments: 10 }
    }

    /// §5.3.4 at bench scale.
    pub fn sec534() -> Self {
        ExperimentSpec::HiddenTerminals { deployments: 10 }
    }

    /// Fig. 14 at bench scale.
    pub fn fig14() -> Self {
        ExperimentSpec::PacketTagging { topologies: 60 }
    }

    /// Fig. 15 (3-AP end-to-end, binary graph) at bench scale.
    pub fn fig15() -> Self {
        ExperimentSpec::EndToEnd {
            eight_aps: false,
            topologies: 30,
            rounds: 15,
            contention: ContentionModel::Graph,
        }
    }

    /// Fig. 16 (8-AP end-to-end) at bench scale, under the given contention
    /// model.
    pub fn fig16(contention: ContentionModel) -> Self {
        ExperimentSpec::EndToEnd {
            eight_aps: true,
            topologies: 15,
            rounds: 10,
            contention,
        }
    }

    /// The stable name of this experiment (the figure slug the bench
    /// targets and sinks use).
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentSpec::NaiveScalingDrop { .. } => "fig03_naive_scaling_drop",
            ExperimentSpec::LinkSnr { .. } => "fig07_link_snr",
            ExperimentSpec::MuMimoCapacity { .. } => "fig08_09_capacity",
            ExperimentSpec::SmartPrecoding { .. } => "fig10_smart_precoding",
            ExperimentSpec::OptimalComparison { .. } => "fig11_optimal_comparison",
            ExperimentSpec::SimultaneousTx { .. } => "fig12_simultaneous_tx",
            ExperimentSpec::Deadzones { .. } => "fig13_deadzone",
            ExperimentSpec::HiddenTerminals { .. } => "sec534_hidden_terminals",
            ExperimentSpec::PacketTagging { .. } => "fig14_packet_tagging",
            ExperimentSpec::EndToEnd {
                eight_aps: false, ..
            } => "fig15_three_ap_end_to_end",
            ExperimentSpec::EndToEnd {
                eight_aps: true, ..
            } => "fig16_eight_ap_simulation",
            ExperimentSpec::Fig16Calibration { .. } => "fig16_calibration",
            ExperimentSpec::EnterpriseScaling { .. } => "enterprise_scaling",
            ExperimentSpec::LoadVsGain { .. } => "load_vs_gain",
            ExperimentSpec::TagWidth { .. } => "ablation_tag_width",
            ExperimentSpec::DasRadius { .. } => "ablation_das_radius",
            ExperimentSpec::AntennaWait { .. } => "ablation_antenna_wait",
        }
    }

    /// Runs the experiment at `seed`.  Deterministic in the seed and
    /// bit-identical at any `MIDAS_THREADS` setting; at the seeds the unit
    /// tests pin, every output reproduces the pre-redesign free functions
    /// byte for byte (see `crates/core/tests/runner_determinism.rs`).
    pub fn run(&self, seed: u64) -> ExperimentOutput {
        match self {
            ExperimentSpec::NaiveScalingDrop { topologies } => {
                ExperimentOutput::Paired(fig03_naive_scaling_drop(*topologies, seed))
            }
            ExperimentSpec::LinkSnr { topologies } => {
                ExperimentOutput::Paired(fig07_link_snr(*topologies, seed))
            }
            ExperimentSpec::MuMimoCapacity {
                environment,
                antennas,
                topologies,
            } => ExperimentOutput::Paired(fig08_09_capacity(
                *environment,
                *antennas,
                *topologies,
                seed,
            )),
            ExperimentSpec::SmartPrecoding { topologies } => {
                ExperimentOutput::SmartPrecoding(fig10_smart_precoding(*topologies, seed))
            }
            ExperimentSpec::OptimalComparison {
                topologies,
                stale_csi,
            } => ExperimentOutput::Paired(fig11_optimal_comparison(*topologies, *stale_csi, seed)),
            ExperimentSpec::SimultaneousTx { topologies } => {
                ExperimentOutput::Ratios(fig12_simultaneous_tx(*topologies, seed))
            }
            ExperimentSpec::Deadzones { deployments } => {
                ExperimentOutput::Deadzones(fig13_deadzones(*deployments, seed))
            }
            ExperimentSpec::HiddenTerminals { deployments } => {
                ExperimentOutput::HiddenTerminals(sec534_hidden_terminals(*deployments, seed))
            }
            ExperimentSpec::PacketTagging { topologies } => {
                ExperimentOutput::Paired(fig14_packet_tagging(*topologies, seed))
            }
            ExperimentSpec::EndToEnd { .. } | ExperimentSpec::EnterpriseScaling { .. } => {
                let builder = self.session_builder().expect("session-driven experiment");
                self.run_session(builder, seed, &|trial: &SessionTrial<'_>, mac| {
                    Some(trial.simulate(mac))
                })
                .expect("plain simulation never stops early")
            }
            ExperimentSpec::Fig16Calibration {
                grid,
                topologies,
                rounds,
            } => ExperimentOutput::Calibration(fig16_calibration(grid, *topologies, *rounds, seed)),
            ExperimentSpec::LoadVsGain {
                duty_cycles,
                topologies,
                rounds,
                speed_mps,
            } => ExperimentOutput::LoadVsGain(load_vs_gain(
                duty_cycles,
                *topologies,
                *rounds,
                *speed_mps,
                seed,
            )),
            ExperimentSpec::TagWidth { widths, topologies } => {
                ExperimentOutput::TagWidth(ablation_tag_width(widths, *topologies, seed))
            }
            ExperimentSpec::DasRadius {
                fractions,
                topologies,
            } => ExperimentOutput::DasRadius(ablation_das_radius(fractions, *topologies, seed)),
            ExperimentSpec::AntennaWait { windows_us, trials } => {
                ExperimentOutput::AntennaWait(ablation_antenna_wait(windows_us, *trials, seed))
            }
        }
    }

    /// The session recipe of a session-driven experiment — the Figs. 15 /
    /// 16 end-to-end runs and the enterprise sweep: topology source,
    /// rounds, contention and the historical seed mix.  `None` for the
    /// experiments that run their own fixed recipe.  Callers apply their
    /// knobs (traffic, dynamics, workers, …) to the returned
    /// builder and pass it to [`ExperimentSpec::run_session`].
    pub fn session_builder(&self) -> Option<SessionBuilder> {
        match self {
            ExperimentSpec::EndToEnd {
                eight_aps,
                rounds,
                contention,
                ..
            } => {
                let recipe = if *eight_aps {
                    PairedRecipe::eight_ap_paper()
                } else {
                    PairedRecipe::three_ap_paper()
                };
                Some(
                    SessionBuilder::new(recipe)
                        .rounds(*rounds)
                        .contention(*contention)
                        .seed_mix(193, 61),
                )
            }
            ExperimentSpec::EnterpriseScaling {
                scenario, rounds, ..
            } => Some(
                SessionBuilder::new(*scenario)
                    .rounds(*rounds)
                    .seed_mix(1021, 101),
            ),
            _ => None,
        }
    }

    /// Runs a session-driven experiment over `builder` (its
    /// [`ExperimentSpec::session_builder`], with any caller knobs applied):
    /// the spec's topology count, each trial's per-MAC simulation through
    /// `simulate` (CAS first, then MIDAS), the per-trial reduction and the
    /// row assembly order.  [`ExperimentSpec::run`] passes
    /// [`SessionTrial::simulate`]; the job service passes a hook that also
    /// streams the round log and stops on cancellation.  Returns `None` when
    /// any call of `simulate` does.
    ///
    /// # Panics
    /// Panics when the experiment is not session-driven.
    pub fn run_session(
        &self,
        builder: SessionBuilder,
        seed: u64,
        simulate: &(dyn Fn(&SessionTrial<'_>, MacKind) -> Option<TopologyResult> + Sync),
    ) -> Option<ExperimentOutput> {
        let session = builder.build();
        match self {
            ExperimentSpec::EndToEnd { topologies, .. } => session
                .run_with(*topologies, seed, simulate)
                .map(ExperimentOutput::EndToEnd),
            ExperimentSpec::EnterpriseScaling {
                scenario,
                topologies,
                ..
            } => enterprise_series(
                &session,
                scenario.environment(),
                *topologies,
                seed,
                simulate,
            )
            .map(ExperimentOutput::Enterprise),
            other => panic!("{} is not session-driven", other.name()),
        }
    }
}

/// The enterprise sweep's trials: paired simulations through `simulate`
/// plus the DAS deployment's contention degree, one row per topology.
fn enterprise_series(
    session: &Session,
    env: Environment,
    topologies: usize,
    seed: u64,
    simulate: &(dyn Fn(&SessionTrial<'_>, MacKind) -> Option<TopologyResult> + Sync),
) -> Option<EnterpriseScalingSeries> {
    let rows = session.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
        let cas = simulate(trial, MacKind::Cas)?;
        let das = simulate(trial, MacKind::Midas)?;
        // Structural diagnostic: range-limited AP contention degree of the
        // DAS deployment (same frozen shadowing field as the simulator).
        let graph = ContentionGraph::new(env, trial.seed() ^ 0x5151);
        let topo = &trial.pair().das;
        let pairs =
            graph.ap_adjacency_indexed(topo, env.interaction_range_m(INTERACTION_MARGIN_DB));
        let degree = (2 * pairs.len()) as f64 / topo.aps.len().max(1) as f64;
        Some((
            cas.mean_capacity(),
            das.mean_capacity(),
            cas.mean_streams(),
            das.mean_streams(),
            das.per_ap_mean_capacity(),
            das.per_ap_duty_cycle(),
            degree,
        ))
    });
    let mut out = EnterpriseScalingSeries::default();
    for row in rows {
        let (cas, das, cas_streams, das_streams, per_ap_cap, per_ap_duty, degree) = row?;
        out.cas.push(cas);
        out.das.push(das);
        out.cas_streams.push(cas_streams);
        out.das_streams.push(das_streams);
        out.das_per_ap_capacity.extend(per_ap_cap);
        out.das_per_ap_duty.extend(per_ap_duty);
        out.das_contention_degree.push(degree);
    }
    Some(out)
}

/// One offered-load point of an [`ExperimentSpec::LoadVsGain`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGainRow {
    /// The on/off duty cycle this row was measured at.
    pub duty: f64,
    /// Median CAS network capacity across topologies (bit/s/Hz).
    pub cas_median: f64,
    /// Median MIDAS network capacity across topologies (bit/s/Hz).
    pub das_median: f64,
    /// `das_median / cas_median` — the headline gain at this load.
    pub gain: f64,
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Sweeps MIDAS-vs-CAS gain against offered load on the 3-AP testbed,
/// optionally under the roaming-walk dynamics layer (`speed_mps > 0`).
fn load_vs_gain(
    duty_cycles: &[f64],
    topologies: usize,
    rounds: usize,
    speed_mps: f64,
    seed: u64,
) -> Vec<LoadGainRow> {
    duty_cycles
        .iter()
        .map(|&duty| {
            let mut builder = SessionBuilder::new(PairedRecipe::three_ap_paper())
                .rounds(rounds)
                .traffic(TrafficKind::OnOff {
                    duty,
                    mean_burst_rounds: 4.0,
                });
            if speed_mps > 0.0 {
                builder = builder.dynamics(DynamicsSpec::roaming_walk(speed_mps));
            }
            let series = builder.build().run(topologies, seed);
            let cas_median = median(&series.network.cas);
            let das_median = median(&series.network.das);
            LoadGainRow {
                duty,
                cas_median,
                das_median,
                gain: das_median / cas_median,
            }
        })
        .collect()
}

/// The typed result of an [`ExperimentSpec::run`].
///
/// Each variant carries the same series type the corresponding legacy
/// runner returned; the `expect_*` accessors unwrap with a clear panic
/// message for callers (benches) that know which experiment they ran.
#[derive(Debug, Clone)]
pub enum ExperimentOutput {
    /// Paired CAS/DAS samples (Figs. 3, 7, 8, 9, 11, 14).
    Paired(PairedSamples),
    /// The four Fig. 10 capacity series.
    SmartPrecoding(SmartPrecodingSeries),
    /// A single per-topology series (Fig. 12 ratios).
    Ratios(Vec<f64>),
    /// Per-deployment dead-zone comparisons (Fig. 13).
    Deadzones(Vec<DeadzoneComparison>),
    /// Per-deployment hidden-terminal comparisons (§5.3.4).
    HiddenTerminals(Vec<HiddenTerminalComparison>),
    /// Network + per-client paired series (Figs. 15 / 16).
    EndToEnd(SessionSeries),
    /// Scored calibration cells (Fig. 16 calibration).
    Calibration(Vec<CalibrationCell>),
    /// The enterprise-scaling diagnostic series.
    Enterprise(EnterpriseScalingSeries),
    /// One row per duty cycle of the load-vs-gain sweep.
    LoadVsGain(Vec<LoadGainRow>),
    /// `(tag_width, mean capacity)` rows.
    TagWidth(Vec<(usize, f64)>),
    /// `((lo, hi) fraction band, median capacity)` rows.
    DasRadius(Vec<((f64, f64), f64)>),
    /// `(wait window µs, fraction of trials gaining an antenna)` rows.
    AntennaWait(Vec<(u64, f64)>),
}

impl ExperimentOutput {
    /// Unwraps a [`ExperimentOutput::Paired`] result.
    pub fn expect_paired(self) -> PairedSamples {
        match self {
            ExperimentOutput::Paired(s) => s,
            other => panic!("expected paired samples, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::SmartPrecoding`] result.
    pub fn expect_smart_precoding(self) -> SmartPrecodingSeries {
        match self {
            ExperimentOutput::SmartPrecoding(s) => s,
            other => panic!(
                "expected smart-precoding series, got {}",
                other.variant_name()
            ),
        }
    }

    /// Unwraps a [`ExperimentOutput::Ratios`] result.
    pub fn expect_ratios(self) -> Vec<f64> {
        match self {
            ExperimentOutput::Ratios(s) => s,
            other => panic!("expected ratio series, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::Deadzones`] result.
    pub fn expect_deadzones(self) -> Vec<DeadzoneComparison> {
        match self {
            ExperimentOutput::Deadzones(s) => s,
            other => panic!("expected dead-zone series, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::HiddenTerminals`] result.
    pub fn expect_hidden_terminals(self) -> Vec<HiddenTerminalComparison> {
        match self {
            ExperimentOutput::HiddenTerminals(s) => s,
            other => panic!(
                "expected hidden-terminal series, got {}",
                other.variant_name()
            ),
        }
    }

    /// Unwraps a [`ExperimentOutput::EndToEnd`] result.
    pub fn expect_end_to_end(self) -> SessionSeries {
        match self {
            ExperimentOutput::EndToEnd(s) => s,
            other => panic!("expected end-to-end series, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::Calibration`] result.
    pub fn expect_calibration(self) -> Vec<CalibrationCell> {
        match self {
            ExperimentOutput::Calibration(s) => s,
            other => panic!("expected calibration cells, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::Enterprise`] result.
    pub fn expect_enterprise(self) -> EnterpriseScalingSeries {
        match self {
            ExperimentOutput::Enterprise(s) => s,
            other => panic!("expected enterprise series, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::LoadVsGain`] result.
    pub fn expect_load_vs_gain(self) -> Vec<LoadGainRow> {
        match self {
            ExperimentOutput::LoadVsGain(s) => s,
            other => panic!("expected load-vs-gain rows, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::TagWidth`] result.
    pub fn expect_tag_width(self) -> Vec<(usize, f64)> {
        match self {
            ExperimentOutput::TagWidth(s) => s,
            other => panic!("expected tag-width rows, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::DasRadius`] result.
    pub fn expect_das_radius(self) -> Vec<((f64, f64), f64)> {
        match self {
            ExperimentOutput::DasRadius(s) => s,
            other => panic!("expected DAS-radius rows, got {}", other.variant_name()),
        }
    }

    /// Unwraps a [`ExperimentOutput::AntennaWait`] result.
    pub fn expect_antenna_wait(self) -> Vec<(u64, f64)> {
        match self {
            ExperimentOutput::AntennaWait(s) => s,
            other => panic!("expected antenna-wait rows, got {}", other.variant_name()),
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            ExperimentOutput::Paired(_) => "Paired",
            ExperimentOutput::SmartPrecoding(_) => "SmartPrecoding",
            ExperimentOutput::Ratios(_) => "Ratios",
            ExperimentOutput::Deadzones(_) => "Deadzones",
            ExperimentOutput::HiddenTerminals(_) => "HiddenTerminals",
            ExperimentOutput::EndToEnd(_) => "EndToEnd",
            ExperimentOutput::Calibration(_) => "Calibration",
            ExperimentOutput::Enterprise(_) => "Enterprise",
            ExperimentOutput::LoadVsGain(_) => "LoadVsGain",
            ExperimentOutput::TagWidth(_) => "TagWidth",
            ExperimentOutput::DasRadius(_) => "DasRadius",
            ExperimentOutput::AntennaWait(_) => "AntennaWait",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_are_the_figure_slugs() {
        assert_eq!(ExperimentSpec::fig03().name(), "fig03_naive_scaling_drop");
        assert_eq!(ExperimentSpec::fig15().name(), "fig15_three_ap_end_to_end");
        assert_eq!(
            ExperimentSpec::fig16(ContentionModel::Graph).name(),
            "fig16_eight_ap_simulation"
        );
        assert_eq!(
            ExperimentSpec::EnterpriseScaling {
                scenario: Scenario::auditorium(8),
                topologies: 1,
                rounds: 1,
            }
            .name(),
            "enterprise_scaling"
        );
    }

    #[test]
    #[should_panic(expected = "expected paired samples")]
    fn expect_accessors_panic_with_the_variant_name() {
        ExperimentOutput::Ratios(vec![1.0]).expect_paired();
    }
}
