//! Golden-median regression tests for every `ExperimentSpec` variant the
//! `SeedSweep`-based runners serve: series are unchanged vs pinned values — the exact medians the
//! serial, hand-rolled loops produced before the engine refactor (for the
//! two historically RNG-sharing runners, the values pinned are the
//! per-trial-RNG ones introduced with the engine).
//!
//! Thread-count invariance via `MIDAS_THREADS` lives in its own test binary
//! (`midas_threads_env.rs`): mutating the environment from a test that runs
//! in parallel with siblings reading it would be a libc-level data race.

use midas::sim::ExperimentSpec;
use midas_channel::EnvironmentKind;
use midas_net::capture::ContentionModel;
use midas_net::metrics::Cdf;

fn median(samples: &[f64]) -> f64 {
    Cdf::new(samples).median()
}

// Golden medians at the seeds the unit tests use.  Originally captured from
// the serial pre-engine runners (and, for the per-trial-RNG runners, at the
// engine's introduction); the precoder-dependent values were re-pinned when
// `zfbf_directions` switched from the SVD pseudoinverse to the QR route
// (same pseudoinverse to ~1e-10, different last-ulp rounding) — the
// topology/contention-only runners (figs. 7, 12, 13, §5.3.4) kept their
// original values, pinning that the spatial-index scan rewrite is exact.
// Exact equality: the engine guarantees bit-identical series.

#[test]
fn fig03_golden_medians() {
    let s = ExperimentSpec::NaiveScalingDrop { topologies: 15 }
        .run(1)
        .expect_paired();
    assert_eq!(median(&s.cas), 2.2461738755511247);
    assert_eq!(median(&s.das), 4.743334572147058);
}

#[test]
fn fig07_golden_medians() {
    let s = ExperimentSpec::LinkSnr { topologies: 15 }
        .run(2)
        .expect_paired();
    assert_eq!(median(&s.cas), 12.800544789561846);
    assert_eq!(median(&s.das), 22.6635266629569);
}

#[test]
fn fig08_09_golden_medians() {
    let s = ExperimentSpec::MuMimoCapacity {
        environment: EnvironmentKind::OfficeA,
        antennas: 4,
        topologies: 12,
    }
    .run(3)
    .expect_paired();
    assert_eq!(median(&s.cas), 16.821446945959018);
    assert_eq!(median(&s.das), 24.414304691170656);
}

#[test]
fn fig10_golden_medians() {
    let s = ExperimentSpec::SmartPrecoding { topologies: 15 }
        .run(4)
        .expect_smart_precoding();
    assert_eq!(median(&s.cas_naive), 10.659644196843498);
    assert_eq!(median(&s.cas_smart), 10.869870637224388);
    assert_eq!(median(&s.das_naive), 28.714182421525102);
    assert_eq!(median(&s.das_smart), 29.4048457010893);
}

#[test]
fn fig11_golden_medians() {
    let optimal = |topologies, stale_csi| {
        ExperimentSpec::OptimalComparison {
            topologies,
            stale_csi,
        }
        .run(5)
        .expect_paired()
    };
    let fresh = optimal(8, false);
    assert_eq!(median(&fresh.cas), 20.278352869423458);
    assert_eq!(median(&fresh.das), 20.278352869423458);
    let stale = optimal(4, true);
    assert_eq!(median(&stale.cas), 1.9960180885575085);
    assert_eq!(median(&stale.das), 17.576011050142867);
}

#[test]
fn fig12_golden_median() {
    let ratios = ExperimentSpec::SimultaneousTx { topologies: 20 }
        .run(6)
        .expect_ratios();
    assert_eq!(median(&ratios), 1.25);
}

#[test]
fn fig13_golden_median() {
    let dead: Vec<f64> = ExperimentSpec::Deadzones { deployments: 6 }
        .run(8)
        .expect_deadzones()
        .iter()
        .map(|d| d.das_dead as f64)
        .collect();
    assert_eq!(median(&dead), 85.5);
}

#[test]
fn sec534_golden_median() {
    let spots: Vec<f64> = ExperimentSpec::HiddenTerminals { deployments: 6 }
        .run(12)
        .expect_hidden_terminals()
        .iter()
        .map(|h| h.cas_spots as f64)
        .collect();
    assert_eq!(median(&spots), 467.5);
}

#[test]
fn fig14_golden_medians() {
    let s = ExperimentSpec::PacketTagging { topologies: 25 }
        .run(7)
        .expect_paired();
    assert_eq!(median(&s.cas), 11.207076621945118);
    assert_eq!(median(&s.das), 12.2485520098635);
}

#[test]
fn end_to_end_golden_medians() {
    // Re-pinned when a lagging channel row began catching up in one
    // skip-ahead fading step (the round loop's statistics are the same,
    // its draws are not); the session path must reproduce them bit for
    // bit.
    let s = ExperimentSpec::EndToEnd {
        eight_aps: false,
        topologies: 6,
        rounds: 10,
        contention: ContentionModel::Graph,
    }
    .run(100)
    .expect_end_to_end()
    .network;
    assert_eq!(median(&s.cas), 20.422312254218184);
    assert_eq!(median(&s.das), 21.325016455597222);
}

#[test]
fn ablation_golden_values() {
    // The tag-width ablation runs the round loop: re-pinned with the
    // end-to-end medians above.  The DAS-radius and antenna-wait ablations
    // never evolve a channel and keep their original values.
    assert_eq!(
        ExperimentSpec::TagWidth {
            widths: vec![1, 2],
            topologies: 1
        }
        .run(9)
        .expect_tag_width(),
        vec![(1, 22.404063691271112), (2, 16.880086775657634)]
    );
    assert_eq!(
        ExperimentSpec::DasRadius {
            fractions: vec![(0.2, 0.4), (0.5, 0.75)],
            topologies: 4
        }
        .run(10)
        .expect_das_radius(),
        vec![
            ((0.2, 0.4), 28.81614118545318),
            ((0.5, 0.75), 24.77614935936384)
        ]
    );
    assert_eq!(
        ExperimentSpec::AntennaWait {
            windows_us: vec![0, 34],
            trials: 200
        }
        .run(11)
        .expect_antenna_wait(),
        vec![(0, 0.0), (34, 0.615)]
    );
}
