//! Pooled Fig. 16 fidelity: the headline gain across many seeds, not one.
//!
//! `paper_fidelity.rs` pins the Fig. 16 per-client gain at the bench seed.
//! A single seed can sit anywhere in the seed-to-seed spread, so this test
//! runs the same bench-scale experiment over a fixed list of 24 seeds and
//! asserts that the *mean* of the per-client median gains lies in
//! `FIG16_GAIN_BAND`.  It also prints the median, the standard deviation
//! and the share of seeds below the band floor, which is where the gap to
//! the paper's claim of more than +150 % shows.
//!
//! The band, the seed list and the calibration are fixed: a failure here
//! is a fidelity finding to record, not a number to tune away.

use midas::experiment::FIG16_GAIN_BAND;
use midas::sim::ExperimentSpec;
use midas_net::capture::ContentionModel;
use midas_net::metrics::{relative_gain, Cdf};

/// Seeds `i·7919` for `i = 1..=24`.
const SEEDS: usize = 24;
const SEED_STRIDE: u64 = 7919;

#[test]
fn fig16_mean_per_client_gain_over_24_seeds_is_in_band() {
    let spec = ExperimentSpec::fig16(ContentionModel::physical_calibrated());
    let gains: Vec<f64> = (1..=SEEDS as u64)
        .map(|i| {
            let s = spec.run(i * SEED_STRIDE).expect_end_to_end();
            relative_gain(
                Cdf::new(&s.per_client.das).median(),
                Cdf::new(&s.per_client.cas).median(),
            )
        })
        .collect();
    let n = gains.len() as f64;
    let mean = gains.iter().sum::<f64>() / n;
    let sd = (gains.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / (n - 1.0)).sqrt();
    let median = Cdf::new(&gains).median();
    let (lo, hi) = FIG16_GAIN_BAND;
    let below = gains.iter().filter(|&&g| g < lo).count();
    println!(
        "Fig. 16 per-client median gain over {SEEDS} seeds: mean {:+.1} %, median {:+.1} %, \
         sd {:.1} %, {below} of {SEEDS} seeds below the {:+.0} % band floor",
        100.0 * mean,
        100.0 * median,
        100.0 * sd,
        100.0 * lo
    );
    assert!(
        (lo..=hi).contains(&mean),
        "Fig. 16 mean per-client gain {:.1} % over {SEEDS} seeds outside accepted band \
         [{:.0} %, {:.0} %] (paper: >150 %)",
        100.0 * mean,
        100.0 * lo,
        100.0 * hi
    );
}
