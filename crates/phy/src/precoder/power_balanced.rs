//! MIDAS power-balanced precoding (paper §3.1.2).
//!
//! The algorithm keeps the zero-forcing directions of conventional ZFBF but
//! replaces the naïve global power scale-down with an iterative, per-stream
//! scaling driven by *reverse water-filling*:
//!
//! 1. Apply ZFBF (pseudoinverse directions) and split power equally across
//!    streams (columns of **V**).
//! 2. Find the antenna (row) `k*` that violates the per-antenna power
//!    constraint by the most.
//! 3. For that row, compute per-stream power *reductions* via reverse
//!    water-filling (Eqn. 9): streams with large precoding values on the
//!    violating antenna absorb most of the reduction because scaling them
//!    frees the most power per dB of rate lost.
//! 4. Apply the resulting per-stream weights to the *entire column* of **V**
//!    (which preserves zero forcing) and repeat from step 2 until every row
//!    satisfies the constraint.
//!
//! Two properties the paper calls out are enforced explicitly: power is only
//! ever *reduced* (so previously-fixed rows can never be re-violated and the
//! loop terminates in at most `|T|` rounds), and no stream is ever driven to
//! zero power (a floor keeps every stream alive).

use super::zfbf::zfbf_directions;
use super::{Precoder, PrecoderKind};
use crate::power;
use midas_linalg::{CMat, Complex};

/// MIDAS reverse water-filling precoder.
#[derive(Debug, Clone, Copy)]
pub struct PowerBalancedPrecoder {
    /// Smallest allowed per-stream amplitude weight.  Keeps every stream
    /// strictly above zero power as the paper requires; expressed as an
    /// amplitude (so the minimum retained power fraction is its square).
    pub min_weight: f64,
    /// Relative slack allowed on the per-antenna constraint when deciding
    /// whether a row is violating (purely numerical).
    pub tolerance: f64,
}

impl Default for PowerBalancedPrecoder {
    fn default() -> Self {
        PowerBalancedPrecoder {
            min_weight: 1e-3,
            tolerance: 1e-9,
        }
    }
}

impl PowerBalancedPrecoder {
    /// Reverse water-filling for one violating row (paper Eqn. 7–9).
    ///
    /// * `row_powers[j] = |v_{k*,j}|^2` — power stream `j` currently places on
    ///   the violating antenna.
    /// * `sinrs[j] = rho_j` — current (ZF) SINR of stream `j`.
    /// * `budget` — the per-antenna power limit `P`.
    ///
    /// Returns the per-stream amplitude weights `w_j in (0, 1]` that bring the
    /// row to the budget while minimising the sum-rate loss.
    fn reverse_waterfill(&self, row_powers: &[f64], sinrs: &[f64], budget: f64) -> Vec<f64> {
        let n = row_powers.len();
        let total: f64 = row_powers.iter().sum();
        if total <= budget * (1.0 + self.tolerance) {
            return vec![1.0; n];
        }
        let needed_reduction = total - budget;
        let min_keep = self.min_weight * self.min_weight;

        // Per-stream cap on the reduction: never remove more than
        // (1 - w_min^2) of a stream's power on this antenna.
        let caps: Vec<f64> = row_powers.iter().map(|&q| q * (1.0 - min_keep)).collect();
        let max_reduction: f64 = caps.iter().sum();
        if max_reduction <= needed_reduction {
            // Even the maximum allowed reduction cannot meet the budget
            // (pathological, e.g. a tiny budget); floor every stream.
            return vec![self.min_weight; n];
        }

        // The KKT solution (Eqn. 9) is P_j(mu) = [(1 + 1/rho_j) q_j - mu]^+
        // capped at caps[j]; total reduction is non-increasing in mu, so the
        // water level mu solving sum_j P_j(mu) = needed_reduction is found by
        // bisection.
        let reduction_at = |mu: f64| -> f64 {
            row_powers
                .iter()
                .zip(sinrs.iter())
                .zip(caps.iter())
                .map(|((&q, &rho), &cap)| {
                    let raw = (1.0 + 1.0 / rho.max(1e-12)) * q - mu;
                    raw.clamp(0.0, cap)
                })
                .sum()
        };

        let mut lo = 0.0;
        let mut hi = row_powers
            .iter()
            .zip(sinrs.iter())
            .map(|(&q, &rho)| (1.0 + 1.0 / rho.max(1e-12)) * q)
            .fold(0.0f64, f64::max);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if reduction_at(mid) > needed_reduction {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mu = 0.5 * (lo + hi);

        row_powers
            .iter()
            .zip(sinrs.iter())
            .zip(caps.iter())
            .map(|((&q, &rho), &cap)| {
                let reduction = ((1.0 + 1.0 / rho.max(1e-12)) * q - mu).clamp(0.0, cap);
                let kept = (1.0 - reduction / q).max(min_keep);
                kept.sqrt().clamp(self.min_weight, 1.0)
            })
            .collect()
    }
}

impl Precoder for PowerBalancedPrecoder {
    fn kind(&self) -> PrecoderKind {
        PrecoderKind::PowerBalanced
    }

    fn precode_matrix(&self, h: &CMat, per_antenna_power: f64, noise: f64) -> (CMat, usize) {
        assert!(
            per_antenna_power > 0.0,
            "per-antenna power must be positive"
        );
        assert!(noise > 0.0, "noise power must be positive");
        let num_antennas = h.cols();
        let num_streams = h.rows();

        // Step 1-2: ZFBF directions, equal power per stream (column).
        let mut v = zfbf_directions(h);
        let per_stream = per_antenna_power * num_antennas as f64 / num_streams as f64;
        for j in 0..v.cols() {
            v.scale_col(j, per_stream.sqrt());
        }

        // Steps 3-4: repeatedly fix the worst violating antenna.  Because
        // weights only ever shrink columns, a row that has been brought under
        // the budget can never be pushed back over it, so at most one round
        // per antenna is needed; a small extra margin guards against
        // floating-point edge cases.
        let max_rounds = num_antennas + 4;
        let mut rounds = 0;
        let mut diag: Vec<Complex> = Vec::with_capacity(num_streams);
        let mut sinrs: Vec<f64> = Vec::with_capacity(num_streams);
        let mut row_powers: Vec<f64> = Vec::with_capacity(num_streams);
        while rounds < max_rounds {
            let Some((k_star, _)) = power::worst_violating_antenna(&v, per_antenna_power) else {
                break;
            };
            rounds += 1;

            // Current ZF SINRs: with interference nulled, rho_j is the
            // noise-normalised power of the diagonal effective channel entry.
            // Only the diagonal of h·v is ever read here, so compute just
            // that (bit-identical to the full product, O(n²) not O(n³)).
            h.mul_diag_into(&v, &mut diag);
            sinrs.clear();
            sinrs.extend(diag.iter().map(|e| e.norm_sqr() / noise));
            row_powers.clear();
            row_powers.extend((0..num_streams).map(|j| v.get(k_star, j).norm_sqr()));

            let weights = self.reverse_waterfill(&row_powers, &sinrs, per_antenna_power);
            for (j, w) in weights.iter().enumerate() {
                if *w < 1.0 {
                    v.scale_col(j, *w);
                }
            }
        }

        (v, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::channel;
    use super::super::{NaiveScaledPrecoder, ZfbfPrecoder};
    use super::*;
    use midas_channel::DeploymentKind;

    #[test]
    fn satisfies_per_antenna_constraint_on_every_topology() {
        for seed in 0..25 {
            for kind in [DeploymentKind::Cas, DeploymentKind::Das] {
                let ch = channel(kind, 4, 4, 1000 + seed);
                let out =
                    PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                assert!(
                    power::satisfies_per_antenna(&out.v, ch.tx_power_mw),
                    "seed {seed} {kind:?}: per-antenna powers {:?} exceed {}",
                    power::per_antenna_powers(&out.v),
                    ch.tx_power_mw
                );
            }
        }
    }

    #[test]
    fn preserves_zero_forcing_property() {
        for seed in 0..10 {
            let ch = channel(DeploymentKind::Das, 4, 4, 2000 + seed);
            let out = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert!(
                out.sinr.max_interference() < 1e-6,
                "seed {seed}: residual interference {}",
                out.sinr.max_interference()
            );
        }
    }

    #[test]
    fn never_worse_than_naive_scaling() {
        for seed in 0..25 {
            for kind in [DeploymentKind::Cas, DeploymentKind::Das] {
                let ch = channel(kind, 4, 4, 3000 + seed);
                let pb =
                    PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                let nv = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                assert!(
                    pb.sum_capacity >= nv.sum_capacity - 1e-6,
                    "seed {seed} {kind:?}: power-balanced {:.3} < naive {:.3}",
                    pb.sum_capacity,
                    nv.sum_capacity
                );
            }
        }
    }

    #[test]
    fn never_exceeds_unconstrained_zfbf() {
        for seed in 0..15 {
            let ch = channel(DeploymentKind::Das, 4, 4, 4000 + seed);
            let pb = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            let zf = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert!(pb.sum_capacity <= zf.sum_capacity + 1e-6);
        }
    }

    #[test]
    fn gain_over_naive_is_substantial_for_das() {
        // The Fig. 10 comparison (DAS benefits more than CAS, in the paper's
        // Office B setup) is exercised end-to-end in the `midas` crate's
        // experiment tests; at this level just check that the power-balanced
        // precoder buys a clearly positive capacity gain over naïve scaling on
        // DAS channels.
        let n = 20;
        let mut das_gain = 0.0;
        for seed in 0..n {
            let ch = channel(DeploymentKind::Das, 4, 4, 5000 + seed);
            let pb = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            let nv = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            das_gain += pb.sum_capacity - nv.sum_capacity;
        }
        assert!(
            das_gain / n as f64 > 0.2,
            "mean DAS gain {:.3} bit/s/Hz too small",
            das_gain / n as f64
        );
    }

    #[test]
    fn terminates_within_antenna_count_rounds() {
        for seed in 0..20 {
            let ch = channel(DeploymentKind::Das, 4, 4, 6000 + seed);
            let out = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert!(
                out.iterations <= 4 + 4,
                "seed {seed}: took {} rounds",
                out.iterations
            );
        }
    }

    #[test]
    fn no_stream_is_silenced() {
        for seed in 0..15 {
            let ch = channel(DeploymentKind::Das, 4, 4, 7000 + seed);
            let out = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            for j in 0..4 {
                assert!(
                    out.v.col_power(j) > 0.0,
                    "seed {seed}: stream {j} was driven to zero power"
                );
                assert!(out.sinr.sinr(j) > 0.0);
            }
        }
    }

    #[test]
    fn reverse_waterfill_prefers_reducing_large_entries() {
        // Two streams, same SINR, one places 4x the power on the violating
        // antenna.  The big stream must absorb more of the reduction (smaller
        // weight) because that frees more power per dB of rate lost.
        let p = PowerBalancedPrecoder::default();
        let weights = p.reverse_waterfill(&[4.0, 1.0], &[100.0, 100.0], 3.0);
        assert!(weights[0] < weights[1], "weights {weights:?}");
        // And the row budget is met after scaling.
        let after: f64 = [4.0, 1.0]
            .iter()
            .zip(weights.iter())
            .map(|(&q, &w)| q * w * w)
            .sum();
        assert!(after <= 3.0 * 1.01, "row power after scaling {after}");
    }

    #[test]
    fn reverse_waterfill_no_violation_returns_unit_weights() {
        let p = PowerBalancedPrecoder::default();
        let w = p.reverse_waterfill(&[0.5, 0.3], &[10.0, 10.0], 1.0);
        assert_eq!(w, vec![1.0, 1.0]);
    }

    #[test]
    fn reverse_waterfill_handles_tiny_budget_with_floor() {
        let p = PowerBalancedPrecoder {
            min_weight: 0.05,
            ..Default::default()
        };
        let w = p.reverse_waterfill(&[1.0, 1.0], &[10.0, 10.0], 1e-9);
        assert!(w.iter().all(|&x| (x - 0.05).abs() < 1e-12));
    }

    #[test]
    fn works_for_2x2_and_rectangular_configurations() {
        for (antennas, clients, seed) in [(2usize, 2usize, 1u64), (4, 2, 2), (4, 3, 3)] {
            let ch = channel(DeploymentKind::Das, antennas, clients, 8000 + seed);
            let out = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert_eq!((out.v.rows(), out.v.cols()), (antennas, clients));
            assert!(power::satisfies_per_antenna(&out.v, ch.tx_power_mw));
            assert!(out.sum_capacity > 0.0);
        }
    }
}
