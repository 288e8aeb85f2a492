//! Numerically optimal power allocation over the zero-forcing directions.
//!
//! The paper compares MIDAS's lightweight precoder against "the optimal
//! precoding through the MATLAB numerical toolbox" (Fig. 11): the solution of
//! the sum-rate maximisation of Eqn. 1 subject to the zero-forcing
//! constraint (Eqn. 2b) and the per-antenna power constraint (Eqn. 3).
//! With the ZF directions fixed, the problem reduces to a concave
//! maximisation over the per-stream powers `p_j >= 0`:
//!
//! ```text
//! maximise   sum_j log2(1 + gamma_j * p_j)
//! subject to sum_j a_kj * p_j <= P      for every antenna k
//! ```
//!
//! where `gamma_j` is stream `j`'s SNR per unit transmit power along its ZF
//! direction and `a_kj` the fraction of stream `j`'s power radiated by
//! antenna `k`.  We solve it with dual (sub)gradient ascent — the classic
//! water-filling-with-multipliers structure — which converges for this convex
//! problem; it is orders of magnitude slower than MIDAS's closed-form reverse
//! water-filling, which is exactly the paper's point.

use super::power_balanced::PowerBalancedPrecoder;
use super::zfbf::zfbf_directions;
use super::{Precoder, PrecoderKind};
use crate::capacity::sum_capacity;
use crate::sinr::SinrMatrix;
use midas_linalg::CMat;

/// Dual-ascent solver for the per-antenna-constrained ZF power allocation.
#[derive(Debug, Clone, Copy)]
pub struct OptimalPrecoder {
    /// Number of dual (sub)gradient iterations.
    pub iterations: usize,
    /// Initial dual step size (scaled by 1/sqrt(t) over iterations).
    pub initial_step: f64,
}

impl Default for OptimalPrecoder {
    fn default() -> Self {
        OptimalPrecoder {
            iterations: 4000,
            initial_step: 1.0,
        }
    }
}

impl OptimalPrecoder {
    /// Creates a solver with a custom iteration budget.
    pub fn with_iterations(iterations: usize) -> Self {
        OptimalPrecoder {
            iterations,
            ..Default::default()
        }
    }
}

impl Precoder for OptimalPrecoder {
    fn kind(&self) -> PrecoderKind {
        PrecoderKind::Optimal
    }

    fn precode_matrix(&self, h: &CMat, per_antenna_power: f64, noise: f64) -> (CMat, usize) {
        assert!(per_antenna_power > 0.0 && noise > 0.0);
        let num_antennas = h.cols();
        let num_streams = h.rows();

        // ZF directions (unit column power) and the induced per-antenna
        // weights a_kj = |u_kj|^2 (columns already unit-norm) plus the
        // per-unit-power SNR gamma_j = |h_j . u_j|^2 / noise.
        let dirs = zfbf_directions(h);
        let eff = h.mul(&dirs);
        let gamma: Vec<f64> = (0..num_streams)
            .map(|j| eff.get(j, j).norm_sqr() / noise)
            .collect();
        let a: Vec<Vec<f64>> = (0..num_antennas)
            .map(|k| {
                (0..num_streams)
                    .map(|j| dirs.get(k, j).norm_sqr())
                    .collect()
            })
            .collect();

        // Dual ascent on the antenna multipliers lambda_k >= 0.
        // For fixed lambda the inner maximisation has the water-filling form
        //   p_j = [ 1/(ln2 * sum_k lambda_k a_kj) - 1/gamma_j ]^+ .
        let ln2 = std::f64::consts::LN_2;
        let mut lambda = vec![1.0 / per_antenna_power; num_antennas];
        let mut best_p: Vec<f64> = vec![0.0; num_streams];
        let mut best_rate = f64::NEG_INFINITY;

        let primal = |lambda: &[f64]| -> Vec<f64> {
            (0..num_streams)
                .map(|j| {
                    let weight: f64 = (0..num_antennas).map(|k| lambda[k] * a[k][j]).sum();
                    if weight <= 0.0 {
                        // Unbounded direction; cap at the single-antenna budget
                        // implied by the largest a_kj to stay finite.
                        let max_a = (0..num_antennas).map(|k| a[k][j]).fold(1e-12, f64::max);
                        return per_antenna_power / max_a;
                    }
                    (1.0 / (ln2 * weight) - 1.0 / gamma[j].max(1e-18)).max(0.0)
                })
                .collect()
        };

        for t in 0..self.iterations {
            let p = primal(&lambda);
            // Feasibility projection: uniformly scale p down so every antenna
            // meets its budget, then score the resulting feasible point.
            let mut worst_ratio = 0.0f64;
            for (k, row) in a.iter().enumerate() {
                let used: f64 = row.iter().zip(p.iter()).map(|(&akj, &pj)| akj * pj).sum();
                worst_ratio = worst_ratio.max(used / per_antenna_power);
                // Dual subgradient step.
                let step = self.initial_step / ((t + 1) as f64).sqrt() / per_antenna_power;
                lambda[k] =
                    (lambda[k] + step * (used - per_antenna_power) / per_antenna_power).max(0.0);
            }
            let feasible: Vec<f64> = if worst_ratio > 1.0 {
                p.iter().map(|&x| x / worst_ratio).collect()
            } else {
                p.clone()
            };
            let rate: f64 = feasible
                .iter()
                .zip(gamma.iter())
                .map(|(&pj, &gj)| (1.0 + gj * pj).log2())
                .sum();
            if rate > best_rate {
                best_rate = rate;
                best_p = feasible;
            }
        }

        // Warm comparison with the reverse water-filling heuristic: both are
        // feasible points of the same convex problem, so taking the better of
        // the two can only tighten the "optimal" upper bound when the dual
        // ascent has not fully converged.
        let (heuristic, _) =
            PowerBalancedPrecoder::default().precode_matrix(h, per_antenna_power, noise);
        let mut v = dirs;
        for (j, &pj) in best_p.iter().enumerate() {
            v.scale_col(j, pj.max(0.0).sqrt());
        }
        let capacity = |v: &CMat| sum_capacity(&SinrMatrix::compute(h, v, noise));
        if capacity(&heuristic) > capacity(&v) {
            (heuristic, self.iterations)
        } else {
            (v, self.iterations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::channel;
    use super::super::{NaiveScaledPrecoder, PowerBalancedPrecoder, ZfbfPrecoder};
    use super::*;
    use crate::power;
    use midas_channel::DeploymentKind;

    #[test]
    fn satisfies_per_antenna_constraint() {
        for seed in 0..10 {
            let ch = channel(DeploymentKind::Das, 4, 4, 100 + seed);
            let out =
                OptimalPrecoder::with_iterations(1500).precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert!(
                power::satisfies_per_antenna(&out.v, ch.tx_power_mw * (1.0 + 1e-6)),
                "seed {seed}: powers {:?}",
                power::per_antenna_powers(&out.v)
            );
        }
    }

    #[test]
    fn at_least_as_good_as_power_balanced_and_naive() {
        for seed in 0..10 {
            for kind in [DeploymentKind::Cas, DeploymentKind::Das] {
                let ch = channel(kind, 4, 4, 200 + seed);
                let opt = OptimalPrecoder::with_iterations(1500).precode(
                    &ch.h,
                    ch.tx_power_mw,
                    ch.noise_mw,
                );
                let pb =
                    PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                let nv = NaiveScaledPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
                assert!(opt.sum_capacity >= pb.sum_capacity - 1e-9, "seed {seed}");
                assert!(opt.sum_capacity >= nv.sum_capacity - 1e-9, "seed {seed}");
            }
        }
    }

    #[test]
    fn never_exceeds_unconstrained_zfbf_total_power_bound() {
        // The unconstrained-per-antenna ZFBF with the same *total* power is a
        // relaxation of the optimal problem, so it upper-bounds the optimum.
        for seed in 0..10 {
            let ch = channel(DeploymentKind::Das, 4, 4, 300 + seed);
            let opt =
                OptimalPrecoder::with_iterations(1500).precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            let zf = ZfbfPrecoder.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            assert!(opt.sum_capacity <= zf.sum_capacity + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn power_balanced_is_within_a_few_percent_of_optimal() {
        // Fig. 11's headline: MIDAS's precoder is ~99% of optimal in
        // trace-driven evaluation.  Allow a little slack at unit-test scale.
        let mut ratio_sum = 0.0;
        let n = 10;
        for seed in 0..n {
            let ch = channel(DeploymentKind::Das, 4, 4, 400 + seed);
            let opt =
                OptimalPrecoder::with_iterations(2000).precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            let pb = PowerBalancedPrecoder::default().precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
            ratio_sum += pb.sum_capacity / opt.sum_capacity;
        }
        let mean_ratio = ratio_sum / n as f64;
        assert!(
            mean_ratio > 0.90,
            "power-balanced achieves only {:.1}% of optimal on average",
            mean_ratio * 100.0
        );
    }

    #[test]
    fn preserves_zero_forcing() {
        let ch = channel(DeploymentKind::Das, 4, 4, 17);
        let out = OptimalPrecoder::with_iterations(800).precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
        assert!(out.sinr.max_interference() < 1e-6);
    }
}
