//! MU-MIMO precoders.
//!
//! All precoders in the reproduction share the zero-forcing *directions*
//! (columns of the channel pseudoinverse) and differ only in how they
//! allocate transmit power to the streams under the 802.11ac per-antenna
//! power constraint:
//!
//! | Precoder | Power allocation | Per-antenna constraint |
//! |---|---|---|
//! | [`ZfbfPrecoder`] | equal power per stream | may violate (total-power design) |
//! | [`NaiveScaledPrecoder`] | equal split, then one global scale-down | satisfied, power wasted |
//! | [`PowerBalancedPrecoder`] | MIDAS reverse water-filling (§3.1.2) | satisfied, near-optimal |
//! | [`OptimalPrecoder`] | numerical convex solver (Fig. 11 upper bound) | satisfied |

mod naive;
mod optimal;
mod power_balanced;
mod zfbf;

pub use naive::NaiveScaledPrecoder;
pub use optimal::OptimalPrecoder;
pub use power_balanced::PowerBalancedPrecoder;
pub use zfbf::{zfbf_directions, ZfbfPrecoder};

use crate::capacity::sum_capacity;
use crate::sinr::SinrMatrix;
use midas_channel::ChannelMatrix;
use midas_linalg::CMat;

/// Identifies a precoder implementation (used for reporting and experiment
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecoderKind {
    /// Conventional ZFBF with a total-power constraint only.
    Zfbf,
    /// ZFBF followed by naïve global power scaling (the paper's baseline).
    NaiveScaled,
    /// MIDAS power-balanced precoding (reverse water-filling).
    PowerBalanced,
    /// Numerically optimised power allocation (upper bound).
    Optimal,
}

impl std::fmt::Display for PrecoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PrecoderKind::Zfbf => "zfbf",
            PrecoderKind::NaiveScaled => "naive-scaled",
            PrecoderKind::PowerBalanced => "power-balanced",
            PrecoderKind::Optimal => "optimal",
        };
        f.write_str(name)
    }
}

/// The output of a precoder run.
#[derive(Debug, Clone)]
pub struct Precoding {
    /// Which precoder produced this result.
    pub kind: PrecoderKind,
    /// Precoding matrix, antennas × streams; entries carry `sqrt(mW)` units so
    /// row powers are in mW.
    pub v: CMat,
    /// Resulting SINR matrix at the clients.
    pub sinr: SinrMatrix,
    /// Sum Shannon capacity in bit/s/Hz.
    pub sum_capacity: f64,
    /// Number of internal iterations the precoder ran (reverse water-filling
    /// rounds, gradient steps, ...); 0 for closed-form precoders.
    pub iterations: usize,
}

impl Precoding {
    /// Builds a result by evaluating SINR and capacity for a precoding matrix.
    pub fn evaluate(kind: PrecoderKind, h: &CMat, v: CMat, noise: f64, iterations: usize) -> Self {
        let sinr = SinrMatrix::compute(h, &v, noise);
        let sum_capacity = sum_capacity(&sinr);
        Precoding {
            kind,
            v,
            sinr,
            sum_capacity,
            iterations,
        }
    }
}

/// Common interface of all precoders.
pub trait Precoder {
    /// Which precoder this is.
    fn kind(&self) -> PrecoderKind;

    /// Computes the precoding matrix (antennas × streams) for the channel
    /// `h` (clients × antennas) under a per-antenna power budget
    /// `per_antenna_power` and noise power `noise` (both in the same linear
    /// unit, conventionally mW), with the number of internal iterations it
    /// ran.  Evaluates no SINR and no capacity: the network simulator's
    /// precode stage keeps only the matrix and evaluates its deliveries
    /// itself, with cross-AP interference.
    fn precode_matrix(&self, h: &CMat, per_antenna_power: f64, noise: f64) -> (CMat, usize);

    /// [`precode_matrix`](Self::precode_matrix) with the SINRs and the sum
    /// capacity it yields at the clients ([`Precoding::evaluate`]).
    fn precode(&self, h: &CMat, per_antenna_power: f64, noise: f64) -> Precoding {
        let (v, iterations) = self.precode_matrix(h, per_antenna_power, noise);
        Precoding::evaluate(self.kind(), h, v, noise, iterations)
    }

    /// Convenience wrapper taking a [`ChannelMatrix`] from `midas-channel`.
    fn precode_channel(&self, channel: &ChannelMatrix) -> Precoding {
        self.precode(&channel.h, channel.tx_power_mw, channel.noise_mw)
    }
}

/// Constructs a boxed precoder of the requested kind with default settings.
///
/// The box is `Send + Sync` (every library precoder is a plain value type),
/// so callers can hold one per simulator and reuse it across rounds — and
/// threads — instead of re-constructing it per transmission.
pub fn make_precoder(kind: PrecoderKind) -> Box<dyn Precoder + Send + Sync> {
    match kind {
        PrecoderKind::Zfbf => Box::new(ZfbfPrecoder),
        PrecoderKind::NaiveScaled => Box::new(NaiveScaledPrecoder),
        PrecoderKind::PowerBalanced => Box::new(PowerBalancedPrecoder::default()),
        PrecoderKind::Optimal => Box::new(OptimalPrecoder::default()),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for precoder tests: deterministic CAS-like and
    //! DAS-like channel matrices.

    use midas_channel::geometry::{Point, Rect};
    use midas_channel::topology::{single_ap, TopologyConfig};
    use midas_channel::{ChannelMatrix, ChannelModel, DeploymentKind, Environment, SimRng};

    /// Generates a random channel realisation for the given deployment kind.
    pub fn channel(
        kind: DeploymentKind,
        antennas: usize,
        clients: usize,
        seed: u64,
    ) -> ChannelMatrix {
        let mut rng = SimRng::new(seed);
        let cfg = TopologyConfig {
            kind,
            antennas_per_ap: antennas,
            clients_per_ap: clients,
            ..TopologyConfig::das(antennas, clients)
        };
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let topo = single_ap(&cfg, region, &mut rng);
        let mut model = ChannelModel::new(Environment::office_a(), seed);
        let cs = topo.clients_of(0);
        model.realize(&topo.aps[0], &cs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_channel::DeploymentKind;

    #[test]
    fn make_precoder_covers_all_kinds() {
        for kind in [
            PrecoderKind::Zfbf,
            PrecoderKind::NaiveScaled,
            PrecoderKind::PowerBalanced,
            PrecoderKind::Optimal,
        ] {
            let p = make_precoder(kind);
            assert_eq!(p.kind(), kind);
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(PrecoderKind::Zfbf.to_string(), "zfbf");
        assert_eq!(PrecoderKind::PowerBalanced.to_string(), "power-balanced");
    }

    #[test]
    fn precode_channel_uses_channel_budgets() {
        let ch = test_support::channel(DeploymentKind::Das, 4, 4, 3);
        let p = ZfbfPrecoder;
        let a = p.precode_channel(&ch);
        let b = p.precode(&ch.h, ch.tx_power_mw, ch.noise_mw);
        assert!((a.sum_capacity - b.sum_capacity).abs() < 1e-12);
    }
}
