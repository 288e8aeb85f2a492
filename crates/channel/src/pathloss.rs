//! Large-scale path loss: log-distance model with wall attenuation.
//!
//! The reproduction uses the ITU-style indoor log-distance model
//!
//! ```text
//! PL(d) = PL(d0) + 10 * n * log10(d / d0) + L_walls
//! ```
//!
//! where `PL(d0)` is the free-space loss at the reference distance
//! (1 m), `n` the environment's path-loss exponent and `L_walls` an average
//! wall-attenuation term that grows with distance (a light-weight proxy for
//! the number of walls crossed indoors).  This captures exactly the property
//! MIDAS exploits: signal strength falls quickly with distance, so a client
//! close to a distributed antenna sees a far stronger channel from it than
//! from the other antennas (the "topology imbalance" of §3.1.2).

use crate::{lin_to_db, CARRIER_FREQ_HZ, SPEED_OF_LIGHT};

/// Reference distance for the log-distance model, in metres: the loss is
/// flat below it.
pub const REFERENCE_DISTANCE_M: f64 = 1.0;

/// Parameters of the indoor log-distance path loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Path-loss exponent `n` (2.0 free space, 3.0–4.0 obstructed indoor).
    pub exponent: f64,
    /// Average wall attenuation per metre of path, in dB/m.  A coarse proxy
    /// for wall crossings that keeps the model geometry-free.
    pub wall_loss_db_per_m: f64,
    /// Carrier frequency in Hz (used for the reference free-space loss).
    pub carrier_hz: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel {
            exponent: 3.0,
            wall_loss_db_per_m: 0.3,
            carrier_hz: CARRIER_FREQ_HZ,
        }
    }
}

impl PathLossModel {
    /// Creates a model with the given exponent and wall loss at the default
    /// 5 GHz carrier.
    pub fn new(exponent: f64, wall_loss_db_per_m: f64) -> Self {
        PathLossModel {
            exponent,
            wall_loss_db_per_m,
            carrier_hz: CARRIER_FREQ_HZ,
        }
    }

    /// Free-space path loss at the reference distance, in dB.
    pub fn reference_loss_db(&self) -> f64 {
        let wavelength = SPEED_OF_LIGHT / self.carrier_hz;
        // FSPL(d0) = 20 log10(4 pi d0 / lambda)
        lin_to_db((4.0 * std::f64::consts::PI * REFERENCE_DISTANCE_M / wavelength).powi(2))
    }

    /// Total path loss in dB at distance `d` metres.
    ///
    /// Distances below the reference distance are clamped to it, which keeps
    /// the model monotone and avoids unphysical gains when an antenna and a
    /// client are generated almost on top of each other.
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        self.path_loss_db_from(self.reference_loss_db(), distance_m)
    }

    /// [`path_loss_db`](Self::path_loss_db) with the reference loss
    /// supplied by the caller — bit-identical when `reference_loss_db` is
    /// [`reference_loss_db`](Self::reference_loss_db), which hot loops
    /// evaluate once instead of per link.
    #[inline]
    pub fn path_loss_db_from(&self, reference_loss_db: f64, distance_m: f64) -> f64 {
        let d = distance_m.max(REFERENCE_DISTANCE_M);
        reference_loss_db
            + 10.0 * self.exponent * (d / REFERENCE_DISTANCE_M).log10()
            + self.wall_loss_db_per_m * (d - REFERENCE_DISTANCE_M).max(0.0)
    }

    /// Distance (metres) at which the full path loss (including the wall
    /// term) reaches `loss_db`, found by bisection.
    ///
    /// Because the loss is strictly increasing in distance the inverse is
    /// unique; the search brackets `[d0, 10 km]` which covers every indoor
    /// scenario in the reproduction.
    pub fn distance_for_loss_db(&self, loss_db: f64) -> f64 {
        if loss_db <= self.path_loss_db(REFERENCE_DISTANCE_M) {
            return REFERENCE_DISTANCE_M;
        }
        let mut lo = REFERENCE_DISTANCE_M;
        let mut hi = 10_000.0;
        if loss_db >= self.path_loss_db(hi) {
            return hi;
        }
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if self.path_loss_db(mid) < loss_db {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loss_is_about_47_db_at_5ghz() {
        let m = PathLossModel::default();
        let pl0 = m.reference_loss_db();
        assert!(pl0 > 45.0 && pl0 < 49.0, "PL(1m) = {pl0}");
    }

    #[test]
    fn loss_increases_monotonically_with_distance() {
        let m = PathLossModel::default();
        let mut prev = m.path_loss_db(1.0);
        for d in [2.0, 5.0, 10.0, 20.0, 50.0] {
            let pl = m.path_loss_db(d);
            assert!(pl > prev, "loss not increasing at {d} m");
            prev = pl;
        }
    }

    #[test]
    fn ten_times_distance_adds_ten_n_db_without_walls() {
        let m = PathLossModel::new(3.2, 0.0);
        let diff = m.path_loss_db(10.0) - m.path_loss_db(1.0);
        assert!((diff - 32.0).abs() < 1e-9, "diff {diff}");
    }

    #[test]
    fn sub_reference_distances_are_clamped() {
        let m = PathLossModel::default();
        assert_eq!(m.path_loss_db(0.1), m.path_loss_db(1.0));
        assert_eq!(m.path_loss_db(0.0), m.path_loss_db(1.0));
    }

    #[test]
    fn distance_for_loss_inverts_loss_with_walls() {
        let m = PathLossModel::new(3.1, 0.4);
        for d in [2.0, 8.0, 25.0, 60.0] {
            let pl = m.path_loss_db(d);
            let back = m.distance_for_loss_db(pl);
            assert!((back - d).abs() < 1e-3, "{back} vs {d}");
        }
    }

    #[test]
    fn wall_loss_adds_linear_term() {
        let bare = PathLossModel::new(3.0, 0.0);
        let walls = PathLossModel::new(3.0, 0.5);
        let d = 11.0;
        let diff = walls.path_loss_db(d) - bare.path_loss_db(d);
        assert!((diff - 0.5 * 10.0).abs() < 1e-9);
    }
}
