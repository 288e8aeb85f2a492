//! # midas-channel
//!
//! Indoor wireless channel simulator for the MIDAS (CoNEXT'14) reproduction.
//!
//! The paper's evaluation runs on a Rice WARP software-defined-radio testbed
//! deployed in two indoor offices.  This crate is the substitution for that
//! hardware: it produces every physical-layer quantity the WARP testbed
//! *measures* — complex channel matrices, received signal strengths,
//! carrier-sense observations — from a standard indoor propagation model:
//!
//! * [`geometry`] — 2-D points, distances, sector angles.
//! * [`pathloss`] — log-distance path loss with wall attenuation.
//! * [`shadowing`] — log-normal shadow fading.
//! * [`fading`] — Rayleigh / Rician small-scale fading (ziggurat Gaussian).
//! * [`environment`] — calibrated parameter sets for the paper's "Office A"
//!   (enterprise) and "Office B" (crowded graduate lab) environments.
//! * [`topology`] — CAS / DAS antenna placement and client placement
//!   generators, including the paper's deployment constraints (half-wavelength
//!   CAS spacing, 5–10 m DAS radius, 60° sector separation, minimum antenna
//!   spacing).
//! * [`channel`] — generation of the complex downlink channel matrix **H**
//!   and derived link metrics (RSSI, SNR), with coherence-time evolution:
//!   one keyed Gauss–Markov step ([`ChannelModel::evolve_row`]) whose
//!   innovations are a pure function of `(trial seed, AP, link, boundary)`,
//!   so a simulator may evolve only the rows it reads, catching each up
//!   exactly when it is next read.
//! * [`rng`] — deterministic generators so every experiment is reproducible
//!   from a seed: the sequential [`SimRng`] (set-up realisation, topology
//!   draws) and the stateless, keyed [`CounterRng`] (fading evolution and
//!   rows born mid-run), both drawing normals by one ziggurat sampler.
//!
//! The crate knows nothing about precoding or MAC behaviour; it only models
//! propagation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod environment;
pub mod fading;
pub mod geometry;
pub mod pathloss;
pub mod rng;
pub mod shadowing;
pub mod topology;

pub use channel::{ChannelMatrix, ChannelModel, LargeScaleRows, RowCache};
pub use environment::{Environment, EnvironmentKind};
pub use geometry::Point;
pub use rng::{CounterRng, SimRng};
pub use topology::{Deployment, DeploymentKind, Topology};

/// Speed of light in metres per second.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Default 802.11ac carrier frequency used throughout the reproduction (5 GHz band).
pub const CARRIER_FREQ_HZ: f64 = 5.25e9;

/// Carrier wavelength in metres at [`CARRIER_FREQ_HZ`].
pub fn wavelength_m() -> f64 {
    SPEED_OF_LIGHT / CARRIER_FREQ_HZ
}

/// Converts a linear power ratio to decibels.
pub fn lin_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_is_about_5_7_cm_at_5ghz() {
        let wl = wavelength_m();
        assert!(wl > 0.05 && wl < 0.06, "wavelength {wl}");
    }

    #[test]
    fn db_conversions_round_trip() {
        for &db in &[-20.0, -3.0, 0.0, 3.0, 10.0, 30.0] {
            assert!((lin_to_db(dbm_to_mw(db)) - db).abs() < 1e-9);
        }
        assert!((dbm_to_mw(3.0) - 1.995).abs() < 0.01);
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((mw_to_dbm(100.0) - 20.0).abs() < 1e-12);
    }
}
