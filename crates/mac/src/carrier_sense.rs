//! Per-antenna carrier sensing.
//!
//! An antenna is *busy* until the end of the longest above-threshold
//! transmission it has overheard (the frame plus the reservation it
//! carries).  A CAS AP effectively collapses its antennas into one state
//! (the co-located antennas all hear the same thing); MIDAS keeps one
//! busy-until time per distributed antenna (§3.2.2).

use crate::timing::MicroSeconds;

/// Channel state of a single antenna.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// The medium around the antenna is idle.
    Idle,
    /// The medium around the antenna is busy.
    Busy,
}

/// Per-antenna carrier sensing: one busy-until time per antenna, fed by
/// energy-detect observations.
#[derive(Debug, Clone)]
pub struct CarrierSense {
    /// Time until which each antenna's medium is busy.
    busy_until: Vec<MicroSeconds>,
    /// Carrier-sense threshold in dBm; receptions below it do not mark the
    /// medium busy.
    threshold_dbm: f64,
}

impl CarrierSense {
    /// Creates carrier sensing state for `num_antennas` antennas with the
    /// given energy-detection threshold.
    pub fn new(num_antennas: usize, threshold_dbm: f64) -> Self {
        CarrierSense {
            busy_until: vec![0; num_antennas],
            threshold_dbm,
        }
    }

    /// Number of antennas tracked.
    pub fn num_antennas(&self) -> usize {
        self.busy_until.len()
    }

    /// The energy-detection threshold in dBm.
    pub fn threshold_dbm(&self) -> f64 {
        self.threshold_dbm
    }

    /// Reports an overheard transmission: antenna `idx` receives it at
    /// `rx_power_dbm`, the frame (plus its reservation) keeps the medium
    /// busy until `busy_until`.  Below-threshold receptions are ignored,
    /// which is exactly what creates hidden terminals; a shorter
    /// reservation never cuts a longer one short.
    pub fn observe(&mut self, idx: usize, rx_power_dbm: f64, busy_until: MicroSeconds) {
        if rx_power_dbm >= self.threshold_dbm && busy_until > self.busy_until[idx] {
            self.busy_until[idx] = busy_until;
        }
    }

    /// Channel state of antenna `idx` at time `now`.
    pub fn state(&self, idx: usize, now: MicroSeconds) -> ChannelState {
        if now < self.busy_until[idx] {
            ChannelState::Busy
        } else {
            ChannelState::Idle
        }
    }

    /// Time until which antenna `idx` is busy.
    pub fn busy_until(&self, idx: usize) -> MicroSeconds {
        self.busy_until[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_threshold_energy_is_ignored() {
        let mut cs = CarrierSense::new(4, -82.0);
        cs.observe(0, -90.0, 1_000);
        assert_eq!(cs.state(0, 10), ChannelState::Idle);
        cs.observe(0, -70.0, 1_000);
        assert_eq!(cs.state(0, 10), ChannelState::Busy);
        assert_eq!(cs.state(0, 1_000), ChannelState::Idle);
    }

    #[test]
    fn antennas_sense_independently() {
        let mut cs = CarrierSense::new(4, -82.0);
        cs.observe(2, -60.0, 500);
        let states: Vec<ChannelState> = (0..4).map(|a| cs.state(a, 100)).collect();
        assert_eq!(
            states,
            [
                ChannelState::Idle,
                ChannelState::Idle,
                ChannelState::Busy,
                ChannelState::Idle
            ]
        );
        assert_eq!(cs.state(2, 600), ChannelState::Idle);
    }

    #[test]
    fn longer_reservation_wins() {
        let mut cs = CarrierSense::new(1, -82.0);
        cs.observe(0, -50.0, 1_000);
        cs.observe(0, -50.0, 400);
        assert_eq!(cs.busy_until(0), 1_000);
    }
}
