//! 802.11ac (VHT) modulation-and-coding-scheme table.
//!
//! The paper reports capacity directly from SINR via the Shannon formula, but
//! a practical 802.11ac AP quantises the rate to one of the VHT MCS levels.
//! This module provides the table; the physical contention model's rate
//! adaptation (`midas_net::capture::PhysicalConfig::select_mcs`) selects
//! from it.  SNR thresholds are the common
//! "waterfall" operating points used in rate-vs-range studies (they are not
//! standardised; vendors differ by a dB or two).

/// One entry of the VHT MCS table for a 20 MHz channel, single spatial stream,
/// long guard interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsEntry {
    /// MCS index 0..=8 (MCS 9 is not valid at 20 MHz / 1 SS).
    pub index: u8,
    /// Modulation name.
    pub modulation: &'static str,
    /// Coding rate numerator/denominator as a float (e.g. 0.75 for 3/4).
    pub coding_rate: f64,
    /// PHY data rate in Mb/s (20 MHz, 1 SS, 800 ns GI).
    pub rate_mbps: f64,
    /// Minimum SINR in dB required to sustain the MCS at ~10% PER.
    pub min_sinr_db: f64,
}

/// The VHT MCS table (20 MHz, one spatial stream, long GI).
pub const VHT_MCS_TABLE: [McsEntry; 9] = [
    McsEntry {
        index: 0,
        modulation: "BPSK",
        coding_rate: 0.5,
        rate_mbps: 6.5,
        min_sinr_db: 2.0,
    },
    McsEntry {
        index: 1,
        modulation: "QPSK",
        coding_rate: 0.5,
        rate_mbps: 13.0,
        min_sinr_db: 5.0,
    },
    McsEntry {
        index: 2,
        modulation: "QPSK",
        coding_rate: 0.75,
        rate_mbps: 19.5,
        min_sinr_db: 9.0,
    },
    McsEntry {
        index: 3,
        modulation: "16-QAM",
        coding_rate: 0.5,
        rate_mbps: 26.0,
        min_sinr_db: 11.0,
    },
    McsEntry {
        index: 4,
        modulation: "16-QAM",
        coding_rate: 0.75,
        rate_mbps: 39.0,
        min_sinr_db: 15.0,
    },
    McsEntry {
        index: 5,
        modulation: "64-QAM",
        coding_rate: 2.0 / 3.0,
        rate_mbps: 52.0,
        min_sinr_db: 18.0,
    },
    McsEntry {
        index: 6,
        modulation: "64-QAM",
        coding_rate: 0.75,
        rate_mbps: 58.5,
        min_sinr_db: 20.0,
    },
    McsEntry {
        index: 7,
        modulation: "64-QAM",
        coding_rate: 5.0 / 6.0,
        rate_mbps: 65.0,
        min_sinr_db: 25.0,
    },
    McsEntry {
        index: 8,
        modulation: "256-QAM",
        coding_rate: 0.75,
        rate_mbps: 78.0,
        min_sinr_db: 29.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_ordered_in_rate_and_threshold() {
        for w in VHT_MCS_TABLE.windows(2) {
            assert!(w[1].rate_mbps > w[0].rate_mbps);
            assert!(w[1].min_sinr_db > w[0].min_sinr_db);
            assert_eq!(w[1].index, w[0].index + 1);
        }
    }
}
