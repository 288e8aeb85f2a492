//! 802.11 timing constants (5 GHz OFDM PHY, as used by 802.11ac).
//!
//! All values are in microseconds and follow the standard OFDM PHY timing
//! that the paper's WARP 802.11 reference design also uses.

/// Simulation time in microseconds.
pub type MicroSeconds = u64;

/// Slot time (9 µs for OFDM in the 5 GHz band).
pub const SLOT_US: MicroSeconds = 9;

/// Short inter-frame space.
pub const SIFS_US: MicroSeconds = 16;

/// DCF inter-frame space: `SIFS + 2 * slot`.
///
/// DIFS is also the window MIDAS waits to opportunistically accumulate
/// antennas whose reservation is about to expire (§3.2.3).
pub const DIFS_US: MicroSeconds = SIFS_US + 2 * SLOT_US;

/// Default TXOP duration used for MU-MIMO transmissions (§3.2.5's `T`, a
/// contiguous set of time slots of a few milliseconds).
pub const DEFAULT_TXOP_US: MicroSeconds = 3_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!((SLOT_US, SIFS_US, DIFS_US), (9, 16, 34));
    }
}
