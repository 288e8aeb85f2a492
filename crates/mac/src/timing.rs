//! 802.11 timing constants (5 GHz OFDM PHY, as used by 802.11ac).
//!
//! All values are in microseconds and follow the standard OFDM PHY timing
//! that the paper's WARP 802.11 reference design also uses.

/// Simulation time in microseconds.
pub type MicroSeconds = u64;

/// Default TXOP duration used for MU-MIMO transmissions (§3.2.5's `T`, a
/// contiguous set of time slots of a few milliseconds).
pub const DEFAULT_TXOP_US: MicroSeconds = 3_000;
