//! High-level system configuration.

use midas_channel::{Environment, EnvironmentKind};
use midas_phy::precoder::PrecoderKind;

/// Configuration of a single-AP MIDAS / CAS system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Propagation environment preset.
    pub environment: EnvironmentKind,
    /// Number of AP antennas (the paper uses up to 4).
    pub antennas: usize,
    /// Number of associated single-antenna clients.
    pub clients: usize,
    /// Precoder used by the MIDAS (DAS) variant.
    pub midas_precoder: PrecoderKind,
    /// Precoder used by the CAS baseline.
    pub cas_precoder: PrecoderKind,
    /// Number of antennas each client's packets are tagged with (§3.2.4).
    pub tag_width: usize,
    /// Side length (metres) of the square region clients are placed in.
    pub region_size_m: f64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            environment: EnvironmentKind::OfficeA,
            antennas: 4,
            clients: 4,
            midas_precoder: PrecoderKind::PowerBalanced,
            cas_precoder: PrecoderKind::NaiveScaled,
            tag_width: 2,
            region_size_m: 40.0,
        }
    }
}

impl SystemConfig {
    /// The environment preset resolved to its full parameter set.
    pub fn environment(&self) -> Environment {
        Environment::preset(self.environment)
    }

    /// Switches the environment preset.
    pub fn with_environment(mut self, kind: EnvironmentKind) -> Self {
        self.environment = kind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline_setup() {
        let c = SystemConfig::default();
        assert_eq!(c.antennas, 4);
        assert_eq!(c.clients, 4);
        assert_eq!(c.tag_width, 2);
        assert_eq!(c.midas_precoder, PrecoderKind::PowerBalanced);
        assert_eq!(c.cas_precoder, PrecoderKind::NaiveScaled);
    }

    #[test]
    fn builders_adjust_fields() {
        let c = SystemConfig::default().with_environment(EnvironmentKind::OfficeB);
        assert_eq!(c.environment, EnvironmentKind::OfficeB);
        assert_eq!(c.environment().kind, EnvironmentKind::OfficeB);
    }
}
