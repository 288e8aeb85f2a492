//! Log-normal shadow fading.
//!
//! Shadowing models the slowly-varying, location-dependent deviation from the
//! mean path loss caused by obstructions (cubicle walls, bookshelves, people).
//! It is drawn once per antenna–client link and held constant for the life of
//! a topology, which matches how the paper's testbed topologies behave over a
//! 10-second measurement.

/// Log-normal shadowing generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shadowing {
    /// Standard deviation of the shadowing term in dB.
    pub sigma_db: f64,
}

impl Shadowing {
    /// Creates a shadowing model with the given dB standard deviation.
    pub fn new(sigma_db: f64) -> Self {
        assert!(sigma_db >= 0.0, "shadowing sigma must be non-negative");
        Shadowing { sigma_db }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        let _ = Shadowing::new(-1.0);
    }
}
