//! Topology sources: where a session's paired CAS/DAS deployments come from.

use midas_channel::topology::TopologyConfig;
use midas_channel::{Environment, SimRng};
use midas_net::deployment::{paper_das_config, paper_das_config_dense, PairedTopology};
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, NetworkSimConfig};

/// A reproducible generator of paired CAS/DAS topologies — the first thing a
/// [`SessionBuilder`](crate::sim::SessionBuilder) composes.
///
/// A source owns everything layout-related: the propagation environment, the
/// antenna-placement config, client placement, and (for enterprise floors)
/// the association policy.  The library ships [`PairedRecipe`] for the
/// paper's layouts and implements the trait for the enterprise
/// [`Scenario`] library; custom floors implement it directly.
///
/// Determinism contract: [`TopologySource::build`] must be a pure function
/// of `seed` — two calls with the same seed return identical topologies —
/// because the session fans trials across threads.
pub trait TopologySource: Send + Sync {
    /// The propagation environment simulations over this source run in.
    fn environment(&self) -> Environment;

    /// Generates the paired deployment for one trial seed.
    fn build(&self, seed: u64) -> PairedTopology;

    /// Simulator configuration for one MAC variant at this source's scale.
    ///
    /// The default is the standard MIDAS/CAS config with an *infinite*
    /// interaction range (the paper-scale figures run untruncated);
    /// enterprise-scale sources override this to engage the finite-range
    /// spatial-index scan path.
    fn sim_config(&self, mac: MacKind, rounds: usize, seed: u64) -> NetworkSimConfig {
        let env = self.environment();
        let mut config = match mac {
            MacKind::Midas => NetworkSimConfig::midas(env, seed),
            MacKind::Cas => NetworkSimConfig::cas(env, seed),
        };
        config.rounds = rounds;
        config
    }
}

/// Which multi-AP layout a [`PairedRecipe`] generates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RecipeLayout {
    /// One AP centred in a square region of the given side length (m).
    Single { region_m: f64 },
    /// The §5.4 three-AP testbed layout (15 m AP spacing).
    Testbed3,
    /// The §5.5 eight-AP large-scale layout (60 × 60 m).
    LargeScale8,
}

/// The paper's paired-deployment recipes as a [`TopologySource`]: a layout
/// (single-AP / 3-AP testbed / 8-AP large-scale), an environment, and an
/// antenna-placement [`TopologyConfig`].
///
/// Each constructor reproduces the exact generator the corresponding
/// experiment runner historically used, so sessions over these recipes are
/// bit-identical to the pre-redesign free functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedRecipe {
    env: Environment,
    config: TopologyConfig,
    layout: RecipeLayout,
}

impl PairedRecipe {
    /// A single AP centred in a `region_m` × `region_m` area with the given
    /// placement config (the Figs. 7 / 13 generator).
    pub fn single_ap(env: Environment, config: TopologyConfig, region_m: f64) -> Self {
        PairedRecipe {
            env,
            config,
            layout: RecipeLayout::Single { region_m },
        }
    }

    /// The §5.4 three-AP testbed layout with the given placement config.
    pub fn three_ap(env: Environment, config: TopologyConfig) -> Self {
        PairedRecipe {
            env,
            config,
            layout: RecipeLayout::Testbed3,
        }
    }

    /// The §5.4 three-AP testbed under the paper's §7 placement guidance
    /// (Office A, DAS radius 50–75 % of coverage, 60° sectors) — the
    /// Figs. 12 / 15 recipe.
    pub fn three_ap_paper() -> Self {
        let env = Environment::office_a();
        PairedRecipe::three_ap(env, paper_das_config(&env, 4, 4))
    }

    /// The §5.5 eight-AP large-scale layout with the given placement config.
    fn eight_ap(env: Environment, config: TopologyConfig) -> Self {
        PairedRecipe {
            env,
            config,
            layout: RecipeLayout::LargeScale8,
        }
    }

    /// The §5.5 eight-AP large-scale layout under the paper's placement
    /// guidance with the dense-floor DAS-radius cap (the Fig. 16 recipe:
    /// 8 APs in 60 × 60 m put the nominal √(area/AP) ≈ 21 m spacing well
    /// under the coverage range, so the §7 rule is capped at 45 % of the
    /// spacing — see `paper_das_config_dense`).
    pub fn eight_ap_paper() -> Self {
        let env = Environment::open_plan();
        let spacing = (60.0f64 * 60.0 / 8.0).sqrt();
        PairedRecipe::eight_ap(env, paper_das_config_dense(&env, 4, 4, spacing))
    }
}

impl TopologySource for PairedRecipe {
    fn environment(&self) -> Environment {
        self.env
    }

    fn build(&self, seed: u64) -> PairedTopology {
        let mut rng = SimRng::new(seed);
        match self.layout {
            RecipeLayout::Single { region_m } => {
                PairedTopology::single_ap(&self.config, region_m, &mut rng)
            }
            RecipeLayout::Testbed3 => PairedTopology::three_ap(&self.config, &mut rng),
            RecipeLayout::LargeScale8 => {
                PairedTopology::eight_ap(&self.config, &self.env, &mut rng)
            }
        }
    }
}

/// Enterprise scenarios are topology sources: the floor grid, wall override
/// and association policy all live in the [`Scenario`], and the simulator
/// config carries the finite interaction range that engages the
/// spatial-index scan truncation at scale.
impl TopologySource for Scenario {
    fn environment(&self) -> Environment {
        Scenario::environment(self)
    }

    fn build(&self, seed: u64) -> PairedTopology {
        Scenario::build(self, seed)
            .unwrap_or_else(|e| panic!("scenario {} failed to build: {e}", self.name()))
    }

    fn sim_config(&self, mac: MacKind, rounds: usize, seed: u64) -> NetworkSimConfig {
        Scenario::sim_config(self, mac, rounds, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_build_the_expected_layouts() {
        let single =
            PairedRecipe::single_ap(Environment::office_a(), TopologyConfig::das(4, 4), 40.0)
                .build(1);
        assert_eq!(single.das.aps.len(), 1);
        let three = PairedRecipe::three_ap_paper().build(2);
        assert_eq!(three.das.aps.len(), 3);
        assert_eq!(three.das.clients.len(), 12);
        let eight = PairedRecipe::eight_ap_paper().build(3);
        assert_eq!(eight.das.aps.len(), 8);
    }

    #[test]
    fn recipe_build_is_deterministic_in_the_seed() {
        let recipe = PairedRecipe::three_ap_paper();
        assert_eq!(recipe.build(7), recipe.build(7));
        assert_ne!(recipe.build(7), recipe.build(8));
    }

    #[test]
    fn recipe_build_matches_the_historical_generators() {
        // The session path must regenerate the exact topologies the
        // pre-redesign runner loops drew: SimRng::new(seed) straight into
        // the PairedTopology generator.
        let env = Environment::office_a();
        let cfg = paper_das_config(&env, 4, 4);
        let mut rng = SimRng::new(42);
        let legacy = PairedTopology::three_ap(&cfg, &mut rng);
        assert_eq!(PairedRecipe::three_ap_paper().build(42), legacy);
    }

    #[test]
    fn default_sim_config_is_paper_scale_and_scenarios_are_finite_range() {
        let recipe = PairedRecipe::three_ap_paper();
        let cfg = TopologySource::sim_config(&recipe, MacKind::Midas, 7, 9);
        assert_eq!(cfg.rounds, 7);
        assert!(cfg.interaction_range_m.is_infinite());

        let scenario = Scenario::enterprise_office(8);
        let cfg = TopologySource::sim_config(&scenario, MacKind::Cas, 5, 9);
        assert_eq!(cfg.rounds, 5);
        assert!(cfg.interaction_range_m.is_finite());
    }
}
