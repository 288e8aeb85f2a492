//! Named enterprise deployment scenarios.
//!
//! Each scenario bundles a floor grid, a propagation environment, an
//! antenna-placement config and an association policy into one reproducible
//! recipe, parameterised only by AP count and seed.  The experiment spec
//! (`midas::sim::ExperimentSpec::EnterpriseScaling`) sweeps these through
//! `SeedSweep`, and the `enterprise_scaling` bench target emits the series
//! through the figure sinks.

use crate::deployment::{paper_das_config_dense, PairedTopology};
use crate::scale::association::AssociationPolicy;
use crate::scale::grid::{ClientPlacement, FloorGrid, FloorGridError};
use crate::simulator::{MacKind, NetworkSimConfig};
use midas_channel::topology::TopologyConfig;
use midas_channel::{Environment, SimRng};

/// Shadowing/aggregation headroom (dB) the enterprise interaction cutoff
/// leaves above the carrier-sense threshold; see
/// `Environment::interaction_range_m`.
pub const INTERACTION_MARGIN_DB: f64 = 30.0;

/// The scenario families the library ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Open-plan enterprise office: regular grid, uniform clients,
    /// load-balanced association.
    EnterpriseOffice,
    /// Auditorium / conference venue: audience clustered into a few dense
    /// hotspots, antenna-aware association.
    Auditorium,
    /// Dense apartment / hotel floor: heavy wall attenuation, clients in
    /// corridors, conventional nearest-AP association.
    DenseApartment,
}

/// A named, reproducible enterprise deployment recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Scenario family.
    pub kind: ScenarioKind,
    /// Base propagation environment (before the grid's wall override).
    base_env: Environment,
    /// The floor layout.
    pub grid: FloorGrid,
    /// How clients pick their AP.
    pub association: AssociationPolicy,
}

impl Scenario {
    /// Open-plan enterprise office with `aps` APs: 18 m AP spacing on the
    /// most square grid, uniform clients, load-balanced association.
    pub fn enterprise_office(aps: usize) -> Self {
        Scenario {
            kind: ScenarioKind::EnterpriseOffice,
            base_env: Environment::open_plan(),
            grid: FloorGrid {
                clients_per_ap: 8,
                ..FloorGrid::squarish(aps, 18.0)
            },
            association: AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
        }
    }

    /// Auditorium with `aps` APs: tighter 14 m spacing, the audience packed
    /// into a few hotspots, antenna-aware association (the DAS antennas
    /// reach into the crowd).
    // lint: allow(unreachable-pub) — proptest_scale and proptest_observer build this floor directly
    pub fn auditorium(aps: usize) -> Self {
        Scenario {
            kind: ScenarioKind::Auditorium,
            base_env: Environment::open_plan(),
            grid: FloorGrid {
                clients_per_ap: 8,
                placement: ClientPlacement::Hotspot {
                    clusters: (aps / 4).max(2),
                    sigma_m: 5.0,
                },
                ..FloorGrid::squarish(aps, 14.0)
            },
            association: AssociationPolicy::AntennaAware,
        }
    }

    /// Dense apartment floor with `aps` APs: 12 m spacing, heavy wall
    /// attenuation (0.8 dB/m on the Office-B base), clients in the
    /// corridors, conventional nearest-AP association.
    // lint: allow(unreachable-pub) — proptest_scale, proptest_observer and enterprise_determinism build this floor directly
    pub fn dense_apartment(aps: usize) -> Self {
        Scenario {
            kind: ScenarioKind::DenseApartment,
            base_env: Environment::office_b(),
            grid: FloorGrid {
                clients_per_ap: 8,
                placement: ClientPlacement::Corridor { width_m: 3.0 },
                wall_loss_db_per_m: Some(0.8),
                ..FloorGrid::squarish(aps, 12.0)
            },
            association: AssociationPolicy::NearestAp,
        }
    }

    /// Every scenario in the library at the given AP count.
    pub fn all(aps: usize) -> Vec<Scenario> {
        vec![
            Scenario::enterprise_office(aps),
            Scenario::auditorium(aps),
            Scenario::dense_apartment(aps),
        ]
    }

    /// Looks a scenario up by its stable name
    /// (`enterprise_office`, `auditorium`, `dense_apartment`).
    pub fn by_name(name: &str, aps: usize) -> Option<Scenario> {
        match name {
            "enterprise_office" => Some(Scenario::enterprise_office(aps)),
            "auditorium" => Some(Scenario::auditorium(aps)),
            "dense_apartment" => Some(Scenario::dense_apartment(aps)),
            _ => None,
        }
    }

    /// The stable name of this scenario.
    pub fn name(&self) -> &'static str {
        match self.kind {
            ScenarioKind::EnterpriseOffice => "enterprise_office",
            ScenarioKind::Auditorium => "auditorium",
            ScenarioKind::DenseApartment => "dense_apartment",
        }
    }

    /// The effective propagation environment (wall override applied).
    pub fn environment(&self) -> Environment {
        self.grid.environment(self.base_env)
    }

    /// Number of APs on the floor.
    pub fn num_aps(&self) -> usize {
        self.grid.num_aps()
    }

    /// Total number of clients on the floor.
    pub fn num_clients(&self) -> usize {
        self.grid.num_aps() * self.grid.clients_per_ap
    }

    /// The antenna-placement config: the paper's §7 guidance (DAS radius at
    /// 50–75 % of coverage range, 60° sectors), **capped at the grid cell**.
    ///
    /// This cap is the headline finding of the per-AP diagnostics: §7's
    /// placement rule assumes an isolated AP, and on a dense floor it pushes
    /// antennas past the neighbouring APs (coverage range ≈ 30 m vs 12–18 m
    /// AP spacing), so every MIDAS transmission lands inside several foreign
    /// cells and the per-AP duty cycle collapses under carrier sensing — the
    /// same over-deployment regime behind the Fig. 16 fidelity gap tracked
    /// in the ROADMAP.  Keeping antennas inside ~45 % of the AP spacing
    /// restores spatial reuse at enterprise density.
    fn topology_config(&self) -> TopologyConfig {
        paper_das_config_dense(
            &self.environment(),
            4,
            self.grid.clients_per_ap,
            self.grid.ap_spacing_m,
        )
    }

    /// Generates one paired CAS/DAS realisation of the scenario.
    pub fn build(&self, seed: u64) -> Result<PairedTopology, FloorGridError> {
        let mut rng = SimRng::new(seed);
        let env = self.environment();
        self.grid
            .generate_paired(&self.topology_config(), &env, self.association, &mut rng)
    }

    /// Simulator configuration for one variant: the standard MIDAS/CAS
    /// config with the **finite** interaction range that activates the
    /// spatial-index truncation at scale.
    pub fn sim_config(&self, mac: MacKind, rounds: usize, seed: u64) -> NetworkSimConfig {
        let env = self.environment();
        let mut config = match mac {
            MacKind::Midas => NetworkSimConfig::midas(env, seed),
            MacKind::Cas => NetworkSimConfig::cas(env, seed),
        };
        config.rounds = rounds;
        config.interaction_range_m = env.interaction_range_m(INTERACTION_MARGIN_DB);
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::NetworkSimulator;

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::all(8) {
            let back = Scenario::by_name(s.name(), 8).expect("name resolves");
            assert_eq!(back, s);
        }
        assert!(Scenario::by_name("no_such_floor", 8).is_none());
    }

    #[test]
    fn scenarios_scale_to_the_requested_ap_count() {
        for aps in [8usize, 16, 32, 64] {
            for s in Scenario::all(aps) {
                assert_eq!(s.num_aps(), aps, "{}", s.name());
                assert_eq!(s.num_clients(), aps * 8, "{}", s.name());
            }
        }
    }

    #[test]
    fn built_topologies_match_the_recipe() {
        for s in Scenario::all(16) {
            let pair = s.build(3).expect("buildable scenario");
            assert_eq!(pair.das.aps.len(), 16, "{}", s.name());
            assert_eq!(pair.das.clients.len(), 128, "{}", s.name());
            assert_eq!(pair.cas.aps.len(), 16, "{}", s.name());
            // Every client must be associated with a real AP.
            assert!(pair.das.clients.iter().all(|c| c.ap_id < 16));
        }
    }

    #[test]
    fn dense_apartment_walls_shrink_the_interaction_range() {
        let office = Scenario::enterprise_office(8).environment();
        let apartment = Scenario::dense_apartment(8).environment();
        assert!(
            apartment.interaction_range_m(INTERACTION_MARGIN_DB)
                < office.interaction_range_m(INTERACTION_MARGIN_DB)
        );
    }

    #[test]
    fn sim_config_enables_finite_interaction_range() {
        let s = Scenario::enterprise_office(8);
        let cfg = s.sim_config(MacKind::Midas, 5, 1);
        assert!(cfg.interaction_range_m.is_finite());
        assert!(cfg.interaction_range_m > s.environment().coverage_range_m());
        assert_eq!(cfg.rounds, 5);
    }

    #[test]
    fn an_eight_ap_scenario_simulates_end_to_end() {
        let s = Scenario::enterprise_office(8);
        let pair = s.build(11).unwrap();
        let mut sim = NetworkSimulator::new(pair.das, s.sim_config(MacKind::Midas, 5, 11));
        let result = sim.run();
        assert_eq!(result.per_round_capacity.len(), 5);
        assert!(result.mean_capacity() > 0.0 && result.mean_capacity().is_finite());
        assert_eq!(result.per_ap_capacity.len(), 8);
        assert_eq!(result.per_ap_duty_cycle().len(), 8);
    }
}
