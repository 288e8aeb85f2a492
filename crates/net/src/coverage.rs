//! Dead-zone mapping — paper §5.3.3, Fig. 13.
//!
//! The paper measures received signal strength on a 0.5 m grid over the AP's
//! coverage area and marks spots whose SNR is too low for data as dead zones,
//! then compares a CAS deployment with a DAS deployment of the same AP.
//! Distributing the antennas both shortens the worst-case distance to the
//! nearest antenna and adds shadowing diversity (four independent paths), so
//! DAS removes the vast majority of dead spots (the paper reports ≈ 91 %).

use crate::deployment::PairedTopology;
use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::Deployment;
use midas_channel::{ChannelModel, Environment};

/// The dead-zone map of one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    /// Grid spacing in metres.
    pub spacing_m: f64,
    /// All sampled grid points.
    pub points: Vec<Point>,
    /// `true` where the spot is a dead zone.
    pub dead: Vec<bool>,
}

impl CoverageMap {
    /// Number of dead spots.
    fn dead_spots(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }
}

/// Builds the dead-zone map of a single AP deployment.
///
/// A spot is covered if the best (strongest) antenna's sampled SNR at that
/// spot is at least the environment's coverage threshold; the sample includes
/// shadowing and fading, mirroring the paper's measurement-based maps.
fn coverage_map(
    ap: &Deployment,
    region: &Rect,
    env: &Environment,
    model: &mut ChannelModel,
    spacing_m: f64,
) -> CoverageMap {
    let points = region.grid_points(spacing_m);
    let dead = points
        .iter()
        .map(|p| {
            let best_snr = ap
                .antennas
                .iter()
                .map(|a| model.sample_rx_power_dbm(a, p) - env.noise_floor_dbm)
                .fold(f64::NEG_INFINITY, f64::max);
            best_snr < env.coverage_snr_db
        })
        .collect();
    CoverageMap {
        spacing_m,
        points,
        dead,
    }
}

/// Result of one paired CAS/DAS dead-zone comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadzoneComparison {
    /// Dead spots in the CAS deployment.
    pub cas_dead: usize,
    /// Dead spots in the DAS deployment.
    pub das_dead: usize,
    /// Total grid spots sampled.
    pub total_spots: usize,
}

impl DeadzoneComparison {
    /// Fraction of CAS dead spots removed by the DAS deployment
    /// (1.0 = all removed; the paper reports ≈ 0.91 on average).
    pub fn reduction(&self) -> f64 {
        if self.cas_dead == 0 {
            return 0.0;
        }
        1.0 - self.das_dead as f64 / self.cas_dead as f64
    }
}

/// Compares dead zones between the CAS and DAS variants of a paired topology
/// over the AP's coverage area (a square of half-width `coverage_radius_m`
/// centred on the AP).
pub fn compare_deadzones(
    pair: &PairedTopology,
    env: &Environment,
    coverage_radius_m: f64,
    spacing_m: f64,
    seed: u64,
) -> DeadzoneComparison {
    let ap_pos = pair.cas.aps[0].position;
    let region = Rect::new(
        Point::new(ap_pos.x - coverage_radius_m, ap_pos.y - coverage_radius_m),
        2.0 * coverage_radius_m,
        2.0 * coverage_radius_m,
    );
    let mut model_cas = ChannelModel::new(*env, seed);
    let mut model_das = ChannelModel::new(*env, seed.wrapping_add(1));
    let cas_map = coverage_map(&pair.cas.aps[0], &region, env, &mut model_cas, spacing_m);
    let das_map = coverage_map(&pair.das.aps[0], &region, env, &mut model_das, spacing_m);
    DeadzoneComparison {
        cas_dead: cas_map.dead_spots(),
        das_dead: das_map.dead_spots(),
        total_spots: cas_map.points.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_channel::topology::TopologyConfig;
    use midas_channel::SimRng;

    #[test]
    fn coverage_map_has_one_entry_per_grid_point() {
        let mut rng = SimRng::new(1);
        let pair = PairedTopology::single_ap(&TopologyConfig::das(4, 4), 40.0, &mut rng);
        let env = Environment::office_b();
        let mut model = ChannelModel::new(env, 1);
        let region = Rect::new(Point::new(0.0, 0.0), 10.0, 10.0);
        let map = coverage_map(&pair.das.aps[0], &region, &env, &mut model, 0.5);
        assert_eq!(map.points.len(), map.dead.len());
        assert_eq!(map.points.len(), 21 * 21);
        assert!(map.dead_spots() <= map.points.len());
    }

    #[test]
    fn spots_near_an_antenna_are_covered() {
        let mut rng = SimRng::new(2);
        let pair = PairedTopology::single_ap(&TopologyConfig::das(4, 4), 40.0, &mut rng);
        let env = Environment::office_a();
        let mut model = ChannelModel::new(env, 2);
        // A tiny region right at the CAS AP position: everything is covered.
        let ap = &pair.cas.aps[0];
        let region = Rect::new(
            Point::new(ap.position.x - 1.0, ap.position.y - 1.0),
            2.0,
            2.0,
        );
        let map = coverage_map(ap, &region, &env, &mut model, 0.5);
        assert_eq!(map.dead_spots(), 0);
    }

    #[test]
    fn das_removes_most_cas_dead_spots() {
        // Average over a few random deployments, as in §5.3.3 (the paper
        // averages 10 deployments and reports ~91% reduction).
        let env = Environment::office_b();
        let radius = env.coverage_range_m() * 0.9;
        let mut total_cas = 0usize;
        let mut total_das = 0usize;
        for seed in 0..5 {
            let mut rng = SimRng::new(300 + seed);
            let cfg = TopologyConfig {
                das_radius_min_m: 0.4 * radius,
                das_radius_max_m: 0.7 * radius,
                ..TopologyConfig::das(4, 4)
            };
            let pair = PairedTopology::single_ap(&cfg, 3.0 * radius, &mut rng);
            let cmp = compare_deadzones(&pair, &env, radius, 1.0, 400 + seed);
            total_cas += cmp.cas_dead;
            total_das += cmp.das_dead;
        }
        assert!(total_cas > 0, "CAS should have some dead spots at the edge");
        let reduction = 1.0 - total_das as f64 / total_cas as f64;
        assert!(
            reduction > 0.5,
            "DAS should remove most dead spots (got {:.0}% reduction, CAS {total_cas}, DAS {total_das})",
            reduction * 100.0
        );
    }

    #[test]
    fn reduction_is_zero_when_cas_has_no_dead_spots() {
        let cmp = DeadzoneComparison {
            cas_dead: 0,
            das_dead: 0,
            total_spots: 100,
        };
        assert_eq!(cmp.reduction(), 0.0);
    }
}
