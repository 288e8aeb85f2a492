//! Arbitrary W×H floor-grid deployments.
//!
//! The paper's evaluation stops at the fixed 8-AP floor plan of §5.4/§5.5;
//! [`FloorGrid`] generalises it to arbitrary enterprise floors: APs on a
//! regular `cols × rows` grid with configurable spacing, an optional
//! wall-attenuation override for denser construction, and three client
//! placement models (uniform, hotspot-clustered, corridor).  Clients are
//! placed over the whole floor — not per-AP discs — and handed to the
//! association layer ([`crate::scale::association`]) to pick their AP, which
//! is what lets MIDAS's distributed antennas shape association at scale.

use crate::deployment::PairedTopology;
use crate::scale::association::{associate, AssociationPolicy};
use crate::scale::index::SpatialIndex;
use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::{
    place_antennas, Client, Deployment, Topology, TopologyConfig, TopologyConfigError,
};
use midas_channel::{DeploymentKind, Environment, SimRng};

/// How clients are scattered over the floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientPlacement {
    /// Uniformly at random over the whole floor (the paper's model).
    Uniform,
    /// Clustered around `clusters` uniformly-drawn hotspot centres with a
    /// Gaussian spread — meeting rooms, lecture halls, café corners.
    Hotspot {
        /// Number of hotspot centres.
        clusters: usize,
        /// Standard deviation of the offset from the centre, metres.
        sigma_m: f64,
    },
    /// Confined to horizontal corridor bands running between AP rows —
    /// hallway traffic in apartment/hotel floors.
    Corridor {
        /// Corridor width, metres.
        width_m: f64,
    },
}

/// A `FloorGrid` that cannot produce a meaningful deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum FloorGridError {
    /// The grid has zero columns or rows.
    EmptyGrid,
    /// AP spacing or margin is not strictly positive / non-negative.
    BadDimensions {
        /// Description of the offending field.
        what: &'static str,
        /// The offending value, metres.
        value: f64,
    },
    /// The placement model is degenerate (zero clusters, non-positive
    /// spread or width).
    BadPlacement(&'static str),
    /// The antenna-placement config is invalid.
    Topology(TopologyConfigError),
}

impl std::fmt::Display for FloorGridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloorGridError::EmptyGrid => write!(f, "floor grid must have at least 1x1 APs"),
            FloorGridError::BadDimensions { what, value } => {
                write!(f, "{what} must be valid, got {value} m")
            }
            FloorGridError::BadPlacement(what) => {
                write!(f, "degenerate client placement model: {what}")
            }
            FloorGridError::Topology(e) => write!(f, "invalid TopologyConfig: {e}"),
        }
    }
}

impl std::error::Error for FloorGridError {}

impl From<TopologyConfigError> for FloorGridError {
    fn from(e: TopologyConfigError) -> Self {
        FloorGridError::Topology(e)
    }
}

/// An enterprise floor: APs on a regular grid, clients by placement model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloorGrid {
    /// AP columns.
    pub cols: usize,
    /// AP rows.
    pub rows: usize,
    /// Distance between adjacent APs, metres.
    pub ap_spacing_m: f64,
    /// Margin between the outermost APs and the floor boundary, metres.
    pub margin_m: f64,
    /// Clients generated per AP (total clients = `cols * rows * clients_per_ap`).
    pub clients_per_ap: usize,
    /// Client placement model.
    pub placement: ClientPlacement,
    /// Override of the environment's wall attenuation (dB per metre of
    /// path), for floors with denser construction than the presets.
    pub wall_loss_db_per_m: Option<f64>,
}

impl FloorGrid {
    /// A `cols × rows` grid with the given AP spacing, uniform clients and a
    /// half-spacing margin.
    pub fn new(cols: usize, rows: usize, ap_spacing_m: f64) -> Self {
        FloorGrid {
            cols,
            rows,
            ap_spacing_m,
            margin_m: ap_spacing_m / 2.0,
            clients_per_ap: 8,
            placement: ClientPlacement::Uniform,
            wall_loss_db_per_m: None,
        }
    }

    /// Splits `aps` into the most square `cols × rows` factorisation
    /// (e.g. 8 → 4×2, 16 → 4×4, 32 → 8×4, 64 → 8×8; primes degrade to a
    /// 1-row corridor of APs).
    pub fn squarish(aps: usize, ap_spacing_m: f64) -> Self {
        let mut rows = 1;
        let mut w = (aps as f64).sqrt() as usize;
        while w >= 1 {
            if aps.is_multiple_of(w) {
                rows = w;
                break;
            }
            w -= 1;
        }
        FloorGrid::new(aps / rows.max(1), rows.max(1), ap_spacing_m)
    }

    /// Total number of APs.
    pub fn num_aps(&self) -> usize {
        self.cols * self.rows
    }

    /// The floor-plan bounding box.
    pub fn region(&self) -> Rect {
        Rect::new(
            Point::new(0.0, 0.0),
            (self.cols.saturating_sub(1)) as f64 * self.ap_spacing_m + 2.0 * self.margin_m,
            (self.rows.saturating_sub(1)) as f64 * self.ap_spacing_m + 2.0 * self.margin_m,
        )
    }

    /// AP positions in row-major order.
    pub fn ap_positions(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.num_aps());
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(Point::new(
                    self.margin_m + c as f64 * self.ap_spacing_m,
                    self.margin_m + r as f64 * self.ap_spacing_m,
                ));
            }
        }
        out
    }

    /// The propagation environment for this floor: `base` with the wall
    /// attenuation override applied, when configured.
    pub fn environment(&self, base: Environment) -> Environment {
        let mut env = base;
        if let Some(wall) = self.wall_loss_db_per_m {
            env.path_loss.wall_loss_db_per_m = wall;
        }
        env
    }

    /// Checks the grid parameters for degenerate values.
    pub fn validate(&self) -> Result<(), FloorGridError> {
        if self.cols == 0 || self.rows == 0 {
            return Err(FloorGridError::EmptyGrid);
        }
        if self.ap_spacing_m.is_nan() || self.ap_spacing_m <= 0.0 {
            return Err(FloorGridError::BadDimensions {
                what: "ap_spacing_m (must be strictly positive)",
                value: self.ap_spacing_m,
            });
        }
        if self.margin_m.is_nan() || self.margin_m < 0.0 {
            return Err(FloorGridError::BadDimensions {
                what: "margin_m (must be non-negative)",
                value: self.margin_m,
            });
        }
        if let Some(wall) = self.wall_loss_db_per_m {
            if wall.is_nan() || wall < 0.0 {
                return Err(FloorGridError::BadDimensions {
                    what: "wall_loss_db_per_m (must be non-negative)",
                    value: wall,
                });
            }
        }
        match self.placement {
            ClientPlacement::Uniform => {}
            ClientPlacement::Hotspot { clusters, sigma_m } => {
                if clusters == 0 {
                    return Err(FloorGridError::BadPlacement("zero hotspot clusters"));
                }
                if sigma_m.is_nan() || sigma_m <= 0.0 {
                    return Err(FloorGridError::BadPlacement("non-positive hotspot spread"));
                }
            }
            ClientPlacement::Corridor { width_m } => {
                if width_m.is_nan() || width_m <= 0.0 {
                    return Err(FloorGridError::BadPlacement("non-positive corridor width"));
                }
            }
        }
        Ok(())
    }

    /// Generates one deployment of this floor: grid APs with antennas placed
    /// per `config`, clients scattered by the placement model and initially
    /// associated to their nearest AP chassis (use
    /// [`crate::scale::association::associate`] to re-associate under a
    /// smarter policy).  The nearest-chassis pass compares every client
    /// with every AP; [`generate_paired`](Self::generate_paired), which
    /// associates under a policy anyway, shares the placement and skips it.
    pub fn generate(
        &self,
        config: &TopologyConfig,
        rng: &mut SimRng,
    ) -> Result<Topology, FloorGridError> {
        let mut topo = self.place(config, rng)?;
        // Mean RSSI is monotone in distance, so this is the NearestAp policy
        // without needing an environment.
        for client in &mut topo.clients {
            let mut best = (0usize, f64::INFINITY);
            for ap in &topo.aps {
                let d = ap.position.distance(&client.position);
                if d < best.1 {
                    best = (ap.ap_id, d);
                }
            }
            client.ap_id = best.0;
        }
        Ok(topo)
    }

    /// The placement [`generate`](Self::generate) and
    /// [`generate_paired`](Self::generate_paired) share: grid APs with
    /// antennas placed per `config` and clients scattered by the placement
    /// model, every client on AP 0.
    fn place(&self, config: &TopologyConfig, rng: &mut SimRng) -> Result<Topology, FloorGridError> {
        self.validate()?;
        config.validate()?;
        let region = self.region();

        let mut aps = Vec::with_capacity(self.num_aps());
        let mut antenna_index = SpatialIndex::new(region, config.min_client_antenna_m.max(1.0));
        for (ap_id, position) in self.ap_positions().into_iter().enumerate() {
            let antennas = place_antennas(position, config, &region, rng);
            for &a in &antennas {
                antenna_index.insert(a);
            }
            aps.push(Deployment {
                ap_id,
                position,
                kind: config.kind,
                antennas,
            });
        }

        let mut clients = Vec::with_capacity(self.num_aps() * self.clients_per_ap);
        let hotspots: Vec<Point> = match self.placement {
            ClientPlacement::Hotspot { clusters, .. } => (0..clusters)
                .map(|_| {
                    Point::new(
                        rng.uniform_range(region.min.x, region.max.x),
                        rng.uniform_range(region.min.y, region.max.y),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        let total_clients = self.num_aps() * self.clients_per_ap;
        let mut attempts = 0usize;
        let mut near = Vec::new();
        while clients.len() < total_clients {
            attempts += 1;
            let relax = attempts > total_clients * 50;
            let candidate = region.clamp(&self.sample_client_position(&hotspots, rng));
            // Keep the configured clearance from every antenna; the index
            // makes this an O(1) lookup instead of a scan over all antennas.
            let clear = relax || config.min_client_antenna_m <= 0.0 || {
                antenna_index.neighbors_within_into(
                    &candidate,
                    config.min_client_antenna_m,
                    &mut near,
                );
                near.is_empty()
            };
            if clear {
                clients.push(Client {
                    id: clients.len(),
                    ap_id: 0,
                    position: candidate,
                });
            }
        }

        Ok(Topology {
            region,
            aps,
            clients,
        })
    }

    fn sample_client_position(&self, hotspots: &[Point], rng: &mut SimRng) -> Point {
        let region = self.region();
        match self.placement {
            ClientPlacement::Uniform => Point::new(
                rng.uniform_range(region.min.x, region.max.x),
                rng.uniform_range(region.min.y, region.max.y),
            ),
            ClientPlacement::Hotspot { sigma_m, .. } => {
                let centre = hotspots[rng.uniform_usize(hotspots.len())];
                Point::new(
                    rng.gaussian_with(centre.x, sigma_m),
                    rng.gaussian_with(centre.y, sigma_m),
                )
            }
            ClientPlacement::Corridor { width_m } => {
                // Corridors run between adjacent AP rows; a single-row floor
                // gets one corridor through the row itself.
                let corridors = self.rows.saturating_sub(1).max(1);
                let corridor = rng.uniform_usize(corridors);
                let y = if self.rows > 1 {
                    self.margin_m + (corridor as f64 + 0.5) * self.ap_spacing_m
                } else {
                    self.margin_m
                };
                Point::new(
                    rng.uniform_range(region.min.x, region.max.x),
                    y + rng.uniform_range(-width_m / 2.0, width_m / 2.0),
                )
            }
        }
    }

    /// Generates the paired CAS/DAS realisation of this floor under the
    /// given (DAS) antenna config, with each variant associated under
    /// `policy` against **its own** antenna geometry — distributed antennas
    /// genuinely shape association, which is part of the MIDAS story at
    /// scale.
    ///
    /// It draws what [`generate`](Self::generate) draws, and its result is
    /// `generate` followed by [`associate`] on each variant, without the
    /// nearest-chassis pass that association overwrites.  Association ranks
    /// each client's candidates in distance order, so no step compares
    /// every client with every AP.
    pub fn generate_paired(
        &self,
        config: &TopologyConfig,
        env: &Environment,
        policy: AssociationPolicy,
        rng: &mut SimRng,
    ) -> Result<PairedTopology, FloorGridError> {
        let das_config = TopologyConfig {
            kind: DeploymentKind::Das,
            ..*config
        };
        let das = self.place(&das_config, rng)?;
        let mut pair = PairedTopology::from_das(das, config, rng);
        associate(&mut pair.cas, env, policy);
        associate(&mut pair.das, env, policy);
        Ok(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_places_aps_at_spacing_and_counts_match() {
        let grid = FloorGrid::new(4, 2, 15.0);
        assert_eq!(grid.num_aps(), 8);
        let positions = grid.ap_positions();
        assert_eq!(positions.len(), 8);
        assert_eq!(positions[0], Point::new(7.5, 7.5));
        assert_eq!(positions[1], Point::new(22.5, 7.5));
        assert_eq!(positions[4], Point::new(7.5, 22.5));
        let region = grid.region();
        assert_eq!(region.width(), 60.0);
        assert_eq!(region.height(), 30.0);
        assert!(positions.iter().all(|p| region.contains(p)));
    }

    #[test]
    fn squarish_factorisations_are_balanced() {
        for (aps, cols, rows) in [(8, 4, 2), (16, 4, 4), (32, 8, 4), (64, 8, 8), (7, 7, 1)] {
            let g = FloorGrid::squarish(aps, 15.0);
            assert_eq!((g.cols, g.rows), (cols, rows), "{aps} APs");
            assert_eq!(g.num_aps(), aps);
        }
    }

    #[test]
    fn generate_produces_full_topology_with_nearest_ap_association() {
        let mut rng = SimRng::new(1);
        let grid = FloorGrid::new(3, 3, 16.0);
        let topo = grid
            .generate(&TopologyConfig::das(4, 4), &mut rng)
            .expect("valid grid");
        assert_eq!(topo.aps.len(), 9);
        assert_eq!(topo.clients.len(), 9 * grid.clients_per_ap);
        assert!(topo.aps.iter().all(|ap| ap.num_antennas() == 4));
        for c in &topo.clients {
            assert!(topo.region.contains(&c.position));
            // Nearest-AP association: no other AP is strictly closer.
            let own = topo.aps[c.ap_id].position.distance(&c.position);
            for ap in &topo.aps {
                assert!(ap.position.distance(&c.position) >= own - 1e-9);
            }
        }
    }

    #[test]
    fn hotspot_placement_concentrates_clients() {
        let mut rng = SimRng::new(2);
        let grid = FloorGrid {
            clients_per_ap: 16,
            placement: ClientPlacement::Hotspot {
                clusters: 2,
                sigma_m: 3.0,
            },
            ..FloorGrid::new(4, 4, 15.0)
        };
        let topo = grid.generate(&TopologyConfig::das(4, 4), &mut rng).unwrap();
        // Mean nearest-neighbour distance is far below the uniform
        // expectation for this density when clients are clustered.
        let nn: f64 = topo
            .clients
            .iter()
            .map(|c| {
                topo.clients
                    .iter()
                    .filter(|o| o.id != c.id)
                    .map(|o| o.position.distance(&c.position))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / topo.clients.len() as f64;
        assert!(nn < 2.0, "mean nearest-neighbour distance {nn:.2} m");
    }

    #[test]
    fn corridor_placement_keeps_clients_in_bands() {
        let mut rng = SimRng::new(3);
        let grid = FloorGrid {
            placement: ClientPlacement::Corridor { width_m: 3.0 },
            ..FloorGrid::new(2, 4, 12.0)
        };
        let topo = grid.generate(&TopologyConfig::das(4, 4), &mut rng).unwrap();
        let corridor_ys: Vec<f64> = (0..3).map(|i| 6.0 + (i as f64 + 0.5) * 12.0).collect();
        for c in &topo.clients {
            let in_band = corridor_ys
                .iter()
                .any(|y| (c.position.y - y).abs() <= 1.5 + 1e-9);
            assert!(in_band, "client at {:?} outside every corridor", c.position);
        }
    }

    #[test]
    fn wall_override_applies_to_environment() {
        let grid = FloorGrid {
            wall_loss_db_per_m: Some(0.9),
            ..FloorGrid::new(2, 2, 10.0)
        };
        let env = grid.environment(Environment::office_b());
        assert_eq!(env.path_loss.wall_loss_db_per_m, 0.9);
        // Denser walls shrink every range.
        assert!(env.coverage_range_m() < Environment::office_b().coverage_range_m());
    }

    #[test]
    fn degenerate_grids_are_rejected() {
        assert_eq!(
            FloorGrid::new(0, 3, 10.0).validate(),
            Err(FloorGridError::EmptyGrid)
        );
        assert!(FloorGrid::new(2, 2, 0.0).validate().is_err());
        assert!(FloorGrid {
            placement: ClientPlacement::Hotspot {
                clusters: 0,
                sigma_m: 3.0
            },
            ..FloorGrid::new(2, 2, 10.0)
        }
        .validate()
        .is_err());
        assert!(FloorGrid {
            placement: ClientPlacement::Corridor { width_m: -1.0 },
            ..FloorGrid::new(2, 2, 10.0)
        }
        .validate()
        .is_err());
        let mut rng = SimRng::new(4);
        let bad_cfg = TopologyConfig {
            das_radius_min_m: 9.0,
            das_radius_max_m: 3.0,
            ..TopologyConfig::das(4, 4)
        };
        let err = FloorGrid::new(2, 2, 10.0)
            .generate(&bad_cfg, &mut rng)
            .expect_err("invalid config must be rejected");
        assert!(matches!(err, FloorGridError::Topology(_)));
    }

    #[test]
    fn paired_grid_shares_positions_and_differs_in_kind() {
        let mut rng = SimRng::new(5);
        let grid = FloorGrid::new(4, 2, 15.0);
        let pair = grid
            .generate_paired(
                &TopologyConfig::das(4, 4),
                &Environment::open_plan(),
                AssociationPolicy::NearestAp,
                &mut rng,
            )
            .unwrap();
        assert_eq!(pair.cas.aps.len(), 8);
        assert_eq!(pair.das.aps.len(), 8);
        for (c, d) in pair.cas.aps.iter().zip(pair.das.aps.iter()) {
            assert_eq!(c.position, d.position);
            assert_eq!(c.kind, DeploymentKind::Cas);
            assert_eq!(d.kind, DeploymentKind::Das);
        }
        // Same client positions in both variants (association may differ).
        for (c, d) in pair.cas.clients.iter().zip(pair.das.clients.iter()) {
            assert_eq!(c.position, d.position);
        }
    }
}
