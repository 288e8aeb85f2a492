//! CAS / DAS deployment and client-placement generators.
//!
//! The paper's topologies (§5.1) follow a few explicit rules which this
//! module reproduces:
//!
//! * **CAS**: the AP's antennas are co-located at the AP with half-wavelength
//!   spacing between adjacent antennas.
//! * **DAS**: the antennas are distributed around the AP at a distance of
//!   5–10 m (the paper's §7 recommends 50–75 % of the CAS coverage range),
//!   connected back to the AP with RF cables.
//! * For the multi-AP spatial-reuse experiments, no two antennas of the same
//!   AP may fall within a 60° sector as seen from the AP (§5.3.1), which
//!   prevents antenna clustering from biasing the results.
//! * For the 8-AP large-scale simulation, DAS antennas must stay inside the
//!   original AP's coverage area and no two antennas may be closer than 5 m
//!   (§5.5).
//! * Clients are placed uniformly at random inside the region of interest
//!   (offices / corridor in the testbed).

use crate::environment::Environment;
use crate::geometry::{angular_separation, Point, Rect};
use crate::rng::SimRng;
use crate::wavelength_m;

/// How an AP's antennas are deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentKind {
    /// Co-located antenna system: all antennas at the AP, half-wavelength apart.
    Cas,
    /// Distributed antenna system: antennas cabled out around the AP.
    Das,
}

/// One AP: its own position plus the positions of its antennas.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// AP index within the topology.
    pub ap_id: usize,
    /// Position of the AP chassis (where the radios/baseband live).
    pub position: Point,
    /// Deployment style of the antennas.
    pub kind: DeploymentKind,
    /// Antenna positions, `antennas[i]` is antenna `i` of this AP.
    pub antennas: Vec<Point>,
}

impl Deployment {
    /// Number of antennas at this AP.
    pub fn num_antennas(&self) -> usize {
        self.antennas.len()
    }
}

/// A client device with a single antenna (the paper's clients are
/// single-antenna WARP boards).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Client {
    /// Client index within the topology.
    pub id: usize,
    /// AP this client is associated with.
    pub ap_id: usize,
    /// Physical position.
    pub position: Point,
}

/// A complete deployment: region, APs (with antennas) and clients.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Region of interest (floor plan bounding box).
    pub region: Rect,
    /// All APs.
    pub aps: Vec<Deployment>,
    /// All clients.
    pub clients: Vec<Client>,
}

impl Topology {
    /// Clients associated with the given AP.
    pub fn clients_of(&self, ap_id: usize) -> Vec<&Client> {
        self.clients.iter().filter(|c| c.ap_id == ap_id).collect()
    }
}

/// Parameters controlling topology generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Antennas per AP (the paper uses up to 4).
    pub antennas_per_ap: usize,
    /// Clients per AP.
    pub clients_per_ap: usize,
    /// Deployment style.
    pub kind: DeploymentKind,
    /// Minimum DAS antenna distance from the AP, metres (paper: 5 m).
    pub das_radius_min_m: f64,
    /// Maximum DAS antenna distance from the AP, metres (paper: 10 m).
    pub das_radius_max_m: f64,
    /// Minimum angular separation between antennas of one AP, degrees
    /// (paper §5.3.1 uses 60°; set to 0 to disable).
    pub min_sector_deg: f64,
    /// Minimum spacing between any two DAS antennas of one AP, metres
    /// (paper §5.5 uses 5 m for the large-scale simulation; 0 disables).
    pub min_antenna_separation_m: f64,
    /// Minimum client distance from any antenna, metres (avoids generating a
    /// client exactly on top of an antenna).
    pub min_client_antenna_m: f64,
    /// Maximum client distance from its AP, metres (clients associate with an
    /// AP they can actually hear).  `f64::INFINITY` disables the constraint.
    pub max_client_ap_m: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            antennas_per_ap: 4,
            clients_per_ap: 4,
            kind: DeploymentKind::Das,
            das_radius_min_m: 5.0,
            das_radius_max_m: 10.0,
            min_sector_deg: 60.0,
            min_antenna_separation_m: 0.0,
            min_client_antenna_m: 1.0,
            max_client_ap_m: 20.0,
        }
    }
}

/// A [`TopologyConfig`] that would silently generate degenerate placements.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyConfigError {
    /// `antennas_per_ap` is zero.
    NoAntennas,
    /// A placement radius (DAS annulus or client-association disc) is not
    /// strictly positive.
    NonPositiveRadius {
        /// Which radius field was invalid.
        field: &'static str,
        /// The offending value, metres.
        value: f64,
    },
    /// `das_radius_min_m` exceeds `das_radius_max_m`.
    InvertedRadiusBand {
        /// Configured minimum radius, metres.
        min_m: f64,
        /// Configured maximum radius, metres.
        max_m: f64,
    },
    /// `min_sector_deg` is outside `[0, 360]` (or not finite).
    SectorOutOfRange {
        /// The offending value, degrees.
        value: f64,
    },
    /// A spacing/clearance constraint is negative (or not finite).
    NegativeSpacing {
        /// Which spacing field was invalid.
        field: &'static str,
        /// The offending value, metres.
        value: f64,
    },
}

impl std::fmt::Display for TopologyConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyConfigError::NoAntennas => {
                write!(f, "antennas_per_ap must be at least 1")
            }
            TopologyConfigError::NonPositiveRadius { field, value } => {
                write!(f, "{field} must be strictly positive, got {value} m")
            }
            TopologyConfigError::InvertedRadiusBand { min_m, max_m } => {
                write!(
                    f,
                    "das_radius_min_m ({min_m} m) exceeds das_radius_max_m ({max_m} m); \
                     the DAS placement annulus is empty"
                )
            }
            TopologyConfigError::SectorOutOfRange { value } => {
                write!(f, "min_sector_deg must lie in [0, 360], got {value}")
            }
            TopologyConfigError::NegativeSpacing { field, value } => {
                write!(f, "{field} must be non-negative, got {value} m")
            }
        }
    }
}

impl std::error::Error for TopologyConfigError {}

impl TopologyConfig {
    /// Checks the configuration for values that would silently produce
    /// degenerate placements (empty DAS annulus, impossible sector
    /// constraint, negative clearances).
    ///
    /// The generation functions ([`place_antennas`], `place_clients`,
    /// [`multi_ap`]) call this and panic with the descriptive error, so a
    /// contradictory config fails loudly at the first use instead of
    /// spinning the rejection samplers into their relaxation fallback.
    pub fn validate(&self) -> Result<(), TopologyConfigError> {
        if self.antennas_per_ap == 0 {
            return Err(TopologyConfigError::NoAntennas);
        }
        if self.kind == DeploymentKind::Das {
            for (field, value) in [
                ("das_radius_min_m", self.das_radius_min_m),
                ("das_radius_max_m", self.das_radius_max_m),
            ] {
                if value.is_nan() || value <= 0.0 {
                    return Err(TopologyConfigError::NonPositiveRadius { field, value });
                }
            }
            if self.das_radius_min_m > self.das_radius_max_m {
                return Err(TopologyConfigError::InvertedRadiusBand {
                    min_m: self.das_radius_min_m,
                    max_m: self.das_radius_max_m,
                });
            }
        }
        if !(0.0..=360.0).contains(&self.min_sector_deg) {
            return Err(TopologyConfigError::SectorOutOfRange {
                value: self.min_sector_deg,
            });
        }
        for (field, value) in [
            ("min_antenna_separation_m", self.min_antenna_separation_m),
            ("min_client_antenna_m", self.min_client_antenna_m),
        ] {
            if value.is_nan() || value < 0.0 {
                return Err(TopologyConfigError::NegativeSpacing { field, value });
            }
        }
        if self.max_client_ap_m.is_nan() || self.max_client_ap_m <= 0.0 {
            return Err(TopologyConfigError::NonPositiveRadius {
                field: "max_client_ap_m",
                value: self.max_client_ap_m,
            });
        }
        Ok(())
    }

    /// Convenience constructor for a CAS configuration with the same client
    /// parameters.
    pub fn cas(antennas_per_ap: usize, clients_per_ap: usize) -> Self {
        TopologyConfig {
            antennas_per_ap,
            clients_per_ap,
            kind: DeploymentKind::Cas,
            ..Default::default()
        }
    }

    /// Convenience constructor for a DAS configuration with the paper's
    /// default placement rules.
    pub fn das(antennas_per_ap: usize, clients_per_ap: usize) -> Self {
        TopologyConfig {
            antennas_per_ap,
            clients_per_ap,
            kind: DeploymentKind::Das,
            ..Default::default()
        }
    }
}

/// Generates the antenna positions for a single AP.
///
/// CAS antennas form a short linear array with half-wavelength spacing; DAS
/// antennas are placed at a uniform-random angle and radius subject to the
/// sector- and spacing-constraints in `config`.
pub fn place_antennas(
    ap_position: Point,
    config: &TopologyConfig,
    region: &Rect,
    rng: &mut SimRng,
) -> Vec<Point> {
    if let Err(e) = config.validate() {
        panic!("invalid TopologyConfig: {e}");
    }
    match config.kind {
        DeploymentKind::Cas => {
            let spacing = wavelength_m() / 2.0;
            (0..config.antennas_per_ap)
                .map(|i| Point::new(ap_position.x + i as f64 * spacing, ap_position.y))
                .collect()
        }
        DeploymentKind::Das => {
            let mut antennas: Vec<Point> = Vec::with_capacity(config.antennas_per_ap);
            let mut angles: Vec<f64> = Vec::with_capacity(config.antennas_per_ap);
            let min_sector_rad = config.min_sector_deg.to_radians();
            let mut attempts = 0usize;
            while antennas.len() < config.antennas_per_ap {
                attempts += 1;
                let angle = rng.uniform_range(0.0, 2.0 * std::f64::consts::PI);
                let radius = rng.uniform_range(config.das_radius_min_m, config.das_radius_max_m);
                let candidate = region.clamp(&ap_position.offset_polar(radius, angle));
                // After too many rejections, relax the constraints rather than
                // loop forever (can only happen with contradictory configs).
                let relax = attempts > 200;
                let sector_ok = relax
                    || angles
                        .iter()
                        .all(|&a| angular_separation(a, angle) >= min_sector_rad);
                let spacing_ok = relax
                    || antennas
                        .iter()
                        .all(|p| p.distance(&candidate) >= config.min_antenna_separation_m);
                if sector_ok && spacing_ok {
                    angles.push(angle);
                    antennas.push(candidate);
                }
            }
            antennas
        }
    }
}

/// Generates the client positions for a single AP.
fn place_clients(
    ap: &Deployment,
    config: &TopologyConfig,
    region: &Rect,
    rng: &mut SimRng,
    first_client_id: usize,
) -> Vec<Client> {
    if let Err(e) = config.validate() {
        panic!("invalid TopologyConfig: {e}");
    }
    let mut clients = Vec::with_capacity(config.clients_per_ap);
    let mut attempts = 0usize;
    while clients.len() < config.clients_per_ap {
        attempts += 1;
        let relax = attempts > 500;
        let candidate = if config.max_client_ap_m.is_finite() {
            // Sample within the association range of the AP (uniform over the disc).
            let angle = rng.uniform_range(0.0, 2.0 * std::f64::consts::PI);
            let r = config.max_client_ap_m * rng.uniform().sqrt();
            region.clamp(&ap.position.offset_polar(r, angle))
        } else {
            Point::new(
                rng.uniform_range(region.min.x, region.max.x),
                rng.uniform_range(region.min.y, region.max.y),
            )
        };
        let clear_of_antennas = relax
            || ap
                .antennas
                .iter()
                .all(|a| a.distance(&candidate) >= config.min_client_antenna_m);
        if clear_of_antennas {
            clients.push(Client {
                id: first_client_id + clients.len(),
                ap_id: ap.ap_id,
                position: candidate,
            });
        }
    }
    clients
}

/// Generates a single-AP topology with the AP at the centre of the region.
pub fn single_ap(config: &TopologyConfig, region: Rect, rng: &mut SimRng) -> Topology {
    multi_ap(config, region, &[region.center()], rng)
}

/// Generates a topology with APs at the given positions.
pub fn multi_ap(
    config: &TopologyConfig,
    region: Rect,
    ap_positions: &[Point],
    rng: &mut SimRng,
) -> Topology {
    let mut aps = Vec::with_capacity(ap_positions.len());
    let mut clients = Vec::new();
    for (ap_id, &position) in ap_positions.iter().enumerate() {
        let antennas = place_antennas(position, config, &region, rng);
        let ap = Deployment {
            ap_id,
            position,
            kind: config.kind,
            antennas,
        };
        let mut c = place_clients(&ap, config, &region, rng, clients.len());
        clients.append(&mut c);
        aps.push(ap);
    }
    Topology {
        region,
        aps,
        clients,
    }
}

/// The paper's 3-AP testbed layout: APs with ~15 m spacing, all within
/// carrier-sense range of each other (§5.1, §5.3.1, §5.4).
///
/// The APs are placed on an equilateral triangle with 15 m sides so that
/// every AP pair is exactly the quoted inter-AP distance apart (a straight
/// line would put the two outer APs 30 m apart, which is beyond the
/// carrier-sense range of the office environments).
pub fn three_ap_testbed(config: &TopologyConfig, rng: &mut SimRng) -> Topology {
    let region = Rect::new(Point::new(0.0, 0.0), 45.0, 40.0);
    let side = 15.0;
    let cx = 22.5;
    let cy = 15.0;
    let h = side * 3f64.sqrt() / 2.0;
    let positions = [
        Point::new(cx - side / 2.0, cy),
        Point::new(cx + side / 2.0, cy),
        Point::new(cx, cy + h),
    ];
    multi_ap(config, region, &positions, rng)
}

/// The paper's large-scale simulation layout: 8 APs placed uniformly at
/// random in a 60 × 60 m region such that no AP overhears more than
/// `max_overheard` other APs (§5.5).
pub fn eight_ap_large_scale(
    config: &TopologyConfig,
    env: &Environment,
    max_overheard: usize,
    rng: &mut SimRng,
) -> Topology {
    let region = Rect::new(Point::new(0.0, 0.0), 60.0, 60.0);
    let cs_range = env.carrier_sense_range_m();
    let num_aps = 8;

    // Rejection-sample AP positions until the overhearing constraint holds
    // (or a generous attempt budget is exhausted, in which case the best
    // effort so far is used — the constraint is a bias guard, not a hard
    // physical requirement).
    let mut positions: Vec<Point> = Vec::new();
    'outer: for _attempt in 0..400 {
        positions.clear();
        for _ in 0..num_aps {
            let mut placed = false;
            for _ in 0..200 {
                let p = Point::new(
                    rng.uniform_range(region.min.x, region.max.x),
                    rng.uniform_range(region.min.y, region.max.y),
                );
                let overheard = positions
                    .iter()
                    .filter(|q| q.distance(&p) < cs_range)
                    .count();
                if overheard <= max_overheard {
                    positions.push(p);
                    placed = true;
                    break;
                }
            }
            if !placed {
                continue 'outer;
            }
        }
        // Verify the constraint globally (earlier APs may now overhear more).
        let ok = positions.iter().enumerate().all(|(i, p)| {
            positions
                .iter()
                .enumerate()
                .filter(|&(j, q)| i != j && p.distance(q) < cs_range)
                .count()
                <= max_overheard
        });
        if ok {
            break;
        }
    }
    while positions.len() < num_aps {
        positions.push(Point::new(
            rng.uniform_range(region.min.x, region.max.x),
            rng.uniform_range(region.min.y, region.max.y),
        ));
    }

    // DAS antennas must not leave the original AP coverage area (enforced via
    // das_radius_max <= coverage range) — the default 10 m is far inside it.
    multi_ap(config, region, &positions, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;

    fn region() -> Rect {
        Rect::new(Point::new(0.0, 0.0), 40.0, 40.0)
    }

    #[test]
    fn cas_antennas_are_colocated_at_half_wavelength() {
        let mut rng = SimRng::new(1);
        let cfg = TopologyConfig::cas(4, 4);
        let antennas = place_antennas(Point::new(20.0, 20.0), &cfg, &region(), &mut rng);
        assert_eq!(antennas.len(), 4);
        let spacing = wavelength_m() / 2.0;
        for pair in antennas.windows(2) {
            assert!((pair[0].distance(&pair[1]) - spacing).abs() < 1e-9);
        }
        // The whole array spans only a few centimetres.
        assert!(antennas[0].distance(&antennas[3]) < 0.2);
    }

    #[test]
    fn das_antennas_are_5_to_10_m_from_ap() {
        let mut rng = SimRng::new(2);
        let cfg = TopologyConfig::das(4, 4);
        let ap = Point::new(20.0, 20.0);
        for _ in 0..20 {
            let antennas = place_antennas(ap, &cfg, &region(), &mut rng);
            for a in &antennas {
                let d = ap.distance(a);
                assert!((4.9..=10.1).contains(&d), "distance {d}");
            }
        }
    }

    #[test]
    fn das_sector_constraint_is_respected() {
        let mut rng = SimRng::new(3);
        let cfg = TopologyConfig {
            min_sector_deg: 60.0,
            ..TopologyConfig::das(4, 4)
        };
        let ap = Point::new(20.0, 20.0);
        for _ in 0..20 {
            let antennas = place_antennas(ap, &cfg, &region(), &mut rng);
            for i in 0..antennas.len() {
                for j in (i + 1)..antennas.len() {
                    let ai = ap.angle_to(&antennas[i]);
                    let aj = ap.angle_to(&antennas[j]);
                    assert!(
                        angular_separation(ai, aj).to_degrees() >= 59.9,
                        "antennas {i},{j} within 60 degrees"
                    );
                }
            }
        }
    }

    #[test]
    fn das_min_separation_is_respected() {
        let mut rng = SimRng::new(4);
        let cfg = TopologyConfig {
            min_antenna_separation_m: 5.0,
            min_sector_deg: 0.0,
            ..TopologyConfig::das(4, 4)
        };
        let ap = Point::new(20.0, 20.0);
        for _ in 0..20 {
            let antennas = place_antennas(ap, &cfg, &region(), &mut rng);
            for i in 0..antennas.len() {
                for j in (i + 1)..antennas.len() {
                    assert!(antennas[i].distance(&antennas[j]) >= 4.99);
                }
            }
        }
    }

    #[test]
    fn single_ap_topology_has_expected_counts() {
        let mut rng = SimRng::new(5);
        let cfg = TopologyConfig::das(4, 6);
        let topo = single_ap(&cfg, region(), &mut rng);
        assert_eq!(topo.aps.len(), 1);
        assert_eq!(topo.aps[0].num_antennas(), 4);
        assert_eq!(topo.clients.len(), 6);
        assert_eq!(topo.clients_of(0).len(), 6);
        assert!(topo
            .clients
            .iter()
            .all(|c| topo.region.contains(&c.position)));
    }

    #[test]
    fn clients_keep_clearance_from_antennas() {
        let mut rng = SimRng::new(6);
        let cfg = TopologyConfig {
            min_client_antenna_m: 1.0,
            ..TopologyConfig::das(4, 8)
        };
        let topo = single_ap(&cfg, region(), &mut rng);
        for c in &topo.clients {
            for a in &topo.aps[0].antennas {
                assert!(a.distance(&c.position) >= 0.99);
            }
        }
    }

    #[test]
    fn three_ap_testbed_has_15m_spacing_between_every_pair() {
        let mut rng = SimRng::new(7);
        let topo = three_ap_testbed(&TopologyConfig::das(4, 4), &mut rng);
        assert_eq!(topo.aps.len(), 3);
        assert_eq!(topo.clients.len(), 12);
        for i in 0..3 {
            for j in (i + 1)..3 {
                let d = topo.aps[i].position.distance(&topo.aps[j].position);
                assert!((d - 15.0).abs() < 1e-9, "AP {i}-{j} distance {d}");
            }
        }
        assert!(topo
            .aps
            .iter()
            .all(|ap| ap.antennas.iter().all(|a| topo.region.contains(a))));
    }

    #[test]
    fn eight_ap_layout_respects_overhearing_constraint() {
        let mut rng = SimRng::new(8);
        let env = Environment::open_plan();
        let cfg = TopologyConfig {
            min_antenna_separation_m: 5.0,
            ..TopologyConfig::das(4, 4)
        };
        let topo = eight_ap_large_scale(&cfg, &env, 3, &mut rng);
        assert_eq!(topo.aps.len(), 8);
        let cs = env.carrier_sense_range_m();
        for (i, a) in topo.aps.iter().enumerate() {
            let overheard = topo
                .aps
                .iter()
                .enumerate()
                .filter(|&(j, b)| i != j && a.position.distance(&b.position) < cs)
                .count();
            assert!(overheard <= 3, "AP {i} overhears {overheard} APs");
        }
    }

    #[test]
    fn validate_accepts_the_stock_configs() {
        for cfg in [
            TopologyConfig::default(),
            TopologyConfig::cas(4, 4),
            TopologyConfig::das(2, 6),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs_with_descriptive_errors() {
        let das = TopologyConfig::das(4, 4);
        let cases = [
            TopologyConfig {
                antennas_per_ap: 0,
                ..das
            },
            TopologyConfig {
                das_radius_min_m: 0.0,
                ..das
            },
            TopologyConfig {
                das_radius_max_m: -3.0,
                ..das
            },
            TopologyConfig {
                das_radius_min_m: 12.0,
                das_radius_max_m: 5.0,
                ..das
            },
            TopologyConfig {
                min_sector_deg: 400.0,
                ..das
            },
            TopologyConfig {
                min_sector_deg: -1.0,
                ..das
            },
            TopologyConfig {
                min_antenna_separation_m: -0.5,
                ..das
            },
            TopologyConfig {
                min_client_antenna_m: f64::NAN,
                ..das
            },
            TopologyConfig {
                max_client_ap_m: 0.0,
                ..das
            },
        ];
        for cfg in cases {
            let err = cfg.validate().expect_err("config should be rejected");
            assert!(!err.to_string().is_empty());
        }
        // CAS deployments ignore the DAS radius band entirely.
        let cas = TopologyConfig {
            das_radius_min_m: -1.0,
            ..TopologyConfig::cas(4, 4)
        };
        assert_eq!(cas.validate(), Ok(()));
    }

    #[test]
    fn generators_panic_with_the_descriptive_error() {
        let cfg = TopologyConfig {
            das_radius_min_m: 12.0,
            das_radius_max_m: 5.0,
            ..TopologyConfig::das(4, 4)
        };
        let result = std::panic::catch_unwind(|| {
            let mut rng = SimRng::new(1);
            place_antennas(Point::new(20.0, 20.0), &cfg, &region(), &mut rng)
        });
        let payload = result.expect_err("placement should panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("das_radius_min_m") && msg.contains("annulus"),
            "panic message not descriptive: {msg}"
        );
    }
}
