//! Property-based tests for the channel simulator invariants.

use midas_channel::geometry::{angular_separation, Point, Rect};
use midas_channel::pathloss::PathLossModel;
use midas_channel::topology::{place_antennas, single_ap, DeploymentKind, TopologyConfig};
use midas_channel::{ChannelModel, Environment, SimRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn path_loss_is_monotone_in_distance(
        exponent in 2.0f64..4.5,
        wall in 0.0f64..1.0,
        d1 in 1.0f64..100.0,
        d2 in 1.0f64..100.0,
    ) {
        let m = PathLossModel::new(exponent, wall);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.path_loss_db(lo) <= m.path_loss_db(hi) + 1e-9);
    }

    #[test]
    fn path_loss_inverse_round_trips(
        exponent in 2.0f64..4.5,
        wall in 0.0f64..1.0,
        d in 1.5f64..200.0,
    ) {
        let m = PathLossModel::new(exponent, wall);
        let pl = m.path_loss_db(d);
        let back = m.distance_for_loss_db(pl);
        prop_assert!((back - d).abs() < 1e-2, "{} vs {}", back, d);
    }

    #[test]
    fn distance_is_symmetric_and_triangle_inequality_holds(
        ax in -50.0f64..50.0, ay in -50.0f64..50.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0,
        cx in -50.0f64..50.0, cy in -50.0f64..50.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let c = Point::new(cx, cy);
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    #[test]
    fn angular_separation_is_bounded(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let d = angular_separation(a, b);
        prop_assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&d));
        prop_assert!((d - angular_separation(b, a)).abs() < 1e-12);
    }

    #[test]
    fn das_antennas_stay_in_radius_band(seed in 0u64..1000) {
        let mut rng = SimRng::new(seed);
        let cfg = TopologyConfig::das(4, 4);
        let region = Rect::new(Point::new(0.0, 0.0), 60.0, 60.0);
        let ap = Point::new(30.0, 30.0);
        let antennas = place_antennas(ap, &cfg, &region, &mut rng);
        prop_assert_eq!(antennas.len(), 4);
        for a in antennas {
            let d = ap.distance(&a);
            prop_assert!(d >= cfg.das_radius_min_m - 1e-9 && d <= cfg.das_radius_max_m + 1e-9);
        }
    }

    #[test]
    fn channel_realisation_is_finite_and_consistent(seed in 0u64..500, office_b in any::<bool>()) {
        let env = if office_b { Environment::office_b() } else { Environment::office_a() };
        let mut rng = SimRng::new(seed);
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let topo = single_ap(&TopologyConfig::das(4, 4), region, &mut rng);
        let mut model = ChannelModel::new(env, seed);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        prop_assert!(ch.h.is_finite());
        prop_assert_eq!(ch.num_clients(), 4);
        prop_assert_eq!(ch.num_antennas(), 4);
        for j in 0..4 {
            for k in 0..4 {
                prop_assert!(ch.large_scale.get(j, k) > 0.0);
                // Composite gain magnitude should be within a plausible factor of the
                // large-scale gain (fading rarely exceeds ~20 dB swings).
                let ratio = ch.h.get(j, k).norm() / ch.large_scale.get(j, k);
                prop_assert!(ratio < 100.0);
            }
        }
    }

    #[test]
    fn same_seed_reproduces_identical_channels(seed in 0u64..500) {
        let env = Environment::office_a();
        let mk = |s| {
            let mut rng = SimRng::new(s);
            let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
            let topo = single_ap(&TopologyConfig::das(4, 4), region, &mut rng);
            let mut model = ChannelModel::new(env, s);
            let clients = topo.clients_of(0);
            model.realize(&topo.aps[0], &clients)
        };
        let a = mk(seed);
        let b = mk(seed);
        prop_assert!(a.h.approx_eq(&b.h, 0.0));
    }

    #[test]
    fn cas_topology_keeps_antennas_within_centimetres(seed in 0u64..500) {
        let mut rng = SimRng::new(seed);
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let topo = single_ap(&TopologyConfig::cas(4, 4), region, &mut rng);
        let ap = &topo.aps[0];
        prop_assert_eq!(ap.kind, DeploymentKind::Cas);
        for a in &ap.antennas {
            prop_assert!(ap.position.distance(a) < 0.15);
        }
    }
}
