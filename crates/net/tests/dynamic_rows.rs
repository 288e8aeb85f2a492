//! Dynamic channel rows: static and dynamic runs share one sparse row set,
//! kept exact every step, at static cost.
//!
//! * the row set after every round equals its brute-force definition
//!   (clients within interaction range of any of the AP's antennas, plus
//!   its own clients), under MIDAS and CAS with fast walkers that force
//!   births and frees;
//! * a dynamic run's round 0, and a run whose dynamics never step, are
//!   byte-identical to the static run;
//! * the memoised large-scale refresh is bit-identical to
//!   `refresh_large_scale_row`, shadowing-cell crossings included;
//! * the slack-tracked `Reassociator` makes exactly the handoffs of a
//!   from-scratch pass under all three policies;
//! * the dynamics layer's and fading evolution's work counters are pinned
//!   for one small seed;
//! * a moved client's rows are refreshed only when read: a step refreshes
//!   at most the rows its round reads plus the own rows of the APs whose
//!   tags it rebuilt.

use midas_channel::topology::{Topology, TopologyConfig};
use midas_channel::{ChannelModel, Environment, Point, SimRng};
use midas_net::dynamics::{DynamicsCounters, DynamicsSpec};
use midas_net::observer::{Observer, RoundRecord};
use midas_net::scale::{AssociationPolicy, FloorGrid, Reassociator, Scenario};
use midas_net::simulator::{FadingCounters, MacKind, NetworkSimConfig, NetworkSimulator};

/// Interaction range of the test floors: shorter than the enterprise
/// default so walkers cross many AP boundaries on an 8-AP floor.
const RANGE_M: f64 = 20.0;

/// Fast walkers (0.9 m per 3 ms TXOP) roaming antenna-aware.
fn fast_walk() -> DynamicsSpec {
    DynamicsSpec::roaming_walk(300.0)
}

/// An 8-AP enterprise floor with a finite interaction range.
fn sim(mac: MacKind, dynamics: Option<DynamicsSpec>, rounds: usize, seed: u64) -> NetworkSimulator {
    let scenario = Scenario::enterprise_office(8);
    let pair = scenario.build(seed).expect("buildable scenario");
    let topo = match mac {
        MacKind::Midas => pair.das,
        MacKind::Cas => pair.cas,
    };
    let mut config = scenario.sim_config(mac, rounds, seed);
    config.interaction_range_m = RANGE_M;
    config.dynamics = dynamics;
    NetworkSimulator::new(topo, config)
}

/// Brute-force row set of `ap`: every client within range of one of its
/// antennas, plus its own clients.
fn brute_force_rows(topo: &Topology, ap: usize, range: f64) -> Vec<usize> {
    topo.clients
        .iter()
        .filter(|c| {
            c.ap_id == ap
                || topo.aps[ap]
                    .antennas
                    .iter()
                    .any(|a| a.distance(&c.position) <= range)
        })
        .map(|c| c.id)
        .collect()
}

#[test]
fn rows_equal_the_brute_force_set_after_every_round() {
    let mut totals = DynamicsCounters::default();
    for mac in [MacKind::Midas, MacKind::Cas] {
        // A run of `rounds` rounds ends right after the dynamics step of
        // round `rounds - 1`: the prefixes cover every step.
        for rounds in 1..=14 {
            let mut s = sim(mac, Some(fast_walk()), rounds, 3);
            s.run();
            let topo = s.topology();
            for ap in 0..topo.aps.len() {
                assert_eq!(
                    s.channel_rows(ap).collect::<Vec<_>>(),
                    brute_force_rows(topo, ap, RANGE_M),
                    "{mac:?}: AP {ap} after {rounds} rounds"
                );
            }
            if rounds == 14 {
                let c = s.dynamics_counters().expect("dynamics are on");
                totals.rows_born += c.rows_born;
                totals.rows_freed += c.rows_freed;
            }
        }
    }
    // The walkers genuinely churned the row sets.
    assert!(totals.rows_born > 0, "no row was ever born");
    assert!(totals.rows_freed > 0, "no row was ever freed");
}

/// Records the deliveries of one round, bit for bit.
#[derive(Default)]
struct RoundCapture {
    round: usize,
    deliveries: Vec<(usize, usize, u64)>,
    transmitting: Vec<usize>,
}

impl Observer for RoundCapture {
    fn on_round(&mut self, record: &RoundRecord<'_>) {
        if record.round == self.round {
            self.deliveries = record
                .deliveries
                .iter()
                .map(|&(c, ap, cap)| (c, ap, cap.to_bits()))
                .collect();
            self.transmitting = record.transmitting_aps.to_vec();
        }
    }
}

#[test]
fn a_dynamic_runs_round_zero_and_a_never_stepping_run_match_the_static_run() {
    for mac in [MacKind::Midas, MacKind::Cas] {
        let rounds = 8;
        let capture = |dynamics| {
            let mut obs = RoundCapture::default();
            sim(mac, dynamics, rounds, 5).run_with(&mut obs);
            obs
        };
        let fixed = capture(None);
        let walking = capture(Some(fast_walk()));
        assert!(!fixed.deliveries.is_empty());
        assert_eq!(fixed.deliveries, walking.deliveries, "{mac:?}");
        assert_eq!(fixed.transmitting, walking.transmitting);

        // Dynamics that never step (period beyond the horizon) leave the
        // whole run byte-identical to the static simulator.
        let dormant = DynamicsSpec {
            period_rounds: rounds + 1,
            ..fast_walk()
        };
        let static_run = sim(mac, None, rounds, 5).run();
        let dormant_run = sim(mac, Some(dormant), rounds, 5).run();
        assert_eq!(static_run, dormant_run, "{mac:?}");
    }
}

#[test]
fn cached_refresh_is_bit_identical_to_refresh_large_scale_row() {
    let antennas = [
        Point::new(4.0, 4.0),
        Point::new(16.0, 4.0),
        Point::new(4.0, 16.0),
        Point::new(10.0, 10.0),
    ];
    let mut rng = SimRng::new(31);
    for env in [
        Environment::office_a(),
        Environment::office_b(),
        Environment::open_plan(),
    ] {
        let mut positions: Vec<Point> = (0..6)
            .map(|_| Point::new(rng.uniform_range(0.0, 20.0), rng.uniform_range(0.0, 20.0)))
            .collect();
        let mut model = ChannelModel::new(env, 31);
        let rows = model.large_scale_rows(&antennas, &positions, true);
        let (mut cached, mut cache) = model.draw_rows(rows);
        let mut plain = cached.clone();
        let cell = |p: &Point| ((p.x / 2.0).round() as i64, (p.y / 2.0).round() as i64);
        let (mut crossings, mut redraws) = (0usize, 0usize);
        for _ in 0..300 {
            for (row, p) in positions.iter_mut().enumerate() {
                let before = cell(p);
                *p = p.offset_polar(0.45, rng.uniform_range(0.0, 6.3));
                crossings += usize::from(cell(p) != before);
                model.refresh_large_scale_row(&mut plain, row, &antennas, p);
                let redrawn = model.refresh_row_cached(&mut cached, &mut cache, row, &antennas, p);
                redraws += usize::from(redrawn);
                assert_eq!(redrawn, cell(p) != before, "redraw iff the cell changed");
            }
            let bits = |m: &midas_channel::ChannelMatrix| {
                let h: Vec<(u64, u64)> =
                    m.h.data()
                        .iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect();
                let g: Vec<u64> = m.large_scale.data().iter().map(|g| g.to_bits()).collect();
                (h, g)
            };
            assert_eq!(bits(&plain), bits(&cached));
        }
        assert!(crossings > 100, "the walk barely crossed cells");
        assert_eq!(redraws, crossings);
    }
}

/// A 4×2 DAS floor with 8 clients per AP.
fn roaming_floor(seed: u64) -> (Topology, Environment) {
    let mut rng = SimRng::new(seed);
    let topo = FloorGrid::new(4, 2, 15.0)
        .generate(&TopologyConfig::das(4, 8), &mut rng)
        .expect("valid grid");
    (topo, Environment::open_plan())
}

#[test]
fn the_incremental_reassociator_matches_a_full_pass_under_every_policy() {
    for policy in [
        AssociationPolicy::NearestAp,
        AssociationPolicy::AntennaAware,
        AssociationPolicy::LoadBalanced { hysteresis_db: 3.0 },
    ] {
        let (mut incremental, env) = roaming_floor(41);
        let mut reference = incremental.clone();
        let mut roam = Reassociator::new(&incremental, &env);
        let mut rng = SimRng::new(43);
        let (mut handoffs, mut moves) = (0usize, 0usize);
        for step in 0..150 {
            for c in 0..incremental.clients.len() {
                let p = incremental.clients[c].position;
                let next = p.offset_polar(1.2, rng.uniform_range(0.0, 6.3));
                let next = Point::new(
                    next.x
                        .clamp(incremental.region.min.x, incremental.region.max.x),
                    next.y
                        .clamp(incremental.region.min.y, incremental.region.max.y),
                );
                incremental.clients[c].position = next;
                reference.clients[c].position = next;
                roam.move_client(c, next);
                moves += 1;
            }
            let n = roam.reassociate(&mut incremental, &env, policy, 3.0);
            // The full pass: every client's candidates queried from scratch.
            let full =
                Reassociator::new(&reference, &env).reassociate(&mut reference, &env, policy, 3.0);
            assert_eq!(n, full, "{policy:?}: step {step} handoff count");
            let aps = |t: &Topology| t.clients.iter().map(|c| c.ap_id).collect::<Vec<_>>();
            assert_eq!(
                aps(&incremental),
                aps(&reference),
                "{policy:?}: step {step}"
            );
            handoffs += n;
        }
        assert!(handoffs > 0, "{policy:?}: walkers never handed off");
        assert!(
            roam.requeries() < moves / 2,
            "{policy:?}: {} re-queries for {moves} moves",
            roam.requeries()
        );
    }
}

#[test]
fn dynamics_counters_are_pinned_for_a_small_seed() {
    let mut s = sim(MacKind::Midas, Some(fast_walk()), 20, 11);
    s.run();
    let c = s.dynamics_counters().expect("dynamics are on");
    assert_eq!(
        c,
        DynamicsCounters {
            rows_born: 111,
            rows_freed: 58,
            rows_refreshed: 1431,
            shadow_redraws: 827,
            membership_requeries: 1059,
            roaming_requeries: 557,
            roaming_scores: 250,
        }
    );
    // Fading work: one skip-ahead step per catch-up, whatever the lag.
    assert_eq!(
        s.fading_counters(),
        FadingCounters {
            rows_caught_up: 481,
            gaussian_pairs: 1924,
        }
    );
    // Off means no dynamics counters at all.
    let off = sim(MacKind::Midas, None, 2, 11);
    assert!(off.dynamics_counters().is_none());
}

#[test]
fn a_finite_range_walk_refreshes_only_the_rows_in_range() {
    // The enterprise default range at 64 APs.  A moved client's rows are
    // refreshed only when read, so a step refreshes at most the rows its
    // round reads plus the own rows of the APs whose tags it rebuilt — not
    // every surviving row of every moved client.
    let scenario = Scenario::enterprise_office(64);
    let run = |rounds: usize| {
        let pair = scenario.build(1).expect("buildable scenario");
        let mut config: NetworkSimConfig = scenario.sim_config(MacKind::Midas, rounds, 1);
        config.dynamics = Some(DynamicsSpec::roaming_walk(1.4));
        let range = config.interaction_range_m;
        let mut s = NetworkSimulator::new(pair.das, config);
        let rows: usize = (0..64).map(|ap| s.channel_rows(ap).count()).sum();
        let mut last = RoundCapture {
            round: rounds - 1,
            ..RoundCapture::default()
        };
        s.run_with(&mut last);
        (s, last, range, rows)
    };
    // A run of `rounds` rounds ends right after round `rounds - 1`, whose
    // dynamics step left the topology where that round read it; the
    // counters' increments over the prefixes are the steps' own work.
    let mut refreshed = 0;
    for rounds in 1..=3 {
        let (s, last, range, rows) = run(rounds);
        let topo = s.topology();
        let c = s.dynamics_counters().expect("dynamics are on");
        let step = c.rows_refreshed - refreshed;
        refreshed = c.rows_refreshed;
        // Rows the round read: each served client's row at its serving AP,
        // and at every other transmitting AP with an antenna in range of it
        // (a superset of the gather stage's interferer rows, which count
        // only the antennas on the air).
        let read: usize = last
            .deliveries
            .iter()
            .map(|&(client, serving, _)| {
                let p = &topo.clients[client].position;
                1 + last
                    .transmitting
                    .iter()
                    .filter(|&&ap| {
                        ap != serving
                            && topo.aps[ap].antennas.iter().any(|a| a.distance(p) <= range)
                    })
                    .count()
            })
            .sum();
        // Every client walks, so every AP with a client rebuilds its tags
        // each step: their own rows are all the clients.
        let own_rows = if rounds == 1 { 0 } else { topo.clients.len() };
        assert!(
            step <= read + own_rows,
            "round {}: {step} refreshes for {read} rows read + {own_rows} own rows ({c:?})",
            rounds - 1
        );
        // Refreshing every surviving row of every moved client instead
        // would touch the whole static row set each step.
        assert!(
            4 * step < rows,
            "round {}: {step} of {rows} rows",
            rounds - 1
        );
    }
}
