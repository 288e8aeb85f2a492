//! Property tests for keyed fading evolution.
//!
//! Every small-scale innovation is a pure function of `(trial_seed, ap,
//! link, round)`, so the simulator may evolve channel rows lazily — only
//! the rows a round actually reads, each caught up in one keyed skip-ahead
//! step at correlation `ρⁿ` over the `n` rounds it missed — and still
//! be exactly reproducible from its seed.  The work counters pin what
//! laziness and skip-ahead save, and next to them the sensing counters pin
//! the work of the lazily filled antenna-pair sensing table.  The
//! statistics tests pin that evolution realises a first-order Gauss–Markov
//! process: evolved fading keeps unit mean power and shows lag-1
//! autocorrelation `rho` (the skip-ahead catch-up's own `ρᵏ` statistics
//! are pinned next to it, in the simulator's unit tests).

use midas_channel::{ChannelModel, Environment, Point};
use midas_linalg::Complex;
use midas_net::capture::ContentionModel;
use midas_net::scale::Scenario;
use midas_net::simulator::{FadingCounters, MacKind, NetworkSimulator, SensingCounters};
use midas_net::traffic::TrafficKind;

/// Builds a simulator for one configuration point.
fn build_sim(
    scenario: &Scenario,
    mac: MacKind,
    contention: ContentionModel,
    traffic: TrafficKind,
    rounds: usize,
    seed: u64,
) -> NetworkSimulator {
    let pair = scenario.build(seed).expect("buildable scenario");
    let topo = match mac {
        MacKind::Midas => pair.das,
        MacKind::Cas => pair.cas,
    };
    let mut config = scenario.sim_config(mac, rounds, seed);
    config.contention = contention;
    NetworkSimulator::new(topo, config).with_traffic_kind(traffic)
}

/// Evolves one realisation `steps` times, returning the
/// large-scale-normalised fading coefficient of every link at every step
/// (the unit-power CN process evolution must realise).
fn evolved_coefficients(steps: usize, seed: u64, delay_s: f64) -> Vec<Vec<Complex>> {
    let mut model = ChannelModel::new(Environment::office_a(), seed);
    // A 4-antenna DAS-like spread with a grid of clients: metres of antenna
    // separation keeps the initial realisation's spatial correlation low.
    let antennas = [
        Point::new(5.0, 5.0),
        Point::new(35.0, 5.0),
        Point::new(5.0, 35.0),
        Point::new(35.0, 35.0),
    ];
    let clients: Vec<Point> = (0..25)
        .map(|i| Point::new(4.0 + 6.4 * (i % 5) as f64, 4.0 + 6.4 * (i / 5) as f64))
        .collect();
    let mut channel = model.realize_positions(&antennas, &clients);
    let normalised = |ch: &midas_channel::ChannelMatrix| -> Vec<Complex> {
        let mut out = Vec::new();
        for j in 0..ch.num_clients() {
            for k in 0..ch.num_antennas() {
                let g = ch.large_scale.get(j, k);
                out.push(ch.h.get(j, k).scale(1.0 / g));
            }
        }
        out
    };
    let mut pairs = Vec::new();
    let mut series = Vec::with_capacity(steps);
    for step in 0..steps {
        model.evolve_matrix(&mut channel, delay_s, 0, step as u64, &mut pairs);
        series.push(normalised(&channel));
    }
    series
}

#[test]
fn keyed_evolution_realises_unit_power_gauss_markov_fading() {
    // The evolved unit-power coefficients must keep E[|f|^2] = 1 and show
    // lag-1 autocorrelation Re E[f_t conj(f_{t-1})] / E[|f|^2] = rho.
    // ~10 ms steps in an office coherence time give a rho well inside
    // (0, 1), so both failure modes (frozen channel rho->1, iid redraw
    // rho->0) sit far outside the band.
    let delay_s = 0.010;
    let steps = 400;
    let model = ChannelModel::new(Environment::office_a(), 9);
    let rho = model.step_correlation(delay_s);
    assert!(rho > 0.2 && rho < 0.98, "step rho {rho} outside test band");
    let series = evolved_coefficients(steps, 9, delay_s);
    let links = series[0].len();
    let mut power_sum = 0.0;
    let mut corr_sum = 0.0;
    let mut corr_n = 0usize;
    for t in 0..steps {
        for (l, f) in series[t].iter().enumerate() {
            power_sum += f.norm_sqr();
            if t > 0 {
                corr_sum += (*f * series[t - 1][l].conj()).re;
                corr_n += 1;
            }
        }
    }
    let mean_power = power_sum / (steps * links) as f64;
    let autocorr = corr_sum / corr_n as f64 / mean_power;
    assert!(
        (mean_power - 1.0).abs() < 0.05,
        "evolved mean power {mean_power} not ~1"
    );
    assert!(
        (autocorr - rho).abs() < 0.05,
        "lag-1 autocorrelation {autocorr} vs rho {rho}"
    );
}

#[test]
fn keyed_evolution_is_deterministic() {
    // Statistics, not one draw order, are the contract — but a run is
    // exactly reproducible from its seed.
    let scenario = Scenario::enterprise_office(8);
    let run = || {
        build_sim(
            &scenario,
            MacKind::Midas,
            ContentionModel::Graph,
            TrafficKind::FullBuffer,
            6,
            3,
        )
        .run()
    };
    let (first, again) = (run(), run());
    assert_eq!(first, again, "keyed evolution must be deterministic");
    assert!(first.mean_capacity().is_finite() && first.mean_capacity() > 0.0);
}

#[test]
fn fading_work_is_pinned_and_eager_work_is_rows_times_boundaries() {
    // 8-AP enterprise floor, MIDAS, 12 rounds; fading evolves once per
    // round, so every round is an evolution boundary.
    let scenario = Scenario::enterprise_office(8);
    let rounds = 12;
    let pair = scenario.build(3).expect("buildable scenario");
    let mut sim = NetworkSimulator::new(pair.das, scenario.sim_config(MacKind::Midas, rounds, 3));
    sim.run();
    let topo = sim.topology();
    let rows: usize = (0..topo.aps.len())
        .map(|ap| sim.channel_rows(ap).count())
        .sum();
    assert_eq!(rows, 481, "in-range rows of the floor");
    // Evolving every in-range row every round would take rows × rounds
    // steps (481 × 12 = 5,772).  Lazy evolution steps only the rows the
    // rounds read, and a catch-up is one skip-ahead step however many
    // rounds it spans.
    let work = sim.fading_counters();
    assert!(work.rows_caught_up < rows * rounds, "{work:?}");
    assert_eq!(
        work,
        FadingCounters {
            rows_caught_up: 516,
            gaussian_pairs: 2064,
        }
    );
}

#[test]
fn sensing_work_is_pinned_and_bounded_by_the_in_range_pairs() {
    // 8-AP enterprise floor, 12 rounds, MIDAS and CAS: the same floor and
    // seed as the fading pin above.
    let scenario = Scenario::enterprise_office(8);
    let rounds = 12;
    let mut pinned = Vec::new();
    let mut plateaus = Vec::new();
    for mac in [MacKind::Midas, MacKind::Cas] {
        let pair = scenario.build(3).expect("buildable scenario");
        let topo = match mac {
            MacKind::Midas => pair.das,
            MacKind::Cas => pair.cas,
        };
        let config = scenario.sim_config(mac, rounds, 3);
        let range = config.interaction_range_m;
        // Directed in-range pairs between antennas of different APs, by
        // brute force: every sensing-table entry there could ever be.
        let antennas: Vec<(usize, Point)> = topo
            .aps
            .iter()
            .flat_map(|ap| ap.antennas.iter().map(move |&p| (ap.ap_id, p)))
            .collect();
        let in_range_pairs = antennas
            .iter()
            .flat_map(|a| antennas.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a.0 != b.0 && a.1.distance(&b.1) <= range)
            .count();
        let mut sim = NetworkSimulator::new(topo, config);
        sim.run();
        let work = sim.sensing_counters();
        assert!(work.rows_built <= antennas.len(), "{mac:?}: {work:?}");
        assert!(
            work.powers_evaluated <= in_range_pairs,
            "{mac:?}: {work:?} over {in_range_pairs} pairs"
        );
        pinned.push(work);
        // The table lives as long as the simulator and no pair is evaluated
        // twice, so over a long run evaluations stop growing once every
        // pair the run reads has been read.
        let mut evaluated = vec![work.powers_evaluated];
        for _ in 0..40 {
            sim.run();
            evaluated.push(sim.sensing_counters().powers_evaluated);
        }
        assert!(
            evaluated.windows(2).all(|w| w[0] <= w[1]),
            "{mac:?}: {evaluated:?}"
        );
        assert!(
            evaluated[20..].iter().all(|&e| e == evaluated[40]),
            "{mac:?}: still growing after 252 rounds: {evaluated:?}"
        );
        assert!(evaluated[40] <= in_range_pairs, "{mac:?}: {evaluated:?}");
        plateaus.push((evaluated[40], in_range_pairs));
    }
    assert_eq!(
        pinned,
        [
            SensingCounters {
                rows_built: 32,
                powers_evaluated: 784,
                pushes: 2386,
                decisions: 384,
            },
            SensingCounters {
                rows_built: 32,
                powers_evaluated: 492,
                pushes: 2768,
                decisions: 237,
            },
        ]
    );
    // MIDAS reads every in-range pair within 12 rounds; CAS stops at an
    // AP's first busy antenna, so some pairs are never read.
    assert_eq!(plateaus, [(784, 784), (612, 768)]);
}
