//! Experiment runners — one per table/figure of the paper's evaluation (§5).
//!
//! [`ExperimentSpec::run`](crate::sim::ExperimentSpec::run) is the one
//! public way to run an experiment; the crate-private runners here are the
//! implementation layer it dispatches to (the Figs. 15 / 16 end-to-end runs
//! and the enterprise sweep run their spec's session recipe instead).  This
//! module keeps the public types of the outputs, the Fig. 16 calibration
//! band [`FIG16_GAIN_BAND`] and [`best_calibration_cell`].
//!
//! All runners are deterministic in the supplied seed and execute through
//! the session layer ([`crate::sim`]): the multi-AP experiments compose a
//! [`PairedRecipe`] topology source into a [`Session`](crate::sim::Session)
//! and fan trials through the shared [`SeedSweep`] engine, so every series
//! is bit-identical at any thread count (`MIDAS_THREADS`).

use crate::config::SystemConfig;
use crate::runner::SeedSweep;
use crate::sim::{ExperimentSpec, PairedRecipe, PairedSamples, SessionBuilder, SessionTrial};
use crate::system::SingleApSystem;
use midas_channel::geometry::{Point, Rect};
use midas_channel::topology::{single_ap, TopologyConfig};
use midas_channel::{ChannelModel, Environment, EnvironmentKind, SimRng};
use midas_mac::client_select::{select_clients_midas, select_clients_random};
use midas_mac::drr::DrrScheduler;
use midas_mac::tagging::TagTable;
use midas_net::capture::{ContentionModel, PhysicalConfig};
use midas_net::coverage::{compare_deadzones, DeadzoneComparison};
use midas_net::hidden_terminal::{HiddenTerminalComparison, HiddenTerminalScenario};
use midas_net::simulator::MacKind;
use midas_net::spatial_reuse;
use midas_phy::precoder::{
    make_precoder, NaiveScaledPrecoder, OptimalPrecoder, PowerBalancedPrecoder, Precoder,
    PrecoderKind, ZfbfPrecoder,
};
use midas_phy::sounding::{SoundingConfig, SoundingProcess};

/// Fig. 3 — CDF of the capacity *drop* caused by naïve per-antenna power
/// scaling (unconstrained ZFBF capacity minus naïvely-scaled capacity) for
/// 4×4 MU-MIMO, CAS vs DAS.
pub(crate) fn fig03_naive_scaling_drop(topologies: usize, seed: u64) -> PairedSamples {
    let sweep = SeedSweep::new(seed).with_mix(7919, 1);
    PairedSamples::from_pairs(sweep.run(topologies, &|_t: usize, s: u64| {
        let sys = SingleApSystem::generate(&SystemConfig::default(), s);
        let drop = |ch: &midas_channel::ChannelMatrix| {
            let zf = ZfbfPrecoder.precode_channel(ch);
            let naive = NaiveScaledPrecoder.precode_channel(ch);
            (zf.sum_capacity - naive.sum_capacity).max(0.0)
        };
        (drop(sys.cas_channel()), drop(sys.das_channel()))
    }))
}

/// Fig. 7 — CDF of SISO link SNR (dB) across clients, CAS vs DAS, using the
/// paper's greedy client→antenna mapping (strongest pair first, each antenna
/// used once).
pub(crate) fn fig07_link_snr(topologies: usize, seed: u64) -> PairedSamples {
    let env = Environment::office_a();
    let session = SessionBuilder::new(PairedRecipe::single_ap(
        env,
        TopologyConfig::das(4, 4),
        40.0,
    ))
    .seed_mix(6151, 3)
    .build();
    PairedSamples::from_groups(
        session.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
            let pair = trial.pair();
            let mut model = ChannelModel::new(env, trial.seed());
            let mut cas = Vec::new();
            let mut das = Vec::new();
            for (topo, sink) in [(&pair.cas, &mut cas), (&pair.das, &mut das)] {
                let clients = topo.clients_of(0);
                let ch = model.realize(&topo.aps[0], &clients);
                // Greedy mapping: repeatedly take the strongest remaining
                // (client, antenna) pair, then exclude both.
                let mut free_clients: Vec<usize> = (0..clients.len()).collect();
                let mut free_antennas: Vec<usize> = (0..4).collect();
                while !free_clients.is_empty() && !free_antennas.is_empty() {
                    let mut best = (free_clients[0], free_antennas[0], f64::NEG_INFINITY);
                    for &c in &free_clients {
                        for &a in &free_antennas {
                            let snr = ch.siso_snr_db(c, a);
                            if snr > best.2 {
                                best = (c, a, snr);
                            }
                        }
                    }
                    sink.push(best.2);
                    free_clients.retain(|&x| x != best.0);
                    free_antennas.retain(|&x| x != best.1);
                }
            }
            (cas, das)
        }),
    )
}

/// Figs. 8 and 9 — MU-MIMO sum-capacity CDF (bit/s/Hz), CAS (baseline
/// precoding) vs MIDAS (power-balanced precoding), for the given antenna /
/// client count and office environment.
pub(crate) fn fig08_09_capacity(
    environment: EnvironmentKind,
    antennas: usize,
    topologies: usize,
    seed: u64,
) -> PairedSamples {
    let config = SystemConfig {
        environment,
        antennas,
        clients: antennas,
        ..SystemConfig::default()
    };
    let sweep = SeedSweep::new(seed).with_mix(2861, 11);
    PairedSamples::from_pairs(sweep.run(topologies, &|_t: usize, s: u64| {
        let sys = SingleApSystem::generate(&config, s);
        let cmp = sys.downlink_comparison();
        (cmp.cas_capacity, cmp.midas_capacity)
    }))
}

/// Fig. 10 — impact of the power-balanced ("smart") precoder on CAS and on
/// DAS separately: four capacity series over the same topologies.
#[derive(Debug, Clone, Default)]
pub struct SmartPrecodingSeries {
    /// CAS with the naïve baseline precoder.
    pub cas_naive: Vec<f64>,
    /// CAS with the power-balanced precoder.
    pub cas_smart: Vec<f64>,
    /// DAS with the naïve baseline precoder.
    pub das_naive: Vec<f64>,
    /// DAS with the power-balanced precoder.
    pub das_smart: Vec<f64>,
}

/// Runs the Fig. 10 experiment (4×4, Office B in the paper).
pub(crate) fn fig10_smart_precoding(topologies: usize, seed: u64) -> SmartPrecodingSeries {
    let config = SystemConfig::default().with_environment(EnvironmentKind::OfficeB);
    let sweep = SeedSweep::new(seed).with_mix(4513, 17);
    let rows = sweep.run(topologies, &|_t: usize, s: u64| {
        let sys = SingleApSystem::generate(&config, s);
        let naive = NaiveScaledPrecoder;
        let smart = PowerBalancedPrecoder::default();
        [
            naive.precode_channel(sys.cas_channel()).sum_capacity,
            smart.precode_channel(sys.cas_channel()).sum_capacity,
            naive.precode_channel(sys.das_channel()).sum_capacity,
            smart.precode_channel(sys.das_channel()).sum_capacity,
        ]
    });
    let mut out = SmartPrecodingSeries::default();
    for [cn, cs, dn, ds] in rows {
        out.cas_naive.push(cn);
        out.cas_smart.push(cs);
        out.das_naive.push(dn);
        out.das_smart.push(ds);
    }
    out
}

/// Fig. 11 — per-topology capacity of the MIDAS precoder vs the numerically
/// optimal precoder.  `stale_csi` reproduces the "testbed" panel, where the
/// optimal precoder's long compute time means it is applied to an outdated
/// channel (the paper's explanation for MIDAS occasionally winning).
pub(crate) fn fig11_optimal_comparison(
    topologies: usize,
    stale_csi: bool,
    seed: u64,
) -> PairedSamples {
    // `cas` field holds the optimal precoder series, `das` the MIDAS series.
    let env = Environment::office_a();
    let sounding = SoundingProcess::new(SoundingConfig::default());
    let sweep = SeedSweep::new(seed).with_mix(3571, 23);
    PairedSamples::from_pairs(sweep.run(topologies, &|_t: usize, s: u64| {
        let mut rng = SimRng::new(s);
        let cfg = TopologyConfig::das(4, 4);
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let topo = single_ap(&cfg, region, &mut rng);
        let mut model = ChannelModel::new(env, s);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);

        let midas = PowerBalancedPrecoder::default().precode_channel(&ch);
        let optimal = if stale_csi {
            // The optimal precoder is computed on CSI sounded ~2 s ago (the
            // MATLAB solve time quoted in §5.2.3); by transmission time the
            // channel has moved on.
            let mut est_rng = SimRng::new(s ^ 0xBEEF);
            let old = sounding.estimate(&ch.h, &mut est_rng);
            let mut evolved = midas_channel::ChannelMatrix {
                h: old,
                large_scale: ch.large_scale.clone(),
                tx_power_mw: ch.tx_power_mw,
                noise_mw: ch.noise_mw,
            };
            model.evolve_matrix(&mut evolved, 2.0, 0, 0, &mut Vec::new());
            let v = OptimalPrecoder::with_iterations(1500)
                .precode_channel(&evolved)
                .v;
            // Evaluate the stale precoder against the *current* channel.
            midas_phy::precoder::Precoding::evaluate(
                PrecoderKind::Optimal,
                &ch.h,
                v,
                ch.noise_mw,
                0,
            )
        } else {
            OptimalPrecoder::with_iterations(1500).precode_channel(&ch)
        };
        (optimal.sum_capacity, midas.sum_capacity)
    }))
}

/// Fig. 12 — ratio of simultaneous transmissions (MIDAS / CAS) over random
/// 3-AP topologies.  Each trial derives its own contention RNG from the
/// mixed trial seed, so the series is independent of execution order.
pub(crate) fn fig12_simultaneous_tx(topologies: usize, seed: u64) -> Vec<f64> {
    let session = SessionBuilder::new(PairedRecipe::three_ap_paper())
        .seed_mix(1409, 31)
        .build();
    // Single source of truth: the reuse analysis senses in the same
    // environment the recipe deploys in.
    let env = session.source().environment();
    session.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
        let mut reuse_rng = SimRng::new(trial.seed() ^ 0x5EED);
        spatial_reuse::trial(trial.pair(), &env, &mut reuse_rng).ratio()
    })
}

/// Fig. 13 / §5.3.3 — dead-zone comparison over random DAS deployments.
pub(crate) fn fig13_deadzones(deployments: usize, seed: u64) -> Vec<DeadzoneComparison> {
    let env = Environment::office_b();
    let radius = env.coverage_range_m() * 0.9;
    let cfg = TopologyConfig {
        das_radius_min_m: 0.4 * radius,
        das_radius_max_m: 0.7 * radius,
        ..TopologyConfig::das(4, 4)
    };
    let session = SessionBuilder::new(PairedRecipe::single_ap(env, cfg, 3.0 * radius))
        .seed_mix(947, 41)
        .build();
    session.run_trials(deployments, seed, &|trial: &SessionTrial<'_>| {
        compare_deadzones(
            trial.pair(),
            &env,
            radius,
            0.5,
            seed ^ (trial.index() as u64 * 947 + 43),
        )
    })
}

/// §5.3.4 — hidden-terminal spot comparison over random antenna deployments.
/// Each deployment draws from an RNG derived from its own mixed trial seed.
pub(crate) fn sec534_hidden_terminals(
    deployments: usize,
    seed: u64,
) -> Vec<HiddenTerminalComparison> {
    let scenario = HiddenTerminalScenario::new(Environment::office_a());
    let sweep = SeedSweep::new(seed).with_mix(523, 89);
    sweep.run(deployments, &|_d: usize, s: u64| {
        let mut rng = SimRng::new(s);
        scenario.comparison(1.0, &mut rng)
    })
}

/// Fig. 14 — virtual packet tagging: capacity with tagging-driven client
/// selection vs random client selection, when only 2 of 4 antennas are
/// available and 4 clients are backlogged.  The `cas` field holds the random
/// selection, `das` the tagged selection.
pub(crate) fn fig14_packet_tagging(topologies: usize, seed: u64) -> PairedSamples {
    let config = SystemConfig::default();
    let sweep = SeedSweep::new(seed).with_mix(677, 53);
    PairedSamples::from_pairs(sweep.run(topologies, &|_t: usize, s: u64| {
        let sys = SingleApSystem::generate(&config, s);
        let ch = sys.das_channel();
        let mut rng = SimRng::new(s ^ 0xFACE);

        // Two of the four antennas are available this round.
        let available = rng.choose_indices(4, 2);
        let backlogged: Vec<usize> = (0..4).collect();

        // MIDAS: tagging + DRR over the available antennas.
        let rssi: Vec<Vec<f64>> = (0..4)
            .map(|c| (0..4).map(|a| ch.mean_rssi_dbm(c, a)).collect())
            .collect();
        let tags = TagTable::from_rssi(&rssi, config.tag_width);
        let drr = DrrScheduler::new(4);
        let eligible = tags.filter_clients(&backlogged, &available);
        let mut tagged_clients = select_clients_midas(&available, &eligible, &tags, &drr);
        // The Fig. 14 experiment always transmits one stream per available
        // antenna; if tagging filled fewer slots (no packet tagged to one of
        // the antennas), top up with the remaining clients that hear the
        // available antennas best, as the paper's "more appropriate group of
        // two clients" does.
        while tagged_clients.len() < available.len() {
            let best = backlogged
                .iter()
                .copied()
                .filter(|c| !tagged_clients.contains(c))
                .max_by(|&a, &b| {
                    let score = |c: usize| {
                        available
                            .iter()
                            .map(|&k| rssi[c][k])
                            .fold(f64::NEG_INFINITY, f64::max)
                    };
                    score(a).partial_cmp(&score(b)).unwrap()
                });
            match best {
                Some(c) => tagged_clients.push(c),
                None => break,
            }
        }
        // Random selection baseline.
        let random_clients = select_clients_random(available.len(), &backlogged, &mut rng);

        let precoder = make_precoder(config.midas_precoder);
        let capacity = |clients: &[usize]| {
            let sub = ch.select(clients, &available);
            precoder.precode_channel(&sub).sum_capacity
        };
        (capacity(&random_clients), capacity(&tagged_clients))
    }))
}

/// The Fig. 16 headline band the calibration scores against: the median
/// per-client capacity gain of MIDAS over CAS at 8 APs.  The paper reports
/// "more than 150 %" (2.5×); this reproduction's accepted band is
/// +50 %…+150 % — the physical model closes the gap from the graph model's
/// sub-zero network gain to comfortably past half the paper's headline,
/// and gains beyond the paper's own number would mean the CAS baseline
/// collapsed rather than MIDAS winning.  Cells are scored by their
/// distance to this band (fractional: 0.5 = +50 %).
pub const FIG16_GAIN_BAND: (f64, f64) = (0.5, 1.5);

/// The {CS threshold × capture margin × sensing σ} grid the Fig. 16
/// calibration sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationGrid {
    /// Energy-detect CS thresholds to try (dBm).
    pub cs_thresholds_dbm: Vec<f64>,
    /// Capture margins to try (dB over the MCS-0 decode threshold).
    pub capture_margins_db: Vec<f64>,
    /// Sensing-field shadowing spreads to try (dB).
    pub sensing_sigmas_db: Vec<f64>,
}

impl Default for CalibrationGrid {
    /// The default grid brackets the region the coarse exploratory sweeps
    /// (this PR) localised the paper band in: CS thresholds well below
    /// every preset's −76 dBm CCA (the paper's testbed CAS almost never
    /// won concurrent transmissions, so the physical CCA must be markedly
    /// more sensitive), rate-adaptation margins of two to three MCS steps
    /// (what silences the collision-prone cell-edge links), and sensing
    /// spreads up to the preset shadowing.
    fn default() -> Self {
        CalibrationGrid {
            cs_thresholds_dbm: vec![-88.0, -86.0, -84.0],
            capture_margins_db: vec![6.0, 8.0, 10.0],
            sensing_sigmas_db: vec![3.0, 4.5],
        }
    }
}

/// One scored cell of the Fig. 16 calibration sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationCell {
    /// The physical-model parameters this cell ran with.
    pub config: PhysicalConfig,
    /// Median CAS network capacity over the topologies (bit/s/Hz).
    pub cas_network_median: f64,
    /// Median MIDAS network capacity over the topologies (bit/s/Hz).
    pub das_network_median: f64,
    /// Fractional gain in median network capacity.
    pub network_gain: f64,
    /// Median per-client capacity under CAS (bit/s/Hz per round, pooled
    /// across topologies).
    pub cas_client_median: f64,
    /// Median per-client capacity under MIDAS.
    pub das_client_median: f64,
    /// Fractional gain in the median of the per-client CDF — the Fig. 16
    /// headline the cell is scored on.
    pub client_median_gain: f64,
    /// Distance of `client_median_gain` to [`FIG16_GAIN_BAND`] (0 inside).
    pub score: f64,
}

impl CalibrationCell {
    /// Distance of a gain to the paper band (0 when inside it).
    fn band_distance(gain: f64) -> f64 {
        let (lo, hi) = FIG16_GAIN_BAND;
        (lo - gain).max(gain - hi).max(0.0)
    }
}

/// Fig. 16 calibration — grids {CS threshold × capture margin × sensing σ}
/// through the 8-AP end-to-end simulation under
/// [`ContentionModel::Physical`], scoring each cell's MIDAS-over-CAS median
/// gain against the paper's Fig. 16 band.  Cells are returned in grid order
/// (thresholds outermost); [`best_calibration_cell`] picks the winner that
/// [`PhysicalConfig::calibrated`] promotes.
pub(crate) fn fig16_calibration(
    grid: &CalibrationGrid,
    topologies: usize,
    rounds: usize,
    seed: u64,
) -> Vec<CalibrationCell> {
    let mut cells = Vec::new();
    for &cs in &grid.cs_thresholds_dbm {
        for &margin in &grid.capture_margins_db {
            for &sigma in &grid.sensing_sigmas_db {
                let config = PhysicalConfig {
                    cs_threshold_dbm: cs,
                    capture_margin_db: margin,
                    sensing_sigma_db: Some(sigma),
                };
                let s = ExperimentSpec::EndToEnd {
                    eight_aps: true,
                    topologies,
                    rounds,
                    contention: ContentionModel::Physical(config),
                }
                .run(seed)
                .expect_end_to_end();
                let median = |v: &[f64]| midas_net::metrics::Cdf::new(v).median();
                let cas_network_median = median(&s.network.cas);
                let das_network_median = median(&s.network.das);
                let cas_client_median = median(&s.per_client.cas);
                let das_client_median = median(&s.per_client.das);
                let client_median_gain =
                    midas_net::metrics::relative_gain(das_client_median, cas_client_median);
                cells.push(CalibrationCell {
                    config,
                    cas_network_median,
                    das_network_median,
                    network_gain: midas_net::metrics::relative_gain(
                        das_network_median,
                        cas_network_median,
                    ),
                    cas_client_median,
                    das_client_median,
                    client_median_gain,
                    score: CalibrationCell::band_distance(client_median_gain),
                });
            }
        }
    }
    cells
}

/// The winning calibration cell: minimal distance to the paper band, ties
/// broken towards the client gain closest to the band's midpoint (+100 %)
/// — a cell deep inside the band keeps the headline in-band under seed and
/// scale changes in a way band-edge cells do not.  The rule is
/// deterministic, so re-running the sweep re-derives the same promoted
/// defaults.
pub fn best_calibration_cell(cells: &[CalibrationCell]) -> Option<&CalibrationCell> {
    let midpoint = (FIG16_GAIN_BAND.0 + FIG16_GAIN_BAND.1) / 2.0;
    cells.iter().min_by(|a, b| {
        (a.score, (a.client_median_gain - midpoint).abs())
            .partial_cmp(&(b.score, (b.client_median_gain - midpoint).abs()))
            .expect("calibration scores are finite")
    })
}

/// Per-topology series of one enterprise-scale scenario at one AP count.
#[derive(Debug, Clone, Default)]
pub struct EnterpriseScalingSeries {
    /// CAS mean network capacity per topology (bit/s/Hz).
    pub cas: Vec<f64>,
    /// MIDAS mean network capacity per topology (bit/s/Hz).
    pub das: Vec<f64>,
    /// CAS mean concurrent streams per round, per topology.
    pub cas_streams: Vec<f64>,
    /// MIDAS mean concurrent streams per round, per topology.
    pub das_streams: Vec<f64>,
    /// MIDAS per-AP mean capacity (bit/s/Hz), concatenated across
    /// topologies — the per-AP diagnostic behind the Fig. 16 calibration
    /// work (starved vs interference-drowned APs).
    pub das_per_ap_capacity: Vec<f64>,
    /// MIDAS per-AP duty cycle (fraction of rounds transmitting),
    /// concatenated across topologies.
    pub das_per_ap_duty: Vec<f64>,
    /// Mean contention degree of the DAS deployment per topology: how many
    /// other APs each AP shares a carrier-sense domain with (range-limited
    /// indexed adjacency) — the structural explanation for duty-cycle
    /// collapse on over-dense floors.
    pub das_contention_degree: Vec<f64>,
}

/// Ablation — tag-width sweep (§3.2.4 discusses 1, 2 and "all" antennas per
/// client): mean end-to-end capacity of the 3-AP MIDAS network per tag width.
pub(crate) fn ablation_tag_width(
    widths: &[usize],
    topologies: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    widths
        .iter()
        .map(|&w| {
            let session = SessionBuilder::new(PairedRecipe::three_ap_paper())
                .rounds(10)
                .tag_width(w)
                .seed_mix(389, 71)
                .build();
            let caps = session.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
                trial.simulate(MacKind::Midas).mean_capacity()
            });
            (w, caps.iter().sum::<f64>() / topologies as f64)
        })
        .collect()
}

/// Ablation — DAS antenna placement radius sweep (§7 recommends 50–75 % of
/// the CAS coverage range): median single-AP MU-MIMO capacity per radius
/// fraction band.
pub(crate) fn ablation_das_radius(
    fractions: &[(f64, f64)],
    topologies: usize,
    seed: u64,
) -> Vec<((f64, f64), f64)> {
    let env = Environment::office_a();
    let range = env.coverage_range_m();
    fractions
        .iter()
        .map(|&(lo, hi)| {
            let cfg = TopologyConfig {
                das_radius_min_m: lo * range,
                das_radius_max_m: hi * range,
                ..TopologyConfig::das(4, 4)
            };
            let session = SessionBuilder::new(PairedRecipe::single_ap(env, cfg, 3.0 * range))
                .seed_mix(271, 83)
                .build();
            let caps = session.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
                let mut model = ChannelModel::new(env, trial.seed());
                let clients = trial.pair().das.clients_of(0);
                let ch = model.realize(&trial.pair().das.aps[0], &clients);
                PowerBalancedPrecoder::default()
                    .precode_channel(&ch)
                    .sum_capacity
            });
            ((lo, hi), midas_net::metrics::Cdf::new(&caps).median())
        })
        .collect()
}

/// Ablation — opportunistic-wait window sweep (§3.2.3): fraction of planning
/// attempts in which waiting up to the window adds at least one antenna,
/// over random busy patterns.  Busy patterns are derived per trial from the
/// mixed seed, so every window is evaluated against the same patterns.
pub(crate) fn ablation_antenna_wait(
    windows_us: &[u64],
    trials: usize,
    seed: u64,
) -> Vec<(u64, f64)> {
    use midas_mac::antenna_select::select_opportunistic;
    use midas_mac::carrier_sense::CarrierSense;
    let sweep = SeedSweep::new(seed).with_mix(149, 97);
    windows_us
        .iter()
        .map(|&w| {
            let gains = sweep.run(trials, &|_t: usize, s: u64| {
                let mut rng = SimRng::new(s);
                let mut cs = CarrierSense::new(4, -76.0);
                let now = 10_000u64;
                // Random busy pattern: each non-primary antenna busy with 50%
                // probability for up to 60 us beyond `now`.
                for a in 1..4 {
                    if rng.bernoulli(0.5) {
                        cs.observe(a, -50.0, now + rng.uniform_usize(60) as u64 + 1);
                    }
                }
                let baseline = select_opportunistic(&cs, 0, now, 0).len();
                let with_wait = select_opportunistic(&cs, 0, now, w).len();
                with_wait > baseline
            });
            let gained = gains.iter().filter(|&&g| g).count();
            (w, gained as f64 / trials as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_net::metrics::Cdf;
    use midas_net::scale::Scenario;

    #[test]
    fn fig03_das_drop_exceeds_cas_drop() {
        let s = fig03_naive_scaling_drop(15, 1);
        assert_eq!(s.cas.len(), 15);
        assert!(Cdf::new(&s.das).median() > Cdf::new(&s.cas).median());
    }

    #[test]
    fn fig07_das_links_have_higher_median_snr() {
        let s = fig07_link_snr(15, 2);
        let gain = Cdf::new(&s.das).median() - Cdf::new(&s.cas).median();
        assert!(gain > 1.0, "median DAS link gain {gain:.1} dB");
    }

    #[test]
    fn fig08_midas_beats_cas_for_both_antenna_counts() {
        for antennas in [2usize, 4] {
            let s = fig08_09_capacity(EnvironmentKind::OfficeA, antennas, 12, 3);
            let gain =
                (Cdf::new(&s.das).median() - Cdf::new(&s.cas).median()) / Cdf::new(&s.cas).median();
            assert!(gain > 0.1, "{antennas} antennas: gain {gain:.2}");
        }
    }

    #[test]
    fn fig10_smart_precoding_helps_das_more_than_cas() {
        let s = fig10_smart_precoding(15, 4);
        let cas_gain = Cdf::new(&s.cas_smart).median() - Cdf::new(&s.cas_naive).median();
        let das_gain = Cdf::new(&s.das_smart).median() - Cdf::new(&s.das_naive).median();
        assert!(
            das_gain > cas_gain,
            "DAS gain {das_gain:.2} vs CAS gain {cas_gain:.2}"
        );
    }

    #[test]
    fn fig11_midas_is_close_to_optimal_in_simulation() {
        let s = fig11_optimal_comparison(8, false, 5);
        for (&midas, &optimal) in s.das.iter().zip(s.cas.iter()) {
            assert!(midas <= optimal + 1e-6);
            assert!(midas / optimal > 0.85, "ratio {}", midas / optimal);
        }
    }

    #[test]
    fn fig12_median_ratio_exceeds_one() {
        let ratios = fig12_simultaneous_tx(20, 6);
        assert!(Cdf::new(&ratios).median() > 1.0);
    }

    #[test]
    fn fig14_tagged_selection_beats_random() {
        let s = fig14_packet_tagging(25, 7);
        assert!(Cdf::new(&s.das).median() > Cdf::new(&s.cas).median());
    }

    #[test]
    fn end_to_end_midas_beats_cas_on_three_aps() {
        // Per-topology variance is high at this small scale, so aggregate a
        // handful of topologies; the bench runs the full-size version.
        let series = ExperimentSpec::EndToEnd {
            eight_aps: false,
            topologies: 6,
            rounds: 10,
            contention: ContentionModel::Graph,
        }
        .run(100)
        .expect_end_to_end();
        let das: f64 = series.network.das.iter().sum();
        let cas: f64 = series.network.cas.iter().sum();
        assert!(das > cas, "MIDAS {das:.1} vs CAS {cas:.1}");
        // The per-client series pairs every client of every topology.
        assert_eq!(series.per_client.cas.len(), 6 * 12);
        assert_eq!(series.per_client.das.len(), 6 * 12);
        assert!(series.per_client.das.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn fig16_calibration_scores_cells_against_the_band() {
        let grid = CalibrationGrid {
            cs_thresholds_dbm: vec![-86.0],
            capture_margins_db: vec![10.0],
            sensing_sigmas_db: vec![3.0],
        };
        let cells = fig16_calibration(&grid, 2, 4, 42);
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.config.cs_threshold_dbm, -86.0);
        assert!(cell.cas_network_median.is_finite() && cell.cas_network_median > 0.0);
        assert!(cell.das_network_median.is_finite() && cell.das_network_median > 0.0);
        // The score is exactly the distance of the client gain to the band.
        let (lo, hi) = FIG16_GAIN_BAND;
        let expect = (lo - cell.client_median_gain)
            .max(cell.client_median_gain - hi)
            .max(0.0);
        assert_eq!(cell.score, expect);
        assert_eq!(best_calibration_cell(&cells).unwrap(), cell);
        assert!(best_calibration_cell(&[]).is_none());
    }

    #[test]
    fn best_calibration_cell_prefers_in_band_then_band_centre() {
        let mk = |gain: f64, score: f64| CalibrationCell {
            config: PhysicalConfig::calibrated(),
            cas_network_median: 1.0,
            das_network_median: 1.0,
            network_gain: 0.0,
            cas_client_median: 1.0,
            das_client_median: 1.0 + gain,
            client_median_gain: gain,
            score,
        };
        // In-band beats out-of-band regardless of gain size.
        let cells = vec![mk(2.0, 0.5), mk(0.6, 0.0), mk(0.95, 0.0)];
        let best = best_calibration_cell(&cells).unwrap();
        // Ties inside the band resolve towards the band midpoint (+100 %).
        assert_eq!(best.client_median_gain, 0.95);
    }

    #[test]
    fn enterprise_scaling_produces_full_series_at_small_scale() {
        let scenario = Scenario::enterprise_office(8);
        let s = ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies: 2,
            rounds: 4,
        }
        .run(42)
        .expect_enterprise();
        assert_eq!(s.cas.len(), 2);
        assert_eq!(s.das.len(), 2);
        assert_eq!(s.das_per_ap_capacity.len(), 2 * 8);
        assert_eq!(s.das_per_ap_duty.len(), 2 * 8);
        assert!(s.das.iter().all(|c| c.is_finite() && *c > 0.0));
        assert!(s.das_per_ap_duty.iter().all(|d| (0.0..=1.0).contains(d)));
        assert_eq!(s.das_contention_degree.len(), 2);
        assert!(s
            .das_contention_degree
            .iter()
            .all(|d| (0.0..=7.0).contains(d)));
    }

    #[test]
    fn ablation_runners_produce_one_row_per_setting() {
        let tag = ablation_tag_width(&[1, 2], 1, 9);
        assert_eq!(tag.len(), 2);
        let radius = ablation_das_radius(&[(0.2, 0.4), (0.5, 0.75)], 4, 10);
        assert_eq!(radius.len(), 2);
        let wait = ablation_antenna_wait(&[0, 34], 200, 11);
        assert_eq!(wait.len(), 2);
        // Waiting a DIFS can only help or leave unchanged.
        assert!(wait[1].1 >= wait[0].1);
    }
}
