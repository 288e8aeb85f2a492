//! The session layer: composing a topology source, contention model,
//! traffic workload and observers into reproducible paired experiments.

use std::sync::Arc;

use crate::runner::{trial_threads, SeedSweep};
use crate::sim::source::TopologySource;
use midas_net::capture::ContentionModel;
use midas_net::deployment::PairedTopology;
use midas_net::dynamics::DynamicsSpec;
use midas_net::observer::Observer;
use midas_net::simulator::{MacKind, NetworkSimConfig, NetworkSimulator, TopologyResult};
use midas_net::traffic::TrafficKind;

/// Paired per-topology samples of a CAS metric and a DAS/MIDAS metric —
/// the container behind every CAS-vs-MIDAS CDF in the paper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairedSamples {
    /// CAS (baseline) samples, one per topology.
    pub cas: Vec<f64>,
    /// DAS / MIDAS samples, one per topology.
    pub das: Vec<f64>,
}

impl PairedSamples {
    /// Collects per-trial `(cas, das)` pairs, in trial order.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut out = PairedSamples::default();
        for (cas, das) in pairs {
            out.cas.push(cas);
            out.das.push(das);
        }
        out
    }

    /// Concatenates per-trial `(cas, das)` sample groups, in trial order —
    /// for runners that emit several samples per topology (e.g. one per
    /// client link).
    pub fn from_groups(groups: impl IntoIterator<Item = (Vec<f64>, Vec<f64>)>) -> Self {
        let mut out = PairedSamples::default();
        for (cas, das) in groups {
            out.cas.extend(cas);
            out.das.extend(das);
        }
        out
    }
}

/// The paired network-simulation series a [`Session::run`] produces — the
/// data behind the Figs. 15 / 16 comparisons.
#[derive(Debug, Clone, Default)]
pub struct SessionSeries {
    /// Mean network capacity per topology (bit/s/Hz) — the aggregate
    /// series.
    pub network: PairedSamples,
    /// Mean capacity delivered to each client per round (bit/s/Hz), pooled
    /// across topologies and paired by client (same positions in both
    /// deployments).  The CDF of these is the paper's Fig. 16 comparison:
    /// a client far from its co-located array vs the same client near a
    /// distributed antenna.
    pub per_client: PairedSamples,
}

/// Builder for a [`Session`]: composes the pieces the pre-redesign API
/// spread over a dozen free-function signatures.
///
/// Defaults reproduce the paper's experiments: binary-graph contention,
/// full-buffer traffic, 20 TXOP rounds, identity seed mix, ambient worker
/// count (`MIDAS_THREADS`).
///
/// ```
/// use midas::sim::{PairedRecipe, SessionBuilder};
/// use midas_net::capture::ContentionModel;
///
/// let session = SessionBuilder::new(PairedRecipe::three_ap_paper())
///     .rounds(5)
///     .contention(ContentionModel::Graph)
///     .build();
/// let series = session.run(2, 7);
/// assert_eq!(series.network.cas.len(), 2);
/// ```
#[derive(Clone)]
pub struct SessionBuilder {
    source: Arc<dyn TopologySource>,
    contention: ContentionModel,
    traffic: TrafficKind,
    rounds: usize,
    tag_width: Option<usize>,
    stage_profiling: bool,
    dynamics: Option<DynamicsSpec>,
    mix: (u64, u64),
    threads: Option<usize>,
}

impl SessionBuilder {
    /// Starts a builder over a topology source with the library defaults.
    pub fn new(source: impl TopologySource + 'static) -> Self {
        SessionBuilder {
            source: Arc::new(source),
            contention: ContentionModel::Graph,
            traffic: TrafficKind::FullBuffer,
            rounds: 20,
            tag_width: None,
            stage_profiling: false,
            dynamics: None,
            mix: (1, 0),
            threads: None,
        }
    }

    /// Sets the contention semantics (default: [`ContentionModel::Graph`],
    /// the paper's binary carrier-sense graph).
    pub fn contention(mut self, contention: ContentionModel) -> Self {
        self.contention = contention;
        self
    }

    /// Sets the downlink traffic workload (default:
    /// [`TrafficKind::FullBuffer`], the paper's saturation model).
    pub fn traffic(mut self, traffic: TrafficKind) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the number of TXOP rounds per simulation (default: 20).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Overrides how many antennas each client's packets are tagged with
    /// (MIDAS only; default: the simulator config's 2).
    pub fn tag_width(mut self, tag_width: usize) -> Self {
        self.tag_width = Some(tag_width);
        self
    }

    /// Enables per-round stage timing accumulation (default: off).  When
    /// on, each simulator tracks wall-clock per pipeline stage and reports
    /// the totals through [`Observer::on_finish`].
    pub fn stage_profiling(mut self, enabled: bool) -> Self {
        self.stage_profiling = enabled;
        self
    }

    /// Installs a long-horizon dynamics layer (default: off).  When set,
    /// every trial's simulators run the per-round mutation stage — client
    /// mobility, re-association/handoff and the large-scale gain refresh
    /// it implies — ahead of channel evolution.  `None` (the default)
    /// keeps every session byte-identical to the static pipeline.
    pub fn dynamics(mut self, spec: DynamicsSpec) -> Self {
        self.dynamics = spec.is_active().then_some(spec);
        self
    }

    /// Sets the per-trial seed mix `trial_seed = seed ^ (t * prime +
    /// offset)` (default: identity).  The experiment specs pin each paper
    /// figure's historical mix here, which is what keeps their series
    /// bit-identical to the pre-redesign runners.
    pub fn seed_mix(mut self, prime: u64, offset: u64) -> Self {
        self.mix = (prime, offset);
        self
    }

    /// Overrides the sweep worker count (default: ambient
    /// `MIDAS_THREADS` / available parallelism).  Series are bit-identical
    /// at any setting.
    pub fn threads(mut self, workers: usize) -> Self {
        self.threads = Some(workers);
        self
    }

    /// Finalises the session.
    pub fn build(self) -> Session {
        Session { inner: self }
    }
}

/// A composed, reusable experiment session: runs paired CAS/MIDAS network
/// simulations over seeded topology sweeps, streaming results through
/// observers.
///
/// Construct via [`SessionBuilder`]; see the [module docs](crate::sim) for
/// the migration map from the old free functions.
#[derive(Clone)]
pub struct Session {
    inner: SessionBuilder,
}

impl Session {
    /// The topology source trials build from.
    pub fn source(&self) -> &dyn TopologySource {
        self.inner.source.as_ref()
    }

    /// The sweep engine this session fans trials through (mix and worker
    /// overrides applied).
    pub fn sweep(&self, seed: u64) -> SeedSweep {
        let mut sweep = SeedSweep::new(seed).with_mix(self.inner.mix.0, self.inner.mix.1);
        if let Some(workers) = self.inner.threads {
            sweep = sweep.with_threads(workers);
        }
        sweep
    }

    /// Materialises one trial: builds the paired topology at a pre-mixed
    /// seed and exposes paired simulators over it.  [`Session::run`] and
    /// friends call this per sweep index; it is public so callers with
    /// bespoke per-trial logic (extra diagnostics, custom observers) can
    /// compose their own sweeps via [`Session::run_trials`].
    pub fn trial(&self, index: usize, trial_seed: u64) -> SessionTrial<'_> {
        SessionTrial {
            session: self,
            index,
            seed: trial_seed,
            pair: self.inner.source.build(trial_seed),
        }
    }

    /// Runs `topologies` paired trials and accumulates the network and
    /// per-client series (the Figs. 15 / 16 shape).
    pub fn run(&self, topologies: usize, seed: u64) -> SessionSeries {
        self.run_with(topologies, seed, &|trial: &SessionTrial<'_>, mac| {
            Some(trial.simulate(mac))
        })
        .expect("plain simulation never stops early")
    }

    /// [`Session::run`] with each trial's per-MAC simulation (CAS first,
    /// then MIDAS) delegated to `simulate`; `None` from any call makes the
    /// whole run `None`.
    pub(crate) fn run_with(
        &self,
        topologies: usize,
        seed: u64,
        simulate: &(dyn Fn(&SessionTrial<'_>, MacKind) -> Option<TopologyResult> + Sync),
    ) -> Option<SessionSeries> {
        let rows = self.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
            let cas = simulate(trial, MacKind::Cas)?;
            let das = simulate(trial, MacKind::Midas)?;
            Some((
                (cas.mean_capacity(), das.mean_capacity()),
                (
                    cas.per_client_mean_capacity(),
                    das.per_client_mean_capacity(),
                ),
            ))
        });
        let mut out = SessionSeries::default();
        for row in rows {
            let (net, clients) = row?;
            out.network.cas.push(net.0);
            out.network.das.push(net.1);
            out.per_client.cas.extend(clients.0);
            out.per_client.das.extend(clients.1);
        }
        Some(out)
    }

    /// Runs `topologies` trials through the sweep engine, mapping each
    /// materialised [`SessionTrial`] with `f` — the extension point for
    /// runners that need more than the standard paired series (per-AP
    /// diagnostics, contention-degree scans, custom observers).  Samples
    /// come back in trial order, bit-identical at any worker count.
    pub fn run_trials<T: Send>(
        &self,
        topologies: usize,
        seed: u64,
        f: &(dyn Fn(&SessionTrial<'_>) -> T + Sync),
    ) -> Vec<T> {
        self.sweep(seed)
            .run(topologies, &|t: usize, s: u64| f(&self.trial(t, s)))
    }

    /// Streaming variant of [`Session::run`]: per trial, builds one
    /// observer pair via `make` (CAS first, then MIDAS), streams both
    /// simulations through them, and returns the pairs in trial order.
    /// With fixed-size observers (e.g.
    /// [`RunningSummary`](midas_net::observer::RunningSummary)) peak memory
    /// is flat in the round count.
    pub fn stream<O, F>(&self, topologies: usize, seed: u64, make: F) -> Vec<(O, O)>
    where
        O: Observer + Send,
        F: Fn() -> O + Sync,
    {
        self.run_trials(topologies, seed, &|trial: &SessionTrial<'_>| {
            let mut cas = make();
            trial.observe(MacKind::Cas, &mut cas);
            let mut das = make();
            trial.observe(MacKind::Midas, &mut das);
            (cas, das)
        })
    }
}

/// One materialised trial of a [`Session`]: the paired topology at one
/// mixed seed, plus paired simulator access.
pub struct SessionTrial<'a> {
    session: &'a Session,
    index: usize,
    seed: u64,
    pair: PairedTopology,
}

impl SessionTrial<'_> {
    /// The zero-based trial index within the sweep.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The mixed trial seed everything in this trial derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The paired CAS/DAS topology of this trial.
    pub fn pair(&self) -> &PairedTopology {
        &self.pair
    }

    /// The simulator configuration for one MAC variant: the source's
    /// config with the session's contention model (and tag-width override,
    /// if any) applied.
    pub fn config(&self, mac: MacKind) -> NetworkSimConfig {
        let inner = &self.session.inner;
        let mut config = inner.source.sim_config(mac, inner.rounds, self.seed);
        config.contention = inner.contention;
        if let Some(w) = inner.tag_width {
            config.tag_width = w;
        }
        config.dynamics = inner.dynamics;
        config
    }

    /// Builds the simulator for one MAC variant ([`MacKind::Cas`] runs the
    /// co-located deployment, [`MacKind::Midas`] the distributed one) with
    /// the session's traffic workload installed.  Inside a sweep, set-up
    /// runs on the trial's share of the sweep's threads; the simulator is
    /// bit-identical at any share.
    pub fn simulator(&self, mac: MacKind) -> NetworkSimulator {
        let topo = match mac {
            MacKind::Cas => self.pair.cas.clone(),
            MacKind::Midas => self.pair.das.clone(),
        };
        let sim = NetworkSimulator::new_with_setup_threads(topo, self.config(mac), trial_threads())
            .with_traffic_kind(self.session.inner.traffic);
        if self.session.inner.stage_profiling {
            sim.with_stage_profiling()
        } else {
            sim
        }
    }

    /// Runs one MAC variant to completion, accumulating the full
    /// [`TopologyResult`].
    pub fn simulate(&self, mac: MacKind) -> TopologyResult {
        self.simulator(mac).run()
    }

    /// Runs one MAC variant, streaming rounds into `observer` instead of
    /// accumulating — the memory-bounded path for long-horizon runs.
    pub fn observe(&self, mac: MacKind, observer: &mut dyn Observer) {
        self.simulator(mac).run_with(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::source::PairedRecipe;
    use midas_net::observer::{Accumulate, RunningSummary};

    fn quick_session() -> Session {
        SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(4)
            .seed_mix(193, 61)
            .build()
    }

    #[test]
    fn paired_samples_collect_in_trial_order() {
        let s = PairedSamples::from_pairs([(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.cas, vec![1.0, 3.0]);
        assert_eq!(s.das, vec![2.0, 4.0]);
        let g = PairedSamples::from_groups([(vec![1.0], vec![2.0, 3.0]), (vec![4.0], vec![])]);
        assert_eq!(g.cas, vec![1.0, 4.0]);
        assert_eq!(g.das, vec![2.0, 3.0]);
    }

    #[test]
    fn session_run_produces_full_series() {
        let series = quick_session().run(3, 11);
        assert_eq!(series.network.cas.len(), 3);
        assert_eq!(series.network.das.len(), 3);
        // 3 topologies × 12 clients, paired by position.
        assert_eq!(series.per_client.cas.len(), 36);
        assert_eq!(series.per_client.das.len(), 36);
        assert!(series.network.das.iter().all(|c| c.is_finite() && *c > 0.0));
    }

    #[test]
    fn session_trial_exposes_the_mixed_seed_and_pair() {
        let session = quick_session();
        let sweep = session.sweep(11);
        let trial = session.trial(2, sweep.trial_seed(2));
        assert_eq!(trial.seed(), 11 ^ (2 * 193 + 61));
        assert_eq!(trial.pair().das.aps.len(), 3);
        assert_eq!(trial.config(MacKind::Midas).rounds, 4);
    }

    #[test]
    fn streamed_accumulate_equals_simulate() {
        let session = quick_session();
        let trial = session.trial(0, session.sweep(5).trial_seed(0));
        let direct = trial.simulate(MacKind::Midas);
        let mut acc = Accumulate::new();
        trial.observe(MacKind::Midas, &mut acc);
        assert_eq!(acc.into_result(), direct);
    }

    #[test]
    fn stream_returns_one_observer_pair_per_trial() {
        let session = quick_session();
        let pairs = session.stream(2, 9, RunningSummary::new);
        assert_eq!(pairs.len(), 2);
        for (cas, das) in &pairs {
            assert_eq!(cas.rounds(), 4);
            assert_eq!(das.rounds(), 4);
            assert!(das.mean_capacity() > 0.0);
        }
    }

    #[test]
    fn a_one_trial_sweep_is_bit_identical_at_any_share() {
        // One trial on 1, 2 and 4 threads: the trial runs with the whole
        // sweep as its share, and both simulators come out the same.
        let run = |threads: usize| {
            SessionBuilder::new(midas_net::scale::Scenario::enterprise_office(16))
                .rounds(4)
                .seed_mix(1021, 101)
                .threads(threads)
                .build()
                .run_trials(1, 5, &|trial: &SessionTrial<'_>| {
                    (
                        trial_threads(),
                        trial.simulate(MacKind::Cas),
                        trial.simulate(MacKind::Midas),
                    )
                })
        };
        let one = run(1);
        assert_eq!(one[0].0, 1);
        for threads in [2, 4] {
            let shared = run(threads);
            assert_eq!(shared[0].0, threads);
            assert_eq!(shared[0].1, one[0].1, "CAS at {threads} threads");
            assert_eq!(shared[0].2, one[0].2, "MIDAS at {threads} threads");
        }
    }

    #[test]
    fn thread_override_does_not_change_the_series() {
        let serial = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(3)
            .seed_mix(193, 61)
            .threads(1)
            .build()
            .run(4, 21);
        let parallel = SessionBuilder::new(PairedRecipe::three_ap_paper())
            .rounds(3)
            .seed_mix(193, 61)
            .threads(4)
            .build()
            .run(4, 21);
        assert_eq!(serial.network.cas, parallel.network.cas);
        assert_eq!(serial.network.das, parallel.network.das);
        assert_eq!(serial.per_client.das, parallel.per_client.das);
    }
}
