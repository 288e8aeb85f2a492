//! The session-driven run: one decoded spec through the public
//! `midas::sim` API, with the set-up and the round loop timed apart.
//!
//! This follows the recipe the job runner uses for the two session-driven
//! experiment kinds (same topology source, rounds, contention, seed mix,
//! threads and dynamics; library-default engine and traffic), but drives
//! the sweep, each trial's build and each simulator itself, so that set-up
//! (`Session::trial` + `SessionTrial::simulator`) and the round loop
//! (`Observer::on_start` → `on_finish`) can be clocked separately.  It
//! writes no files; the job queue run produces the user-visible output.

use std::time::Instant;

use midas::sim::{
    ExperimentSpec, MacKind, Observer, PairedRecipe, RoundRecord, SessionBuilder, StageTimings,
};
use midas_channel::topology::Topology;
use midas_net::simulator::NetworkSimConfig;
use midas_svc::spec::JobSpec;

use crate::trace::{now, secs_since, span, Tracer};

/// What one session-driven run measured.
#[derive(Debug, Default, Clone)]
pub struct SimTally {
    /// Σ over trials of `Session::trial` alone.
    pub trial_build_s: f64,
    /// Σ over simulators of `SessionTrial::simulator`.
    pub sim_new_s: f64,
    /// Σ over simulators of the round loop (`on_start` → `on_finish`).
    pub loop_s: f64,
    /// Σ over trials of each sweep closure's duration.
    pub trial_busy_s: f64,
    /// Σ over sweeps of sweep wall time, and of wall time × workers used.
    pub sweep_s: f64,
    pub sweep_thread_s: f64,
    /// Simulated rounds, once per topology per MAC.
    pub rounds: usize,
    /// Σ streams and Σ transmitting APs over every simulated round.
    pub streams: usize,
    pub tx_aps: usize,
    /// Deliveries whose capacity was not finite and ≥ 0.
    pub bad_deliveries: usize,
    /// Deliveries checked.
    pub deliveries: usize,
    /// Stage totals (all zero unless traced).
    pub stages: StageTimings,
    /// Per-round host durations in ms (traced runs only).
    pub round_ms: Vec<f64>,
    pub dynamics_moves: usize,
    pub dynamics_handoffs: usize,
    pub workspace_bytes: usize,
    pub dynamics_heap_bytes: usize,
}

impl SimTally {
    /// Set-up time: topology builds plus simulator construction.
    pub fn setup_s(&self) -> f64 {
        self.trial_build_s + self.sim_new_s
    }

    /// Adds `other`'s sums and keeps the larger footprints.
    pub fn absorb(&mut self, other: SimTally) {
        self.sweep_s += other.sweep_s;
        self.sweep_thread_s += other.sweep_thread_s;
        self.trial_build_s += other.trial_build_s;
        self.sim_new_s += other.sim_new_s;
        self.loop_s += other.loop_s;
        self.trial_busy_s += other.trial_busy_s;
        self.rounds += other.rounds;
        self.streams += other.streams;
        self.tx_aps += other.tx_aps;
        self.bad_deliveries += other.bad_deliveries;
        self.deliveries += other.deliveries;
        let (a, b) = (&mut self.stages, other.stages);
        a.dynamics_s += b.dynamics_s;
        a.evolve_s += b.evolve_s;
        a.sense_s += b.sense_s;
        a.select_s += b.select_s;
        a.precode_s += b.precode_s;
        a.evaluate_s += b.evaluate_s;
        a.settle_s += b.settle_s;
        a.rounds += b.rounds;
        self.round_ms.extend(other.round_ms);
        self.dynamics_moves += other.dynamics_moves;
        self.dynamics_handoffs += other.dynamics_handoffs;
        self.workspace_bytes = self.workspace_bytes.max(other.workspace_bytes);
        self.dynamics_heap_bytes = self.dynamics_heap_bytes.max(other.dynamics_heap_bytes);
    }
}

/// Clocks the round loop and checks every delivery.
struct RoundClock {
    per_round: bool,
    started: Option<Instant>,
    last: Option<Instant>,
    finished_after_s: f64,
    tally: SimTally,
}

impl Observer for RoundClock {
    fn on_start(&mut self, _clients: usize, _aps: usize, _rounds: usize) {
        let t = now();
        self.started = Some(t);
        self.last = Some(t);
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        if self.per_round {
            let t = now();
            if let Some(last) = self.last {
                self.tally
                    .round_ms
                    .push(t.duration_since(last).as_secs_f64() * 1e3);
            }
            self.last = Some(t);
        }
        self.tally.rounds += 1;
        self.tally.streams += record.streams;
        self.tally.tx_aps += record.transmitting_aps.len();
        self.tally.deliveries += record.deliveries.len();
        self.tally.bad_deliveries += record
            .deliveries
            .iter()
            .filter(|d| !(d.2.is_finite() && d.2 >= 0.0))
            .count();
    }

    fn on_finish(&mut self, timings: &StageTimings) {
        if let Some(t) = self.started {
            self.finished_after_s = secs_since(t);
        }
        self.tally.stages = *timings;
    }
}

/// The session for a decoded spec, plus its topology count.
fn session_for(spec: &JobSpec, traced: bool) -> Result<(midas::Session, usize), String> {
    let (builder, topologies) = match &spec.experiment {
        ExperimentSpec::EndToEnd {
            eight_aps,
            topologies,
            rounds,
            contention,
        } => {
            let recipe = if *eight_aps {
                PairedRecipe::eight_ap_paper()
            } else {
                PairedRecipe::three_ap_paper()
            };
            let builder = SessionBuilder::new(recipe)
                .rounds(*rounds)
                .contention(*contention)
                .seed_mix(193, 61);
            (builder, *topologies)
        }
        ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies,
            rounds,
        } => {
            let builder = SessionBuilder::new(*scenario)
                .rounds(*rounds)
                .seed_mix(1021, 101);
            (builder, *topologies)
        }
        other => return Err(format!("{} is not session-driven", other.name())),
    };
    let mut builder = builder.stage_profiling(traced);
    if let Some(threads) = spec.threads {
        builder = builder.threads(threads);
    }
    if let Some(dynamics) = spec.dynamics {
        builder = builder.dynamics(dynamics);
    }
    Ok((builder.build(), topologies))
}

/// Runs every trial of `spec` and returns what it measured.
pub fn run(
    spec: &JobSpec,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> Result<SimTally, String> {
    let traced = tracer.is_some();
    let (session, topologies) = session_for(spec, traced)?;
    let sweep = session.sweep(spec.seed);
    let start = now();
    let per_trial = span(tracer, "core.sweep", parent, |sweep_span| {
        sweep.run(topologies, &|index: usize, seed: u64| {
            span(tracer, "core.trial", sweep_span, |trial_span| {
                let t0 = now();
                let trial = span(tracer, "core.trial_build", trial_span, |_| {
                    session.trial(index, seed)
                });
                let mut tally = SimTally {
                    trial_build_s: secs_since(t0),
                    ..SimTally::default()
                };
                for mac in [MacKind::Cas, MacKind::Midas] {
                    let t1 = now();
                    let mut sim = span(tracer, "net.setup", trial_span, |_| trial.simulator(mac));
                    tally.sim_new_s += secs_since(t1);
                    let mut clock = RoundClock {
                        per_round: traced,
                        started: None,
                        last: None,
                        finished_after_s: 0.0,
                        tally: SimTally::default(),
                    };
                    span(tracer, "net.rounds", trial_span, |_| {
                        sim.run_with(&mut clock)
                    });
                    let mut one = clock.tally;
                    one.loop_s = clock.finished_after_s;
                    if let Some((moves, handoffs)) = sim.dynamics_stats() {
                        one.dynamics_moves = moves;
                        one.dynamics_handoffs = handoffs;
                    }
                    one.workspace_bytes = sim.workspace_heap_footprint_bytes();
                    one.dynamics_heap_bytes = sim.dynamics_heap_footprint_bytes();
                    tally.absorb(one);
                }
                tally.trial_busy_s = secs_since(t0);
                tally
            })
        })
    });
    let sweep_s = secs_since(start);
    let mut total = SimTally {
        sweep_s,
        sweep_thread_s: sweep_s * sweep.workers_for(topologies) as f64,
        ..SimTally::default()
    };
    for tally in per_trial {
        total.absorb(tally);
    }
    Ok(total)
}

/// The DAS topology and MIDAS simulator config of trial 0 — the geometry
/// the kernel measurements run on.
pub fn first_trial_geometry(spec: &JobSpec) -> Result<(Topology, NetworkSimConfig), String> {
    let (session, _) = session_for(spec, false)?;
    let trial = session.trial(0, session.sweep(spec.seed).trial_seed(0));
    Ok((trial.pair().das.clone(), trial.config(MacKind::Midas)))
}
