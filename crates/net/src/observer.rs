//! Streaming simulation observers — the result axis of the session API.
//!
//! The original simulator accumulated everything into a [`TopologyResult`]
//! whose `per_round_*` vectors grow linearly with the round count; a
//! long-horizon 64-AP / 512-client run therefore pays O(rounds) memory for
//! data most callers immediately reduce to a handful of summary statistics.
//!
//! [`Observer`] inverts that: the simulator calls [`Observer::on_round`]
//! with a borrowed [`RoundRecord`] as each round completes, and the observer
//! keeps whatever state it wants.  Two library observers cover the common
//! cases:
//!
//! * [`RunningSummary`] keeps only fixed-size running sums (per-client,
//!   per-AP, totals): its memory footprint is **flat in the round count**,
//!   which is what makes memory-bounded long-horizon runs possible.
//! * [`Accumulate`] is a [`RunningSummary`] plus the two per-round series
//!   (capacity and streams), and rebuilds the full [`TopologyResult`]
//!   **bit for bit**: the summary performs the exact floating-point
//!   accumulation, in the exact order, the legacy `run()` loop did.
//!   `NetworkSimulator::run` itself uses it, so every pre-redesign golden
//!   is unchanged by construction.
//!
//! [`TopologyResult`]: crate::simulator::TopologyResult

use crate::simulator::{StageTimings, TopologyResult};
use midas_mac::timing::DEFAULT_TXOP_US;

/// Everything that happened in one simulated TXOP round, lent to observers
/// before the simulator reuses its buffers for the next round.
#[derive(Debug, Clone, Copy)]
pub struct RoundRecord<'a> {
    /// Zero-based round index.
    pub round: usize,
    /// Per-stream deliveries as `(global client id, serving AP id,
    /// capacity bit/s/Hz)` triples, in evaluation order (transmission
    /// order, then stream order within a transmission).
    pub deliveries: &'a [(usize, usize, f64)],
    /// AP ids that transmitted this round, in channel-access-grant order.
    pub transmitting_aps: &'a [usize],
    /// Total concurrent streams this round (counts every selected stream,
    /// including frames the physical model's capture rule then lost).
    pub streams: usize,
}

impl RoundRecord<'_> {
    /// Aggregate network capacity of the round: the deliveries summed in
    /// evaluation order (the exact sum the legacy accumulator pushed into
    /// `per_round_capacity`).
    pub fn total_capacity(&self) -> f64 {
        self.deliveries.iter().map(|(_, _, c)| c).sum()
    }
}

/// A streaming consumer of per-round simulation results.
///
/// Observers receive each round exactly once, in round order, and own all
/// result state — the simulator keeps nothing across rounds beyond its
/// channel/MAC state.  See the module docs for the two library observers.
pub trait Observer {
    /// Called once before round 0 with the topology dimensions and the
    /// configured round count, so observers can size fixed buffers.
    fn on_start(&mut self, num_clients: usize, num_aps: usize, rounds: usize) {
        let _ = (num_clients, num_aps, rounds);
    }

    /// Called after each round is evaluated.
    fn on_round(&mut self, record: &RoundRecord<'_>);

    /// Called once after the final round with the cumulative stage
    /// wall-clock of the run (all-zero unless the simulator was built with
    /// [`with_stage_profiling`]).  Default: ignored — result observers
    /// need not care about performance telemetry.
    ///
    /// [`with_stage_profiling`]: crate::simulator::NetworkSimulator::with_stage_profiling
    fn on_finish(&mut self, timings: &StageTimings) {
        let _ = timings;
    }

    /// Polled after every [`Observer::on_round`]: returning `true` stops
    /// the run before the next round begins (cooperative, round-granular
    /// cancellation — deadline probes hang off this).  Default: `false`,
    /// so plain result observers never stop a run.
    fn stop_requested(&mut self) -> bool {
        false
    }
}

/// The accumulate-everything observer: a [`RunningSummary`] plus the two
/// per-round series, which together make the legacy [`TopologyResult`]
/// bit for bit (same additions, same order).
#[derive(Debug, Clone, Default)]
pub struct Accumulate {
    summary: RunningSummary,
    per_round_capacity: Vec<f64>,
    per_round_streams: Vec<usize>,
}

impl Accumulate {
    /// An empty accumulator (buffers are sized by [`Observer::on_start`]).
    pub fn new() -> Self {
        Accumulate::default()
    }

    /// Consumes the accumulator into the aggregate result.
    pub fn into_result(self) -> TopologyResult {
        TopologyResult {
            per_round_capacity: self.per_round_capacity,
            per_round_streams: self.per_round_streams,
            per_client_airtime_us: self.summary.per_client_airtime_us,
            per_client_capacity: self.summary.per_client_capacity,
            per_ap_capacity: self.summary.per_ap_capacity,
            per_ap_active_rounds: self.summary.per_ap_active_rounds,
        }
    }
}

impl Observer for Accumulate {
    fn on_start(&mut self, num_clients: usize, num_aps: usize, rounds: usize) {
        self.summary.on_start(num_clients, num_aps, rounds);
        self.per_round_capacity = Vec::with_capacity(rounds);
        self.per_round_streams = Vec::with_capacity(rounds);
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.per_round_capacity.push(record.total_capacity());
        self.per_round_streams.push(record.streams);
        self.summary.on_round(record);
    }
}

/// The memory-bounded observer: fixed-size running sums whose footprint
/// does not grow with the round count.
///
/// Its per-client and per-AP sums are the ones [`Accumulate`] reports (it
/// keeps one of these); the scalar totals (`capacity_sum`, `streams_sum`)
/// are the round values summed in round order, i.e. exactly the sum of
/// `Accumulate`'s `per_round_*` vectors taken front to back.
#[derive(Debug, Clone, Default)]
pub struct RunningSummary {
    rounds: usize,
    capacity_sum: f64,
    streams_sum: usize,
    per_client_airtime_us: Vec<f64>,
    per_client_capacity: Vec<f64>,
    per_ap_capacity: Vec<f64>,
    per_ap_active_rounds: Vec<usize>,
}

impl RunningSummary {
    /// An empty summary (buffers are sized by [`Observer::on_start`]).
    pub fn new() -> Self {
        RunningSummary::default()
    }

    /// Number of rounds observed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Sum of per-round aggregate network capacities (bit/s/Hz), in round
    /// order.
    pub fn capacity_sum(&self) -> f64 {
        self.capacity_sum
    }

    /// Mean aggregate network capacity per round; 0.0 for a zero-round run.
    pub fn mean_capacity(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.capacity_sum / self.rounds as f64
    }

    /// Total concurrent streams across all rounds.
    // lint: allow(unreachable-pub) — proptest_observer checks the running sums against the per-round records
    pub fn streams_sum(&self) -> usize {
        self.streams_sum
    }

    /// Mean concurrent streams per round; 0.0 for a zero-round run.
    pub fn mean_streams(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.streams_sum as f64 / self.rounds as f64
    }

    /// Capacity delivered to each client, summed over all rounds
    /// (bit-identical to `TopologyResult::per_client_capacity`).
    pub fn per_client_capacity(&self) -> &[f64] {
        &self.per_client_capacity
    }

    /// Airtime credited to each client (µs), summed over all rounds.
    pub fn per_client_airtime_us(&self) -> &[f64] {
        &self.per_client_airtime_us
    }

    /// Capacity attributed to each AP, summed over all rounds.
    pub fn per_ap_capacity(&self) -> &[f64] {
        &self.per_ap_capacity
    }

    /// Rounds in which each AP transmitted.
    pub fn per_ap_active_rounds(&self) -> &[usize] {
        &self.per_ap_active_rounds
    }

    /// Fraction of rounds each AP transmitted in; all zeros for a
    /// zero-round run.
    pub fn per_ap_duty_cycle(&self) -> Vec<f64> {
        let rounds = self.rounds.max(1) as f64;
        self.per_ap_active_rounds
            .iter()
            .map(|&r| r as f64 / rounds)
            .collect()
    }

    /// Heap bytes held by this observer — a constant in the round count
    /// (only topology dimensions size the buffers), which the
    /// memory-bounded-streaming acceptance test pins.
    pub fn heap_footprint_bytes(&self) -> usize {
        self.per_client_airtime_us.capacity() * std::mem::size_of::<f64>()
            + self.per_client_capacity.capacity() * std::mem::size_of::<f64>()
            + self.per_ap_capacity.capacity() * std::mem::size_of::<f64>()
            + self.per_ap_active_rounds.capacity() * std::mem::size_of::<usize>()
    }
}

impl Observer for RunningSummary {
    fn on_start(&mut self, num_clients: usize, num_aps: usize, _rounds: usize) {
        // Full reset, scalars included, so one summary can be reused across
        // runs (matching `Accumulate`, whose on_start also clears
        // everything).
        self.rounds = 0;
        self.capacity_sum = 0.0;
        self.streams_sum = 0;
        self.per_client_airtime_us = vec![0.0; num_clients];
        self.per_client_capacity = vec![0.0; num_clients];
        self.per_ap_capacity = vec![0.0; num_aps];
        self.per_ap_active_rounds = vec![0; num_aps];
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        self.rounds += 1;
        self.capacity_sum += record.total_capacity();
        self.streams_sum += record.streams;
        for (client, ap, c) in record.deliveries {
            self.per_client_airtime_us[*client] += DEFAULT_TXOP_US as f64;
            self.per_client_capacity[*client] += c;
            self.per_ap_capacity[*ap] += c;
        }
        for &ap in record.transmitting_aps {
            self.per_ap_active_rounds[ap] += 1;
        }
    }
}

/// Fans one round stream out to several observers, in order — lets a single
/// simulation feed, say, an [`Accumulate`] and a figure sink at once.
pub struct Tee<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Tee<'a> {
    /// A tee over the given observers; each receives every callback, in the
    /// order given.
    pub fn new(observers: Vec<&'a mut dyn Observer>) -> Self {
        Tee { observers }
    }
}

impl Observer for Tee<'_> {
    fn on_start(&mut self, num_clients: usize, num_aps: usize, rounds: usize) {
        for obs in &mut self.observers {
            obs.on_start(num_clients, num_aps, rounds);
        }
    }

    fn on_round(&mut self, record: &RoundRecord<'_>) {
        for obs in &mut self.observers {
            obs.on_round(record);
        }
    }

    fn on_finish(&mut self, timings: &StageTimings) {
        for obs in &mut self.observers {
            obs.on_finish(timings);
        }
    }

    fn stop_requested(&mut self) -> bool {
        // Every observer is polled (no short-circuit) so each sees a
        // consistent per-round cadence; any single `true` stops the run.
        let mut stop = false;
        for obs in &mut self.observers {
            stop |= obs.stop_requested();
        }
        stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record<'a>(
        round: usize,
        deliveries: &'a [(usize, usize, f64)],
        aps: &'a [usize],
    ) -> RoundRecord<'a> {
        RoundRecord {
            round,
            deliveries,
            transmitting_aps: aps,
            streams: deliveries.len(),
        }
    }

    #[test]
    fn accumulate_rebuilds_the_topology_result_shape() {
        let mut acc = Accumulate::new();
        acc.on_start(3, 2, 2);
        acc.on_round(&record(0, &[(0, 0, 1.5), (2, 1, 2.0)], &[0, 1]));
        acc.on_round(&record(1, &[(1, 0, 3.0)], &[0]));
        let result = acc.into_result();
        assert_eq!(result.per_round_capacity, vec![3.5, 3.0]);
        assert_eq!(result.per_round_streams, vec![2, 1]);
        assert_eq!(result.per_client_capacity, vec![1.5, 3.0, 2.0]);
        assert_eq!(result.per_ap_capacity, vec![4.5, 2.0]);
        assert_eq!(result.per_ap_active_rounds, vec![2, 1]);
        assert_eq!(
            result.per_client_airtime_us,
            vec![
                DEFAULT_TXOP_US as f64,
                DEFAULT_TXOP_US as f64,
                DEFAULT_TXOP_US as f64
            ]
        );
    }

    #[test]
    fn running_summary_matches_accumulate_on_the_shared_sums() {
        let rounds: Vec<Vec<(usize, usize, f64)>> = vec![
            vec![(0, 0, 1.25), (1, 1, 0.5)],
            vec![],
            vec![(1, 0, 2.0), (0, 1, 0.125), (1, 1, 1.0)],
        ];
        let mut acc = Accumulate::new();
        let mut sum = RunningSummary::new();
        acc.on_start(2, 2, rounds.len());
        sum.on_start(2, 2, rounds.len());
        for (i, deliveries) in rounds.iter().enumerate() {
            let aps: Vec<usize> = deliveries.iter().map(|(_, ap, _)| *ap).collect();
            let rec = record(i, deliveries, &aps);
            acc.on_round(&rec);
            sum.on_round(&rec);
        }
        let result = acc.into_result();
        assert_eq!(sum.rounds(), 3);
        assert_eq!(sum.per_client_capacity(), &result.per_client_capacity[..]);
        assert_eq!(sum.per_ap_capacity(), &result.per_ap_capacity[..]);
        assert_eq!(sum.per_ap_active_rounds(), &result.per_ap_active_rounds[..]);
        assert_eq!(
            sum.per_client_airtime_us(),
            &result.per_client_airtime_us[..]
        );
        // The scalar totals equal the per-round vectors summed in order.
        assert_eq!(
            sum.capacity_sum(),
            result.per_round_capacity.iter().sum::<f64>()
        );
        assert_eq!(
            sum.streams_sum(),
            result.per_round_streams.iter().sum::<usize>()
        );
    }

    #[test]
    fn running_summary_is_well_defined_on_zero_rounds() {
        let mut sum = RunningSummary::new();
        sum.on_start(4, 2, 0);
        assert_eq!(sum.mean_capacity(), 0.0);
        assert_eq!(sum.mean_streams(), 0.0);
        assert_eq!(sum.per_ap_duty_cycle(), vec![0.0, 0.0]);
    }

    #[test]
    fn running_summary_resets_fully_on_reuse() {
        let mut sum = RunningSummary::new();
        sum.on_start(2, 1, 2);
        sum.on_round(&record(0, &[(0, 0, 5.0)], &[0]));
        sum.on_round(&record(1, &[(1, 0, 3.0)], &[0]));
        // Second run through the same observer: everything restarts.
        sum.on_start(2, 1, 1);
        sum.on_round(&record(0, &[(0, 0, 2.0)], &[0]));
        assert_eq!(sum.rounds(), 1);
        assert_eq!(sum.capacity_sum(), 2.0);
        assert_eq!(sum.streams_sum(), 1);
        assert_eq!(sum.per_client_capacity(), &[2.0, 0.0]);
        assert_eq!(sum.per_ap_active_rounds(), &[1]);
        assert_eq!(sum.mean_capacity(), 2.0);
    }

    #[test]
    fn running_summary_footprint_is_flat_in_rounds() {
        let run = |rounds: usize| {
            let mut sum = RunningSummary::new();
            sum.on_start(8, 2, rounds);
            let deliveries = [(0usize, 0usize, 1.0f64)];
            for r in 0..rounds {
                sum.on_round(&record(r, &deliveries, &[0]));
            }
            sum.heap_footprint_bytes()
        };
        assert_eq!(run(1), run(1000));
    }

    #[test]
    fn tee_feeds_every_observer() {
        let mut a = RunningSummary::new();
        let mut b = RunningSummary::new();
        {
            let mut tee = Tee::new(vec![&mut a, &mut b]);
            tee.on_start(1, 1, 1);
            tee.on_round(&record(0, &[(0, 0, 2.0)], &[0]));
        }
        assert_eq!(a.capacity_sum(), 2.0);
        assert_eq!(b.capacity_sum(), 2.0);
    }
}
