//! Round-based end-to-end network simulator (Figs. 15 and 16).
//!
//! The simulator plays out full-buffer downlink traffic in a multi-AP network
//! over a sequence of TXOP rounds.  Within a round the APs attempt channel
//! access in a random order (standing in for the backoff race); an AP — or in
//! MIDAS, each of its distributed antennas — joins the round only if it does
//! not carrier-sense a transmitter that already won the round.  Winning APs
//! select clients (MIDAS: virtual packet tagging + antenna-specific DRR; CAS:
//! fairness-only), precode (MIDAS: power-balanced; CAS: naïve global scaling)
//! and the resulting per-client SINRs include *cross-AP interference* from
//! every other concurrent transmission, so more spatial reuse only pays off
//! when the interference geometry allows it — exactly the trade-off §5.4
//! discusses.

use crate::capture::ContentionModel;
use crate::contention::ContentionGraph;
use crate::dynamics::{DynamicsCounters, DynamicsSpec, DynamicsState};
use crate::metrics::Cdf;
use crate::observer::{Accumulate, Observer, RoundRecord};
use crate::scale::index::{NeighborTracker, SpatialIndex};
use crate::traffic::{TrafficKind, TrafficState};
use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{ChannelMatrix, ChannelModel, Environment, RowCache, SimRng};
use midas_linalg::{CMat, Complex};
use midas_mac::client_select::{select_clients_cas, select_clients_midas};
use midas_mac::drr::DrrScheduler;
use midas_mac::tagging::TagTable;
use midas_mac::timing::DEFAULT_TXOP_US;
use midas_phy::capacity::shannon_capacity_bps_hz;
use midas_phy::precoder::{make_precoder, Precoder, PrecoderKind};
use std::time::Instant;

/// Which MAC discipline the APs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacKind {
    /// MIDAS: per-antenna carrier sensing, packet tagging, DRR per antenna.
    Midas,
    /// CAS baseline: single channel state, all antennas, fairness-only selection.
    Cas,
}

/// How the simulator answers "who is near this point?" — carrier-sense and
/// cross-AP interference neighbourhoods.
///
/// Both modes apply the same interaction-range truncation and visit the
/// surviving points in the same (insertion) order, so they produce
/// **bit-identical** results; the property tests in `tests/proptest_scale.rs`
/// pin that equivalence.  `Indexed` is the default: O(n·k) per round via the
/// uniform-grid [`SpatialIndex`] instead of the O(n²) pairwise sweeps, which
/// is what keeps 64-AP / 512-client floors tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Uniform-grid spatial-index neighbourhood queries (default).
    Indexed,
    /// Reference all-pairs sweep, kept for equivalence testing.
    BruteForce,
}

/// Configuration of an end-to-end simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSimConfig {
    /// Propagation environment.
    pub env: Environment,
    /// MAC discipline.
    pub mac: MacKind,
    /// Precoder used by every AP.
    pub precoder: PrecoderKind,
    /// Number of TXOP rounds simulated.
    pub rounds: usize,
    /// Number of antennas each client's packets are tagged with (MIDAS only).
    pub tag_width: usize,
    /// Random seed for channel realisations and access order.
    pub seed: u64,
    /// Radio interaction range (metres): a transmitter farther than this
    /// from a sensing antenna contributes nothing to carrier sensing, and a
    /// transmission whose antennas are all farther than this from a client
    /// contributes no interference.  `f64::INFINITY` (the constructor
    /// default, matching the paper-scale figures) disables truncation;
    /// enterprise scenarios set it from `Environment::interaction_range_m`.
    pub interaction_range_m: f64,
    /// Neighbourhood scan implementation (results are bit-identical).
    pub scan: ScanMode,
    /// Channel-realisation cache length in rounds: channels evolve (fresh
    /// keyed fading draws) only at every this-many-th round, covering the
    /// elapsed time in one Gauss–Markov step.  `1` (the constructor default)
    /// evolves every round — one step per TXOP, as the paper-scale figures
    /// assume; larger values model a coherence interval longer than one
    /// TXOP and need one row step per interval instead of per round.
    pub coherence_interval_rounds: usize,
    /// Contention semantics: the legacy binary carrier-sense graph
    /// (default, bit-identical to the pre-capture simulator) or the
    /// physical energy-detect + SINR-capture model (`crate::capture`).
    pub contention: ContentionModel,
    /// Long-horizon dynamics: client mobility and per-round roaming (see
    /// [`crate::dynamics`]).  `None` (the constructor default) is the
    /// static simulator, byte-identical to every pre-dynamics golden.  A
    /// dynamic run starts from exactly the static channel rows and keeps
    /// the row set exact every step: a row is born when a client comes
    /// within range of an AP (or roams to it) and freed when it leaves.
    pub dynamics: Option<DynamicsSpec>,
}

impl NetworkSimConfig {
    /// The MIDAS system configuration (DAS topology expected).
    pub fn midas(env: Environment, seed: u64) -> Self {
        NetworkSimConfig {
            env,
            mac: MacKind::Midas,
            precoder: PrecoderKind::PowerBalanced,
            rounds: 20,
            tag_width: 2,
            seed,
            interaction_range_m: f64::INFINITY,
            scan: ScanMode::Indexed,
            contention: ContentionModel::Graph,
            coherence_interval_rounds: 1,
            dynamics: None,
        }
    }

    /// The conventional 802.11ac CAS configuration.
    pub fn cas(env: Environment, seed: u64) -> Self {
        NetworkSimConfig {
            env,
            mac: MacKind::Cas,
            precoder: PrecoderKind::NaiveScaled,
            rounds: 20,
            tag_width: 2,
            seed,
            interaction_range_m: f64::INFINITY,
            scan: ScanMode::Indexed,
            contention: ContentionModel::Graph,
            coherence_interval_rounds: 1,
            dynamics: None,
        }
    }

    /// Cell size the simulator's spatial indices use: the interaction range
    /// (radius-`r` queries then touch at most a 3×3 window).
    fn index_cell_m(&self) -> f64 {
        self.interaction_range_m
    }

    /// Whether the indexed scan actually runs.  With an infinite interaction
    /// range a neighbourhood query degenerates to "every point" — provably
    /// the same result, but the query/sort machinery would be pure overhead
    /// on the paper-scale figures — so the index is only engaged when a
    /// finite range gives it something to prune.
    fn use_index(&self) -> bool {
        self.scan == ScanMode::Indexed && self.interaction_range_m.is_finite()
    }
}

/// Result of simulating one topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyResult {
    /// Aggregate network capacity per round (bit/s/Hz summed over all
    /// concurrent streams).
    pub per_round_capacity: Vec<f64>,
    /// Number of concurrent streams per round.
    pub per_round_streams: Vec<usize>,
    /// Total service time credited to each client (µs), for fairness checks.
    pub per_client_airtime_us: Vec<f64>,
    /// Capacity delivered to each client, summed over all rounds
    /// (bit/s/Hz) — the per-client series whose pooled CDF the paper's
    /// Fig. 16 plots (a client far from its CAS array vs the same client
    /// near a distributed antenna).
    pub per_client_capacity: Vec<f64>,
    /// Capacity attributed to each AP, summed over all rounds (bit/s/Hz) —
    /// the per-AP diagnostic behind the Fig. 16 calibration work: it shows
    /// which APs in a large floor are starved by contention vs drowned in
    /// cross-AP interference.
    pub per_ap_capacity: Vec<f64>,
    /// Rounds in which each AP (any of its antennas) transmitted.
    pub per_ap_active_rounds: Vec<usize>,
}

impl TopologyResult {
    /// Mean aggregate network capacity over the rounds (the per-topology value
    /// whose CDF Figs. 15 and 16 plot); 0.0 for a zero-round run.
    pub fn mean_capacity(&self) -> f64 {
        if self.per_round_capacity.is_empty() {
            return 0.0;
        }
        Cdf::new(&self.per_round_capacity).mean()
    }

    /// Mean number of concurrent streams per round.
    pub fn mean_streams(&self) -> f64 {
        if self.per_round_streams.is_empty() {
            return 0.0;
        }
        self.per_round_streams.iter().sum::<usize>() as f64 / self.per_round_streams.len() as f64
    }

    /// Mean capacity attributed to each AP per round (bit/s/Hz) — zero for
    /// APs that never won channel access.
    pub fn per_ap_mean_capacity(&self) -> Vec<f64> {
        let rounds = self.per_round_capacity.len().max(1) as f64;
        self.per_ap_capacity.iter().map(|c| c / rounds).collect()
    }

    /// Mean capacity delivered to each client per round (bit/s/Hz) — zero
    /// for clients that were never served (or whose every frame collided).
    pub fn per_client_mean_capacity(&self) -> Vec<f64> {
        let rounds = self.per_round_capacity.len().max(1) as f64;
        self.per_client_capacity
            .iter()
            .map(|c| c / rounds)
            .collect()
    }

    /// Fraction of rounds each AP managed to transmit in; all zeros for a
    /// zero-round run.
    pub fn per_ap_duty_cycle(&self) -> Vec<f64> {
        let rounds = self.per_round_capacity.len().max(1) as f64;
        self.per_ap_active_rounds
            .iter()
            .map(|&r| r as f64 / rounds)
            .collect()
    }
}

/// Cumulative wall-clock spent in each stage of the round pipeline,
/// accumulated in the round workspace when stage profiling is enabled
/// (see [`NetworkSimulator::with_stage_profiling`]) and surfaced through
/// [`NetworkSimulator::stage_timings`] and [`Observer::on_finish`].
///
/// All-zero when profiling is off — the hot path then never reads a clock.
/// The gather of per-stream interferer neighbourhoods is attributed to
/// `evaluate_s` (it is the evaluate stage's discovery half, hoisted so
/// fading evolution knows which rows the round will read).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Dynamics: mobility, large-scale refresh, roaming and the MAC-state
    /// rebuilds they trigger (0.0 when dynamics are off).
    pub dynamics_s: f64,
    /// Channel evolution: keyed catch-up of the rows the round reads.
    pub evolve_s: f64,
    /// Carrier sensing against the antennas already on the air.
    pub sense_s: f64,
    /// Access-order shuffle, backlog queries, client selection, slot claims.
    pub select_s: f64,
    /// Per-slot precoding.
    pub precode_s: f64,
    /// Interferer gather + SINR/capacity computation.
    pub evaluate_s: f64,
    /// DRR fairness and traffic-queue bookkeeping.
    pub settle_s: f64,
    /// Rounds profiled into these totals.
    pub rounds: usize,
}

impl StageTimings {
    /// Total wall-clock across all stages.
    pub fn total_s(&self) -> f64 {
        self.dynamics_s
            + self.evolve_s
            + self.sense_s
            + self.select_s
            + self.precode_s
            + self.evaluate_s
            + self.settle_s
    }

    /// The stages as `(name, seconds)` pairs in pipeline order — the single
    /// place the stage names are spelled, so telemetry encoders (the
    /// capacity-planning service's JSONL stream, the pipeline bench's
    /// profile printout) cannot drift from the struct.
    pub fn stages(&self) -> [(&'static str, f64); 7] {
        [
            ("dynamics", self.dynamics_s),
            ("evolve", self.evolve_s),
            ("sense", self.sense_s),
            ("select", self.select_s),
            ("precode", self.precode_s),
            ("evaluate", self.evaluate_s),
            ("settle", self.settle_s),
        ]
    }
}

/// Deterministic work counts of keyed fading evolution, summed over a run
/// (see [`NetworkSimulator::fading_counters`]).  Always on — plain integer
/// adds next to the work they count — and they include the replays the
/// dynamics stage runs before it rescales a lagging row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FadingCounters {
    /// Row catch-ups that moved a channel row forward by at least one
    /// evolution boundary.
    pub rows_caught_up: usize,
    /// Keyed Gauss–Markov row steps applied: one per row per boundary.
    pub row_steps: usize,
    /// Gaussian pairs those steps drew: one per antenna per step.
    pub gaussian_pairs: usize,
}

/// `Some(now)` when stage profiling is on — the pipeline's "maybe read the
/// clock" primitive.
#[inline]
fn tick(enabled: bool) -> Option<Instant> {
    // lint: allow(wall-clock) — stage profiling only: `tick` returns None (and the
    // hot path never reads a clock) unless `with_stage_profiling` was requested.
    enabled.then(Instant::now)
}

/// Seconds since a [`tick`], `0.0` when profiling was off.
#[inline]
fn secs_since(start: Option<Instant>) -> f64 {
    start.map_or(0.0, |s| s.elapsed().as_secs_f64())
}

/// One concurrent transmission inside a round.
///
/// Lives in the workspace's slot pool: the index buffers are cleared and
/// refilled round over round (retaining capacity), only the precoding matrix
/// is replaced wholesale (the precoder produces a fresh one).
struct ActiveTransmission {
    ap_id: usize,
    /// AP-local indices of the antennas used.
    antenna_idx: Vec<usize>,
    /// Topology-wide client indices served, aligned with precoder columns.
    clients: Vec<usize>,
    /// Precoding matrix (antennas × streams).
    v: CMat,
}

impl ActiveTransmission {
    fn empty() -> Self {
        ActiveTransmission {
            ap_id: 0,
            antenna_idx: Vec::new(),
            clients: Vec::new(),
            v: CMat::zeros(0, 0),
        }
    }
}

/// All per-round scratch of the staged round pipeline
/// (`dynamics → backlog → sense → select → gather → fading → precode →
/// evaluate → settle`).
///
/// The simulator owns exactly one of these and threads it through every
/// stage; every buffer is cleared — never reallocated — between rounds, the
/// spatial indexes are emptied in place, and the global↔local client id maps
/// are prebuilt at construction time.  Once warm, a steady-state round
/// allocates nothing from this struct (the remaining per-round allocations
/// are the precoder's internal matrices and the small selection vectors the
/// `midas-mac` helpers return); `NetworkSimulator::workspace_heap_footprint_bytes`
/// exposes the retained capacity so tests can pin that it stops growing.
#[derive(Default)]
struct RoundWorkspace {
    /// AP access order, reshuffled every round (the backoff race).
    order: Vec<usize>,
    /// Positions of the antennas already on the air this round.
    active_antenna_positions: Vec<Point>,
    /// Persistent spatial mirror of `active_antenna_positions` supporting
    /// O(k) "who can I hear?" queries; ids are insertion-ordered, so folding
    /// over a neighbourhood reproduces the brute-force sweep bit-for-bit.
    /// `None` when the indexed scan is disabled.
    active_index: Option<SpatialIndex>,
    /// Persistent index over the round's transmitting antennas, for the
    /// cross-AP interferer lookup in the evaluate stage.
    interferer_index: Option<SpatialIndex>,
    /// Active-antenna id (insertion order) → index into the live
    /// transmissions, aligned with `interferer_index`.
    tx_of_antenna: Vec<usize>,
    /// Backlogged AP-local client ids (traffic-model query scratch).
    backlogged: Vec<usize>,
    /// Antennas of the AP currently planning that cleared carrier sense.
    available: Vec<usize>,
    /// Shared scratch for every spatial neighbourhood query of the round.
    neighbors: Vec<usize>,
    /// Deduped interfering-transmission ids for one stream.
    interferers: Vec<usize>,
    /// Transmission slot pool; `live` slots are current this round, the
    /// rest keep their buffers for later rounds.
    transmissions: Vec<ActiveTransmission>,
    live: usize,
    /// `(client, serving AP, capacity)` triples of the current round.
    capacities: Vec<(usize, usize, f64)>,
    /// AP ids transmitting this round (observer record scratch).
    transmitting_aps: Vec<usize>,
    /// Settle-stage scratch: served / unserved AP-local ids and the
    /// membership mask that replaces the old quadratic `contains` scan.
    served: Vec<usize>,
    unserved: Vec<usize>,
    served_mask: Vec<bool>,
    /// Per-AP global ids of the AP's own clients, in `clients_of` order —
    /// prebuilt so the round loop never re-filters the client list.
    own_clients: Vec<Vec<usize>>,
    /// Global client id → AP-local index within its owning AP.
    local_of: Vec<u32>,
    /// Dynamics-stage scratch: APs whose membership changed this step
    /// (DRR and tags rebuilt) and APs whose tag tables went stale because
    /// an own client moved (tags rebuilt).
    dirty_membership: Vec<bool>,
    dirty_tags: Vec<bool>,
    /// Flattened interfering-transmission ids of every stream this round,
    /// in stream order (gather stage output, evaluate stage input).
    stream_interferers: Vec<usize>,
    /// Per-stream end offsets into `stream_interferers`, in stream order.
    stream_bounds: Vec<usize>,
    /// `(ap, client)` channel rows the current round reads — the fading
    /// stage's active set (serving rows plus interferer rows).
    touched: Vec<(u32, u32)>,
    /// Gaussian-pair scratch of the keyed row step.
    pairs: Vec<(f64, f64)>,
    /// Stage wall-clock totals (all-zero unless profiling is enabled).
    timings: StageTimings,
}

impl RoundWorkspace {
    /// Builds the workspace for a topology: id maps prebuilt, spatial
    /// indexes constructed (empty) when the indexed scan is active.
    fn for_simulator(topo: &Topology, config: &NetworkSimConfig) -> Self {
        let mut own_clients: Vec<Vec<usize>> = vec![Vec::new(); topo.aps.len()];
        let mut local_of = vec![0u32; topo.clients.len()];
        for c in &topo.clients {
            local_of[c.id] = own_clients[c.ap_id].len() as u32;
            own_clients[c.ap_id].push(c.id);
        }
        let make_index = || {
            config
                .use_index()
                .then(|| SpatialIndex::new(topo.region, config.index_cell_m()))
        };
        RoundWorkspace {
            active_index: make_index(),
            interferer_index: make_index(),
            own_clients,
            local_of,
            ..RoundWorkspace::default()
        }
    }

    /// Bytes of heap the workspace retains (capacities, not lengths).  The
    /// precoding matrices inside the slot pool are excluded: they are
    /// replaced — not reused — every round, so their size reflects the last
    /// round's stream counts rather than retained scratch.
    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let idx =
            |i: &Option<SpatialIndex>| i.as_ref().map_or(0, SpatialIndex::heap_footprint_bytes);
        self.order.capacity() * size_of::<usize>()
            + self.active_antenna_positions.capacity() * size_of::<Point>()
            + idx(&self.active_index)
            + idx(&self.interferer_index)
            + self.tx_of_antenna.capacity() * size_of::<usize>()
            + self.backlogged.capacity() * size_of::<usize>()
            + self.available.capacity() * size_of::<usize>()
            + self.neighbors.capacity() * size_of::<usize>()
            + self.interferers.capacity() * size_of::<usize>()
            + self.transmissions.capacity() * size_of::<ActiveTransmission>()
            + self
                .transmissions
                .iter()
                .map(|t| (t.antenna_idx.capacity() + t.clients.capacity()) * size_of::<usize>())
                .sum::<usize>()
            + self.capacities.capacity() * size_of::<(usize, usize, f64)>()
            + self.transmitting_aps.capacity() * size_of::<usize>()
            + self.served.capacity() * size_of::<usize>()
            + self.unserved.capacity() * size_of::<usize>()
            + self.served_mask.capacity() * size_of::<bool>()
            + self.own_clients.capacity() * size_of::<Vec<usize>>()
            + self
                .own_clients
                .iter()
                .map(|v| v.capacity() * size_of::<usize>())
                .sum::<usize>()
            + self.local_of.capacity() * size_of::<u32>()
            + self.dirty_membership.capacity() * size_of::<bool>()
            + self.dirty_tags.capacity() * size_of::<bool>()
            + self.stream_interferers.capacity() * size_of::<usize>()
            + self.stream_bounds.capacity() * size_of::<usize>()
            + self.touched.capacity() * size_of::<(u32, u32)>()
            + self.pairs.capacity() * size_of::<(f64, f64)>()
    }
}

/// One AP's channel state, restricted to the clients in radio range.
///
/// With a finite interaction range an AP's signal is unreadable — and its
/// interference untruncated-zero — at clients beyond the cutoff, so there is
/// no reason to realise, store or evolve those rows: per-AP channel state
/// shrinks from O(all clients) to O(clients in range), which is what turns
/// the simulator's per-round cost from O(n²) into O(n·k) at enterprise
/// scale.  Rows are indexed by *global* client id through `row_of`.
///
/// Static and dynamic runs share this one row set — the clients within
/// interaction range of any of the AP's antennas, plus its own clients.
/// Under dynamics it is kept exact every step: a row is born (drawn afresh)
/// when a client comes within range or roams to the AP, and freed onto
/// `free` when the client leaves.  A freed slot carries zero gain and is
/// never read.
struct ApChannel {
    ch: ChannelMatrix,
    /// Global client id → row of `ch`; `None` when the client is out of
    /// radio range of every antenna of this AP (its channel is never read).
    row_of: Vec<Option<u32>>,
    /// Per-row next evolution boundary (round number).  A row whose entry
    /// is `b` has absorbed every keyed innovation for boundaries `< b`;
    /// lazy catch-up replays boundaries `b, b+interval, …` up to the
    /// current round before the row is read.  Starts at 0 (the initial
    /// realisation has seen no evolution).
    next_boundary: Vec<u64>,
    /// Dynamics only: per-row shadowing memo and the antenna correlation
    /// births draw through (`None` in static runs).
    cache: Option<RowCache>,
    /// Dynamics only: freed row slots, reused last-in first-out by births.
    free: Vec<u32>,
}

impl ApChannel {
    fn row(&self, client: usize) -> usize {
        self.row_of[client].expect("channel row requested for an out-of-range client") as usize
    }

    /// Mean RSSI (dBm) of a global client from AP-local antenna `k`.
    fn mean_rssi_dbm(&self, client: usize, antenna: usize) -> f64 {
        self.ch.mean_rssi_dbm(self.row(client), antenna)
    }

    /// Sub-channel over global clients × AP-local antennas.
    fn select(&self, clients: &[usize], antennas: &[usize]) -> ChannelMatrix {
        let rows: Vec<usize> = clients.iter().map(|&c| self.row(c)).collect();
        self.ch.select(&rows, antennas)
    }

    /// Replays the keyed innovations of every evolution boundary from
    /// `row`'s bookmark through `through`, leaving the row current (a no-op
    /// for a row already past `through`), and counts the work into `work`.
    #[allow(clippy::too_many_arguments)] // the row, its stream key, the step and its tally
    fn catch_up_row(
        &mut self,
        model: &ChannelModel,
        ap: usize,
        client: usize,
        row: usize,
        through: u64,
        cadence: Cadence,
        pairs: &mut Vec<(f64, f64)>,
        work: &mut FadingCounters,
    ) {
        let mut boundary = self.next_boundary[row];
        if boundary > through {
            return;
        }
        let h_row = self.ch.h.row_mut(row);
        let g_row = self.ch.large_scale.row(row);
        while boundary <= through {
            work.gaussian_pairs += model.evolve_row(
                h_row,
                g_row,
                cadence.rho,
                ap as u64,
                client as u64,
                boundary,
                pairs,
            );
            work.row_steps += 1;
            boundary += cadence.interval;
        }
        work.rows_caught_up += 1;
        self.next_boundary[row] = boundary;
    }
}

/// Fading evolution cadence: boundaries every `interval` rounds, each a
/// Gauss–Markov step of correlation `rho`.
#[derive(Clone, Copy)]
struct Cadence {
    interval: u64,
    rho: f64,
}

impl Cadence {
    fn of(model: &ChannelModel, config: &NetworkSimConfig) -> Self {
        let interval = config.coherence_interval_rounds.max(1);
        let delay_s = interval as f64 * DEFAULT_TXOP_US as f64 * 1e-6;
        Cadence {
            interval: interval as u64,
            rho: model.step_correlation(delay_s),
        }
    }

    /// The last evolution boundary at or before `round`.
    fn boundary_at(&self, round: u64) -> u64 {
        (round / self.interval) * self.interval
    }
}

/// Dynamics-only channel-row bookkeeping, built only when
/// `config.dynamics` is set: which APs each client is in range of, the
/// work counters, and the scratch the per-step row sync reuses.
struct RowDynamics {
    /// APs with an antenna within interaction range of each client; `None`
    /// at infinite range, where every client is in range of every AP and
    /// the row set never changes.
    in_range: Option<NeighborTracker>,
    /// Row work so far; its `roaming_requeries` stays 0 here (the roaming
    /// engine counts those itself).
    counters: DynamicsCounters,
    /// A client's in-range APs before its re-query.
    prev_in_range: Vec<u32>,
    /// APs whose row for the client being synced may be born or freed.
    affected: Vec<u32>,
    /// One AP's own-client RSSI rows, flat (tag rebuild input).
    rssi: Vec<f64>,
}

impl RowDynamics {
    fn new(topo: &Topology, interaction_range_m: f64) -> Self {
        let in_range = interaction_range_m.is_finite().then(|| {
            let mut antennas = Vec::new();
            let mut owner = Vec::new();
            for ap in &topo.aps {
                for &a in &ap.antennas {
                    antennas.push(a);
                    owner.push(ap.ap_id as u32);
                }
            }
            let clients: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
            NeighborTracker::new(
                topo.region,
                &antennas,
                &owner,
                interaction_range_m,
                &clients,
            )
        });
        RowDynamics {
            in_range,
            counters: DynamicsCounters::default(),
            prev_in_range: Vec::new(),
            affected: Vec::new(),
            rssi: Vec::new(),
        }
    }

    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.in_range
            .as_ref()
            .map_or(0, NeighborTracker::heap_footprint_bytes)
            + (self.prev_in_range.capacity() + self.affected.capacity()) * size_of::<u32>()
            + self.rssi.capacity() * size_of::<f64>()
    }

    /// Brings client `c`'s rows up to date after a step in which it moved
    /// and/or roamed from `old_own` to its current AP.
    ///
    /// 1. A moved client's surviving rows are rescaled to its new position
    ///    through the shadowing memo (a lagging row first replays the
    ///    boundaries before `round`, counted into `work`, so lazy
    ///    evolution stays bit-identical to eager).
    /// 2. Rows are born at APs the client joined — came into range of, or
    ///    roamed to — and freed at APs it left, in ascending AP order.
    #[allow(clippy::too_many_arguments)] // the client, its step and the state it syncs
    fn sync_client(
        &mut self,
        c: usize,
        moved: bool,
        old_own: usize,
        round: usize,
        topo: &Topology,
        channels: &mut [ApChannel],
        model: &ChannelModel,
        cadence: Cadence,
        pairs: &mut Vec<(f64, f64)>,
        work: &mut FadingCounters,
    ) {
        let p = topo.clients[c].position;
        let own = topo.clients[c].ap_id;
        let mut requeried = false;
        if let Some(tracker) = self.in_range.as_mut() {
            if moved && !tracker.is_settled(c, &p) {
                self.prev_in_range.clear();
                self.prev_in_range.extend_from_slice(tracker.groups(c));
                tracker.requery(c, p);
                self.counters.membership_requeries += 1;
                requeried = true;
            }
        }

        if moved {
            let num_aps = channels.len();
            let mut refresh = |ap: usize| {
                let apch = &mut channels[ap];
                let Some(row) = apch.row_of[c] else {
                    return; // born below, at the new position
                };
                let row = row as usize;
                // Eager rows have absorbed every boundary before this round;
                // a lazily skipped row must too before its gain changes
                // under it.
                let through = cadence.boundary_at(round as u64 - 1);
                apch.catch_up_row(model, ap, c, row, through, cadence, pairs, work);
                let cache = apch.cache.as_mut().expect("dynamic runs keep a row cache");
                let redrawn =
                    model.refresh_row_cached(&mut apch.ch, cache, row, &topo.aps[ap].antennas, &p);
                self.counters.rows_refreshed += 1;
                self.counters.shadow_redraws += usize::from(redrawn);
            };
            match &self.in_range {
                Some(tracker) => {
                    let groups = tracker.groups(c);
                    for &ap in groups {
                        refresh(ap as usize);
                    }
                    if groups.binary_search(&(own as u32)).is_err() {
                        refresh(own);
                    }
                }
                None => (0..num_aps).for_each(&mut refresh),
            }
        }

        // Membership changes only through a re-query or a handoff, and
        // never at infinite range (every client is in range of every AP).
        let Some(tracker) = self.in_range.as_ref() else {
            return;
        };
        if !requeried && old_own == own {
            return;
        }
        let groups = tracker.groups(c);
        self.affected.clear();
        if requeried {
            self.affected.extend_from_slice(&self.prev_in_range);
        }
        self.affected.extend_from_slice(groups);
        self.affected.push(old_own as u32);
        self.affected.push(own as u32);
        self.affected.sort_unstable();
        self.affected.dedup();
        for &ap in &self.affected {
            let ap = ap as usize;
            let apch = &mut channels[ap];
            let want = ap == own || groups.binary_search(&(ap as u32)).is_ok();
            match (apch.row_of[c], want) {
                (Some(row), false) => {
                    apch.ch.zero_row(row as usize);
                    apch.free.push(row);
                    apch.row_of[c] = None;
                    self.counters.rows_freed += 1;
                }
                (None, true) => {
                    let row = apch
                        .free
                        .pop()
                        .map_or(apch.ch.num_clients(), |r| r as usize);
                    let cache = apch.cache.as_mut().expect("dynamic runs keep a row cache");
                    model.birth_row(
                        &mut apch.ch,
                        cache,
                        row,
                        &topo.aps[ap].antennas,
                        &p,
                        ap as u64,
                        c as u64,
                        round as u64,
                    );
                    // A born row is a stationary draw for this round: it has
                    // nothing to catch up until the next boundary.
                    let current = cadence.boundary_at(round as u64) + cadence.interval;
                    if row == apch.next_boundary.len() {
                        apch.next_boundary.push(current);
                    } else {
                        apch.next_boundary[row] = current;
                    }
                    apch.row_of[c] = Some(row as u32);
                    self.counters.rows_born += 1;
                }
                _ => {}
            }
        }
    }
}

/// The end-to-end network simulator bound to one topology.
pub struct NetworkSimulator {
    topo: Topology,
    config: NetworkSimConfig,
    model: ChannelModel,
    graph: ContentionGraph,
    rng: SimRng,
    /// Per-AP channel to the clients within radio range (all clients when
    /// the interaction range is infinite).
    channels: Vec<ApChannel>,
    /// Per-AP fairness state over the AP's own clients (AP-local indices).
    drr: Vec<DrrScheduler>,
    /// Per-AP tag tables over the AP's own clients (AP-local indices).
    tags: Vec<TagTable>,
    /// Downlink workload: which clients are backlogged each round.
    /// Defaults to [`TrafficKind::FullBuffer`], which reproduces the
    /// pre-traffic-model simulator byte for byte.
    traffic: TrafficState,
    /// The precoder every AP runs, constructed once at build time — the
    /// round loop used to re-box one per AP per round.
    precoder: Box<dyn Precoder + Send + Sync>,
    /// All per-round scratch, reused across rounds (and runs).
    workspace: RoundWorkspace,
    /// Test knob: rebuild `workspace` from scratch every round, to prove
    /// reuse is observationally free (see `proptest_workspace.rs`).
    fresh_workspace_per_round: bool,
    /// Test knob: evolve *every* in-range row every round instead of only
    /// the rows the round reads.  Lazy evolution must be — and is pinned by
    /// `proptest_fading.rs` to be — bit-identical to this eager reference.
    eager_counter_evolve: bool,
    /// Keyed evolution work so far (always on).
    fading_work: FadingCounters,
    /// Collect per-stage wall-clock into the workspace's [`StageTimings`].
    profile_stages: bool,
    /// Long-horizon dynamics runtime state; `Some` iff
    /// `config.dynamics.is_some()`.
    dynamics: Option<DynamicsState>,
    /// Channel-row bookkeeping of the dynamics stage; `Some` iff
    /// `config.dynamics.is_some()`.
    rows: Option<RowDynamics>,
}

impl NetworkSimulator {
    /// Creates a simulator for a topology.
    pub fn new(topo: Topology, config: NetworkSimConfig) -> Self {
        let mut model = ChannelModel::new(config.env, config.seed);
        // For `ContentionModel::Graph` this is exactly the legacy
        // `ContentionGraph::new(env, seed ^ 0x5151)`; the physical model
        // swaps in its own threshold / sensing field here and nothing else
        // in the planning path changes.
        let graph = config
            .contention
            .sensing_graph(config.env, config.seed ^ 0x5151);
        let rng = SimRng::new(config.seed).fork(0xAC);

        let num_clients = topo.clients.len();
        let cutoff = config.interaction_range_m;
        let dynamic = config.dynamics.is_some();
        let client_index = cutoff.is_finite().then(|| {
            SpatialIndex::from_points(
                topo.region,
                config.index_cell_m(),
                &topo.clients.iter().map(|c| c.position).collect::<Vec<_>>(),
            )
        });
        let channels: Vec<ApChannel> = topo
            .aps
            .iter()
            .map(|ap| {
                // Rows: every client within the interaction range of any of
                // this AP's antennas (their signal/interference is exactly
                // zero beyond it), plus the AP's own clients so scheduling
                // state is always defined.
                let mut visible: Vec<usize> = if let Some(index) = &client_index {
                    let mut v: Vec<usize> = ap
                        .antennas
                        .iter()
                        .flat_map(|a| index.neighbors_within(a, cutoff))
                        .collect();
                    v.extend(
                        topo.clients
                            .iter()
                            .filter(|c| c.ap_id == ap.ap_id)
                            .map(|c| c.id),
                    );
                    v.sort_unstable();
                    v.dedup();
                    v
                } else {
                    (0..num_clients).collect()
                };
                visible.shrink_to_fit();
                let positions: Vec<Point> =
                    visible.iter().map(|&c| topo.clients[c].position).collect();
                // Same draws either way; a dynamic run also keeps the
                // shadowing memo its refreshes and births go through.
                let (ch, cache) = if dynamic {
                    let (ch, cache) = model.realize_positions_cached(&ap.antennas, &positions);
                    (ch, Some(cache))
                } else {
                    (model.realize_positions(&ap.antennas, &positions), None)
                };
                let mut row_of = vec![None; num_clients];
                for (row, &c) in visible.iter().enumerate() {
                    row_of[c] = Some(row as u32);
                }
                let next_boundary = vec![0; visible.len()];
                ApChannel {
                    ch,
                    row_of,
                    next_boundary,
                    cache,
                    free: Vec::new(),
                }
            })
            .collect();

        let mut drr = Vec::new();
        let mut tags = Vec::new();
        for ap in &topo.aps {
            let own_clients = topo.clients_of(ap.ap_id);
            drr.push(DrrScheduler::new(own_clients.len()));
            // Tagging is driven by mean RSSI of each own client from each antenna.
            let rssi: Vec<Vec<f64>> = own_clients
                .iter()
                .map(|c| {
                    (0..ap.num_antennas())
                        .map(|k| channels[ap.ap_id].mean_rssi_dbm(c.id, k))
                        .collect()
                })
                .collect();
            tags.push(TagTable::from_rssi(&rssi, config.tag_width));
        }

        let workspace = RoundWorkspace::for_simulator(&topo, &config);
        let dynamics = config
            .dynamics
            .map(|spec| DynamicsState::new(&spec, &topo, &config.env, config.seed));
        let rows = dynamic.then(|| RowDynamics::new(&topo, cutoff));
        NetworkSimulator {
            topo,
            config,
            model,
            graph,
            rng,
            channels,
            drr,
            tags,
            traffic: TrafficState::new(TrafficKind::FullBuffer, config.seed),
            precoder: make_precoder(config.precoder),
            workspace,
            fresh_workspace_per_round: false,
            eager_counter_evolve: false,
            fading_work: FadingCounters::default(),
            profile_stages: false,
            dynamics,
            rows,
        }
    }

    /// Test knob: discard and rebuild the round workspace every round
    /// instead of reusing it.  Results must be — and are pinned by property
    /// tests to be — bit-identical either way; this exists only so that
    /// equivalence is checkable.
    // lint: allow(unreachable-pub) — proptest_workspace checks the reused workspace against a fresh one
    pub fn with_fresh_workspace_per_round(mut self) -> Self {
        self.fresh_workspace_per_round = true;
        self
    }

    /// Bytes of heap currently retained by the per-round workspace
    /// (capacities, not lengths).  Once the simulation is warm this stops
    /// growing: steady-state rounds allocate nothing from the workspace.
    pub fn workspace_heap_footprint_bytes(&self) -> usize {
        self.workspace.heap_footprint_bytes()
    }

    /// Test knob: evolve every in-range channel row every round instead of
    /// only the rows the round reads.  Results must be — and are pinned by
    /// property tests to be — bit-identical to the default lazy evolution;
    /// this exists only so that equivalence (and the work lazy evolution
    /// saves, see [`fading_counters`](Self::fading_counters)) is checkable.
    // lint: allow(unreachable-pub) — proptest_fading and dynamic_rows check lazy evolution against it
    pub fn with_eager_counter_evolve(mut self) -> Self {
        self.eager_counter_evolve = true;
        self
    }

    /// Work counters of keyed fading evolution so far — rows caught up,
    /// row steps and Gaussian pairs drawn, dynamics-stage replays
    /// included.  Deterministic in the seed.
    pub fn fading_counters(&self) -> FadingCounters {
        self.fading_work
    }

    /// Enables per-stage wall-clock accumulation into [`StageTimings`]
    /// (read back via [`NetworkSimulator::stage_timings`], streamed to
    /// observers via [`Observer::on_finish`]).  Off by default so the hot
    /// path never reads a clock.
    pub fn with_stage_profiling(mut self) -> Self {
        self.profile_stages = true;
        self
    }

    /// Stage wall-clock totals accumulated so far (all-zero unless
    /// [`with_stage_profiling`](Self::with_stage_profiling) was used).
    pub fn stage_timings(&self) -> StageTimings {
        self.workspace.timings
    }

    /// Replaces the workload (default: [`TrafficKind::FullBuffer`]) with
    /// `kind`, seeded from this simulation's seed.  Consumes and returns the
    /// simulator so it composes with construction.
    pub fn with_traffic_kind(mut self, kind: TrafficKind) -> Self {
        self.traffic = TrafficState::new(kind, self.config.seed);
        self
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Runs the configured number of rounds and returns the aggregate result.
    ///
    /// Equivalent to streaming into an [`Accumulate`] observer — which is
    /// exactly what it does, so results are bit-identical to the historical
    /// accumulate-in-place loop.  For memory-bounded long-horizon runs,
    /// stream into a fixed-size observer via [`NetworkSimulator::run_with`]
    /// instead.
    pub fn run(&mut self) -> TopologyResult {
        let mut acc = Accumulate::new();
        self.run_with(&mut acc);
        acc.into_result()
    }

    /// Runs the configured number of rounds, streaming each round into
    /// `observer` instead of accumulating anything — peak memory is the
    /// observer's, flat in the round count for fixed-size observers.
    ///
    /// Each round is an explicit staged pipeline —
    /// `dynamics → backlog → sense → select → gather → fading → precode →
    /// evaluate → settle` — threaded through the simulator's round
    /// workspace: `dynamics_stage` moves and roams clients (dynamic runs
    /// only), `plan_stage` covers backlog through client selection,
    /// `gather_stage` records each stream's interferers, `fading_stage`
    /// lazily catches up exactly the channel rows the round reads,
    /// `precode_stage` computes the precoding matrices, `evaluate_stage`
    /// computes deliveries, and `settle_stage` updates fairness and queues.
    pub fn run_with(&mut self, observer: &mut dyn Observer) {
        observer.on_start(
            self.topo.clients.len(),
            self.topo.aps.len(),
            self.config.rounds,
        );
        // The workspace leaves `self` for the duration of the run so the
        // stages can borrow simulator state and scratch independently.
        let mut ws = std::mem::take(&mut self.workspace);
        if ws.own_clients.len() != self.topo.aps.len() {
            // Defensive: a default-constructed workspace (nothing prebuilt)
            // can only appear if a previous run panicked mid-flight.
            ws = RoundWorkspace::for_simulator(&self.topo, &self.config);
        }
        for round in 0..self.config.rounds {
            if self.fresh_workspace_per_round {
                let carried = ws.timings;
                ws = RoundWorkspace::for_simulator(&self.topo, &self.config);
                ws.timings = carried;
            }
            let t = tick(self.profile_stages);
            self.dynamics_stage(round, &mut ws);
            ws.timings.dynamics_s += secs_since(t);

            self.plan_stage(round, &mut ws);

            // The gather half of evaluation runs before precoding so the
            // fading stage knows every channel row the round will read
            // (serving rows and interferer rows alike) and can catch
            // exactly those up; it reads only positions.
            let t = tick(self.profile_stages);
            self.gather_stage(&mut ws);
            ws.timings.evaluate_s += secs_since(t);

            let t = tick(self.profile_stages);
            self.fading_stage(round, &mut ws);
            ws.timings.evolve_s += secs_since(t);

            let t = tick(self.profile_stages);
            self.precode_stage(&mut ws);
            ws.timings.precode_s += secs_since(t);

            let t = tick(self.profile_stages);
            self.evaluate_stage(&mut ws);
            ws.timings.evaluate_s += secs_since(t);

            ws.transmitting_aps.clear();
            ws.transmitting_aps
                .extend(ws.transmissions[..ws.live].iter().map(|t| t.ap_id));
            let total_streams: usize = ws.transmissions[..ws.live]
                .iter()
                .map(|t| t.clients.len())
                .sum();
            observer.on_round(&RoundRecord {
                round,
                deliveries: &ws.capacities,
                transmitting_aps: &ws.transmitting_aps,
                streams: total_streams,
            });
            // Cooperative cancellation at round granularity: an observer
            // (e.g. a deadline probe) can stop the run between rounds.
            // Observers that keep the default `false` see no change.
            if observer.stop_requested() {
                break;
            }

            let t = tick(self.profile_stages);
            self.settle_stage(&mut ws);
            ws.timings.settle_s += secs_since(t);
            if self.profile_stages {
                ws.timings.rounds += 1;
            }
        }
        observer.on_finish(&ws.timings);
        self.workspace = ws;
    }

    /// Pipeline stage 0 — dynamics: client mobility, large-scale channel
    /// refresh, roaming, and the MAC-state rebuilds those trigger.  A
    /// no-op (and never installed) when `config.dynamics` is `None`, so
    /// static runs are byte-identical to the pre-dynamics simulator.
    ///
    /// Per step (every `period_rounds`, never at round 0):
    /// 1. Mobility moves the mobile clients ([`DynamicsState::step_mobility`])
    ///    and roaming re-associates them with hysteresis
    ///    ([`DynamicsState::step_roaming`]).
    /// 2. Every AP's channel rows are brought back to the exact static row
    ///    set (`RowDynamics::sync_client`, only for clients that moved or
    ///    roamed): surviving rows are rescaled to the new position through
    ///    the shadowing memo ([`ChannelModel::refresh_row_cached`],
    ///    bit-identical to [`ChannelModel::refresh_large_scale_row`]), rows
    ///    are born where a client came into range or roamed to
    ///    ([`ChannelModel::birth_row`], keyed draws) and freed where it
    ///    left.  No sequential RNG is consumed, so the static pipeline's
    ///    draw order is untouched.
    /// 3. The MAC-facing views are repaired: the workspace's ownership maps
    ///    are rebuilt when any client handed off, DRR restarts for APs whose
    ///    membership changed (a handoff is a fresh association), and tag
    ///    tables are rebuilt in place for any AP whose own-client RSSI
    ///    picture moved.
    ///
    /// [`ChannelModel::refresh_row_cached`]: midas_channel::ChannelModel::refresh_row_cached
    /// [`ChannelModel::refresh_large_scale_row`]: midas_channel::ChannelModel::refresh_large_scale_row
    /// [`ChannelModel::birth_row`]: midas_channel::ChannelModel::birth_row
    // lint: no_alloc — steady-state stage: rows, tags and DRR are rebuilt in retained buffers
    fn dynamics_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let Some(spec) = self.config.dynamics else {
            return;
        };
        let (Some(state), Some(rows)) = (self.dynamics.as_mut(), self.rows.as_mut()) else {
            return;
        };
        let period = spec.period_rounds.max(1);
        if round == 0 || !round.is_multiple_of(period) {
            return;
        }

        // 1. Move and roam.
        state.step_mobility(&spec, &mut self.topo);
        state.step_roaming(&spec, &mut self.topo, &self.config.env);

        // 2. Sync the rows of every client that moved or roamed, in
        //    ascending id order (births claim free slots in that order).
        let cadence = Cadence::of(&self.model, &self.config);
        let moved = state.moved();
        let mut next_moved = 0;
        for c in 0..self.topo.clients.len() {
            let is_moved = moved.get(next_moved) == Some(&c);
            next_moved += usize::from(is_moved);
            let old_own = state.previous_ap(c);
            if !is_moved && old_own == self.topo.clients[c].ap_id {
                continue;
            }
            rows.sync_client(
                c,
                is_moved,
                old_own,
                round,
                &self.topo,
                &mut self.channels,
                &self.model,
                cadence,
                &mut ws.pairs,
                &mut self.fading_work,
            );
        }

        // 3. Repair the MAC-facing views of whatever changed.
        let num_aps = self.topo.aps.len();
        ws.dirty_membership.clear();
        ws.dirty_membership.resize(num_aps, false);
        ws.dirty_tags.clear();
        ws.dirty_tags.resize(num_aps, false);
        let mut any_handoff = false;
        for cid in state.handed_off(&self.topo) {
            ws.dirty_membership[state.previous_ap(cid)] = true;
            ws.dirty_membership[self.topo.clients[cid].ap_id] = true;
            any_handoff = true;
        }
        for &cid in state.moved() {
            ws.dirty_tags[self.topo.clients[cid].ap_id] = true;
        }
        if any_handoff {
            for v in &mut ws.own_clients {
                v.clear();
            }
            for c in &self.topo.clients {
                ws.local_of[c.id] = ws.own_clients[c.ap_id].len() as u32;
                ws.own_clients[c.ap_id].push(c.id);
            }
        }
        for ap_id in 0..num_aps {
            let membership = ws.dirty_membership[ap_id];
            if membership {
                self.drr[ap_id].restart(ws.own_clients[ap_id].len());
            }
            if membership || ws.dirty_tags[ap_id] {
                let antennas = self.topo.aps[ap_id].num_antennas();
                let ch = &self.channels[ap_id];
                let own = &ws.own_clients[ap_id];
                rows.rssi.clear();
                for &c in own {
                    rows.rssi
                        .extend((0..antennas).map(|k| ch.mean_rssi_dbm(c, k)));
                }
                let rssi = &rows.rssi;
                self.tags[ap_id].rebuild(
                    (0..own.len()).map(|i| &rssi[i * antennas..(i + 1) * antennas]),
                    self.config.tag_width,
                );
            }
        }
    }

    /// `(total client moves, total handoffs)` performed by the dynamics
    /// layer so far; `None` when dynamics are off.
    pub fn dynamics_stats(&self) -> Option<(usize, usize)> {
        self.dynamics
            .as_ref()
            .map(|d| (d.moves_total(), d.handoffs_total()))
    }

    /// Work counters of the dynamics stage so far — rows born, freed and
    /// refreshed, shadowing redraws, membership and roaming re-queries;
    /// `None` when dynamics are off.  Deterministic in the seed.
    pub fn dynamics_counters(&self) -> Option<DynamicsCounters> {
        let (rows, state) = (self.rows.as_ref()?, self.dynamics.as_ref()?);
        Some(DynamicsCounters {
            roaming_requeries: state.roaming_requeries(),
            ..rows.counters
        })
    }

    /// Clients holding a channel row at AP `ap`, ascending — the row set
    /// the simulator maintains (clients within interaction range of any of
    /// the AP's antennas, plus its own clients).
    // lint: allow(unreachable-pub) — proptest_fading, dynamic_rows and long_horizon check the row set with it
    pub fn channel_rows(&self, ap: usize) -> impl Iterator<Item = usize> + '_ {
        self.channels[ap]
            .row_of
            .iter()
            .enumerate()
            .filter_map(|(client, row)| row.map(|_| client))
    }

    /// Channel-row slots allocated over all APs, free slots included: the
    /// row capacity a dynamic run has grown to.
    // lint: allow(unreachable-pub) — long_horizon checks that row capacity stops growing with it
    pub fn channel_row_slots(&self) -> usize {
        self.channels.iter().map(|c| c.ch.num_clients()).sum()
    }

    /// Bytes of heap the dynamics layer retains (0 when dynamics are off):
    /// mobility and roaming state, the row-membership tracker, the per-row
    /// shadowing memos and the free-slot lists.  Stable once warm, which
    /// the long-horizon footprint tests pin.
    pub fn dynamics_heap_footprint_bytes(&self) -> usize {
        let Some(rows) = self.rows.as_ref() else {
            return 0;
        };
        let per_ap: usize = self
            .channels
            .iter()
            .map(|c| {
                c.cache.as_ref().map_or(0, RowCache::heap_footprint_bytes)
                    + c.free.capacity() * std::mem::size_of::<u32>()
            })
            .sum();
        self.dynamics
            .as_ref()
            .map_or(0, DynamicsState::heap_footprint_bytes)
            + rows.heap_footprint_bytes()
            + per_ap
    }

    /// Pipeline stages 1–3 — backlog, sense, select: decides who transmits
    /// this round, filling the workspace's transmission slots with the
    /// chosen clients and antennas.  Precoding happens in a later stage
    /// ([`precode_stage`](Self::precode_stage)) so the fading stage can
    /// bring the selected rows up to date in between; sensing and
    /// selection never read small-scale fading (tags and DRR run on
    /// large-scale RSSI).
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn plan_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let num_aps = self.topo.aps.len();
        let cutoff = self.config.interaction_range_m;
        let profile = self.profile_stages;
        let plan_start = tick(profile);
        let mut sense_s = 0.0;

        // Split the workspace into per-field borrows so the sensing closure
        // (reading active antennas) and the slot writes (mutating buffers)
        // coexist without aliasing.
        let RoundWorkspace {
            order,
            active_antenna_positions,
            active_index,
            backlogged,
            available,
            neighbors,
            transmissions,
            live,
            own_clients,
            timings,
            ..
        } = ws;

        order.clear();
        order.extend(0..num_aps);
        self.rng.shuffle(order);

        active_antenna_positions.clear();
        if let Some(index) = active_index.as_mut() {
            index.clear();
        }
        *live = 0;

        for &ap_id in order.iter() {
            let ap = &self.topo.aps[ap_id];
            let own = &own_clients[ap_id];
            if own.is_empty() {
                continue;
            }
            // Backlog: which of this AP's clients have downlink data this
            // round?  Full-buffer answers "all of them" without touching any
            // RNG, so the legacy figures are unchanged; lighter workloads
            // thin the candidate set (an AP with nothing queued stays
            // silent).
            self.traffic
                .backlogged_into(ap_id, own.len(), round, backlogged);
            if backlogged.is_empty() {
                continue;
            }

            // Sense: energy-detection carrier sensing against the
            // transmitters already on the air, truncated at the interaction
            // range.  The contention model only changes which graph
            // (threshold / sensing field) `self.graph` was built from — the
            // sensing arithmetic is shared, so both models and both scan
            // modes visit the surviving antennas in the same order.
            let graph = &self.graph;
            let positions = &*active_antenna_positions;
            let index_ref = active_index.as_ref();
            let senses = |antenna: &Point, scratch: &mut Vec<usize>| -> bool {
                match index_ref {
                    None => graph.senses_any_within(antenna, positions, cutoff),
                    Some(index) => {
                        index.neighbors_within_into(antenna, cutoff, scratch);
                        graph.senses_aggregate(antenna, scratch.iter().map(|&id| &positions[id]))
                    }
                }
            };

            // Which antennas may transmit given what is already on the air?
            let t_sense = tick(profile);
            available.clear();
            match self.config.mac {
                MacKind::Midas => available.extend(
                    (0..ap.num_antennas()).filter(|&k| !senses(&ap.antennas[k], neighbors)),
                ),
                MacKind::Cas => {
                    let busy = ap.antennas.iter().any(|a| senses(a, neighbors));
                    if !busy {
                        available.extend(0..ap.num_antennas());
                    }
                }
            }
            sense_s += secs_since(t_sense);
            if available.is_empty() {
                continue;
            }

            // Select.
            let local_selected: Vec<usize> = match self.config.mac {
                MacKind::Midas => {
                    let eligible = self.tags[ap_id].filter_clients(backlogged, available);
                    select_clients_midas(available, &eligible, &self.tags[ap_id], &self.drr[ap_id])
                }
                MacKind::Cas => select_clients_cas(available.len(), backlogged, &self.drr[ap_id]),
            };
            if local_selected.is_empty() {
                continue;
            }

            // Claim a transmission slot (buffers retained from prior rounds);
            // its stale precoding matrix is overwritten by the precode stage.
            if transmissions.len() == *live {
                transmissions.push(ActiveTransmission::empty());
            }
            let slot = &mut transmissions[*live];
            slot.ap_id = ap_id;
            slot.clients.clear();
            slot.clients.extend(local_selected.iter().map(|&l| own[l]));
            slot.antenna_idx.clear();
            slot.antenna_idx.extend_from_slice(available);

            for &k in slot.antenna_idx.iter() {
                active_antenna_positions.push(ap.antennas[k]);
                if let Some(index) = active_index.as_mut() {
                    index.insert(ap.antennas[k]);
                }
            }
            *live += 1;
        }

        if profile {
            timings.sense_s += sense_s;
            timings.select_s += secs_since(plan_start) - sense_s;
        }
    }

    /// Pipeline stage 4 — gather: discovers each stream's interfering
    /// transmissions (position-only neighbourhood queries) and stores them
    /// in the workspace for the evaluate stage to replay.
    ///
    /// Hoisted out of evaluation so the full set of channel rows the round
    /// reads — serving rows *and* interferer rows — is known before any
    /// fading value is consumed; that set is exactly what lazy evolution
    /// catches up.  A concurrent transmission only
    /// interferes with a client when at least one of its transmitting
    /// antennas is within the interaction range; both scan modes apply that
    /// rule and visit interferers in transmission order, so the stored
    /// lists are bit-identical between them.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn gather_stage(&self, ws: &mut RoundWorkspace) {
        let cutoff = self.config.interaction_range_m;
        let RoundWorkspace {
            interferer_index,
            tx_of_antenna,
            neighbors,
            interferers,
            transmissions,
            live,
            stream_interferers,
            stream_bounds,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        // Map every active antenna back to its transmission for the indexed
        // interferer lookup.
        if self.config.use_index() {
            let index = interferer_index.get_or_insert_with(|| {
                SpatialIndex::new(self.topo.region, self.config.index_cell_m())
            });
            index.clear();
            tx_of_antenna.clear();
            for (tx_idx, t) in transmissions.iter().enumerate() {
                for &k in &t.antenna_idx {
                    index.insert(self.topo.aps[t.ap_id].antennas[k]);
                    tx_of_antenna.push(tx_idx);
                }
            }
        }

        stream_interferers.clear();
        stream_bounds.clear();
        for t in transmissions.iter() {
            for &client in t.clients.iter() {
                let client_pos = &self.topo.clients[client].position;
                interferers.clear();
                match interferer_index {
                    Some(index) => {
                        index.neighbors_within_into(client_pos, cutoff, neighbors);
                        interferers.extend(
                            neighbors
                                .iter()
                                .map(|&antenna_id| tx_of_antenna[antenna_id]),
                        );
                        interferers.dedup(); // antenna ids are sorted, so tx ids are too
                    }
                    None => interferers.extend((0..transmissions.len()).filter(|&o| {
                        transmissions[o].antenna_idx.iter().any(|&k| {
                            self.topo.aps[transmissions[o].ap_id].antennas[k].distance(client_pos)
                                <= cutoff
                        })
                    })),
                }
                stream_interferers.extend_from_slice(interferers);
                stream_bounds.push(stream_interferers.len());
            }
        }
    }

    /// Pipeline stage 5 — fading: brings exactly the channel rows this
    /// round reads up to the current evolution boundary.
    ///
    /// The active set is the union of each live slot's serving rows and
    /// each stream's interferer rows (from the gather stage): those — and
    /// only those — feed the precode and evaluate stages.  Rows not in the
    /// set are left behind; their `next_boundary` bookmark lets a later
    /// round replay the identical keyed innovations they skipped, boundary
    /// by boundary, so lazy evolution is bit-identical to eager (pinned by
    /// `proptest_fading.rs`).
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn fading_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let cadence = Cadence::of(&self.model, &self.config);
        // The last evolution boundary at or before this round; every row
        // read this round must have absorbed the innovations keyed by
        // boundaries 0, interval, …, current_boundary (channels evolve on
        // rounds divisible by the interval).
        let current_boundary = cadence.boundary_at(round as u64);

        let RoundWorkspace {
            transmissions,
            live,
            stream_interferers,
            stream_bounds,
            touched,
            pairs,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        touched.clear();
        if self.eager_counter_evolve {
            // Test reference: every in-range row of every AP, every round.
            for (ap_id, apch) in self.channels.iter().enumerate() {
                for (client, row) in apch.row_of.iter().enumerate() {
                    if row.is_some() {
                        touched.push((ap_id as u32, client as u32));
                    }
                }
            }
        } else {
            // Serving rows: read by precode and by the evaluate stage's
            // signal/intra-interference terms.
            for t in transmissions.iter() {
                for &client in t.clients.iter() {
                    touched.push((t.ap_id as u32, client as u32));
                }
            }
            // Interferer rows: each served client's row in every other
            // transmission within radio range of it.
            let mut stream_no = 0;
            for (tx_idx, t) in transmissions.iter().enumerate() {
                for &client in t.clients.iter() {
                    let lo = if stream_no == 0 {
                        0
                    } else {
                        stream_bounds[stream_no - 1]
                    };
                    let hi = stream_bounds[stream_no];
                    stream_no += 1;
                    for &o in &stream_interferers[lo..hi] {
                        if o != tx_idx {
                            touched.push((transmissions[o].ap_id as u32, client as u32));
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        for &(ap, client) in touched.iter() {
            let apch = &mut self.channels[ap as usize];
            let row = apch.row_of[client as usize].expect("touched row must be in range of its AP")
                as usize;
            apch.catch_up_row(
                &self.model,
                ap as usize,
                client as usize,
                row,
                current_boundary,
                cadence,
                pairs,
                &mut self.fading_work,
            );
        }
    }

    /// Pipeline stage 6 — precode: computes each live slot's precoding
    /// matrix over the (selected clients × available antennas) channel.
    /// Runs after the fading stage so it reads the current round's channel
    /// state; the precoder is pure (no RNG).
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn precode_stage(&self, ws: &mut RoundWorkspace) {
        let RoundWorkspace {
            transmissions,
            live,
            ..
        } = ws;
        for slot in &mut transmissions[..*live] {
            let sub = self.channels[slot.ap_id].select(&slot.clients, &slot.antenna_idx);
            let precoding = self.precoder.precode(&sub.h, sub.tx_power_mw, sub.noise_mw);
            slot.v = precoding.v;
        }
    }

    /// Pipeline stage 7 — evaluate: computes per-client capacities including
    /// cross-AP interference, filling `ws.capacities` with
    /// `(client, serving AP, capacity)` triples.  Interferers come from the
    /// lists the gather stage stored, replayed in stream order.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn evaluate_stage(&self, ws: &mut RoundWorkspace) {
        let RoundWorkspace {
            transmissions,
            live,
            capacities,
            stream_interferers,
            stream_bounds,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        capacities.clear();
        let mut stream_no = 0;
        for (tx_idx, t) in transmissions.iter().enumerate() {
            let ch = &self.channels[t.ap_id];
            for (stream_idx, &client) in t.clients.iter().enumerate() {
                // The client's channel row towards every antenna of the
                // serving AP, hoisted once per stream instead of one
                // row-lookup per (antenna, stream) pair.
                let h_row = ch.ch.h.row(ch.row(client));
                // Desired + intra-AP interference from this transmission.
                // Intra-AP leakage is tracked separately from cross-AP
                // interference: the serving AP's precoder knows about the
                // former, so only the former enters the *expected* SINR the
                // physical model's rate adaptation sees.
                let mut signal = 0.0;
                let mut intra_interference = 0.0;
                for (other_stream, _) in t.clients.iter().enumerate() {
                    let mut amp = Complex::ZERO;
                    for (row, &k) in t.antenna_idx.iter().enumerate() {
                        amp += h_row[k] * t.v.get(row, other_stream);
                    }
                    if other_stream == stream_idx {
                        signal = amp.norm_sqr();
                    } else {
                        intra_interference += amp.norm_sqr();
                    }
                }
                let mut interference = intra_interference;
                // Cross-AP interference from the concurrent transmissions in
                // radio range of this client, in transmission order.
                let lo = if stream_no == 0 {
                    0
                } else {
                    stream_bounds[stream_no - 1]
                };
                let hi = stream_bounds[stream_no];
                stream_no += 1;
                for &o in &stream_interferers[lo..hi] {
                    if o == tx_idx {
                        continue;
                    }
                    let other = &transmissions[o];
                    let och = &self.channels[other.ap_id];
                    let oh_row = och.ch.h.row(och.row(client));
                    for other_stream in 0..other.clients.len() {
                        let mut amp = Complex::ZERO;
                        for (row, &k) in other.antenna_idx.iter().enumerate() {
                            amp += oh_row[k] * other.v.get(row, other_stream);
                        }
                        interference += amp.norm_sqr();
                    }
                }
                let noise = ch.ch.noise_mw;
                let sinr = signal / (noise + interference);
                // Graph model: every transmitted stream earns its Shannon
                // capacity.  Physical model: the serving AP's rate
                // adaptation picked an MCS from the SINR its precoding
                // predicts (intra-AP only — it cannot foresee who else won
                // the round), and the receiver only captures the frame when
                // the realized SINR still clears that MCS's threshold;
                // otherwise the collision costs the whole frame.
                let capacity = match self.config.contention.physical() {
                    Some(p) => {
                        let expected = signal / (noise + intra_interference);
                        if p.frame_captured_linear(expected, sinr) {
                            shannon_capacity_bps_hz(sinr)
                        } else {
                            0.0
                        }
                    }
                    None => shannon_capacity_bps_hz(sinr),
                };
                capacities.push((client, t.ap_id, capacity));
            }
        }
    }

    /// Pipeline stage 8 — settle: per-AP fairness (DRR) and traffic-queue
    /// bookkeeping for the round that just ran.
    ///
    /// Served clients are mapped from global ids back to AP-local ids through
    /// the workspace's prebuilt `local_of` table, and the unserved complement
    /// is read off a reusable bitmask — O(clients) instead of the former
    /// O(clients²) `contains` sweep.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn settle_stage(&mut self, ws: &mut RoundWorkspace) {
        for t in &ws.transmissions[..ws.live] {
            let n_local = ws.own_clients[t.ap_id].len();
            ws.served.clear();
            ws.served
                .extend(t.clients.iter().map(|&g| ws.local_of[g] as usize));
            ws.served_mask.clear();
            ws.served_mask.resize(n_local, false);
            for &l in &ws.served {
                ws.served_mask[l] = true;
            }
            ws.unserved.clear();
            ws.unserved
                .extend((0..n_local).filter(|&l| !ws.served_mask[l]));
            self.drr[t.ap_id].update_after_txop(&ws.served, &ws.unserved, DEFAULT_TXOP_US);
            for &l in &ws.served {
                self.traffic.served(t.ap_id, l);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::PairedTopology;

    fn three_ap_pair(seed: u64) -> PairedTopology {
        let mut rng = SimRng::new(seed);
        let cfg = crate::deployment::paper_das_config(&Environment::office_a(), 4, 4);
        PairedTopology::three_ap(&cfg, &mut rng)
    }

    #[test]
    fn stage_timings_stages_cover_every_field_in_pipeline_order() {
        let timings = StageTimings {
            dynamics_s: 0.5,
            evolve_s: 1.0,
            sense_s: 2.0,
            select_s: 3.0,
            precode_s: 4.0,
            evaluate_s: 5.0,
            settle_s: 6.0,
            rounds: 7,
        };
        let stages = timings.stages();
        assert_eq!(
            stages.map(|(name, _)| name),
            ["dynamics", "evolve", "sense", "select", "precode", "evaluate", "settle"]
        );
        // Summing the pairs reproduces total_s: no field is missing or
        // double-counted.
        let sum: f64 = stages.iter().map(|(_, s)| s).sum();
        assert_eq!(sum, timings.total_s());
    }

    #[test]
    fn simulation_produces_finite_positive_capacity() {
        let pair = three_ap_pair(1);
        let env = Environment::office_a();
        let mut sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, 1));
        let result = sim.run();
        assert_eq!(result.per_round_capacity.len(), 20);
        assert!(result.mean_capacity() > 0.0);
        assert!(result.mean_capacity().is_finite());
        assert!(result.mean_streams() >= 1.0);
    }

    #[test]
    fn cas_never_exceeds_one_active_ap_in_a_shared_domain() {
        let pair = three_ap_pair(2);
        let env = Environment::office_a();
        let mut sim = NetworkSimulator::new(pair.cas, NetworkSimConfig::cas(env, 2));
        let result = sim.run();
        // All three CAS APs overhear each other, so at most 4 streams per round.
        for &s in &result.per_round_streams {
            assert!(s <= 4, "round had {s} concurrent streams under CAS");
        }
    }

    #[test]
    fn midas_achieves_more_concurrent_streams_than_cas() {
        let env = Environment::office_a();
        let mut das_streams = 0.0;
        let mut cas_streams = 0.0;
        for seed in 0..3 {
            let pair = three_ap_pair(10 + seed);
            let mut das_sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, seed));
            let mut cas_sim = NetworkSimulator::new(pair.cas, NetworkSimConfig::cas(env, seed));
            das_streams += das_sim.run().mean_streams();
            cas_streams += cas_sim.run().mean_streams();
        }
        assert!(
            das_streams > cas_streams,
            "MIDAS mean streams {das_streams} should exceed CAS {cas_streams}"
        );
    }

    #[test]
    fn midas_outperforms_cas_end_to_end() {
        // Fig. 15's qualitative claim at test scale: MIDAS clearly beats CAS.
        let env = Environment::office_a();
        let mut das_capacity = 0.0;
        let mut cas_capacity = 0.0;
        for seed in 0..3 {
            let pair = three_ap_pair(20 + seed);
            let mut das_sim = NetworkSimulator::new(pair.das, NetworkSimConfig::midas(env, seed));
            let mut cas_sim = NetworkSimulator::new(pair.cas, NetworkSimConfig::cas(env, seed));
            das_capacity += das_sim.run().mean_capacity();
            cas_capacity += cas_sim.run().mean_capacity();
        }
        assert!(
            das_capacity > cas_capacity,
            "MIDAS capacity {das_capacity:.1} should exceed CAS {cas_capacity:.1}"
        );
    }
}
