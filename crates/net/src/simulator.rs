//! Round-based end-to-end network simulator (Figs. 15 and 16).
//!
//! The simulator plays out downlink traffic (full buffer unless a
//! [`TrafficKind`] says otherwise) in a multi-AP network over a sequence of
//! TXOP rounds.  Within a round the APs attempt channel access in a random
//! order (standing in for the backoff race); an AP — or in MIDAS, each of
//! its distributed antennas — joins the round only if it does not
//! carrier-sense a transmitter that already won the round.  Winning APs
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
use crate::scale::index::{squared_distance, within, NeighborTracker, SpatialIndex};
use crate::setup::{ap_row_clients, expected_links, ordered_map, PARALLEL_SETUP_MIN_LINKS};
use crate::traffic::TrafficKind;
use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{dbm_to_mw, ChannelMatrix, ChannelModel, Environment, RowCache, SimRng};
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

/// Configuration of an end-to-end simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSimConfig {
    /// Propagation environment.
    pub env: Environment,
    /// MAC discipline.
    pub mac: MacKind,
    /// Precoder used by every AP.
    pub precoder: PrecoderKind,
    /// Number of TXOP rounds simulated.  Small-scale fading takes one
    /// Gauss–Markov step per round (one TXOP), the cadence every
    /// paper-scale figure assumes.
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
    /// A finite range is answered through uniform-grid [`SpatialIndex`]es
    /// with the range as cell size (a query touches at most 3×3 cells); an
    /// infinite one by linear scans, since every point is then in range.
    /// Routing an infinite range through the index too kept every result
    /// but cost the 8-AP Fig. 16 jobs 4.5 % of their rounds per second and
    /// 11 % more set-up time, so the scans stay until the index has a
    /// cheaper every-point path.
    /// [`NetworkSimulator::new`] panics unless the range is `> 0.0`.
    pub interaction_range_m: f64,
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
            contention: ContentionModel::Graph,
            dynamics: None,
        }
    }

    /// The conventional 802.11ac CAS configuration.
    pub fn cas(env: Environment, seed: u64) -> Self {
        NetworkSimConfig {
            mac: MacKind::Cas,
            precoder: PrecoderKind::NaiveScaled,
            ..NetworkSimConfig::midas(env, seed)
        }
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
/// fading evolution knows which rows the round will read).  The four
/// `dynamics_*` parts split `dynamics_s` by step phase (see
/// [`StageTimings::dynamics_parts`]); they are not stages of their own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Dynamics: mobility, roaming, row membership and the MAC-state
    /// rebuilds they trigger, including the large-scale refresh of the
    /// rows a tag rebuild reads (0.0 when dynamics are off).
    pub dynamics_s: f64,
    /// Part of `dynamics_s`: moving the mobile clients, including their
    /// roaming-candidate slack checks and re-queries.
    pub dynamics_mobility_s: f64,
    /// Part of `dynamics_s`: the roaming (re-association) pass.
    pub dynamics_roaming_s: f64,
    /// Part of `dynamics_s`: bringing the channel-row membership of moved
    /// and roamed clients up to date (re-queries, births, frees).
    pub dynamics_row_sync_s: f64,
    /// Part of `dynamics_s`: the MAC-state repair — ownership maps, DRR
    /// restarts and tag rebuilds with the row refreshes they read.
    pub dynamics_tag_repair_s: f64,
    /// Channel evolution: keyed catch-up of the rows the round reads, and
    /// their large-scale refresh when their client moved.
    pub evolve_s: f64,
    /// Carrier sensing: each sensing decision's reads of the antennas
    /// already on the air (including the first-read evaluation of a
    /// sensing-table entry), the appends a claimed antenna makes to the
    /// lists of the antennas that sense after it, and the per-round list
    /// reset.
    pub sense_s: f64,
    /// Access-order shuffle, backlog queries, client selection, slot claims.
    pub select_s: f64,
    /// Per-slot precoding.
    pub precode_s: f64,
    /// Interferer gather + SINR/capacity computation.
    pub evaluate_s: f64,
    /// DRR fairness bookkeeping.
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

    /// The phases of the dynamics stage as `(name, seconds)` pairs in step
    /// order; they sum to at most `dynamics_s`.
    pub fn dynamics_parts(&self) -> [(&'static str, f64); 4] {
        [
            ("mobility", self.dynamics_mobility_s),
            ("roaming", self.dynamics_roaming_s),
            ("row sync", self.dynamics_row_sync_s),
            ("tag repair", self.dynamics_tag_repair_s),
        ]
    }
}

/// Deterministic work counts of keyed fading evolution, summed over a run
/// (see [`NetworkSimulator::fading_counters`]).  Always on — plain integer
/// adds next to the work they count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FadingCounters {
    /// Row catch-ups that moved a channel row forward by at least one
    /// round: one keyed skip-ahead step each, however many rounds it
    /// spans.
    pub rows_caught_up: usize,
    /// Gaussian pairs those steps drew: one per antenna per step.
    pub gaussian_pairs: usize,
}

/// Deterministic work counts of carrier sensing, summed over a run (see
/// [`NetworkSimulator::sensing_counters`]).  Always on — plain integer
/// adds next to the work they count.  `powers_evaluated` is bounded by the
/// directed in-range antenna pairs and stops growing once every pair a run
/// reads has been read once.  A decision reads its nearest on-air antenna
/// first and stops once the medium is certainly busy, so `reads` is at
/// most one more than the list entries per decision, and entries after
/// the stop are neither read nor evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SensingCounters {
    /// Sensing-table rows built: one per antenna, the first time it goes
    /// on the air.
    pub rows_built: usize,
    /// Antenna-pair powers evaluated: one per table entry, the first time
    /// a sensing decision reads it.
    pub powers_evaluated: usize,
    /// Antenna-pair powers read by sensing decisions, cached or evaluated:
    /// the probe of the nearest on-air antenna and every entry the fold
    /// reads before it stops.
    pub reads: usize,
    /// Entries appended to sensing lists: one per (claimed antenna,
    /// in-range antenna of an AP that senses later in the round).
    pub pushes: usize,
    /// Per-antenna sensing decisions.
    pub decisions: usize,
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
    /// AP-local indices of the AP's clients that were backlogged when it
    /// claimed the slot, ascending: the settle stage credits the unserved
    /// ones.
    backlogged: Vec<usize>,
    /// Precoding matrix (antennas × streams).
    v: CMat,
}

impl ActiveTransmission {
    fn empty() -> Self {
        ActiveTransmission {
            ap_id: 0,
            antenna_idx: Vec::new(),
            clients: Vec::new(),
            backlogged: Vec::new(),
            v: CMat::zeros(0, 0),
        }
    }
}

/// The end of a sensing list.
const NIL: u32 = u32::MAX;

/// Relative margin above the energy-detect threshold's power (mW) at which
/// a sensing sum is certainly detected.  [`ContentionGraph::detects`]
/// compares in dB, and its `log10`, like the threshold's `powf`, is within
/// a few ulps (~1e-15) of exact, far inside the band.  It plays the part
/// `SQUARE_BAND` plays for squared distances.
const BUSY_BAND: f64 = 1e-9;

/// The received sensing power of every in-range antenna pair, for the
/// whole run.
///
/// Antennas are numbered AP-major (AP 0's antennas, then AP 1's, …): the
/// one antenna numbering of the simulator, which also sizes the sensing
/// lists and feeds the dynamics layer's in-range tracker.  An antenna gets
/// a row the first time it goes on the air: the antennas of other APs
/// within interaction range of it, found through a static
/// [`SpatialIndex`] over every antenna at a finite range (in the index's
/// visit order, which is deterministic but not ascending) and by a linear
/// scan at infinite range (ascending).  Row order never reaches a
/// decision: a sensing list gets at most one entry per on-air antenna, in
/// activation order.  The range predicate is symmetric, so the row of `a`
/// holds exactly the antennas whose sensing sum `a` enters.  Same-AP
/// antennas are left out: an AP senses before it claims, so its own
/// antennas never hear each other.
///
/// Each entry is [`ContentionGraph::rx_mw`] from the row's antenna to the
/// target on the contention model's own sensing graph, evaluated the first
/// time a decision reads it (NaN until then).  Antennas never move —
/// dynamics moves only clients — so an entry stays valid for the run, and
/// set-up does no pair work at all.  A decision reads only as many entries
/// as it takes to be certain (see [`SensingTable::senses`]).
struct SensingTable {
    /// The contention model's sensing graph: the per-pair term and the
    /// energy-detect threshold.
    graph: ContentionGraph,
    /// The partial sum (mW) at or above which a decision is certainly
    /// busy: the threshold's power times `1 + BUSY_BAND`, or +∞ (read
    /// everything) where that power is not a normal number.
    busy_mw: f64,
    /// Antenna positions by global id.
    positions: Vec<Point>,
    /// The AP owning each antenna.
    owner: Vec<u32>,
    /// The global id of each AP's first antenna.
    first: Vec<u32>,
    /// Static index over `positions` (ids are global ids); `None` at
    /// infinite range.
    index: Option<SpatialIndex>,
    cutoff_m: f64,
    /// Per antenna, its row once it has gone on the air.
    rows: Vec<Option<SensingRow>>,
    /// Row-build scratch, retained across builds: one row's targets.
    targets: Vec<u32>,
    counters: SensingCounters,
}

/// One antenna's row of the [`SensingTable`], sized exactly.
struct SensingRow {
    /// Antennas of other APs within interaction range.
    targets: Box<[u32]>,
    /// Received power (mW) at each target; NaN until first read.
    powers: Box<[f64]>,
}

impl SensingTable {
    /// O(antennas): ids, owners, the stop bound and (finite range) the
    /// static index; no row and no pair power is computed here.
    fn new(topo: &Topology, graph: ContentionGraph, cutoff_m: f64) -> Self {
        let mut positions = Vec::new();
        let mut owner = Vec::new();
        let mut first = Vec::with_capacity(topo.aps.len());
        for ap in &topo.aps {
            first.push(positions.len() as u32);
            positions.extend_from_slice(&ap.antennas);
            owner.resize(positions.len(), ap.ap_id as u32);
        }
        // At infinite range a query returns every point, so the index
        // would be pure overhead on the paper-scale figures.
        let index = cutoff_m
            .is_finite()
            .then(|| SpatialIndex::from_points(topo.region, cutoff_m, &positions));
        // A zero, subnormal, infinite or NaN threshold power has no
        // relative band to trust: such a table never stops early.
        let threshold_mw = dbm_to_mw(graph.threshold_dbm());
        let busy_mw = if threshold_mw.is_normal() {
            threshold_mw * (1.0 + BUSY_BAND)
        } else {
            f64::INFINITY
        };
        SensingTable {
            graph,
            busy_mw,
            rows: (0..positions.len()).map(|_| None).collect(),
            positions,
            owner,
            first,
            index,
            cutoff_m,
            targets: Vec::new(),
            counters: SensingCounters::default(),
        }
    }

    /// Global id of AP `ap`'s antenna `k`.
    fn antenna(&self, ap: usize, k: usize) -> usize {
        self.first[ap] as usize + k
    }

    /// Builds the row of antenna `a` unless it exists: its targets go
    /// through the retained scratch into one exact-size slice.
    fn build_row(&mut self, a: usize) {
        if self.rows[a].is_some() {
            return;
        }
        let (own, at, range) = (self.owner[a], self.positions[a], self.cutoff_m);
        let SensingTable {
            owner,
            positions,
            index,
            targets,
            ..
        } = self;
        targets.clear();
        let mut keep = |b: usize| {
            if owner[b] != own {
                targets.push(b as u32);
            }
        };
        match index {
            Some(index) => index.for_each_within(&at, range, &mut keep),
            None => (0..positions.len())
                .filter(|&b| within(&at, &positions[b], range))
                .for_each(&mut keep),
        }
        self.rows[a] = Some(SensingRow {
            targets: self.targets.as_slice().into(),
            powers: vec![f64::NAN; self.targets.len()].into_boxed_slice(),
        });
        self.counters.rows_built += 1;
    }

    /// Puts antenna `a` on the air: appends its entry to the list of every
    /// target whose AP senses later this round, building its row on first
    /// use.
    fn go_on_air(&mut self, a: usize, lists: &mut SenseLists) {
        self.build_row(a);
        let row = self.rows[a].as_ref().expect("row built above");
        let turn = lists.turn[self.owner[a] as usize];
        for (entry, &b) in row.targets.iter().enumerate() {
            if lists.turn[self.owner[b as usize] as usize] > turn {
                lists.append(b, a as u32, entry as u32);
                self.counters.pushes += 1;
            }
        }
    }

    /// Whether antenna `b` senses the medium busy (one decision): the
    /// decision `detects` makes on the fold of `b`'s whole list in append
    /// order from 0.0, reading only as far as it takes to be certain.
    ///
    /// Why stopping early is exact: powers are non-negative and float
    /// addition rounds monotonically, so each partial sum of the fold is
    /// at least the one before it and at least the entry it just added.
    /// The full fold is therefore at least every prefix of it and every
    /// single entry.  `busy_mw` sits a relative `BUSY_BAND` above the
    /// threshold's power, far beyond the rounding of `detects`' dB
    /// comparison, so a full fold at or above it is detected.  Once one
    /// entry or one prefix reaches `busy_mw` the decision is "busy", and
    /// no entry left unread can change it.
    ///
    /// So the decision first reads its nearest on-air antenna (the
    /// smallest squared distance, the earliest append on ties), the entry
    /// most likely to decide alone.  Otherwise it folds in append order
    /// and stops at `busy_mw`; a fold that ends below it, a total inside
    /// the band included, decides with `detects` on the full total.  The
    /// probe's choice changes only how many entries are read.
    fn senses(&mut self, b: usize, lists: &SenseLists) -> bool {
        self.counters.decisions += 1;
        let head = lists.head[b];
        if head == NIL {
            return false;
        }
        let at = self.positions[b];
        let d2 = |push: &Push| squared_distance(&self.positions[push.from as usize], &at);
        let (mut probe, mut probe_d2) = (head, d2(&lists.pushes[head as usize]));
        let mut next = lists.pushes[head as usize].next;
        while next != NIL {
            let push = &lists.pushes[next as usize];
            let push_d2 = d2(push);
            if push_d2 < probe_d2 {
                (probe, probe_d2) = (next, push_d2);
            }
            next = push.next;
        }
        if self.read(probe, b, lists) >= self.busy_mw {
            return true;
        }
        let total_mw = self.fold(b, lists, self.busy_mw);
        total_mw >= self.busy_mw || self.graph.detects(total_mw)
    }

    /// The power antenna `b` hears through list entry `push`, evaluated on
    /// its first read.
    fn read(&mut self, push: u32, b: usize, lists: &SenseLists) -> f64 {
        let push = lists.pushes[push as usize];
        let from = push.from as usize;
        let row = self.rows[from]
            .as_mut()
            .expect("an on-air antenna has a row");
        let power = &mut row.powers[push.entry as usize];
        if power.is_nan() {
            *power = self.graph.rx_mw(&self.positions[from], &self.positions[b]);
            self.counters.powers_evaluated += 1;
        }
        self.counters.reads += 1;
        *power
    }

    /// Antenna `b`'s list folded in append (activation) order from 0.0,
    /// stopping once the partial sum reaches `stop_mw`: the sum so far.
    fn fold(&mut self, b: usize, lists: &SenseLists, stop_mw: f64) -> f64 {
        let mut total_mw = 0.0;
        let mut next = lists.head[b];
        while next != NIL && total_mw < stop_mw {
            total_mw += self.read(next, b, lists);
            next = lists.pushes[next as usize].next;
        }
        total_mw
    }

    /// The aggregate power antenna `b` hears, `None` when its list is
    /// empty: the whole fold, the total `senses` decides on.
    #[cfg(test)]
    fn sensed_mw(&mut self, b: usize, lists: &SenseLists) -> Option<f64> {
        (lists.head[b] != NIL).then(|| self.fold(b, lists, f64::INFINITY))
    }

    /// Bytes of heap the table retains: 12 per built entry (a `u32` target
    /// and an `f64` power) plus O(antennas) of ids, positions, index and
    /// row-build scratch.
    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.positions.capacity() * size_of::<Point>()
            + (self.owner.capacity() + self.first.capacity() + self.targets.capacity())
                * size_of::<u32>()
            + self
                .index
                .as_ref()
                .map_or(0, SpatialIndex::heap_footprint_bytes)
            + self.rows.capacity() * size_of::<Option<SensingRow>>()
            + self
                .rows
                .iter()
                .flatten()
                .map(|r| r.targets.len() * size_of::<u32>() + r.powers.len() * size_of::<f64>())
                .sum::<usize>()
    }
}

/// One entry of a sensing list: the on-air antenna, the entry of its
/// [`SensingRow`] that holds the power, and the next push of the same list.
#[derive(Clone, Copy)]
struct Push {
    from: u32,
    entry: u32,
    next: u32,
}

/// Per-round sensing lists: for each antenna, the antennas already on the
/// air within range of it, in activation order, as pushes linked in
/// append order.
#[derive(Default)]
struct SenseLists {
    /// Per AP, its turn (position) in this round's access order.
    turn: Vec<u32>,
    /// Per antenna, the first and last push of its list (`head` is `NIL`
    /// for an empty list; `tail` is meaningful only when it is not).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// This round's pushes, in append order.
    pushes: Vec<Push>,
    /// Antennas whose list is non-empty: the touched list the reset walks.
    listed: Vec<u32>,
}

impl SenseLists {
    fn new(aps: usize, antennas: usize) -> Self {
        SenseLists {
            turn: vec![0; aps],
            head: vec![NIL; antennas],
            tail: vec![NIL; antennas],
            ..SenseLists::default()
        }
    }

    /// Empties every list and records the round's access order.
    fn begin_round(&mut self, order: &[usize]) {
        for &b in &self.listed {
            self.head[b as usize] = NIL;
        }
        self.listed.clear();
        self.pushes.clear();
        for (turn, &ap) in order.iter().enumerate() {
            self.turn[ap] = turn as u32;
        }
    }

    /// Appends `(from, entry)` to antenna `b`'s list.
    fn append(&mut self, b: u32, from: u32, entry: u32) {
        let id = self.pushes.len() as u32;
        self.pushes.push(Push {
            from,
            entry,
            next: NIL,
        });
        let b = b as usize;
        if self.head[b] == NIL {
            self.head[b] = id;
            self.listed.push(b as u32);
        } else {
            self.pushes[self.tail[b] as usize].next = id;
        }
        self.tail[b] = id;
    }

    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.turn.capacity()
            + self.head.capacity()
            + self.tail.capacity()
            + self.listed.capacity())
            * size_of::<u32>()
            + self.pushes.capacity() * size_of::<Push>()
    }
}

/// All per-round scratch of the staged round pipeline
/// (`dynamics → backlog → sense → select → gather → fading → precode →
/// evaluate → settle`).
///
/// The simulator owns exactly one of these and threads it through every
/// stage; every buffer is cleared — never reallocated — between rounds, the
/// interferer index is emptied in place, the sensing lists are reset
/// through their touched list, and the global↔local client id maps are
/// prebuilt at construction time.  The sensing table the lists point into
/// is not scratch: the simulator owns it for the whole run.  Once warm, a
/// steady-state round allocates nothing from this struct (the remaining
/// per-round allocations are the precoder's internal matrices and the
/// small selection vectors the `midas-mac` helpers return);
/// `NetworkSimulator::workspace_heap_footprint_bytes` exposes the retained
/// capacity so tests can pin that it stops growing.
#[derive(Default)]
struct RoundWorkspace {
    /// AP access order, reshuffled every round (the backoff race).
    order: Vec<usize>,
    /// Per-antenna lists of the antennas already on the air within range,
    /// in activation order (the sense stage's input).
    sense: SenseLists,
    /// Persistent index over the round's transmitting antennas, for the
    /// cross-AP interferer lookup in the evaluate stage; present exactly
    /// when the sensing table holds its static index (a finite range).
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
    /// Per AP, the channel row of each own client, aligned with
    /// `own_clients`: serving rows and tag rebuilds read it without a
    /// lookup.  A row never moves while it exists, so only an AP whose
    /// membership changed needs its list looked up again.
    own_rows: Vec<Vec<u32>>,
    /// Dynamics-stage scratch: APs whose membership changed this step
    /// (DRR and tags rebuilt) and APs whose tag tables went stale because
    /// an own client moved (tags rebuilt).
    dirty_membership: Vec<bool>,
    dirty_tags: Vec<bool>,
    /// Flattened interfering-transmission ids of every stream this round,
    /// in stream order (gather stage output, evaluate stage input).
    stream_interferers: Vec<usize>,
    /// Offsets into `stream_interferers`, starting with 0: stream `s`
    /// (in stream order) owns `stream_bounds[s]..stream_bounds[s + 1]`.
    stream_bounds: Vec<usize>,
    /// Each stream's serving channel row, in stream order (gather stage
    /// output; the fading, precode and evaluate stages read it).
    stream_rows: Vec<usize>,
    /// Aligned with `stream_interferers`: the stream's client's channel
    /// row at each interfering transmission's AP (gather stage output).
    interferer_rows: Vec<usize>,
    /// The precode stage's sub-channel (selected clients × available
    /// antennas), refilled per slot.
    sub_h: CMat,
    /// Gaussian-pair scratch of the keyed row step.
    pairs: Vec<(f64, f64)>,
    /// Stage wall-clock totals (all-zero unless profiling is enabled).
    timings: StageTimings,
}

/// Per AP, the global ids of its own clients, ascending; and per client,
/// its index in its AP's list.  O(clients).
fn ownership(topo: &Topology) -> (Vec<Vec<usize>>, Vec<u32>) {
    let mut own_clients: Vec<Vec<usize>> = vec![Vec::new(); topo.aps.len()];
    let mut local_of = vec![0u32; topo.clients.len()];
    for c in &topo.clients {
        local_of[c.id] = own_clients[c.ap_id].len() as u32;
        own_clients[c.ap_id].push(c.id);
    }
    (own_clients, local_of)
}

impl RoundWorkspace {
    /// Builds the workspace for a topology and its channel rows: id maps
    /// and own rows prebuilt, sensing lists sized to the sensing table's
    /// antennas, the interferer index constructed (empty) when the table
    /// has its static index.
    fn for_simulator(topo: &Topology, sensing: &SensingTable, channels: &[ApChannel]) -> Self {
        let (own_clients, local_of) = ownership(topo);
        RoundWorkspace::with_ownership(topo, sensing, channels, own_clients, local_of)
    }

    /// [`for_simulator`](Self::for_simulator) over ownership maps the
    /// caller built with [`ownership`].
    fn with_ownership(
        topo: &Topology,
        sensing: &SensingTable,
        channels: &[ApChannel],
        own_clients: Vec<Vec<usize>>,
        local_of: Vec<u32>,
    ) -> Self {
        let own_rows = own_clients
            .iter()
            .zip(channels)
            .map(|(own, apch)| own.iter().map(|&c| apch.row(c) as u32).collect())
            .collect();
        RoundWorkspace {
            sense: SenseLists::new(topo.aps.len(), sensing.positions.len()),
            interferer_index: sensing
                .index
                .as_ref()
                .map(|_| SpatialIndex::new(topo.region, sensing.cutoff_m)),
            own_clients,
            local_of,
            own_rows,
            ..RoundWorkspace::default()
        }
    }

    /// Bytes of heap the workspace retains (capacities, not lengths).  The
    /// precoding matrices inside the slot pool are excluded: they are
    /// replaced — not reused — every round, so their size reflects the last
    /// round's stream counts rather than retained scratch.
    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.order.capacity() * size_of::<usize>()
            + self.sense.heap_footprint_bytes()
            + self
                .interferer_index
                .as_ref()
                .map_or(0, SpatialIndex::heap_footprint_bytes)
            + self.tx_of_antenna.capacity() * size_of::<usize>()
            + self.backlogged.capacity() * size_of::<usize>()
            + self.available.capacity() * size_of::<usize>()
            + self.neighbors.capacity() * size_of::<usize>()
            + self.interferers.capacity() * size_of::<usize>()
            + self.transmissions.capacity() * size_of::<ActiveTransmission>()
            + self
                .transmissions
                .iter()
                .map(|t| {
                    (t.antenna_idx.capacity() + t.clients.capacity() + t.backlogged.capacity())
                        * size_of::<usize>()
                })
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
            + self.own_rows.capacity() * size_of::<Vec<u32>>()
            + self
                .own_rows
                .iter()
                .map(|v| v.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.dirty_membership.capacity() * size_of::<bool>()
            + self.dirty_tags.capacity() * size_of::<bool>()
            + self.stream_interferers.capacity() * size_of::<usize>()
            + self.stream_bounds.capacity() * size_of::<usize>()
            + (self.stream_rows.capacity() + self.interferer_rows.capacity()) * size_of::<usize>()
            + self.sub_h.heap_footprint_bytes()
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
/// scale.  The client → row map is a sorted list of the rows alone, so
/// every part of the state, the map included, is O(rows kept): about 112
/// bytes a row at four antennas
/// ([`NetworkSimulator::channel_heap_footprint_bytes`]).  The round loop
/// resolves each row it reads once per round (the gather stage), so the
/// list's binary search stays out of its inner loops.
///
/// Static and dynamic runs share this one row set — the clients within
/// interaction range of any of the AP's antennas, plus its own clients.
/// Under dynamics it is kept exact every step: a row is born (drawn afresh)
/// when a client comes within range or roams to the AP, and freed when the
/// client leaves ([`RowDynamics::sync_client`]).  A freed slot carries zero
/// gain and is never read.
///
/// A row is brought current only when a round reads it, at a cost that
/// does not depend on how long it sat unread: its fading takes one keyed
/// skip-ahead step over every round it missed
/// ([`catch_up_row`](Self::catch_up_row)), and in a dynamic run its
/// large-scale gains are re-derived at the client's current position when
/// the client moved since they were last derived
/// ([`RowDynamics::refresh_stale_row`]).
struct ApChannel {
    ch: ChannelMatrix,
    /// The `(global client id, row of ch)` list of every row, ascending by
    /// client, as two aligned arrays (the keys contiguous for the binary
    /// search): births insert, frees remove.  A client out of radio range
    /// of every antenna of this AP has no entry (its channel is never
    /// read).
    clients: Vec<u32>,
    rows: Vec<u32>,
    /// Per-row next fading step (round number).  A row whose entry is `b`
    /// has absorbed the steps of every round `< b`; catch-up moves it past
    /// every round up to the current one in one step before the row is
    /// read.  Starts at 0 (the initial realisation has seen no evolution).
    next_round: Vec<u64>,
}

impl ApChannel {
    /// Where `client` sits in the list: `Ok(entry)`, or `Err(entry)` where
    /// an entry for it would go.
    fn find(&self, client: usize) -> Result<usize, usize> {
        self.clients.binary_search(&(client as u32))
    }

    /// The row of a global client in range.
    fn row(&self, client: usize) -> usize {
        let entry = self
            .find(client)
            .expect("channel row requested for an out-of-range client");
        self.rows[entry] as usize
    }

    /// Bytes of heap this channel state retains (capacities, not lengths).
    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ch.heap_footprint_bytes()
            + (self.clients.capacity() + self.rows.capacity()) * size_of::<u32>()
            + self.next_round.capacity() * size_of::<u64>()
    }

    /// Moves `row` past the fading step of every round from its bookmark
    /// through `through` (a no-op for a row already past `through`), and
    /// counts the work into `work`.
    ///
    /// A row that lags `n` rounds takes one keyed Gauss–Markov step at
    /// correlation `ρⁿ`, where `rho` is the one-round (one-TXOP) `ρ`: the
    /// exact `n`-step transition of the AR(1) fading process,
    /// `f ← ρⁿ·f + √(1−ρ²ⁿ)·CN(0,1)`, so the work is one row step however
    /// long the row sat unread.  The step is keyed by `through` and the
    /// bookmark moves past it, so no `(row, round)` key is ever drawn
    /// twice.  The exponent is clamped to `i32::MAX` so a very long lag
    /// cannot overflow; `ρⁿ` has underflowed to 0 (a fresh stationary draw,
    /// the exact limit) long before that for any `ρ < 1`.
    #[allow(clippy::too_many_arguments)] // the row, its stream key, the step and its tally
    fn catch_up_row(
        &mut self,
        model: &ChannelModel,
        ap: usize,
        client: usize,
        row: usize,
        through: u64,
        rho: f64,
        pairs: &mut Vec<(f64, f64)>,
        work: &mut FadingCounters,
    ) {
        let next = self.next_round[row];
        if next > through {
            return;
        }
        let lag = through - next + 1;
        work.gaussian_pairs += model.evolve_row(
            self.ch.h.row_mut(row),
            self.ch.large_scale.row(row),
            rho.powi(lag.min(i32::MAX as u64) as i32),
            ap as u64,
            client as u64,
            through,
            pairs,
        );
        work.rows_caught_up += 1;
        self.next_round[row] = through + 1;
    }
}

/// Rebuilds `table` in place from the mean RSSI (dBm) of each of `rows`
/// at every antenna of `ch`, in order, through the flat scratch `rssi`:
/// tagging reads large-scale gains only, never fading.
fn rebuild_tags(
    table: &mut TagTable,
    ch: &ChannelMatrix,
    rows: &[u32],
    tag_width: usize,
    rssi: &mut Vec<f64>,
) {
    let n = ch.num_antennas();
    rssi.clear();
    for &row in rows {
        rssi.extend((0..n).map(|k| ch.mean_rssi_dbm(row as usize, k)));
    }
    table.rebuild(
        (0..rows.len()).map(|i| &rssi[i * n..(i + 1) * n]),
        tag_width,
    );
}

/// Everything only a dynamic run keeps, built only when `config.dynamics`
/// is set: the mobility and roaming state, which APs each client is in
/// range of, each client's move epoch, each AP's row bookkeeping, the work
/// counters, and the scratch the per-step row sync reuses.
struct RowDynamics {
    /// Mobility and roaming, with the spec they were built from.
    state: DynamicsState,
    /// APs with an antenna within interaction range of each client; `None`
    /// at infinite range, where every client is in range of every AP and
    /// the row set never changes.
    in_range: Option<NeighborTracker>,
    /// Per client, the number of dynamics steps it moved in (wrapping).  A
    /// row whose [`ApRows::epoch`] differs holds gains of an older
    /// position and is refreshed when it is next read.
    epoch: Vec<u32>,
    /// Per AP, the row bookkeeping next to its [`ApChannel`].
    aps: Vec<ApRows>,
    /// Row work so far; its `roaming_requeries` and `roaming_scores` stay
    /// 0 here (the roaming engine counts those itself).
    counters: DynamicsCounters,
    /// A client's in-range APs before its re-query.
    prev_in_range: Vec<u32>,
    /// APs whose row for the client being synced may be born or freed.
    affected: Vec<u32>,
    /// One AP's own-client RSSI rows, flat (tag rebuild input).
    rssi: Vec<f64>,
}

/// One AP's dynamic-only row bookkeeping.
struct ApRows {
    /// Per-row shadowing memo and the antenna correlation births draw
    /// through.
    cache: RowCache,
    /// Freed row slots, reused last-in first-out by births.
    free: Vec<u32>,
    /// Per row, the client's move epoch ([`RowDynamics::epoch`]) its
    /// large-scale gains were derived at.
    epoch: Vec<u32>,
}

impl RowDynamics {
    /// The in-range tracker indexes the sensing table's antenna numbering.
    fn new(
        state: DynamicsState,
        aps: Vec<ApRows>,
        topo: &Topology,
        sensing: &SensingTable,
    ) -> Self {
        let in_range = sensing.cutoff_m.is_finite().then(|| {
            let clients: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
            NeighborTracker::new(
                topo.region,
                &sensing.positions,
                &sensing.owner,
                sensing.cutoff_m,
                &clients,
            )
        });
        RowDynamics {
            state,
            in_range,
            epoch: vec![0; topo.clients.len()],
            aps,
            counters: DynamicsCounters::default(),
            prev_in_range: Vec::new(),
            affected: Vec::new(),
            rssi: Vec::new(),
        }
    }

    fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.state.heap_footprint_bytes()
            + self
                .in_range
                .as_ref()
                .map_or(0, NeighborTracker::heap_footprint_bytes)
            + (self.epoch.capacity() + self.prev_in_range.capacity() + self.affected.capacity())
                * size_of::<u32>()
            + self.rssi.capacity() * size_of::<f64>()
            + self
                .aps
                .iter()
                .map(|a| {
                    a.cache.heap_footprint_bytes()
                        + (a.free.capacity() + a.epoch.capacity()) * size_of::<u32>()
                })
                .sum::<usize>()
    }

    /// Re-derives client `c`'s row `row` at AP `ap` at the client's current
    /// position through the shadowing memo when its gains predate the
    /// client's move epoch, counting the refresh.  A rescale commutes with
    /// a fading step, so a refreshed row may be caught up before or after.
    #[allow(clippy::too_many_arguments)] // the row, where it lives and what it is derived from
    fn refresh_stale_row(
        &mut self,
        model: &ChannelModel,
        topo: &Topology,
        ap: usize,
        apch: &mut ApChannel,
        c: usize,
        row: usize,
    ) {
        let rows = &mut self.aps[ap];
        if rows.epoch[row] == self.epoch[c] {
            return;
        }
        let antennas = &topo.aps[ap].antennas;
        let position = &topo.clients[c].position;
        let redrawn =
            model.refresh_row_cached(&mut apch.ch, &mut rows.cache, row, antennas, position);
        rows.epoch[row] = self.epoch[c];
        self.counters.rows_refreshed += 1;
        self.counters.shadow_redraws += usize::from(redrawn);
    }

    /// Brings client `c`'s row membership up to date after a step in which
    /// it moved and/or roamed from `old_own` to its current AP.
    ///
    /// A move bumps the client's epoch; its surviving rows keep their old
    /// gains until a read refreshes them
    /// ([`refresh_stale_row`](Self::refresh_stale_row)).  Rows are born at
    /// APs the client joined — came into range of, or roamed to — stamped
    /// with the current epoch, and freed at APs it left, in ascending AP
    /// order.
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
    ) {
        let p = topo.clients[c].position;
        let own = topo.clients[c].ap_id;
        let mut requeried = false;
        if moved {
            self.epoch[c] = self.epoch[c].wrapping_add(1);
            if let Some(tracker) = self.in_range.as_mut() {
                if !tracker.is_settled(c, &p) {
                    self.prev_in_range.clear();
                    self.prev_in_range.extend_from_slice(tracker.groups(c));
                    tracker.requery(c, p);
                    self.counters.membership_requeries += 1;
                    requeried = true;
                }
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
        // The client holds a row at its old AP and at the APs in range of
        // it as of its last sync; only where that differs from what it
        // wants now is a row's list searched.
        let prev: &[u32] = if requeried {
            &self.prev_in_range
        } else {
            groups
        };
        for &ap in &self.affected {
            let ap = ap as usize;
            let had = ap == old_own || prev.binary_search(&(ap as u32)).is_ok();
            let want = ap == own || groups.binary_search(&(ap as u32)).is_ok();
            debug_assert_eq!(channels[ap].find(c).is_ok(), had, "AP {ap}, client {c}");
            if had == want {
                continue;
            }
            let apch = &mut channels[ap];
            let rows = &mut self.aps[ap];
            match (apch.find(c), want) {
                (Ok(entry), false) => {
                    apch.clients.remove(entry);
                    let row = apch.rows.remove(entry);
                    apch.ch.zero_row(row as usize);
                    rows.free.push(row);
                    self.counters.rows_freed += 1;
                }
                (Err(entry), true) => {
                    let row = rows
                        .free
                        .pop()
                        .map_or(apch.ch.num_clients(), |r| r as usize);
                    model.birth_row(
                        &mut apch.ch,
                        &mut rows.cache,
                        row,
                        &topo.aps[ap].antennas,
                        &p,
                        ap as u64,
                        c as u64,
                        round as u64,
                    );
                    // A born row is a stationary draw for this round at the
                    // client's current position: it has nothing to catch up
                    // until the next round and nothing to refresh until the
                    // client moves again.
                    let next = round as u64 + 1;
                    if row == apch.next_round.len() {
                        apch.next_round.push(next);
                        rows.epoch.push(self.epoch[c]);
                    } else {
                        apch.next_round[row] = next;
                        rows.epoch[row] = self.epoch[c];
                    }
                    apch.clients.insert(entry, c as u32);
                    apch.rows.insert(entry, row as u32);
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
    /// One-round (one-TXOP) fading correlation `ρ` of `model`.
    rho: f64,
    /// Per-pair sensing powers, filled on first read and kept for the run.
    sensing: SensingTable,
    rng: SimRng,
    /// Per-AP channel to the clients within radio range (all clients when
    /// the interaction range is infinite).
    channels: Vec<ApChannel>,
    /// Per-AP fairness state over the AP's own clients (AP-local indices).
    drr: Vec<DrrScheduler>,
    /// Per-AP tag tables over the AP's own clients (AP-local indices).
    tags: Vec<TagTable>,
    /// Downlink workload: which clients are backlogged each round, keyed
    /// by `config.seed` and the global client id.  Defaults to
    /// [`TrafficKind::FullBuffer`], which reproduces the pre-traffic-model
    /// simulator byte for byte.
    traffic: TrafficKind,
    /// The precoder every AP runs, constructed once at build time — the
    /// round loop used to re-box one per AP per round.
    precoder: Box<dyn Precoder + Send + Sync>,
    /// All per-round scratch, reused across rounds (and runs).
    workspace: RoundWorkspace,
    /// Test knob: rebuild `workspace` from scratch every round, to prove
    /// reuse is observationally free (see `proptest_workspace.rs`).
    fresh_workspace_per_round: bool,
    /// Keyed evolution work so far (always on).
    fading_work: FadingCounters,
    /// Collect per-stage wall-clock into the workspace's [`StageTimings`].
    profile_stages: bool,
    /// Long-horizon dynamics; `Some` iff `config.dynamics.is_some()`.
    dynamics: Option<RowDynamics>,
}

impl NetworkSimulator {
    /// Creates a simulator for a topology.
    ///
    /// # Panics
    ///
    /// If `config.interaction_range_m` is not `> 0.0` (NaN included): such
    /// a range would silently remove all sensing and interference.  With
    /// roaming on (`config.dynamics` with a `reassociation`), also where
    /// [`Reassociator::new`](crate::scale::Reassociator::new) does: if the
    /// environment's path loss does not grow with distance.
    pub fn new(topo: Topology, config: NetworkSimConfig) -> Self {
        Self::new_with_setup_threads(topo, config, 1)
    }

    /// [`new`](Self::new) with set-up's pure half — row discovery and each
    /// link's large-scale gain — on up to `setup_threads` threads, when the
    /// floor's in-range links reach a size gate.  The simulator is
    /// bit-identical at any thread count: only work that reads no random
    /// stream runs in parallel, and the fading draws are composed in AP
    /// order on the calling thread.
    ///
    /// # Panics
    ///
    /// Where [`new`](Self::new) does.
    pub fn new_with_setup_threads(
        topo: Topology,
        config: NetworkSimConfig,
        setup_threads: usize,
    ) -> Self {
        Self::build(topo, config, setup_threads, PARALLEL_SETUP_MIN_LINKS)
    }

    /// The one constructor: helpers are spawned only when the floor's
    /// expected in-range links reach `min_links`.
    fn build(
        topo: Topology,
        config: NetworkSimConfig,
        setup_threads: usize,
        min_links: f64,
    ) -> Self {
        let cutoff = config.interaction_range_m;
        assert!(
            cutoff > 0.0,
            "NetworkSimConfig::interaction_range_m must be > 0 (f64::INFINITY for no cutoff), got {cutoff}"
        );
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
        // The own-client lists, built once in O(clients), seed each AP's
        // rows, its DRR, its tags and the round workspace.
        let (own_clients, local_of) = ownership(&topo);
        let client_index = cutoff.is_finite().then(|| {
            SpatialIndex::from_points(
                topo.region,
                cutoff,
                &topo.clients.iter().map(|c| c.position).collect::<Vec<_>>(),
            )
        });
        // Rows: the clients in range of any of an AP's antennas, plus its
        // own.  Their large-scale half reads no random stream, so it runs
        // on the set-up threads; the fading draws are composed here, in AP
        // order.  A dynamic run also keeps the shadowing memo its refreshes
        // and births go through.
        let memo = config.dynamics.is_some();
        let threads = if expected_links(&topo, cutoff) >= min_links {
            setup_threads
        } else {
            1
        };
        let pure_model = model.clone();
        let mut dynamic_aps = Vec::new();
        let mut channels = Vec::with_capacity(topo.aps.len());
        ordered_map(
            topo.aps.len(),
            threads,
            |a| {
                let ap = &topo.aps[a];
                let clients = ap_row_clients(
                    ap,
                    client_index.as_ref(),
                    &own_clients[ap.ap_id],
                    num_clients,
                    cutoff,
                );
                let positions: Vec<Point> = clients
                    .iter()
                    .map(|&c| topo.clients[c as usize].position)
                    .collect();
                let rows = pure_model.large_scale_rows(&ap.antennas, &positions, memo);
                (clients, rows)
            },
            |(clients, rows)| {
                let (ch, cache) = model.draw_rows(rows);
                let n = clients.len();
                if memo {
                    dynamic_aps.push(ApRows {
                        cache,
                        free: Vec::new(),
                        epoch: vec![0; n],
                    });
                }
                channels.push(ApChannel {
                    ch,
                    clients,
                    rows: (0..n as u32).collect(),
                    next_round: vec![0; n],
                });
            },
        );

        let sensing = SensingTable::new(&topo, graph, cutoff);
        let workspace =
            RoundWorkspace::with_ownership(&topo, &sensing, &channels, own_clients, local_of);
        let mut drr = Vec::with_capacity(topo.aps.len());
        let mut tags = Vec::with_capacity(topo.aps.len());
        let mut rssi = Vec::new();
        for (own_rows, apch) in workspace.own_rows.iter().zip(&channels) {
            drr.push(DrrScheduler::new(own_rows.len()));
            let mut table = TagTable::from_rssi(&[], config.tag_width);
            rebuild_tags(&mut table, &apch.ch, own_rows, config.tag_width, &mut rssi);
            tags.push(table);
        }
        let dynamics = config.dynamics.map(|spec| {
            let state = DynamicsState::new(&spec, &topo, &config.env, config.seed);
            RowDynamics::new(state, dynamic_aps, &topo, &sensing)
        });
        NetworkSimulator {
            rho: model.step_correlation(DEFAULT_TXOP_US as f64 * 1e-6),
            topo,
            config,
            model,
            sensing,
            rng,
            channels,
            drr,
            tags,
            traffic: TrafficKind::FullBuffer,
            precoder: make_precoder(config.precoder),
            workspace,
            fresh_workspace_per_round: false,
            fading_work: FadingCounters::default(),
            profile_stages: false,
            dynamics,
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

    /// Work counters of keyed fading evolution so far — rows caught up
    /// and Gaussian pairs drawn.  Deterministic in the seed.
    pub fn fading_counters(&self) -> FadingCounters {
        self.fading_work
    }

    /// Work counters of carrier sensing so far — sensing-table rows built,
    /// pair powers evaluated, list appends and decisions.  Deterministic in
    /// the seed.
    pub fn sensing_counters(&self) -> SensingCounters {
        self.sensing.counters
    }

    /// Bytes of heap the sensing table retains: 12 per entry of every row
    /// built so far, plus O(antennas).  It lives for the whole run, so it
    /// is not part of the workspace footprint.
    pub fn sensing_heap_footprint_bytes(&self) -> usize {
        self.sensing.heap_footprint_bytes()
    }

    /// Bytes of heap the per-AP channel state retains (capacities, not
    /// lengths): per row slot, its composite and large-scale gains (24
    /// bytes per antenna), its fading bookmark (8 bytes) and its entry in
    /// the AP's client → row list (8 bytes), free slots of a dynamic run
    /// included; plus the per-AP headers.  O(rows kept): about 112 bytes a
    /// row at four antennas, whatever the floor's client count.  The
    /// dynamics layer's per-row memos and epochs are in
    /// [`dynamics_heap_footprint_bytes`](Self::dynamics_heap_footprint_bytes).
    pub fn channel_heap_footprint_bytes(&self) -> usize {
        self.channels.capacity() * std::mem::size_of::<ApChannel>()
            + self
                .channels
                .iter()
                .map(ApChannel::heap_footprint_bytes)
                .sum::<usize>()
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
        self.traffic = kind;
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
            ws = RoundWorkspace::for_simulator(&self.topo, &self.sensing, &self.channels);
        }
        for round in 0..self.config.rounds {
            if self.fresh_workspace_per_round {
                let carried = ws.timings;
                ws = RoundWorkspace::for_simulator(&self.topo, &self.sensing, &self.channels);
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

    /// Pipeline stage 0 — dynamics: client mobility, roaming, channel-row
    /// membership, and the MAC-state rebuilds those trigger.  A no-op (and
    /// never installed) when `config.dynamics` is `None`, so static runs
    /// are byte-identical to the pre-dynamics simulator.
    ///
    /// Per step (every `period_rounds`, never at round 0):
    /// 1. Mobility moves the mobile clients ([`DynamicsState::step_mobility`])
    ///    and roaming re-associates them with hysteresis
    ///    ([`DynamicsState::step_roaming`]).
    /// 2. Every AP's channel rows are brought back to the exact static row
    ///    set (`RowDynamics::sync_client`, only for clients that moved or
    ///    roamed): a move bumps the client's epoch, rows are born where a
    ///    client came into range or roamed to ([`ChannelModel::birth_row`],
    ///    keyed draws) and freed where it left.  Surviving rows are not
    ///    touched here: a read refreshes them (see
    ///    [`fading_stage`](Self::fading_stage)).  No sequential RNG is
    ///    consumed, so the static pipeline's draw order is untouched.
    /// 3. The MAC-facing views are repaired: the workspace's ownership maps
    ///    are rebuilt when any client handed off, DRR restarts for APs whose
    ///    membership changed (a handoff is a fresh association), and tag
    ///    tables are rebuilt in place for any AP whose own-client RSSI
    ///    picture moved.  A tag rebuild reads the large-scale gains of the
    ///    AP's own rows, so it first refreshes the stale ones through the
    ///    shadowing memo ([`ChannelModel::refresh_row_cached`],
    ///    bit-identical to [`ChannelModel::refresh_large_scale_row`]); tags
    ///    never read fading, so those rows are not caught up.
    ///
    /// [`ChannelModel::refresh_row_cached`]: midas_channel::ChannelModel::refresh_row_cached
    /// [`ChannelModel::refresh_large_scale_row`]: midas_channel::ChannelModel::refresh_large_scale_row
    /// [`ChannelModel::birth_row`]: midas_channel::ChannelModel::birth_row
    // lint: no_alloc — steady-state stage: rows, tags and DRR are rebuilt in retained buffers
    fn dynamics_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let Some(dynamic) = self.dynamics.as_mut() else {
            return;
        };
        if !dynamic.state.steps_at(round) {
            return;
        }
        let profile = self.profile_stages;

        // 1. Move and roam.
        let t = tick(profile);
        dynamic.state.step_mobility(&mut self.topo);
        ws.timings.dynamics_mobility_s += secs_since(t);
        let t = tick(profile);
        dynamic.state.step_roaming(&mut self.topo, &self.config.env);
        ws.timings.dynamics_roaming_s += secs_since(t);

        // 2. Sync the row membership of every client that moved or roamed,
        //    in ascending id order (births claim free slots in that order).
        let t = tick(profile);
        let mut next_moved = 0;
        for c in 0..self.topo.clients.len() {
            let is_moved = dynamic.state.moved().get(next_moved) == Some(&c);
            next_moved += usize::from(is_moved);
            let old_own = dynamic.state.previous_ap(c);
            if !is_moved && old_own == self.topo.clients[c].ap_id {
                continue;
            }
            dynamic.sync_client(
                c,
                is_moved,
                old_own,
                round,
                &self.topo,
                &mut self.channels,
                &self.model,
            );
        }
        ws.timings.dynamics_row_sync_s += secs_since(t);

        // 3. Repair the MAC-facing views of whatever changed.
        let t = tick(profile);
        let num_aps = self.topo.aps.len();
        ws.dirty_membership.clear();
        ws.dirty_membership.resize(num_aps, false);
        ws.dirty_tags.clear();
        ws.dirty_tags.resize(num_aps, false);
        let mut any_handoff = false;
        let state = &dynamic.state;
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
            let apch = &mut self.channels[ap_id];
            let own = &ws.own_clients[ap_id];
            if membership {
                self.drr[ap_id].restart(own.len());
                // Sized like `own`, so it grows only when `own` did.
                let own_rows = &mut ws.own_rows[ap_id];
                own_rows.clear();
                own_rows.reserve_exact(own.capacity());
                own_rows.extend(own.iter().map(|&c| apch.row(c) as u32));
            }
            if membership || ws.dirty_tags[ap_id] {
                let own_rows = &ws.own_rows[ap_id];
                for (&c, &row) in own.iter().zip(own_rows) {
                    let row = row as usize;
                    dynamic.refresh_stale_row(&self.model, &self.topo, ap_id, apch, c, row);
                }
                rebuild_tags(
                    &mut self.tags[ap_id],
                    &apch.ch,
                    own_rows,
                    self.config.tag_width,
                    &mut dynamic.rssi,
                );
            }
        }
        ws.timings.dynamics_tag_repair_s += secs_since(t);
    }

    /// `(total client moves, total handoffs)` performed by the dynamics
    /// layer so far; `None` when dynamics are off.
    pub fn dynamics_stats(&self) -> Option<(usize, usize)> {
        self.dynamics
            .as_ref()
            .map(|d| (d.state.moves_total(), d.state.handoffs_total()))
    }

    /// Work counters of the dynamics stage so far — rows born, freed and
    /// refreshed, shadowing redraws, membership and roaming re-queries,
    /// roaming path losses; `None` when dynamics are off.  Deterministic in
    /// the seed.
    pub fn dynamics_counters(&self) -> Option<DynamicsCounters> {
        self.dynamics.as_ref().map(|d| DynamicsCounters {
            roaming_requeries: d.state.roaming_requeries(),
            roaming_scores: d.state.roaming_scores(),
            ..d.counters
        })
    }

    /// Clients holding a channel row at AP `ap`, ascending — the row set
    /// the simulator maintains (clients within interaction range of any of
    /// the AP's antennas, plus its own clients).
    // lint: allow(unreachable-pub) — proptest_fading, dynamic_rows and long_horizon check the row set with it
    pub fn channel_rows(&self, ap: usize) -> impl Iterator<Item = usize> + '_ {
        self.channels[ap].clients.iter().map(|&c| c as usize)
    }

    /// Channel-row slots allocated over all APs, free slots included: the
    /// row capacity a dynamic run has grown to.
    pub fn channel_row_slots(&self) -> usize {
        self.channels.iter().map(|c| c.ch.num_clients()).sum()
    }

    /// Bytes of heap the dynamics layer retains (0 when dynamics are off):
    /// mobility and roaming state, the row-membership tracker, the per-row
    /// shadowing memos, the free-slot lists and the move epochs.  Stable
    /// once warm, which the long-horizon footprint tests pin.
    pub fn dynamics_heap_footprint_bytes(&self) -> usize {
        self.dynamics
            .as_ref()
            .map_or(0, RowDynamics::heap_footprint_bytes)
    }

    /// Pipeline stages 1–3 — backlog, sense, select: decides who transmits
    /// this round, filling the workspace's transmission slots with the
    /// chosen clients and antennas.  Precoding happens in a later stage
    /// ([`precode_stage`](Self::precode_stage)) so the fading stage can
    /// bring the selected rows up to date in between; sensing and
    /// selection never read small-scale fading (tags and DRR run on
    /// large-scale RSSI).
    ///
    /// Sensing is push-based.  After the shuffle the sensing lists record
    /// each AP's access position; when an AP claims a slot, each claimed
    /// antenna appends its sensing-table entry to the list of every
    /// in-range antenna whose AP senses later this round.  A sensing
    /// antenna then makes the decision a fold of its list in append order
    /// from 0.0 (the activation order of the in-range antennas on the
    /// air) would make, reading its nearest on-air antenna first and
    /// stopping once the medium is certainly busy
    /// ([`SensingTable::senses`]); an entry is evaluated on its first read
    /// in the run.  CAS stops at the first busy antenna of an AP, as `any`
    /// does.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace; a sensing-table row is built once per antenna per run
    fn plan_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let num_aps = self.topo.aps.len();
        let profile = self.profile_stages;
        let plan_start = tick(profile);
        let mut sense_s = 0.0;

        let RoundWorkspace {
            order,
            sense,
            backlogged,
            available,
            transmissions,
            live,
            own_clients,
            timings,
            ..
        } = ws;

        order.clear();
        order.extend(0..num_aps);
        self.rng.shuffle(order);

        let t = tick(profile);
        sense.begin_round(order);
        sense_s += secs_since(t);
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
                .backlogged_into(self.config.seed, own, round, backlogged);
            if backlogged.is_empty() {
                continue;
            }

            // Sense: which antennas may transmit given what is already on
            // the air?  The contention model only changes which graph
            // (threshold / sensing field) the table evaluates on.
            let t_sense = tick(profile);
            let first = self.sensing.antenna(ap_id, 0);
            let n = ap.num_antennas();
            available.clear();
            match self.config.mac {
                MacKind::Midas => {
                    available.extend((0..n).filter(|&k| !self.sensing.senses(first + k, sense)))
                }
                MacKind::Cas => {
                    if !(0..n).any(|k| self.sensing.senses(first + k, sense)) {
                        available.extend(0..n);
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
            slot.backlogged.clear();
            slot.backlogged.extend_from_slice(backlogged);

            let t_push = tick(profile);
            for &k in slot.antenna_idx.iter() {
                self.sensing.go_on_air(first + k, sense);
            }
            sense_s += secs_since(t_push);
            *live += 1;
        }

        if profile {
            timings.sense_s += sense_s;
            timings.select_s += secs_since(plan_start) - sense_s;
        }
    }

    /// Pipeline stage 4 — gather: discovers each stream's interfering
    /// transmissions (position-only neighbourhood queries) and stores them
    /// in the workspace for the evaluate stage to replay, with the channel
    /// row each stream reads at its own AP and at each interferer's: every
    /// row the round reads is looked up here, once, and the fading, precode
    /// and evaluate stages read the stored rows.
    ///
    /// Hoisted out of evaluation so the full set of channel rows the round
    /// reads — serving rows *and* interferer rows — is known before any
    /// fading value is consumed; that set is exactly what lazy evolution
    /// catches up.  A concurrent transmission only interferes with a client
    /// when at least one of its transmitting antennas is within the
    /// interaction range.  The interferer index (finite range) and the
    /// linear scan (infinite range) both apply that rule and list the
    /// interferers in ascending transmission order.
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
            stream_rows,
            interferer_rows,
            own_rows,
            local_of,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        // Map every active antenna back to its transmission for the indexed
        // interferer lookup.
        if let Some(index) = interferer_index.as_mut() {
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
        stream_bounds.push(0);
        stream_rows.clear();
        interferer_rows.clear();
        for (tx_idx, t) in transmissions.iter().enumerate() {
            for &client in t.clients.iter() {
                let serving_row = own_rows[t.ap_id][local_of[client] as usize] as usize;
                stream_rows.push(serving_row);
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
                            let antenna = &self.topo.aps[transmissions[o].ap_id].antennas[k];
                            within(client_pos, antenna, cutoff)
                        })
                    })),
                }
                stream_interferers.extend_from_slice(interferers);
                stream_bounds.push(stream_interferers.len());
                interferer_rows.extend(interferers.iter().map(|&o| {
                    if o == tx_idx {
                        serving_row
                    } else {
                        self.channels[transmissions[o].ap_id].row(client)
                    }
                }));
            }
        }
    }

    /// Pipeline stage 5 — fading: brings exactly the channel rows this
    /// round reads up to date.
    ///
    /// The active set is the union of each live slot's serving rows and
    /// each stream's interferer rows (from the gather stage): those — and
    /// only those — feed the precode and evaluate stages.  In a dynamic
    /// run, a row whose client moved since its gains were derived is first
    /// refreshed at the client's current position
    /// ([`RowDynamics::refresh_stale_row`]).  Each row then catches up to
    /// the current round in one keyed skip-ahead step
    /// ([`ApChannel::catch_up_row`]), whatever its lag.  Rows not in the
    /// set are left behind; their `next_round` bookmark and gain epoch
    /// say what a later read must do.  The keyed steps make the result a
    /// pure function of the seed, bit-identical at any thread or worker
    /// count.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn fading_stage(&mut self, round: usize, ws: &mut RoundWorkspace) {
        let RoundWorkspace {
            transmissions,
            live,
            stream_interferers,
            stream_bounds,
            stream_rows,
            interferer_rows,
            pairs,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        // Each served client's serving row (read by precode and by the
        // evaluate stage's signal/intra-interference terms) and its row in
        // every other transmission within radio range of it, as the gather
        // stage resolved them.  A client is served at most once a round and
        // its interferers are other APs, so no row comes twice; each step
        // is keyed by its row, so the order does not matter.
        let mut s = 0;
        for (tx_idx, t) in transmissions.iter().enumerate() {
            for &client in t.clients.iter() {
                let (lo, hi) = (stream_bounds[s], stream_bounds[s + 1]);
                let interfering = stream_interferers[lo..hi]
                    .iter()
                    .zip(&interferer_rows[lo..hi])
                    .filter(|&(&o, _)| o != tx_idx)
                    .map(|(&o, &row)| (transmissions[o].ap_id, row));
                for (ap, row) in std::iter::once((t.ap_id, stream_rows[s])).chain(interfering) {
                    let apch = &mut self.channels[ap];
                    if let Some(dynamic) = self.dynamics.as_mut() {
                        dynamic.refresh_stale_row(&self.model, &self.topo, ap, apch, client, row);
                    }
                    apch.catch_up_row(
                        &self.model,
                        ap,
                        client,
                        row,
                        round as u64,
                        self.rho,
                        pairs,
                        &mut self.fading_work,
                    );
                }
                s += 1;
            }
        }
    }

    /// Pipeline stage 6 — precode: computes each live slot's precoding
    /// matrix over the (selected clients × available antennas) channel.
    /// Runs after the fading stage so it reads the current round's channel
    /// state; the precoder is pure (no RNG).  The sub-channel is copied
    /// into workspace scratch from the serving rows the gather stage
    /// resolved, and the precoder computes the matrix alone
    /// ([`Precoder::precode_matrix`]): the SINRs that count are the
    /// evaluate stage's, with cross-AP interference.
    // lint: no_alloc — steady-state stage: scratch lives in RoundWorkspace (PR 6 footprint pin)
    fn precode_stage(&self, ws: &mut RoundWorkspace) {
        let RoundWorkspace {
            transmissions,
            live,
            stream_rows,
            sub_h,
            ..
        } = ws;
        let mut first = 0;
        for slot in &mut transmissions[..*live] {
            let ch = &self.channels[slot.ap_id].ch;
            let rows = &stream_rows[first..first + slot.clients.len()];
            first += slot.clients.len();
            ch.h.select_into(rows, &slot.antenna_idx, sub_h);
            (slot.v, _) = self
                .precoder
                .precode_matrix(sub_h, ch.tx_power_mw, ch.noise_mw);
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
            stream_rows,
            interferer_rows,
            ..
        } = ws;
        let transmissions = &transmissions[..*live];

        capacities.clear();
        let mut s = 0;
        for (tx_idx, t) in transmissions.iter().enumerate() {
            let ch = &self.channels[t.ap_id];
            for (stream_idx, &client) in t.clients.iter().enumerate() {
                // The client's channel row towards every antenna of the
                // serving AP, as the gather stage resolved it.
                let h_row = ch.ch.h.row(stream_rows[s]);
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
                let (lo, hi) = (stream_bounds[s], stream_bounds[s + 1]);
                for (&o, &row) in stream_interferers[lo..hi]
                    .iter()
                    .zip(&interferer_rows[lo..hi])
                {
                    if o == tx_idx {
                        continue;
                    }
                    let other = &transmissions[o];
                    let oh_row = self.channels[other.ap_id].ch.h.row(row);
                    for other_stream in 0..other.clients.len() {
                        let mut amp = Complex::ZERO;
                        for (row, &k) in other.antenna_idx.iter().enumerate() {
                            amp += oh_row[k] * other.v.get(row, other_stream);
                        }
                        interference += amp.norm_sqr();
                    }
                }
                s += 1;
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

    /// Pipeline stage 8 — settle: per-AP fairness (DRR) bookkeeping for
    /// the round that just ran.
    ///
    /// Served clients are mapped from global ids back to AP-local ids through
    /// the workspace's prebuilt `local_of` table.  DRR credits only the
    /// clients that were backlogged when the AP claimed its slot and went
    /// unserved, ascending, read off a reusable bitmask: as in classic DRR
    /// (Shreedhar & Varghese, SIGCOMM '95), a client with nothing queued
    /// banks no deficit.  Under full buffer every client is backlogged.
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
                .extend(t.backlogged.iter().copied().filter(|&l| !ws.served_mask[l]));
            self.drr[t.ap_id].update_after_txop(&ws.served, &ws.unserved, DEFAULT_TXOP_US);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::PhysicalConfig;
    use crate::deployment::PairedTopology;
    use crate::dynamics::DynamicsSpec;
    use crate::scale::index::nudge;
    use midas_channel::mw_to_dbm;

    fn three_ap_pair(seed: u64) -> PairedTopology {
        let mut rng = SimRng::new(seed);
        let cfg = crate::deployment::paper_das_config(&Environment::office_a(), 4, 4);
        PairedTopology::three_ap(&cfg, &mut rng)
    }

    #[test]
    fn stage_timings_stages_cover_every_field_in_pipeline_order() {
        let timings = StageTimings {
            dynamics_s: 0.5,
            dynamics_mobility_s: 0.1,
            dynamics_roaming_s: 0.1,
            dynamics_row_sync_s: 0.1,
            dynamics_tag_repair_s: 0.1,
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
        // The dynamics parts split `dynamics_s` and are not stages.
        let parts = timings.dynamics_parts();
        assert_eq!(
            parts.map(|(name, _)| name),
            ["mobility", "roaming", "row sync", "tag repair"]
        );
        assert!(parts.iter().map(|(_, s)| s).sum::<f64>() <= timings.dynamics_s);
    }

    /// A TXOP's DRR update credits only the transmitting AP's clients that
    /// were backlogged and went unserved, ascending: under on/off traffic a
    /// client with nothing queued banks no deficit, as in classic DRR.
    #[test]
    fn drr_credits_only_the_backlogged_unserved_clients() {
        let env = Environment::office_a();
        let traffic = TrafficKind::OnOff {
            duty: 0.4,
            mean_burst_rounds: 2.0,
        };
        let pair = three_ap_pair(5);
        let after = |rounds: usize| {
            let mut config = NetworkSimConfig::midas(env, 5);
            config.rounds = rounds;
            let mut sim =
                NetworkSimulator::new(pair.das.clone(), config).with_traffic_kind(traffic);
            sim.run();
            sim
        };
        // On/off backlog is a pure function of (seed, client, round).
        let mut backlogged = Vec::new();
        let mut idle_at_a_txop = 0;
        let mut before = after(0).drr;
        for round in 0..12 {
            let sim = after(round + 1);
            let ws = &sim.workspace;
            let mut expected = before.clone();
            for t in &ws.transmissions[..ws.live] {
                let own = &ws.own_clients[t.ap_id];
                traffic.backlogged_into(5, own, round, &mut backlogged);
                idle_at_a_txop += own.len() - backlogged.len();
                let served: Vec<usize> =
                    t.clients.iter().map(|&g| ws.local_of[g] as usize).collect();
                let credited: Vec<usize> = backlogged
                    .iter()
                    .copied()
                    .filter(|l| !served.contains(l))
                    .collect();
                expected[t.ap_id].update_after_txop(&served, &credited, DEFAULT_TXOP_US);
            }
            assert_eq!(sim.drr, expected, "round {round}");
            before = sim.drr;
        }
        assert!(idle_at_a_txop > 0, "no transmitting AP had an idle client");
    }

    /// The on/off pattern follows the client through handoffs: every round,
    /// each transmitting AP's backlog is exactly the own clients whose
    /// pattern, asked for alone, is on — wherever roaming has moved them in
    /// the own-client lists.
    #[test]
    fn on_off_backlog_follows_the_client_through_handoffs() {
        let scenario = crate::scale::Scenario::enterprise_office(8);
        let traffic = TrafficKind::OnOff {
            duty: 0.4,
            mean_burst_rounds: 2.0,
        };
        let seed = 7;
        let on = |client: usize, round: usize| {
            let mut out = Vec::new();
            traffic.backlogged_into(seed, &[client], round, &mut out);
            out == [0]
        };
        let (mut slots, mut handoffs) = (0, 0);
        for round in 0..12 {
            // A run of `round + 1` rounds leaves the workspace holding the
            // own-client lists and slots its last round planned with.
            let mut config = scenario.sim_config(MacKind::Midas, round + 1, seed);
            config.dynamics = Some(DynamicsSpec::roaming_walk(300.0));
            let topo = scenario.build(seed).expect("buildable scenario").das;
            let mut sim = NetworkSimulator::new(topo, config).with_traffic_kind(traffic);
            sim.run();
            handoffs = sim.dynamics_stats().expect("dynamics are on").1;
            let ws = &sim.workspace;
            for t in &ws.transmissions[..ws.live] {
                let own = &ws.own_clients[t.ap_id];
                let listed: Vec<usize> = t.backlogged.iter().map(|&l| own[l]).collect();
                let expected: Vec<usize> = own.iter().copied().filter(|&c| on(c, round)).collect();
                assert_eq!(listed, expected, "round {round}, AP {}", t.ap_id);
                slots += 1;
            }
        }
        assert!(slots > 0, "no AP transmitted");
        assert!(handoffs > 0, "no client handed off");
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

    /// Each round's transmitting APs, in grant order, and each one's
    /// stream count.
    #[derive(Default)]
    struct OnAir(Vec<Vec<(usize, usize)>>);

    impl Observer for OnAir {
        fn on_round(&mut self, record: &RoundRecord<'_>) {
            let streams = |ap: usize| record.deliveries.iter().filter(|d| d.1 == ap).count();
            let aps = record.transmitting_aps.iter();
            self.0.push(aps.map(|&ap| (ap, streams(ap))).collect());
        }
    }

    /// Two CAS APs that sense each other both ways share a domain, and
    /// never transmit together.  A CAS AP transmits only if none of its
    /// antennas hears the energy already on the air, which is at least any
    /// one on-air antenna's, so the later of two co-transmitting APs heard
    /// no antenna of the earlier.  Hearing one way only is possible: the
    /// shadowing field is not reciprocal.  And no AP sends more streams
    /// than its 4 antennas.
    #[test]
    fn cas_never_exceeds_one_active_ap_in_a_shared_domain() {
        let env = Environment::office_a();
        let mut pair_rounds = 0;
        for seed in 0..32 {
            let topo = three_ap_pair(seed).cas;
            let config = NetworkSimConfig::cas(env, seed);
            // The simulator's own sensing field.
            let graph = config
                .contention
                .sensing_graph(config.env, config.seed ^ 0x5151);
            let cutoff = config.interaction_range_m;
            let hears = |from: usize, to: usize| {
                topo.aps[from].antennas.iter().any(|tx| {
                    topo.aps[to]
                        .antennas
                        .iter()
                        .any(|rx| tx.distance(rx) <= cutoff && graph.can_sense(tx, rx))
                })
            };
            let n = topo.aps.len();
            let mutual: Vec<Vec<bool>> = (0..n)
                .map(|a| (0..n).map(|b| hears(a, b) && hears(b, a)).collect())
                .collect();
            let mut on_air = OnAir::default();
            NetworkSimulator::new(topo, config).run_with(&mut on_air);
            for round in &on_air.0 {
                for (i, &(a, streams)) in round.iter().enumerate() {
                    assert!(streams <= 4, "seed {seed}: AP {a} sent {streams} streams");
                    for &(b, _) in &round[i + 1..] {
                        assert!(
                            !mutual[a][b],
                            "seed {seed}: APs {a} and {b} sense each other"
                        );
                        pair_rounds += 1;
                    }
                }
            }
        }
        assert!(pair_rounds > 0, "no two CAS APs ever co-transmitted");
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

    /// `(mean, standard error of the mean)` of a sample.
    fn mean_and_se(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    }

    /// The catch-up the fading stage applies is the exact k-step
    /// Gauss–Markov transition: over 10⁴ keyed rows, a lag of k rounds
    /// leaves unit power and lag correlation ρᵏ, each within 4 standard
    /// errors.
    #[test]
    fn a_skip_ahead_catch_up_is_the_exact_k_step_transition() {
        const ROWS: usize = 10_000;
        let env = Environment::office_a();
        let mut model = ChannelModel::new(env, 17);
        let antenna = [Point::new(0.0, 0.0)];
        let positions: Vec<Point> = (0..ROWS)
            .map(|i| Point::new(2.0 + (i % 100) as f64 * 0.3, 2.0 + (i / 100) as f64 * 0.3))
            .collect();
        let start = model.realize_positions(&antenna, &positions);
        let unit = |ch: &ChannelMatrix, row: usize| {
            ch.h.get(row, 0).scale(1.0 / ch.large_scale.get(row, 0))
        };
        let rho = model.step_correlation(DEFAULT_TXOP_US as f64 * 1e-6);
        let mut pairs = Vec::new();
        for k in [1u64, 2, 5, 17] {
            let mut apch = ApChannel {
                ch: start.clone(),
                clients: (0..ROWS as u32).collect(),
                rows: (0..ROWS as u32).collect(),
                next_round: vec![0; ROWS],
            };
            // Every row last absorbed no round; reading it at round k − 1
            // catches it up over k of them.
            let through = k - 1;
            let mut work = FadingCounters::default();
            for row in 0..ROWS {
                apch.catch_up_row(&model, 0, row, row, through, rho, &mut pairs, &mut work);
            }
            let one_step_each = FadingCounters {
                rows_caught_up: ROWS,
                gaussian_pairs: ROWS,
            };
            assert_eq!(work, one_step_each, "lag {k}");
            assert!(apch.next_round.iter().all(|&b| b == through + 1));
            // The bookmark moved past the keyed round: reading the row
            // again before the next one draws nothing.
            apch.catch_up_row(&model, 0, 0, 0, through, rho, &mut pairs, &mut work);
            assert_eq!(work, one_step_each);

            let power: Vec<f64> = (0..ROWS).map(|r| unit(&apch.ch, r).norm_sqr()).collect();
            let lagged: Vec<f64> = (0..ROWS)
                .map(|r| (unit(&apch.ch, r) * unit(&start, r).conj()).re)
                .collect();
            let rho_k = rho.powi(k as i32);
            let (p, p_se) = mean_and_se(&power);
            let (c, c_se) = mean_and_se(&lagged);
            assert!(
                (p - 1.0).abs() <= 4.0 * p_se,
                "lag {k}: power {p:.4} ± {p_se:.4}"
            );
            assert!(
                (c - rho_k).abs() <= 4.0 * c_se,
                "lag {k}: correlation {c:.4} ± {c_se:.4}, ρᵏ = {rho_k:.4}"
            );
        }
    }

    /// With dynamics on, every row a round reads — and every own row of an
    /// AP whose tags that round's dynamics step rebuilt — carries its
    /// client's current large-scale gains, bit-equal to
    /// `refresh_large_scale_row` at the client's position.
    #[test]
    fn rows_a_round_reads_carry_their_clients_current_gains() {
        let scenario = crate::scale::Scenario::enterprise_office(8);
        let mut checked = 0;
        for range in [20.0, f64::INFINITY] {
            for mac in [MacKind::Midas, MacKind::Cas] {
                // A run of `rounds` rounds leaves the workspace holding
                // its last round's reads and tag rebuilds.
                for rounds in 1..=8 {
                    let pair = scenario.build(3).expect("buildable scenario");
                    let topo = match mac {
                        MacKind::Midas => pair.das,
                        MacKind::Cas => pair.cas,
                    };
                    let mut config = scenario.sim_config(mac, rounds, 3);
                    config.interaction_range_m = range;
                    config.dynamics = Some(DynamicsSpec::roaming_walk(300.0));
                    let mut sim = NetworkSimulator::new(topo, config);
                    sim.run();
                    let ws = &sim.workspace;
                    let rebuilt = |ap: usize| {
                        ws.dirty_tags.get(ap).copied().unwrap_or(false)
                            || ws.dirty_membership.get(ap).copied().unwrap_or(false)
                    };
                    let own_rows = (0..sim.topo.aps.len())
                        .filter(|&ap| rebuilt(ap))
                        .flat_map(|ap| ws.own_clients[ap].iter().map(move |&c| (ap, c)));
                    // The rows the last round read: each stream's serving
                    // row and its row at every other interfering AP.
                    let live = &ws.transmissions[..ws.live];
                    let mut read = Vec::new();
                    let mut s = 0;
                    for (tx_idx, t) in live.iter().enumerate() {
                        for &c in &t.clients {
                            read.push((t.ap_id, c));
                            let (lo, hi) = (ws.stream_bounds[s], ws.stream_bounds[s + 1]);
                            let others = ws.stream_interferers[lo..hi]
                                .iter()
                                .filter(|&&o| o != tx_idx);
                            read.extend(others.map(|&o| (live[o].ap_id, c)));
                            s += 1;
                        }
                    }
                    for (ap, c) in read.into_iter().chain(own_rows) {
                        let apch = &sim.channels[ap];
                        let antennas = &sim.topo.aps[ap].antennas;
                        let all: Vec<usize> = (0..antennas.len()).collect();
                        let mut expected = apch.ch.select(&[apch.row(c)], &all);
                        let position = sim.topo.clients[c].position;
                        sim.model
                            .refresh_large_scale_row(&mut expected, 0, antennas, &position);
                        let bits = |g: &[f64]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(apch.ch.large_scale.row(apch.row(c))),
                            bits(expected.large_scale.row(0)),
                            "range {range}, {mac:?}, round {}: AP {ap}, client {c}",
                            rounds - 1
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "only {checked} rows checked");
    }

    /// The pull-path fold sensing used before the table, kept as its
    /// oracle: the power at `antenna` from the on-air positions within
    /// `cutoff_m`, summed in activation order from 0.0; `None` when none is
    /// in range.
    fn oracle_sensed_mw(
        graph: &ContentionGraph,
        antenna: &Point,
        on_air: &[Point],
        cutoff_m: f64,
    ) -> Option<f64> {
        let mut total_mw = 0.0;
        let mut heard = false;
        for tx in on_air.iter().filter(|tx| tx.distance(antenna) <= cutoff_m) {
            heard = true;
            total_mw += graph.rx_mw(tx, antenna);
        }
        heard.then_some(total_mw)
    }

    /// The sensing table against its oracle.  Over random access orders and
    /// claim sets, on the 8-AP paper floor at infinite range and the 64-AP
    /// enterprise floor at its range, under Graph and calibrated Physical
    /// contention, MIDAS and CAS: every decision equals `detects` on the
    /// oracle's fold, and a second table fed the same lists folds every
    /// total bit-equal to the oracle, on first read and on cached reads
    /// alike.  The first table's counters count its decisions alone: the
    /// oracle's rows, pushes and decisions exactly, at most one evaluation
    /// per pair read, and at most one read more than the list per decision.
    #[test]
    fn the_sensing_table_matches_a_fold_over_the_antennas_on_the_air() {
        let paper_env = Environment::office_a();
        let enterprise = crate::scale::Scenario::enterprise_office(64);
        let mut floors = Vec::new();
        for seed in [1, 2] {
            let mut rng = SimRng::new(seed);
            let cfg = crate::deployment::paper_das_config(&paper_env, 4, 4);
            let pair = PairedTopology::eight_ap(&cfg, &paper_env, &mut rng);
            floors.push((pair, NetworkSimConfig::midas(paper_env, seed)));
            let pair = enterprise.build(seed).expect("buildable scenario");
            floors.push((pair, enterprise.sim_config(MacKind::Midas, 1, seed)));
        }
        let (mut decisions_checked, mut evaluated, mut pairs_read) = (0, 0, 0);
        for (pair, base) in &floors {
            let cutoff = base.interaction_range_m;
            for contention in [
                ContentionModel::Graph,
                ContentionModel::physical_calibrated(),
            ] {
                for mac in [MacKind::Midas, MacKind::Cas] {
                    let topo = match mac {
                        MacKind::Midas => &pair.das,
                        MacKind::Cas => &pair.cas,
                    };
                    let config = NetworkSimConfig {
                        mac,
                        contention,
                        ..*base
                    };
                    let graph = contention.sensing_graph(config.env, config.seed ^ 0x5151);
                    let mut table = SensingTable::new(topo, graph.clone(), cutoff);
                    let mut totals = SensingTable::new(topo, graph.clone(), cutoff);
                    let aps = topo.aps.len();
                    let first: Vec<usize> = topo
                        .aps
                        .iter()
                        .scan(0, |next, ap| {
                            let id = *next;
                            *next += ap.antennas.len();
                            Some(id)
                        })
                        .collect();
                    let antennas = first[aps - 1] + topo.aps[aps - 1].antennas.len();
                    let mut lists = SenseLists::new(aps, antennas);
                    let mut rng = SimRng::new(config.seed).fork(0x5E);
                    let mut expected = SensingCounters::default();
                    let mut read = std::collections::BTreeSet::new();
                    let mut built = vec![false; antennas];
                    let mut most_reads = 0;
                    for _round in 0..4 {
                        let mut order: Vec<usize> = (0..aps).collect();
                        rng.shuffle(&mut order);
                        lists.begin_round(&order);
                        let mut turn = vec![0; aps];
                        for (position, &ap) in order.iter().enumerate() {
                            turn[ap] = position;
                        }
                        // Global ids and positions on the air, in
                        // activation order.
                        let mut on_air: Vec<(usize, Point)> = Vec::new();
                        for &ap in &order {
                            if rng.uniform() < 0.15 {
                                continue; // nothing queued: no sensing, no claim
                            }
                            let ants = &topo.aps[ap].antennas;
                            for (k, antenna) in ants.iter().enumerate() {
                                let b = first[ap] + k;
                                let points: Vec<Point> = on_air.iter().map(|&(_, p)| p).collect();
                                let want = oracle_sensed_mw(&graph, antenna, &points, cutoff);
                                let mut listed = 0;
                                for &(a, p) in &on_air {
                                    if p.distance(antenna) <= cutoff {
                                        read.insert((a, b));
                                        listed += 1;
                                    }
                                }
                                most_reads += listed + usize::from(listed > 0);
                                let busy = table.senses(b, &lists);
                                expected.decisions += 1;
                                assert_eq!(busy, want.is_some_and(|t| graph.detects(t)));
                                assert_eq!(
                                    totals.sensed_mw(b, &lists).map(f64::to_bits),
                                    want.map(f64::to_bits),
                                    "{contention:?} {mac:?}: AP {ap} antenna {k}"
                                );
                                decisions_checked += 1;
                                if busy && mac == MacKind::Cas {
                                    break;
                                }
                            }
                            let claim: Vec<usize> = match mac {
                                MacKind::Midas => {
                                    (0..ants.len()).filter(|_| rng.uniform() < 0.5).collect()
                                }
                                MacKind::Cas if rng.uniform() < 0.5 => (0..ants.len()).collect(),
                                MacKind::Cas => Vec::new(),
                            };
                            for k in claim {
                                let a = first[ap] + k;
                                table.go_on_air(a, &mut lists);
                                totals.build_row(a);
                                expected.rows_built += usize::from(!built[a]);
                                built[a] = true;
                                expected.pushes += (0..aps)
                                    .filter(|&other| turn[other] > turn[ap])
                                    .flat_map(|other| topo.aps[other].antennas.iter())
                                    .filter(|b| b.distance(&ants[k]) <= cutoff)
                                    .count();
                                on_air.push((a, ants[k]));
                            }
                        }
                    }
                    let work = table.counters;
                    let label = format!("{contention:?} {mac:?}: {work:?}");
                    assert_eq!(
                        (work.rows_built, work.pushes, work.decisions),
                        (expected.rows_built, expected.pushes, expected.decisions),
                        "{label}"
                    );
                    assert!(work.powers_evaluated <= read.len(), "{label}");
                    assert!(work.powers_evaluated <= work.reads, "{label}");
                    assert!(work.reads <= most_reads, "{label}: {most_reads}");
                    assert_eq!(totals.counters.powers_evaluated, read.len(), "{label}");
                    evaluated += work.powers_evaluated;
                    pairs_read += read.len();
                }
            }
        }
        assert!(
            decisions_checked > 5000,
            "only {decisions_checked} decisions"
        );
        assert!(
            evaluated < pairs_read,
            "the stop rule saved nothing: {evaluated} of {pairs_read} pairs evaluated"
        );
    }

    /// Non-empty sensing lists as the round loop builds them, without a
    /// table: over `rounds` random access orders, each AP with traffic
    /// (85 %) records, for each of its antennas, the on-air antennas of
    /// other APs within `cutoff` in activation order, then claims a random
    /// half of its antennas (MIDAS) or all or none (CAS).
    fn recorded_sense_lists(
        topo: &Topology,
        mac: MacKind,
        cutoff: f64,
        seed: u64,
        rounds: usize,
    ) -> Vec<(usize, Vec<usize>)> {
        let positions: Vec<Point> = topo
            .aps
            .iter()
            .flat_map(|ap| ap.antennas.iter().copied())
            .collect();
        let (mut first, mut next) = (Vec::new(), 0);
        for ap in &topo.aps {
            first.push(next);
            next += ap.antennas.len();
        }
        let mut rng = SimRng::new(seed).fork(0x5E);
        let mut recorded = Vec::new();
        for _ in 0..rounds {
            let mut order: Vec<usize> = (0..topo.aps.len()).collect();
            rng.shuffle(&mut order);
            let mut on_air: Vec<usize> = Vec::new();
            for &ap in &order {
                if rng.uniform() < 0.15 {
                    continue;
                }
                let n = topo.aps[ap].antennas.len();
                for b in first[ap]..first[ap] + n {
                    let list: Vec<usize> = on_air
                        .iter()
                        .copied()
                        .filter(|&a| positions[a].distance(&positions[b]) <= cutoff)
                        .collect();
                    if !list.is_empty() {
                        recorded.push((b, list));
                    }
                }
                let claim: Vec<usize> = match mac {
                    MacKind::Midas => (0..n).filter(|_| rng.uniform() < 0.5).collect(),
                    MacKind::Cas if rng.uniform() < 0.5 => (0..n).collect(),
                    MacKind::Cas => Vec::new(),
                };
                on_air.extend(claim.into_iter().map(|k| first[ap] + k));
            }
        }
        recorded
    }

    /// The stop rule at its edges.  Sensing lists recorded on the 8-AP
    /// paper floor (infinite range) and the 64-AP enterprise floor (its
    /// range), for MIDAS and CAS under Graph and calibrated Physical
    /// contention, are replayed on tables whose threshold (set through
    /// `Environment::carrier_sense_dbm` or `PhysicalConfig::cs_threshold_dbm`)
    /// sits at each list's full fold `T` in dBm, at `T·(1 ± BUSY_BAND)`,
    /// where the probe's power alone meets the stop bound, and 1, 2 and 4
    /// ulps either side of each: `senses` equals `detects(T)` every time.
    #[test]
    fn an_early_stopped_decision_equals_the_full_fold_at_every_threshold() {
        let paper_env = Environment::office_a();
        let mut rng = SimRng::new(3);
        let cfg = crate::deployment::paper_das_config(&paper_env, 4, 4);
        let paper = PairedTopology::eight_ap(&cfg, &paper_env, &mut rng);
        let enterprise = crate::scale::Scenario::enterprise_office(64);
        let office = enterprise.build(3).expect("buildable scenario");
        let floors = [
            (paper, NetworkSimConfig::midas(paper_env, 3), 4),
            (office, enterprise.sim_config(MacKind::Midas, 1, 3), 1),
        ];
        let (mut checks, mut probed, mut stopped, mut idle) = (0, 0, 0, 0);
        for (pair, base, rounds) in &floors {
            let (env, cutoff, seed) = (base.env, base.interaction_range_m, base.seed ^ 0x5151);
            for contention in [
                ContentionModel::Graph,
                ContentionModel::physical_calibrated(),
            ] {
                let graph_at = |threshold_dbm: f64| match contention {
                    ContentionModel::Graph => ContentionModel::Graph.sensing_graph(
                        Environment {
                            carrier_sense_dbm: threshold_dbm,
                            ..env
                        },
                        seed,
                    ),
                    ContentionModel::Physical(p) => ContentionModel::Physical(PhysicalConfig {
                        cs_threshold_dbm: threshold_dbm,
                        ..p
                    })
                    .sensing_graph(env, seed),
                };
                let graph = contention.sensing_graph(env, seed);
                for mac in [MacKind::Midas, MacKind::Cas] {
                    let topo = match mac {
                        MacKind::Midas => &pair.das,
                        MacKind::Cas => &pair.cas,
                    };
                    let positions: Vec<Point> = topo
                        .aps
                        .iter()
                        .flat_map(|ap| ap.antennas.iter().copied())
                        .collect();
                    for (b, list) in recorded_sense_lists(topo, mac, cutoff, base.seed, *rounds) {
                        let at = positions[b];
                        let total_mw = list
                            .iter()
                            .fold(0.0, |total, &a| total + graph.rx_mw(&positions[a], &at));
                        let nearest = *list
                            .iter()
                            .min_by(|&&x, &&y| {
                                let d2 = |a: usize| squared_distance(&positions[a], &at);
                                d2(x).total_cmp(&d2(y))
                            })
                            .expect("a recorded list is not empty");
                        let probe_mw = graph.rx_mw(&positions[nearest], &at);
                        let centres = [
                            mw_to_dbm(total_mw),
                            mw_to_dbm(total_mw * (1.0 + BUSY_BAND)),
                            mw_to_dbm(total_mw * (1.0 - BUSY_BAND)),
                            mw_to_dbm(probe_mw / (1.0 + BUSY_BAND)),
                        ];
                        for centre in centres {
                            for ulps in [0, -1, 1, -2, 2, -4, 4] {
                                let threshold_dbm = nudge(centre, ulps);
                                let graph = graph_at(threshold_dbm);
                                assert_eq!(graph.threshold_dbm(), threshold_dbm);
                                let want = graph.detects(total_mw);
                                let mut table = SensingTable::new(topo, graph, cutoff);
                                let mut lists = SenseLists::new(topo.aps.len(), positions.len());
                                for &a in &list {
                                    table.build_row(a);
                                    let row = table.rows[a].as_ref().expect("built");
                                    let entry = row.targets.iter().position(|&t| t as usize == b);
                                    let entry = entry.expect("a listed antenna is in range");
                                    lists.append(b as u32, a as u32, entry as u32);
                                }
                                let busy = table.senses(b, &lists);
                                assert_eq!(
                                    busy,
                                    want,
                                    "{contention:?} {mac:?}: antenna {b}, {} entries, \
                                     threshold {threshold_dbm} dBm, T {total_mw} mW",
                                    list.len()
                                );
                                let reads = table.counters.reads;
                                probed += usize::from(busy && reads == 1);
                                stopped += usize::from(busy && reads > 1 && reads <= list.len());
                                idle += usize::from(!busy);
                                checks += 1;
                                assert_eq!(
                                    table.sensed_mw(b, &lists).map(f64::to_bits),
                                    Some(total_mw.to_bits()),
                                    "the replayed list folds to T"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(checks > 10_000, "only {checks} thresholds checked");
        assert!(
            probed > 0 && stopped > 0 && idle > 0,
            "{probed} probe-decided, {stopped} fold-stopped, {idle} idle of {checks}"
        );
    }

    /// Sensing-table rows found through the spatial index equal the rows a
    /// linear scan finds, as sets and without duplicates: the antennas of
    /// other APs within range.
    #[test]
    fn sensing_rows_through_the_index_equal_brute_force_rows() {
        let scenario = crate::scale::Scenario::enterprise_office(64);
        let pair = scenario.build(5).expect("buildable scenario");
        let base = scenario.sim_config(MacKind::Midas, 1, 5);
        let antennas: Vec<(usize, Point)> = pair
            .das
            .aps
            .iter()
            .flat_map(|ap| ap.antennas.iter().map(move |&p| (ap.ap_id, p)))
            .collect();
        for cutoff in [base.interaction_range_m, 25.0] {
            let graph = base.contention.sensing_graph(base.env, 5);
            let mut table = SensingTable::new(&pair.das, graph, cutoff);
            assert!(table.index.is_some(), "a finite range builds the index");
            let mut entries = 0;
            for (a, &(own, at)) in antennas.iter().enumerate() {
                table.build_row(a);
                let brute: Vec<u32> = (0..antennas.len())
                    .filter(|&b| antennas[b].0 != own && antennas[b].1.distance(&at) <= cutoff)
                    .map(|b| b as u32)
                    .collect();
                let row = table.rows[a].as_ref().expect("built");
                let mut targets = row.targets.to_vec();
                targets.sort_unstable();
                targets.dedup();
                assert_eq!(targets.len(), row.targets.len(), "antenna {a}: a duplicate");
                assert_eq!(targets, brute, "cutoff {cutoff}, antenna {a}");
                entries += brute.len();
            }
            assert!(entries > 1000, "cutoff {cutoff}: {entries} entries");
        }
    }

    /// The gather stage's interferer lists against a brute-force oracle.
    /// After runs of 1 to 8 rounds, every stream of the last round lists
    /// exactly the live transmissions with an on-air antenna within range
    /// of its client, in ascending transmission order — on an office floor
    /// at its own range and at 20 m and on an apartment floor, under MIDAS
    /// and CAS, Graph and calibrated Physical contention, with dynamics
    /// off and with fast roaming walkers.
    #[test]
    fn gathered_interferers_equal_a_brute_force_scan() {
        let office = crate::scale::Scenario::enterprise_office(8);
        let apartment = crate::scale::Scenario::dense_apartment(8);
        let (mut streams, mut listed) = (0, 0);
        for (scenario, range) in [(office, None), (office, Some(20.0)), (apartment, None)] {
            for mac in [MacKind::Midas, MacKind::Cas] {
                for contention in [
                    ContentionModel::Graph,
                    ContentionModel::physical_calibrated(),
                ] {
                    for dynamics in [None, Some(DynamicsSpec::roaming_walk(300.0))] {
                        for rounds in 1..=8 {
                            let pair = scenario.build(3).expect("buildable scenario");
                            let topo = match mac {
                                MacKind::Midas => pair.das,
                                MacKind::Cas => pair.cas,
                            };
                            let mut config = scenario.sim_config(mac, rounds, 3);
                            config.interaction_range_m =
                                range.unwrap_or(config.interaction_range_m);
                            config.contention = contention;
                            config.dynamics = dynamics;
                            let cutoff = config.interaction_range_m;
                            let mut sim = NetworkSimulator::new(topo, config);
                            sim.run();
                            let ws = &sim.workspace;
                            assert!(
                                ws.interferer_index.is_some(),
                                "a finite range uses the index"
                            );
                            let live = &ws.transmissions[..ws.live];
                            let mut s = 0;
                            for t in live {
                                for &client in &t.clients {
                                    let at = &sim.topo.clients[client].position;
                                    let oracle: Vec<usize> = (0..live.len())
                                        .filter(|&o| {
                                            let antennas = &sim.topo.aps[live[o].ap_id].antennas;
                                            live[o]
                                                .antenna_idx
                                                .iter()
                                                .any(|&k| antennas[k].distance(at) <= cutoff)
                                        })
                                        .collect();
                                    let bounds = &ws.stream_bounds;
                                    assert_eq!(
                                        &ws.stream_interferers[bounds[s]..bounds[s + 1]],
                                        &oracle[..],
                                        "{} at {cutoff} m, {mac:?}, {contention:?}, \
                                         dynamics {}, round {}: client {client}",
                                        scenario.name(),
                                        dynamics.is_some(),
                                        rounds - 1
                                    );
                                    listed += oracle.len();
                                    s += 1;
                                }
                            }
                            assert_eq!(ws.stream_bounds.len(), s + 1);
                            streams += s;
                        }
                    }
                }
            }
        }
        assert!(streams > 1000, "only {streams} streams checked");
        assert!(
            listed > 2 * streams,
            "{listed} interferers over {streams} streams"
        );
    }

    fn simulator_with_range(range: f64) -> NetworkSimulator {
        let pair = three_ap_pair(1);
        let mut config = NetworkSimConfig::midas(Environment::office_a(), 1);
        config.interaction_range_m = range;
        NetworkSimulator::new(pair.das, config)
    }

    #[test]
    #[should_panic(expected = "interaction_range_m")]
    fn a_nan_interaction_range_fails_at_construction() {
        simulator_with_range(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "interaction_range_m")]
    fn a_negative_interaction_range_fails_at_construction() {
        simulator_with_range(-1.0);
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

    /// One round record, bit for bit: the round, its deliveries with the
    /// capacity's bits, the transmitting APs and the stream count.
    type LoggedRound = (usize, Vec<(usize, usize, u64)>, Vec<usize>, usize);

    /// Every round of one run.
    #[derive(Default)]
    struct RoundLog(Vec<LoggedRound>);

    impl Observer for RoundLog {
        fn on_round(&mut self, record: &RoundRecord<'_>) {
            let deliveries = record
                .deliveries
                .iter()
                .map(|&(c, ap, cap)| (c, ap, cap.to_bits()))
                .collect();
            self.0.push((
                record.round,
                deliveries,
                record.transmitting_aps.to_vec(),
                record.streams,
            ));
        }
    }

    /// Set-up on 1, 2 and 3 threads, with the size gate forced open, builds
    /// the same simulator: every round record and every fading and sensing
    /// counter agree, on the 16-AP office at its finite range (static and
    /// walking) and on the paper's 8-AP floor at infinite range, under
    /// MIDAS and CAS.
    #[test]
    fn set_up_is_bit_identical_at_any_thread_count() {
        let office = crate::scale::Scenario::enterprise_office(16);
        let paper_env = Environment::office_a();
        let paper_cfg = crate::deployment::paper_das_config(&paper_env, 4, 4);
        let paper = PairedTopology::eight_ap(&paper_cfg, &paper_env, &mut SimRng::new(3));
        let office_pair = office.build(3).expect("buildable scenario");
        let rounds = 10;
        let mut checked = 0;
        for mac in [MacKind::Midas, MacKind::Cas] {
            let pick = |pair: &PairedTopology| match mac {
                MacKind::Midas => pair.das.clone(),
                MacKind::Cas => pair.cas.clone(),
            };
            let static_office = office.sim_config(mac, rounds, 3);
            assert!(static_office.interaction_range_m.is_finite());
            let walking_office = NetworkSimConfig {
                dynamics: Some(DynamicsSpec::roaming_walk(1.4)),
                ..static_office
            };
            let paper_config = NetworkSimConfig {
                rounds,
                ..match mac {
                    MacKind::Midas => NetworkSimConfig::midas(paper_env, 3),
                    MacKind::Cas => NetworkSimConfig::cas(paper_env, 3),
                }
            };
            assert!(paper_config.interaction_range_m.is_infinite());
            for (topo, config) in [
                (pick(&office_pair), static_office),
                (pick(&office_pair), walking_office),
                (pick(&paper), paper_config),
            ] {
                let run = |threads: usize| {
                    let mut sim = NetworkSimulator::build(topo.clone(), config, threads, 0.0);
                    let mut log = RoundLog::default();
                    sim.run_with(&mut log);
                    (log.0, sim.fading_counters(), sim.sensing_counters())
                };
                let one = run(1);
                assert_eq!(one.0.len(), rounds);
                for threads in [2, 3] {
                    assert!(run(threads) == one, "{mac:?}, {threads} threads");
                }
                checked += 1;
            }
        }
        assert_eq!(checked, 6);
    }
}
