//! Downlink channel matrix generation and link-budget computations.
//!
//! The composite complex gain of the link from AP antenna `k` to client `j`
//! is modelled as
//!
//! ```text
//! h_jk = g_jk * f_jk,
//! g_jk = 10^(-(PL(d_jk) + X_jk) / 20)      (large-scale amplitude gain)
//! f_jk ~ Rayleigh or Rician, unit power    (small-scale fading)
//! ```
//!
//! where `PL` is the log-distance path loss, `X` the per-link log-normal
//! shadowing and `d_jk` the antenna-to-client distance.  Received power for a
//! transmit power `P` is then `P * |h_jk|^2`, which is the convention the
//! SINR expressions of the paper (Eqn. 4) assume.
//!
//! The "average received signal strength from the different antennas" that
//! drives MIDAS's virtual packet tagging (§3.2.4) is the large-scale part
//! only (`g_jk`), because fading averages out over the measurement window.

use crate::environment::Environment;
use crate::fading;
use crate::geometry::Point;
use crate::rng::{CounterRng, SimRng};
use crate::topology::{Client, Deployment};
use crate::{dbm_to_mw, mw_to_dbm};
use midas_linalg::{CMat, Complex, FMat};

/// A channel realisation between one AP's antennas and a set of clients.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelMatrix {
    /// Composite complex amplitude gains, `clients × antennas`.
    pub h: CMat,
    /// Large-scale amplitude gains (path loss + shadowing, no fading),
    /// `clients × antennas`, linear amplitude (not dB).  Stored flat
    /// (structure-of-arrays) so per-client rows are contiguous slices.
    pub large_scale: FMat,
    /// Per-antenna transmit power constraint, mW.
    pub tx_power_mw: f64,
    /// Noise power, mW.
    pub noise_mw: f64,
}

impl ChannelMatrix {
    /// Number of clients (rows).
    pub fn num_clients(&self) -> usize {
        self.h.rows()
    }

    /// Number of AP antennas (columns).
    pub fn num_antennas(&self) -> usize {
        self.h.cols()
    }

    /// Mean (large-scale) received power in dBm at client `j` from antenna `k`
    /// when that antenna transmits at the per-antenna power.
    pub fn mean_rssi_dbm(&self, client: usize, antenna: usize) -> f64 {
        let g = self.large_scale.get(client, antenna);
        mw_to_dbm(self.tx_power_mw * g * g)
    }

    /// Instantaneous SNR in dB of the SISO link client `j` ← antenna `k`
    /// (single antenna transmitting at full per-antenna power).
    pub fn siso_snr_db(&self, client: usize, antenna: usize) -> f64 {
        let p_rx = self.tx_power_mw * self.h.get(client, antenna).norm_sqr();
        10.0 * (p_rx / self.noise_mw).log10()
    }

    /// Zeroes client row `row` — composite and large-scale gains alike — so
    /// the slot carries no channel: evolution leaves zero-gain links at
    /// zero.
    pub fn zero_row(&mut self, row: usize) {
        self.h.row_mut(row).fill(Complex::ZERO);
        self.large_scale.row_mut(row).fill(0.0);
    }

    /// Bytes of heap the realisation retains: the capacities of its
    /// composite and large-scale gain buffers (16 + 8 bytes per link).
    pub fn heap_footprint_bytes(&self) -> usize {
        self.h.heap_footprint_bytes() + self.large_scale.heap_footprint_bytes()
    }

    /// Restricts the realisation to a subset of clients and antennas
    /// (in the given order).
    pub fn select(&self, clients: &[usize], antennas: &[usize]) -> ChannelMatrix {
        let h = self.h.select(clients, antennas);
        let large_scale = self.large_scale.select(clients, antennas);
        ChannelMatrix {
            h,
            large_scale,
            tx_power_mw: self.tx_power_mw,
            noise_mw: self.noise_mw,
        }
    }
}

/// Decorrelation distance (metres) of small-scale fading across antennas:
/// the fading correlation between two antennas is `exp(-d / this)`.  At
/// half-wavelength CAS spacing (~3 cm) the correlation is ≈ 0.94; at DAS
/// spacings of several metres it is essentially zero.
const FADING_DECORRELATION_M: f64 = 0.5;

/// Lower-triangular Cholesky factor of the antenna fading-correlation matrix
/// `R[k][l] = exp(-d(k, l) / FADING_DECORRELATION_M)`, row-major `n × n`.
fn antenna_correlation_cholesky(antennas: &[Point]) -> Vec<f64> {
    let n = antennas.len();
    let mut r = vec![0.0f64; n * n];
    for k in 0..n {
        for l in 0..n {
            let d = antennas[k].distance(&antennas[l]);
            r[k * n + l] = (-d / FADING_DECORRELATION_M).exp();
        }
        // Tiny diagonal jitter keeps the factorisation stable when antennas
        // coincide exactly.
        r[k * n + k] += 1e-9;
    }
    let mut l_mat = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let dot: f64 = l_mat[i * n..i * n + j]
                .iter()
                .zip(&l_mat[j * n..j * n + j])
                .map(|(a, b)| a * b)
                .sum();
            let sum = r[i * n + j] - dot;
            if i == j {
                l_mat[i * n + j] = sum.max(1e-12).sqrt();
            } else {
                l_mat[i * n + j] = sum / l_mat[j * n + j];
            }
        }
    }
    l_mat
}

/// Spatial grid size (metres) over which shadowing is fully correlated.
///
/// Two transmit positions falling in the same grid cell see the *same*
/// shadowing realisation towards a given receiver cell, so the co-located
/// antennas of a CAS AP share one shadowing value (as they do physically),
/// while DAS antennas several metres apart get independent values.  This is a
/// coarse but standard decorrelation-distance model.
const SHADOWING_CELL_M: f64 = 2.0;

/// Shadowing-grid coordinate of one axis value.
fn shadow_coord(v: f64) -> i64 {
    (v / SHADOWING_CELL_M).round() as i64
}

/// The shadowing-grid cell of a receiver position: towards a fixed
/// transmitter, the frozen field's value depends on the receiver only
/// through this cell.
fn shadow_cell(p: &Point) -> (i64, i64) {
    (shadow_coord(p.x), shadow_coord(p.y))
}

/// Absorbs one grid cell into the frozen field's hash state.  The field
/// hashes the transmit cell first, then the receive cell, so the state
/// after the transmit cell serves every receiver.
fn shadow_mix(mut h: u64, (x, y): (i64, i64)) -> u64 {
    for coord in [x, y] {
        h ^= (coord as u64).wrapping_mul(0x9E3779B97F4A7C15);
        h = h.rotate_left(23).wrapping_mul(0xBF58476D1CE4E5B9);
    }
    h
}

/// The transmit side of one antenna in the frozen shadowing field.
#[derive(Debug, Clone, PartialEq)]
struct TxCell {
    /// The field's hash state after the antenna's transmit cell.
    hash: u64,
    /// The first antenna of the set with the same hash (this one when
    /// none): equal states give the same draw towards every receiver
    /// cell, so the co-located antennas of a CAS array draw once a row.
    first: usize,
}

/// Large-scale amplitude gain from path loss and shadowing in dB.
#[inline]
fn amp_from_db(pl_db: f64, shadow_db: f64) -> f64 {
    10f64.powf(-(pl_db + shadow_db) / 20.0)
}

/// Lane bit marking the keyed stream a row born mid-run draws from, so it
/// can never coincide with an evolution key (AP ids stay far below 2⁶³).
const BIRTH_LANE: u64 = 1 << 63;

/// Where a channel row's random draws come from: the model's sequential
/// stream at set-up, or a keyed [`CounterRng`] stream for a row born
/// mid-run.  Both feed the same draw half of the row routine.
trait RowDraws {
    /// One CN(0, 1) scattered component.
    fn cn01(&mut self) -> Complex;
    /// One uniform phase in `[0, 2π)` (the Rician line-of-sight term).
    fn phase(&mut self) -> f64;
}

impl RowDraws for SimRng {
    fn cn01(&mut self) -> Complex {
        fading::sample_cn01(self)
    }

    fn phase(&mut self) -> f64 {
        self.uniform_range(0.0, 2.0 * std::f64::consts::PI)
    }
}

impl RowDraws for CounterRng {
    fn cn01(&mut self) -> Complex {
        let (re, im) = self.gaussian_pair();
        Complex::new(re, im).scale(std::f64::consts::FRAC_1_SQRT_2)
    }

    fn phase(&mut self) -> f64 {
        2.0 * std::f64::consts::PI * self.uniform()
    }
}

/// The per-AP companion of a [`ChannelMatrix`] that its rows are drawn
/// through: the antennas' fading correlation and transmit shadowing cells
/// and, for a dynamic run, the shadowing memo through which a moving
/// client's row is refreshed cheaply ([`ChannelModel::refresh_row_cached`])
/// or drawn afresh when the client comes into range
/// ([`ChannelModel::birth_row`]).
///
/// Shadowing is constant while a receiver stays inside one
/// `SHADOWING_CELL_M` cell (correlated shadowing in the Gudmundson sense),
/// so each memoised row remembers the cell its shadowing was drawn in and
/// the per-antenna values; a refresh re-derives path loss every time but
/// redraws shadowing only after a cell crossing.
#[derive(Debug, Clone, PartialEq)]
pub struct RowCache {
    /// Lower-triangular Cholesky factor of the AP's antenna fading
    /// correlation, row-major.
    chol: Vec<f64>,
    /// Transmit side of each antenna in the frozen shadowing field.
    tx: Vec<TxCell>,
    /// Receiver shadowing cell of each memoised row when its shadowing
    /// was drawn (empty without the memo).
    cells: Vec<(i64, i64)>,
    /// Per memoised row, per antenna: the shadowing (dB) drawn in that
    /// cell.
    shadow_db: Vec<f64>,
    /// Scattered-component scratch of one row draw.
    z: Vec<Complex>,
    /// Line-of-sight flags of one row (birth scratch).
    los: Vec<bool>,
}

impl RowCache {
    /// Bytes of heap the cache retains (capacities, not lengths).
    pub fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.chol.capacity() * size_of::<f64>()
            + self.tx.capacity() * size_of::<TxCell>()
            + self.cells.capacity() * size_of::<(i64, i64)>()
            + self.shadow_db.capacity() * size_of::<f64>()
            + self.z.capacity() * size_of::<Complex>()
            + self.los.capacity() * size_of::<bool>()
    }
}

/// The pure half of one AP's channel realisation
/// ([`ChannelModel::large_scale_rows`]): each link's large-scale gain and
/// line-of-sight flag, and the [`RowCache`] the rows are drawn through.
/// It reads no random stream, so APs' pure halves may be computed in any
/// order, on any thread; [`ChannelModel::draw_rows`] then draws the
/// fading, in AP order.
#[derive(Debug, Clone)]
pub struct LargeScaleRows {
    /// Large-scale amplitude gains, `clients × antennas`.
    large_scale: FMat,
    /// Whether each link (row-major) lies within the line-of-sight
    /// distance.
    los: Vec<bool>,
    cache: RowCache,
}

/// Stateful channel generator bound to one environment.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    env: Environment,
    rng: SimRng,
    /// Seed of the frozen shadowing field (shared by all links of this model).
    shadow_field_seed: u64,
    /// Seed lane of the keyed fading streams (see
    /// [`ChannelModel::evolve_row`]); derived from the trial seed so
    /// different trials draw independent fading histories.
    fading_seed: u64,
    /// The environment's reference path loss (dB), evaluated once.
    reference_loss_db: f64,
    /// The environment's transmit power (mW), evaluated once.
    tx_power_mw: f64,
}

impl ChannelModel {
    /// Creates a channel model for an environment with a deterministic seed.
    pub fn new(env: Environment, seed: u64) -> Self {
        ChannelModel {
            env,
            rng: SimRng::new(seed).fork(0xC4A77E1),
            shadow_field_seed: seed ^ 0x51AD0_F1E1D,
            fading_seed: seed ^ 0xFAD1_6E55_EED0,
            reference_loss_db: env.path_loss.reference_loss_db(),
            tx_power_mw: dbm_to_mw(env.tx_power_dbm),
        }
    }

    /// Path loss (dB) over `distance_m` — `env.path_loss.path_loss_db`
    /// with the reference loss hoisted out.
    #[inline]
    fn path_loss_db(&self, distance_m: f64) -> f64 {
        self.env
            .path_loss
            .path_loss_db_from(self.reference_loss_db, distance_m)
    }

    /// The environment this model draws from.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Shadowing (dB) of the link `tx -> rx`, drawn from a frozen spatial
    /// field: deterministic in the positions, fully correlated within a
    /// [`SHADOWING_CELL_M`] cell and independent across cells.
    fn shadowing_db(&self, tx: &Point, rx: &Point) -> f64 {
        if self.env.shadowing.sigma_db == 0.0 {
            return 0.0;
        }
        self.shadow_from(self.shadow_tx_hash(tx), shadow_cell(rx))
    }

    /// The frozen field's hash state after the transmit cell of `tx`.
    fn shadow_tx_hash(&self, tx: &Point) -> u64 {
        shadow_mix(self.shadow_field_seed, shadow_cell(tx))
    }

    /// Shadowing (dB) towards receiver cell `rx` of a transmitter whose
    /// field hash state is `tx_hash`.
    fn shadow_from(&self, tx_hash: u64, rx: (i64, i64)) -> f64 {
        let mut link_rng = SimRng::new(shadow_mix(tx_hash, rx));
        link_rng.gaussian_with(0.0, self.env.shadowing.sigma_db)
    }

    /// Shadowing (dB) from every antenna of `tx` to `rx` into `out`: the
    /// receiver cell is found once, and antennas sharing a transmit cell
    /// share one draw.  Each value equals
    /// [`shadowing_db`](Self::shadowing_db) of its link, bit for bit.
    fn shadow_row(&self, tx: &[TxCell], rx: &Point, out: &mut [f64]) {
        if self.env.shadowing.sigma_db == 0.0 {
            out.fill(0.0);
            return;
        }
        let cell = shadow_cell(rx);
        for (k, t) in tx.iter().enumerate() {
            out[k] = if t.first < k {
                out[t.first]
            } else {
                self.shadow_from(t.hash, cell)
            };
        }
    }

    /// The [`RowCache`] of an AP with the given antennas, with room for
    /// `rows` memoised rows.
    fn row_cache(&self, antennas: &[Point], rows: usize) -> RowCache {
        let mut tx: Vec<TxCell> = Vec::with_capacity(antennas.len());
        for (k, a) in antennas.iter().enumerate() {
            let hash = self.shadow_tx_hash(a);
            let first = tx.iter().position(|t| t.hash == hash).unwrap_or(k);
            tx.push(TxCell { hash, first });
        }
        RowCache {
            chol: antenna_correlation_cholesky(antennas),
            tx,
            cells: Vec::with_capacity(rows),
            shadow_db: Vec::with_capacity(rows * antennas.len()),
            z: Vec::with_capacity(antennas.len()),
            los: vec![false; antennas.len()],
        }
    }

    /// Large-scale amplitude gain (path loss + frozen shadowing) for a link.
    fn large_scale_amp(&self, tx: &Point, rx: &Point) -> f64 {
        let pl_db = self.path_loss_db(tx.distance(rx));
        amp_from_db(pl_db, self.shadowing_db(tx, rx))
    }

    /// Small-scale fading coefficient for a link of the given length.
    fn sample_fading(&mut self, distance_m: f64) -> Complex {
        if distance_m <= self.env.los_distance_m {
            self.env.los_fading.sample(&mut self.rng)
        } else {
            self.env.nlos_fading.sample(&mut self.rng)
        }
    }

    /// Deterministic mean received power (dBm) at `rx` from a transmitter at
    /// `tx` using only path loss (no shadowing, no fading).  Used for coarse
    /// range questions where an expectation is wanted.
    pub fn mean_rx_power_dbm(&self, tx: &Point, rx: &Point) -> f64 {
        let pl_db = self.path_loss_db(tx.distance(rx));
        self.env.tx_power_dbm - pl_db
    }

    /// Large-scale received power (dBm) at `rx` from a transmitter at `tx`:
    /// path loss plus the frozen shadowing field, no fading.  This is the
    /// quantity carrier sensing and coverage mapping react to on the
    /// measurement timescale (fading averages out).
    pub fn large_scale_rx_power_dbm(&self, tx: &Point, rx: &Point) -> f64 {
        mw_to_dbm(self.large_scale_rx_power_mw(tx, rx))
    }

    /// [`large_scale_rx_power_dbm`](Self::large_scale_rx_power_dbm) in mW,
    /// without the round trip through dB: what energy detection sums.
    pub fn large_scale_rx_power_mw(&self, tx: &Point, rx: &Point) -> f64 {
        let amp = self.large_scale_amp(tx, rx);
        self.tx_power_mw * amp * amp
    }

    /// One random received-power sample (dBm) at `rx` from a transmitter at
    /// `tx`, including shadowing and fading.  Used for dead-zone and
    /// hidden-terminal maps, which the paper builds from measurements.
    pub fn sample_rx_power_dbm(&mut self, tx: &Point, rx: &Point) -> f64 {
        let d = tx.distance(rx);
        let amp = self.large_scale_amp(tx, rx) * self.sample_fading(d).norm();
        mw_to_dbm(self.tx_power_mw * amp * amp)
    }

    /// Generates a full channel realisation between one AP's antennas and the
    /// given clients.
    pub fn realize(&mut self, ap: &Deployment, clients: &[&Client]) -> ChannelMatrix {
        let positions: Vec<Point> = clients.iter().map(|c| c.position).collect();
        self.realize_positions(&ap.antennas, &positions)
    }

    /// Generates a channel realisation between arbitrary antenna positions and
    /// client positions.
    ///
    /// Small-scale fading is *spatially correlated across antennas*: two
    /// antennas separated by centimetres (a CAS array) see nearly the same
    /// multipath and therefore nearly the same fading towards a given client,
    /// while antennas metres apart (DAS) fade independently.  This is the
    /// channel-conditioning difference the paper's "cell capacity" argument
    /// rests on — a CAS channel matrix is poorly conditioned for MU-MIMO even
    /// though its entries have similar magnitudes.
    pub fn realize_positions(&mut self, antennas: &[Point], clients: &[Point]) -> ChannelMatrix {
        let rows = self.large_scale_rows(antennas, clients, false);
        self.draw_rows(rows).0
    }

    /// The pure half of a realisation between `antennas` and `clients`:
    /// each link's distance, path loss, shadowing, large-scale gain and
    /// line-of-sight flag.  It draws nothing.  With `memo`, the returned
    /// cache also keeps each row's shadowing cell and values, which a
    /// dynamic run refreshes and grows its rows through.
    pub fn large_scale_rows(
        &self,
        antennas: &[Point],
        clients: &[Point],
        memo: bool,
    ) -> LargeScaleRows {
        let (n_c, n_a) = (clients.len(), antennas.len());
        let mut cache = self.row_cache(antennas, if memo { n_c } else { 0 });
        let mut large_scale = FMat::zeros(n_c, n_a);
        let mut los = vec![false; n_c * n_a];
        let mut scratch = Vec::new();
        if memo {
            cache.cells.extend(clients.iter().map(shadow_cell));
            cache.shadow_db.resize(n_c * n_a, 0.0);
        } else {
            scratch.resize(n_a, 0.0);
        }
        for (j, cpos) in clients.iter().enumerate() {
            let shadow = if memo {
                &mut cache.shadow_db[j * n_a..(j + 1) * n_a]
            } else {
                &mut scratch[..]
            };
            self.large_scale_row(
                &cache.tx,
                antennas,
                cpos,
                large_scale.row_mut(j),
                &mut los[j * n_a..(j + 1) * n_a],
                shadow,
            );
        }
        LargeScaleRows {
            large_scale,
            los,
            cache,
        }
    }

    /// The draw half of a realisation: draws every row's fading from the
    /// model's sequential stream, in row order, and returns the channel
    /// with the cache it was drawn through.
    pub fn draw_rows(&mut self, rows: LargeScaleRows) -> (ChannelMatrix, RowCache) {
        let LargeScaleRows {
            large_scale,
            los,
            mut cache,
        } = rows;
        let (n_c, n_a) = (large_scale.rows(), large_scale.cols());
        let mut h = CMat::zeros(n_c, n_a);
        let mut rng = self.rng.clone();
        for j in 0..n_c {
            self.draw_row(
                &mut rng,
                &cache.chol,
                large_scale.row(j),
                &los[j * n_a..(j + 1) * n_a],
                &mut cache.z,
                h.row_mut(j),
            );
        }
        self.rng = rng;
        let channel = ChannelMatrix {
            h,
            large_scale,
            tx_power_mw: self.tx_power_mw,
            noise_mw: dbm_to_mw(self.env.noise_floor_dbm),
        };
        (channel, cache)
    }

    /// The pure half of the row routine every channel row goes through:
    /// each link's large-scale gain and line-of-sight flag towards a
    /// client at `cpos`, with the row's shadowing written to `shadow`.
    fn large_scale_row(
        &self,
        tx: &[TxCell],
        antennas: &[Point],
        cpos: &Point,
        g_row: &mut [f64],
        los_row: &mut [bool],
        shadow: &mut [f64],
    ) {
        self.shadow_row(tx, cpos, shadow);
        for (k, apos) in antennas.iter().enumerate() {
            let d = apos.distance(cpos);
            g_row[k] = amp_from_db(self.path_loss_db(d), shadow[k]);
            los_row[k] = d <= self.env.los_distance_m;
        }
    }

    /// The draw half of the row routine: Cholesky-correlated CN(0, 1)
    /// scattered components across the antennas, Rician on line-of-sight
    /// links, times the large-scale gain.  Draw order: the row's `n`
    /// scattered components first, then one phase per Rician link in
    /// antenna order.
    fn draw_row<D: RowDraws>(
        &self,
        draws: &mut D,
        chol: &[f64],
        g_row: &[f64],
        los_row: &[bool],
        z: &mut Vec<Complex>,
        h_row: &mut [Complex],
    ) {
        let n_a = g_row.len();
        z.clear();
        for _ in 0..n_a {
            z.push(draws.cn01());
        }
        for k in 0..n_a {
            // Correlated scattered component of this antenna.
            let scattered = (0..=k)
                .map(|l| z[l].scale(chol[k * n_a + l]))
                .fold(Complex::ZERO, |acc, x| acc + x);
            let kind = if los_row[k] {
                self.env.los_fading
            } else {
                self.env.nlos_fading
            };
            let f = match kind {
                fading::FadingKind::None => Complex::ONE,
                fading::FadingKind::Rayleigh => scattered,
                fading::FadingKind::Rician { k_db } => {
                    let k_lin = 10f64.powf(k_db / 10.0);
                    let phase = draws.phase();
                    Complex::from_polar((k_lin / (k_lin + 1.0)).sqrt(), phase)
                        + scattered.scale((1.0 / (k_lin + 1.0)).sqrt())
                }
            };
            h_row[k] = f.scale(g_row[k]);
        }
    }

    /// Gauss–Markov correlation over a delay of `delay_s` seconds in this
    /// model's environment — the `rho` of one evolution step.
    pub fn step_correlation(&self, delay_s: f64) -> f64 {
        fading::correlation_for_delay(delay_s, self.env.coherence_time_s)
    }

    /// One keyed first-order Gauss–Markov (AR(1)) step over a single
    /// channel row: the row `link` of AP `ap` at evolution boundary `round`.
    ///
    /// The row's innovations come from the stateless [`CounterRng`] stream
    /// keyed by `(fading_seed, ap, link, round)`, so the update is a pure
    /// function of the key and the row's prior state: the same step can be
    /// applied in any row order, or on any thread, and produce identical
    /// bits.  `&self`, not `&mut self` — the model's sequential generator,
    /// which set-up realisation draws from, is untouched.
    ///
    /// `n` steps of correlation `rho` compose to one step of correlation
    /// `rhoⁿ` (the innovations' variances sum to `1 − rho²ⁿ`), so a caller
    /// that skips `n` boundaries applies the exact `n`-step transition by
    /// passing `rhoⁿ` — the simulator's lazy catch-up does, keyed by the
    /// last boundary the row absorbs.
    ///
    /// The unit-power coefficient `f` evolves as
    /// `f ← rho·f + sqrt(1−rho²)·CN(0,1)`; the update works in the scaled
    /// domain, `h ← rho·h + sqrt(1−rho²)·g·CN(0,1)` with `g` the link's
    /// large-scale gain, so no divide is needed.  `rho = 1` freezes the row
    /// without drawing, `rho = 0` redraws it from its stationary
    /// distribution, and a zero-gain link (a freed row slot) stays zero.
    /// `pairs` is caller-provided scratch (one slot per antenna) so
    /// steady-state evolution allocates nothing.  Returns the number of
    /// Gaussian pairs drawn: one per antenna, or none when `rho = 1`.
    // lint: no_alloc — keyed row step: innovations fill the caller's retained scratch
    #[allow(clippy::too_many_arguments)] // the argument list IS the stream key + row state
    pub fn evolve_row(
        &self,
        h_row: &mut [Complex],
        g_row: &[f64],
        rho: f64,
        ap: u64,
        link: u64,
        round: u64,
        pairs: &mut Vec<(f64, f64)>,
    ) -> usize {
        assert!((0.0..=1.0).contains(&rho), "correlation must be in [0, 1]");
        assert_eq!(h_row.len(), g_row.len());
        if rho >= 1.0 {
            return 0;
        }
        // Components of CN(0,1) are N(0, 1/2).
        let s = (1.0 - rho * rho).sqrt() * std::f64::consts::FRAC_1_SQRT_2;
        pairs.clear();
        pairs.resize(h_row.len(), (0.0, 0.0));
        let mut stream = CounterRng::from_key([self.fading_seed, ap, link, round]);
        stream.fill_gaussian_pairs(pairs);
        for ((h, &g), &(zr, zi)) in h_row.iter_mut().zip(g_row).zip(pairs.iter()) {
            if g <= 0.0 {
                continue;
            }
            let sg = s * g;
            *h = h.scale(rho) + Complex::new(zr * sg, zi * sg);
        }
        pairs.len()
    }

    /// Re-derives one client row's large-scale gains after the client moved
    /// to `position`, rescaling the composite coefficients so the unit-power
    /// fading state carries over unchanged.
    ///
    /// The large-scale part (path loss + the frozen shadowing field) is a
    /// pure function of the endpoint positions — no sequential RNG draw is
    /// consumed — so moving one client perturbs nothing else in the model.
    /// That purity is what lets the dynamics layer keep static runs
    /// byte-identical: a model that never sees a move emits exactly the
    /// draws it always did.
    pub fn refresh_large_scale_row(
        &self,
        channel: &mut ChannelMatrix,
        row: usize,
        antennas: &[Point],
        position: &Point,
    ) {
        assert_eq!(antennas.len(), channel.num_antennas());
        for (k, apos) in antennas.iter().enumerate() {
            let g_new = self.large_scale_amp(apos, position);
            let g_old = channel.large_scale.get(row, k);
            let h = channel.h.get(row, k);
            let h_new = if g_old > 0.0 {
                h.scale(g_new / g_old)
            } else {
                Complex::new(g_new, 0.0)
            };
            channel.large_scale.set(row, k, g_new);
            channel.h.set(row, k, h_new);
        }
    }

    /// [`refresh_large_scale_row`](Self::refresh_large_scale_row) through a
    /// [`RowCache`]: path loss is re-derived at the new position, shadowing
    /// is redrawn only when the client crossed into another shadowing cell
    /// (otherwise the cached per-antenna values are reused).  The result is
    /// bit-identical to the uncached refresh.  Returns whether the
    /// shadowing was redrawn.
    pub fn refresh_row_cached(
        &self,
        channel: &mut ChannelMatrix,
        cache: &mut RowCache,
        row: usize,
        antennas: &[Point],
        position: &Point,
    ) -> bool {
        let n = antennas.len();
        assert_eq!(n, channel.num_antennas());
        let cell = shadow_cell(position);
        let redraw = cache.cells[row] != cell;
        let shadow = &mut cache.shadow_db[row * n..(row + 1) * n];
        if redraw {
            self.shadow_row(&cache.tx, position, shadow);
        }
        let h_row = channel.h.row_mut(row);
        let g_row = channel.large_scale.row_mut(row);
        for (k, apos) in antennas.iter().enumerate() {
            let pl_db = self.path_loss_db(apos.distance(position));
            let g_new = amp_from_db(pl_db, shadow[k]);
            let g_old = g_row[k];
            h_row[k] = if g_old > 0.0 {
                h_row[k].scale(g_new / g_old)
            } else {
                Complex::new(g_new, 0.0)
            };
            g_row[k] = g_new;
        }
        cache.cells[row] = cell;
        redraw
    }

    /// Draws row `row` afresh for a client that came within range of the
    /// AP at `round`: the stationary state from the keyed stream
    /// `(fading seed, ap, client, round)` through the same two row halves
    /// set-up uses, so the model's sequential stream is untouched.  `row`
    /// may equal the current row count, in which case the matrix and the
    /// cache grow by one row (in place, reusing retained capacity).
    #[allow(clippy::too_many_arguments)] // the row slot, its geometry and the stream key
    pub fn birth_row(
        &self,
        channel: &mut ChannelMatrix,
        cache: &mut RowCache,
        row: usize,
        antennas: &[Point],
        position: &Point,
        ap: u64,
        client: u64,
        round: u64,
    ) {
        let n = antennas.len();
        assert_eq!(n, channel.num_antennas());
        if row == channel.num_clients() {
            channel.h.push_zero_row();
            channel.large_scale.push_zero_row();
            cache.cells.push((0, 0));
            cache.shadow_db.resize(cache.shadow_db.len() + n, 0.0);
        }
        cache.cells[row] = shadow_cell(position);
        let RowCache {
            chol,
            tx,
            shadow_db,
            z,
            los,
            ..
        } = cache;
        self.large_scale_row(
            tx,
            antennas,
            position,
            channel.large_scale.row_mut(row),
            los,
            &mut shadow_db[row * n..(row + 1) * n],
        );
        let mut draws = CounterRng::from_key([self.fading_seed, ap | BIRTH_LANE, client, round]);
        self.draw_row(
            &mut draws,
            chol,
            channel.large_scale.row(row),
            los,
            z,
            channel.h.row_mut(row),
        );
    }

    /// Evolves every row of `channel` by one keyed step over `delay_s`
    /// seconds (the environment's coherence time sets `rho`) at boundary
    /// `round`, rows keyed by their index under AP lane `ap`; the
    /// large-scale gains are unchanged.  The single-matrix form of
    /// [`evolve_row`](Self::evolve_row), for stale-CSI experiments and
    /// tests; the round loop evolves only the rows it reads.
    pub fn evolve_matrix(
        &self,
        channel: &mut ChannelMatrix,
        delay_s: f64,
        ap: u64,
        round: u64,
        pairs: &mut Vec<(f64, f64)>,
    ) {
        let rho = self.step_correlation(delay_s);
        for j in 0..channel.num_clients() {
            let h_row = channel.h.row_mut(j);
            let g_row = channel.large_scale.row(j);
            self.evolve_row(h_row, g_row, rho, ap, j as u64, round, pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::topology::{single_ap, DeploymentKind, TopologyConfig};
    use crate::Environment;

    fn das_topology(seed: u64) -> (crate::topology::Topology, ChannelModel) {
        let mut rng = SimRng::new(seed);
        let cfg = TopologyConfig::das(4, 4);
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let topo = single_ap(&cfg, region, &mut rng);
        let model = ChannelModel::new(Environment::office_a(), seed);
        (topo, model)
    }

    #[test]
    fn channel_matrix_has_expected_shape() {
        let (topo, mut model) = das_topology(1);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        assert_eq!(ch.num_clients(), 4);
        assert_eq!(ch.num_antennas(), 4);
        assert!(ch.h.is_finite());
    }

    #[test]
    fn closer_links_have_larger_mean_gain() {
        let model = ChannelModel::new(Environment::office_a(), 2);
        let antenna = Point::new(0.0, 0.0);
        let near = model.mean_rx_power_dbm(&antenna, &Point::new(2.0, 0.0));
        let far = model.mean_rx_power_dbm(&antenna, &Point::new(20.0, 0.0));
        assert!(near > far);
    }

    #[test]
    fn snr_is_positive_at_short_range_in_office_a() {
        let model = ChannelModel::new(Environment::office_a(), 3);
        let rssi = model.mean_rx_power_dbm(&Point::new(0.0, 0.0), &Point::new(5.0, 0.0));
        let snr_db = rssi - model.env.noise_floor_dbm;
        assert!(snr_db > 15.0, "SNR {snr_db}");
    }

    #[test]
    fn das_channel_is_more_imbalanced_than_cas() {
        // The core structural property the paper exploits: in DAS the spread
        // between a client's best and worst antenna gain is much larger than
        // in CAS.  Compare median dB spreads across topologies.
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let spreads = |kind: DeploymentKind, seed: u64| -> f64 {
            let mut rng = SimRng::new(seed);
            let mut model = ChannelModel::new(Environment::office_a(), seed);
            let mut all = Vec::new();
            for _ in 0..30 {
                let cfg = TopologyConfig {
                    kind,
                    ..TopologyConfig::das(4, 4)
                };
                let topo = single_ap(&cfg, region, &mut rng);
                let clients = topo.clients_of(0);
                let ch = model.realize(&topo.aps[0], &clients);
                for j in 0..ch.num_clients() {
                    let gains: Vec<f64> = (0..4).map(|k| ch.mean_rssi_dbm(j, k)).collect();
                    let max = gains.iter().cloned().fold(f64::MIN, f64::max);
                    let min = gains.iter().cloned().fold(f64::MAX, f64::min);
                    all.push(max - min);
                }
            }
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            all[all.len() / 2]
        };
        let das_spread = spreads(DeploymentKind::Das, 10);
        let cas_spread = spreads(DeploymentKind::Cas, 10);
        assert!(
            das_spread > cas_spread + 3.0,
            "DAS spread {das_spread:.1} dB should exceed CAS spread {cas_spread:.1} dB"
        );
    }

    #[test]
    fn evolve_with_zero_delay_keeps_channel() {
        let (topo, mut model) = das_topology(5);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        let mut same = ch.clone();
        model.evolve_matrix(&mut same, 0.0, 0, 0, &mut Vec::new());
        assert!(same.h.approx_eq(&ch.h, 1e-12));
    }

    #[test]
    fn evolve_with_long_delay_decorrelates() {
        let (topo, mut model) = das_topology(6);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        let mut later = ch.clone();
        // A delay far beyond the coherence time: large-scale structure
        // retained, small-scale changed.
        model.evolve_matrix(&mut later, 10.0, 0, 0, &mut Vec::new());
        assert_eq!(later.large_scale, ch.large_scale);
        assert!(!later.h.approx_eq(&ch.h, 1e-6));
    }

    #[test]
    fn select_restricts_rows_and_columns() {
        let (topo, mut model) = das_topology(7);
        let clients = topo.clients_of(0);
        let ch = model.realize(&topo.aps[0], &clients);
        let sub = ch.select(&[1, 3], &[0, 2]);
        assert_eq!(sub.num_clients(), 2);
        assert_eq!(sub.num_antennas(), 2);
        assert_eq!(sub.h.get(0, 0), ch.h.get(1, 0));
        assert_eq!(sub.h.get(1, 1), ch.h.get(3, 2));
        assert_eq!(sub.large_scale.get(0, 1), ch.large_scale.get(1, 2));
    }

    #[test]
    fn refresh_large_scale_row_is_pure_and_preserves_fading() {
        let (topo, mut model) = das_topology(9);
        let clients = topo.clients_of(0);
        let mut ch = model.realize(&topo.aps[0], &clients);
        let before = ch.clone();
        let antennas = &topo.aps[0].antennas;
        let new_pos = Point::new(11.5, 7.25);
        model.refresh_large_scale_row(&mut ch, 1, antennas, &new_pos);
        for (k, antenna) in antennas.iter().enumerate() {
            // The new gains are exactly the frozen field at the new position.
            let expected_dbm = model.large_scale_rx_power_dbm(antenna, &new_pos);
            assert!((ch.mean_rssi_dbm(1, k) - expected_dbm).abs() < 1e-9);
            // The unit-power fading coefficient carried over unchanged.
            let f_old = before.h.get(1, k).scale(1.0 / before.large_scale.get(1, k));
            let f_new = ch.h.get(1, k).scale(1.0 / ch.large_scale.get(1, k));
            assert!((f_old - f_new).norm() < 1e-12);
            // Other rows are untouched.
            assert_eq!(ch.h.get(0, k), before.h.get(0, k));
            assert_eq!(ch.large_scale.get(2, k), before.large_scale.get(2, k));
        }
        // Moving back restores the original gains bit-for-bit in the
        // large-scale part (pure function of positions).
        let home = clients[1].position;
        model.refresh_large_scale_row(&mut ch, 1, antennas, &home);
        for k in 0..ch.num_antennas() {
            assert!((ch.large_scale.get(1, k) - before.large_scale.get(1, k)).abs() < 1e-15);
        }
    }

    #[test]
    fn cached_realisation_is_bit_identical_and_leaves_the_stream_in_step() {
        let (topo, _) = das_topology(12);
        let env = Environment::office_a();
        let positions: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
        let antennas = &topo.aps[0].antennas;
        let mut plain = ChannelModel::new(env, 12);
        let mut cached = ChannelModel::new(env, 12);
        let a = plain.realize_positions(antennas, &positions);
        let rows = cached.large_scale_rows(antennas, &positions, true);
        let (b, cache) = cached.draw_rows(rows);
        assert_eq!(a, b);
        assert_eq!(cache.cells.len(), positions.len());
        // Both models consumed the same draws: their next realisations agree.
        assert_eq!(
            plain.realize_positions(antennas, &positions),
            cached.realize_positions(antennas, &positions)
        );
    }

    #[test]
    fn a_born_row_matches_the_frozen_field_and_its_key() {
        let (topo, mut model) = das_topology(13);
        let clients = topo.clients_of(0);
        let positions: Vec<Point> = clients.iter().map(|c| c.position).collect();
        let antennas = &topo.aps[0].antennas;
        let rows = model.large_scale_rows(antennas, &positions, true);
        let (mut ch, mut cache) = model.draw_rows(rows);
        let rows = ch.num_clients();
        let p = Point::new(3.25, 9.5);
        // Growing birth: one new row past the end.
        model.birth_row(&mut ch, &mut cache, rows, antennas, &p, 0, 99, 7);
        assert_eq!(ch.num_clients(), rows + 1);
        for (k, antenna) in antennas.iter().enumerate() {
            let expected_dbm = model.large_scale_rx_power_dbm(antenna, &p);
            assert!((ch.mean_rssi_dbm(rows, k) - expected_dbm).abs() < 1e-9);
            assert!(ch.h.get(rows, k).norm().is_finite());
        }
        // Same key, same row; a reused slot is overwritten entirely.
        let born = ch.h.row(rows).to_vec();
        ch.zero_row(1);
        model.birth_row(&mut ch, &mut cache, 1, antennas, &p, 0, 99, 7);
        assert_eq!(ch.h.row(1), born.as_slice());
        // Another round keys another stream.
        model.birth_row(&mut ch, &mut cache, 1, antennas, &p, 0, 99, 8);
        assert_ne!(ch.h.row(1), born.as_slice());
    }

    #[test]
    fn a_shared_transmit_cell_draws_each_links_own_shadowing() {
        // Two co-located antennas (one CAS cell), one a cell away, and one
        // a hair across a cell boundary from the first.
        let antennas = [
            Point::new(10.0, 10.0),
            Point::new(10.03, 10.0),
            Point::new(13.0, 10.0),
            Point::new(10.0, 11.0),
        ];
        let model = ChannelModel::new(Environment::office_a(), 21);
        let cache = model.row_cache(&antennas, 0);
        let firsts: Vec<usize> = cache.tx.iter().map(|t| t.first).collect();
        assert_eq!(firsts, [0, 0, 2, 3]);
        let mut row = [0.0; 4];
        for rx in [
            Point::new(2.0, 3.0),
            Point::new(25.5, 7.0),
            Point::new(10.0, 10.0),
        ] {
            model.shadow_row(&cache.tx, &rx, &mut row);
            for (k, a) in antennas.iter().enumerate() {
                assert_eq!(row[k].to_bits(), model.shadowing_db(a, &rx).to_bits());
            }
        }
    }

    #[test]
    fn sampled_rx_power_scatter_around_mean() {
        let mut model = ChannelModel::new(Environment::office_a(), 8);
        let tx = Point::new(0.0, 0.0);
        let rx = Point::new(10.0, 0.0);
        let mean = model.mean_rx_power_dbm(&tx, &rx);
        let n = 4000;
        let avg: f64 = (0..n)
            .map(|_| model.sample_rx_power_dbm(&tx, &rx))
            .sum::<f64>()
            / n as f64;
        // Shadowing + fading in dB domain biases the dB-average slightly below
        // the deterministic mean; just require the samples to be centred in a
        // plausible band around it.
        assert!((avg - mean).abs() < 6.0, "avg {avg} vs mean {mean}");
    }
}
