//! Downlink traffic models — the workload axis of the session API.
//!
//! The original simulator is hard-wired to *full-buffer* traffic: every
//! client has queued downlink data in every round, so the MAC never idles
//! and every figure measures saturation capacity.  That is the right model
//! for the paper's figures, but scenario diversity (the ROADMAP's north
//! star) needs lighter and burstier workloads: an enterprise floor at 30 %
//! offered load contends very differently from one at saturation.
//!
//! [`TrafficModel`] is the extension point: once per (AP, round) the
//! simulator asks the model which of the AP's clients are *backlogged*
//! (have queued downlink data), and only those clients are eligible for
//! selection.  [`FullBuffer`] reproduces the legacy behaviour **bit for
//! bit** — every client, every round, no RNG consumed — which is what keeps
//! every pre-redesign golden byte-identical; [`OnOff`] and [`Poisson`] add
//! duty-cycled and queue-driven arrivals; [`Diurnal`], [`FlashCrowd`] and
//! [`Churn`] add the long-horizon time-varying workloads (day-long duty
//! envelopes, flash bursts, attach/detach churn) behind the load-vs-gain
//! study.
//!
//! Determinism contract: a model's answer for `(ap_id, round)` may depend
//! only on its configuration, its seed, and the sequence of its *own*
//! previous calls for that AP (the simulator queries each AP exactly once
//! per round, in round order) — never on wall clock, global state, or the
//! order APs are queried within a round.  That makes every traffic model
//! safe to run through the deterministic `SeedSweep` engine at any thread
//! count.

use midas_channel::SimRng;

/// A downlink traffic workload: decides, per AP and round, which clients
/// have queued data.
///
/// Implementations must be deterministic in their seed (see the module docs
/// for the exact contract).  The simulator owns one model instance per run
/// and threads every query through it in round order.
pub trait TrafficModel: Send {
    /// AP-local indices (ascending) of the clients of `ap_id` that have
    /// downlink data queued in `round`.  `num_clients` is the AP's own
    /// client count; indices must be `< num_clients`.
    fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize>;

    /// Buffer-reuse variant of [`TrafficModel::backlogged`]: clears `out`
    /// and fills it with the same indices in the same order.  The default
    /// delegates (one allocation); the library models override it so the
    /// simulator's steady-state round loop allocates nothing here.
    fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(self.backlogged(ap_id, num_clients, round));
    }

    /// Notification that `client` (AP-local, of `ap_id`) was served one
    /// TXOP in the current round.  Queue-driven models drain here; the
    /// default does nothing.
    fn served(&mut self, ap_id: usize, client: usize) {
        let _ = (ap_id, client);
    }
}

/// Saturation workload: every client is backlogged in every round.
///
/// This is the paper's model and the library default; it consumes no
/// randomness and reproduces the pre-redesign simulator byte for byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullBuffer;

impl TrafficModel for FullBuffer {
    fn backlogged(&mut self, _ap_id: usize, num_clients: usize, _round: usize) -> Vec<usize> {
        (0..num_clients).collect()
    }

    fn backlogged_into(
        &mut self,
        _ap_id: usize,
        num_clients: usize,
        _round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..num_clients);
    }
}

/// Duty-cycled workload: each client alternates deterministic on/off bursts.
///
/// Every `(ap, client)` pair draws a private phase and an on-burst /
/// off-gap pair of lengths (geometric around the configured means) from the
/// model seed, then repeats that pattern for the whole run — a stateless
/// per-round decision, so the schedule is independent of how many rounds
/// ran before or after.
#[derive(Debug, Clone)]
pub struct OnOff {
    duty: f64,
    mean_burst_rounds: f64,
    seed: u64,
}

impl OnOff {
    /// A model where each client has data during `duty` (clamped to
    /// `[0, 1]`) of the rounds, in bursts averaging `mean_burst_rounds`
    /// (clamped to ≥ 1) consecutive rounds.
    pub fn new(duty: f64, mean_burst_rounds: f64, seed: u64) -> Self {
        OnOff {
            duty: duty.clamp(0.0, 1.0),
            mean_burst_rounds: mean_burst_rounds.max(1.0),
            seed,
        }
    }

    /// Whether the client is inside an on-burst in `round`.
    fn is_on(&self, ap_id: usize, client: usize, round: usize) -> bool {
        if self.duty >= 1.0 {
            return true;
        }
        if self.duty <= 0.0 {
            return false;
        }
        let mut rng = per_client_rng(self.seed, ap_id, client);
        // Burst lengths: on for ~mean_burst_rounds, off for the complement
        // that realises the duty cycle; jittered per client so bursts do not
        // align across the floor.  The off-gap is at least one round (else
        // the pattern would degenerate to always-on), so the on-burst is
        // stretched to at least duty/(1-duty) rounds — otherwise high duty
        // cycles could never be realised (a 1-on/1-off pattern caps at 50%).
        let min_on = (self.duty / (1.0 - self.duty)).ceil();
        let on = (self.mean_burst_rounds * rng.uniform_range(0.5, 1.5))
            .round()
            .max(1.0)
            .max(min_on);
        let off = (on * (1.0 - self.duty) / self.duty).round().max(1.0);
        let period = (on + off) as usize;
        let phase = rng.uniform_usize(period);
        (round + phase) % period < on as usize
    }
}

impl TrafficModel for OnOff {
    fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize> {
        (0..num_clients)
            .filter(|&c| self.is_on(ap_id, c, round))
            .collect()
    }

    fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend((0..num_clients).filter(|&c| self.is_on(ap_id, c, round)));
    }
}

/// Queue-driven workload: packets arrive per client as a Poisson process
/// (approximated round-by-round) and a client is backlogged while its queue
/// is non-empty; serving a client drains one packet.
#[derive(Debug, Clone)]
pub struct Poisson {
    mean_arrivals_per_round: f64,
    seed: u64,
    /// Queue depth per (ap, client), grown on demand.
    queues: Vec<Vec<u32>>,
}

impl Poisson {
    /// A model with `mean_arrivals_per_round` packets arriving per client
    /// per round (clamped to ≥ 0).
    pub fn new(mean_arrivals_per_round: f64, seed: u64) -> Self {
        Poisson {
            mean_arrivals_per_round: mean_arrivals_per_round.max(0.0),
            seed,
            queues: Vec::new(),
        }
    }

    fn queue(&mut self, ap_id: usize, num_clients: usize) -> &mut Vec<u32> {
        if self.queues.len() <= ap_id {
            self.queues.resize(ap_id + 1, Vec::new());
        }
        let q = &mut self.queues[ap_id];
        if q.len() < num_clients {
            q.resize(num_clients, 0);
        }
        q
    }

    /// Packets arriving for `(ap, client)` in `round` — a hash-derived draw,
    /// so the arrival sequence is independent of query order.
    fn arrivals(&self, ap_id: usize, client: usize, round: usize) -> u32 {
        let mut rng = per_client_rng(self.seed, ap_id, client).fork(round as u64);
        // Inverse-CDF Poisson sampling; fine for the per-round rates
        // (≤ a few packets) simulations use.
        let lambda = self.mean_arrivals_per_round;
        if lambda == 0.0 {
            return 0;
        }
        let u = rng.uniform();
        let mut k = 0u32;
        let mut p = (-lambda).exp();
        let mut cdf = p;
        while u > cdf && k < 1_000 {
            k += 1;
            p *= lambda / k as f64;
            cdf += p;
        }
        k
    }
}

impl TrafficModel for Poisson {
    fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize> {
        let arrivals: Vec<u32> = (0..num_clients)
            .map(|c| self.arrivals(ap_id, c, round))
            .collect();
        let q = self.queue(ap_id, num_clients);
        let mut out = Vec::new();
        for (c, &a) in arrivals.iter().enumerate() {
            q[c] = q[c].saturating_add(a);
            if q[c] > 0 {
                out.push(c);
            }
        }
        out
    }

    fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        self.queue(ap_id, num_clients);
        for c in 0..num_clients {
            let a = self.arrivals(ap_id, c, round);
            let q = &mut self.queues[ap_id];
            q[c] = q[c].saturating_add(a);
            if q[c] > 0 {
                out.push(c);
            }
        }
    }

    fn served(&mut self, ap_id: usize, client: usize) {
        if let Some(q) = self.queues.get_mut(ap_id) {
            if let Some(depth) = q.get_mut(client) {
                *depth = depth.saturating_sub(1);
            }
        }
    }
}

/// Diurnal workload: duty-cycled traffic whose duty follows a smooth
/// day-long envelope between a trough and a peak.
///
/// The offered duty at round `r` is a raised cosine over `day_rounds`
/// (trough at round 0, peak half a day in); each client then gates
/// per-burst-block on a private hash draw against that duty.  Like
/// [`OnOff`], the answer for `(ap, client, round)` is a pure function of
/// the configuration and seed — no state, no query-order dependence — so
/// long-horizon runs stay bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct Diurnal {
    low_duty: f64,
    high_duty: f64,
    day_rounds: usize,
    mean_burst_rounds: f64,
    seed: u64,
}

impl Diurnal {
    /// A model cycling between `low_duty` (round 0, "midnight") and
    /// `high_duty` (half a day in) over `day_rounds` (clamped to ≥ 2), in
    /// bursts of `mean_burst_rounds` (clamped to ≥ 1) consecutive rounds.
    pub fn new(
        low_duty: f64,
        high_duty: f64,
        day_rounds: usize,
        mean_burst_rounds: f64,
        seed: u64,
    ) -> Self {
        let a = low_duty.clamp(0.0, 1.0);
        let b = high_duty.clamp(0.0, 1.0);
        Diurnal {
            low_duty: a.min(b),
            high_duty: a.max(b),
            day_rounds: day_rounds.max(2),
            mean_burst_rounds: mean_burst_rounds.max(1.0),
            seed,
        }
    }

    /// The offered duty at `round`: a raised cosine through the day.
    fn duty_at(&self, round: usize) -> f64 {
        let phase = (round % self.day_rounds) as f64 / self.day_rounds as f64;
        let mid = 0.5 * (self.low_duty + self.high_duty);
        let amp = 0.5 * (self.high_duty - self.low_duty);
        mid - amp * (2.0 * std::f64::consts::PI * phase).cos()
    }

    fn is_on(&self, ap_id: usize, client: usize, round: usize) -> bool {
        let duty = self.duty_at(round);
        if duty >= 1.0 {
            return true;
        }
        if duty <= 0.0 {
            return false;
        }
        let block = round / (self.mean_burst_rounds.round() as usize).max(1);
        let mut rng = per_client_rng(self.seed, ap_id, client).fork(block as u64);
        rng.uniform() < duty
    }
}

impl TrafficModel for Diurnal {
    fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize> {
        (0..num_clients)
            .filter(|&c| self.is_on(ap_id, c, round))
            .collect()
    }

    fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend((0..num_clients).filter(|&c| self.is_on(ap_id, c, round)));
    }
}

/// Flash-crowd workload: light baseline duty punctuated by all-on bursts.
///
/// Event `k` starts at a seed-jittered offset inside epoch `k` (epochs are
/// `flash_every_rounds` long) and backlogs *every* client for
/// `flash_rounds`; between events clients follow an [`OnOff`] baseline at
/// `base_duty`.  The flash schedule is a pure function of the seed, so the
/// model keeps the stateless determinism contract.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    base: OnOff,
    flash_every_rounds: usize,
    flash_rounds: usize,
    seed: u64,
}

impl FlashCrowd {
    /// A model with an [`OnOff`] baseline at `base_duty` and one flash of
    /// `flash_rounds` (clamped into `1..=flash_every_rounds`) per epoch of
    /// `flash_every_rounds` (clamped to ≥ 2) rounds.
    pub fn new(base_duty: f64, flash_every_rounds: usize, flash_rounds: usize, seed: u64) -> Self {
        let every = flash_every_rounds.max(2);
        FlashCrowd {
            base: OnOff::new(base_duty, 4.0, seed),
            flash_every_rounds: every,
            flash_rounds: flash_rounds.clamp(1, every),
            seed,
        }
    }

    /// Whether `round` falls inside a flash event.
    fn in_flash(&self, round: usize) -> bool {
        let epoch = round / self.flash_every_rounds;
        // An event jittered late in epoch k-1 can spill into epoch k.
        for k in epoch.saturating_sub(1)..=epoch {
            let jitter = SimRng::new(self.seed ^ 0x00F1_A5C0)
                .fork(k as u64)
                .uniform_usize(self.flash_every_rounds / 2 + 1);
            let start = k * self.flash_every_rounds + jitter;
            if round >= start && round < start + self.flash_rounds {
                return true;
            }
        }
        false
    }
}

impl TrafficModel for FlashCrowd {
    fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize> {
        if self.in_flash(round) {
            (0..num_clients).collect()
        } else {
            self.base.backlogged(ap_id, num_clients, round)
        }
    }

    fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        if self.in_flash(round) {
            out.clear();
            out.extend(0..num_clients);
        } else {
            self.base.backlogged_into(ap_id, num_clients, round, out);
        }
    }
}

/// Churn workload: clients attach and detach on a session timescale, and
/// only *attached* clients can be backlogged.
///
/// Presence per `(ap, client)` follows the stateless [`OnOff`] pattern at
/// `attached_fraction` duty with `mean_session_rounds`-long sessions (a
/// detached client has simply left the floor); while attached, the wrapped
/// inner workload decides backlog as usual.  Modelling churn as activation
/// gating keeps the topology and result-vector shapes fixed — an absent
/// client is one that never contends — which is what lets 10⁵-round churn
/// runs hold peak memory flat.
pub struct Churn {
    presence: OnOff,
    inner: Box<dyn TrafficModel>,
}

impl Churn {
    /// A model where each client is attached `attached_fraction` of the run
    /// in sessions averaging `mean_session_rounds` (clamped to ≥ 1) rounds,
    /// running `inner` while attached.
    pub fn new(
        attached_fraction: f64,
        mean_session_rounds: f64,
        inner: Box<dyn TrafficModel>,
        seed: u64,
    ) -> Self {
        Churn {
            presence: OnOff::new(
                attached_fraction,
                mean_session_rounds.max(1.0),
                seed ^ 0xC0FFEE,
            ),
            inner,
        }
    }
}

impl TrafficModel for Churn {
    fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize> {
        let mut out = self.inner.backlogged(ap_id, num_clients, round);
        out.retain(|&c| self.presence.is_on(ap_id, c, round));
        out
    }

    fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        self.inner.backlogged_into(ap_id, num_clients, round, out);
        out.retain(|&c| self.presence.is_on(ap_id, c, round));
    }

    fn served(&mut self, ap_id: usize, client: usize) {
        self.inner.served(ap_id, client);
    }
}

/// A declarative, copyable description of a traffic workload — what session
/// configs and experiment specs carry; [`TrafficKind::instantiate`] builds
/// the stateful [`TrafficModel`] the simulator owns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficKind {
    /// Every client backlogged every round (the paper's saturation model;
    /// the default).
    #[default]
    FullBuffer,
    /// Duty-cycled on/off bursts per client.
    OnOff {
        /// Fraction of rounds each client has data for.
        duty: f64,
        /// Mean consecutive on-rounds per burst.
        mean_burst_rounds: f64,
    },
    /// Poisson packet arrivals feeding per-client queues.
    Poisson {
        /// Mean packets arriving per client per round.
        mean_arrivals_per_round: f64,
    },
    /// Duty-cycled bursts under a day-long diurnal duty envelope.
    Diurnal {
        /// Duty at the trough of the envelope (round 0).
        low_duty: f64,
        /// Duty at the peak of the envelope (half a day in).
        high_duty: f64,
        /// Rounds per envelope period ("day").
        day_rounds: usize,
        /// Mean consecutive on-rounds per burst.
        mean_burst_rounds: f64,
    },
    /// Light baseline duty punctuated by seed-jittered all-on flash events.
    FlashCrowd {
        /// Baseline duty between flashes.
        base_duty: f64,
        /// Epoch length — one flash per this many rounds.
        flash_every_rounds: usize,
        /// Flash duration in rounds.
        flash_rounds: usize,
    },
    /// Session-timescale attach/detach churn gating a saturated workload.
    Churn {
        /// Fraction of the run each client spends attached.
        attached_fraction: f64,
        /// Mean attached-session length in rounds.
        mean_session_rounds: f64,
    },
}

impl TrafficKind {
    /// Builds the stateful model this description names, seeded so arrival
    /// patterns are reproducible per simulation seed.
    pub fn instantiate(&self, seed: u64) -> Box<dyn TrafficModel> {
        match *self {
            TrafficKind::FullBuffer => Box::new(FullBuffer),
            TrafficKind::OnOff {
                duty,
                mean_burst_rounds,
            } => Box::new(OnOff::new(duty, mean_burst_rounds, seed)),
            TrafficKind::Poisson {
                mean_arrivals_per_round,
            } => Box::new(Poisson::new(mean_arrivals_per_round, seed)),
            TrafficKind::Diurnal {
                low_duty,
                high_duty,
                day_rounds,
                mean_burst_rounds,
            } => Box::new(Diurnal::new(
                low_duty,
                high_duty,
                day_rounds,
                mean_burst_rounds,
                seed,
            )),
            TrafficKind::FlashCrowd {
                base_duty,
                flash_every_rounds,
                flash_rounds,
            } => Box::new(FlashCrowd::new(
                base_duty,
                flash_every_rounds,
                flash_rounds,
                seed,
            )),
            TrafficKind::Churn {
                attached_fraction,
                mean_session_rounds,
            } => Box::new(Churn::new(
                attached_fraction,
                mean_session_rounds,
                Box::new(FullBuffer),
                seed,
            )),
        }
    }
}

/// Private per-(ap, client) RNG: decorrelates clients without depending on
/// query order.
fn per_client_rng(seed: u64, ap_id: usize, client: usize) -> SimRng {
    SimRng::new(seed ^ 0x7AFF1C).fork((ap_id as u64) << 20 | client as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_backlogs_every_client_every_round() {
        let mut m = FullBuffer;
        for round in 0..5 {
            assert_eq!(m.backlogged(0, 4, round), vec![0, 1, 2, 3]);
            assert_eq!(m.backlogged(3, 2, round), vec![0, 1]);
        }
        assert!(m.backlogged(0, 0, 0).is_empty());
    }

    #[test]
    fn on_off_duty_extremes_are_always_and_never() {
        let mut always = OnOff::new(1.0, 4.0, 1);
        let mut never = OnOff::new(0.0, 4.0, 1);
        for round in 0..10 {
            assert_eq!(always.backlogged(0, 3, round), vec![0, 1, 2]);
            assert!(never.backlogged(0, 3, round).is_empty());
        }
    }

    #[test]
    fn on_off_realises_roughly_its_duty_cycle() {
        // Includes a high duty with short bursts: the on-burst must stretch
        // past the >= 1-round off-gap clamp, or 0.9 would cap at 0.5.
        for (duty, burst, lo, hi) in [(0.3, 4.0, 0.2, 0.4), (0.9, 1.0, 0.8, 0.97)] {
            let mut m = OnOff::new(duty, burst, 42);
            let rounds = 2_000;
            let mut on = 0usize;
            for round in 0..rounds {
                on += m.backlogged(0, 8, round).len();
            }
            let realised = on as f64 / (rounds * 8) as f64;
            assert!(
                (lo..=hi).contains(&realised),
                "realised duty {realised:.3} far from configured {duty}"
            );
        }
    }

    #[test]
    fn on_off_is_deterministic_and_order_independent() {
        let mut a = OnOff::new(0.5, 3.0, 7);
        let mut b = OnOff::new(0.5, 3.0, 7);
        // Query b in a scrambled round order; per-round answers must agree.
        let forward: Vec<_> = (0..20).map(|r| a.backlogged(1, 6, r)).collect();
        for r in (0..20).rev() {
            assert_eq!(b.backlogged(1, 6, r), forward[r], "round {r}");
        }
        // Different seeds decorrelate.
        let mut c = OnOff::new(0.5, 3.0, 8);
        let other: Vec<_> = (0..20).map(|r| c.backlogged(1, 6, r)).collect();
        assert_ne!(forward, other);
    }

    #[test]
    fn poisson_queues_grow_with_arrivals_and_drain_when_served() {
        let mut m = Poisson::new(1.5, 3);
        let mut total_backlogged = 0usize;
        for round in 0..50 {
            let backlogged = m.backlogged(0, 4, round);
            total_backlogged += backlogged.len();
            // Serve everyone who had data: queues must eventually drain to
            // roughly the arrival rate rather than growing without bound.
            for &c in &backlogged {
                m.served(0, c);
            }
        }
        assert!(total_backlogged > 0, "arrivals never backlogged anyone");
        let depth: u32 = m.queues[0].iter().sum();
        assert!(depth < 200, "queues exploded: {depth}");
    }

    #[test]
    fn poisson_zero_rate_never_backlogs() {
        let mut m = Poisson::new(0.0, 3);
        for round in 0..10 {
            assert!(m.backlogged(0, 4, round).is_empty());
        }
    }

    #[test]
    fn poisson_served_on_unknown_client_is_a_no_op() {
        let mut m = Poisson::new(1.0, 3);
        m.served(5, 9); // nothing allocated yet — must not panic
        let _ = m.backlogged(0, 2, 0);
        m.served(0, 7); // out of range — still a no-op
    }

    #[test]
    fn backlogged_into_matches_backlogged_for_every_model() {
        // Two independent instances per model (queue-driven state must not
        // be shared between the compared call paths).
        let pairs: Vec<(Box<dyn TrafficModel>, Box<dyn TrafficModel>)> = vec![
            (Box::new(FullBuffer), Box::new(FullBuffer)),
            (
                Box::new(OnOff::new(0.4, 3.0, 11)),
                Box::new(OnOff::new(0.4, 3.0, 11)),
            ),
            (
                Box::new(Poisson::new(0.8, 11)),
                Box::new(Poisson::new(0.8, 11)),
            ),
            (
                Box::new(Diurnal::new(0.2, 0.9, 40, 3.0, 11)),
                Box::new(Diurnal::new(0.2, 0.9, 40, 3.0, 11)),
            ),
            (
                Box::new(FlashCrowd::new(0.1, 20, 3, 11)),
                Box::new(FlashCrowd::new(0.1, 20, 3, 11)),
            ),
            (
                Box::new(Churn::new(0.6, 8.0, Box::new(Poisson::new(0.8, 11)), 11)),
                Box::new(Churn::new(0.6, 8.0, Box::new(Poisson::new(0.8, 11)), 11)),
            ),
        ];
        for (mut a, mut b) in pairs {
            let mut buf = Vec::new();
            for round in 0..30 {
                for ap in 0..3 {
                    let expect = a.backlogged(ap, 5, round);
                    b.backlogged_into(ap, 5, round, &mut buf);
                    assert_eq!(buf, expect, "ap {ap} round {round}");
                    for &c in &expect {
                        a.served(ap, c);
                        b.served(ap, c);
                    }
                }
            }
        }
    }

    #[test]
    fn diurnal_duty_tracks_the_envelope() {
        let m = Diurnal::new(0.1, 0.9, 1_000, 4.0, 5);
        assert!((m.duty_at(0) - 0.1).abs() < 1e-12);
        assert!((m.duty_at(500) - 0.9).abs() < 1e-12);
        assert!((m.duty_at(1_000) - 0.1).abs() < 1e-12, "period wraps");
        // Realised load near the trough is well below the load near the peak.
        let mut m = Diurnal::new(0.1, 0.9, 1_000, 4.0, 5);
        let load = |m: &mut Diurnal, lo: usize, hi: usize| -> f64 {
            let mut on = 0usize;
            for r in lo..hi {
                on += m.backlogged(0, 16, r).len();
            }
            on as f64 / ((hi - lo) * 16) as f64
        };
        let trough = load(&mut m, 0, 100);
        let peak = load(&mut m, 450, 550);
        assert!(
            peak > trough + 0.3,
            "peak {peak:.2} should clear trough {trough:.2}"
        );
    }

    #[test]
    fn diurnal_is_deterministic_and_order_independent() {
        let mut a = Diurnal::new(0.2, 0.8, 64, 3.0, 7);
        let mut b = Diurnal::new(0.2, 0.8, 64, 3.0, 7);
        let forward: Vec<_> = (0..50).map(|r| a.backlogged(1, 6, r)).collect();
        for r in (0..50).rev() {
            assert_eq!(b.backlogged(1, 6, r), forward[r], "round {r}");
        }
    }

    #[test]
    fn flash_crowd_backlogs_everyone_during_a_flash() {
        let mut m = FlashCrowd::new(0.05, 50, 5, 9);
        let flash_rounds: Vec<usize> = (0..500).filter(|&r| m.in_flash(r)).collect();
        assert!(!flash_rounds.is_empty(), "no flash fired in 10 epochs");
        // Flashes cover roughly flash_rounds/flash_every of the horizon.
        assert!(flash_rounds.len() >= 40 && flash_rounds.len() <= 60);
        for &r in &flash_rounds {
            assert_eq!(m.backlogged(2, 7, r), (0..7).collect::<Vec<_>>());
        }
        // Off-flash rounds follow the light baseline: far fewer on-clients.
        let off_rounds: Vec<usize> = (0..500).filter(|&r| !m.in_flash(r)).collect();
        let off_load: usize = off_rounds
            .into_iter()
            .map(|r| m.backlogged(2, 7, r).len())
            .sum();
        assert!(off_load < 500, "baseline load too heavy: {off_load}");
    }

    #[test]
    fn churn_gates_the_inner_workload_by_presence() {
        let mut churn = Churn::new(0.5, 20.0, Box::new(FullBuffer), 3);
        let mut attached_total = 0usize;
        for round in 0..400 {
            let backlogged = churn.backlogged(0, 8, round);
            for &c in &backlogged {
                assert!(
                    churn.presence.is_on(0, c, round),
                    "round {round} client {c}"
                );
            }
            attached_total += backlogged.len();
        }
        let fraction = attached_total as f64 / (400 * 8) as f64;
        assert!(
            (0.35..=0.65).contains(&fraction),
            "attached fraction {fraction:.2} far from 0.5"
        );
        // Served notifications reach the inner model (queue-driven inner).
        let mut queued = Churn::new(1.0, 10.0, Box::new(Poisson::new(0.5, 4)), 4);
        for round in 0..30 {
            let b = queued.backlogged(0, 4, round);
            for &c in &b {
                queued.served(0, c);
            }
        }
    }

    #[test]
    fn kind_instantiates_the_matching_model() {
        assert_eq!(
            TrafficKind::default().instantiate(1).backlogged(0, 3, 0),
            vec![0, 1, 2]
        );
        let mut on_off = TrafficKind::OnOff {
            duty: 0.0,
            mean_burst_rounds: 2.0,
        }
        .instantiate(1);
        assert!(on_off.backlogged(0, 3, 0).is_empty());
        let mut poisson = TrafficKind::Poisson {
            mean_arrivals_per_round: 0.0,
        }
        .instantiate(1);
        assert!(poisson.backlogged(0, 3, 0).is_empty());
    }
}
