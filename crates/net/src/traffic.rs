//! Downlink traffic workloads — the workload axis of the session API.
//!
//! The original simulator is hard-wired to *full-buffer* traffic: every
//! client has queued downlink data in every round, so the MAC never idles
//! and every figure measures saturation capacity.  That is the right model
//! for the paper's figures, but scenario diversity (the ROADMAP's north
//! star) needs lighter and burstier workloads: an enterprise floor at 30 %
//! offered load contends very differently from one at saturation.
//!
//! [`TrafficKind`] names the workload.  Once per (AP, round) the simulator
//! asks its traffic state which of the AP's clients are *backlogged* (have
//! queued downlink data), and only those clients are eligible for
//! selection.  [`TrafficKind::FullBuffer`] reproduces the legacy behaviour
//! **bit for bit** — every client, every round, no RNG consumed — which is
//! what keeps every pre-redesign golden byte-identical;
//! [`TrafficKind::OnOff`] and [`TrafficKind::Poisson`] add duty-cycled and
//! queue-driven arrivals; [`TrafficKind::Diurnal`],
//! [`TrafficKind::FlashCrowd`] and [`TrafficKind::Churn`] add the
//! long-horizon time-varying workloads (day-long duty envelopes, flash
//! bursts, attach/detach churn) behind the load-vs-gain study.  The set is
//! closed: a workload reaches a simulator only as a `TrafficKind`.
//!
//! Determinism contract: the answer for `(ap_id, round)` depends only on
//! the workload, its seed, and the sequence of previous queries for that AP
//! (the simulator queries each AP exactly once per round, in round order) —
//! never on wall clock, global state, or the order APs are queried within a
//! round.  That makes every workload safe to run through the deterministic
//! `SeedSweep` engine at any thread count.

use midas_channel::SimRng;

/// A downlink traffic workload — what session configs and experiment specs
/// carry, and what a simulator runs (seeded from the simulation seed).
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

/// The traffic state a simulator owns: its workload, the simulation seed
/// and, for [`TrafficKind::Poisson`], the per-client queues.
pub(crate) struct TrafficState {
    kind: TrafficKind,
    seed: u64,
    /// Queue depth per (ap, client), grown on demand (Poisson only).
    queues: Vec<Vec<u32>>,
}

impl TrafficState {
    pub(crate) fn new(kind: TrafficKind, seed: u64) -> Self {
        TrafficState {
            kind,
            seed,
            queues: Vec::new(),
        }
    }

    /// Clears `out` and fills it with the AP-local indices (ascending) of
    /// the clients of `ap_id` that have downlink data queued in `round`.
    /// `num_clients` is the AP's own client count.
    pub(crate) fn backlogged_into(
        &mut self,
        ap_id: usize,
        num_clients: usize,
        round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let seed = self.seed;
        let clients = 0..num_clients;
        match self.kind {
            TrafficKind::FullBuffer => out.extend(clients),
            TrafficKind::OnOff {
                duty,
                mean_burst_rounds,
            } => out
                .extend(clients.filter(|&c| is_on(duty, mean_burst_rounds, seed, ap_id, c, round))),
            TrafficKind::Poisson {
                mean_arrivals_per_round,
            } => {
                if self.queues.len() <= ap_id {
                    self.queues.resize(ap_id + 1, Vec::new());
                }
                let q = &mut self.queues[ap_id];
                if q.len() < num_clients {
                    q.resize(num_clients, 0);
                }
                let lambda = mean_arrivals_per_round.max(0.0);
                for c in clients {
                    q[c] = q[c].saturating_add(arrivals(lambda, seed, ap_id, c, round));
                    if q[c] > 0 {
                        out.push(c);
                    }
                }
            }
            TrafficKind::Diurnal {
                low_duty,
                high_duty,
                day_rounds,
                mean_burst_rounds,
            } => {
                let duty = diurnal_duty(low_duty, high_duty, day_rounds, round);
                if duty >= 1.0 {
                    out.extend(clients);
                } else if duty > 0.0 {
                    let block = round / (mean_burst_rounds.max(1.0).round() as usize).max(1);
                    out.extend(clients.filter(|&c| {
                        per_client_rng(seed, ap_id, c).fork(block as u64).uniform() < duty
                    }));
                }
            }
            TrafficKind::FlashCrowd {
                base_duty,
                flash_every_rounds,
                flash_rounds,
            } => {
                if in_flash(seed, flash_every_rounds, flash_rounds, round) {
                    out.extend(clients);
                } else {
                    out.extend(clients.filter(|&c| is_on(base_duty, 4.0, seed, ap_id, c, round)));
                }
            }
            // Presence gates a saturated workload: a detached client has
            // simply left the floor.  Modelling churn as activation gating
            // keeps the topology and result-vector shapes fixed — an absent
            // client is one that never contends — which is what lets
            // 10⁵-round churn runs hold peak memory flat.
            TrafficKind::Churn {
                attached_fraction,
                mean_session_rounds,
            } => out.extend(clients.filter(|&c| {
                is_on(
                    attached_fraction,
                    mean_session_rounds,
                    seed ^ 0xC0FFEE,
                    ap_id,
                    c,
                    round,
                )
            })),
        }
    }

    /// Notification that `client` (AP-local, of `ap_id`) was served one
    /// TXOP in the current round: a Poisson queue drains one packet.
    pub(crate) fn served(&mut self, ap_id: usize, client: usize) {
        if let Some(depth) = self.queues.get_mut(ap_id).and_then(|q| q.get_mut(client)) {
            *depth = depth.saturating_sub(1);
        }
    }
}

/// Whether a duty-cycled client is inside an on-burst in `round`: each
/// client has data during `duty` (clamped to `[0, 1]`) of the rounds, in
/// bursts averaging `mean_burst_rounds` (clamped to ≥ 1) consecutive
/// rounds.
///
/// Every `(ap, client)` pair draws a private phase and an on-burst /
/// off-gap pair of lengths (jittered around the configured means) from the
/// seed, then repeats that pattern for the whole run — a stateless
/// per-round decision, so the schedule is independent of how many rounds
/// ran before or after.
fn is_on(
    duty: f64,
    mean_burst_rounds: f64,
    seed: u64,
    ap_id: usize,
    client: usize,
    round: usize,
) -> bool {
    let duty = duty.clamp(0.0, 1.0);
    if duty >= 1.0 {
        return true;
    }
    if duty <= 0.0 {
        return false;
    }
    let mut rng = per_client_rng(seed, ap_id, client);
    // Burst lengths: on for ~mean_burst_rounds, off for the complement
    // that realises the duty cycle; jittered per client so bursts do not
    // align across the floor.  The off-gap is at least one round (else
    // the pattern would degenerate to always-on), so the on-burst is
    // stretched to at least duty/(1-duty) rounds — otherwise high duty
    // cycles could never be realised (a 1-on/1-off pattern caps at 50%).
    let min_on = (duty / (1.0 - duty)).ceil();
    let on = (mean_burst_rounds.max(1.0) * rng.uniform_range(0.5, 1.5))
        .round()
        .max(1.0)
        .max(min_on);
    let off = (on * (1.0 - duty) / duty).round().max(1.0);
    let period = (on + off) as usize;
    let phase = rng.uniform_usize(period);
    (round + phase) % period < on as usize
}

/// Poisson packets arriving for `(ap, client)` in `round` at rate
/// `lambda` — a hash-derived draw, so the arrival sequence is independent
/// of query order.
fn arrivals(lambda: f64, seed: u64, ap_id: usize, client: usize, round: usize) -> u32 {
    let mut rng = per_client_rng(seed, ap_id, client).fork(round as u64);
    // Inverse-CDF Poisson sampling; fine for the per-round rates
    // (≤ a few packets) simulations use.
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

/// The diurnal duty at `round`: a raised cosine over `day_rounds` (clamped
/// to ≥ 2) between the trough (round 0, "midnight") and the peak (half a
/// day in), both clamped to `[0, 1]`.  Each client then gates per burst
/// block on a private hash draw against it, so the answer is a pure
/// function of the configuration and seed.
fn diurnal_duty(low_duty: f64, high_duty: f64, day_rounds: usize, round: usize) -> f64 {
    let a = low_duty.clamp(0.0, 1.0);
    let b = high_duty.clamp(0.0, 1.0);
    let (low, high) = (a.min(b), a.max(b));
    let day_rounds = day_rounds.max(2);
    let phase = (round % day_rounds) as f64 / day_rounds as f64;
    let mid = 0.5 * (low + high);
    let amp = 0.5 * (high - low);
    mid - amp * (2.0 * std::f64::consts::PI * phase).cos()
}

/// Whether `round` falls inside a flash-crowd event.  Event `k` starts at a
/// seed-jittered offset inside epoch `k` (epochs are `flash_every_rounds`,
/// clamped to ≥ 2, long) and backlogs *every* client for `flash_rounds`
/// (clamped into `1..=flash_every_rounds`); between events clients follow
/// an on/off baseline.
fn in_flash(seed: u64, flash_every_rounds: usize, flash_rounds: usize, round: usize) -> bool {
    let every = flash_every_rounds.max(2);
    let flash_rounds = flash_rounds.clamp(1, every);
    let epoch = round / every;
    // An event jittered late in epoch k-1 can spill into epoch k.
    for k in epoch.saturating_sub(1)..=epoch {
        let jitter = SimRng::new(seed ^ 0x00F1_A5C0)
            .fork(k as u64)
            .uniform_usize(every / 2 + 1);
        let start = k * every + jitter;
        if round >= start && round < start + flash_rounds {
            return true;
        }
    }
    false
}

/// Private per-(ap, client) RNG: decorrelates clients without depending on
/// query order.
fn per_client_rng(seed: u64, ap_id: usize, client: usize) -> SimRng {
    SimRng::new(seed ^ 0x7AFF1C).fork((ap_id as u64) << 20 | client as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TrafficState {
        /// The backlog of `ap_id` in `round`, in a fresh buffer.
        fn backlogged(&mut self, ap_id: usize, num_clients: usize, round: usize) -> Vec<usize> {
            let mut out = Vec::new();
            self.backlogged_into(ap_id, num_clients, round, &mut out);
            out
        }
    }

    fn on_off(duty: f64, mean_burst_rounds: f64, seed: u64) -> TrafficState {
        let kind = TrafficKind::OnOff {
            duty,
            mean_burst_rounds,
        };
        TrafficState::new(kind, seed)
    }

    fn poisson(mean_arrivals_per_round: f64, seed: u64) -> TrafficState {
        let kind = TrafficKind::Poisson {
            mean_arrivals_per_round,
        };
        TrafficState::new(kind, seed)
    }

    fn diurnal(low: f64, high: f64, day_rounds: usize, burst: f64, seed: u64) -> TrafficState {
        let kind = TrafficKind::Diurnal {
            low_duty: low,
            high_duty: high,
            day_rounds,
            mean_burst_rounds: burst,
        };
        TrafficState::new(kind, seed)
    }

    #[test]
    fn full_buffer_backlogs_every_client_every_round() {
        let mut m = TrafficState::new(TrafficKind::FullBuffer, 1);
        for round in 0..5 {
            assert_eq!(m.backlogged(0, 4, round), vec![0, 1, 2, 3]);
            assert_eq!(m.backlogged(3, 2, round), vec![0, 1]);
        }
        assert!(m.backlogged(0, 0, 0).is_empty());
    }

    #[test]
    fn on_off_duty_extremes_are_always_and_never() {
        let mut always = on_off(1.0, 4.0, 1);
        let mut never = on_off(0.0, 4.0, 1);
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
            let mut m = on_off(duty, burst, 42);
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
        let mut a = on_off(0.5, 3.0, 7);
        let mut b = on_off(0.5, 3.0, 7);
        // Query b in a scrambled round order; per-round answers must agree.
        let forward: Vec<_> = (0..20).map(|r| a.backlogged(1, 6, r)).collect();
        for r in (0..20).rev() {
            assert_eq!(b.backlogged(1, 6, r), forward[r], "round {r}");
        }
        // Different seeds decorrelate.
        let mut c = on_off(0.5, 3.0, 8);
        let other: Vec<_> = (0..20).map(|r| c.backlogged(1, 6, r)).collect();
        assert_ne!(forward, other);
    }

    #[test]
    fn poisson_queues_grow_with_arrivals_and_drain_when_served() {
        let mut m = poisson(1.5, 3);
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
        let mut m = poisson(0.0, 3);
        for round in 0..10 {
            assert!(m.backlogged(0, 4, round).is_empty());
        }
    }

    #[test]
    fn poisson_served_on_unknown_client_is_a_no_op() {
        let mut m = poisson(1.0, 3);
        m.served(5, 9); // nothing allocated yet — must not panic
        let _ = m.backlogged(0, 2, 0);
        m.served(0, 7); // out of range — still a no-op
    }

    #[test]
    fn diurnal_duty_tracks_the_envelope() {
        assert!((diurnal_duty(0.1, 0.9, 1_000, 0) - 0.1).abs() < 1e-12);
        assert!((diurnal_duty(0.1, 0.9, 1_000, 500) - 0.9).abs() < 1e-12);
        assert!(
            (diurnal_duty(0.1, 0.9, 1_000, 1_000) - 0.1).abs() < 1e-12,
            "period wraps"
        );
        // Realised load near the trough is well below the load near the peak.
        let mut m = diurnal(0.1, 0.9, 1_000, 4.0, 5);
        let load = |m: &mut TrafficState, lo: usize, hi: usize| -> f64 {
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
        let mut a = diurnal(0.2, 0.8, 64, 3.0, 7);
        let mut b = diurnal(0.2, 0.8, 64, 3.0, 7);
        let forward: Vec<_> = (0..50).map(|r| a.backlogged(1, 6, r)).collect();
        for r in (0..50).rev() {
            assert_eq!(b.backlogged(1, 6, r), forward[r], "round {r}");
        }
    }

    #[test]
    fn flash_crowd_backlogs_everyone_during_a_flash() {
        let kind = TrafficKind::FlashCrowd {
            base_duty: 0.05,
            flash_every_rounds: 50,
            flash_rounds: 5,
        };
        let mut m = TrafficState::new(kind, 9);
        let flash_rounds: Vec<usize> = (0..500).filter(|&r| in_flash(9, 50, 5, r)).collect();
        assert!(!flash_rounds.is_empty(), "no flash fired in 10 epochs");
        // Flashes cover roughly flash_rounds/flash_every of the horizon.
        assert!(flash_rounds.len() >= 40 && flash_rounds.len() <= 60);
        for &r in &flash_rounds {
            assert_eq!(m.backlogged(2, 7, r), (0..7).collect::<Vec<_>>());
        }
        // Off-flash rounds follow the light baseline: far fewer on-clients.
        let off_rounds: Vec<usize> = (0..500).filter(|&r| !in_flash(9, 50, 5, r)).collect();
        let off_load: usize = off_rounds
            .into_iter()
            .map(|r| m.backlogged(2, 7, r).len())
            .sum();
        assert!(off_load < 500, "baseline load too heavy: {off_load}");
    }

    #[test]
    fn churn_gates_the_inner_workload_by_presence() {
        let kind = TrafficKind::Churn {
            attached_fraction: 0.5,
            mean_session_rounds: 20.0,
        };
        let mut churn = TrafficState::new(kind, 3);
        let mut attached_total = 0usize;
        for round in 0..400 {
            let backlogged = churn.backlogged(0, 8, round);
            for &c in &backlogged {
                assert!(
                    is_on(0.5, 20.0, 3 ^ 0xC0FFEE, 0, c, round),
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
    }
}
