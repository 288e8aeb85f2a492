//! Downlink traffic workloads — the workload axis of the session API.
//!
//! The paper's figures run *full-buffer* traffic: every client has queued
//! downlink data in every round, so the MAC never idles and every figure
//! measures saturation capacity.  The load-vs-gain study runs lighter,
//! burstier traffic: an enterprise floor at 30 % offered load contends
//! very differently from one at saturation.
//!
//! [`TrafficKind`] names the workload.  Once per (AP, round) the simulator
//! asks it which of the AP's own clients are *backlogged* (have queued
//! downlink data), and only those clients are eligible for selection.
//! [`TrafficKind::FullBuffer`] reproduces the legacy behaviour **bit for
//! bit** — every client, every round, no RNG consumed — which is what
//! keeps every figure byte-identical; [`TrafficKind::OnOff`] adds
//! duty-cycled bursts.  The set is closed: a workload reaches a simulator
//! only as a `TrafficKind`.
//!
//! Determinism contract: whether a client is backlogged is a pure function
//! of the workload, the simulation seed, the client's global id and the
//! round — never of which AP serves it, where it sits in that AP's client
//! list, the order of queries, wall clock or global state.  So a client
//! that hands off keeps its burst pattern, and every workload is safe to
//! run through the deterministic `SeedSweep` engine at any thread count.

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
}

impl TrafficKind {
    /// Clears `out` and fills it with the positions in `own` (ascending) of
    /// the clients backlogged in `round`.  `own` is an AP's own-client
    /// list of global client ids; `seed` is the simulation seed.
    pub(crate) fn backlogged_into(
        &self,
        seed: u64,
        own: &[usize],
        round: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match *self {
            TrafficKind::FullBuffer => out.extend(0..own.len()),
            TrafficKind::OnOff {
                duty,
                mean_burst_rounds,
            } => out.extend(
                own.iter()
                    .enumerate()
                    .filter(|&(_, &client)| is_on(duty, mean_burst_rounds, seed, client, round))
                    .map(|(l, _)| l),
            ),
        }
    }
}

/// Whether a duty-cycled client is inside an on-burst in `round`: each
/// client has data during `duty` (clamped to `[0, 1]`) of the rounds, in
/// bursts averaging `mean_burst_rounds` (clamped to ≥ 1) consecutive
/// rounds.
///
/// Every client (by global id) draws a private phase and an on-burst /
/// off-gap pair of lengths (jittered around the configured means) from the
/// seed, then repeats that pattern for the whole run — a stateless
/// per-round decision, so the schedule is independent of how many rounds
/// ran before or after.
fn is_on(duty: f64, mean_burst_rounds: f64, seed: u64, client: usize, round: usize) -> bool {
    let duty = duty.clamp(0.0, 1.0);
    if duty >= 1.0 {
        return true;
    }
    if duty <= 0.0 {
        return false;
    }
    let mut rng = SimRng::new(seed ^ 0x7AFF1C).fork(client as u64);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The backlog of an AP whose own clients are `own`, in a fresh buffer.
    fn backlogged(kind: TrafficKind, seed: u64, own: &[usize], round: usize) -> Vec<usize> {
        let mut out = Vec::new();
        kind.backlogged_into(seed, own, round, &mut out);
        out
    }

    fn on_off(duty: f64, mean_burst_rounds: f64) -> TrafficKind {
        TrafficKind::OnOff {
            duty,
            mean_burst_rounds,
        }
    }

    #[test]
    fn full_buffer_backlogs_every_client_every_round() {
        let full = TrafficKind::FullBuffer;
        for round in 0..5 {
            assert_eq!(backlogged(full, 1, &[0, 1, 2, 3], round), vec![0, 1, 2, 3]);
            assert_eq!(backlogged(full, 1, &[9, 4], round), vec![0, 1]);
        }
        assert!(backlogged(full, 1, &[], 0).is_empty());
    }

    #[test]
    fn on_off_duty_extremes_are_always_and_never() {
        for round in 0..10 {
            assert_eq!(
                backlogged(on_off(1.0, 4.0), 1, &[0, 1, 2], round),
                vec![0, 1, 2]
            );
            assert!(backlogged(on_off(0.0, 4.0), 1, &[0, 1, 2], round).is_empty());
        }
    }

    #[test]
    fn on_off_realises_roughly_its_duty_cycle() {
        // Includes a high duty with short bursts: the on-burst must stretch
        // past the >= 1-round off-gap clamp, or 0.9 would cap at 0.5.
        let own: Vec<usize> = (0..8).collect();
        for (duty, burst, lo, hi) in [(0.3, 4.0, 0.2, 0.4), (0.9, 1.0, 0.8, 0.97)] {
            let rounds = 2_000;
            let on: usize = (0..rounds)
                .map(|round| backlogged(on_off(duty, burst), 42, &own, round).len())
                .sum();
            let realised = on as f64 / (rounds * own.len()) as f64;
            assert!(
                (lo..=hi).contains(&realised),
                "realised duty {realised:.3} far from configured {duty}"
            );
        }
    }

    #[test]
    fn on_off_is_deterministic_and_order_independent() {
        let kind = on_off(0.5, 3.0);
        let own = [20, 21, 22, 23, 24, 25];
        // Query in a scrambled round order; per-round answers must agree.
        let forward: Vec<_> = (0..20).map(|r| backlogged(kind, 7, &own, r)).collect();
        for r in (0..20).rev() {
            assert_eq!(backlogged(kind, 7, &own, r), forward[r], "round {r}");
        }
        // Different seeds decorrelate.
        let other: Vec<_> = (0..20).map(|r| backlogged(kind, 8, &own, r)).collect();
        assert_ne!(forward, other);
    }

    /// A client's backlog follows its global id: it is the same whether
    /// the client is listed alone or among others, at any position, so a
    /// handoff that rebuilds the own-client lists moves no burst pattern.
    #[test]
    fn on_off_backlog_follows_the_client_not_its_position() {
        let kind = on_off(0.4, 2.0);
        let clients = [0, 3, 17, 42, 511];
        let mut on_rounds = 0;
        for round in 0..40 {
            let alone: Vec<bool> = clients
                .iter()
                .map(|&c| backlogged(kind, 5, &[c], round) == [0])
                .collect();
            on_rounds += alone.iter().filter(|&&on| on).count();
            // Every rotation of the list puts each client at every position.
            for shift in 0..clients.len() {
                let mut own = clients.to_vec();
                own.rotate_left(shift);
                let listed = backlogged(kind, 5, &own, round);
                let expected: Vec<usize> = (0..own.len())
                    .filter(|&l| alone[(l + shift) % clients.len()])
                    .collect();
                assert_eq!(listed, expected, "round {round}, shift {shift}");
            }
        }
        assert!(
            on_rounds > 0 && on_rounds < 40 * clients.len(),
            "the pattern must be neither always on nor always off"
        );
    }
}
