//! Deficit round robin (DRR) scheduling tailored for MU-MIMO (paper §3.2.5).
//!
//! MIDAS keeps one deficit counter per client, measured in time slots of
//! pending service.  When an MU-MIMO transmission opportunity of duration `T`
//! serves `n` clients, each served client's counter is decremented by `T`,
//! and the `nT` of service just consumed is credited equally (`nT/m`) to the
//! `m` backlogged clients that were *not* served, steering the long-run
//! schedule towards a fair allocation.

use crate::timing::MicroSeconds;

/// Deficit-round-robin fairness state for the clients of one AP.
#[derive(Debug, Clone, PartialEq)]
pub struct DrrScheduler {
    /// Deficit counter per client, in microseconds of pending service.
    deficits: Vec<f64>,
}

impl DrrScheduler {
    /// Creates a scheduler for `num_clients` clients with zeroed counters.
    pub fn new(num_clients: usize) -> Self {
        DrrScheduler {
            deficits: vec![0.0; num_clients],
        }
    }

    /// Number of clients tracked.
    pub fn num_clients(&self) -> usize {
        self.deficits.len()
    }

    /// Picks, among `candidates`, the client with the largest deficit counter.
    /// Ties are broken by the lower client index for determinism.  Returns
    /// `None` when the candidate list is empty.
    pub fn select(&self, candidates: &[usize]) -> Option<usize> {
        candidates.iter().copied().max_by(|&a, &b| {
            self.deficits[a]
                .partial_cmp(&self.deficits[b])
                .unwrap()
                .then(b.cmp(&a))
        })
    }

    /// Applies the MU-MIMO counter update after a transmission of duration
    /// `txop_us` that served `served` and left `backlogged_unserved` clients
    /// (clients with pending packets that were not picked).
    pub fn update_after_txop(
        &mut self,
        served: &[usize],
        backlogged_unserved: &[usize],
        txop_us: MicroSeconds,
    ) {
        let t = txop_us as f64;
        for &c in served {
            self.deficits[c] -= t;
        }
        let n = served.len() as f64;
        let m = backlogged_unserved.len() as f64;
        if m > 0.0 {
            let credit = n * t / m;
            for &c in backlogged_unserved {
                self.deficits[c] += credit;
            }
        }
    }

    /// Restarts the scheduler for a new client population of `num_clients`
    /// in place — equal to `DrrScheduler::new(num_clients)`, but keeping the
    /// counter buffer.
    pub fn restart(&mut self, num_clients: usize) {
        self.deficits.clear();
        self.deficits.resize(num_clients, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_picks_largest_deficit_with_deterministic_ties() {
        let mut s = DrrScheduler::new(4);
        assert_eq!(
            s.select(&[2, 1, 3]),
            Some(1),
            "all-zero counters tie-break by index"
        );
        s.update_after_txop(&[1], &[2, 3], 1_000);
        // Client 1 now has -1000, clients 2 and 3 have +500 each.
        assert_eq!(s.select(&[1, 2, 3]), Some(2));
        assert!(s.deficits[1] < 0.0);
        assert!((s.deficits[2] - 500.0).abs() < 1e-9);
        assert_eq!(s.select(&[]), None);
    }

    #[test]
    fn restart_equals_a_fresh_scheduler() {
        let mut s = DrrScheduler::new(3);
        s.update_after_txop(&[0], &[1, 2], 1_000);
        s.restart(5);
        assert_eq!(s, DrrScheduler::new(5));
        s.update_after_txop(&[4], &[0], 1_000);
        s.restart(2);
        assert_eq!(s, DrrScheduler::new(2));
    }

    #[test]
    fn counter_update_matches_paper_rule() {
        let mut s = DrrScheduler::new(5);
        // n = 2 served, m = 3 backlogged-unserved, T = 3000.
        s.update_after_txop(&[0, 1], &[2, 3, 4], 3_000);
        assert!((s.deficits[0] + 3_000.0).abs() < 1e-9);
        assert!((s.deficits[1] + 3_000.0).abs() < 1e-9);
        for c in 2..5 {
            assert!((s.deficits[c] - 2_000.0).abs() < 1e-9, "client {c}");
        }
        // Total service is conserved: sum of deficits stays zero.
        let sum: f64 = (0..5).map(|c| s.deficits[c]).sum();
        assert!(sum.abs() < 1e-9);
    }

    #[test]
    fn no_unserved_clients_means_no_credit() {
        let mut s = DrrScheduler::new(2);
        s.update_after_txop(&[0, 1], &[], 1_000);
        assert!((s.deficits[0] + 1_000.0).abs() < 1e-9);
        assert!((s.deficits[1] + 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn long_run_schedule_is_fair_across_backlogged_clients() {
        // 4 always-backlogged clients, 2 streams per TXOP: over many rounds
        // every client should be served about the same number of times.
        let mut s = DrrScheduler::new(4);
        let mut served_count = [0usize; 4];
        for _ in 0..1_000 {
            let all: Vec<usize> = (0..4).collect();
            let first = s.select(&all).unwrap();
            let rest: Vec<usize> = all.iter().copied().filter(|&c| c != first).collect();
            let second = s.select(&rest).unwrap();
            let served = [first, second];
            let unserved: Vec<usize> = all
                .iter()
                .copied()
                .filter(|c| !served.contains(c))
                .collect();
            s.update_after_txop(&served, &unserved, 3_000);
            served_count[first] += 1;
            served_count[second] += 1;
        }
        let min = *served_count.iter().min().unwrap() as f64;
        let max = *served_count.iter().max().unwrap() as f64;
        assert!(
            max / min < 1.05,
            "long-run service counts too unequal: {served_count:?}"
        );
    }
}
