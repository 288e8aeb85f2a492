//! Opportunistic antenna selection (paper §3.2.3).
//!
//! When one antenna of a MIDAS AP wins channel access, the AP inspects the
//! carrier-sense state of its other antennas.  Any antenna that is already
//! idle is used immediately; an antenna whose reservation expires within one
//! DIFS is *waited for* (DIFS is long enough to be useful but short enough
//! not to squander the access that was just won); antennas busy for longer
//! are left out of this MU-MIMO transmission.

use crate::carrier_sense::CarrierSense;
use crate::timing::MicroSeconds;

/// The outcome of opportunistic antenna selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AntennaSelection {
    /// Antennas that will take part in the MU-MIMO transmission, ordered by
    /// the time they become available (the primary antenna first).
    pub antennas: Vec<usize>,
    /// Time at which the transmission can actually start: the latest expiry
    /// among the waited-for antennas (equals `now` when nothing is waited for).
    pub start_time: MicroSeconds,
}

impl AntennaSelection {
    /// Number of antennas selected.
    pub fn len(&self) -> usize {
        self.antennas.len()
    }

    /// Whether no antenna was selected.
    pub fn is_empty(&self) -> bool {
        self.antennas.is_empty()
    }
}

/// Performs opportunistic antenna selection at time `now`, given that antenna
/// `primary` just gained channel access.
///
/// `wait_window_us` is the maximum extra time the AP is willing to wait for
/// busy antennas to free up; MIDAS uses one DIFS (§3.2.3), and the ablation
/// benches sweep it.
pub fn select_opportunistic(
    cs: &CarrierSense,
    primary: usize,
    now: MicroSeconds,
    wait_window_us: MicroSeconds,
) -> AntennaSelection {
    // (availability time, antenna) for every antenna that is idle now or
    // becomes idle within the wait window.
    let mut avail: Vec<(MicroSeconds, usize)> = Vec::new();
    for a in 0..cs.num_antennas() {
        let busy_until = cs.busy_until(a);
        let ready_at = busy_until.max(now);
        if a == primary || busy_until <= now {
            avail.push((now, a));
        } else if ready_at <= now + wait_window_us {
            avail.push((ready_at, a));
        }
    }
    // Primary first, then by availability time, then index for determinism.
    avail.sort_by_key(|&(t, a)| (a != primary, t, a));
    let start_time = avail.iter().map(|&(t, _)| t).max().unwrap_or(now);
    AntennaSelection {
        antennas: avail.into_iter().map(|(_, a)| a).collect(),
        start_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One DIFS (SIFS + 2 slots = 16 + 2·9 µs): the window MIDAS waits.
    const DIFS_US: MicroSeconds = 34;

    fn cs_with_busy(busy: &[(usize, MicroSeconds)]) -> CarrierSense {
        let mut cs = CarrierSense::new(4, -82.0);
        for &(a, until) in busy {
            cs.observe(a, -50.0, until);
        }
        cs
    }

    #[test]
    fn all_idle_antennas_join_immediately() {
        let cs = cs_with_busy(&[]);
        let sel = select_opportunistic(&cs, 2, 1_000, DIFS_US);
        assert_eq!(sel.len(), 4);
        assert_eq!(sel.antennas[0], 2);
        assert_eq!(sel.start_time, 1_000);
    }

    #[test]
    fn antenna_expiring_within_difs_is_waited_for() {
        // Antenna 1 busy until now+20 (< DIFS=34), antenna 3 busy until now+10_000.
        let now = 1_000;
        let cs = cs_with_busy(&[(1, now + 20), (3, now + 10_000)]);
        let sel = select_opportunistic(&cs, 0, now, DIFS_US);
        assert_eq!(sel.antennas, vec![0, 2, 1]);
        assert_eq!(sel.start_time, now + 20);
        assert!(!sel.antennas.contains(&3));
    }

    #[test]
    fn idle_only_selection_skips_soon_to_expire_antennas() {
        let now = 1_000;
        let cs = cs_with_busy(&[(1, now + 20)]);
        let sel = select_opportunistic(&cs, 0, now, 0);
        assert_eq!(sel.antennas, vec![0, 2, 3]);
        assert_eq!(sel.start_time, now);
    }

    #[test]
    fn antenna_busy_beyond_the_window_is_excluded() {
        let now = 500;
        let cs = cs_with_busy(&[(2, now + DIFS_US + 1)]);
        let sel = select_opportunistic(&cs, 0, now, DIFS_US);
        assert!(!sel.antennas.contains(&2));
        // A custom, longer window picks it up.
        let sel_wide = select_opportunistic(&cs, 0, now, DIFS_US + 10);
        assert!(sel_wide.antennas.contains(&2));
        assert_eq!(sel_wide.start_time, now + DIFS_US + 1);
    }

    #[test]
    fn primary_is_always_first_even_if_others_free_earlier() {
        let now = 100;
        let cs = cs_with_busy(&[]);
        let sel = select_opportunistic(&cs, 3, now, DIFS_US);
        assert_eq!(sel.antennas[0], 3);
        assert_eq!(sel.len(), 4);
    }
}
