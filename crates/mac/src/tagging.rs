//! Virtual packet tagging (paper §3.2.4).
//!
//! Based on the *average* received signal strength from each antenna at each
//! client, the MIDAS AP orders its antennas by preference for that client and
//! virtually tags the client's packets with the best `tag_width` antennas
//! (two, for the paper's medium client densities).  A packet is then eligible
//! for a MU-MIMO transmission only if at least one of its tagged antennas is
//! available, which simultaneously (i) steers transmissions onto strong links
//! and (ii) avoids serving a client whose nearby antenna senses a busy medium
//! — the hidden-terminal protection argument of §3.2.4.

/// Antenna-preference-based packet tags for all clients of one AP.
///
/// Stored flat (one row of `antennas` preferences and one row of tags per
/// client) so [`TagTable::rebuild`] can refill a table in place, keeping
/// its buffers, when the RSSI picture changes mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct TagTable {
    /// Clients covered.
    clients: usize,
    /// Antennas per client row.
    antennas: usize,
    /// Antennas tagged per client: `tag_width` clamped to `antennas`.
    width: usize,
    /// Row `c` = antenna indices tagged for client `c`, strongest first.
    tags: Vec<usize>,
    /// Row `c` = full preference order of client `c`, strongest first.
    preferences: Vec<usize>,
    /// How many antennas each client's packets are tagged with.
    tag_width: usize,
}

impl TagTable {
    /// Builds the tag table from per-client mean RSSI values.
    ///
    /// `rssi_dbm[c][a]` is the average RSSI of antenna `a` at client `c`.
    /// `tag_width` antennas are tagged per client (clamped to the antenna
    /// count); the paper uses 2.
    pub fn from_rssi(rssi_dbm: &[Vec<f64>], tag_width: usize) -> Self {
        let mut table = TagTable {
            clients: 0,
            antennas: 0,
            width: 0,
            tags: Vec::new(),
            preferences: Vec::new(),
            tag_width,
        };
        table.rebuild(rssi_dbm.iter().map(Vec::as_slice), tag_width);
        table
    }

    /// Rebuilds the table in place from per-client RSSI rows (`rows` yields
    /// client `c`'s per-antenna mean RSSI, in client order), reusing the
    /// table's buffers; the result equals [`TagTable::from_rssi`] on the
    /// same rows.
    ///
    /// # Panics
    /// Panics on a zero `tag_width` or rows of unequal length.
    pub fn rebuild<'a>(&mut self, rows: impl IntoIterator<Item = &'a [f64]>, tag_width: usize) {
        assert!(tag_width >= 1, "tag width must be at least 1");
        self.tag_width = tag_width;
        self.clients = 0;
        self.antennas = 0;
        self.width = 0;
        self.tags.clear();
        self.preferences.clear();
        for row in rows {
            if self.clients == 0 {
                self.antennas = row.len();
                self.width = tag_width.min(row.len());
            }
            assert_eq!(row.len(), self.antennas, "TagTable: ragged RSSI rows");
            let start = self.preferences.len();
            self.preferences.extend(0..row.len());
            // Stable sort: equal RSSI keeps the lower antenna index first.
            self.preferences[start..].sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
            self.tags
                .extend_from_slice(&self.preferences[start..start + self.width]);
            self.clients += 1;
        }
    }

    /// Number of clients covered by the table.
    pub fn num_clients(&self) -> usize {
        self.clients
    }

    /// The configured tag width.
    pub fn tag_width(&self) -> usize {
        self.tag_width
    }

    /// Antennas tagged for `client`, strongest first.
    fn tags_of(&self, client: usize) -> &[usize] {
        assert!(client < self.clients, "client {client} not in the table");
        &self.tags[client * self.width..(client + 1) * self.width]
    }

    /// Whether `client`'s packets may ride on `antenna`.
    pub fn is_tagged(&self, client: usize, antenna: usize) -> bool {
        self.tags_of(client).contains(&antenna)
    }

    /// Whether a packet for `client` is eligible given the set of available
    /// antennas: at least one tagged antenna must be available (§3.2.4).
    pub fn eligible(&self, client: usize, available_antennas: &[usize]) -> bool {
        self.tags_of(client)
            .iter()
            .any(|a| available_antennas.contains(a))
    }

    /// Clients (from `clients`) that are eligible for the available antennas.
    pub fn filter_clients(&self, clients: &[usize], available_antennas: &[usize]) -> Vec<usize> {
        clients
            .iter()
            .copied()
            .filter(|&c| self.eligible(c, available_antennas))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 clients x 4 antennas; client c is closest to antenna c.
    fn rssi_fixture() -> Vec<Vec<f64>> {
        vec![
            vec![-40.0, -70.0, -75.0, -60.0],
            vec![-72.0, -42.0, -61.0, -78.0],
            vec![-80.0, -65.0, -45.0, -70.0],
            vec![-55.0, -75.0, -68.0, -41.0],
        ]
    }

    #[test]
    fn tags_pick_the_strongest_antennas() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        assert_eq!(t.tags_of(0), &[0, 3]);
        assert_eq!(t.tags_of(1), &[1, 2]);
        assert_eq!(t.tags_of(2), &[2, 1]);
        assert_eq!(t.tags_of(3), &[3, 0]);
        assert_eq!(t.tag_width(), 2);
        assert_eq!(t.num_clients(), 4);
    }

    #[test]
    fn preference_is_a_full_ordering() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        assert_eq!(&t.preferences[0..4], &[0, 3, 1, 2]);
        assert_eq!(&t.preferences[8..12], &[2, 1, 3, 0]);
    }

    #[test]
    fn eligibility_requires_a_tagged_antenna_to_be_available() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        // Antennas 2 and 3 busy -> only antennas 0, 1 available.
        let available = vec![0, 1];
        assert!(t.eligible(0, &available)); // tagged to 0
        assert!(t.eligible(1, &available)); // tagged to 1
                                            // client 2 is tagged to [2, 1]; antenna 1 is available so it *is* eligible.
        assert!(t.eligible(2, &available));
        // client 3 tagged to [3, 0]; antenna 0 available.
        assert!(t.eligible(3, &available));
        // With only antenna 2 available, clients 0, 3 (tagged 0/3) are filtered out.
        assert_eq!(t.filter_clients(&[0, 1, 2, 3], &[2]), vec![1, 2]);
    }

    #[test]
    fn paper_figure6_scenario_clients_of_busy_antennas_are_filtered() {
        // Figure 6 of the paper: antennas A3, A4 are busy; clients whose both
        // tagged antennas are among the busy ones are not considered.
        // Build 6 clients where clients 5 and 6 (indices 4, 5) are tagged only
        // to antennas 2 and 3.
        let rssi = vec![
            vec![-40.0, -60.0, -80.0, -85.0],
            vec![-42.0, -58.0, -79.0, -84.0],
            vec![-60.0, -41.0, -82.0, -83.0],
            vec![-61.0, -43.0, -81.0, -86.0],
            vec![-80.0, -82.0, -44.0, -55.0],
            vec![-81.0, -83.0, -56.0, -45.0],
        ];
        let t = TagTable::from_rssi(&rssi, 2);
        let available = vec![0, 1]; // antennas 2, 3 busy
        let eligible = t.filter_clients(&[0, 1, 2, 3, 4, 5], &available);
        assert_eq!(eligible, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tagging_all_antennas_makes_everyone_always_eligible() {
        let t = TagTable::from_rssi(&rssi_fixture(), 4);
        for c in 0..4 {
            assert_eq!(t.tags_of(c).len(), 4);
            assert!(t.eligible(c, &[1]));
        }
    }

    #[test]
    fn tag_width_is_clamped_to_antenna_count() {
        let t = TagTable::from_rssi(&rssi_fixture(), 10);
        assert_eq!(t.tags_of(0).len(), 4);
    }

    #[test]
    fn rebuild_in_place_equals_a_fresh_table() {
        let fixture = rssi_fixture();
        let mut t = TagTable::from_rssi(&fixture[..2], 1);
        // Grow, shrink and regrow: every rebuild equals from_rssi on the
        // same rows, and ties keep the lower antenna first.
        let tied = vec![vec![-50.0, -40.0, -40.0, -60.0]; 3];
        for rows in [&fixture[..], &tied[..], &fixture[1..3], &[][..]] {
            t.rebuild(rows.iter().map(Vec::as_slice), 2);
            assert_eq!(t, TagTable::from_rssi(rows, 2));
        }
        t.rebuild(tied.iter().map(Vec::as_slice), 2);
        assert_eq!(t.tags_of(2), &[1, 2]);
    }

    #[test]
    fn rebuild_keeps_its_buffers_once_warm() {
        let fixture = rssi_fixture();
        let mut t = TagTable::from_rssi(&fixture, 2);
        let caps = (t.tags.capacity(), t.preferences.capacity());
        for _ in 0..10 {
            t.rebuild(fixture.iter().map(Vec::as_slice), 2);
            t.rebuild(fixture[..1].iter().map(Vec::as_slice), 2);
        }
        assert_eq!((t.tags.capacity(), t.preferences.capacity()), caps);
    }
}
