//! Ranked list snapshots and the accumulate-only monitored set.

use serde::{Deserialize, Serialize};

/// A ranked site list with churn: every site has a rank and the week it
/// first enters the list. Site identities are `u32` indices into whatever
//  population the caller keeps (the `ipv6web-web` crate's `SiteId`s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopList {
    entries: Vec<ListEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct ListEntry {
    id: u32,
    rank: u32,
    first_seen_week: u32,
}

impl TopList {
    /// Builds a list from `(id, rank, first_seen_week)` triples.
    ///
    /// # Panics
    /// Panics on duplicate ids.
    pub fn from_parts(parts: impl IntoIterator<Item = (u32, u32, u32)>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<ListEntry> = parts
            .into_iter()
            .map(|(id, rank, first_seen_week)| {
                assert!(seen.insert(id), "duplicate site id {id}");
                ListEntry { id, rank, first_seen_week }
            })
            .collect();
        TopList { entries }
    }

    /// Total sites ever in the list.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids present in the list snapshot of `week`, in list order.
    pub fn present(&self, week: u32) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().filter(move |e| e.first_seen_week <= week).map(|e| e.id)
    }

    /// Rank of a site, if it is in the list at all.
    pub fn rank_of(&self, id: u32) -> Option<u32> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.rank)
    }
}

/// The accumulate-only monitored set: "new sites … are added to the
/// monitoring list and tracked from this point onward" (Section 3).
///
/// Dense over site ids: slot `id` holds the week the site was added, so
/// ingest and lookup are O(1) and members come out ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitoredSet {
    added_week: Vec<u32>,
    len: usize,
}

/// Slot value of an id that is not monitored.
const ABSENT: u32 = u32::MAX;

impl MonitoredSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a round's list snapshot (plus any external inputs): ids not
    /// seen before are added with `week` as their addition week. Returns
    /// how many were new.
    pub fn ingest(&mut self, week: u32, ids: impl IntoIterator<Item = u32>) -> usize {
        debug_assert!(week != ABSENT, "week {week} is the absent marker");
        let mut added = 0;
        for id in ids {
            let i = id as usize;
            if i >= self.added_week.len() {
                self.added_week.resize(i + 1, ABSENT);
            }
            if self.added_week[i] == ABSENT {
                self.added_week[i] = week;
                added += 1;
            }
        }
        self.len += added;
        ipv6web_obs::add("alexa.sites_ingested", added as u64);
        added
    }

    /// All monitored ids (ascending).
    pub fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.added_week.iter().enumerate().filter(|(_, &w)| w != ABSENT).map(|(id, _)| id as u32)
    }

    /// Week a site was added, if monitored.
    pub fn added_week(&self, id: u32) -> Option<u32> {
        self.added_week.get(id as usize).copied().filter(|&w| w != ABSENT)
    }

    /// Number of monitored sites.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is monitored yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> TopList {
        TopList::from_parts([
            (0, 1, 0), // top site, present from start
            (1, 2, 0),
            (2, 3, 5), // churns in at week 5
            (3, 4, 0),
            (4, 5, 20), // churns in at week 20
        ])
    }

    #[test]
    fn present_respects_first_seen() {
        let l = list();
        let present = |week| l.present(week).collect::<Vec<_>>();
        assert_eq!(present(0), vec![0, 1, 3]);
        assert_eq!(present(5), vec![0, 1, 2, 3]);
        assert_eq!(present(19), vec![0, 1, 2, 3]);
        assert_eq!(present(20), vec![0, 1, 2, 3, 4]);
        assert_eq!(present(30), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn present_keeps_list_order() {
        let l = TopList::from_parts([(9, 3, 0), (7, 1, 0), (8, 2, 0)]);
        assert_eq!(l.present(0).collect::<Vec<_>>(), vec![9, 7, 8]);
    }

    #[test]
    fn rank_lookup() {
        let l = list();
        assert_eq!(l.rank_of(3), Some(4));
        assert_eq!(l.rank_of(99), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_panic() {
        TopList::from_parts([(1, 1, 0), (1, 2, 0)]);
    }

    #[test]
    fn monitored_set_accumulates() {
        let l = list();
        let mut m = MonitoredSet::new();
        assert_eq!(m.ingest(0, l.present(0)), 3);
        assert_eq!(m.len(), 3);
        // week 5: one new site
        assert_eq!(m.ingest(5, l.present(5)), 1);
        // re-ingesting adds nothing
        assert_eq!(m.ingest(6, l.present(5)), 0);
        // sites never leave
        assert_eq!(m.ingest(7, vec![0]), 0);
        assert_eq!(m.len(), 4);
        assert_eq!(m.added_week(2), Some(5));
        assert_eq!(m.added_week(0), Some(0));
        assert_eq!(m.added_week(4), None);
    }

    #[test]
    fn external_inputs_join_the_set() {
        // Penn's DNS-cache tail: ids beyond the ranked list
        let mut m = MonitoredSet::new();
        m.ingest(0, list().present(0));
        let before = m.len();
        m.ingest(3, vec![1000, 1001]);
        assert_eq!(m.len(), before + 2);
        assert_eq!(m.added_week(1000), Some(3));
    }

    #[test]
    fn members_sorted() {
        let mut m = MonitoredSet::new();
        m.ingest(0, vec![5, 1, 9]);
        assert_eq!(m.members().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn ingest_counts_only_new_ids() {
        let mut m = MonitoredSet::new();
        // duplicates within one batch count once
        assert_eq!(m.ingest(0, vec![3, 3, 1]), 2);
        assert_eq!(m.ingest(1, vec![1, 2, 3, 4]), 2);
        assert_eq!(m.ingest(2, Vec::new()), 0);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
        assert!(MonitoredSet::new().is_empty());
    }

    #[test]
    fn added_week_beyond_the_vector_is_none() {
        let mut m = MonitoredSet::new();
        assert_eq!(m.added_week(0), None);
        m.ingest(2, vec![4]);
        // below, at and beyond the dense vector's end
        assert_eq!(m.added_week(3), None);
        assert_eq!(m.added_week(4), Some(2));
        assert_eq!(m.added_week(5), None);
        assert_eq!(m.added_week(u32::MAX - 1), None);
    }

    #[test]
    fn tail_ids_out_of_rank_order_keep_their_weeks() {
        // Penn's DNS-cache tail arrives in no particular id order, after
        // and between the ranked ids
        let mut m = MonitoredSet::new();
        m.ingest(0, vec![2, 0, 1]);
        assert_eq!(m.ingest(3, vec![1009, 1002, 1005]), 3);
        assert_eq!(m.ingest(4, vec![1003, 1002, 7]), 2);
        assert_eq!(m.members().collect::<Vec<_>>(), vec![0, 1, 2, 7, 1002, 1003, 1005, 1009]);
        assert_eq!(m.added_week(1009), Some(3));
        assert_eq!(m.added_week(1002), Some(3));
        assert_eq!(m.added_week(1003), Some(4));
        assert_eq!(m.added_week(7), Some(4));
        assert_eq!(m.added_week(1004), None);
        assert_eq!(m.len(), 8);
    }
}
