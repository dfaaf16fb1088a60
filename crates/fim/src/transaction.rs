//! Transactions, frequent pairs and the miner interface.

use crate::radix::radix_sort;

/// A transaction database: each transaction is the set of distinct blocks
/// requested within one time window `T` ("we first investigate the trace of
/// the storage system and determine the data blocks that are requested
/// within a short time interval T", §IV-A).
///
/// Block numbers (LBNs) are dictionary-compressed to dense item ids, and
/// the ids ascend with the LBNs: `a < b` as ids means `a < b` as blocks,
/// which is what lets a miner emit `(a, b)`-ordered pairs without a sort
/// in LBN space. Two databases are equal when their transactions and
/// dictionaries are; the events' order and the working buffers are not
/// compared.
#[derive(Debug, Clone, Default)]
pub struct TransactionDb {
    /// Every transaction's items back to back; within one transaction the
    /// ids are ascending and distinct.
    pub(crate) items: Vec<u32>,
    /// Transaction `t` is `items[ends[t - 1]..ends[t]]` (from 0 for `t = 0`).
    ends: Vec<usize>,
    /// Item id → original LBN, strictly ascending.
    pub(crate) item_to_lbn: Vec<u64>,
    /// Each event's item id, in the order the events were given (empty for
    /// a database built from transactions).
    pub(crate) event_items: Vec<u32>,
    /// Working buffers: event times, `(key, index)` rows and the radix
    /// sort's other half.
    times: Vec<u64>,
    keyed: Vec<(u64, u32)>,
    sorted: Vec<(u64, u32)>,
}

impl PartialEq for TransactionDb {
    fn eq(&self, other: &Self) -> bool {
        (&self.items, &self.ends, &self.item_to_lbn)
            == (&other.items, &other.ends, &other.item_to_lbn)
    }
}

impl Eq for TransactionDb {}

impl TransactionDb {
    /// Build from timed block requests `(time_ns, lbn)`, windowing by
    /// `window_ns`. Events need not be sorted; windows are absolute
    /// (`time / window_ns`).
    pub fn from_timed_events(events: impl IntoIterator<Item = (u64, u64)>, window_ns: u64) -> Self {
        let mut db = TransactionDb::default();
        db.refill(events, window_ns);
        db
    }

    /// Become [`TransactionDb::from_timed_events`]`(events, window_ns)` in
    /// this database's buffers: once they are as large as the events need,
    /// nothing allocates.
    pub fn refill(&mut self, events: impl IntoIterator<Item = (u64, u64)>, window_ns: u64) {
        assert!(window_ns > 0);
        self.times.clear();
        self.keyed.clear();
        for (index, (t, lbn)) in (0..).zip(events) {
            self.times.push(t);
            self.keyed.push((lbn, index));
        }
        // The dictionary: blocks by LBN, numbered in ascending order.
        let (keyed, sorted) = (&mut self.keyed, &mut self.sorted);
        radix_sort(keyed, sorted, |e| e.0);
        self.item_to_lbn.clear();
        self.event_items.resize(keyed.len(), 0);
        for &(lbn, index) in keyed.iter() {
            if self.item_to_lbn.last() != Some(&lbn) {
                self.item_to_lbn.push(lbn);
            }
            self.event_items[index as usize] = (self.item_to_lbn.len() - 1) as u32;
        }

        // The events by time as `(time, item)`; a trace interval arrives in
        // time order, anything else is sorted.
        let timed = self.times.iter().zip(&self.event_items);
        keyed.clear();
        keyed.extend(timed.map(|(&t, &item)| (t, item)));
        if !keyed.windows(2).all(|e| e[0].0 <= e[1].0) {
            radix_sort(keyed, sorted, |e| e.0);
        }
        self.items.clear();
        self.ends.clear();
        let Some(&(first, _)) = keyed.first() else {
            return;
        };
        // One division per transaction: the start of the window it opens.
        let (mut start, mut window) = (0, first - first % window_ns);
        for &(t, item) in keyed.iter() {
            if t - window >= window_ns {
                close_transaction(&mut self.items, &mut self.ends, start);
                (start, window) = (self.items.len(), t - t % window_ns);
            }
            self.items.push(item);
        }
        close_transaction(&mut self.items, &mut self.ends, start);
    }

    /// Build directly from item-id transactions (tests, benchmarks).
    pub fn from_transactions(transactions: Vec<Vec<u32>>, num_items: u32) -> Self {
        let mut db = TransactionDb {
            item_to_lbn: (0..u64::from(num_items)).collect(),
            ..TransactionDb::default()
        };
        for t in transactions {
            assert!(t.iter().all(|&i| i < num_items));
            let start = db.items.len();
            db.items.extend(t);
            close_transaction(&mut db.items, &mut db.ends, start);
        }
        db
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of distinct items (blocks).
    pub fn num_items(&self) -> usize {
        self.item_to_lbn.len()
    }

    /// The transactions in window order (dense item ids, each ascending and
    /// deduplicated).
    pub fn transactions(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.items[s..e])
    }

    /// Original LBN of a dense item id.
    pub fn lbn_of(&self, item: u32) -> u64 {
        self.item_to_lbn[item as usize]
    }

    /// Total item occurrences (Σ transaction sizes) — the "request size"
    /// column of Table IV.
    pub fn total_occurrences(&self) -> usize {
        self.items.len()
    }
}

/// Close the transaction `items[start..]`: sort it (one or two items need
/// no sort) and drop repeats, then mark its end.
fn close_transaction(items: &mut Vec<u32>, ends: &mut Vec<usize>, start: usize) {
    match &mut items[start..] {
        [a, b] if *a > *b => std::mem::swap(a, b),
        tail @ [_, _, _, ..] => tail.sort_unstable(),
        _ => {}
    }
    let mut kept = start;
    for i in start..items.len() {
        if kept == start || items[i] != items[kept - 1] {
            items[kept] = items[i];
            kept += 1;
        }
    }
    items.truncate(kept);
    ends.push(kept);
}

/// A frequent block pair, reported in original LBN space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrequentPair {
    /// Smaller LBN.
    pub a: u64,
    /// Larger LBN.
    pub b: u64,
    /// Number of transactions containing both.
    pub support: u32,
}

/// Resource report of one mining run (the Table IV columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningReport {
    /// Wall-clock mining time in seconds.
    pub seconds: f64,
    /// Bytes held by the miner's working buffers at their largest.
    pub peak_bytes: usize,
    /// Number of frequent pairs found.
    pub pairs_found: usize,
}

/// A size-2 frequent itemset miner.
pub trait PairMiner {
    /// Algorithm name.
    fn name(&self) -> &'static str;

    /// Mine all pairs with support ≥ `min_support`, reported in LBN space,
    /// sorted by `(a, b)`.
    fn mine_pairs(&self, db: &TransactionDb, min_support: u32) -> Vec<FrequentPair>;

    /// Mine and report wall time plus the miner's peak buffer bytes.
    fn mine_pairs_with_report(
        &self,
        db: &TransactionDb,
        min_support: u32,
    ) -> (Vec<FrequentPair>, MiningReport);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowing_groups_and_dedups() {
        let events = vec![(0u64, 100u64), (10, 200), (15, 100), (120, 300), (130, 300)];
        let db = TransactionDb::from_timed_events(events, 100);
        assert_eq!(db.len(), 2);
        let sizes: Vec<usize> = db.transactions().map(<[u32]>::len).collect();
        assert_eq!(sizes, vec![2, 1]); // {100, 200} (100 once), then {300}
        assert_eq!(db.num_items(), 3);
    }

    #[test]
    fn item_ids_ascend_with_lbn() {
        let db = TransactionDb::from_timed_events(vec![(0, 42), (1, 7), (25, 9)], 10);
        let items: Vec<u64> = (0..db.num_items() as u32).map(|i| db.lbn_of(i)).collect();
        assert_eq!(items, vec![7, 9, 42]);
        let txs: Vec<&[u32]> = db.transactions().collect();
        assert_eq!(txs, vec![&[0u32, 2][..], &[1][..]]);
    }

    #[test]
    fn the_last_window_of_the_clock_is_one_transaction() {
        // Its end, 18 446 744 073 709 551 620, is past `u64::MAX`.
        let top = u64::MAX;
        let db = TransactionDb::from_timed_events([(top - 5, 1), (top - 1, 2), (top, 3)], 10);
        assert_eq!(
            db.transactions().collect::<Vec<_>>(),
            vec![&[0u32, 1, 2][..]]
        );
    }

    #[test]
    fn total_occurrences_counts_items() {
        let db = TransactionDb::from_transactions(vec![vec![0, 1], vec![2]], 3);
        assert_eq!(db.total_occurrences(), 3);
    }
}
