//! Transactions, frequent pairs and the miner interface.

/// A transaction database: each transaction is the set of distinct blocks
/// requested within one time window `T` ("we first investigate the trace of
/// the storage system and determine the data blocks that are requested
/// within a short time interval T", §IV-A).
///
/// Block numbers (LBNs) are dictionary-compressed to dense item ids, and
/// the ids ascend with the LBNs: `a < b` as ids means `a < b` as blocks,
/// which is what lets a miner emit `(a, b)`-ordered pairs without a sort
/// in LBN space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransactionDb {
    /// Every transaction's items back to back; within one transaction the
    /// ids are ascending and distinct.
    items: Vec<u32>,
    /// Transaction `t` is `items[ends[t - 1]..ends[t]]` (from 0 for `t = 0`).
    ends: Vec<usize>,
    /// Item id → original LBN, strictly ascending.
    item_to_lbn: Vec<u64>,
}

impl TransactionDb {
    /// Build from timed block requests `(time_ns, lbn)`, windowing by
    /// `window_ns`. Events need not be sorted; windows are absolute
    /// (`time / window_ns`).
    pub fn from_timed_events(events: impl IntoIterator<Item = (u64, u64)>, window_ns: u64) -> Self {
        assert!(window_ns > 0);
        let mut events: Vec<(u64, u64)> = events
            .into_iter()
            .map(|(t, lbn)| (t / window_ns, lbn))
            .collect();
        // A trace interval arrives in time order; anything else is sorted.
        if !events.windows(2).all(|e| e[0].0 <= e[1].0) {
            events.sort_unstable();
        }

        let mut item_to_lbn: Vec<u64> = events.iter().map(|&(_, lbn)| lbn).collect();
        item_to_lbn.sort_unstable();
        item_to_lbn.dedup();
        assert!(
            u32::try_from(item_to_lbn.len()).is_ok(),
            "item ids are 32 bits wide"
        );

        let mut db = TransactionDb {
            items: Vec::with_capacity(events.len()),
            ends: Vec::new(),
            item_to_lbn,
        };
        let mut ids: Vec<u32> = Vec::new();
        let mut rest = &events[..];
        while let Some(&(window, _)) = rest.first() {
            let (run, later) = rest.split_at(rest.iter().take_while(|e| e.0 == window).count());
            ids.clear();
            ids.extend(run.iter().map(|(_, lbn)| {
                let id = db.item_to_lbn.binary_search(lbn);
                id.expect("every event's block is in the dictionary") as u32
            }));
            db.push_transaction(&mut ids);
            rest = later;
        }
        db
    }

    /// Build directly from item-id transactions (tests, benchmarks).
    pub fn from_transactions(transactions: Vec<Vec<u32>>, num_items: u32) -> Self {
        let mut db = TransactionDb {
            item_to_lbn: (0..u64::from(num_items)).collect(),
            ..TransactionDb::default()
        };
        for mut t in transactions {
            assert!(t.iter().all(|&i| i < num_items));
            db.push_transaction(&mut t);
        }
        db
    }

    /// Append one transaction: `ids` sorted and deduplicated, then copied to
    /// the tail of `items`.
    fn push_transaction(&mut self, ids: &mut Vec<u32>) {
        ids.sort_unstable();
        ids.dedup();
        self.items.extend_from_slice(ids);
        self.ends.push(self.items.len());
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
    fn total_occurrences_counts_items() {
        let db = TransactionDb::from_transactions(vec![vec![0, 1], vec![2]], 3);
        assert_eq!(db.total_occurrences(), 3);
    }
}
