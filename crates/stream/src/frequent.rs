//! Exact sliding-window frequent-itemset maintenance.
//!
//! The engine keeps, at all times, the *complete* family of itemsets
//! frequent in the current window (an itemset trie with exact counts)
//! plus per-item tid columns from the vertical substrate. Each arriving
//! or expiring transaction adjusts only the counts it touches:
//!
//! * **Insert** — every tracked itemset contained in the transaction
//!   gains one count (one trie walk); itemsets *crossing* the threshold
//!   are discovered by extending tracked nodes with the transaction's
//!   items and computing the exact support with galloping tid-column
//!   intersections. Anti-monotonicity makes this complete: a newly
//!   frequent set's prefix is at least as frequent, so the walk always
//!   reaches it.
//! * **Evict** — tracked itemsets contained in the expiring transaction
//!   lose one count; any that fall below the threshold are removed.
//!   Again by anti-monotonicity, every descendant of a falling node has
//!   already fallen (and is contained in the same expiring transaction),
//!   so subtree removal never discards a frequent set.
//!
//! The result is bit-identical to re-mining the window from scratch —
//! [`StreamFrequent::query`] emits the same canonical
//! [`FrequentItemsets`] a batch Eclat/FP-Growth run over the window
//! contents produces — at a per-update cost proportional to the counts
//! actually touched (experiment E16 gates the amortized gap).

use crate::StreamEngine;
use dm_assoc::{FrequentItemsets, Itemset};
use dm_dataset::vertical::galloping_intersect;
use dm_dataset::DataError;
use dm_guard::{Guard, Outcome};
use dm_obs::Obs;
use std::collections::VecDeque;

/// A per-item tid column: append-at-back on insert, pop-at-front on
/// evict, amortized compaction keeps the live slice contiguous for the
/// galloping intersections.
#[derive(Debug, Clone, Default)]
struct Column {
    tids: Vec<u32>,
    head: usize,
}

impl Column {
    fn push(&mut self, tid: u32) {
        self.tids.push(tid);
    }

    fn pop_front(&mut self) {
        self.head += 1;
        if self.head >= 64 && self.head * 2 >= self.tids.len() {
            self.tids.drain(..self.head);
            self.head = 0;
        }
    }

    fn as_slice(&self) -> &[u32] {
        &self.tids[self.head..]
    }

    fn len(&self) -> usize {
        self.tids.len() - self.head
    }
}

/// One tracked itemset: the path from the root spells the (sorted)
/// items; children are sorted by item for binary search.
#[derive(Debug, Clone)]
struct Node {
    item: u32,
    count: usize,
    children: Vec<Node>,
}

/// Exact incremental frequent-itemset mining over a sliding window of
/// transactions (or over the whole unbounded stream when no capacity is
/// set). The support threshold is an absolute count against the current
/// window.
#[derive(Debug, Clone)]
pub struct StreamFrequent {
    n_items: u32,
    minsup: usize,
    capacity: Option<usize>,
    window: VecDeque<Vec<u32>>,
    columns: Vec<Column>,
    roots: Vec<Node>,
    next_tid: u32,
    seen: u64,
    evictions: u64,
}

/// The complete engine state, for equivalence testing: the mined family
/// (canonical container), the window contents, and the stream position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentSnapshot {
    /// The currently frequent itemsets with exact counts.
    pub itemsets: FrequentItemsets,
    /// Window contents, oldest first.
    pub window: Vec<Vec<u32>>,
    /// Records absorbed.
    pub seen: u64,
}

impl StreamFrequent {
    /// An engine over an item universe of `n_items`, keeping itemsets
    /// with window support `>= minsup`, sliding over the last
    /// `capacity` transactions (`None` = never evict).
    pub fn new(n_items: u32, minsup: usize, capacity: Option<usize>) -> Result<Self, DataError> {
        if n_items == 0 {
            return Err(DataError::InvalidParameter("n_items must be >= 1".into()));
        }
        if minsup == 0 {
            return Err(DataError::InvalidParameter("minsup must be >= 1".into()));
        }
        if capacity == Some(0) {
            return Err(DataError::InvalidParameter(
                "window capacity must be >= 1".into(),
            ));
        }
        Ok(Self {
            n_items,
            minsup,
            capacity,
            window: VecDeque::new(),
            columns: vec![Column::default(); n_items as usize],
            roots: Vec::new(),
            next_tid: 0,
            seen: 0,
            evictions: 0,
        })
    }

    /// The absolute support threshold.
    pub fn minsup(&self) -> usize {
        self.minsup
    }

    /// Current window length.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Transactions evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of itemsets currently tracked (= currently frequent).
    pub fn tracked(&self) -> usize {
        fn count(children: &[Node]) -> usize {
            children.len() + children.iter().map(|n| count(&n.children)).sum::<usize>()
        }
        count(&self.roots)
    }

    /// The frequent itemsets of the current window, in the same
    /// canonical container every batch miner produces — so equality
    /// against a fresh Eclat/FP-Growth run over [`window`] contents is
    /// exact.
    ///
    /// [`window`]: FrequentSnapshot::window
    pub fn query(&self) -> FrequentItemsets {
        // An unlimited guard cannot trip, so the report is always whole.
        self.query_governed(&Guard::unlimited()).result
    }

    /// `query` under a guard, `mine_governed`-style: one work unit per
    /// reported itemset; a trip truncates the report (smallest sets
    /// first remain), never the engine state.
    pub fn query_governed(&self, guard: &Guard) -> Outcome<FrequentItemsets> {
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();
        let mut path = Vec::new();
        collect_governed(&self.roots, &mut path, &mut levels, guard);
        let sets = FrequentItemsets::from_levels(levels, self.window.len());
        // A tripped guard latches, so `outcome` reports Truncated itself.
        guard.outcome(sets)
    }

    /// The engine state (for equivalence testing / checkpointing).
    pub fn snapshot(&self) -> FrequentSnapshot {
        FrequentSnapshot {
            itemsets: self.query(),
            window: self.window.iter().cloned().collect(),
            seen: self.seen,
        }
    }

    fn evict(&mut self) -> u64 {
        let Some(old) = self.window.pop_front() else {
            return 0;
        };
        for &i in &old {
            self.columns[i as usize].pop_front();
        }
        let mut work = 0u64;
        walk_evict(&mut self.roots, &old, self.minsup, &mut work);
        self.evictions += 1;
        work
    }
}

/// Exact support of the itemset spelled by `path`, by folding the item
/// tid columns with galloping intersections. `work` gains the shorter
/// input length of every pairwise step.
fn support_count(path: &[u32], columns: &[Column], work: &mut u64) -> usize {
    debug_assert!(!path.is_empty());
    let first = columns[path[0] as usize].as_slice();
    if path.len() == 1 {
        return first.len();
    }
    let mut cur = first.to_vec();
    for &i in &path[1..] {
        let col = columns[i as usize].as_slice();
        *work += cur.len().min(col.len()) as u64;
        cur = galloping_intersect(&cur, col);
        if cur.is_empty() {
            break;
        }
    }
    cur.len()
}

/// Insert-side trie walk: increments every tracked itemset contained in
/// `t` and discovers newly frequent extensions (exact support via the
/// columns). `path` spells the items from the root to `children`'s
/// parent.
fn walk_insert(
    children: &mut Vec<Node>,
    t: &[u32],
    path: &mut Vec<u32>,
    columns: &[Column],
    minsup: usize,
    work: &mut u64,
) {
    for (idx, &j) in t.iter().enumerate() {
        *work += 1;
        match children.binary_search_by_key(&j, |n| n.item) {
            Ok(p) => {
                children[p].count += 1;
                path.push(j);
                walk_insert(
                    &mut children[p].children,
                    &t[idx + 1..],
                    path,
                    columns,
                    minsup,
                    work,
                );
                path.pop();
            }
            Err(p) => {
                // Untracked candidate `path ∪ {j}`. It can only have
                // crossed the threshold on this insert, and only if the
                // single-item bound allows it.
                if columns[j as usize].len() < minsup {
                    continue;
                }
                path.push(j);
                let count = support_count(path, columns, work);
                if count >= minsup {
                    let mut node = Node {
                        item: j,
                        count,
                        children: Vec::new(),
                    };
                    // The new set may itself enable supersets within `t`.
                    walk_insert(
                        &mut node.children,
                        &t[idx + 1..],
                        path,
                        columns,
                        minsup,
                        work,
                    );
                    children.insert(p, node);
                }
                path.pop();
            }
        }
    }
}

/// Evict-side trie walk: decrements every tracked itemset contained in
/// the expiring transaction and removes any that fall below `minsup`.
/// Anti-monotonicity guarantees a falling node's descendants have
/// already been removed by the recursion (see module docs).
fn walk_evict(children: &mut Vec<Node>, t: &[u32], minsup: usize, work: &mut u64) {
    for (idx, &j) in t.iter().enumerate() {
        *work += 1;
        if let Ok(p) = children.binary_search_by_key(&j, |n| n.item) {
            children[p].count -= 1;
            walk_evict(&mut children[p].children, &t[idx + 1..], minsup, work);
            if children[p].count < minsup {
                debug_assert!(
                    children[p].children.is_empty(),
                    "anti-monotonicity: descendants fall first"
                );
                children.remove(p);
            }
        }
    }
}

fn collect_governed(
    children: &[Node],
    path: &mut Vec<u32>,
    levels: &mut Vec<Vec<(Itemset, usize)>>,
    guard: &Guard,
) -> bool {
    for n in children {
        if guard.try_work(1).is_err() {
            return false;
        }
        path.push(n.item);
        if levels.len() < path.len() {
            levels.push(Vec::new());
        }
        levels[path.len() - 1].push((path.clone(), n.count));
        let full = collect_governed(&n.children, path, levels, guard);
        path.pop();
        if !full {
            return false;
        }
    }
    true
}

impl StreamEngine for StreamFrequent {
    type Record = Vec<u32>;

    fn name(&self) -> &'static str {
        "frequent"
    }

    fn insert(&mut self, record: &Vec<u32>) -> u64 {
        // Canonicalize; items outside the universe are ignored.
        let mut t: Vec<u32> = record
            .iter()
            .copied()
            .filter(|&i| i < self.n_items)
            .collect();
        t.sort_unstable();
        t.dedup();
        self.seen += 1;
        let tid = self.next_tid;
        self.next_tid += 1;
        for &i in &t {
            self.columns[i as usize].push(tid);
        }
        self.window.push_back(t.clone());
        let mut work = 0u64;
        let mut path = Vec::new();
        walk_insert(
            &mut self.roots,
            &t,
            &mut path,
            &self.columns,
            self.minsup,
            &mut work,
        );
        if let Some(cap) = self.capacity {
            if self.window.len() > cap {
                work += self.evict();
            }
        }
        work
    }

    fn records_seen(&self) -> u64 {
        self.seen
    }

    fn observe(&self, obs: &Obs<'_>) {
        if !obs.enabled() {
            return;
        }
        obs.counter("stream.frequent.evictions", self.evictions);
        obs.gauge("stream.frequent.window", self.window.len() as f64);
        obs.gauge("stream.frequent.tracked", self.tracked() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_assoc::{Eclat, ItemsetMiner, MinSupport};
    use dm_dataset::TransactionDb;
    use dm_synth::{QuestConfig, QuestGenerator, TxnStream};

    fn mine_window(window: &[Vec<u32>], n_items: u32, minsup: usize) -> FrequentItemsets {
        let db = TransactionDb::with_universe(window.to_vec(), n_items).unwrap();
        Eclat::new(MinSupport::Count(minsup))
            .mine(&db)
            .unwrap()
            .itemsets
    }

    fn stream(seed: u64) -> TxnStream {
        let g = QuestGenerator::new(
            QuestConfig {
                n_transactions: 1,
                avg_txn_len: 6.0,
                avg_pattern_len: 3.0,
                n_patterns: 20,
                n_items: 40,
                correlation: 0.25,
                corruption_mean: 0.4,
                corruption_sd: 0.1,
            },
            seed,
        )
        .unwrap();
        TxnStream::new(g, seed.wrapping_add(1))
    }

    #[test]
    fn matches_batch_mining_without_window() {
        let mut e = StreamFrequent::new(40, 5, None).unwrap();
        let txns: Vec<_> = stream(1).take(200).collect();
        for t in &txns {
            e.insert(t);
        }
        assert_eq!(e.query(), mine_window(&txns, 40, 5));
    }

    #[test]
    fn matches_batch_mining_at_every_slide() {
        let cap = 60;
        let mut e = StreamFrequent::new(40, 4, Some(cap)).unwrap();
        let txns: Vec<_> = stream(2).take(150).collect();
        for (i, t) in txns.iter().enumerate() {
            e.insert(t);
            if i % 17 == 0 || i + 1 == txns.len() {
                let start = (i + 1).saturating_sub(cap);
                let expect = mine_window(&txns[start..=i], 40, 4);
                assert_eq!(e.query(), expect, "diverged after {} inserts", i + 1);
            }
        }
        assert_eq!(e.window_len(), cap);
        assert!(e.evictions() > 0);
    }

    #[test]
    fn eviction_drops_stale_itemsets() {
        // Burst of {1,2} pairs, then unrelated singles push them out.
        let mut e = StreamFrequent::new(10, 3, Some(5)).unwrap();
        for _ in 0..4 {
            e.insert(&vec![1, 2]);
        }
        assert_eq!(e.query().support_count(&[1, 2]), Some(4));
        for i in 0..5 {
            e.insert(&vec![3 + i]);
        }
        assert_eq!(e.query().support_count(&[1, 2]), None);
        assert_eq!(e.query().support_count(&[1]), None);
        assert_eq!(e.window_len(), 5);
    }

    #[test]
    fn ignores_out_of_universe_items() {
        let mut e = StreamFrequent::new(4, 1, None).unwrap();
        e.insert(&vec![1, 99, 2]);
        assert_eq!(e.query().support_count(&[1, 2]), Some(1));
        assert_eq!(e.query().support_count(&[1]), Some(1));
    }

    #[test]
    fn governed_query_truncates_report_not_state() {
        use dm_guard::{Budget, RunStatus};
        let mut e = StreamFrequent::new(40, 2, None).unwrap();
        for t in stream(3).take(120) {
            e.insert(&t);
        }
        let full = e.query();
        let guard = Guard::new(Budget::unlimited().with_max_work(3));
        let out = e.query_governed(&guard);
        assert!(matches!(out.status, RunStatus::Truncated(_)));
        assert!(out.result.len() <= full.len());
        // Engine state untouched: a fresh query still reports everything.
        assert_eq!(e.query(), full);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(StreamFrequent::new(0, 1, None).is_err());
        assert!(StreamFrequent::new(4, 0, None).is_err());
        assert!(StreamFrequent::new(4, 1, Some(0)).is_err());
    }
}
