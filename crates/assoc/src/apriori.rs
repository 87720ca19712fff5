//! The Apriori algorithm (Agrawal & Srikant, VLDB 1994).

use crate::candidate::apriori_gen;
use crate::hash_tree::HashTree;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::transactions::is_subset_sorted;
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::{par_range_map_reduce_governed, Chunking, Parallelism};
use std::time::Instant;

/// How many transactions a counting shard processes between guard polls;
/// bounds cancellation latency inside a database scan.
pub(crate) const POLL_STRIDE: usize = 256;

/// Hash buckets per interior node of a counting hash tree.
const HASH_TREE_FANOUT: usize = 8;
/// Candidates a hash-tree leaf holds before it splits.
const HASH_TREE_LEAF_CAPACITY: usize = 16;

/// Sums the right-hand count vector into the left one (the merge step
/// of every Count Distribution pass: per-shard counters add up).
fn merge_counts<T: Copy + std::ops::AddAssign>(mut a: Vec<T>, b: Vec<T>) -> Vec<T> {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Pass-1 kernel of every level-wise miner: adds each item occurrence in
/// `txns` to `counts` (indexed by item id), polling `guard` every
/// [`POLL_STRIDE`] transactions. A trip returns at that poll and leaves
/// `counts` partial.
pub(crate) fn count_items(
    txns: &[Vec<u32>],
    counts: &mut [usize],
    guard: &Guard,
) -> Result<(), TruncationReason> {
    for (t, txn) in txns.iter().enumerate() {
        if t.is_multiple_of(POLL_STRIDE) {
            guard.check()?;
        }
        for &item in txn {
            counts[item as usize] += 1;
        }
    }
    Ok(())
}

/// [`count_items`] over the whole database with one counter array per
/// shard (Count Distribution); shard counters merge by summation, so the
/// counts are identical for every [`Parallelism`] setting.
pub(crate) fn sharded_item_counts(
    par: Parallelism,
    db: &TransactionDb,
    guard: &Guard,
) -> Result<Vec<usize>, TruncationReason> {
    let n_items = db.n_items() as usize;
    par_range_map_reduce_governed(
        par,
        Chunking::PerThread,
        db.len(),
        guard,
        || vec![0usize; n_items],
        |shard| {
            let mut counts = vec![0usize; n_items];
            // A trip ends this shard early, as it does the pair and
            // hash-tree shards.
            let _ = count_items(&db.transactions()[shard], &mut counts, guard);
            counts
        },
        merge_counts,
    )
}

/// L1 from pass-1 item counts: the items counted at least `min_count`
/// times, in item order.
pub(crate) fn frequent_items(counts: &[usize], min_count: usize) -> Vec<(Itemset, usize)> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= min_count)
        .map(|(item, &c)| (vec![item as u32], c))
        .collect()
}

/// Counts the size-`k` `candidates` against the database through one
/// hash tree, sharded like [`sharded_item_counts`]: shards count into
/// private states over the shared, immutable tree and merge by
/// summation. Records `assoc.<algo>.pass<k>.hashtree_mem_bytes` and
/// `assoc.<algo>.pass<k>.hashtree_visits`.
pub(crate) fn count_with_hash_tree(
    algo: &str,
    par: Parallelism,
    db: &TransactionDb,
    candidates: Vec<Itemset>,
    k: usize,
    min_count: usize,
    guard: &Guard,
) -> Result<Vec<(Itemset, usize)>, TruncationReason> {
    let tree = HashTree::build(candidates, k, HASH_TREE_FANOUT, HASH_TREE_LEAF_CAPACITY);
    let obs = guard.obs();
    if obs.enabled() {
        // The paper's memory claim for Apriori: the hash tree is the
        // pass's big intermediate, and it stays small relative to the
        // database in late passes.
        let bytes = tree.heap_bytes() as f64;
        obs.gauge_max_fmt(
            format_args!("assoc.{algo}.pass{k}.hashtree_mem_bytes"),
            bytes,
        );
        obs.gauge_max("assoc.mem.hashtree_bytes", bytes);
    }
    let state = par_range_map_reduce_governed(
        par,
        Chunking::PerThread,
        db.len(),
        guard,
        || tree.new_count_state(),
        |shard| {
            let mut state = tree.new_count_state();
            for (t, txn) in db.transactions()[shard].iter().enumerate() {
                if t.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                    break;
                }
                tree.count_transaction_into(txn, &mut state);
            }
            state
        },
        |mut a, b| {
            a.absorb(&b);
            a
        },
    )?;
    obs.counter_fmt(
        format_args!("assoc.{algo}.pass{k}.hashtree_visits"),
        state.node_visits(),
    );
    Ok(tree.into_frequent_with(state.counts(), min_count))
}

/// Pair counters one pass-2 shard holds at most (64 MiB of `u32`s).
const PAIR_BAND_MAX: usize = 1 << 24;

/// Pass-2 kernel: counts every pair of the frequent items `l1` with a
/// dense triangular `u32` array — the paper's own treatment of the
/// second pass, where candidate sets are too large for tree structures
/// to pay off. The C(m,2) candidates are admitted to `guard` before any
/// array is allocated; counting is sharded like [`sharded_item_counts`]
/// and polls every [`POLL_STRIDE`] transactions. When C(m,2) exceeds
/// [`PAIR_BAND_MAX`], the array is cut into bands of whole rows (pairs
/// sharing their smaller item), each counted in its own database scan,
/// so a shard never holds more than that many counters. Returns the
/// frequent pairs in lexicographic order and the candidate count (0
/// when fewer than two items are frequent, in which case nothing is
/// admitted).
pub(crate) fn frequent_pairs(
    par: Parallelism,
    db: &TransactionDb,
    l1: &[(Itemset, usize)],
    min_count: usize,
    guard: &Guard,
) -> Result<(Vec<(Itemset, usize)>, usize), TruncationReason> {
    frequent_pairs_banded(par, db, l1, min_count, guard, PAIR_BAND_MAX)
}

/// [`frequent_pairs`] with bands of at most `band_max` counters (or one
/// row, when a row is longer).
fn frequent_pairs_banded(
    par: Parallelism,
    db: &TransactionDb,
    l1: &[(Itemset, usize)],
    min_count: usize,
    guard: &Guard,
    band_max: usize,
) -> Result<(Vec<(Itemset, usize)>, usize), TruncationReason> {
    let m = l1.len();
    if m < 2 {
        return Ok((Vec::new(), 0));
    }
    let n_pairs = m * (m - 1) / 2;
    guard.try_work(n_pairs as u64)?;
    // Dense id per frequent item.
    let mut dense = vec![u32::MAX; db.n_items() as usize];
    for (id, (items, _)) in l1.iter().enumerate() {
        dense[items[0] as usize] = id as u32;
    }
    // Triangular index for i < j over m items: row i starts at row(i).
    let row = |i: usize| i * m - i * (i + 1) / 2;
    let tri = |i: usize, j: usize| row(i) + (j - i - 1);
    let mut out = Vec::new();
    // Band [lo, hi) of rows; row m - 1 is empty.
    let mut lo = 0;
    while lo < m - 1 {
        let mut hi = lo + 1;
        while hi < m - 1 && row(hi + 1) - row(lo) <= band_max {
            hi += 1;
        }
        let base = row(lo);
        let len = row(hi) - base;
        let counts = par_range_map_reduce_governed(
            par,
            Chunking::PerThread,
            db.len(),
            guard,
            || vec![0u32; len],
            |shard| {
                let mut counts = vec![0u32; len];
                let mut present: Vec<usize> = Vec::new();
                for (t, txn) in db.transactions()[shard].iter().enumerate() {
                    if t.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                        break;
                    }
                    present.clear();
                    present.extend(
                        txn.iter()
                            .map(|&item| dense[item as usize])
                            .filter(|&d| d != u32::MAX)
                            .map(|d| d as usize),
                    );
                    for (a, &i) in present.iter().enumerate() {
                        if i >= hi {
                            break;
                        }
                        if i >= lo {
                            for &j in &present[a + 1..] {
                                counts[tri(i, j) - base] += 1;
                            }
                        }
                    }
                }
                counts
            },
            merge_counts,
        )?;
        for i in lo..hi {
            for j in (i + 1)..m {
                let c = counts[tri(i, j) - base] as usize;
                if c >= min_count {
                    out.push((vec![l1[i].0[0], l1[j].0[0]], c));
                }
            }
        }
        lo = hi;
    }
    Ok((out, n_pairs))
}

/// How candidate supports are counted in passes ≥ 3 (pass 2 always
/// uses the dense triangular pair array, per the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountingStrategy {
    /// Hash-tree subset counting (the paper's data structure).
    #[default]
    HashTree,
    /// Check every candidate against every transaction — the naive
    /// baseline, kept for the ablation benchmark.
    Linear,
}

/// Level-wise frequent-itemset miner with `apriori-gen` candidate
/// generation.
///
/// Pass 1 counts single items with a dense array; each later pass `k`
/// generates candidates from the frequent `(k-1)`-itemsets, counts them
/// in one database scan, and keeps those meeting the threshold.
#[derive(Debug, Clone)]
pub struct Apriori {
    min_support: MinSupport,
    counting: CountingStrategy,
    max_len: Option<usize>,
    pair_array: bool,
    parallelism: Parallelism,
}

impl Apriori {
    /// Creates a miner with the default (hash tree) counting strategy.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            counting: CountingStrategy::default(),
            max_len: None,
            pair_array: true,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets how support counting is spread across threads (Count
    /// Distribution: each thread counts a shard of the database into a
    /// private counter array; shard counters merge by summation, so the
    /// result is identical for every [`Parallelism`] setting).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Overrides the counting strategy.
    pub fn with_counting(mut self, counting: CountingStrategy) -> Self {
        self.counting = counting;
        self
    }

    /// Enables/disables the dense triangular array for pass 2 (on by
    /// default). Disabling routes the pair pass through the configured
    /// [`CountingStrategy`] — only useful for the ablation benchmark,
    /// which quantifies how much the array matters.
    pub fn with_pair_array(mut self, pair_array: bool) -> Self {
        self.pair_array = pair_array;
        self
    }

    /// Stops after mining itemsets of this size.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }

    /// Counts `candidates` over the database with the configured strategy.
    fn count_candidates(
        &self,
        db: &TransactionDb,
        candidates: Vec<Itemset>,
        k: usize,
        min_count: usize,
        guard: &Guard,
    ) -> Result<Vec<(Itemset, usize)>, TruncationReason> {
        match self.counting {
            CountingStrategy::HashTree => count_with_hash_tree(
                "apriori",
                self.parallelism,
                db,
                candidates,
                k,
                min_count,
                guard,
            ),
            CountingStrategy::Linear => {
                let counts = par_range_map_reduce_governed(
                    self.parallelism,
                    Chunking::PerThread,
                    db.len(),
                    guard,
                    || vec![0usize; candidates.len()],
                    |shard| {
                        let mut counts = vec![0usize; candidates.len()];
                        for (t, txn) in db.transactions()[shard].iter().enumerate() {
                            if t.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                                break;
                            }
                            if txn.len() < k {
                                continue;
                            }
                            for (cand, count) in candidates.iter().zip(&mut counts) {
                                if is_subset_sorted(cand, txn) {
                                    *count += 1;
                                }
                            }
                        }
                        counts
                    },
                    merge_counts,
                )?;
                let mut counted: Vec<(Itemset, usize)> = candidates
                    .into_iter()
                    .zip(counts)
                    .filter(|&(_, c)| c >= min_count)
                    .collect();
                counted.sort();
                Ok(counted)
            }
        }
    }
}

impl ItemsetMiner for Apriori {
    fn name(&self) -> &'static str {
        match self.counting {
            CountingStrategy::HashTree => "apriori",
            CountingStrategy::Linear => "apriori-linear",
        }
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();
        let obs = guard.obs();
        if obs.enabled() {
            // Reference point for every *_mem_bytes comparison: the raw
            // transaction buffers (the paper's "size of the database").
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }

        // Each pass is all-or-nothing under the guard: work units
        // (candidates) are admitted before counting starts, and a trip
        // mid-pass discards that pass entirely, so `levels` only ever
        // holds fully counted passes — keeping truncated results
        // downward closed and a subset of the ungoverned run.
        'mine: {
            // Pass 1: every item is a candidate.
            let t0 = Instant::now();
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let l1 = {
                let _pass = obs.span("assoc.apriori.pass1");
                sharded_item_counts(self.parallelism, db, guard)
                    .map(|counts| frequent_items(&counts, min_count))
            };
            let Ok(l1) = l1 else {
                break 'mine;
            };
            stats.push(1, db.n_items() as usize, l1.len(), t0.elapsed());
            levels.push(l1);

            let mut k = 1usize;
            loop {
                if self.max_len.is_some_and(|m| k >= m) {
                    break;
                }
                if levels[k - 1].len() < 2 {
                    break;
                }
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.apriori.pass{}", k + 1));
                let pass: Result<(Vec<(Itemset, usize)>, usize), TruncationReason> = if k == 1
                    && self.pair_array
                {
                    frequent_pairs(self.parallelism, db, &levels[0], min_count, guard)
                } else {
                    let prev: Vec<Itemset> = levels[k - 1].iter().map(|(i, _)| i.clone()).collect();
                    let candidates = if k == 1 {
                        crate::candidate::gen_pairs(&prev.iter().map(|i| i[0]).collect::<Vec<_>>())
                    } else {
                        apriori_gen(&prev)
                    };
                    let n = candidates.len();
                    guard
                        .try_work(n as u64)
                        .and_then(|()| {
                            self.count_candidates(db, candidates, k + 1, min_count, guard)
                        })
                        .map(|frequent| (frequent, n))
                };
                drop(pass_span);
                let Ok((frequent, n_candidates)) = pass else {
                    break 'mine;
                };
                if n_candidates == 0 {
                    break;
                }
                stats.push(k + 1, n_candidates, frequent.len(), t0.elapsed());
                let done = frequent.is_empty();
                levels.push(frequent);
                k += 1;
                if done {
                    break;
                }
            }
        }

        stats.record_to(guard.obs(), "apriori");
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn mines_the_paper_example() {
        let result = Apriori::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        // L1 = {1},{2},{3},{5}; item 4 infrequent.
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.support_count(&[4]), None);
        // L2 = {13},{23},{25},{35}.
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.support_count(&[1, 3]), Some(2));
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support_count(&[1, 2]), None);
        // L3 = {235}.
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert_eq!(f.max_len(), 3);
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn stats_track_candidates_per_pass() {
        let result = Apriori::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let s = &result.stats;
        assert!(s.n_passes() >= 3);
        // Pass 2 candidates: C(4,2) = 6 pairs.
        assert_eq!(s.passes[1].candidates, 6);
        assert_eq!(s.passes[1].frequent, 4);
        // Pass 3: only {2,3,5} survives apriori-gen.
        assert_eq!(s.passes[2].candidates, 1);
        assert_eq!(s.passes[2].frequent, 1);
    }

    #[test]
    fn linear_and_hashtree_agree() {
        let db = paper_db();
        let a = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        let b = Apriori::new(MinSupport::Count(2))
            .with_counting(CountingStrategy::Linear)
            .mine(&db)
            .unwrap();
        assert_eq!(a.itemsets, b.itemsets);
    }

    #[test]
    fn max_len_caps_mining() {
        let result = Apriori::new(MinSupport::Count(2))
            .with_max_len(2)
            .mine(&paper_db())
            .unwrap();
        assert_eq!(result.itemsets.max_len(), 2);
    }

    #[test]
    fn high_threshold_yields_nothing() {
        let result = Apriori::new(MinSupport::Count(5))
            .mine(&paper_db())
            .unwrap();
        assert!(result.itemsets.is_empty());
    }

    #[test]
    fn fraction_threshold() {
        // 0.75 of 4 = 3 transactions.
        let result = Apriori::new(MinSupport::Fraction(0.75))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        assert_eq!(f.support_count(&[2]), Some(3));
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support_count(&[1]), None);
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new(vec![]);
        let result = Apriori::new(MinSupport::Count(1)).mine(&db).unwrap();
        assert!(result.itemsets.is_empty());
    }

    #[test]
    fn singleton_transactions() {
        let db = TransactionDb::new(vec![vec![0], vec![0], vec![1]]);
        let result = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        assert_eq!(result.itemsets.len(), 1);
        assert_eq!(result.itemsets.support_count(&[0]), Some(2));
    }

    #[test]
    fn banded_pair_counts_match_one_band() {
        // 30 items, each transaction a hashed ~1/3 of them.
        let db = TransactionDb::new(
            (0..300u32)
                .map(|t| {
                    (0..30u32)
                        .filter(|&i| {
                            (t.wrapping_mul(0x9E37_79B9) ^ i.wrapping_mul(0x85EB_CA6B)) % 3 == 0
                        })
                        .collect()
                })
                .collect(),
        );
        let l1: Vec<(Itemset, usize)> = (0..30u32)
            .map(|i| (vec![i], db.support_count(&[i])))
            .filter(|&(_, c)| c >= 20)
            .collect();
        assert!(l1.len() > 20);
        let guard = Guard::unlimited();
        let whole =
            frequent_pairs_banded(Parallelism::Sequential, &db, &l1, 40, &guard, usize::MAX)
                .unwrap();
        assert!(!whole.0.is_empty());
        for band_max in [1, 7, 50, 200] {
            for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
                let banded = frequent_pairs_banded(par, &db, &l1, 40, &guard, band_max).unwrap();
                assert_eq!(banded, whole, "band_max {band_max}, {par:?}");
            }
        }
    }
}
