//! FP-Growth (Han, Pei & Yin, SIGMOD 2000): frequent-pattern mining
//! without candidate generation.
//!
//! Two database scans build a compact **FP-tree** — transactions
//! re-ordered by descending item frequency share prefixes, so the tree
//! is typically far smaller than the database — and mining proceeds by
//! recursively projecting **conditional pattern bases** (the prefix
//! paths above each suffix item) into conditional FP-trees. A tree that
//! degenerates to a single path short-circuits: every combination of
//! its nodes is frequent and is emitted directly.
//!
//! ## Governance
//!
//! FP-Growth has no per-pass candidate sets, so its truncation unit is
//! the **suffix group**: header items are processed from most to least
//! frequent, and all itemsets whose lowest-frequency member is item `r`
//! are emitted while processing `r`. On a guard trip the current group
//! is discarded wholesale, which keeps the result downward closed (every
//! subset of an emitted itemset lives in an earlier group, or in L1) and
//! an exactly-counted subset of the ungoverned run. The guard's work
//! unit stays "one itemset admitted to counting": `n_items` for the
//! frequency scan, then one unit per emitted itemset (a whole
//! `2^p - 1` batch is admitted up front when the single-path shortcut
//! fires).

use crate::apriori::{frequent_items, sharded_item_counts, POLL_STRIDE};
use crate::itemsets::{push_itemset, roll_back, FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::Parallelism;
use std::collections::HashMap;
use std::time::Instant;

/// Single-path subset enumeration is used only for paths of at most this
/// many nodes (`2^16 - 1` emissions); longer paths fall back to the
/// recursive projection, which admits work itemset by itemset.
const SINGLE_PATH_MAX: usize = 16;

/// Sentinel for "no node" in header chains and parent links.
const NIL: u32 = u32::MAX;

/// One FP-tree node: an item (as a frequency rank), its path count, a
/// parent link for upward traversal, and the header-chain link tying
/// together all nodes of the same item.
#[derive(Debug, Clone, Copy)]
struct FpNode {
    rank: u32,
    count: usize,
    parent: u32,
    next: u32,
}

/// A compact FP-tree over frequency ranks `0..n_ranks` (rank 0 = most
/// frequent item). Node 0 is the root sentinel.
struct FpTree {
    nodes: Vec<FpNode>,
    /// Per rank: head of the chain of nodes carrying that rank.
    headers: Vec<u32>,
    /// Per rank: total support in this (possibly conditional) tree.
    rank_counts: Vec<usize>,
}

impl FpTree {
    fn new(n_ranks: usize) -> Self {
        FpTree {
            nodes: vec![FpNode {
                rank: NIL,
                count: 0,
                parent: NIL,
                next: NIL,
            }],
            headers: vec![NIL; n_ranks],
            rank_counts: vec![0; n_ranks],
        }
    }

    /// Inserts a rank-ascending path with the given count, sharing
    /// prefixes with existing paths. `children` is the build-time edge
    /// index `(parent node, rank) -> child node`, dropped after build.
    fn insert_path(
        &mut self,
        ranks: &[u32],
        count: usize,
        children: &mut HashMap<(u32, u32), u32>,
    ) {
        let mut at = 0u32;
        for &r in ranks {
            self.rank_counts[r as usize] += count;
            match children.get(&(at, r)) {
                Some(&child) => {
                    self.nodes[child as usize].count += count;
                    at = child;
                }
                None => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(FpNode {
                        rank: r,
                        count,
                        parent: at,
                        next: self.headers[r as usize],
                    });
                    self.headers[r as usize] = idx;
                    children.insert((at, r), idx);
                    at = idx;
                }
            }
        }
    }

    /// Number of non-root nodes.
    fn n_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether the tree is one downward path. Nodes are created in
    /// insertion order, so a tree is a single path iff every node's
    /// parent is its predecessor.
    fn is_single_path(&self) -> bool {
        self.nodes[1..]
            .iter()
            .enumerate()
            .all(|(i, n)| n.parent == i as u32)
    }
}

impl HeapSize for FpTree {
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<FpNode>()
            + self.headers.capacity() * std::mem::size_of::<u32>()
            + self.rank_counts.capacity() * std::mem::size_of::<usize>()
    }
}

/// Instrumentation accumulated across the recursion, flushed to the
/// recorder once at the end of the run.
#[derive(Default)]
struct FpMetrics {
    tree_nodes: usize,
    cond_trees: usize,
    cond_nodes: usize,
    single_path_shortcuts: usize,
    /// Bytes of FP-trees currently alive (main + conditional stack).
    live_bytes: usize,
    /// High-water mark of `live_bytes`.
    peak_bytes: usize,
}

impl FpMetrics {
    fn alloc(&mut self, bytes: usize) {
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    fn free(&mut self, bytes: usize) {
        self.live_bytes = self.live_bytes.saturating_sub(bytes);
    }
}

/// The FP-Growth miner. Produces [`FrequentItemsets`] bit-identical to
/// the Apriori family's (the equivalence tests enforce it) while
/// counting zero candidates.
#[derive(Debug, Clone)]
pub struct FpGrowth {
    min_support: MinSupport,
    parallelism: Parallelism,
}

impl FpGrowth {
    /// Creates an FP-Growth miner with the given threshold.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Sets how the initial frequency scan is spread across threads
    /// (shard counters merge by summation, so the result is identical
    /// for every setting; tree build and projection are sequential).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Scan 2: the FP-tree over frequency ranks. Polls the guard every
    /// [`POLL_STRIDE`] transactions; a trip voids the build.
    fn build_tree(
        db: &TransactionDb,
        item_of_rank: &[u32],
        rank_of_item: &[u32],
        guard: &Guard,
    ) -> Result<FpTree, TruncationReason> {
        let mut tree = FpTree::new(item_of_rank.len());
        let mut children: HashMap<(u32, u32), u32> = HashMap::new();
        let mut ranks: Vec<u32> = Vec::new();
        for (t, txn) in db.iter().enumerate() {
            if t.is_multiple_of(POLL_STRIDE) {
                guard.check()?;
            }
            ranks.clear();
            ranks.extend(
                txn.iter()
                    .map(|&item| rank_of_item[item as usize])
                    .filter(|&r| r != NIL),
            );
            ranks.sort_unstable();
            tree.insert_path(&ranks, 1, &mut children);
        }
        Ok(tree)
    }

    /// Projects the conditional FP-tree for suffix rank `r`: collects the
    /// prefix paths above every `r` node, prunes conditionally
    /// infrequent ranks, and rebuilds. Returns `None` when nothing in
    /// the base stays frequent.
    fn conditional_tree(
        tree: &FpTree,
        r: u32,
        min_count: usize,
        guard: &Guard,
        poll: &mut usize,
    ) -> Result<Option<FpTree>, TruncationReason> {
        // Pass A over the chain: conditional support of each prefix rank.
        let mut cond_counts = vec![0usize; r as usize];
        let mut node = tree.headers[r as usize];
        while node != NIL {
            *poll += 1;
            if poll.is_multiple_of(POLL_STRIDE) {
                guard.check()?;
            }
            let n = &tree.nodes[node as usize];
            let mut up = n.parent;
            while up != 0 {
                cond_counts[tree.nodes[up as usize].rank as usize] += n.count;
                up = tree.nodes[up as usize].parent;
            }
            node = n.next;
        }
        if !cond_counts.iter().any(|&c| c >= min_count) {
            return Ok(None);
        }
        // Pass B: rebuild with the surviving ranks.
        let mut cond = FpTree::new(r as usize);
        let mut children: HashMap<(u32, u32), u32> = HashMap::new();
        let mut path: Vec<u32> = Vec::new();
        let mut node = tree.headers[r as usize];
        while node != NIL {
            *poll += 1;
            if poll.is_multiple_of(POLL_STRIDE) {
                guard.check()?;
            }
            let n = &tree.nodes[node as usize];
            path.clear();
            let mut up = n.parent;
            while up != 0 {
                let rank = tree.nodes[up as usize].rank;
                if cond_counts[rank as usize] >= min_count {
                    path.push(rank);
                }
                up = tree.nodes[up as usize].parent;
            }
            path.reverse(); // upward walk yields descending ranks
            cond.insert_path(&path, n.count, &mut children);
            node = n.next;
        }
        Ok(Some(cond))
    }

    /// Emits every frequent itemset whose lowest-frequency member is
    /// `tree`'s suffix, recursing over conditional trees. `suffix` holds
    /// the item ids (not ranks) accumulated so far — always non-empty
    /// here, so every emission has length >= 2 once extended.
    #[allow(clippy::too_many_arguments)]
    fn mine_tree(
        tree: &FpTree,
        suffix: &mut Vec<u32>,
        item_of_rank: &[u32],
        min_count: usize,
        levels: &mut Vec<Vec<(Itemset, usize)>>,
        guard: &Guard,
        metrics: &mut FpMetrics,
        poll: &mut usize,
    ) -> Result<(), TruncationReason> {
        if tree.n_nodes() == 0 {
            return Ok(());
        }
        if tree.n_nodes() <= SINGLE_PATH_MAX && tree.is_single_path() {
            // Single-path shortcut: every combination of path nodes is
            // frequent with the deepest selected node's count.
            metrics.single_path_shortcuts += 1;
            let p = tree.n_nodes();
            guard.try_work((1u64 << p) - 1)?;
            for mask in 1u32..(1u32 << p) {
                let deepest = 31 - mask.leading_zeros(); // highest set bit
                let count = tree.nodes[1 + deepest as usize].count;
                let mut items: Itemset = suffix.clone();
                for bit in 0..p {
                    if mask & (1 << bit) != 0 {
                        items.push(item_of_rank[tree.nodes[1 + bit].rank as usize]);
                    }
                }
                items.sort_unstable();
                push_itemset(levels, items, count);
            }
            return Ok(());
        }
        // General case: one suffix extension per rank present in the tree.
        for r in 0..tree.headers.len() as u32 {
            if tree.headers[r as usize] == NIL || tree.rank_counts[r as usize] < min_count {
                continue;
            }
            guard.try_work(1)?;
            suffix.push(item_of_rank[r as usize]);
            let mut items: Itemset = suffix.clone();
            items.sort_unstable();
            push_itemset(levels, items, tree.rank_counts[r as usize]);
            let cond = Self::conditional_tree(tree, r, min_count, guard, poll)?;
            if let Some(cond) = cond {
                metrics.cond_trees += 1;
                metrics.cond_nodes += cond.n_nodes();
                let bytes = cond.heap_bytes();
                metrics.alloc(bytes);
                let res = Self::mine_tree(
                    &cond,
                    suffix,
                    item_of_rank,
                    min_count,
                    levels,
                    guard,
                    metrics,
                    poll,
                );
                metrics.free(bytes);
                res?;
            }
            suffix.pop();
        }
        Ok(())
    }
}

impl ItemsetMiner for FpGrowth {
    fn name(&self) -> &'static str {
        "fp-growth"
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();
        let mut metrics = FpMetrics::default();
        let obs = guard.obs();
        if obs.enabled() {
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }
        let t0 = Instant::now();
        let mut scan_time = std::time::Duration::ZERO;

        'mine: {
            // Scan 1 admits one unit per item, like Apriori's pass 1.
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let counts = {
                let _scan = obs.span("assoc.fp.scan");
                sharded_item_counts(self.parallelism, db, guard)
            };
            let Ok(counts) = counts else {
                break 'mine;
            };
            scan_time = t0.elapsed();
            // Frequency ranks: descending count, item id breaking ties,
            // so the ordering (and the tree) is deterministic.
            let mut l1 = frequent_items(&counts, min_count);
            l1.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let item_of_rank: Vec<u32> = l1.iter().map(|(items, _)| items[0]).collect();
            let mut rank_of_item = vec![NIL; db.n_items() as usize];
            for (rank, &item) in item_of_rank.iter().enumerate() {
                rank_of_item[item as usize] = rank as u32;
            }
            levels.push(l1);

            let tree = {
                let _build = obs.span("assoc.fp.build");
                Self::build_tree(db, &item_of_rank, &rank_of_item, guard)
            };
            let Ok(tree) = tree else {
                break 'mine;
            };
            metrics.tree_nodes = tree.n_nodes();
            metrics.alloc(tree.heap_bytes());

            // Suffix groups from most to least frequent: on a trip the
            // current group is rolled back, leaving the completed groups
            // — a downward-closed subset (see module docs).
            let _mine = obs.span("assoc.fp.mine");
            let mut poll = 0usize;
            let mut suffix: Vec<u32> = Vec::with_capacity(8);
            for r in 0..item_of_rank.len() as u32 {
                let marks: Vec<usize> = levels.iter().map(Vec::len).collect();
                let group = (|| -> Result<(), TruncationReason> {
                    let cond = Self::conditional_tree(&tree, r, min_count, guard, &mut poll)?;
                    let Some(cond) = cond else {
                        return Ok(());
                    };
                    metrics.cond_trees += 1;
                    metrics.cond_nodes += cond.n_nodes();
                    let bytes = cond.heap_bytes();
                    metrics.alloc(bytes);
                    suffix.clear();
                    suffix.push(item_of_rank[r as usize]);
                    let res = Self::mine_tree(
                        &cond,
                        &mut suffix,
                        &item_of_rank,
                        min_count,
                        &mut levels,
                        guard,
                        &mut metrics,
                        &mut poll,
                    );
                    metrics.free(bytes);
                    res
                })();
                if group.is_err() {
                    roll_back(&mut levels, &marks);
                    break 'mine;
                }
            }
        }

        // FP-Growth generates no candidates: the per-level stats carry
        // zero candidate counts (the shapes tests assert exactly this).
        // Level timings are not meaningful for a non-level-wise miner;
        // the scan duration lands on pass 1 and the live spans
        // (`assoc.fp.{scan,build,mine}`) carry the rest.
        for (k, level) in levels.iter().enumerate() {
            let d = if k == 0 {
                scan_time
            } else {
                std::time::Duration::ZERO
            };
            stats.push(k + 1, 0, level.len(), d);
        }
        stats.record_to(obs, "fp");
        if obs.enabled() {
            obs.counter("assoc.fp.tree_nodes", metrics.tree_nodes as u64);
            obs.counter("assoc.fp.cond_trees", metrics.cond_trees as u64);
            obs.counter("assoc.fp.cond_nodes", metrics.cond_nodes as u64);
            obs.counter(
                "assoc.fp.single_path_shortcuts",
                metrics.single_path_shortcuts as u64,
            );
            obs.gauge_max("assoc.fp.tree_mem_bytes", metrics.peak_bytes as f64);
            obs.gauge_max("assoc.mem.fptree_bytes", metrics.peak_bytes as f64);
        }
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
        let result = FpGrowth::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert_eq!(f.support_count(&[1, 3]), Some(2));
        assert_eq!(f.support_count(&[2, 5]), Some(3));
        assert_eq!(f.support_count(&[1, 2]), None);
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn matches_apriori_on_the_paper_example() {
        let db = paper_db();
        for min in 1..=4usize {
            let fp = FpGrowth::new(MinSupport::Count(min)).mine(&db).unwrap();
            let ap = crate::Apriori::new(MinSupport::Count(min))
                .mine(&db)
                .unwrap();
            assert_eq!(fp.itemsets, ap.itemsets, "min_count {min}");
        }
    }

    #[test]
    fn stats_report_zero_candidates() {
        let result = FpGrowth::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        assert!(result.stats.passes.iter().all(|p| p.candidates == 0));
        assert_eq!(result.stats.total_frequent(), result.itemsets.len());
    }

    #[test]
    fn single_path_database_uses_the_shortcut() {
        // Identical transactions: the tree is one path of 3 nodes.
        let db = TransactionDb::new(vec![vec![0, 1, 2]; 5]);
        let result = FpGrowth::new(MinSupport::Count(2)).mine(&db).unwrap();
        // 2^3 - 1 = 7 frequent itemsets, all with support 5.
        assert_eq!(result.itemsets.len(), 7);
        assert_eq!(result.itemsets.support_count(&[0, 1, 2]), Some(5));
        assert_eq!(result.itemsets.support_count(&[0, 2]), Some(5));
    }

    #[test]
    fn empty_and_degenerate_databases() {
        let empty = TransactionDb::new(vec![]);
        let result = FpGrowth::new(MinSupport::Count(1)).mine(&empty).unwrap();
        assert!(result.itemsets.is_empty());

        let singletons = TransactionDb::new(vec![vec![0], vec![0], vec![1]]);
        let result = FpGrowth::new(MinSupport::Count(2))
            .mine(&singletons)
            .unwrap();
        assert_eq!(result.itemsets.len(), 1);
        assert_eq!(result.itemsets.support_count(&[0]), Some(2));
    }

    #[test]
    fn high_threshold_yields_nothing() {
        let result = FpGrowth::new(MinSupport::Count(5))
            .mine(&paper_db())
            .unwrap();
        assert!(result.itemsets.is_empty());
    }
}
