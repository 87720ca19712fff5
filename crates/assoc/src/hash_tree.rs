//! The hash tree used by Apriori to count candidate support in time
//! sublinear in the number of candidates per transaction.
//!
//! Interior nodes hash one item to a fixed fanout of children; leaves
//! hold candidate itemsets with their counts. A leaf that outgrows
//! `leaf_capacity` at depth `< k` splits into an interior node. During
//! counting, a transaction walks every hash path its items induce and
//! performs subset checks only at the (few) leaves it reaches; a
//! generation stamp prevents counting a leaf twice for one transaction.

use crate::itemsets::Itemset;
use dm_dataset::transactions::is_subset_sorted;
use dm_obs::HeapSize;

#[derive(Debug, Clone)]
enum Node {
    /// Child node ids, one per hash bucket.
    Interior(Vec<usize>),
    /// Candidates, each carrying its dense candidate id (the index of
    /// its slot in a [`CountState`]).
    Leaf { candidates: Vec<(Itemset, u32)> },
}

/// Per-scan counting state, separate from the tree structure so several
/// shards can count over one shared tree concurrently (the Count
/// Distribution scheme): each shard owns a `CountState`, and shard
/// counts merge by summation with [`CountState::absorb`].
#[derive(Debug, Clone)]
pub struct CountState {
    /// Support count per candidate id.
    counts: Vec<usize>,
    /// Generation stamp of the last transaction that visited each leaf
    /// (prevents double counting when hash paths collide).
    visited: Vec<u64>,
    generation: u64,
    /// Tree nodes touched while counting (interior hops + leaf checks),
    /// the `assoc.<algo>.pass<k>.hashtree_visits` metric. Pure telemetry:
    /// never read back by the algorithm.
    node_visits: u64,
}

impl CountState {
    /// Adds another shard's counts into this one.
    pub fn absorb(&mut self, other: &CountState) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.node_visits += other.node_visits;
    }

    /// The accumulated per-candidate counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Tree nodes touched while counting (see the field docs).
    pub fn node_visits(&self) -> u64 {
        self.node_visits
    }
}

/// A hash tree over size-`k` candidate itemsets.
///
/// The structure is immutable once built; all counting goes through an
/// external [`CountState`] so shards can scan disjoint database
/// partitions in parallel against the same tree.
#[derive(Debug, Clone)]
pub struct HashTree {
    nodes: Vec<Node>,
    k: usize,
    fanout: usize,
    leaf_capacity: usize,
    n_candidates: usize,
}

impl HashTree {
    /// Creates an empty tree for size-`k` candidates.
    ///
    /// # Panics
    /// Panics if `k == 0`, `fanout < 2` or `leaf_capacity == 0`.
    pub fn new(k: usize, fanout: usize, leaf_capacity: usize) -> Self {
        assert!(k >= 1, "candidate size must be >= 1");
        assert!(fanout >= 2, "fanout must be >= 2");
        assert!(leaf_capacity >= 1, "leaf capacity must be >= 1");
        Self {
            nodes: vec![Node::Leaf {
                candidates: Vec::new(),
            }],
            k,
            fanout,
            leaf_capacity,
            n_candidates: 0,
        }
    }

    /// Builds a tree holding all of `candidates` (each sorted, length `k`).
    pub fn build(candidates: Vec<Itemset>, k: usize, fanout: usize, leaf_capacity: usize) -> Self {
        let mut tree = Self::new(k, fanout, leaf_capacity);
        for c in candidates {
            tree.insert(c);
        }
        tree
    }

    /// Number of candidates stored.
    pub fn len(&self) -> usize {
        self.n_candidates
    }

    /// Whether the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.n_candidates == 0
    }

    /// Inserts a sorted size-`k` candidate, assigning it the next dense
    /// candidate id.
    pub fn insert(&mut self, candidate: Itemset) {
        debug_assert_eq!(candidate.len(), self.k);
        debug_assert!(candidate.windows(2).all(|w| w[0] < w[1]));
        let mut node = 0usize;
        let mut depth = 0usize;
        loop {
            match &mut self.nodes[node] {
                Node::Interior(children) => {
                    node = children[candidate[depth] as usize % self.fanout];
                    depth += 1;
                }
                Node::Leaf { candidates } => {
                    candidates.push((candidate, self.n_candidates as u32));
                    self.n_candidates += 1;
                    if candidates.len() > self.leaf_capacity && depth < self.k {
                        self.split_leaf(node, depth);
                    }
                    return;
                }
            }
        }
    }

    /// A fresh, zeroed counting state sized for this tree. One per
    /// shard when counting in parallel.
    pub fn new_count_state(&self) -> CountState {
        CountState {
            counts: vec![0; self.n_candidates],
            visited: vec![0; self.nodes.len()],
            generation: 0,
            node_visits: 0,
        }
    }

    /// Splits the leaf at `node` (which sits at `depth`) into an interior
    /// node, redistributing its candidates by the hash of their item at
    /// `depth`.
    fn split_leaf(&mut self, node: usize, depth: usize) {
        let candidates = match std::mem::replace(&mut self.nodes[node], Node::Interior(Vec::new()))
        {
            Node::Leaf { candidates } => candidates,
            Node::Interior(_) => unreachable!("split target is a leaf"),
        };
        let mut children = Vec::with_capacity(self.fanout);
        for _ in 0..self.fanout {
            children.push(self.nodes.len());
            self.nodes.push(Node::Leaf {
                candidates: Vec::new(),
            });
        }
        for (cand, id) in candidates {
            let child = children[cand[depth] as usize % self.fanout];
            match &mut self.nodes[child] {
                Node::Leaf { candidates } => candidates.push((cand, id)),
                Node::Interior(_) => unreachable!("fresh children are leaves"),
            }
        }
        self.nodes[node] = Node::Interior(children);
        // Note: a child may itself exceed capacity when many candidates
        // share a hash path. It will split lazily on the next insert that
        // lands in it; at depth == k it is allowed to overflow.
    }

    /// Counts this tree's candidates contained in `txn` (sorted item
    /// ids) into `state`. The tree itself is read-only, so disjoint
    /// database shards can count concurrently, each into its own state.
    pub fn count_transaction_into(&self, txn: &[u32], state: &mut CountState) {
        if txn.len() < self.k || self.is_empty() {
            return;
        }
        debug_assert_eq!(state.visited.len(), self.nodes.len());
        state.generation += 1;
        let generation = state.generation;
        let fanout = self.fanout;
        let k = self.k;
        // Explicit DFS stack of (node id, next transaction position,
        // depth of the node).
        let mut stack: Vec<(usize, usize, usize)> = Vec::with_capacity(txn.len() + 4);
        stack.push((0, 0, 0));
        while let Some((node, start, depth)) = stack.pop() {
            state.node_visits += 1;
            match &self.nodes[node] {
                Node::Leaf { candidates } => {
                    if state.visited[node] == generation {
                        continue; // already counted for this transaction
                    }
                    state.visited[node] = generation;
                    for (cand, id) in candidates {
                        if is_subset_sorted(cand, txn) {
                            state.counts[*id as usize] += 1;
                        }
                    }
                }
                Node::Interior(children) => {
                    // Choosing the (depth+1)-th item at position i must
                    // leave k - depth - 1 further items after it.
                    let last = txn.len() - (k - depth);
                    for (i, &item) in txn.iter().enumerate().take(last + 1).skip(start) {
                        stack.push((children[item as usize % fanout], i + 1, depth + 1));
                    }
                }
            }
        }
    }

    /// Drains the tree against a (possibly shard-merged) count vector,
    /// returning every `(candidate, count)` pair with
    /// `count >= min_count`, lexicographically sorted.
    pub fn into_frequent_with(self, counts: &[usize], min_count: usize) -> Vec<(Itemset, usize)> {
        debug_assert_eq!(counts.len(), self.n_candidates);
        let mut out = Vec::new();
        for node in self.nodes {
            if let Node::Leaf { candidates } = node {
                out.extend(candidates.into_iter().filter_map(|(cand, id)| {
                    let count = counts[id as usize];
                    (count >= min_count).then_some((cand, count))
                }));
            }
        }
        out.sort();
        out
    }
}

impl HeapSize for Node {
    fn heap_bytes(&self) -> usize {
        match self {
            Node::Interior(children) => children.heap_bytes(),
            Node::Leaf { candidates } => candidates.heap_bytes(),
        }
    }
}

impl HeapSize for CountState {
    fn heap_bytes(&self) -> usize {
        self.counts.heap_bytes() + self.visited.heap_bytes()
    }
}

impl HeapSize for HashTree {
    fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_dataset::TransactionDb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Counts `txns` into one fresh state and drains `tree` against it.
    fn count_and_drain<'a>(
        tree: HashTree,
        txns: impl IntoIterator<Item = &'a [u32]>,
        min_count: usize,
    ) -> Vec<(Itemset, usize)> {
        let mut state = tree.new_count_state();
        for txn in txns {
            tree.count_transaction_into(txn, &mut state);
        }
        tree.into_frequent_with(state.counts(), min_count)
    }

    #[test]
    fn counts_match_reference_on_small_db() {
        let db = TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ]);
        let candidates = vec![
            vec![1, 3],
            vec![2, 3],
            vec![2, 5],
            vec![3, 5],
            vec![1, 5],
            vec![4, 5],
        ];
        let tree = HashTree::build(candidates.clone(), 2, 3, 2);
        let counts = count_and_drain(tree, db.iter(), 0);
        for (cand, count) in counts {
            assert_eq!(count, db.support_count(&cand), "candidate {cand:?}");
        }
    }

    #[test]
    fn splitting_preserves_counts_randomized() {
        // Random DB + random candidates; tiny leaf capacity forces deep
        // splits. Counts must equal the brute-force reference.
        let mut rng = StdRng::seed_from_u64(99);
        let txns: Vec<Vec<u32>> = (0..200)
            .map(|_| {
                let len = rng.gen_range(1..=12);
                (0..len).map(|_| rng.gen_range(0..30u32)).collect()
            })
            .collect();
        let db = TransactionDb::new(txns);
        // Candidates: random sorted triples.
        let mut candidates: Vec<Itemset> = Vec::new();
        while candidates.len() < 80 {
            let mut c: Vec<u32> = (0..3).map(|_| rng.gen_range(0..30u32)).collect();
            c.sort_unstable();
            c.dedup();
            if c.len() == 3 && !candidates.contains(&c) {
                candidates.push(c);
            }
        }
        let tree = HashTree::build(candidates, 3, 4, 1);
        for (cand, count) in count_and_drain(tree, db.iter(), 0) {
            assert_eq!(count, db.support_count(&cand), "candidate {cand:?}");
        }
    }

    #[test]
    fn into_frequent_filters_by_count() {
        let mut tree = HashTree::new(1, 2, 4);
        tree.insert(vec![0]);
        tree.insert(vec![1]);
        let frequent = count_and_drain(tree, [&[0][..], &[0, 1]], 2);
        assert_eq!(frequent, vec![(vec![0], 2)]);
    }

    #[test]
    fn short_transactions_skipped() {
        let mut tree = HashTree::new(3, 2, 2);
        tree.insert(vec![1, 2, 3]);
        // [1, 2] is too short to contain a 3-set.
        assert_eq!(
            count_and_drain(tree, [&[1, 2][..]], 0),
            vec![(vec![1, 2, 3], 0)]
        );
    }

    #[test]
    fn empty_tree_is_safe() {
        let tree = HashTree::new(2, 4, 4);
        assert!(tree.is_empty());
        assert!(count_and_drain(tree, [&[1, 2, 3][..]], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn rejects_tiny_fanout() {
        HashTree::new(2, 1, 4);
    }

    #[test]
    fn node_visits_accumulate_and_absorb() {
        let tree = HashTree::build(vec![vec![1, 2], vec![2, 3]], 2, 2, 1);
        let mut a = tree.new_count_state();
        let mut b = tree.new_count_state();
        tree.count_transaction_into(&[1, 2, 3], &mut a);
        tree.count_transaction_into(&[2, 3], &mut b);
        assert!(a.node_visits() > 0);
        assert!(b.node_visits() > 0);
        let before = a.node_visits();
        a.absorb(&b);
        assert_eq!(a.node_visits(), before + b.node_visits());
    }

    #[test]
    fn heap_size_counts_nodes_and_candidates() {
        let small = HashTree::build(vec![vec![1, 2]], 2, 4, 4);
        let big = HashTree::build((0..64u32).map(|i| vec![i, i + 64]).collect(), 2, 4, 4);
        assert!(small.heap_bytes() > 0);
        assert!(
            big.heap_bytes() > small.heap_bytes() + 64 * 2 * 4,
            "64 two-item candidates dominate: {} vs {}",
            big.heap_bytes(),
            small.heap_bytes()
        );
    }

    #[test]
    fn no_double_count_via_multiple_paths() {
        // Items 0 and 4 share bucket (fanout 4 ⇒ 0 % 4 == 4 % 4), so the
        // transaction reaches the same leaf along two paths; the
        // generation stamp must prevent double counting.
        let mut tree = HashTree::new(2, 4, 1);
        tree.insert(vec![0, 4]);
        tree.insert(vec![0, 8]);
        tree.insert(vec![4, 8]); // force splits among colliding items
        for (cand, count) in count_and_drain(tree, [&[0, 4, 8][..]], 0) {
            assert_eq!(count, 1, "candidate {cand:?}");
        }
    }
}
