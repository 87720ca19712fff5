//! AprioriHybrid: the headline algorithm of Agrawal & Srikant (VLDB
//! 1994).
//!
//! Apriori wins early passes (counting against the raw database is cheap
//! while `C̄_k` would be huge); AprioriTid wins late passes (the `C̄`
//! representation shrinks below the database size). AprioriHybrid runs
//! Apriori and switches to the TID representation at the end of the
//! first pass where the estimated size of `C̄_{k+1}` — the sum of the
//! supports of the frequent `k`-itemsets plus one entry per surviving
//! transaction — drops below a memory budget. The switch itself costs
//! one extra pass-shaped scan to materialize `C̄`, which is why it only
//! pays off when at least one more pass follows (the caveat the paper
//! itself notes).

use crate::apriori::POLL_STRIDE;
use crate::candidate::apriori_gen;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{Apriori, ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::transactions::is_subset_sorted;
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::{par_range_map_reduce_governed, Chunking, Parallelism};
use std::collections::HashMap;
use std::time::Instant;

/// Hybrid Apriori/AprioriTid miner with a support-mass switch heuristic.
#[derive(Debug, Clone)]
pub struct AprioriHybrid {
    min_support: MinSupport,
    max_len: Option<usize>,
    /// Switch to the TID representation once the estimated number of
    /// `(transaction, candidate)` entries falls below this budget.
    tid_budget: usize,
    parallelism: Parallelism,
}

impl AprioriHybrid {
    /// Creates a hybrid miner with a 1M-entry `C̄` budget (comfortably
    /// in-memory; entries are `u32`s).
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            max_len: None,
            tid_budget: 1_000_000,
            parallelism: Parallelism::Sequential,
        }
    }

    /// Overrides the `C̄` entry budget that triggers the switch.
    pub fn with_tid_budget(mut self, tid_budget: usize) -> Self {
        self.tid_budget = tid_budget;
        self
    }

    /// Sets how the Apriori-phase support counting is spread across
    /// threads (Count Distribution over database shards; the TID-join
    /// phase is inherently sequential and unaffected). Results are
    /// identical for every [`Parallelism`] setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Stops after mining itemsets of this size.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }
}

impl ItemsetMiner for AprioriHybrid {
    fn name(&self) -> &'static str {
        "apriori-hybrid"
    }

    fn mine_governed(
        &self,
        db: &TransactionDb,
        guard: &Guard,
    ) -> Result<Outcome<MiningResult>, DataError> {
        let min_count = self.min_support.resolve(db)?;
        // Phase 1: plain Apriori, pass by pass, watching the estimate.
        let apriori = Apriori::new(MinSupport::Count(min_count)).with_parallelism(self.parallelism);
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();

        let mut switched_at: Option<usize> = None;

        let obs = guard.obs();
        'mine: {
            // Passes 1 and 2 always run under Apriori's dense counters (a
            // C̄ over pairs would dwarf the database), delegated to the
            // public miner — under the *same* guard, so its budget and
            // cancellation flow through.
            let full = apriori.clone().with_max_len(2).mine_governed(db, guard)?;
            for p in &full.result.stats.passes {
                // The delegated passes ran under `assoc.apriori.pass<k>`
                // live spans; mirror their durations into this miner's
                // own histogram names (no tree node — the tree already
                // shows them as apriori spans).
                obs.value_fmt(
                    format_args!("assoc.apriori_hybrid.pass{}", p.pass),
                    p.duration.as_nanos().min(u64::MAX as u128) as u64,
                );
                stats.passes.push(p.clone());
            }
            for k in 1..=full.result.itemsets.max_len() {
                levels.push(full.result.itemsets.level(k).to_vec());
            }
            if !full.is_complete() {
                break 'mine;
            }

            let mut k = levels.len();
            // TID-phase state (populated at the switch).
            let mut tidlists: Option<Vec<Vec<u32>>> = None;

            while k >= 2 && !levels[k - 1].is_empty() && self.max_len.is_none_or(|m| k < m) {
                let prev: Vec<Itemset> = levels[k - 1].iter().map(|(i, _)| i.clone()).collect();
                if prev.len() < 2 {
                    break;
                }
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.apriori_hybrid.pass{}", k + 1));
                let candidates = apriori_gen(&prev);
                if candidates.is_empty() {
                    break;
                }
                let n_candidates = candidates.len();
                if guard.try_work(n_candidates as u64).is_err() {
                    break 'mine;
                }

                // Estimate C̄_{k+1} volume: support mass of L_k. Recorded
                // verbatim — the gauge holds the exact number the switch
                // heuristic compares against `tid_budget`.
                let support_mass: usize =
                    levels[k - 1].iter().map(|(_, c)| c).sum::<usize>() + db.len();
                obs.gauge_max_fmt(
                    format_args!("assoc.apriori_hybrid.pass{}.ck_est_entries", k + 1),
                    support_mass as f64,
                );
                if tidlists.is_none() && support_mass <= self.tid_budget {
                    // Switch: materialize C̄_k (ids into L_k) with one scan.
                    switched_at = Some(k);
                    let mut lists: Vec<Vec<u32>> = Vec::with_capacity(db.len());
                    for (t, txn) in db.iter().enumerate() {
                        if t.is_multiple_of(POLL_STRIDE) && guard.should_stop() {
                            break 'mine;
                        }
                        let ids: Vec<u32> = prev
                            .iter()
                            .enumerate()
                            .filter(|(_, items)| is_subset_sorted(items, txn))
                            .map(|(id, _)| id as u32)
                            .collect();
                        if !ids.is_empty() {
                            lists.push(ids);
                        }
                    }
                    tidlists = Some(lists);
                }

                let counted: Result<Vec<(Itemset, usize)>, TruncationReason> = match &mut tidlists {
                    // Apriori-style counting against the raw database.
                    None => {
                        apriori_count(self.parallelism, db, &candidates, k + 1, min_count, guard)
                    }
                    Some(lists) => {
                        // AprioriTid-style join over C̄_k.
                        tid_pass(&prev, &candidates, lists, min_count, guard).map(
                            |(lk, next_lists)| {
                                *lists = next_lists;
                                lk
                            },
                        )
                    }
                };
                let Ok(frequent) = counted else {
                    break 'mine;
                };
                if obs.enabled() {
                    if let Some(lists) = &tidlists {
                        let ck = lists.heap_bytes() as f64;
                        obs.gauge_max_fmt(
                            format_args!("assoc.apriori_hybrid.pass{}.ck_mem_bytes", k + 1),
                            ck,
                        );
                        obs.gauge_max("assoc.mem.ck_bytes", ck);
                    }
                }
                drop(pass_span);
                stats.push(k + 1, n_candidates, frequent.len(), t0.elapsed());
                let done = frequent.is_empty();
                levels.push(frequent);
                k += 1;
                if done {
                    break;
                }
            }
        }

        stats.record_to(guard.obs(), "apriori_hybrid");
        if let Some(pass) = switched_at {
            guard
                .obs()
                .gauge("assoc.apriori_hybrid.switched_at_pass", pass as f64);
        }
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

/// Hash-tree counting of `candidates` (size `k`) against the database,
/// sharded Count Distribution-style when `par` allows. The guard is
/// polled inside each shard (bounded cancellation latency) and checked
/// once more after the merge.
fn apriori_count(
    par: Parallelism,
    db: &TransactionDb,
    candidates: &[Itemset],
    k: usize,
    min_count: usize,
    guard: &Guard,
) -> Result<Vec<(Itemset, usize)>, TruncationReason> {
    let tree = crate::hash_tree::HashTree::build(candidates.to_vec(), k, 8, 16);
    let obs = guard.obs();
    if obs.enabled() {
        let bytes = tree.heap_bytes() as f64;
        obs.gauge_max_fmt(
            format_args!("assoc.apriori_hybrid.pass{k}.hashtree_mem_bytes"),
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
    guard.obs().counter_fmt(
        format_args!("assoc.apriori_hybrid.pass{k}.hashtree_visits"),
        state.node_visits(),
    );
    Ok(tree.into_frequent_with(state.counts(), min_count))
}

/// Frequent `(itemset, count)` pairs plus the next pass's `C̄` tid-lists.
type TidPassOutput = (Vec<(Itemset, usize)>, Vec<Vec<u32>>);

/// One AprioriTid join pass: counts `candidates` (generated from `prev`)
/// via the candidate-id lists, returning the frequent sets and the next
/// `C̄` (remapped to dense ids over the frequent candidates).
fn tid_pass(
    prev: &[Itemset],
    candidates: &[Itemset],
    tidlists: &[Vec<u32>],
    min_count: usize,
    guard: &Guard,
) -> Result<TidPassOutput, TruncationReason> {
    let prev_id: HashMap<&[u32], u32> = prev
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_slice(), i as u32))
        .collect();
    let mut generators: Vec<(u32, u32)> = Vec::with_capacity(candidates.len());
    let mut by_g1: Vec<Vec<u32>> = vec![Vec::new(); prev.len()];
    for (cid, cand) in candidates.iter().enumerate() {
        let n = cand.len();
        let mut g1 = cand.clone();
        g1.remove(n - 1);
        let mut g2 = cand.clone();
        g2.remove(n - 2);
        let id1 = prev_id[g1.as_slice()];
        let id2 = prev_id[g2.as_slice()];
        generators.push((id1, id2));
        by_g1[id1 as usize].push(cid as u32);
    }
    let mut stamp = vec![u32::MAX; prev.len()];
    let mut counts = vec![0usize; candidates.len()];
    let mut next: Vec<Vec<u32>> = Vec::with_capacity(tidlists.len());
    for (gen, ids) in tidlists.iter().enumerate() {
        if gen.is_multiple_of(POLL_STRIDE) {
            guard.check()?;
        }
        let gen = gen as u32;
        for &id in ids {
            stamp[id as usize] = gen;
        }
        let mut present = Vec::new();
        for &id in ids {
            for &cid in &by_g1[id as usize] {
                let (_, g2) = generators[cid as usize];
                if stamp[g2 as usize] == gen {
                    counts[cid as usize] += 1;
                    present.push(cid);
                }
            }
        }
        if !present.is_empty() {
            present.sort_unstable();
            next.push(present);
        }
    }
    let mut new_id = vec![u32::MAX; candidates.len()];
    let mut lk = Vec::new();
    for (cid, cand) in candidates.iter().enumerate() {
        if counts[cid] >= min_count {
            new_id[cid] = lk.len() as u32;
            lk.push((cand.clone(), counts[cid]));
        }
    }
    for ids in &mut next {
        ids.retain_mut(|cid| {
            let mapped = new_id[*cid as usize];
            if mapped == u32::MAX {
                false
            } else {
                *cid = mapped;
                true
            }
        });
    }
    next.retain(|ids| !ids.is_empty());
    Ok((lk, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AprioriTid;

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn matches_other_miners_whatever_the_budget() {
        let db = paper_db();
        for budget in [0usize, 3, 10, 1_000_000] {
            for min in 1..=3 {
                let hybrid = AprioriHybrid::new(MinSupport::Count(min))
                    .with_tid_budget(budget)
                    .mine(&db)
                    .unwrap();
                let reference = AprioriTid::new(MinSupport::Count(min)).mine(&db).unwrap();
                assert_eq!(
                    hybrid.itemsets, reference.itemsets,
                    "budget {budget} min {min}"
                );
            }
        }
    }

    #[test]
    fn zero_budget_never_switches_and_still_agrees() {
        let db = paper_db();
        let hybrid = AprioriHybrid::new(MinSupport::Count(2))
            .with_tid_budget(0)
            .mine(&db)
            .unwrap();
        assert_eq!(hybrid.itemsets.support_count(&[2, 3, 5]), Some(2));
        assert!(hybrid.itemsets.verify_downward_closure());
    }

    #[test]
    fn max_len_respected() {
        let db = paper_db();
        let r = AprioriHybrid::new(MinSupport::Count(2))
            .with_max_len(2)
            .mine(&db)
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 2);
    }

    #[test]
    fn agrees_on_synthetic_workload() {
        use dm_synth::{QuestConfig, QuestGenerator};
        let db = QuestGenerator::new(QuestConfig::standard(8.0, 3.0, 800), 5)
            .unwrap()
            .generate(6);
        let hybrid = AprioriHybrid::new(MinSupport::Fraction(0.01))
            .mine(&db)
            .unwrap();
        let reference = AprioriTid::new(MinSupport::Fraction(0.01))
            .mine(&db)
            .unwrap();
        assert_eq!(hybrid.itemsets, reference.itemsets);
    }
}
