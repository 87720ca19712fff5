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

use crate::apriori::{count_with_hash_tree, POLL_STRIDE};
use crate::apriori_tid::tid_pass;
use crate::candidate::apriori_gen;
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{Apriori, ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::transactions::is_subset_sorted;
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use dm_par::Parallelism;
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
        let mut stats = MiningStats::default();
        let mut levels: Vec<Vec<(Itemset, usize)>> = Vec::new();

        let mut switched_at: Option<usize> = None;

        let obs = guard.obs();
        'mine: {
            // Passes 1 and 2 always run under Apriori's dense counters (a
            // C̄ over pairs would dwarf the database), delegated to the
            // public miner — under the *same* guard, so its budget and
            // cancellation flow through.
            let full = Apriori::new(MinSupport::Count(min_count))
                .with_parallelism(self.parallelism)
                .with_max_len(self.max_len.map_or(2, |m| m.min(2)))
                .mine_governed(db, guard)?;
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
                    None => count_with_hash_tree(
                        "apriori_hybrid",
                        self.parallelism,
                        db,
                        candidates,
                        k + 1,
                        min_count,
                        guard,
                    ),
                    // AprioriTid-style join over C̄_k.
                    Some(lists) => tid_pass(&prev, candidates, lists, min_count, guard, |_| {})
                        .map(|(lk, next_lists)| {
                            *lists = next_lists;
                            lk
                        }),
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
        // Per-pass work as (pass, candidates, frequent): the hash-tree and
        // TID-join passes must count exactly Apriori's candidates.
        let work = |r: &MiningResult| -> Vec<(usize, usize, usize)> {
            r.stats
                .passes
                .iter()
                .map(|p| (p.pass, p.candidates, p.frequent))
                .collect()
        };
        let db = paper_db();
        for budget in [0usize, 3, 10, 1_000_000, usize::MAX] {
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
                let apriori = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
                assert_eq!(work(&hybrid), work(&apriori), "budget {budget} min {min}");
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
