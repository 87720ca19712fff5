//! The AprioriTid algorithm (Agrawal & Srikant, VLDB 1994).
//!
//! AprioriTid generates candidates exactly like Apriori but, after pass
//! 1, never rescans the raw database: it maintains `C̄_k`, a per-
//! transaction list of the candidate ids the transaction contains. A
//! size-`k+1` candidate is contained in a transaction iff both of its
//! size-`k` generators are in the transaction's list, so each pass is a
//! join over the (shrinking) `C̄` representation. Transactions whose
//! lists empty out are dropped entirely — the behaviour that makes the
//! algorithm fast in late passes and memory-hungry in pass 2.

use crate::apriori::{count_items, frequent_items, POLL_STRIDE};
use crate::candidate::{apriori_gen, gen_pairs};
use crate::itemsets::{FrequentItemsets, Itemset};
use crate::stats::MiningStats;
use crate::{ItemsetMiner, MinSupport, MiningResult};
use dm_dataset::{DataError, TransactionDb};
use dm_guard::{Guard, Outcome, TruncationReason};
use dm_obs::HeapSize;
use std::collections::HashMap;
use std::time::Instant;

/// Frequent-itemset miner using the candidate-id list representation.
#[derive(Debug, Clone)]
pub struct AprioriTid {
    min_support: MinSupport,
    max_len: Option<usize>,
}

impl AprioriTid {
    /// Creates a miner with the given threshold.
    pub fn new(min_support: MinSupport) -> Self {
        Self {
            min_support,
            max_len: None,
        }
    }

    /// Stops after mining itemsets of this size.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = Some(max_len);
        self
    }
}

impl ItemsetMiner for AprioriTid {
    fn name(&self) -> &'static str {
        "apriori-tid"
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
            // The VLDB'94 comparison point: C̄_k is "large" or "small"
            // relative to the raw transaction buffers.
            obs.gauge_max("assoc.mem.db_bytes", db.transactions().heap_bytes() as f64);
        }

        // A trip anywhere inside a pass discards that pass; `levels`
        // only ever holds fully joined passes (see the trait docs).
        'mine: {
            // ---- Pass 1: dense item counting + initial C̄_1. ----
            let pass1_span = obs.span("assoc.apriori_tid.pass1");
            let t0 = Instant::now();
            if guard.try_work(u64::from(db.n_items())).is_err() {
                break 'mine;
            }
            let mut counts = vec![0usize; db.n_items() as usize];
            if count_items(db.transactions(), &mut counts, guard).is_err() {
                break 'mine;
            }
            let l1 = frequent_items(&counts, min_count);
            // Dense id per frequent item.
            let mut item_id = vec![u32::MAX; db.n_items() as usize];
            for (id, (items, _)) in l1.iter().enumerate() {
                item_id[items[0] as usize] = id as u32;
            }
            // C̄_1: per transaction, the (sorted) ids of its frequent items.
            let mut tidlists: Vec<Vec<u32>> = db
                .iter()
                .map(|txn| {
                    txn.iter()
                        .map(|&i| item_id[i as usize])
                        .filter(|&id| id != u32::MAX)
                        .collect::<Vec<u32>>()
                })
                .filter(|ids: &Vec<u32>| !ids.is_empty())
                .collect();
            if obs.enabled() {
                let ck = tidlists.heap_bytes() as f64;
                obs.gauge_max("assoc.apriori_tid.pass1.ck_mem_bytes", ck);
                obs.gauge_max("assoc.mem.ck_bytes", ck);
            }
            drop(pass1_span);
            stats.push(1, db.n_items() as usize, l1.len(), t0.elapsed());
            levels.push(l1);

            // ---- Passes k ≥ 2 over the C̄ representation. ----
            let mut k = 1usize;
            loop {
                if self.max_len.is_some_and(|m| k >= m) {
                    break;
                }
                let prev = &levels[k - 1];
                if prev.len() < 2 {
                    break;
                }
                let t0 = Instant::now();
                let pass_span = obs.span_fmt(format_args!("assoc.apriori_tid.pass{}", k + 1));
                let prev_sets: Vec<Itemset> = prev.iter().map(|(i, _)| i.clone()).collect();
                let candidates = if k == 1 {
                    gen_pairs(&prev_sets.iter().map(|i| i[0]).collect::<Vec<_>>())
                } else {
                    apriori_gen(&prev_sets)
                };
                if candidates.is_empty() {
                    break;
                }
                let n_candidates = candidates.len();
                if guard.try_work(n_candidates as u64).is_err() {
                    break 'mine;
                }

                let pass = tid_pass(
                    &prev_sets,
                    candidates,
                    &tidlists,
                    min_count,
                    guard,
                    |next| {
                        if obs.enabled() {
                            // Measure C̄_{k+1} at its peak: after the join,
                            // before infrequent candidates are filtered out —
                            // this is the structure the paper's pass-2 memory
                            // blow-up is about.
                            let ck = next.heap_bytes() as f64;
                            obs.gauge_max_fmt(
                                format_args!("assoc.apriori_tid.pass{}.ck_mem_bytes", k + 1),
                                ck,
                            );
                            obs.gauge_max("assoc.mem.ck_bytes", ck);
                        }
                    },
                );
                let Ok((lk, next)) = pass else {
                    break 'mine;
                };
                tidlists = next;

                drop(pass_span);
                stats.push(k + 1, n_candidates, lk.len(), t0.elapsed());
                let done = lk.is_empty();
                levels.push(lk);
                k += 1;
                if done || tidlists.is_empty() {
                    break;
                }
            }
        }

        stats.record_to(guard.obs(), "apriori_tid");
        Ok(guard.outcome(MiningResult {
            itemsets: FrequentItemsets::from_levels(levels, db.len()),
            stats,
        }))
    }
}

/// Frequent `(itemset, count)` pairs plus the next pass's `C̄` lists.
type TidPassOutput = (Vec<(Itemset, usize)>, Vec<Vec<u32>>);

/// One AprioriTid pass: counts `candidates` (generated from `prev`) by a
/// join over `C̄_{k-1}` (`tidlists`, ids into `prev`) and returns the
/// frequent candidates with the next `C̄`, remapped to dense ids over
/// them. `joined` sees that `C̄` at its peak: after the join, before the
/// infrequent candidates are filtered out. Polls `guard` every
/// [`POLL_STRIDE`] lists; a trip voids the pass.
pub(crate) fn tid_pass(
    prev: &[Itemset],
    candidates: Vec<Itemset>,
    tidlists: &[Vec<u32>],
    min_count: usize,
    guard: &Guard,
    joined: impl FnOnce(&Vec<Vec<u32>>),
) -> Result<TidPassOutput, TruncationReason> {
    // Each candidate's two generators as dense prev-level ids.
    let prev_id: HashMap<&[u32], u32> = prev
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_slice(), i as u32))
        .collect();
    let mut generators: Vec<(u32, u32)> = Vec::with_capacity(candidates.len());
    // Candidates grouped by first generator for the per-list probe.
    let mut by_g1: Vec<Vec<u32>> = vec![Vec::new(); prev.len()];
    for (cid, cand) in candidates.iter().enumerate() {
        let n = cand.len();
        let mut g1 = cand.clone();
        g1.remove(n - 1); // drop last item
        let mut g2 = cand.clone();
        g2.remove(n - 2); // drop second-to-last item
        let id1 = prev_id[g1.as_slice()];
        let id2 = prev_id[g2.as_slice()];
        generators.push((id1, id2));
        by_g1[id1 as usize].push(cid as u32);
    }

    // Join over C̄_{k-1}. The stamp marks which prev-level ids the
    // current list contains (generation-stamped to avoid clearing).
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
        let mut present: Vec<u32> = Vec::new();
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
    joined(&next);

    // Filter to the frequent candidates and remap ids densely.
    let mut new_id = vec![u32::MAX; candidates.len()];
    let mut lk: Vec<(Itemset, usize)> = Vec::new();
    for (cid, cand) in candidates.into_iter().enumerate() {
        if counts[cid] >= min_count {
            new_id[cid] = lk.len() as u32;
            lk.push((cand, counts[cid]));
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
    use crate::Apriori;

    fn paper_db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn matches_paper_example() {
        let result = AprioriTid::new(MinSupport::Count(2))
            .mine(&paper_db())
            .unwrap();
        let f = &result.itemsets;
        assert_eq!(f.level_len(1), 4);
        assert_eq!(f.level_len(2), 4);
        assert_eq!(f.level_len(3), 1);
        assert_eq!(f.support_count(&[2, 3, 5]), Some(2));
        assert!(f.verify_downward_closure());
    }

    #[test]
    fn agrees_with_apriori_on_paper_db() {
        let db = paper_db();
        for min in 1..=4 {
            let a = Apriori::new(MinSupport::Count(min)).mine(&db).unwrap();
            let b = AprioriTid::new(MinSupport::Count(min)).mine(&db).unwrap();
            assert_eq!(a.itemsets, b.itemsets, "min_count {min}");
        }
    }

    #[test]
    fn candidate_counts_match_apriori() {
        // The candidate sets are identical by construction; the per-pass
        // stats must agree on candidate and frequent counts.
        let db = paper_db();
        let a = Apriori::new(MinSupport::Count(2)).mine(&db).unwrap();
        let b = AprioriTid::new(MinSupport::Count(2)).mine(&db).unwrap();
        for (pa, pb) in a.stats.passes.iter().zip(&b.stats.passes) {
            assert_eq!(pa.candidates, pb.candidates, "pass {}", pa.pass);
            assert_eq!(pa.frequent, pb.frequent, "pass {}", pa.pass);
        }
    }

    #[test]
    fn empty_and_degenerate_databases() {
        let empty = TransactionDb::new(vec![]);
        assert!(AprioriTid::new(MinSupport::Count(1))
            .mine(&empty)
            .unwrap()
            .itemsets
            .is_empty());
        let singles = TransactionDb::new(vec![vec![0], vec![1]]);
        let r = AprioriTid::new(MinSupport::Count(1))
            .mine(&singles)
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 1);
    }

    #[test]
    fn max_len_respected() {
        let r = AprioriTid::new(MinSupport::Count(2))
            .with_max_len(2)
            .mine(&paper_db())
            .unwrap();
        assert_eq!(r.itemsets.max_len(), 2);
    }
}
