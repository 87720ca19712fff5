//! Shape-regression harness for the EXPERIMENTS.md ordering claims.
//!
//! Each experiment report in `EXPERIMENTS.md` rests on a *shape* — who
//! generates more candidates, which pass dominates, where the hybrid
//! switches — rather than on wall-clock numbers. Wall-clock is noisy
//! under CI; per-pass work counters are not. These tests re-run
//! scaled-down E1/E2 configurations with an [`InMemoryRecorder`]
//! attached and assert the claimed orderings from the recorded metrics,
//! so a regression that changes the *work done* (not merely the speed)
//! fails loudly.
//!
//! The workload is the Quest generator with the same seeds the
//! experiment harness uses (pattern 101 / db 202), scaled to
//! T10.I4.D2000 at minsup 1% so the whole file runs in well under a
//! second.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::prelude::*;
use std::sync::Arc;

fn quest_small() -> TransactionDb {
    QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 2_000), 101)
        .expect("valid config")
        .generate(202)
}

const MINSUP: MinSupport = MinSupport::Fraction(0.01);

/// Mines with a fresh recorder attached; returns the result and the
/// metric snapshot.
fn mine_with_metrics(miner: &dyn ItemsetMiner, db: &TransactionDb) -> (MiningResult, Snapshot) {
    let rec = Arc::new(InMemoryRecorder::new());
    let guard = Guard::unlimited().with_recorder(rec.clone());
    let result = miner
        .mine_governed(db, &guard)
        .expect("mining succeeds")
        .result;
    (result, rec.snapshot())
}

/// Per-pass counter values for `algo`, in pass order (metric names are
/// 1-based; the returned vec is 0-based).
fn per_pass(snap: &Snapshot, algo: &str, what: &str) -> Vec<u64> {
    let n = snap
        .counter(&format!("assoc.{algo}.passes"))
        .expect("passes counter present") as usize;
    (1..=n)
        .map(|k| {
            snap.counter(&format!("assoc.{algo}.pass{k}.{what}"))
                .expect("per-pass counter present")
        })
        .collect()
}

fn all_miners() -> Vec<(&'static str, Box<dyn ItemsetMiner>)> {
    vec![
        ("ais", Box::new(Ais::new(MINSUP)) as Box<dyn ItemsetMiner>),
        ("setm", Box::new(Setm::new(MINSUP))),
        ("apriori", Box::new(Apriori::new(MINSUP))),
        ("apriori_tid", Box::new(AprioriTid::new(MINSUP))),
        ("apriori_hybrid", Box::new(AprioriHybrid::new(MINSUP))),
    ]
}

/// Golden per-pass counts for the reference miner (E2 shape, scaled).
/// These are deterministic: fixed Quest seeds, sequential counting.
/// If this fails, the *work profile* of the miners changed — either a
/// generator change (every count moves) or an algorithmic change
/// (one miner's counts move). Update the goldens only after confirming
/// the new profile is intended and EXPERIMENTS.md still holds.
#[test]
fn golden_per_pass_counts_for_apriori() {
    let db = quest_small();
    let (result, snap) = mine_with_metrics(&Apriori::new(MINSUP), &db);
    assert_eq!(per_pass(&snap, "apriori", "candidates"), [1000, 148_240, 6]);
    assert_eq!(per_pass(&snap, "apriori", "frequent"), [545, 20, 4]);
    assert_eq!(result.itemsets.len(), 569);
}

/// The recorded counters must agree with the `MiningStats` the result
/// itself carries — the metrics layer is a second witness, not a second
/// source of truth.
#[test]
fn recorded_counters_match_mining_stats() {
    let db = quest_small();
    for (algo, miner) in all_miners() {
        let (result, snap) = mine_with_metrics(miner.as_ref(), &db);
        let stats_candidates: Vec<u64> = result
            .stats
            .passes
            .iter()
            .map(|p| p.candidates as u64)
            .collect();
        let stats_frequent: Vec<u64> = result
            .stats
            .passes
            .iter()
            .map(|p| p.frequent as u64)
            .collect();
        assert_eq!(
            per_pass(&snap, algo, "candidates"),
            stats_candidates,
            "{algo}: recorded candidates diverge from MiningStats"
        );
        assert_eq!(
            per_pass(&snap, algo, "frequent"),
            stats_frequent,
            "{algo}: recorded frequent counts diverge from MiningStats"
        );
        assert_eq!(
            snap.counter(&format!("assoc.{algo}.passes")),
            Some(result.stats.passes.len() as u64),
            "{algo}: pass count"
        );
    }
}

/// E1/E2 ordering claim: every miner finds the same frequent sets; the
/// difference is how many candidates they count to get there. All five
/// miners must agree on the per-pass frequent counts (prefix-wise: AIS
/// and SETM run one more, empty, pass).
#[test]
fn all_miners_agree_on_frequent_sets() {
    let db = quest_small();
    let mut reference: Option<Vec<u64>> = None;
    for (algo, miner) in all_miners() {
        let (result, snap) = mine_with_metrics(miner.as_ref(), &db);
        assert_eq!(
            result.itemsets.len(),
            569,
            "{algo}: total frequent itemsets"
        );
        let mut frequent = per_pass(&snap, algo, "frequent");
        while frequent.last() == Some(&0) {
            frequent.pop();
        }
        match &reference {
            Some(first) => assert_eq!(first, &frequent, "{algo}: per-pass frequent counts"),
            None => reference = Some(frequent),
        }
    }
}

/// E2's central claim (the VLDB'94 per-pass candidate figure): from
/// pass 3 on, AIS and SETM — which generate candidates by extending
/// frequent sets with *every* item seen in each transaction — count
/// orders of magnitude more candidates than the Apriori family, whose
/// candidates come from the L(k-1) self-join. This is why they are the
/// slowest miners in E1.
#[test]
fn ais_and_setm_blow_up_after_pass_two() {
    let db = quest_small();
    let late = |algo: &str, snap: &Snapshot| -> u64 {
        per_pass(snap, algo, "candidates").iter().skip(2).sum()
    };
    let (_, snap) = mine_with_metrics(&Apriori::new(MINSUP), &db);
    let apriori_late = late("apriori", &snap);
    let (_, snap) = mine_with_metrics(&Ais::new(MINSUP), &db);
    let ais_late = late("ais", &snap);
    let (_, snap) = mine_with_metrics(&Setm::new(MINSUP), &db);
    let setm_late = late("setm", &snap);
    assert!(
        ais_late >= 100 * apriori_late.max(1),
        "AIS pass>=3 candidates ({ais_late}) should dwarf Apriori's ({apriori_late})"
    );
    assert!(
        setm_late >= 100 * apriori_late.max(1),
        "SETM pass>=3 candidates ({setm_late}) should dwarf Apriori's ({apriori_late})"
    );
}

/// E1's hybrid claim, restated in counters: AprioriHybrid must be
/// best-or-tied on candidate work — per pass, it counts no more
/// candidates than either Apriori or AprioriTid (it runs the same
/// candidate generation, switching only the counting representation).
#[test]
fn hybrid_candidate_work_is_best_or_tied() {
    let db = quest_small();
    let (_, snap_hy) = mine_with_metrics(&AprioriHybrid::new(MINSUP), &db);
    let (_, snap_ap) = mine_with_metrics(&Apriori::new(MINSUP), &db);
    let (_, snap_tid) = mine_with_metrics(&AprioriTid::new(MINSUP), &db);
    let hy = per_pass(&snap_hy, "apriori_hybrid", "candidates");
    let ap = per_pass(&snap_ap, "apriori", "candidates");
    let tid = per_pass(&snap_tid, "apriori_tid", "candidates");
    assert_eq!(hy.len(), ap.len(), "hybrid runs the same passes as apriori");
    for (k, ((h, a), t)) in hy.iter().zip(&ap).zip(&tid).enumerate() {
        assert!(
            h <= a && h <= t,
            "pass {}: hybrid candidates {h} exceed apriori {a} or tid {t}",
            k + 1
        );
    }
}

/// After the pass-2 peak (the |L1| self-join), candidate counts fall
/// monotonically for every miner on this workload — the long tail that
/// makes later passes cheap. A non-monotone profile means candidate
/// generation regressed.
#[test]
fn candidates_monotone_after_pass_two() {
    let db = quest_small();
    for (algo, miner) in all_miners() {
        let (_, snap) = mine_with_metrics(miner.as_ref(), &db);
        let candidates = per_pass(&snap, algo, "candidates");
        for w in candidates[1..].windows(2) {
            assert!(
                w[1] <= w[0],
                "{algo}: candidates rose {} -> {} after pass 2 (profile {candidates:?})",
                w[0],
                w[1]
            );
        }
    }
}

/// The VLDB'94 memory story, restated in gauges: AprioriTid's candidate
/// tid-list relation C̄_k must outgrow the raw database in at least one
/// pass on this T10.I4-style workload (the reason AprioriTid loses the
/// early passes and the hybrid switches late), while Apriori's
/// hash-tree high-water mark stays below the database (its pair pass
/// uses the dense triangular array; trees are built only for the tiny
/// late-pass candidate sets).
#[test]
fn apriori_tid_ck_outgrows_database_but_hashtree_does_not() {
    let db = quest_small();
    let (_, snap) = mine_with_metrics(&AprioriTid::new(MINSUP), &db);
    let db_bytes = snap
        .gauge("assoc.mem.db_bytes")
        .expect("database footprint recorded");
    assert!(db_bytes > 0.0);
    let ck_peak = snap
        .gauge("assoc.mem.ck_bytes")
        .expect("tid-list footprint recorded");
    assert!(
        ck_peak > db_bytes,
        "C-bar peak {ck_peak} should exceed the database's {db_bytes} bytes"
    );
    let crossover_passes: Vec<String> = snap
        .gauges_with_prefix("assoc.apriori_tid.pass")
        .into_iter()
        .filter(|(name, v)| name.ends_with("ck_mem_bytes") && *v > db_bytes)
        .map(|(name, _)| name.to_owned())
        .collect();
    assert!(
        !crossover_passes.is_empty(),
        "at least one pass's C-bar must exceed the database"
    );

    let (_, snap) = mine_with_metrics(&Apriori::new(MINSUP), &db);
    let db_bytes = snap
        .gauge("assoc.mem.db_bytes")
        .expect("database footprint recorded");
    let tree_peak = snap
        .gauge("assoc.mem.hashtree_bytes")
        .expect("hash-tree footprint recorded");
    assert!(
        tree_peak < db_bytes,
        "Apriori's hash-tree peak {tree_peak} should stay below the database's {db_bytes} bytes"
    );
}

/// FP-Growth's headline claim (Han et al., SIGMOD 2000), restated in
/// counters: it finds the exact same per-pass frequent sets while
/// generating **zero** candidates — against Apriori's 148k-candidate
/// pass-2 blow-up on the same workload.
#[test]
fn fp_growth_counts_zero_candidates_where_apriori_blows_up() {
    let db = quest_small();
    let (result, snap) = mine_with_metrics(&FpGrowth::new(MINSUP), &db);
    assert_eq!(result.itemsets.len(), 569);
    let candidates = per_pass(&snap, "fp", "candidates");
    assert!(
        candidates.iter().all(|&c| c == 0),
        "FP-Growth generated candidates: {candidates:?}"
    );
    let mut frequent = per_pass(&snap, "fp", "frequent");
    while frequent.last() == Some(&0) {
        frequent.pop();
    }
    assert_eq!(frequent, [545, 20, 4]);
    // The same discovery costs Apriori a six-figure candidate pass.
    let (_, snap_ap) = mine_with_metrics(&Apriori::new(MINSUP), &db);
    assert_eq!(per_pass(&snap_ap, "apriori", "candidates")[1], 148_240);
    // Tree instrumentation is live: a materialized tree and at least one
    // conditional projection.
    assert!(snap.counter("assoc.fp.tree_nodes").unwrap() > 0);
    assert!(snap.counter("assoc.fp.cond_trees").unwrap() > 0);
    assert!(snap.gauge("assoc.mem.fptree_bytes").unwrap() > 0.0);
}

/// Eclat's projection depth is bounded by the longest frequent itemset:
/// the DFS never recurses past prefixes that are themselves frequent, so
/// the recorded max depth sits in `[max_len - 1, max_len]`. A deeper
/// recursion means the class pruning regressed.
#[test]
fn eclat_projection_depth_tracks_longest_itemset() {
    let db = quest_small();
    let (result, snap) = mine_with_metrics(&Eclat::new(MINSUP), &db);
    assert_eq!(result.itemsets.len(), 569);
    let mut frequent = per_pass(&snap, "eclat", "frequent");
    while frequent.last() == Some(&0) {
        frequent.pop();
    }
    assert_eq!(frequent, [545, 20, 4]);
    let max_len = result.itemsets.max_len();
    let depth = snap.gauge("assoc.eclat.max_depth").unwrap() as usize;
    assert!(
        depth + 1 >= max_len && depth <= max_len,
        "projection depth {depth} out of bounds for max itemset length {max_len}"
    );
    // Pass 1 admits every item column; later passes count intersections,
    // of which there is at least one per frequent extension.
    assert_eq!(per_pass(&snap, "eclat", "candidates")[0], 1000);
    let intersections = snap.counter("assoc.eclat.intersections").unwrap();
    assert!(intersections >= (result.itemsets.len() - frequent[0] as usize) as u64);
    assert!(snap.gauge("assoc.mem.vertical_bytes").unwrap() > 0.0);
}

/// Eclat counts L2 with the shared pair array, not by intersecting
/// tid-sets, so it never intersects an infrequent pair: one
/// intersection materializes each frequent pair's tid-set, and from
/// level 3 on there is one per candidate. The pair pass shows as its
/// own span.
#[test]
fn eclat_never_intersects_an_infrequent_pair() {
    let db = quest_small();
    let (_, snap) = mine_with_metrics(&Eclat::new(MINSUP), &db);
    let candidates = per_pass(&snap, "eclat", "candidates");
    let frequent = per_pass(&snap, "eclat", "frequent");
    assert!(candidates[1] > frequent[1], "pass 2 pruned no pair");
    let expected = frequent[1] + candidates[2..].iter().sum::<u64>();
    assert_eq!(snap.counter("assoc.eclat.intersections"), Some(expected));
    assert!(snap.spans.contains_key("assoc.eclat.pairs"));
}

/// Eclat's pass statistics do not depend on whether a pair pass ran:
/// with one frequent item it reports one pass and depth 0; with two
/// frequent items and no frequent pair, two passes (one candidate) and
/// depth 1, as when every pair was intersected.
#[test]
fn eclat_stats_with_one_or_two_frequent_items() {
    let min = MinSupport::Count(2);
    let one = TransactionDb::new(vec![vec![0], vec![0], vec![1]]);
    let (_, snap) = mine_with_metrics(&Eclat::new(min), &one);
    assert_eq!(per_pass(&snap, "eclat", "frequent"), [1]);
    assert_eq!(snap.gauge("assoc.eclat.max_depth"), Some(0.0));
    assert_eq!(snap.counter("assoc.eclat.intersections"), Some(0));

    let two = TransactionDb::new(vec![vec![0], vec![0], vec![1], vec![1, 2]]);
    let (_, snap) = mine_with_metrics(&Eclat::new(min), &two);
    assert_eq!(per_pass(&snap, "eclat", "candidates"), [3, 1]);
    assert_eq!(per_pass(&snap, "eclat", "frequent"), [2, 0]);
    assert_eq!(snap.gauge("assoc.eclat.max_depth"), Some(1.0));
    assert_eq!(snap.counter("assoc.eclat.intersections"), Some(0));
}

/// The hash-tree visit counter (A1's ablation currency) must be live:
/// recorded for Apriori whenever a pass at k >= 3 actually counted
/// candidates through the tree.
#[test]
fn hashtree_visits_are_recorded_for_late_passes() {
    let db = quest_small();
    let (_, snap) = mine_with_metrics(&Apriori::new(MINSUP), &db);
    let visits: u64 = snap
        .counters_with_prefix("assoc.apriori.pass")
        .into_iter()
        .filter(|(k, _)| k.ends_with("hashtree_visits"))
        .map(|(_, v)| v)
        .sum();
    assert!(visits > 0, "pass-3 counting should traverse the hash tree");
}
