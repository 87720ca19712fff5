//! Fail-point robustness properties (`cargo test --features failpoints`).
//!
//! A [`Guard`] armed with a deterministic fail point injects budget
//! exhaustion or cancellation at an arbitrary check site. Sweeping the
//! trip site across randomized workloads must uphold the governance
//! contract everywhere:
//!
//! 1. no governed entry point panics, wherever the trip lands;
//! 2. a truncated frequent-itemset result is a downward-closed subset of
//!    the ungoverned run, with identical support counts;
//! 3. an unlimited, unarmed guard is bit-identical to the ungoverned
//!    run even with the fail-point machinery compiled in.

#![cfg(feature = "failpoints")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use datamining_suite::datamining::assoc::{
    Ais, Apriori, AprioriHybrid, AprioriTid, Eclat, FpGrowth, FrequentItemsets, ItemsetMiner, Setm,
};
use datamining_suite::datamining::prelude::*;
use proptest::prelude::*;

/// Generic streaming resume check: trip a fail point mid-feed, verify
/// the Truncated outcome reports exactly the absorbed prefix, then
/// replay the un-absorbed suffix under a fresh guard and require the
/// engine to land in the same state as an uninterrupted run.
fn resume_after_trip<E: StreamEngine>(
    mut tripped: E,
    mut straight: E,
    records: &[E::Record],
    trip_at: u64,
    reason: TruncationReason,
    assert_same_state: impl Fn(&E, &E),
) {
    for r in records {
        straight.insert(r);
    }
    let guard = Guard::unlimited().with_failpoint(trip_at, reason);
    let out = tripped.insert_governed(records, &guard);
    let absorbed = out.result;
    match out.status {
        RunStatus::Complete => assert_eq!(absorbed, records.len()),
        RunStatus::Truncated(r) => {
            assert_eq!(r, reason);
            // The guard is charged *before* each insert, so the trip
            // lands on a record boundary: exactly `trip_at` records
            // were absorbed and the partial state is valid.
            assert_eq!(absorbed as u64, trip_at);
            assert!(absorbed < records.len());
        }
    }
    assert_eq!(tripped.records_seen() as usize, absorbed);
    let resumed = tripped.insert_governed(&records[absorbed..], &Guard::unlimited());
    assert!(resumed.is_complete());
    assert_eq!(tripped.records_seen(), straight.records_seen());
    assert_same_state(&tripped, &straight);
}

fn small_db() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 1..20).prop_map(TransactionDb::new)
}

fn any_reason() -> impl Strategy<Value = TruncationReason> {
    (0u8..4).prop_map(|v| match v {
        0 => TruncationReason::DeadlineExceeded,
        1 => TruncationReason::WorkLimitExceeded,
        2 => TruncationReason::IterationLimitReached,
        _ => TruncationReason::Cancelled,
    })
}

fn all_miners(min: MinSupport) -> Vec<Box<dyn ItemsetMiner>> {
    vec![
        Box::new(Apriori::new(min)),
        Box::new(AprioriTid::new(min)),
        Box::new(AprioriHybrid::new(min)),
        Box::new(Ais::new(min)),
        Box::new(Setm::new(min)),
        Box::new(FpGrowth::new(min)),
        Box::new(Eclat::new(min)),
    ]
}

fn assert_subset(governed: &FrequentItemsets, full: &FrequentItemsets) {
    for (itemset, count) in governed.iter() {
        assert_eq!(
            full.support_count(itemset),
            Some(count),
            "governed itemset {itemset:?} missing or miscounted in the full run"
        );
    }
}

/// A trip inside a database scan longer than one guard-poll stride (256
/// transactions) must void that pass, never keep its partial counts.
#[test]
fn trips_inside_a_long_scan_keep_counts_exact() {
    let db = TransactionDb::new(
        (0..600u32)
            .map(|t| vec![t % 3, 3 + t % 5, 8 + t % 7, 15])
            .collect(),
    );
    for miner in all_miners(MinSupport::Count(40)) {
        let full = miner.mine(&db).unwrap();
        for trip_at in 0..40 {
            let guard = Guard::unlimited().with_failpoint(trip_at, TruncationReason::Cancelled);
            let out = miner.mine_governed(&db, &guard).unwrap();
            assert!(
                out.result.itemsets.verify_downward_closure(),
                "{} tripped at check {trip_at}: {:?}",
                miner.name(),
                out.result.itemsets
            );
            assert_subset(&out.result.itemsets, &full.itemsets);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1 + 2: wherever the fail point fires, no miner panics and
    /// every truncated result is a correctly-counted, downward-closed
    /// subset of the ungoverned run.
    #[test]
    fn injected_trips_never_panic_and_preserve_subset(
        db in small_db(),
        trip_at in 0u64..120,
        reason in any_reason(),
        min in 1usize..4,
    ) {
        for miner in all_miners(MinSupport::Count(min)) {
            let full = miner.mine(&db).unwrap();
            let guard = Guard::unlimited().with_failpoint(trip_at, reason);
            let out = miner.mine_governed(&db, &guard).unwrap();
            prop_assert!(out.result.itemsets.verify_downward_closure());
            assert_subset(&out.result.itemsets, &full.itemsets);
            match out.status {
                RunStatus::Complete => {
                    prop_assert_eq!(&out.result.itemsets, &full.itemsets)
                }
                RunStatus::Truncated(r) => prop_assert_eq!(r, reason),
            }
        }
    }

    /// Property 3: with failpoints compiled in but no fail point armed,
    /// an unlimited guard stays bit-identical to the ungoverned run.
    #[test]
    fn unarmed_unlimited_guard_is_bit_identical(db in small_db(), min in 1usize..4) {
        for miner in all_miners(MinSupport::Count(min)) {
            let plain = miner.mine(&db).unwrap();
            let out = miner.mine_governed(&db, &Guard::unlimited()).unwrap();
            prop_assert!(out.is_complete());
            prop_assert_eq!(&out.result.itemsets, &plain.itemsets);
        }
    }

    /// The clustering side of property 1: injected trips leave k-means
    /// with a structurally valid model (every point labelled, finite
    /// centroids), never a panic.
    #[test]
    fn kmeans_survives_injected_trips(trip_at in 0u64..60, reason in any_reason(), seed in 0u64..4) {
        let (data, _) = GaussianMixture::well_separated(3, 2, 40, 8.0)
            .unwrap()
            .generate(seed);
        let guard = Guard::unlimited().with_failpoint(trip_at, reason);
        let out = KMeans::new(3).with_seed(seed).fit_model_governed(&data, &guard).unwrap();
        prop_assert_eq!(out.result.assignments.len(), data.rows());
        prop_assert!(out.result.assignments.iter().all(|&l| l < 3));
        prop_assert!(out.result.centroids.as_slice().iter().all(|v| v.is_finite()));
    }

    /// The sequence side of property 1 + 2: AprioriAll under injection
    /// returns a subset of the ungoverned maximal patterns' support-true
    /// universe and never panics.
    #[test]
    fn apriori_all_survives_injected_trips(trip_at in 0u64..60, reason in any_reason()) {
        let db = SequenceGenerator::new(SequenceConfig::standard(60), 5)
            .unwrap()
            .generate(6);
        let full = AprioriAll::new(0.05).keep_non_maximal().mine(&db).unwrap();
        let guard = Guard::unlimited().with_failpoint(trip_at, reason);
        let out = AprioriAll::new(0.05)
            .keep_non_maximal()
            .mine_governed(&db, &guard)
            .unwrap();
        for p in &out.result.patterns {
            prop_assert!(
                full.patterns.iter().any(|q| q.elements == p.elements
                    && q.support_count == p.support_count),
                "pattern {:?} not in the ungoverned run",
                p.elements
            );
        }
        if out.is_complete() {
            prop_assert_eq!(out.result.patterns.len(), full.patterns.len());
        }
    }

    /// The streaming side of property 1 + resumability: a fail point
    /// tripping mid-feed leaves every engine in a valid Truncated
    /// partial state whose un-absorbed suffix, replayed under a fresh
    /// guard, reaches exactly the uninterrupted state — for k-means,
    /// BIRCH and sliding-window frequent mining alike.
    #[test]
    fn stream_engines_resume_after_injected_trips(
        trip_at in 0u64..90,
        reason in any_reason(),
        seed in 0u64..100,
    ) {
        let mixture = GaussianMixture::well_separated(3, 2, 60, 8.0).unwrap();
        let points: Vec<Vec<f64>> =
            PointStream::new(mixture, seed).take(80).map(|(p, _)| p).collect();
        let quest = QuestGenerator::new(
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
        let txns: Vec<Vec<u32>> = TxnStream::new(quest, seed).take(80).collect();

        resume_after_trip(
            StreamKMeans::new(3, 7).unwrap(),
            StreamKMeans::new(3, 7).unwrap(),
            &points,
            trip_at,
            reason,
            |a, b| assert_eq!(a.snapshot(), b.snapshot()),
        );
        resume_after_trip(
            StreamBirch::new(3, 1.0, 6).unwrap(),
            StreamBirch::new(3, 1.0, 6).unwrap(),
            &points,
            trip_at,
            reason,
            |a, b| assert_eq!(a.snapshot(), b.snapshot()),
        );
        resume_after_trip(
            StreamFrequent::new(40, 3, Some(30)).unwrap(),
            StreamFrequent::new(40, 3, Some(30)).unwrap(),
            &txns,
            trip_at,
            reason,
            |a, b| assert_eq!(a.snapshot(), b.snapshot()),
        );
    }
}
