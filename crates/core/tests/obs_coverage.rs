//! Metric-registry coverage: every governed algorithm must emit the
//! metric names its documentation (DESIGN.md, "Metric name registry")
//! promises. A rename, a dropped emission site, or a new algorithm that
//! forgets to wire the recorder fails here — this file is the executable
//! half of the registry table.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_core::par::Parallelism;
use dm_core::prelude::*;
use std::sync::Arc;

/// Runs `f` with a fresh recorder-carrying guard and returns the
/// snapshot of everything it emitted.
fn record<F: FnOnce(&Guard)>(f: F) -> Snapshot {
    let rec = Arc::new(InMemoryRecorder::new());
    let guard = Guard::unlimited().with_recorder(rec.clone());
    f(&guard);
    rec.snapshot()
}

fn assert_counters(snap: &Snapshot, names: &[&str]) {
    for name in names {
        assert!(
            snap.counter(name).is_some(),
            "missing counter `{name}`; recorded: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
}

fn small_quest() -> TransactionDb {
    QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 500), 101)
        .unwrap()
        .generate(202)
}

#[test]
fn every_assoc_miner_emits_per_pass_counters_and_spans() {
    let db = small_quest();
    let support = MinSupport::Fraction(0.02);
    let miners: Vec<(&str, Box<dyn ItemsetMiner>)> = vec![
        ("ais", Box::new(Ais::new(support))),
        ("setm", Box::new(Setm::new(support))),
        ("apriori", Box::new(Apriori::new(support))),
        ("apriori_tid", Box::new(AprioriTid::new(support))),
        ("apriori_hybrid", Box::new(AprioriHybrid::new(support))),
        ("brute", Box::new(BruteForce::new(support))),
    ];
    // Brute force enumerates the powerset, so it gets a 10-item toy db.
    let tiny = TransactionDb::new(vec![
        vec![0, 1, 2],
        vec![1, 2, 3],
        vec![0, 2, 4],
        vec![2, 3, 4],
    ]);
    for (algo, miner) in miners {
        let target = if algo == "brute" { &tiny } else { &db };
        let snap = record(|g| {
            miner.mine_governed(target, g).unwrap();
        });
        let expected = [
            format!("assoc.{algo}.pass1.candidates"),
            format!("assoc.{algo}.pass1.frequent"),
            format!("assoc.{algo}.pass1.pruned"),
            format!("assoc.{algo}.passes"),
        ];
        let expected: Vec<&str> = expected.iter().map(String::as_str).collect();
        assert_counters(&snap, &expected);
        assert!(
            snap.spans.contains_key(&format!("assoc.{algo}.pass1")),
            "{algo}: missing pass-1 span"
        );
    }
}

#[test]
fn fp_growth_emits_tree_counters_gauges_and_spans() {
    let db = small_quest();
    let snap = record(|g| {
        FpGrowth::new(MinSupport::Fraction(0.02))
            .mine_governed(&db, g)
            .unwrap();
    });
    assert_counters(
        &snap,
        &[
            "assoc.fp.pass1.candidates",
            "assoc.fp.pass1.frequent",
            "assoc.fp.pass1.pruned",
            "assoc.fp.passes",
            "assoc.fp.tree_nodes",
            "assoc.fp.cond_trees",
            "assoc.fp.cond_nodes",
            "assoc.fp.single_path_shortcuts",
        ],
    );
    // Zero candidates on every pass — the algorithm's defining claim.
    let passes = snap.counter("assoc.fp.passes").unwrap();
    for k in 1..=passes {
        assert_eq!(
            snap.counter(&format!("assoc.fp.pass{k}.candidates")),
            Some(0),
            "FP-Growth pass {k} generated candidates"
        );
    }
    for span in ["assoc.fp.scan", "assoc.fp.build", "assoc.fp.mine"] {
        assert!(snap.spans.contains_key(span), "missing span `{span}`");
    }
    assert!(snap
        .gauge("assoc.mem.fptree_bytes")
        .is_some_and(|v| v > 0.0));
    assert!(snap
        .gauge("assoc.fp.tree_mem_bytes")
        .is_some_and(|v| v > 0.0));
    assert!(snap.gauge("assoc.mem.db_bytes").is_some_and(|v| v > 0.0));
}

#[test]
fn eclat_emits_vertical_counters_gauges_and_spans() {
    let db = small_quest();
    let snap = record(|g| {
        Eclat::new(MinSupport::Fraction(0.02))
            .mine_governed(&db, g)
            .unwrap();
    });
    assert_counters(
        &snap,
        &[
            "assoc.eclat.pass1.candidates",
            "assoc.eclat.pass1.frequent",
            "assoc.eclat.pass1.pruned",
            "assoc.eclat.passes",
            "assoc.eclat.intersections",
        ],
    );
    for span in ["assoc.eclat.build", "assoc.eclat.mine"] {
        assert!(snap.spans.contains_key(span), "missing span `{span}`");
    }
    assert!(snap
        .gauge("assoc.mem.vertical_bytes")
        .is_some_and(|v| v > 0.0));
    assert!(snap
        .gauge("assoc.eclat.max_depth")
        .is_some_and(|v| v >= 1.0));
}

#[test]
fn auto_front_door_reports_its_resolution() {
    let db = small_quest();
    let snap = record(|g| {
        mine_governed(&db, MinSupport::Fraction(0.02), Method::Auto, g).unwrap();
    });
    let resolved: Vec<&str> = snap
        .events
        .iter()
        .filter(|e| e.name == "assoc.auto.resolved")
        .map(|e| e.detail.as_str())
        .collect();
    // small_quest is below the Auto size floor, so Apriori is chosen —
    // and the decision must be observable.
    assert_eq!(resolved, ["apriori"]);
    // A concrete method stays silent: nothing was "resolved".
    let snap = record(|g| {
        mine_governed(&db, MinSupport::Fraction(0.02), Method::Eclat, g).unwrap();
    });
    assert!(snap.events.iter().all(|e| e.name != "assoc.auto.resolved"));
}

#[test]
fn apriori_emits_hashtree_visits_and_hybrid_reports_switch() {
    let db = small_quest();
    // Low enough support to reach pass 3, where counting goes through
    // the hash tree.
    let snap = record(|g| {
        Apriori::new(MinSupport::Fraction(0.01))
            .mine_governed(&db, g)
            .unwrap();
    });
    let visits: u64 = snap
        .counters_with_prefix("assoc.apriori.pass")
        .into_iter()
        .filter(|(k, _)| k.ends_with("hashtree_visits"))
        .map(|(_, v)| v)
        .sum();
    assert!(visits > 0, "no hash-tree visits recorded");

    let snap = record(|g| {
        AprioriHybrid::new(MinSupport::Fraction(0.01))
            .with_tid_budget(usize::MAX)
            .mine_governed(&db, g)
            .unwrap();
    });
    let switched = snap.gauge("assoc.apriori_hybrid.switched_at_pass");
    assert!(
        switched.is_some_and(|p| p >= 2.0),
        "hybrid with an unbounded tid budget must switch and say when (got {switched:?})"
    );
}

#[test]
fn apriori_all_emits_sequence_metrics() {
    let db = SequenceGenerator::new(SequenceConfig::standard(120), 5)
        .unwrap()
        .generate(6);
    let snap = record(|g| {
        AprioriAll::new(0.05).mine_governed(&db, g).unwrap();
    });
    assert_counters(
        &snap,
        &["seq.apriori_all.litemsets", "seq.apriori_all.len1.frequent"],
    );
    assert!(snap.spans.contains_key("seq.apriori_all.mine"));
}

#[test]
fn every_clusterer_emits_its_documented_counters() {
    let (data, _) = GaussianMixture::well_separated(3, 2, 60, 8.0)
        .unwrap()
        .generate(9);
    let cases: Vec<(Box<dyn Clusterer>, Vec<&str>)> = vec![
        (
            Box::new(KMeans::new(3).with_seed(1)),
            vec!["cluster.kmeans.iterations", "cluster.kmeans.iter.churn"],
        ),
        (Box::new(Pam::new(3)), vec!["cluster.pam.iterations"]),
        (
            Box::new(Clara::new(3).with_seed(1)),
            vec!["cluster.clara.iterations"],
        ),
        (
            Box::new(Clarans::new(3).with_seed(1)),
            vec![
                "cluster.clarans.iterations",
                "cluster.clarans.neighbors_evaluated",
            ],
        ),
        (
            Box::new(Dbscan::new(1.5, 4)),
            vec![
                "cluster.dbscan.region_queries",
                "cluster.dbscan.clusters",
                "cluster.dbscan.noise_points",
            ],
        ),
        (
            Box::new(Birch::new(3).with_threshold(1.0).with_seed(1)),
            vec!["cluster.birch.leaf_entries", "cluster.birch.iterations"],
        ),
        (
            Box::new(Agglomerative::new(3)),
            vec!["cluster.agglomerative.merges"],
        ),
    ];
    for (clusterer, names) in cases {
        let snap = record(|g| {
            clusterer.fit_governed(&data, g).unwrap();
        });
        assert_counters(&snap, &names);
    }
    // Gauges ride along for the objective-value algorithms.
    let snap = record(|g| {
        KMeans::new(3).with_seed(1).fit_governed(&data, g).unwrap();
    });
    assert!(snap.gauge("cluster.kmeans.inertia").is_some());
    assert!(snap.gauge("cluster.kmeans.iter.inertia").is_some());
    let snap = record(|g| {
        Pam::new(3).fit_governed(&data, g).unwrap();
    });
    assert!(snap.gauge("cluster.pam.cost").is_some());
}

#[test]
fn tree_and_knn_emit_their_counters() {
    let (data, labels) = AgrawalGenerator::new(AgrawalFunction::F2, 300)
        .unwrap()
        .generate(11);
    let snap = record(|g| {
        DecisionTreeLearner::new()
            .fit_governed(&data, &labels, g)
            .unwrap();
    });
    assert_counters(
        &snap,
        &["tree.decision.nodes_expanded", "tree.decision.split_evals"],
    );

    let (train, train_labels) = GaussianMixture::well_separated(3, 2, 40, 9.0)
        .unwrap()
        .generate(3);
    let (test, _) = GaussianMixture::well_separated(3, 2, 30, 9.0)
        .unwrap()
        .generate(4);
    let model = Knn::new(3).fit(&train, &train_labels).unwrap();
    let snap = record(|g| {
        model.predict_governed(&test, g).unwrap();
    });
    assert_eq!(
        snap.counter("knn.predict.queries"),
        Some(test.rows() as u64)
    );
    assert!(snap.spans.contains_key("knn.predict"));
}

#[test]
fn parallel_kernels_emit_per_shard_telemetry() {
    let db = small_quest();
    let snap = record(|g| {
        // The recorder travels on the guard into the dm_par workers.
        Apriori::new(MinSupport::Fraction(0.02))
            .with_parallelism(Parallelism::Threads(2))
            .mine_governed(&db, g)
            .unwrap();
    });
    let shards = snap.counters_with_prefix("par.shard");
    assert!(
        shards.iter().any(|(k, _)| k.ends_with(".items")),
        "no per-shard item counters recorded: {shards:?}"
    );
    assert!(
        shards.iter().any(|(k, _)| k.ends_with(".busy_ns")),
        "no per-shard busy-time counters recorded: {shards:?}"
    );
}

#[test]
fn span_tree_nests_experiment_pass_and_shard() {
    let db = small_quest();
    let rec = Arc::new(InMemoryRecorder::new());
    let guard = Guard::unlimited().with_recorder(rec.clone());
    {
        let _exp = guard.obs().span("experiment.test");
        Apriori::new(MinSupport::Fraction(0.02))
            .with_parallelism(Parallelism::Threads(2))
            .mine_governed(&db, &guard)
            .unwrap();
    }
    let snap = rec.snapshot();
    let node = |name: &str| snap.tree.iter().find(|n| n.name == name);
    let exp = node("experiment.test").expect("experiment span reaches the tree");
    assert_eq!(exp.parent, 0, "experiment span is top-level");
    assert!(exp.dur_ns.is_some(), "experiment span closed");
    let pass1 = node("assoc.apriori.pass1").expect("pass span reaches the tree");
    assert_eq!(pass1.parent, exp.id, "pass nests under the experiment");
    // Worker shard spans carry the explicit parent handoff across
    // thread boundaries: they must nest under a mining pass.
    let shard = snap
        .tree
        .iter()
        .find(|n| n.name.starts_with("par.shard"))
        .expect("shard span reaches the tree");
    let shard_parent = snap
        .tree
        .iter()
        .find(|n| n.id == shard.parent)
        .expect("shard span has an in-tree parent");
    assert!(
        shard_parent.name.contains(".pass"),
        "shard should nest under a pass, got parent `{}`",
        shard_parent.name
    );
    // Durations also land in histograms (exact count/sum aggregates)...
    assert!(snap.histogram("assoc.apriori.pass1").is_some());
    // ...and per-shard work-item sizes feed a value histogram.
    let items = snap
        .histogram("par.shard.items")
        .expect("per-shard item-count histogram");
    assert!(items.count > 0 && items.sum > 0);
}

#[test]
fn memory_gauges_cover_the_paper_structures() {
    let db = small_quest();
    let snap = record(|g| {
        AprioriTid::new(MinSupport::Fraction(0.02))
            .mine_governed(&db, g)
            .unwrap();
    });
    assert!(snap.gauge("assoc.mem.db_bytes").is_some_and(|v| v > 0.0));
    assert!(snap.gauge("assoc.mem.ck_bytes").is_some_and(|v| v > 0.0));
    let snap = record(|g| {
        Apriori::new(MinSupport::Fraction(0.01))
            .mine_governed(&db, g)
            .unwrap();
    });
    assert!(
        snap.gauge("assoc.mem.hashtree_bytes")
            .is_some_and(|v| v > 0.0),
        "hash-tree footprint missing (support low enough for pass 3?)"
    );

    let (data, _) = GaussianMixture::well_separated(3, 2, 60, 8.0)
        .unwrap()
        .generate(9);
    let snap = record(|g| {
        Pam::new(3).fit_governed(&data, g).unwrap();
    });
    assert!(
        snap.gauge("cluster.pam.dist_cache_mem_bytes")
            .is_some_and(|v| v > 0.0),
        "PAM distance-cache footprint missing"
    );
    let snap = record(|g| {
        Birch::new(3)
            .with_threshold(1.0)
            .with_seed(1)
            .fit_governed(&data, g)
            .unwrap();
    });
    assert!(
        snap.gauge("cluster.birch.cf_tree_mem_bytes")
            .is_some_and(|v| v > 0.0),
        "BIRCH CF-tree footprint missing"
    );
}

/// The naming convention every ledger key inherits (DESIGN.md, "Metric
/// naming"): dot-separated lowercase segments, `<subsystem>` first from
/// the closed set below, at least one more segment after it. Run
/// ledgers diff and gate on these names across commits, so a rename is
/// a baseline-breaking event — this test is the executable convention.
fn assert_well_named(kind: &str, name: &str) {
    const SUBSYSTEMS: [&str; 11] = [
        "assoc",
        "seq",
        "cluster",
        "tree",
        "knn",
        "par",
        "guard",
        "experiment",
        "stream",
        "watch",
        "trace",
    ];
    let ok_chars = name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_');
    assert!(ok_chars, "{kind} `{name}`: only [a-z0-9_.] allowed");
    let segments: Vec<&str> = name.split('.').collect();
    assert!(
        segments.len() >= 2 && segments.iter().all(|s| !s.is_empty()),
        "{kind} `{name}`: need >= 2 non-empty dot segments"
    );
    assert!(
        SUBSYSTEMS.contains(&segments[0]),
        "{kind} `{name}`: unknown subsystem `{}` (registry: {SUBSYSTEMS:?})",
        segments[0]
    );
}

#[test]
fn every_emitted_metric_name_follows_the_convention() {
    let db = small_quest();
    let (tabular, labels) = AgrawalGenerator::new(AgrawalFunction::F2, 200)
        .unwrap()
        .generate(11);
    let (points, _) = GaussianMixture::well_separated(3, 2, 60, 8.0)
        .unwrap()
        .generate(9);
    let snap = record(|g| {
        // One pass through each instrumented family, parallel shards on.
        Apriori::new(MinSupport::Fraction(0.02))
            .with_parallelism(Parallelism::Threads(2))
            .mine_governed(&db, g)
            .unwrap();
        AprioriTid::new(MinSupport::Fraction(0.02))
            .mine_governed(&db, g)
            .unwrap();
        FpGrowth::new(MinSupport::Fraction(0.02))
            .mine_governed(&db, g)
            .unwrap();
        Eclat::new(MinSupport::Fraction(0.02))
            .with_parallelism(Parallelism::Threads(2))
            .mine_governed(&db, g)
            .unwrap();
        mine_governed(&db, MinSupport::Fraction(0.02), Method::Auto, g).unwrap();
        KMeans::new(3)
            .with_seed(1)
            .fit_governed(&points, g)
            .unwrap();
        DecisionTreeLearner::new()
            .fit_governed(&tabular, &labels, g)
            .unwrap();
        // The streaming engines: governed feeds emit the per-engine
        // insert/work counters, observe() the state gauges.
        let stream_points: Vec<Vec<f64>> =
            (0..points.rows()).map(|r| points.row(r).to_vec()).collect();
        let stream_txns: Vec<Vec<u32>> =
            (0..db.len()).map(|t| db.transaction(t).to_vec()).collect();
        let mut skm = StreamKMeans::new(3, 16).unwrap();
        assert!(skm.insert_governed(&stream_points, g).is_complete());
        skm.observe(&g.obs());
        let mut sbi = StreamBirch::new(3, 1.0, 6).unwrap();
        assert!(sbi.insert_governed(&stream_points, g).is_complete());
        sbi.observe(&g.obs());
        let n_items = 1 + stream_txns.iter().flatten().copied().max().unwrap_or(0);
        let mut sfr = StreamFrequent::new(n_items, 2, Some(50)).unwrap();
        assert!(sfr.insert_governed(&stream_txns, g).is_complete());
        sfr.observe(&g.obs());
    });
    assert!(snap.counter("stream.kmeans.inserts").is_some());
    assert!(snap.counter("stream.birch.inserts").is_some());
    assert!(snap.counter("stream.frequent.inserts").is_some());
    for name in snap.counters.keys() {
        assert_well_named("counter", name);
    }
    for name in snap.gauges.keys() {
        assert_well_named("gauge", name);
    }
    for name in snap.histograms.keys() {
        assert_well_named("histogram", name);
    }
    for node in &snap.tree {
        assert_well_named("span", &node.name);
    }
    for event in &snap.events {
        assert_well_named("event", &event.name);
    }
    // The pre-ledger stragglers stay gone: family memory high-waters
    // live under the reserved `mem` scope, tree counters under the
    // algorithm (`decision`), not the phase.
    for retired in [
        "assoc.db_mem_bytes",
        "assoc.ck_mem_bytes",
        "assoc.hashtree_mem_bytes",
        "tree.grow.nodes_expanded",
        "tree.grow.split_evals",
    ] {
        assert!(
            snap.counter(retired).is_none() && snap.gauge(retired).is_none(),
            "retired metric name `{retired}` re-emitted"
        );
    }
    assert!(snap.gauge("assoc.mem.db_bytes").is_some());
    assert!(snap.counter("tree.decision.nodes_expanded").is_some());
}

/// The watcher is a metric *producer* like any governed algorithm: one
/// alert lifecycle plus one drift detection must emit every
/// `watch.alert.*` / `watch.drift.*` name the DESIGN.md registry
/// documents, and nothing off-convention.
#[test]
fn watch_alert_and_drift_metrics_cover_the_registry() {
    use dm_core::obs::watch::{
        Clock, Condition, DetectorSpec, ManualClock, RuleSet, SloRule, Watcher,
    };
    use dm_core::obs::{Obs, Recorder};

    let rules = RuleSet::new(vec![
        SloRule::new(
            "queue-depth",
            Condition::GaugeAbove {
                metric: "stream.frequent.entries".into(),
                max: 5.0,
            },
        ),
        SloRule::new(
            "inertia-drift",
            Condition::Drift {
                metric: "stream.kmeans.inertia".into(),
                detector: DetectorSpec::PageHinkley {
                    delta: 0.05,
                    lambda: 5.0,
                },
                hold_ms: Some(200),
            },
        ),
    ]);
    let clock = Arc::new(ManualClock::new(0));
    let mut watcher = Watcher::new(rules, 10_000, clock.clone() as Arc<dyn Clock>);
    let source = InMemoryRecorder::new();
    let sink = Arc::new(InMemoryRecorder::new());
    let obs = Obs::new(&*sink);
    // A full lifecycle on the SLO rule (breach, fire, clear) and a mean
    // shift big enough to trip the drift detector.
    let mut series: Vec<(f64, f64)> = Vec::new();
    series.extend(vec![(9.0, 1.0); 3]);
    series.extend(vec![(1.0, 1.0); 27]);
    series.extend(vec![(1.0, 8.0); 20]);
    for (depth, inertia) in series {
        source.gauge("stream.frequent.entries", depth);
        source.gauge("stream.kmeans.inertia", inertia);
        watcher.tick(&source.snapshot(), &obs);
        clock.advance(100);
    }
    let snap = sink.snapshot();
    assert_counters(
        &snap,
        &[
            "watch.eval.ticks",
            "watch.alert.transitions",
            "watch.alert.queue_depth.pending",
            "watch.alert.queue_depth.firing",
            "watch.alert.queue_depth.resolved",
            "watch.alert.queue_depth.ok",
            "watch.alert.inertia_drift.firing",
            "watch.drift.detections",
            "watch.drift.inertia_drift.detections",
        ],
    );
    assert!(snap.gauge("watch.alert.firing").is_some());
    assert!(snap.gauge("watch.drift.inertia_drift.stat").is_some());
    assert!(
        snap.events
            .iter()
            .any(|e| e.name == "watch.alert.transition"),
        "transition events missing"
    );
    for name in snap.counters.keys() {
        assert_well_named("counter", name);
    }
    for name in snap.gauges.keys() {
        assert_well_named("gauge", name);
    }
    for event in &snap.events {
        assert_well_named("event", &event.name);
    }
}

/// The tail sampler is a metric *producer* like the watcher: one
/// retain, one sampled drop, one budget eviction and one pin must emit
/// every `trace.*` name the DESIGN.md registry documents, and nothing
/// off-convention. (The per-request `serve.queue.wait_ns` /
/// `serve.request.exec_ns` split is enforced end-to-end by
/// `crates/serve/tests/trace_serve.rs`, which owns the serving path.)
#[test]
fn trace_store_metrics_cover_the_registry() {
    use dm_core::obs::trace::{
        RequestTrace, TraceConfig, TraceEvent, TraceEventKind, TraceId, TraceStore,
    };
    use dm_core::obs::Obs;

    let make = |seq: u64, anomalous: bool| {
        let mut events = vec![TraceEvent {
            at_ns: 0,
            kind: TraceEventKind::Submitted,
        }];
        if anomalous {
            events.push(TraceEvent {
                at_ns: 100,
                kind: TraceEventKind::Shed {
                    reason: "queue_full".into(),
                },
            });
        } else {
            events.push(TraceEvent {
                at_ns: 100,
                kind: TraceEventKind::Finished {
                    outcome: "complete".into(),
                },
            });
        }
        RequestTrace {
            id: TraceId::mint(7, seq),
            seq,
            endpoint: "predict".into(),
            events,
            queue_ns: 0,
            exec_ns: 100,
            total_ns: 100,
            pinned: Vec::new(),
        }
    };

    let rec = Arc::new(InMemoryRecorder::new());
    let obs = Obs::new(&*rec);
    // A budget two anomalous traces overflow, sampling off: the boring
    // trace is dropped, the third shed evicts the first, the pin walks
    // the survivors.
    let budget = 2 * make(1, true).approx_bytes() + make(1, true).approx_bytes() / 2;
    let store = TraceStore::new(
        TraceConfig {
            seed: 7,
            byte_budget: budget,
            sample_every: 0,
            slowest_k: 0,
            ..TraceConfig::default()
        },
        1,
    );
    assert!(!store.offer(0, make(1, false), &obs), "boring trace kept");
    for seq in 2..=4 {
        assert!(store.offer(0, make(seq, true), &obs), "shed {seq} dropped");
    }
    store.pin_recent("overload", &obs);

    let snap = rec.snapshot();
    assert_counters(
        &snap,
        &[
            "trace.retained",
            "trace.dropped",
            "trace.evicted",
            "trace.pinned",
        ],
    );
    assert!(snap.gauge("trace.bytes").is_some_and(|v| v > 0.0));
    for name in snap.counters.keys() {
        assert_well_named("counter", name);
    }
    for name in snap.gauges.keys() {
        assert_well_named("gauge", name);
    }
    let stats = store.stats();
    assert_eq!(stats.retained, 3);
    assert_eq!(stats.dropped, 1);
    // The third shed forces one eviction; the pin's own byte overhead
    // (rule-name strings) may force a second re-balance.
    assert!(
        (1..=2).contains(&stats.evicted),
        "evicted {}",
        stats.evicted
    );
    assert!(stats.bytes <= budget);
}

#[test]
fn guard_trip_is_observable() {
    let rec = Arc::new(InMemoryRecorder::new());
    let guard = Guard::new(Budget::unlimited().with_max_work(3)).with_recorder(rec.clone());
    let db = small_quest();
    let out = Apriori::new(MinSupport::Fraction(0.02))
        .mine_governed(&db, &guard)
        .unwrap();
    assert!(matches!(out.status, RunStatus::Truncated(_)));
    let snap = rec.snapshot();
    assert_eq!(
        snap.events
            .iter()
            .filter(|e| e.name == "guard.trip")
            .count(),
        1,
        "exactly one trip event"
    );
    assert!(snap.gauge("guard.work_admitted").is_some());
}
