//! Snapshot-schema tripwire: the top-level keys of the current schema,
//! their order and value shapes. `Snapshot::from_json` reads only
//! `SNAPSHOT_SCHEMA`, so adding, removing or reshaping a key requires
//! a bump (see DESIGN.md, "Metrics snapshot schema") and an update
//! here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::{InMemoryRecorder, Obs, SNAPSHOT_SCHEMA};

/// Every top-level key, in the serialized order.
const TOP_LEVEL_KEYS: [&str; 9] = [
    "schema",
    "counters",
    "gauges",
    "spans",
    "events",
    "histograms",
    "tree",
    "gauge_seq",
    "exemplars",
];

#[test]
fn v1_keys_and_shapes_are_unchanged() {
    let rec = InMemoryRecorder::new();
    let obs = Obs::new(&rec);
    obs.counter("assoc.apriori.passes", 3);
    obs.gauge("assoc.mem.ck_bytes", 4096.0);
    {
        let _outer = obs.span("experiment.e1");
        let _inner = obs.span("assoc.apriori.pass1");
    }
    obs.event("guard.trip", "deadline");
    let json = rec.snapshot().to_json();

    // Every key, with its value shape.
    assert!(json.starts_with(&format!("{{\n  \"schema\": {SNAPSHOT_SCHEMA},")));
    assert_eq!(
        SNAPSHOT_SCHEMA, 4,
        "bumping the schema? update DESIGN.md and this test"
    );
    assert!(json.contains("\"counters\": {"));
    assert!(json.contains("\"assoc.apriori.passes\": 3"));
    assert!(json.contains("\"gauges\": {"));
    assert!(json.contains("\"assoc.mem.ck_bytes\": 4096"));
    assert!(json.contains("\"spans\": {"));
    // Span aggregates are per-name objects.
    assert!(json.contains("\"count\": 1, \"total_ns\": "));
    assert!(json.contains("\"events\": ["));
    assert!(json.contains("\"name\": \"guard.trip\", \"detail\": \"deadline\""));
    // Every gauge carries a write ordinal, as a plain integer map.
    assert!(json.contains("\"gauge_seq\": {"));
    assert!(json.contains("\"assoc.mem.ck_bytes\": 1"));
    // Exemplars, a sparse per-histogram triple list (empty here —
    // nothing was traced).
    assert!(json.contains("\"exemplars\": {}"));

    // Keys appear in the serialized order.
    let order: Vec<usize> = TOP_LEVEL_KEYS
        .iter()
        .map(|k| {
            json.find(&format!("\"{k}\""))
                .unwrap_or_else(|| panic!("missing top-level key {k}"))
        })
        .collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "top-level key order changed: {json}"
    );
}

#[test]
fn empty_snapshot_keeps_every_top_level_key() {
    let rec = InMemoryRecorder::new();
    let json = rec.snapshot().to_json();
    for key in TOP_LEVEL_KEYS {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "empty snapshot must still carry \"{key}\": {json}"
        );
    }
}

#[test]
fn gauge_seq_names_match_gauges() {
    let rec = InMemoryRecorder::new();
    let obs = Obs::new(&rec);
    obs.gauge("stream.kmeans.inertia", 3.0);
    obs.gauge_max("serve.queue.depth_peak", 7.0);
    let snap = rec.snapshot();
    let gauges: Vec<&String> = snap.gauges.keys().collect();
    let seqs: Vec<&String> = snap.gauge_seq.keys().collect();
    assert_eq!(gauges, seqs, "gauge_seq must shadow the gauge key set");
}
