//! Golden-file tests for `dm_obs::ledger`'s diff renderers: two
//! checked-in fixture records and the exact table / JSON reports their
//! diff must produce. A formatting change here is a *product* change —
//! CI artifacts and review workflows consume these reports — so it
//! must show up in review as a golden-file edit, not slip by.
//!
//! Regenerate after an intentional change:
//!
//! ```text
//! cargo run -p dm-bench --bin dm -- ledger diff \
//!     crates/obs/tests/fixtures/record_a.json \
//!     crates/obs/tests/fixtures/record_b.json \
//!     > crates/obs/tests/fixtures/diff_a_b.table.golden   # and --json
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::json::parse;
use dm_obs::ledger::{check, diff, CheckPolicy, DiffKind, MetricClass, RunRecord};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn records() -> (RunRecord, RunRecord) {
    let a = RunRecord::from_json(&fixture("record_a.json")).expect("record_a parses");
    let b = RunRecord::from_json(&fixture("record_b.json")).expect("record_b parses");
    (a, b)
}

#[test]
fn diff_table_matches_golden() {
    let (a, b) = records();
    assert_eq!(
        diff(&a, &b).render_table(),
        fixture("diff_a_b.table.golden"),
        "table renderer drifted from the committed golden"
    );
}

#[test]
fn diff_json_matches_golden() {
    let (a, b) = records();
    let rendered = diff(&a, &b).render_json();
    assert_eq!(
        rendered,
        fixture("diff_a_b.json.golden"),
        "JSON renderer drifted from the committed golden"
    );
    // The machine form must actually be machine-readable.
    let doc = parse(&rendered).expect("diff JSON parses");
    let differences = doc.get("differences").and_then(|d| d.as_arr()).unwrap();
    assert_eq!(differences.len(), diff(&a, &b).entries.len());
}

/// The fixtures exercise every diff kind and both gate classes; this
/// pins the classification so a fixture edit can't silently hollow the
/// golden tests out.
#[test]
fn fixtures_cover_every_kind_and_class() {
    let (a, b) = records();
    let d = diff(&a, &b);
    for kind in [
        DiffKind::Counter,
        DiffKind::Gauge,
        DiffKind::EventCount,
        DiffKind::HistSum,
        DiffKind::TreeNs,
        DiffKind::WallMs,
        DiffKind::Truncated,
        DiffKind::Experiment,
    ] {
        assert!(
            d.entries.iter().any(|e| e.kind == kind),
            "fixture diff lost coverage of {kind:?}"
        );
    }
    assert!(d.entries_of(MetricClass::Exact).count() >= 5);
    assert!(d.entries_of(MetricClass::Noisy).count() >= 3);
    // And the gate agrees the drift is real: exact violations from the
    // counter/gauge/event changes, none of which a band can absorb.
    let report = check(&a, &b, &CheckPolicy::default());
    assert!(!report.passed());
    assert!(report.violations.len() >= 8);
}

/// The fixtures round-trip through the writer: `from_json ∘ to_json`
/// is the identity on them, so committed records and freshly written
/// ones never drift apart structurally.
#[test]
fn fixtures_round_trip() {
    let (a, b) = records();
    for record in [&a, &b] {
        let re = RunRecord::from_json(&record.to_json()).expect("re-parses");
        assert_eq!(&re, record);
    }
}

/// Every record committed under `ledger/` — the CI baseline and the
/// converted historical benchmarks — parses as a current-schema record
/// and re-serializes to the exact committed bytes. A hand-edit that
/// breaks canonical form (key order, number formatting) fails here, not
/// in CI's gate job.
#[test]
fn committed_ledger_records_parse_and_are_canonical() {
    let dir = format!("{}/../../ledger", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("ledger/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let raw = std::fs::read_to_string(&path).unwrap();
        let record = RunRecord::from_json(&raw)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            !record.experiments.is_empty(),
            "{} holds no experiments",
            path.display()
        );
        assert_eq!(
            record.to_json(),
            raw,
            "{} is not in canonical serialized form",
            path.display()
        );
    }
    assert!(
        seen >= 1,
        "expected at least the baseline record, saw {seen}"
    );
}
