//! The measured grid behind `Method::Auto`: times Apriori, FP-Growth and
//! Eclat on Quest databases of several shapes and support thresholds,
//! and prints, per cell, the fastest miner, the miner Auto resolves to
//! and Auto's regret (its miner's time over the fastest time). Most
//! shapes use the standard 1000 items and 2000 patterns; a `.N<items>`
//! shape keeps two patterns per item but shrinks the universe to make
//! dense data (mean transaction length over the item universe of 5% or
//! more) or widens it to make many frequent items. `L1` is the number of
//! frequent items m; the pass-2 pair array holds C(m,2) counters.
//! Auto cuts on `density` and on `s/d`, the relative support threshold
//! over the density (the mean item's relative support).
//!
//! Each time is the best of three sequential runs. A run that exceeds
//! the per-run cap (seconds, first argument, default 5) is cut by a
//! deadline guard and shown as `>cap`; a cut miner is not re-run.
//!
//! ```text
//! cargo run --release --example auto_grid [cap_seconds]
//! ```

// Example code: panicking with a clear message on failure is fine here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use datamining_suite::datamining::prelude::*;
use std::time::{Duration, Instant};

/// `(T, I, D, N, minsups in %)` per Quest shape.
const GRID: &[(f64, f64, usize, u32, &[f64])] = &[
    (5.0, 2.0, 20_000, 1000, &[3.0, 1.0, 0.5, 0.25, 0.1]),
    (10.0, 4.0, 5_000, 1000, &[3.0, 1.0, 0.5, 0.25]),
    (10.0, 4.0, 20_000, 1000, &[3.0, 1.5, 1.0, 0.5, 0.25, 0.1]),
    (10.0, 4.0, 100_000, 1000, &[1.0, 0.5, 0.25, 0.1]),
    (20.0, 4.0, 5_000, 1000, &[1.0, 0.5, 0.25]),
    (20.0, 6.0, 10_000, 1000, &[3.0, 1.0, 0.5, 0.25]),
    (30.0, 8.0, 10_000, 1000, &[3.0, 2.0, 1.0]),
    (10.0, 4.0, 10_000, 200, &[10.0, 5.0, 2.0, 1.0, 0.5]),
    (10.0, 4.0, 10_000, 100, &[10.0, 5.0, 2.0, 1.0, 0.5]),
    (10.0, 4.0, 10_000, 50, &[20.0, 10.0, 5.0, 2.0]),
    (20.0, 6.0, 10_000, 200, &[10.0, 5.0, 3.0, 2.0]),
    (20.0, 6.0, 10_000, 100, &[20.0, 10.0, 5.0]),
    (10.0, 4.0, 100_000, 20_000, &[0.5, 0.1, 0.05, 0.02]),
];

const MINERS: [Method; 3] = [Method::Apriori, Method::FpGrowth, Method::Eclat];

/// Best of three runs of `method`, or `None` when a run hit `cap`; also
/// the numbers of frequent itemsets and frequent items found.
fn time_miner(
    db: &TransactionDb,
    support: MinSupport,
    method: Method,
    cap: Duration,
) -> (Option<Duration>, usize, usize) {
    let mut best = Duration::MAX;
    let (mut n, mut m) = (0, 0);
    for _ in 0..3 {
        let guard = Guard::new(Budget::unlimited().with_deadline(cap));
        let t0 = Instant::now();
        let out = mine_governed(db, support, method, &guard).unwrap();
        let elapsed = t0.elapsed();
        if !out.is_complete() {
            return (None, 0, 0);
        }
        best = best.min(elapsed);
        n = out.result.itemsets.len();
        m = out.result.itemsets.level_len(1);
    }
    (Some(best), n, m)
}

fn fmt_time(t: Option<Duration>, cap: Duration) -> String {
    match t {
        Some(t) if t < Duration::from_secs(1) => format!("{:.1} ms", t.as_secs_f64() * 1e3),
        Some(t) => format!("{:.2} s", t.as_secs_f64()),
        None => format!(">{} s", cap.as_secs()),
    }
}

fn main() {
    let cap = Duration::from_secs(
        std::env::args()
            .nth(1)
            .map_or(5, |s| s.parse().expect("cap in whole seconds")),
    );
    println!(
        "| cell | density | s/d | L1 | frequent | apriori | fp-growth | eclat | fastest | auto | regret |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for &(t, i, d, n_items, minsups) in GRID {
        let config = QuestConfig {
            n_items,
            n_patterns: 2 * n_items as usize,
            ..QuestConfig::standard(t, i, d)
        };
        let name = if n_items == 1000 {
            config.name()
        } else {
            format!("{}.N{n_items}", config.name())
        };
        let db = QuestGenerator::new(config, 101).unwrap().generate(202);
        let density = db.mean_len() / f64::from(n_items);
        for &minsup in minsups {
            let support = MinSupport::Fraction(minsup / 100.0);
            let s_over_d = minsup / 100.0 / density;
            let mut times = Vec::new();
            let (mut frequent, mut l1) = (0, 0);
            for method in MINERS {
                let (time, n, m) = time_miner(&db, support, method, cap);
                frequent = frequent.max(n);
                l1 = l1.max(m);
                times.push(time);
            }
            let (fastest, best) = MINERS
                .iter()
                .zip(&times)
                .filter_map(|(m, t)| t.map(|t| (*m, t)))
                .min_by_key(|&(_, t)| t)
                .expect("at least one miner finishes within the cap");
            let auto = Method::Auto.resolve(&db, support).unwrap();
            let auto_time = MINERS
                .iter()
                .zip(&times)
                .find(|(m, _)| **m == auto)
                .and_then(|(_, t)| *t);
            let regret = auto_time.map_or_else(
                || format!(">{:.1}", cap.as_secs_f64() / best.as_secs_f64()),
                |t| format!("{:.2}", t.as_secs_f64() / best.as_secs_f64()),
            );
            println!(
                "| {name} @ {minsup}% | {density:.3} | {s_over_d:.2} | {l1} | {frequent} | {} | {} | {} | {} | {} | {regret} |",
                fmt_time(times[0], cap),
                fmt_time(times[1], cap),
                fmt_time(times[2], cap),
                fastest.label(),
                auto.label(),
            );
        }
    }
}
