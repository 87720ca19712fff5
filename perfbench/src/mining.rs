//! The mining part of a run: an analyst's `mine(Method::Auto)` followed
//! by `RuleGenerator::generate`, over a grid of support thresholds on
//! the workload's Quest database (sparse or dense baskets).

use crate::util::{calm_median, median, ms, secs, thread_cpu, HostTicks, Report, Rng, Tracer};
use crate::Args;
use dm_core::assoc::{
    mine, FrequentItemsets, Method, MinSupport, MiningResult, Rule, RuleGenerator,
};
use dm_core::dataset::{TransactionDb, VerticalDb};
use dm_core::synth::{QuestConfig, QuestGenerator};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Confidence threshold of every rule pass.
const MIN_CONFIDENCE: f64 = 0.5;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 5;
/// The concrete miners Auto chooses between.
const MINERS: [Method; 3] = [Method::Apriori, Method::FpGrowth, Method::Eclat];

pub struct Grid {
    /// Quest shape: `(avg_txn_len, avg_pattern_len, n_transactions)`.
    shape: (f64, f64, usize),
    minsups: &'static [f64],
}

pub const SPARSE: Grid = Grid {
    shape: (10.0, 4.0, 20_000),
    minsups: &[0.03, 0.015, 0.01],
};

pub const DENSE: Grid = Grid {
    shape: (20.0, 6.0, 10_000),
    minsups: &[0.01, 0.005],
};

fn cell_label(minsup: f64) -> String {
    format!("minsup={minsup}")
}

/// The result of one cell of one pass, kept until the pass's clock has
/// stopped so that freeing it is not timed.
struct CellOut {
    mined: MiningResult,
    rules: Vec<Rule>,
}

/// Seed of the Quest draw behind both mining databases.
const DB_SEED: u64 = 202;

/// The database: one fixed Quest sample, its item ids relabelled by a
/// permutation drawn from `seed` and its transactions shuffled.
///
/// A fresh sample per seed would change how much work a threshold
/// means: at 0.5% on T20.I6.D10K five samples gave 0.60M to 1.19M
/// rules. Relabelling keeps the itemset structure, so the work, while
/// every item id and position the program sees changes with the seed.
pub fn generate_db(grid: &Grid, seed: u64) -> Result<TransactionDb, String> {
    let (t, i, d) = grid.shape;
    let config = QuestConfig::standard(t, i, d);
    let n_items = config.n_items;
    let base = QuestGenerator::new(config, crate::PATTERN_SEED)
        .map_err(|e| e.to_string())?
        .generate(DB_SEED);
    let mut rng = Rng::new(seed);
    let mut label: Vec<u32> = (0..n_items).collect();
    rng.shuffle(&mut label);
    let mut raw: Vec<Vec<u32>> = base
        .iter()
        .map(|txn| txn.iter().map(|&item| label[item as usize]).collect())
        .collect();
    rng.shuffle(&mut raw);
    TransactionDb::with_universe(raw, n_items).map_err(|e| e.to_string())
}

/// One pass over the grid: mine with Auto, then rules, per cell.
fn pass(db: &TransactionDb, grid: &Grid, tracer: &Tracer) -> Result<Vec<CellOut>, String> {
    let obs = tracer.obs();
    let _pass = obs.span("pass");
    let mut out = Vec::with_capacity(grid.minsups.len());
    for &s in grid.minsups {
        let _cell = obs.span_fmt(format_args!("cell[{}]", cell_label(s)));
        let minsup = MinSupport::Fraction(s);
        if tracer.on() {
            let _span = obs.span("assoc.resolve");
            black_box(
                Method::Auto
                    .resolve(db, minsup)
                    .map_err(|e| e.to_string())?,
            );
        }
        let mined = {
            let _span = obs.span("assoc.mine");
            mine(db, minsup, Method::Auto).map_err(|e| e.to_string())?
        };
        let rules = {
            let _span = obs.span("assoc.rules");
            RuleGenerator::new(MIN_CONFIDENCE)
                .generate(&mined.itemsets)
                .map_err(|e| e.to_string())?
        };
        out.push(CellOut { mined, rules });
    }
    Ok(out)
}

/// Every rule's support and confidence recomputed from the itemset
/// support counts, no rule emitted twice, and as many rules as
/// [`expected_rules`] enumerates, so the rules emitted are exactly the
/// rules that exist; `None` when all hold, else the first fault.
fn check_rules(cell: &CellOut) -> Option<String> {
    let sets = &cell.mined.itemsets;
    let n = sets.n_transactions() as f64;
    for rule in &cell.rules {
        if rule.antecedent.is_empty() || rule.consequent.is_empty() {
            return Some(format!("rule {rule} has an empty side"));
        }
        let mut union = rule.antecedent.clone();
        union.extend_from_slice(&rule.consequent);
        union.sort_unstable();
        if union.windows(2).any(|w| w[0] == w[1]) {
            return Some(format!("rule {rule}: its sides overlap"));
        }
        let (Some(both), Some(ante)) = (
            sets.support_count(&union),
            sets.support_count(&rule.antecedent),
        ) else {
            return Some(format!("rule {rule} names an infrequent itemset"));
        };
        let confidence = both as f64 / ante as f64;
        let support = both as f64 / n;
        if (confidence - rule.confidence).abs() > 1e-12
            || (support - rule.support).abs() > 1e-12
            || confidence < MIN_CONFIDENCE
        {
            return Some(format!("rule {rule}: recomputed confidence {confidence}"));
        }
    }
    let mut sides: Vec<(&[u32], &[u32])> = cell
        .rules
        .iter()
        .map(|r| (r.antecedent.as_slice(), r.consequent.as_slice()))
        .collect();
    sides.sort_unstable();
    if let Some(w) = sides.windows(2).find(|w| w[0] == w[1]) {
        return Some(format!("rule {:?} => {:?} emitted twice", w[0].0, w[0].1));
    }
    let expected = expected_rules(sets);
    if cell.rules.len() != expected {
        return Some(format!(
            "{} rules emitted, {expected} meet the confidence bar",
            cell.rules.len()
        ));
    }
    None
}

/// The number of rules at [`MIN_CONFIDENCE`], enumerated without
/// `RuleGenerator`: every non-empty proper subset of every frequent
/// itemset as antecedent, the rest as consequent.
fn expected_rules(sets: &FrequentItemsets) -> usize {
    let mut count = 0;
    let mut antecedent = Vec::new();
    for (items, both) in sets.iter().filter(|(items, _)| items.len() >= 2) {
        for mask in 1..(1u64 << items.len()) - 1 {
            antecedent.clear();
            antecedent.extend(
                items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &item)| item),
            );
            // A missing subset breaks downward closure: no rule counts,
            // so the emitted count cannot match.
            if let Some(ante) = sets.support_count(&antecedent) {
                if both as f64 / ante as f64 >= MIN_CONFIDENCE {
                    count += 1;
                }
            }
        }
    }
    count
}

/// The concrete miner Auto's output is checked against.
fn second_miner(picked: Method) -> Method {
    if picked == Method::Apriori {
        Method::FpGrowth
    } else {
        Method::Apriori
    }
}

/// Checks the grid's output, then makes timed passes for `args.seconds`.
pub fn run(
    args: &Args,
    grid: &Grid,
    db: &TransactionDb,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let obs = tracer.obs();

    // -- reference pass (warms caches) and its output checks -------------
    let reference = pass(db, grid, &Tracer::new(false))?;
    for (cell, &s) in reference.iter().zip(grid.minsups) {
        let minsup = MinSupport::Fraction(s);
        let picked = Method::Auto
            .resolve(db, minsup)
            .map_err(|e| e.to_string())?;
        let other = mine(db, minsup, second_miner(picked)).map_err(|e| e.to_string())?;
        let same = other.itemsets == cell.mined.itemsets;
        if !same {
            report.problem(format!(
                "{}: Auto ({}) and {} disagree",
                cell_label(s),
                picked.label(),
                second_miner(picked).label()
            ));
        }
        let bad_rule = check_rules(cell);
        if let Some(why) = &bad_rule {
            report.problem(format!("{}: {why}", cell_label(s)));
        }
        report.op(same && bad_rule.is_none());
    }

    // -- timed passes -----------------------------------------------------
    // Traced runs alternate traced and untraced passes, so the cost of
    // tracing shows against the same code in the same process.
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced = Tracer::new(false);
    // Each pass: (host steal share, wall s, thread CPU s), traced ones
    // without the CPU time.
    let (mut passes, mut traced_walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        let traced_pass = tracer.on() && traced_walls.len() <= passes.len();
        let t = if traced_pass { &tracer } else { &untraced };
        let host0 = HostTicks::now();
        let cpu0 = thread_cpu();
        let t0 = Instant::now();
        let out = pass(db, grid, t)?;
        let wall = secs(t0.elapsed());
        let cpu = secs(thread_cpu() - cpu0);
        let steal = HostTicks::now().since(host0).steal_share();
        if traced_pass {
            traced_walls.push((steal, wall));
        } else {
            passes.push((steal, wall, cpu));
        }
        for ((cell, reference), &s) in out.iter().zip(&reference).zip(grid.minsups) {
            let same =
                cell.mined.itemsets == reference.mined.itemsets && cell.rules == reference.rules;
            if !same {
                report.problem(format!(
                    "{}: a pass differs from the checked pass",
                    cell_label(s)
                ));
            }
            report.op(same);
        }
        drop(out);
        let enough =
            passes.len() >= MIN_PASSES && (!tracer.on() || traced_walls.len() >= MIN_PASSES);
        if started.elapsed() >= budget && enough {
            break;
        }
    }

    // Pass times are medians over the calmer half of the passes: the
    // ones in which the host took the least CPU time.
    let calm = passes.len().div_ceil(2);
    let mine_s = calm_median(&passes, calm, |p| p.0, |p| p.1);
    if !tracer.on() {
        report.metric("mine_s", mine_s, "s");
        report.metric(
            "mine_cpu_s",
            calm_median(&passes, calm, |p| p.0, |p| p.2),
            "s",
        );
        return Ok(());
    }

    // -- traced-only probes ----------------------------------------------
    {
        let _span = obs.span("dataset.vertical");
        for _ in 0..3 {
            black_box(VerticalDb::from_db(db));
        }
    }
    // Auto and every concrete miner on every cell, each timed alone the
    // same way: median of up to three runs.
    let mut table = Vec::new();
    let (mut candidates, mut frequent) = (0usize, 0usize);
    for &s in grid.minsups {
        let minsup = MinSupport::Fraction(s);
        let picked = Method::Auto
            .resolve(db, minsup)
            .map_err(|e| e.to_string())?;
        let mut per_method = Vec::new();
        for method in [Method::Auto].iter().chain(&MINERS) {
            let mut times = Vec::new();
            let t_cell = Instant::now();
            while times.len() < 3 && (times.is_empty() || t_cell.elapsed() < Duration::from_secs(1))
            {
                let _span = obs.span_fmt(format_args!("assoc.mine.{}", method.label()));
                let t0 = Instant::now();
                let mined = black_box(mine(db, minsup, *method).map_err(|e| e.to_string())?);
                times.push(ms(t0.elapsed()));
                if *method == Method::Apriori && times.len() == 1 {
                    candidates += mined.stats.total_candidates();
                    frequent += mined.stats.total_frequent();
                }
            }
            per_method.push(median(&times));
        }
        table.push((s, picked, per_method));
    }

    let st = tracer.self_time();
    let passes = st.count("pass").max(1) as f64;
    report.metric(
        "dataset.vertical_ms",
        ms(st.mean("dataset.vertical")) / 3.0,
        "ms",
    );
    for method in MINERS {
        let cells = table.iter().filter(|(_, p, _)| *p == method).count();
        report.metric(
            format!("assoc.auto.{}", method.label()),
            cells as f64,
            "count",
        );
    }
    let (mut auto_total, mut best_total) = (0.0, 0.0);
    let mut artifact =
        String::from("cell\tpick\tauto_ms\tapriori_ms\tfp-growth_ms\teclat_ms\tfastest\n");
    for (s, picked, per_method) in &table {
        let (fastest, best) = MINERS
            .iter()
            .zip(&per_method[1..])
            .min_by(|a, b| a.1.total_cmp(b.1))
            .ok_or("no miner ran")?;
        auto_total += per_method[0];
        best_total += best;
        let _ = writeln!(
            artifact,
            "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}",
            cell_label(*s),
            picked.label(),
            per_method[0],
            per_method[1],
            per_method[2],
            per_method[3],
            fastest.label()
        );
    }
    report.metric("assoc.auto_regret", auto_total / best_total, "ratio");
    report.metric("assoc.auto_mine_ms", auto_total, "ms");
    for (i, method) in MINERS.iter().enumerate() {
        let total: f64 = table.iter().map(|(_, _, per)| per[i + 1]).sum();
        report.metric(format!("assoc.mine_ms.{}", method.label()), total, "ms");
    }
    // Candidate counts are Apriori's: the other miners generate none.
    report.metric("assoc.candidates", candidates as f64, "count");
    report.metric("assoc.frequent", frequent as f64, "count");
    report.metric(
        "assoc.candidate_yield",
        frequent as f64 / (candidates.max(1)) as f64,
        "ratio",
    );
    report.metric("assoc.rules_ms", ms(st.total("assoc.rules")) / passes, "ms");
    let rules: usize = reference.iter().map(|c| c.rules.len()).sum();
    report.metric("assoc.rules", rules as f64, "count");
    let expected: usize = reference
        .iter()
        .map(|c| expected_rules(&c.mined.itemsets))
        .sum();
    report.metric(
        "assoc.rules_recall",
        rules as f64 / expected.max(1) as f64,
        "ratio",
    );
    report.metric(
        "trace.overhead_share",
        calm_median(
            &traced_walls,
            traced_walls.len().div_ceil(2),
            |p| p.0,
            |p| p.1,
        ) / mine_s
            - 1.0,
        "ratio",
    );

    crate::write_artifact(args, "auto_table.tsv", &artifact)?;
    crate::write_artifact(args, "spans-mine.folded", &tracer.folded())?;
    eprint!("{artifact}");
    Ok(())
}
