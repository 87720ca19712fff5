//! The serving parts of a run. `open`: seeded open-loop traffic against
//! a `dm-serve` server (two workers, an `InMemoryRecorder` attached) at a
//! `low` and a `high` rate. `refresh`: `low` traffic beside a paced
//! writer that streams baskets into `StreamFrequent` and republishes the
//! served rules.

use crate::loadgen::{run_phase, Answer, Phase};
use crate::util::{
    calm_median, median, ms, quantile, secs, thread_cpu, HostTicks, Report, Rng, Tracer,
};
use crate::Args;
use dm_core::assoc::{mine, Method, MinSupport, Rule, RuleGenerator};
use dm_core::bayes::NaiveBayes;
use dm_core::cluster::KMeans;
use dm_core::dataset::{Column, Dataset, Labels, TransactionDb};
use dm_core::guard::{Guard, RunStatus};
use dm_core::knn::Knn;
use dm_core::obs::{Histogram, InMemoryRecorder};
use dm_core::stream::{StreamEngine, StreamFrequent};
use dm_core::synth::{GaussianMixture, QuestConfig, QuestGenerator, TxnStream};
use dm_core::tree::{BaggedTrees, DecisionTreeLearner};
use dm_serve::{
    ModelKind, ModelSet, Reply, Request, RequestMix, ServeConfig, ServeError, Server, Tier,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests in the seeded stream; phases walk it in order.
const POOL: usize = 8192;
/// The `low` rate: requests hardly queue.
const LOW_QPS: f64 = 4000.0;
/// The `high` rate. At two thirds of the capacity the ladder found
/// (26k req/s on 2 CPUs) the load generator itself fell behind, so
/// `high` sits lower, where its stamps stay valid.
const HIGH_QPS: f64 = 16000.0;
/// Low and high phases alternate this many times; each figure comes
/// from the rounds in which the host of the virtual machine took the
/// least CPU time (steal).
const ROUNDS: usize = 9;
const CALM_ROUNDS: usize = 5;
/// The rates above `high` that `max_ok_qps` is searched over.
const LADDER: [f64; 10] = [
    18400.0, 21200.0, 24300.0, 28000.0, 32200.0, 37000.0, 42600.0, 49000.0, 56300.0, 64700.0,
];
/// A rate meets the limit when its p90 latency is at most this.
const LIMIT_MS: f64 = 1.0;
/// A serving run is invalid when the generator's median lateness or the
/// mean answer-stamp bias exceeds these.
const LATE_BOUND_MS: f64 = 0.5;
const BIAS_BOUND_MS: f64 = 0.25;
/// Rows per request are uniform in `1..=MAX_ROWS`.
const MAX_ROWS: usize = 8;
const RECOMMEND_K: usize = 5;
/// The writer of the refresh part: baskets per second, the sliding
/// window, and how many inserts make one published batch.
const INSERT_QPS: f64 = 2000.0;
const WINDOW: usize = 2000;
const BATCH: usize = 100;
const STREAM_MINSUP: usize = WINDOW / 100;
const MIN_CONFIDENCE: f64 = 0.5;

/// The six endpoints measured separately.
const ENDPOINTS: [&str; 6] = [
    "knn",
    "tree",
    "ensemble",
    "naive_bayes",
    "score",
    "recommend",
];
/// The predict endpoints that could be served in batches.
const BATCHABLE: [&str; 3] = ["knn", "tree", "naive_bayes"];

/// What the serving parts start from.
pub struct Fixture {
    models: ModelSet,
    pool: Vec<Request>,
    /// The refresh stream (baskets of the same generator as the served
    /// rules) and the engine that has absorbed its first window.
    baskets: Baskets,
    engine: StreamFrequent,
}

/// Seed of the refresh stream's baskets; see [`Baskets`].
const STREAM_SEED: u64 = 11;

/// The refresh stream: one fixed Quest basket stream whose item ids are
/// relabelled by a permutation drawn from the seed, as the mined
/// databases are. Baskets drawn from the seed itself made the work of a
/// publish depend on it: the window's rules ranged from 23 to 5760 along
/// one stream, so which stretch a seed drew moved the median publish
/// more than twofold.
struct Baskets {
    stream: TxnStream,
    label: Vec<u32>,
}

impl Baskets {
    fn new(quest: QuestGenerator, seed: u64) -> Self {
        let stream = TxnStream::new(quest, STREAM_SEED);
        let mut label: Vec<u32> = (0..stream.n_items()).collect();
        Rng::new(seed).shuffle(&mut label);
        Self { stream, label }
    }
}

impl Iterator for Baskets {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let mut txn: Vec<u32> = self
            .stream
            .next()?
            .into_iter()
            .map(|item| self.label[item as usize])
            .collect();
        txn.sort_unstable();
        Some(txn)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seed of the training data. The fitted models are part of the
/// workload's definition, so every seed fits the same models (and
/// set-up does the same work); `--seed` draws the traffic.
const TRAIN_SEED: u64 = 7;

/// Data generation, every model fit, the request stream drawn from
/// `seed`, and the refresh stream's first window.
pub fn setup(seed: u64, tracer: &Tracer) -> Result<Fixture, String> {
    let obs = tracer.obs();
    let mut rng = Rng::new(TRAIN_SEED);
    let mut traffic = Rng::new(seed);
    let mixture = GaussianMixture::well_separated(4, 4, 1500, 3.0).map_err(err)?;
    let (points, raw_labels, queries) = {
        let _span = obs.span("synth.gaussian.generate");
        let (points, raw_labels) = mixture.generate(rng.fork());
        let (queries, _) = mixture.generate(traffic.fork());
        (points, raw_labels, queries)
    };
    let schema: Vec<String> = (0..points.cols()).map(|c| format!("x{c}")).collect();
    let columns = schema
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let values = (0..points.rows()).map(|r| points.row(r)[c]).collect();
            (name.clone(), Column::from_numeric(values))
        })
        .collect();
    let dataset = Dataset::from_columns("perfbench", columns).map_err(err)?;
    let labels = Labels::from_strs(raw_labels.iter().map(|c| format!("c{c}")));
    let fit_seed = rng.fork();
    let tree = {
        let _span = obs.span("tree.fit");
        DecisionTreeLearner::new()
            .fit(&dataset, &labels)
            .map_err(err)?
    };
    let ensemble = {
        let _span = obs.span("tree.ensemble_fit");
        BaggedTrees::new(10)
            .with_seed(fit_seed)
            .fit(&dataset, &labels)
            .map_err(err)?
    };
    let nb = {
        let _span = obs.span("bayes.fit");
        NaiveBayes::new().fit(&dataset, &labels).map_err(err)?
    };
    let knn = {
        let _span = obs.span("knn.fit");
        Knn::new(5).fit(&points, &raw_labels).map_err(err)?
    };
    let kmeans = {
        let _span = obs.span("cluster.kmeans_fit");
        KMeans::new(8)
            .with_seed(fit_seed)
            .fit_model(&points)
            .map_err(err)?
    };
    let quest = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 5000), crate::PATTERN_SEED)
        .map_err(err)?;
    let db = {
        let _span = obs.span("synth.quest.generate");
        quest.generate(rng.fork())
    };
    let (rules, singletons) = mine_rules(&db, MinSupport::Fraction(0.01), tracer)?;
    let models = ModelSet::new(schema)
        .with_default_class(labels.majority().unwrap_or(0))
        .with_tree(tree)
        .with_ensemble(ensemble)
        .with_naive_bayes(nb)
        .with_knn(knn)
        .with_kmeans(kmeans)
        .with_rules(rules, singletons);

    let mut baskets = TxnStream::new(quest.clone(), traffic.fork());
    // The endpoint weights are the repository's own request mix
    // (`dm_serve::RequestMix::default()`), predicts split evenly over
    // the four model kinds.
    let mix = RequestMix::default();
    let kinds = [
        ModelKind::Knn,
        ModelKind::Tree,
        ModelKind::Ensemble,
        ModelKind::NaiveBayes,
    ];
    let total = (mix.predict + mix.score + mix.recommend) as usize;
    let mut pool = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let pick = traffic.below(total);
        let n_rows = 1 + traffic.below(MAX_ROWS);
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| queries.row(traffic.below(queries.rows())).to_vec())
            .collect();
        pool.push(if pick < mix.predict as usize {
            Request::Predict {
                model: kinds[traffic.below(kinds.len())],
                rows,
            }
        } else if pick < (mix.predict + mix.score) as usize {
            Request::Score { rows }
        } else {
            Request::Recommend {
                basket: baskets.next().unwrap_or_default(),
                k: RECOMMEND_K,
            }
        });
    }
    let mut baskets = Baskets::new(quest, seed ^ 0x2EF2);
    let n_items = baskets.stream.n_items();
    let mut engine = StreamFrequent::new(n_items, STREAM_MINSUP, Some(WINDOW)).map_err(err)?;
    for txn in baskets.by_ref().take(WINDOW) {
        engine.insert(&txn);
    }
    Ok(Fixture {
        models,
        pool,
        baskets,
        engine,
    })
}

/// Served rules plus the top-support singletons of the degraded tier.
type RuleSet = (Vec<Rule>, Vec<(u32, usize)>);

/// Rules at [`MIN_CONFIDENCE`] plus the top-support singletons, from a
/// batch `mine(Method::Auto)`.
fn mine_rules(db: &TransactionDb, minsup: MinSupport, tracer: &Tracer) -> Result<RuleSet, String> {
    let obs = tracer.obs();
    let mined = {
        let _span = obs.span("assoc.mine");
        mine(db, minsup, Method::Auto).map_err(err)?
    };
    let rules = {
        let _span = obs.span("assoc.rules");
        RuleGenerator::new(MIN_CONFIDENCE)
            .generate(&mined.itemsets)
            .map_err(err)?
    };
    Ok((rules, mined.itemsets.singletons_by_support()))
}

fn endpoint(request: &Request) -> &'static str {
    match request {
        Request::Predict { model, .. } => model.label(),
        Request::Score { .. } => "score",
        Request::Recommend { .. } => "recommend",
    }
}

fn single_row(request: &Request) -> bool {
    matches!(request, Request::Predict { rows, .. } if rows.len() == 1)
}

/// The handler a worker would run, called directly.
fn direct(
    models: &ModelSet,
    request: &Request,
    guard: &Guard,
) -> Result<(Reply, Tier), ServeError> {
    match request {
        Request::Predict { model, rows } => models.predict(*model, rows, guard),
        Request::Score { rows } => models.score(rows, guard),
        Request::Recommend { basket, k } => models.recommend(basket, *k, guard),
    }
}

/// How one answer went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Complete, full tier, and equal to the direct handler's answer.
    Served,
    Shed,
    Timeout,
    Degraded,
    Mismatch,
    Error,
}

/// One verdict per answer of a phase, in send order.
struct Checked {
    verdicts: Vec<Verdict>,
}

impl Checked {
    /// `matches` says whether a reply is one the direct handler could
    /// have given to that answer's request.
    fn new(phase: &Phase, mut matches: impl FnMut(&Answer, &Reply) -> bool) -> Self {
        let verdicts = phase
            .answers
            .iter()
            .map(|a| match &a.result {
                Ok(resp) if resp.status != RunStatus::Complete || resp.tier != Tier::Full => {
                    Verdict::Degraded
                }
                Ok(resp) if matches(a, &resp.reply) => Verdict::Served,
                Ok(_) => Verdict::Mismatch,
                Err(ServeError::Overloaded { .. } | ServeError::ShuttingDown) => Verdict::Shed,
                Err(ServeError::ResponseTimeout) => Verdict::Timeout,
                Err(_) => Verdict::Error,
            })
            .collect();
        Self { verdicts }
    }

    fn count(&self, v: Verdict) -> usize {
        self.verdicts.iter().filter(|&&x| x == v).count()
    }

    fn latency_ms(&self, phase: &Phase, q: f64) -> f64 {
        phase.latency_ms(q, |a| self.verdicts[a.seq] == Verdict::Served)
    }

    /// Served and within the latency limit.
    fn ok(&self, phase: &Phase) -> usize {
        phase
            .answers
            .iter()
            .filter(|a| self.verdicts[a.seq] == Verdict::Served && ms(a.latency) <= LIMIT_MS)
            .count()
    }

    /// The rate meets the limit: p90 within it, nothing failed, and no
    /// backlog left growing at the end (the last tenth of the requests
    /// still has a median within the limit).
    fn meets_limit(&self, phase: &Phase) -> bool {
        let n = phase.answers.len();
        let tail: Vec<f64> = phase.answers[n - n / 10..]
            .iter()
            .map(|a| match self.verdicts[a.seq] {
                Verdict::Served => ms(a.latency),
                _ => f64::INFINITY,
            })
            .collect();
        n > 0
            && self.count(Verdict::Served) == n
            && self.latency_ms(phase, 0.9) <= LIMIT_MS
            && median(&tail) <= LIMIT_MS
    }

    /// Counts every answer of a measured phase as one operation, failed
    /// when the answer is wrong or the call failed. A shed, a degraded
    /// answer past its deadline or a timeout is how the server answers
    /// overload: on a virtual machine whose host stalls it for 100 ms and
    /// more it happens at any rate, so it counts as a miss in `ok_share`
    /// and in the `serve.*` counters, not as a failed operation.
    fn record(&self, report: &mut Report) {
        for v in &self.verdicts {
            report.op(!matches!(v, Verdict::Mismatch | Verdict::Error));
        }
        for (v, what) in [
            (Verdict::Mismatch, "answers differ from the direct handler"),
            (Verdict::Error, "requests failed with an unexpected error"),
        ] {
            let n = self.count(v);
            if n > 0 {
                report.problem(format!("{n} {what}"));
            }
        }
    }
}

/// Direct-handler answers for the pool, computed on first use.
struct Expected<'a> {
    models: &'a ModelSet,
    pool: &'a [Request],
    replies: Vec<Option<Option<Reply>>>,
}

impl<'a> Expected<'a> {
    fn new(models: &'a ModelSet, pool: &'a [Request]) -> Self {
        Self {
            models,
            pool,
            replies: vec![None; pool.len()],
        }
    }

    fn reply(&mut self, idx: usize) -> Option<&Reply> {
        let (models, pool) = (self.models, self.pool);
        self.replies[idx]
            .get_or_insert_with(|| {
                direct(models, &pool[idx], &Guard::unlimited())
                    .ok()
                    .map(|(reply, _)| reply)
            })
            .as_ref()
    }
}

fn check_static(phase: &Phase, expected: &mut Expected<'_>) -> Checked {
    Checked::new(phase, |a, reply| expected.reply(a.pool_idx) == Some(reply))
}

/// Marks the run invalid when the load generator itself was off.
fn check_load(phases: &[&Phase], report: &mut Report) -> (f64, f64) {
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.answers.iter().map(|a| ms(a.late)))
        .collect();
    let n: usize = phases.iter().map(|p| p.answers.len()).sum();
    let bias: f64 = phases
        .iter()
        .flat_map(|p| p.answers.iter().map(|a| ms(a.bias)))
        .sum::<f64>()
        / n.max(1) as f64;
    let late_p50 = median(&late);
    if late_p50 > LATE_BOUND_MS {
        report.invalid(format!(
            "generator lateness p50 {late_p50:.3} ms exceeds {LATE_BOUND_MS} ms"
        ));
    }
    if bias > BIAS_BOUND_MS {
        report.invalid(format!(
            "answer stamp bias {bias:.3} ms exceeds {BIAS_BOUND_MS} ms"
        ));
    }
    (late_p50, quantile(&late, 0.99))
}

/// Per-layer figures of a traced set-up: data generation (the mined
/// database too) and every model fit, per set-up.
pub fn setup_metrics(tracer: &Tracer, report: &mut Report) {
    let st = tracer.self_time();
    let reps = crate::SETUP_REPS as f64;
    report.metric(
        "synth.gen_s",
        secs(st.total("synth.gaussian.generate") + st.total("synth.quest.generate")) / reps,
        "s",
    );
    for (metric, span) in [
        ("tree.fit_ms", "tree.fit"),
        ("tree.ensemble_fit_ms", "tree.ensemble_fit"),
        ("bayes.fit_ms", "bayes.fit"),
        ("knn.fit_ms", "knn.fit"),
        ("cluster.kmeans_fit_ms", "cluster.kmeans_fit"),
    ] {
        report.metric(metric, ms(st.mean(span)), "ms");
    }
}

/// The ways an answer can miss, counted by [`failures`].
const MISSES: [(&str, Verdict); 4] = [
    ("serve.shed", Verdict::Shed),
    ("serve.degraded", Verdict::Degraded),
    ("serve.timeouts", Verdict::Timeout),
    ("serve.mismatch", Verdict::Mismatch),
];

fn failures(checked: &[&Checked]) -> [usize; 4] {
    MISSES.map(|(_, v)| checked.iter().map(|c| c.count(v)).sum())
}

/// Both serving parts, each on its own time budget, on one fixture.
pub fn run(
    open: &Args,
    refresh: &Args,
    fixture: Fixture,
    report: &mut Report,
) -> Result<(), String> {
    let missed_open = run_open(open, &fixture, report)?;
    let missed_refresh = run_refresh(refresh, fixture, report)?;
    for (i, (name, _)) in MISSES.iter().enumerate() {
        let (o, r) = (missed_open[i], missed_refresh[i]);
        eprintln!("{name:<32} open {o} refresh {r}");
        if open.trace {
            report.metric(*name, (o + r) as f64, "count");
        }
    }
    Ok(())
}

fn phase_seconds(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

/// Open-loop traffic; returns the misses of its measured phases.
fn run_open(args: &Args, fixture: &Fixture, report: &mut Report) -> Result<[usize; 4], String> {
    let tracer = Tracer::new(args.trace);
    let (models, pool) = (&fixture.models, &fixture.pool[..]);
    let mut seeds = Rng::new(args.seed ^ 0x5E7E);
    let untraced = Tracer::new(false);
    // Each phase gets a fresh server, so its recorder holds that phase
    // alone.
    let phase = |rate: f64, share: f64, start: usize, seed: u64, t: &Tracer| {
        let (server, recorder) = start_server(models);
        let p = run_phase(
            &server,
            pool,
            start,
            rate,
            phase_seconds(args, share),
            seed,
            t,
        );
        server.shutdown();
        (p, recorder.snapshot())
    };
    // Warm-up: caches, lazy state, thread start-up.
    drop(phase(LOW_QPS, 0.05, 0, seeds.fork(), &untraced));
    let mut expected = Expected::new(models, pool);

    // Alternate short low and high phases, each on fresh threads, so that
    // neither rate's figures hang on one placement of threads on CPUs or
    // one stretch of machine time. Each figure is the median over the
    // calmest rounds of that round's value, so a stretch in which the
    // host takes CPU time away spoils few of them.
    let share = if tracer.on() { 0.2 } else { 0.9 } / ROUNDS as f64;
    let (mut lows, mut highs, mut snaps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut low_rounds, mut high_rounds) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let start = round * POOL / ROUNDS;
        let (low, _) = phase(LOW_QPS, share, start, seeds.fork(), &untraced);
        low_rounds.push(Round::of(&low, &check_static(&low, &mut expected)));
        lows.push(low);
        let (high, snap) = phase(HIGH_QPS, share, start + POOL / 2, seeds.fork(), &untraced);
        high_rounds.push(Round::of(&high, &check_static(&high, &mut expected)));
        highs.push(high);
        snaps.push(snap);
    }
    let (low, high) = (Phase::merge(lows), Phase::merge(highs));
    let low_c = check_static(&low, &mut expected);
    let high_c = check_static(&high, &mut expected);
    low_c.record(report);
    high_c.record(report);
    let (late_p50, late_p99) = check_load(&[&low, &high], report);
    let steal = HostTicks {
        total: low.host.total + high.host.total,
        steal: low.host.steal + high.host.steal,
    }
    .steal_share();

    // What a client sees. These are diagnostics, not end-to-end metrics:
    // on a virtual machine whose host takes CPU time away (steal), they
    // moved by several times from run to run; see `README.md`.
    let ok = Round::median(&low_rounds, |r| r.ok) + Round::median(&high_rounds, |r| r.ok);
    let client = [
        (
            "loadgen.p50_ms.low",
            Round::median(&low_rounds, |r| r.p50),
            "ms",
        ),
        (
            "loadgen.p90_ms.low",
            Round::median(&low_rounds, |r| r.p90),
            "ms",
        ),
        (
            "loadgen.p50_ms.high",
            Round::median(&high_rounds, |r| r.p50),
            "ms",
        ),
        (
            "loadgen.p90_ms.high",
            Round::median(&high_rounds, |r| r.p90),
            "ms",
        ),
        ("loadgen.ok_share", ok / 2.0, "ratio"),
        ("loadgen.steal_share", steal, "ratio"),
    ];
    if !tracer.on() {
        for (name, value, unit) in client {
            eprintln!("{name:<32} {value:>16.6} {unit}");
        }
        report.metric(
            "cpu_us_per_req",
            Round::median(&high_rounds, |r| r.cpu_us),
            "us",
        );
        return Ok(failures(&[&low_c, &high_c]));
    }
    for (name, value, unit) in client {
        report.metric(name, value, unit);
    }

    // -- traced run ---------------------------------------------------------
    let (traced_low, _) = phase(LOW_QPS, 0.2, 0, seeds.fork(), &tracer);
    let traced_c = check_static(&traced_low, &mut expected);
    traced_c.record(report);

    // The ladder: from `high` up, stop at the first rate that misses the
    // limit.
    let mut max_ok = [(&low, &low_c), (&high, &high_c)]
        .iter()
        .take_while(|(p, c)| c.meets_limit(p))
        .last()
        .map_or(0.0, |(p, _)| p.rate);
    if max_ok == HIGH_QPS {
        let rung_share = 0.3 / LADDER.len() as f64;
        for (i, &rate) in LADDER.iter().enumerate() {
            let (p, _) = phase(rate, rung_share, (i * 997) % POOL, seeds.fork(), &untraced);
            let c = check_static(&p, &mut expected);
            let mismatches = c.count(Verdict::Mismatch);
            if mismatches > 0 {
                report.problem(format!(
                    "{mismatches} ladder answers differ from the direct handler"
                ));
            }
            if !c.meets_limit(&p) {
                break;
            }
            max_ok = rate;
        }
    }

    // Direct handler calls on the same request stream, per endpoint.
    let obs = tracer.obs();
    let mut single_exec: Vec<(&str, f64)> = Vec::new();
    for request in pool {
        let label = endpoint(request);
        let _span = obs.span_fmt(format_args!("serve.exec.{label}"));
        let t0 = Instant::now();
        black_box(direct(models, request, &Guard::unlimited()).map_err(err)?);
        if single_row(request) {
            single_exec.push((label, ms(t0.elapsed())));
        }
    }
    // The same handlers with and without a recorder on the guard.
    let recorder = Arc::new(InMemoryRecorder::new());
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for with_recorder in [false, true] {
            let t0 = Instant::now();
            for request in pool {
                let guard = if with_recorder {
                    Guard::unlimited().with_recorder(recorder.clone())
                } else {
                    Guard::unlimited()
                };
                black_box(direct(models, request, &guard).map_err(err)?);
            }
            let took = secs(t0.elapsed());
            if with_recorder {
                &mut recorded
            } else {
                &mut plain
            }
            .push(took);
        }
    }

    // Dispatch share per batchable endpoint, from the untraced low phases.
    let mut artifact =
        String::from("endpoint\tsamples\tp50_ms\tlate_p50_ms\texec_p50_ms\tdispatch_share\n");
    let (mut over, mut exec_sum) = (0.0, 0.0);
    for label in BATCHABLE {
        let answers: Vec<&Answer> = low
            .answers
            .iter()
            .filter(|a| low_c.verdicts[a.seq] == Verdict::Served)
            .filter(|a| endpoint(&pool[a.pool_idx]) == label && single_row(&pool[a.pool_idx]))
            .collect();
        let p50 = median(&answers.iter().map(|a| ms(a.latency)).collect::<Vec<_>>());
        let late = median(&answers.iter().map(|a| ms(a.late)).collect::<Vec<_>>());
        let exec = median(
            &single_exec
                .iter()
                .filter(|(l, _)| *l == label)
                .map(|&(_, t)| t)
                .collect::<Vec<_>>(),
        );
        let share = (p50 - late - exec) / exec;
        over += p50 - late - exec;
        exec_sum += exec;
        let _ = writeln!(
            artifact,
            "{label}\t{}\t{p50:.4}\t{late:.4}\t{exec:.4}\t{share:.3}",
            answers.len()
        );
    }

    let st = tracer.self_time();
    report.metric("serve.submit_us", secs(st.mean("serve.submit")) * 1e6, "us");
    for label in ENDPOINTS {
        let name = format!("serve.exec.{label}");
        report.metric(
            format!("serve.exec_us.{label}"),
            secs(st.mean(&name)) * 1e6,
            "us",
        );
    }
    report.metric("serve.dispatch_share", over / exec_sum, "ratio");
    let mut wait = Histogram::new();
    for snap in &snaps {
        if let Some(h) = snap.histogram("serve.queue.wait_ns") {
            wait.merge(h);
        }
    }
    let wait_us = |q| wait.quantile(q).unwrap_or(0) as f64 / 1e3;
    report.metric("serve.queue_wait_us.p50", wait_us(0.5), "us");
    report.metric("serve.queue_wait_us.p90", wait_us(0.9), "us");
    let peak = snaps
        .iter()
        .filter_map(|s| s.gauge("serve.queue.depth_peak"))
        .fold(0.0, f64::max);
    report.metric("serve.queue_depth_peak", peak, "count");
    report.metric(
        "obs.recorder_overhead",
        median(&recorded) / median(&plain) - 1.0,
        "ratio",
    );
    report.metric("loadgen.late_ms.p50", late_p50, "ms");
    report.metric("loadgen.late_ms.p99", late_p99, "ms");
    let n = (low.answers.len() + high.answers.len()).max(1) as f64;
    report.metric(
        "loadgen.stamp_bias_ms",
        (low.bias_ms() * low.answers.len() as f64 + high.bias_ms() * high.answers.len() as f64) / n,
        "ms",
    );
    report.metric(
        "loadgen.p99_ms.low",
        Round::median(&low_rounds, |r| r.p99),
        "ms",
    );
    report.metric(
        "loadgen.p99_ms.high",
        Round::median(&high_rounds, |r| r.p99),
        "ms",
    );
    report.metric(
        "loadgen.p999_ms.high",
        Round::median(&high_rounds, |r| r.p999),
        "ms",
    );
    report.metric("loadgen.max_ok_qps", max_ok, "req/s");
    crate::write_artifact(args, "dispatch_share.tsv", &artifact)?;
    crate::write_artifact(args, "spans-open.folded", &tracer.folded())?;
    eprint!("{artifact}");
    Ok(failures(&[&low_c, &high_c]))
}

/// The figures of one round of one rate.
struct Round {
    /// Share of machine CPU time the host took during the round.
    steal: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
    /// Process CPU per served request.
    cpu_us: f64,
    /// Share of sent requests served within the latency limit.
    ok: f64,
}

impl Round {
    fn of(phase: &Phase, checked: &Checked) -> Self {
        let served = checked.count(Verdict::Served).max(1) as f64;
        Self {
            steal: phase.host.steal_share(),
            p50: checked.latency_ms(phase, 0.5),
            p90: checked.latency_ms(phase, 0.9),
            p99: checked.latency_ms(phase, 0.99),
            p999: checked.latency_ms(phase, 0.999),
            cpu_us: secs(phase.cpu) * 1e6 / served,
            ok: checked.ok(phase) as f64 / phase.answers.len().max(1) as f64,
        }
    }

    /// The median of one figure over the calmest rounds: the
    /// [`CALM_ROUNDS`] in which the host took the least CPU time.
    fn median(rounds: &[Round], figure: impl Fn(&Round) -> f64) -> f64 {
        calm_median(rounds, CALM_ROUNDS, |r| r.steal, figure)
    }
}

fn start_server(models: &ModelSet) -> (Server, Arc<InMemoryRecorder>) {
    let recorder = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(
        models.clone(),
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            default_deadline: None,
            trace: None,
        },
        recorder.clone(),
    );
    (server, recorder)
}

/// One published rule set: when its refresh began, when `models()`
/// first served it, and a bundle holding just its rules (all a
/// `Recommend` answer depends on).
struct Generation {
    began: Instant,
    served: Instant,
    rules: ModelSet,
}

#[derive(Default)]
struct WriterOut {
    /// When each batch went live, and how long after its last insert.
    publish_ms: Vec<(Instant, f64)>,
    /// The writer's CPU time for each publish.
    publish_cpu_ms: Vec<f64>,
    inserts: u64,
    work: u64,
    generations: Vec<Generation>,
}

/// The streaming writer: paced inserts, and after every [`BATCH`] of
/// them a query, rule generation and artifact refresh. Stops at a batch
/// boundary once `stop` is set, so the served rules always match the
/// window.
fn writer(
    engine: &mut StreamFrequent,
    baskets: &mut Baskets,
    server: &Server,
    stop: &AtomicBool,
    tracer: &Tracer,
    out: &mut WriterOut,
) -> Result<(), String> {
    let obs = tracer.obs();
    let t0 = Instant::now();
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let _batch = obs.span("publish");
        for _ in 0..BATCH / 10 {
            let due = t0 + Duration::from_secs_f64(n as f64 / INSERT_QPS);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let _span = obs.span("stream.insert");
            for txn in baskets.by_ref().take(10) {
                out.work += engine.insert(&txn);
                n += 1;
            }
        }
        let last_insert = Instant::now();
        let cpu0 = thread_cpu();
        let generation = publish(engine, server, tracer)?;
        out.publish_cpu_ms.push(ms(thread_cpu() - cpu0));
        out.publish_ms
            .push((generation.served, ms(generation.served - last_insert)));
        out.generations.push(generation);
    }
    out.inserts += n;
    Ok(())
}

/// Query, rules, refresh: the window's rules go live.
fn publish(
    engine: &StreamFrequent,
    server: &Server,
    tracer: &Tracer,
) -> Result<Generation, String> {
    let obs = tracer.obs();
    let itemsets = {
        let _span = obs.span("stream.query");
        engine.query()
    };
    let rules = {
        let _span = obs.span("assoc.rules");
        RuleGenerator::new(MIN_CONFIDENCE)
            .generate(&itemsets)
            .map_err(err)?
    };
    let singletons = itemsets.singletons_by_support();
    let began = Instant::now();
    {
        let _span = obs.span("serve.refresh");
        let (r, s) = (rules.clone(), singletons.clone());
        server.refresh_artifact(move |m| m.with_rules(r, s));
    }
    let live = server.models();
    let served = Instant::now();
    if live.rules() != rules.as_slice() {
        return Err("a refresh did not install its rules".into());
    }
    Ok(Generation {
        began,
        served,
        rules: ModelSet::new(Vec::new()).with_rules(rules, singletons),
    })
}

/// Checks a refresh phase: predicts and scores against the fitted
/// bundle, recommendations against every rule set that could have been
/// live while the request was in flight.
fn check_refresh(
    phase: &Phase,
    expected: &mut Expected<'_>,
    generations: &[Generation],
) -> Checked {
    let pool = expected.pool;
    Checked::new(phase, |a, reply| match &pool[a.pool_idx] {
        Request::Recommend { basket, k } => generations.iter().enumerate().any(|(g, gen)| {
            let live_until = generations.get(g + 1).map(|next| next.served);
            gen.began <= a.stamped
                && live_until.is_none_or(|end| end >= a.sent)
                && gen
                    .rules
                    .recommend(basket, *k, &Guard::unlimited())
                    .is_ok_and(|(r, _)| &r == reply)
        }),
        _ => expected.reply(a.pool_idx) == Some(reply),
    })
}

/// `low` traffic beside the streaming writer; returns the misses of its
/// measured session.
fn run_refresh(args: &Args, fixture: Fixture, report: &mut Report) -> Result<[usize; 4], String> {
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let Fixture {
        models,
        pool,
        mut baskets,
        mut engine,
    } = fixture;
    let (models, pool) = (&models, &pool[..]);
    let mut seeds = Rng::new(args.seed ^ 0x2EF3);

    let (server, _recorder) = start_server(models);
    let mut out = WriterOut::default();
    out.generations.push(publish(&engine, &server, &untraced)?);
    drop(run_phase(
        &server,
        pool,
        0,
        LOW_QPS,
        phase_seconds(args, 0.05),
        seeds.fork(),
        &untraced,
    ));

    // One session: `low` traffic while the writer streams and publishes.
    let mut session = |t: &Tracer, share: f64, start: usize, seed: u64, out: &mut WriterOut| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let w = scope.spawn(|| writer(&mut engine, &mut baskets, &server, &stop, t, out));
            let rounds: Vec<Phase> = (0..ROUNDS)
                .map(|r| {
                    let part = phase_seconds(args, share / ROUNDS as f64);
                    let first = start + r * POOL / ROUNDS;
                    run_phase(&server, pool, first, LOW_QPS, part, seed + r as u64, t)
                })
                .collect();
            stop.store(true, Ordering::SeqCst);
            let written = w.join().map_err(|_| "the writer panicked".to_string());
            written.and_then(|r| r).map(|()| rounds)
        })
    };
    // A traced run first runs a traced session, keeping what its writer
    // did (inserts, insert work) for the per-layer figures.
    let traced_low = if tracer.on() {
        let p = Phase::merge(session(&tracer, 0.45, POOL / 2, seeds.fork(), &mut out)?);
        Some((p, out.inserts, out.work))
    } else {
        None
    };
    let parts = session(
        &untraced,
        if tracer.on() { 0.45 } else { 0.9 },
        0,
        seeds.fork(),
        &mut out,
    )?;
    server.shutdown();

    let generations = &out.generations;
    let mut expected = Expected::new(models, pool);
    let low_rounds: Vec<Round> = parts
        .iter()
        .map(|p| Round::of(p, &check_refresh(p, &mut expected, generations)))
        .collect();
    // Publish time per round, so that it too comes from the calm rounds.
    let publish_rounds: Vec<(f64, f64)> = parts
        .iter()
        .map(|p| {
            let (from, to) = p.window;
            let times: Vec<f64> = out
                .publish_ms
                .iter()
                .filter(|(at, _)| (from..=to).contains(at))
                .map(|&(_, t)| t)
                .collect();
            (p.host.steal_share(), median(&times))
        })
        .filter(|(_, t)| t.is_finite())
        .collect();
    let low = Phase::merge(parts);

    // Checks: every answer, then the final served rules against a batch
    // mine over the final window.
    let checked = check_refresh(&low, &mut expected, generations);
    checked.record(report);
    let traced_checked = traced_low
        .as_ref()
        .map(|(p, ..)| check_refresh(p, &mut expected, generations));
    if let Some(c) = &traced_checked {
        c.record(report);
    }
    let window = TransactionDb::new(engine.snapshot().window);
    let (batch_rules, _) = mine_rules(&window, MinSupport::Count(STREAM_MINSUP), &untraced)?;
    let last = generations
        .last()
        .map(|g| g.rules.rules().to_vec())
        .unwrap_or_default();
    let same = last == batch_rules;
    if !same {
        report.problem("the final served rules differ from a batch mine over the final window");
    }
    report.op(same);
    check_load(&[&low], report);
    let steal = low.host.steal_share();

    // What a client sees is a diagnostic here too (see `run_open`), and so
    // is how long after its last insert a batch went live: that wall time
    // moved with the host's steal, while the writer's CPU time did not.
    let ok_share = Round::median(&low_rounds, |r| r.ok);
    let publish_ms = calm_median(&publish_rounds, CALM_ROUNDS, |r| r.0, |r| r.1);
    if !tracer.on() {
        eprintln!("{:<32} {ok_share:>16.6} ratio", "loadgen.ok_share.refresh");
        eprintln!("{:<32} {steal:>16.6} ratio", "loadgen.steal_share.refresh");
        eprintln!("{:<32} {publish_ms:>16.6} ms", "loadgen.publish_ms");
        report.metric("publish_cpu_ms", median(&out.publish_cpu_ms), "ms");
        return Ok(failures(&[&checked]));
    }
    report.metric("loadgen.ok_share.refresh", ok_share, "ratio");
    report.metric("loadgen.publish_ms", publish_ms, "ms");

    let (_, inserts, work) = traced_low.as_ref().ok_or("traced session missing")?;
    let st = tracer.self_time();
    let inserts = (*inserts).max(1) as f64;
    report.metric(
        "stream.insert_us",
        secs(st.total("stream.insert")) * 1e6 / inserts,
        "us",
    );
    report.metric("stream.work_per_txn", *work as f64 / inserts, "count");
    report.metric("stream.query_ms", ms(st.mean("stream.query")), "ms");
    let batches = st.count("publish").max(1) as f64;
    report.metric(
        "assoc.rules_ms.publish",
        ms(st.at("publish;assoc.rules")) / batches,
        "ms",
    );
    report.metric("serve.refresh_ms", ms(st.mean("serve.refresh")), "ms");
    report.metric(
        "loadgen.p50_ms.refresh",
        Round::median(&low_rounds, |r| r.p50),
        "ms",
    );
    report.metric(
        "loadgen.p90_ms.refresh",
        Round::median(&low_rounds, |r| r.p90),
        "ms",
    );
    crate::write_artifact(args, "spans-refresh.folded", &tracer.folded())?;
    Ok(failures(&[&checked]))
}
