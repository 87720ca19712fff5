//! Small shared pieces: the seeded RNG, order statistics, CPU clocks,
//! the metric report, and the span recorder of the traced run.

use dm_core::obs::export::folded_stacks;
use dm_core::obs::{InMemoryRecorder, Obs};
use std::collections::BTreeMap;
use std::ffi::{OsStr, OsString};
use std::os::raw::c_int;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// makes is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A derived seed for an independent sub-stream.
    pub fn fork(&mut self) -> u64 {
        self.next_u64()
    }
}

/// The `q`-quantile of `values` by the nearest-rank rule (`NaN` when
/// empty). Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// First field of a `schedstat` file: nanoseconds spent on a CPU.
fn schedstat_ns(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time of the calling thread, from `CLOCK_THREAD_CPUTIME_ID`: unlike
/// the thread's `schedstat`, which the kernel brings up to date only at
/// ticks and switches, it includes the running slice.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The calling thread's entry name under `/proc/self/task`.
pub fn thread_id() -> Option<OsString> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()
        .map(OsStr::to_os_string)
}

/// CPU time of every live thread of the process but `skip`, summed.
pub fn process_cpu(skip: Option<&OsStr>) -> Duration {
    let mut total = 0u64;
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for task in dir.flatten() {
            if skip.is_some_and(|tid| task.file_name() == tid) {
                continue;
            }
            let path = task.path().join("schedstat");
            if let Some(ns) = path.to_str().and_then(schedstat_ns) {
                total += ns;
            }
        }
    }
    Duration::from_nanos(total)
}

/// Machine-wide CPU ticks from `/proc/stat`: all of them, and those the
/// hypervisor gave to other guests while this one wanted to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub total: u64,
    pub steal: u64,
}

impl HostTicks {
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    /// Share of the machine's CPU time taken by the host.
    pub fn steal_share(self) -> f64 {
        self.steal as f64 / self.total.max(1) as f64
    }
}

/// The median of `figure` over the `keep` items in which the host took
/// the least CPU time (`steal`): a stretch in which the hypervisor runs
/// other guests then spoils few samples.
pub fn calm_median<T>(
    items: &[T],
    keep: usize,
    steal: impl Fn(&T) -> f64,
    figure: impl Fn(&T) -> f64,
) -> f64 {
    let mut calm: Vec<&T> = items.iter().collect();
    calm.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    calm.truncate(keep.max(1));
    median(&calm.into_iter().map(figure).collect::<Vec<_>>())
}

/// Runs `f` `reps` times and returns the last result with the median
/// wall time of the calmer half of the runs (see [`calm_median`]).
pub fn median_of<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Duration), String> {
    let mut runs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let host0 = HostTicks::now();
        let t0 = Instant::now();
        let out = f()?;
        runs.push((
            HostTicks::now().since(host0).steal_share(),
            secs(t0.elapsed()),
        ));
        // Freeing the previous result is not part of the timed work.
        last = Some(out);
    }
    let out = last.ok_or("no repetition ran")?;
    let took = calm_median(&runs, runs.len().div_ceil(2), |r| r.0, |r| r.1);
    Ok((out, Duration::from_secs_f64(took)))
}

/// What one run reports: the check verdict, the operation counts, and
/// the metrics in print order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when every check passed.
    pub problems: Vec<String>,
    /// Why the run's timings are not to be trusted (the load generator
    /// itself fell behind); the outputs may still be correct.
    pub invalid: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn invalid(&mut self, why: impl Into<String>) {
        self.invalid.push(why.into());
    }

    /// Counts one checked operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table, one metric per line, then the result
    /// object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<32} {value:>16.6} {unit}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("problem: {p}\n"));
        }
        for why in &self.invalid {
            out.push_str(&format!("invalid run: {why}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A JSON number with every digit `{:?}` gives; non-finite values
/// (which JSON cannot hold) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The traced run's span store: spans go into a `dm_obs`
/// [`InMemoryRecorder`] and self time comes from
/// [`folded_stacks`]. Untraced runs hold no recorder, so every span is
/// the no-op one.
pub struct Tracer {
    rec: Option<InMemoryRecorder>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            rec: on.then(InMemoryRecorder::new),
        }
    }

    pub fn on(&self) -> bool {
        self.rec.is_some()
    }

    pub fn obs(&self) -> Obs<'_> {
        match &self.rec {
            Some(rec) => Obs::new(rec),
            None => Obs::noop(),
        }
    }

    /// Folded stacks of everything recorded (empty when off).
    pub fn folded(&self) -> String {
        self.rec
            .as_ref()
            .map(|rec| folded_stacks(&rec.snapshot()))
            .unwrap_or_default()
    }

    /// Self time per span path (`outer;inner;leaf`), with the number of
    /// spans of each name.
    pub fn self_time(&self) -> SelfTime {
        let mut by_path: BTreeMap<String, Duration> = BTreeMap::new();
        for line in self.folded().lines() {
            if let Some((path, ns)) = line.rsplit_once(' ') {
                let ns: u64 = ns.parse().unwrap_or(0);
                *by_path.entry(path.to_owned()).or_default() += Duration::from_nanos(ns);
            }
        }
        let counts = self
            .rec
            .as_ref()
            .map(|rec| {
                rec.snapshot()
                    .spans
                    .into_iter()
                    .map(|(name, stat)| (name, stat.count))
                    .collect()
            })
            .unwrap_or_default();
        SelfTime { by_path, counts }
    }
}

pub struct SelfTime {
    by_path: BTreeMap<String, Duration>,
    counts: BTreeMap<String, u64>,
}

impl SelfTime {
    /// Total self time of the spans named `name`, wherever they sit.
    pub fn total(&self, name: &str) -> Duration {
        self.by_path
            .iter()
            .filter(|(path, _)| path.rsplit(';').next() == Some(name))
            .map(|(_, &d)| d)
            .sum()
    }

    /// Total self time of the spans at exactly `path`.
    pub fn at(&self, path: &str) -> Duration {
        self.by_path.get(path).copied().unwrap_or_default()
    }

    /// Mean self time per span named `name` (zero when none ran).
    pub fn mean(&self, name: &str) -> Duration {
        match self.counts.get(name) {
            Some(&n) if n > 0 => self.total(name) / n as u32,
            _ => Duration::ZERO,
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
