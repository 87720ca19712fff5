//! Resource governance for long-running mining algorithms.
//!
//! The survey's headline algorithms all have pathological blow-up modes:
//! Apriori's candidate set is exponential at low min-support, PAM / CLARANS /
//! agglomerative clustering are superquadratic, SETM materializes an
//! occurrence relation that can dwarf the database. A production system must
//! bound the work it spends on one query, stay cancellable from the outside,
//! and degrade gracefully with a partial result instead of hanging or dying.
//!
//! This crate provides the three pieces every governed entry point shares:
//!
//! - [`Budget`] — a declarative resource limit: wall-clock deadline, maximum
//!   work units (candidates counted, nodes grown, points processed, ...),
//!   and maximum iterations. Checked *cooperatively* at pass / batch
//!   boundaries; nothing is preempted.
//! - [`CancelToken`] — an `Arc<AtomicBool>` flag that another thread can
//!   flip at any time. Workers poll it through their [`Guard`], so parallel
//!   shards stop within one check interval too.
//! - [`Outcome`] / [`RunStatus`] — governed entry points return the best
//!   valid partial result together with a status saying whether the run
//!   completed or was truncated (and why).
//!
//! A [`Guard`] bundles a budget and a token with the run's start time and
//! latches the *first* reason it trips: once tripped, every subsequent check
//! fails with the same [`TruncationReason`], so a run's status is stable no
//! matter how many sites observe the trip.
//!
//! # Check-site discipline
//!
//! Algorithms call [`Guard::check`] (or [`Guard::should_stop`]) at pass /
//! iteration / chunk boundaries and roughly every few hundred items inside
//! tight loops, [`Guard::try_work`] *before* admitting a batch of work units
//! (so a work cap is never exceeded), and [`Guard::next_iteration`] once per
//! outer iteration. On a mid-pass trip the caller discards the incomplete
//! pass and returns everything confirmed through the last completed one —
//! which is what keeps truncated frequent-itemset results downward closed
//! and a subset of the ungoverned run.
//!
//! # Fail points
//!
//! With the `failpoints` feature, `Guard::with_failpoint` arms a
//! deterministic per-guard counter that trips the guard at the N-th check
//! site. The property tests sweep N to simulate exhaustion at arbitrary
//! points and assert: no panic, truncated results uphold their invariants,
//! and an unarmed unlimited guard is bit-identical to an ungoverned run.

//! # Observability
//!
//! A guard can carry a [`dm_obs::Recorder`] ([`Guard::with_recorder`]);
//! instrumented algorithms reach it through [`Guard::obs`]. Because the
//! guard already flows through every governed entry point and every
//! `dm_par` worker, attaching a recorder needs no signature changes
//! anywhere. Without one, [`Guard::obs`] hands out the no-op recorder,
//! whose emissions compile to a predictable branch; the cost of an
//! attached in-memory recorder is measured on the serving path by
//! perfbench's `obs.recorder_overhead`. The guard itself emits a
//! `guard.trip` event (with the reason) and a `guard.work_admitted`
//! watermark gauge the moment its first limit latches.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use dm_obs::{Obs, Recorder};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a governed run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// Admitting the next batch of work units would exceed the work cap.
    WorkLimitExceeded,
    /// The iteration cap was reached.
    IterationLimitReached,
    /// The [`CancelToken`] was cancelled from outside.
    Cancelled,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            Self::WorkLimitExceeded => write!(f, "work-unit budget exhausted"),
            Self::IterationLimitReached => write!(f, "iteration limit reached"),
            Self::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Whether a governed run finished or returned a partial result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunStatus {
    /// The run finished; the result is identical to an ungoverned run.
    Complete,
    /// The run stopped early; the result is the best valid partial result.
    Truncated(TruncationReason),
}

impl RunStatus {
    /// `true` when the run finished without tripping any limit.
    pub fn is_complete(&self) -> bool {
        matches!(self, Self::Complete)
    }
}

/// A governed result: the best valid (possibly partial) result plus the
/// status under which it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// The result — complete, or the best valid partial result.
    pub result: T,
    /// Whether the run completed or was truncated (and why).
    pub status: RunStatus,
}

impl<T> Outcome<T> {
    /// Wraps a finished result.
    pub fn complete(result: T) -> Self {
        Self {
            result,
            status: RunStatus::Complete,
        }
    }

    /// `true` when the run finished without truncation.
    pub fn is_complete(&self) -> bool {
        self.status.is_complete()
    }

    /// The truncation reason, if the run was cut short.
    pub fn truncation(&self) -> Option<TruncationReason> {
        match self.status {
            RunStatus::Complete => None,
            RunStatus::Truncated(r) => Some(r),
        }
    }

    /// Maps the result, preserving the status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            result: f(self.result),
            status: self.status,
        }
    }
}

/// A cooperative cancellation flag, cheaply cloneable across threads.
///
/// Cancellation is observed by governed runs within one check interval
/// (one pass/iteration boundary or a few hundred items of a tight loop).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Declarative resource limits for one governed run.
///
/// All limits are optional; [`Budget::unlimited`] never trips. Limits
/// compose: the run stops at whichever is hit first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`Guard`] construction.
    pub deadline: Option<Duration>,
    /// Maximum admitted work units (candidates, nodes, points — the
    /// governed algorithm documents its unit).
    pub max_work: Option<u64>,
    /// Maximum outer iterations (Lloyd iterations, SWAP passes, ...).
    pub max_iterations: Option<u64>,
}

impl Budget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a wall-clock deadline in milliseconds.
    pub fn with_deadline_ms(self, ms: u64) -> Self {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// Caps total admitted work units.
    pub fn with_max_work(mut self, units: u64) -> Self {
        self.max_work = Some(units);
        self
    }

    /// Caps outer iterations.
    pub fn with_max_iterations(mut self, iters: u64) -> Self {
        self.max_iterations = Some(iters);
        self
    }
}

/// Deterministic fail-point injection state (per guard, no globals).
#[cfg(feature = "failpoints")]
#[derive(Debug)]
struct FailPoint {
    /// Trip when the check counter reaches this value.
    trip_at: u64,
    /// The reason to inject.
    reason: TruncationReason,
    /// Number of check sites observed so far.
    checks: AtomicU64,
}

/// The run-time governor: a [`Budget`] + [`CancelToken`] bound to a start
/// time, with a latched trip state.
///
/// A `Guard` is `Sync`; share it by reference with parallel workers. The
/// first limit to trip is latched — every later check reports the same
/// [`TruncationReason`], so the run's final status is unambiguous.
pub struct Guard {
    budget: Budget,
    token: CancelToken,
    start: Instant,
    work: AtomicU64,
    iterations: AtomicU64,
    /// 0 = not tripped; otherwise `encode(reason)`.
    tripped: AtomicU8,
    /// Metrics sink shared with every instrumentation site this guard
    /// reaches; `None` means the no-op recorder.
    recorder: Option<Arc<dyn Recorder>>,
    #[cfg(feature = "failpoints")]
    failpoint: Option<FailPoint>,
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard")
            .field("budget", &self.budget)
            .field("work", &self.work)
            .field("iterations", &self.iterations)
            .field("tripped", &self.tripped)
            .field("recorded", &self.recorder.is_some())
            .finish()
    }
}

const fn encode(reason: TruncationReason) -> u8 {
    match reason {
        TruncationReason::DeadlineExceeded => 1,
        TruncationReason::WorkLimitExceeded => 2,
        TruncationReason::IterationLimitReached => 3,
        TruncationReason::Cancelled => 4,
    }
}

fn decode(v: u8) -> Option<TruncationReason> {
    match v {
        1 => Some(TruncationReason::DeadlineExceeded),
        2 => Some(TruncationReason::WorkLimitExceeded),
        3 => Some(TruncationReason::IterationLimitReached),
        4 => Some(TruncationReason::Cancelled),
        _ => None,
    }
}

impl Guard {
    /// A guard over `budget` with a fresh cancel token.
    pub fn new(budget: Budget) -> Self {
        Self::with_token(budget, CancelToken::new())
    }

    /// A guard that never trips (the governed path's identity element).
    pub fn unlimited() -> Self {
        Self::new(Budget::unlimited())
    }

    /// A guard over `budget` observing an existing token, so another
    /// thread holding a clone of `token` can cancel this run.
    pub fn with_token(budget: Budget, token: CancelToken) -> Self {
        Self {
            budget,
            token,
            start: Instant::now(),
            work: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            tripped: AtomicU8::new(0),
            recorder: None,
            #[cfg(feature = "failpoints")]
            failpoint: None,
        }
    }

    /// Attaches a metrics recorder; instrumentation sites reached by this
    /// guard emit into it via [`Guard::obs`].
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached recorder, if any. Lets a subsystem that owns its own
    /// threads (a serving worker pool, say) clone the sink out of a
    /// request guard and keep emitting after the guard is gone.
    pub fn recorder(&self) -> Option<Arc<dyn Recorder>> {
        self.recorder.clone()
    }

    /// The observability handle for this guard: the attached recorder, or
    /// the no-op recorder (whose emissions are a dead branch) if none.
    pub fn obs(&self) -> Obs<'_> {
        match self.recorder.as_deref() {
            Some(rec) => Obs::new(rec),
            None => Obs::noop(),
        }
    }

    /// Arms a deterministic fail point: the guard trips with `reason` at
    /// the `trip_at`-th check site (0 = the very first check).
    #[cfg(feature = "failpoints")]
    pub fn with_failpoint(mut self, trip_at: u64, reason: TruncationReason) -> Self {
        self.failpoint = Some(FailPoint {
            trip_at,
            reason,
            checks: AtomicU64::new(0),
        });
        self
    }

    /// A clone of the cancel token observed by this guard.
    pub fn cancel_token(&self) -> CancelToken {
        self.token.clone()
    }

    /// The budget this guard enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Total work units admitted so far via [`Guard::try_work`].
    pub fn work_done(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Latches `reason` if nothing tripped yet; returns the effective
    /// (first-latched) reason.
    fn trip(&self, reason: TruncationReason) -> TruncationReason {
        match self
            .tripped
            .compare_exchange(0, encode(reason), Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                let obs = self.obs();
                if obs.enabled() {
                    obs.event("guard.trip", &reason.to_string());
                    obs.gauge(
                        "guard.work_admitted",
                        self.work.load(Ordering::Relaxed) as f64,
                    );
                }
                reason
            }
            Err(prev) => decode(prev).unwrap_or(reason),
        }
    }

    #[cfg(feature = "failpoints")]
    fn poll_failpoint(&self) -> Option<TruncationReason> {
        let fp = self.failpoint.as_ref()?;
        let seen = fp.checks.fetch_add(1, Ordering::AcqRel);
        (seen >= fp.trip_at).then_some(fp.reason)
    }

    #[cfg(not(feature = "failpoints"))]
    #[inline]
    fn poll_failpoint(&self) -> Option<TruncationReason> {
        None
    }

    /// One cooperative check site: fails if the guard has tripped, the
    /// token is cancelled, the deadline has passed, or an armed fail point
    /// fires. The first failure is latched.
    pub fn check(&self) -> Result<(), TruncationReason> {
        if let Some(r) = decode(self.tripped.load(Ordering::Acquire)) {
            return Err(r);
        }
        if let Some(r) = self.poll_failpoint() {
            return Err(self.trip(r));
        }
        if self.token.is_cancelled() {
            return Err(self.trip(TruncationReason::Cancelled));
        }
        if let Some(deadline) = self.budget.deadline {
            if self.start.elapsed() >= deadline {
                return Err(self.trip(TruncationReason::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// `true` when the run should stop (a `check()` convenience for loop
    /// conditions and worker polls).
    pub fn should_stop(&self) -> bool {
        self.check().is_err()
    }

    /// Admits `units` of work, failing *before* the work happens if it
    /// would exceed the cap — a capped run never performs more than
    /// `max_work` units. Also a check site (deadline / cancel / fail point).
    pub fn try_work(&self, units: u64) -> Result<(), TruncationReason> {
        self.check()?;
        if let Some(max) = self.budget.max_work {
            let done = self.work.load(Ordering::Relaxed);
            if done.saturating_add(units) > max {
                return Err(self.trip(TruncationReason::WorkLimitExceeded));
            }
        }
        self.work.fetch_add(units, Ordering::Relaxed);
        Ok(())
    }

    /// Admits one outer iteration, failing when the iteration cap is
    /// reached. Also a check site.
    pub fn next_iteration(&self) -> Result<(), TruncationReason> {
        self.check()?;
        let done = self.iterations.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = self.budget.max_iterations {
            if done >= max {
                return Err(self.trip(TruncationReason::IterationLimitReached));
            }
        }
        Ok(())
    }

    /// The run's status so far: `Complete` if nothing tripped, otherwise
    /// `Truncated` with the first-latched reason.
    pub fn status(&self) -> RunStatus {
        match decode(self.tripped.load(Ordering::Acquire)) {
            None => RunStatus::Complete,
            Some(r) => RunStatus::Truncated(r),
        }
    }

    /// Wraps `result` with this guard's current status.
    pub fn outcome<T>(&self, result: T) -> Outcome<T> {
        Outcome {
            result,
            status: self.status(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        for _ in 0..10_000 {
            assert!(g.check().is_ok());
            assert!(g.try_work(1_000).is_ok());
            assert!(g.next_iteration().is_ok());
        }
        assert_eq!(g.status(), RunStatus::Complete);
        assert!(!g.should_stop());
    }

    #[test]
    fn work_cap_is_never_exceeded() {
        let g = Guard::new(Budget::unlimited().with_max_work(100));
        assert!(g.try_work(60).is_ok());
        assert_eq!(
            g.try_work(60),
            Err(TruncationReason::WorkLimitExceeded),
            "admitting 60 more would exceed the cap of 100"
        );
        assert!(g.work_done() <= 100);
        // Latched: even a tiny request now fails with the same reason.
        assert_eq!(g.try_work(1), Err(TruncationReason::WorkLimitExceeded));
        assert_eq!(
            g.status(),
            RunStatus::Truncated(TruncationReason::WorkLimitExceeded)
        );
    }

    #[test]
    fn iteration_cap_trips_after_n_iterations() {
        let g = Guard::new(Budget::unlimited().with_max_iterations(3));
        assert!(g.next_iteration().is_ok());
        assert!(g.next_iteration().is_ok());
        assert!(g.next_iteration().is_ok());
        assert_eq!(
            g.next_iteration(),
            Err(TruncationReason::IterationLimitReached)
        );
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Guard::new(Budget::unlimited().with_deadline(Duration::ZERO));
        assert_eq!(g.check(), Err(TruncationReason::DeadlineExceeded));
        assert_eq!(
            g.status(),
            RunStatus::Truncated(TruncationReason::DeadlineExceeded)
        );
    }

    #[test]
    fn cancel_token_trips_across_threads() {
        let g = Guard::unlimited();
        let token = g.cancel_token();
        assert!(g.check().is_ok());
        thread::spawn(move || token.cancel())
            .join()
            .expect("cancel thread");
        assert_eq!(g.check(), Err(TruncationReason::Cancelled));
        assert!(g.should_stop());
    }

    #[test]
    fn first_trip_reason_is_latched() {
        let token = CancelToken::new();
        let g = Guard::with_token(Budget::unlimited().with_max_work(10), token.clone());
        assert_eq!(g.try_work(11), Err(TruncationReason::WorkLimitExceeded));
        token.cancel();
        // The work-limit trip came first and sticks.
        assert_eq!(g.check(), Err(TruncationReason::WorkLimitExceeded));
        assert_eq!(
            g.status(),
            RunStatus::Truncated(TruncationReason::WorkLimitExceeded)
        );
    }

    #[test]
    fn outcome_helpers() {
        let g = Guard::unlimited();
        let o = g.outcome(vec![1, 2, 3]);
        assert!(o.is_complete());
        assert_eq!(o.truncation(), None);
        let o = o.map(|v| v.len());
        assert_eq!(o.result, 3);

        let g = Guard::new(Budget::unlimited().with_max_work(0));
        let _ = g.try_work(1);
        let o = g.outcome(());
        assert!(!o.is_complete());
        assert_eq!(o.truncation(), Some(TruncationReason::WorkLimitExceeded));
    }

    #[test]
    fn guard_without_recorder_hands_out_noop_obs() {
        let g = Guard::unlimited();
        assert!(!g.obs().enabled());
        // Emissions into the noop handle are silently dropped.
        g.obs().counter("x", 1);
        g.obs().gauge("y", 2.0);
    }

    #[test]
    fn trip_emits_event_and_work_watermark() {
        let rec = Arc::new(dm_obs::InMemoryRecorder::new());
        let g = Guard::new(Budget::unlimited().with_max_work(10)).with_recorder(rec.clone());
        assert!(g.obs().enabled());
        assert!(g.try_work(7).is_ok());
        assert_eq!(g.try_work(7), Err(TruncationReason::WorkLimitExceeded));
        // A later, different trip must not re-emit: first reason is latched.
        g.cancel_token().cancel();
        assert_eq!(g.check(), Err(TruncationReason::WorkLimitExceeded));

        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "guard.trip");
        assert_eq!(snap.events[0].detail, "work-unit budget exhausted");
        assert_eq!(snap.gauge("guard.work_admitted"), Some(7.0));
    }

    #[test]
    fn untripped_guard_emits_nothing() {
        let rec = Arc::new(dm_obs::InMemoryRecorder::new());
        let g = Guard::unlimited().with_recorder(rec.clone());
        assert!(g.check().is_ok());
        assert!(g.try_work(5).is_ok());
        assert!(rec.snapshot().is_empty());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn failpoint_trips_at_nth_check_site() {
        let g = Guard::unlimited().with_failpoint(2, TruncationReason::Cancelled);
        assert!(g.check().is_ok()); // site 0
        assert!(g.check().is_ok()); // site 1
        assert_eq!(g.check(), Err(TruncationReason::Cancelled)); // site 2
        assert_eq!(
            g.status(),
            RunStatus::Truncated(TruncationReason::Cancelled)
        );
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn unarmed_guard_ignores_failpoints() {
        let g = Guard::unlimited();
        for _ in 0..1000 {
            assert!(g.check().is_ok());
        }
    }
}
