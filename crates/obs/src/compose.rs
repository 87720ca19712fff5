//! Recorder composition: fan-out to several sinks and live progress
//! streaming.
//!
//! [`TeeRecorder`] lets one governed run feed two recorders at once —
//! the `experiments` binary uses it when a tracing export and a
//! per-experiment recorder (`--metrics` or `--ledger`) are both
//! requested. [`ProgressRecorder`] is a forwarding decorator
//! that additionally narrates selected emissions to a [`ProgressSink`]
//! (stderr by default) as they happen, which is what `--progress`
//! rides.

use crate::{Recorder, SpanId, TraceId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A line-oriented sink for live progress output.
pub trait ProgressSink: Send + Sync {
    /// Emits one line (without trailing newline).
    fn line(&self, line: &str);
}

/// A [`ProgressSink`] that writes to standard error.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrSink;

impl ProgressSink for StderrSink {
    fn line(&self, line: &str) {
        eprintln!("{line}");
    }
}

/// Forwards everything to an inner recorder and narrates pass-level
/// activity (span completions, iteration gauges, memory high-water
/// marks, events) to a [`ProgressSink`] as it happens. Per-shard
/// telemetry (`par.*`) is forwarded but not narrated — at one line per
/// shard per pass it would drown the signal.
pub struct ProgressRecorder {
    inner: Arc<dyn Recorder>,
    sink: Box<dyn ProgressSink>,
    epoch: Instant,
}

impl std::fmt::Debug for ProgressRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressRecorder").finish_non_exhaustive()
    }
}

impl ProgressRecorder {
    /// Wraps `inner`, narrating to `sink`.
    pub fn new(inner: Arc<dyn Recorder>, sink: Box<dyn ProgressSink>) -> Self {
        Self {
            inner,
            sink,
            epoch: Instant::now(),
        }
    }

    /// Wraps `inner`, narrating to stderr.
    pub fn stderr(inner: Arc<dyn Recorder>) -> Self {
        Self::new(inner, Box::new(StderrSink))
    }

    fn stamp(&self) -> String {
        format!("[{:9.3}s]", self.epoch.elapsed().as_secs_f64())
    }

    fn narrate_span(&self, name: &str) -> bool {
        // Pass/iteration/experiment granularity only; shard spans are
        // too chatty for a terminal.
        !name.starts_with("par.")
    }

    fn narrate_gauge(&self, name: &str) -> bool {
        name.ends_with("mem_bytes")
            || name.contains(".mem.")
            || name.contains(".iter")
            || name.contains(".pass")
    }
}

impl Recorder for ProgressRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        if self.narrate_gauge(name) {
            self.sink
                .line(&format!("{} gauge {name} = {value}", self.stamp()));
        }
        self.inner.gauge(name, value);
    }

    fn gauge_max(&self, name: &str, value: f64) {
        if self.narrate_gauge(name) {
            self.sink
                .line(&format!("{} gauge {name} >= {value}", self.stamp()));
        }
        self.inner.gauge_max(name, value);
    }

    fn value(&self, name: &str, v: u64) {
        self.inner.value(name, v);
    }

    fn value_traced(&self, name: &str, v: u64, trace: TraceId) {
        self.inner.value_traced(name, v, trace);
    }

    fn event(&self, name: &str, detail: &str) {
        self.sink
            .line(&format!("{} event {name}: {detail}", self.stamp()));
        self.inner.event(name, detail);
    }

    fn span_begin(&self, name: &str, parent: SpanId) -> SpanId {
        self.inner.span_begin(name, parent)
    }

    fn span_end(&self, id: SpanId, name: &str, elapsed_ns: u64) {
        if self.narrate_span(name) {
            self.sink.line(&format!(
                "{} span  {name} {:.3}ms",
                self.stamp(),
                elapsed_ns as f64 / 1e6
            ));
        }
        self.inner.span_end(id, name, elapsed_ns);
    }
}

/// Duplicates every emission to two recorders.
///
/// Span ids handed to callers belong to the *primary*. The secondary
/// builds its own copy of the tree: every span the primary opens is
/// opened on the secondary too, under the secondary's id for the same
/// parent, so both recorders hold the same names and parent links in
/// their own id spaces. A primary without a tree (one that returns
/// [`SpanId::ROOT`]) leaves the secondary with durations only.
pub struct TeeRecorder {
    primary: Arc<dyn Recorder>,
    secondary: Arc<dyn Recorder>,
    /// Open spans: primary id → the secondary's id for the same span.
    open: Mutex<HashMap<u64, SpanId>>,
}

impl std::fmt::Debug for TeeRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeRecorder").finish_non_exhaustive()
    }
}

impl TeeRecorder {
    /// Tees `primary` (whose span ids callers see) and `secondary`.
    pub fn new(primary: Arc<dyn Recorder>, secondary: Arc<dyn Recorder>) -> Self {
        Self {
            primary,
            secondary,
            open: Mutex::new(HashMap::new()),
        }
    }

    fn open_spans(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SpanId>> {
        // A panic mid-record cannot leave the map inconsistent (every
        // update is one insert or remove), so recover from poisoning.
        match self.open.lock() {
            Ok(m) => m,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Recorder for TeeRecorder {
    fn enabled(&self) -> bool {
        self.primary.enabled() || self.secondary.enabled()
    }

    fn counter(&self, name: &str, delta: u64) {
        self.primary.counter(name, delta);
        self.secondary.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.primary.gauge(name, value);
        self.secondary.gauge(name, value);
    }

    fn gauge_max(&self, name: &str, value: f64) {
        self.primary.gauge_max(name, value);
        self.secondary.gauge_max(name, value);
    }

    fn value(&self, name: &str, v: u64) {
        self.primary.value(name, v);
        self.secondary.value(name, v);
    }

    fn value_traced(&self, name: &str, v: u64, trace: TraceId) {
        self.primary.value_traced(name, v, trace);
        self.secondary.value_traced(name, v, trace);
    }

    fn event(&self, name: &str, detail: &str) {
        self.primary.event(name, detail);
        self.secondary.event(name, detail);
    }

    fn span_begin(&self, name: &str, parent: SpanId) -> SpanId {
        let id = self.primary.span_begin(name, parent);
        if id.is_some() {
            let mut open = self.open_spans();
            let parent = open.get(&parent.0).copied().unwrap_or(SpanId::ROOT);
            let mirrored = self.secondary.span_begin(name, parent);
            open.insert(id.0, mirrored);
        }
        id
    }

    fn span_end(&self, id: SpanId, name: &str, elapsed_ns: u64) {
        self.primary.span_end(id, name, elapsed_ns);
        let mirrored = self.open_spans().remove(&id.0).unwrap_or(SpanId::ROOT);
        self.secondary.span_end(mirrored, name, elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Obs};
    use std::sync::Mutex;

    #[derive(Default, Clone)]
    struct VecSink(Arc<Mutex<Vec<String>>>);

    impl VecSink {
        fn lines(&self) -> Vec<String> {
            match self.0.lock() {
                Ok(v) => v.clone(),
                Err(p) => p.into_inner().clone(),
            }
        }
    }

    impl ProgressSink for VecSink {
        fn line(&self, line: &str) {
            match self.0.lock() {
                Ok(mut v) => v.push(line.to_owned()),
                Err(p) => p.into_inner().push(line.to_owned()),
            }
        }
    }

    #[test]
    fn tee_duplicates_flat_metrics_and_mirrors_the_tree() {
        let a = Arc::new(InMemoryRecorder::new());
        let b = Arc::new(InMemoryRecorder::new());
        let tee = TeeRecorder::new(a.clone(), b.clone());
        let obs = Obs::new(&tee);
        obs.counter("c", 3);
        obs.gauge_max("g", 7.0);
        {
            let outer = obs.span("outer");
            assert!(outer.id().is_some(), "primary assigns tree ids");
            let _inner = obs.span("inner");
            let parent = obs.current_span();
            std::thread::scope(|s| {
                s.spawn(|| drop(obs.span_child("worker", parent)));
            });
        }
        drop(obs.span("second_root"));
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.counter("c"), Some(3));
        assert_eq!(sb.counter("c"), Some(3));
        assert_eq!(sa.gauge("g"), Some(7.0));
        assert_eq!(sb.gauge("g"), Some(7.0));
        // Both recorders aggregated every duration...
        assert_eq!(sa.spans["outer"].count, 1);
        assert_eq!(sb.spans["outer"].count, 1);
        assert_eq!(sb.spans["inner"].count, 1);
        // ...and both hold the same tree: the same names under the
        // same parents, every node closed.
        let links = |tree: &[crate::SpanNode]| -> Vec<(String, Option<String>)> {
            let name = |id: u64| tree.iter().find(|n| n.id == id).map(|n| n.name.clone());
            tree.iter()
                .map(|n| (n.name.clone(), name(n.parent)))
                .collect()
        };
        let expected = vec![
            ("outer".to_owned(), None),
            ("inner".to_owned(), Some("outer".to_owned())),
            ("worker".to_owned(), Some("inner".to_owned())),
            ("second_root".to_owned(), None),
        ];
        assert_eq!(links(&sa.tree), expected);
        assert_eq!(links(&sb.tree), expected);
        assert!(sb.tree.iter().all(|n| n.dur_ns.is_some()));
        assert!(tee.open_spans().is_empty(), "closed spans leave the id map");
    }

    #[test]
    fn progress_narrates_passes_but_not_shards() {
        let sink = VecSink::default();
        let inner = Arc::new(InMemoryRecorder::new());
        let rec = ProgressRecorder::new(inner.clone(), Box::new(sink.clone()));
        let obs = Obs::new(&rec);
        {
            let _pass = obs.span("assoc.apriori.pass2");
        }
        drop(obs.span("par.shard0"));
        obs.gauge_max("assoc.mem.ck_bytes", 4096.0);
        obs.gauge("cluster.kmeans.iter.inertia", 2.5);
        obs.gauge("assoc.apriori.minsup_count", 20.0); // not narrated
        obs.counter("assoc.apriori.pass2.candidates", 148_240); // not narrated
        obs.event("guard.trip", "deadline");
        let lines = sink.lines();
        assert_eq!(lines.len(), 4, "pass span, 2 gauges, 1 event: {lines:?}");
        assert!(lines[0].contains("assoc.apriori.pass2"));
        assert!(lines[1].contains("assoc.mem.ck_bytes >= 4096"));
        assert!(lines[2].contains("cluster.kmeans.iter.inertia = 2.5"));
        assert!(lines[3].contains("guard.trip: deadline"));
        // Everything still reached the inner recorder.
        let snap = inner.snapshot();
        assert_eq!(
            snap.counter("assoc.apriori.pass2.candidates"),
            Some(148_240)
        );
        assert_eq!(snap.spans["par.shard0"].count, 1);
        assert_eq!(snap.tree.len(), 2);
        assert_eq!(snap.events.len(), 1);
    }
}
