//! Live watch integration: a [`Server`] evaluates `dm_obs::watch` rules
//! over its own metrics on a caller-driven cadence and (opt-in) *reacts*.
//!
//! The server does not spawn a watch thread — cadence stays with the
//! caller (an ops loop, a test, the `dm watch` CLI) via
//! [`Server::watch_tick`], which keeps every evaluation deterministic
//! under an injected [`Clock`](dm_core::obs::watch::Clock). Each tick:
//!
//! 1. snapshots the *source* recorder (the one the server records into),
//! 2. runs the [`Watcher`] over it (sliding windows, SLO rules, drift
//!    detectors), emitting `watch.*` metrics through the same recorder,
//! 3. applies the [`WatchPolicy`] reactions:
//!    * **degrade** — while any rule is `Firing`, every subsequent
//!      submission's work budget is capped at
//!      `degrade_max_work_while_firing`, so overload resolves through
//!      the existing truncation tiers (`serve.watch.degrade.engaged` /
//!      `.released` count the edges);
//!    * **refresh on drift** — a `Firing` transition on a drift rule
//!      swaps the model set via [`Server::refresh_artifact`] using the
//!      policy's closure (`serve.watch.refresh.on_drift` counts them).
//!
//! [`Server::alert_status`] exposes the per-rule alert states for a
//! status API without ticking.

use crate::models::ModelSet;
use crate::server::Server;
use dm_core::obs::watch::{AlertState, AlertStatus, RuleKind, WatchReport, Watcher};
use dm_core::obs::InMemoryRecorder;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// How a server reacts to its watcher's alerts. Both reactions are
/// opt-in; the default policy only observes (evaluate + expose).
#[derive(Default)]
pub struct WatchPolicy {
    /// While *any* rule is firing, cap each submission's
    /// `Budget::max_work` to this many work units (existing caps are
    /// kept if tighter). `None` disables degradation.
    pub degrade_max_work_while_firing: Option<u64>,
    /// Called through [`Server::refresh_artifact`] whenever a *drift*
    /// rule transitions to `Firing` — e.g. republish a streaming
    /// model's current centroids. `None` disables refresh-on-drift.
    #[allow(clippy::type_complexity)]
    pub refresh_on_drift: Option<Box<dyn Fn(ModelSet) -> ModelSet + Send + Sync>>,
}

impl std::fmt::Debug for WatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchPolicy")
            .field(
                "degrade_max_work_while_firing",
                &self.degrade_max_work_while_firing,
            )
            .field("refresh_on_drift", &self.refresh_on_drift.is_some())
            .finish()
    }
}

/// A watcher attached to a server: the metric source it reads, the
/// rule engine, and the reaction policy.
pub(crate) struct AttachedWatch {
    source: Arc<InMemoryRecorder>,
    watcher: Watcher,
    policy: WatchPolicy,
}

impl Server {
    /// Attaches a watcher to this server. `source` must be the recorder
    /// the server (and anything else being watched, e.g. a streaming
    /// engine) records into; the watcher reads snapshots of it each
    /// [`Server::watch_tick`] and writes its own `watch.*` metrics back
    /// through the server's recorder. Replaces any previous watcher and
    /// releases a previously engaged degrade cap.
    pub fn install_watch(
        &self,
        source: Arc<InMemoryRecorder>,
        watcher: Watcher,
        policy: WatchPolicy,
    ) {
        let mut slot = self.watch.lock().unwrap_or_else(PoisonError::into_inner);
        self.degrade_cap.store(0, Ordering::SeqCst);
        *slot = Some(AttachedWatch {
            source,
            watcher,
            policy,
        });
    }

    /// Runs one watch evaluation: snapshot the source, tick the rule
    /// engine, apply policy reactions. Returns `None` when no watcher
    /// is installed. Call this on whatever cadence the deployment
    /// wants; determinism is inherited from the watcher's [`Clock`].
    ///
    /// [`Clock`]: dm_core::obs::watch::Clock
    pub fn watch_tick(&self) -> Option<WatchReport> {
        let mut slot = self.watch.lock().unwrap_or_else(PoisonError::into_inner);
        let attached = slot.as_mut()?;
        let snap = attached.source.snapshot();
        let obs = self.shared.obs();
        let transitions = attached.watcher.tick(&snap, &obs);

        for t in &transitions {
            if t.to == AlertState::Firing {
                // Pin the traces overlapping this rule's firing edge:
                // whatever the tail sampler holds right now is the
                // request mix that pushed the rule over, so protect it
                // from eviction and stamp it with the rule name.
                if let Some(tracer) = &self.shared.tracer {
                    tracer.pin_recent(&t.rule, &obs);
                }
            }
            if t.kind == RuleKind::Drift && t.to == AlertState::Firing {
                if let Some(refresh) = &attached.policy.refresh_on_drift {
                    self.refresh_artifact(refresh.as_ref());
                    obs.counter("serve.watch.refresh.on_drift", 1);
                }
            }
        }

        if let Some(cap) = attached.policy.degrade_max_work_while_firing {
            let firing = attached.watcher.firing() > 0;
            let prev = self
                .degrade_cap
                .swap(if firing { cap } else { 0 }, Ordering::SeqCst);
            if prev == 0 && firing {
                obs.counter("serve.watch.degrade.engaged", 1);
            } else if prev != 0 && !firing {
                obs.counter("serve.watch.degrade.released", 1);
            }
        }

        Some(WatchReport {
            transitions,
            statuses: attached.watcher.statuses(),
        })
    }

    /// Current per-rule alert states (empty when no watcher is
    /// installed). A pure read for status endpoints: does not evaluate
    /// rules or advance any state.
    pub fn alert_status(&self) -> Vec<AlertStatus> {
        self.watch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|a| a.watcher.statuses())
            .unwrap_or_default()
    }

    /// The work-unit cap currently applied by the degradation reaction
    /// (`None` when disengaged).
    pub fn degrade_cap(&self) -> Option<u64> {
        match self.degrade_cap.load(Ordering::SeqCst) {
            0 => None,
            cap => Some(cap),
        }
    }
}
