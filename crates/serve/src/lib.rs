//! `dm-serve` — an overload-resilient model-serving layer.
//!
//! The workspace's miners and learners produce fitted artifacts
//! (decision trees and bagged ensembles, naive Bayes, kNN indexes,
//! k-means centroids, mined rule sets); this crate puts them behind a
//! long-lived, std-only thread-pool request loop with **robustness as
//! the first-class design axis**:
//!
//! * **Bounded admission** — a fixed-capacity queue sheds excess load
//!   with the typed [`ServeError::Overloaded`] instead of growing
//!   without bound (the `queue` module).
//! * **Per-request budgets** — every request runs under a
//!   [`dm_core::guard::Guard`] whose deadline is charged from *submit*
//!   time, so queue wait eats the budget exactly like compute does.
//! * **Graceful degradation** — when a budget trips mid-request the
//!   server answers from a cheaper tier ([`Tier`]): kNN falls back to
//!   per-class centroid distance, rule recommendation to top-support
//!   singletons, tree/ensemble/NB classification to the training
//!   majority class. Responses are never silently wrong: the tier and
//!   the guard's `Complete`/`Truncated` status ride on every
//!   [`ServeResponse`].
//! * **Panic isolation** — a request that panics is caught at the
//!   worker boundary, answered with [`ServeError::WorkerPanicked`],
//!   and the worker returns to the loop (`serve.worker.recycled`).
//! * **Typed everything** — clients always get `Complete`, honestly
//!   `Truncated`, or a typed [`ServeError`]; there is no path that
//!   drops a request on the floor.
//!
//! The bundled [`loadgen`] client drives the server with a seeded RNG
//! stream (reproducible chaos runs), jittered exponential backoff, and
//! a global retry budget so retries cannot amplify an overload. The
//! `failpoints` feature extends dm-guard's deterministic fault
//! injection into the request path (worker panics, deadline storms,
//! malformed and stalling clients); `tests/chaos.rs` asserts the
//! server stays live through all of it.
//!
//! ```
//! use dm_serve::{ModelSet, Request, ModelKind, Server, ServeConfig};
//!
//! let models = ModelSet::demo(7).unwrap();
//! let server = Server::start(models, ServeConfig::default());
//! let ticket = server
//!     .submit(Request::Predict {
//!         model: ModelKind::Knn,
//!         rows: vec![vec![0.1, 0.2]],
//!     })
//!     .unwrap();
//! let response = ticket.wait(std::time::Duration::from_secs(5)).unwrap();
//! assert_eq!(response.tier.label(), "full");
//! let _ = server.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod artifacts;
pub mod loadgen;
mod models;
mod queue;
mod server;
mod ticket;
pub mod watch;

pub use api::{
    Endpoint, ModelKind, Recommendation, Reply, Request, ServeError, ServeResponse, ServeResult,
    Tier,
};
pub use artifacts::{load_artifacts, save_artifacts, ArtifactError, ARTIFACT_SCHEMA};
pub use loadgen::{LoadGenConfig, LoadReport, RequestMix};
pub use models::ModelSet;
pub use server::{ServeConfig, Server};
pub use ticket::Ticket;
pub use watch::WatchPolicy;

/// Request-tracing vocabulary, re-exported from `dm_obs::trace` so a
/// serving deployment can configure [`ServeConfig::trace`] and query
/// [`Server::tracer`] without a direct `dm-obs` dependency.
pub use dm_core::obs::trace::{RequestTrace, TraceConfig, TraceStats, TraceStore};
pub use dm_core::obs::TraceId;

#[cfg(feature = "failpoints")]
pub use server::ChaosConfig;
