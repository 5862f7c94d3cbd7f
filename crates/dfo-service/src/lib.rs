//! Resident DFOGraph engine service: one engine per rank group, many jobs.
//!
//! Batch mode ([`dfo_core::Cluster::run`]) ties one graph, one algorithm and
//! one process lifetime together — every run pays preprocessing or at least
//! plan reload, and two workloads over the same graph serialize. This crate
//! turns the engine into a **resident service**:
//!
//! * a **catalog** of loaded graphs — each graph preprocessed once into its
//!   own [`dfo_core::Cluster`] (own disks and per-rank chunk caches) and
//!   then shared, reference-counted, by every job over it;
//! * jobs submitted as transport-agnostic [`JobSpec`]s — graph name,
//!   algorithm name (resolved in the [`dfo_algos::registry`]), integer
//!   [`dfo_algos::JobParams`];
//! * **admission control** that queues a job while the running jobs'
//!   estimated footprints would push past `mem_budget`; jobs are admitted
//!   by [`JobSpec::priority`] with per-client fair share and aging against
//!   starvation, and the footprint estimates are **learned**: each
//!   completed job's measured peak scratch usage feeds an EWMA per
//!   `(algorithm, graph)` that replaces the static per-vertex hint on the
//!   next submission;
//! * a bounded **retry** policy: an attempt that fails retryably with
//!   attempts left under [`JobSpec::max_retries`] re-enters the queue, under
//!   a fresh per-attempt scratch scope;
//! * isolation of concurrent jobs over one graph by per-attempt scratch
//!   directories, while they share the graph's chunk caches and
//!   disk/network throttles, and a cooperative cancellation token checked
//!   collectively at every `Process`-call boundary;
//! * a [`JobReport`] per finished job: per-rank outputs, per-job
//!   [`dfo_types::PhaseStats`] totals (chunk-cache hits and misses counted
//!   at the job's own lookup sites, so concurrent jobs cannot pollute each
//!   other's numbers), and — where observable — the shared caches' counter
//!   deltas over the job's wall-clock window;
//! * observability: every graph's cluster feeds one shared
//!   [`dfo_obs::Registry`] (series labeled `graph`/`rank`), jobs add
//!   scheduler and per-(graph, algorithm) job series, and `cfg.metrics_addr` (or
//!   `DFO_METRICS_ADDR`) exposes it all through a [`MetricsServer`] scrape
//!   endpoint — `GET /metrics` for Prometheus text, `GET /metrics.json`
//!   for a JSON snapshot.
//!
//! ## One executor, two front-ends
//!
//! All of the above is decided in one place, the executor core (`exec.rs`):
//! submit validation, the admission step, the retry decision, report
//! assembly and the metric families exist exactly once. The two front-ends
//! differ only in *how one attempt runs on the ranks* and *where a job's
//! events go*:
//!
//! * [`Service`] — in-process. Each attempt runs through
//!   [`dfo_core::Cluster::run_scoped`] on a fresh simulated mesh, because a
//!   failed attempt poisons its mesh (so attempts share no mesh, and need
//!   no overlap cap); the submitter holds a [`JobHandle`].
//! * [`Daemon`] + [`DfoClient`] — one process per rank over a resident TCP
//!   mesh. Rank 0 fans each admitted attempt out to the peers and every
//!   rank runs it through [`dfo_core::ResidentMesh::run_job_as`] in the
//!   job's own tag namespace; job events stream to the submitting client's
//!   [`RemoteJobHandle`]. A failed attempt kills the mesh, so the daemon
//!   drains, relaunches it in place and lets the executor's retry rule
//!   decide what re-runs.
//!
//! Underneath both, every rank of every attempt goes through the engine's
//! single rank-launch body and its one [cancel-vs-poison
//! rule](dfo_core::cluster#the-cancel-vs-poison-rule).

mod catalog;
mod client;
mod daemon;
mod estimator;
mod exec;
mod job;
mod metrics;
mod sched;
mod service;
mod wire;

pub use catalog::CatalogEntry;
pub use client::{DfoClient, RemoteJobHandle};
pub use daemon::Daemon;
pub use job::{JobHandle, JobReport};
pub use metrics::MetricsServer;
pub use service::Service;
pub use wire::PROTO_VERSION;

// The job vocabulary ([`JobSpec`], [`JobPhase`], [`JobStatus`]) moved to
// `dfo_types::jobspec` when the remote protocol made it a wire format.
// These re-exports keep every pre-existing `dfo_service::JobSpec` import
// path compiling unchanged — new code may import from either crate.
pub use dfo_types::{JobPhase, JobSpec, JobStatus};

// The vocabulary types a service caller needs, so `dfo_service` (or the
// facade's `service::*`) is a self-sufficient import.
pub use dfo_algos::{AlgoOutput, EdgeDataKind, JobParams, OutputKind};
pub use dfo_types::{DfoError, EngineConfig, PhaseStats, Result};
