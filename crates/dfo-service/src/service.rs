//! The in-process front-end: catalog API, the in-process runner, handles.

use crate::catalog::CatalogEntry;
use crate::exec::{self, Executor, Job, JobEvent, Next, RanksOut};
use crate::job::{JobHandle, ResultSlot};
use dfo_graph::EdgeList;
use dfo_obs::Registry;
use dfo_types::{EngineConfig, JobSpec, Pod, Result};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// A resident engine owning a graph [catalog](CatalogEntry) and a job
/// queue. See the crate docs for the model; in short:
///
/// ```no_run
/// # use dfo_service::{Service, JobSpec};
/// # use dfo_types::EngineConfig;
/// # fn demo(g: &dfo_graph::EdgeList<()>) -> dfo_types::Result<()> {
/// let svc = Service::new(EngineConfig::for_test(2), "/tmp/dfo")?;
/// svc.load_graph("web", g)?;                       // preprocess once
/// let a = svc.submit(JobSpec::new("web", "pagerank").with_param("iters", 10))?;
/// let b = svc.submit(JobSpec::new("web", "bfs").with_param("root", 0))?;
/// let ranks = a.wait()?.assemble::<f64>()?;        // jobs ran concurrently
/// let depths = b.wait()?.assemble::<u32>()?;
/// # Ok(()) }
/// ```
///
/// `Service` is cheap to share behind an `Arc`; all methods take `&self`.
pub struct Service {
    /// The shared executor core. A failed attempt poisons its mesh, so
    /// every attempt runs on a fresh simulated mesh and the overlap cap is
    /// unbounded (`mem_budget` alone gates admission).
    core: Arc<Executor>,
}

impl Service {
    /// Creates a resident engine rooted at `base`. Graph `g` loaded under
    /// name `n` lives at `<base>/graphs/<n>/`; per-job scratch under each
    /// graph's node directories. The config is shared by every graph and
    /// job; `cfg.mem_budget` doubles as the admission-control budget.
    pub fn new(cfg: EngineConfig, base: impl Into<PathBuf>) -> Result<Self> {
        Ok(Self { core: Arc::new(Executor::new(cfg, base.into(), usize::MAX)?) })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.core.cfg
    }

    /// The registry every graph cluster and per-job counter feeds; what the
    /// scrape endpoint serves.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.core.registry
    }

    /// The bound scrape-endpoint address (`cfg.metrics_addr` with port 0
    /// resolved), or `None` when the endpoint is off.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.core.metrics.as_ref().map(|m| m.addr())
    }

    /// Preprocesses `g` once under `name` and adds it to the catalog. Every
    /// subsequent job over `name` reuses the preprocessed chunks and the
    /// graph's per-rank chunk caches — loading is the expensive step, jobs
    /// are not. Errors if the name is taken or not filesystem-safe.
    pub fn load_graph<E: Pod + PartialEq>(
        &self,
        name: &str,
        g: &EdgeList<E>,
    ) -> Result<Arc<CatalogEntry>> {
        self.core.catalog.load(name, g)
    }

    /// Attaches a graph that is **already preprocessed** under
    /// `<base>/graphs/<name>` — plan reload only, no preprocessing. This is
    /// how a restarted service (or a [`crate::Daemon`] rank) reopens its
    /// catalog, and how a process that didn't do the preprocessing itself
    /// serves a shipped graph directory.
    pub fn open_graph(&self, name: &str) -> Result<Arc<CatalogEntry>> {
        self.core.catalog.open(name)
    }

    /// Removes `name` from the catalog. Jobs already submitted over it keep
    /// their reference-counted entry (and finish normally); new submissions
    /// no longer resolve the name.
    pub fn unload_graph(&self, name: &str) -> Result<()> {
        self.core.catalog.unload(name)
    }

    /// Loaded graph names, sorted.
    pub fn graphs(&self) -> Vec<String> {
        self.core.catalog.names()
    }

    /// The catalog entry for `name`, if loaded.
    pub fn graph(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.core.catalog.get(name)
    }

    /// Submits a job. Resolution (graph in catalog, algorithm in registry,
    /// edge-payload compatibility) happens **here**, so a bad spec is a
    /// typed error at submit time, not a mid-run failure. The job starts
    /// when the scheduler admits it: higher
    /// [`JobSpec::priority`] first, per-client fair share on ties, aging
    /// against starvation, all gated by the admission budget. Its footprint
    /// charge is, in order: the spec's explicit `mem_estimate`; the learned
    /// estimate from earlier completed runs of the same
    /// `(algorithm, graph)`; the static per-vertex hint. The returned
    /// handle is the only way to get the job's [`crate::JobReport`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle> {
        let slot = Arc::new(ResultSlot::default());
        let sink = slot.clone();
        // the handle reads status live off the job; only the terminal
        // result needs delivering
        let events = move |_: &Job, ev| {
            if let JobEvent::Finished(result) = ev {
                sink.put(*result);
            }
        };
        let job = self.core.submit(spec, Box::new(events))?;
        pump(&self.core);
        Ok(JobHandle { job, slot, svc: Arc::downgrade(&self.core) })
    }

    /// Jobs currently charged against the admission budget / waiting in the
    /// queue — `(running, queued)`.
    pub fn job_counts(&self) -> (usize, usize) {
        self.core.counts()
    }

    /// The learned admission footprint for `(algorithm, graph)` — present
    /// once at least one job of that pair has completed and reported its
    /// measured peak scratch usage. What [`Service::submit`] charges when
    /// the spec has no explicit `mem_estimate`.
    pub fn learned_estimate(&self, algorithm: &str, graph: &str) -> Option<u64> {
        self.core.estimator.estimate(algorithm, graph)
    }
}

/// Admits as many jobs as the executor allows, one detached worker thread
/// per admitted attempt. Called whenever the queue or the budget changes
/// (submit, attempt end, cancellation); safe to call concurrently.
pub(crate) fn pump(core: &Arc<Executor>) {
    while let Some(Next::Run(job)) = core.next(false) {
        let core = core.clone();
        std::thread::spawn(move || {
            let attempt = core.attempt(&job, run_in_process);
            core.finish(&job, attempt);
            pump(&core);
        });
    }
}

/// The in-process runner: one attempt on the graph's cluster over a fresh
/// simulated mesh, under the attempt's private scratch scope. Never reports
/// mesh death — the mesh does not outlive the attempt.
fn run_in_process(job: &Job, scope: &str) -> Result<RanksOut> {
    let cluster = job.entry.cluster();
    let cache0 = cluster.chunk_cache_stats();
    let res =
        cluster.run_scoped(scope, |ctx| exec::run_rank_job(ctx, &job.spec, job.cancel.clone()));
    // scratch cleanup happens even when the attempt failed or was cancelled
    let cleanup = cluster.remove_scratch(scope);
    let ranks = res?;
    cleanup?;
    let cache_window = cluster
        .chunk_cache_stats()
        .iter()
        .zip(&cache0)
        .map(|(now, then)| now.delta_since(then))
        .collect();
    Ok(RanksOut { ranks, cache_window })
}
