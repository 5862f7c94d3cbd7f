//! The one job executor both front-ends drive.
//!
//! [`crate::Service`] (in-process) and the rank-0 [`crate::Daemon`] (TCP
//! mesh) share every scheduling *decision* through an [`Executor`]: submit
//! validation and the admission estimate, the admission step (queued-cancel
//! sweep, overlap cap, `mem_budget`, [`JobQueue::pick`], charge), the retry
//! decision, report assembly, estimator learning and the scheduler/job
//! metric families. The executor owns no threads. Two things stay with the
//! front-end and nothing else:
//!
//! * **how one attempt runs on the ranks** — the closure handed to
//!   [`Executor::attempt`]: a fresh in-process mesh per attempt
//!   ([`dfo_core::Cluster::run_scoped`]; never reports mesh death), or a
//!   control fan-out plus [`dfo_core::ResidentMesh::run_job_as`] on the
//!   resident mesh (any failure but a cooperative cancel is mesh death);
//! * **where job events go** — the [`EventSink`] given at submit: a
//!   [`crate::JobHandle`]'s result slot, or a client connection.

use crate::catalog::{Catalog, CatalogEntry};
use crate::estimator::FootprintEstimator;
use crate::job::JobReport;
use crate::metrics::MetricsServer;
use crate::sched::JobQueue;
use crate::wire::RankResult;
use dfo_algos::check_edge_data;
use dfo_core::NodeCtx;
use dfo_obs::Registry;
use dfo_storage::ChunkCacheStats;
use dfo_types::{DfoError, EngineConfig, JobPhase, JobSpec, JobStatus, PhaseStats, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fair-share quota: jobs one client may have running while other clients'
/// admissible jobs wait (the scheduler is work-conserving, so the quota
/// never idles free budget — see [`crate::sched`]).
const CLIENT_QUOTA: usize = 2;

/// What a job tells its submitter: a non-terminal transition (queued,
/// running, requeued for a retry — read it off [`Job::status`]) or its
/// single terminal result.
pub(crate) enum JobEvent {
    Status,
    // boxed: a JobReport is large next to the unit variant
    Finished(Box<Result<JobReport>>),
}

/// Where one job's events go. Called outside the scheduler lock.
pub(crate) type EventSink = Box<dyn Fn(&Job, JobEvent) + Send + Sync>;

/// One submitted job, shared by its submitter, the queue and the worker
/// running it.
pub(crate) struct Job {
    pub id: u64,
    pub spec: JobSpec,
    /// Bytes charged against `mem_budget` while the job runs.
    pub estimate: u64,
    /// The cooperative token the ranks check at `Process`-call boundaries
    /// (on a mesh, rank 0's; the collective check spreads it to the peers).
    pub cancel: Arc<AtomicBool>,
    /// The job's graph, pinned for its lifetime: unloading the name
    /// mid-run does not pull the chunks out from under it.
    pub entry: Arc<CatalogEntry>,
    /// Retryable failures absorbed so far, bounded by
    /// [`JobSpec::max_retries`].
    retries: AtomicU32,
    phase: Mutex<JobPhase>,
    events: EventSink,
}

impl Job {
    pub fn retries(&self) -> u32 {
        self.retries.load(Ordering::Relaxed)
    }

    pub fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            phase: *self.phase.lock(),
            graph: self.spec.graph.clone(),
            algorithm: self.spec.algorithm.clone(),
            mem_estimate: self.estimate,
            retries: self.retries(),
            priority: self.spec.priority,
            client_id: self.spec.client_id.clone(),
        }
    }

    /// The `graph`/`algorithm` label pair of this job's metric series.
    fn labels(&self) -> [(&str, &str); 2] {
        [("graph", &self.spec.graph), ("algorithm", &self.spec.algorithm)]
    }

    fn status_changed(&self) {
        (self.events)(self, JobEvent::Status);
    }

    fn finish(&self, result: Result<JobReport>) {
        *self.phase.lock() = match &result {
            Ok(_) => JobPhase::Done,
            Err(DfoError::Cancelled(_)) => JobPhase::Cancelled,
            Err(_) => JobPhase::Failed,
        };
        (self.events)(self, JobEvent::Finished(Box::new(result)));
    }
}

/// Entries a [`JobTable`] holds before it starts forgetting finished jobs,
/// so a resident daemon's memory does not grow with the number of jobs it
/// has ever finished.
pub(crate) const FINISHED_JOBS_KEPT: usize = 1024;

/// Jobs by id, for a front-end that lists and cancels by id (the rank-0
/// daemon): every live job, plus the newest finished ones that fit in
/// [`FINISHED_JOBS_KEPT`] entries. A terminal job pins its spec, its catalog
/// entry and its event sink (a possibly closed connection), which is why
/// the table is bounded.
#[derive(Default)]
pub(crate) struct JobTable {
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
}

impl JobTable {
    /// Adds a submitted job. Live jobs are never evicted.
    pub fn insert(&self, job: Arc<Job>) {
        let mut jobs = self.jobs.lock();
        jobs.insert(job.id, job);
        Self::evict(&mut jobs);
    }

    /// While the table is over its bound, drops the oldest terminal job
    /// (ids ascend with submission, and old jobs are rarely still live, so
    /// the scan stops within a few entries).
    fn evict(jobs: &mut BTreeMap<u64, Arc<Job>>) {
        while jobs.len() > FINISHED_JOBS_KEPT {
            let oldest = jobs.iter().find(|(_, j)| j.phase.lock().is_terminal());
            let Some((&id, _)) = oldest else { break };
            jobs.remove(&id);
        }
    }

    /// Requests cancellation of `id`; a no-op for an unknown (never
    /// submitted, or finished and evicted) id.
    pub fn cancel(&self, id: u64) {
        if let Some(job) = self.jobs.lock().get(&id) {
            job.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// The status of every job in the table, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        let mut jobs = self.jobs.lock();
        Self::evict(&mut jobs); // jobs finished since the last insert
        jobs.values().map(|j| j.status()).collect()
    }
}

/// One rank's share of one attempt — the body every runner executes inside
/// its node closure: install the cancel token, run the algorithm, and
/// report output, per-job stats and the measured footprint — scratch files
/// plus resident vertex blocks (what the estimator learns; 0 = unmeasured,
/// never a job failure).
pub(crate) fn run_rank_job(
    ctx: &mut NodeCtx,
    spec: &JobSpec,
    token: Arc<AtomicBool>,
) -> Result<RankResult> {
    ctx.set_cancel_token(token);
    let algo = find_algorithm(&spec.algorithm)?;
    let output = algo.run(ctx, &spec.params)?;
    let stats = ctx.job_phase_stats().clone();
    let footprint = ctx.footprint_bytes().unwrap_or(0);
    Ok(RankResult { output, stats, footprint })
}

fn find_algorithm(name: &str) -> Result<&'static dyn dfo_algos::Algorithm> {
    dfo_algos::find(name).ok_or_else(|| {
        DfoError::Config(format!(
            "unknown algorithm {name:?} (registered: {})",
            dfo_algos::registry().iter().map(|a| a.name()).collect::<Vec<_>>().join(", ")
        ))
    })
}

/// What a successful attempt hands back: every rank's result in rank order
/// and whatever shared chunk-cache window the runner could observe (all
/// ranks in-process, nothing remotely).
pub(crate) struct RanksOut {
    pub ranks: Vec<RankResult>,
    pub cache_window: Vec<ChunkCacheStats>,
}

/// One finished attempt, as [`Executor::attempt`] returns it and
/// [`Executor::finish`] consumes it.
pub(crate) struct Attempt {
    pub result: Result<RanksOut>,
    pub elapsed: Duration,
    /// Set by a runner whose mesh outlives the attempt when the failure
    /// killed it: admission stops until [`Next::MeshDead`] is taken.
    pub mesh_dead: bool,
}

/// What [`Executor::next`] tells the front-end to do.
pub(crate) enum Next {
    /// Admitted and charged: run it, then [`Executor::finish`] it.
    Run(Arc<Job>),
    /// A runner reported the mesh dead and every running job has drained.
    MeshDead(DfoError),
    /// Shutdown was requested, the queue is empty and nothing runs.
    Shutdown,
}

struct State {
    queue: JobQueue,
    /// The queued jobs by id (running ones are owned by their workers).
    queued: BTreeMap<u64, Arc<Job>>,
    next_id: u64,
    /// Jobs handed out by `next` and not yet `finish`ed, and the estimate
    /// bytes / per-client counts they hold against admission.
    running_jobs: usize,
    running_bytes: u64,
    running_per_client: BTreeMap<String, usize>,
    mesh_failed: Option<DfoError>,
    shutdown: bool,
}

pub(crate) struct Executor {
    pub cfg: EngineConfig,
    /// Most jobs in flight at once — a property of the transport
    /// (`usize::MAX` in-process, the demux budget on a resident mesh).
    overlap_cap: usize,
    pub catalog: Catalog,
    /// One registry shared by every graph's cluster (each labeled
    /// `graph=<name>`) plus the executor's own scheduler and job series.
    pub registry: Arc<Registry>,
    /// Scrape endpoint; present when `cfg.metrics_addr` is set.
    pub metrics: Option<MetricsServer>,
    /// Learned admission footprints per `(algorithm, graph)`, fed by every
    /// completed job's measured peak scratch usage.
    pub estimator: FootprintEstimator,
    state: Mutex<State>,
    /// Signaled on submit, cancel, shutdown and job completion; a blocking
    /// [`Executor::next`] waits here.
    work: Condvar,
}

impl Executor {
    pub fn new(cfg: EngineConfig, base: PathBuf, overlap_cap: usize) -> Result<Self> {
        cfg.validate().map_err(DfoError::Config)?;
        let registry = Registry::new();
        let metrics = match &cfg.metrics_addr {
            Some(addr) => Some(MetricsServer::spawn(addr, registry.clone())?),
            None => None,
        };
        Ok(Self {
            overlap_cap,
            catalog: Catalog::new(cfg.clone(), base, registry.clone()),
            cfg,
            registry,
            metrics,
            estimator: FootprintEstimator::new(),
            state: Mutex::new(State {
                queue: JobQueue::new(CLIENT_QUOTA),
                queued: BTreeMap::new(),
                next_id: 0,
                running_jobs: 0,
                running_bytes: 0,
                running_per_client: BTreeMap::new(),
                mesh_failed: None,
                shutdown: false,
            }),
            work: Condvar::new(),
        })
    }

    /// Validates and enqueues one spec. Resolution (graph in catalog,
    /// algorithm in registry, edge-payload compatibility) happens **here**,
    /// so a bad spec is a typed error at submit time, not a mid-run
    /// failure. The admission charge is, in order: the spec's explicit
    /// `mem_estimate`; the learned estimate from earlier completed runs of
    /// the same `(algorithm, graph)`; the static per-vertex hint (the
    /// algorithm's state bytes times one node's share of the vertices).
    pub fn submit(&self, spec: JobSpec, events: EventSink) -> Result<Arc<Job>> {
        let entry = self.catalog.get(&spec.graph).ok_or_else(|| {
            DfoError::Config(format!("graph {:?} is not in the catalog", spec.graph))
        })?;
        let algo = find_algorithm(&spec.algorithm)?;
        check_edge_data(algo, entry.plan.edge_data_bytes)?;
        let estimate = spec
            .mem_estimate
            .or_else(|| self.estimator.estimate(&spec.algorithm, &spec.graph))
            .unwrap_or_else(|| {
                let per_node = entry.plan.n_vertices.div_ceil(self.cfg.nodes.max(1) as u64);
                (algo.state_bytes_per_vertex() * per_node).max(1)
            });
        let job = {
            let mut s = self.state.lock();
            if s.shutdown {
                return Err(DfoError::NetClosed("the executor is shutting down".into()));
            }
            let job = Arc::new(Job {
                id: s.next_id,
                spec,
                estimate,
                cancel: Arc::new(AtomicBool::new(false)),
                entry,
                retries: AtomicU32::new(0),
                phase: Mutex::new(JobPhase::Queued),
                events,
            });
            s.next_id += 1;
            s.queue.push(job.id, &job.spec.client_id, job.spec.priority, estimate);
            s.queued.insert(job.id, job.clone());
            self.gauges(&s);
            job
        };
        job.status_changed();
        self.work.notify_all();
        Ok(job)
    }

    /// The admission step. Withdraws cancelled jobs wherever they sit in
    /// the queue, then reports the first thing the front-end must act on —
    /// or, with nothing to do, returns `None` (`block == false`) or waits
    /// for the next state change (`block == true`, which never returns
    /// `None`). Admission asks [`JobQueue::pick`] for the best admissible
    /// job — priority first, per-client fair share on ties, aging against
    /// starvation — under the overlap cap and the unclaimed `mem_budget`; a
    /// job whose estimate alone exceeds the budget is still admitted once
    /// it runs alone, because the engine degrades gracefully when a working
    /// set overruns `mem_budget` (it batches harder).
    pub fn next(&self, block: bool) -> Option<Next> {
        let mut s = self.state.lock();
        loop {
            let cancelled: Vec<Arc<Job>> =
                s.queued.values().filter(|j| j.cancel.load(Ordering::Relaxed)).cloned().collect();
            if !cancelled.is_empty() {
                for job in &cancelled {
                    s.queue.remove(job.id);
                    s.queued.remove(&job.id);
                }
                drop(s);
                for job in cancelled {
                    job.finish(Err(DfoError::Cancelled("job cancelled while queued".into())));
                }
                s = self.state.lock();
                continue;
            }
            if s.mesh_failed.is_some() {
                // stop admitting; the generation ends once the running
                // jobs have drained
                if s.running_jobs == 0 {
                    return s.mesh_failed.take().map(Next::MeshDead);
                }
            } else if s.shutdown && s.queue.is_empty() && s.running_jobs == 0 {
                return Some(Next::Shutdown);
            } else if s.running_jobs < self.overlap_cap {
                let alone = s.running_jobs == 0;
                let budget_left = self.cfg.mem_budget.saturating_sub(s.running_bytes);
                let st = &mut *s;
                if let Some(picked) = st.queue.pick(&st.running_per_client, budget_left, alone) {
                    let job = st.queued.remove(&picked.id).expect("picked job is queued");
                    st.running_jobs += 1;
                    st.running_bytes += job.estimate;
                    *st.running_per_client.entry(picked.client).or_insert(0) += 1;
                    self.gauges(st);
                    drop(s);
                    let priority = job.spec.priority.to_string();
                    self.registry
                        .counter(
                            "dfo_sched_admitted_total",
                            "Jobs admitted by the scheduler, by priority",
                            &[("priority", priority.as_str())],
                        )
                        .inc();
                    return Some(Next::Run(job));
                }
            }
            self.gauges(&s);
            if !block {
                return None;
            }
            self.work.wait(&mut s);
        }
    }

    /// Runs one attempt of an admitted job through the front-end's `run`,
    /// under a per-attempt scratch scope (`job<id>a<n>`: a retry must not
    /// collide with scratch a failed attempt may have left behind). A
    /// panicking runner is caught here, so the job still gets its terminal
    /// event instead of stranding its waiter on a dead worker thread.
    pub fn attempt(&self, job: &Job, run: impl FnOnce(&Job, &str) -> Result<RanksOut>) -> Attempt {
        let scope = format!("job{}a{}", job.id, job.retries());
        *job.phase.lock() = JobPhase::Running;
        job.status_changed();
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(job, &scope)))
            .unwrap_or_else(|p| Err(DfoError::from_panic(p, &format!("job {} worker", job.id))));
        Attempt { result, elapsed: started.elapsed(), mesh_dead: false }
    }

    /// Ends one attempt: releases the admission charge, then decides. Done
    /// → learn, count, report. Cancelled → the typed error. A *retryable*
    /// failure ([`DfoError::is_retryable`]) with attempts left under
    /// [`JobSpec::max_retries`] and no cancel requested → bump `retries` and
    /// requeue (same priority, same place among its peers). Anything else →
    /// the typed, retryability-preserving error.
    pub fn finish(&self, job: &Arc<Job>, attempt: Attempt) {
        let Attempt { result, elapsed, mesh_dead } = attempt;
        let max_retries = job.spec.max_retries;
        let requeue = matches!(&result, Err(e) if e.is_retryable()
            && job.retries() < max_retries
            && !job.cancel.load(Ordering::Relaxed));
        {
            let mut s = self.state.lock();
            s.running_jobs -= 1;
            s.running_bytes -= job.estimate;
            if let Some(n) = s.running_per_client.get_mut(&job.spec.client_id) {
                *n -= 1;
                if *n == 0 {
                    s.running_per_client.remove(&job.spec.client_id);
                }
            }
            if let (true, Err(e)) = (mesh_dead, &result) {
                // the first failure of a generation names its cause
                s.mesh_failed.get_or_insert_with(|| {
                    DfoError::NetClosed(format!("job {} failed: {e}", job.id))
                });
            }
            if requeue {
                job.retries.fetch_add(1, Ordering::Relaxed);
                *job.phase.lock() = JobPhase::Queued;
                s.queue.push(job.id, &job.spec.client_id, job.spec.priority, job.estimate);
                s.queued.insert(job.id, job.clone());
            }
            self.gauges(&s);
        }
        match result {
            Err(e) if requeue => {
                eprintln!(
                    "[dfo-service] job {}: retryable failure ({e}); requeued (retry {}/{max_retries})",
                    job.id,
                    job.retries()
                );
                self.registry
                    .counter(
                        "dfo_job_retries_total",
                        "Job re-executions after retryable failures",
                        &job.labels(),
                    )
                    .inc();
                job.status_changed();
            }
            Ok(out) => job.finish(Ok(self.report(job, out, elapsed))),
            Err(e) => {
                self.registry
                    .counter(
                        "dfo_jobs_failed_total",
                        "Jobs that errored or were cancelled",
                        &job.labels(),
                    )
                    .inc();
                job.finish(Err(e));
            }
        }
        self.work.notify_all();
    }

    /// Assembles a completed job's report from its per-rank results, and
    /// closes the admission loop: the busiest rank's measured footprint
    /// becomes the learned estimate for the next `(algorithm, graph)` run.
    fn report(&self, job: &Job, out: RanksOut, elapsed: Duration) -> JobReport {
        let labels = job.labels();
        let mut totals = PhaseStats::default();
        let mut outputs = Vec::with_capacity(out.ranks.len());
        let mut rank_stats = Vec::with_capacity(out.ranks.len());
        let mut peak = 0u64;
        for r in out.ranks {
            totals.merge(&r.stats);
            peak = peak.max(r.footprint);
            outputs.push(r.output);
            rank_stats.push(r.stats);
        }
        if peak > 0 {
            self.estimator.record(&job.spec.algorithm, &job.spec.graph, peak);
            self.registry
                .gauge(
                    "dfo_sched_estimate_error_ratio",
                    "Charged admission estimate over measured peak footprint \
                     (last completed job; >1 = over-estimate)",
                    &labels,
                )
                .set(job.estimate as f64 / peak as f64);
        }
        // cache traffic attributed at the jobs' own lookup sites; one series
        // per (graph, algorithm) — a single job's numbers are in its report
        self.registry
            .counter(
                "dfo_job_cache_hits_total",
                "Chunk-cache hits counted at the jobs' lookup sites",
                &labels,
            )
            .add(totals.chunk_cache_hits);
        self.registry
            .counter(
                "dfo_job_cache_misses_total",
                "Chunk-cache misses counted at the jobs' lookup sites",
                &labels,
            )
            .add(totals.chunk_cache_misses);
        self.registry
            .counter("dfo_jobs_completed_total", "Jobs that ran to completion", &labels)
            .inc();
        JobReport {
            id: job.id,
            graph: job.spec.graph.clone(),
            algorithm: job.spec.algorithm.clone(),
            outputs,
            rank_stats,
            totals,
            cache_window: out.cache_window,
            retries: job.retries(),
            elapsed,
        }
    }

    /// Refreshes the scheduler gauges (queue depth, running jobs).
    fn gauges(&self, s: &State) {
        self.registry
            .gauge("dfo_sched_queue_depth", "Jobs waiting for admission", &[])
            .set(s.queue.len() as f64);
        self.registry
            .gauge("dfo_sched_running_jobs", "Jobs currently admitted and running", &[])
            .set(s.running_jobs as f64);
    }

    /// Wakes a blocking [`Executor::next`] (a cancel token was set).
    pub fn wake(&self) {
        self.work.notify_all();
    }

    /// Jobs currently charged against the budget / waiting — `(running, queued)`.
    pub fn counts(&self) -> (usize, usize) {
        let s = self.state.lock();
        (s.running_jobs, s.queue.len())
    }

    /// Stops accepting jobs; [`Executor::next`] reports [`Next::Shutdown`]
    /// once the queue has drained and nothing runs.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_all();
    }

    pub fn is_shutdown(&self) -> bool {
        self.state.lock().shutdown
    }

    /// The give-up path: stops accepting jobs and fails everything still
    /// queued with a retryable error naming `cause`.
    pub fn abort(&self, cause: &DfoError) {
        let queued = {
            let mut s = self.state.lock();
            s.shutdown = true;
            s.queue = JobQueue::new(CLIENT_QUOTA);
            std::mem::take(&mut s.queued)
        };
        for job in queued.into_values() {
            job.finish(Err(DfoError::NetClosed(format!("the mesh died for good: {cause}"))));
        }
        self.work.notify_all();
    }
}

/// Executor-core tests with a fake runner: every scheduling decision driven
/// single-threaded and deterministically — no job ever touches a disk or a
/// mesh (the catalog's one tiny graph exists only so `submit` can resolve a
/// name).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ResultSlot;
    use dfo_algos::{AlgoOutput, OutputKind};
    use tempfile::TempDir;

    fn core(overlap_cap: usize) -> (TempDir, Executor) {
        let td = TempDir::new().unwrap();
        let core = Executor::new(EngineConfig::for_test(1), td.path().into(), overlap_cap).unwrap();
        core.catalog.load("g", &dfo_graph::gen::uniform(16, 40, 1)).unwrap();
        (td, core)
    }

    fn spec() -> JobSpec {
        JobSpec::new("g", "degree").with_mem_estimate(1)
    }

    fn submit(core: &Executor, spec: JobSpec) -> (Arc<Job>, Arc<ResultSlot>) {
        let slot = Arc::new(ResultSlot::default());
        let sink = slot.clone();
        let events = move |_: &Job, ev| {
            if let JobEvent::Finished(result) = ev {
                sink.put(*result);
            }
        };
        (core.submit(spec, Box::new(events)).unwrap(), slot)
    }

    fn admit(core: &Executor) -> Option<Arc<Job>> {
        match core.next(false)? {
            Next::Run(job) => Some(job),
            _ => panic!("expected an admission or nothing"),
        }
    }

    fn done() -> Result<RanksOut> {
        let output = AlgoOutput::from_values(OutputKind::U64, &[0u64; 16], None);
        let ranks = vec![RankResult { output, stats: PhaseStats::default(), footprint: 64 }];
        Ok(RanksOut { ranks, cache_window: Vec::new() })
    }

    fn net_closed() -> Result<RanksOut> {
        Err(DfoError::NetClosed("fake mesh failure".into()))
    }

    /// Runs one attempt with the fake outcome and ends it.
    fn run(core: &Executor, job: &Arc<Job>, outcome: Result<RanksOut>, mesh_dead: bool) {
        let mut attempt = core.attempt(job, |_, _| outcome);
        attempt.mesh_dead = mesh_dead;
        core.finish(job, attempt);
    }

    fn result(slot: &ResultSlot) -> Option<Result<JobReport>> {
        slot.take(Some(Instant::now()))
    }

    #[test]
    fn retry_budget_is_honoured_then_the_typed_error_surfaces() {
        let (_td, core) = core(usize::MAX);
        let (job, slot) = submit(&core, spec().with_max_retries(2));
        let mut scopes = Vec::new();
        while let Some(j) = admit(&core) {
            let attempt = core.attempt(&j, |_, scope| {
                scopes.push(scope.to_string());
                net_closed()
            });
            core.finish(&j, attempt);
        }
        assert_eq!(scopes, ["job0a0", "job0a1", "job0a2"], "one attempt plus two retries");
        assert_eq!(job.status().retries, 2);
        assert_eq!(job.status().phase, JobPhase::Failed);
        assert!(matches!(result(&slot), Some(Err(DfoError::NetClosed(_)))));

        // a non-retryable failure spends no budget
        let (job, slot) = submit(&core, spec().with_max_retries(3));
        run(&core, &admit(&core).unwrap(), Err(DfoError::Config("bad".into())), false);
        assert!(admit(&core).is_none());
        assert_eq!(job.status().retries, 0);
        assert!(matches!(result(&slot), Some(Err(DfoError::Config(_)))));
        assert_eq!(core.counts(), (0, 0));
    }

    #[test]
    fn a_requeued_job_keeps_its_place_and_yields_to_higher_priority() {
        let (_td, core) = core(1);
        let (a, _sa) = submit(&core, spec().with_max_retries(1));
        let (b, _sb) = submit(&core, spec());
        let first = admit(&core).unwrap();
        assert_eq!(first.id, a.id);
        run(&core, &first, net_closed(), false);
        assert_eq!(a.status().phase, JobPhase::Queued, "requeued, not failed");
        let (d, _sd) = submit(&core, spec().with_priority(9));
        let mut order = Vec::new();
        while let Some(j) = admit(&core) {
            order.push(j.id);
            run(&core, &j, done(), false);
        }
        assert_eq!(order, [d.id, a.id, b.id]);
        assert_eq!(a.status().retries, 1);
    }

    #[test]
    fn the_overlap_cap_is_never_exceeded() {
        let (_td, core) = core(2);
        for i in 0..5 {
            submit(&core, spec().with_client_id(format!("c{i}")));
        }
        let running: Vec<_> = std::iter::from_fn(|| admit(&core)).collect();
        assert_eq!(running.len(), 2);
        assert_eq!(core.counts(), (2, 3));
        run(&core, &running[0], done(), false);
        assert!(admit(&core).is_some(), "a freed slot admits exactly one more");
        assert!(admit(&core).is_none());
        assert_eq!(core.counts(), (2, 2));
    }

    #[test]
    fn cancelling_a_queued_job_withdraws_it_without_running() {
        let (_td, core) = core(1);
        let (_a, _sa) = submit(&core, spec());
        let (b, sb) = submit(&core, spec());
        let a = admit(&core).unwrap();
        b.cancel.store(true, Ordering::Relaxed);
        assert!(admit(&core).is_none());
        assert!(matches!(result(&sb), Some(Err(DfoError::Cancelled(_)))));
        assert_eq!(b.status().phase, JobPhase::Cancelled);
        run(&core, &a, done(), false);
        assert!(admit(&core).is_none(), "the withdrawn job never reaches a runner");
        assert_eq!(core.counts(), (0, 0));
    }

    /// The rank-0 daemon's growth bound: finished jobs beyond
    /// `FINISHED_JOBS_KEPT` leave the job table (oldest first, live jobs
    /// never), and per-job numbers never become registry series.
    #[test]
    fn finished_jobs_are_retained_up_to_a_bound_and_add_no_series() {
        let (_td, core) = core(usize::MAX);
        let table = JobTable::default();
        let (live, _slot) = submit(&core, spec()); // id 0: admitted, never finished
        table.insert(live.clone());
        assert_eq!(admit(&core).unwrap().id, live.id);
        for _ in 0..FINISHED_JOBS_KEPT + 50 {
            let (job, _slot) = submit(&core, spec());
            table.insert(job);
            run(&core, &admit(&core).unwrap(), done(), false);
        }
        let listed = table.list();
        let terminal = listed.iter().filter(|s| s.phase.is_terminal()).count();
        assert_eq!(listed.len(), FINISHED_JOBS_KEPT, "the table is full, not over");
        assert_eq!(terminal, FINISHED_JOBS_KEPT - 1);
        assert_eq!(listed[0].id, live.id, "a live job is never evicted");
        assert!(!listed[0].phase.is_terminal());
        assert_eq!(listed[1].id, 52, "the oldest 51 finished jobs went first");
        // cancelling an evicted id is a no-op: nothing is flagged, nothing wakes
        table.cancel(1);
        assert!(listed.iter().all(|s| s.id != 1));
        assert!(!live.cancel.load(Ordering::Relaxed));
        assert_eq!(core.counts(), (1, 0));

        let scrape = core.registry.snapshot().to_prometheus();
        let series = |family: &str| {
            scrape.lines().filter(|l| l.starts_with(family) && l.contains('{')).count()
        };
        assert_eq!(series("dfo_job_cache_hits_total"), 1, "one series per (graph, algorithm)");
        assert_eq!(series("dfo_job_cache_misses_total"), 1);
    }

    #[test]
    fn a_dead_mesh_drains_its_jobs_then_requeues_only_the_retryable() {
        let (_td, core) = core(3);
        let (retry, _s0) = submit(&core, spec().with_max_retries(1));
        let (spent, s1) = submit(&core, spec()); // retryable error, no budget
        let (fatal, s2) = submit(&core, spec().with_max_retries(3)); // budget, wrong error
        let jobs: Vec<_> = std::iter::from_fn(|| admit(&core)).collect();
        assert_eq!(jobs.len(), 3);

        run(&core, &jobs[0], net_closed(), true);
        assert_eq!(retry.status().phase, JobPhase::Queued);
        // the mesh is dead: the requeued job is not re-admitted, and the
        // generation does not end while jobs still run on it
        assert!(core.next(false).is_none());
        run(&core, &jobs[1], net_closed(), true);
        assert!(core.next(false).is_none());
        run(&core, &jobs[2], Err(DfoError::Config("bad".into())), true);
        assert!(matches!(result(&s1), Some(Err(DfoError::NetClosed(_)))));
        assert!(matches!(result(&s2), Some(Err(DfoError::Config(_)))));
        assert_eq!(
            (spent.status().phase, fatal.status().phase),
            (JobPhase::Failed, JobPhase::Failed)
        );

        match core.next(false) {
            Some(Next::MeshDead(e)) => assert!(e.to_string().contains("job 0 failed"), "{e}"),
            _ => panic!("a drained dead mesh must end the generation"),
        }
        // the relaunched generation re-runs exactly the requeued job
        let again = admit(&core).unwrap();
        assert_eq!((again.id, again.status().retries), (retry.id, 1));
        run(&core, &again, done(), false);
        assert!(admit(&core).is_none());
        assert_eq!(core.counts(), (0, 0));
    }
}
