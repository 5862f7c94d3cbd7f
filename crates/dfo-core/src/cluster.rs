//! Cluster lifecycle: builds the per-node disks and network, preprocesses
//! graphs, and runs SPMD node programs.
//!
//! Every way of running a node program goes through one rank-launch body
//! (`Cluster::run_rank`): the only place a [`NodeCtx`] is built and a node
//! closure is `catch_unwind`-ed. Failure is a value: collectives return
//! their mesh failure as [`DfoError::NetClosed`], which the engine passes
//! up with `?`, so a panic that reaches the launch body is a bug and
//! becomes the non-retryable [`DfoError::Panic`]. The entry points differ
//! in the transport the rank runs over and in nothing else:
//!
//! * [`Cluster::run`] / [`Cluster::run_scoped`] — every rank a thread of
//!   this process, over the in-memory simulation.
//! * [`Cluster::run_distributed`] — this process is one rank: connect a
//!   [`ResidentMesh`] over TCP, run the program as its one job.
//! * [`Cluster::run_supervised`] — the same, and
//!   [relaunch](ResidentMesh::relaunch) the mesh and re-run on a mesh
//!   failure.
//! * [`ResidentMesh::run_job_as`] — a long-lived mesh (the service daemon)
//!   running many jobs, each in its own tag namespace.
//!
//! ## The cancel-vs-poison rule
//!
//! A cooperative [`DfoError::Cancelled`] is a *collective* unwind — every
//! rank agreed on it in the same all-reduce at the same `Process`-call
//! boundary ([`NodeCtx::set_cancel_token`]) — so it **never poisons**: the
//! mesh stays consistent for the jobs overlapping it and the ones after
//! it. **Every other** error or panic (including a context that fails to
//! build) poisons the mesh, so peers blocked on the failed rank get
//! [`DfoError::NetClosed`] from their next collective instead of hanging.

use crate::node::NodeCtx;
use crate::resident::ResidentMesh;
use dfo_graph::edge::EdgeList;
use dfo_net::{Endpoint, NetStats, NetTotals, SimCluster};
use dfo_obs::{FlightRecorder, Registry, SpanRecord, Telemetry};
use dfo_part::plan::Plan;
use dfo_part::preprocess::preprocess;
use dfo_storage::{ChunkCache, ChunkCacheStats, NodeDisk};
use dfo_types::{gather_ranks, DfoError, EngineConfig, Pod, Rank, RecoveryStats, Result};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-rank flight-recorder capacity in spans when `cfg.trace_path` is set;
/// a run that records more overwrites its oldest spans (drops are counted).
const TRACE_CAPACITY: usize = 1 << 16;

/// Job id (tag namespace) of the one job a batch run's mesh carries.
const BATCH_JOB: u64 = 0;

/// Gives the heap a finished job freed back to the OS, at most every
/// [`HEAP_RELEASE_EVERY`] across the process. glibc keeps what a thread
/// frees in that thread's arena and trims an arena only when a large free
/// finds its top free. A rank frees its vertex blocks and buffers at the
/// end of a job and little that is large follows, so without this a
/// finished job's memory stays mapped: the benchmark's loopback-TCP
/// PageRank (2 ranks on a 2-core x86-64 Linux host, glibc 2.36) peaked a
/// quarter higher.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    static LAST: std::sync::Mutex<Option<std::time::Instant>> = std::sync::Mutex::new(None);
    // another rank releasing right now covers this one too
    let Ok(mut last) = LAST.try_lock() else { return };
    if last.is_some_and(|t| t.elapsed() < HEAP_RELEASE_EVERY) {
        return;
    }
    *last = Some(std::time::Instant::now());
    // SAFETY: malloc_trim takes no pointers and may run concurrently with
    // any allocation
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

/// How often [`release_freed_heap`] may walk the allocator's arenas: rarely
/// enough that a daemon finishing hundreds of small jobs a second pays for
/// a few walks a second.
const HEAP_RELEASE_EVERY: std::time::Duration = std::time::Duration::from_millis(50);

/// Owned label pairs in the borrowed form the registry takes.
fn borrowed(labels: &[(String, String)]) -> Vec<(&str, &str)> {
    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

/// A simulated DFOGraph cluster rooted at a base directory; node `i`'s disk
/// lives under `<base>/n<i>/`.
pub struct Cluster {
    cfg: EngineConfig,
    base: PathBuf,
    disks: Vec<NodeDisk>,
    /// Per-rank decoded-chunk caches, shared across `run` calls so iterative
    /// jobs keep their warm chunks between runs. Empty when
    /// `chunk_cache_bytes == 0` (nothing is allocated).
    chunk_caches: Vec<Arc<ChunkCache>>,
    last_net: Mutex<Vec<Arc<NetStats>>>,
    /// Checkpoint-restart counters of the most recent supervised run
    /// (`Arc` so the metrics pull source can sample them at scrape time).
    recovery: Arc<Mutex<RecoveryStats>>,
    /// Ahead-rank rollbacks across every run on this cluster, shared into
    /// each [`NodeCtx`] so the count survives per-attempt context rebuilds.
    rollbacks: Arc<AtomicU64>,
    /// Metrics registry every run on this cluster feeds; shareable across
    /// clusters via [`Cluster::create_with_registry`].
    registry: Arc<Registry>,
    /// Extra base labels (e.g. `graph`) on every series this cluster emits.
    labels: Vec<(String, String)>,
    /// Per-rank network totals, folded in at the end of **every** run and
    /// distributed attempt. Endpoints live one run (a supervised restart
    /// builds a fresh one), so these accumulators — not
    /// [`Cluster::net_stats`] — are what survives endpoint churn.
    net_accum: Arc<Mutex<Vec<NetTotals>>>,
}

impl Cluster {
    /// Creates (or reopens) a cluster. Disk bandwidth throttles and traffic
    /// recording follow the config. The cluster gets its own private
    /// metrics registry; use [`Cluster::create_with_registry`] to share one.
    pub fn create(cfg: EngineConfig, base: impl Into<PathBuf>) -> Result<Self> {
        Self::create_with_registry(cfg, base, Registry::new(), &[])
    }

    /// Like [`Cluster::create`] but feeding an externally owned metrics
    /// [`Registry`], with `labels` (e.g. `[("graph", "wiki")]`) attached to
    /// every series — how a service scrapes several resident graphs from
    /// one endpoint. Registers pull sources for the per-rank disk,
    /// chunk-cache and accumulated network counters; run-time telemetry
    /// (phase histograms, collective latencies) lands in the same registry.
    pub fn create_with_registry(
        cfg: EngineConfig,
        base: impl Into<PathBuf>,
        registry: Arc<Registry>,
        labels: &[(&str, &str)],
    ) -> Result<Self> {
        cfg.validate().map_err(DfoError::Config)?;
        let base = base.into();
        let disks = (0..cfg.nodes)
            .map(|i| NodeDisk::new(base.join(format!("n{i}")), cfg.disk_bw, cfg.record_traffic))
            .collect::<Result<Vec<_>>>()?;
        let chunk_caches: Vec<Arc<ChunkCache>> = if cfg.chunk_cache_bytes > 0 {
            (0..cfg.nodes).map(|_| Arc::new(ChunkCache::new(cfg.chunk_cache_bytes))).collect()
        } else {
            Vec::new()
        };
        let net_accum = Arc::new(Mutex::new(vec![NetTotals::default(); cfg.nodes]));
        let this = Self {
            cfg,
            base,
            disks,
            chunk_caches,
            last_net: Mutex::new(Vec::new()),
            recovery: Arc::new(Mutex::new(RecoveryStats::default())),
            rollbacks: Arc::new(AtomicU64::new(0)),
            registry,
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            net_accum,
        };
        this.register_sources();
        Ok(this)
    }

    /// Registers the pull-model sources that expose the cluster's existing
    /// atomic stats surfaces through the registry: sampled only at scrape
    /// time, so the engine's hot paths pay nothing.
    fn register_sources(&self) {
        let disks = self.disks.clone();
        let caches = self.chunk_caches.clone();
        let accum = self.net_accum.clone();
        let recovery = self.recovery.clone();
        let rollbacks = self.rollbacks.clone();
        let base = self.labels.clone();
        self.registry.register_source(Box::new(move |buf| {
            let with_rank = |rank: usize| -> Vec<(String, String)> {
                let mut l = base.clone();
                l.push(("rank".into(), rank.to_string()));
                l
            };
            for (rank, d) in disks.iter().enumerate() {
                let owned = with_rank(rank);
                let l = borrowed(&owned);
                let s = d.stats();
                buf.counter(
                    "dfo_disk_read_bytes_total",
                    "Physical disk bytes read",
                    &l,
                    s.read_bytes.get(),
                );
                buf.counter(
                    "dfo_disk_write_bytes_total",
                    "Physical disk bytes written",
                    &l,
                    s.write_bytes.get(),
                );
                buf.counter(
                    "dfo_disk_read_nanos_total",
                    "Wall nanoseconds inside disk reads (op + throttle)",
                    &l,
                    s.read_nanos.get(),
                );
                buf.counter(
                    "dfo_disk_write_nanos_total",
                    "Wall nanoseconds inside disk writes (op + throttle)",
                    &l,
                    s.write_nanos.get(),
                );
                buf.counter(
                    "dfo_chunk_encode_nanos_total",
                    "Wall nanoseconds LZ4-encoding chunk frames",
                    &l,
                    s.encode_nanos.get(),
                );
                buf.counter(
                    "dfo_chunk_decode_nanos_total",
                    "Wall nanoseconds decoding/checksumming chunk frames",
                    &l,
                    s.decode_nanos.get(),
                );
            }
            for (rank, c) in caches.iter().enumerate() {
                let owned = with_rank(rank);
                let l = borrowed(&owned);
                let s = c.stats();
                buf.counter("dfo_chunk_cache_hits_total", "Decoded-chunk cache hits", &l, s.hits);
                buf.counter(
                    "dfo_chunk_cache_misses_total",
                    "Decoded-chunk cache misses",
                    &l,
                    s.misses,
                );
                buf.counter(
                    "dfo_chunk_cache_evicted_bytes_total",
                    "Decoded bytes evicted to stay in budget",
                    &l,
                    s.evicted_bytes,
                );
                buf.gauge(
                    "dfo_chunk_cache_resident_bytes",
                    "Decoded bytes currently resident",
                    &l,
                    s.resident_bytes as f64,
                );
            }
            {
                let l = borrowed(&base);
                buf.counter(
                    "dfo_restarts_total",
                    "Mesh re-bootstraps of the most recent supervised run",
                    &l,
                    recovery.lock().restarts,
                );
                buf.counter(
                    "dfo_rollbacks_total",
                    "Ahead-rank one-checkpoint rollbacks across this cluster's runs",
                    &l,
                    rollbacks.load(Ordering::Relaxed),
                );
            }
            for (rank, t) in accum.lock().iter().enumerate() {
                let owned = with_rank(rank);
                let l = borrowed(&owned);
                buf.counter(
                    "dfo_net_sent_bytes_total",
                    "Wire bytes sent, accumulated across runs and restarts",
                    &l,
                    t.sent_bytes,
                );
                buf.counter(
                    "dfo_net_recv_bytes_total",
                    "Wire bytes received, accumulated across runs and restarts",
                    &l,
                    t.recv_bytes,
                );
                buf.counter(
                    "dfo_net_sent_frames_total",
                    "Frames sent, accumulated across runs and restarts",
                    &l,
                    t.sent_frames,
                );
            }
        }));
    }

    /// Builds the telemetry context one rank's [`NodeCtx`] runs under.
    fn rank_telemetry(&self, rank: Rank, recorder: Option<&Arc<FlightRecorder>>) -> Telemetry {
        let mut tele = Telemetry::new(self.registry.clone());
        for (k, v) in &self.labels {
            tele = tele.with_label(k, v);
        }
        tele = tele.with_label("rank", &rank.to_string());
        if let Some(rec) = recorder {
            tele = tele.with_tracer(rec.clone());
        }
        tele
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn base(&self) -> &PathBuf {
        &self.base
    }

    pub fn disks(&self) -> &[NodeDisk] {
        &self.disks
    }

    /// Runs DFOGraph preprocessing for `g` onto the node disks (§2.2, §4).
    /// Any chunks cached from a previous graph are dropped: the cache keys
    /// on `(partition, batch, repr)` and re-preprocessing rewrites those
    /// files in place.
    pub fn preprocess<E: Pod + PartialEq>(&self, g: &EdgeList<E>) -> Result<Plan> {
        for c in &self.chunk_caches {
            c.clear();
        }
        Ok(preprocess(g, &self.cfg, &self.disks)?.plan)
    }

    /// Runs `f` once per node, SPMD-style, each on its own OS thread with
    /// its own [`NodeCtx`]. Returns the per-node results in rank order.
    ///
    /// A node that fails (error or panic) poisons the mesh, which surfaces
    /// as `DfoError::NetClosed` on its peers — the failure model the
    /// checkpointing tests exercise. The run returns the failing node's own
    /// error, not its peers' `NetClosed` (see [`dfo_types::gather_ranks`]).
    pub fn run<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Sync,
    {
        self.run_sim(None, f)
    }

    /// Like [`Cluster::run`], but every rank's *mutable* state — vertex
    /// arrays, checkpoints, `ProcessEdges` message spills — lives under the
    /// private subdirectory `<base>/n<i>/<sub>/` instead of directly in the
    /// node root, while read-only graph data (plan, chunks, dispatch graphs,
    /// filter lists) is still read from the node root. Scoped runs with
    /// distinct `sub` names therefore never collide on files, which is what
    /// lets a service multiplex **concurrent jobs** over one preprocessed
    /// graph; they still share the per-rank chunk caches and the disk
    /// bandwidth throttle (the scoped disk shares the node disk's throttle
    /// and counters). Call [`Cluster::remove_scratch`] when the job's
    /// results have been read out.
    pub fn run_scoped<T, F>(&self, sub: &str, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Sync,
    {
        self.run_sim(Some(sub), f)
    }

    /// The one rank-launch body: every `run*` entry point (and
    /// [`crate::ResidentMesh::run_job_as`]) builds its [`NodeCtx`] and runs
    /// its node closure here, and nowhere else.
    ///
    /// `scope` is the job-private scratch subdirectory (`None`: the node
    /// root). `process_epoch` is `Some(epoch)` when this rank is a whole OS
    /// process on a TCP mesh bootstrapped at `epoch` — the context then
    /// reports that epoch and an injected crash aborts the process like a
    /// SIGKILL — and `None` for the in-process simulation, where a crash
    /// merely panics the node thread.
    ///
    /// When `f` returns, the context's vertex arrays end the job: an
    /// unscoped run that succeeded flushes their dirty blocks, since the
    /// next run on this directory reopens the files; a scoped run (whose
    /// scratch is deleted next) or a failed one discards them. Then it
    /// applies the [cancel-vs-poison rule](self#the-cancel-vs-poison-rule):
    /// `Ok` and `Cancelled` leave the mesh alone, anything else poisons it.
    pub(crate) fn run_rank<T>(
        &self,
        rank: Rank,
        ep: Endpoint,
        scope: Option<&str>,
        recorder: Option<&Arc<FlightRecorder>>,
        process_epoch: Option<u64>,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let disk = self.disks[rank].clone();
        let opened = Plan::load(&disk).and_then(|plan| match scope {
            Some(sub) => Ok((plan, disk.scoped(sub)?)),
            None => Ok((plan, disk.clone())),
        });
        let (plan, scratch) = match opened {
            Ok(o) => o,
            Err(e) => {
                ep.poison_collective();
                return Err(e);
            }
        };
        let mut cfg = self.cfg.clone();
        cfg.epoch = process_epoch.unwrap_or(cfg.epoch);
        let cache = self.chunk_caches.get(rank).cloned();
        let mut ctx = NodeCtx::new(rank, cfg, disk, scratch, plan, ep, cache)?;
        ctx.rollbacks = self.rollbacks.clone();
        ctx.crash_abort = process_epoch.is_some();
        ctx.set_telemetry(self.rank_telemetry(rank, recorder));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut ctx)))
            .unwrap_or_else(|panic| Err(DfoError::from_panic(panic, &format!("rank {rank}"))));
        let closed = ctx.close_arrays(scope.is_none() && res.is_ok());
        let res = res.and_then(|v| closed.map(|()| v));
        if !matches!(res, Ok(_) | Err(DfoError::Cancelled(_))) {
            ctx.net().poison_collective();
        }
        drop(ctx);
        release_freed_heap();
        res
    }

    fn run_sim<T, F>(&self, scope: Option<&str>, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> Result<T> + Sync,
    {
        let endpoints = SimCluster::build(self.cfg.nodes, self.cfg.net_bw, self.cfg.record_traffic);
        *self.last_net.lock() = endpoints.iter().map(|e| e.stats_arc()).collect();
        // one flight recorder per rank when tracing; merged into one
        // timeline file after the run
        let recorders: Option<Vec<Arc<FlightRecorder>>> =
            self.cfg.trace_path.as_ref().map(|_| {
                (0..self.cfg.nodes).map(|_| FlightRecorder::new(TRACE_CAPACITY)).collect()
            });
        let mut results: Vec<Result<T>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let recorder = recorders.as_ref().map(|r| &r[rank]);
                    let f = &f;
                    s.spawn(move || self.run_rank(rank, ep, scope, recorder, None, f))
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                results.push(h.join().unwrap_or_else(|panic| {
                    Err(DfoError::from_panic(panic, &format!("rank {rank} thread")))
                }));
            }
        });
        // satellite telemetry work happens after the run and never fails it
        {
            let stats = self.last_net.lock();
            let mut acc = self.net_accum.lock();
            for (rank, s) in stats.iter().enumerate() {
                acc[rank].add_stats(s);
            }
        }
        if let (Some(path), Some(recs)) = (self.cfg.trace_path.as_deref(), recorders.as_ref()) {
            let ranks: Vec<(usize, Vec<SpanRecord>)> =
                recs.iter().enumerate().map(|(r, fr)| (r, fr.snapshot())).collect();
            if let Err(e) = dfo_obs::write_trace_file(std::path::Path::new(path), &ranks) {
                eprintln!("[dfo] warning: writing trace file {path}: {e}");
            }
        }
        gather_ranks(results)
    }

    /// Runs `f` as **one rank of a multi-process cluster**: connects a
    /// [`ResidentMesh`] over `cfg.peers` (every rank must run this with the
    /// same config and a disk holding the same preprocessed plan) and runs
    /// `f` on it as the mesh's one job.
    ///
    /// This is the single-rank sibling of [`Cluster::run`]: the same engine
    /// code runs unchanged, only the transport differs. A rank that fails
    /// (error or panic) poisons the mesh so survivors get
    /// [`DfoError::NetClosed`] back from their next collective instead of
    /// hanging; a rank whose peer process dies mid-run gets the same. A
    /// panic in `f` is [`DfoError::Panic`].
    pub fn run_distributed<T>(
        &self,
        rank: Rank,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        self.run_on_mesh(&self.connect_mesh(rank)?, f)
    }

    /// Runs `f` as one rank of a multi-process cluster **with
    /// checkpoint-restart**: like [`Cluster::run_distributed`], but a mesh
    /// failure (a peer process died, or a bootstrap handshake failed) does
    /// not abort the job. Instead the rank [relaunches the
    /// mesh](ResidentMesh::relaunch) — the protocol it shares with the
    /// service daemon: quiesce, next epoch, re-bootstrap, up to
    /// `cfg.max_restarts` times — and re-executes `f` from scratch.
    ///
    /// Pair it with a [`crate::Supervisor`] in the parent process: the
    /// supervisor relaunches the dead rank under the incremented epoch
    /// (`DFO_EPOCH`) while the survivors loop here in place. `f` must be
    /// written recovery-style (§3.2): open its arrays with
    /// [`NodeCtx::vertex_array`] (which recovers the last committed
    /// checkpoint), agree on the global resume point — e.g. via
    /// [`NodeCtx::committed_round`] — and re-execute deterministically
    /// from there, so the {crash, no-crash} results stay bit-identical and
    /// at most one `Process` call is lost.
    ///
    /// Non-mesh errors stay fatal: I/O, corruption, configuration — and
    /// panics in `f` itself, which come back as the non-retryable
    /// [`DfoError::Panic`]. Collectives return a mesh failure as a
    /// `NetClosed` value, so only genuine mesh failures are retried. An
    /// exhausted restart budget surfaces as [`DfoError::RestartsExhausted`].
    pub fn run_supervised<T>(
        &self,
        rank: Rank,
        mut f: impl FnMut(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        // the mesh gives up by handing the last mesh failure back
        let exhausted = |e| match e {
            e @ (DfoError::NetClosed(_) | DfoError::Handshake(_)) => {
                DfoError::RestartsExhausted { attempts: self.cfg.max_restarts, last: Box::new(e) }
            }
            e => e,
        };
        let rollback_base = self.rollbacks.load(Ordering::Relaxed);
        let mut mesh = self.connect_mesh(rank).map_err(exhausted)?;
        loop {
            let res = self.run_on_mesh(&mesh, &mut f);
            *self.recovery.lock() = RecoveryStats {
                restarts: mesh.restarts() as u64,
                mesh_epoch: mesh.epoch(),
                rollbacks: self.rollbacks.load(Ordering::Relaxed) - rollback_base,
            };
            match res {
                Err(e @ (DfoError::NetClosed(_) | DfoError::Handshake(_))) => {
                    mesh = mesh.relaunch(e).map_err(exhausted)?;
                }
                res => return res,
            }
        }
    }

    /// This rank's mesh, publishing its epoch and recovery times into the
    /// cluster's registry.
    fn connect_mesh(&self, rank: Rank) -> Result<ResidentMesh> {
        Ok(ResidentMesh::connect(&self.cfg, rank)?.with_telemetry(self.rank_telemetry(rank, None)))
    }

    /// A batch run: `f` as the one job of `mesh`, in the node root, with
    /// the run's network counters and trace spans accounted to this
    /// cluster.
    fn run_on_mesh<T>(
        &self,
        mesh: &ResidentMesh,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let stats = mesh.net_stats();
        *self.last_net.lock() = vec![stats.clone()];
        let recorder = self.cfg.trace_path.as_ref().map(|_| FlightRecorder::new(TRACE_CAPACITY));
        let out = mesh.launch(BATCH_JOB, self, None, recorder.as_ref(), |ctx| {
            let v = f(ctx)?;
            // collective: every rank ships its spans to rank 0, which
            // writes the merged timeline. cfg.trace_path is part of the
            // replicated config, so either all ranks enter or none do.
            if let Some(rec) = &recorder {
                self.flush_distributed_trace(ctx, rec);
            }
            Ok(v)
        });
        // fold after the trace gather so its frames are counted too
        self.net_accum.lock()[mesh.rank()].add_stats(&stats);
        out
    }

    /// Gathers every rank's trace spans to rank 0 over the mesh and writes
    /// the merged timeline. Telemetry never fails the job: every error path
    /// warns on stderr and returns.
    fn flush_distributed_trace(&self, ctx: &mut NodeCtx, recorder: &Arc<FlightRecorder>) {
        let Some(path) = self.cfg.trace_path.as_deref() else { return };
        let mut out = vec![Vec::new(); self.cfg.nodes];
        out[0] = dfo_obs::encode_spans(&recorder.snapshot());
        match ctx.exchange(out) {
            Ok(incoming) => {
                if ctx.rank() != 0 {
                    return;
                }
                let mut ranks: Vec<(usize, Vec<SpanRecord>)> = Vec::new();
                for (r, bytes) in incoming.into_iter().enumerate() {
                    if bytes.is_empty() {
                        continue;
                    }
                    match dfo_obs::decode_spans(&bytes) {
                        Ok(spans) => ranks.push((r, spans)),
                        Err(e) => {
                            eprintln!("[dfo] warning: rank {r} trace spans undecodable: {e}")
                        }
                    }
                }
                if let Err(e) = dfo_obs::write_trace_file(std::path::Path::new(path), &ranks) {
                    eprintln!("[dfo] warning: writing trace file {path}: {e}");
                }
            }
            Err(e) => eprintln!("[dfo] warning: gathering trace spans: {e}"),
        }
    }

    /// Checkpoint-restart counters of the most recent
    /// [`Cluster::run_supervised`] call on this handle (zeroes if it never
    /// had to recover).
    pub fn recovery_stats(&self) -> RecoveryStats {
        *self.recovery.lock()
    }

    /// Aggregate disk bytes (read + written) across all nodes.
    pub fn total_disk_bytes(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().total_bytes()).sum()
    }

    pub fn total_disk_read(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().read_bytes.get()).sum()
    }

    pub fn total_disk_written(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().write_bytes.get()).sum()
    }

    /// Aggregate bytes sent on the wire during the most recent `run`.
    pub fn total_net_sent(&self) -> u64 {
        self.last_net.lock().iter().map(|s| s.sent_bytes.get()).sum()
    }

    /// Per-node network stats of the **most recent** `run` (or distributed
    /// attempt — one entry, this rank's). Endpoints live one run, so these
    /// zero at every run/restart boundary; use [`Cluster::net_totals`] for
    /// telemetry that survives endpoint churn.
    pub fn net_stats(&self) -> Vec<Arc<NetStats>> {
        self.last_net.lock().clone()
    }

    /// Per-rank network totals accumulated at the end of every run and
    /// every distributed attempt (supervised restarts included). In
    /// distributed mode only this process's own rank entry moves.
    pub fn net_totals(&self) -> Vec<NetTotals> {
        self.net_accum.lock().clone()
    }

    /// The metrics registry every run on this cluster feeds (shared with
    /// the owner when built via [`Cluster::create_with_registry`]).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Per-rank chunk-cache counters; empty when the cache is disabled
    /// (`chunk_cache_bytes == 0` allocates nothing).
    ///
    /// These are **cumulative over the cluster's lifetime** (the caches are
    /// shared across `run` calls on purpose, so iterative jobs keep warm
    /// chunks). To attribute counters to one window, snapshot before and
    /// diff with [`ChunkCacheStats::delta_since`]; per-job attribution under
    /// *concurrent* jobs needs the per-call counters in
    /// [`dfo_types::PhaseStats`] instead, which are counted at each job's
    /// own lookup sites.
    pub fn chunk_cache_stats(&self) -> Vec<ChunkCacheStats> {
        self.chunk_caches.iter().map(|c| c.stats()).collect()
    }

    /// Deletes the per-rank scratch subdirectories a [`Cluster::run_scoped`]
    /// call left behind (`<base>/n<i>/<sub>/`). Missing directories are
    /// fine — cleanup is idempotent.
    pub fn remove_scratch(&self, sub: &str) -> Result<()> {
        for d in &self.disks {
            let dir = d.root().join(sub);
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| {
                    DfoError::io(format!("removing scratch dir {}", dir.display()), e)
                })?;
            }
        }
        Ok(())
    }

    /// Zeroes disk counters (between preprocessing and timed runs).
    pub fn reset_disk_stats(&self) {
        for d in &self.disks {
            d.stats().reset();
        }
    }
}
