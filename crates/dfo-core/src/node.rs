//! Per-node engine state and `ProcessVertices`.
//!
//! A [`NodeCtx`] is what the SPMD closure passed to
//! [`crate::Cluster::run`] receives: the node's rank, its throttled disk,
//! its network endpoint, the replicated preprocessing plan, and the vertex
//! array registry. All engine APIs hang off it.

use crate::accum::Accum;
use crate::array::{ArrayEntry, BatchCtx, VertexArray, PAGE_SIZE};
use crate::messages::{pack_vector, unpack_vector, FrameCodec};
use bytes::Bytes;
use dfo_net::Endpoint;
use dfo_part::csr::SeekFile;
use dfo_part::plan::{ChunkInfo, Plan};
use dfo_storage::{ChunkCache, ChunkCacheStats, ChunkPool, CommitLog, MemBudget, NodeDisk};
use dfo_types::ids::split_into_batches;
use dfo_types::{CrashPos, DfoError, EngineConfig, PhaseStats, Pod, Rank, Result, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Scratch-relative path of the per-call commit record (one per node).
const COMMITS_REL: &str = "arrays/COMMITS.bin";

/// Telemetry state of one context: the handle itself plus the histograms
/// the hot paths observe, resolved once in [`NodeCtx::set_telemetry`] so
/// per-call instrumentation never takes the registry lock.
pub(crate) struct NodeObs {
    pub(crate) tele: dfo_obs::Telemetry,
    /// `dfo_phase_seconds{phase=…}`, indexed generate/pass/dispatch/process.
    pub(crate) phase_secs: [Arc<dfo_obs::ObsHistogram>; 4],
    /// `dfo_chunk_load_seconds`: full chunk / dispatch-graph loads on a
    /// cache miss (read + decode + index build).
    pub(crate) chunk_load_secs: Arc<dfo_obs::ObsHistogram>,
    /// `dfo_ckpt_commit_seconds`: epoch commits when checkpointing is on.
    pub(crate) ckpt_commit_secs: Arc<dfo_obs::ObsHistogram>,
    /// `dfo_process_calls_total{kind=edges|vertices}`.
    pub(crate) edges_calls: Arc<dfo_obs::ObsCounter>,
    pub(crate) vertices_calls: Arc<dfo_obs::ObsCounter>,
}

pub struct NodeCtx {
    pub(crate) rank: Rank,
    pub(crate) cfg: EngineConfig,
    pub(crate) disk: NodeDisk,
    /// Where this context's *mutable* state lives: vertex arrays (and their
    /// checkpoints) and `ProcessEdges` message spills. Defaults to `disk`;
    /// [`crate::Cluster::run_scoped`] points it at a job-private
    /// subdirectory so concurrent jobs over one graph never collide, while
    /// read-only graph data (plan, chunks, dispatch graphs, filter lists) is
    /// always read from `disk`. Shares `disk`'s throttle and byte counters,
    /// so scoped jobs still contend for the same simulated device.
    pub(crate) scratch: NodeDisk,
    pub(crate) net: Endpoint,
    pub(crate) plan: Plan,
    pub(crate) arrays: HashMap<String, Arc<ArrayEntry>>,
    /// `chunk_map[p][b]`: metadata of the edge chunk from partition `p` to
    /// local batch `b`, if it has edges.
    pub(crate) chunk_map: Vec<Vec<Option<ChunkInfo>>>,
    /// Memory-budgeted cache of decoded edge chunks and dispatch graphs,
    /// shared across `process_edges` calls (and across runs when owned by a
    /// [`crate::Cluster`]). `None` when `chunk_cache_bytes == 0`.
    pub(crate) chunk_cache: Option<Arc<ChunkCache>>,
    /// The one budget that keeps bytes which are not edges off the disk:
    /// half of `mem_budget`, the half the batch-sizing rule (§2.2) leaves to
    /// everything but the batches being worked on. Resident vertex-array
    /// blocks (with checkpointing off written back once per job, so their
    /// per-call writes and re-reads are both saved; with it on written
    /// through), `ProcessEdges` message chunks (`msg_pool`) and held filter
    /// lists (`filters`) all draw on it, admitted until it is full and
    /// never evicted. Whatever does not fit goes through the disk exactly as
    /// in the fully-out-of-core engine — which is this budget at capacity 0.
    pub(crate) pool: Arc<MemBudget>,
    pub(crate) msg_pool: Arc<ChunkPool>,
    /// `filters[j]`: the §4.3 list `L_{rank,j}` once a `ProcessEdges` call
    /// has read it and `pool` admitted its `8 + 4·len` bytes, held for the
    /// rest of the job (graph files are read-only for the life of the
    /// context).
    pub(crate) filters: Vec<OnceLock<Arc<[u32]>>>,
    pub(crate) call_seq: u64,
    pub(crate) last_stats: PhaseStats,
    /// `Process` calls whose epoch commit completed in this context's
    /// lifetime — the clock the deterministic crash hook
    /// (`cfg.crash_schedule` / `DFO_CRASH_AT`) counts against. Resets per
    /// incarnation; the *persistent* call clock is the commit record's
    /// sequence number.
    pub(crate) calls_committed: AtomicU64,
    /// Per-call commit record spanning every checkpointed array of this
    /// context (`arrays/COMMITS.bin` on the scratch disk), the only
    /// checkpoint metadata. `Some` exactly when checkpointing; rewritten
    /// atomically after each `Process` call's per-array commits, so a crash
    /// between those commits is detected at recovery and the torn call
    /// discarded whole.
    pub(crate) commit_log: Option<parking_lot::Mutex<CommitLog>>,
    /// Ahead-rank rollbacks this context performed (shared with the owning
    /// [`crate::Cluster`] across supervised attempts, so the count survives
    /// context rebuilds).
    pub(crate) rollbacks: Arc<AtomicU64>,
    /// How an injected crash dies: `false` (in-process simulation) fails
    /// the rank with the mesh failure its death causes its peers, a
    /// retryable `NetClosed`; `true` (one-rank-per-process deployments)
    /// aborts the whole OS process — indistinguishable from a SIGKILL.
    pub(crate) crash_abort: bool,
    /// Cooperative cancellation token, checked at `Process`-call boundaries.
    /// Must be installed on **all** ranks of a run or none: the check is a
    /// collective (an allreduce agrees whether anyone saw the flag), so a
    /// partial installation would desynchronise the mesh.
    pub(crate) cancel: Option<Arc<AtomicBool>>,
    /// Chunk-cache lookups this `ProcessEdges` call that hit / missed,
    /// counted at the lookup site (`load_indexed`) rather than diffed from
    /// the shared cache's cumulative counters — so the numbers stay
    /// attributable to *this* context even when other jobs hammer the same
    /// cache concurrently.
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    /// Sum of every `ProcessEdges` call's [`PhaseStats`] over this
    /// context's lifetime — the per-job totals a service reports.
    pub(crate) job_stats: PhaseStats,
    /// Files of stored edge chunks and dispatching graphs that seek-mode
    /// readers of the last `ProcessEdges` calls used, by path, with the
    /// `call_seq` of the call that last did: the next call resumes a seeker
    /// on one (file, directory and last blocks) instead of reopening it,
    /// and a call drops those it did not use when it ends. Graph files are
    /// read-only for the life of the context.
    pub(crate) seekers: parking_lot::Mutex<HashMap<String, (u64, SeekFile)>>,
    /// Frame codecs of the last `ProcessEdges` call's streams — one sender,
    /// a receiver per peer, as calls never overlap: the next call's streams
    /// take them, buffers and match table, so a call past the first codes
    /// and decodes its frames without allocating.
    pub(crate) codecs: parking_lot::Mutex<Vec<FrameCodec>>,
    /// Metrics + tracing context; `None` (contexts built outside a
    /// telemetry-wired [`crate::Cluster`]) costs one branch per
    /// instrumentation point and nothing else.
    pub(crate) obs: Option<NodeObs>,
}

impl NodeCtx {
    /// Builds the context for `rank` over an already-loaded `plan`. Graph
    /// data is read from `disk`; everything the run writes (vertex arrays,
    /// checkpoints, message spills) goes to `scratch` — the same disk, or a
    /// job-private subdirectory of it. The one constructor, called only by
    /// [`crate::Cluster`]'s rank-launch body. Fails (and poisons `net`) when
    /// checkpointing and the commit record holds no valid generation.
    pub(crate) fn new(
        rank: Rank,
        cfg: EngineConfig,
        disk: NodeDisk,
        scratch: NodeDisk,
        plan: Plan,
        net: Endpoint,
        chunk_cache: Option<Arc<ChunkCache>>,
    ) -> Result<Self> {
        let mut chunk_map: Vec<Vec<Option<ChunkInfo>>> =
            (0..plan.nodes()).map(|_| vec![None; plan.n_batches(rank)]).collect();
        for c in &plan.node_meta[rank].chunks {
            chunk_map[c.src_partition][c.batch] = Some(*c);
        }
        // the commit record lives beside the arrays it covers
        let opened = cfg.checkpointing.then(|| CommitLog::open(scratch.clone(), COMMITS_REL));
        let commit_log = match opened.transpose() {
            Ok(log) => log.map(parking_lot::Mutex::new),
            Err(e) => {
                net.poison_collective();
                return Err(e);
            }
        };
        let pool = MemBudget::new(cfg.mem_budget / 2);
        Ok(Self {
            rank,
            msg_pool: ChunkPool::new(pool.clone()),
            pool,
            filters: (0..plan.nodes()).map(|_| OnceLock::new()).collect(),
            cfg,
            disk,
            scratch,
            net,
            plan,
            arrays: HashMap::new(),
            chunk_map,
            chunk_cache,
            call_seq: 0,
            last_stats: PhaseStats::default(),
            calls_committed: AtomicU64::new(0),
            commit_log,
            rollbacks: Arc::new(AtomicU64::new(0)),
            crash_abort: false,
            cancel: None,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            job_stats: PhaseStats::default(),
            seekers: Default::default(),
            codecs: Default::default(),
            obs: None,
        })
    }

    /// Attaches a telemetry context: pre-resolves the histograms the engine
    /// observes (phase durations, chunk loads, checkpoint commits) under the
    /// context's base labels, wires the network endpoint's collective
    /// instrumentation, and — when the context carries a tracer — starts
    /// recording spans for every `Process` call, pipeline phase, collective
    /// and chunk load on this rank.
    pub fn set_telemetry(&mut self, tele: dfo_obs::Telemetry) {
        self.net.set_telemetry(tele.clone());
        let phase = |p: &str| {
            tele.duration_histogram(
                "dfo_phase_seconds",
                "Wall time of one ProcessEdges pipeline phase on one rank",
                &[("phase", p)],
            )
        };
        self.obs = Some(NodeObs {
            phase_secs: [phase("generate"), phase("pass"), phase("dispatch"), phase("process")],
            chunk_load_secs: tele.duration_histogram(
                "dfo_chunk_load_seconds",
                "Full edge-chunk / dispatch-graph loads (read + decode + index)",
                &[],
            ),
            ckpt_commit_secs: tele.duration_histogram(
                "dfo_ckpt_commit_seconds",
                "Checkpoint epoch commits at Process-call boundaries",
                &[],
            ),
            edges_calls: tele.counter(
                "dfo_process_calls_total",
                "Process calls started on this rank",
                &[("kind", "edges")],
            ),
            vertices_calls: tele.counter(
                "dfo_process_calls_total",
                "Process calls started on this rank",
                &[("kind", "vertices")],
            ),
            tele,
        });
    }

    /// The telemetry context this node runs under (disabled default).
    pub fn telemetry(&self) -> dfo_obs::Telemetry {
        self.obs.as_ref().map(|o| o.tele.clone()).unwrap_or_default()
    }

    /// Opens a span if a tracer is attached; one branch otherwise.
    #[inline]
    pub(crate) fn obs_span(&self, name: &'static str, cat: &'static str) -> Option<dfo_obs::Span> {
        self.obs.as_ref().and_then(|o| o.tele.span(name, cat))
    }

    /// Runs a chunk/dispatch-graph load under the chunk-load histogram and
    /// a `storage` span; calls `f` directly when telemetry is off.
    pub(crate) fn timed_chunk_read<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let Some(o) = &self.obs else { return f() };
        let _sp = o.tele.span("chunk_load", "storage");
        let t0 = Instant::now();
        let out = f();
        o.chunk_load_secs.observe_duration(t0.elapsed());
        out
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    pub fn disk(&self) -> &NodeDisk {
        &self.disk
    }

    /// The disk this context's mutable state (arrays, checkpoints, message
    /// spills) lives on. Identical to [`NodeCtx::disk`] unless the context
    /// was built by a scoped run ([`crate::Cluster::run_scoped`],
    /// [`crate::ResidentMesh::run_job_as`]).
    pub fn scratch(&self) -> &NodeDisk {
        &self.scratch
    }

    pub fn net(&self) -> &Endpoint {
        &self.net
    }

    /// Bytes of state this context holds: its scratch files (vertex arrays,
    /// checkpoints, message spills) plus everything its memory budget holds
    /// — resident vertex blocks, which with checkpointing off may have no
    /// file until the job ends, message chunks and held filter lists.
    pub fn footprint_bytes(&self) -> Result<u64> {
        Ok(self.scratch.usage_bytes()? + self.pool.used())
    }

    /// Installs a cooperative cancellation token. Once any rank's token is
    /// set, the next `Process` call (`process_vertices` / `process_edges`)
    /// on **every** rank fails with [`DfoError::Cancelled`] before touching
    /// array state — ranks agree via an allreduce at the call boundary, so
    /// the surviving on-disk state is the consistent state of the last
    /// completed call on all ranks.
    ///
    /// The token must be installed on all ranks of a run or on none (the
    /// agreement check is itself a collective).
    pub fn set_cancel_token(&mut self, token: Arc<AtomicBool>) {
        self.cancel = Some(token);
    }

    /// The collective cancellation check at a `Process`-call boundary: a
    /// no-op without a token; otherwise every rank contributes whether its
    /// token fired and all ranks abort together if any did.
    pub(crate) fn check_cancelled(&self) -> Result<()> {
        let Some(token) = &self.cancel else { return Ok(()) };
        let fired = token.load(Ordering::Relaxed);
        let anywhere = self.net.try_allreduce_min_u64(if fired { 0 } else { 1 })? == 0;
        if anywhere {
            return Err(DfoError::Cancelled(format!(
                "rank {}: cancel token observed at Process-call boundary",
                self.rank
            )));
        }
        Ok(())
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Per-phase I/O and traffic of the most recent `ProcessEdges` call
    /// (the Table 2 measurement).
    pub fn last_phase_stats(&self) -> &PhaseStats {
        &self.last_stats
    }

    /// Sum of **every** `ProcessEdges` call's [`PhaseStats`] over this
    /// context's lifetime. A context lives exactly one `Cluster::run`
    /// closure, so for a service job this is the job's total — including
    /// per-job chunk-cache hit/miss counts attributed at the lookup sites
    /// (not diffed from the shared cache's cumulative counters, which
    /// concurrent jobs would pollute).
    pub fn job_phase_stats(&self) -> &PhaseStats {
        &self.job_stats
    }

    /// Cumulative counters of this node's chunk cache; `None` when the
    /// cache is disabled (`chunk_cache_bytes == 0`).
    pub fn chunk_cache_stats(&self) -> Option<ChunkCacheStats> {
        self.chunk_cache.as_ref().map(|c| c.stats())
    }

    /// The paper's `GetVertexArray<T>`: creates the named array (zeroed) or
    /// reopens it — recovering the last committed checkpoint when
    /// checkpointing is on (§3.2).
    pub fn vertex_array<T: Pod>(&mut self, name: &str) -> Result<VertexArray<T>> {
        let elem = std::mem::size_of::<T>();
        assert!(elem > 0, "vertex data must not be zero-sized");
        if let Some(entry) = self.arrays.get(name) {
            if entry.elem_bytes != elem {
                return Err(DfoError::Config(format!(
                    "vertex array {name:?} reopened with element size {elem}, stored {}",
                    entry.elem_bytes
                )));
            }
            return Ok(entry.handle());
        }
        // without batching (the Table 6 ablation) the one batch is the
        // partition, and the array's blocks are pages of it
        let page = (!self.cfg.batching_enabled).then(|| (PAGE_SIZE / elem).max(1) as u64);
        let blocks = match page {
            Some(n) => split_into_batches(self.plan.partitions[self.rank], n),
            None => self.plan.batches[self.rank].clone(),
        };
        // a checkpointed array recovers to the commit record's epoch for
        // it: any newer block belongs to a call whose record never landed
        let checkpoint = self.commit_log.as_ref().map(|l| l.lock().target_epoch(name));
        let entry = ArrayEntry::create_blocks(
            &self.scratch,
            name,
            elem,
            &blocks,
            page,
            checkpoint,
            &self.pool,
        )?;
        let handle = entry.handle();
        self.arrays.insert(name.to_string(), Arc::new(entry));
        Ok(handle)
    }

    /// Ends the job's use of its vertex arrays: with `keep`, every dirty
    /// resident block is written in place for the next job to reopen;
    /// without, dirty blocks are dropped (see
    /// [`dfo_storage::VersionedArrayStore::discard`]).
    pub(crate) fn close_arrays(&self, keep: bool) -> Result<()> {
        self.arrays.values().try_for_each(|e| e.close(keep))
    }

    /// Resolves registered array entries by name (panics on typos — a
    /// programming error, like the paper's C++ API would segfault).
    pub(crate) fn entries(&self, names: &[&str]) -> Vec<Arc<ArrayEntry>> {
        names
            .iter()
            .map(|n| {
                self.arrays
                    .get(*n)
                    .unwrap_or_else(|| panic!("vertex array {n:?} was never created on this node"))
                    .clone()
            })
            .collect()
    }

    pub(crate) fn begin_epochs(&self, entries: &[Arc<ArrayEntry>]) {
        if self.cfg.checkpointing {
            for e in entries {
                e.begin_epoch();
            }
        }
    }

    /// Commits one `Process` call's array epochs, then the per-call commit
    /// record asserting they all landed. This is the commit boundary the
    /// deterministic fault-injection hook fires at: a `Pre` crash point
    /// kills the call's `k`-th call before any array commits (the call is
    /// lost whole), a `Mid` point kills it between the first array's commit
    /// and the rest — the torn state only the commit record can detect.
    pub(crate) fn commit_epochs(&self, entries: &[Arc<ArrayEntry>]) -> Result<()> {
        self.crash_if_scheduled(CrashPos::Pre)?;
        let observing = self.cfg.checkpointing && self.obs.is_some();
        let _sp = if observing { self.obs_span("ckpt_commit", "ckpt") } else { None };
        let t0 = observing.then(Instant::now);
        let mut iter = entries.iter();
        if let Some(first) = iter.next() {
            first.commit()?;
            // even with one array, Mid stays meaningful: the record below
            // has not been written yet, so the call must not survive
            self.crash_if_scheduled(CrashPos::Mid)?;
            for e in iter {
                e.commit()?;
            }
        }
        if let Some(log) = &self.commit_log {
            let touched: Vec<(&str, u64)> = entries
                .iter()
                .filter(|e| e.checkpointed())
                .map(|e| (&*e.name, e.epoch()))
                .collect();
            log.lock().record_commit(&touched)?;
        }
        if let (Some(o), Some(t0)) = (&self.obs, t0) {
            o.ckpt_commit_secs.observe_duration(t0.elapsed());
        }
        self.calls_committed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn crash_if_scheduled(&self, pos: CrashPos) -> Result<()> {
        if self.cfg.crash_schedule.is_empty() {
            return Ok(());
        }
        let call = self.calls_committed.load(Ordering::Relaxed);
        for cp in &self.cfg.crash_schedule {
            if cp.pos != pos
                || cp.call != call
                || cp.rank.is_some_and(|r| r != self.rank)
                || cp.epoch.is_some_and(|e| e != self.cfg.epoch)
            {
                continue;
            }
            if self.crash_abort {
                eprintln!(
                    "[dfo] rank {}: DFO_CRASH_AT fired — aborting at Process call {} \
                     ({pos:?}-commit, epoch {})",
                    self.rank, cp.call, self.cfg.epoch
                );
                // the kill lands *at* this boundary: frames of earlier calls
                // (a relayed collective result, say) that still sit with the
                // writer threads get their chance to reach the wire first,
                // so which calls the peers complete does not depend on
                // thread scheduling
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::process::abort();
            }
            return Err(DfoError::NetClosed(format!(
                "injected crash (DFO_CRASH_AT): rank {} dies at Process call {} \
                 ({pos:?}-commit, epoch {})",
                self.rank, cp.call, self.cfg.epoch
            )));
        }
        Ok(())
    }

    /// Resume plumbing for recovery-style programs (§3.2): opens (or
    /// recovers) the `u64` round-marker array `name`, takes the minimum
    /// committed marker across this rank's vertices, and all-reduces the
    /// minimum across ranks — the last round known to have committed
    /// *everywhere*, i.e. the global resume point. A fresh array yields 0.
    ///
    /// Counts as one `Process` call. Programs write `round + 1` into the
    /// marker inside the **last** `Process` call of each round (listing it
    /// alongside that call's data arrays, so marker and data commit at the
    /// same boundary), and resume their loop at the returned round after a
    /// restart — re-executing at most one lost call per array.
    ///
    /// Before anything else, ranks exchange their commit-record call
    /// sequences and any *ahead* rank — one that committed a `Process` call
    /// a crashed peer did not — rolls that call back one checkpoint, so all
    /// ranks resume from the same global call sequence (the ahead-rank
    /// window).
    pub fn committed_round(&mut self, name: &str) -> Result<u64> {
        self.align_commit_seq()?;
        let marker = self.vertex_array::<u64>(name)?;
        let min = AtomicU64::new(u64::MAX);
        {
            let h = marker.clone();
            let min = &min;
            self.process_vertices(&[name], None, move |v, c| {
                min.fetch_min(c.get(&h, v), Ordering::Relaxed);
                0u64
            })?;
        }
        let m = min.load(Ordering::Relaxed);
        let local = if m == u64::MAX { 0 } else { m };
        self.net.try_allreduce_min_u64(local)
    }

    /// The ahead-rank rollback **collective**: all ranks contribute their
    /// commit-record call sequence; a rank above the cluster minimum rolls
    /// its last recorded call back (record first, then one checkpoint per
    /// touched array), landing every rank on the same sequence. Because
    /// commits precede the collective that ends each `Process` call, no
    /// rank can start call `k + 1` before all finish call `k` — so the gap
    /// is at most one; anything larger is corruption.
    fn align_commit_seq(&mut self) -> Result<()> {
        let Some(log) = &self.commit_log else { return Ok(()) };
        let local = log.lock().call_seq();
        let global = self.net.try_allreduce_min_u64(local)?;
        if local == global {
            return Ok(());
        }
        if local != global + 1 {
            return Err(DfoError::Corrupt(format!(
                "rank {}: committed call sequence {local} is {} calls ahead of the cluster \
                 minimum {global} — collectives bound the gap to one",
                self.rank,
                local - global
            )));
        }
        let _sp = self.obs_span("ahead_rank_rollback", "ckpt");
        eprintln!(
            "[dfo] rank {}: ahead of the cluster by one committed call \
             ({local} > {global}); rolling back one checkpoint",
            self.rank
        );
        let restored = self.commit_log.as_ref().unwrap().lock().rollback_last()?;
        for (arr, want_epoch) in &restored {
            // an array not opened yet in this context recovers to the
            // stepped-back record epoch when it is, deleting the call's
            // blocks then
            let Some(entry) = self.arrays.get(arr) else { continue };
            let landed = entry.rollback_one()?;
            if landed != *want_epoch {
                return Err(DfoError::Corrupt(format!(
                    "rank {}: rollback of array {arr:?} landed on epoch {landed}, commit \
                     record expected {want_epoch}",
                    self.rank
                )));
            }
        }
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The paper's `ProcessVertices`: runs `work` on every vertex (or every
    /// *active* vertex), batches processed in parallel by the node's worker
    /// threads, each batch's arrays loaded at most once (§4.4
    /// "vertex-parallel jobs").
    ///
    /// `arrays` lists the vertex arrays `work` may access through the
    /// [`BatchCtx`]. Returns the sum of `work`'s return values across the
    /// whole cluster.
    pub fn process_vertices<A: Accum>(
        &mut self,
        arrays: &[&str],
        active: Option<&VertexArray<bool>>,
        work: impl Fn(VertexId, &mut BatchCtx) -> A + Sync,
    ) -> Result<A> {
        self.check_cancelled()?;
        let _call_span = self.obs_span("process_vertices", "call");
        if let Some(o) = &self.obs {
            o.vertices_calls.inc();
        }
        let entries = self.entries(arrays);
        let active_entry = active.map(|a| self.entries(&[a.name()]).remove(0));
        // open one epoch over everything this call may write
        let mut epoch_set: Vec<Arc<ArrayEntry>> = entries.clone();
        if let Some(ae) = &active_entry {
            if !arrays.contains(&&*ae.name) {
                epoch_set.push(ae.clone());
            }
        }
        self.begin_epochs(&epoch_set);

        let local = self.for_each_batch(|b| {
            self.run_vertex_batch(b, &entries, arrays, active_entry.as_deref(), &work)
        })?;
        self.commit_epochs(&epoch_set)?;
        local.allreduce(&self.net)
    }

    /// Runs `work(b)` for every local batch on the node's `T` workers — the
    /// calling thread and `T − 1` spawned ones (batches are claimed
    /// dynamically, so skew between batches balances out) — and merges the
    /// results. What a batch leaves behind for later calls (resident
    /// blocks, message chunks) is thereby allocated on the thread that
    /// lives as long as the job whenever `T` is 1, not in the arena of a
    /// thread that is gone a moment later. The first error stops its worker and is
    /// returned once all workers have joined.
    pub(crate) fn for_each_batch<A: Accum>(
        &self,
        work: impl Fn(usize) -> Result<A> + Sync,
    ) -> Result<A> {
        let b_count = self.plan.n_batches(self.rank);
        let next = AtomicUsize::new(0);
        let result: parking_lot::Mutex<A> = parking_lot::Mutex::new(A::zero());
        let err: parking_lot::Mutex<Option<DfoError>> = parking_lot::Mutex::new(None);
        let worker = || {
            let mut local = A::zero();
            loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= b_count {
                    break;
                }
                match work(b) {
                    Ok(a) => local = local.merge(a),
                    Err(e) => {
                        *err.lock() = Some(e);
                        break;
                    }
                }
            }
            let mut r = result.lock();
            let cur = std::mem::replace(&mut *r, A::zero());
            *r = cur.merge(local);
        };
        // the calling thread is one of the workers
        std::thread::scope(|s| {
            for _ in 1..self.cfg.threads_per_node {
                s.spawn(worker);
            }
            worker();
        });
        match err.into_inner() {
            Some(e) => Err(e),
            None => Ok(result.into_inner()),
        }
    }

    /// All-to-all exchange of typed vectors: sends `outgoing[j]` to node `j`
    /// and returns what every node sent here (`result[rank] ==
    /// outgoing[rank]`).
    ///
    /// Each vector travels as its byte length and one packed column of `T`
    /// — byte-shuffled by its width, each byte plane LZ4-coded or as it is,
    /// whichever is smaller (see [`crate::messages`]); what does not decode
    /// to whole `T`s is a `Corrupt` error naming the peer. Uses the same round-robin pairing as
    /// `ProcessEdges` (§4.4) and the same rule: sending and receiving get
    /// threads of their own unless the transport buffers every payload whole
    /// ([`Endpoint::buffers_whole`]). Used for preprocessing by-products
    /// such as shipping out-degree counts to their owning partitions, and
    /// with `T = u8` for gathers.
    pub fn exchange<T: Pod>(&mut self, mut outgoing: Vec<Vec<T>>) -> Result<Vec<Vec<T>>> {
        assert_eq!(outgoing.len(), self.cfg.nodes);
        assert!(std::mem::size_of::<T>() > 0, "exchanged elements must not be zero-sized");
        let seq = self.call_seq;
        self.call_seq += 1;
        let rank = self.rank;
        let own = std::mem::take(&mut outgoing[rank]);
        // each payload is coded once; per-chunk frames below are zero-copy
        // slices of it
        let wire: Vec<Bytes> = outgoing.drain(..).map(|v| pack_vector(&v)).collect();
        let inline = wire.iter().all(|b| self.net.buffers_whole(b.len() as u64));
        let send = || {
            (self.cfg.send_order(rank).into_iter())
                .try_for_each(|j| self.net.send_stream(j, seq, wire[j].clone()))
        };
        let receive = || -> Result<Vec<Vec<T>>> {
            let mut incoming = vec![Vec::new(); self.cfg.nodes];
            for p in self.cfg.recv_order(rank) {
                incoming[p] = unpack_vector(&self.net.recv_all(p, seq)?)
                    .map_err(|what| DfoError::Corrupt(format!("exchange from rank {p}: {what}")))?;
            }
            Ok(incoming)
        };
        let ((), (), mut incoming) = exchange(inline, send, || Ok(()), receive)?;
        incoming[rank] = own;
        Ok(incoming)
    }

    /// [`NodeCtx::exchange`] of byte vectors.
    pub fn exchange_bytes(&mut self, outgoing: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        self.exchange(outgoing)
    }

    fn run_vertex_batch<A: Accum>(
        &self,
        b: usize,
        entries: &[Arc<ArrayEntry>],
        names: &[&str],
        active_entry: Option<&ArrayEntry>,
        work: &(impl Fn(VertexId, &mut BatchCtx) -> A + Sync),
    ) -> Result<A> {
        let Some((mut ctx, mask)) = self.open_active_batch(b, entries, names, active_entry)? else {
            return Ok(A::zero());
        };
        let mut acc = A::zero();
        for v in ctx.batch().iter() {
            if mask.is_active(&mut ctx, v) {
                acc = acc.merge(work(v, &mut ctx));
            }
        }
        ctx.write_back()?;
        Ok(acc)
    }

    /// The prelude `ProcessVertices` and phase 1 of `ProcessEdges` share:
    /// loads batch `b`'s view of `entries` (whose names are `names`) and the
    /// activity mask `active_entry` implies. `None` means the batch has
    /// nothing to do — it is empty, or (§4.4) its `active` block, read
    /// first, is all zero, in which case no other array is touched.
    pub(crate) fn open_active_batch<'a>(
        &self,
        b: usize,
        entries: &'a [Arc<ArrayEntry>],
        names: &[&str],
        active_entry: Option<&'a ArrayEntry>,
    ) -> Result<Option<(BatchCtx<'a>, ActiveMask)>> {
        let range = self.plan.batches[self.rank][b];
        if range.is_empty() {
            return Ok(None);
        }
        let mut refs: Vec<&ArrayEntry> = entries.iter().map(|e| e.as_ref()).collect();
        let mut preloaded = None;
        let mask = match active_entry {
            None => ActiveMask::All,
            Some(e) if e.page.is_none() => {
                let bytes = e.read_block(b, range.len())?;
                if !bytes.iter().any(|&x| x != 0) {
                    return Ok(None);
                }
                // the UDF may read `active` too: hand the ctx the bytes
                // already read instead of reading the block twice
                if names.contains(&&*e.name) {
                    preloaded = Some((&*e.name, bytes.clone()));
                }
                ActiveMask::Block(bytes)
            }
            // a paged array is read through the ctx, a page at a time
            Some(e) => {
                if !names.contains(&&*e.name) {
                    refs.push(e);
                }
                ActiveMask::Paged(e.handle())
            }
        };
        let ctx = BatchCtx::load(&refs, range, b, preloaded)?;
        Ok(Some((ctx, mask)))
    }
}

/// Which vertices of the batch a `Process` call visits (see
/// [`NodeCtx::open_active_batch`]).
pub(crate) enum ActiveMask {
    /// No `active` array was given: every vertex.
    All,
    /// The batch's block of the `active` array, one byte per vertex.
    Block(Vec<u8>),
    /// A paged `active` array, read through the batch context.
    Paged(VertexArray<bool>),
}

impl ActiveMask {
    #[inline]
    pub(crate) fn is_active(&self, ctx: &mut BatchCtx, v: VertexId) -> bool {
        match self {
            ActiveMask::All => true,
            ActiveMask::Block(bytes) => bytes[(v - ctx.batch().start) as usize] != 0,
            ActiveMask::Paged(h) => ctx.get(h, v),
        }
    }
}

/// One rank's share of an all-to-all exchange: `send` streams to every
/// peer, `local` handles the rank's own share and `receive` drains every
/// peer. With `inline` — every stream the rank sends is one the transport
/// buffers whole ([`Endpoint::buffers_whole`]) — the three run in that
/// order on the calling thread: no thread is spawned and none can deadlock.
/// Otherwise `send` and `receive` get a thread each and overlap `local`,
/// which runs here. The first error in send, local, receive order wins.
pub(crate) fn exchange<S: Send, L, R: Send>(
    inline: bool,
    send: impl FnOnce() -> Result<S> + Send,
    local: impl FnOnce() -> Result<L>,
    receive: impl FnOnce() -> Result<R> + Send,
) -> Result<(S, L, R)> {
    fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
        h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
    let (sent, own, received) = if inline {
        (send(), local(), receive())
    } else {
        std::thread::scope(|s| {
            let (sender, receiver) = (s.spawn(send), s.spawn(receive));
            let own = local();
            (join(sender), own, join(receiver))
        })
    };
    Ok((sent?, own?, received?))
}
