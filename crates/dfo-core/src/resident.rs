//! One rank's TCP mesh and its whole lifecycle: connect → run jobs →
//! relaunch.
//!
//! Every multi-process deployment owns its transport through a
//! [`ResidentMesh`]. A service daemon calls [`ResidentMesh::connect`]
//! **once** at startup and runs any number of **concurrent** jobs over the
//! established endpoint with [`ResidentMesh::run_job_as`], interleaved with
//! control-plane messages ([`ResidentMesh::ctrl_send`] /
//! [`ResidentMesh::ctrl_recv`]) on the reserved control tag-space
//! ([`dfo_net::CTRL_TAG_BIT`]) that can never contend with engine streams.
//! A batch run ([`crate::Cluster::run_distributed`],
//! [`crate::Cluster::run_supervised`]) is the same thing with one job: a
//! mesh connected for the run, the node program as its only job, the mesh
//! dropped afterwards.
//!
//! ## Lifecycle and epoch authority
//!
//! A mesh incarnation lives at one **epoch**; the TCP handshake rejects
//! every other epoch, so sockets of a dead incarnation can never rejoin.
//! When the mesh dies — a peer process was killed, a job failed and
//! poisoned it, a bootstrap handshake timed out — every surviving rank
//! calls [`ResidentMesh::relaunch`], the one relaunch protocol of the
//! workspace: quiesce the old transport (poison it so nothing blocks, join
//! the codec threads, release the sockets and the listen port), charge the
//! relaunch to `cfg.max_restarts`, move to the next epoch, re-bootstrap.
//! `run_supervised` loops `run the job → relaunch` around it, the daemon
//! `serve a generation → relaunch`; a process the [`crate::Supervisor`]
//! starts in place of a dead one simply connects.
//!
//! Who decides the next epoch? Without coordination each rank bumps locally
//! by one per failure it observes — correct only while failures never
//! overlap a recovery window (two deaths seen as one collective failure by
//! a late joiner, but as two by a long-lived survivor, skew the counts
//! apart and the mesh never rebuilds). A [`crate::Supervisor`] closes the
//! hole by *publishing* the epoch to a file (`cfg.epoch_file`,
//! `DFO_EPOCH_FILE`): [`ResidentMesh::connect`] joins at the larger of
//! `cfg.epoch` and the published value, and a relaunching rank waits —
//! bounded — for the published value to pass its failed incarnation's
//! instead of guessing. Every party therefore converges on the same number
//! under arbitrarily overlapping failures. A bootstrap that times out is
//! retried at whatever is published by then and is never bumped locally:
//! a process the supervisor started just before moving the epoch on again
//! rejoins after one `connect_timeout_secs`, and a wrong epoch is always
//! safe (the handshake rejects it), it just costs attempts from the budget.
//!
//! The mesh publishes what happened to it through the [`Telemetry`] given
//! to [`ResidentMesh::with_telemetry`]: the `dfo_mesh_epoch` gauge and one
//! `dfo_recovery_seconds` observation per relaunch (failure detection →
//! rebuilt mesh); [`ResidentMesh::restarts`] is the count front-ends report
//! under their own names.
//!
//! ## The tag-namespace invariant: why concurrent jobs are safe
//!
//! Each job runs over a **job view** of the mesh endpoint
//! ([`dfo_net::Endpoint::job_view`]): every stream and collective tag the
//! job emits carries the job's namespace base
//! ([`dfo_net::job_tag_base`]) in bits 44..61 of the tag. Engine stream
//! tags still restart at 0 per job and each job counts its own collective
//! sequence from 0 — but two jobs' tags can no longer collide, because
//! their namespace fields differ, and neither can collide with the mesh's
//! *master* namespace (field 0: out-of-job barriers, control fan-out
//! acknowledgement), which [`job_tag_base`](dfo_net::job_tag_base)
//! deliberately skips. The transport's demux routes by full tag, and
//! collectives relay through rank 0 keyed by full tag, so any number of
//! jobs may overlap on one mesh with their traffic pairwise isolated.
//!
//! Three rules keep the invariant airtight:
//!
//! 1. **Equal job ids across ranks.** All ranks must enter a job under the
//!    same id ([`ResidentMesh::run_job_as`]; a coordinator assigns ids and
//!    fans them out).
//! 2. **One collective sequence per job.** The job's collective counter
//!    lives on the mesh (not the view), so a post-job
//!    [`ResidentMesh::job_barrier`] continues the job's sequence in
//!    lockstep instead of restarting it.
//! 3. **Reclamation on every exit path.** [`ResidentMesh::end_job`] drops
//!    the job's demux queues and marks the namespace dead, so a job that
//!    died mid-stream can neither leak queues nor head-of-line-block an
//!    overlapping job.
//!
//! Both `dfo-net` backends receive through that one demux and relay, so
//! the invariant holds on the in-process backend too; a resident mesh is
//! TCP only because its ranks are processes.
//!
//! ## Failure model
//!
//! Fail-stop: process crashes (several per recovery window included) and
//! failed jobs. A job ends by the [cancel-vs-poison
//! rule](crate::cluster#the-cancel-vs-poison-rule) every launch path
//! shares: a cancelled job keeps the mesh healthy for the jobs overlapping
//! it and the next ones; any other job failure poisons it, so every
//! overlapping job unwinds with a retryable `NetClosed`. The mesh is then
//! dead and its owner relaunches it: the daemon drains its workers first
//! and re-runs retryable jobs up to their `max_retries` bound (see
//! `dfo-service`'s daemon), a supervised batch run re-executes its
//! recovery-style program from the last checkpoint. Byzantine behaviour
//! and network partitions are out of scope (as in the paper, which targets
//! small trusted clusters).

use crate::cluster::Cluster;
use crate::node::NodeCtx;
use bytes::Bytes;
use dfo_net::{Endpoint, NetStats, TcpCluster, TcpOpts, CTRL_TAG_BIT};
use dfo_obs::{FlightRecorder, Telemetry};
use dfo_types::{DfoError, EngineConfig, Rank, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a relaunching rank waits for the supervisor to publish an epoch
/// above the dead incarnation's before bumping locally.
const EPOCH_WAIT: Duration = Duration::from_secs(10);

/// One rank's resident mesh endpoint. See the module docs.
pub struct ResidentMesh {
    /// The mesh's own copy of the deployment config: `peers`, the bootstrap
    /// timeout and the recovery policy (`max_restarts`, `epoch_file`).
    cfg: EngineConfig,
    rank: Rank,
    /// Epoch this incarnation bootstrapped at.
    epoch: u64,
    /// Relaunches so far, across incarnations; bounded by `cfg.max_restarts`.
    restarts: u32,
    /// Where epoch and recovery time are published (a registry nobody
    /// scrapes until [`ResidentMesh::with_telemetry`]).
    telemetry: Telemetry,
    /// The master view (tag namespace 0). Job views are derived per job
    /// and dropped when the job ends; the master never leaves the mesh.
    ep: Endpoint,
    /// Live jobs' collective sequence counters, so successive views of one
    /// job (the run, then [`ResidentMesh::job_barrier`]) share a sequence.
    coll_counters: Mutex<HashMap<u64, Arc<AtomicU64>>>,
}

/// The epoch published in `cfg.epoch_file`: trimmed decimal text, written
/// atomically (temp + rename) by [`crate::Supervisor`]. No file configured,
/// or an absent, unreadable or unparsable one, all read as "nothing
/// published".
fn epoch_on_file(cfg: &EngineConfig) -> Option<u64> {
    std::fs::read_to_string(cfg.epoch_file.as_deref()?).ok()?.trim().parse().ok()
}

impl ResidentMesh {
    /// Joins the TCP mesh described by `cfg.peers` as `rank`, blocking
    /// until every pairwise connection is up and epoch-handshaken, at the
    /// **authoritative epoch**: the larger of `cfg.epoch` and the published
    /// epoch file, so a process relaunched with a stale `DFO_EPOCH` (its
    /// death overlapped another failure) starts straight at the published
    /// one. A bootstrap that fails is a mesh failure like any other: it is
    /// charged to `cfg.max_restarts` and retried, at the epoch published by
    /// then.
    pub fn connect(cfg: &EngineConfig, rank: Rank) -> Result<Self> {
        let epoch = cfg.epoch.max(epoch_on_file(cfg).unwrap_or(0));
        Self::join(cfg.clone(), rank, epoch, 0, None, Telemetry::disabled())
    }

    /// Publishes this mesh's epoch gauge and recovery histogram through
    /// `telemetry` (its registry and base labels) from now on, relaunched
    /// incarnations included.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self.publish_epoch();
        self
    }

    /// Rebuilds a dead mesh in place — the one relaunch protocol every
    /// front-end shares (module docs): quiesces the old transport, charges
    /// the relaunch to `cfg.max_restarts` (past it, `cause` comes back as
    /// the error), moves to the next epoch and re-bootstraps there. The
    /// rebuilt mesh keeps the restart count and the telemetry.
    pub fn relaunch(self, cause: DfoError) -> Result<Self> {
        let failed_at = Instant::now();
        let Self { cfg, rank, epoch, restarts, telemetry, ep, .. } = self;
        // nothing may block on the dead mesh; dropping the last view joins
        // the writer threads and releases the sockets and the listen port
        ep.poison_collective();
        drop(ep);
        let mesh = Self::join(cfg, rank, epoch, restarts, Some(cause), telemetry)?;
        mesh.telemetry
            .duration_histogram(
                "dfo_recovery_seconds",
                "Time from failure detection to a rebuilt mesh (one relaunch)",
                &[],
            )
            .observe_duration(failed_at.elapsed());
        mesh.publish_epoch();
        Ok(mesh)
    }

    /// Bootstraps the mesh at `epoch` — `failure`, when given, being the
    /// death of the incarnation that lived there — and keeps trying for as
    /// long as the bootstrap itself fails as a mesh failure. This loop is
    /// the only place a relaunch is charged to the budget and its epoch
    /// picked: past `cfg.max_restarts` the failure comes back as the error.
    ///
    /// A dead incarnation is followed by a *new* epoch. Without an epoch
    /// file the rank bumps locally, correct only while failures never
    /// overlap a recovery window. With one it waits — bounded — for the
    /// supervisor to publish an epoch above the dead incarnation's, so
    /// every survivor and relaunched process converges on the same number
    /// no matter how many ranks died; on timeout (nobody died: a job
    /// failure poisoned the mesh) it falls back to the local bump.
    ///
    /// A bootstrap that never completed is no incarnation: it is retried
    /// where the authority points now, never bumped past it. A process
    /// started at an epoch the supervisor has since moved on from (two
    /// deaths in two reap passes) therefore rejoins its peers after one
    /// bootstrap timeout, and the peers waiting for it stay where they are
    /// instead of bumping away from it.
    fn join(
        cfg: EngineConfig,
        rank: Rank,
        mut epoch: u64,
        mut restarts: u32,
        mut failure: Option<DfoError>,
        telemetry: Telemetry,
    ) -> Result<Self> {
        let peers = cfg.peers.as_ref().ok_or_else(|| {
            DfoError::Config("a TCP mesh needs cfg.peers (the rank address list)".into())
        })?;
        if rank >= cfg.nodes {
            return Err(DfoError::Config(format!(
                "rank {rank} outside cluster of {} nodes",
                cfg.nodes
            )));
        }
        let mut died = failure.is_some(); // the caller's failure is an incarnation's death
        let ep = loop {
            if let Some(cause) = failure.take() {
                if restarts >= cfg.max_restarts {
                    return Err(cause);
                }
                restarts += 1;
                let deadline = Instant::now() + if died { EPOCH_WAIT } else { Duration::ZERO };
                epoch = loop {
                    match epoch_on_file(&cfg) {
                        Some(e) if e > epoch => break e,
                        Some(_) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => break epoch + u64::from(died),
                    }
                };
                died = false;
                eprintln!(
                    "[dfo] rank {rank}: mesh failure ({cause}); re-bootstrapping at epoch \
                     {epoch} (relaunch {restarts}/{})",
                    cfg.max_restarts
                );
            }
            let opts =
                TcpOpts { connect_timeout: Duration::from_secs(cfg.connect_timeout_secs), epoch };
            match TcpCluster::connect(rank, peers, cfg.net_bw, cfg.record_traffic, opts) {
                Ok(ep) => break ep,
                Err(e @ (DfoError::NetClosed(_) | DfoError::Handshake(_))) => failure = Some(e),
                Err(e) => return Err(e),
            }
        };
        let coll_counters = Mutex::new(HashMap::new());
        Ok(Self { cfg, rank, epoch, restarts, telemetry, ep, coll_counters })
    }

    fn publish_epoch(&self) {
        self.telemetry
            .gauge("dfo_mesh_epoch", "Epoch of the current mesh incarnation", &[])
            .set(self.epoch as f64);
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Epoch this incarnation of the mesh bootstrapped at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Relaunches performed so far, across incarnations.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// This incarnation's network counters (shared by every job view).
    pub(crate) fn net_stats(&self) -> Arc<NetStats> {
        self.ep.stats_arc()
    }

    /// Sends one control-plane message to `dst` as a complete stream on the
    /// reserved control tag: one final frame, unless it is longer than
    /// [`dfo_net::endpoint::STREAM_CHUNK`]. Concurrent control senders must
    /// serialize whole messages per peer (a long message spans several
    /// frames and the demux queue is FIFO per (peer, tag)) and keep the
    /// outstanding control-frame count within the demux head-of-line
    /// budget ([`dfo_net::DEMUX_QUEUE_DEPTH`]) — the daemon does both.
    pub fn ctrl_send(&self, dst: Rank, payload: Vec<u8>) -> Result<()> {
        self.ep.send_stream(dst, CTRL_TAG_BIT, Bytes::from(payload))
    }

    /// Receives one complete control-plane message from `src` (blocking).
    pub fn ctrl_recv(&self, src: Rank) -> Result<Vec<u8>> {
        self.ep.recv_all(src, CTRL_TAG_BIT)
    }

    /// Mesh-wide barrier outside any job (e.g. a coordinated shutdown), in
    /// the master namespace. Every rank must call out-of-job barriers in
    /// the same order — the usual SPMD discipline, now scoped to the
    /// master namespace only.
    pub fn barrier(&self) -> Result<()> {
        self.ep.try_barrier()
    }

    /// Poisons the mesh: every blocked collective and stream on every rank
    /// fails with `NetClosed` instead of hanging. Idempotent. A daemon
    /// calls this before tearing down a mesh it has judged dead for a
    /// *local* reason (say, a scratch I/O failure after a job), so peers
    /// observe the death instead of waiting forever.
    pub fn poison(&self) {
        self.ep.poison_collective();
    }

    /// Runs one job over the resident mesh under the caller-assigned
    /// `job_id`, SPMD-style: every rank of the mesh must call this with
    /// the same `job_id`, `cluster` graph, `scope` and an equivalent `f`,
    /// exactly like one closure execution of [`Cluster::run_distributed`]
    /// — but over a job view of the already-established endpoint, with no
    /// re-dial, no re-handshake and no re-preprocess. Jobs with distinct
    /// ids may overlap freely (worker threads of one process each calling
    /// this); see the module docs for the namespace invariant.
    ///
    /// The job's mutable state (vertex arrays, checkpoints, spills) lives
    /// under the private scratch scope `scope` of this rank's node disk;
    /// graph data is read from the node root. Afterwards the caller runs
    /// [`ResidentMesh::job_barrier`], removes the scratch, and calls
    /// [`ResidentMesh::end_job`].
    ///
    /// A [`DfoError::Cancelled`] return leaves the mesh healthy; any other
    /// failure poisons it — taking every overlapping job down with a
    /// retryable `NetClosed` (the shared [cancel-vs-poison
    /// rule](crate::cluster#the-cancel-vs-poison-rule)).
    pub fn run_job_as<T>(
        &self,
        job_id: u64,
        cluster: &Cluster,
        scope: &str,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        self.launch(job_id, cluster, Some(scope), None, f)
    }

    /// The job launch [`ResidentMesh::run_job_as`] and the batch entry
    /// points ([`Cluster::run_distributed`], [`Cluster::run_supervised`])
    /// share: a view of the mesh in `job_id`'s namespace, handed to the one
    /// rank-launch body. `scope: None` runs in the node root, as batch runs
    /// do; `recorder` collects the run's spans.
    pub(crate) fn launch<T>(
        &self,
        job_id: u64,
        cluster: &Cluster,
        scope: Option<&str>,
        recorder: Option<&Arc<FlightRecorder>>,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let nodes = cluster.config().nodes;
        if nodes != self.cfg.nodes {
            return Err(DfoError::Config(format!(
                "graph cluster spans {nodes} nodes but the resident mesh has {}",
                self.cfg.nodes
            )));
        }
        // a failed context build drops only the view; the master endpoint
        // survives it (poisoned, like any other job failure)
        let view = self.ep.job_view(job_id, self.coll_counter(job_id));
        cluster.run_rank(self.rank, view, scope, recorder, Some(self.epoch), f)
    }

    /// Barrier inside job `job_id`'s namespace, continuing the job's
    /// collective sequence — the post-job settle before scratch removal
    /// ("no rank deletes scratch another rank still reads"). Every rank
    /// that ran the job must call it, and only once per run, like any
    /// collective.
    pub fn job_barrier(&self, job_id: u64) -> Result<()> {
        self.ep.job_view(job_id, self.coll_counter(job_id)).try_barrier()
    }

    /// Retires job `job_id` on this rank: forgets its collective counter
    /// and reclaims its receive-side demux state, dropping any frames of
    /// the job still in flight. Call on **every** exit path — success,
    /// cancellation, or failure — after the job's views are gone.
    pub fn end_job(&self, job_id: u64) {
        self.coll_counters.lock().remove(&job_id);
        self.ep.reclaim_job(job_id);
    }

    fn coll_counter(&self, job_id: u64) -> Arc<AtomicU64> {
        self.coll_counters.lock().entry(job_id).or_default().clone()
    }
}
