//! A resident TCP mesh: bootstrap once, serve a stream of **concurrent**
//! jobs.
//!
//! [`crate::Cluster::run_distributed`] ties one mesh bootstrap to one job —
//! every call re-dials every peer, re-handshakes, and tears the transport
//! down again. A resident service daemon amortizes that: it calls
//! [`ResidentMesh::connect`] **once** at startup and then runs any number
//! of jobs over the same established endpoint with
//! [`ResidentMesh::run_job_as`], interleaved with control-plane messages
//! ([`ResidentMesh::ctrl_send`] / [`ResidentMesh::ctrl_recv`]) on the
//! reserved control tag-space ([`dfo_net::CTRL_TAG_BIT`]) that can never
//! contend with engine streams.
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
//! deliberately skips. The TCP demux routes by full tag, and collectives
//! relay through rank 0 keyed by full tag, so any number of jobs may
//! overlap on one mesh with their traffic pairwise isolated.
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
//! Concurrent jobs are a property of the **TCP** backend: the in-process
//! simulation's shared-memory collective ignores tags (see
//! [`dfo_net::Transport`]), and a resident mesh is always TCP.
//!
//! ## Failure model
//!
//! A resident job ends by the [cancel-vs-poison
//! rule](crate::cluster#the-cancel-vs-poison-rule) every launch path
//! shares: a cancelled job keeps the mesh healthy for the jobs overlapping
//! it and the next ones; any other job failure poisons it, so every
//! overlapping job unwinds with a retryable `NetClosed`. The mesh is then dead;
//! the daemon drains its workers and rebuilds the mesh in place under a
//! bumped epoch (see `dfo-service`'s daemon), re-running retryable jobs up
//! to their `max_retries` bound.

use crate::cluster::{connect_mesh, Cluster};
use crate::node::NodeCtx;
use bytes::Bytes;
use dfo_net::{Endpoint, CTRL_TAG_BIT};
use dfo_types::{DfoError, EngineConfig, Rank, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// One rank's resident mesh endpoint. See the module docs.
pub struct ResidentMesh {
    rank: Rank,
    nodes: usize,
    /// The master view (tag namespace 0). Job views are derived per job
    /// and dropped when the job ends; the master never leaves the mesh.
    ep: Endpoint,
    /// Live jobs' collective sequence counters, so successive views of one
    /// job (the run, then [`ResidentMesh::job_barrier`]) share a sequence.
    coll_counters: Mutex<HashMap<u64, Arc<AtomicU64>>>,
}

impl ResidentMesh {
    /// Joins the TCP mesh described by `cfg.peers` as `rank`, blocking
    /// until every pairwise connection is up and epoch-handshaken — the
    /// same bootstrap as [`Cluster::run_distributed`], performed once for
    /// the daemon's lifetime (or once per in-place relaunch, under a
    /// bumped `cfg.epoch`).
    pub fn connect(cfg: &EngineConfig, rank: Rank) -> Result<Self> {
        let ep = connect_mesh(cfg, rank, cfg.epoch)?;
        Ok(Self { rank, nodes: cfg.nodes, ep, coll_counters: Mutex::new(HashMap::new()) })
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Sends one control-plane message to `dst` as a complete stream on the
    /// reserved control tag. Concurrent control senders must serialize
    /// whole messages per peer (a message spans several frames and the
    /// demux queue is FIFO per (peer, tag)) and keep the outstanding
    /// control-frame count within the demux head-of-line budget
    /// ([`dfo_net::DEMUX_QUEUE_DEPTH`]) — the daemon does both.
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
        let cfg = cluster.config();
        if cfg.nodes != self.nodes {
            return Err(DfoError::Config(format!(
                "graph cluster spans {} nodes but the resident mesh has {}",
                cfg.nodes, self.nodes
            )));
        }
        // a failed context build drops only the view; the master endpoint
        // survives it (poisoned, like any other job failure)
        let view = self.ep.job_view(job_id, self.coll_counter(job_id));
        cluster.run_rank(self.rank, view, Some(scope), None, Some(cfg.epoch), f)
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
