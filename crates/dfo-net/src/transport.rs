//! The pluggable transport contract behind [`crate::Endpoint`].
//!
//! The engine talks to the cluster exclusively through [`crate::Endpoint`],
//! which owns the throttles and byte accounting and delegates frame movement
//! and collectives to a `Transport`. Two backends implement it:
//!
//! * [`crate::sim::SimTransport`] — every rank is a thread of one process;
//!   frames move through bounded in-memory channels and collectives hit a
//!   shared-memory barrier (the fast path).
//! * [`crate::tcp::TcpTransport`] — every rank is its own OS process;
//!   frames are serialized with the [`crate::Frame`] codec over per-peer TCP
//!   connections and collectives are point-to-point messages relayed through
//!   rank 0.
//!
//! The contract deliberately mirrors the small slice of MPI the paper's
//! system needs: tagged point-to-point streams, a barrier, and all-reduce.

use crate::frame::Frame;
use dfo_types::{Rank, Result};

/// Moves frames between ranks and synchronizes them.
///
/// # Contract
///
/// * `send_frame` blocks for backpressure (bounded peer buffers), never for
///   the receiver to *match* the stream: a sender can finish a stream before
///   the receiver opens it.
/// * `recv_frame(src, tag)` returns the next frame of stream `tag` from
///   `src` in send order. Backends without tag demultiplexing (the channel
///   backend, where exactly one stream per direction of a pair is live at a
///   time) may return the next frame from `src` regardless of tag; the
///   caller checks the tag.
/// * Collectives are SPMD: every rank calls the same collective in the same
///   order **per tag namespace** — the caller (the [`crate::Endpoint`])
///   supplies the full collective tag, combining its namespace base with a
///   per-namespace sequence number, so independent namespaces (the mesh
///   master plus any number of concurrent jobs, see [`crate::tag`]) may
///   interleave collectives freely on tag-demultiplexing backends. Fold
///   closures are only evaluated where the reduction happens (shared
///   memory, or rank 0 for relayed backends) and must be commutative-free
///   order-stable: both backends fold values in rank order so
///   floating-point reductions are bit-identical across backends.
/// * The channel backend's collectives hit one shared-memory rendezvous
///   and **ignore the tag** — it cannot isolate concurrent namespaces, so
///   overlapping jobs are only supported over the TCP backend (the
///   simulation runs ranks as threads of one process, where the engine
///   already serializes jobs per cluster).
/// * After `poison`, every pending and future operation on any rank's
///   endpoint fails with `DfoError::NetClosed` instead of blocking — the
///   moral equivalent of an MPI job abort.
pub trait Transport: Send + Sync {
    /// Queues one frame to `dst`, blocking on backpressure.
    fn send_frame(&self, dst: Rank, frame: Frame) -> Result<()>;

    /// Next frame of stream `tag` from `src` (see trait docs for the
    /// tag-matching latitude given to FIFO backends).
    fn recv_frame(&self, src: Rank, tag: u64) -> Result<Frame>;

    /// Blocks until every rank arrives at a barrier with this `tag`; fails
    /// if the cluster is poisoned or a peer died.
    fn barrier(&self, tag: u64) -> Result<()>;

    /// Marks the cluster dead, waking every blocked rank with an error.
    fn poison(&self);

    /// All-reduce over `u64` under collective tag `tag`; `fold` is applied
    /// in rank order where the reduction happens.
    fn allreduce_u64(
        &self,
        tag: u64,
        v: u64,
        fold: &(dyn Fn(u64, u64) -> u64 + Sync),
    ) -> Result<u64>;

    /// All-reduce over `f64` under collective tag `tag`, folded in rank
    /// order (bit-stable).
    fn allreduce_f64(
        &self,
        tag: u64,
        v: f64,
        fold: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<f64>;

    /// Drops receive-side resources of job namespace `job_id` (see
    /// [`crate::tag::job_tag_base`]): pending demux queues are discarded
    /// and frames of that job still in flight are dropped on arrival, so a
    /// job that died mid-stream can neither leak queues nor head-of-line
    /// block an overlapping job. No-op on backends without per-tag queues.
    fn reclaim_job(&self, _job_id: u64) {}

    /// Frames of one stream to a peer this backend holds with no help from
    /// the receiver, whatever other streams it carries meanwhile. A stream
    /// of at most one [`crate::endpoint::STREAM_CHUNK`] is one frame, so
    /// one is what [`crate::Endpoint::buffers_whole`] asks for. None by
    /// default: a backend whose per-peer buffers every stream shares (TCP,
    /// where one full demux queue stalls the peer's reader for every tag of
    /// every job on the connection) can promise nothing per stream.
    fn private_stream_frames(&self) -> usize {
        0
    }
}
