//! The pluggable transport contract behind [`crate::Endpoint`].
//!
//! The engine talks to the cluster exclusively through [`crate::Endpoint`],
//! which owns the throttles, byte accounting and collectives (the rank-0
//! relay of `collective.rs`) and delegates frame movement to a
//! `Transport`. The receive side of both backends is the same
//! per-`(peer, tag)` demux; they differ in how a frame gets there:
//!
//! * [`crate::sim::SimTransport`] — every rank is a thread of one process;
//!   a send pushes the frame straight into the peer's demux.
//! * [`crate::tcp::TcpTransport`] — every rank is its own OS process;
//!   frames are serialized with the [`crate::Frame`] codec over per-peer TCP
//!   connections, and a reader thread per peer pushes them into the demux.
//!
//! The contract deliberately mirrors the small slice of MPI the paper's
//! system needs: tagged point-to-point streams, a barrier, and all-reduce.

use crate::frame::Frame;
use dfo_types::{Rank, Result};

/// Moves frames between ranks.
///
/// # Contract
///
/// * `send_frame` blocks for backpressure (bounded peer buffers), never for
///   the receiver to *match* the stream: a sender can finish a stream before
///   the receiver opens it.
/// * `recv_frame(src, tag)` returns the next frame of stream `tag` from
///   `src` in send order, whatever frames of other tags arrived meanwhile.
///   Independent tag namespaces (the mesh master plus any number of
///   concurrent jobs, see [`crate::tag`]) therefore interleave their
///   streams and collectives freely.
/// * After `poison`, every pending and future operation on any rank's
///   endpoint fails with `DfoError::NetClosed` instead of blocking — the
///   moral equivalent of an MPI job abort. Frames queued at a rank before
///   the poison still drain.
pub trait Transport: Send + Sync {
    /// Queues one frame to `dst`, blocking on backpressure.
    fn send_frame(&self, dst: Rank, frame: Frame) -> Result<()>;

    /// Next frame of stream `tag` from `src`.
    fn recv_frame(&self, src: Rank, tag: u64) -> Result<Frame>;

    /// Marks the cluster dead, waking every blocked rank with an error.
    fn poison(&self);

    /// Whether `poison` has reached this rank's transport: collectives
    /// then fail before moving a frame, which is what fails them on a
    /// one-rank mesh. (A remote poison may reach a TCP rank only as a
    /// closed connection, which fails the collective's next receive.)
    fn poisoned(&self) -> bool;

    /// Drops receive-side resources of job namespace `job_id` (see
    /// [`crate::tag::job_tag_base`]): pending demux queues are discarded
    /// and frames of that job still in flight are dropped on arrival, so a
    /// job that died mid-stream can neither leak queues nor head-of-line
    /// block an overlapping job.
    fn reclaim_job(&self, job_id: u64);

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
