//! Cluster transport for DFOGraph, pluggable between simulation and TCP.
//!
//! The paper runs on MPI over a 25 Gbps network. This crate provides the
//! equivalent substrate behind one [`Endpoint`] API — point-to-point byte
//! streams paced by per-node egress/ingress token buckets and fully
//! byte-accounted, plus the two collectives the engine needs (poisonable
//! barrier, all-reduce). Both are written once: every rank receives
//! through per-`(peer, tag)` bounded queues (`demux.rs`), and the
//! collectives are one rank-0 relay over frames (`collective.rs`). Two
//! interchangeable [`Transport`] backends only move frames into a peer's
//! queues:
//!
//! * **Simulation** ([`SimCluster`]): each node is a thread (group) of one
//!   process, and a send pushes the frame into the peer's queue directly.
//!   The key property preserved from the real testbed is the one
//!   DFOGraph's evaluation reasons about: transfer time ≈ bytes /
//!   bandwidth per node (§4.5 "bandwidth assumption").
//! * **TCP** ([`TcpCluster`]): each node is its own OS process; frames are
//!   serialized with a binary codec over per-peer sockets, and a reader
//!   thread per peer pushes them into the queues. This is how the
//!   small-cluster systems the paper compares against (GraphD, GraphH)
//!   deploy.
//!
//! Byte accounting charges the same 16-byte envelope per frame in both
//! backends, so traffic measurements are comparable across deployments.

mod collective;
mod demux;
pub mod endpoint;
pub mod frame;
pub mod sim;
pub mod tag;
pub mod tcp;
pub mod transport;

pub use demux::DEMUX_QUEUE_DEPTH;
pub use endpoint::{Endpoint, NetStats, NetTotals, PeerCounters, SimCluster, StreamRecv};
pub use frame::{Frame, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD};
pub use sim::SimTransport;
pub use tag::{job_tag_base, tag_in_job, CTRL_TAG_BIT, JOB_FIELD_MASK, JOB_TAG_SHIFT};
pub use tcp::{TcpCluster, TcpOpts, TcpTransport};
pub use transport::Transport;
