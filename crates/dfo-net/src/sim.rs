//! In-process transport backend: ranks are threads, and a send pushes the
//! frame straight into the peer's `Demux` — the TCP backend's receive
//! side without the sockets and codec threads in front of it.
//!
//! This is the original simulation substrate of the reproduction. It
//! preserves the property DFOGraph's evaluation reasons about (transfer
//! time ≈ bytes / bandwidth per node, §4.5) while costing nothing to
//! bootstrap, so tests and benchmarks default to it.

use crate::collective::POISONED;
use crate::demux::{Demux, DEMUX_QUEUE_DEPTH};
use crate::frame::Frame;
use crate::transport::Transport;
use dfo_types::{DfoError, Rank, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The receive queues of every rank of one in-process cluster.
struct SimMesh {
    demux: Vec<Demux>,
    poisoned: AtomicBool,
}

/// Demux-backed transport for one rank of an in-process cluster.
pub struct SimTransport {
    rank: Rank,
    mesh: Arc<SimMesh>,
}

impl SimTransport {
    /// Wires `p` transports over one demux per rank. Index `i` of the
    /// result belongs to rank `i`.
    pub fn build_mesh(p: usize) -> Vec<SimTransport> {
        assert!(p >= 1);
        let mesh = Arc::new(SimMesh {
            demux: (0..p).map(|_| Demux::new(p)).collect(),
            poisoned: AtomicBool::new(false),
        });
        (0..p).map(|rank| SimTransport { rank, mesh: mesh.clone() }).collect()
    }
}

impl Transport for SimTransport {
    fn send_frame(&self, dst: Rank, frame: Frame) -> Result<()> {
        self.mesh.demux[dst]
            .push(self.rank, frame)
            .map_err(|()| DfoError::peer_died(format_args!("send {} -> {dst}", self.rank)))
    }

    fn recv_frame(&self, src: Rank, tag: u64) -> Result<Frame> {
        self.mesh.demux[self.rank].pop(src, tag)
    }

    fn poison(&self) {
        self.mesh.poisoned.store(true, Ordering::Release);
        for demux in &self.mesh.demux {
            demux.close_all(POISONED);
        }
    }

    fn poisoned(&self) -> bool {
        self.mesh.poisoned.load(Ordering::Acquire)
    }

    fn reclaim_job(&self, job_id: u64) {
        self.mesh.demux[self.rank].reclaim_job(job_id);
    }

    /// A send fills the stream's own queue at the peer, which no other
    /// stream shares: all of its depth is the stream's.
    fn private_stream_frames(&self) -> usize {
        DEMUX_QUEUE_DEPTH
    }
}

impl Drop for SimTransport {
    /// Leaves the mesh like a TCP peer that closed its socket: what it sent
    /// still drains at each peer, after which their receives from it fail,
    /// and their sends to it fail at once.
    fn drop(&mut self) {
        let why = format!("rank {} left the mesh", self.rank);
        for demux in &self.mesh.demux {
            demux.close(self.rank, &why);
        }
        self.mesh.demux[self.rank].close_all(&why);
    }
}
