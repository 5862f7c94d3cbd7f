//! In-process transport backend: ranks are threads, frames move through
//! bounded crossbeam channels, collectives hit the shared-memory
//! [`Collective`] fast path.
//!
//! This is the original simulation substrate of the reproduction. It
//! preserves the property DFOGraph's evaluation reasons about (transfer
//! time ≈ bytes / bandwidth per node, §4.5) while costing nothing to
//! bootstrap, so tests and benchmarks default to it.

use crate::collective::Collective;
use crate::frame::Frame;
use crate::transport::Transport;
use dfo_types::{DfoError, Rank, Result};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};

/// Frames in flight per (src, dst) pair; bounds receive-buffer memory like
/// the fixed in-memory buffers of the original implementation (Figure 3).
pub(crate) const CHANNEL_DEPTH: usize = 16;

/// Channel-based transport for one rank of an in-process cluster.
pub struct SimTransport {
    rank: Rank,
    out: Vec<Option<Sender<Frame>>>,
    inb: Vec<Option<Receiver<Frame>>>,
    collective: Arc<Collective>,
}

impl SimTransport {
    /// Wires `p` transports with a full matrix of bounded channels and one
    /// shared collective. Index `i` of the result belongs to rank `i`.
    pub fn build_mesh(p: usize) -> Vec<SimTransport> {
        assert!(p >= 1);
        // matrix of channels: chan[src][dst]
        let mut senders: Vec<Vec<Option<Sender<Frame>>>> = (0..p).map(|_| vec![None; p]).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Frame>>>> =
            (0..p).map(|_| vec![None; p]).collect();
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                let (tx, rx) = bounded(CHANNEL_DEPTH);
                senders[src][dst] = Some(tx);
                receivers[dst][src] = Some(rx);
            }
        }
        let collective = Collective::new(p);
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (out, inb))| SimTransport {
                rank,
                out,
                inb,
                collective: collective.clone(),
            })
            .collect()
    }
}

impl Transport for SimTransport {
    fn send_frame(&self, dst: Rank, frame: Frame) -> Result<()> {
        self.out[dst]
            .as_ref()
            .expect("no channel to dst")
            .send(frame)
            .map_err(|_| DfoError::peer_died(format_args!("send {} -> {}", self.rank, dst)))
    }

    /// Streams are FIFO per (src, dst) pair here — exactly one stream per
    /// direction is live at a time — so the tag is not used for
    /// demultiplexing; the caller verifies it.
    fn recv_frame(&self, src: Rank, _tag: u64) -> Result<Frame> {
        self.inb[src]
            .as_ref()
            .expect("no channel from src")
            .recv()
            .map_err(|_| DfoError::peer_died(format_args!("recv {} <- {}", self.rank, src)))
    }

    /// The shared-memory collective is a single rendezvous — it cannot
    /// isolate concurrent tag namespaces, so the tag is ignored. Exactly
    /// one job's collectives may be live at a time on this backend (see
    /// the [`Transport`] trait docs); concurrent jobs need the TCP
    /// backend's tag-demultiplexed relay.
    fn barrier(&self, _tag: u64) -> Result<()> {
        self.collective.barrier()
    }

    fn poison(&self) {
        self.collective.poison();
    }

    /// One channel per pair, and one stream per direction of a pair live
    /// at a time: all of a channel's depth is the stream's.
    fn private_stream_frames(&self) -> usize {
        CHANNEL_DEPTH
    }

    fn allreduce_u64(
        &self,
        _tag: u64,
        v: u64,
        fold: &(dyn Fn(u64, u64) -> u64 + Sync),
    ) -> Result<u64> {
        self.collective.allreduce_u64(self.rank, v, fold)
    }

    fn allreduce_f64(
        &self,
        _tag: u64,
        v: f64,
        fold: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<f64> {
        self.collective.allreduce_f64(self.rank, v, fold)
    }
}
