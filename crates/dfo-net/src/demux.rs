//! The receive side of both backends: per-`(peer, tag)` bounded frame
//! queues.
//!
//! Every rank owns one [`Demux`]. Frames from a peer land in the queue of
//! their tag (the TCP backend's reader thread pushes what it decodes, the
//! in-process backend's sender pushes directly), and a receiver pops the
//! next frame of the one stream it wants. Streams of different tags, job
//! namespaces and collectives therefore never wait behind each other
//! unless a queue is full.

use crate::frame::Frame;
use crate::tag;
use dfo_types::{DfoError, Rank, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};

/// Frames buffered per (peer, tag) before a push blocks (backpressure). It
/// bounds receive-buffer memory like the fixed in-memory buffers of the
/// original implementation (Figure 3), and it is the outstanding-frame
/// budget control-plane code states its limits against.
pub const DEMUX_QUEUE_DEPTH: usize = 16;

/// Dead job namespaces remembered per peer so a reclaimed job's in-flight
/// frames are dropped on arrival rather than resurrecting its queues. A
/// bounded FIFO: once more than this many jobs have been reclaimed, the
/// oldest is forgotten — by then its stragglers have long since drained
/// (frames of a forgotten dead job would sit in an orphaned queue until
/// the demux drops, bounded by `DEMUX_QUEUE_DEPTH` frames each).
const DEAD_JOBS_REMEMBERED: usize = 64;

struct PeerState {
    queues: HashMap<u64, VecDeque<Frame>>,
    /// Job namespaces reclaimed on this endpoint (newest last, bounded by
    /// [`DEAD_JOBS_REMEMBERED`]): frames whose tag falls in one of these
    /// are dropped on arrival instead of queued.
    dead_jobs: VecDeque<u64>,
    /// Why the peer is gone, once it is; queued frames still drain first.
    closed: Option<String>,
}

impl PeerState {
    fn job_is_dead(&self, frame_tag: u64) -> bool {
        self.dead_jobs.iter().any(|&job| tag::tag_in_job(frame_tag, job))
    }
}

struct PeerSlot {
    state: Mutex<PeerState>,
    cv: Condvar,
}

/// One rank's receive queues, one slot per peer.
pub(crate) struct Demux {
    slots: Vec<PeerSlot>,
}

impl Demux {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            slots: (0..p)
                .map(|_| PeerSlot {
                    state: Mutex::new(PeerState {
                        queues: HashMap::new(),
                        dead_jobs: VecDeque::new(),
                        closed: None,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Routes one incoming frame; blocks while its queue is full (which
    /// stalls the pusher: the TCP reader thread, and through TCP flow
    /// control the remote sender, or the in-process sender itself). Frames
    /// of a reclaimed job namespace are dropped — the dead-job check
    /// repeats after every wakeup, so a push blocked on a queue that
    /// [`Demux::reclaim_job`] then discards unblocks and drops instead of
    /// resurrecting it. Errors only when the slot was closed.
    pub(crate) fn push(&self, src: Rank, frame: Frame) -> std::result::Result<(), ()> {
        let slot = &self.slots[src];
        let mut st = slot.state.lock();
        loop {
            if st.closed.is_some() {
                return Err(());
            }
            if st.job_is_dead(frame.tag) {
                return Ok(()); // late frame of a reclaimed job: drop it
            }
            let q = st.queues.entry(frame.tag).or_default();
            if q.len() < DEMUX_QUEUE_DEPTH {
                q.push_back(frame);
                slot.cv.notify_all();
                return Ok(());
            }
            slot.cv.wait(&mut st);
        }
    }

    /// Next frame of stream `tag` from `src`. Frames already queued when
    /// the peer died still drain; afterwards every pop fails.
    pub(crate) fn pop(&self, src: Rank, tag: u64) -> Result<Frame> {
        let slot = &self.slots[src];
        let mut st = slot.state.lock();
        loop {
            if let Some(q) = st.queues.get_mut(&tag) {
                // only a push into this very queue can be waiting for room
                let was_full = q.len() == DEMUX_QUEUE_DEPTH;
                if let Some(f) = q.pop_front() {
                    if f.last && q.is_empty() {
                        // stream finished: reclaim the queue slot — but only
                        // when nothing is buffered behind it. Tags are reused
                        // for back-to-back streams (the control channel sends
                        // every message on one tag), so frames of the *next*
                        // stream may already sit in this queue and must not
                        // be discarded with the finished one.
                        st.queues.remove(&tag);
                    }
                    if was_full {
                        slot.cv.notify_all();
                    }
                    return Ok(f);
                }
            }
            if let Some(why) = &st.closed {
                return Err(DfoError::peer_died(format_args!("peer {src}: {why}")));
            }
            slot.cv.wait(&mut st);
        }
    }

    /// Marks `src` gone: blocked and later pushes from it fail, pops drain
    /// what is queued and then fail with `why`. The first reason sticks.
    pub(crate) fn close(&self, src: Rank, why: &str) {
        let slot = &self.slots[src];
        let mut st = slot.state.lock();
        if st.closed.is_none() {
            st.closed = Some(why.to_string());
        }
        slot.cv.notify_all();
    }

    pub(crate) fn close_all(&self, why: &str) {
        for src in 0..self.slots.len() {
            self.close(src, why);
        }
    }

    /// Discards every queue of job `job_id`'s tag namespace on every peer
    /// slot and remembers the job as dead (bounded memory, see
    /// [`DEAD_JOBS_REMEMBERED`]) so frames of it still in flight are
    /// dropped on arrival. Control queues are untouched — control tags
    /// belong to no job. Wakes all waiters: a push blocked on a discarded
    /// (previously full) queue re-checks and drops.
    pub(crate) fn reclaim_job(&self, job_id: u64) {
        for slot in &self.slots {
            let mut st = slot.state.lock();
            st.queues.retain(|&tag, _| !tag::tag_in_job(tag, job_id));
            if !st.dead_jobs.contains(&job_id) {
                st.dead_jobs.push_back(job_id);
                if st.dead_jobs.len() > DEAD_JOBS_REMEMBERED {
                    st.dead_jobs.pop_front();
                }
            }
            slot.cv.notify_all();
        }
    }
}
