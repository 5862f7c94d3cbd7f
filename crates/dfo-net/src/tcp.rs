//! Real TCP transport backend: every rank is its own OS process.
//!
//! ## Wire protocol
//!
//! Each pair of ranks shares one full-duplex TCP connection carrying
//! [`Frame`]s in the binary codec of `frame.rs` (16-byte src/tag/len|last
//! header + payload). Each peer connection gets a dedicated *writer thread*
//! (serializes frames from a bounded queue, flushing whenever the queue
//! drains) and a *demux reader thread* (decodes incoming frames and routes
//! them to per-`(peer, tag)` bounded queues). The bounded queues plus TCP's
//! own flow control give end-to-end backpressure equivalent to the
//! simulation's bounded channels.
//!
//! ## Bootstrap
//!
//! Every rank knows the full peer address list (one `host:port` per rank;
//! see `EngineConfig::peers`). Rank `r` listens on `peers[r]`; each pair is
//! connected by the *higher* rank dialing the lower one — so rank 0 only
//! listens and every peer dials it, rank `P-1` only dials. Dialers retry
//! until the deadline, which makes process start order irrelevant. A
//! handshake (magic, protocol version, rank, cluster size, **epoch**)
//! validates both ends before the connection joins the mesh; the mesh is
//! complete before `connect` returns, i.e. before any `NodeCtx` is built on
//! top of it.
//!
//! ## Epochs and restart
//!
//! Checkpoint-restart (paper §3.2 over process relaunch) rebuilds the mesh
//! after a rank dies: survivors tear their transport down and re-enter this
//! bootstrap under an *incremented epoch*, while a supervisor relaunches
//! the dead rank with the same epoch (`DFO_EPOCH`). The epoch rides in the
//! hello: a listener silently drops hellos from any other epoch (a stale
//! incarnation's late dial can never join the new mesh), and a dialer whose
//! hello is dropped — or whose ack carries a different epoch — keeps
//! retrying until the deadline, because the peer may simply not have
//! finished tearing down the old mesh yet. `std`'s `TcpListener::bind` sets
//! `SO_REUSEADDR` on Unix, so a surviving rank can re-listen on its fixed
//! address immediately, even while sockets of the previous mesh linger in
//! `TIME_WAIT`.
//!
//! ## Collectives
//!
//! The shared-memory [`crate::Collective`] cannot span processes, so the
//! barrier and all-reduces are reimplemented as point-to-point messages
//! relayed through rank 0: everyone sends its value to rank 0, rank 0 folds
//! in rank order (bit-identical to the simulation's slot fold) and
//! broadcasts the result. Collective streams use tags with the top bit set
//! ([`crate::tag::COLL_TAG_BIT`]), a namespace the engine's call-sequence
//! tags never reach; the full tag (namespace base + per-namespace sequence
//! number) comes from the caller, so collectives of concurrent job
//! namespaces relay through rank 0 without ever matching each other's
//! frames. A dead peer (EOF, reset, or an explicit `poison`) fails the
//! collective with `NetClosed` on every survivor instead of hanging, and a
//! failed collective poisons the local mesh so the error cascades.

use crate::endpoint::Endpoint;
use crate::frame::Frame;
use crate::sim::CHANNEL_DEPTH;
use crate::tag;
use crate::transport::Transport;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use dfo_types::codec::{read_u32, read_u64, write_u32, write_u64};
use dfo_types::{DfoError, Rank, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `"DFOG"` + protocol tag; rejects accidental cross-talk with anything
/// that is not a DFOGraph mesh peer.
const MAGIC: u64 = 0x4446_4f47_4d45_5348; // "DFOGMESH"
const PROTO_VERSION: u32 = 2; // v2: hello carries the mesh epoch

/// Frames buffered per (peer, tag) on the receive side before the demux
/// reader stops reading from that peer's socket (backpressure).
const QUEUE_DEPTH: usize = CHANNEL_DEPTH;

/// Dead job namespaces remembered per peer so a reclaimed job's in-flight
/// frames are dropped on arrival rather than resurrecting its queues. A
/// bounded FIFO: once more than this many jobs have been reclaimed, the
/// oldest is forgotten — by then its stragglers have long since drained
/// (frames of a forgotten dead job would sit in an orphaned queue until
/// the transport drops, bounded by `QUEUE_DEPTH` frames each).
const DEAD_JOBS_REMEMBERED: usize = 64;

/// Public alias of the per-(peer, tag) demux queue depth, so control-plane
/// code (and the head-of-line guard test) can state its outstanding-frame
/// budget against the real number.
pub const DEMUX_QUEUE_DEPTH: usize = QUEUE_DEPTH;

/// Socket buffer sizing for the codec threads.
const IO_BUF: usize = 256 << 10;

/// Bootstrap options for [`TcpCluster::connect`].
#[derive(Clone, Debug)]
pub struct TcpOpts {
    /// Deadline for the whole mesh to come up (dial retries + handshakes).
    pub connect_timeout: Duration,
    /// Mesh epoch announced in the handshake; connections from any other
    /// epoch are rejected. Bumped once per checkpoint-restart recovery so a
    /// dead incarnation's sockets can never rejoin.
    pub epoch: u64,
}

impl Default for TcpOpts {
    fn default() -> Self {
        Self { connect_timeout: Duration::from_secs(30), epoch: 0 }
    }
}

/// Builder for the multi-process cluster: joins the TCP mesh and returns
/// this rank's [`Endpoint`].
pub struct TcpCluster;

impl TcpCluster {
    /// Establishes the full mesh for `rank` (blocking until every pair is
    /// connected and handshaken) and wraps it in an [`Endpoint`] with the
    /// same throttle/accounting semantics as the in-process cluster.
    pub fn connect(
        rank: Rank,
        peers: &[String],
        net_bw: Option<u64>,
        record_traffic: bool,
        opts: TcpOpts,
    ) -> Result<Endpoint> {
        let transport = TcpTransport::connect(rank, peers, opts)?;
        Ok(Endpoint::new(rank, peers.len(), Box::new(transport), net_bw, record_traffic))
    }
}

// ---------------------------------------------------------------------------
// handshake

fn handshake_err(msg: impl Into<String>) -> DfoError {
    DfoError::Handshake(msg.into())
}

fn write_hello(s: &mut TcpStream, rank: Rank, p: usize, epoch: u64) -> std::io::Result<()> {
    write_u64(s, MAGIC)?;
    write_u32(s, PROTO_VERSION)?;
    write_u32(s, rank as u32)?;
    write_u32(s, p as u32)?;
    write_u64(s, epoch)
}

fn read_hello(s: &mut TcpStream) -> Result<(Rank, usize, u64)> {
    let magic = read_u64(s).map_err(|e| handshake_err(format!("reading hello: {e}")))?;
    if magic != MAGIC {
        return Err(handshake_err(format!("bad magic {magic:#x}: not a DFOGraph mesh peer")));
    }
    let ver = read_u32(s).map_err(|e| handshake_err(format!("reading hello: {e}")))?;
    if ver != PROTO_VERSION {
        return Err(handshake_err(format!("protocol version mismatch: {ver} != {PROTO_VERSION}")));
    }
    let rank = read_u32(s).map_err(|e| handshake_err(format!("reading hello: {e}")))? as Rank;
    let p = read_u32(s).map_err(|e| handshake_err(format!("reading hello: {e}")))? as usize;
    let epoch = read_u64(s).map_err(|e| handshake_err(format!("reading hello: {e}")))?;
    Ok((rank, p, epoch))
}

// ---------------------------------------------------------------------------
// demux: per-(peer, tag) bounded frame queues

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

struct Demux {
    slots: Vec<PeerSlot>,
}

impl Demux {
    fn new(p: usize) -> Arc<Self> {
        Arc::new(Self {
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
        })
    }

    /// Routes one incoming frame; blocks while its queue is full (which in
    /// turn stalls the reader thread and lets TCP flow control push back on
    /// the sender). Frames of a reclaimed job namespace are dropped — the
    /// dead-job check repeats after every wakeup, so a reader blocked on a
    /// queue that [`Demux::reclaim_job`] then discards unblocks and drops
    /// instead of resurrecting it. Errors only when the slot was closed
    /// locally.
    fn push(&self, src: Rank, frame: Frame) -> std::result::Result<(), ()> {
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
            if q.len() < QUEUE_DEPTH {
                q.push_back(frame);
                slot.cv.notify_all();
                return Ok(());
            }
            slot.cv.wait(&mut st);
        }
    }

    /// Next frame of stream `tag` from `src`. Frames already queued when
    /// the peer died still drain; afterwards every pop fails.
    fn pop(&self, src: Rank, tag: u64) -> Result<Frame> {
        let slot = &self.slots[src];
        let mut st = slot.state.lock();
        loop {
            if let Some(q) = st.queues.get_mut(&tag) {
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
                    slot.cv.notify_all();
                    return Ok(f);
                }
            }
            if let Some(why) = &st.closed {
                return Err(DfoError::NetClosed(format!("peer {src}: {why}")));
            }
            slot.cv.wait(&mut st);
        }
    }

    fn close(&self, src: Rank, why: &str) {
        let slot = &self.slots[src];
        let mut st = slot.state.lock();
        if st.closed.is_none() {
            st.closed = Some(why.to_string());
        }
        slot.cv.notify_all();
    }

    fn close_all(&self, why: &str) {
        for src in 0..self.slots.len() {
            self.close(src, why);
        }
    }

    /// Discards every queue of job `job_id`'s tag namespace on every peer
    /// slot and remembers the job as dead (bounded memory, see
    /// [`DEAD_JOBS_REMEMBERED`]) so frames of it still in flight are
    /// dropped on arrival. Control queues are untouched — control tags
    /// belong to no job. Wakes all waiters: a reader thread blocked pushing
    /// into a discarded (previously full) queue re-checks and drops.
    fn reclaim_job(&self, job_id: u64) {
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

// ---------------------------------------------------------------------------
// per-peer codec threads

fn writer_loop(rx: Receiver<Frame>, stream: TcpStream) {
    let mut w = BufWriter::with_capacity(IO_BUF, stream);
    'outer: while let Ok(first) = rx.recv() {
        if first.write_to(&mut w).is_err() {
            break;
        }
        // batch whatever is already queued, then flush once
        loop {
            match rx.try_recv() {
                Ok(f) => {
                    if f.write_to(&mut w).is_err() {
                        break 'outer;
                    }
                }
                Err(TryRecvError::Empty) => {
                    if w.flush().is_err() {
                        break 'outer;
                    }
                    break;
                }
                Err(TryRecvError::Disconnected) => break 'outer,
            }
        }
    }
    // dropping `rx` here disconnects the channel, so post-failure sends
    // surface as NetClosed at the caller instead of queuing into the void
    let _ = w.flush();
    if let Ok(stream) = w.into_inner() {
        let _ = stream.shutdown(Shutdown::Write);
    }
}

fn reader_loop(stream: TcpStream, peer: Rank, demux: Arc<Demux>) {
    let mut r = BufReader::with_capacity(IO_BUF, stream);
    loop {
        match Frame::read_from(&mut r) {
            Ok(Some(f)) => {
                if f.src != peer {
                    demux.close(peer, &format!("frame src {} on connection to {peer}", f.src));
                    return;
                }
                if demux.push(peer, f).is_err() {
                    return; // closed locally (poison/teardown)
                }
            }
            Ok(None) => {
                demux.close(peer, "connection closed");
                return;
            }
            Err(e) => {
                demux.close(peer, &e.to_string());
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the transport

/// One rank's TCP mesh: per-peer writer threads, demux reader threads, and
/// rank-0-relayed collectives.
pub struct TcpTransport {
    rank: Rank,
    p: usize,
    writers: Vec<Option<Sender<Frame>>>,
    demux: Arc<Demux>,
    /// Raw socket handles kept for `poison` (shutdown wakes both codec
    /// threads and the remote peer).
    streams: Vec<Option<TcpStream>>,
    poisoned: AtomicBool,
    writer_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Joins the mesh as `rank` of `peers.len()` ranks. Blocks until every
    /// pairwise connection is up or the deadline passes.
    pub fn connect(rank: Rank, peers: &[String], opts: TcpOpts) -> Result<TcpTransport> {
        let p = peers.len();
        if rank >= p {
            return Err(handshake_err(format!("rank {rank} outside peer list of {p}")));
        }
        let deadline = Instant::now() + opts.connect_timeout;

        // bind before dialing anyone so lower ranks never observe a window
        // where our higher-rank dialers could outrun the listener. std sets
        // SO_REUSEADDR on Unix listeners, so a recovering rank re-listens on
        // its fixed address while sockets of the torn-down mesh are still
        // in TIME_WAIT.
        let listener = if rank + 1 < p {
            let l = TcpListener::bind(&peers[rank])
                .map_err(|e| handshake_err(format!("rank {rank} binding {}: {e}", peers[rank])))?;
            l.set_nonblocking(true)
                .map_err(|e| handshake_err(format!("listener nonblocking: {e}")))?;
            Some(l)
        } else {
            None
        };

        let mut streams: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();

        // dial every lower rank (retrying: start order must not matter)
        for dst in 0..rank {
            streams[dst] = Some(dial_handshake(&peers[dst], dst, rank, p, opts.epoch, deadline)?);
        }

        // accept every higher rank. A connection that fails the handshake
        // (port scan, health probe, dialer that died mid-handshake) is
        // *dropped* and accepting continues — that is the MAGIC check's
        // whole point — and so is a well-formed hello from a different
        // *epoch* (a stale incarnation, or a recovered peer that noticed
        // the failure before we did: it will redial); only a well-formed
        // same-epoch hello that is inconsistent with this mesh (wrong
        // size, bad or duplicate rank: a real peer that is misconfigured)
        // aborts the bootstrap.
        if let Some(listener) = listener {
            let expected = p - rank - 1;
            let mut accepted = 0;
            while accepted < expected {
                let (stream, _) = accept_retry(&listener, deadline)?;
                let Ok(mut stream) = configure(stream) else { continue };
                let Ok(left) = remaining(deadline) else {
                    return Err(handshake_err("mesh bootstrap timed out"));
                };
                if stream.set_read_timeout(Some(left)).is_err() {
                    continue;
                }
                let Ok((peer, peer_p, peer_epoch)) = read_hello(&mut stream) else { continue };
                if peer_epoch != opts.epoch {
                    continue; // stale (or too-new) epoch: reject, keep accepting
                }
                if peer_p != p || peer <= rank || peer >= p {
                    return Err(handshake_err(format!(
                        "rank {rank} accepted bogus hello: rank {peer} of {peer_p}"
                    )));
                }
                if streams[peer].is_some() {
                    return Err(handshake_err(format!("rank {peer} connected twice")));
                }
                if write_hello(&mut stream, rank, p, opts.epoch).is_err() {
                    continue; // peer died between hello and ack: drop it
                }
                if stream.set_read_timeout(None).is_err() {
                    continue;
                }
                streams[peer] = Some(stream);
                accepted += 1;
            }
        }

        // mesh complete: spin up the codec threads
        let demux = Demux::new(p);
        let mut writers: Vec<Option<Sender<Frame>>> = (0..p).map(|_| None).collect();
        let mut handles = Vec::new();
        for (peer, slot) in streams.iter().enumerate() {
            let Some(stream) = slot else { continue };
            let wstream =
                stream.try_clone().map_err(|e| handshake_err(format!("socket clone: {e}")))?;
            let rstream =
                stream.try_clone().map_err(|e| handshake_err(format!("socket clone: {e}")))?;
            let (tx, rx) = bounded::<Frame>(CHANNEL_DEPTH);
            writers[peer] = Some(tx);
            handles.push(std::thread::spawn(move || writer_loop(rx, wstream)));
            let demux2 = demux.clone();
            // readers are detached: they exit on peer EOF/error and must
            // never block local teardown behind a hung remote
            std::thread::spawn(move || reader_loop(rstream, peer, demux2));
        }

        Ok(TcpTransport {
            rank,
            p,
            writers,
            demux,
            streams,
            poisoned: AtomicBool::new(false),
            writer_handles: Mutex::new(handles),
        })
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(DfoError::peer_died("cluster collective poisoned"));
        }
        Ok(())
    }

    fn coll_frame(&self, tag: u64, payload: Bytes) -> Frame {
        Frame { src: self.rank, tag, payload, last: true }
    }

    fn barrier_inner(&self, tag: u64) -> Result<()> {
        if self.rank == 0 {
            for src in 1..self.p {
                self.demux.pop(src, tag)?; // arrivals
            }
            for dst in 1..self.p {
                self.send_frame(dst, self.coll_frame(tag, Bytes::new()))?; // release
            }
        } else {
            self.send_frame(0, self.coll_frame(tag, Bytes::new()))?;
            self.demux.pop(0, tag)?;
        }
        Ok(())
    }

    /// Rank-0-relayed 8-byte all-reduce under the caller's collective tag:
    /// gather in rank order, fold at rank 0, broadcast. The rank-order fold
    /// makes float reductions bit-identical to the shared-memory backend.
    fn relay_reduce(
        &self,
        tag: u64,
        mine: [u8; 8],
        fold: &dyn Fn([u8; 8], [u8; 8]) -> [u8; 8],
    ) -> Result<[u8; 8]> {
        self.check_poisoned()?;
        if self.p == 1 {
            return Ok(mine);
        }
        let res = self.relay_reduce_inner(tag, mine, fold);
        if res.is_err() {
            self.poison();
        }
        res
    }

    fn relay_reduce_inner(
        &self,
        tag: u64,
        mine: [u8; 8],
        fold: &dyn Fn([u8; 8], [u8; 8]) -> [u8; 8],
    ) -> Result<[u8; 8]> {
        let payload8 = |f: &Frame| -> Result<[u8; 8]> {
            f.payload.as_ref().try_into().map_err(|_| {
                DfoError::Corrupt(format!(
                    "collective payload from {} is {} bytes, want 8",
                    f.src,
                    f.payload.len()
                ))
            })
        };
        if self.rank == 0 {
            let mut acc = mine;
            for src in 1..self.p {
                let f = self.demux.pop(src, tag)?;
                acc = fold(acc, payload8(&f)?);
            }
            for dst in 1..self.p {
                self.send_frame(dst, self.coll_frame(tag, Bytes::copy_from_slice(&acc)))?;
            }
            Ok(acc)
        } else {
            self.send_frame(0, self.coll_frame(tag, Bytes::copy_from_slice(&mine)))?;
            let f = self.demux.pop(0, tag)?;
            payload8(&f)
        }
    }
}

impl Transport for TcpTransport {
    fn send_frame(&self, dst: Rank, frame: Frame) -> Result<()> {
        self.check_poisoned()?;
        let tx = self.writers[dst].as_ref().expect("no connection to dst");
        tx.send(frame)
            .map_err(|_| DfoError::NetClosed(format!("send {} -> {dst}: peer gone", self.rank)))
    }

    fn recv_frame(&self, src: Rank, tag: u64) -> Result<Frame> {
        self.demux.pop(src, tag)
    }

    fn barrier(&self, tag: u64) -> Result<()> {
        self.check_poisoned()?;
        if self.p == 1 {
            return Ok(());
        }
        let res = self.barrier_inner(tag);
        if res.is_err() {
            // a failed collective is unrecoverable for the whole job:
            // poison locally so the error cascades through the mesh
            self.poison();
        }
        res
    }

    fn poison(&self) {
        if self.poisoned.swap(true, Ordering::AcqRel) {
            return;
        }
        for stream in self.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.demux.close_all("cluster collective poisoned");
    }

    fn allreduce_u64(
        &self,
        tag: u64,
        v: u64,
        fold: &(dyn Fn(u64, u64) -> u64 + Sync),
    ) -> Result<u64> {
        let out = self.relay_reduce(tag, v.to_le_bytes(), &|a, b| {
            fold(u64::from_le_bytes(a), u64::from_le_bytes(b)).to_le_bytes()
        })?;
        Ok(u64::from_le_bytes(out))
    }

    fn allreduce_f64(
        &self,
        tag: u64,
        v: f64,
        fold: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<f64> {
        let out = self.relay_reduce(tag, v.to_le_bytes(), &|a, b| {
            fold(f64::from_le_bytes(a), f64::from_le_bytes(b)).to_le_bytes()
        })?;
        Ok(f64::from_le_bytes(out))
    }

    fn reclaim_job(&self, job_id: u64) {
        self.demux.reclaim_job(job_id);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // disconnect the writer channels: writer threads drain what is
        // queued, flush, shut down their write halves (peers see EOF), exit
        for w in self.writers.iter_mut() {
            w.take();
        }
        for h in self.writer_handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

fn configure(stream: TcpStream) -> Result<TcpStream> {
    stream.set_nodelay(true).map_err(|e| handshake_err(format!("setting TCP_NODELAY: {e}")))?;
    stream
        .set_nonblocking(false)
        .map_err(|e| handshake_err(format!("clearing nonblocking: {e}")))?;
    Ok(stream)
}

fn remaining(deadline: Instant) -> Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(handshake_err("mesh bootstrap timed out"));
    }
    Ok(left)
}

/// Dials `dst` and completes the epoch-checked handshake, retrying the
/// *whole* dial on any retryable outcome until the deadline: connection
/// refused/reset, EOF mid-handshake (the listener dropped our hello — it
/// is still on another epoch, or we raced its teardown), or an ack with a
/// different epoch. Only a well-formed same-epoch ack that is inconsistent
/// with this mesh (wrong rank or size: misconfiguration) is fatal.
fn dial_handshake(
    addr: &str,
    dst: Rank,
    rank: Rank,
    p: usize,
    epoch: u64,
    deadline: Instant,
) -> Result<TcpStream> {
    let mut pause = Duration::from_millis(1);
    loop {
        let mut retry = |what: &str| -> Result<()> {
            if Instant::now() >= deadline {
                return Err(handshake_err(format!(
                    "rank {rank} dialing rank {dst}: mesh bootstrap timed out ({what})"
                )));
            }
            back_off(&mut pause, 25);
            Ok(())
        };
        let stream = dial_retry(addr, deadline)
            .map_err(|e| handshake_err(format!("rank {rank} dialing rank {dst}: {e}")))?;
        let mut stream = configure(stream)?;
        if stream.set_read_timeout(Some(remaining(deadline)?)).is_err() {
            retry("timeout setup failed")?;
            continue;
        }
        if write_hello(&mut stream, rank, p, epoch).is_err() {
            retry("peer closed during hello")?;
            continue;
        }
        let (ack_rank, ack_p, ack_epoch) = match read_hello(&mut stream) {
            Ok(ack) => ack,
            Err(_) => {
                // EOF or timeout: the listener rejected our epoch or died;
                // keep dialing — it may re-enter bootstrap at our epoch
                retry("hello rejected")?;
                continue;
            }
        };
        if ack_epoch != epoch {
            retry("epoch mismatch")?;
            continue;
        }
        if ack_rank != dst || ack_p != p {
            return Err(handshake_err(format!(
                "dialed {addr} expecting rank {dst} of {p}, got rank {ack_rank} of {ack_p}"
            )));
        }
        stream.set_read_timeout(None).map_err(|e| handshake_err(e.to_string()))?;
        return Ok(stream);
    }
}

/// Dials until the deadline. *Every* failure — refused connection, but also
/// transient name-resolution errors (the peer's DNS record may not exist
/// yet under orchestrators that register pods lazily) — is retried, so
/// process start order genuinely does not matter.
fn dial_retry(addr: &str, deadline: Instant) -> std::io::Result<TcpStream> {
    let (mut last_err, mut pause) = (None, Duration::from_millis(1));
    while Instant::now() < deadline {
        let resolved = addr.to_socket_addrs().and_then(|mut it| {
            it.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("no address: {addr}"))
            })
        });
        match resolved.and_then(|a| TcpStream::connect_timeout(&a, Duration::from_millis(500))) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last_err = Some(e);
                back_off(&mut pause, 25);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::TimedOut, "mesh bootstrap timed out")
    }))
}

/// Accepts until the deadline. Transient accept failures (`WouldBlock` from
/// the nonblocking listener, but also e.g. `ECONNABORTED` when a dialer
/// resets before the accept completes) keep polling rather than aborting.
fn accept_retry(
    listener: &TcpListener,
    deadline: Instant,
) -> Result<(TcpStream, std::net::SocketAddr)> {
    let mut pause = Duration::from_millis(1);
    loop {
        match listener.accept() {
            Ok(pair) => return Ok(pair),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(handshake_err(format!(
                        "mesh bootstrap timed out waiting for inbound peers (last: {e})"
                    )));
                }
                back_off(&mut pause, 10);
            }
        }
    }
}

/// Sleeps `pause` between two bootstrap attempts, then doubles it up to
/// `cap_ms`: from 1 ms, a peer that is a moment late costs a moment, and
/// one that is slow to start is polled no more often than at the cap.
fn back_off(pause: &mut Duration, cap_ms: u64) {
    std::thread::sleep(*pause);
    *pause = (*pause * 2).min(Duration::from_millis(cap_ms));
}
