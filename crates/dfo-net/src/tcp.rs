//! Real TCP transport backend: every rank is its own OS process.
//!
//! ## Wire protocol
//!
//! Each pair of ranks shares one full-duplex TCP connection carrying
//! [`Frame`]s in the binary codec of `frame.rs` (16-byte src/tag/len|last
//! header + payload). Each peer connection gets a dedicated *writer thread*
//! (serializes frames from a bounded queue, flushing whenever the queue
//! drains) and a *demux reader thread* (decodes incoming frames and pushes
//! them into the per-`(peer, tag)` bounded queues of `demux.rs`, the same
//! queues the in-process backend's senders push into). The bounded queues
//! plus TCP's own flow control give end-to-end backpressure.
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
//! The barrier and the all-reduces are the rank-0 relay of `collective.rs`,
//! the same code as on the in-process backend: collective frames ride the
//! peer connections like any stream and land in their own demux queues.
//! A dead peer surfaces as EOF or a reset on its connection, which closes
//! its demux slot and so fails the survivors' next collective with
//! `NetClosed`.

use crate::collective::POISONED;
use crate::demux::{Demux, DEMUX_QUEUE_DEPTH};
use crate::endpoint::Endpoint;
use crate::frame::Frame;
use crate::transport::Transport;
use dfo_types::codec::{read_u32, read_u64, write_u32, write_u64};
use dfo_types::{DfoError, Rank, Result};
use parking_lot::Mutex;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `"DFOG"` + protocol tag; rejects accidental cross-talk with anything
/// that is not a DFOGraph mesh peer.
const MAGIC: u64 = 0x4446_4f47_4d45_5348; // "DFOGMESH"
const PROTO_VERSION: u32 = 2; // v2: hello carries the mesh epoch

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

/// One rank's TCP mesh: per-peer writer threads and demux reader threads.
pub struct TcpTransport {
    rank: Rank,
    writers: Vec<Option<SyncSender<Frame>>>,
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
        let demux = Arc::new(Demux::new(p));
        let mut writers: Vec<Option<SyncSender<Frame>>> = (0..p).map(|_| None).collect();
        let mut handles = Vec::new();
        for (peer, slot) in streams.iter().enumerate() {
            let Some(stream) = slot else { continue };
            let wstream =
                stream.try_clone().map_err(|e| handshake_err(format!("socket clone: {e}")))?;
            let rstream =
                stream.try_clone().map_err(|e| handshake_err(format!("socket clone: {e}")))?;
            let (tx, rx) = sync_channel::<Frame>(DEMUX_QUEUE_DEPTH);
            writers[peer] = Some(tx);
            handles.push(std::thread::spawn(move || writer_loop(rx, wstream)));
            let demux2 = demux.clone();
            // readers are detached: they exit on peer EOF/error and must
            // never block local teardown behind a hung remote
            std::thread::spawn(move || reader_loop(rstream, peer, demux2));
        }

        Ok(TcpTransport {
            rank,
            writers,
            demux,
            streams,
            poisoned: AtomicBool::new(false),
            writer_handles: Mutex::new(handles),
        })
    }
}

impl Transport for TcpTransport {
    fn send_frame(&self, dst: Rank, frame: Frame) -> Result<()> {
        if self.poisoned() {
            return Err(DfoError::peer_died(POISONED));
        }
        let tx = self.writers[dst].as_ref().expect("no connection to dst");
        tx.send(frame).map_err(|_| {
            DfoError::peer_died(format_args!("send {} -> {dst}: peer gone", self.rank))
        })
    }

    fn recv_frame(&self, src: Rank, tag: u64) -> Result<Frame> {
        self.demux.pop(src, tag)
    }

    fn poison(&self) {
        if self.poisoned.swap(true, Ordering::AcqRel) {
            return;
        }
        for stream in self.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.demux.close_all(POISONED);
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
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
