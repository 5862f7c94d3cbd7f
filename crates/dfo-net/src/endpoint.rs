//! Per-node network endpoints, generic over the [`Transport`] backend.
//!
//! Streams are point-to-point and FIFO per (sender, receiver, tag): the
//! tag both sides agree on (the engine derives it from the `ProcessEdges`
//! call sequence number) selects the stream's own receive queue. Frames
//! are throttled on egress at the sender and on ingress at the receiver,
//! so a node's aggregate send (receive) rate never exceeds its NIC
//! bandwidth no matter how many peers it talks to — matching §4.5: "a
//! node can simultaneously send/receive messages from/to only one peer
//! node at a time (communication with more peers only happens given extra
//! bandwidth)".
//!
//! The endpoint owns the throttles, byte accounting and collectives; the
//! backend behind it only moves frames. [`SimCluster`] builds endpoints
//! whose sends push into the peer's queues directly; `TcpCluster` (in
//! `tcp.rs`) builds the same endpoint over real sockets, so the engine
//! code is identical in both deployments.

use crate::collective;
use crate::frame::Frame;
use crate::sim::SimTransport;
use crate::tag::{job_tag_base, COLL_TAG_BIT};
use crate::transport::Transport;
use bytes::Bytes;
use dfo_storage::Throttle;
use dfo_types::{Counter, Rank, Result, TrafficRecorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame size [`Endpoint::send_stream`] cuts payloads into; 256 KiB keeps
/// the per-frame header overhead ≪ 1 %.
pub const STREAM_CHUNK: usize = 256 << 10;

/// Per-peer direction counters inside [`NetStats`]: what this node
/// exchanged with one specific peer (wire bytes, frames).
#[derive(Default)]
pub struct PeerCounters {
    pub sent_bytes: Counter,
    pub sent_frames: Counter,
    pub recv_bytes: Counter,
}

/// Byte/message counters plus optional traffic time series for one node.
pub struct NetStats {
    pub sent_bytes: Counter,
    pub recv_bytes: Counter,
    pub sent_frames: Counter,
    pub sent_traffic: TrafficRecorder,
    pub recv_traffic: TrafficRecorder,
    /// Per-peer breakdown, indexed by peer rank (the self entry stays 0 —
    /// self-sends never touch the endpoint).
    pub per_peer: Vec<PeerCounters>,
}

impl NetStats {
    pub(crate) fn new(p: usize, record_traffic: bool) -> Self {
        Self {
            sent_bytes: Counter::new(),
            recv_bytes: Counter::new(),
            sent_frames: Counter::new(),
            sent_traffic: TrafficRecorder::new(record_traffic),
            recv_traffic: TrafficRecorder::new(record_traffic),
            per_peer: (0..p).map(|_| PeerCounters::default()).collect(),
        }
    }

    pub fn reset(&self) {
        self.sent_bytes.reset();
        self.recv_bytes.reset();
        self.sent_frames.reset();
        self.sent_traffic.reset();
        self.recv_traffic.reset();
        for pc in &self.per_peer {
            pc.sent_bytes.reset();
            pc.sent_frames.reset();
            pc.recv_bytes.reset();
        }
    }

    /// Current totals in the accumulable [`NetTotals`] form.
    pub fn totals(&self) -> NetTotals {
        NetTotals {
            sent_bytes: self.sent_bytes.get(),
            recv_bytes: self.recv_bytes.get(),
            sent_frames: self.sent_frames.get(),
        }
    }
}

/// Plain-value network totals, the accumulable form of [`NetStats`]. An
/// endpoint lives exactly one run (or one supervised attempt), so an owner
/// that wants telemetry to survive endpoint churn folds each endpoint's
/// stats into one of these as the endpoint retires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Wire bytes sent (frame headers included).
    pub sent_bytes: u64,
    /// Wire bytes received.
    pub recv_bytes: u64,
    /// Frames sent.
    pub sent_frames: u64,
}

impl NetTotals {
    /// Adds an endpoint's current counters into the totals.
    pub fn add_stats(&mut self, s: &NetStats) {
        self.sent_bytes += s.sent_bytes.get();
        self.recv_bytes += s.recv_bytes.get();
        self.sent_frames += s.sent_frames.get();
    }
}

/// Builder for the in-process cluster: constructs `P` connected endpoints
/// over the [`SimTransport`] backend.
pub struct SimCluster;

impl SimCluster {
    /// Creates `p` endpoints. `net_bw` paces each node's egress and ingress
    /// independently (full duplex), `None` = unthrottled.
    pub fn build(p: usize, net_bw: Option<u64>, record_traffic: bool) -> Vec<Endpoint> {
        SimTransport::build_mesh(p)
            .into_iter()
            .enumerate()
            .map(|(rank, t)| Endpoint::new(rank, p, Box::new(t), net_bw, record_traffic))
            .collect()
    }
}

/// Collective-latency instrumentation attached to an [`Endpoint`] by
/// [`Endpoint::set_telemetry`]: a duration histogram every barrier and
/// allreduce observes, plus spans when tracing is on.
struct EndpointObs {
    telemetry: dfo_obs::Telemetry,
    collective_seconds: Arc<dfo_obs::ObsHistogram>,
}

/// One node's connection to the cluster, over either backend.
///
/// An endpoint is a *view* over a (possibly shared) transport: it carries a
/// tag-namespace base (see [`crate::tag`]) OR-ed into every stream and
/// collective tag, and its own collective sequence counter. The endpoint
/// built by [`Endpoint::new`] is the **master** view (namespace base 0);
/// [`Endpoint::job_view`] derives per-job views over the same transport so
/// concurrent jobs demultiplex into disjoint queues.
pub struct Endpoint {
    rank: Rank,
    p: usize,
    egress: Throttle,
    ingress: Throttle,
    stats: Arc<NetStats>,
    transport: Arc<dyn Transport>,
    /// Tag-namespace base OR-ed into every stream/collective tag (0 for
    /// the master view, [`job_tag_base`] for job views).
    tag_base: u64,
    /// This namespace's collective sequence number; SPMD discipline keeps
    /// it in lockstep across the ranks of the namespace, so
    /// `COLL_TAG_BIT | tag_base | seq` is the collective's stream tag.
    /// Shared (`Arc`) so an owner can hand a job's counter to several
    /// successive views of the same job — e.g. a post-job barrier that
    /// must continue the job's sequence, not restart it.
    coll_seq: Arc<AtomicU64>,
    obs: Option<EndpointObs>,
}

impl Endpoint {
    /// Wraps a connected transport with throttles and byte accounting.
    pub fn new(
        rank: Rank,
        p: usize,
        transport: Box<dyn Transport>,
        net_bw: Option<u64>,
        record_traffic: bool,
    ) -> Self {
        Self {
            rank,
            p,
            egress: Throttle::from_option(net_bw),
            ingress: Throttle::from_option(net_bw),
            stats: Arc::new(NetStats::new(p, record_traffic)),
            transport: Arc::from(transport),
            tag_base: 0,
            coll_seq: Arc::new(AtomicU64::new(0)),
            obs: None,
        }
    }

    /// Derives a view of this endpoint living in job `job_id`'s tag
    /// namespace: same transport, same byte accounting, same NIC throttles
    /// (concurrent jobs share the node's bandwidth, §4.5), but every
    /// stream and collective tag carries [`job_tag_base`]`(job_id)` and
    /// collectives count on `coll_seq`. The caller owns the counter so
    /// successive views of the same job (the job run, then a post-job
    /// barrier) continue one sequence; ranks must pass counters at equal
    /// positions, exactly like any SPMD collective discipline.
    pub fn job_view(&self, job_id: u64, coll_seq: Arc<AtomicU64>) -> Endpoint {
        Endpoint {
            rank: self.rank,
            p: self.p,
            egress: self.egress.clone(),
            ingress: self.ingress.clone(),
            stats: self.stats.clone(),
            transport: self.transport.clone(),
            tag_base: job_tag_base(job_id),
            coll_seq,
            obs: None,
        }
    }

    /// Discards receive-side demux state of job `job_id`'s namespace and
    /// drops its late frames on arrival — call once a job's views are gone
    /// (success or failure) so a job that died mid-stream cannot leak
    /// queues or head-of-line-block an overlapping job.
    pub fn reclaim_job(&self, job_id: u64) {
        self.transport.reclaim_job(job_id);
    }

    /// Attaches telemetry: collective latencies feed a
    /// `dfo_net_collective_seconds` histogram under the context's labels,
    /// and barriers/allreduces open spans when the context traces. Called
    /// once at setup, before the endpoint crosses into worker threads.
    pub fn set_telemetry(&mut self, telemetry: dfo_obs::Telemetry) {
        let collective_seconds = telemetry.duration_histogram(
            "dfo_net_collective_seconds",
            "Latency of barriers and allreduces on this rank",
            &[],
        );
        self.obs = Some(EndpointObs { telemetry, collective_seconds });
    }

    #[inline]
    fn collective<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.obs {
            None => f(),
            Some(obs) => {
                let _span = obs.telemetry.span(name, "net");
                let t0 = std::time::Instant::now();
                let out = f();
                obs.collective_seconds.observe_duration(t0.elapsed());
                out
            }
        }
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn nodes(&self) -> usize {
        self.p
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Shared handle to the stats, outliving the endpoint (harnesses read
    /// totals after the node threads have finished).
    pub fn stats_arc(&self) -> Arc<NetStats> {
        self.stats.clone()
    }

    /// Sends one frame of the stream `tag` to `dst` (the tag is placed in
    /// this endpoint's namespace). Blocks while the egress throttle paces
    /// the transfer or the peer's buffer is full.
    pub fn send(&self, dst: Rank, tag: u64, payload: Bytes, last: bool) -> Result<()> {
        assert_ne!(dst, self.rank, "self-sends are handled node-locally by the engine");
        let frame = Frame { src: self.rank, tag: self.tag_base | tag, payload, last };
        let wire = frame.wire_bytes();
        self.egress.acquire(wire);
        self.stats.sent_bytes.add(wire);
        self.stats.sent_frames.add(1);
        self.stats.sent_traffic.record(wire);
        self.stats.per_peer[dst].sent_bytes.add(wire);
        self.stats.per_peer[dst].sent_frames.add(1);
        self.transport.send_frame(dst, frame)
    }

    /// Streams an entire payload to `dst` as [`STREAM_CHUNK`]-sized frames
    /// — zero-copy slices of the shared buffer — the last of them final. A
    /// payload of at most [`STREAM_CHUNK`] bytes is one frame; an empty one
    /// is one empty final frame.
    pub fn send_stream(&self, dst: Rank, tag: u64, payload: Bytes) -> Result<()> {
        let frames = payload.len().div_ceil(STREAM_CHUNK).max(1);
        (0..frames).try_for_each(|i| {
            let end = ((i + 1) * STREAM_CHUNK).min(payload.len());
            self.send(dst, tag, payload.slice(i * STREAM_CHUNK..end), i + 1 == frames)
        })
    }

    /// Whether a stream of at most `payload` bytes to a peer — one frame
    /// (see [`Endpoint::send_stream`]) — sits whole in the transport's
    /// buffers with no help from the receiver. A rank whose every stream of
    /// an exchange passes may send to all peers before it receives from
    /// any, on one thread, and cannot deadlock. True on the in-process
    /// backend, never on TCP (see [`Transport::private_stream_frames`]).
    pub fn buffers_whole(&self, payload: u64) -> bool {
        payload <= STREAM_CHUNK as u64 && self.transport.private_stream_frames() >= 1
    }

    /// Opens the receiving side of stream `tag` from `src` (matched in
    /// this endpoint's namespace).
    pub fn recv_stream(&self, src: Rank, tag: u64) -> StreamRecv<'_> {
        assert_ne!(src, self.rank);
        StreamRecv { ep: self, src, tag: self.tag_base | tag, done: false }
    }

    /// Receives an entire stream into one buffer (tests and small payloads).
    pub fn recv_all(&self, src: Rank, tag: u64) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut stream = self.recv_stream(src, tag);
        while let Some(chunk) = stream.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// The next collective tag of this namespace: the namespace base plus
    /// this view's sequence number, which SPMD discipline keeps in
    /// lockstep across ranks.
    fn next_coll_tag(&self) -> u64 {
        COLL_TAG_BIT | self.tag_base | self.coll_seq.fetch_add(1, Ordering::SeqCst)
    }

    /// The rank-0 relay of `collective.rs` under this namespace's next
    /// collective tag.
    fn relay<const N: usize>(
        &self,
        mine: [u8; N],
        fold: impl Fn([u8; N], [u8; N]) -> [u8; N],
    ) -> Result<[u8; N]> {
        collective::relay(&*self.transport, self.rank, self.p, self.next_coll_tag(), mine, fold)
    }

    /// Blocks until every rank arrives. A poisoned cluster, or a peer that
    /// died mid-collective, comes back as [`dfo_types::DfoError::NetClosed`].
    pub fn try_barrier(&self) -> Result<()> {
        self.collective("barrier", || self.relay([], |_, _| []).map(|[]| ()))
    }

    /// Poisons the cluster collective: peers blocked in barriers abort
    /// instead of waiting for a node that will never arrive.
    pub fn poison_collective(&self) {
        self.transport.poison();
    }

    fn try_allreduce_u64(&self, v: u64, fold: impl Fn(u64, u64) -> u64) -> Result<u64> {
        self.collective("allreduce_u64", || {
            let out = self.relay(v.to_le_bytes(), |a, b| {
                fold(u64::from_le_bytes(a), u64::from_le_bytes(b)).to_le_bytes()
            });
            out.map(u64::from_le_bytes)
        })
    }

    /// Sum across nodes; fails like [`Endpoint::try_barrier`].
    pub fn try_allreduce_sum_u64(&self, v: u64) -> Result<u64> {
        self.try_allreduce_u64(v, |a, b| a + b)
    }

    /// Sum across nodes, folded in rank order so every backend gives the
    /// same bits; fails like [`Endpoint::try_barrier`].
    pub fn try_allreduce_sum_f64(&self, v: f64) -> Result<f64> {
        self.collective("allreduce_f64", || {
            let out = self.relay(v.to_le_bytes(), |a, b| {
                (f64::from_le_bytes(a) + f64::from_le_bytes(b)).to_le_bytes()
            });
            out.map(f64::from_le_bytes)
        })
    }

    /// Minimum across nodes — recovery uses it to agree on the last round
    /// committed *everywhere*; fails like [`Endpoint::try_barrier`].
    pub fn try_allreduce_min_u64(&self, v: u64) -> Result<u64> {
        self.try_allreduce_u64(v, |a, b| a.min(b))
    }

    /// [`Endpoint::try_allreduce_sum_u64`] that panics on a mesh failure.
    /// It exists only because the benchmark package
    /// (`examples/dfo_benchmark`) calls it by this signature; everything
    /// else uses the `Result` form.
    pub fn allreduce_sum_u64(&self, v: u64) -> u64 {
        self.try_allreduce_sum_u64(v).unwrap_or_else(|e| panic!("allreduce_sum_u64: {e}"))
    }
}

/// Receiving half of one stream; yields payload chunks until the sender's
/// final frame.
pub struct StreamRecv<'a> {
    ep: &'a Endpoint,
    src: Rank,
    tag: u64,
    done: bool,
}

impl StreamRecv<'_> {
    /// Returns the next payload chunk, or `None` once the stream is closed.
    /// An empty final frame carries no chunk; any other frame is one, empty
    /// or not.
    pub fn next_chunk(&mut self) -> Result<Option<Bytes>> {
        if self.done {
            return Ok(None);
        }
        let frame = self.ep.transport.recv_frame(self.src, self.tag)?;
        let wire = frame.wire_bytes();
        self.ep.ingress.acquire(wire);
        self.ep.stats.recv_bytes.add(wire);
        self.ep.stats.recv_traffic.record(wire);
        self.ep.stats.per_peer[self.src].recv_bytes.add(wire);
        self.done = frame.last;
        Ok((!frame.last || !frame.payload.is_empty()).then_some(frame.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn point_to_point_roundtrip() {
        let mut eps = SimCluster::build(2, None, false);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                e0.send(1, 7, Bytes::from_static(b"hello "), false).unwrap();
                e0.send(1, 7, Bytes::from_static(b"world"), true).unwrap();
            });
            let got = e1.recv_all(0, 7).unwrap();
            assert_eq!(got, b"hello world");
        });
    }

    #[test]
    fn streams_preserve_order() {
        let mut eps = SimCluster::build(2, None, false);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100u8 {
                    e0.send(1, 1, Bytes::copy_from_slice(&[i]), i == 99).unwrap();
                }
            });
            let got = e1.recv_all(0, 1).unwrap();
            assert_eq!(got, (0..100u8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn throttle_paces_sender() {
        // 10 MB/s; 2 MB payload => >= ~200 ms
        let mut eps = SimCluster::build(2, Some(10 << 20), false);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let start = Instant::now();
                let payload = Bytes::from(vec![0u8; 256 << 10]);
                for i in 0..8 {
                    e0.send(1, 5, payload.clone(), i == 7).unwrap();
                }
                assert!(start.elapsed() >= Duration::from_millis(150));
            });
            let got = e1.recv_all(0, 5).unwrap();
            assert_eq!(got.len(), 2 << 20);
        });
    }

    #[test]
    fn stats_count_wire_bytes() {
        // a stream is its frames: up to one STREAM_CHUNK is one final
        // frame, an empty payload one empty final frame
        let cases = [(0, 1), (4, 1), (STREAM_CHUNK, 1), (STREAM_CHUNK + 1, 2)];
        let mut eps = SimCluster::build(2, None, false);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let (mut frames, mut wire) = (0, 0);
        for (tag, (len, n)) in cases.into_iter().enumerate() {
            std::thread::scope(|s| {
                s.spawn(|| e0.send_stream(1, tag as u64, Bytes::from(vec![7u8; len])).unwrap());
                assert_eq!(e1.recv_all(0, tag as u64).unwrap(), vec![7u8; len]);
            });
            (frames, wire) = (frames + n, wire + len as u64 + n * crate::FRAME_HEADER_BYTES);
            assert_eq!(e0.stats().sent_frames.get(), frames, "{len}-byte stream");
            assert_eq!(e0.stats().sent_bytes.get(), wire, "{len}-byte stream");
            assert_eq!(e1.stats().recv_bytes.get(), wire, "{len}-byte stream");
        }
        assert!(
            e0.buffers_whole(STREAM_CHUNK as u64) && !e0.buffers_whole(1 + STREAM_CHUNK as u64)
        );
    }

    #[test]
    fn all_pairs_concurrently() {
        let p = 4;
        let eps = SimCluster::build(p, None, false);
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    // every node sends its rank to every peer, then receives
                    for dst in 0..p {
                        if dst != ep.rank() {
                            ep.send(dst, 0, Bytes::copy_from_slice(&[ep.rank() as u8]), true)
                                .unwrap();
                        }
                    }
                    for src in 0..p {
                        if src != ep.rank() {
                            let got = ep.recv_all(src, 0).unwrap();
                            assert_eq!(got, vec![src as u8]);
                        }
                    }
                    ep.try_barrier().unwrap();
                    assert_eq!(ep.try_allreduce_sum_u64(1).unwrap(), p as u64);
                });
            }
        });
    }
}
