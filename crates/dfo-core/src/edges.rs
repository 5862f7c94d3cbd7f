//! `ProcessEdges`: the four-phase push pipeline (paper §3.1, §4).
//!
//! ```text
//! 1 generating   each batch runs `signal` over its active vertices and
//!                appends (src, msg) records to its buffer       [T workers]
//! 2 passing      the sender streams the node's messages to each peer in
//!                round-robin order, filtered against the §4.3 lists, each
//!                frame coded when that is smaller [1 thread, or the caller]
//! 3 dispatching  incoming frames are decoded to records and routed to
//!                per-batch message buffers via the dispatching graph
//!                (push) or kept whole (none) — chosen adaptively (§4.2);
//!                the node's own messages are dispatched concurrently
//!                                             [2 threads, or the caller]
//! 4 processing   each batch replays its message segments in source order,
//!                looks edges up through CSR or DCSR (§4.1 cost model) and
//!                runs `slot`; no atomics needed — one thread per batch
//!                                                               [T workers]
//! ```
//!
//! Phases 2 and 3 overlap fully (a node sends to one peer while receiving
//! from another and dispatching its own messages), which is where the
//! paper's disk/network overlap comes from. Generation completes before
//! passing starts: the filter skip rule needs `|M_i|`, and the loss of that
//! overlap is one batch of latency, not throughput.
//!
//! On the wire a frame is raw records or a coded frame — ids as a bitmap
//! or plain, payloads as a packed column — whichever is smaller
//! ([`crate::messages`]). A stream to a peer is its frames and nothing
//! else: the first starts with the 8-byte bound on the stream's records
//! that the receiver picks its strategy by, the last is final, and a peer
//! that gets no record gets one empty final frame (16 bytes on the wire).
//! One codec per sender thread codes the frames, with one LZ4 match table;
//! one per incoming stream decodes every frame into the same record
//! buffer, so dispatching, spilling and phase 4 see records only, and a
//! peer's frame that does not decode fails the call with a `Corrupt` error
//! naming the peer, whatever the strategy — drained streams are decoded
//! too. The context keeps the codecs from call to call, so only a job's
//! first call allocates their buffers.
//!
//! A round whose messages fit one frame (`|M_i| × record ≤ FRAME_BYTES`,
//! so at most one frame per peer) has nothing to overlap when the
//! transport buffers such a stream whole ([`dfo_net::Endpoint::buffers_whole`]:
//! the in-process backend does, TCP — whose per-peer buffers every job on
//! the connection shares — does not). Then the calling thread sends to
//! every peer, dispatches its own messages, then receives: each stream's
//! one frame waits in the stream's own queue at the peer without the
//! receiver taking part, so this cannot deadlock, and a sparse round
//! spawns no thread. Each rank decides for itself, per call.
//!
//! Phase 4 reads each chunk it loads whole on the worker that processes
//! the chunk's batch, through the node's chunk cache when one is
//! configured; nothing is read ahead. The cache is single-flight, so
//! concurrent jobs on one rank read a chunk they both miss once. A load
//! ([`IndexedChunk::load`], edge chunks and dispatching graphs alike)
//! reads the blocks of the header, the DCSR index, `dst` and `data` and no
//! others: a stored CSR index is read only by seek mode, and a load that
//! wants CSR offsets rebuilds them from the DCSR index in memory.
//!
//! Seek mode (§4.1) reads stored chunks through [`ChunkSeeker`]s whose
//! files outlive the call: the next call resumes a seeker on the open
//! file, block directory and last two blocks per column, so a frontier that
//! moves along a chain, or replays sources on both sides of a block
//! boundary round after round, re-reads neither footer nor block. The
//! fetched edges are not kept, a call drops the files it did not use when
//! it ends, and at most `HELD_SEEKERS` are held.
//!
//! Every message buffer is a [`SpillBuf`] on the node's memory pool (half
//! of `mem_budget`, shared with resident vertex blocks): in memory while
//! the pool admits it, in a scratch file under `msgs/` past that.
//! `CallMsgs` owns a call's buffers and their files and frees both when
//! the call returns. The §4.3 filter lists come from the same pool: a call
//! reads and checks the lists it filters against before phase 2 starts,
//! and a list the pool admits is held for the rest of the job, so later
//! calls read none. At pool capacity 0 this is the paper's
//! fully-out-of-core pipeline, file for file.

use crate::accum::Accum;
use crate::array::{ArrayEntry, BatchCtx, VertexArray};
use crate::messages::{parse_record, push_record, record_bytes, src_of};
use crate::messages::{FrameBuilder, FrameCodec, FRAME_BYTES};
use crate::node::{exchange, NodeCtx};
use bytes::Bytes;
use dfo_part::csr::{choose_repr, should_seek, ChunkSeeker, IndexedChunk, MergeCursor};
use dfo_part::filter::{read_filter_list, should_filter, FilterCursor};
use dfo_part::plan::ChunkInfo;
use dfo_part::preprocess::paths;
use dfo_storage::{CachedValue, ChunkKey, SpillBuf};
use dfo_types::{DfoError, DispatchKind, PhaseStats, Pod, Rank, ReprKind, Result, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Most seeker files a context holds between calls ([`NodeCtx::seekers`]):
/// each keeps a file descriptor, its block directory and two blocks of
/// each of its three columns, so seeking holds at most 16 × 3 × 2 blocks
/// of ≤ 16 KiB logical bytes (1.5 MiB) plus directories outside
/// `mem_budget`.
const HELD_SEEKERS: usize = 16;
/// Write buffer of a spilling message buffer; small for the per-batch
/// dispatch segments (many are open at once).
const SPILL_BUF: usize = 256 << 10;
const DISPATCH_BUF: usize = 32 << 10;

/// The §4.3 lists one call filters against, `[j]` for peer `j`.
type FilterLists = Vec<Option<Arc<[u32]>>>;

/// The message buffers one call's phases hand each other.
struct CallMsgs {
    /// Bytes per `(src, msg)` record.
    rec: usize,
    /// Phase 1: the records batch `b` generated (unset = none).
    gen: Vec<OnceLock<SpillBuf>>,
    /// Phase 3, push: at `[b][p]`, the records from partition `p` that have
    /// edges into batch `b`.
    seg: Vec<Vec<OnceLock<SpillBuf>>>,
    /// Phase 3, no dispatch: the whole stream from peer `p`, rescanned by
    /// every interested batch.
    raw: Vec<OnceLock<SpillBuf>>,
    /// No dispatch over the node's own messages: their count, and phase 4
    /// replays `gen` directly (0 = own messages were pushed or dropped).
    raw_own: AtomicU64,
}

impl CallMsgs {
    fn new(rec: usize, batches: usize, nodes: usize) -> Self {
        let locks = |n: usize| (0..n).map(|_| OnceLock::new()).collect::<Vec<_>>();
        Self {
            rec,
            gen: locks(batches),
            seg: (0..batches).map(|_| locks(nodes)).collect(),
            raw: locks(nodes),
            raw_own: AtomicU64::new(0),
        }
    }

    fn generated(&self) -> impl Iterator<Item = &SpillBuf> {
        self.gen.iter().filter_map(OnceLock::get)
    }
}

/// Hands a finished buffer to the later phases (each slot has one writer).
fn publish(slot: &OnceLock<SpillBuf>, mut buf: SpillBuf) -> Result<()> {
    buf.finish()?;
    assert!(slot.set(buf).is_ok(), "message buffer published twice");
    Ok(())
}

/// How an incoming stream is handled (§4.2 + a drain case for streams that
/// carry nothing we need).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Strategy {
    Push,
    NoDispatch,
    Drain,
}

impl NodeCtx {
    /// The paper's `ProcessEdges` (§3): active vertices `signal` messages
    /// along outgoing edges; `slot` consumes them at destination vertices.
    ///
    /// * `signal_arrays` / `slot_arrays` name the vertex arrays the UDFs
    ///   may access (signal sees the *source* vertex, slot the
    ///   *destination* — never the other way round).
    /// * `active` restricts signalling to active vertices.
    /// * Returns the cluster-wide sum of `slot` return values.
    ///
    /// Within one call, `slot` invocations for a given destination batch
    /// happen on one thread, with messages from source partitions applied
    /// in a fixed order — UDFs need no atomics (§4.5 "data contention").
    pub fn process_edges<A, M, E>(
        &mut self,
        signal_arrays: &[&str],
        slot_arrays: &[&str],
        active: Option<&VertexArray<bool>>,
        signal: impl Fn(VertexId, &mut BatchCtx) -> Option<M> + Sync,
        slot: impl Fn(M, VertexId, VertexId, &E, &mut BatchCtx) -> A + Sync,
    ) -> Result<A>
    where
        A: Accum,
        M: Pod,
        E: Pod + PartialEq,
    {
        assert_eq!(
            self.plan.edge_data_bytes as usize,
            std::mem::size_of::<E>(),
            "edge data type {} does not match the preprocessed graph",
            std::any::type_name::<E>()
        );
        self.check_cancelled()?;
        let _call_span = self.obs_span("process_edges", "call");
        if let Some(o) = &self.obs {
            o.edges_calls.inc();
        }
        let seq = self.call_seq;
        self.call_seq += 1;
        let rank = self.rank;
        let p_nodes = self.cfg.nodes;

        let signal_entries = self.entries(signal_arrays);
        let slot_entries = self.entries(slot_arrays);
        let active_entry = active.map(|a| self.entries(&[a.name()]).remove(0));
        let mut epoch_set: Vec<Arc<ArrayEntry>> = Vec::new();
        for e in signal_entries.iter().chain(&slot_entries).chain(active_entry.iter()) {
            if !epoch_set.iter().any(|x| x.name == e.name) {
                epoch_set.push(e.clone());
            }
        }
        self.begin_epochs(&epoch_set);

        let mut stats = PhaseStats::default();
        let disk_stats = self.disk.stats();
        let (r0, w0) = (disk_stats.read_bytes.get(), disk_stats.write_bytes.get());
        let (lr0, lw0) =
            (disk_stats.logical_read_bytes.get(), disk_stats.logical_write_bytes.get());
        // hit/miss are counted at this context's lookup sites (see
        // `load_indexed`); only eviction pressure — a property of the shared
        // cache, not of one caller — is still read as a counter delta
        let cache0 = self.chunk_cache.as_ref().map(|c| c.stats());
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);

        // ---------------- phase 1: generating --------------------------------
        let t_gen = std::time::Instant::now();
        let gen_span = self.obs_span("phase1_generate", "phase");
        let mut msgs = CallMsgs::new(record_bytes::<M>(), self.plan.n_batches(rank), p_nodes);
        let m_total = self.for_each_batch(|b| {
            self.generate_batch(
                b,
                &signal_entries,
                signal_arrays,
                active_entry.as_deref(),
                &signal,
                &msgs,
            )
        })?;
        drop(gen_span);
        let gen_elapsed = t_gen.elapsed();
        let (r1, w1) = (disk_stats.read_bytes.get(), disk_stats.write_bytes.get());
        stats.messages_generated = m_total;
        stats.generate_disk_read = r1 - r0;
        stats.generate_disk_write = w1 - w0;
        stats.generate_nanos = gen_elapsed.as_nanos() as u64;
        if let Some(o) = &self.obs {
            o.phase_secs[0].observe(gen_elapsed.as_secs_f64());
        }

        // ---------------- phases 2+3: passing & dispatching ------------------
        // the lists are read (and checked) before any stream starts, so a
        // bad one fails the call here and not halfway through a send
        let (lists, list_reads) = self.filter_lists(m_total)?;
        let net_sent0 = self.net.stats().sent_bytes.get();
        let net_recv0 = self.net.stats().recv_bytes.get();
        let t_dispatch = std::time::Instant::now();
        let dispatch_span = self.obs_span("phase3_dispatch", "phase");

        // sender: round-robin over peers (§4.4). Every disk field of
        // `PhaseStats` is a disk-stat delta around a phase barrier; passing
        // and dispatching share one window, so passing counts what it read
        // (filter lists not yet held, spilled messages replayed), and its
        // wall time is measured around the sends (when they overlap
        // dispatching, the main thread's window can't see it)
        let pass = || {
            let t_pass = std::time::Instant::now();
            let _pass_span = self.obs_span("phase2_pass", "phase");
            let mut enc = self.take_codec(msgs.rec, self.plan.partitions[rank].len());
            let (mut read, mut sent) = (list_reads, 0);
            for j in self.cfg.send_order(rank) {
                let (r, s) = self.send_to(j, seq, m_total, lists[j].as_deref(), &msgs, &mut enc)?;
                (read, sent) = (read + r, sent + s);
            }
            self.codecs.lock().push(enc);
            let el = t_pass.elapsed();
            if let Some(o) = &self.obs {
                o.phase_secs[1].observe(el.as_secs_f64());
            }
            Ok((read, sent, el.as_nanos() as u64))
        };
        // receiver: peers in mirrored order (§4.5)
        let receive = || {
            (self.cfg.recv_order(rank).into_iter())
                .try_for_each(|p| self.recv_dispatch(p, seq, &msgs))
        };
        // the node's own messages never touch the wire
        let dispatch_own = || self.dispatch_self(m_total, &msgs);
        // every stream to a peer carries at most the call's messages, and a
        // coded frame is never longer than the raw one
        let inline = self.net.buffers_whole(m_total * msgs.rec as u64);
        let ((pass_read, sent, pass_nanos), (), ()) =
            exchange(inline, pass, dispatch_own, receive)?;
        drop(dispatch_span);
        let dispatch_elapsed = t_dispatch.elapsed();
        stats.pass_net_sent = self.net.stats().sent_bytes.get() - net_sent0;
        stats.dispatch_net_recv = self.net.stats().recv_bytes.get() - net_recv0;
        let (r2, w2) = (disk_stats.read_bytes.get(), disk_stats.write_bytes.get());
        stats.pass_disk_read = pass_read;
        stats.dispatch_disk_read = (r2 - r1).saturating_sub(stats.pass_disk_read);
        stats.dispatch_disk_write = w2 - w1;
        stats.messages_sent = sent;
        stats.pass_nanos = pass_nanos;
        stats.dispatch_nanos = dispatch_elapsed.as_nanos() as u64;
        if let Some(o) = &self.obs {
            o.phase_secs[2].observe(dispatch_elapsed.as_secs_f64());
        }

        // ---------------- phase 4: processing --------------------------------
        let t_proc = std::time::Instant::now();
        let proc_span = self.obs_span("phase4_process", "phase");
        // everything generated has been sent and dispatched: free it, unless
        // the batches replay the node's own messages undispatched
        if msgs.raw_own.load(Ordering::Relaxed) == 0 {
            msgs.gen.clear();
        }
        let local =
            self.for_each_batch(|b| self.process_batch::<A, M, E>(b, &slot_entries, &msgs, &slot))?;
        drop(proc_span);
        let proc_elapsed = t_proc.elapsed();
        stats.process_nanos = proc_elapsed.as_nanos() as u64;
        if let Some(o) = &self.obs {
            o.phase_secs[3].observe(proc_elapsed.as_secs_f64());
        }
        drop(msgs);
        // a seeker this call did not use is worth no more to the next one
        let call_seq = self.call_seq;
        self.seekers.get_mut().retain(|_, (call, _)| *call == call_seq);
        self.commit_epochs(&epoch_set)?;
        // the call's checkpoint metadata counts as processing output, so the
        // disk fields of a call sum to its disk-stat delta
        stats.process_disk_read = disk_stats.read_bytes.get() - r2;
        stats.process_disk_write = disk_stats.write_bytes.get() - w2;
        // whole-call logical (pre-compression) totals; the per-phase fields
        // above stay physical
        stats.logical_disk_read = disk_stats.logical_read_bytes.get() - lr0;
        stats.logical_disk_write = disk_stats.logical_write_bytes.get() - lw0;
        stats.chunk_cache_hits = self.cache_hits.load(Ordering::Relaxed);
        stats.chunk_cache_misses = self.cache_misses.load(Ordering::Relaxed);
        if let (Some(cache), Some(s0)) = (&self.chunk_cache, cache0) {
            stats.chunk_cache_evicted_bytes = cache.stats().delta_since(&s0).evicted_bytes;
        }

        self.job_stats.merge(&stats);
        self.last_stats = stats;
        local.allreduce(&self.net)
    }

    /// An empty buffer of `rec`-byte messages on this node's pool, spilling
    /// to `rel`.
    fn msg_buf(&self, rel: String, rec: usize, file_buf: usize) -> SpillBuf {
        SpillBuf::new(&self.msg_pool, &self.scratch, rel, rec, file_buf)
    }

    /// Phase 1 for one batch: run `signal` over active vertices, append the
    /// records to the batch's buffer (spill: `msgs/gen_b{b}.bin`), write
    /// back dirty signal arrays.
    fn generate_batch<M: Pod>(
        &self,
        b: usize,
        signal_entries: &[Arc<ArrayEntry>],
        signal_names: &[&str],
        active_entry: Option<&ArrayEntry>,
        signal: &(impl Fn(VertexId, &mut BatchCtx) -> Option<M> + Sync),
        msgs: &CallMsgs,
    ) -> Result<u64> {
        let Some((mut ctx, mask)) =
            self.open_active_batch(b, signal_entries, signal_names, active_entry)?
        else {
            return Ok(0);
        };
        let partition = self.plan.partitions[self.rank];
        let mut buf = self.msg_buf(format!("msgs/gen_b{b}.bin"), msgs.rec, SPILL_BUF);
        let mut rec_buf: Vec<u8> = Vec::with_capacity(msgs.rec);
        for v in ctx.batch().iter() {
            if !mask.is_active(&mut ctx, v) {
                continue;
            }
            if let Some(msg) = signal(v, &mut ctx) {
                rec_buf.clear();
                // source stored local to the *partition*: receivers resolve
                // it against the sender's partition range. Preprocessing
                // keeps partitions below 2^31 vertices, so the id fits and
                // leaves bit 31 to the frame codec
                push_record(&mut rec_buf, partition.local(v), &msg);
                buf.append(&rec_buf)?;
            }
        }
        ctx.write_back()?;
        let count = buf.len() / msgs.rec as u64;
        if count > 0 {
            publish(&msgs.gen[b], buf)?;
        }
        Ok(count)
    }

    /// The §4.3 lists this call filters its sends against, `[j]` for each
    /// peer `j` the skip rule lets it filter, and the bytes it read. A list
    /// the context holds costs nothing; one it reads is counted as passing's
    /// and held for the rest of the job if the pool admits its bytes.
    fn filter_lists(&self, m_total: u64) -> Result<(FilterLists, u64)> {
        let (mut lists, mut read) = (vec![None; self.cfg.nodes], 0);
        for j in self.cfg.send_order(self.rank) {
            let len = self.plan.node_meta[self.rank].filter_lens[j];
            if !self.cfg.filtering_enabled
                || !should_filter(len, m_total, self.cfg.filter_skip_ratio)
            {
                continue;
            }
            let list = match self.filters[j].get() {
                Some(held) => held.clone(),
                None => {
                    // stored raw or framed: what it cost is what the disk
                    // served (no stream runs yet to share the counter)
                    let read0 = self.disk.stats().read_bytes.get();
                    let list: Arc<[u32]> =
                        read_filter_list(&self.disk, &paths::filter(j), len)?.into();
                    read += self.disk.stats().read_bytes.get() - read0;
                    let bytes = 8 + 4 * len;
                    if self.pool.try_reserve(bytes) {
                        let _ = self.filters[j].set(list.clone());
                    }
                    list
                }
            };
            lists[j] = Some(list);
        }
        Ok((lists, read))
    }

    /// Phase 2 to one peer: stream the node's generated messages, filtered
    /// against `list` (`L_{rank,j}`) unless the §4.3 skip rule fired, each
    /// frame in its wire form. The first frame starts with an upper bound on
    /// the records of the stream, so the receiver can pick its dispatch
    /// strategy before it decodes any; the last is final. A peer the filter
    /// leaves no record gets one empty final frame and no bound. Returns the
    /// spilled bytes it read and the messages it sent.
    fn send_to(
        &self,
        j: Rank,
        seq: u64,
        m_total: u64,
        list: Option<&[u32]>,
        msgs: &CallMsgs,
        enc: &mut FrameCodec,
    ) -> Result<(u64, u64)> {
        let bound = list.map_or(m_total, |l| (l.len() as u64).min(m_total));
        let rec = msgs.rec;
        let mut fb = FrameBuilder::new(FRAME_BYTES, rec);
        // one frame, in its wire form, is held back so the last goes out final
        let mut held: Option<Bytes> = None;
        let mut emit = |frame: &[u8]| {
            let head = if held.is_none() { &bound.to_le_bytes()[..] } else { &[] };
            let prev = held.replace(enc.encode(head, frame));
            prev.map_or(Ok(()), |prev| self.net.send(j, seq, prev, false))
        };
        let mut sent = 0u64;
        let mut read_bytes = 0;
        let mut cursor = list.map(FilterCursor::new);
        for g in msgs.generated() {
            read_bytes += g.spilled_bytes();
            g.for_each_run(|run| {
                let Some(cursor) = &mut cursor else {
                    // frames are cut straight from the generated buffer
                    sent += (run.len() / rec) as u64;
                    return fb.push_bytes(run, &mut emit);
                };
                for r in run.chunks_exact(rec).filter(|r| cursor.contains(src_of(r))) {
                    sent += 1;
                    fb.push_bytes(r, &mut emit)?;
                }
                Ok(())
            })?;
        }
        if let Some(tail) = fb.finish() {
            emit(tail)?;
        }
        self.net.send(j, seq, held.unwrap_or_default(), true)?;
        Ok((read_bytes, sent))
    }

    /// Phase 3 for the node's own messages: they never touch the wire,
    /// dispatching reads the generated buffers directly.
    fn dispatch_self(&self, m_total: u64, msgs: &CallMsgs) -> Result<()> {
        let rank = self.rank;
        let dinfo = self.plan.node_meta[rank].dispatch[rank];
        let strategy = self.choose_strategy(dinfo.as_ref(), rank, m_total);
        match strategy {
            Strategy::Drain => Ok(()),
            Strategy::NoDispatch => {
                // batches will replay the generated buffers in phase 4
                msgs.raw_own.store(m_total, Ordering::Relaxed);
                Ok(())
            }
            Strategy::Push => {
                let dinfo = dinfo.expect("push strategy requires a dispatch graph");
                let own: Vec<&SpillBuf> = msgs.generated().collect();
                let reads = |enough| seek_reads(&own, msgs.rec, enough);
                let mut access = self.open_dispatch_access(rank, m_total, &dinfo, reads)?;
                let mut sink = PushSink::new(self, rank, msgs.rec);
                for g in msgs.generated() {
                    g.for_each_run(|run| sink.dispatch(&mut access, run))?;
                }
                self.close_dispatch_access(rank, access);
                sink.finish(msgs)
            }
        }
    }

    /// Phase 3 for one remote stream. The peer's stream is checked, not
    /// trusted: a first frame too short for its bound, a bound with no frame
    /// behind it, or a frame that does not decode to whole records of its
    /// partition is a `Corrupt` error naming the peer. A stream that is one
    /// empty final frame has no record and no bound: its bound is 0. Every
    /// frame, coded or raw, is decoded into one record buffer of the
    /// stream, so the strategies below see records only.
    fn recv_dispatch(&self, p: Rank, seq: u64, msgs: &CallMsgs) -> Result<()> {
        let mut stream = self.net.recv_stream(p, seq);
        let corrupt = |what: String| DfoError::Corrupt(format!("stream from rank {p}: {what}"));
        let first = stream.next_chunk()?;
        let bound = match first.as_ref().map(|c| c.first_chunk().ok_or(c.len())) {
            None => 0,
            Some(Ok(head)) => u64::from_le_bytes(*head),
            Some(Err(n)) => return Err(corrupt(format!("{n}-byte first frame"))),
        };
        // the rest of the first frame is the stream's first message frame
        let mut first = first.map(|c| c.slice(8..));
        let rec = msgs.rec;
        let mut dec = self.take_codec(rec, self.plan.partitions[p].len());
        let mut for_each_frame = |f: &mut dyn FnMut(&[u8]) -> Result<()>| {
            while let Some(frame) =
                first.take().map_or_else(|| stream.next_chunk(), |c| Ok(Some(c)))?
            {
                f(dec.decode(&frame).map_err(corrupt)?)?;
            }
            Ok(())
        };
        let dinfo = self.plan.node_meta[self.rank].dispatch[p];
        let strategy = self.choose_strategy(dinfo.as_ref(), p, bound);

        let done = match strategy {
            Strategy::Drain => for_each_frame(&mut |_| Ok(())),
            Strategy::NoDispatch => {
                let mut buf = self.msg_buf(format!("msgs/in_all_p{p}.bin"), rec, SPILL_BUF);
                for_each_frame(&mut |recs| buf.append(recs))?;
                publish(&msgs.raw[p], buf)
            }
            Strategy::Push => {
                let dinfo = dinfo.expect("push strategy requires a dispatch graph");
                // the sources are still on the wire: every message may cost a read
                let mut access = self.open_dispatch_access(p, bound, &dinfo, |_| bound)?;
                let mut sink = PushSink::new(self, p, rec);
                for_each_frame(&mut |recs| sink.dispatch(&mut access, recs))?;
                self.close_dispatch_access(p, access);
                sink.finish(msgs)
            }
        };
        self.codecs.lock().push(dec);
        done
    }

    /// A frame codec for a stream of `rec`-byte records from a partition of
    /// `n_src` vertices: one a finished stream left (see
    /// [`NodeCtx::codecs`]), else a new one.
    fn take_codec(&self, rec: usize, n_src: u64) -> FrameCodec {
        self.codecs.lock().pop().unwrap_or_default().retarget(rec, n_src)
    }

    /// §4.2 adaptive choice. Push pays the index plus one read and one write
    /// of the messages; no-dispatch makes every interested batch rescan the
    /// whole stream in phase 4. The paper's pull strategy is not implemented:
    /// its benefit over push is *latency* (a batch can start processing as
    /// soon as it has pulled), which this engine's phase barrier before
    /// processing cannot exploit.
    fn choose_strategy(&self, dinfo: Option<&ChunkInfo>, p: Rank, bound: u64) -> Strategy {
        let Some(dinfo) = dinfo.filter(|_| bound > 0) else {
            return Strategy::Drain;
        };
        if let Some(kind) = self.cfg.dispatch_override {
            return match kind {
                DispatchKind::Push => Strategy::Push,
                DispatchKind::None => Strategy::NoDispatch,
            };
        }
        let n_src = self.plan.partitions[p].len();
        let interested_batches = self.chunk_map[p].iter().filter(|c| c.is_some()).count() as u64;
        let index_cost = if dinfo.has_csr {
            (2 * dinfo.n_nonzero_src).min((self.cfg.gamma.saturating_mul(bound)).min(n_src))
        } else {
            2 * dinfo.n_nonzero_src
        };
        let push_cost = index_cost + 2 * bound;
        let none_cost = interested_batches * bound;
        if push_cost < none_cost {
            Strategy::Push
        } else {
            Strategy::NoDispatch
        }
    }

    /// Opens the dispatching graph from partition `p`, either fully loaded
    /// (through the chunk cache when one is configured) or in
    /// positioned-read seek mode when `reads` are few (§4.1).
    fn open_dispatch_access(
        &self,
        p: Rank,
        bound: u64,
        dinfo: &ChunkInfo,
        reads: impl FnOnce(u64) -> u64,
    ) -> Result<DispatchAccess> {
        let path = paths::dispatch(p);
        if self.seeks(dinfo, p, reads) {
            return Ok(DispatchAccess::Seek(Box::new(self.take_seeker(&path)?)));
        }
        let key =
            ChunkKey { partition: p, batch: None, repr: Some(self.full_repr(dinfo, p, bound)) };
        let dg = self.load_indexed::<()>(&path, key)?;
        Ok(DispatchAccess::Loaded { dg, cursor: MergeCursor::new() })
    }

    /// Ends a stream's use of the dispatching graph from partition `p`: a
    /// seeker is kept for the next call.
    fn close_dispatch_access(&self, p: Rank, access: DispatchAccess) {
        if let DispatchAccess::Seek(seeker) = access {
            self.keep_seeker(paths::dispatch(p), *seeker);
        }
    }

    /// Work arriving at destination batch `b` from partition `p` this call:
    /// `None` if the batch has nothing to replay from `p`, else the chunk
    /// metadata, the buffers to replay — the batch's pushed segment, else
    /// the undispatched stream: our own generated buffers, or the peer's
    /// raw one — and their message count, which drives the §4.1 cost model.
    fn batch_messages<'m>(
        &self,
        b: usize,
        p: Rank,
        msgs: &'m CallMsgs,
    ) -> Option<(ChunkInfo, Vec<&'m SpillBuf>, u64)> {
        let cinfo = self.chunk_map[p][b]?;
        let replay: Vec<&SpillBuf> = match msgs.seg[b][p].get() {
            Some(pushed) => vec![pushed],
            // nothing, once phase 4 has freed what was pushed or dropped
            None if p == self.rank => msgs.generated().collect(),
            None => msgs.raw[p].get().into_iter().collect(),
        };
        let count = replay.iter().map(|buf| buf.len()).sum::<u64>() / msgs.rec as u64;
        (count > 0).then_some((cinfo, replay, count))
    }

    /// The one §4.1 seek rule, for edge chunks and dispatching graphs
    /// alike: `true` means positioned reads into the stored chunk of source
    /// partition `p` instead of loading it (which bypasses the cache by
    /// design — seek mode exists precisely because loading the whole chunk
    /// does not pay). `reads(enough)` says how many positioned reads the
    /// access would issue, counting no further than `enough`, where the
    /// rule is lost anyway.
    fn seeks(&self, info: &ChunkInfo, p: Rank, reads: impl FnOnce(u64) -> u64) -> bool {
        let (n_src, gamma) = (self.plan.partitions[p].len(), self.cfg.gamma);
        self.cfg.repr_override.is_none()
            && info.has_csr
            && should_seek(reads(n_src / gamma.max(1) + 1), n_src, gamma)
    }

    /// Index representation for a full load of chunk `(p, ·)` given
    /// `count` incoming messages (§4.1 cost model).
    fn full_repr(&self, cinfo: &ChunkInfo, p: Rank, count: u64) -> ReprKind {
        let n_src = self.plan.partitions[p].len();
        self.cfg.repr_override.unwrap_or_else(|| {
            choose_repr(cinfo.has_csr, cinfo.n_nonzero_src, n_src, count, self.cfg.gamma)
        })
    }

    /// Loads the decoded edge chunk or dispatching graph at `path` with the
    /// index `key.repr`, through the chunk cache when one is configured.
    /// Hits and misses are counted here, per context, not diffed from the
    /// shared cache's counters.
    fn load_indexed<E: Pod + PartialEq>(
        &self,
        path: &str,
        key: ChunkKey,
    ) -> Result<Arc<IndexedChunk<E>>> {
        let read = || {
            self.timed_chunk_read(|| {
                let chunk = IndexedChunk::<E>::load(&self.disk, path, key.repr)?;
                let bytes = chunk.decoded_bytes();
                Ok((Arc::new(chunk) as CachedValue, bytes))
            })
        };
        let value = match &self.chunk_cache {
            None => read()?.0,
            Some(cache) => {
                let (value, hit) = cache.get_or_load(key, read)?;
                let counter = if hit { &self.cache_hits } else { &self.cache_misses };
                counter.fetch_add(1, Ordering::Relaxed);
                value
            }
        };
        Ok(value.downcast::<IndexedChunk<E>>().expect("chunk cache holds IndexedChunk<E>"))
    }

    /// Phase 4 for one destination batch.
    fn process_batch<A, M, E>(
        &self,
        b: usize,
        slot_entries: &[Arc<ArrayEntry>],
        msgs: &CallMsgs,
        slot: &(impl Fn(M, VertexId, VertexId, &E, &mut BatchCtx) -> A + Sync),
    ) -> Result<A>
    where
        A: Accum,
        M: Pod,
        E: Pod + PartialEq,
    {
        let rank = self.rank;
        let range = self.plan.batches[rank][b];
        if range.is_empty() {
            return Ok(A::zero());
        }
        // processing order: own messages first (they were dispatched first),
        // then peers in receive order (§4.5)
        let mut order = vec![rank];
        order.extend(self.cfg.recv_order(rank));

        // anything for this batch at all? (skip = no I/O for idle batches)
        let has_work = order.iter().any(|&p| self.batch_messages(b, p, msgs).is_some());
        if !has_work {
            return Ok(A::zero());
        }

        let refs: Vec<&ArrayEntry> = slot_entries.iter().map(|e| e.as_ref()).collect();
        let mut ctx = BatchCtx::load(&refs, range, b, None)?;
        let mut acc = A::zero();
        let dst_base = self.plan.partitions[rank].start;

        for &p in &order {
            let Some((cinfo, replay, count)) = self.batch_messages(b, p, msgs) else { continue };
            // §4.1: with few reads to make and a stored CSR, *seek* into the
            // chunk with positioned reads instead of streaming it whole;
            // full loads go through the chunk cache
            let path = paths::chunk(p, b);
            let reads = |enough| seek_reads(&replay, msgs.rec, enough);
            let (mut seeker, chunk) = if self.seeks(&cinfo, p, reads) {
                (Some(self.take_seeker::<E>(&path)?), None)
            } else {
                let key = chunk_key(p, b, self.full_repr(&cinfo, p, count));
                (None, Some(self.load_indexed::<E>(&path, key)?))
            };
            let use_csr = chunk.as_ref().is_some_and(|c| c.csr_idx.is_some());
            let src_base = self.plan.partitions[p].start;
            let mut mc = MergeCursor::new();
            let mut apply = |src: u32, msg: M, ctx: &mut BatchCtx, acc: &mut A| -> Result<()> {
                let (dst, data): (&[u32], &[E]) = match &mut seeker {
                    Some(seeker) => seeker.edges_of(src)?,
                    None => {
                        let chunk = chunk.as_deref().expect("a chunk is seeked or loaded");
                        let edges =
                            if use_csr { chunk.edges_of_csr(src) } else { mc.edges_of(chunk, src) };
                        (&chunk.dst[edges.clone()], &chunk.data[edges])
                    }
                };
                for (&dst_local, data) in dst.iter().zip(data) {
                    let a = slot(
                        msg,
                        src_base + src as VertexId,
                        dst_base + dst_local as VertexId,
                        data,
                        ctx,
                    );
                    let cur = std::mem::replace(acc, A::zero());
                    *acc = cur.merge(a);
                }
                Ok(())
            };
            for buf in &replay {
                buf.for_each_run(|run| {
                    for r in run.chunks_exact(msgs.rec) {
                        let (src, msg) = parse_record::<M>(r, 0);
                        apply(src, msg, &mut ctx, &mut acc)?;
                    }
                    Ok(())
                })?;
            }
            if let Some(seeker) = seeker {
                self.keep_seeker(path, seeker);
            }
        }
        ctx.write_back()?;
        Ok(acc)
    }

    /// A seeker of the stored chunk at `path`: on the file a previous call
    /// left (see [`NodeCtx::seekers`]), else on a freshly opened one.
    fn take_seeker<E: Pod + PartialEq>(&self, path: &str) -> Result<ChunkSeeker<E>> {
        match self.seekers.lock().remove(path) {
            Some((_, file)) => Ok(ChunkSeeker::resume(file)),
            None => ChunkSeeker::open(&self.disk, path),
        }
    }

    /// Keeps the file of a seeker this call used for the next call, unless
    /// [`HELD_SEEKERS`] others are held; the edges it fetched are dropped.
    fn keep_seeker<E: Pod + PartialEq>(&self, path: String, seeker: ChunkSeeker<E>) {
        let mut held = self.seekers.lock();
        if held.len() < HELD_SEEKERS || held.contains_key(&path) {
            held.insert(path, (self.call_seq, seeker.into_file()));
        }
    }
}

/// Access mode to a dispatching graph during push dispatching. The loaded
/// variant holds an `Arc` so the decoded graph can live on in the chunk
/// cache after this stream is done.
enum DispatchAccess {
    Loaded { dg: Arc<IndexedChunk<()>>, cursor: MergeCursor },
    Seek(Box<ChunkSeeker<()>>),
}

impl DispatchAccess {
    /// Destination batches of `src`'s messages (this runs once per
    /// message: nothing is copied either way).
    fn batches_of(&mut self, src: u32) -> Result<&[u32]> {
        match self {
            DispatchAccess::Loaded { dg, cursor } => {
                let range =
                    if dg.has_csr() { dg.edges_of_csr(src) } else { cursor.edges_of(dg, src) };
                Ok(&dg.dst[range])
            }
            DispatchAccess::Seek(seeker) => Ok(seeker.edges_of(src)?.0),
        }
    }
}

/// Lazily-created per-batch segment buffers for push dispatching one
/// source partition's stream (spill: `msgs/in_b{b}_p{p}.bin`), published to
/// phase 4 in [`PushSink::finish`].
struct PushSink<'a> {
    node: &'a NodeCtx,
    src_partition: Rank,
    rec: usize,
    bufs: Vec<Option<SpillBuf>>,
}

impl<'a> PushSink<'a> {
    fn new(node: &'a NodeCtx, src_partition: Rank, rec: usize) -> Self {
        let bufs = (0..node.plan.n_batches(node.rank)).map(|_| None).collect();
        Self { node, src_partition, rec, bufs }
    }

    /// Routes every record of `run` to the batches its source has edges
    /// into.
    fn dispatch(&mut self, access: &mut DispatchAccess, run: &[u8]) -> Result<()> {
        for r in run.chunks_exact(self.rec) {
            for &batch in access.batches_of(src_of(r))? {
                let (node, p, rec) = (self.node, self.src_partition, self.rec);
                self.bufs[batch as usize]
                    .get_or_insert_with(|| {
                        node.msg_buf(format!("msgs/in_b{batch}_p{p}.bin"), rec, DISPATCH_BUF)
                    })
                    .append(r)?;
            }
        }
        Ok(())
    }

    fn finish(self, msgs: &CallMsgs) -> Result<()> {
        for (b, buf) in self.bufs.into_iter().enumerate() {
            if let Some(buf) = buf {
                publish(&msgs.seg[b][self.src_partition], buf)?;
            }
        }
        Ok(())
    }
}

/// Sources whose entries share a block of a stored CSR index (8 bytes
/// each), and so the index read of a seek — and, their edges being
/// neighbours too, mostly the `dst` and `data` reads.
const INDEX_BLOCK_SRCS: u32 = (dfo_storage::SEEK_BLOCK_BYTES / 8) as u32;

/// Positioned reads a seek-mode pass over the messages in `bufs` would
/// issue — the `k` of the §4.1 seek rule — counted no further than
/// `enough`: three (index, `dst`, `data`) per run of sources that share a
/// block of the stored CSR index, the last block of each being kept; a
/// record that spilled, whose source is not in memory, counts as a read of
/// its own. A source sends one message, so `records` of them span at least
/// `records / INDEX_BLOCK_SRCS` blocks: a dense frontier is told without
/// looking at it.
fn seek_reads(bufs: &[&SpillBuf], rec: usize, enough: u64) -> u64 {
    let records = bufs.iter().map(|buf| buf.len()).sum::<u64>() / rec as u64;
    let at_least = 3 * records.div_ceil(INDEX_BLOCK_SRCS as u64);
    let spilled = bufs.iter().map(|buf| buf.spilled_bytes()).sum::<u64>() / rec as u64;
    let (mut reads, mut last) = (spilled, None);
    for r in bufs.iter().flat_map(|buf| buf.mem_runs()).flat_map(|run| run.chunks_exact(rec)) {
        if reads.max(at_least) >= enough {
            break;
        }
        let block = Some(src_of(r) / INDEX_BLOCK_SRCS);
        if block != last {
            (reads, last) = (reads + 3, block);
        }
    }
    reads.max(at_least)
}

/// Cache identity of the edge chunk `(p, b)` decoded with index `want`.
fn chunk_key(p: Rank, b: usize, want: ReprKind) -> ChunkKey {
    ChunkKey { partition: p, batch: Some(b), repr: Some(want) }
}
