//! `ProcessEdges`: the four-phase push pipeline (paper §3.1, §4).
//!
//! ```text
//! 1 generating   each batch runs `signal` over its active vertices and
//!                spills (src, msg) records to disk              [T workers]
//! 2 passing      the sender streams the node's messages to each peer in
//!                round-robin order, filtered against the §4.3 lists
//!                                                               [1 thread]
//! 3 dispatching  incoming streams are routed to per-batch message files
//!                via the dispatching graph (push) or stored raw (none) —
//!                chosen adaptively (§4.2); the node's own messages are
//!                dispatched concurrently                       [2 threads]
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

use crate::accum::Accum;
use crate::array::{ArrayEntry, BatchCtx, VertexArray};
use crate::messages::{parse_record, record_bytes, FrameBuilder, RecordIter, RecordReader};
use crate::node::NodeCtx;
use bytes::Bytes;
use dfo_part::csr::{choose_repr, IndexedChunk, MergeCursor};
use dfo_part::filter::{should_filter, FilterCursor};
use dfo_part::plan::ChunkInfo;
use dfo_part::preprocess::paths;
use dfo_storage::{CachedValue, ChunkKey, NodeDisk, PrefetchJob, Prefetcher};
use dfo_types::{DfoError, DispatchKind, PhaseStats, Pod, Rank, ReprKind, Result, VertexId};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Target network frame size; 256 KB keeps header overhead ≪ 1 %.
const FRAME_BYTES: usize = 256 << 10;
/// Buffer for per-batch dispatch writers (many are open at once).
const DISPATCH_BUF: usize = 32 << 10;

/// Per-call counters for the phases that run concurrently (pass/dispatch);
/// the sequential phases (generate/process) are measured as disk-stat
/// deltas around their barriers.
#[derive(Default)]
struct CallStats {
    pass_disk_read: AtomicU64,
    dispatch_disk_read: AtomicU64,
    dispatch_disk_write: AtomicU64,
    messages_sent: AtomicU64,
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
        let b_count = self.plan.n_batches(rank);

        // previous call's message spill is garbage now
        let _ = std::fs::remove_dir_all(self.scratch.root().join("msgs"));

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
        let gen_counts: Vec<AtomicU64> = (0..b_count).map(|_| AtomicU64::new(0)).collect();
        let m_total = self.for_each_batch(|b| {
            let n = self.generate_batch(
                b,
                &signal_entries,
                signal_arrays,
                active_entry.as_deref(),
                &signal,
            )?;
            gen_counts[b].store(n, Ordering::Relaxed);
            Ok(n)
        })?;
        drop(gen_span);
        let gen_elapsed = t_gen.elapsed();
        stats.messages_generated = m_total;
        stats.generate_disk_read = disk_stats.read_bytes.get() - r0;
        stats.generate_disk_write = disk_stats.write_bytes.get() - w0;
        stats.generate_nanos = gen_elapsed.as_nanos() as u64;
        if let Some(o) = &self.obs {
            o.phase_secs[0].observe(gen_elapsed.as_secs_f64());
        }

        // ---------------- phases 2+3: passing & dispatching ------------------
        let call = CallStats::default();
        let msg_counts: Vec<Vec<AtomicU64>> =
            (0..b_count).map(|_| (0..p_nodes).map(|_| AtomicU64::new(0)).collect()).collect();
        let none_mode: Vec<AtomicBool> = (0..p_nodes).map(|_| AtomicBool::new(false)).collect();
        let none_counts: Vec<AtomicU64> = (0..p_nodes).map(|_| AtomicU64::new(0)).collect();
        let net_sent0 = self.net.stats().sent_bytes.get();
        let net_recv0 = self.net.stats().recv_bytes.get();
        let t_dispatch = std::time::Instant::now();
        let dispatch_span = self.obs_span("phase3_dispatch", "phase");
        // phase-2 wall time, measured on the sender thread (the phases
        // overlap, so the main thread's window can't see it)
        let pass_nanos = AtomicU64::new(0);

        {
            let err: Mutex<Option<DfoError>> = Mutex::new(None);
            let record_err = |e: DfoError| {
                *err.lock() = Some(e);
            };
            std::thread::scope(|s| {
                // sender: round-robin over peers (§4.4)
                s.spawn(|| {
                    let t_pass = std::time::Instant::now();
                    let _pass_span = self.obs_span("phase2_pass", "phase");
                    for j in self.cfg.send_order(rank) {
                        if let Err(e) = self.send_to::<M>(j, seq, m_total, &gen_counts, &call) {
                            record_err(e);
                            break;
                        }
                    }
                    let el = t_pass.elapsed();
                    pass_nanos.store(el.as_nanos() as u64, Ordering::Relaxed);
                    if let Some(o) = &self.obs {
                        o.phase_secs[1].observe(el.as_secs_f64());
                    }
                });
                // self-dispatch: the node's own messages never touch the wire
                s.spawn(|| {
                    if let Err(e) = self.dispatch_self::<M>(
                        m_total,
                        &gen_counts,
                        &msg_counts,
                        &none_mode,
                        &none_counts,
                        &call,
                    ) {
                        record_err(e);
                    }
                });
                // receiver: peers in mirrored order (§4.5)
                s.spawn(|| {
                    for p in self.cfg.recv_order(rank) {
                        if let Err(e) = self.recv_dispatch::<M>(
                            p,
                            seq,
                            &msg_counts,
                            &none_mode,
                            &none_counts,
                            &call,
                        ) {
                            record_err(e);
                            return;
                        }
                    }
                });
            });
            let pending = err.lock().take();
            if let Some(e) = pending {
                return Err(e);
            }
        }
        drop(dispatch_span);
        let dispatch_elapsed = t_dispatch.elapsed();
        stats.pass_net_sent = self.net.stats().sent_bytes.get() - net_sent0;
        stats.dispatch_net_recv = self.net.stats().recv_bytes.get() - net_recv0;
        stats.pass_disk_read = call.pass_disk_read.load(Ordering::Relaxed);
        stats.dispatch_disk_read = call.dispatch_disk_read.load(Ordering::Relaxed);
        stats.dispatch_disk_write = call.dispatch_disk_write.load(Ordering::Relaxed);
        stats.messages_sent = call.messages_sent.load(Ordering::Relaxed);
        stats.pass_nanos = pass_nanos.load(Ordering::Relaxed);
        stats.dispatch_nanos = dispatch_elapsed.as_nanos() as u64;
        if let Some(o) = &self.obs {
            o.phase_secs[2].observe(dispatch_elapsed.as_secs_f64());
        }

        // ---------------- phase 4: processing --------------------------------
        let t_proc = std::time::Instant::now();
        let proc_span = self.obs_span("phase4_process", "phase");
        let (r1, w1) = (disk_stats.read_bytes.get(), disk_stats.write_bytes.get());
        // read-ahead: background threads decode the next batches' chunks
        // into the cache while `slot` runs over the current one
        let prefetcher = self.spawn_prefetcher::<E>(b_count, &msg_counts, &none_mode, &none_counts);
        let local = self.for_each_batch(|b| {
            if let Some(pf) = &prefetcher {
                pf.notify_claimed(b);
            }
            self.process_batch::<A, M, E>(
                b,
                &slot_entries,
                &msg_counts,
                &none_mode,
                &none_counts,
                &gen_counts,
                &slot,
            )
        })?;
        // join the prefetch threads before sampling counters so their reads
        // land deterministically in the processing window
        drop(prefetcher);
        drop(proc_span);
        let proc_elapsed = t_proc.elapsed();
        stats.process_nanos = proc_elapsed.as_nanos() as u64;
        if let Some(o) = &self.obs {
            o.phase_secs[3].observe(proc_elapsed.as_secs_f64());
        }
        stats.process_disk_read = disk_stats.read_bytes.get() - r1;
        stats.process_disk_write = disk_stats.write_bytes.get() - w1;
        // whole-call logical (pre-compression) totals; the per-phase fields
        // above stay physical
        stats.logical_disk_read = disk_stats.logical_read_bytes.get() - lr0;
        stats.logical_disk_write = disk_stats.logical_write_bytes.get() - lw0;
        stats.chunk_cache_hits = self.cache_hits.load(Ordering::Relaxed);
        stats.chunk_cache_misses = self.cache_misses.load(Ordering::Relaxed);
        if let (Some(cache), Some(s0)) = (&self.chunk_cache, cache0) {
            stats.chunk_cache_evicted_bytes = cache.stats().delta_since(&s0).evicted_bytes;
        }

        self.commit_epochs(&epoch_set)?;
        self.job_stats.merge(&stats);
        self.last_stats = stats;
        Ok(local.allreduce(&self.net))
    }

    /// Phase 1 for one batch: run `signal` over active vertices, spill
    /// records to `msgs/gen_b{b}.bin`, write back dirty signal arrays.
    fn generate_batch<M: Pod>(
        &self,
        b: usize,
        signal_entries: &[Arc<ArrayEntry>],
        signal_names: &[&str],
        active_entry: Option<&ArrayEntry>,
        signal: &(impl Fn(VertexId, &mut BatchCtx) -> Option<M> + Sync),
    ) -> Result<u64> {
        let Some((mut ctx, mask)) =
            self.open_active_batch(b, signal_entries, signal_names, active_entry)?
        else {
            return Ok(0);
        };
        let partition_start = self.plan.partitions[self.rank].start;
        let mut writer = None;
        let mut count = 0u64;
        let mut rec_buf: Vec<u8> = Vec::with_capacity(record_bytes::<M>());
        for v in ctx.batch().iter() {
            if !mask.is_active(&mut ctx, v) {
                continue;
            }
            if let Some(msg) = signal(v, &mut ctx) {
                let w = match &mut writer {
                    Some(w) => w,
                    None => {
                        writer = Some(self.scratch.create(&gen_path(b))?);
                        writer.as_mut().unwrap()
                    }
                };
                rec_buf.clear();
                // source stored local to the *partition*: receivers resolve
                // it against the sender's partition range
                crate::messages::push_record(&mut rec_buf, (v - partition_start) as u32, &msg);
                w.write_all(&rec_buf).map_err(|e| DfoError::io("writing generated message", e))?;
                count += 1;
            }
        }
        if let Some(w) = writer {
            w.finish()?;
        }
        ctx.write_back(b)?;
        Ok(count)
    }

    /// Phase 2 to one peer: stream the node's generated messages, filtered
    /// against `L_{rank,j}` unless the §4.3 skip rule fires.
    fn send_to<M: Pod>(
        &self,
        j: Rank,
        seq: u64,
        m_total: u64,
        gen_counts: &[AtomicU64],
        call: &CallStats,
    ) -> Result<()> {
        let l_len = self.plan.node_meta[self.rank].filter_lens[j];
        let do_filter =
            self.cfg.filtering_enabled && should_filter(l_len, m_total, self.cfg.filter_skip_ratio);
        let list = if do_filter {
            dfo_part::filter::read_filter_list(&self.disk, &paths::filter(j))?
        } else {
            Vec::new()
        };
        let mut cursor = FilterCursor::new(&list);

        // header frame: an upper bound on the records to follow, so the
        // receiver can pick its dispatch strategy before data arrives
        let bound = if do_filter { l_len.min(m_total) } else { m_total };
        self.net.send(j, seq, Bytes::copy_from_slice(&bound.to_le_bytes()), false)?;

        let rec = record_bytes::<M>();
        let mut fb = FrameBuilder::new(FRAME_BYTES, rec);
        let mut sent = 0u64;
        // stats accumulate in locals and flush once per stream — a per-record
        // fetch_add on a shared cache line costs more than the record parse
        let mut read_bytes = 0u64;
        for (b, c) in gen_counts.iter().enumerate() {
            if c.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut r = RecordReader::new(self.scratch.open(&gen_path(b))?);
            while let Some((src, msg)) = RecordIter::<M>::next_record(&mut r)? {
                read_bytes += rec as u64;
                if !do_filter || cursor.contains(src) {
                    sent += 1;
                    if let Some(frame) = fb.push(src, &msg) {
                        self.net.send(j, seq, frame, false)?;
                    }
                }
            }
        }
        if let Some(tail) = fb.finish() {
            self.net.send(j, seq, tail, false)?;
        }
        self.net.finish_stream(j, seq)?;
        call.pass_disk_read.fetch_add(read_bytes, Ordering::Relaxed);
        call.messages_sent.fetch_add(sent, Ordering::Relaxed);
        Ok(())
    }

    /// Phase 3 for the node's own messages: they are already on disk (the
    /// gen files), so dispatching reads them locally.
    fn dispatch_self<M: Pod>(
        &self,
        m_total: u64,
        gen_counts: &[AtomicU64],
        msg_counts: &[Vec<AtomicU64>],
        none_mode: &[AtomicBool],
        none_counts: &[AtomicU64],
        call: &CallStats,
    ) -> Result<()> {
        let rank = self.rank;
        let dinfo = self.plan.node_meta[rank].dispatch[rank];
        let strategy = self.choose_strategy(dinfo.as_ref(), rank, m_total);
        match strategy {
            Strategy::Drain => Ok(()),
            Strategy::NoDispatch => {
                // batches will read the gen files directly in phase 4
                none_mode[rank].store(true, Ordering::Release);
                none_counts[rank].store(m_total, Ordering::Release);
                Ok(())
            }
            Strategy::Push => {
                let dinfo = dinfo.expect("push strategy requires a dispatch graph");
                let mut access = self.open_dispatch_access(rank, m_total, &dinfo)?;
                let mut sink = PushSink::new(self, rank);
                let rec = record_bytes::<M>();
                let mut read_bytes = 0u64;
                for (b, c) in gen_counts.iter().enumerate() {
                    if c.load(Ordering::Relaxed) == 0 {
                        continue;
                    }
                    let mut r = RecordReader::new(self.scratch.open(&gen_path(b))?);
                    while let Some((src, msg)) = RecordIter::<M>::next_record(&mut r)? {
                        read_bytes += rec as u64;
                        for &batch in access.batches_of(src)?.iter() {
                            sink.write::<M>(batch as usize, src, &msg)?;
                        }
                    }
                }
                call.dispatch_disk_read.fetch_add(read_bytes, Ordering::Relaxed);
                sink.finish(msg_counts, call)
            }
        }
    }

    /// Phase 3 for one remote stream.
    fn recv_dispatch<M: Pod>(
        &self,
        p: Rank,
        seq: u64,
        msg_counts: &[Vec<AtomicU64>],
        none_mode: &[AtomicBool],
        none_counts: &[AtomicU64],
        call: &CallStats,
    ) -> Result<()> {
        let mut stream = self.net.recv_stream(p, seq);
        let header = stream
            .next_chunk()?
            .ok_or_else(|| DfoError::Corrupt(format!("stream from {p} missing header")))?;
        let bound = u64::from_le_bytes(header[..8].try_into().unwrap());
        let dinfo = self.plan.node_meta[self.rank].dispatch[p];
        let strategy = self.choose_strategy(dinfo.as_ref(), p, bound);
        let rec = record_bytes::<M>();

        match strategy {
            Strategy::Drain => {
                while stream.next_chunk()?.is_some() {}
                Ok(())
            }
            Strategy::NoDispatch => {
                let mut w = self.scratch.create(&none_path(p))?;
                let mut total = 0u64;
                let mut write_bytes = 0u64;
                while let Some(chunk) = stream.next_chunk()? {
                    w.write_all(&chunk).map_err(|e| DfoError::io("spilling raw stream", e))?;
                    write_bytes += chunk.len() as u64;
                    total += chunk.len() as u64 / rec as u64;
                }
                w.finish()?;
                call.dispatch_disk_write.fetch_add(write_bytes, Ordering::Relaxed);
                none_counts[p].store(total, Ordering::Release);
                none_mode[p].store(true, Ordering::Release);
                Ok(())
            }
            Strategy::Push => {
                let dinfo = dinfo.expect("push strategy requires a dispatch graph");
                let mut access = self.open_dispatch_access(p, bound, &dinfo)?;
                let mut sink = PushSink::new(self, p);
                while let Some(chunk) = stream.next_chunk()? {
                    debug_assert_eq!(chunk.len() % rec, 0, "frames carry whole records");
                    let mut off = 0;
                    while off < chunk.len() {
                        let (src, msg) = parse_record::<M>(&chunk, off);
                        off += rec;
                        for &batch in access.batches_of(src)?.iter() {
                            sink.write::<M>(batch as usize, src, &msg)?;
                        }
                    }
                }
                sink.finish(msg_counts, call)
            }
        }
    }

    /// §4.2 adaptive choice. Push pays the index plus one read and one write
    /// of the messages; no-dispatch makes every interested batch rescan the
    /// whole stream in phase 4. The paper's pull strategy is not implemented:
    /// its benefit over push is *latency* (a batch can start processing as
    /// soon as it has pulled), which this engine's phase barrier before
    /// processing cannot exploit.
    fn choose_strategy(&self, dinfo: Option<&ChunkInfo>, p: Rank, bound: u64) -> Strategy {
        let Some(dinfo) = dinfo else {
            return Strategy::Drain;
        };
        if bound == 0 {
            return Strategy::Drain;
        }
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
    /// positioned-read seek mode when messages are few (§4.1).
    fn open_dispatch_access(
        &self,
        p: Rank,
        bound: u64,
        dinfo: &ChunkInfo,
    ) -> Result<DispatchAccess> {
        let n_src = self.plan.partitions[p].len();
        // seek mode needs the raw on-disk layout: compressed dispatch
        // graphs (the compress_chunks default) always load whole
        if self.cfg.repr_override.is_none()
            && !self.cfg.compress_chunks
            && dfo_part::csr::should_seek(dinfo.has_csr, bound, n_src, self.cfg.gamma)
        {
            if let Some(seeker) =
                dfo_part::csr::ChunkSeeker::<()>::open(&self.disk, &paths::dispatch(p))?
            {
                return Ok(DispatchAccess::Seek(seeker));
            }
            // the file on disk is compressed despite the current config
            // (stale preprocessing): fall through to a full load
        }
        let want = self.cfg.repr_override.unwrap_or_else(|| {
            choose_repr(dinfo.has_csr, dinfo.n_nonzero_src, n_src, bound, self.cfg.gamma)
        });
        let key = ChunkKey { partition: p, batch: None, repr: Some(want) };
        let dg = self.load_indexed::<()>(&paths::dispatch(p), key)?;
        Ok(DispatchAccess::Loaded { dg, cursor: MergeCursor::new() })
    }

    /// Work arriving at destination batch `b` from partition `p` this call:
    /// `None` if the batch has nothing to replay from `p`, else the chunk
    /// metadata, the *pushed* record count (0 = replay the undispatched
    /// buffer) and the total message count driving the §4.1 cost model.
    /// `process_batch` and `spawn_prefetcher` must share this rule — if
    /// they disagree, read-ahead decodes chunks under keys the consumer
    /// never looks up.
    fn batch_messages(
        &self,
        b: usize,
        p: Rank,
        msg_counts: &[Vec<AtomicU64>],
        none_mode: &[AtomicBool],
        none_counts: &[AtomicU64],
    ) -> Option<(ChunkInfo, u64, u64)> {
        let cinfo = self.chunk_map[p][b]?;
        let pushed = msg_counts[b][p].load(Ordering::Acquire);
        let in_none = none_mode[p].load(Ordering::Acquire);
        let count = if pushed > 0 { pushed } else { none_counts[p].load(Ordering::Acquire) };
        if pushed == 0 && (!in_none || count == 0) {
            return None;
        }
        Some((cinfo, pushed, count))
    }

    /// §4.1 access choice for the edge chunk `(p, ·)` given `count` incoming
    /// messages: `None` means seek mode (which bypasses cache and prefetch
    /// by design — it exists precisely because loading the whole chunk does
    /// not pay), `Some(want)` means load the chunk decoded with that index.
    /// Compressed chunks never seek: positioned reads need the raw layout,
    /// and decode-and-discard would pay the full physical read anyway.
    fn chunk_repr(&self, cinfo: &ChunkInfo, p: Rank, count: u64) -> Option<ReprKind> {
        let n_src = self.plan.partitions[p].len();
        if self.cfg.repr_override.is_none()
            && !self.cfg.compress_chunks
            && dfo_part::csr::should_seek(cinfo.has_csr, count, n_src, self.cfg.gamma)
        {
            return None;
        }
        Some(self.full_repr(cinfo, p, count))
    }

    /// Index representation for a *full* load of chunk `(p, ·)` (the
    /// `Some` arm of [`NodeCtx::chunk_repr`], also the fallback when seek
    /// mode meets a compressed file from a stale config).
    fn full_repr(&self, cinfo: &ChunkInfo, p: Rank, count: u64) -> ReprKind {
        let n_src = self.plan.partitions[p].len();
        self.cfg.repr_override.unwrap_or_else(|| {
            choose_repr(cinfo.has_csr, cinfo.n_nonzero_src, n_src, count, self.cfg.gamma)
        })
    }

    /// Loads the decoded edge chunk or dispatching graph at `path` with the
    /// index `key.repr`, through the chunk cache (and any in-flight
    /// prefetch) when one is configured. Hits and misses are counted here,
    /// per context, not diffed from the shared cache's counters.
    fn load_indexed<E: Pod + PartialEq>(
        &self,
        path: &str,
        key: ChunkKey,
    ) -> Result<Arc<IndexedChunk<E>>> {
        let read = || self.timed_chunk_read(|| read_indexed::<E>(&self.disk, path, key.repr));
        let Some(cache) = &self.chunk_cache else {
            return Ok(Arc::new(read()?));
        };
        if let Some(v) = cache.lookup(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v.downcast::<IndexedChunk<E>>().expect("chunk cache holds IndexedChunk<E>"));
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let chunk = Arc::new(read()?);
        cache.insert(key, chunk.clone() as CachedValue, chunk.decoded_bytes());
        Ok(chunk)
    }

    /// Builds and starts the phase-4 read-ahead pool: the batch processing
    /// order and each chunk's access mode are fully known once dispatching
    /// finished, so background threads can load and decode the next batches'
    /// chunks while `slot` runs over the current one. Returns `None` when
    /// the cache is off (budget 0 spawns no threads), read-ahead is disabled,
    /// or every needed chunk is already resident or in seek mode.
    fn spawn_prefetcher<E: Pod + PartialEq>(
        &self,
        b_count: usize,
        msg_counts: &[Vec<AtomicU64>],
        none_mode: &[AtomicBool],
        none_counts: &[AtomicU64],
    ) -> Option<Prefetcher> {
        let cache = self.chunk_cache.as_ref()?;
        if self.cfg.prefetch_depth == 0 {
            return None;
        }
        let rank = self.rank;
        let mut order = vec![rank];
        order.extend(self.cfg.recv_order(rank));
        let mut jobs = Vec::new();
        #[allow(clippy::needless_range_loop)] // b indexes batches, chunk_map and msg_counts alike
        for b in 0..b_count {
            if self.plan.batches[rank][b].is_empty() {
                continue;
            }
            for &p in &order {
                let Some((cinfo, _, count)) =
                    self.batch_messages(b, p, msg_counts, none_mode, none_counts)
                else {
                    continue;
                };
                let Some(want) = self.chunk_repr(&cinfo, p, count) else { continue };
                let key = chunk_key(p, b, want);
                if cache.contains(&key) {
                    continue;
                }
                let disk = self.disk.clone();
                let path = paths::chunk(p, b);
                jobs.push(PrefetchJob {
                    key,
                    group: b,
                    load: Box::new(move || {
                        let chunk = read_indexed::<E>(&disk, &path, key.repr)?;
                        let bytes = chunk.decoded_bytes();
                        Ok((Arc::new(chunk) as CachedValue, bytes))
                    }),
                });
            }
        }
        if jobs.is_empty() {
            return None;
        }
        Some(Prefetcher::spawn(cache.clone(), jobs, self.cfg.prefetch_depth))
    }

    /// Phase 4 for one destination batch.
    #[allow(clippy::too_many_arguments)]
    fn process_batch<A, M, E>(
        &self,
        b: usize,
        slot_entries: &[Arc<ArrayEntry>],
        msg_counts: &[Vec<AtomicU64>],
        none_mode: &[AtomicBool],
        none_counts: &[AtomicU64],
        gen_counts: &[AtomicU64],
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
        let has_work = order
            .iter()
            .any(|&p| self.batch_messages(b, p, msg_counts, none_mode, none_counts).is_some());
        if !has_work {
            return Ok(A::zero());
        }

        let refs: Vec<&ArrayEntry> = slot_entries.iter().map(|e| e.as_ref()).collect();
        let mut ctx = BatchCtx::load(&refs, range, b, self.plan.partitions[rank].start, None)?;
        let mut acc = A::zero();
        let dst_base = self.plan.partitions[rank].start;

        for &p in &order {
            let Some((cinfo, pushed, count)) =
                self.batch_messages(b, p, msg_counts, none_mode, none_counts)
            else {
                continue;
            };
            // §4.1: with few messages and a stored CSR, *seek* into the
            // chunk with positioned reads instead of streaming it whole;
            // full loads go through the chunk cache and prefetcher
            let load =
                |want| self.load_indexed::<E>(&paths::chunk(p, b), chunk_key(p, b, want)).map(Some);
            let (chunk, seeker) = match self.chunk_repr(&cinfo, p, count) {
                None => {
                    match dfo_part::csr::ChunkSeeker::<E>::open(&self.disk, &paths::chunk(p, b))? {
                        Some(s) => (None, Some(s)),
                        // the file is compressed despite the current config
                        // (stale preprocessing): load it whole instead
                        None => (load(self.full_repr(&cinfo, p, count))?, None),
                    }
                }
                Some(want) => (load(want)?, None),
            };
            let use_csr = chunk.as_ref().map(|c| c.csr_idx.is_some()).unwrap_or(false);
            let src_base = self.plan.partitions[p].start;
            let mut mc = MergeCursor::new();
            let mut apply = |src: u32, msg: M, ctx: &mut BatchCtx, acc: &mut A| -> Result<()> {
                if let Some(seeker) = &seeker {
                    for (dst_local, data) in seeker.edges_of(src)? {
                        let a = slot(
                            msg,
                            src_base + src as VertexId,
                            dst_base + dst_local as VertexId,
                            &data,
                            ctx,
                        );
                        let cur = std::mem::replace(acc, A::zero());
                        *acc = cur.merge(a);
                    }
                    return Ok(());
                }
                let chunk = chunk.as_deref().unwrap();
                let edges = if use_csr { chunk.edges_of_csr(src) } else { mc.edges_of(chunk, src) };
                for e in edges {
                    let a = slot(
                        msg,
                        src_base + src as VertexId,
                        dst_base + chunk.dst[e] as VertexId,
                        &chunk.data[e],
                        ctx,
                    );
                    let cur = std::mem::replace(acc, A::zero());
                    *acc = cur.merge(a);
                }
                Ok(())
            };
            if pushed > 0 {
                let mut r = RecordReader::new(self.scratch.open(&seg_path(b, p))?);
                while let Some((src, msg)) = RecordIter::<M>::next_record(&mut r)? {
                    apply(src, msg, &mut ctx, &mut acc)?;
                }
            } else if p == rank {
                // no-dispatch over our own messages: replay the gen files
                for (gb, c) in gen_counts.iter().enumerate() {
                    if c.load(Ordering::Relaxed) == 0 {
                        continue;
                    }
                    let mut r = RecordReader::new(self.scratch.open(&gen_path(gb))?);
                    while let Some((src, msg)) = RecordIter::<M>::next_record(&mut r)? {
                        apply(src, msg, &mut ctx, &mut acc)?;
                    }
                }
            } else {
                let mut r = RecordReader::new(self.scratch.open(&none_path(p))?);
                while let Some((src, msg)) = RecordIter::<M>::next_record(&mut r)? {
                    apply(src, msg, &mut ctx, &mut acc)?;
                }
            }
        }
        ctx.write_back(b)?;
        Ok(acc)
    }
}

/// Access mode to a dispatching graph during push dispatching. The loaded
/// variant holds an `Arc` so the decoded graph can live on in the chunk
/// cache after this stream is done.
enum DispatchAccess {
    Loaded { dg: Arc<IndexedChunk<()>>, cursor: MergeCursor },
    Seek(dfo_part::csr::ChunkSeeker<()>),
}

impl DispatchAccess {
    /// Destination batches of `src`'s messages — borrowed from the loaded
    /// graph (this runs once per message), owned only when seeked.
    fn batches_of(&mut self, src: u32) -> Result<Cow<'_, [u32]>> {
        match self {
            DispatchAccess::Loaded { dg, cursor } => {
                let range =
                    if dg.has_csr() { dg.edges_of_csr(src) } else { cursor.edges_of(dg, src) };
                Ok(Cow::Borrowed(&dg.dst[range]))
            }
            DispatchAccess::Seek(seeker) => {
                Ok(Cow::Owned(seeker.edges_of(src)?.into_iter().map(|(b, _)| b).collect()))
            }
        }
    }
}

/// Lazily-opened per-batch segment writers for push dispatching. Record
/// counts and byte stats accumulate locally and flush once in
/// [`PushSink::finish`] — phase 4 only reads `msg_counts` after the
/// dispatch threads have joined, so per-record atomics bought nothing.
struct PushSink<'a> {
    node: &'a NodeCtx,
    src_partition: Rank,
    writers: Vec<Option<dfo_storage::DiskWriter>>,
    counts: Vec<u64>,
    write_bytes: u64,
}

impl<'a> PushSink<'a> {
    fn new(node: &'a NodeCtx, src_partition: Rank) -> Self {
        let b = node.plan.n_batches(node.rank);
        Self {
            node,
            src_partition,
            writers: (0..b).map(|_| None).collect(),
            counts: vec![0; b],
            write_bytes: 0,
        }
    }

    fn write<M: Pod>(&mut self, batch: usize, src: u32, msg: &M) -> Result<()> {
        let w = match &mut self.writers[batch] {
            Some(w) => w,
            None => {
                self.writers[batch] = Some(
                    self.node
                        .scratch
                        .create_with_buffer(&seg_path(batch, self.src_partition), DISPATCH_BUF)?,
                );
                self.writers[batch].as_mut().unwrap()
            }
        };
        crate::messages::write_record(w, src, msg)?;
        self.write_bytes += record_bytes::<M>() as u64;
        self.counts[batch] += 1;
        Ok(())
    }

    fn finish(self, msg_counts: &[Vec<AtomicU64>], call: &CallStats) -> Result<()> {
        for w in self.writers.into_iter().flatten() {
            w.finish()?;
        }
        for (b, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                msg_counts[b][self.src_partition].fetch_add(n, Ordering::Release);
            }
        }
        call.dispatch_disk_write.fetch_add(self.write_bytes, Ordering::Relaxed);
        Ok(())
    }
}

/// Cache identity of the edge chunk `(p, b)` decoded with index `want`.
fn chunk_key(p: Rank, b: usize, want: ReprKind) -> ChunkKey {
    ChunkKey { partition: p, batch: Some(b), repr: Some(want) }
}

/// Opens `path` through the framing auto-detector and decodes it with the
/// index `want` — the one chunk reader `load_indexed` and the prefetch
/// threads share.
fn read_indexed<E: Pod + PartialEq>(
    disk: &NodeDisk,
    path: &str,
    want: Option<ReprKind>,
) -> Result<IndexedChunk<E>> {
    let mut r = disk.open_framed(path)?;
    IndexedChunk::read_from(&mut r, want)
}

fn gen_path(b: usize) -> String {
    format!("msgs/gen_b{b}.bin")
}

fn seg_path(b: usize, p: Rank) -> String {
    format!("msgs/in_b{b}_p{p}.bin")
}

fn none_path(p: Rank) -> String {
    format!("msgs/in_all_p{p}.bin")
}
