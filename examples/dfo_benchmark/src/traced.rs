//! The traced repetition: the harness's own PageRank / SSSP drivers, each
//! call into the engine wrapped in a harness-owned span.
//!
//! The drivers issue exactly the calls `dfograph::algos::{pagerank, sssp,
//! out_degree_array, read_local}` issue — same arrays, same closures, same
//! order — so their result must be bit-identical to the library's (the run
//! checks the digest). What they add is a [`Tracer`] around every
//! `NodeCtx::{vertex_array, process_vertices, process_edges, exchange_bytes}`
//! call and `read_local`: name, start, end, parent, and the deltas of the
//! public disk / network / chunk-cache / phase counters between the same two
//! instants, so ratios are measured where the work happens. Spans stay in
//! memory until the run ends.

use dfograph::algos::pagerank::DAMPING;
use dfograph::core::{NodeCtx, VertexArray};
use dfograph::part::preprocess::paths;
use dfograph::types::{
    read_u32, read_u64, slice_as_bytes, vec_from_bytes, DfoError, PhaseStats, Result, VertexId,
};
use std::io::Read;
use std::time::Instant;

use crate::workloads::Job;

/// Public engine counters of one rank at one instant (or a delta of two).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub disk_read_bytes: u64,
    pub disk_write_bytes: u64,
    pub disk_logical_read_bytes: u64,
    pub disk_read_ops: u64,
    pub disk_write_ops: u64,
    pub disk_read_ns: u64,
    pub disk_write_ns: u64,
    pub disk_decode_ns: u64,
    pub net_sent_bytes: u64,
    pub net_sent_frames: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evicted_bytes: u64,
    /// A gauge, not a counter: deltas and sums keep the later value.
    pub cache_resident_bytes: u64,
}

impl Counters {
    pub fn of(ctx: &NodeCtx) -> Self {
        let d = ctx.disk().stats();
        let n = ctx.net().stats();
        let c = ctx.chunk_cache_stats().unwrap_or_default();
        Self {
            disk_read_bytes: d.read_bytes.get(),
            disk_write_bytes: d.write_bytes.get(),
            disk_logical_read_bytes: d.logical_read_bytes.get(),
            disk_read_ops: d.read_ops.get(),
            disk_write_ops: d.write_ops.get(),
            disk_read_ns: d.read_nanos.get(),
            disk_write_ns: d.write_nanos.get(),
            disk_decode_ns: d.decode_nanos.get(),
            net_sent_bytes: n.sent_bytes.get(),
            net_sent_frames: n.sent_frames.get(),
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_evicted_bytes: c.evicted_bytes,
            cache_resident_bytes: c.resident_bytes,
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            disk_read_bytes: self.disk_read_bytes - earlier.disk_read_bytes,
            disk_write_bytes: self.disk_write_bytes - earlier.disk_write_bytes,
            disk_logical_read_bytes: self.disk_logical_read_bytes - earlier.disk_logical_read_bytes,
            disk_read_ops: self.disk_read_ops - earlier.disk_read_ops,
            disk_write_ops: self.disk_write_ops - earlier.disk_write_ops,
            disk_read_ns: self.disk_read_ns - earlier.disk_read_ns,
            disk_write_ns: self.disk_write_ns - earlier.disk_write_ns,
            disk_decode_ns: self.disk_decode_ns - earlier.disk_decode_ns,
            net_sent_bytes: self.net_sent_bytes - earlier.net_sent_bytes,
            net_sent_frames: self.net_sent_frames - earlier.net_sent_frames,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evicted_bytes: self.cache_evicted_bytes - earlier.cache_evicted_bytes,
            cache_resident_bytes: self.cache_resident_bytes,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.disk_read_bytes += o.disk_read_bytes;
        self.disk_write_bytes += o.disk_write_bytes;
        self.disk_logical_read_bytes += o.disk_logical_read_bytes;
        self.disk_read_ops += o.disk_read_ops;
        self.disk_write_ops += o.disk_write_ops;
        self.disk_read_ns += o.disk_read_ns;
        self.disk_write_ns += o.disk_write_ns;
        self.disk_decode_ns += o.disk_decode_ns;
        self.net_sent_bytes += o.net_sent_bytes;
        self.net_sent_frames += o.net_sent_frames;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evicted_bytes += o.cache_evicted_bytes;
        self.cache_resident_bytes += o.cache_resident_bytes;
    }
}

/// One closed span. `parent` 0 means "no parent" (the rank's root span).
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Counters,
    /// `NodeCtx::last_phase_stats` of a `process_edges` span.
    pub phases: Option<PhaseStats>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Id of each rank's root span; every other span is its child.
const ROOT: u32 = 1;

/// Per-rank span recorder. `epoch` is shared by all ranks of a job, so the
/// spans of one job lie on one timeline.
struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a child span of the rank's root span.
    fn call<T>(
        &mut self,
        ctx: &mut NodeCtx,
        name: &'static str,
        f: impl FnOnce(&mut NodeCtx) -> Result<T>,
    ) -> Result<T> {
        let before = Counters::of(ctx);
        let start_ns = self.now();
        let out = f(ctx)?;
        let end_ns = self.now();
        let counters = Counters::of(ctx).since(&before);
        let phases = (name == "process_edges").then(|| ctx.last_phase_stats().clone());
        let id = ROOT + 1 + self.spans.len() as u32;
        self.spans.push(SpanRec { id, parent: ROOT, name, start_ns, end_ns, counters, phases });
        Ok(out)
    }
}

/// Runs `job` on this rank under a root span named `"job"` and returns the
/// rank's output bytes with every span it recorded.
pub fn run(ctx: &mut NodeCtx, job: Job, epoch: Instant) -> Result<(Vec<u8>, Vec<SpanRec>)> {
    let mut tr = Tracer { epoch, spans: Vec::new() };
    let before = Counters::of(ctx);
    let start_ns = tr.now();
    let out = match job {
        Job::PageRank { iters } => pagerank(ctx, iters, &mut tr)?,
        Job::Sssp => sssp(ctx, 0, &mut tr)?,
        Job::SvcDegree => unreachable!("service jobs run inside the daemon"),
    };
    let end_ns = tr.now();
    let counters = Counters::of(ctx).since(&before);
    let mut spans = tr.spans;
    spans.insert(
        0,
        SpanRec { id: ROOT, parent: 0, name: "job", start_ns, end_ns, counters, phases: None },
    );
    Ok((out, spans))
}

fn read_local<T: dfograph::types::Pod>(
    ctx: &mut NodeCtx,
    tr: &mut Tracer,
    arr: &VertexArray<T>,
) -> Result<Vec<u8>> {
    let v = tr.call(ctx, "read_local", |ctx| dfograph::algos::read_local(ctx, arr))?;
    Ok(slice_as_bytes(&v).to_vec())
}

/// `dfograph::algos::out_degree_array`, call for call.
fn out_degree_array(ctx: &mut NodeCtx, tr: &mut Tracer) -> Result<VertexArray<u64>> {
    let deg = tr.call(ctx, "vertex_array", |ctx| ctx.vertex_array::<u64>("pr_deg"))?;
    let rank = ctx.rank();
    let p = ctx.nodes();
    let my_range = ctx.plan().partitions[rank];

    let per_target = tr.call(ctx, "degree_scan", |ctx| {
        let mut per_target: Vec<Vec<u64>> =
            (0..p).map(|t| vec![0u64; ctx.plan().partitions[t].len() as usize]).collect();
        let chunks = ctx.plan().node_meta[rank].chunks.clone();
        for c in &chunks {
            let (srcs, idx) = read_chunk_index(ctx, c.src_partition, c.batch)?;
            let target = &mut per_target[c.src_partition];
            for (i, &s) in srcs.iter().enumerate() {
                target[s as usize] += idx[i + 1] - idx[i];
            }
        }
        Ok(per_target)
    })?;

    let outgoing: Vec<Vec<u8>> = per_target.iter().map(|v| slice_as_bytes(v).to_vec()).collect();
    let incoming = tr.call(ctx, "exchange_bytes", |ctx| ctx.exchange_bytes(outgoing))?;
    let mut counts = vec![0u64; my_range.len() as usize];
    for bytes in incoming {
        if bytes.is_empty() {
            continue;
        }
        let vec: Vec<u64> = vec_from_bytes(&bytes);
        if vec.len() != counts.len() {
            return Err(DfoError::Corrupt(format!(
                "degree vector length {} != partition size {}",
                vec.len(),
                counts.len()
            )));
        }
        for (c, v) in counts.iter_mut().zip(vec) {
            *c += v;
        }
    }

    let h = deg.clone();
    let start = my_range.start;
    let counts = std::sync::Arc::new(counts);
    tr.call(ctx, "process_vertices", |ctx| {
        ctx.process_vertices(&["pr_deg"], None, move |v, c| {
            c.set(&h, v, counts[(v - start) as usize]);
            0u64
        })
    })?;
    Ok(deg)
}

fn read_chunk_index(
    ctx: &NodeCtx,
    src_partition: usize,
    batch: usize,
) -> Result<(Vec<u32>, Vec<u64>)> {
    let mut r = ctx.disk().open_framed(&paths::chunk(src_partition, batch))?;
    let _magic = read_u32(&mut r).map_err(|e| DfoError::io("chunk magic", e))?;
    let _flags = read_u32(&mut r).map_err(|e| DfoError::io("chunk flags", e))?;
    let _n_src = read_u64(&mut r).map_err(|e| DfoError::io("chunk n_src", e))?;
    let _n_edges = read_u64(&mut r).map_err(|e| DfoError::io("chunk n_edges", e))?;
    let n_nonzero = read_u64(&mut r).map_err(|e| DfoError::io("chunk nz", e))? as usize;
    let mut src_bytes = vec![0u8; n_nonzero * 4];
    r.read_exact(&mut src_bytes).map_err(|e| DfoError::io("chunk dcsr src", e))?;
    let mut idx_bytes = vec![0u8; (n_nonzero + 1) * 8];
    r.read_exact(&mut idx_bytes).map_err(|e| DfoError::io("chunk dcsr idx", e))?;
    Ok((vec_from_bytes(&src_bytes), vec_from_bytes(&idx_bytes)))
}

/// `dfograph::algos::pagerank` + `read_local`, call for call.
fn pagerank(ctx: &mut NodeCtx, iters: usize, tr: &mut Tracer) -> Result<Vec<u8>> {
    let n = ctx.plan().n_vertices as f64;
    let rank = tr.call(ctx, "vertex_array", |ctx| ctx.vertex_array::<f64>("pr_rank"))?;
    let nextr = tr.call(ctx, "vertex_array", |ctx| ctx.vertex_array::<f64>("pr_next"))?;
    let deg = out_degree_array(ctx, tr)?;
    {
        let r = rank.clone();
        tr.call(ctx, "process_vertices", |ctx| {
            ctx.process_vertices(&["pr_rank"], None, move |v, c| {
                c.set(&r, v, 1.0 / n);
                0u64
            })
        })?;
    }
    for _ in 0..iters {
        {
            let nx = nextr.clone();
            tr.call(ctx, "process_vertices", |ctx| {
                ctx.process_vertices(&["pr_next"], None, move |v, c| {
                    c.set(&nx, v, 0.0);
                    0u64
                })
            })?;
        }
        {
            let (r, d, nx) = (rank.clone(), deg.clone(), nextr.clone());
            tr.call(ctx, "process_edges", |ctx| {
                ctx.process_edges(
                    &["pr_rank", "pr_deg"],
                    &["pr_next"],
                    None,
                    move |v, c| {
                        let dv = c.get(&d, v);
                        if dv == 0 {
                            None
                        } else {
                            Some(c.get(&r, v) / dv as f64)
                        }
                    },
                    move |msg: f64, _src, dst, _e: &(), c| {
                        let cur = c.get(&nx, dst);
                        c.set(&nx, dst, cur + msg);
                        0u64
                    },
                )
            })?;
        }
        {
            let (r, nx) = (rank.clone(), nextr.clone());
            tr.call(ctx, "process_vertices", |ctx| {
                ctx.process_vertices(&["pr_rank", "pr_next"], None, move |v, c| {
                    let s = c.get(&nx, v);
                    c.set(&r, v, (1.0 - DAMPING) / n + DAMPING * s);
                    0u64
                })
            })?;
        }
    }
    read_local(ctx, tr, &rank)
}

/// `dfograph::algos::sssp` + `read_local`, call for call.
fn sssp(ctx: &mut NodeCtx, root: VertexId, tr: &mut Tracer) -> Result<Vec<u8>> {
    let dist = tr.call(ctx, "vertex_array", |ctx| ctx.vertex_array::<f32>("sssp_dist"))?;
    let active = tr.call(ctx, "vertex_array", |ctx| ctx.vertex_array::<bool>("sssp_active"))?;
    {
        let (d, a) = (dist.clone(), active.clone());
        tr.call(ctx, "process_vertices", |ctx| {
            ctx.process_vertices(&["sssp_dist", "sssp_active"], None, move |v, c| {
                if v == root {
                    c.set(&a, v, true);
                    c.set(&d, v, 0.0);
                } else {
                    c.set(&a, v, false);
                    c.set(&d, v, f32::INFINITY);
                }
                0u64
            })
        })?;
    }
    loop {
        let (d1, a1) = (dist.clone(), active.clone());
        let (d2, a2) = (dist.clone(), active.clone());
        let act = active.clone();
        let n_update = tr.call(ctx, "process_edges", |ctx| {
            ctx.process_edges(
                &["sssp_dist", "sssp_active"],
                &["sssp_dist", "sssp_active"],
                Some(&act),
                move |v, c| {
                    c.set(&a1, v, false);
                    Some(c.get(&d1, v))
                },
                move |msg: f32, _src, dst, data: &f32, c| {
                    if msg + data < c.get(&d2, dst) {
                        c.set(&a2, dst, true);
                        c.set(&d2, dst, msg + data);
                        1u64
                    } else {
                        0u64
                    }
                },
            )
        })?;
        if n_update == 0 {
            break;
        }
    }
    read_local(ctx, tr, &dist)
}
