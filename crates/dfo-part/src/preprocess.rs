//! The preprocessing pipeline: edge list → per-node on-disk structures.
//!
//! Produces everything Figure 1b shows plus the §4.2/§4.3 side structures:
//!
//! ```text
//! <node i disk>/
//!   plan.bin                     replicated Plan
//!   chunks/p{p}_b{b}.chunk       edge chunk (src partition p → local batch b)
//!   dispatch/from_{p}.dg         dispatching graph (src vertex → batch)
//!   filter/to_{j}.lst            sources of partition i needed by node j
//! ```
//!
//! The stages run on the rayon pool, and no file depends on its size:
//!
//! 1. The edge list is cut into one contiguous slice per worker. Each slice
//!    counts its degrees, then its edges per `(dst node, src partition,
//!    dst batch)` bucket; prefix sums over those counts give each slice its
//!    run of each exact-size bucket, and the slices fill their runs in
//!    parallel. The fill is stable: a bucket holds its edges in input order.
//! 2. Each non-empty bucket becomes one chunk, one task per chunk.
//! 3. Each `(node j, partition i)` pair builds its dispatching graph from the
//!    sources of node j's chunks from partition i. Their sorted union — the
//!    graph's sources — is the filter list `L_ij`, stored on node i.
//!
//! Memory is O(|E| + |V|): per-slice degree counts and the buckets; nothing
//! is P × |V|.
//!
//! All writes go through the accounted node disks, so preprocessing time in
//! the benchmark tables reflects the same throttled I/O as iterations do.
//! Chunks and dispatching graphs are written through the checksummed LZ4
//! block framing when `cfg.compress_chunks` is on (the default), and so are
//! filter lists where that makes them smaller; readers auto-detect either
//! layout.

use crate::batching::choose_batch_size;
use crate::csr::{IndexedChunk, CSR_INFLATE_RATIO};
use crate::filter::write_filter_list;
use crate::partition::partition_vertices;
use crate::plan::{ChunkInfo, Plan};
use dfo_graph::degree::degrees;
use dfo_graph::edge::{Edge, EdgeList};
use dfo_storage::NodeDisk;
use dfo_types::{pod_zeroed, DfoError, EngineConfig, Pod, Result, VertexRange};
use rayon::prelude::*;
use std::cmp::Reverse;

/// Paths of the structures a node stores, kept in one place so the engine
/// and the preprocessor cannot drift apart.
pub mod paths {
    pub fn chunk(p: usize, b: usize) -> String {
        format!("chunks/p{p}_b{b}.chunk")
    }
    pub fn dispatch(p: usize) -> String {
        format!("dispatch/from_{p}.dg")
    }
    pub fn filter(j: usize) -> String {
        format!("filter/to_{j}.lst")
    }
}

/// Vertices a partition must stay below: sources travel as `u32` ids local
/// to their partition, and message frames keep bit 31 of their first word
/// to tell coded frames from raw ones (`dfo_core::messages`).
pub const MAX_PARTITION_VERTICES: u64 = 1 << 31;

/// Edges a slice gets at least: smaller inputs are bucketed on fewer
/// workers, a graph below twice this on the calling thread.
const MIN_SLICE_EDGES: usize = 1 << 12;

/// Refuses, naming it, a partition whose local ids reach bit 31.
pub fn check_local_ids(partitions: &[VertexRange]) -> Result<()> {
    let Some(p) = partitions.iter().position(|r| r.len() >= MAX_PARTITION_VERTICES) else {
        return Ok(());
    };
    let n = partitions[p].len();
    Err(DfoError::Config(format!("partition {p} holds {n} vertices; local ids stop at 2^31")))
}

/// Result of preprocessing (the plan plus anything harnesses want to log).
pub struct PreprocessOutput {
    pub plan: Plan,
}

/// Preprocesses `g` for `cfg.nodes` nodes writing onto `disks`.
///
/// The input follows the paper's contract for DFOGraph: edges sorted by
/// source (§5.2, "DFOGraph needs input edges in order"); sorting is the
/// caller's job and is *not* part of timed preprocessing (§5.2 footnote 5).
/// Input in any other order gives the same files a stable sort by source
/// would.
pub fn preprocess<E: Pod + PartialEq>(
    g: &EdgeList<E>,
    cfg: &EngineConfig,
    disks: &[NodeDisk],
) -> Result<PreprocessOutput> {
    assert_eq!(disks.len(), cfg.nodes, "one disk per node");
    cfg.validate().map_err(DfoError::Config)?;
    let p = cfg.nodes;
    let slices = slices(&g.edges);
    let (din, dout) = degrees(g.n_vertices, &slices);
    let partitions = partition_vertices(g.n_vertices, &din, &dout, p, cfg.effective_alpha());
    drop((din, dout));
    check_local_ids(&partitions)?;

    let batch_sizes: Vec<u64> = partitions
        .iter()
        .map(|r| {
            if cfg.batching_enabled {
                choose_batch_size(cfg.batch_policy, r, cfg.threads_per_node, cfg.mem_budget)
            } else {
                // Table 6 ablation: one batch per partition
                r.len().max(1)
            }
        })
        .collect();

    let mut plan = Plan::from_geometry(
        g.n_vertices,
        g.n_edges(),
        std::mem::size_of::<E>() as u32,
        partitions,
        batch_sizes,
    );

    // --- bucket edges by (dst node, src partition, dst batch) ---------------
    let router = Router::new(&plan);
    let counts: Vec<Vec<usize>> = slices.par_iter().map(|s| router.count(s)).collect();
    let buckets = router.scatter(&slices, &counts);
    let mut tasks = Vec::new();
    for (key @ (dp, sp, _), bucket) in router.keys().zip(buckets) {
        let n = bucket.src.len() as u64;
        plan.node_meta[dp].n_in_edges += n;
        plan.node_meta[sp].n_out_edges += n;
        if n > 0 {
            tasks.push((key, bucket));
        }
    }

    // --- chunks, one task each, the largest first ---------------------------
    tasks.sort_by_key(|(_, b)| Reverse(b.src.len()));
    let mut built: Vec<(Key, ChunkInfo, Vec<u32>)> = tasks
        .into_par_iter()
        .map(|(key, bucket)| build_chunk(key, bucket, &disks[key.0], cfg, &plan))
        .collect::<Result<_>>()?;
    built.sort_by_key(|c| c.0);
    // each (node, partition) pair's chunk sources, in batch order
    let mut sources: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); p * p];
    for ((dp, sp, b), info, src) in built {
        plan.node_meta[dp].chunks.push(info);
        sources[dp * p + sp].push((b as u32, src));
    }

    // --- dispatching graphs on the destination node, filter lists on the
    // source node, one task per (node, partition) pair -----------------------
    let pairs: Vec<(Option<ChunkInfo>, u64)> = sources
        .into_par_iter()
        .enumerate()
        .map(|(k, src)| dispatch_and_filter(k / p, k % p, &src, disks, cfg, &plan))
        .collect::<Result<_>>()?;
    for (k, (dispatch, list_len)) in pairs.into_iter().enumerate() {
        let (dp, sp) = (k / p, k % p);
        plan.node_meta[dp].dispatch[sp] = dispatch;
        plan.node_meta[sp].filter_lens[dp] = list_len;
    }

    // --- replicate the plan -------------------------------------------------
    for disk in disks {
        plan.store(disk)?;
    }
    Ok(PreprocessOutput { plan })
}

/// Cuts `edges` into one contiguous slice per worker, each of at least
/// [`MIN_SLICE_EDGES`] edges; always at least one slice.
fn slices<E>(edges: &[Edge<E>]) -> Vec<&[Edge<E>]> {
    let m = edges.len();
    let n = rayon::current_num_threads().min(m / MIN_SLICE_EDGES).max(1);
    (0..n).map(|i| &edges[i * m / n..(i + 1) * m / n]).collect()
}

/// A bucket's place: `(dst node, src partition, dst batch)`.
type Key = (usize, usize, usize);

/// One bucket's edges, `(src_local, dst_local, data)` as columns.
struct Bucket<E> {
    src: Vec<u32>,
    dst: Vec<u32>,
    data: Vec<E>,
}

/// One slice's run of a bucket.
type Run<'a, E> = (&'a mut [u32], &'a mut [u32], &'a mut [E]);

/// Where an edge goes: its bucket, numbered in [`Key`] order, and its ids
/// local to their partitions.
struct Router {
    parts: Vec<Part>,
    /// Starts of partitions `1..P`: a vertex's partition is how many of
    /// them it reaches (empty partitions are passed over).
    bounds: Vec<u64>,
    n_buckets: usize,
}

/// What routing needs of one partition.
#[derive(Clone, Copy)]
struct Part {
    start: u64,
    n_batches: usize,
    /// First bucket of the partition's node.
    base: usize,
    /// `local / batch size` is `(local · mul) >> shift`, with no division.
    mul: u64,
    shift: u32,
}

impl Part {
    fn new(start: u64, n_batches: usize, base: usize, batch_size: u64) -> Self {
        // `mul` = ⌈2^(31+l) / size⌉ with l = ⌈log2 size⌉: the quotient is
        // exact for every local id below 2^31, and the product fits a u64
        let l = 64 - (batch_size - 1).leading_zeros();
        let mul = (1u64 << (31 + l)).div_ceil(batch_size);
        Self { start, n_batches, base, mul, shift: 31 + l }
    }

    /// Batch of the local id `local` (below 2^31, `check_local_ids`).
    #[inline]
    fn batch(&self, local: u64) -> usize {
        ((local * self.mul) >> self.shift) as usize
    }
}

impl Router {
    fn new(plan: &Plan) -> Self {
        let p = plan.nodes();
        let mut base = 0;
        let parts = (0..p)
            .map(|i| {
                let (r, n_batches) = (plan.partitions[i], plan.batches[i].len());
                // a batch size past the partition's end puts all in batch 0
                let part =
                    Part::new(r.start, n_batches, base, plan.batch_sizes[i].min(r.len().max(1)));
                base += p * n_batches;
                part
            })
            .collect();
        let bounds = plan.partitions[1..].iter().map(|r| r.start).collect();
        Self { parts, bounds, n_buckets: base }
    }

    /// Every bucket's key, in bucket order.
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        let p = self.parts.len();
        (0..p).flat_map(move |dp| {
            (0..p).flat_map(move |sp| (0..self.parts[dp].n_batches).map(move |b| (dp, sp, b)))
        })
    }

    #[inline]
    fn partition(&self, v: u64) -> usize {
        self.bounds.iter().filter(|&&b| v >= b).count()
    }

    /// Calls `f(bucket, src_local, dst_local, data)` for each edge in order.
    /// Both partitions are counted from the boundaries, without a branch
    /// to mispredict on input in any order.
    #[inline]
    fn route<E: Pod>(&self, edges: &[Edge<E>], mut f: impl FnMut(usize, u32, u32, E)) {
        for e in edges {
            let sp = self.partition(e.src);
            let d = self.parts[self.partition(e.dst)];
            let dst = e.dst - d.start;
            let b = d.base + sp * d.n_batches + d.batch(dst);
            f(b, (e.src - self.parts[sp].start) as u32, dst as u32, e.data);
        }
    }

    /// Edges of `edges` per bucket.
    fn count<E: Pod>(&self, edges: &[Edge<E>]) -> Vec<usize> {
        let mut counts = vec![0; self.n_buckets];
        self.route(edges, |b, _, _, _| counts[b] += 1);
        counts
    }

    /// Fills exact-size buckets, each slice its own run of each bucket at
    /// the prefix sum of the slices before it: a bucket holds its edges in
    /// input order, whatever the slice count.
    fn scatter<E: Pod>(&self, slices: &[&[Edge<E>]], counts: &[Vec<usize>]) -> Vec<Bucket<E>> {
        let mut buckets: Vec<Bucket<E>> = (0..self.n_buckets)
            .map(|b| {
                let n = counts.iter().map(|c| c[b]).sum();
                Bucket { src: vec![0; n], dst: vec![0; n], data: vec![pod_zeroed(); n] }
            })
            .collect();
        let mut runs: Vec<Vec<Run<E>>> = slices.iter().map(|_| Vec::new()).collect();
        for (b, bucket) in buckets.iter_mut().enumerate() {
            let mut rest: Run<E> = (&mut bucket.src, &mut bucket.dst, &mut bucket.data);
            for (slice_runs, c) in runs.iter_mut().zip(counts) {
                let (s, d, x) = std::mem::take(&mut rest);
                let ((s, s_rest), (d, d_rest), (x, x_rest)) =
                    (s.split_at_mut(c[b]), d.split_at_mut(c[b]), x.split_at_mut(c[b]));
                slice_runs.push((s, d, x));
                rest = (s_rest, d_rest, x_rest);
            }
        }
        slices.par_iter().zip(runs).for_each(|(edges, mut runs)| {
            let mut at = vec![0; runs.len()];
            self.route(edges, |b, s, d, x| {
                let (i, run) = (at[b], &mut runs[b]);
                (run.0[i], run.1[i], run.2[i]) = (s, d, x);
                at[b] += 1;
            });
        });
        buckets
    }
}

/// The inventory entry of a chunk or dispatching graph.
fn chunk_info<E: Pod + PartialEq>(
    chunk: &IndexedChunk<E>,
    src_partition: usize,
    batch: usize,
) -> ChunkInfo {
    ChunkInfo {
        src_partition,
        batch,
        n_edges: chunk.n_edges(),
        n_nonzero_src: chunk.n_nonzero_src(),
        has_csr: chunk.has_csr(),
    }
}

/// Builds and persists one chunk; returns its entry and its sources.
fn build_chunk<E: Pod + PartialEq>(
    key @ (_, sp, b): Key,
    bucket: Bucket<E>,
    disk: &NodeDisk,
    cfg: &EngineConfig,
    plan: &Plan,
) -> Result<(Key, ChunkInfo, Vec<u32>)> {
    let n_src = plan.partitions[sp].len() as u32;
    let edges =
        bucket.src.iter().zip(&bucket.dst).zip(&bucket.data).map(|((&s, &d), &x)| (s, d, x));
    let mut chunk = IndexedChunk::by_source(n_src, edges, CSR_INFLATE_RATIO, by_dst);
    drop(bucket);
    let mut w = disk.create_framed(&paths::chunk(sp, b), cfg.compress_chunks)?;
    chunk.write_to(&mut w)?;
    w.finish()?.finish()?;
    let info = chunk_info(&chunk, sp, b);
    Ok((key, info, std::mem::take(&mut chunk.dcsr_src)))
}

/// Persists node `dp`'s dispatching graph from partition `sp`, built from
/// its chunks' `(batch, sources)`, and the filter list `L_{sp,dp}` — the
/// graph's sources — on node `sp`; returns the graph's entry and the
/// list's length.
fn dispatch_and_filter(
    dp: usize,
    sp: usize,
    sources: &[(u32, Vec<u32>)],
    disks: &[NodeDisk],
    cfg: &EngineConfig,
    plan: &Plan,
) -> Result<(Option<ChunkInfo>, u64)> {
    let (mut entry, mut list) = (None, Vec::new());
    if !sources.is_empty() {
        // a source's batches, ascending: the chunks come in batch order
        let edges = sources.iter().flat_map(|(b, src)| src.iter().map(|&s| (s, *b, ())));
        let n_src = plan.partitions[sp].len() as u32;
        let dg = IndexedChunk::by_source(n_src, edges, CSR_INFLATE_RATIO, |_| {});
        let mut w = disks[dp].create_framed(&paths::dispatch(sp), cfg.compress_chunks)?;
        dg.write_to(&mut w)?;
        w.finish()?.finish()?;
        entry = Some(chunk_info(&dg, sp, usize::MAX));
        list = dg.dcsr_src;
    }
    write_filter_list(&disks[sp], &paths::filter(dp), &list, cfg.compress_chunks)?;
    Ok((entry, list.len() as u64))
}

/// Orders one source's run of a chunk bucket by `dst` — stably, so
/// duplicate edges keep the order they came in: the chunk a `(src, dst)`
/// sort of the bucket would give.
fn by_dst<E: Pod>(run: &mut [(u32, E)]) {
    run.sort_by_key(|&(d, _)| d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::IndexedChunk;
    use crate::filter::read_filter_list;
    use dfo_graph::edge::Edge;
    use tempfile::TempDir;

    /// The paper's running example (Figure 1a): 7 vertices, 9 edges with
    /// letter data, partitioned 2 ways with batch size 2.
    fn figure1_graph() -> EdgeList<u8> {
        EdgeList::new(
            7,
            vec![
                Edge::new(0, 5, b'B'),
                Edge::new(0, 6, b'A'),
                Edge::new(1, 2, b'A'),
                Edge::new(2, 4, b'D'),
                Edge::new(2, 5, b'C'),
                Edge::new(4, 3, b'C'),
                Edge::new(5, 0, b'D'),
                Edge::new(5, 4, b'A'),
                Edge::new(6, 5, b'B'),
            ],
        )
    }

    fn figure1_config() -> EngineConfig {
        let mut cfg = EngineConfig::for_test(2);
        cfg.batch_policy = dfo_types::BatchPolicy::FixedVertices(2);
        // force the Figure 1b split (0..4 | 4..7) regardless of degrees
        cfg.alpha = Some(1_000_000);
        cfg
    }

    fn disks(p: usize) -> (TempDir, Vec<NodeDisk>) {
        let td = TempDir::new().unwrap();
        let ds = (0..p)
            .map(|i| NodeDisk::new(td.path().join(format!("n{i}")), None, false).unwrap())
            .collect();
        (td, ds)
    }

    #[test]
    fn figure1_partitioning_and_chunks() {
        let g = figure1_graph();
        let cfg = figure1_config();
        let (_td, ds) = disks(2);
        let out = preprocess(&g, &cfg, &ds).unwrap();
        let plan = &out.plan;
        // huge alpha balances on vertex counts: 4 | 3 split as in Figure 1b
        assert_eq!(plan.partitions[0], dfo_types::VertexRange::new(0, 4));
        assert_eq!(plan.partitions[1], dfo_types::VertexRange::new(4, 7));

        // the circled chunk of Figure 1b: edges from partition 0 to batch 2
        // (= node 1, local batch 0): 0→5 B, 2→4 D, 2→5 C
        let mut r = ds[1].open_framed(&paths::chunk(0, 0)).unwrap();
        let chunk = IndexedChunk::<u8>::read_from(&mut r, None).unwrap();
        assert_eq!(chunk.dcsr_src, vec![0, 2]);
        assert_eq!(chunk.dcsr_idx, vec![0, 1, 3]);
        // dst stored local to node 1's partition (4..7): 5→1, 4→0
        let got: Vec<(u32, u32, u8)> = chunk.iter().map(|(s, d, &x)| (s, d, x)).collect();
        assert_eq!(got, vec![(0, 1, b'B'), (2, 0, b'D'), (2, 1, b'C')]);
    }

    #[test]
    fn figure1_dispatch_graph() {
        let g = figure1_graph();
        let cfg = figure1_config();
        let (_td, ds) = disks(2);
        preprocess(&g, &cfg, &ds).unwrap();
        // Figure 1e: dispatching graph node 0 -> node 1:
        // 0→batch2, 0→batch3, 2→batch2 (batches local: 0 and 1)
        let mut r = ds[1].open_framed(&paths::dispatch(0)).unwrap();
        let dg = IndexedChunk::<()>::read_from(&mut r, None).unwrap();
        let got: Vec<(u32, u32)> = dg.iter().map(|(s, b, _)| (s, b)).collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (2, 0)]);
    }

    #[test]
    fn figure1_filter_lists() {
        let g = figure1_graph();
        let cfg = figure1_config();
        let (_td, ds) = disks(2);
        let out = preprocess(&g, &cfg, &ds).unwrap();
        // Figure 3: the filtering list to node 1 is {0, 2} — vertex 1 and 3
        // have no outgoing edges into partition 1
        let l01 = read_filter_list(&ds[0], &paths::filter(1), 2).unwrap();
        assert_eq!(l01, vec![0, 2]);
        assert_eq!(out.plan.node_meta[0].filter_lens[1], 2);
        // node 1 -> node 0: 4→3 and 5→0 cross into partition 0; locals of
        // vertices 4 and 5 are 0 and 1
        let l10 = read_filter_list(&ds[1], &paths::filter(0), 2).unwrap();
        assert_eq!(l10, vec![0, 1]);
    }

    #[test]
    fn edge_conservation_across_chunks() {
        let g = figure1_graph();
        let cfg = figure1_config();
        let (_td, ds) = disks(2);
        let out = preprocess(&g, &cfg, &ds).unwrap();
        let total: u64 =
            out.plan.node_meta.iter().flat_map(|m| m.chunks.iter()).map(|c| c.n_edges).sum();
        assert_eq!(total, g.n_edges());
        // in-edge counts add up too
        let in_total: u64 = out.plan.node_meta.iter().map(|m| m.n_in_edges).sum();
        assert_eq!(in_total, g.n_edges());
        let out_total: u64 = out.plan.node_meta.iter().map(|m| m.n_out_edges).sum();
        assert_eq!(out_total, g.n_edges());
    }

    #[test]
    fn no_batching_mode_single_batch_per_partition() {
        let g = figure1_graph();
        let mut cfg = figure1_config();
        cfg.batching_enabled = false;
        let (_td, ds) = disks(2);
        let out = preprocess(&g, &cfg, &ds).unwrap();
        assert_eq!(out.plan.n_batches(0), 1);
        assert_eq!(out.plan.n_batches(1), 1);
    }

    /// A graph big enough for LZ4 to bite: same decoded chunks either way,
    /// strictly smaller files and physical write bytes with compression on.
    #[test]
    fn compression_shrinks_chunk_files_and_decodes_identically() {
        let edges: Vec<Edge<u8>> = (0..30_000u32)
            .map(|i| Edge::new((i / 8) as u64, ((i * 7) % 2048) as u64, (i % 11) as u8))
            .collect();
        let g = EdgeList::new(4096, edges);
        let mut cfg_on = EngineConfig::for_test(2);
        cfg_on.batch_policy = dfo_types::BatchPolicy::FixedVertices(512);
        let mut cfg_off = cfg_on.clone();
        cfg_off.compress_chunks = false;
        let (_td_on, ds_on) = disks(2);
        let (_td_off, ds_off) = disks(2);
        let plan_on = preprocess(&g, &cfg_on, &ds_on).unwrap().plan;
        let plan_off = preprocess(&g, &cfg_off, &ds_off).unwrap().plan;

        let mut compressed_chunk_bytes = 0u64;
        let mut raw_chunk_bytes = 0u64;
        for (i, meta) in plan_on.node_meta.iter().enumerate() {
            for c in &meta.chunks {
                let rel = paths::chunk(c.src_partition, c.batch);
                compressed_chunk_bytes += ds_on[i].len(&rel).unwrap();
                raw_chunk_bytes += ds_off[i].len(&rel).unwrap();
                let mut r_on = ds_on[i].open_framed(&rel).unwrap();
                let mut r_off = ds_off[i].open_framed(&rel).unwrap();
                assert_eq!(
                    IndexedChunk::<u8>::read_from(&mut r_on, None).unwrap(),
                    IndexedChunk::<u8>::read_from(&mut r_off, None).unwrap(),
                    "chunk {rel} must decode identically"
                );
            }
        }
        assert!(
            compressed_chunk_bytes < raw_chunk_bytes,
            "compressed chunks {compressed_chunk_bytes} vs raw {raw_chunk_bytes}"
        );
        assert!(
            ds_on[0].stats().write_bytes.get() < ds_off[0].stats().write_bytes.get(),
            "physical preprocessing writes must shrink"
        );
        // logical writes (pre-compression payload) match the raw layout's
        // physical writes exactly — the accounting split must not leak
        assert_eq!(
            ds_on[0].stats().logical_write_bytes.get(),
            ds_off[0].stats().write_bytes.get(),
            "compressed run's logical writes must equal the raw run's physical writes"
        );
        assert_eq!(plan_on.n_batches(0), plan_off.n_batches(0));
    }

    /// The counting passes give the chunk a `(src, dst)` sort gives, down
    /// to the order of duplicate edges with different payloads.
    #[test]
    fn buckets_are_ordered_like_a_stable_src_dst_sort() {
        let mut x = 7u32;
        let mut next = || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            x >> 16
        };
        let bucket: Vec<(u32, u32, u16)> =
            (0..5_000).map(|_| (next() % 300, next() % 40, next() as u16)).collect();
        let mut sorted = bucket.clone();
        sorted.sort_by_key(|&(s, d, _)| (s, d));
        let want = IndexedChunk::build(1_000, &sorted, CSR_INFLATE_RATIO);
        assert!(want.dst.windows(2).any(|w| w[0] == w[1]), "duplicates are exercised");
        let got = IndexedChunk::by_source(1_000, bucket.into_iter(), CSR_INFLATE_RATIO, by_dst);
        assert_eq!(got, want);
    }

    /// The multiply-shift batch index is the quotient, at the edges of every
    /// batch and at the largest local id.
    #[test]
    fn batch_index_is_the_exact_quotient() {
        let sizes = (1..=300).chain([4_095, 65_536, 300_000, 1 << 30, (1 << 31) - 1, 1 << 31]);
        for size in sizes {
            let part = Part::new(0, 0, 0, size);
            let locals = (0..4u64).flat_map(|k| [k * size, (k + 1) * size - 1]);
            for local in locals.chain([(1 << 31) - 1]).filter(|&l| l < 1 << 31) {
                assert_eq!(part.batch(local) as u64, local / size, "{local} / {size}");
            }
        }
    }

    #[test]
    fn single_node_degenerates_gracefully() {
        let g = figure1_graph();
        let mut cfg = EngineConfig::for_test(1);
        cfg.batch_policy = dfo_types::BatchPolicy::FixedVertices(3);
        let (_td, ds) = disks(1);
        let out = preprocess(&g, &cfg, &ds).unwrap();
        assert_eq!(out.plan.nodes(), 1);
        assert_eq!(out.plan.n_batches(0), 3); // 7 vertices / 3 = 3 batches
        let total: u64 = out.plan.node_meta[0].chunks.iter().map(|c| c.n_edges).sum();
        assert_eq!(total, 9);
    }
}
