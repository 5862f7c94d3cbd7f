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
use crate::plan::{ChunkInfo, NodeMeta, Plan};
use dfo_graph::degree::degrees;
use dfo_graph::edge::EdgeList;
use dfo_storage::NodeDisk;
use dfo_types::{DfoError, EngineConfig, Pod, Result, VertexRange};
use rayon::prelude::*;

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
pub fn preprocess<E: Pod + PartialEq>(
    g: &EdgeList<E>,
    cfg: &EngineConfig,
    disks: &[NodeDisk],
) -> Result<PreprocessOutput> {
    assert_eq!(disks.len(), cfg.nodes, "one disk per node");
    cfg.validate().map_err(DfoError::Config)?;
    let p = cfg.nodes;
    let (din, dout) = degrees(g);
    let partitions = partition_vertices(g.n_vertices, &din, &dout, p, cfg.effective_alpha());
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

    // --- group edges by (dst node, src partition, dst batch) ---------------
    let n_batches: Vec<usize> = (0..p).map(|i| plan.batches[i].len()).collect();
    let mut chunk_edges: Vec<ChunkBuckets<E>> =
        (0..p).map(|i| (0..p).map(|_| vec![Vec::new(); n_batches[i]]).collect()).collect();
    // filter bitsets: need[src_node][dst_node][src_local]
    let mut need: Vec<Vec<Vec<bool>>> = (0..p)
        .map(|i| (0..p).map(|_| vec![false; plan.partitions[i].len() as usize]).collect())
        .collect();
    let mut in_edges = vec![0u64; p];
    let mut out_edges = vec![0u64; p];

    for e in &g.edges {
        let sp = plan.partition_of(e.src);
        let dp = plan.partition_of(e.dst);
        let b = plan.batch_of(dp, e.dst);
        let src_local = plan.partitions[sp].local(e.src);
        let dst_local = plan.partitions[dp].local(e.dst);
        chunk_edges[dp][sp][b].push((src_local, dst_local, e.data));
        need[sp][dp][src_local as usize] = true;
        out_edges[sp] += 1;
        in_edges[dp] += 1;
    }

    // --- per destination node: chunks and dispatch graphs -------------------
    let metas: Vec<Result<NodeMeta>> = chunk_edges
        .into_par_iter()
        .zip(disks.par_iter())
        .map(|(by_src, disk)| build_node(by_src, disk, cfg, &plan))
        .collect();

    for (i, meta) in metas.into_iter().enumerate() {
        let mut meta = meta?;
        meta.n_in_edges = in_edges[i];
        meta.n_out_edges = out_edges[i];
        meta.filter_lens = vec![0; p];
        plan.node_meta[i] = meta;
    }

    // --- filter lists: stored on the *source* node ------------------------
    for i in 0..p {
        for (j, bits) in need[i].iter().enumerate() {
            let list: Vec<u32> =
                bits.iter().enumerate().filter(|(_, &b)| b).map(|(v, _)| v as u32).collect();
            plan.node_meta[i].filter_lens[j] = list.len() as u64;
            write_filter_list(&disks[i], &paths::filter(j), &list, cfg.compress_chunks)?;
        }
    }
    drop(need);

    // --- replicate the plan -------------------------------------------------
    for disk in disks {
        plan.store(disk)?;
    }
    Ok(PreprocessOutput { plan })
}

/// Local edges of one node, bucketed as `[src partition][dst batch]` lists
/// of `(src_local, dst_local, data)`.
type ChunkBuckets<E> = Vec<Vec<Vec<(u32, u32, E)>>>;

/// Builds and persists one node's chunks and dispatch graphs.
fn build_node<E: Pod + PartialEq>(
    by_src: ChunkBuckets<E>,
    disk: &NodeDisk,
    cfg: &EngineConfig,
    plan: &Plan,
) -> Result<NodeMeta> {
    let p = plan.nodes();
    let mut meta = NodeMeta {
        chunks: Vec::new(),
        dispatch: vec![None; p],
        filter_lens: vec![0; p],
        n_in_edges: 0,
        n_out_edges: 0,
    };
    for (sp, batches) in by_src.into_iter().enumerate() {
        let n_src = plan.partitions[sp].len() as u32;
        // each chunk's sources, in batch order
        let mut sources: Vec<(u32, Vec<u32>)> = Vec::new();
        for (b, edges) in batches.into_iter().enumerate() {
            if edges.is_empty() {
                continue;
            }
            let mut chunk =
                IndexedChunk::by_source(n_src, edges.iter().copied(), CSR_INFLATE_RATIO, by_dst);
            drop(edges);
            let mut w = disk.create_framed(&paths::chunk(sp, b), cfg.compress_chunks)?;
            chunk.write_to(&mut w)?;
            w.finish()?.finish()?;
            meta.chunks.push(ChunkInfo {
                src_partition: sp,
                batch: b,
                n_edges: chunk.n_edges(),
                n_nonzero_src: chunk.n_nonzero_src(),
                has_csr: chunk.has_csr(),
            });
            sources.push((b as u32, std::mem::take(&mut chunk.dcsr_src)));
        }
        if !sources.is_empty() {
            // a source's batches, ascending: the chunks come in batch order
            let edges = sources.iter().flat_map(|(b, src)| src.iter().map(|&s| (s, *b, ())));
            let dg = IndexedChunk::by_source(n_src, edges, CSR_INFLATE_RATIO, |_| {});
            let mut w = disk.create_framed(&paths::dispatch(sp), cfg.compress_chunks)?;
            dg.write_to(&mut w)?;
            w.finish()?.finish()?;
            meta.dispatch[sp] = Some(ChunkInfo {
                src_partition: sp,
                batch: usize::MAX,
                n_edges: dg.n_edges(),
                n_nonzero_src: dg.n_nonzero_src(),
                has_csr: dg.has_csr(),
            });
        }
    }
    Ok(meta)
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
