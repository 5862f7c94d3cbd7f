//! Memory within `mem_budget` is invisible in results: with the pool that
//! holds resident blocks, message chunks and filter lists at its default
//! size, at a size that holds some of the blocks, and at a `mem_budget` so
//! small that it holds nothing (the fully-out-of-core engine), every algorithm's output is
//! bit-identical, the same messages are generated and sent, and the only
//! thing that changes is how many bytes touch the disk. So is batching:
//! without it (the Table 6 ablation) arrays are pages of the partition,
//! checked out one at a time through a pool that holds some of them. A
//! second job on the same cluster reopens what the first left behind: the
//! blocks it held in memory reached their files when it ended.

use dfograph::algos::{pagerank, read_local, sssp, wcc, wcc::symmetrize};
use dfograph::core::{Cluster, NodeCtx};
use dfograph::graph::gen::{rmat, GenConfig};
use dfograph::graph::EdgeList;
use dfograph::types::{BatchPolicy, EngineConfig, Pod, Result};
use tempfile::TempDir;

/// What one configuration of one algorithm produced, over all ranks.
#[derive(Debug, PartialEq)]
struct Outcome {
    output: Vec<u8>,
    messages_generated: u64,
    messages_sent: u64,
}

fn run<E: Pod + PartialEq>(
    g: &EdgeList<E>,
    checkpointing: bool,
    mem_budget: Option<u64>,
    batching: bool,
    algo: impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync,
    reread: impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync,
) -> (Outcome, u64) {
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(96);
    cfg.checkpointing = checkpointing;
    cfg.batching_enabled = batching;
    if let Some(b) = mem_budget {
        cfg.mem_budget = b;
    }
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(g).unwrap();
    let per_rank = cluster
        .run(|ctx| {
            let before = ctx.disk().stats().total_bytes();
            let output = algo(ctx)?;
            let stats = ctx.job_phase_stats();
            let moved = ctx.disk().stats().total_bytes() - before;
            Ok((output, stats.messages_generated, stats.messages_sent, moved))
        })
        .unwrap();
    let mut out = Outcome { output: Vec::new(), messages_generated: 0, messages_sent: 0 };
    let mut disk_bytes = 0;
    for (output, generated, sent, moved) in per_rank {
        out.output.extend(output);
        out.messages_generated += generated;
        out.messages_sent += sent;
        disk_bytes += moved;
    }
    let again = cluster.run(reread).unwrap().concat();
    assert_eq!(again, out.output, "the next job reopens the result (budget {mem_budget:?})");
    (out, disk_bytes)
}

fn bytes_of_local<T: Pod>(
    ctx: &mut NodeCtx,
    arr: &dfograph::core::VertexArray<T>,
) -> Result<Vec<u8>> {
    Ok(dfograph::types::slice_as_bytes(&read_local(ctx, arr)?).to_vec())
}

/// Reopens the result array `name` of a finished job and reads it.
fn reread<T: Pod>(name: &'static str) -> impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync {
    move |ctx| {
        let arr = ctx.vertex_array::<T>(name)?;
        bytes_of_local(ctx, &arr)
    }
}

/// `{default pools, partial pools, no pools, no batching} × {checkpointing
/// off, on}` for one algorithm whose result is the array `reread` reads.
fn check_matrix<E: Pod + PartialEq>(
    name: &str,
    g: &EdgeList<E>,
    algo: impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync,
    reread: impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync,
) {
    for checkpointing in [false, true] {
        let (resident, resident_bytes) = run(g, checkpointing, None, true, &algo, &reread);
        // a 2 KiB pool holds some of a rank's blocks, not all, and no
        // message chunk
        let (partial, _) = run(g, checkpointing, Some(4 << 10), true, &algo, &reread);
        // mem_budget 1: half of it is 0 bytes
        let (spilled, spilled_bytes) = run(g, checkpointing, Some(1), true, &algo, &reread);
        // an 8 KiB pool holds two 4 KiB pages of a rank's three or more
        let (paged, _) = run(g, checkpointing, Some(16 << 10), false, &algo, &reread);
        assert!(resident.messages_generated > 0, "{name}: the job moved no messages");
        assert_eq!(resident, partial, "{name}, checkpointing {checkpointing}, partial pool");
        assert_eq!(resident, spilled, "{name}, checkpointing {checkpointing}");
        assert_eq!(resident, paged, "{name}, checkpointing {checkpointing}, no batching");
        assert!(
            resident_bytes < spilled_bytes,
            "{name}, checkpointing {checkpointing}: {resident_bytes} bytes with the pools, \
             {spilled_bytes} without"
        );
    }
}

#[test]
fn pagerank_is_bit_identical_with_and_without_the_pools() {
    let g = rmat(GenConfig::new(12, 8, 77));
    let algo = |ctx: &mut NodeCtx| {
        let ranks = pagerank(ctx, 4)?;
        bytes_of_local(ctx, &ranks)
    };
    check_matrix("pagerank", &g, algo, reread::<f64>("pr_rank"));
}

#[test]
fn sssp_is_bit_identical_with_and_without_the_pools() {
    let g = rmat(GenConfig::new(12, 8, 78))
        .map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 9 + 1) as f32);
    let algo = |ctx: &mut NodeCtx| {
        let dist = sssp(ctx, 0)?;
        bytes_of_local(ctx, &dist)
    };
    check_matrix("sssp", &g, algo, reread::<f32>("sssp_dist"));
}

#[test]
fn wcc_is_bit_identical_with_and_without_the_pools() {
    let g = symmetrize(&rmat(GenConfig::new(12, 4, 79)));
    let algo = |ctx: &mut NodeCtx| {
        let labels = wcc(ctx)?;
        bytes_of_local(ctx, &labels)
    };
    check_matrix("wcc", &g, algo, reread::<u64>("wcc_label"));
}
