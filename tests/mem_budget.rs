//! Memory within `mem_budget` is invisible in results: with the
//! resident-block and message pools at their default share, and at a
//! `mem_budget` so small that both hold nothing (the fully-out-of-core
//! engine), every algorithm's output is bit-identical, the same messages
//! are generated and sent, and the only thing that changes is how many
//! bytes touch the disk.

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
    algo: impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync,
) -> (Outcome, u64) {
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(96);
    cfg.checkpointing = checkpointing;
    cfg.checkpoints_kept = 2;
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
    (out, disk_bytes)
}

fn bytes_of_local<T: Pod>(
    ctx: &mut NodeCtx,
    arr: &dfograph::core::VertexArray<T>,
) -> Result<Vec<u8>> {
    Ok(dfograph::types::slice_as_bytes(&read_local(ctx, arr)?).to_vec())
}

/// `{default pools, no pools} × {checkpointing off, on}` for one algorithm.
fn check_matrix<E: Pod + PartialEq>(
    name: &str,
    g: &EdgeList<E>,
    algo: impl Fn(&mut NodeCtx) -> Result<Vec<u8>> + Sync,
) {
    for checkpointing in [false, true] {
        let (resident, resident_bytes) = run(g, checkpointing, None, &algo);
        // mem_budget 1: a quarter and a sixteenth of it are both 0 bytes
        let (spilled, spilled_bytes) = run(g, checkpointing, Some(1), &algo);
        assert!(resident.messages_generated > 0, "{name}: the job moved no messages");
        assert_eq!(resident, spilled, "{name}, checkpointing {checkpointing}");
        assert!(
            resident_bytes < spilled_bytes,
            "{name}, checkpointing {checkpointing}: {resident_bytes} bytes with the pools, \
             {spilled_bytes} without"
        );
    }
}

#[test]
fn pagerank_is_bit_identical_with_and_without_the_pools() {
    let g = rmat(GenConfig::new(10, 8, 77));
    check_matrix("pagerank", &g, |ctx| {
        let ranks = pagerank(ctx, 4)?;
        bytes_of_local(ctx, &ranks)
    });
}

#[test]
fn sssp_is_bit_identical_with_and_without_the_pools() {
    let g = rmat(GenConfig::new(10, 8, 78))
        .map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 9 + 1) as f32);
    check_matrix("sssp", &g, |ctx| {
        let dist = sssp(ctx, 0)?;
        bytes_of_local(ctx, &dist)
    });
}

#[test]
fn wcc_is_bit_identical_with_and_without_the_pools() {
    let g = symmetrize(&rmat(GenConfig::new(10, 4, 79)));
    check_matrix("wcc", &g, |ctx| {
        let labels = wcc(ctx)?;
        bytes_of_local(ctx, &labels)
    });
}
