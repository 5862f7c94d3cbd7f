//! Table 6 — importance of intra-node batching: one PageRank iteration with
//! batching enabled/disabled under sufficient and insufficient memory.
//!
//! Expected shape (paper, KRON-34 on 4 nodes): without batching and with
//! memory short of the vertex data, random page traffic makes the run more
//! than 15× slower; with ample memory batching costs only ~8 % overhead.
//! Each arm prints its disk bytes next to its time; the byte ratio is exact
//! for a given graph, so the insufficient-memory row asserts it is ≥ 15×.

use dfo_bench::{describe, fmt_bytes, fmt_secs, rmat_like, timed};
use dfo_core::Cluster;
use dfo_types::BatchPolicy;
use tempfile::TempDir;

const P: usize = 2;

/// Wall time and cluster-wide disk bytes (read + write) of one iteration.
fn run_one(
    g: &dfo_graph::EdgeList<()>,
    batching: bool,
    mem: u64,
    dir: &std::path::Path,
) -> (f64, u64) {
    let mut cfg = dfo_bench::dfo_config(P);
    cfg.batching_enabled = batching;
    cfg.mem_budget = mem;
    cfg.batch_policy = BatchPolicy::FullyOutOfCore { widest_vertex_bytes: 8 };
    cfg.disk_bw = Some(256 << 20);
    cfg.net_bw = Some(256 << 20);
    let cluster = Cluster::create(cfg, dir).unwrap();
    cluster.preprocess(g).unwrap();
    let disk_bytes = || cluster.disks().iter().map(|d| d.stats().total_bytes()).sum::<u64>();
    let before = disk_bytes();
    let (_, t) = timed(|| {
        cluster
            .run(|ctx| {
                dfo_algos::pagerank(ctx, 1)?;
                Ok(0u64)
            })
            .unwrap()
    });
    (t, disk_bytes() - before)
}

fn main() {
    let g = rmat_like();
    println!("=== Table 6: intra-node batching ablation (P={P}, 1 PR iteration) ===");
    println!("{}", describe("RMAT-like", &g));
    let vertex_bytes = g.n_vertices / P as u64 * 8 * 3; // three f64/u64 arrays
    let low_mem = (vertex_bytes / 8).max(64 << 10); // well below vertex data
    let high_mem = 512u64 << 20;
    println!(
        "vertex data per node ≈ {}, low budget {}, high budget {}",
        fmt_bytes(vertex_bytes),
        fmt_bytes(low_mem),
        fmt_bytes(high_mem)
    );
    let td = TempDir::new().unwrap();

    println!(
        "\n{:<14} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "memory/node", "no-b time", "no-b disk", "b time", "b disk", "speedup", "bytes ×"
    );
    for (label, mem) in [("insufficient", low_mem), ("sufficient", high_mem)] {
        let (no_b, no_b_bytes) = run_one(&g, false, mem, &td.path().join(format!("nb_{label}")));
        let (with_b, with_b_bytes) = run_one(&g, true, mem, &td.path().join(format!("b_{label}")));
        let byte_ratio = no_b_bytes as f64 / with_b_bytes.max(1) as f64;
        println!(
            "{label:<14} {:>10} {:>10} {:>10} {:>10} {:>8.2}x {:>8.2}x",
            fmt_secs(no_b),
            fmt_bytes(no_b_bytes),
            fmt_secs(with_b),
            fmt_bytes(with_b_bytes),
            no_b / with_b,
            byte_ratio
        );
        if label == "insufficient" {
            assert!(
                byte_ratio >= 15.0,
                "without batching and short of memory, page traffic must move ≥ 15× the disk \
                 bytes of batching: {no_b_bytes} vs {with_b_bytes}"
            );
        }
    }
    println!("(paper: >15.48x with insufficient memory, 0.92x with sufficient)");
}
