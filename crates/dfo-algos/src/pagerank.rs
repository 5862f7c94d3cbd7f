//! PageRank (paper §5.1: "each iteration scans the whole graph, and we
//! perform five iterations in each run").
//!
//! Standard damped formulation: every iteration each vertex pushes
//! `rank / out_degree` along its out-edges; new rank is
//! `(1−d)/|V| + d · Σ incoming`.

use crate::degree::out_degree_array;
use dfo_core::{NodeCtx, VertexArray};
use dfo_types::Result;

pub const DAMPING: f64 = 0.85;

/// Runs `iters` PageRank iterations; returns the rank array handle.
/// Ranks are maintained as probabilities (they sum to ~1 over the graph).
pub fn pagerank(ctx: &mut NodeCtx, iters: usize) -> Result<VertexArray<f64>> {
    let n = ctx.plan().n_vertices as f64;
    let rank = ctx.vertex_array::<f64>("pr_rank")?;
    let nextr = ctx.vertex_array::<f64>("pr_next")?;
    let deg = out_degree_array(ctx)?;

    // init: uniform distribution
    {
        let r = rank.clone();
        ctx.process_vertices(&["pr_rank"], None, move |v, c| {
            c.set(&r, v, 1.0 / n);
            0u64
        })?;
    }
    for _ in 0..iters {
        // clear accumulators
        {
            let nx = nextr.clone();
            ctx.process_vertices(&["pr_next"], None, move |v, c| {
                c.set(&nx, v, 0.0);
                0u64
            })?;
        }
        // push rank/deg along out-edges
        {
            let (r, d) = (rank.clone(), deg.clone());
            let nx = nextr.clone();
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
                    c.update(&nx, dst, |cur| cur + msg);
                    0u64
                },
            )?;
        }
        // apply damping
        {
            let (r, nx) = (rank.clone(), nextr.clone());
            ctx.process_vertices(&["pr_rank", "pr_next"], None, move |v, c| {
                let s = c.get(&nx, v);
                c.set(&r, v, (1.0 - DAMPING) / n + DAMPING * s);
                0u64
            })?;
        }
    }
    Ok(rank)
}

/// Exact in-memory PageRank for verification (same dangling-mass handling:
/// dangling vertices simply leak rank, as the push formulation does).
pub fn pagerank_oracle(g: &dfo_graph::EdgeList<()>, iters: usize) -> Vec<f64> {
    let n = g.n_vertices as usize;
    let mut deg = vec![0u64; n];
    for e in &g.edges {
        deg[e.src as usize] += 1;
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let mut next = vec![0.0f64; n];
        for e in &g.edges {
            next[e.dst as usize] += rank[e.src as usize] / deg[e.src as usize] as f64;
        }
        for v in 0..n {
            rank[v] = (1.0 - DAMPING) / n as f64 + DAMPING * next[v];
        }
    }
    rank
}
