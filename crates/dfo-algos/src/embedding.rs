//! Embedding propagation: vector-valued vertex data.
//!
//! The paper's introduction (§1.1) argues fully-out-of-core processing is
//! essential precisely because "machine-learning related graph algorithms,
//! such as node2vec, require the data on each vertex to be vectors" —
//! vertex data can rival or exceed edge data in size. This workload
//! exercises that regime: each vertex carries a `[f32; D]` embedding and
//! every iteration mean-aggregates its in-neighbours' embeddings (the
//! message-passing core of GNN-style feature propagation).

use crate::degree::out_degree_array;
use dfo_core::{NodeCtx, VertexArray};
use dfo_types::Result;

/// Embedding dimension; 16 floats = 64 bytes per vertex, 8× the edge data.
pub const DIM: usize = 16;
pub type Embedding = [f32; DIM];

/// Runs `iters` rounds of mean-neighbour aggregation with self-mixing
/// factor `alpha` (`new = alpha·own + (1−alpha)·mean(in-neighbours)`).
/// Embeddings start from a deterministic per-vertex hash so results are
/// reproducible. Returns the embedding array.
pub fn embedding_propagation(
    ctx: &mut NodeCtx,
    iters: usize,
    alpha: f32,
) -> Result<VertexArray<Embedding>> {
    let emb = ctx.vertex_array::<Embedding>("emb")?;
    let acc = ctx.vertex_array::<Embedding>("emb_acc")?;
    let cnt = ctx.vertex_array::<u32>("emb_cnt")?;
    let deg = out_degree_array(ctx)?;

    {
        let e = emb.clone();
        ctx.process_vertices(&["emb"], None, move |v, c| {
            c.set(&e, v, seed_embedding(v));
            0u64
        })?;
    }
    for _ in 0..iters {
        {
            let (a, k) = (acc.clone(), cnt.clone());
            ctx.process_vertices(&["emb_acc", "emb_cnt"], None, move |v, c| {
                c.set(&a, v, [0.0; DIM]);
                c.set(&k, v, 0);
                0u64
            })?;
        }
        {
            let (e, d) = (emb.clone(), deg.clone());
            let (a, k) = (acc.clone(), cnt.clone());
            ctx.process_edges(
                &["emb", "pr_deg"],
                &["emb_acc", "emb_cnt"],
                None,
                move |v, c| {
                    if c.get(&d, v) == 0 {
                        return None;
                    }
                    Some(c.get(&e, v))
                },
                move |msg: Embedding, _s, dst, _ed: &(), c| {
                    c.update(&a, dst, |mut cur| {
                        for (x, m) in cur.iter_mut().zip(msg.iter()) {
                            *x += m;
                        }
                        cur
                    });
                    c.update(&k, dst, |n| n + 1);
                    1u64
                },
            )?;
        }
        {
            let (e, a, k) = (emb.clone(), acc.clone(), cnt.clone());
            ctx.process_vertices(&["emb", "emb_acc", "emb_cnt"], None, move |v, c| {
                let n = c.get(&k, v);
                if n == 0 {
                    return 0u64;
                }
                let own = c.get(&e, v);
                let sum = c.get(&a, v);
                let mut new = [0.0f32; DIM];
                for i in 0..DIM {
                    new[i] = alpha * own[i] + (1.0 - alpha) * sum[i] / n as f32;
                }
                c.set(&e, v, new);
                1u64
            })?;
        }
    }
    Ok(emb)
}

/// Deterministic pseudo-random initial embedding of vertex `v`.
pub fn seed_embedding(v: u64) -> Embedding {
    let mut out = [0.0f32; DIM];
    let mut x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for slot in out.iter_mut() {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        *slot = ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
    out
}
