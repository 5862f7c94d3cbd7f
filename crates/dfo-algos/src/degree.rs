//! Out-degree materialization.
//!
//! PageRank divides each vertex's rank by its out-degree. In the original
//! system out-degrees are a preprocessing by-product (the partitioner
//! already counted them); this module reconstructs them the same way: each
//! node reads the DCSR indices of its edge chunks — positioned reads of the
//! header and the two index columns, none of the edges — counts
//! `idx[i+1] − idx[i]` edges per listed source and ships the per-source
//! counts to the source's owning partition with one all-to-all exchange.

use dfo_core::{NodeCtx, VertexArray};
use dfo_part::csr::read_dcsr_index;
use dfo_part::preprocess::paths;
use dfo_types::{DfoError, Result};

/// Materializes each vertex's out-degree into the `"pr_deg"` array.
pub fn out_degree_array(ctx: &mut NodeCtx) -> Result<VertexArray<u64>> {
    let deg = ctx.vertex_array::<u64>("pr_deg")?;
    let rank = ctx.rank();
    let p = ctx.nodes();
    let my_range = ctx.plan().partitions[rank];

    // per source partition: counts of edges stored on THIS node
    let mut per_target: Vec<Vec<u64>> =
        (0..p).map(|t| vec![0u64; ctx.plan().partitions[t].len() as usize]).collect();
    let edge_bytes = ctx.plan().edge_data_bytes as usize;
    for c in &ctx.plan().node_meta[rank].chunks {
        let rel = paths::chunk(c.src_partition, c.batch);
        let (srcs, idx) = read_dcsr_index(ctx.disk(), &rel, edge_bytes)?;
        let target = &mut per_target[c.src_partition];
        for (i, &s) in srcs.iter().enumerate() {
            target[s as usize] += idx[i + 1] - idx[i];
        }
    }

    // ship counts home and sum contributions from every node
    let incoming = ctx.exchange(per_target)?;
    let mut counts = vec![0u64; my_range.len() as usize];
    for vec in incoming {
        if vec.is_empty() {
            continue;
        }
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
    ctx.process_vertices(&["pr_deg"], None, move |v, c| {
        c.set(&h, v, counts[(v - start) as usize]);
        0u64
    })?;
    Ok(deg)
}
