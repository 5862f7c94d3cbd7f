//! HybridGraph-like distributed semi-out-of-core Pregel engine (Wang et
//! al., SIGMOD'16).
//!
//! Mechanisms reproduced:
//!
//! 1. **Semi-out-of-core assumption**: vertex values (and activity) live in
//!    memory; only edges stream from disk. The original also assumes
//!    `|V| < 2³¹` — we reproduce that limit as a hard error, which is what
//!    made it crash on RMAT-32/KRON-38 in Table 5 ("R*").
//! 2. **Memory-bounded message combining**: outgoing messages are combined
//!    per destination in an in-memory table capped by the memory budget;
//!    when the table fills it is flushed uncombined-from-then-on — the
//!    §1.2 observation that "for massive graphs far beyond the memory
//!    capacity, the reduction would be much less effective".
//! 3. **Per-vertex edge access on disk** (VE-block style): sparse
//!    iterations read only active vertices' adjacency, so HybridGraph is
//!    not as pathological as Chaos on BFS — but it pays combiner misses in
//!    network bytes instead.

use crate::runtime::{BaselineCluster, BaselineNode};
use crate::spec::{PagerankRounds, PushSpec};
use dfo_types::{bytes_of, pod_from_bytes, DfoError, Pod, Result, VertexRange};
use std::collections::HashMap;
use std::io::Write;

pub struct HybridGraphEngine<E: Pod> {
    pub cluster: BaselineCluster,
    n_vertices: u64,
    ranges: Vec<VertexRange>,
    /// Max entries of the per-node combiner table.
    combiner_capacity: usize,
    _marker: std::marker::PhantomData<E>,
}

impl<E: Pod> HybridGraphEngine<E> {
    /// Preprocesses into per-node on-disk CSR over the owned source range.
    /// `mem_budget` bounds vertex state and the message combiner.
    pub fn preprocess(
        cluster: BaselineCluster,
        g: &dfo_graph::EdgeList<E>,
        mem_budget: u64,
    ) -> Result<Self> {
        if g.n_vertices >= (1u64 << 31) {
            return Err(DfoError::Config(
                "HybridGraph assumes |V| < 2^31 (the original crashes here, Table 5 'R*')".into(),
            ));
        }
        let p = cluster.nodes();
        let per = g.n_vertices.div_ceil(p as u64).max(1);
        let ranges: Vec<VertexRange> = (0..p as u64)
            .map(|i| {
                VertexRange::new((i * per).min(g.n_vertices), ((i + 1) * per).min(g.n_vertices))
            })
            .collect();
        // vertex state must fit: value (8) + active (1) + index (8) per vertex
        let per_node_vertices = per;
        if per_node_vertices * 17 > mem_budget {
            return Err(DfoError::Config(format!(
                "HybridGraph semi-out-of-core assumption violated: {} vertices/node need {} B",
                per_node_vertices,
                per_node_vertices * 17
            )));
        }
        let combiner_capacity = ((mem_budget / 2) as usize / 16).max(16);

        let mut edges: Vec<_> = g.edges.iter().collect();
        edges.sort_unstable_by_key(|e| (e.src, e.dst));
        let rec = 8 + std::mem::size_of::<E>();
        for (i, range) in ranges.iter().enumerate() {
            let mut index = Vec::with_capacity(range.len() as usize + 1);
            let mut body: Vec<u8> = Vec::new();
            let lo = edges.partition_point(|e| e.src < range.start);
            let mut cursor = lo;
            for v in range.iter() {
                index.push(body.len() as u64);
                while cursor < edges.len() && edges[cursor].src == v {
                    body.extend_from_slice(&edges[cursor].dst.to_le_bytes());
                    body.extend_from_slice(bytes_of(&edges[cursor].data));
                    cursor += 1;
                }
            }
            index.push(body.len() as u64);
            let mut w = cluster.disks()[i].create("hybrid/adj.bin")?;
            w.write_all(&body).map_err(|e| DfoError::io("hybrid adjacency", e))?;
            w.finish()?;
            let mut w = cluster.disks()[i].create("hybrid/index.bin")?;
            w.write_all(dfo_types::slice_as_bytes(&index))
                .map_err(|e| DfoError::io("hybrid index", e))?;
            w.finish()?;
            let _ = rec;
        }
        Ok(Self {
            cluster,
            n_vertices: g.n_vertices,
            ranges,
            combiner_capacity,
            _marker: std::marker::PhantomData,
        })
    }

    fn owner_of(&self, v: u64) -> usize {
        let per = self.ranges[0].len().max(1);
        ((v / per) as usize).min(self.ranges.len() - 1)
    }

    /// One push superstep with bounded combining; `combine` merges two
    /// messages for the same destination (min for BFS/WCC/SSSP, add for
    /// PR). Returns cluster-wide updates.
    #[allow(clippy::too_many_arguments)]
    fn superstep<SS: Pod, DS: Pod, M: Pod>(
        &self,
        node: &BaselineNode,
        signal: &(dyn Fn(&SS) -> M + Sync),
        slot: &(dyn Fn(&mut DS, M, &E) -> bool + Sync),
        combine: &(dyn Fn(M, M) -> M + Sync),
        src_state: &[SS],
        src_active: &[bool],
        dst_state: &mut [DS],
        next_active: &mut [bool],
    ) -> Result<u64> {
        // combining only works for data-independent edges (E = ()); for
        // weighted graphs the weight is folded into the message by signal
        // running per-edge. To stay general we combine (dst, data) pairs
        // only when E is zero-sized; otherwise messages pass uncombined
        // (matching how Pregel combiners are declared per message type).
        let p = self.cluster.nodes();
        let range = self.ranges[node.rank];
        let index: Vec<u64> =
            dfo_types::vec_from_bytes(&node.disk.read_to_vec("hybrid/index.bin")?);
        let adj = node.disk.open_random("hybrid/adj.bin")?;
        let rec = 8 + std::mem::size_of::<E>();
        let combinable = std::mem::size_of::<E>() == 0;

        let mut combiner: HashMap<u64, M> = HashMap::new();
        let mut overflow: Vec<Vec<u8>> = vec![Vec::new(); p]; // uncombined spills
        let upd = 8 + std::mem::size_of::<M>() + std::mem::size_of::<E>();

        for v in range.iter() {
            let i = (v - range.start) as usize;
            if !src_active[i] {
                continue;
            }
            let (s, e) = (index[i], index[i + 1]);
            if s == e {
                continue;
            }
            let mut buf = vec![0u8; (e - s) as usize];
            adj.read_at(&mut buf, s)?;
            let msg = signal(&src_state[i]);
            let mut off = 0;
            while off + rec <= buf.len() {
                let dst = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                let data: E = if std::mem::size_of::<E>() > 0 {
                    pod_from_bytes(&buf[off + 8..off + rec])
                } else {
                    dfo_types::pod::pod_zeroed()
                };
                off += rec;
                if combinable
                    && (combiner.len() < self.combiner_capacity || combiner.contains_key(&dst))
                {
                    combiner.entry(dst).and_modify(|m| *m = combine(*m, msg)).or_insert(msg);
                } else {
                    // combiner full (or weighted edges): ship uncombined
                    let o = &mut overflow[self.owner_of(dst)];
                    o.extend_from_slice(&dst.to_le_bytes());
                    o.extend_from_slice(bytes_of(&msg));
                    o.extend_from_slice(bytes_of(&data));
                }
            }
        }
        // flush combiner into the outgoing buffers
        let mut out = overflow;
        for (dst, msg) in combiner {
            let o = &mut out[self.owner_of(dst)];
            o.extend_from_slice(&dst.to_le_bytes());
            o.extend_from_slice(bytes_of(&msg));
            o.extend_from_slice(bytes_of(&dfo_types::pod::pod_zeroed::<E>()));
        }

        let incoming = node.exchange(out)?;
        let mut changed = 0u64;
        for b in next_active.iter_mut() {
            *b = false;
        }
        for buf in incoming {
            let mut off = 0;
            while off + upd <= buf.len() {
                let dst = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                let msg: M = pod_from_bytes(&buf[off + 8..off + 8 + std::mem::size_of::<M>()]);
                let data: E = if std::mem::size_of::<E>() > 0 {
                    pod_from_bytes(&buf[off + 8 + std::mem::size_of::<M>()..off + upd])
                } else {
                    dfo_types::pod::pod_zeroed()
                };
                off += upd;
                let local = (dst - range.start) as usize;
                if slot(&mut dst_state[local], msg, &data) {
                    next_active[local] = true;
                    changed += 1;
                }
            }
        }
        node.net.try_allreduce_sum_u64(changed)
    }

    /// Active-set push to convergence with combiner `combine`.
    pub fn run_push<S: Pod, M: Pod>(
        &self,
        spec: &PushSpec<S, M, E>,
        combine: impl Fn(M, M) -> M + Sync,
    ) -> Result<(Vec<Vec<S>>, usize)> {
        let iters = std::sync::atomic::AtomicUsize::new(0);
        let states = self.cluster.run(|node| {
            let range = self.ranges[node.rank];
            let mut state: Vec<S> = Vec::with_capacity(range.len() as usize);
            let mut active = vec![false; range.len() as usize];
            for (i, v) in range.iter().enumerate() {
                let (s, a) = (spec.init)(v);
                state.push(s);
                active[i] = a;
            }
            let mut rounds = 0;
            loop {
                let snapshot = state.clone();
                let src_active = active.clone();
                let changed = self.superstep(
                    node,
                    &*spec.signal,
                    &*spec.slot,
                    &combine,
                    &snapshot,
                    &src_active,
                    &mut state,
                    &mut active,
                )?;
                rounds += 1;
                if changed == 0 {
                    break;
                }
            }
            iters.store(rounds, std::sync::atomic::Ordering::Relaxed);
            Ok(state)
        })?;
        Ok((states, iters.load(std::sync::atomic::Ordering::Relaxed)))
    }

    /// PageRank with sum-combining.
    pub fn pagerank(&self, pr: &PagerankRounds, out_deg: &[u64]) -> Result<Vec<Vec<f64>>> {
        let deg = std::sync::Arc::new(out_deg.to_vec());
        self.cluster.run(|node| {
            let range = self.ranges[node.rank];
            let n = self.n_vertices as f64;
            let local = range.len() as usize;
            let mut rank_v = vec![1.0 / n; local];
            let active = vec![true; local];
            for _ in 0..pr.iters {
                let contrib: Vec<f64> = (0..local)
                    .map(|i| {
                        let d = deg[range.start as usize + i];
                        if d == 0 {
                            0.0
                        } else {
                            rank_v[i] / d as f64
                        }
                    })
                    .collect();
                let mut acc = vec![0.0f64; local];
                let mut next_active = vec![false; local];
                self.superstep::<f64, f64, f64>(
                    node,
                    &|r| *r,
                    &|s, m, _| {
                        *s += m;
                        true
                    },
                    &|a, b| a + b,
                    &contrib,
                    &active,
                    &mut acc,
                    &mut next_active,
                )?;
                for i in 0..local {
                    rank_v[i] = (1.0 - pr.damping) / n + pr.damping * acc[i];
                }
            }
            Ok(rank_v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{bfs_spec, out_degrees, pagerank_rounds};
    use dfo_graph::gen::{rmat, GenConfig};
    use tempfile::TempDir;

    #[test]
    fn bfs_matches_gridgraph() {
        let g = rmat(GenConfig::new(8, 5, 21));
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path().join("h"), None, None, false).unwrap();
        let hg = HybridGraphEngine::preprocess(bc, &g, 1 << 30).unwrap();
        let (states, _) = hg.run_push(&bfs_spec(0), |a, b| a.min(b)).unwrap();
        let flat: Vec<u32> = states.into_iter().flatten().collect();

        let gd = dfo_storage::NodeDisk::new(td.path().join("g"), None, false).unwrap();
        let gg = crate::gridgraph::GridGraphEngine::preprocess(gd, &g, 4).unwrap();
        let (want, _) = gg.run_push(&bfs_spec(0)).unwrap();
        assert_eq!(flat, want);
    }

    #[test]
    fn pagerank_matches_oracle() {
        let g = rmat(GenConfig::new(7, 5, 31));
        let deg = out_degrees(&g);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        let hg = HybridGraphEngine::preprocess(bc, &g, 1 << 30).unwrap();
        let ranks: Vec<f64> =
            hg.pagerank(&pagerank_rounds(3), &deg).unwrap().into_iter().flatten().collect();
        let n = g.n_vertices as usize;
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..3 {
            let mut next = vec![0.0f64; n];
            for e in &g.edges {
                next[e.dst as usize] += rank[e.src as usize] / deg[e.src as usize] as f64;
            }
            for v in 0..n {
                rank[v] = 0.15 / n as f64 + 0.85 * next[v];
            }
        }
        for (a, b) in ranks.iter().zip(&rank) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_combiner_sends_more_bytes() {
        let g = rmat(GenConfig::new(9, 8, 3));
        let deg = out_degrees(&g);
        let td = TempDir::new().unwrap();

        let big = BaselineCluster::create(2, td.path().join("big"), None, None, false).unwrap();
        let hg_big = HybridGraphEngine::preprocess(big, &g, 1 << 30).unwrap();
        hg_big.pagerank(&pagerank_rounds(2), &deg).unwrap();
        let sent_big = hg_big.cluster.total_net_sent();

        let small = BaselineCluster::create(2, td.path().join("small"), None, None, false).unwrap();
        let mut hg_small = HybridGraphEngine::preprocess(small, &g, 1 << 30).unwrap();
        hg_small.combiner_capacity = 16; // memory-starved combiner
        hg_small.pagerank(&pagerank_rounds(2), &deg).unwrap();
        let sent_small = hg_small.cluster.total_net_sent();

        assert!(
            sent_small > sent_big * 2,
            "starved combiner must ship more bytes: {sent_small} vs {sent_big}"
        );
    }

    #[test]
    fn v31_limit_reproduced() {
        // fabricate a graph object claiming 2^31 vertices without edges
        let g = dfo_graph::EdgeList::<()>::new(1u64 << 31, vec![]);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        assert!(matches!(
            HybridGraphEngine::preprocess(bc, &g, u64::MAX),
            Err(DfoError::Config(_))
        ));
    }
}
