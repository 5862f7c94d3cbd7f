//! Gemini-like distributed **in-memory** engine (Zhu et al., OSDI'16) —
//! Table 5's upper bound: DFOGraph reaches ~21 % of its speed but handles
//! graphs Gemini cannot fit ("M" entries in the table).
//!
//! Mechanisms reproduced:
//!
//! 1. **Everything in memory**: adjacency (CSR) and vertex state; a memory
//!    check refuses graphs beyond the budget, like Gemini OOMs on RMAT-32.
//! 2. **Chunk-based contiguous partitioning** (Gemini's locality-aware
//!    partitioning is DFOGraph's direct ancestor).
//! 3. **Sender-side per-destination combining** — only one message per
//!    (source-partition, destination-vertex) pair crosses the wire, the
//!    dense-mode behaviour of Gemini's push.

use crate::runtime::{BaselineCluster, BaselineNode};
use crate::spec::{PagerankRounds, PushSpec};
use dfo_types::{bytes_of, pod_from_bytes, DfoError, Pod, Result, VertexRange};
use std::collections::HashMap;

pub struct GeminiEngine<E: Pod> {
    pub cluster: BaselineCluster,
    n_vertices: u64,
    ranges: Vec<VertexRange>,
    /// Per node: CSR over its owned source range (kept in memory).
    adj: Vec<AdjPart<E>>,
}

struct AdjPart<E> {
    index: Vec<u64>,
    dst: Vec<u64>,
    data: Vec<E>,
}

impl<E: Pod> GeminiEngine<E> {
    /// "Loads" the graph into per-node memory; errors if `mem_budget`
    /// per node cannot hold its partition (edges 16 B + state 16 B).
    pub fn load(
        cluster: BaselineCluster,
        g: &dfo_graph::EdgeList<E>,
        mem_budget: u64,
    ) -> Result<Self> {
        let p = cluster.nodes();
        let per = g.n_vertices.div_ceil(p as u64).max(1);
        let ranges: Vec<VertexRange> = (0..p as u64)
            .map(|i| {
                VertexRange::new((i * per).min(g.n_vertices), ((i + 1) * per).min(g.n_vertices))
            })
            .collect();
        let per_node_bytes = (g.n_edges() / p as u64) * 16 + per * 16;
        if per_node_bytes > mem_budget {
            return Err(DfoError::Config(format!(
                "Gemini is in-memory: partition needs {per_node_bytes} B > budget {mem_budget} B \
                 (the original reports OOM here, Table 5 'M')"
            )));
        }
        let mut edges: Vec<_> = g.edges.iter().collect();
        edges.sort_unstable_by_key(|e| (e.src, e.dst));
        let mut adj = Vec::with_capacity(p);
        for range in &ranges {
            let lo = edges.partition_point(|e| e.src < range.start);
            let hi = edges.partition_point(|e| e.src < range.end);
            let mut index = Vec::with_capacity(range.len() as usize + 1);
            let mut dst = Vec::with_capacity(hi - lo);
            let mut data = Vec::with_capacity(hi - lo);
            let mut cursor = lo;
            for v in range.iter() {
                index.push(dst.len() as u64);
                while cursor < hi && edges[cursor].src == v {
                    dst.push(edges[cursor].dst);
                    data.push(edges[cursor].data);
                    cursor += 1;
                }
            }
            index.push(dst.len() as u64);
            adj.push(AdjPart { index, dst, data });
        }
        Ok(Self { cluster, n_vertices: g.n_vertices, ranges, adj })
    }

    fn owner_of(&self, v: u64) -> usize {
        let per = self.ranges[0].len().max(1);
        ((v / per) as usize).min(self.ranges.len() - 1)
    }

    /// One push superstep, combining at the sender per destination vertex.
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
        let p = self.cluster.nodes();
        let range = self.ranges[node.rank];
        let part = &self.adj[node.rank];
        let combinable = std::mem::size_of::<E>() == 0;
        let upd = 8 + std::mem::size_of::<M>() + std::mem::size_of::<E>();

        let mut combined: HashMap<u64, M> = HashMap::new();
        let mut raw: Vec<Vec<u8>> = vec![Vec::new(); p];
        let mut local_applied = 0u64;
        for v in range.iter() {
            let i = (v - range.start) as usize;
            if !src_active[i] {
                continue;
            }
            let msg = signal(&src_state[i]);
            for e in part.index[i] as usize..part.index[i + 1] as usize {
                let dst = part.dst[e];
                let owner = self.owner_of(dst);
                if owner == node.rank {
                    // local edges applied directly (Gemini's local fast path)
                    let li = (dst - range.start) as usize;
                    if slot(&mut dst_state[li], msg, &part.data[e]) {
                        next_active[li] = true;
                        local_applied += 1;
                    }
                } else if combinable {
                    combined.entry(dst).and_modify(|m| *m = combine(*m, msg)).or_insert(msg);
                } else {
                    let o = &mut raw[owner];
                    o.extend_from_slice(&dst.to_le_bytes());
                    o.extend_from_slice(bytes_of(&msg));
                    o.extend_from_slice(bytes_of(&part.data[e]));
                }
            }
        }
        let mut out = raw;
        for (dst, msg) in combined {
            let o = &mut out[self.owner_of(dst)];
            o.extend_from_slice(&dst.to_le_bytes());
            o.extend_from_slice(bytes_of(&msg));
            o.extend_from_slice(bytes_of(&dfo_types::pod::pod_zeroed::<E>()));
        }
        let incoming = node.exchange(out)?;
        let mut changed = local_applied;
        for (src, buf) in incoming.iter().enumerate() {
            if src == node.rank {
                continue;
            }
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
                let li = (dst - range.start) as usize;
                if slot(&mut dst_state[li], msg, &data) {
                    next_active[li] = true;
                    changed += 1;
                }
            }
        }
        node.net.try_allreduce_sum_u64(changed)
    }

    /// Active-set push to convergence.
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
    use crate::spec::{bfs_spec, out_degrees, pagerank_rounds, wcc_spec};
    use dfo_graph::gen::{rmat, GenConfig};
    use tempfile::TempDir;

    #[test]
    fn bfs_matches_gridgraph() {
        let g = rmat(GenConfig::new(8, 5, 41));
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(3, td.path().join("m"), None, None, false).unwrap();
        let gm = GeminiEngine::load(bc, &g, 1 << 30).unwrap();
        let (states, _) = gm.run_push(&bfs_spec(0), |a, b| a.min(b)).unwrap();
        let flat: Vec<u32> = states.into_iter().flatten().collect();

        let gd = dfo_storage::NodeDisk::new(td.path().join("g"), None, false).unwrap();
        let gg = crate::gridgraph::GridGraphEngine::preprocess(gd, &g, 4).unwrap();
        let (want, _) = gg.run_push(&bfs_spec(0)).unwrap();
        assert_eq!(flat, want);
    }

    #[test]
    fn wcc_on_symmetrized_graph() {
        let g0 = rmat(GenConfig::new(7, 3, 2));
        let mut edges = g0.edges.clone();
        edges.extend(g0.edges.iter().map(|e| dfo_graph::Edge::new(e.dst, e.src, ())));
        let g = dfo_graph::EdgeList::new(g0.n_vertices, edges);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path().join("m"), None, None, false).unwrap();
        let gm = GeminiEngine::load(bc, &g, 1 << 30).unwrap();
        let (states, _) = gm.run_push(&wcc_spec(), |a, b| a.min(b)).unwrap();
        let flat: Vec<u64> = states.into_iter().flatten().collect();

        let gd = dfo_storage::NodeDisk::new(td.path().join("g"), None, false).unwrap();
        let gg = crate::gridgraph::GridGraphEngine::preprocess(gd, &g, 4).unwrap();
        let (want, _) = gg.run_push(&wcc_spec()).unwrap();
        assert_eq!(flat, want);
    }

    #[test]
    fn pagerank_matches_oracle() {
        let g = rmat(GenConfig::new(7, 5, 6));
        let deg = out_degrees(&g);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        let gm = GeminiEngine::load(bc, &g, 1 << 30).unwrap();
        let ranks: Vec<f64> =
            gm.pagerank(&pagerank_rounds(3), &deg).unwrap().into_iter().flatten().collect();
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
    fn memory_limit_reproduced() {
        let g = rmat(GenConfig::new(10, 8, 1));
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        assert!(matches!(GeminiEngine::load(bc, &g, 1024), Err(DfoError::Config(_))));
    }

    #[test]
    fn no_disk_traffic_during_iterations() {
        let g = rmat(GenConfig::new(8, 5, 9));
        let deg = out_degrees(&g);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        let gm = GeminiEngine::load(bc, &g, 1 << 30).unwrap();
        gm.cluster.reset_disk_stats();
        gm.pagerank(&pagerank_rounds(2), &deg).unwrap();
        assert_eq!(gm.cluster.total_disk_bytes(), 0, "Gemini must not touch disk");
    }

    #[test]
    fn combining_reduces_network_vs_chaos() {
        let g = rmat(GenConfig::new(9, 8, 13));
        let deg = out_degrees(&g);
        let td = TempDir::new().unwrap();

        let bc = BaselineCluster::create(2, td.path().join("m"), None, None, false).unwrap();
        let gm = GeminiEngine::load(bc, &g, 1 << 30).unwrap();
        gm.pagerank(&pagerank_rounds(2), &deg).unwrap();
        let gemini_sent = gm.cluster.total_net_sent();

        let bc = BaselineCluster::create(2, td.path().join("c"), None, None, false).unwrap();
        let chaos = crate::chaos::ChaosEngine::preprocess(bc, &g).unwrap();
        chaos.pagerank(&pagerank_rounds(2), &deg).unwrap();
        let chaos_sent = chaos.cluster.total_net_sent();

        assert!(
            chaos_sent > 2 * gemini_sent,
            "uncombined Chaos traffic must dominate: {chaos_sent} vs {gemini_sent}"
        );
    }
}
