//! Chaos-like distributed edge-centric out-of-core engine (Roy et al.,
//! SOSP'15) — the main comparator of Table 5 and Figure 5.
//!
//! Mechanisms reproduced (each the source of a cost DFOGraph eliminates):
//!
//! 1. **Edge-centric streaming**: every iteration streams the *entire*
//!    local edge file, filtering by active source on the fly — no edge
//!    index, so sparse iterations still pay a full scan (X-Stream
//!    heritage).
//! 2. **Unfiltered, uncombined updates**: scatter emits one `(dst, value)`
//!    update *per active edge* and ships it to the destination's owner —
//!    nothing like DFOGraph's per-source messages or needed-vertex
//!    filtering. This is exactly why Figure 5 shows Chaos moving ~50× the
//!    network bytes.
//! 3. **Updates spilled to disk**: received updates land in an on-disk
//!    update file, then the gather phase streams them back — doubling the
//!    disk traffic on top of the edge scan.
//! 4. **Fully out of core vertex state**: state and active bitmaps are
//!    loaded from and written back to disk every iteration.

use crate::runtime::{BaselineCluster, BaselineNode};
use crate::spec::{PagerankRounds, PushSpec};
use dfo_types::{
    bytes_of, pod_from_bytes, slice_as_bytes, vec_from_bytes, DfoError, Pod, Result, VertexRange,
};
use std::io::Write;

pub struct ChaosEngine<E: Pod> {
    pub cluster: BaselineCluster,
    n_vertices: u64,
    ranges: Vec<VertexRange>,
    _marker: std::marker::PhantomData<E>,
}

impl<E: Pod> ChaosEngine<E> {
    /// Preprocesses: vertices in `P` contiguous ranges; each node stores the
    /// edges whose source it owns as one flat streaming file.
    pub fn preprocess(cluster: BaselineCluster, g: &dfo_graph::EdgeList<E>) -> Result<Self> {
        let p = cluster.nodes();
        let per = g.n_vertices.div_ceil(p as u64).max(1);
        let ranges: Vec<VertexRange> = (0..p as u64)
            .map(|i| {
                VertexRange::new((i * per).min(g.n_vertices), ((i + 1) * per).min(g.n_vertices))
            })
            .collect();
        let rec = 16 + std::mem::size_of::<E>();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); p];
        for e in &g.edges {
            let owner = ((e.src / per) as usize).min(p - 1);
            let b = &mut bufs[owner];
            b.reserve(rec);
            b.extend_from_slice(&e.src.to_le_bytes());
            b.extend_from_slice(&e.dst.to_le_bytes());
            b.extend_from_slice(bytes_of(&e.data));
        }
        for (i, buf) in bufs.into_iter().enumerate() {
            let mut w = cluster.disks()[i].create("chaos/edges.bin")?;
            w.write_all(&buf).map_err(|e| DfoError::io("writing chaos edges", e))?;
            w.finish()?;
        }
        Ok(Self { cluster, n_vertices: g.n_vertices, ranges, _marker: std::marker::PhantomData })
    }

    fn owner_of(&self, v: u64) -> usize {
        let per = self.ranges[0].len().max(1);
        ((v / per) as usize).min(self.ranges.len() - 1)
    }

    /// One scatter+gather superstep over a BSP snapshot: `signal` reads the
    /// pre-iteration source state, `slot` updates the destination state in
    /// place. Returns the cluster-wide number of state updates.
    #[allow(clippy::too_many_arguments)]
    fn superstep_raw<SS: Pod, DS: Pod, M: Pod>(
        &self,
        node: &BaselineNode,
        signal: &(dyn Fn(&SS) -> M + Sync),
        slot: &(dyn Fn(&mut DS, M, &E) -> bool + Sync),
        src_state: &[SS],
        src_active: &[bool],
        dst_state: &mut [DS],
        next_active: &mut [bool],
    ) -> Result<u64> {
        let p = self.cluster.nodes();
        let rank = node.rank;
        let range = self.ranges[rank];
        let rec_in = 16 + std::mem::size_of::<E>();
        let upd = 8 + std::mem::size_of::<M>() + std::mem::size_of::<E>();

        // ---- scatter: full local edge scan, one update per active edge ----
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
        let edge_bytes = node.disk.read_to_vec("chaos/edges.bin")?;
        let mut off = 0;
        while off + rec_in <= edge_bytes.len() {
            let src = u64::from_le_bytes(edge_bytes[off..off + 8].try_into().unwrap());
            let dst = u64::from_le_bytes(edge_bytes[off + 8..off + 16].try_into().unwrap());
            let data: E = if std::mem::size_of::<E>() > 0 {
                pod_from_bytes(&edge_bytes[off + 16..off + rec_in])
            } else {
                dfo_types::pod::pod_zeroed()
            };
            off += rec_in;
            if !src_active[(src - range.start) as usize] {
                continue;
            }
            let msg = signal(&src_state[(src - range.start) as usize]);
            let o = &mut out[self.owner_of(dst)];
            o.reserve(upd);
            o.extend_from_slice(&dst.to_le_bytes());
            o.extend_from_slice(bytes_of(&msg));
            o.extend_from_slice(bytes_of(&data));
        }

        // ---- ship updates (no filtering, no combining) --------------------
        let incoming = node.exchange(out)?;

        // ---- spill received updates to the update file, then gather -------
        {
            let mut w = node.disk.create("chaos/updates.bin")?;
            for buf in &incoming {
                w.write_all(buf).map_err(|e| DfoError::io("spilling updates", e))?;
            }
            w.finish()?;
        }
        let update_bytes = node.disk.read_to_vec("chaos/updates.bin")?;
        let mut changed = 0u64;
        for b in next_active.iter_mut() {
            *b = false;
        }
        let mut off = 0;
        while off + upd <= update_bytes.len() {
            let dst = u64::from_le_bytes(update_bytes[off..off + 8].try_into().unwrap());
            let msg: M = pod_from_bytes(&update_bytes[off + 8..off + 8 + std::mem::size_of::<M>()]);
            let data: E = if std::mem::size_of::<E>() > 0 {
                pod_from_bytes(&update_bytes[off + 8 + std::mem::size_of::<M>()..off + upd])
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
        node.net.try_allreduce_sum_u64(changed)
    }

    /// BSP superstep for same-typed source/destination state (the
    /// active-set algorithms): signal reads a snapshot, slot updates live.
    fn superstep<S: Pod, M: Pod>(
        &self,
        node: &BaselineNode,
        spec: &PushSpec<S, M, E>,
        state: &mut [S],
        active: &mut [bool],
    ) -> Result<u64> {
        let snapshot: Vec<S> = state.to_vec();
        let src_active: Vec<bool> = active.to_vec();
        self.superstep_raw(node, &*spec.signal, &*spec.slot, &snapshot, &src_active, state, active)
    }

    /// Active-set push to convergence; returns per-node final states.
    pub fn run_push<S: Pod, M: Pod>(
        &self,
        spec: &PushSpec<S, M, E>,
    ) -> Result<(Vec<Vec<S>>, usize)> {
        let iters = std::sync::atomic::AtomicUsize::new(0);
        let states = self.cluster.run(|node| {
            let range = self.ranges[node.rank];
            // fully-OOC state: persisted on disk, loaded/stored per iteration
            let mut state: Vec<S> = Vec::with_capacity(range.len() as usize);
            let mut active = vec![false; range.len() as usize];
            for (i, v) in range.iter().enumerate() {
                let (s, a) = (spec.init)(v);
                state.push(s);
                active[i] = a;
            }
            write_state(node, &state, &active)?;
            let mut rounds = 0;
            loop {
                // fully-out-of-core: reload state from disk each superstep
                let (mut st, mut ac) = read_state::<S>(node, range.len() as usize)?;
                let changed = self.superstep(node, spec, &mut st, &mut ac)?;
                write_state(node, &st, &ac)?;
                rounds += 1;
                if changed == 0 {
                    state = st;
                    break;
                }
            }
            iters.store(rounds, std::sync::atomic::Ordering::Relaxed);
            Ok(state)
        })?;
        Ok((states, iters.load(std::sync::atomic::Ordering::Relaxed)))
    }

    /// PageRank: fixed all-active rounds through the same scatter/gather.
    pub fn pagerank(&self, pr: &PagerankRounds, out_deg: &[u64]) -> Result<Vec<Vec<f64>>> {
        let deg = std::sync::Arc::new(out_deg.to_vec());
        self.cluster.run(|node| {
            let range = self.ranges[node.rank];
            let n = self.n_vertices as f64;
            let local = range.len() as usize;
            let mut rank_v = vec![1.0 / n; local];
            let mut active = vec![true; local];
            for _ in 0..pr.iters {
                // scatter contributions rank/deg; gather sums into acc
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
                self.superstep_raw::<f64, f64, f64>(
                    node,
                    &|r| *r,
                    &|s, m, _| {
                        *s += m;
                        true
                    },
                    &contrib,
                    &active,
                    &mut acc,
                    &mut next_active,
                )?;
                for i in 0..local {
                    rank_v[i] = (1.0 - pr.damping) / n + pr.damping * acc[i];
                }
                for a in active.iter_mut() {
                    *a = true;
                }
            }
            Ok(rank_v)
        })
    }
}

fn write_state<S: Pod>(node: &BaselineNode, state: &[S], active: &[bool]) -> Result<()> {
    let mut w = node.disk.create("chaos/state.bin")?;
    w.write_all(slice_as_bytes(state))
        .and_then(|_| w.write_all(slice_as_bytes(active)))
        .map_err(|e| DfoError::io("writing chaos state", e))?;
    w.finish()
}

fn read_state<S: Pod>(node: &BaselineNode, n: usize) -> Result<(Vec<S>, Vec<bool>)> {
    let bytes = node.disk.read_to_vec("chaos/state.bin")?;
    let split = n * std::mem::size_of::<S>();
    Ok((vec_from_bytes(&bytes[..split]), vec_from_bytes(&bytes[split..])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{bfs_spec, out_degrees, pagerank_rounds, sssp_spec};
    use dfo_graph::gen::{rmat, GenConfig};
    use tempfile::TempDir;

    #[test]
    fn bfs_matches_single_machine() {
        let g = rmat(GenConfig::new(8, 5, 12));
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(3, td.path().join("c"), None, None, false).unwrap();
        let chaos = ChaosEngine::preprocess(bc, &g).unwrap();
        let (states, _) = chaos.run_push(&bfs_spec(0)).unwrap();
        let flat: Vec<u32> = states.into_iter().flatten().collect();

        let gd = dfo_storage::NodeDisk::new(td.path().join("g"), None, false).unwrap();
        let gg = crate::gridgraph::GridGraphEngine::preprocess(gd, &g, 4).unwrap();
        let (want, _) = gg.run_push(&bfs_spec(0)).unwrap();
        assert_eq!(flat, want);
    }

    #[test]
    fn sssp_matches() {
        let g0 = rmat(GenConfig::new(7, 4, 3));
        let g: dfo_graph::EdgeList<f32> = g0.map_data(|e| ((e.src + 2 * e.dst) % 11 + 1) as f32);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path().join("c"), None, None, false).unwrap();
        let chaos = ChaosEngine::preprocess(bc, &g).unwrap();
        let (states, _) = chaos.run_push(&sssp_spec(0)).unwrap();
        let flat: Vec<f32> = states.into_iter().flatten().collect();

        let gd = dfo_storage::NodeDisk::new(td.path().join("g"), None, false).unwrap();
        let gg = crate::gridgraph::GridGraphEngine::preprocess(gd, &g, 4).unwrap();
        let (want, _) = gg.run_push(&sssp_spec(0)).unwrap();
        for (a, b) in flat.iter().zip(&want) {
            assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn pagerank_matches_oracle_shape() {
        let g = rmat(GenConfig::new(7, 6, 5));
        let deg = out_degrees(&g);
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        let chaos = ChaosEngine::preprocess(bc, &g).unwrap();
        let ranks: Vec<f64> =
            chaos.pagerank(&pagerank_rounds(3), &deg).unwrap().into_iter().flatten().collect();
        // oracle
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
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn full_edge_scan_every_iteration() {
        // sparse BFS still reads the whole edge file per superstep
        let g = rmat(GenConfig::new(9, 8, 7));
        let td = TempDir::new().unwrap();
        let bc = BaselineCluster::create(2, td.path(), None, None, false).unwrap();
        let chaos = ChaosEngine::preprocess(bc, &g).unwrap();
        chaos.cluster.reset_disk_stats();
        let (_, iters) = chaos.run_push(&bfs_spec(0)).unwrap();
        let read = chaos.cluster.total_disk_bytes();
        let edge_file_bytes = g.n_edges() * 16;
        assert!(
            read > edge_file_bytes * (iters as u64).saturating_sub(1),
            "Chaos must rescan edges every iteration: {read} bytes over {iters} iters"
        );
    }
}
