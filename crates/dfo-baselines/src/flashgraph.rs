//! FlashGraph-like semi-external engine (Zheng et al., FAST'15).
//!
//! Mechanism reproduced: **vertex state stays in memory**; adjacency lists
//! live on SSD in one CSR file, fetched *per active vertex* with merging of
//! adjacent requests (FlashGraph's I/O merging). Sparse frontiers therefore
//! read only the lists they need — which is why FlashGraph's uk-2014 BFS
//! beats DFOGraph in Table 4 — while the semi-external assumption caps the
//! graph size it can handle (it OOMs preprocessing uk-2014 on the paper's
//! 93 GB node; we reproduce the memory check).

use crate::spec::{PagerankRounds, PushSpec};
use dfo_graph::EdgeList;
use dfo_storage::NodeDisk;
use dfo_types::{bytes_of, pod_from_bytes, DfoError, Pod, Result};
use std::io::Write;

pub struct FlashGraphEngine<E: Pod> {
    disk: NodeDisk,
    n_vertices: u64,
    /// In-memory CSR index: byte offset of each vertex's adjacency run.
    index: Vec<u64>,
    _marker: std::marker::PhantomData<E>,
}

impl<E: Pod> FlashGraphEngine<E> {
    /// Preprocesses into an on-disk CSR. `mem_budget` models the
    /// semi-external constraint: vertex state + index must fit.
    pub fn preprocess(disk: NodeDisk, g: &EdgeList<E>, mem_budget: u64) -> Result<Self> {
        // semi-external feasibility: index (8 B/vertex) + one vertex-state
        // array (assume 8 B) must fit in memory
        let needed = g.n_vertices * 16;
        if needed > mem_budget {
            return Err(DfoError::Config(format!(
                "FlashGraph semi-external assumption violated: needs {needed} B in memory, \
                 budget {mem_budget} B (the original crashes preprocessing here too)"
            )));
        }
        let mut edges: Vec<_> = g.edges.iter().collect();
        edges.sort_unstable_by_key(|e| (e.src, e.dst));
        let rec = 4 + std::mem::size_of::<E>();
        let mut index = Vec::with_capacity(g.n_vertices as usize + 1);
        let mut w = disk.create("flash/adj.bin")?;
        let mut off = 0u64;
        let mut cursor = 0usize;
        for v in 0..g.n_vertices {
            index.push(off);
            while cursor < edges.len() && edges[cursor].src == v {
                let e = edges[cursor];
                w.write_all(&(e.dst as u32).to_le_bytes())
                    .and_then(|_| w.write_all(bytes_of(&e.data)))
                    .map_err(|er| DfoError::io("writing adjacency", er))?;
                off += rec as u64;
                cursor += 1;
            }
        }
        index.push(off);
        w.finish()?;
        Ok(Self { disk, n_vertices: g.n_vertices, index, _marker: std::marker::PhantomData })
    }

    /// Fetches the adjacency byte ranges of the active vertices, merging
    /// requests whose gap is below `merge_gap` bytes, and invokes
    /// `f(src, dst, data)` for each edge of each active vertex.
    fn fetch_active(
        &self,
        active: &[bool],
        merge_gap: u64,
        mut f: impl FnMut(u64, u64, E),
    ) -> Result<()> {
        let file = self.disk.open_random("flash/adj.bin")?;
        let rec = (4 + std::mem::size_of::<E>()) as u64;
        // build merged request ranges
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        #[allow(clippy::needless_range_loop)] // v indexes both active and the index[v..v+2] window
        for v in 0..self.n_vertices as usize {
            if !active[v] || self.index[v] == self.index[v + 1] {
                continue;
            }
            let (s, e) = (self.index[v], self.index[v + 1]);
            match ranges.last_mut() {
                Some((_, last_end)) if s <= *last_end + merge_gap => {
                    *last_end = (*last_end).max(e);
                }
                _ => ranges.push((s, e)),
            }
        }
        for (s, e) in ranges {
            let mut buf = vec![0u8; (e - s) as usize];
            file.read_at(&mut buf, s)?;
            // walk vertices covered by this range
            let first_v = self.index.partition_point(|&x| x < s + 1).saturating_sub(1);
            #[allow(clippy::needless_range_loop)]
            // v indexes both active and the index[v..v+2] window
            for v in first_v..self.n_vertices as usize {
                if self.index[v] >= e {
                    break;
                }
                if !active[v] {
                    continue;
                }
                let (vs, ve) = (self.index[v].max(s), self.index[v + 1].min(e));
                let mut off = (vs - s) as usize;
                while (off as u64) + rec <= (ve - s) {
                    let dst = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
                    let data: E = if std::mem::size_of::<E>() > 0 {
                        pod_from_bytes(&buf[off + 4..off + rec as usize])
                    } else {
                        dfo_types::pod::pod_zeroed()
                    };
                    f(v as u64, dst as u64, data);
                    off += rec as usize;
                }
            }
        }
        Ok(())
    }

    /// Active-set push to convergence.
    pub fn run_push<S: Pod, M: Pod>(&self, spec: &PushSpec<S, M, E>) -> Result<(Vec<S>, usize)> {
        let n = self.n_vertices as usize;
        let mut state = Vec::with_capacity(n);
        let mut active = vec![false; n];
        for v in 0..n as u64 {
            let (s, a) = (spec.init)(v);
            state.push(s);
            active[v as usize] = a;
        }
        let mut iters = 0;
        loop {
            iters += 1;
            let mut next_active = vec![false; n];
            let mut updates = 0u64;
            // split borrow: signal reads state[src], slot writes state[dst];
            // collect updates first (FlashGraph's async completion queue)
            let mut pending: Vec<(u64, M)> = Vec::new();
            let mut pending_edges: Vec<(usize, E)> = Vec::new();
            self.fetch_active(&active, 4096, |src, dst, data| {
                let msg = (spec.signal)(&state[src as usize]);
                pending.push((dst, msg));
                pending_edges.push((pending_edges.len(), data));
            })?;
            for ((dst, msg), (_, data)) in pending.into_iter().zip(pending_edges) {
                if (spec.slot)(&mut state[dst as usize], msg, &data) {
                    next_active[dst as usize] = true;
                    updates += 1;
                }
            }
            active = next_active;
            if updates == 0 {
                break;
            }
        }
        Ok((state, iters))
    }

    /// PageRank over the on-disk CSR (all vertices active each round).
    pub fn pagerank(&self, pr: &PagerankRounds, out_deg: &[u64]) -> Result<Vec<f64>> {
        let n = self.n_vertices as usize;
        let mut rank = vec![1.0 / n as f64; n];
        let all = vec![true; n];
        for _ in 0..pr.iters {
            let mut next = vec![0.0f64; n];
            self.fetch_active(&all, 4096, |src, dst, _| {
                next[dst as usize] += rank[src as usize] / out_deg[src as usize] as f64;
            })?;
            for v in 0..n {
                rank[v] = (1.0 - pr.damping) / n as f64 + pr.damping * next[v];
            }
        }
        Ok(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::bfs_spec;
    use dfo_graph::gen::{rmat, GenConfig};
    use tempfile::TempDir;

    #[test]
    fn bfs_matches_gridgraph() {
        let g = rmat(GenConfig::new(8, 5, 4));
        let td = TempDir::new().unwrap();
        let fdisk = NodeDisk::new(td.path().join("f"), None, false).unwrap();
        let gdisk = NodeDisk::new(td.path().join("g"), None, false).unwrap();
        let fg = FlashGraphEngine::preprocess(fdisk, &g, 1 << 30).unwrap();
        let gg = crate::gridgraph::GridGraphEngine::preprocess(gdisk, &g, 4).unwrap();
        let (a, _) = fg.run_push(&bfs_spec(0)).unwrap();
        let (b, _) = gg.run_push(&bfs_spec(0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_frontier_reads_less_than_full_scan() {
        let g = rmat(GenConfig::new(10, 8, 6));
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let fg = FlashGraphEngine::preprocess(disk.clone(), &g, 1 << 30).unwrap();
        disk.stats().reset();
        // one active low-degree vertex
        let mut active = vec![false; g.n_vertices as usize];
        active[3] = true;
        fg.fetch_active(&active, 4096, |_, _, _| {}).unwrap();
        let read = disk.stats().read_bytes.get();
        let full = g.n_edges() * 4;
        assert!(read < full / 4, "semi-external fetch must be selective: {read} vs {full}");
    }

    #[test]
    fn memory_check_rejects_oversized_graphs() {
        let g = rmat(GenConfig::new(10, 2, 1));
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let r = FlashGraphEngine::preprocess(disk, &g, 1024);
        assert!(matches!(r, Err(DfoError::Config(_))));
    }

    #[test]
    fn request_merging_coalesces_neighbours() {
        let g = rmat(GenConfig::new(8, 6, 8));
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let fg = FlashGraphEngine::preprocess(disk.clone(), &g, 1 << 30).unwrap();
        disk.stats().reset();
        let all = vec![true; g.n_vertices as usize];
        fg.fetch_active(&all, 1 << 20, |_, _, _| {}).unwrap();
        // with a huge merge gap everything coalesces into ~1 read op
        assert!(disk.stats().read_ops.get() <= 3, "ops: {}", disk.stats().read_ops.get());
    }
}
