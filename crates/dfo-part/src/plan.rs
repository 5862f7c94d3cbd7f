//! The replicated preprocessing plan: partition/batch geometry plus the
//! per-node inventory of on-disk structures. Every node stores a copy
//! (`plan.bin`), mirroring how the original system replicates partitioning
//! metadata so any node can address any other node's ranges.

use dfo_storage::NodeDisk;
use dfo_types::codec::{read_u32, read_u64, write_u32, write_u64};
use dfo_types::ids::split_into_batches;
use dfo_types::{BatchId, DfoError, PartitionId, Rank, Result, VertexId, VertexRange};
use std::io::{Cursor, Read, Write};

const MAGIC: u32 = 0x4446_4F50; // "DFOP"

/// Inventory entry for one non-empty edge chunk on a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Source partition of the chunk's edges.
    pub src_partition: PartitionId,
    /// Destination batch (local to the owning node).
    pub batch: BatchId,
    pub n_edges: u64,
    /// `|V_src, outdeg≠0|` — drives the §4.1 cost model.
    pub n_nonzero_src: u64,
    /// Whether a CSR index was accepted by the inflate ratio.
    pub has_csr: bool,
}

/// Per-node inventory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMeta {
    pub chunks: Vec<ChunkInfo>,
    /// Per source partition: metadata of the dispatching graph from it
    /// (`None` when no edges arrive from that partition).
    pub dispatch: Vec<Option<ChunkInfo>>,
    /// `|L_ij|` for each destination node `j` (filter lists live on node i).
    pub filter_lens: Vec<u64>,
    /// `|E_in_i|`, `|E_out_i|` — the Table 2 bound inputs.
    pub n_in_edges: u64,
    pub n_out_edges: u64,
}

/// Complete partitioning geometry + inventory, replicated on every node.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub n_vertices: u64,
    pub n_edges: u64,
    pub edge_data_bytes: u32,
    pub partitions: Vec<VertexRange>,
    pub batch_sizes: Vec<u64>,
    /// Batch ranges per node (derived from `partitions` × `batch_sizes`).
    pub batches: Vec<Vec<VertexRange>>,
    pub node_meta: Vec<NodeMeta>,
}

impl Plan {
    /// Derives batch ranges and empty inventories from geometry.
    pub fn from_geometry(
        n_vertices: u64,
        n_edges: u64,
        edge_data_bytes: u32,
        partitions: Vec<VertexRange>,
        batch_sizes: Vec<u64>,
    ) -> Self {
        assert_eq!(partitions.len(), batch_sizes.len());
        let p = partitions.len();
        let batches = partitions
            .iter()
            .zip(&batch_sizes)
            .map(|(r, &bs)| split_into_batches(*r, bs))
            .collect();
        Self {
            n_vertices,
            n_edges,
            edge_data_bytes,
            partitions,
            batch_sizes,
            batches,
            node_meta: vec![
                NodeMeta {
                    dispatch: vec![None; p],
                    filter_lens: vec![0; p],
                    ..Default::default()
                };
                p
            ],
        }
    }

    pub fn nodes(&self) -> usize {
        self.partitions.len()
    }

    /// Which partition owns vertex `v`.
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        dfo_types::ids::find_range(&self.partitions, v).expect("vertex outside all partitions")
    }

    pub fn n_batches(&self, node: Rank) -> usize {
        self.batches[node].len()
    }

    /// Largest batch length on `node` (buffers are sized to it).
    pub fn max_batch_len(&self, node: Rank) -> u64 {
        self.batches[node].iter().map(|b| b.len()).max().unwrap_or(0)
    }

    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let io = |e| DfoError::io("writing plan", e);
        write_u32(w, MAGIC).map_err(io)?;
        write_u64(w, self.n_vertices).map_err(io)?;
        write_u64(w, self.n_edges).map_err(io)?;
        write_u32(w, self.edge_data_bytes).map_err(io)?;
        write_u64(w, self.partitions.len() as u64).map_err(io)?;
        for (r, bs) in self.partitions.iter().zip(&self.batch_sizes) {
            write_u64(w, r.start).map_err(io)?;
            write_u64(w, r.end).map_err(io)?;
            write_u64(w, *bs).map_err(io)?;
        }
        for meta in &self.node_meta {
            write_u64(w, meta.chunks.len() as u64).map_err(io)?;
            for c in &meta.chunks {
                write_chunk_info(w, c).map_err(io)?;
            }
            write_u64(w, meta.dispatch.len() as u64).map_err(io)?;
            for d in &meta.dispatch {
                match d {
                    Some(c) => {
                        write_u32(w, 1).map_err(io)?;
                        write_chunk_info(w, c).map_err(io)?;
                    }
                    None => write_u32(w, 0).map_err(io)?,
                }
            }
            write_u64(w, meta.filter_lens.len() as u64).map_err(io)?;
            for &l in &meta.filter_lens {
                write_u64(w, l).map_err(io)?;
            }
            write_u64(w, meta.n_in_edges).map_err(io)?;
            write_u64(w, meta.n_out_edges).map_err(io)?;
        }
        Ok(())
    }

    pub fn read_from<R: Read>(r: &mut R) -> Result<Self> {
        let io = |e| DfoError::io("reading plan", e);
        let magic = read_u32(r).map_err(io)?;
        if magic != MAGIC {
            return Err(DfoError::Corrupt(format!("bad plan magic {magic:#x}")));
        }
        let n_vertices = read_u64(r).map_err(io)?;
        let n_edges = read_u64(r).map_err(io)?;
        let edge_data_bytes = read_u32(r).map_err(io)?;
        let p = read_u64(r).map_err(io)? as usize;
        let mut partitions = Vec::with_capacity(p);
        let mut batch_sizes = Vec::with_capacity(p);
        for _ in 0..p {
            let start = read_u64(r).map_err(io)?;
            let end = read_u64(r).map_err(io)?;
            partitions.push(VertexRange::new(start, end));
            batch_sizes.push(read_u64(r).map_err(io)?);
        }
        let mut plan =
            Plan::from_geometry(n_vertices, n_edges, edge_data_bytes, partitions, batch_sizes);
        for meta in plan.node_meta.iter_mut() {
            let nc = read_u64(r).map_err(io)? as usize;
            meta.chunks =
                (0..nc).map(|_| read_chunk_info(r)).collect::<std::io::Result<_>>().map_err(io)?;
            let nd = read_u64(r).map_err(io)? as usize;
            meta.dispatch = (0..nd)
                .map(|_| -> std::io::Result<Option<ChunkInfo>> {
                    Ok(if read_u32(r)? != 0 { Some(read_chunk_info(r)?) } else { None })
                })
                .collect::<std::io::Result<_>>()
                .map_err(io)?;
            let nf = read_u64(r).map_err(io)? as usize;
            meta.filter_lens =
                (0..nf).map(|_| read_u64(r)).collect::<std::io::Result<_>>().map_err(io)?;
            meta.n_in_edges = read_u64(r).map_err(io)?;
            meta.n_out_edges = read_u64(r).map_err(io)?;
        }
        Ok(plan)
    }

    /// Persists the plan on a node's disk.
    pub fn store(&self, disk: &NodeDisk) -> Result<()> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        let mut w = disk.create("plan.bin")?;
        w.write_all(&buf).map_err(|e| DfoError::io("writing plan.bin", e))?;
        w.finish()
    }

    /// Loads the plan from a node's disk.
    pub fn load(disk: &NodeDisk) -> Result<Self> {
        let buf = disk.read_to_vec("plan.bin")?;
        Self::read_from(&mut Cursor::new(&buf))
    }
}

fn write_chunk_info<W: Write>(w: &mut W, c: &ChunkInfo) -> std::io::Result<()> {
    write_u64(w, c.src_partition as u64)?;
    write_u64(w, c.batch as u64)?;
    write_u64(w, c.n_edges)?;
    write_u64(w, c.n_nonzero_src)?;
    write_u32(w, c.has_csr as u32)
}

fn read_chunk_info<R: Read>(r: &mut R) -> std::io::Result<ChunkInfo> {
    Ok(ChunkInfo {
        src_partition: read_u64(r)? as usize,
        batch: read_u64(r)? as usize,
        n_edges: read_u64(r)?,
        n_nonzero_src: read_u64(r)?,
        has_csr: read_u32(r)? != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    fn sample_plan() -> Plan {
        let mut plan = Plan::from_geometry(
            10,
            20,
            4,
            vec![VertexRange::new(0, 4), VertexRange::new(4, 10)],
            vec![2, 3],
        );
        plan.node_meta[0].chunks.push(ChunkInfo {
            src_partition: 1,
            batch: 0,
            n_edges: 5,
            n_nonzero_src: 3,
            has_csr: true,
        });
        plan.node_meta[0].dispatch[1] = Some(ChunkInfo {
            src_partition: 1,
            batch: 0,
            n_edges: 2,
            n_nonzero_src: 2,
            has_csr: false,
        });
        plan.node_meta[1].filter_lens = vec![7, 0];
        plan.node_meta[1].n_in_edges = 12;
        plan.node_meta[1].n_out_edges = 8;
        plan
    }

    #[test]
    fn geometry_matches_paper_figure_1b() {
        // 7 vertices, 2 nodes, batch size 2 (Figure 1b: batches 0..4)
        let plan = Plan::from_geometry(
            7,
            9,
            1,
            vec![VertexRange::new(0, 4), VertexRange::new(4, 7)],
            vec![2, 2],
        );
        assert_eq!(plan.batches[0].len(), 2);
        assert_eq!(plan.batches[1].len(), 2);
        assert_eq!(plan.batches[1][0], VertexRange::new(4, 6));
        assert_eq!(plan.batches[1][1], VertexRange::new(6, 7));
        assert_eq!(plan.partition_of(5), 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let plan = sample_plan();
        let mut buf = Vec::new();
        plan.write_to(&mut buf).unwrap();
        let back = Plan::read_from(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn store_and_load_via_disk() {
        let td = TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let plan = sample_plan();
        plan.store(&disk).unwrap();
        assert_eq!(Plan::load(&disk).unwrap(), plan);
    }

    #[test]
    fn max_batch_len() {
        let plan = sample_plan();
        assert_eq!(plan.max_batch_len(0), 2);
        assert_eq!(plan.max_batch_len(1), 3);
    }
}
