//! Minimal SPMD runtime shared by the distributed baselines, mirroring the
//! substrate DFOGraph runs on (throttled disks + simulated network) so that
//! byte counts and wall times are comparable across engines.

use dfo_net::{Endpoint, SimCluster};
use dfo_storage::NodeDisk;
use dfo_types::{gather_ranks, DfoError, Rank, Result};
use parking_lot::Mutex;
use std::path::PathBuf;

/// Per-node handle given to baseline node programs.
pub struct BaselineNode {
    pub rank: Rank,
    pub disk: NodeDisk,
    pub net: Endpoint,
    tag: std::sync::atomic::AtomicU64,
}

impl BaselineNode {
    pub fn nodes(&self) -> usize {
        self.net.nodes()
    }

    fn next_tag(&self) -> u64 {
        self.tag.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// All-to-all byte exchange with the deadlock-free round-robin pairing
    /// (sender on its own thread); `result[rank] == outgoing[rank]`.
    pub fn exchange(&self, outgoing: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let p = self.nodes();
        assert_eq!(outgoing.len(), p);
        let rank = self.rank;
        let seq = self.next_tag();
        // freeze once, send zero-copy slices (mirrors NodeCtx::exchange_bytes)
        let mut outgoing = outgoing;
        let own = std::mem::take(&mut outgoing[rank]);
        let outgoing: Vec<bytes::Bytes> = outgoing.into_iter().map(bytes::Bytes::from).collect();
        let mut incoming: Vec<Vec<u8>> = vec![Vec::new(); p];
        let err: Mutex<Option<DfoError>> = Mutex::new(None);
        let send_order: Vec<usize> = (1..p).map(|d| (rank + d) % p).collect();
        let recv_order: Vec<usize> = (1..p).map(|d| (rank + p - d) % p).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for &j in &send_order {
                    if let Err(e) = self.net.send_stream(j, seq, outgoing[j].clone()) {
                        *err.lock() = Some(e);
                        return;
                    }
                }
            });
            for &q in &recv_order {
                match self.net.recv_all(q, seq) {
                    Ok(b) => incoming[q] = b,
                    Err(e) => {
                        *err.lock() = Some(e);
                        break;
                    }
                }
            }
        });
        let pending = err.lock().take();
        if let Some(e) = pending {
            return Err(e);
        }
        incoming[rank] = own;
        Ok(incoming)
    }
}

/// A baseline cluster: throttled per-node disks under `<base>/n<i>`.
pub struct BaselineCluster {
    disks: Vec<NodeDisk>,
    nodes: usize,
    net_bw: Option<u64>,
    record_traffic: bool,
    last_net: Mutex<Vec<std::sync::Arc<dfo_net::NetStats>>>,
}

impl BaselineCluster {
    pub fn create(
        nodes: usize,
        base: impl Into<PathBuf>,
        disk_bw: Option<u64>,
        net_bw: Option<u64>,
        record_traffic: bool,
    ) -> Result<Self> {
        let base = base.into();
        let disks = (0..nodes)
            .map(|i| NodeDisk::new(base.join(format!("n{i}")), disk_bw, record_traffic))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { disks, nodes, net_bw, record_traffic, last_net: Mutex::new(Vec::new()) })
    }

    pub fn disks(&self) -> &[NodeDisk] {
        &self.disks
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn total_disk_bytes(&self) -> u64 {
        self.disks.iter().map(|d| d.stats().total_bytes()).sum()
    }

    pub fn total_net_sent(&self) -> u64 {
        self.last_net.lock().iter().map(|s| s.sent_bytes.get()).sum()
    }

    pub fn net_stats(&self) -> Vec<std::sync::Arc<dfo_net::NetStats>> {
        self.last_net.lock().clone()
    }

    pub fn reset_disk_stats(&self) {
        for d in &self.disks {
            d.stats().reset();
        }
    }

    /// SPMD run; panics/errors poison the collective like the main engine.
    pub fn run<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut BaselineNode) -> Result<T> + Sync,
    {
        let endpoints = SimCluster::build(self.nodes, self.net_bw, self.record_traffic);
        *self.last_net.lock() = endpoints.iter().map(|e| e.stats_arc()).collect();
        let mut results: Vec<Result<T>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let disk = self.disks[rank].clone();
                    let f = &f;
                    s.spawn(move || -> Result<T> {
                        let mut node = BaselineNode {
                            rank,
                            disk,
                            net: ep,
                            tag: std::sync::atomic::AtomicU64::new(0),
                        };
                        let res =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut node)))
                                .unwrap_or_else(|p| {
                                    Err(DfoError::from_panic(p, &format!("node {rank}")))
                                });
                        if res.is_err() {
                            node.net.poison_collective();
                        }
                        res
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("node thread join"));
            }
        });
        gather_ranks(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    #[test]
    fn exchange_all_to_all() {
        let td = TempDir::new().unwrap();
        let c = BaselineCluster::create(3, td.path(), None, None, false).unwrap();
        let outs = c
            .run(|node| {
                let outgoing: Vec<Vec<u8>> =
                    (0..3).map(|j| vec![node.rank as u8 * 10 + j as u8; 4]).collect();
                node.exchange(outgoing)
            })
            .unwrap();
        for (rank, incoming) in outs.iter().enumerate() {
            for (src, bytes) in incoming.iter().enumerate() {
                assert_eq!(bytes, &vec![src as u8 * 10 + rank as u8; 4]);
            }
        }
    }
}
