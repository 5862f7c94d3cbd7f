//! The five named workloads: what each generates from the seed, the job it
//! runs and the engine configuration it runs under. `WORKLOADS.json` beside
//! the README records the same facts for readers; this file is what runs.

use dfograph::graph::gen::{rmat, uniform, web_chain, GenConfig};
use dfograph::graph::EdgeList;
use dfograph::types::{BatchPolicy, EngineConfig};

/// Ranks of every workload's mesh (the sandbox has two cores).
pub const RANKS: usize = 2;

#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    Rmat { scale: u32, edge_factor: u32 },
    WebChain { communities: u64, size: u64, intra: u32, bridge: u32 },
    Uniform { vertices: u64, edges: u64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Job {
    PageRank {
        iters: usize,
    },
    Sssp,
    /// Closed-loop `degree` jobs through a resident daemon mesh.
    SvcDegree,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    pub job: Job,
    /// Vertices per intra-node batch (`BatchPolicy::FixedVertices`).
    pub batch_vertices: u64,
    /// `EngineConfig::chunk_cache_bytes` of the measured jobs.
    pub cache_bytes: u64,
    /// Ranks mesh over loopback TCP (`run_distributed`) instead of the
    /// in-process transport (`Cluster::run`).
    pub tcp: bool,
}

pub const NAMES: [&str; 5] =
    ["pr_rmat_ooc", "pr_rmat_cached", "sssp_chain", "pr_wide_tcp", "svc_degree"];

/// Resolves a workload by name; `quick` shrinks every input to a sixteenth
/// (smoke runs only — quick numbers compare with nothing).
pub fn find(name: &str, quick: bool) -> Option<Workload> {
    let mut w = match name {
        "pr_rmat_ooc" => Workload {
            name: "pr_rmat_ooc",
            batch_vertices: 64 << 10,
            graph: GraphSpec::Rmat { scale: 18, edge_factor: 16 },
            job: Job::PageRank { iters: 10 },
            cache_bytes: 0,
            tcp: false,
        },
        "pr_rmat_cached" => Workload {
            name: "pr_rmat_cached",
            batch_vertices: 64 << 10,
            graph: GraphSpec::Rmat { scale: 18, edge_factor: 16 },
            job: Job::PageRank { iters: 20 },
            cache_bytes: 1 << 30,
            tcp: false,
        },
        "sssp_chain" => Workload {
            name: "sssp_chain",
            batch_vertices: 5_000,
            graph: GraphSpec::WebChain { communities: 260, size: 96, intra: 5, bridge: 3 },
            job: Job::Sssp,
            cache_bytes: 0,
            tcp: false,
        },
        "pr_wide_tcp" => Workload {
            name: "pr_wide_tcp",
            batch_vertices: 300_000,
            graph: GraphSpec::Uniform { vertices: 1 << 20, edges: 2 << 20 },
            job: Job::PageRank { iters: 4 },
            cache_bytes: 0,
            tcp: true,
        },
        "svc_degree" => Workload {
            name: "svc_degree",
            batch_vertices: 4 << 10,
            graph: GraphSpec::Rmat { scale: 14, edge_factor: 16 },
            job: Job::SvcDegree,
            cache_bytes: 0,
            tcp: true,
        },
        _ => return None,
    };
    if quick {
        w.batch_vertices = (w.batch_vertices / 16).max(1);
        w.graph = match w.graph {
            GraphSpec::Rmat { scale, edge_factor } => {
                GraphSpec::Rmat { scale: scale - 4, edge_factor }
            }
            GraphSpec::WebChain { communities, size, intra, bridge } => {
                GraphSpec::WebChain { communities: communities / 16 + 1, size, intra, bridge }
            }
            GraphSpec::Uniform { vertices, edges } => {
                GraphSpec::Uniform { vertices: vertices / 16, edges: edges / 16 }
            }
        };
    }
    Some(w)
}

/// A generated input: SSSP needs weights, everything else runs unweighted.
pub enum Graph {
    Unit(EdgeList<()>),
    Weighted(EdgeList<f32>),
}

impl Graph {
    pub fn n_vertices(&self) -> u64 {
        match self {
            Graph::Unit(g) => g.n_vertices,
            Graph::Weighted(g) => g.n_vertices,
        }
    }

    pub fn n_edges(&self) -> u64 {
        match self {
            Graph::Unit(g) => g.n_edges(),
            Graph::Weighted(g) => g.n_edges(),
        }
    }
}

impl Workload {
    /// The workload's input; `seed` feeds every generator, so the program
    /// only ever sees generated inputs.
    pub fn generate(&self, seed: u64) -> Graph {
        let g = match self.graph {
            GraphSpec::Rmat { scale, edge_factor } => {
                rmat(GenConfig::new(scale, edge_factor, seed))
            }
            GraphSpec::WebChain { communities, size, intra, bridge } => {
                web_chain(communities, size, intra, bridge, seed)
            }
            GraphSpec::Uniform { vertices, edges } => uniform(vertices, edges, seed),
        };
        match self.job {
            // the deterministic weights `dfo-bench` uses for its SSSP rows
            // deterministic weights in 1..=4, in the style of `dfo-bench`'s
            // (its 1..=31 range makes the number of rounds and re-relaxations
            // swing by several percent from seed to seed; this range keeps
            // genuine weighted relaxation and a steady round count)
            Job::Sssp => {
                Graph::Weighted(g.map_data(|e| {
                    ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 4 + 1) as f32
                }))
            }
            _ => Graph::Unit(g),
        }
    }

    /// Edges one job is credited with: `|E| × iterations` for PageRank,
    /// `|E|` for SSSP (the Graph500 TEPS convention) and for `degree`.
    pub fn work_edges(&self, n_edges: u64) -> u64 {
        match self.job {
            Job::PageRank { iters } => n_edges * iters as u64,
            Job::Sssp | Job::SvcDegree => n_edges,
        }
    }

    /// Engine configuration shared by preprocessing and every job: two
    /// ranks of one worker thread (= the sandbox's cores), semi-out-of-core
    /// batching, 64 MiB budget, compressed chunks and no bandwidth throttle —
    /// a throttled wall time is a function of the byte counts already
    /// reported, and sleeping in the throttle would measure the timer.
    pub fn config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::for_test(RANKS);
        cfg.threads_per_node = 1;
        cfg.batch_policy = BatchPolicy::FixedVertices(self.batch_vertices);
        cfg.mem_budget = 64 << 20;
        cfg.compress_chunks = true;
        cfg.chunk_cache_bytes = self.cache_bytes;
        cfg.connect_timeout_secs = 30;
        cfg
    }
}
