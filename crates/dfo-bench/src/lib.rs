//! Shared harness for the benchmark targets that regenerate every table and
//! figure of the paper (see `benches/`).
//!
//! Scales are laptop-sized by default; set `DFO_SCALE=small|medium|large`
//! to grow them. All harnesses print the dataset actually used so results
//! are interpretable. Simulated bandwidths keep the byte-volume-dominated
//! regime of the paper's testbed (NVMe ≈ network per node).

pub mod gate;

use dfo_core::Cluster;
use dfo_graph::gen::{kronecker, rmat, web_chain, GenConfig};
use dfo_graph::EdgeList;
use dfo_types::{BatchPolicy, EngineConfig};
use std::time::Instant;

/// Simulated per-node disk bandwidth (bytes/s).
pub const DISK_BW: u64 = 96 << 20;
/// Simulated per-node network bandwidth, each direction (bytes/s); slightly
/// above disk, matching the paper's "network ≥ disk per node" assumption.
pub const NET_BW: u64 = 128 << 20;

/// Dataset scale knob.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub twitter: (u32, u32),
    pub uk_chain: (u64, u64, u32, u32),
    pub rmat: (u32, u32),
    pub kron: (u32, u32),
}

pub fn scale() -> Scale {
    match std::env::var("DFO_SCALE").as_deref() {
        Ok("small") => {
            Scale { twitter: (13, 16), uk_chain: (160, 64, 4, 3), rmat: (14, 16), kron: (15, 8) }
        }
        Ok("medium") => {
            Scale { twitter: (15, 16), uk_chain: (400, 96, 5, 3), rmat: (16, 16), kron: (17, 8) }
        }
        Ok("large") => {
            Scale { twitter: (17, 20), uk_chain: (1000, 128, 6, 3), rmat: (18, 16), kron: (19, 8) }
        }
        _ => Scale { twitter: (13, 16), uk_chain: (100, 48, 4, 3), rmat: (14, 24), kron: (15, 12) },
    }
}

/// twitter-2010 stand-in: power-law social graph.
pub fn twitter_like() -> EdgeList<()> {
    let (s, ef) = scale().twitter;
    rmat(GenConfig::new(s, ef, 2010))
}

/// uk-2014 stand-in: web crawl with diameter in the hundreds/thousands.
pub fn uk_like() -> EdgeList<()> {
    let (comms, size, intra, bridge) = scale().uk_chain;
    web_chain(comms, size, intra, bridge, 2014)
}

/// RMAT-32 stand-in.
pub fn rmat_like() -> EdgeList<()> {
    let (s, ef) = scale().rmat;
    rmat(GenConfig::new(s, ef, 32))
}

/// KRON-38 stand-in (one PR iteration only in Table 5, like the paper).
pub fn kron_like() -> EdgeList<()> {
    let (s, ef) = scale().kron;
    kronecker(GenConfig::new(s, ef, 38))
}

/// Deterministic weights for SSSP variants.
pub fn weighted(g: &EdgeList<()>) -> EdgeList<f32> {
    g.map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 31 + 1) as f32)
}

pub fn describe(name: &str, g: &EdgeList<()>) -> String {
    format!("{name}: |V|={}, |E|={}", g.n_vertices, g.n_edges())
}

/// Engine configuration used by all distributed harnesses.
pub fn dfo_config(nodes: usize) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(nodes);
    cfg.threads_per_node = 2;
    cfg.batch_policy = BatchPolicy::SemiOutOfCore;
    cfg.mem_budget = 64 << 20;
    cfg.disk_bw = Some(DISK_BW);
    cfg.net_bw = Some(NET_BW);
    // seek/scan cost ratio of the simulated disk: a positioned read costs
    // ~16 scanned elements (the paper's 1024 reflects real NVMe firmware)
    cfg.gamma = 16;
    cfg
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One damped-PageRank run that records the edge pipeline's
/// [`dfo_types::PhaseStats`] per iteration (the library's `pagerank`
/// helper hides them) and returns the final ranks alongside — the workload
/// behind the `micro_chunkcache` and `micro_compress` byte-trajectory
/// benches, shared so their JSON rows measure the same thing.
pub fn pagerank_with_stats(
    ctx: &mut dfo_core::NodeCtx,
    iters: usize,
) -> dfo_types::Result<(Vec<f64>, Vec<dfo_types::PhaseStats>)> {
    use dfo_algos::pagerank::DAMPING;
    let n = ctx.plan().n_vertices as f64;
    let rank = ctx.vertex_array::<f64>("pr_rank")?;
    let nextr = ctx.vertex_array::<f64>("pr_next")?;
    let deg = dfo_algos::degree::out_degree_array(ctx)?;
    {
        let r = rank.clone();
        ctx.process_vertices(&["pr_rank"], None, move |v, c| {
            c.set(&r, v, 1.0 / n);
            0u64
        })?;
    }
    let mut stats = Vec::new();
    for _ in 0..iters {
        {
            let nx = nextr.clone();
            ctx.process_vertices(&["pr_next"], None, move |v, c| {
                c.set(&nx, v, 0.0);
                0u64
            })?;
        }
        {
            let (r, d, nx) = (rank.clone(), deg.clone(), nextr.clone());
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
        stats.push(ctx.last_phase_stats().clone());
        {
            let (r, nx) = (rank.clone(), nextr.clone());
            ctx.process_vertices(&["pr_rank", "pr_next"], None, move |v, c| {
                let s = c.get(&nx, v);
                c.set(&r, v, (1.0 - DAMPING) / n + DAMPING * s);
                0u64
            })?;
        }
    }
    let ranks = dfo_algos::read_local(ctx, &rank)?;
    Ok((ranks, stats))
}

/// Geometric mean of time ratios `other / reference` — the paper's
/// "relative time" rows.
pub fn geomean(ratios: &[f64]) -> f64 {
    let s: f64 = ratios.iter().map(|r| r.ln()).sum();
    (s / ratios.len() as f64).exp()
}

pub fn fmt_secs(s: f64) -> String {
    if s < 0.0005 {
        format!("{:.2}ms", s * 1000.0)
    } else if s < 1.0 {
        format!("{:.0}ms", s * 1000.0)
    } else {
        format!("{s:.2}s")
    }
}

pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KB", b as f64 / 1024.0)
    }
}

/// CPU-seconds this process has used, user plus system (`utime + stime`
/// of `/proc/self/stat`, in 100 Hz ticks); 0 where that file is missing.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name, which may hold spaces
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, r)| r).split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Runs the DFOGraph suite (prep + PR + BFS + WCC + SSSP) at `nodes` nodes,
/// returning (prep, pr, bfs, wcc, sssp) seconds and, last, preprocessing's
/// process CPU-seconds.
pub fn dfo_suite(
    base_dir: &std::path::Path,
    nodes: usize,
    g: &EdgeList<()>,
    pr_iters: usize,
) -> (f64, f64, f64, f64, f64, f64) {
    let sym = dfo_algos::wcc::symmetrize(g);
    let w = weighted(g);
    let cfg = dfo_config(nodes);

    let cluster = Cluster::create(cfg.clone(), base_dir.join("base")).unwrap();
    let cpu = process_cpu_secs();
    let (_, prep) = timed(|| cluster.preprocess(g).unwrap());
    let prep_cpu = process_cpu_secs() - cpu;

    let (_, pr) = timed(|| {
        cluster
            .run(|ctx| {
                dfo_algos::pagerank(ctx, pr_iters)?;
                Ok(0u64)
            })
            .unwrap()
    });
    let (_, bfs_t) = timed(|| {
        cluster
            .run(|ctx| {
                dfo_algos::bfs(ctx, 0)?;
                Ok(0u64)
            })
            .unwrap()
    });

    let cluster_sym = Cluster::create(cfg.clone(), base_dir.join("sym")).unwrap();
    cluster_sym.preprocess(&sym).unwrap();
    let (_, wcc_t) = timed(|| {
        cluster_sym
            .run(|ctx| {
                dfo_algos::wcc(ctx)?;
                Ok(0u64)
            })
            .unwrap()
    });

    let cluster_w = Cluster::create(cfg, base_dir.join("w")).unwrap();
    cluster_w.preprocess(&w).unwrap();
    let (_, sssp_t) = timed(|| {
        cluster_w
            .run(|ctx| {
                dfo_algos::sssp(ctx, 0)?;
                Ok(0u64)
            })
            .unwrap()
    });

    (prep, pr, bfs_t, wcc_t, sssp_t, prep_cpu)
}
