//! Chunk cache: cross-call chunk reuse, eviction under a tiny budget,
//! budget-0 inertness, and bit-identical results across budgets.

use dfo_core::Cluster;
use dfo_graph::edge::EdgeList;
use dfo_graph::gen::{rmat, GenConfig};
use dfo_types::{BatchPolicy, EngineConfig, PhaseStats};
use tempfile::TempDir;

fn cache_cfg(budget: u64) -> EngineConfig {
    let mut c = EngineConfig::for_test(2);
    c.batch_policy = BatchPolicy::FixedVertices(64);
    c.chunk_cache_bytes = budget;
    c
}

fn graph() -> EdgeList<()> {
    rmat(GenConfig::new(9, 6, 5))
}

/// Runs `iters` iterations of an accumulate-in-degrees job (every vertex
/// signals 1 every iteration, like PageRank's full-frontier push). Returns
/// the final per-vertex sums in rank order and, per iteration, the
/// [`PhaseStats`] merged across nodes.
fn iterate(cfg: EngineConfig, g: &EdgeList<()>, iters: usize) -> (Vec<u64>, Vec<PhaseStats>) {
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(g).unwrap();
    let per_node = cluster
        .run(|ctx| {
            let acc = ctx.vertex_array::<u64>("acc")?;
            let mut stats = Vec::new();
            for _ in 0..iters {
                let a = acc.clone();
                ctx.process_edges(
                    &[],
                    &["acc"],
                    None,
                    |_v, _c| Some(1u64),
                    move |m: u64, _s, d, _e: &(), cx| {
                        let cur = cx.get(&a, d);
                        cx.set(&a, d, cur + m);
                        0u64
                    },
                )?;
                stats.push(ctx.last_phase_stats().clone());
            }
            let r = ctx.plan().partitions[ctx.rank()];
            let out = std::sync::Mutex::new(vec![0u64; r.len() as usize]);
            let a = acc.clone();
            ctx.process_vertices(&["acc"], None, |v, c| {
                out.lock().unwrap()[(v - r.start) as usize] = c.get(&a, v);
                0u64
            })?;
            Ok((out.into_inner().unwrap(), stats))
        })
        .unwrap();
    let mut values = Vec::new();
    let mut merged = vec![PhaseStats::default(); iters];
    for (vals, stats) in per_node {
        values.extend(vals);
        for (m, s) in merged.iter_mut().zip(&stats) {
            m.merge(s);
        }
    }
    (values, merged)
}

#[test]
fn warm_iterations_read_strictly_fewer_bytes() {
    let g = graph();
    let (_, stats) = iterate(cache_cfg(1 << 30), &g, 3);
    // iteration 1 is cold: every loaded chunk is a miss
    assert!(stats[0].chunk_cache_misses > 0, "cold run must miss: {:?}", stats[0]);
    // warm iterations reuse every decoded chunk: phase-4 reads drop to the
    // message segments only, strictly below the cold iteration
    for (i, s) in stats.iter().enumerate().skip(1) {
        assert!(
            s.process_disk_read < stats[0].process_disk_read,
            "iteration {} read {} bytes, cold iteration read {}",
            i + 1,
            s.process_disk_read,
            stats[0].process_disk_read
        );
        assert!(s.chunk_cache_hits > 0, "iteration {} should hit", i + 1);
        assert_eq!(s.chunk_cache_misses, 0, "fits-all budget must not miss when warm");
        assert_eq!(s.chunk_cache_evicted_bytes, 0, "fits-all budget must not evict");
    }
}

#[test]
fn budget_zero_is_inert() {
    let g = graph();
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cache_cfg(0), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    assert!(cluster.chunk_cache_stats().is_empty(), "budget 0 must not allocate caches");
    let (_, stats) = iterate(cache_cfg(0), &g, 2);
    for s in &stats {
        assert_eq!(s.chunk_cache_hits, 0);
        assert_eq!(s.chunk_cache_misses, 0);
        assert_eq!(s.chunk_cache_evicted_bytes, 0);
    }
}

#[test]
fn tiny_budget_evicts_and_stays_correct() {
    let g = graph();
    let (baseline, _) = iterate(cache_cfg(0), &g, 3);
    let (vals, stats) = iterate(cache_cfg(16 << 10), &g, 3);
    assert_eq!(vals, baseline, "eviction must never change results");
    let evicted: u64 = stats.iter().map(|s| s.chunk_cache_evicted_bytes).sum();
    assert!(evicted > 0, "a 16 KB budget cannot hold this graph's chunks without evicting");
}

#[test]
fn resident_bytes_respect_the_budget() {
    let g = graph();
    let budget = 16 << 10;
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cache_cfg(budget), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    cluster
        .run(|ctx| {
            let acc = ctx.vertex_array::<u64>("acc")?;
            let a = acc.clone();
            ctx.process_edges(
                &[],
                &["acc"],
                None,
                |_v, _c| Some(1u64),
                move |m: u64, _s, d, _e: &(), cx| {
                    let cur = cx.get(&a, d);
                    cx.set(&a, d, cur + m);
                    0u64
                },
            )?;
            Ok(())
        })
        .unwrap();
    for (rank, s) in cluster.chunk_cache_stats().iter().enumerate() {
        assert!(
            s.resident_bytes <= budget,
            "rank {rank}: {} resident bytes over the {budget} budget",
            s.resident_bytes
        );
        assert!(s.inserted_bytes > 0, "rank {rank}: cache was never used");
    }
}

#[test]
fn results_identical_across_budget_matrix() {
    let g = graph();
    let (baseline, _) = iterate(cache_cfg(0), &g, 3);
    for budget in [16 << 10, 1 << 30] {
        let (vals, _) = iterate(cache_cfg(budget), &g, 3);
        assert_eq!(vals, baseline, "budget={budget}");
    }
}
