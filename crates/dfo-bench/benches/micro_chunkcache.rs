//! Chunk cache micro-benchmark: multi-iteration PageRank with the cache off
//! (budget 0, the fully-out-of-core behaviour) vs a fits-all budget.
//! Prints per-iteration disk read bytes and asserts that the cached run's
//! first iteration reads exactly what an uncached one does — every chunk
//! once — and that every later iteration reads strictly fewer bytes: the
//! cross-iteration chunk reuse the cache exists for.
//!
//! The printed `BENCH_3` line is the JSON committed as `BENCH_3.json` so
//! future PRs have a trajectory to compare against.

use criterion::{criterion_group, criterion_main, Criterion};
use dfo_bench::{fmt_bytes, fmt_secs, pagerank_with_stats, timed};
use dfo_core::Cluster;
use dfo_graph::gen::{rmat, GenConfig};
use dfo_types::{BatchPolicy, EngineConfig, PhaseStats};

const ITERS: usize = 5;

struct RunOut {
    /// *Physical* disk bytes read by the edge pipeline per iteration,
    /// cluster-wide (post-compression: what actually crossed the device).
    per_iter_read: Vec<u64>,
    /// *Logical* disk bytes read per iteration (pre-compression payload the
    /// pipeline consumed) — separates the cache win (fewer logical reads)
    /// from the compression win (physical < logical on what remains).
    per_iter_logical: Vec<u64>,
    wall_secs: f64,
    cache_hits: u64,
}

fn run(budget: u64) -> RunOut {
    let g = rmat(GenConfig::new(12, 8, 21));
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(256);
    cfg.disk_bw = Some(dfo_bench::DISK_BW);
    cfg.net_bw = Some(dfo_bench::NET_BW);
    cfg.chunk_cache_bytes = budget;
    let td = tempfile::TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let (per_node, wall_secs) =
        timed(|| cluster.run(|ctx| pagerank_with_stats(ctx, ITERS)).unwrap());
    let mut per_iter = vec![PhaseStats::default(); ITERS];
    for (_ranks, stats) in per_node {
        for (m, s) in per_iter.iter_mut().zip(&stats) {
            m.merge(s);
        }
    }
    let cache_hits = per_iter.iter().map(|s| s.chunk_cache_hits).sum();
    let per_iter_read = per_iter
        .iter()
        .map(|s| {
            s.generate_disk_read + s.pass_disk_read + s.dispatch_disk_read + s.process_disk_read
        })
        .collect();
    let per_iter_logical = per_iter.iter().map(|s| s.logical_disk_read).collect();
    RunOut { per_iter_read, per_iter_logical, wall_secs, cache_hits }
}

fn bench_chunk_cache(c: &mut Criterion) {
    let g = rmat(GenConfig::new(12, 8, 21));
    println!(
        "micro_chunkcache: |V|={}, |E|={}, {ITERS} PageRank iterations",
        g.n_vertices,
        g.n_edges()
    );

    let cold = run(0);
    let warm = run(1 << 30);

    // wall-time percentiles over repeated warm runs, through the same
    // dfo-obs histogram machinery the engine exports (warn-only in the
    // gate — CI wall-clock is noise, but the spread is worth seeing)
    const WALL_SAMPLES: usize = 7;
    let wall_hist = dfo_obs::Registry::new().histogram(
        "bench_wall_seconds",
        "micro_chunkcache fits-all wall time",
        &[],
        dfo_obs::DURATION_BUCKETS,
    );
    wall_hist.observe(warm.wall_secs);
    for _ in 1..WALL_SAMPLES {
        wall_hist.observe(run(1 << 30).wall_secs);
    }
    let snap = wall_hist.snapshot();
    let (p50, p99) = (snap.quantile(0.5).unwrap_or(0.0), snap.quantile(0.99).unwrap_or(0.0));
    println!(
        "fits-all wall percentiles over {WALL_SAMPLES} runs: p50={:.1}ms p99={:.1}ms",
        p50 * 1e3,
        p99 * 1e3
    );
    for (name, r) in [("budget 0", &cold), ("fits-all", &warm)] {
        let iters: Vec<String> = r.per_iter_read.iter().map(|&b| fmt_bytes(b)).collect();
        let logical: Vec<String> = r.per_iter_logical.iter().map(|&b| fmt_bytes(b)).collect();
        println!(
            "{name:>9}: wall {} | per-iteration edge-pipeline physical reads: [{}] | \
             logical reads: [{}] | cache hits {}",
            fmt_secs(r.wall_secs),
            iters.join(", "),
            logical.join(", "),
            r.cache_hits
        );
    }

    // a cold cache reads each chunk once, like no cache at all
    assert_eq!(
        warm.per_iter_read[0], cold.per_iter_read[0],
        "the fits-all run's first iteration must read exactly what budget 0 reads"
    );
    // the whole point: once the chunks are resident, every later iteration
    // reads strictly fewer disk bytes than the cold first one
    for (i, &bytes) in warm.per_iter_read.iter().enumerate().skip(1) {
        assert!(
            bytes < warm.per_iter_read[0],
            "cached iteration {} read {} bytes, iteration 1 read {}",
            i + 1,
            bytes,
            warm.per_iter_read[0]
        );
    }
    assert!(warm.cache_hits > 0, "fits-all budget never hit the cache");
    let total = |r: &RunOut| r.per_iter_read.iter().sum::<u64>();
    assert!(
        total(&warm) < total(&cold),
        "cached run must read fewer total bytes: {} vs {}",
        total(&warm),
        total(&cold)
    );

    let total_logical = |r: &RunOut| r.per_iter_logical.iter().sum::<u64>();
    println!(
        "BENCH_3 {{\"bench\":\"micro_chunkcache\",\"iters\":{ITERS},\
         \"budget0\":{{\"wall_secs\":{:.3},\"read_bytes_per_iter\":{:?},\"total_read_bytes\":{},\
         \"logical_read_bytes_per_iter\":{:?},\"total_logical_read_bytes\":{}}},\
         \"fits_all\":{{\"wall_secs\":{:.3},\"read_bytes_per_iter\":{:?},\"total_read_bytes\":{},\
         \"logical_read_bytes_per_iter\":{:?},\"total_logical_read_bytes\":{},\
         \"cache_hits\":{},\"wall_ms_p50\":{:.1},\"wall_ms_p99\":{:.1}}}}}",
        cold.wall_secs,
        cold.per_iter_read,
        total(&cold),
        cold.per_iter_logical,
        total_logical(&cold),
        warm.wall_secs,
        warm.per_iter_read,
        total(&warm),
        warm.per_iter_logical,
        total_logical(&warm),
        warm.cache_hits,
        p50 * 1e3,
        p99 * 1e3
    );

    let mut group = c.benchmark_group("chunk_cache");
    group.sample_size(2);
    group.bench_function("pagerank5/budget0", |b| b.iter(|| std::hint::black_box(run(0))));
    group.bench_function("pagerank5/fits_all", |b| b.iter(|| std::hint::black_box(run(1 << 30))));
    group.finish();
}

criterion_group!(benches, bench_chunk_cache);
criterion_main!(benches);
