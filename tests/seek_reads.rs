//! Seek mode reads a stored block once per job. SSSP on a chain of
//! communities seeks every round, and each round replays a hub, whose
//! edges may end just before a block boundary, ahead of its members behind
//! it: a job that kept one block per column fetched both blocks again every
//! round, reading its stored chunks about ten times over. Kept two per
//! column, a warm job reads no more chunk and dispatch bytes than those
//! files store, compressed or raw, and finds the distances full loads find.

use dfograph::algos::{read_local, sssp};
use dfograph::core::Cluster;
use dfograph::graph::gen::web_chain;
use dfograph::graph::EdgeList;
use dfograph::storage::{FileClass, NodeDisk};
use dfograph::types::{BatchPolicy, EngineConfig, ReprKind};
use tempfile::TempDir;

/// The benchmark's `sssp_chain` graph and weights, at seed 7.
fn chain() -> EdgeList<f32> {
    web_chain(260, 96, 5, 3, 7)
        .map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 4 + 1) as f32)
}

/// The benchmark's shape: 2 ranks of 1 thread, 5,000-vertex batches, no
/// chunk cache, 64 MiB.
fn config(compress: bool, repr: Option<ReprKind>) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(2);
    cfg.threads_per_node = 1;
    cfg.batch_policy = BatchPolicy::FixedVertices(5_000);
    cfg.chunk_cache_bytes = 0;
    cfg.mem_budget = 64 << 20;
    cfg.compress_chunks = compress;
    cfg.repr_override = repr;
    cfg
}

/// Bytes the files under `dir` of every rank's root store.
fn stored(disks: &[NodeDisk], dir: &str) -> u64 {
    let files = disks.iter().flat_map(|d| std::fs::read_dir(d.root().join(dir)).unwrap());
    files.map(|f| f.unwrap().metadata().unwrap().len()).sum()
}

/// Distances of a warm SSSP job from vertex 0 — the second on a freshly
/// preprocessed cluster — with the chunk- and dispatch-class bytes it read
/// and the bytes those files store.
fn warm_sssp(g: &EdgeList<f32>, cfg: EngineConfig) -> (Vec<f32>, u64, u64) {
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(g).unwrap();
    let job = || {
        let dist = cluster.run(|ctx| {
            let dist = sssp(ctx, 0)?;
            read_local(ctx, &dist)
        });
        dist.unwrap().concat()
    };
    job();
    cluster.reset_disk_stats();
    let dist = job();
    let disks = cluster.disks();
    let class = |c| disks.iter().map(|d| d.stats().class(c).read_bytes.get()).sum::<u64>();
    let read = class(FileClass::Chunk) + class(FileClass::Dispatch);
    (dist, read, stored(disks, "chunks") + stored(disks, "dispatch"))
}

#[test]
fn a_warm_sssp_job_reads_no_more_chunk_bytes_than_are_stored() {
    let g = chain();
    // full loads only, each chunk decoded once into a cache that holds all
    let mut full = config(true, Some(ReprKind::Dcsr));
    full.chunk_cache_bytes = 1 << 30;
    let (loaded, ..) = warm_sssp(&g, full);
    let reached = loaded.iter().filter(|d| d.is_finite()).count() as u64;
    assert!(reached > g.n_vertices / 2, "{reached} of {} vertices reached", g.n_vertices);
    for compress in [true, false] {
        let (dist, read, stored) = warm_sssp(&g, config(compress, None));
        let same = dist.iter().zip(&loaded).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same && dist.len() == loaded.len(), "compress={compress}: distances differ");
        assert!(read <= stored, "compress={compress}: read {read} B of {stored} B stored");
        assert!(read > 0, "compress={compress}: the job seeks");
    }
}
