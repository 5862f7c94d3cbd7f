//! Algorithm correctness on the DFOGraph engine vs exact oracles.

use dfo_algos::{bfs, embedding, label_propagation, pagerank, read_local, sssp, wcc};
use dfo_core::{Cluster, NodeCtx};
use dfo_graph::gen::{grid2d, rmat, uniform, web_chain, GenConfig};
use dfo_graph::EdgeList;
use dfo_types::{BatchPolicy, EngineConfig};
use tempfile::TempDir;

fn cfg(nodes: usize, batch: u64) -> EngineConfig {
    let mut c = EngineConfig::for_test(nodes);
    c.batch_policy = BatchPolicy::FixedVertices(batch);
    c
}

#[test]
fn pagerank_matches_oracle() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let want = dfo_algos::pagerank::pagerank_oracle(&g, 5);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(3, 64), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got: Vec<f64> = cluster
        .run(|ctx| {
            let rank = pagerank(ctx, 5)?;
            read_local(ctx, &rank)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(got.len(), want.len());
    for (v, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!((a - b).abs() < 1e-9, "vertex {v}: {a} vs {b}");
    }
}

/// The chunk cache must be invisible to algorithm results: PageRank (fixed
/// iteration count, f64 state) and BFS (data-dependent frontier,
/// seek-mode-prone sparse iterations) run bit-identically across cache
/// budgets.
#[test]
fn algorithms_bit_identical_across_chunk_cache_matrix() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let run = |budget: u64| -> (Vec<u64>, Vec<u32>) {
        let mut c = cfg(3, 64);
        c.chunk_cache_bytes = budget;
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(c, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let out = cluster
            .run(|ctx| {
                let rank = pagerank(ctx, 5)?;
                let pr = read_local(ctx, &rank)?;
                let level = bfs(ctx, 0)?;
                let lv = read_local(ctx, &level)?;
                Ok((pr, lv))
            })
            .unwrap();
        let mut pr_bits = Vec::new();
        let mut levels = Vec::new();
        for (pr, lv) in out {
            // compare f64 bit patterns: "identical" here means identical
            pr_bits.extend(pr.into_iter().map(f64::to_bits));
            levels.extend(lv);
        }
        (pr_bits, levels)
    };
    let baseline = run(0);
    for budget in [16 << 10, 1 << 30] {
        assert_eq!(run(budget), baseline, "budget={budget}");
    }
}

/// Chunk compression must likewise be invisible to algorithm results:
/// PageRank and BFS run bit-identically across the full
/// {compress on/off} × {chunk_cache_bytes 0/small/large} matrix — the
/// compressed arm exercises decode-before-cache, and BFS's sparse
/// iterations take the CSR seek mode in either layout.
#[test]
fn algorithms_bit_identical_across_compression_matrix() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let run = |compress: bool, budget: u64| -> (Vec<u64>, Vec<u32>) {
        let mut c = cfg(3, 64);
        c.compress_chunks = compress;
        c.chunk_cache_bytes = budget;
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(c, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let out = cluster
            .run(|ctx| {
                let rank = pagerank(ctx, 5)?;
                let pr = read_local(ctx, &rank)?;
                let level = bfs(ctx, 0)?;
                let lv = read_local(ctx, &level)?;
                Ok((pr, lv))
            })
            .unwrap();
        let mut pr_bits = Vec::new();
        let mut levels = Vec::new();
        for (pr, lv) in out {
            pr_bits.extend(pr.into_iter().map(f64::to_bits));
            levels.extend(lv);
        }
        (pr_bits, levels)
    };
    let baseline = run(false, 0);
    for compress in [false, true] {
        for budget in [0u64, 16 << 10, 1 << 30] {
            assert_eq!(run(compress, budget), baseline, "compress={compress} budget={budget}");
        }
    }
}

/// Seek mode into compressed chunks: with an eager γ every `ProcessEdges`
/// call of PageRank and of SSSP on a long chain seeks — single blocks of
/// the stored chunks fetched and decoded — where the default γ loads whole
/// chunks. Results must be bit-identical across {compress on, off} ×
/// {cache 0, fits-all} × {seek, load}, and seeking into compressed chunks
/// must read less in phase 4 than loading them, which reads exactly the
/// files of the chunks it touches.
#[test]
fn seek_mode_is_invisible_in_results_and_cheaper_on_compressed_chunks() {
    let unit = web_chain(40, 48, 5, 3, 9);
    let weighted: EdgeList<f32> =
        unit.map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 4 + 1) as f32);
    let run = |compress: bool, budget: u64, gamma: u64| -> (Vec<u64>, Vec<u32>, u64) {
        let mut c = cfg(2, 300);
        c.compress_chunks = compress;
        c.chunk_cache_bytes = budget;
        c.gamma = gamma;
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(c.clone(), td.path().join("unit")).unwrap();
        cluster.preprocess(&unit).unwrap();
        let pr = cluster
            .run(|ctx| {
                let rank = pagerank(ctx, 3)?;
                read_local(ctx, &rank)
            })
            .unwrap();
        let cluster = Cluster::create(c, td.path().join("weighted")).unwrap();
        cluster.preprocess(&weighted).unwrap();
        let out = cluster
            .run(|ctx| {
                let dist = sssp(ctx, 0)?;
                Ok((read_local(ctx, &dist)?, ctx.job_phase_stats().process_disk_read))
            })
            .unwrap();
        let out = pr.into_iter().zip(out).map(|(pr, (dist, read))| (pr, dist, read));
        let (mut pr_bits, mut dist_bits, mut sssp_read) = (Vec::new(), Vec::new(), 0);
        for (pr, dist, read) in out {
            pr_bits.extend(pr.into_iter().map(f64::to_bits));
            dist_bits.extend(dist.into_iter().map(f32::to_bits));
            sssp_read += read;
        }
        (pr_bits, dist_bits, sssp_read)
    };
    let (pr, dist, loaded) = run(true, 0, 1024);
    let reached = dist.iter().filter(|&&d| f32::from_bits(d).is_finite()).count();
    assert!(reached > dist.len() / 2, "SSSP must walk down the chain, reached {reached}");
    for compress in [true, false] {
        for budget in [0u64, 1 << 30] {
            let (pr_seek, dist_seek, seeked) = run(compress, budget, 1);
            assert_eq!((&pr_seek, &dist_seek), (&pr, &dist), "compress={compress} budget={budget}");
            if compress && budget == 0 {
                assert!(
                    seeked < loaded / 2,
                    "SSSP phase-4 reads: {seeked} B seeking, {loaded} B loading whole chunks"
                );
            }
        }
    }
}

#[test]
fn bfs_matches_oracle_on_rmat() {
    let g = rmat(GenConfig::new(9, 5, 13));
    let want = dfo_algos::bfs::bfs_oracle(&g, 0);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(2, 48), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got: Vec<u32> = cluster
        .run(|ctx| {
            let level = bfs(ctx, 0)?;
            read_local(ctx, &level)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(got, want);
}

#[test]
fn bfs_long_diameter_web_chain() {
    // the uk-2014-like regime: many sparse iterations
    let g = web_chain(40, 12, 2, 2, 5);
    let want = dfo_algos::bfs::bfs_oracle(&g, 0);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(2, 32), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got: Vec<u32> = cluster
        .run(|ctx| {
            let level = bfs(ctx, 0)?;
            read_local(ctx, &level)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(got, want);
}

#[test]
fn wcc_matches_union_find() {
    // two grids + isolated vertices => several components
    let g1 = grid2d(5, 6);
    let mut edges = g1.edges.clone();
    for e in &grid2d(4, 4).edges {
        edges.push(dfo_graph::Edge::new(e.src + 40, e.dst + 40, ()));
    }
    let g = EdgeList::new(64, edges);
    let sym = dfo_algos::wcc::symmetrize(&g);
    let want = dfo_algos::wcc::wcc_oracle(&g);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(2, 16), td.path()).unwrap();
    cluster.preprocess(&sym).unwrap();
    let got: Vec<u64> = cluster
        .run(|ctx| {
            let label = wcc(ctx)?;
            read_local(ctx, &label)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(got, want);
}

#[test]
fn sssp_matches_bellman_ford() {
    let g0 = uniform(200, 1200, 31);
    let g: EdgeList<f32> = g0.map_data(|e| ((e.src * 3 + e.dst) % 17 + 1) as f32);
    let want = dfo_algos::sssp::sssp_oracle(&g, 5);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(3, 32), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got: Vec<f32> = cluster
        .run(|ctx| {
            let dist = sssp(ctx, 5)?;
            read_local(ctx, &dist)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    for (v, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!(
            (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3,
            "vertex {v}: {a} vs {b}"
        );
    }
}

#[test]
fn engine_matches_baselines_cross_check() {
    // one graph, three independent implementations, one answer
    let g = rmat(GenConfig::new(8, 5, 99));
    let td = TempDir::new().unwrap();

    let cluster = Cluster::create(cfg(2, 32), td.path().join("dfo")).unwrap();
    cluster.preprocess(&g).unwrap();
    let dfo: Vec<u32> = cluster
        .run(|ctx| {
            let level = bfs(ctx, 0)?;
            read_local(ctx, &level)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();

    let bd = dfo_storage::NodeDisk::new(td.path().join("gg"), None, false).unwrap();
    let gg = dfo_baselines::GridGraphEngine::preprocess(bd, &g, 4).unwrap();
    let (grid, _) = gg.run_push(&dfo_baselines::bfs_spec(0)).unwrap();

    let bc =
        dfo_baselines::BaselineCluster::create(2, td.path().join("ch"), None, None, false).unwrap();
    let chaos = dfo_baselines::ChaosEngine::preprocess(bc, &g).unwrap();
    let (cs, _) = chaos.run_push(&dfo_baselines::bfs_spec(0)).unwrap();
    let chaos_flat: Vec<u32> = cs.into_iter().flatten().collect();

    assert_eq!(dfo, grid);
    assert_eq!(dfo, chaos_flat);
}

#[test]
fn label_propagation_converges() {
    let g = dfo_algos::wcc::symmetrize(&uniform(120, 500, 3));
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(2, 32), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let rounds = cluster
        .run(|ctx| {
            let (_labels, rounds) = label_propagation(ctx, 100)?;
            Ok(rounds as u64)
        })
        .unwrap();
    assert!(rounds[0] > 1 && rounds[0] < 100);
}

#[test]
fn embedding_propagation_shrinks_neighbour_distance() {
    let g = rmat(GenConfig::new(8, 6, 55));
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(2, 48), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let embs: Vec<embedding::Embedding> = cluster
        .run(|ctx| {
            let e = dfo_algos::embedding_propagation(ctx, 3, 0.5)?;
            read_local(ctx, &e)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    // propagation is a contraction: neighbours must be closer on average
    // than random pairs
    let dist = |a: &embedding::Embedding, b: &embedding::Embedding| -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
    };
    let mut neigh = 0.0f64;
    let mut cnt = 0;
    for e in g.edges.iter().take(2000) {
        if e.src != e.dst {
            neigh += dist(&embs[e.src as usize], &embs[e.dst as usize]) as f64;
            cnt += 1;
        }
    }
    neigh /= cnt as f64;
    let mut rand_d = 0.0f64;
    let mut rcnt = 0;
    for i in 0..2000u64 {
        let a = (i * 2654435761) % g.n_vertices;
        let b = (i * 40503 + 7) % g.n_vertices;
        if a != b {
            rand_d += dist(&embs[a as usize], &embs[b as usize]) as f64;
            rcnt += 1;
        }
    }
    rand_d /= rcnt as f64;
    assert!(
        neigh < rand_d * 0.9,
        "neighbours should be closer after propagation: {neigh} vs random {rand_d}"
    );
}

#[test]
fn pagerank_ranks_sum_near_one_minus_dangling_leak() {
    let g = uniform(150, 600, 8);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(2, 32), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got: Vec<f64> = cluster
        .run(|ctx| {
            let rank = pagerank(ctx, 5)?;
            read_local(ctx, &rank)
        })
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    let total: f64 = got.iter().sum();
    assert!(total > 0.3 && total <= 1.0 + 1e-9, "rank mass {total}");
}

/// Runs `job` on every rank of `cluster` on a thread of its own, failing
/// the test if it has not returned within `secs` (a deadlocked exchange
/// hangs, it does not fail): the ranks' results in rank order, and the
/// job's messages generated and sent, summed over ranks.
fn run_watched<T: Send + 'static>(
    cluster: Cluster,
    secs: u64,
    job: fn(&mut NodeCtx) -> dfo_types::Result<Vec<T>>,
) -> (Vec<T>, (u64, u64)) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let out = cluster.run(|ctx| {
            let local = job(ctx)?;
            let s = ctx.job_phase_stats();
            Ok((local, (s.messages_generated, s.messages_sent)))
        });
        tx.send(out.unwrap())
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(secs))
        .unwrap_or_else(|e| panic!("no result within {secs} s ({e}): an exchange deadlocked?"));
    let counts = out.iter().fold((0, 0), |a, (_, s)| (a.0 + s.0, a.1 + s.1));
    (out.into_iter().flat_map(|(local, _)| local).collect(), counts)
}

/// Whether a rank's exchange runs on its calling thread is decided per rank
/// and per call, by whether all it sends fits one 256 KiB frame per peer.
/// On a star whose hub sits in a small partition 0 and whose leaves fill two
/// large partitions 1 and 2, the round in which every leaf signals has rank
/// 0 sending one frame (and receiving many) inline while ranks 1 and 2
/// stream several frames from sender threads. SSSP, BFS and WCC must still
/// give the oracle's results bit for bit and the message counts the graph
/// implies.
#[test]
fn one_frame_and_multi_frame_exchanges_mix_in_one_round() {
    const FRAME: u64 = 256 << 10;
    let n = 150_000u64;
    let edges =
        (1..n).flat_map(|v| [dfo_graph::Edge::new(0, v, ()), dfo_graph::Edge::new(v, 0, ())]);
    let star = EdgeList::new(n, edges.collect());
    let weighted: EdgeList<f32> =
        star.map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 4 + 1) as f32);
    let mut c = cfg(3, 20_000);
    // hub weight ≈ 2n against a total of ≈ 7n: partition 0 is the hub and
    // about n / 15 leaves
    c.alpha = Some(3);
    let td = TempDir::new().unwrap();
    let cluster = |dir: &str| Cluster::create(c.clone(), td.path().join(dir)).unwrap();
    let unit = cluster("unit");
    let parts = unit.preprocess(&star).unwrap().partitions;
    let (n0, n1, n2) = (parts[0].len(), parts[1].len(), parts[2].len());
    // records are 4 (BFS), 8 (SSSP) and 12 (WCC) bytes
    assert!(12 * n0 <= FRAME && 4 * n1.min(n2) > FRAME, "partitions {n0}, {n1}, {n2}");

    // the hub → every peer, filtered to the hub alone; then every leaf of
    // partitions 1 and 2 → the hub (partition 0's leaves reach no peer)
    let one_hop = (n, 2 + n - n0);
    let (levels, counts) = run_watched(unit, 600, |ctx| {
        let level = bfs(ctx, 0)?;
        read_local(ctx, &level)
    });
    assert_eq!(levels, dfo_algos::bfs::bfs_oracle(&star, 0));
    assert_eq!(counts, one_hop, "BFS (generated, sent)");

    let weighted_cluster = cluster("weighted");
    weighted_cluster.preprocess(&weighted).unwrap();
    let (dist, counts) = run_watched(weighted_cluster, 600, |ctx| {
        let dist = sssp(ctx, 0)?;
        read_local(ctx, &dist)
    });
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&dist), bits(&dfo_algos::sssp::sssp_oracle(&weighted, 0)));
    assert_eq!(counts, one_hop, "SSSP (generated, sent)");

    // every vertex signals, then every leaf once more with the hub's label
    let wcc_cluster = cluster("wcc");
    wcc_cluster.preprocess(&star).unwrap();
    let (labels, counts) = run_watched(wcc_cluster, 600, |ctx| {
        let label = wcc(ctx)?;
        read_local(ctx, &label)
    });
    assert_eq!(labels, dfo_algos::wcc::wcc_oracle(&star));
    assert_eq!(counts, (2 * n - 1, 2 + 2 * (n - n0)), "WCC (generated, sent)");
}
