//! End-to-end engine tests: the full four-phase pipeline against
//! brute-force oracles, across cluster sizes, batch sizes, dispatch
//! strategies and representations.

use dfo_core::Cluster;
use dfo_graph::edge::{Edge, EdgeList};
use dfo_graph::gen::{rmat, uniform, GenConfig};
use dfo_part::csr::IndexedChunk;
use dfo_part::preprocess::paths;
use dfo_types::{BatchPolicy, DispatchKind, EngineConfig, ReprKind, VertexId};
use tempfile::TempDir;

/// In-degree via the engine: every vertex signals 1 along out-edges.
fn engine_in_degrees(cfg: EngineConfig, g: &EdgeList<()>) -> Vec<u64> {
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    let plan = cluster.preprocess(g).unwrap();
    let results = cluster
        .run(|ctx| {
            let deg = ctx.vertex_array::<u64>("deg")?;
            ctx.process_edges(
                &[],
                &["deg"],
                None,
                |_v, _c| Some(1u64),
                |msg, _s, dst, _d: &(), c| {
                    let cur = c.get(&deg, dst);
                    c.set(&deg, dst, cur + msg);
                    1u64
                },
            )?;
            // read the array back out for verification
            let r = ctx.plan().partitions[ctx.rank()];
            let mut out = vec![0u64; r.len() as usize];
            let handle = deg.clone();
            ctx.process_vertices(&["deg"], None, |v, c| {
                // collected below via a second pass; here just touch
                let _ = c.get(&handle, v);
                0u64
            })?;
            // direct read through a per-batch sweep
            let deg2 = deg.clone();
            let collected = std::sync::Mutex::new(&mut out);
            ctx.process_vertices(&["deg"], None, |v, c| {
                let val = c.get(&deg2, v);
                collected.lock().unwrap()[(v - r.start) as usize] = val;
                0u64
            })?;
            Ok(out)
        })
        .unwrap();
    assert_eq!(plan.nodes(), results.len());
    results.into_iter().flatten().collect()
}

fn brute_in_degrees(g: &EdgeList<()>) -> Vec<u64> {
    let mut d = vec![0u64; g.n_vertices as usize];
    for e in &g.edges {
        d[e.dst as usize] += 1;
    }
    d
}

#[test]
fn in_degrees_match_on_figure1_graph() {
    let g = EdgeList::new(
        7,
        vec![
            Edge::new(0, 5, ()),
            Edge::new(0, 6, ()),
            Edge::new(1, 2, ()),
            Edge::new(2, 4, ()),
            Edge::new(2, 5, ()),
            Edge::new(4, 3, ()),
            Edge::new(5, 0, ()),
            Edge::new(5, 4, ()),
            Edge::new(6, 5, ()),
        ],
    );
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(2);
    assert_eq!(engine_in_degrees(cfg, &g), brute_in_degrees(&g));
}

#[test]
fn in_degrees_match_on_rmat_various_cluster_sizes() {
    let g = rmat(GenConfig::new(9, 6, 11));
    let want = brute_in_degrees(&g);
    for nodes in [1, 2, 3, 5] {
        let mut cfg = EngineConfig::for_test(nodes);
        cfg.batch_policy = BatchPolicy::FixedVertices(37);
        assert_eq!(engine_in_degrees(cfg, &g), want, "nodes={nodes}");
    }
}

#[test]
fn in_degrees_match_without_filtering() {
    let g = uniform(300, 2000, 3);
    let want = brute_in_degrees(&g);
    let mut cfg = EngineConfig::for_test(3);
    cfg.filtering_enabled = false;
    assert_eq!(engine_in_degrees(cfg, &g), want);
}

/// Regression for the `micro_filter` bench bug: with the §4.3 skip rule out
/// of the way, an engaged filter must actually move fewer wire bytes than
/// no filtering, while producing the same answer. (A sparse uniform graph
/// guarantees most sources lack edges to most partitions, so the filter
/// lists have something to drop.)
#[test]
fn engaged_filtering_reduces_wire_bytes() {
    let g = uniform(400, 700, 9);
    let want = brute_in_degrees(&g);
    let mut bytes_by_mode = Vec::new();
    for filtering in [true, false] {
        let mut cfg = EngineConfig::for_test(3);
        cfg.batch_policy = BatchPolicy::FixedVertices(64);
        cfg.filtering_enabled = filtering;
        cfg.filter_skip_ratio = f64::INFINITY; // never skip: always engage
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let results = cluster
            .run(|ctx| {
                let deg = ctx.vertex_array::<u64>("deg")?;
                ctx.process_edges(
                    &[],
                    &["deg"],
                    None,
                    |_v, _c| Some(1u64),
                    |msg, _s, dst, _d: &(), c| {
                        let cur = c.get(&deg, dst);
                        c.set(&deg, dst, cur + msg);
                        1u64
                    },
                )?;
                let r = ctx.plan().partitions[ctx.rank()];
                let mut out = vec![0u64; r.len() as usize];
                let h = deg.clone();
                let sink = std::sync::Mutex::new(&mut out);
                ctx.process_vertices(&["deg"], None, |v, c| {
                    let val = c.get(&h, v);
                    sink.lock().unwrap()[(v - r.start) as usize] = val;
                    0u64
                })?;
                Ok(out)
            })
            .unwrap();
        let got: Vec<u64> = results.into_iter().flatten().collect();
        assert_eq!(got, want, "filtering={filtering} must not change the answer");
        bytes_by_mode.push(cluster.total_net_sent());
    }
    assert!(
        bytes_by_mode[0] < bytes_by_mode[1],
        "filtering on ({}) must move fewer wire bytes than off ({})",
        bytes_by_mode[0],
        bytes_by_mode[1]
    );
}

#[test]
fn in_degrees_match_under_forced_strategies() {
    let g = uniform(200, 1500, 5);
    let want = brute_in_degrees(&g);
    for kind in [DispatchKind::Push, DispatchKind::None] {
        let mut cfg = EngineConfig::for_test(2);
        cfg.dispatch_override = Some(kind);
        assert_eq!(engine_in_degrees(cfg, &g), want, "dispatch {kind:?}");
    }
    for repr in [ReprKind::Csr, ReprKind::Dcsr] {
        let mut cfg = EngineConfig::for_test(2);
        cfg.repr_override = Some(repr);
        assert_eq!(engine_in_degrees(cfg, &g), want, "repr {repr:?}");
    }
}

#[test]
fn in_degrees_match_with_seek_mode_gamma() {
    // gamma=1 makes the engine take the positioned-read CSR seek path
    // wherever a CSR exists and its index spans few enough blocks — into
    // compressed chunks (the default) like into raw ones
    let g = uniform(300, 2500, 21);
    let want = brute_in_degrees(&g);
    let mut cfg = EngineConfig::for_test(2);
    cfg.gamma = 1;
    cfg.batch_policy = BatchPolicy::FixedVertices(32);
    assert_eq!(engine_in_degrees(cfg, &g), want);
}

#[test]
fn sparse_frontier_with_seek_mode_matches() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let mut cfg = EngineConfig::for_test(2);
    cfg.gamma = 2;
    cfg.batch_policy = BatchPolicy::FixedVertices(64);
    // oracle over one-hop frontier of vertex 0
    let expect: u64 = g.edges.iter().filter(|e| e.src == 0).count() as u64;
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got = cluster
        .run(|ctx| {
            let active = ctx.vertex_array::<bool>("active")?;
            let a = active.clone();
            ctx.process_vertices(&["active"], None, move |v, c| {
                c.set(&a, v, v == 0);
                0u64
            })?;
            let count = ctx.process_edges(
                &[],
                &[],
                Some(&active),
                |_v, _c| Some(1u8),
                |_m: u8, src, _d, _e: &(), _c| {
                    assert_eq!(src, 0);
                    1u64
                },
            )?;
            // on-disk size of the chunks vertex 0's message reaches on this
            // rank: what phase 4 would read if it loaded them whole
            let p0 = ctx.plan().partition_of(0);
            let mut reached_bytes = 0u64;
            for c in
                ctx.plan().node_meta[ctx.rank()].chunks.iter().filter(|c| c.src_partition == p0)
            {
                let rel = paths::chunk(c.src_partition, c.batch);
                let chunk =
                    IndexedChunk::<()>::read_from(&mut ctx.disk().open_framed(&rel)?, None)?;
                if chunk.dcsr_src.contains(&0) {
                    reached_bytes += ctx.disk().len(&rel)?;
                }
            }
            Ok((count, ctx.last_phase_stats().process_disk_read, reached_bytes))
        })
        .unwrap();
    assert_eq!(got[0].0, expect);
    let read: u64 = got.iter().map(|r| r.1).sum();
    let reached: u64 = got.iter().map(|r| r.2).sum();
    assert!(reached > 0, "vertex 0 has out-edges");
    assert!(
        read < reached,
        "seek mode must read less in phase 4 ({read} B) than the chunks it reaches hold \
         ({reached} B)"
    );
}

#[test]
fn in_degrees_match_with_tiny_batches_and_many_threads() {
    let g = rmat(GenConfig::new(8, 4, 2));
    let want = brute_in_degrees(&g);
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(3);
    cfg.threads_per_node = 4;
    assert_eq!(engine_in_degrees(cfg, &g), want);
}

/// Weighted SSSP on the engine vs Bellman-Ford, exercising active sets,
/// signal-side writes and multi-iteration convergence — the paper's
/// Figure 2b program almost verbatim.
#[test]
fn sssp_matches_bellman_ford() {
    let base = uniform(150, 900, 17);
    let g: EdgeList<f32> = base.map_data(|e| ((e.src * 7 + e.dst * 13) % 29 + 1) as f32);

    // oracle
    let mut dist = vec![f32::INFINITY; g.n_vertices as usize];
    dist[0] = 0.0;
    for _ in 0..g.n_vertices {
        let mut changed = false;
        for e in &g.edges {
            let nd = dist[e.src as usize] + e.data;
            if nd < dist[e.dst as usize] {
                dist[e.dst as usize] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut cfg = EngineConfig::for_test(3);
    cfg.batch_policy = BatchPolicy::FixedVertices(16);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let got: Vec<Vec<f32>> = cluster
        .run(|ctx| {
            let dist = ctx.vertex_array::<f32>("dist")?;
            let active = ctx.vertex_array::<bool>("active")?;
            let (d, a) = (dist.clone(), active.clone());
            ctx.process_vertices(&["dist", "active"], None, |v, c| {
                if v == 0 {
                    c.set(&a, v, true);
                    c.set(&d, v, 0.0);
                } else {
                    c.set(&a, v, false);
                    c.set(&d, v, f32::INFINITY);
                }
                0u64
            })?;
            loop {
                let (d1, a1) = (dist.clone(), active.clone());
                let (d2, a2) = (dist.clone(), active.clone());
                let n_update = ctx.process_edges(
                    &["dist", "active"],
                    &["dist", "active"],
                    Some(&active),
                    move |v, c| {
                        c.set(&a1, v, false);
                        Some(c.get(&d1, v))
                    },
                    move |msg: f32, _src, dst, w: &f32, c| {
                        if msg + w < c.get(&d2, dst) {
                            c.set(&a2, dst, true);
                            c.set(&d2, dst, msg + w);
                            1u64
                        } else {
                            0u64
                        }
                    },
                )?;
                if n_update == 0 {
                    break;
                }
            }
            let r = ctx.plan().partitions[ctx.rank()];
            let mut out = vec![0f32; r.len() as usize];
            let dd = dist.clone();
            let sink = std::sync::Mutex::new(&mut out);
            ctx.process_vertices(&["dist"], None, |v, c| {
                let val = c.get(&dd, v);
                sink.lock().unwrap()[(v - r.start) as usize] = val;
                0u64
            })?;
            Ok(out)
        })
        .unwrap();
    let got: Vec<f32> = got.into_iter().flatten().collect();
    for (v, (a, b)) in got.iter().zip(&dist).enumerate() {
        assert!(
            (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3,
            "vertex {v}: engine {a}, oracle {b}"
        );
    }
}

/// Selective scheduling: with only one active vertex, only its messages may
/// flow, and slot must fire exactly out_degree(v) times.
#[test]
fn single_active_vertex_touches_only_its_edges() {
    let g = rmat(GenConfig::new(8, 4, 23));
    let hub: VertexId = {
        // pick the vertex with the most out-edges
        let mut d = vec![0u32; g.n_vertices as usize];
        for e in &g.edges {
            d[e.src as usize] += 1;
        }
        d.iter().enumerate().max_by_key(|(_, &x)| x).unwrap().0 as VertexId
    };
    let out_deg = g.edges.iter().filter(|e| e.src == hub).count() as u64;

    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(8);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let slot_calls = cluster
        .run(|ctx| {
            let active = ctx.vertex_array::<bool>("active")?;
            let a = active.clone();
            ctx.process_vertices(&["active"], None, move |v, c| {
                c.set(&a, v, v == hub);
                0u64
            })?;
            ctx.process_edges(
                &[],
                &[],
                Some(&active),
                |_v, _c| Some(1u8),
                |_m: u8, src, _dst, _d: &(), _c| {
                    assert_eq!(src, hub, "slot fired for an inactive source");
                    1u64
                },
            )
        })
        .unwrap();
    assert_eq!(slot_calls[0], out_deg);
}

/// Messages must arrive even when the graph has edges in only one direction
/// between two specific nodes (regression guard for stream pairing).
#[test]
fn asymmetric_traffic_pattern() {
    // all edges flow 0 -> partition of the highest vertices
    let edges: Vec<Edge<()>> = (0..50).map(|i| Edge::new(i % 10, 90 + i % 10, ())).collect();
    let g = EdgeList::new(100, edges);
    let want = brute_in_degrees(&g);
    let mut cfg = EngineConfig::for_test(4);
    cfg.batch_policy = BatchPolicy::FixedVertices(7);
    assert_eq!(engine_in_degrees(cfg, &g), want);
}

/// ProcessVertices sums its work return values across the cluster.
#[test]
fn process_vertices_accumulates_globally() {
    let g = uniform(123, 400, 9);
    let cfg = EngineConfig::for_test(3);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let sums = cluster
        .run(|ctx| {
            let _x = ctx.vertex_array::<u32>("x")?;
            ctx.process_vertices(&["x"], None, |_v, _c| 1u64)
        })
        .unwrap();
    assert!(sums.iter().all(|&s| s == 123));
}

/// Self-loops and duplicate edges must be preserved (multigraph semantics:
/// one slot call per edge).
#[test]
fn multigraph_and_self_loops() {
    let g = EdgeList::new(
        6,
        vec![
            Edge::new(2, 2, ()),
            Edge::new(2, 2, ()),
            Edge::new(0, 5, ()),
            Edge::new(0, 5, ()),
            Edge::new(0, 5, ()),
            Edge::new(4, 1, ()),
        ],
    );
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(2);
    let got = engine_in_degrees(cfg, &g);
    assert_eq!(got, vec![0, 1, 2, 0, 0, 3]);
}

/// Empty graphs and graphs with no active vertices terminate cleanly.
#[test]
fn empty_active_set_is_a_noop() {
    let g = uniform(64, 256, 1);
    let cfg = EngineConfig::for_test(2);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let res = cluster
        .run(|ctx| {
            let active = ctx.vertex_array::<bool>("active")?;
            // nobody active
            ctx.process_edges(
                &[],
                &[],
                Some(&active),
                |_v, _c| Some(1u8),
                |_m: u8, _s, _d, _e: &(), _c| 1u64,
            )
        })
        .unwrap();
    assert_eq!(res, vec![0, 0]);
}

/// Two consecutive ProcessEdges calls must not leak state (message files,
/// stream tags) into each other.
#[test]
fn consecutive_calls_are_isolated() {
    let g = uniform(100, 700, 8);
    let want = brute_in_degrees(&g);
    let cfg = EngineConfig::for_test(2);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let rounds = cluster
        .run(|ctx| {
            let deg = ctx.vertex_array::<u64>("deg")?;
            let mut totals = Vec::new();
            for _ in 0..3 {
                let d = deg.clone();
                // reset
                ctx.process_vertices(&["deg"], None, {
                    let d = d.clone();
                    move |v, c| {
                        c.set(&d, v, 0);
                        0u64
                    }
                })?;
                ctx.process_edges(&[], &["deg"], None, |_v, _c| Some(1u64), {
                    let d = d.clone();
                    move |m: u64, _s, dst, _e: &(), c| {
                        let cur = c.get(&d, dst);
                        c.set(&d, dst, cur + m);
                        m
                    }
                })
                .map(|t: u64| totals.push(t))?;
            }
            Ok(totals)
        })
        .unwrap();
    let expected: u64 = want.iter().sum();
    for node_totals in rounds {
        assert_eq!(node_totals, vec![expected; 3]);
    }
}

/// A cooperative cancel is a collective unwind: when one rank's token has
/// fired, **every** rank returns `Cancelled` — no rank may see the mesh
/// poisoned (`NetClosed`) because a peer unwound a moment earlier.
#[test]
fn pre_fired_cancel_token_cancels_every_rank_and_never_poisons() {
    use dfo_types::DfoError;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    const NODES: usize = 3;
    let g = uniform(96, 400, 9);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(EngineConfig::for_test(NODES), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    for round in 0..240 {
        let cancelled = AtomicUsize::new(0);
        let res = cluster.run(|ctx| {
            // only one rank's token is set; the rest learn of it collectively
            let fired = ctx.rank() == round % NODES;
            ctx.set_cancel_token(Arc::new(AtomicBool::new(fired)));
            let x = ctx.vertex_array::<u64>("x")?;
            let out = ctx.process_vertices(&["x"], None, move |v, c| {
                c.set(&x, v, 1);
                0u64
            });
            if matches!(out, Err(DfoError::Cancelled(_))) {
                cancelled.fetch_add(1, Ordering::Relaxed);
            }
            out
        });
        assert!(matches!(res, Err(DfoError::Cancelled(_))), "round {round}: {res:?}");
        let n = cancelled.load(Ordering::Relaxed);
        assert_eq!(n, NODES, "round {round}: only {n} of {NODES} ranks returned Cancelled");
    }
}

/// `mem_budget` so small that the pool of resident blocks, message chunks
/// and filter lists holds nothing: the fully-out-of-core engine.
const NO_POOLS: u64 = 1;

/// Every disk byte a `ProcessEdges` call moves shows up in exactly one disk
/// field of its [`dfo_types::PhaseStats`] — with the pool at its default
/// size and at zero, under both dispatch strategies, with and without
/// checkpoints — and the pool only ever removes bytes.
#[test]
fn phase_stats_account_for_every_disk_byte() {
    let g = rmat(GenConfig::new(9, 8, 31));
    let want = brute_in_degrees(&g);
    for dispatch in [None, Some(DispatchKind::Push), Some(DispatchKind::None)] {
        for checkpointing in [false, true] {
            let mut moved = Vec::new();
            for mem_budget in [EngineConfig::for_test(3).mem_budget, NO_POOLS] {
                let mut cfg = EngineConfig::for_test(3);
                cfg.dispatch_override = dispatch;
                cfg.checkpointing = checkpointing;
                cfg.mem_budget = mem_budget;
                let td = TempDir::new().unwrap();
                let cluster = Cluster::create(cfg, td.path()).unwrap();
                cluster.preprocess(&g).unwrap();
                let per_rank = cluster
                    .run(|ctx| {
                        let deg = ctx.vertex_array::<u64>("deg")?;
                        let mut calls = Vec::new();
                        for _ in 0..2 {
                            let before = ctx.disk().stats().total_bytes();
                            ctx.process_edges(&[], &["deg"], None, |_v, _c| Some(1u64), {
                                let d = deg.clone();
                                move |m: u64, _s, dst, _e: &(), c| {
                                    let cur = c.get(&d, dst);
                                    c.set(&d, dst, cur + m);
                                    0u64
                                }
                            })?;
                            let delta = ctx.disk().stats().total_bytes() - before;
                            calls.push((ctx.last_phase_stats().clone(), delta));
                        }
                        Ok((read_u64_array(ctx, &deg)?, calls))
                    })
                    .unwrap();
                let mut degs = Vec::new();
                let mut total = 0;
                for (d, calls) in per_rank {
                    degs.extend(d);
                    for (stats, delta) in calls {
                        assert_eq!(
                            stats.total_disk(),
                            delta,
                            "{dispatch:?} ckpt={checkpointing} mem_budget={mem_budget}: {stats:?}"
                        );
                        if mem_budget == NO_POOLS {
                            // every generated record went to its scratch file
                            assert!(stats.generate_disk_write >= 12 * stats.messages_generated);
                            assert!(stats.pass_disk_read >= 12 * stats.messages_generated);
                        }
                        total += delta;
                    }
                }
                assert_eq!(degs, want.iter().map(|d| 2 * d).collect::<Vec<_>>());
                moved.push(total);
            }
            assert!(
                moved[0] < moved[1],
                "{dispatch:?} ckpt={checkpointing}: pools moved {} bytes, no pools {}",
                moved[0],
                moved[1]
            );
        }
    }
}

/// This rank's slice of a `u64` array, in vertex order.
fn read_u64_array(
    ctx: &mut dfo_core::NodeCtx,
    arr: &dfo_core::VertexArray<u64>,
) -> dfo_types::Result<Vec<u64>> {
    let r = ctx.plan().partitions[ctx.rank()];
    let out = std::sync::Mutex::new(vec![0u64; r.len() as usize]);
    ctx.process_vertices(&[arr.name()], None, |v, c| {
        out.lock().unwrap()[(v - r.start) as usize] = c.get(arr, v);
        0u64
    })?;
    Ok(out.into_inner().unwrap())
}

/// One `ProcessEdges` call that folds each message into `mix[dst]` in
/// arrival order, so results pin the order too. The active sources are one
/// run of neighbours per partition, whose index and edges share a block per
/// column (`dense`: every vertex). Returns the chunk-file reads it issued.
fn mix_call(ctx: &mut dfo_core::NodeCtx, dense: bool) -> dfo_types::Result<u64> {
    let (active, mix) = (ctx.vertex_array::<bool>("active")?, ctx.vertex_array::<u64>("mix")?);
    let a = active.clone();
    ctx.process_vertices(&["active"], None, move |v, c| {
        c.set(&a, v, dense || (100..104).contains(&v) || (20_000..20_004).contains(&v));
        0u64
    })?;
    let chunk_reads = |ctx: &dfo_core::NodeCtx| {
        ctx.disk().stats().class(dfo_storage::FileClass::Chunk).read_ops.get()
    };
    let before = chunk_reads(ctx);
    let m = mix.clone();
    ctx.process_edges(
        &[],
        &["mix"],
        Some(&active),
        |v, _| Some(v),
        move |msg: u64, _, dst, _: &(), c| {
            let folded = c.get(&m, dst).wrapping_mul(31).wrapping_add(msg);
            c.set(&m, dst, folded);
            0u64
        },
    )?;
    Ok(chunk_reads(ctx) - before)
}

/// Seek-mode readers outlive the call that opened them: a sparse call
/// repeated over the same sources finds every block it needs in the
/// seekers the first one left and reads no chunk file; a dense call in
/// between uses none and releases them, so the sparse call after it
/// reopens them (and reads what the first did). Every result equals a run
/// whose calls each start from fresh seekers.
#[test]
fn seekers_are_held_across_sparse_calls_and_released_by_a_dense_one() {
    // 12.5 k sources per partition: a run of four active sources seeks at
    // the default γ, all of them load
    let g = dfo_graph::gen::web_chain(260, 96, 5, 3, 7);
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(5_000);
    let calls = [false, false, true, false];
    let td = TempDir::new().unwrap();
    let held = Cluster::create(cfg.clone(), td.path().join("held")).unwrap();
    held.preprocess(&g).unwrap();
    let out = held
        .run(|ctx| {
            let mut reads = Vec::new();
            for &dense in &calls {
                reads.push(mix_call(ctx, dense)?);
            }
            let mix = ctx.vertex_array::<u64>("mix")?;
            Ok((reads, read_u64_array(ctx, &mix)?))
        })
        .unwrap();
    for (rank, (reads, _)) in out.iter().enumerate() {
        assert!(reads[0] > 0 && reads[2] > 0, "rank {rank}: chunk reads per call {reads:?}");
        assert_eq!(
            (reads[1], reads[3]),
            (0, reads[0]),
            "rank {rank}: chunk reads per call {reads:?}"
        );
    }

    let fresh = Cluster::create(cfg, td.path().join("fresh")).unwrap();
    fresh.preprocess(&g).unwrap();
    for &dense in &calls {
        fresh.run(|ctx| mix_call(ctx, dense)).unwrap();
    }
    let mix = fresh
        .run(|ctx| {
            let mix = ctx.vertex_array::<u64>("mix")?;
            read_u64_array(ctx, &mix)
        })
        .unwrap();
    assert_eq!(out.into_iter().map(|(_, m)| m).collect::<Vec<_>>(), mix);
}

/// A peer's stream framing is checked, not trusted: rank 1 hand-sends a
/// malformed stream on the tag of rank 0's first `ProcessEdges` call, and
/// that call fails with a `Corrupt` error naming the peer — in release
/// builds too, and whatever dispatch strategy the stream gets.
#[test]
fn malformed_peer_streams_are_corrupt_errors() {
    let g = rmat(GenConfig::new(8, 4, 3));
    // a 3-byte header; a valid header followed by a 5-byte frame, which is
    // no whole number of 12-byte (u32 source, u64 message) records
    let header = 1u64.to_le_bytes().to_vec();
    let cases = [(vec![vec![0u8; 3]], None), (vec![header.clone(), vec![0; 5]], None)];
    let dispatch = [Some(DispatchKind::Push), Some(DispatchKind::None)]
        .map(|kind| (vec![header.clone(), vec![0; 5]], kind));
    for (frames, kind) in cases.into_iter().chain(dispatch) {
        let mut cfg = EngineConfig::for_test(2);
        cfg.dispatch_override = kind;
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let res = cluster.run(|ctx| {
            if ctx.rank() == 1 {
                for f in &frames {
                    ctx.net().send(0, 0, bytes::Bytes::copy_from_slice(f), false)?;
                }
                ctx.net().finish_stream(0, 0)?;
                // drain rank 0's stream, so it never sends to a closed peer
                ctx.net().recv_all(0, 0)?;
                return Ok(());
            }
            ctx.vertex_array::<u64>("acc")?;
            ctx.process_edges(
                &[],
                &["acc"],
                None,
                |_, _| Some(1u64),
                |_m: u64, _, _, _: &(), _| 0u64,
            )
            .map(drop)
        });
        match res {
            Err(dfo_types::DfoError::Corrupt(msg)) => {
                assert!(msg.contains("rank 1"), "{kind:?}: {msg}")
            }
            other => panic!("{kind:?} {:?}: want Corrupt, got {other:?}", frames[0].len()),
        }
    }
}

/// A filter list is checked, not trusted: rank 0's list to rank 1 with a
/// header claiming 2^40 sources (which would have been allocated), or with
/// two sources swapped (which would have dropped messages), fails the call
/// with a `Corrupt` error naming the file.
#[test]
fn corrupt_filter_lists_are_corrupt_errors() {
    let g = rmat(GenConfig::new(8, 4, 3));
    for what in ["header", "order"] {
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(EngineConfig::for_test(2), td.path()).unwrap();
        let plan = cluster.preprocess(&g).unwrap();
        assert!(plan.node_meta[0].filter_lens[1] >= 2, "the list has two sources to swap");
        let path = cluster.disks()[0].path(&paths::filter(1)).unwrap();
        let mut list = std::fs::read(&path).unwrap();
        match what {
            "header" => list[..8].copy_from_slice(&(1u64 << 40).to_le_bytes()),
            _ => {
                let (first, second) = list[8..16].split_at_mut(4);
                first.swap_with_slice(second);
            }
        }
        std::fs::write(&path, list).unwrap();
        let res = cluster.run(|ctx| {
            ctx.vertex_array::<u64>("acc")?;
            ctx.process_edges(
                &[],
                &["acc"],
                None,
                |_, _| Some(1u64),
                |_m: u64, _, _, _: &(), _| 0u64,
            )
        });
        match res {
            Err(dfo_types::DfoError::Corrupt(msg)) => {
                assert!(msg.contains(&paths::filter(1)), "{what}: {msg}")
            }
            other => panic!("{what}: want Corrupt, got {other:?}"),
        }
    }
}
