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

/// A run reports the failure's cause, not its effect: rank 1 panics, or
/// fails with `Corrupt`, while rank 0 waits in a barrier and gets the
/// poison's `NetClosed` back. The run returns rank 1's `Panic` or `Corrupt`,
/// neither retryable — not rank 0's retryable `NetClosed`, which a service
/// would requeue.
#[test]
fn a_one_rank_failure_surfaces_as_itself_not_as_its_peers_net_closed() {
    use dfo_types::DfoError;
    use std::sync::Mutex;
    let g = uniform(32, 100, 3);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(EngineConfig::for_test(2), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    for panics in [true, false] {
        let waiter = Mutex::new(None);
        let res = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                let r = ctx.net().try_barrier();
                *waiter.lock().unwrap() = Some(format!("{r:?}"));
                return r;
            }
            if panics {
                panic!("rank 1 has a bug");
            }
            Err(DfoError::Corrupt("rank 1 read a bad block".into()))
        });
        let waited = waiter.into_inner().unwrap().unwrap();
        assert!(waited.starts_with("Err(NetClosed("), "rank 0 got {waited}");
        let err = res.expect_err("rank 1 failed");
        match (panics, &err) {
            (true, DfoError::Panic(m)) => assert!(m.contains("rank 1 has a bug"), "{m}"),
            (false, DfoError::Corrupt(m)) => assert!(m.contains("bad block"), "{m}"),
            _ => panic!("panics={panics}: the run returned {err:?}"),
        }
        assert!(!err.is_retryable(), "{err:?}");
    }
}

/// A scheduled crash is a `NetClosed` as well, and so is what its peer gets
/// from the poisoned mesh; the run reports the dying rank's own message.
#[test]
fn a_scheduled_crash_surfaces_as_the_dying_ranks_message_not_the_poison() {
    use dfo_types::{CrashPoint, DfoError};
    let g = uniform(32, 100, 3);
    let td = TempDir::new().unwrap();
    let mut cfg = EngineConfig::for_test(2);
    cfg.crash_schedule = vec![CrashPoint { rank: Some(1), ..CrashPoint::at(0) }];
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let survivor = std::sync::Mutex::new(None);
    let res = cluster.run(|ctx| {
        let deg = ctx.vertex_array::<u64>("deg")?;
        let r = ctx.process_vertices(&["deg"], None, move |v, c| c.get(&deg, v));
        if ctx.rank() == 0 {
            *survivor.lock().unwrap() = Some(format!("{r:?}"));
        }
        r
    });
    let survivor = survivor.into_inner().unwrap().unwrap();
    assert!(survivor.contains("a peer died"), "rank 0 got {survivor}");
    let err = res.expect_err("rank 1 crashed");
    let rank1 = "injected crash (DFO_CRASH_AT): rank 1 dies at Process call 0";
    assert!(matches!(&err, DfoError::NetClosed(m) if m.starts_with(rank1)), "{err:?}");
    assert!(err.is_retryable());
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
/// builds too, and whatever dispatch strategy the stream gets. A stream is
/// its frames: the first starts with the 8-byte bound, the last is final.
#[test]
fn malformed_peer_streams_are_corrupt_errors() {
    let g = rmat(GenConfig::new(8, 4, 3));
    let bound = |b: u64| b.to_le_bytes().to_vec();
    // a 3-byte first frame; a bound followed by a 5-byte frame, which is no
    // whole number of 12-byte (u32 source, u64 message) records; a bare
    // bound, alone or followed by an empty final frame
    let bad_frame = "5-byte frame of 12-byte records";
    let cases = [
        (vec![vec![0u8; 3]], None, "3-byte first frame"),
        (vec![[bound(1), vec![0; 5]].concat()], None, bad_frame),
        (vec![bound(1)], None, "empty frame"),
        (vec![bound(1), vec![]], None, "empty frame"),
    ];
    // the 5-byte frame under push, no dispatch and drain (a bound of 0)
    let strategies = [(1u64, Some(DispatchKind::Push)), (1, Some(DispatchKind::None)), (0, None)];
    let dispatch =
        strategies.map(|(b, kind)| (vec![[bound(b), vec![0; 5]].concat()], kind, bad_frame));
    // coded frames (bit 31 of the first word set): a count past the 21 845
    // records of a frame; a bitmap of two ids for a count of three; plain
    // ids 0 and 1 whose payload column starts with an LZ4-flagged plane of
    // garbage — each under push, no dispatch and drain
    let le = |words: &[u32]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
    let coded = [
        ([le(&[1 << 31 | 21_846]), vec![0; 64]].concat(), "21846 records"),
        ([le(&[1 << 31 | 1 << 30 | 3, 0, 8]), vec![0b11], vec![0; 24]].concat(), "bitmap"),
        ([le(&[1 << 31 | 2, 0, 1, 1 << 31 | 8]), vec![0xff; 8]].concat(), "packed column"),
    ];
    let coded = coded.iter().flat_map(|(frame, want)| {
        strategies.map(|(b, kind)| (vec![[bound(b), frame.clone()].concat()], kind, *want))
    });
    for (frames, kind, want) in cases.into_iter().chain(dispatch).chain(coded) {
        let mut cfg = EngineConfig::for_test(2);
        cfg.dispatch_override = kind;
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let res = cluster.run(|ctx| {
            if ctx.rank() == 1 {
                for (i, f) in frames.iter().enumerate() {
                    let last = i + 1 == frames.len();
                    ctx.net().send(0, 0, bytes::Bytes::copy_from_slice(f), last)?;
                }
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
                assert!(
                    msg.contains("stream from rank 1: ") && msg.contains(want),
                    "{kind:?}: {msg}"
                )
            }
            other => panic!("{kind:?} {frames:?}: want Corrupt, got {other:?}"),
        }
    }
}

/// An exchanged vector is checked, not trusted: rank 1 hand-sends rank 0
/// five bytes where `u64`s are due, and rank 0's exchange fails with a
/// `Corrupt` error naming the peer.
#[test]
fn malformed_exchanged_vectors_are_corrupt_errors() {
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(EngineConfig::for_test(2), td.path()).unwrap();
    cluster.preprocess(&rmat(GenConfig::new(8, 4, 3))).unwrap();
    let res = cluster.run(|ctx| {
        if ctx.rank() == 1 {
            ctx.net().send_stream(0, 0, dfo_core::messages::pack_vector(&[7u8; 5]))?;
            ctx.net().recv_all(0, 0)?;
            return Ok(());
        }
        ctx.exchange::<u64>(vec![Vec::new(), vec![1, 2, 3]]).map(drop)
    });
    match res {
        Err(dfo_types::DfoError::Corrupt(msg)) => {
            assert!(msg.contains("exchange from rank 1") && msg.contains("8-byte"), "{msg}")
        }
        other => panic!("want Corrupt, got {other:?}"),
    }
}

/// A filter list is checked, not trusted: rank 0's list to rank 1 with a
/// header claiming 2^40 sources (which would have been allocated), or with
/// two sources swapped (which would have dropped messages), fails the call
/// with a `Corrupt` error naming the file — stored in a frame container
/// (compression on) or raw.
#[test]
fn corrupt_filter_lists_are_corrupt_errors() {
    use std::io::{Read, Write};
    let g = rmat(GenConfig::new(8, 4, 3));
    for (what, compress) in [("header", true), ("order", true), ("header", false), ("order", false)]
    {
        let td = TempDir::new().unwrap();
        let mut cfg = EngineConfig::for_test(2);
        cfg.compress_chunks = compress;
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        let plan = cluster.preprocess(&g).unwrap();
        assert!(plan.node_meta[0].filter_lens[1] >= 2, "the list has two sources to swap");
        // the list's logical bytes, damaged, stored again in the form it had
        let (disk, rel) = (&cluster.disks()[0], paths::filter(1));
        let framed = disk.read_to_vec(&rel).unwrap()[..4] == dfo_storage::FRAME_MAGIC.to_le_bytes();
        assert_eq!(framed, compress, "a list this long is framed when compression is on");
        let mut list = Vec::new();
        disk.open_framed(&rel).unwrap().read_to_end(&mut list).unwrap();
        match what {
            "header" => list[..8].copy_from_slice(&(1u64 << 40).to_le_bytes()),
            _ => {
                let (first, second) = list[8..16].split_at_mut(4);
                first.swap_with_slice(second);
            }
        }
        let mut w = disk.create_framed(&rel, framed).unwrap();
        w.write_all(&list).unwrap();
        w.finish().unwrap().finish().unwrap();
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
                assert!(msg.contains(&paths::filter(1)), "{what} framed={framed}: {msg}")
            }
            other => panic!("{what} framed={framed}: want Corrupt, got {other:?}"),
        }
    }
}

/// A chunk is checked, not trusted: one stored with two of its DCSR
/// sources swapped — which a merge over the index would silently drop
/// edges for — fails the call with a `Corrupt` error naming the file,
/// compressed or raw. One node, so no peer's failure can surface first.
#[test]
fn a_chunk_with_swapped_sources_fails_the_job_naming_the_file() {
    let g = rmat(GenConfig::new(8, 4, 3));
    for compress in [true, false] {
        let td = TempDir::new().unwrap();
        let mut cfg = EngineConfig::for_test(1);
        cfg.compress_chunks = compress;
        cfg.batch_policy = BatchPolicy::FixedVertices(64);
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let rel = paths::chunk(0, 1);
        let disk = &cluster.disks()[0];
        let mut chunk =
            IndexedChunk::<()>::read_from(&mut disk.open_framed(&rel).unwrap(), None).unwrap();
        assert!(chunk.dcsr_src.len() >= 2, "the chunk has two sources to swap");
        chunk.dcsr_src.swap(0, 1);
        let file = chunk.write_to_framed(Vec::new(), compress).unwrap();
        std::fs::write(disk.path(&rel).unwrap(), file).unwrap();
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
                assert!(msg.contains(&rel), "compress={compress}: {msg}")
            }
            other => panic!("compress={compress}: want Corrupt, got {other:?}"),
        }
    }
}

/// What the last `ProcessEdges` call of `ctx` would have sent with every
/// frame raw: 16 bytes for a peer that gets nothing — one empty final
/// frame — else the 8-byte bound, 16 bytes of framing per frame and `rec`
/// bytes per message sent. Frames are counted as one per peer plus one per
/// full frame of the call's messages — exact whenever every peer gets no
/// message, or fewer than a frame's worth and some; an upper bound
/// otherwise.
fn raw_pass_bytes(ctx: &dfo_core::NodeCtx, rec: u64) -> u64 {
    let (s, peers) = (ctx.last_phase_stats(), ctx.nodes() as u64 - 1);
    if s.messages_sent == 0 {
        return 16 * peers;
    }
    let cap = dfo_core::messages::FRAME_BYTES as u64 / rec;
    let frames = peers + s.messages_sent / cap;
    8 * peers + 16 * frames + rec * s.messages_sent
}

/// A stream is its frames: a `ProcessEdges` call that sends its peers no
/// record costs each of them exactly one frame of `FRAME_HEADER_BYTES` —
/// no frame opens or closes a stream.
#[test]
fn a_call_that_sends_no_record_costs_one_frame_per_peer() {
    use dfo_net::FRAME_HEADER_BYTES;
    for nodes in [2, 3] {
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(EngineConfig::for_test(nodes), td.path()).unwrap();
        cluster.preprocess(&rmat(GenConfig::new(8, 4, 3))).unwrap();
        let out = cluster
            .run(|ctx| {
                ctx.vertex_array::<u64>("acc")?;
                let frames0 = ctx.net().stats().sent_frames.get();
                let signal = |_, _: &mut dfo_core::BatchCtx| None::<u64>;
                ctx.process_edges(&[], &["acc"], None, signal, |_m: u64, _, _, _: &(), _| 0u64)?;
                let frames = ctx.net().stats().sent_frames.get() - frames0;
                Ok((frames, ctx.last_phase_stats().pass_net_sent))
            })
            .unwrap();
        let peers = nodes as u64 - 1;
        for (rank, got) in out.into_iter().enumerate() {
            assert_eq!(got, (peers, peers * FRAME_HEADER_BYTES), "rank {rank} of {nodes}");
        }
    }
}

/// Per `ProcessEdges` call of one rank: the bytes it passed and the raw
/// bound on them.
type PassLog = Vec<(u64, u64)>;

/// A `ProcessEdges` call of `M` messages, its pass bytes logged.
fn logged<M: dfo_types::Pod>(
    ctx: &mut dfo_core::NodeCtx,
    log: &mut PassLog,
    call: impl FnOnce(&mut dfo_core::NodeCtx) -> dfo_types::Result<u64>,
) -> dfo_types::Result<u64> {
    let out = call(ctx)?;
    let rec = dfo_core::messages::record_bytes::<M>() as u64;
    log.push((ctx.last_phase_stats().pass_net_sent, raw_pass_bytes(ctx, rec)));
    Ok(out)
}

/// Label-propagation kernels of BFS (`()` messages, levels), SSSP (`f32`
/// distances over integer weights), WCC-style min-label propagation (`u64`
/// labels) and PageRank (`f64` ranks): each run on the engine with every
/// call's pass bytes logged, and by brute force.
mod kernels {
    use super::{logged, PassLog};
    use dfo_core::NodeCtx;
    use dfo_graph::edge::EdgeList;
    use dfo_types::{Pod, Result};

    pub const ITERS: usize = 3;

    /// This rank's slice of `name`, in vertex order.
    fn read<T: Pod + Default>(ctx: &mut NodeCtx, name: &str) -> Result<Vec<T>> {
        let arr = ctx.vertex_array::<T>(name)?;
        let r = ctx.plan().partitions[ctx.rank()];
        let out = std::sync::Mutex::new(vec![T::default(); r.len() as usize]);
        ctx.process_vertices(&[name], None, |v, c| {
            out.lock().unwrap()[(v - r.start) as usize] = c.get(&arr, v);
            0u64
        })?;
        Ok(out.into_inner().unwrap())
    }

    pub fn bfs(ctx: &mut NodeCtx, log: &mut PassLog) -> Result<Vec<u32>> {
        let (level, active) = (ctx.vertex_array::<u32>("lvl")?, ctx.vertex_array::<bool>("act")?);
        let (l, a) = (level.clone(), active.clone());
        ctx.process_vertices(&["lvl", "act"], None, move |v, c| {
            c.set(&l, v, if v == 0 { 0 } else { u32::MAX });
            c.set(&a, v, v == 0);
            0u64
        })?;
        for depth in 1.. {
            let (l, a, a1) = (level.clone(), active.clone(), active.clone());
            let signal = move |v, c: &mut dfo_core::BatchCtx| {
                c.set(&a1, v, false);
                Some(())
            };
            let slot = move |_: (), _, dst, _: &(), c: &mut dfo_core::BatchCtx| {
                let new = c.get(&l, dst) == u32::MAX;
                if new {
                    c.set(&l, dst, depth);
                    c.set(&a, dst, true);
                }
                new as u64
            };
            let call = |ctx: &mut NodeCtx| {
                ctx.process_edges(&["act"], &["lvl", "act"], Some(&active), signal, slot)
            };
            if logged::<()>(ctx, log, call)? == 0 {
                break;
            }
        }
        read(ctx, "lvl")
    }

    pub fn bfs_oracle(g: &EdgeList<()>) -> Vec<u32> {
        let mut level = vec![u32::MAX; g.n_vertices as usize];
        level[0] = 0;
        for depth in 1.. {
            let frontier: Vec<bool> = level.iter().map(|&l| l == depth - 1).collect();
            let mut grew = false;
            for e in g.edges.iter().filter(|e| frontier[e.src as usize]) {
                if level[e.dst as usize] == u32::MAX {
                    (level[e.dst as usize], grew) = (depth, true);
                }
            }
            if !grew {
                return level;
            }
        }
        unreachable!()
    }

    /// SSSP from vertex 0 (`min_label = false`) or min-label propagation
    /// (`true`, labels are vertex ids): both relax `value[dst]` down to
    /// `value[src] + weight` until nothing changes.
    pub fn relax<M: Pod + PartialOrd + std::ops::Add<Output = M> + Default>(
        ctx: &mut NodeCtx,
        log: &mut PassLog,
        init: impl Fn(u64) -> M + Sync + Send + 'static,
        weight: impl Fn(f32) -> M + Sync + Send + Copy + 'static,
    ) -> Result<Vec<M>> {
        let (val, active) = (ctx.vertex_array::<M>("val")?, ctx.vertex_array::<bool>("act")?);
        let (d, a) = (val.clone(), active.clone());
        ctx.process_vertices(&["val", "act"], None, move |v, c| {
            c.set(&d, v, init(v));
            c.set(&a, v, true);
            0u64
        })?;
        loop {
            let (d1, a1, d2, a2) = (val.clone(), active.clone(), val.clone(), active.clone());
            let signal = move |v, c: &mut dfo_core::BatchCtx| {
                c.set(&a1, v, false);
                Some(c.get(&d1, v))
            };
            let slot = move |m: M, _, dst, w: &f32, c: &mut dfo_core::BatchCtx| {
                let better = m + weight(*w) < c.get(&d2, dst);
                if better {
                    c.set(&d2, dst, m + weight(*w));
                    c.set(&a2, dst, true);
                }
                better as u64
            };
            let call = |ctx: &mut NodeCtx| {
                ctx.process_edges(&["val", "act"], &["val", "act"], Some(&active), signal, slot)
            };
            if logged::<M>(ctx, log, call)? == 0 {
                return read(ctx, "val");
            }
        }
    }

    pub fn relax_oracle<M: Copy + PartialOrd + std::ops::Add<Output = M>>(
        g: &EdgeList<f32>,
        init: impl Fn(u64) -> M,
        weight: impl Fn(f32) -> M,
    ) -> Vec<M> {
        let mut val: Vec<M> = (0..g.n_vertices).map(init).collect();
        loop {
            let mut changed = false;
            for e in &g.edges {
                let cand = val[e.src as usize] + weight(e.data);
                if cand < val[e.dst as usize] {
                    (val[e.dst as usize], changed) = (cand, true);
                }
            }
            if !changed {
                return val;
            }
        }
    }

    pub fn pagerank(ctx: &mut NodeCtx, log: &mut PassLog, deg: Vec<u64>) -> Result<Vec<f64>> {
        let n = ctx.plan().n_vertices as f64;
        let (rank, next) = (ctx.vertex_array::<f64>("rank")?, ctx.vertex_array::<f64>("next")?);
        let r = rank.clone();
        ctx.process_vertices(&["rank"], None, move |v, c| {
            c.set(&r, v, 1.0 / n);
            0u64
        })?;
        let deg = std::sync::Arc::new(deg);
        for _ in 0..ITERS {
            let nx = next.clone();
            ctx.process_vertices(&["next"], None, move |v, c| {
                c.set(&nx, v, 0.0);
                0u64
            })?;
            let (r, nx, deg) = (rank.clone(), next.clone(), deg.clone());
            let signal = move |v, c: &mut dfo_core::BatchCtx| {
                let d = deg[v as usize];
                (d > 0).then(|| c.get(&r, v) / d as f64)
            };
            let slot = move |m: f64, _, dst, _: &(), c: &mut dfo_core::BatchCtx| {
                let cur = c.get(&nx, dst);
                c.set(&nx, dst, cur + m);
                0u64
            };
            let call =
                |ctx: &mut NodeCtx| ctx.process_edges(&["rank"], &["next"], None, signal, slot);
            logged::<f64>(ctx, log, call)?;
            let (r, nx) = (rank.clone(), next.clone());
            ctx.process_vertices(&["rank", "next"], None, move |v, c| {
                let sum = c.get(&nx, v);
                c.set(&r, v, 0.15 / n + 0.85 * sum);
                0u64
            })?;
        }
        read(ctx, "rank")
    }

    pub fn pagerank_oracle(g: &EdgeList<()>, deg: &[u64]) -> Vec<f64> {
        let n = g.n_vertices as usize;
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..ITERS {
            let mut next = vec![0.0f64; n];
            for e in &g.edges {
                next[e.dst as usize] += rank[e.src as usize] / deg[e.src as usize] as f64;
            }
            rank = next.iter().map(|s| 0.15 / n as f64 + 0.85 * s).collect();
        }
        rank
    }
}

/// A coded frame is never larger than the raw one: on 2 and 3 ranks, every
/// `ProcessEdges` call of BFS, SSSP, min-label propagation and PageRank
/// passes at most what its frames would have cost raw, and the first
/// PageRank call over the dense uniform graph — ascending ids covering most
/// of the partition, ranks `1/(n·deg)` — at most 0.6 of it. Results equal the
/// brute-force oracles: bit for bit for the integer-valued kernels, to
/// rounding for PageRank, whose sums the engine adds in another order.
#[test]
fn coded_frames_are_never_larger_than_raw() {
    use dfo_types::slice_as_bytes;
    use kernels::*;
    type Job<'a> =
        &'a (dyn Fn(&mut dfo_core::NodeCtx, &mut PassLog) -> dfo_types::Result<Vec<u8>> + Sync);
    let unit = uniform(8_000, 64_000, 13);
    let weighted: EdgeList<f32> = unit.map_data(|e| ((e.src * 7 + e.dst * 13) % 29 + 1) as f32);
    let mut deg = vec![0u64; unit.n_vertices as usize];
    unit.edges.iter().for_each(|e| deg[e.src as usize] += 1);
    let sssp_init = |v: u64| if v == 0 { 0.0 } else { f32::INFINITY };
    for nodes in [2, 3] {
        let mut cfg = EngineConfig::for_test(nodes);
        cfg.batch_policy = BatchPolicy::FixedVertices(256);
        let td = TempDir::new().unwrap();
        // runs `job` on a fresh cluster over `g`: its bytes, every rank's log
        let run = |name: &str, weighted_graph: bool, job: Job| {
            let cluster = Cluster::create(cfg.clone(), td.path().join(name)).unwrap();
            if weighted_graph {
                cluster.preprocess(&weighted).unwrap();
            } else {
                cluster.preprocess(&unit).unwrap();
            }
            let out = cluster
                .run(|ctx| {
                    let mut log = PassLog::new();
                    Ok((job(ctx, &mut log)?, log))
                })
                .unwrap();
            for (rank, (_, log)) in out.iter().enumerate() {
                for (call, &(sent, raw)) in log.iter().enumerate() {
                    let at = format!("{name} on {nodes} ranks, rank {rank} call {call}");
                    assert!(sent <= raw, "{at}: {sent} bytes > raw {raw}");
                }
            }
            let logs: Vec<PassLog> = out.iter().map(|(_, log)| log.clone()).collect();
            (out.into_iter().flat_map(|(bytes, _)| bytes).collect::<Vec<u8>>(), logs)
        };
        let (got, _) = run("bfs", false, &|ctx, log| Ok(slice_as_bytes(&bfs(ctx, log)?).to_vec()));
        assert_eq!(got, slice_as_bytes(&bfs_oracle(&unit)), "bfs on {nodes} ranks");
        let (got, _) = run("sssp", true, &|ctx, log| {
            Ok(slice_as_bytes(&relax(ctx, log, sssp_init, |w| w)?).to_vec())
        });
        let want = relax_oracle(&weighted, sssp_init, |w| w);
        assert_eq!(got, slice_as_bytes(&want), "sssp on {nodes} ranks");
        let (got, _) = run("labels", true, &|ctx, log| {
            Ok(slice_as_bytes(&relax(ctx, log, |v| v, |_| 0u64)?).to_vec())
        });
        let want = relax_oracle(&weighted, |v| v, |_| 0u64);
        assert_eq!(got, slice_as_bytes(&want), "labels on {nodes} ranks");
        let (got, logs) = run("pagerank", false, &|ctx, log| {
            Ok(slice_as_bytes(&pagerank(ctx, log, deg.clone())?).to_vec())
        });
        let got: Vec<f64> = dfo_types::vec_from_bytes(&got);
        for (v, (a, b)) in got.iter().zip(pagerank_oracle(&unit, &deg)).enumerate() {
            assert!((a - b).abs() <= 1e-12 * b, "pagerank vertex {v} on {nodes} ranks: {a} vs {b}");
        }
        for (rank, log) in logs.iter().enumerate() {
            for (call, &(sent, raw)) in log.iter().enumerate() {
                let at = format!("pagerank on {nodes} ranks, rank {rank} call {call}");
                assert!(call > 0 || 10 * sent <= 6 * raw, "{at}: {sent} bytes of raw {raw}");
            }
        }
    }
}
