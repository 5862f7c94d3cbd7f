//! Checkpointing and recovery (paper §3.2): a crashed run resumes from the
//! state after the last successful `Process` call, losing at most one call.
//!
//! Recovery discipline (as in any distributed checkpointing system): nodes
//! may have committed different numbers of calls when the failure hit, so a
//! recovering program first agrees on the minimum committed round via an
//! all-reduce, then re-executes deterministically from there — which is why
//! the round bodies below are idempotent (set, not increment).

use dfo_core::Cluster;
use dfo_graph::gen::uniform;
use dfo_types::{BatchPolicy, CrashPoint, CrashPos, EngineConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tempfile::TempDir;

fn cfg_ckpt(nodes: usize) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(nodes);
    cfg.checkpointing = true;
    cfg.batch_policy = BatchPolicy::FixedVertices(16);
    cfg
}

/// Runs `iters` idempotent rounds (`acc[v] = (v+1)·round`); optionally
/// panics on node 1 before round `crash_at` commits.
fn run_rounds(
    cluster: &Cluster,
    iters: u64,
    crash_at: Option<u64>,
) -> dfo_types::Result<Vec<Vec<u64>>> {
    cluster.run(|ctx| {
        let acc = ctx.vertex_array::<u64>("acc")?;
        let round = ctx.vertex_array::<u64>("round")?;
        // local committed round = min over vertices; global resume point =
        // min over nodes (a node that committed further simply re-executes)
        let local_round = {
            let h = round.clone();
            let min = AtomicU64::new(u64::MAX);
            ctx.process_vertices(&["round"], None, |v, c| {
                min.fetch_min(c.get(&h, v), Ordering::Relaxed);
                let _ = v;
                0u64
            })?;
            let m = min.load(Ordering::Relaxed);
            if m == u64::MAX {
                0
            } else {
                m
            }
        };
        let r0 = ctx.net().try_allreduce_min_u64(local_round)?;
        for it in r0..iters {
            if crash_at == Some(it) && ctx.rank() == 1 {
                panic!("injected failure at round {it}");
            }
            let (a, r) = (acc.clone(), round.clone());
            ctx.process_vertices(&["acc", "round"], None, move |v, c| {
                c.set(&a, v, (v + 1) * (it + 1));
                c.set(&r, v, it + 1);
                0u64
            })?;
        }
        // read back this node's slice
        let range = ctx.plan().partitions[ctx.rank()];
        let mut out = vec![0u64; range.len() as usize];
        let h = acc.clone();
        let sink = std::sync::Mutex::new(&mut out);
        ctx.process_vertices(&["acc"], None, |v, c| {
            let val = c.get(&h, v);
            sink.lock().unwrap()[(v - range.start) as usize] = val;
            0u64
        })?;
        Ok(out)
    })
}

#[test]
fn crash_and_recover_loses_at_most_one_call() {
    let g = uniform(96, 400, 4);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg_ckpt(2), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();

    // first attempt crashes on node 1 before round 3 commits
    let crashed = run_rounds(&cluster, 5, Some(3));
    assert!(crashed.is_err(), "injected failure must surface");

    // recovery: resumes from the globally agreed round and completes
    let recovered = run_rounds(&cluster, 5, None).expect("recovery run");
    let mut v = 0u64;
    for vals in recovered {
        for got in vals {
            assert_eq!(got, (v + 1) * 5, "vertex {v} after recovery");
            v += 1;
        }
    }
    assert_eq!(v, 96);
}

#[test]
fn process_edges_state_survives_crash_in_later_call() {
    let g = uniform(64, 300, 7);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg_ckpt(2), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();

    // run 1: one full ProcessEdges (commits), then crash mid second call
    let crashed_once = AtomicBool::new(false);
    let r = cluster.run(|ctx| {
        let deg = ctx.vertex_array::<u64>("deg")?;
        let d = deg.clone();
        ctx.process_edges(
            &[],
            &["deg"],
            None,
            |_v, _c| Some(1u64),
            move |m: u64, _s, dst, _e: &(), c| {
                let cur = c.get(&d, dst);
                c.set(&d, dst, cur + m);
                m
            },
        )?;
        if ctx.rank() == 0 && !crashed_once.swap(true, Ordering::SeqCst) {
            panic!("crash after first call commits");
        }
        Ok(0u64)
    });
    assert!(r.is_err());

    // run 2: degree data from the committed first call must be intact
    let sums = cluster
        .run(|ctx| {
            let deg = ctx.vertex_array::<u64>("deg")?;
            let h = deg.clone();
            ctx.process_vertices(&["deg"], None, move |v, c| {
                let _ = v;
                c.get(&h, v)
            })
        })
        .unwrap();
    assert_eq!(sums[0], g.n_edges(), "first call's in-degrees must survive the crash");
}

#[test]
fn checkpoints_bound_disk_usage() {
    let g = uniform(64, 200, 2);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg_ckpt(1), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    cluster
        .run(|ctx| {
            let x = ctx.vertex_array::<u64>("x")?;
            for i in 0..10u64 {
                let h = x.clone();
                ctx.process_vertices(&["x"], None, move |v, c| {
                    c.set(&h, v, v + i);
                    0u64
                })?;
            }
            Ok(0u64)
        })
        .unwrap();
    // every call wrote every batch: epochs 9 and 10 are retained, each
    // batch's block of each, and nothing else is on disk for the array
    let files = |rel: &str| {
        let mut names: Vec<String> = std::fs::read_dir(td.path().join(rel))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let n_batches = 64usize.div_ceil(16);
    let mut want: Vec<String> =
        (0..n_batches).flat_map(|b| [format!("{b}_10.bin"), format!("{b}_9.bin")]).collect();
    want.sort();
    assert_eq!(files("n0/arrays/x/blocks"), want, "GC must bound block files");
    assert_eq!(files("n0/arrays/x"), ["blocks"], "no per-array metadata");
    assert_eq!(files("n0/arrays"), ["COMMITS.bin", "x"], "one commit record per node");
}

#[test]
fn no_checkpointing_means_no_checkpoint_files() {
    let g = uniform(32, 100, 3);
    let mut cfg = EngineConfig::for_test(1);
    cfg.checkpointing = false;
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    cluster
        .run(|ctx| {
            let x = ctx.vertex_array::<u32>("x")?;
            let h = x.clone();
            ctx.process_vertices(&["x"], None, move |v, c| {
                c.set(&h, v, 1);
                0u64
            })
        })
        .unwrap();
    assert!(!td.path().join("n0/arrays/COMMITS.bin").exists());
    let entries = |rel: &str| std::fs::read_dir(td.path().join(rel)).unwrap().count();
    assert_eq!(entries("n0/arrays/x"), 1, "only the blocks directory");
    for e in std::fs::read_dir(td.path().join("n0/arrays/x/blocks")).unwrap() {
        let name = e.unwrap().file_name().into_string().unwrap();
        assert!(!name.contains('_'), "{name}: an in-place block has no epoch");
    }
}

/// Rounds of a state-carrying program under the §3.2 recovery
/// discipline: call 0 agrees on the resume round, round `it` is call
/// `1 + it` and sets `acc[v] = 3·acc[v] + v + it` with the round marker.
/// Returns this rank's `acc` slice.
fn carried_rounds(ctx: &mut dfo_core::NodeCtx, iters: u64) -> dfo_types::Result<Vec<u64>> {
    let acc = ctx.vertex_array::<u64>("acc")?;
    let round = ctx.vertex_array::<u64>("round")?;
    let r0 = ctx.committed_round("round")?;
    for it in r0..iters {
        let (a, r) = (acc.clone(), round.clone());
        ctx.process_vertices(&["acc", "round"], None, move |v, c| {
            c.update(&a, v, |x| x.wrapping_mul(3) + v + it);
            c.set(&r, v, it + 1);
            0u64
        })?;
    }
    let range = ctx.plan().partitions[ctx.rank()];
    let out = std::sync::Mutex::new(vec![0u64; range.len() as usize]);
    ctx.process_vertices(&["acc"], None, |v, c| {
        out.lock().unwrap()[(v - range.start) as usize] = c.get(&acc, v);
        0u64
    })?;
    Ok(out.into_inner().unwrap())
}

/// The ahead-rank window under the default retention: rank 1 dies between
/// its first array commit and its commit record of call 3 (round 2), after
/// rank 0 committed and recorded that call. The next run must roll rank 0
/// back one call and end bit-identical to a run that never crashed.
#[test]
fn ahead_rank_rolls_back_under_the_default_config() {
    const ITERS: u64 = 5;
    let g = uniform(96, 400, 4);
    let clean_dir = TempDir::new().unwrap();
    let clean = Cluster::create(cfg_ckpt(2), clean_dir.path()).unwrap();
    clean.preprocess(&g).unwrap();
    let want = clean.run(|ctx| carried_rounds(ctx, ITERS)).unwrap();

    let td = TempDir::new().unwrap();
    let mut crashing = cfg_ckpt(2);
    crashing.crash_schedule =
        vec![CrashPoint { call: 3, rank: Some(1), pos: CrashPos::Mid, epoch: None }];
    let cluster = Cluster::create(crashing, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let err = cluster.run(|ctx| carried_rounds(ctx, ITERS)).unwrap_err();
    assert!(err.to_string().contains("injected crash"), "{err}");

    let recovering = Cluster::create(cfg_ckpt(2), td.path()).unwrap();
    let got = recovering.run(|ctx| carried_rounds(ctx, ITERS)).expect("recovery run");
    let scrape = recovering.registry().snapshot().to_prometheus();
    assert!(scrape.lines().any(|l| l == "dfo_rollbacks_total 1"), "rank 0 rolls back:\n{scrape}");
    assert_eq!(got, want, "recovered state differs from the clean run");
}
