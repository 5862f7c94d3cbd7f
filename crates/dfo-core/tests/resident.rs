//! In-process [`ResidentMesh`] tests: ranks as threads of one process over
//! localhost TCP, exercising the tag-namespace invariant that lets jobs
//! overlap on one mesh, and the one relaunch protocol batch, supervised and
//! daemon runs share (see `resident.rs` module docs). The multi-process
//! deployments of the same machinery are covered end to end by
//! `restart.rs`, `chaos.rs` and `crates/dfo-service/tests/remote.rs`.

use dfo_core::{Cluster, ResidentMesh};
use dfo_graph::gen::uniform;
use dfo_types::{BatchPolicy, DfoError, EngineConfig};
use std::net::TcpListener;
use std::sync::Barrier;
use tempfile::TempDir;

fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port())).collect()
}

/// The SPMD job body: iterated in-degree counting over the preprocessed
/// graph — engine streams, message exchange and per-call cancel
/// collectives, the same call pattern an iterative algorithm (PageRank)
/// drives through the remote daemon.
fn in_degree_job(ctx: &mut dfo_core::NodeCtx) -> dfo_types::Result<Vec<u64>> {
    ctx.set_cancel_token(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)));
    let deg = ctx.vertex_array::<u64>("deg")?;
    for _ in 0..5 {
        {
            let d = deg.clone();
            ctx.process_vertices(&["deg"], None, move |v, c| {
                c.set(&d, v, 0);
                0u64
            })?;
        }
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
    }
    let r = ctx.plan().partitions[ctx.rank()];
    let mut out = vec![0u64; r.len() as usize];
    let deg2 = deg.clone();
    let collected = std::sync::Mutex::new(&mut out);
    ctx.process_vertices(&["deg"], None, |v, c| {
        let val = c.get(&deg2, v);
        collected.lock().unwrap()[(v - r.start) as usize] = val;
        0u64
    })?;
    Ok(out)
}

/// N jobs overlapping on one 2-rank mesh — every job's result bit-equal to
/// the serial batch run over the same preprocessed chunks.
#[test]
fn concurrent_jobs_on_one_mesh_match_serial() {
    const JOBS: u64 = 3;
    let td = TempDir::new().unwrap();
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(32);
    cfg.peers = Some(free_addrs(2));
    cfg.connect_timeout_secs = 30;
    let cluster = Cluster::create(cfg.clone(), td.path()).unwrap();
    cluster.preprocess(&uniform(192, 1400, 5)).unwrap();
    let reference = cluster.run(in_degree_job).unwrap();

    let cluster = &cluster;
    std::thread::scope(|s| {
        for (rank, want) in reference.iter().enumerate() {
            let cfg = cfg.clone();
            s.spawn(move || {
                let mesh = ResidentMesh::connect(&cfg, rank).unwrap();
                let mesh = &mesh;
                std::thread::scope(|sj| {
                    for job in 0..JOBS {
                        sj.spawn(move || {
                            let scope = format!("j{job}");
                            let out = mesh.run_job_as(job, cluster, &scope, in_degree_job).unwrap();
                            mesh.job_barrier(job).unwrap();
                            mesh.end_job(job);
                            assert_eq!(out, *want, "job {job} rank {rank}");
                        });
                    }
                });
                mesh.barrier().unwrap();
            });
        }
    });
}

/// Two jobs overlap on one mesh, each with one rank whose exchange fits a
/// frame and one whose exchange is far larger than every buffer between
/// the two ranks: job 0 is small on rank 0, job 1 on rank 1, and each small
/// side starts once the other job's large stream is under way. Over TCP a
/// stream shares its connection's writer queue and demux reader with every
/// other job's, so a small side that sent everything before receiving
/// could wait behind a large stream the other rank's small side never
/// drains. Both exchanges must complete, intact.
#[test]
fn overlapping_jobs_with_swapped_small_and_large_ranks_both_exchange() {
    const LARGE: usize = 32 << 20;
    let td = TempDir::new().unwrap();
    let mut cfg = EngineConfig::for_test(2);
    cfg.peers = Some(free_addrs(2));
    cfg.connect_timeout_secs = 30;
    let cluster = Cluster::create(cfg.clone(), td.path()).unwrap();
    cluster.preprocess(&uniform(64, 200, 5)).unwrap();
    let exchange = move |ctx: &mut dfo_core::NodeCtx, job: u64| {
        let size = |rank: usize| if rank as u64 == job { 100 } else { LARGE };
        // xorshift noise: incompressible, so the large side stays large on
        // the wire
        let fill = |rank: usize| -> Vec<u8> {
            let mut x = 2 * job + rank as u64 + 1;
            let mut word = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()
            };
            (0..size(rank).div_ceil(8)).flat_map(|_| word()).take(size(rank)).collect()
        };
        let (rank, peer) = (ctx.rank(), 1 - ctx.rank());
        if size(rank) < LARGE {
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
        let mut outgoing = vec![Vec::new(); 2];
        outgoing[peer] = fill(rank);
        let got = ctx.exchange(outgoing)?;
        let intact = got[peer] == fill(peer);
        assert!(intact, "job {job} rank {rank}: {} bytes from {peer}", got[peer].len());
        Ok(())
    };
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (cluster, cfg) = (&cluster, &cfg);
        std::thread::scope(|s| {
            for rank in 0..2 {
                s.spawn(move || {
                    let mesh = ResidentMesh::connect(cfg, rank).unwrap();
                    let mesh = &mesh;
                    std::thread::scope(|sj| {
                        for job in 0..2 {
                            sj.spawn(move || {
                                let scope = format!("x{job}");
                                mesh.run_job_as(job, cluster, &scope, |ctx| exchange(ctx, job))
                                    .unwrap();
                                mesh.job_barrier(job).unwrap();
                                mesh.end_job(job);
                            });
                        }
                    });
                    mesh.barrier().unwrap();
                });
            }
        });
        done.send(()).unwrap();
    });
    let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
    waited.expect("the overlapping exchanges deadlocked (or a rank failed)");
}

/// A stream is its frames over TCP too: a `ProcessEdges` call that sends
/// the peer no record costs it exactly one frame of `FRAME_HEADER_BYTES`,
/// counted by the mesh's endpoint like any other.
#[test]
fn a_call_that_sends_no_record_costs_one_frame_over_tcp() {
    use dfo_net::FRAME_HEADER_BYTES;
    let td = TempDir::new().unwrap();
    let mut cfg = EngineConfig::for_test(2);
    cfg.peers = Some(free_addrs(2));
    cfg.connect_timeout_secs = 30;
    let cluster = Cluster::create(cfg.clone(), td.path()).unwrap();
    cluster.preprocess(&uniform(64, 200, 5)).unwrap();
    let empty_call = |ctx: &mut dfo_core::NodeCtx| {
        ctx.vertex_array::<u64>("acc")?;
        let frames0 = ctx.net().stats().sent_frames.get();
        let signal = |_, _: &mut dfo_core::BatchCtx| None::<u64>;
        ctx.process_edges(&[], &["acc"], None, signal, |_m: u64, _, _, _: &(), _| 0u64)?;
        let frames = ctx.net().stats().sent_frames.get() - frames0;
        Ok((frames, ctx.last_phase_stats().pass_net_sent))
    };
    let (cluster, cfg) = (&cluster, &cfg);
    std::thread::scope(|s| {
        for rank in 0..2 {
            s.spawn(move || {
                let mesh = ResidentMesh::connect(cfg, rank).unwrap();
                let got = mesh.run_job_as(0, cluster, "empty", empty_call).unwrap();
                mesh.job_barrier(0).unwrap();
                mesh.end_job(0);
                assert_eq!(got, (1, FRAME_HEADER_BYTES), "rank {rank}");
                mesh.barrier().unwrap();
            });
        }
    });
}

/// A preprocessed 2-rank cluster over fresh localhost addresses, with the
/// serial batch result every mesh run must reproduce bit for bit.
fn mesh_cluster(td: &TempDir, tune: impl FnOnce(&mut EngineConfig)) -> (Cluster, Vec<Vec<u64>>) {
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(32);
    cfg.peers = Some(free_addrs(2));
    cfg.connect_timeout_secs = 30;
    tune(&mut cfg);
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&uniform(192, 1400, 5)).unwrap();
    let reference = cluster.run(in_degree_job).unwrap();
    (cluster, reference)
}

/// Both ranks connect, job 0 fails on rank 1 (poisoning the mesh under rank
/// 0), `publish` runs once while both sit between failure and relaunch,
/// both relaunch and must land on `want_epoch`, and job 1 on the rebuilt
/// mesh must match the serial reference.
fn fail_relaunch_rerun(
    cluster: &Cluster,
    reference: &[Vec<u64>],
    publish: impl Fn() + Sync,
    want_epoch: u64,
) {
    let failed = Barrier::new(2);
    std::thread::scope(|s| {
        for (rank, want) in reference.iter().enumerate() {
            let (failed, publish) = (&failed, &publish);
            s.spawn(move || {
                let mesh = ResidentMesh::connect(cluster.config(), rank).unwrap();
                assert_eq!((mesh.epoch(), mesh.restarts()), (0, 0));
                let cause = mesh
                    .run_job_as(0, cluster, "j0", |ctx| {
                        if rank == 1 {
                            return Err(DfoError::Config("injected job failure".into()));
                        }
                        in_degree_job(ctx)
                    })
                    .unwrap_err();
                match (rank, &cause) {
                    (1, DfoError::Config(_)) | (0, DfoError::NetClosed(_)) => {}
                    other => panic!("unexpected failure {other:?}"),
                }
                if failed.wait().is_leader() {
                    publish();
                }
                failed.wait();
                let mesh = mesh.relaunch(cause).unwrap();
                assert_eq!((mesh.epoch(), mesh.restarts()), (want_epoch, 1), "rank {rank}");
                let out = mesh.run_job_as(1, cluster, "j1", in_degree_job).unwrap();
                mesh.job_barrier(1).unwrap();
                mesh.end_job(1);
                assert_eq!(out, *want, "rank {rank} on the rebuilt mesh");
                mesh.barrier().unwrap();
            });
        }
    });
}

#[test]
fn poisoned_mesh_relaunches_on_one_epoch_and_matches_serial() {
    let td = TempDir::new().unwrap();
    let (cluster, reference) = mesh_cluster(&td, |cfg| cfg.max_restarts = 1);
    fail_relaunch_rerun(&cluster, &reference, || {}, 1);
}

/// The overlapping-failure case: the supervisor has moved the published
/// epoch further than one local bump would. Every rank must land on the
/// published number — and so must a process that only starts now.
#[test]
fn relaunch_and_connect_follow_the_published_epoch() {
    let td = TempDir::new().unwrap();
    let epoch_file = td.path().join("EPOCH");
    let (cluster, reference) = mesh_cluster(&td, |cfg| {
        cfg.max_restarts = 1;
        cfg.epoch_file = Some(epoch_file.to_str().unwrap().to_string());
    });
    fail_relaunch_rerun(&cluster, &reference, || std::fs::write(&epoch_file, "7\n").unwrap(), 7);
    std::thread::scope(|s| {
        for rank in 0..2 {
            let cluster = &cluster;
            s.spawn(move || {
                let mesh = ResidentMesh::connect(cluster.config(), rank).unwrap();
                assert_eq!((mesh.epoch(), mesh.restarts()), (7, 0), "late joiner rank {rank}");
            });
        }
    });
}

/// Two deaths in two reap passes: rank 0 was started at epoch 1 just before
/// the supervisor moved on to 2, where rank 1 waits — and times out first.
/// A timed-out bootstrap must be retried where the authority points (rank 1
/// stays at 2, rank 0 moves up to it), never bumped locally past it, or the
/// two chase each other's epochs until the budget is gone.
#[test]
fn stale_epoch_joiner_and_its_waiting_peer_converge_on_the_published_epoch() {
    let td = TempDir::new().unwrap();
    let epoch_file = td.path().join("EPOCH");
    std::fs::write(&epoch_file, "1\n").unwrap();
    let mut cfg = EngineConfig::for_test(2);
    cfg.peers = Some(free_addrs(2));
    cfg.max_restarts = 4;
    cfg.epoch_file = Some(epoch_file.to_str().unwrap().to_string());
    std::thread::scope(|s| {
        let (mut stale, mut waiting) = (cfg.clone(), cfg.clone());
        stale.connect_timeout_secs = 3;
        waiting.connect_timeout_secs = 1;
        let listen_addr = stale.peers.as_ref().unwrap()[0].clone();
        let stale = s.spawn(move || ResidentMesh::connect(&stale, 0).unwrap());
        // rank 0 reads the authority before it binds: once a probe connects
        // (the bootstrap drops it as a non-peer), epoch 1 is what it read
        while std::net::TcpStream::connect(&listen_addr).is_err() {
            std::thread::yield_now();
        }
        std::fs::write(&epoch_file, "2\n").unwrap();
        let waiting = ResidentMesh::connect(&waiting, 1).unwrap();
        let stale = stale.join().unwrap();
        assert_eq!((stale.epoch(), stale.restarts()), (2, 1));
        assert_eq!(waiting.epoch(), 2);
        assert!((2..=3).contains(&waiting.restarts()), "{} timeouts", waiting.restarts());
    });
}

/// Past `max_restarts` each front-end keeps the error it returns today:
/// the mesh hands the cause back (what the daemon exits with), and
/// `run_supervised` wraps it in `RestartsExhausted`.
#[test]
fn exhausted_budget_returns_each_front_ends_typed_error() {
    let td = TempDir::new().unwrap();
    let (cluster, _) = mesh_cluster(&td, |cfg| cfg.max_restarts = 1);
    let (cluster, connected) = (&cluster, &Barrier::new(2));
    std::thread::scope(|s| {
        for rank in 0..2 {
            s.spawn(move || {
                let mut zero = cluster.config().clone();
                zero.max_restarts = 0;
                let mesh = ResidentMesh::connect(&zero, rank).unwrap();
                connected.wait();
                match mesh.relaunch(DfoError::NetClosed("the cause".into())) {
                    Err(DfoError::NetClosed(m)) => assert_eq!(m, "the cause"),
                    Err(other) => panic!("want the cause back, got {other:?}"),
                    Ok(_) => panic!("no budget, yet the mesh relaunched"),
                }
                // every attempt dies as a mesh failure: one relaunch is
                // budgeted, the second failure exhausts it
                let res = cluster.run_supervised(rank, |ctx| -> dfo_types::Result<()> {
                    ctx.net().try_barrier()?;
                    Err(DfoError::NetClosed(format!("rank {rank} lost its peer")))
                });
                match res {
                    Err(DfoError::RestartsExhausted { attempts: 1, last }) => {
                        assert!(matches!(*last, DfoError::NetClosed(_)), "{last:?}")
                    }
                    other => panic!("want RestartsExhausted after 1 restart, got {other:?}"),
                }
                let stats = cluster.recovery_stats();
                assert_eq!((stats.restarts, stats.mesh_epoch), (1, 1));
            });
        }
    });
}
