//! Multi-process cluster tests: each rank is a real OS process joined over
//! localhost TCP via [`Cluster::run_distributed`].
//!
//! The tests re-exec this test binary as the worker processes: the
//! `child_entry` "test" is a no-op under normal `cargo test`, but when
//! spawned with `DFO_CORE_DIST_ROLE` set it acts as one rank and exits with
//! a status code the parent asserts on. Workers find the shared
//! preprocessed cluster through `DFO_BASE` and the mesh through the
//! `DFO_RANK` / `DFO_PEERS` environment overrides.

use dfo_core::{Cluster, NodeCtx};
use dfo_graph::gen::uniform;
use dfo_types::{BatchPolicy, DfoError, EngineConfig, Result};
use std::io::Read;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use tempfile::TempDir;

const ROLE_ENV: &str = "DFO_CORE_DIST_ROLE";
const PAGERANK_ITERS: usize = 4;
const DAMPING: f64 = 0.85;

/// Config shared by the parent and every worker process — they must agree.
fn dist_cfg(nodes: usize) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(nodes);
    cfg.batch_policy = BatchPolicy::FixedVertices(32);
    cfg.connect_timeout_secs = 60;
    cfg
}

/// The deterministic test graph; workers regenerate it from the same seed.
fn dist_graph() -> dfo_graph::EdgeList<()> {
    uniform(192, 1400, 5)
}

fn out_degrees(g: &dfo_graph::EdgeList<()>) -> Vec<u64> {
    let mut deg = vec![0u64; g.n_vertices as usize];
    for e in &g.edges {
        deg[e.src as usize] += 1;
    }
    deg
}

/// Push-style damped PageRank (the dfo-algos formulation, inlined because
/// dfo-core cannot depend on dfo-algos); returns this rank's slice.
fn mini_pagerank(ctx: &mut NodeCtx, degrees: &[u64], iters: usize) -> Result<Vec<f64>> {
    let n = ctx.plan().n_vertices as f64;
    let rank_arr = ctx.vertex_array::<f64>("pr_rank")?;
    let next_arr = ctx.vertex_array::<f64>("pr_next")?;
    let deg_arr = ctx.vertex_array::<u64>("pr_deg")?;
    {
        let (r, d) = (rank_arr.clone(), deg_arr.clone());
        let degrees = degrees.to_vec();
        ctx.process_vertices(&["pr_rank", "pr_deg"], None, move |v, c| {
            c.set(&r, v, 1.0 / n);
            c.set(&d, v, degrees[v as usize]);
            0u64
        })?;
    }
    for _ in 0..iters {
        {
            let nx = next_arr.clone();
            ctx.process_vertices(&["pr_next"], None, move |v, c| {
                c.set(&nx, v, 0.0);
                0u64
            })?;
        }
        {
            let (r, d, nx) = (rank_arr.clone(), deg_arr.clone(), next_arr.clone());
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
                move |msg: f64, _s, dst, _e: &(), c| {
                    let cur = c.get(&nx, dst);
                    c.set(&nx, dst, cur + msg);
                    0u64
                },
            )?;
        }
        {
            let (r, nx) = (rank_arr.clone(), next_arr.clone());
            ctx.process_vertices(&["pr_rank", "pr_next"], None, move |v, c| {
                let s = c.get(&nx, v);
                c.set(&r, v, (1.0 - DAMPING) / n + DAMPING * s);
                0u64
            })?;
        }
    }
    // read back this rank's slice
    let range = ctx.plan().partitions[ctx.rank()];
    let mut out = vec![0f64; range.len() as usize];
    let h = rank_arr.clone();
    let sink = std::sync::Mutex::new(&mut out);
    ctx.process_vertices(&["pr_rank"], None, |v, c| {
        let val = c.get(&h, v);
        sink.lock().unwrap()[(v - range.start) as usize] = val;
        0u64
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// worker-side entry points

/// No-op under plain `cargo test`; a worker process when the role env var
/// is set (the parent spawns this binary with `child_entry --exact`).
#[test]
fn child_entry() {
    let Ok(role) = std::env::var(ROLE_ENV) else { return };
    let code = match role.as_str() {
        "pagerank" => worker_pagerank(),
        "survivor" => worker_survivor(),
        "victim" => worker_victim(),
        other => {
            eprintln!("unknown worker role {other:?}");
            2
        }
    };
    std::process::exit(code);
}

fn worker_env() -> (usize, PathBuf, EngineConfig) {
    let rank = EngineConfig::env_rank().expect("DFO_RANK");
    let base = PathBuf::from(std::env::var("DFO_BASE").expect("DFO_BASE"));
    let mut cfg = dist_cfg(2);
    cfg.apply_env_overrides(); // DFO_PEERS → TCP transport
    assert!(cfg.peers.is_some(), "worker needs DFO_PEERS");
    (rank, base, cfg)
}

fn worker_pagerank() -> i32 {
    let (rank, base, cfg) = worker_env();
    let degrees = out_degrees(&dist_graph());
    let cluster = Cluster::create(cfg, &base).expect("reopen cluster");
    match cluster.run_distributed(rank, |ctx| mini_pagerank(ctx, &degrees, PAGERANK_ITERS)) {
        Ok(slice) => {
            let bytes: Vec<u8> = slice.iter().flat_map(|v| v.to_le_bytes()).collect();
            std::fs::write(base.join(format!("pr_out_r{rank}.bin")), bytes).expect("write slice");
            0
        }
        Err(e) => {
            eprintln!("worker rank {rank} failed: {e}");
            1
        }
    }
}

/// Rank 0: expects its peer to die after the first barrier; the second
/// barrier must return `NetClosed` instead of hanging (or panicking).
fn worker_survivor() -> i32 {
    let (rank, base, cfg) = worker_env();
    let cluster = Cluster::create(cfg, &base).expect("reopen cluster");
    let res = cluster.run_distributed(rank, |ctx| {
        ctx.net().try_barrier()?; // both ranks alive
        ctx.net().try_barrier() // peer is dead by/while here: must not hang
    });
    match res {
        Err(DfoError::NetClosed(_)) => 0,
        other => {
            eprintln!("survivor wanted NetClosed, got {other:?}");
            1
        }
    }
}

/// Rank 1: joins, passes one barrier, then dies abruptly — `process::exit`
/// from inside the node program, so no teardown runs and the OS just drops
/// the sockets, exactly like a SIGKILL at that point.
fn worker_victim() -> i32 {
    let (rank, base, cfg) = worker_env();
    let cluster = Cluster::create(cfg, &base).expect("reopen cluster");
    let _ = cluster.run_distributed(rank, |ctx| -> Result<()> {
        ctx.net().try_barrier()?;
        std::process::exit(7);
    });
    unreachable!("victim exits inside the closure");
}

// ---------------------------------------------------------------------------
// parent-side helpers

fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port())).collect()
}

/// A worker's stdout is discarded: the child's test harness prints
/// `test child_entry ... ` and then exits inside the test, so that line
/// never ends and would run into the parent's own `test <name> ... ok`.
/// Workers report on stderr, which stays inherited unless a test pipes it.
fn worker_cmd(role: &str, rank: usize, base: &Path, peers: &str) -> Command {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["child_entry", "--exact", "--test-threads=1", "--nocapture"])
        .stdout(Stdio::null())
        .env(ROLE_ENV, role)
        .env("DFO_RANK", rank.to_string())
        .env("DFO_PEERS", peers)
        .env("DFO_BASE", base);
    cmd
}

fn spawn_worker(role: &str, rank: usize, base: &Path, peers: &str) -> Child {
    worker_cmd(role, rank, base, peers).spawn().expect("spawn worker process")
}

/// Waits with a deadline so a transport bug can never hang the suite; on
/// timeout the worker is killed and the test fails loudly.
fn wait_with_deadline(child: &mut Child, what: &str) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} hung past the deadline (transport failed to surface an error?)");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------------
// the actual tests

#[test]
fn two_process_pagerank_matches_in_process() {
    let g = dist_graph();
    let degrees = out_degrees(&g);
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(dist_cfg(2), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();

    // reference: the same program over the in-process channel transport
    let reference: Vec<Vec<f64>> =
        cluster.run(|ctx| mini_pagerank(ctx, &degrees, PAGERANK_ITERS)).unwrap();

    let peers = free_addrs(2).join(",");
    let mut workers: Vec<Child> =
        (0..2).map(|r| spawn_worker("pagerank", r, td.path(), &peers)).collect();
    for (r, w) in workers.iter_mut().enumerate() {
        let st = wait_with_deadline(w, &format!("pagerank worker {r}"));
        assert!(st.success(), "worker {r} exited with {st:?}");
    }

    for (r, want) in reference.iter().enumerate() {
        let bytes = std::fs::read(td.path().join(format!("pr_out_r{r}.bin"))).unwrap();
        assert_eq!(bytes.len(), want.len() * 8, "rank {r} slice length");
        for (v, w) in want.iter().enumerate() {
            let got = f64::from_le_bytes(bytes[v * 8..v * 8 + 8].try_into().unwrap());
            assert!((got - w).abs() <= 1e-9, "vertex {v} of rank {r}: tcp {got} vs in-process {w}");
        }
    }
}

#[test]
fn killed_worker_process_poisons_survivor() {
    let g = dist_graph();
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(dist_cfg(2), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();

    let peers = free_addrs(2).join(",");
    // the survivor's stderr is read after it exits: it writes a few lines
    // at most, far below a pipe's buffer
    let mut survivor = worker_cmd("survivor", 0, td.path(), &peers)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn survivor");
    let mut victim = spawn_worker("victim", 1, td.path(), &peers);

    let vst = wait_with_deadline(&mut victim, "victim");
    assert_eq!(vst.code(), Some(7), "victim must die by its own exit(7)");
    let sst = wait_with_deadline(&mut survivor, "survivor");
    let mut stderr = String::new();
    survivor.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(
        sst.success(),
        "survivor must observe NetClosed (exit 0), got {sst:?} — a hang would have tripped the deadline\n{stderr}"
    );
    // the mesh failure is a value all the way up: nothing unwinds
    assert!(!stderr.contains("panicked at"), "survivor panicked:\n{stderr}");
}
