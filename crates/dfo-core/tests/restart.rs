//! Distributed checkpoint-restart over real TCP: rank 1 is killed
//! mid-iteration at a deterministic commit boundary (`DFO_CRASH_AT`), the
//! [`Supervisor`] relaunches it under the next mesh epoch, the survivor
//! re-bootstraps in place via [`Cluster::run_supervised`], both agree on
//! the resume round from the last complete checkpoint, and the final
//! PageRank vector is **bit-identical** to an uninterrupted run.
//!
//! Same re-exec harness as `distributed.rs`: the `child_entry` "test" is a
//! no-op under plain `cargo test` and one supervised rank when
//! `DFO_RESTART_ROLE` is set.

use dfo_core::{Cluster, NodeCtx, Supervisor};
use dfo_graph::gen::uniform;
use dfo_types::{BatchPolicy, EngineConfig, Result};
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use tempfile::TempDir;

const ROLE_ENV: &str = "DFO_RESTART_ROLE";
const ITERS: u64 = 4;
const DAMPING: f64 = 0.85;
/// The round whose in-flight work the kill interrupts (0-based).
const CRASH_ROUND: u64 = 2;
/// Call numbering of a fresh `ckpt_pagerank` run: call 0 = resume scan,
/// call 1 = init, round `it` = calls `2+3it` (clear), `3+3it`
/// (ProcessEdges), `4+3it` (apply + round marker). The hook fires before
/// round `CRASH_ROUND`'s ProcessEdges commits — mid-iteration.
const CRASH_CALL: u64 = 3 + 3 * CRASH_ROUND;

fn dist_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::for_test(2);
    cfg.checkpointing = true;
    cfg.batch_policy = BatchPolicy::FixedVertices(32);
    cfg.connect_timeout_secs = 60;
    cfg
}

fn dist_graph() -> dfo_graph::EdgeList<()> {
    uniform(128, 800, 11)
}

fn out_degrees(g: &dfo_graph::EdgeList<()>) -> Vec<u64> {
    let mut deg = vec![0u64; g.n_vertices as usize];
    for e in &g.edges {
        deg[e.src as usize] += 1;
    }
    deg
}

/// Checkpoint-aware push PageRank (§3.2 recovery discipline): every round
/// body is idempotent, and the round marker commits in the same `Process`
/// call as the rank update, so a restart re-executes at most the one
/// interrupted round from bit-identical committed inputs.
fn ckpt_pagerank(ctx: &mut NodeCtx, degrees: &[u64], resume_log: &Path) -> Result<Vec<f64>> {
    let n = ctx.plan().n_vertices as f64;
    let rank_arr = ctx.vertex_array::<f64>("pr_rank")?;
    let next_arr = ctx.vertex_array::<f64>("pr_next")?;
    let deg_arr = ctx.vertex_array::<u64>("pr_deg")?;
    let round_arr = ctx.vertex_array::<u64>("pr_round")?;

    let r0 = ctx.committed_round("pr_round")?; // call 0
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(resume_log)
        .expect("open resume log");
    writeln!(log, "{r0}").expect("write resume log");

    if r0 == 0 {
        // call 1: initial state (idempotent — safe to re-run on a crash
        // before round 0 commits)
        let (r, d) = (rank_arr.clone(), deg_arr.clone());
        let degrees = degrees.to_vec();
        ctx.process_vertices(&["pr_rank", "pr_deg"], None, move |v, c| {
            c.set(&r, v, 1.0 / n);
            c.set(&d, v, degrees[v as usize]);
            0u64
        })?;
    }
    for it in r0..ITERS {
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
            // apply + round marker in ONE call: both commit at the same
            // boundary, so recovery can trust the marker
            let (r, nx, rd) = (rank_arr.clone(), next_arr.clone(), round_arr.clone());
            ctx.process_vertices(&["pr_rank", "pr_next", "pr_round"], None, move |v, c| {
                let s = c.get(&nx, v);
                c.set(&r, v, (1.0 - DAMPING) / n + DAMPING * s);
                c.set(&rd, v, it + 1);
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
// worker side

/// No-op under plain `cargo test`; one supervised rank when the role env
/// var is set (the supervisor spawns this binary with `child_entry --exact`).
#[test]
fn child_entry() {
    if std::env::var(ROLE_ENV).is_err() {
        return;
    }
    let rank = EngineConfig::env_rank().expect("DFO_RANK");
    let base = PathBuf::from(std::env::var("DFO_BASE").expect("DFO_BASE"));
    let mut cfg = dist_cfg();
    cfg.apply_env_overrides(); // DFO_PEERS, DFO_EPOCH, DFO_MAX_RESTARTS, DFO_CRASH_AT
    assert!(cfg.peers.is_some(), "worker needs DFO_PEERS");
    let degrees = out_degrees(&dist_graph());
    let cluster = Cluster::create(cfg, &base).expect("reopen cluster");
    let resume_log = base.join(format!("resume_r{rank}.log"));
    let res = cluster.run_supervised(rank, |ctx| ckpt_pagerank(ctx, &degrees, &resume_log));
    let code = match res {
        Ok(slice) => {
            let bytes: Vec<u8> = slice.iter().flat_map(|v| v.to_le_bytes()).collect();
            std::fs::write(base.join(format!("out_r{rank}.bin")), bytes).expect("write slice");
            0
        }
        Err(e) => {
            eprintln!("supervised rank {rank} failed: {e}");
            1
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// parent side

fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port())).collect()
}

/// Runs a full supervised 2-rank job over `base`; `crash` injects the
/// deterministic kill into rank 1's first incarnation.
fn supervise(base: &Path, crash: bool) -> dfo_core::SuperviseReport {
    let peers = free_addrs(2);
    let sup = Supervisor::new(peers.clone(), 2).with_deadline(Duration::from_secs(120));
    sup.run(|spec| {
        let mut cmd = Command::new(std::env::current_exe().unwrap());
        cmd.args(["child_entry", "--exact", "--test-threads=1", "--nocapture"])
            .env(ROLE_ENV, "supervised")
            .env("DFO_BASE", base);
        // no epoch file: this test also covers the legacy local-bump epoch
        // path (single failure per recovery window); the chaos tests cover
        // the supervisor-published authority
        spec.configure(&mut cmd, &peers, 2, None);
        if crash && spec.rank == 1 && spec.attempt == 0 {
            cmd.env("DFO_CRASH_AT", format!("{CRASH_CALL}:1"));
        }
        cmd.spawn()
    })
    .expect("supervised job")
}

fn read_resume_log(base: &Path, rank: usize) -> Vec<u64> {
    std::fs::read_to_string(base.join(format!("resume_r{rank}.log")))
        .expect("resume log")
        .lines()
        .map(|l| l.trim().parse().expect("resume round"))
        .collect()
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn killed_rank_is_relaunched_and_result_is_bit_identical() {
    let g = dist_graph();
    let td_crash = TempDir::new().unwrap();
    let td_clean = TempDir::new().unwrap();
    for td in [&td_crash, &td_clean] {
        let cluster = Cluster::create(dist_cfg(), td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
    }

    // crashed run: rank 1 dies mid-iteration, the supervisor relaunches it
    // exactly once under epoch 1
    let report = supervise(td_crash.path(), true);
    assert_eq!(report.restarts, 1, "exactly one relaunch, got {report:?}");
    assert_eq!(report.relaunches, vec![(1, 1)]);

    // uninterrupted reference run
    let clean = supervise(td_clean.path(), false);
    assert_eq!(clean.restarts, 0, "clean run must not restart, got {clean:?}");

    // the headline guarantee: bit-identical results across {crash, no-crash}
    for rank in 0..2 {
        let a = std::fs::read(td_crash.path().join(format!("out_r{rank}.bin"))).unwrap();
        let b = std::fs::read(td_clean.path().join(format!("out_r{rank}.bin"))).unwrap();
        assert!(!a.is_empty() && a.len().is_multiple_of(8));
        assert_eq!(a, b, "rank {rank}: crashed-and-recovered PageRank differs from clean run");
    }

    // recovery really resumed from the checkpoint: every rank's second
    // attempt started at CRASH_ROUND (rounds 0..CRASH_ROUND were *not*
    // re-executed — at most the interrupted round was lost)
    for rank in 0..2 {
        let log = read_resume_log(td_crash.path(), rank);
        assert_eq!(
            log,
            vec![0, CRASH_ROUND],
            "rank {rank}: want a fresh start then a resume at round {CRASH_ROUND}"
        );
    }
    for rank in 0..2 {
        assert_eq!(read_resume_log(td_clean.path(), rank), vec![0], "rank {rank} clean run");
    }
}
