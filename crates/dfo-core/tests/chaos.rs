//! Chaos testing for crash consistency: ranks are SIGKILLed at scheduled
//! commit boundaries (`DFO_CRASH_AT` schedules — multiple points, pre/mid
//! positions, per-rank, per-epoch), the [`Supervisor`] relaunches them
//! under its *published* epoch, and every run must end with final PageRank
//! bytes **bit-identical** to an uninterrupted run.
//!
//! Three deterministic scenarios pin down the hard cases — two ranks dying
//! in one recovery window, an *ahead* rank that committed a call its peer
//! lost (rolled back via the per-call commit records), and a kill after
//! the final call — then a seeded randomized sweep samples whole schedules
//! (`DFO_CHAOS_SEED`, `DFO_CHAOS_SCHEDULES`). Set `DFO_CHAOS_LOG_DIR` to
//! keep per-attempt resume logs on disk (CI uploads them on failure).
//!
//! Same re-exec harness as `restart.rs`: `child_entry` is a no-op under
//! plain `cargo test` and one supervised rank when `DFO_CHAOS_ROLE` is set.

use dfo_core::{Cluster, NodeCtx, Supervisor};
use dfo_graph::gen::uniform;
use dfo_types::{BatchPolicy, EngineConfig, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use tempfile::TempDir;

const ROLE_ENV: &str = "DFO_CHAOS_ROLE";
const ITERS: u64 = 4;
const DAMPING: f64 = 0.85;
/// Calls of a fresh run: 0 = resume scan, 1 = init, round `it` = calls
/// `2+3it` / `3+3it` / `4+3it` (clear / edges / apply+marker), 14 = the
/// final readback. A resumed run renumbers from 0 (scan, then straight to
/// the resume round), which is why post-recovery kill points carry an
/// `@epoch` qualifier instead of assuming fresh-run numbering.
const LAST_CALL: u64 = 2 + 3 * ITERS;

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

/// Checkpoint-aware push PageRank (§3.2 recovery discipline); same program
/// as `restart.rs` so both harnesses exercise identical commit boundaries.
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
            let (r, nx, rd) = (rank_arr.clone(), next_arr.clone(), round_arr.clone());
            ctx.process_vertices(&["pr_rank", "pr_next", "pr_round"], None, move |v, c| {
                let s = c.get(&nx, v);
                c.set(&r, v, (1.0 - DAMPING) / n + DAMPING * s);
                c.set(&rd, v, it + 1);
                0u64
            })?;
        }
    }
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
/// var is set. On success it also dumps this process's recovery stats and
/// a rendered metrics scrape, so the parent can assert restart/rollback
/// accounting end to end.
#[test]
fn child_entry() {
    if std::env::var(ROLE_ENV).is_err() {
        return;
    }
    let rank = EngineConfig::env_rank().expect("DFO_RANK");
    let base = PathBuf::from(std::env::var("DFO_BASE").expect("DFO_BASE"));
    let mut cfg = dist_cfg();
    cfg.apply_env_overrides(); // peers, epoch, epoch file, crash schedule…
    assert!(cfg.peers.is_some(), "worker needs DFO_PEERS");
    let degrees = out_degrees(&dist_graph());
    let cluster = Cluster::create(cfg, &base).expect("reopen cluster");
    let resume_log = base.join(format!("resume_r{rank}.log"));
    let res = cluster.run_supervised(rank, |ctx| ckpt_pagerank(ctx, &degrees, &resume_log));
    let code = match res {
        Ok(slice) => {
            let bytes: Vec<u8> = slice.iter().flat_map(|v| v.to_le_bytes()).collect();
            std::fs::write(base.join(format!("out_r{rank}.bin")), bytes).expect("write slice");
            let st = cluster.recovery_stats();
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(base.join(format!("stats_r{rank}.log")))
                .expect("open stats log");
            writeln!(
                f,
                "restarts={} mesh_epoch={} rollbacks={}",
                st.restarts, st.mesh_epoch, st.rollbacks
            )
            .expect("write stats");
            std::fs::write(
                base.join(format!("metrics_r{rank}.txt")),
                cluster.registry().snapshot().to_prometheus(),
            )
            .expect("write metrics");
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

/// A per-case working directory: a tempdir normally, or a named directory
/// under `DFO_CHAOS_LOG_DIR` so resume logs survive for CI artifacts.
struct CaseDir {
    _tmp: Option<TempDir>,
    path: PathBuf,
}

fn case_dir(name: &str) -> CaseDir {
    match std::env::var("DFO_CHAOS_LOG_DIR") {
        Ok(root) if !root.is_empty() => {
            let path = PathBuf::from(root).join(name);
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create chaos log dir");
            CaseDir { _tmp: None, path }
        }
        _ => {
            let tmp = TempDir::new().unwrap();
            CaseDir { path: tmp.path().to_path_buf(), _tmp: Some(tmp) }
        }
    }
}

/// Runs a full supervised 2-rank job over `base` with a crash schedule.
/// Unlike `restart.rs` this harness *re-sets* `DFO_CRASH_AT` on relaunches
/// (after `configure` scrubs it), so multi-kill schedules stay armed across
/// incarnations — their `@epoch` qualifiers keep fired points from
/// refiring — and the supervisor publishes its epoch to `<base>/EPOCH`.
fn supervise(base: &Path, schedule: &str, max_restarts: u32) -> dfo_core::SuperviseReport {
    let peers = free_addrs(2);
    let sup = Supervisor::new(peers.clone(), max_restarts)
        .with_deadline(Duration::from_secs(180))
        .with_epoch_file(base.join("EPOCH"));
    sup.run(|spec| {
        let mut cmd = Command::new(std::env::current_exe().unwrap());
        cmd.args(["child_entry", "--exact", "--test-threads=1", "--nocapture"])
            .env(ROLE_ENV, "supervised")
            .env("DFO_BASE", base);
        spec.configure(&mut cmd, &peers, max_restarts, sup.epoch_file());
        if schedule.is_empty() {
            cmd.env_remove("DFO_CRASH_AT");
        } else {
            cmd.env("DFO_CRASH_AT", schedule);
        }
        cmd.spawn()
    })
    .unwrap_or_else(|e| panic!("supervised job (schedule {schedule:?}): {e}"))
}

/// Preprocesses a fresh copy of the shared test graph under `base`.
fn prepare(base: &Path) {
    let cluster = Cluster::create(dist_cfg(), base).unwrap();
    cluster.preprocess(&dist_graph()).unwrap();
}

fn read_outputs(base: &Path) -> Vec<Vec<u8>> {
    (0..2)
        .map(|rank| {
            let p = base.join(format!("out_r{rank}.bin"));
            let b = std::fs::read(&p).unwrap_or_else(|e| panic!("read {p:?}: {e}"));
            assert!(!b.is_empty() && b.len().is_multiple_of(8), "bad output {p:?}");
            b
        })
        .collect()
}

fn read_resume_log(base: &Path, rank: usize) -> Vec<u64> {
    std::fs::read_to_string(base.join(format!("resume_r{rank}.log")))
        .expect("resume log")
        .lines()
        .map(|l| l.trim().parse().expect("resume round"))
        .collect()
}

/// The value of metric `family` in a rank's dumped Prometheus scrape.
fn scraped_value(base: &Path, rank: usize, family: &str) -> f64 {
    let text =
        std::fs::read_to_string(base.join(format!("metrics_r{rank}.txt"))).expect("metrics dump");
    text.lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("{family} missing from rank {rank} scrape"))
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .expect("metric value")
}

/// An uninterrupted reference run; returns the per-rank output bytes.
fn clean_reference(base: &Path) -> Vec<Vec<u8>> {
    prepare(base);
    let report = supervise(base, "", 0);
    assert_eq!(report.restarts, 0, "clean run must not restart: {report:?}");
    read_outputs(base)
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn overlapping_rank_deaths_converge_on_the_published_epoch() {
    let clean = case_dir("overlap-clean");
    let reference = clean_reference(&clean.path);

    // Both ranks die at the same pre-commit boundary of round 2's clear
    // call — a process_vertices call with no in-call communication, so
    // both deterministically reach the crash point. Two failures in one
    // recovery window: exactly what the supervisor's published epoch
    // exists to untangle.
    let case = case_dir("overlap-crash");
    prepare(&case.path);
    let report = supervise(&case.path, "8:0@0,8:1@0", 4);
    assert_eq!(report.restarts, 2, "both ranks must be relaunched: {report:?}");
    let mut relaunched: Vec<usize> = report.relaunches.iter().map(|(r, _)| *r).collect();
    relaunched.sort_unstable();
    assert_eq!(relaunched, vec![0, 1]);
    let published: u64 = std::fs::read_to_string(case.path.join("EPOCH"))
        .expect("published epoch file")
        .trim()
        .parse()
        .expect("published epoch");
    assert!(published >= 1, "supervisor must have bumped the published epoch");
    for (rank, epoch) in &report.relaunches {
        assert!(*epoch <= published, "rank {rank} relaunched past the published epoch");
    }

    assert_eq!(read_outputs(&case.path), reference, "recovered output differs from clean run");
    for rank in 0..2 {
        assert_eq!(
            read_resume_log(&case.path, rank),
            vec![0, 2],
            "rank {rank}: want a fresh start, then a resume at round 2"
        );
    }
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn ahead_rank_rolls_back_one_call_and_matches_clean_run() {
    let clean = case_dir("ahead-clean");
    let reference = clean_reference(&clean.path);

    // Rank 1 dies at the pre-commit boundary of round 2's apply call
    // (call 10). The apply is communication-free until its call-ending
    // allreduce, so rank 0 deterministically commits call 10 *and its
    // commit record* before observing the failure: rank 0 is now one call
    // ahead of what rank 1 can recover. The commit-seq exchange at
    // recovery must roll rank 0 back one checkpoint.
    let case = case_dir("ahead-crash");
    prepare(&case.path);
    let report = supervise(&case.path, "10:1@0", 4);
    assert_eq!(report.restarts, 1, "exactly one relaunch: {report:?}");
    assert_eq!(report.relaunches, vec![(1, 1)]);

    assert_eq!(read_outputs(&case.path), reference, "recovered output differs from clean run");
    for rank in 0..2 {
        assert_eq!(read_resume_log(&case.path, rank), vec![0, 2], "rank {rank} resume");
    }

    // rank 0's process lived through the recovery: its stats and scrape
    // must show the rollback and the restart
    let stats = std::fs::read_to_string(case.path.join("stats_r0.log")).expect("rank 0 stats");
    assert!(
        stats.contains("restarts=1") && stats.contains("rollbacks=1"),
        "rank 0 must report 1 restart and 1 rollback, got: {stats:?}"
    );
    assert_eq!(scraped_value(&case.path, 0, "dfo_restarts_total"), 1.0);
    assert_eq!(scraped_value(&case.path, 0, "dfo_rollbacks_total"), 1.0);
    assert_eq!(scraped_value(&case.path, 0, "dfo_mesh_epoch"), 1.0);
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn post_final_call_kill_recovers_and_matches_clean_run() {
    let clean = case_dir("tail-clean");
    let reference = clean_reference(&clean.path);

    // Rank 1 dies after every round has committed, at the boundary of the
    // final readback call: recovery resumes past the loop entirely and
    // only re-runs the readback.
    let case = case_dir("tail-crash");
    prepare(&case.path);
    let report = supervise(&case.path, &format!("{LAST_CALL}:1@0"), 4);
    assert_eq!(report.restarts, 1, "exactly one relaunch: {report:?}");
    assert_eq!(read_outputs(&case.path), reference, "recovered output differs from clean run");
    for rank in 0..2 {
        assert_eq!(
            read_resume_log(&case.path, rank),
            vec![0, ITERS],
            "rank {rank}: want a resume past the final committed round"
        );
    }
}

/// One sampled crash schedule: 1–2 kill points across ranks, positions
/// and epochs. Points may legitimately never fire (the mesh can die before
/// a rank reaches its call) — the invariant under test is that *whatever*
/// subset fires, the job completes with bit-identical output.
fn sample_schedule(rng: &mut SmallRng) -> String {
    let mut points = Vec::new();
    let call = rng.gen_range(1..LAST_CALL + 1);
    let pos = if rng.gen_range(0..2u32) == 0 { "" } else { ".mid" };
    let rank = rng.gen_range(0..2u32);
    points.push(format!("{call}{pos}:{rank}@0"));
    if rng.gen_range(0..2u32) == 0 {
        if rng.gen_range(0..2u32) == 0 {
            // concurrent: the *other* rank dies at the same boundary
            points.push(format!("{call}:{}@0", 1 - rank));
        } else {
            // staggered: a second kill after the first recovery (resumed
            // runs renumber calls from 0, hence the small range)
            let call2 = rng.gen_range(1..8u64);
            let rank2 = rng.gen_range(0..2u32);
            points.push(format!("{call2}:{rank2}@1"));
        }
    }
    points.join(",")
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn randomized_kill_schedules_stay_bit_identical() {
    let seed: u64 =
        std::env::var("DFO_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xDF0_C4A0);
    let schedules: usize =
        std::env::var("DFO_CHAOS_SCHEDULES").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
    let mut rng = SmallRng::seed_from_u64(seed);

    let clean = case_dir("rand-clean");
    let reference = clean_reference(&clean.path);

    for i in 0..schedules {
        let schedule = sample_schedule(&mut rng);
        eprintln!("[chaos] schedule {i}/{schedules} (seed {seed:#x}): {schedule}");
        let case = case_dir(&format!("rand-{i}"));
        prepare(&case.path);
        let report = supervise(&case.path, &schedule, 8);
        // the first point always targets epoch 0 of a fresh run, so at
        // least one kill must have fired
        assert!(report.restarts >= 1, "schedule {schedule:?} fired no kills: {report:?}");
        assert_eq!(
            read_outputs(&case.path),
            reference,
            "schedule {schedule:?}: recovered output differs from clean run"
        );
    }
}
