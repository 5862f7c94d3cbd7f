//! End-to-end remote service test: a 2-rank daemon mesh as real OS
//! processes, driven by a [`DfoClient`] over localhost TCP.
//!
//! Mirrors the `dfo-core` distributed test harness: the parent re-execs
//! this test binary as the daemon processes (`child_entry` is a no-op
//! under plain `cargo test`, a daemon rank when `DFO_SERVICE_REMOTE_ROLE`
//! is set), preprocesses the shared graph up front, and asserts on exit
//! codes. Covered end to end:
//!
//! * remote submission with **no re-bootstrap**: the daemons preprocess
//!   nothing and handshake the mesh once, every job reuses both;
//! * remote results **bit-identical** to batch [`Cluster::run`] over the
//!   same preprocessed graph;
//! * **priority scheduling**: with the mesh busy, a higher-priority job
//!   submitted later overtakes an earlier lower-priority one;
//! * **cancellation** of a queued job (typed [`DfoError::Cancelled`]
//!   through the client) with the mesh healthy afterwards;
//! * **learned admission**: the second submission of the same
//!   `(algorithm, graph)` is charged a learned estimate, not the static
//!   hint;
//! * the scheduler metrics surface on the daemon's scrape endpoint;
//! * **concurrent jobs**: two jobs observed `Running` simultaneously on
//!   one mesh (pushed status events), overlapping results bit-identical
//!   to the serial batch reference;
//! * **mesh relaunch + honored retries**: a job failure poisons the mesh,
//!   the daemons rebuild it in place under a bumped epoch, a
//!   `max_retries=1` victim completes on the rebuilt mesh with
//!   `report.retries == 1`, and typed retryability-preserving errors
//!   reach stranded waiters;
//! * a **seeded interleave sweep** over submit/cancel/fail orderings:
//!   every waiter resolves and the (possibly relaunched) mesh still
//!   computes bit-identical answers after each round.
//!
//! When `DFO_TEST_METRICS_OUT` is set, scraped metrics bodies are appended
//! to that file so CI can grep scheduler/retry counters after the run.

use dfo_core::Cluster;
use dfo_service::{Daemon, DfoClient, JobSpec};
use dfo_types::{BatchPolicy, DfoError, EngineConfig, JobPhase};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};
use tempfile::TempDir;

const ROLE_ENV: &str = "DFO_SERVICE_REMOTE_ROLE";
const GRAPH: &str = "web";
const PAGERANK_ITERS: u64 = 4;

/// Config shared by the parent (preprocessing, batch reference) and every
/// daemon process — they must agree on the partitioning.
fn remote_cfg(nodes: usize) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(nodes);
    cfg.batch_policy = BatchPolicy::FixedVertices(32);
    cfg.connect_timeout_secs = 60;
    cfg
}

fn test_graph() -> dfo_graph::EdgeList<()> {
    dfo_graph::gen::uniform(192, 1400, 5)
}

// ---------------------------------------------------------------------------
// daemon-side entry point

/// No-op under plain `cargo test`; one daemon rank when the role env var is
/// set. The daemon discovers the preprocessed graph under `DFO_BASE`, joins
/// the mesh via `DFO_PEERS`, and (on rank 0) serves clients on
/// `DFO_CONTROL_ADDR` and metrics on `DFO_METRICS_ADDR`.
#[test]
fn child_entry() {
    if std::env::var(ROLE_ENV).is_err() {
        return;
    }
    let rank = EngineConfig::env_rank().expect("DFO_RANK");
    let base = PathBuf::from(std::env::var("DFO_BASE").expect("DFO_BASE"));
    let mut cfg = remote_cfg(2);
    cfg.apply_env_overrides();
    assert!(cfg.peers.is_some(), "daemon needs DFO_PEERS");
    let code = match Daemon::run(cfg, rank, &base) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("daemon rank {rank} failed: {e}");
            1
        }
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// parent-side helpers

fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port())).collect()
}

fn spawn_daemon(
    rank: usize,
    base: &Path,
    peers: &str,
    ctrl: Option<&str>,
    extra_env: &[(&str, &str)],
) -> Child {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["child_entry", "--exact", "--test-threads=1", "--nocapture"])
        .env(ROLE_ENV, "daemon")
        .env("DFO_RANK", rank.to_string())
        .env("DFO_PEERS", peers)
        .env("DFO_BASE", base);
    if let Some(ctrl) = ctrl {
        cmd.env("DFO_CONTROL_ADDR", ctrl);
    }
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn daemon process")
}

/// Preprocesses the shared graph under `<td>/graphs/web` and returns the
/// batch-mode pagerank reference computed over the very same chunks.
fn prep_graph(td: &TempDir) -> Vec<dfo_algos::AlgoOutput> {
    let g = test_graph();
    let graph_dir = td.path().join("graphs").join(GRAPH);
    let batch = Cluster::create(remote_cfg(2), &graph_dir).unwrap();
    batch.preprocess(&g).unwrap();
    let algo = dfo_algos::find("pagerank").unwrap();
    let params = pagerank_spec().params;
    batch.run(|ctx| algo.run(ctx, &params)).unwrap()
}

fn assert_outputs_match(report: &dfo_service::JobReport, reference: &[dfo_algos::AlgoOutput]) {
    assert_eq!(report.outputs.len(), reference.len(), "one output slice per rank");
    for (rank, want) in reference.iter().enumerate() {
        assert_eq!(report.outputs[rank].kind, want.kind);
        assert_eq!(
            report.outputs[rank].values, want.values,
            "rank {rank} remote output differs from batch Cluster::run"
        );
    }
}

/// Appends one scraped metrics body to `DFO_TEST_METRICS_OUT` (when set)
/// so CI can grep scheduler/retry counters after the run.
fn save_metrics(body: &str) {
    if let Ok(path) = std::env::var("DFO_TEST_METRICS_OUT") {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
            let _ = f.write_all(body.as_bytes());
        }
    }
}

/// A `fault`-algorithm spec: `mode` 0 fails non-retryably (`Config`),
/// 1 fails retryably (`NetClosed`), anything else sleeps `delay_ms` then
/// succeeds with zeroed output — a deterministic-duration sleeper.
fn fault_spec(mode: u64, delay_ms: u64) -> JobSpec {
    JobSpec::new(GRAPH, "fault").with_param("mode", mode).with_param("delay_ms", delay_ms)
}

fn wait_with_deadline(child: &mut Child, what: &str) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(st) = child.try_wait().expect("try_wait") {
            return st;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} hung past the deadline");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The daemon binds its listener after connecting the mesh; retry until it
/// answers or the deadline trips.
fn connect_with_retry(addr: &str, client_id: &str) -> DfoClient {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match DfoClient::connect_as(addr, client_id) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "daemon never came up at {addr}: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Minimal HTTP GET against the daemon's metrics endpoint.
fn scrape_metrics(addr: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect metrics endpoint");
    s.write_all(
        format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("send scrape request");
    let mut body = String::new();
    s.read_to_string(&mut body).expect("read scrape response");
    body
}

fn pagerank_spec() -> JobSpec {
    JobSpec::new(GRAPH, "pagerank").with_param("iters", PAGERANK_ITERS)
}

// ---------------------------------------------------------------------------
// the actual test

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn remote_jobs_over_two_rank_daemon_mesh() {
    let td = TempDir::new().unwrap();
    // preprocess once where the daemons will discover it, and compute the
    // batch-mode reference over the very same preprocessed chunks
    let reference = prep_graph(&td);

    let peers = free_addrs(2).join(",");
    let ctrl = free_addrs(1).remove(0);
    let metrics = free_addrs(1).remove(0);
    let mut daemons = [
        {
            // rank 0 also serves the metrics endpoint
            let mut cmd = Command::new(std::env::current_exe().unwrap());
            cmd.args(["child_entry", "--exact", "--test-threads=1", "--nocapture"])
                .env(ROLE_ENV, "daemon")
                .env("DFO_RANK", "0")
                .env("DFO_PEERS", &peers)
                .env("DFO_BASE", td.path())
                .env("DFO_CONTROL_ADDR", &ctrl)
                .env("DFO_METRICS_ADDR", &metrics);
            cmd.spawn().expect("spawn daemon rank 0")
        },
        spawn_daemon(1, td.path(), &peers, None, &[]),
    ];

    let client = connect_with_retry(&ctrl, "itest");
    assert_eq!(client.nodes(), 2);

    // --- job 1: remote result must be bit-identical to the batch run -----
    let first = client.submit(pagerank_spec()).unwrap();
    let first_id = first.id();
    let report = first.wait().unwrap();
    assert_outputs_match(&report, &reference);
    assert!(report.totals.messages_generated > 0, "phase stats travel with the report");

    // --- learned admission: the second submission of the same
    // (algorithm, graph) is charged the learned estimate ------------------
    let second = client.submit(pagerank_spec()).unwrap();
    let second_id = second.id();
    let jobs = client.list_jobs().unwrap();
    let est = |id: u64| jobs.iter().find(|s| s.id == id).map(|s| s.mem_estimate).unwrap();
    assert_ne!(
        est(first_id),
        est(second_id),
        "second submission must be charged the learned estimate, not the static hint"
    );
    assert!(est(second_id) > 0);

    // --- priority: while the mesh is busy, queue low (B) then high (C);
    // C must finish while B has not, and one queued job (D) is cancelled.
    // The executor overlaps jobs against the footprint budget now, so B/C/D
    // each claim the whole budget — admissible only alone, which restores
    // the serial ordering this assertion is about -------------------------
    let full = remote_cfg(2).mem_budget;
    let b = client.submit(pagerank_spec().with_mem_estimate(full)).unwrap();
    let c = client.submit(pagerank_spec().with_mem_estimate(full).with_priority(5)).unwrap();
    let d = client.submit(pagerank_spec().with_mem_estimate(full)).unwrap();
    d.cancel().unwrap();
    match d.wait() {
        Err(DfoError::Cancelled(_)) => {}
        other => panic!("cancelled queued job must resolve Cancelled, got {other:?}"),
    }
    second.wait().unwrap();
    let c_report = c.wait().unwrap();
    assert_eq!(c_report.outputs.len(), 2);
    let b_phase_when_c_done =
        client.list_jobs().unwrap().iter().find(|s| s.id == b.id()).map(|s| s.phase).unwrap();
    assert_ne!(
        b_phase_when_c_done,
        JobPhase::Done,
        "higher-priority job C must complete before lower-priority B"
    );
    b.wait().unwrap();

    // --- scheduler metrics are live on the scrape endpoint ---------------
    let body = scrape_metrics(&metrics);
    assert!(body.contains("dfo_sched_admitted_total"), "missing admitted counter:\n{body}");
    assert!(body.contains("dfo_sched_queue_depth"), "missing queue gauge:\n{body}");
    assert!(body.contains("dfo_sched_estimate_error_ratio"), "missing estimator gauge:\n{body}");
    assert!(body.contains("dfo_job_cache_hits_total"), "missing per-job cache series:\n{body}");
    save_metrics(&body);

    // --- clean shutdown: both daemon ranks exit 0 ------------------------
    client.shutdown().unwrap();
    for (r, d) in daemons.iter_mut().enumerate() {
        let st = wait_with_deadline(d, &format!("daemon rank {r}"));
        assert!(st.success(), "daemon rank {r} exited with {st:?}");
    }
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn overlapping_jobs_share_the_mesh_and_match_serial() {
    let td = TempDir::new().unwrap();
    let reference = prep_graph(&td);

    let peers = free_addrs(2).join(",");
    let ctrl = free_addrs(1).remove(0);
    let mut daemons = [
        spawn_daemon(0, td.path(), &peers, Some(&ctrl), &[]),
        spawn_daemon(1, td.path(), &peers, None, &[]),
    ];
    let client = connect_with_retry(&ctrl, "overlap");

    // two deterministic-duration sleepers; the pushed status events must
    // show both Running at once — the tag-namespace overlap criterion
    let s1 = client.submit(fault_spec(2, 2500)).unwrap();
    let s2 = client.submit(fault_spec(2, 2500)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let phase = |h: &dfo_service::RemoteJobHandle| h.status().map(|s| s.phase);
        if phase(&s1) == Some(JobPhase::Running) && phase(&s2) == Some(JobPhase::Running) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "jobs never overlapped: s1={:?} s2={:?}",
            s1.status(),
            s2.status()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // engine jobs overlapping with the sleepers (and each other) produce
    // results bit-identical to the serial batch reference
    let handles: Vec<_> = (0..3).map(|_| client.submit(pagerank_spec()).unwrap()).collect();
    for h in handles {
        let report = h.wait().unwrap();
        assert_outputs_match(&report, &reference);
        assert_eq!(report.retries, 0);
    }
    let r1 = s1.wait().unwrap();
    let r2 = s2.wait().unwrap();
    assert_eq!(r1.retries, 0);
    assert_eq!(r2.retries, 0);

    client.shutdown().unwrap();
    for (r, d) in daemons.iter_mut().enumerate() {
        let st = wait_with_deadline(d, &format!("daemon rank {r}"));
        assert!(st.success(), "daemon rank {r} exited with {st:?}");
    }
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn poisoned_mesh_relaunches_and_honors_max_retries() {
    let td = TempDir::new().unwrap();
    let reference = prep_graph(&td);

    let peers = free_addrs(2).join(",");
    let ctrl = free_addrs(1).remove(0);
    let metrics = free_addrs(1).remove(0);
    // two in-place relaunches budgeted: one per injected mesh death below
    let env: &[(&str, &str)] = &[("DFO_MAX_RESTARTS", "2")];
    let mut daemons = [
        spawn_daemon(
            0,
            td.path(),
            &peers,
            Some(&ctrl),
            &[("DFO_MAX_RESTARTS", "2"), ("DFO_METRICS_ADDR", &metrics)],
        ),
        spawn_daemon(1, td.path(), &peers, None, env),
    ];
    let client = connect_with_retry(&ctrl, "relaunch");

    // the victim: a sleeper with one retry budgeted, running when the mesh
    // dies under it
    let victim = client.submit(fault_spec(2, 2000).with_max_retries(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while victim.status().map(|s| s.phase) != Some(JobPhase::Running) {
        assert!(Instant::now() < deadline, "victim never started: {:?}", victim.status());
        std::thread::sleep(Duration::from_millis(25));
    }

    // the culprit poisons the mesh mid-victim; it has no retry budget, so
    // its waiter resolves with the typed retryable error instead of
    // stranding on the dead mesh
    let culprit = client.submit(fault_spec(1, 200)).unwrap();
    match culprit.wait() {
        Err(e @ DfoError::NetClosed(_)) => {
            assert!(e.is_retryable(), "NetClosed must stay retryable through the wire")
        }
        other => panic!("culprit must fail with typed NetClosed, got {other:?}"),
    }

    // the victim was requeued and completed on the relaunched mesh
    let vr = victim.wait().expect("victim must complete on the rebuilt mesh");
    assert_eq!(vr.retries, 1, "one honored retry after the mesh death");

    // the rebuilt mesh computes bit-identical answers
    let report = client.submit(pagerank_spec()).unwrap().wait().unwrap();
    assert_outputs_match(&report, &reference);

    // a non-retryable failure reaches its waiter typed even though it also
    // kills the mesh, and retries are NOT spent on it despite the budget
    let bad = client.submit(fault_spec(0, 0).with_max_retries(3)).unwrap();
    match bad.wait() {
        Err(DfoError::Config(m)) => assert!(m.contains("injected"), "unexpected message: {m}"),
        other => panic!("non-retryable fault must fail with typed Config, got {other:?}"),
    }

    // second relaunch: the mesh still serves correct jobs afterwards
    let report = client.submit(pagerank_spec()).unwrap().wait().unwrap();
    assert_outputs_match(&report, &reference);

    let body = scrape_metrics(&metrics);
    assert!(body.contains("dfo_job_retries_total"), "missing retry counter:\n{body}");
    assert!(body.contains("dfo_mesh_relaunches_total"), "missing relaunch counter:\n{body}");
    save_metrics(&body);

    client.shutdown().unwrap();
    for (r, d) in daemons.iter_mut().enumerate() {
        let st = wait_with_deadline(d, &format!("daemon rank {r}"));
        assert!(st.success(), "daemon rank {r} exited with {st:?}");
    }
}

#[test]
#[ignore = "spawns rank processes; run with --include-ignored (CI does)"]
fn seeded_interleave_sweep_over_submit_cancel_fail() {
    let td = TempDir::new().unwrap();
    let reference = prep_graph(&td);

    let peers = free_addrs(2).join(",");
    let ctrl = free_addrs(1).remove(0);
    let env: &[(&str, &str)] = &[("DFO_MAX_RESTARTS", "10")];
    let mut daemons = [
        spawn_daemon(0, td.path(), &peers, Some(&ctrl), env),
        spawn_daemon(1, td.path(), &peers, None, env),
    ];
    let client = connect_with_retry(&ctrl, "sweep");

    for seed in 0..3u64 {
        // a tiny deterministic LCG drives the interleaving: job mix, submit
        // stagger, cancel victims and cancel timing all derive from `seed`
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut roll = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut handles = Vec::new();
        let mut fault_used = false;
        for _ in 0..4 {
            let spec = match roll(3) {
                0 => pagerank_spec().with_max_retries(2),
                1 => fault_spec(2, 200 + roll(400)).with_max_retries(2),
                _ if !fault_used => {
                    // at most one mesh killer per round bounds relaunches
                    fault_used = true;
                    fault_spec(1, 50 + roll(300))
                }
                _ => pagerank_spec().with_max_retries(2),
            };
            handles.push(client.submit(spec).unwrap());
            if roll(10) < 4 {
                std::thread::sleep(Duration::from_millis(roll(120)));
            }
        }
        for h in &handles {
            if roll(10) < 3 {
                std::thread::sleep(Duration::from_millis(roll(150)));
                let _ = h.cancel();
            }
        }
        // every waiter must resolve — completed, cancelled, or a typed
        // failure — no matter how the orderings interleaved with a mesh
        // death; nothing strands
        for h in handles.drain(..) {
            match h.wait() {
                Ok(r) => assert!(r.retries <= 2, "seed {seed}: retries past the bound"),
                Err(DfoError::Cancelled(_)) | Err(DfoError::NetClosed(_)) => {}
                Err(other) => panic!("seed {seed}: unexpected terminal error {other:?}"),
            }
        }
        // the mesh — relaunched or not — still computes correct answers
        let check = client.submit(pagerank_spec().with_max_retries(3)).unwrap();
        assert_outputs_match(&check.wait().unwrap(), &reference);
    }

    client.shutdown().unwrap();
    for (r, d) in daemons.iter_mut().enumerate() {
        let st = wait_with_deadline(d, &format!("daemon rank {r}"));
        assert!(st.success(), "daemon rank {r} exited with {st:?}");
    }
}
