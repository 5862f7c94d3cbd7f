//! The `run` child of `svc_degree`: a two-rank `Daemon` mesh on threads over
//! loopback TCP, loaded by two closed-loop `DfoClient`s (one outstanding job
//! each — callers wait for their report before asking again).
//!
//! The daemon ranks keep their disk and network counters to themselves, so
//! the workload's bytes per edge are those of the same `degree` job run
//! in-process (`Cluster::run_scoped`) on the same preprocessed directory.

use dfograph::core::Cluster;
use dfograph::types::{DfoError, EngineConfig, Result};
use dfograph::{Daemon, DfoClient, JobReport, JobSpec};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::batch::{write_span, Args};
use crate::jobs::{digest_outputs, free_addrs, library_job};
use crate::probes;
use crate::report::RunResult;
use crate::setup::{self, SVC_GRAPH};
use crate::stats::{calibrated, median, percentile};
use crate::traced::{Counters, SpanRec};
use crate::workloads::{Job, Workload, RANKS};

/// Closed-loop clients (each with one job outstanding).
const CLIENTS: usize = 2;
/// Untimed jobs per client before the measured window.
const WARMUP_JOBS: usize = 50;
/// A job with no report after this long is a failed operation.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
/// Times the daemon mesh is brought up per run; `setup_s` and
/// `service.bootstrap_ms` take the median.
const BOOTSTRAPS: usize = 3;

/// A running daemon mesh and the address clients dial.
struct Mesh {
    ranks: Vec<JoinHandle<Result<()>>>,
    control: String,
}

impl Mesh {
    /// Starts one daemon thread per rank on fresh ports and returns with the
    /// first connected client and the seconds from start to that connect.
    fn start(w: &Workload, base: &Path) -> Result<(Mesh, DfoClient, f64)> {
        let t = Instant::now();
        let peers = free_addrs(RANKS);
        let control = free_addrs(1).remove(0);
        let ranks = (0..RANKS)
            .map(|rank| {
                let mut cfg: EngineConfig = w.config();
                cfg.peers = Some(peers.clone());
                cfg.control_addr = (rank == 0).then(|| control.clone());
                let base = base.to_path_buf();
                std::thread::spawn(move || Daemon::run(cfg, rank, base))
            })
            .collect();
        let mesh = Mesh { ranks, control };
        // rank 0 binds its listener only after the mesh handshake
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match DfoClient::connect_as(&mesh.control, "bench-0") {
                Ok(client) => return Ok((mesh, client, t.elapsed().as_secs_f64())),
                Err(e)
                    if Instant::now() >= deadline || mesh.ranks.iter().any(|r| r.is_finished()) =>
                {
                    return Err(e)
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Asks the mesh to shut down through `client` and joins every rank.
    fn stop(self, client: DfoClient) -> Result<()> {
        client.shutdown()?;
        for r in self.ranks {
            r.join().map_err(|_| DfoError::Panic("daemon rank panicked".into()))??;
        }
        Ok(())
    }
}

/// What one client saw over one closed-loop window.
#[derive(Default)]
struct Seen {
    latency_s: Vec<f64>,
    /// Latencies of the jobs that also recorded spans (kept apart so the
    /// two kinds, interleaved in one window, give the tracing overhead).
    traced_latency_s: Vec<f64>,
    exec_s: Vec<f64>,
    retries: u64,
    attempted: u64,
    failed: u64,
    spans: Vec<SpanRec>,
}

fn report_digest(report: &JobReport) -> u64 {
    digest_outputs(report.outputs.iter().map(|o| o.values.as_slice()))
}

/// Submits `spec` over and over, one job outstanding, while `more(done)`.
/// With `epoch` set, every second job also leaves a `svc_job` span with
/// `submit` and `wait` children on the shared clock.
fn closed_loop(
    client: &DfoClient,
    spec: &JobSpec,
    want_digest: Option<u64>,
    epoch: Option<Instant>,
    more: impl Fn(usize) -> bool,
) -> Seen {
    let mut seen = Seen::default();
    let ns = |t: Instant| epoch.map_or(0, |e| t.duration_since(e).as_nanos() as u64);
    let mut done = 0;
    while more(done) {
        let traced = epoch.is_some() && done % 2 == 1;
        done += 1;
        seen.attempted += 1;
        let t0 = Instant::now();
        let submitted = client.submit(spec.clone());
        let t1 = Instant::now();
        let outcome = submitted.and_then(|h| match h.wait_timeout(JOB_TIMEOUT) {
            Ok(res) => res,
            Err(h) => {
                let _ = h.cancel();
                Err(DfoError::NetClosed(format!("no report within {JOB_TIMEOUT:?}")))
            }
        });
        let t2 = Instant::now();
        match outcome {
            Ok(report) if want_digest.is_none_or(|d| d == report_digest(&report)) => {
                if traced {
                    seen.traced_latency_s.push((t2 - t0).as_secs_f64());
                } else {
                    seen.latency_s.push((t2 - t0).as_secs_f64());
                    seen.exec_s.push(report.elapsed.as_secs_f64());
                }
                seen.retries += u64::from(report.retries);
            }
            Ok(_) => {
                eprintln!("dfo_benchmark: service job result differs from the reference digest");
                seen.failed += 1;
            }
            Err(e) => {
                eprintln!("dfo_benchmark: service job failed: {e}");
                seen.failed += 1;
            }
        }
        if traced {
            let root = seen.spans.len() as u32 + 1;
            for (i, (name, a, b)) in
                [("svc_job", t0, t2), ("submit", t0, t1), ("wait", t1, t2)].into_iter().enumerate()
            {
                seen.spans.push(SpanRec {
                    id: root + i as u32,
                    parent: if i == 0 { 0 } else { root },
                    name,
                    start_ns: ns(a),
                    end_ns: ns(b),
                    counters: Counters::default(),
                    phases: None,
                });
            }
        }
    }
    seen
}

/// Runs one closed-loop window on every client at once; returns what each
/// saw and the window's wall time.
fn window(
    clients: &[DfoClient],
    spec: &JobSpec,
    want_digest: u64,
    epoch: Option<Instant>,
    more: impl Fn(usize) -> bool + Sync,
) -> (Vec<Seen>, f64) {
    let t = Instant::now();
    let seen = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|c| s.spawn(|| closed_loop(c, spec, Some(want_digest), epoch, &more)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    (seen, t.elapsed().as_secs_f64())
}

/// The same `degree` job in-process on the same directory: wall time of one
/// job and the disk + network counters it moves, summed over ranks.
fn batch_equivalent(w: &Workload, dir: &Path, want_digest: u64) -> Result<(Vec<f64>, Counters)> {
    let mut cfg = w.config();
    cfg.peers = None;
    let cluster = Cluster::create(cfg, setup::graph_base(w, dir))?;
    let mut walls = Vec::new();
    let mut counters = Counters::default();
    for _ in 0..5 {
        let t = Instant::now();
        let ranks = cluster.run_scoped("bench_equiv", |ctx| {
            let before = Counters::of(ctx);
            let out = library_job(ctx, Job::SvcDegree)?;
            Ok((out, Counters::of(ctx).since(&before)))
        })?;
        walls.push(t.elapsed().as_secs_f64());
        if digest_outputs(ranks.iter().map(|(o, _)| o.as_slice())) != want_digest {
            return Err(DfoError::Corrupt(
                "in-process degree job differs from the reference".into(),
            ));
        }
        counters = Counters::default();
        for (_, c) in &ranks {
            counters.add(c);
        }
    }
    cluster.remove_scratch("bench_equiv")?;
    Ok((walls, counters))
}

pub fn run(a: &Args) -> std::result::Result<RunResult, String> {
    let e = |e: DfoError| e.to_string();
    let w = a.workload;
    let info = setup::load(a.dir)?;
    let base = setup::svc_base(a.dir);
    let started = Instant::now();
    let mut result = RunResult {
        workload: w.name.to_string(),
        seed: a.seed,
        trace: a.trace,
        digest: format!("{:016x}", info.digest),
        ..RunResult::default()
    };

    // bring the mesh up several times; the last one serves the run
    let mut bootstrap_s = Vec::new();
    let (mesh, first) = loop {
        let (mesh, client, secs) = Mesh::start(&w, &base).map_err(e)?;
        bootstrap_s.push(secs);
        if bootstrap_s.len() == BOOTSTRAPS {
            break (mesh, client);
        }
        mesh.stop(client).map_err(e)?;
    };
    let mut clients = vec![first];
    for i in 1..CLIENTS {
        clients.push(DfoClient::connect_as(&mesh.control, &format!("bench-{i}")).map_err(e)?);
    }

    let spec = JobSpec::new(SVC_GRAPH, "degree");
    let (warm, _) = window(&clients, &spec, info.digest, None, |done| done < WARMUP_JOBS);
    let mut attempted: u64 = warm.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = warm.iter().map(|s| s.failed).sum();

    if a.trace {
        // control round trip while few jobs are tracked (the reply lists all)
        let p = calibrated(Duration::from_secs_f64(a.seconds * 0.03), || {
            std::hint::black_box(clients[0].list_jobs().expect("list_jobs round trip"));
        });
        result.set("service.ctrl_rtt_us", p.ns_per_call / 1e3, p.samples as u64);
    }

    // the measured window: the whole of it with tracing off; with tracing
    // on, shorter and every second job records client-side spans
    let plain_s = if a.trace { a.seconds * 0.45 } else { a.seconds };
    crate::reset_peak_rss();
    let t = Instant::now();
    let (plain, plain_wall) = window(&clients, &spec, info.digest, a.trace.then_some(t), |_| {
        t.elapsed().as_secs_f64() < plain_s
    });
    let peak_rss_mb = crate::peak_rss_mb();
    attempted += plain.iter().map(|s| s.attempted).sum::<u64>();
    failed += plain.iter().map(|s| s.failed).sum::<u64>();
    let latency_ms: Vec<f64> =
        plain.iter().flat_map(|s| s.latency_s.iter().map(|l| l * 1e3)).collect();
    let n = latency_ms.len() as u64;

    if a.trace && n > 0 {
        let traced_ms: Vec<f64> =
            plain.iter().flat_map(|s| s.traced_latency_s.iter().map(|l| l * 1e3)).collect();
        if let Some(path) = a.trace_out {
            let mut text = String::new();
            for (client, s) in plain.iter().enumerate() {
                for span in &s.spans {
                    write_span(&mut text, w.name, 0, client, span);
                }
            }
            std::fs::write(path, text).map_err(|e| format!("writing {path:?}: {e}"))?;
        }

        // one-iteration PageRank through the same client, one at a time
        let pr1 = JobSpec::new(SVC_GRAPH, "pagerank").with_param("iters", 1);
        let t = Instant::now();
        let pr = closed_loop(&clients[0], &pr1, None, None, |done| {
            done < 5 || (done < 50 && t.elapsed().as_secs_f64() < a.seconds * 0.1)
        });
        attempted += pr.attempted;
        failed += pr.failed;

        let exec_ms: Vec<f64> =
            plain.iter().flat_map(|s| s.exec_s.iter().map(|x| x * 1e3)).collect();
        let overhead_ms: Vec<f64> = plain
            .iter()
            .flat_map(|s| s.latency_s.iter().zip(&s.exec_s).map(|(l, x)| (l - x) * 1e3))
            .collect();
        result.set("service.job_p95_ms", percentile(&latency_ms, 95.0), n);
        result.set("service.job_p99_ms", percentile(&latency_ms, 99.0), n);
        result.set("service.job_max_ms", percentile(&latency_ms, 100.0), n);
        result.set("service.exec_p50_ms", median(&exec_ms), n);
        result.set("service.overhead_p50_ms", median(&overhead_ms), n);
        if !pr.latency_s.is_empty() {
            let ms: Vec<f64> = pr.latency_s.iter().map(|l| l * 1e3).collect();
            result.set("service.pr1_job_ms", median(&ms), ms.len() as u64);
        }
        result.set("service.bootstrap_ms", median(&bootstrap_s) * 1e3, bootstrap_s.len() as u64);
        let retried: u64 = plain.iter().map(|s| s.retries).sum();
        result.set("service.jobs_retried", retried as f64, 0);
        if !traced_ms.is_empty() {
            let ratio = median(&traced_ms) / median(&latency_ms);
            result.set("trace_overhead_ratio", ratio, traced_ms.len() as u64);
            result.set("trace.traced_run_s", median(&traced_ms) / 1e3, traced_ms.len() as u64);
            let spans: usize = plain.iter().map(|s| s.spans.len()).sum();
            result.set("trace.spans", spans as f64, 0);
            // submit + wait cover the client's view of a job by construction
            result.set("trace.span_coverage", 1.0, 0);
        }
        let codec = JobSpec::new(SVC_GRAPH, "pagerank").with_param("iters", 1).with_priority(3);
        let p = calibrated(Duration::from_secs_f64(a.seconds * 0.02), || {
            let bytes = std::hint::black_box(&codec).encode();
            std::hint::black_box(JobSpec::decode(&bytes).expect("own encoding decodes"));
        });
        result.set("service.jobspec_codec_ns", p.ns_per_call, p.samples as u64);
    }

    // daemons down before anything else touches the directory
    let mut clients = clients.into_iter();
    let first = clients.next().expect("first client");
    drop(clients);
    mesh.stop(first).map_err(e)?;
    let (walls, c) = batch_equivalent(&w, a.dir, info.digest).map_err(e)?;

    if !a.trace && n > 0 {
        let work_edges = w.work_edges(info.n_edges) as f64;
        let p50 = median(&latency_ms);
        let setup_s = median(&info.preprocess_s) + median(&bootstrap_s);
        result.set("setup_s", setup_s, bootstrap_s.len() as u64);
        result.set("run_s", p50 / 1e3, n);
        result.set("edges_per_s", work_edges / (p50 / 1e3), n);
        let disk = (c.disk_read_bytes + c.disk_write_bytes) as f64;
        result.set("disk_bytes_per_edge", disk / work_edges, 0);
        result.set("net_bytes_per_edge", c.net_sent_bytes as f64 / work_edges, 0);
        result.set("jobs_per_s", n as f64 / plain_wall, n);
        result.set("job_p50_ms", p50, n);
        result.set("peak_rss_mb", peak_rss_mb, 0);
    }
    if a.trace && n > 0 {
        let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
        result.set("service.batch_equiv_ms", median(&ms), ms.len() as u64);
        result.set("storage.read_mb", c.disk_read_bytes as f64 / 1e6, 0);
        result.set("storage.write_mb", c.disk_write_bytes as f64 / 1e6, 0);
        result.set("storage.logical_read_mb", c.disk_logical_read_bytes as f64 / 1e6, 0);
        result.set("storage.read_ops", c.disk_read_ops as f64, 0);
        result.set("storage.write_ops", c.disk_write_ops as f64, 0);
        result.set("net.sent_mb", c.net_sent_bytes as f64 / 1e6, 0);
        result.set("net.sent_frames", c.net_sent_frames as f64, 0);
        if c.net_sent_frames > 0 {
            result.set(
                "net.bytes_per_frame",
                c.net_sent_bytes as f64 / c.net_sent_frames as f64,
                0,
            );
        }
        let preprocess_s = median(&info.preprocess_s);
        result.set(
            "part.preprocess_edges_per_s",
            info.n_edges as f64 / preprocess_s,
            info.preprocess_s.len() as u64,
        );
        result.set("part.stored_bytes_per_edge", info.stored_bytes as f64 / info.n_edges as f64, 0);
        let left = (a.seconds - started.elapsed().as_secs_f64()).max(1.0);
        probes::storage_and_part(&w, a.dir, left * 0.5, &mut result)?;
        probes::net(left * 0.4, &mut result)?;
        probes::span_cost(left * 0.1, &mut result);
    }
    result.attempted = attempted;
    result.failed = failed;
    result.correct = failed == 0 && n > 0;
    Ok(result)
}
