//! Service mode: a resident engine with a graph catalog, concurrent jobs,
//! admission control, and cooperative cancellation.
//!
//! Loads one R-MAT graph into the catalog (preprocessing happens once),
//! submits three analytics jobs that run concurrently over the shared
//! preprocessed chunks and chunk caches, demonstrates cancelling a
//! long-running job mid-flight, then scrapes the service's own metrics
//! endpoint over plain TCP and checks the expected families are there.
//!
//! ```sh
//! cargo run --release --example graph_service
//! ```
//!
//! Set `DFO_SCRAPE_OUT=<path>` to also write the scraped Prometheus body
//! to a file (CI greps it for metric families).

use dfograph::graph::gen::{rmat, GenConfig};
use dfograph::types::{DfoError, EngineConfig};
use dfograph::{JobSpec, Service};
use std::io::{Read, Write};

fn main() -> dfograph::types::Result<()> {
    // 1. a resident service: one engine per rank, rooted in a temp dir,
    //    with the scrape endpoint on an ephemeral local port
    let dir = std::env::temp_dir().join("dfograph-service");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = EngineConfig::for_test(2);
    cfg.chunk_cache_bytes = 8 << 20;
    cfg.metrics_addr = Some("127.0.0.1:0".into());
    let svc = Service::new(cfg, &dir)?;

    // 2. catalog: preprocess once, run many jobs. 2^12 vertices, avg deg 16.
    let graph = rmat(GenConfig::new(12, 16, 42));
    let entry = svc.load_graph("social", &graph)?;
    println!(
        "catalog: loaded {:?} ({} vertices, {} edges)",
        entry.name(),
        entry.plan().n_vertices,
        graph.n_edges()
    );

    // 3. three concurrent jobs over the same catalog graph — they share the
    //    preprocessed chunks and per-rank chunk caches, and each report
    //    attributes cache hits/misses to its own lookups
    let jobs = [
        svc.submit(JobSpec::new("social", "pagerank").with_param("iters", 5))?,
        svc.submit(JobSpec::new("social", "bfs").with_param("root", 0))?,
        svc.submit(JobSpec::new("social", "degree"))?,
    ];
    let (running, queued) = svc.job_counts();
    println!("submitted 3 jobs: {running} running, {queued} queued\n");
    for job in jobs {
        let report = job.wait()?;
        let n_values: usize = report.outputs.iter().map(|o| o.len()).sum();
        println!(
            "job {} ({:>8}): {:>5} values over {} ranks, {} cache hits / {} misses, {:.1?}",
            report.id,
            report.algorithm,
            n_values,
            report.outputs.len(),
            report.totals.chunk_cache_hits,
            report.totals.chunk_cache_misses,
            report.elapsed
        );
    }

    // 4. cooperative cancellation: a job nobody wants to wait 10k iterations
    //    for. Every rank observes the token at its next Process-call
    //    boundary, they agree collectively, and the job unwinds together —
    //    freeing its admission budget for queued work.
    let hog = svc.submit(JobSpec::new("social", "pagerank").with_param("iters", 10_000))?;
    hog.cancel();
    match hog.wait() {
        Err(DfoError::Cancelled(_)) => println!("\nlong job cancelled cooperatively"),
        other => {
            return Err(DfoError::Config(format!(
                "expected the cancelled job to report Cancelled, got {other:?}"
            )))
        }
    }

    let (running, queued) = svc.job_counts();
    assert_eq!((running, queued), (0, 0), "all budget freed");
    println!("service drained: {running} running, {queued} queued");

    // 5. scrape our own metrics endpoint — plain TCP, no HTTP client
    //    needed. The body is Prometheus text exposition: phase-time
    //    histograms per rank, per-job cache counters, disk/net byte totals.
    let addr = svc.metrics_addr().expect("metrics endpoint configured above");
    let body = scrape(addr)?;
    for family in [
        "dfo_phase_seconds",
        "dfo_job_cache_hits_total",
        "dfo_jobs_completed_total",
        "dfo_disk_read_bytes_total",
        "dfo_net_sent_bytes_total",
    ] {
        if !body.contains(family) {
            return Err(DfoError::Config(format!("scrape is missing metric family {family}")));
        }
    }
    println!("\nscraped http://{addr}/metrics: {} bytes, sample lines:", body.len());
    for line in body.lines().filter(|l| l.starts_with("dfo_jobs_")) {
        println!("  {line}");
    }
    if let Ok(path) = std::env::var("DFO_SCRAPE_OUT") {
        std::fs::write(&path, &body).map_err(|e| DfoError::io("writing scrape output", e))?;
        println!("scrape body written to {path}");
    }
    Ok(())
}

/// One `GET /metrics` over a raw [`std::net::TcpStream`], returning the
/// response body.
fn scrape(addr: std::net::SocketAddr) -> dfograph::types::Result<String> {
    let mut s = std::net::TcpStream::connect(addr)
        .map_err(|e| DfoError::io("connecting to metrics endpoint", e))?;
    write!(s, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| DfoError::io("sending scrape request", e))?;
    let mut response = String::new();
    s.read_to_string(&mut response).map_err(|e| DfoError::io("reading scrape response", e))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| DfoError::Config("malformed scrape response".into()))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(DfoError::Config(format!("scrape failed: {head}")));
    }
    Ok(body.to_string())
}
