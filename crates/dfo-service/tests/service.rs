//! Service-mode acceptance tests: concurrent jobs bit-identical to batch
//! mode, shared chunk caches, admission control, cooperative cancellation.

use dfo_algos::{bfs, pagerank, read_local};
use dfo_graph::gen::{rmat, GenConfig};
use dfo_service::{JobPhase, JobSpec, Service};
use dfo_types::{BatchPolicy, DfoError, EngineConfig};
use tempfile::TempDir;

fn cfg(nodes: usize) -> EngineConfig {
    let mut c = EngineConfig::for_test(nodes);
    c.batch_policy = BatchPolicy::FixedVertices(64);
    c.chunk_cache_bytes = 4 << 20;
    c
}

/// Two jobs submitted back-to-back run concurrently over one catalog graph
/// and produce results bit-identical to batch-mode `Cluster::run` over the
/// very same preprocessed disks.
#[test]
fn concurrent_jobs_match_batch_mode_bit_for_bit() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(3), td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    // both in flight before either is waited on
    let jp = svc.submit(JobSpec::new("g", "pagerank").with_param("iters", 5)).unwrap();
    let jb = svc.submit(JobSpec::new("g", "bfs").with_param("root", 0)).unwrap();
    let pr_svc = jp.wait().unwrap().assemble::<f64>().unwrap();
    let bfs_svc = jb.wait().unwrap().assemble::<u32>().unwrap();

    // batch mode on the same catalog entry (the migration path)
    let entry = svc.graph("g").unwrap();
    let batch = entry
        .cluster()
        .run(|ctx| {
            let pr_arr = pagerank(ctx, 5)?;
            let pr = read_local(ctx, &pr_arr)?;
            let lv_arr = bfs(ctx, 0)?;
            let lv = read_local(ctx, &lv_arr)?;
            Ok((pr, lv))
        })
        .unwrap();
    let pr_batch: Vec<f64> = batch.iter().flat_map(|(p, _)| p.iter().copied()).collect();
    let bfs_batch: Vec<u32> = batch.iter().flat_map(|(_, l)| l.iter().copied()).collect();

    assert_eq!(pr_svc.len(), g.n_vertices as usize);
    assert_eq!(pr_svc, pr_batch, "service pagerank must be bit-identical to batch mode");
    assert_eq!(bfs_svc, bfs_batch, "service bfs must be bit-identical to batch mode");
}

/// Concurrent jobs over one graph share its chunk caches: each job's own
/// attributed hit counter is positive, and their union exceeds what either
/// saw alone. Per-job counters are counted at the job's lookup sites, so
/// the concurrent partner does not pollute them.
#[test]
fn concurrent_jobs_share_the_chunk_cache() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(2), td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    let a = svc.submit(JobSpec::new("g", "pagerank").with_param("iters", 6)).unwrap();
    let b = svc.submit(JobSpec::new("g", "pagerank").with_param("iters", 6)).unwrap();
    let ra = a.wait().unwrap();
    let rb = b.wait().unwrap();

    assert!(ra.totals.chunk_cache_hits > 0, "job A should re-hit chunks across iterations");
    assert!(rb.totals.chunk_cache_hits > 0, "job B should re-hit chunks across iterations");
    let combined = ra.totals.chunk_cache_hits + rb.totals.chunk_cache_hits;
    assert!(combined > ra.totals.chunk_cache_hits && combined > rb.totals.chunk_cache_hits);

    // the shared-cache window of a job spanning both runs sees at least its
    // own attributed traffic
    let window_hits: u64 = ra.cache_window.iter().map(|c| c.hits).sum();
    assert!(window_hits >= ra.totals.chunk_cache_hits);
}

/// Admission control: a job whose estimate saturates `mem_budget` runs
/// alone; the next job demonstrably queues, and cancelling the hog frees
/// the budget so the queued job runs to completion.
#[test]
fn over_budget_job_queues_and_cancellation_frees_budget() {
    let g = rmat(GenConfig::new(8, 6, 13));
    let td = TempDir::new().unwrap();
    let config = cfg(2);
    let budget = config.mem_budget;
    let svc = Service::new(config, td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    // hog: saturates the budget and runs long enough to observe (the
    // cancel lands at a Process-call boundary within a few iterations)
    let hog = svc
        .submit(JobSpec::new("g", "pagerank").with_param("iters", 10_000).with_mem_estimate(budget))
        .unwrap();
    // over budget by one byte: must queue, FIFO, no overtaking
    let queued = svc
        .submit(JobSpec::new("g", "pagerank").with_param("iters", 2).with_mem_estimate(1))
        .unwrap();
    assert_eq!(queued.stats().phase, JobPhase::Queued, "second job must wait for budget");

    hog.cancel();
    let report = queued.wait().unwrap();
    assert_eq!(report.outputs.len(), 2, "queued job ran once budget freed");

    let err = hog.wait().unwrap_err();
    assert!(matches!(err, DfoError::Cancelled(_)), "hog must report Cancelled, got {err}");
}

/// Cancelling a job that is still queued withdraws it without running.
#[test]
fn cancelling_a_queued_job_withdraws_it() {
    let g = rmat(GenConfig::new(8, 6, 13));
    let td = TempDir::new().unwrap();
    let config = cfg(2);
    let budget = config.mem_budget;
    let svc = Service::new(config, td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    let hog = svc
        .submit(JobSpec::new("g", "pagerank").with_param("iters", 10_000).with_mem_estimate(budget))
        .unwrap();
    let queued = svc.submit(JobSpec::new("g", "degree").with_mem_estimate(1)).unwrap();
    assert_eq!(queued.stats().phase, JobPhase::Queued);

    queued.cancel();
    let err = queued.wait().unwrap_err();
    assert!(matches!(err, DfoError::Cancelled(_)), "queued job withdraws as Cancelled");

    hog.cancel();
    assert!(matches!(hog.wait().unwrap_err(), DfoError::Cancelled(_)));
}

/// Bad specs fail with typed errors at submit time, before any rank runs:
/// unknown graph, unknown algorithm, and an edge-payload mismatch (SSSP
/// needs f32 weights; the graph was preprocessed unweighted).
#[test]
fn submit_time_validation() {
    let g = rmat(GenConfig::new(8, 6, 13));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(2), td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    let err = svc.submit(JobSpec::new("nope", "pagerank")).unwrap_err();
    assert!(err.to_string().contains("not in the catalog"), "{err}");

    let err = svc.submit(JobSpec::new("g", "pagerank2")).unwrap_err();
    assert!(err.to_string().contains("unknown algorithm"), "{err}");

    let err = svc.submit(JobSpec::new("g", "sssp")).unwrap_err();
    assert!(err.to_string().contains("bytes/edge"), "{err}");
}

/// Catalog lifecycle: duplicate names refused, unload makes the name
/// unresolvable for new jobs, names must be path-safe.
#[test]
fn catalog_lifecycle() {
    let g = rmat(GenConfig::new(8, 6, 13));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(2), td.path()).unwrap();

    svc.load_graph("g", &g).unwrap();
    assert_eq!(svc.graphs(), ["g"]);
    assert!(svc.load_graph("g", &g).unwrap_err().to_string().contains("already loaded"));
    assert!(svc.load_graph("../escape", &g).is_err());

    svc.unload_graph("g").unwrap();
    assert!(svc.graphs().is_empty());
    assert!(svc.submit(JobSpec::new("g", "pagerank")).is_err());
    assert!(svc.unload_graph("g").is_err());
}

/// Guards the per-job cache attribution (counted at each job's own lookup
/// sites): over a window of **sequential** jobs, the per-job hit/miss
/// series in the service registry sum exactly to the shared cache's
/// counter delta across that window — nothing double-counted, nothing
/// dropped.
#[test]
fn job_cache_series_sum_to_shared_window_delta() {
    let g = rmat(GenConfig::new(9, 6, 77));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(2), td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();
    let entry = svc.graph("g").unwrap();

    let before = entry.cluster().chunk_cache_stats();
    // sequential (each waited before the next submits), so the shared
    // window delta is exactly the union of the jobs' own lookups
    let r1 = svc.submit(JobSpec::new("g", "pagerank").with_param("iters", 4)).unwrap();
    let r1 = r1.wait().unwrap();
    let r2 = svc.submit(JobSpec::new("g", "bfs").with_param("root", 0)).unwrap();
    let r2 = r2.wait().unwrap();
    let after = entry.cluster().chunk_cache_stats();

    let delta_hits: u64 =
        after.iter().zip(&before).map(|(now, then)| now.delta_since(then).hits).sum();
    let delta_misses: u64 =
        after.iter().zip(&before).map(|(now, then)| now.delta_since(then).misses).sum();
    assert!(delta_hits > 0, "iterative pagerank must re-hit warm chunks");

    // report totals agree with the shared window…
    assert_eq!(r1.totals.chunk_cache_hits + r2.totals.chunk_cache_hits, delta_hits);
    assert_eq!(r1.totals.chunk_cache_misses + r2.totals.chunk_cache_misses, delta_misses);

    // …and so do the scrapeable per-job series
    let snap = svc.registry().snapshot();
    let series_sum = |family: &str| -> u64 {
        snap.series(family).iter().filter_map(|s| s.value.as_counter()).sum()
    };
    assert_eq!(series_sum("dfo_job_cache_hits_total"), delta_hits);
    assert_eq!(series_sum("dfo_job_cache_misses_total"), delta_misses);
    assert_eq!(series_sum("dfo_jobs_completed_total"), 2);
}

/// A catalog holds several graphs at once; jobs over different graphs are
/// fully independent (separate disks and caches under one service root).
#[test]
fn multiple_graphs_in_one_catalog() {
    let g1 = rmat(GenConfig::new(8, 6, 13));
    let g2 = rmat(GenConfig::new(8, 6, 99));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(2), td.path()).unwrap();
    svc.load_graph("a", &g1).unwrap();
    svc.load_graph("b", &g2).unwrap();

    let ja = svc.submit(JobSpec::new("a", "degree")).unwrap();
    let jb = svc.submit(JobSpec::new("b", "degree")).unwrap();
    let da = ja.wait().unwrap().assemble::<u64>().unwrap();
    let db = jb.wait().unwrap().assemble::<u64>().unwrap();

    assert_eq!(da.iter().sum::<u64>(), g1.n_edges());
    assert_eq!(db.iter().sum::<u64>(), g2.n_edges());
    assert_ne!(da, db, "different seeds give different degree profiles");
}

/// Bounded retry policy: a retryable failure (here a deterministic
/// injected rank death, surfacing as the mesh-failure error checkpointing
/// exists for) is re-executed up to `max_retries` times, the retry count
/// is visible live on the handle, and the final error is typed retryable
/// for the caller. A first-try success reports zero retries.
#[test]
fn retryable_failures_are_retried_then_surface_typed() {
    use dfo_types::CrashPoint;
    let g = rmat(GenConfig::new(8, 6, 13));
    let td = TempDir::new().unwrap();
    let mut c = cfg(2);
    // every execution of any job dies at Process call 1 on rank 1 — the
    // retry budget must be spent, then the typed error surfaces
    c.crash_schedule = vec![CrashPoint { rank: Some(1), ..CrashPoint::at(1) }];
    let svc = Service::new(c, td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    let h = svc.submit(JobSpec::new("g", "degree").with_max_retries(2)).unwrap();
    let err = h.wait().unwrap_err();
    assert!(err.is_retryable(), "want a typed retryable mesh error, got {err:?}");

    // the retry counter is part of the job's report/status surface; read
    // it via a fresh handle-less probe: submit again and check live stats
    let h2 = svc.submit(JobSpec::new("g", "degree").with_max_retries(1)).unwrap();
    let mut last = h2.stats();
    while last.phase != JobPhase::Failed {
        std::thread::sleep(std::time::Duration::from_millis(5));
        last = h2.stats();
    }
    assert_eq!(last.retries, 1, "one absorbed retry before the bounded budget ran out");
    assert!(h2.wait().unwrap_err().is_retryable());
}

/// Jobs that succeed first try report zero retries, and non-retryable
/// outcomes (cancellation) never consume retry budget.
#[test]
fn successful_and_cancelled_jobs_do_not_retry() {
    let g = rmat(GenConfig::new(8, 6, 13));
    let td = TempDir::new().unwrap();
    let svc = Service::new(cfg(2), td.path()).unwrap();
    svc.load_graph("g", &g).unwrap();

    let ok = svc.submit(JobSpec::new("g", "degree").with_max_retries(3)).unwrap();
    let report = ok.wait().unwrap();
    assert_eq!(report.retries, 0);

    let cancelled = svc.submit(JobSpec::new("g", "pagerank").with_param("iters", 50)).unwrap();
    cancelled.cancel();
    let st = cancelled.stats();
    assert_eq!(st.retries, 0);
    match cancelled.wait() {
        Err(DfoError::Cancelled(_)) => {}
        other => panic!("want Cancelled, got {other:?}"),
    }
}
