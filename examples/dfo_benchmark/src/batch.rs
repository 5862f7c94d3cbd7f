//! The `run` child of the four batch workloads: reopen the preprocessed
//! directory, warm up, then measure jobs for the requested window — with
//! tracing off for the end-to-end numbers, or alternating plain and traced
//! jobs (then the layer probes) for the per-layer numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::jobs::{with_watchdog, JobOut, Runner};
use crate::probes;
use crate::report::RunResult;
use crate::setup::{self, SetupInfo};
use crate::stats::median;
use crate::traced::{Counters, SpanRec};
use crate::workloads::Workload;

const MB: f64 = 1e6;

/// A job that has not finished after this long is hung (the slowest
/// workload's job takes about a second here).
const WARMUP_LIMIT: Duration = Duration::from_secs(60);

/// Share of the traced run's window spent on jobs; the rest is for probes.
const TRACED_JOB_SHARE: f64 = 0.55;

/// Runs jobs one at a time, checks every result and counts operations.
struct Driver {
    runner: Runner,
    workload: Workload,
    want_digest: u64,
    limit: Duration,
    attempted: u64,
    failed: u64,
}

impl Driver {
    /// One job under the watchdog; `None` when it failed (already counted).
    /// A fired watchdog ends the process: its threads cannot be reclaimed.
    fn job(&mut self, traced: bool, result: &RunResult) -> Option<JobOut> {
        self.attempted += 1;
        let (runner, job) = (self.runner.clone(), self.workload.job);
        match with_watchdog(self.limit, move || runner.run(job, traced)) {
            None => {
                eprintln!("dfo_benchmark: job exceeded its {:?} watchdog", self.limit);
                self.failed += 1;
                crate::exit_failed(result, self.attempted, self.failed);
            }
            Some(Err(e)) => {
                eprintln!("dfo_benchmark: job failed: {e}");
                self.failed += 1;
                None
            }
            Some(Ok(out)) if out.digest() != self.want_digest => {
                eprintln!(
                    "dfo_benchmark: job result digest {:016x} differs from the reference {:016x}",
                    out.digest(),
                    self.want_digest
                );
                self.failed += 1;
                None
            }
            Some(Ok(mut out)) => {
                // checked; a window of kept outputs would count as the
                // program's memory
                out.ranks.iter_mut().for_each(|r| r.output = Vec::new());
                Some(out)
            }
        }
    }
}

pub struct Args<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub dir: &'a Path,
    pub seconds: f64,
    pub trace: bool,
    /// Where to write the span file (`<out>.trace.jsonl`), if anywhere.
    pub trace_out: Option<&'a Path>,
}

pub fn run(a: &Args) -> Result<RunResult, String> {
    let w = a.workload;
    let info = setup::load(a.dir)?;
    let base = setup::graph_base(&w, a.dir);
    let mut result = RunResult {
        workload: w.name.to_string(),
        seed: a.seed,
        trace: a.trace,
        digest: format!("{:016x}", info.digest),
        ..RunResult::default()
    };
    let mut d = Driver {
        runner: Runner::open(&w, &base).map_err(|e| e.to_string())?,
        workload: w,
        want_digest: info.digest,
        limit: WARMUP_LIMIT,
        attempted: 0,
        failed: 0,
    };

    // warm-up: fills the chunk cache and the OS page cache, and sizes the
    // watchdog of every later job at ten times its wall time
    let warm = d.job(false, &result);
    if let Some(warm) = &warm {
        d.limit = Duration::from_secs_f64((warm.wall_s * 10.0).max(5.0));
    }

    if a.trace {
        traced_window(a, &info, &mut d, &mut result)?;
    } else {
        plain_window(a, &info, &mut d, &mut result);
    }
    result.attempted = d.attempted;
    result.failed = d.failed;
    result.correct = d.failed == 0;
    Ok(result)
}

/// Tracing off: jobs back to back until the window closes.
fn plain_window(a: &Args, info: &SetupInfo, d: &mut Driver, result: &mut RunResult) {
    let work_edges = a.workload.work_edges(info.n_edges) as f64;
    let window = Instant::now();
    let mut jobs: Vec<JobOut> = Vec::new();
    let mut peak_rss: Vec<f64> = Vec::new();
    let mut tries = 0;
    while (window.elapsed().as_secs_f64() < a.seconds || tries < 3) && d.failed == 0 {
        tries += 1;
        crate::reset_peak_rss();
        jobs.extend(d.job(false, result));
        peak_rss.push(crate::peak_rss_mb());
    }
    let window_s = window.elapsed().as_secs_f64();
    if jobs.is_empty() {
        return;
    }
    let n = jobs.len() as u64;
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let counters: Vec<Counters> = jobs.iter().map(JobOut::counters).collect();
    let disk: Vec<f64> =
        counters.iter().map(|c| (c.disk_read_bytes + c.disk_write_bytes) as f64).collect();
    let net: Vec<f64> = counters.iter().map(|c| c.net_sent_bytes as f64).collect();
    let run_s = median(&walls);
    result.set("setup_s", median(&info.preprocess_s), info.preprocess_s.len() as u64);
    result.set("run_s", run_s, n);
    result.set("edges_per_s", work_edges / run_s, n);
    result.set("disk_bytes_per_edge", median(&disk) / work_edges, n);
    result.set("net_bytes_per_edge", median(&net) / work_edges, n);
    result.set("jobs_per_s", n as f64 / window_s, n);
    result.set("job_p50_ms", run_s * 1e3, n);
    result.set("peak_rss_mb", median(&peak_rss), n);
}

/// What the spans and counters of one traced job say about each layer.
struct TracedJob {
    wall_s: f64,
    /// Per span name: the slowest rank's total time inside such spans.
    by_name: BTreeMap<&'static str, f64>,
    /// Generate / pass / dispatch / process phase seconds, slowest rank.
    phases: [f64; 4],
    rounds: u64,
    messages_generated: u64,
    messages_sent: u64,
    rank_skew: f64,
    coverage: f64,
    spans: u64,
    counters: Counters,
}

fn analyse(job: &JobOut) -> TracedJob {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut phases = [0f64; 4];
    let (mut generated, mut sent, mut rounds, mut spans) = (0u64, 0u64, 0u64, 0u64);
    let mut compute_s: Vec<f64> = Vec::new();
    let (mut leaf_max, mut root_max) = (0f64, 0f64);
    for (rank, r) in job.ranks.iter().enumerate() {
        let mut mine: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut ph = [0u64; 4];
        for s in &r.spans {
            spans += 1;
            if s.parent == 0 {
                root_max = root_max.max(s.dur_ns() as f64 / 1e9);
                continue;
            }
            *mine.entry(s.name).or_default() += s.dur_ns() as f64 / 1e9;
            if let Some(p) = &s.phases {
                ph[0] += p.generate_nanos;
                ph[1] += p.pass_nanos;
                ph[2] += p.dispatch_nanos;
                ph[3] += p.process_nanos;
                generated += p.messages_generated;
                sent += p.messages_sent;
                rounds += u64::from(rank == 0);
            }
        }
        leaf_max = leaf_max.max(mine.values().sum());
        for (k, v) in mine {
            let slot = by_name.entry(k).or_default();
            *slot = slot.max(v);
        }
        for (slot, v) in phases.iter_mut().zip(ph) {
            *slot = slot.max(v as f64 / 1e9);
        }
        compute_s.push((ph[0] + ph[3]) as f64 / 1e9);
    }
    let mean = compute_s.iter().sum::<f64>() / compute_s.len() as f64;
    let busiest = compute_s.iter().copied().fold(0.0, f64::max);
    TracedJob {
        wall_s: job.wall_s,
        by_name,
        phases,
        rounds,
        messages_generated: generated,
        messages_sent: sent,
        rank_skew: if mean > 0.0 { busiest / mean } else { 1.0 },
        // inside a leaf span on the slowest rank, or on the launch path
        coverage: (leaf_max + (job.wall_s - root_max)) / job.wall_s,
        spans,
        counters: job.counters(),
    }
}

/// Alternates plain and traced jobs for a share of the window, derives the
/// per-layer numbers from the traced ones, then runs the layer probes.
fn traced_window(
    a: &Args,
    info: &SetupInfo,
    d: &mut Driver,
    result: &mut RunResult,
) -> Result<(), String> {
    let started = Instant::now();
    let job_window = a.seconds * TRACED_JOB_SHARE;
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<TracedJob> = Vec::new();
    let mut trace_file = String::new();
    while (started.elapsed().as_secs_f64() < job_window || traced.len() < 2) && d.failed == 0 {
        // traced first on odd pairs, so neither side always runs second
        let traced_first = traced.len() % 2 == 1;
        for is_traced in [traced_first, !traced_first] {
            let Some(job) = d.job(is_traced, result) else { break };
            if is_traced {
                if a.trace_out.is_some() {
                    append_spans(&mut trace_file, a.workload.name, traced.len(), &job);
                }
                traced.push(analyse(&job));
            } else {
                plain.push(job.wall_s);
            }
        }
    }
    if let Some(path) = a.trace_out {
        std::fs::write(path, trace_file).map_err(|e| format!("writing {path:?}: {e}"))?;
    }
    if traced.is_empty() || plain.is_empty() {
        return Ok(());
    }

    let n = traced.len() as u64;
    let med = |f: &dyn Fn(&TracedJob) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let span_s = |names: &'static [&'static str]| {
        med(&|t| names.iter().map(|n| t.by_name.get(n).copied().unwrap_or(0.0)).sum())
    };
    let last = traced.last().expect("non-empty");
    let c = &last.counters;
    let run_s = median(&plain);
    let traced_s = med(&|t| t.wall_s);

    result.set("core.process_edges_s", span_s(&["process_edges"]), n);
    result.set("core.process_vertices_s", span_s(&["process_vertices", "read_local"]), n);
    result.set("core.array_open_s", span_s(&["vertex_array"]), n);
    result.set("core.collective_s", span_s(&["exchange_bytes"]), n);
    result.set("algos.degree_scan_s", span_s(&["degree_scan"]), n);
    result.set("core.generate_s", med(&|t| t.phases[0]), n);
    result.set("core.pass_s", med(&|t| t.phases[1]), n);
    result.set("core.dispatch_s", med(&|t| t.phases[2]), n);
    result.set("core.process_s", med(&|t| t.phases[3]), n);
    result.set("core.rounds", last.rounds as f64, 0);
    result.set("core.round_ms", run_s * 1e3 / last.rounds.max(1) as f64, plain.len() as u64);
    result.set("core.messages_generated", last.messages_generated as f64, 0);
    result.set("core.messages_sent", last.messages_sent as f64, 0);
    if last.messages_generated > 0 {
        let ratio = last.messages_sent as f64 / last.messages_generated as f64;
        result.set("core.filter_ratio", ratio, 0);
    }
    result.set("core.rank_skew", med(&|t| t.rank_skew), n);

    result.set("storage.read_busy_s", med(&|t| t.counters.disk_read_ns as f64 / 1e9), n);
    result.set("storage.write_busy_s", med(&|t| t.counters.disk_write_ns as f64 / 1e9), n);
    result.set("storage.decode_busy_s", med(&|t| t.counters.disk_decode_ns as f64 / 1e9), n);
    result.set("storage.read_mb", c.disk_read_bytes as f64 / MB, 0);
    result.set("storage.write_mb", c.disk_write_bytes as f64 / MB, 0);
    result.set("storage.logical_read_mb", c.disk_logical_read_bytes as f64 / MB, 0);
    result.set("storage.read_ops", c.disk_read_ops as f64, 0);
    result.set("storage.write_ops", c.disk_write_ops as f64, 0);
    if c.cache_hits + c.cache_misses > 0 {
        let ratio = c.cache_hits as f64 / (c.cache_hits + c.cache_misses) as f64;
        result.set("storage.cache_hit_ratio", ratio, 0);
    }
    result.set("storage.cache_evicted_mb", c.cache_evicted_bytes as f64 / MB, 0);
    result.set("storage.cache_resident_mb", c.cache_resident_bytes as f64 / MB, 0);
    result.set("net.sent_mb", c.net_sent_bytes as f64 / MB, 0);
    result.set("net.sent_frames", c.net_sent_frames as f64, 0);
    if c.net_sent_frames > 0 {
        result.set("net.bytes_per_frame", c.net_sent_bytes as f64 / c.net_sent_frames as f64, 0);
    }

    result.set("trace_overhead_ratio", traced_s / run_s, n);
    result.set("trace.traced_run_s", traced_s, n);
    result.set("trace.spans", last.spans as f64, 0);
    result.set("trace.span_coverage", med(&|t| t.coverage), n);

    let preprocess_s = median(&info.preprocess_s);
    result.set(
        "part.preprocess_edges_per_s",
        info.n_edges as f64 / preprocess_s,
        info.preprocess_s.len() as u64,
    );
    result.set("part.stored_bytes_per_edge", info.stored_bytes as f64 / info.n_edges as f64, 0);

    // probes share what is left of the window
    let left = (a.seconds - started.elapsed().as_secs_f64()).max(1.0);
    probes::storage_and_part(&a.workload, a.dir, left * 0.45, result)?;
    probes::net(left * 0.35, result)?;
    probes::launch_and_span(&d.runner, left * 0.2, result)?;
    Ok(())
}

/// One JSON line per span: which job of which workload, which rank, the
/// span's place in the tree, its interval on the job's clock and the
/// counter deltas between its two ends.
pub fn append_spans(out: &mut String, workload: &str, rep: usize, job: &JobOut) {
    for (rank, r) in job.ranks.iter().enumerate() {
        for s in &r.spans {
            write_span(out, workload, rep, rank, s);
        }
    }
}

pub fn write_span(out: &mut String, workload: &str, rep: usize, rank: usize, s: &SpanRec) {
    let c = &s.counters;
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"job\": {rep}, \"rank\": {rank}, \"id\": {}, \
         \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
         \"disk_read_bytes\": {}, \"disk_write_bytes\": {}, \"disk_read_ops\": {}, \
         \"disk_write_ops\": {}, \"disk_decode_ns\": {}, \"net_sent_bytes\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}",
        s.id,
        s.parent,
        s.name,
        s.start_ns,
        s.end_ns,
        c.disk_read_bytes,
        c.disk_write_bytes,
        c.disk_read_ops,
        c.disk_write_ops,
        c.disk_decode_ns,
        c.net_sent_bytes,
        c.cache_hits,
        c.cache_misses
    );
    if let Some(p) = &s.phases {
        let _ = write!(
            out,
            ", \"messages_generated\": {}, \"messages_sent\": {}, \"generate_ns\": {}, \
             \"pass_ns\": {}, \"dispatch_ns\": {}, \"process_ns\": {}",
            p.messages_generated,
            p.messages_sent,
            p.generate_nanos,
            p.pass_nanos,
            p.dispatch_nanos,
            p.process_nanos
        );
    }
    out.push_str("}\n");
}
