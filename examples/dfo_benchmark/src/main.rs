//! `dfo_benchmark` — five named workloads, eight end-to-end metrics and a
//! per-layer traced run for the DFOGraph reproduction. See `README.md`
//! beside this package for every definition.
//!
//! ```text
//! dfo_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! dfo_benchmark --seed <n> --out <file> [--seconds <s>] [--quick]      # every workload, both runs
//! dfo_benchmark --compare <a.json> <b.json>
//! ```
//!
//! One invocation is an orchestrator that runs each workload as two child
//! processes of this same binary: `setup` (generate from the seed,
//! preprocess, compute the reference digest) and `run` (reopen the
//! preprocessed directory and measure), so the measured process never holds
//! the generator's edge list and only ever sees generated inputs.

mod batch;
mod jobs;
mod probes;
mod report;
mod service;
mod setup;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use report::RunResult;
use workloads::Job;

/// Measured window per run when `--seconds` is not given (the value
/// `BENCHMARK.json` passes), and the one a `--quick` smoke run uses.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 0.8;
/// A `setup` child still running after this long is killed.
const SETUP_DEADLINE: Duration = Duration::from_secs(70);
/// A `run` child gets its window plus this much.
const RUN_GRACE: Duration = Duration::from_secs(70);

/// Where the `run` child leaves its result for the orchestrator.
static RESULT_PATH: OnceLock<PathBuf> = OnceLock::new();

/// Restarts the kernel's peak-RSS watermark of this process, so the next
/// [`peak_rss_mb`] reads the peak since now. Where the kernel refuses, the
/// watermark simply keeps covering the process's whole life.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Leaves a failed result for the orchestrator and ends the process at
/// once — for when a hung job's threads cannot be waited for.
pub fn exit_failed(result: &RunResult, attempted: u64, failed: u64) -> ! {
    let mut r = result.clone();
    r.attempted = attempted;
    r.failed = failed;
    r.correct = false;
    r.complete();
    if let Some(path) = RESULT_PATH.get() {
        let _ = std::fs::write(path, r.to_json());
    }
    std::process::exit(1);
}

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    quick: bool,
    compare: Option<(PathBuf, PathBuf)>,
    child: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli { seed: 1, ..Cli::default() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => cli.out = Some(value()?.into()),
            "--quick" => cli.quick = true,
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            "--child" => cli.child = Some(value()?),
            "--dir" => cli.dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds == 0.0 {
        cli.seconds = if cli.quick { QUICK_SECONDS } else { DEFAULT_SECONDS };
    }
    Ok(cli)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dfo_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli()?;
    stats::self_check()?;
    if let Some((a, b)) = &cli.compare {
        return compare_files(a, b);
    }
    if let Some(role) = &cli.child {
        return child(role, &cli).map(|()| true);
    }
    // run from the repository root, the manifest is there: refuse to
    // measure under metric tables that disagree with it
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        report::check_manifest(&text, &workloads::NAMES)
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    }
    if let Some(out) = &cli.out {
        // spans are appended to it, workload by workload
        let _ = std::fs::remove_file(trace_path(out));
    }
    match &cli.workload {
        Some(name) => {
            let trace = cli.trace.ok_or("--workload needs --trace 0 or --trace 1")?;
            let runs = orchestrate(name, &cli, &[trace])?;
            let run = &runs[0];
            run.print_table();
            if let Some(out) = &cli.out {
                std::fs::write(out, report::set_to_json(&runs))
                    .map_err(|e| format!("writing {out:?}: {e}"))?;
            }
            println!("{}", run.contract_line());
            Ok(run.correct)
        }
        None => run_everything(&cli),
    }
}

// ---------------------------------------------------------------------------
// children

fn child(role: &str, cli: &Cli) -> Result<(), String> {
    let name = cli.workload.as_deref().ok_or("child needs --workload")?;
    let w = workloads::find(name, cli.quick).ok_or(format!("unknown workload {name}"))?;
    let dir = cli.dir.as_deref().ok_or("child needs --dir")?;
    match role {
        "setup" => setup::run(&w, cli.seed, dir),
        "run" => {
            let result_path = dir.join("result.json");
            RESULT_PATH.set(result_path.clone()).expect("set once");
            let trace = cli.trace.ok_or("run child needs --trace")?;
            let trace_out = dir.join("trace.jsonl");
            let args = batch::Args {
                workload: w,
                seed: cli.seed,
                dir,
                seconds: cli.seconds,
                trace,
                trace_out: (trace && cli.out.is_some()).then_some(trace_out.as_path()),
            };
            let mut result = match w.job {
                Job::SvcDegree => service::run(&args)?,
                _ => batch::run(&args)?,
            };
            result.complete();
            std::fs::write(&result_path, result.to_json())
                .map_err(|e| format!("writing {result_path:?}: {e}"))
        }
        other => Err(format!("unknown child role {other}")),
    }
}

// ---------------------------------------------------------------------------
// orchestrator

/// `<target dir>/dfo_benchmark_work`: beside the build output, so always
/// inside the checkout and never tracked.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let target = exe.parent().and_then(Path::parent).ok_or("binary has no target directory")?;
    Ok(target.join("dfo_benchmark_work"))
}

/// A work directory that is removed on every exit path of its owner.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let root = work_root()?;
        // directories of runs that were killed before they could clean up
        if let Ok(entries) = std::fs::read_dir(&root) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let owner = name.rsplit('-').next().and_then(|p| p.parse::<u32>().ok());
                if owner.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs this binary as a child and waits for it, killing it at `deadline`.
fn run_child(args: &[String], deadline: Duration) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut child =
        Command::new(exe).args(args).spawn().map_err(|e| format!("spawning child: {e}"))?;
    let started = Instant::now();
    loop {
        match child.try_wait().map_err(|e| format!("waiting for child: {e}"))? {
            Some(status) if status.success() => return Ok(()),
            Some(status) => return Err(format!("child {} ended with {status}", args[1])),
            None if started.elapsed() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child {} exceeded its {deadline:?} deadline", args[1]));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One set-up and one `run` child per entry of `traces` for one workload.
fn orchestrate(name: &str, cli: &Cli, traces: &[bool]) -> Result<Vec<RunResult>, String> {
    workloads::find(name, cli.quick)
        .ok_or(format!("unknown workload {name}; known: {}", workloads::NAMES.join(", ")))?;
    let work = WorkDir::create(name)?;
    let child_args = |role: &str, extra: &[(&str, String)]| -> Vec<String> {
        let mut args: Vec<String> = ["--child", role, "--workload", name].map(String::from).into();
        args.extend(["--dir".into(), work.0.to_string_lossy().into_owned()]);
        args.extend(["--seed".into(), cli.seed.to_string()]);
        if cli.quick {
            args.push("--quick".into());
        }
        for (flag, value) in extra {
            args.extend([flag.to_string(), value.clone()]);
        }
        args
    };
    run_child(&child_args("setup", &[]), SETUP_DEADLINE)?;

    let mut runs = Vec::new();
    for &trace in traces {
        let mut extra =
            vec![("--seconds", cli.seconds.to_string()), ("--trace", u8::from(trace).to_string())];
        if let Some(out) = &cli.out {
            extra.push(("--out", out.to_string_lossy().into_owned()));
        }
        let args = child_args("run", &extra);
        let outcome = run_child(&args, RUN_GRACE + Duration::from_secs_f64(cli.seconds));
        // a child that failed may still have left its (failed) result
        let text = std::fs::read_to_string(work.0.join("result.json"))
            .map_err(|e| outcome.clone().err().unwrap_or(format!("no result from child: {e}")))?;
        let _ = std::fs::remove_file(work.0.join("result.json"));
        let run = RunResult::from_json(&dfograph::obs::json::parse(&text)?)?;
        if let Err(e) = outcome {
            eprintln!("dfo_benchmark: {e}");
        }
        if trace {
            if let Some(out) = &cli.out {
                append_trace(&work.0.join("trace.jsonl"), out)?;
            }
        }
        runs.push(run);
    }
    Ok(runs)
}

fn trace_path(out: &Path) -> PathBuf {
    PathBuf::from(format!("{}.trace.jsonl", out.display()))
}

fn append_trace(from: &Path, out: &Path) -> Result<(), String> {
    use std::io::Write;
    let spans = std::fs::read(from).map_err(|e| format!("reading {from:?}: {e}"))?;
    let path = trace_path(out);
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(&spans))
        .map_err(|e| format!("appending to {path:?}: {e}"))
}

/// Every workload, tracing off then on; prints every metric by name with
/// its unit, writes `--out` and `<out>.trace.jsonl`, and ends with the
/// time-attribution table.
fn run_everything(cli: &Cli) -> Result<bool, String> {
    let mut all = Vec::new();
    for name in workloads::NAMES {
        let t = Instant::now();
        let runs = orchestrate(name, cli, &[false, true])?;
        for r in &runs {
            r.print_table();
        }
        println!("   ({name} took {:.1} s)", t.elapsed().as_secs_f64());
        all.extend(runs);
    }
    if let Some(out) = &cli.out {
        std::fs::write(out, report::set_to_json(&all))
            .map_err(|e| format!("writing {out:?}: {e}"))?;
    }
    print_attribution(&all);
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    println!(
        "operations: {} attempted, {failed} failed",
        all.iter().map(|r| r.attempted).sum::<u64>()
    );
    Ok(all.iter().all(|r| r.correct))
}

/// Share of the traced job's wall time per layer span, per batch workload
/// (markdown; the README's table is this output).
fn print_attribution(all: &[RunResult]) {
    const COLS: [&str; 6] = [
        "core.process_edges_s",
        "core.process_vertices_s",
        "core.array_open_s",
        "core.collective_s",
        "algos.degree_scan_s",
        "core.run_launch_ms",
    ];
    println!("\n| workload | traced job (s) | process_edges | process_vertices | array_open | collective | degree_scan | launch | covered |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for r in all.iter().filter(|r| r.trace && r.metrics["core.rounds"] > 0.0) {
        let wall = r.metrics["trace.traced_run_s"];
        let mut row = format!("| `{}` | {wall:.3} |", r.workload);
        let mut sum = 0.0;
        for c in COLS {
            let secs = if c.ends_with("_ms") { r.metrics[c] / 1e3 } else { r.metrics[c] };
            sum += secs / wall;
            row.push_str(&format!(" {:.1} % |", 100.0 * secs / wall));
        }
        println!("{row} {:.1} % |", 100.0 * sum);
    }
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {p:?}: {e}"))
            .and_then(|t| report::set_from_json(&t))
    };
    let (a, b) = (load(a)?, load(b)?);
    let bad = report::compare(&a, &b);
    for line in &bad {
        println!("MISMATCH {line}");
    }
    println!("compared {} runs: {} disagreement(s)", a.len(), bad.len());
    Ok(bad.is_empty())
}
