//! CLI wrapper for [`dfo_bench::gate`]: compares a fresh bench JSON
//! against a committed baseline.
//!
//! ```text
//! bench_gate <baseline.json> <fresh.json>
//! ```
//!
//! Exit codes: 0 = pass (warnings allowed), 1 = at least one hard failure
//! (byte metric regressed > 5 % or schema break), 2 = usage/parse error.
//! Driven by `tools/bench_gate.sh` in the CI `bench-gate` job.

use dfo_bench::gate::{compare, Severity};
use dfo_obs::json::{parse, JsonValue};
use std::process::ExitCode;

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_gate <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for e in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_gate: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let findings = compare(&baseline, &fresh);
    let mut failed = false;
    for f in &findings {
        println!("{f}");
        failed |= f.severity == Severity::Fail;
    }
    if failed {
        println!("bench_gate: {baseline_path} vs {fresh_path}: REGRESSION");
        ExitCode::from(1)
    } else {
        println!("bench_gate: {baseline_path} vs {fresh_path}: ok ({} warning(s))", findings.len());
        ExitCode::SUCCESS
    }
}
