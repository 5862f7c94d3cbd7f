//! Metric tables (the code's copy of `BENCHMARK.json`), the result record a
//! run produces, its JSON forms, and `--compare`.

use dfograph::obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Reported by every workload with tracing off. Must match `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "run_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "edges_per_s", unit: "edges/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "disk_bytes_per_edge", unit: "B", better: Lower, bound: 0.03 },
    EndToEnd { name: "net_bytes_per_edge", unit: "B", better: Lower, bound: 0.03 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.25 },
    EndToEnd { name: "jobs_per_s", unit: "jobs/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "job_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that two runs of one build on one seed must repeat exactly.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> PerLayer {
    PerLayer { name, unit, better, exact }
}

/// Reported by every workload's traced run; a metric a workload does not
/// exercise (see the README's table) reads 0 there.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("part.preprocess_edges_per_s", "edges/s", Higher, false),
    layer("part.stored_bytes_per_edge", "B", Lower, true),
    layer("part.chunk_load_mb_s", "MB/s", Higher, false),
    layer("storage.decode_mb_s", "MB/s", Higher, false),
    layer("storage.encode_mb_s", "MB/s", Higher, false),
    layer("storage.compress_ratio", "ratio", Higher, true),
    layer("storage.read_busy_s", "s", Lower, false),
    layer("storage.write_busy_s", "s", Lower, false),
    layer("storage.decode_busy_s", "s", Lower, false),
    layer("storage.read_mb", "MB", Lower, true),
    layer("storage.write_mb", "MB", Lower, true),
    layer("storage.logical_read_mb", "MB", Lower, true),
    layer("storage.read_ops", "count", Lower, true),
    layer("storage.write_ops", "count", Lower, true),
    layer("storage.cache_hit_ratio", "ratio", Higher, false),
    layer("storage.cache_evicted_mb", "MB", Lower, false),
    layer("storage.cache_resident_mb", "MB", Lower, false),
    layer("storage.cache_lookup_ns", "ns", Lower, false),
    layer("storage.array_commit_us", "us", Lower, false),
    layer("storage.array_commit_cow_us", "us", Lower, false),
    layer("storage.array_read_batch_us", "us", Lower, false),
    layer("storage.commitlog_record_us", "us", Lower, false),
    layer("core.process_edges_s", "s", Lower, false),
    layer("core.process_vertices_s", "s", Lower, false),
    layer("core.array_open_s", "s", Lower, false),
    layer("core.collective_s", "s", Lower, false),
    layer("algos.degree_scan_s", "s", Lower, false),
    layer("core.generate_s", "s", Lower, false),
    layer("core.pass_s", "s", Lower, false),
    layer("core.dispatch_s", "s", Lower, false),
    layer("core.process_s", "s", Lower, false),
    layer("core.rounds", "count", Lower, true),
    layer("core.round_ms", "ms", Lower, false),
    layer("core.run_launch_ms", "ms", Lower, false),
    layer("core.messages_generated", "count", Lower, true),
    layer("core.messages_sent", "count", Lower, true),
    layer("core.filter_ratio", "ratio", Lower, true),
    layer("core.rank_skew", "ratio", Lower, false),
    layer("net.sim_stream_mb_s", "MB/s", Higher, false),
    layer("net.tcp_stream_mb_s", "MB/s", Higher, false),
    layer("net.sim_allreduce_us", "us", Lower, false),
    layer("net.tcp_allreduce_us", "us", Lower, false),
    layer("net.tcp_connect_ms", "ms", Lower, false),
    layer("net.sent_mb", "MB", Lower, true),
    layer("net.sent_frames", "count", Lower, true),
    layer("net.bytes_per_frame", "B", Higher, true),
    layer("service.job_p95_ms", "ms", Lower, false),
    layer("service.job_p99_ms", "ms", Lower, false),
    layer("service.job_max_ms", "ms", Lower, false),
    layer("service.exec_p50_ms", "ms", Lower, false),
    layer("service.overhead_p50_ms", "ms", Lower, false),
    layer("service.batch_equiv_ms", "ms", Lower, false),
    layer("service.pr1_job_ms", "ms", Lower, false),
    layer("service.ctrl_rtt_us", "us", Lower, false),
    layer("service.jobspec_codec_ns", "ns", Lower, false),
    layer("service.bootstrap_ms", "ms", Lower, false),
    layer("service.jobs_retried", "count", Lower, true),
    layer("obs.span_ns", "ns", Lower, false),
    layer("trace_overhead_ratio", "ratio", Lower, false),
    layer("trace.spans", "count", Lower, false),
    layer("trace.span_coverage", "ratio", Higher, false),
    layer("trace.traced_run_s", "s", Lower, false),
];

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// Checks that `BENCHMARK.json` (the copy outside tools read) lists exactly
/// the metrics of the tables above, in order, with the same units,
/// directions and bounds, and exactly the known workloads.
pub fn check_manifest(text: &str, workloads: &[&str]) -> Result<(), String> {
    let v = json::parse(text)?;
    let list = |key: &str| v.get(key).and_then(JsonValue::as_array).ok_or(format!("no {key} list"));
    let field = |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
    let names: Vec<Option<String>> = list("workloads")?.iter().map(|w| field(w, "name")).collect();
    if !names.iter().map(|n| n.as_deref()).eq(workloads.iter().map(|w| Some(*w))) {
        return Err(format!("workloads are {names:?}, the benchmark runs {workloads:?}"));
    }
    let e2e = list("end_to_end")?;
    if e2e.len() != END_TO_END.len() {
        return Err(format!(
            "{} end_to_end metrics, the benchmark has {}",
            e2e.len(),
            END_TO_END.len()
        ));
    }
    for (m, want) in e2e.iter().zip(&END_TO_END) {
        let bound = m.get("bound").and_then(JsonValue::as_f64);
        if field(m, "name").as_deref() != Some(want.name)
            || field(m, "unit").as_deref() != Some(want.unit)
            || field(m, "better").as_deref() != Some(want.better.as_str())
            || bound != Some(want.bound)
        {
            return Err(format!("end_to_end entry for {} disagrees with the benchmark", want.name));
        }
    }
    let layers = list("per_layer")?;
    if layers.len() != PER_LAYER.len() {
        return Err(format!(
            "{} per_layer metrics, the benchmark has {}",
            layers.len(),
            PER_LAYER.len()
        ));
    }
    for (m, want) in layers.iter().zip(&PER_LAYER) {
        if field(m, "name").as_deref() != Some(want.name)
            || field(m, "unit").as_deref() != Some(want.unit)
            || field(m, "better").as_deref() != Some(want.better.as_str())
        {
            return Err(format!("per_layer entry for {} disagrees with the benchmark", want.name));
        }
    }
    Ok(())
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// What one run of one workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Result digest shared by every job of the run (hex).
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
    /// Samples behind a metric, where it is a median or a percentile.
    pub samples: BTreeMap<String, u64>,
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the tables");
        self.metrics.insert(name.to_string(), value);
        if samples > 0 {
            self.samples.insert(name.to_string(), samples);
        }
    }

    fn table_names(&self) -> Vec<&'static str> {
        if self.trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// Fills every metric of the run's table the workload did not measure
    /// with 0 and checks nothing outside the table was set.
    pub fn complete(&mut self) {
        let names = self.table_names();
        for n in &names {
            self.metrics.entry(n.to_string()).or_insert(0.0);
        }
        for n in self.metrics.keys() {
            assert!(names.contains(&n.as_str()), "metric {n} does not belong to this run's table");
        }
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, n) in self.table_names().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let unit = unit_of(n).expect("table metric");
            let _ = write!(
                s,
                "\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(self.metrics[*n])
            );
        }
        s.push('}');
        s
    }

    /// The one-line result object the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full record (what a child hands its parent and `--out` stores).
    pub fn to_json(&self) -> String {
        let mut samples = String::from("{");
        for (i, (k, v)) in self.samples.iter().enumerate() {
            let _ = write!(samples, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
        }
        samples.push('}');
        format!(
            "{{\"workload\": \"{}\", \"seed\": \"{}\", \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"digest\": \"{}\", \"samples\": {}, \
             \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            self.digest,
            samples,
            self.metrics_json()
        )
    }

    pub fn from_json(v: &JsonValue) -> Result<RunResult, String> {
        let text = |k: &str| {
            v.get(k).and_then(JsonValue::as_str).map(str::to_string).ok_or(format!("missing {k}"))
        };
        let count = |k: &str| {
            v.get(k).and_then(JsonValue::as_f64).map(|n| n as u64).ok_or(format!("missing {k}"))
        };
        let flag = |k: &str| match v.get(k) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            _ => Err(format!("missing {k}")),
        };
        let mut out = RunResult {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|e| format!("seed: {e}"))?,
            trace: flag("trace")?,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            digest: text("digest")?,
            ..RunResult::default()
        };
        if let Some(JsonValue::Obj(fields)) = v.get("metrics") {
            for (k, m) in fields {
                let value =
                    m.get("value").and_then(JsonValue::as_f64).ok_or(format!("metric {k}"))?;
                out.metrics.insert(k.clone(), value);
            }
        }
        if let Some(JsonValue::Obj(fields)) = v.get("samples") {
            for (k, n) in fields {
                out.samples.insert(k.clone(), n.as_f64().ok_or(format!("samples {k}"))? as u64);
            }
        }
        Ok(out)
    }

    /// Human-readable listing: every metric by name with its unit and the
    /// samples behind it.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}) digest {} — {} attempted, {} failed",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "tracing off" },
            self.digest,
            self.attempted,
            self.failed
        );
        for n in self.table_names() {
            let unit = unit_of(n).expect("table metric");
            match self.samples.get(n) {
                Some(k) => println!("  {n:<34} {:>16.6} {unit:<8} n={k}", self.metrics[n]),
                None => println!("  {n:<34} {:>16.6} {unit}", self.metrics[n]),
            }
        }
    }
}

/// A whole-benchmark output file: every workload's two runs.
pub fn set_to_json(runs: &[RunResult]) -> String {
    let body: Vec<String> = runs.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n"))
}

pub fn set_from_json(text: &str) -> Result<Vec<RunResult>, String> {
    let v = json::parse(text)?;
    let runs = v.get("runs").and_then(JsonValue::as_array).ok_or("missing runs")?;
    runs.iter().map(RunResult::from_json).collect()
}

/// `--compare`: two sets from the same build and seed must agree within
/// every end-to-end bound, on every digest and on every exact count.
/// Returns the disagreements.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> Vec<String> {
    let mut bad = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload && r.trace == ra.trace) else {
            bad.push(format!(
                "{} (trace {}) is missing from the second set",
                ra.workload, ra.trace
            ));
            continue;
        };
        let tag = format!("{}{}", ra.workload, if ra.trace { " [traced]" } else { "" });
        if ra.seed != rb.seed {
            bad.push(format!("{tag}: seeds differ ({} vs {})", ra.seed, rb.seed));
        }
        if ra.digest != rb.digest {
            bad.push(format!("{tag}: result digests differ ({} vs {})", ra.digest, rb.digest));
        }
        if ra.failed + rb.failed > 0 {
            bad.push(format!("{tag}: failed operations ({} and {})", ra.failed, rb.failed));
        }
        for (name, &va) in &ra.metrics {
            let Some(&vb) = rb.metrics.get(name) else {
                bad.push(format!("{tag}: {name} is missing from the second set"));
                continue;
            };
            if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                let rel = (va - vb).abs() / va.abs().min(vb.abs());
                if rel > m.bound {
                    bad.push(format!(
                        "{tag}: {name} differs by {:.1} % (> {:.0} %): {va} vs {vb}",
                        rel * 100.0,
                        m.bound * 100.0
                    ));
                }
            } else if PER_LAYER.iter().any(|m| m.name == name && m.exact) && va != vb {
                bad.push(format!("{tag}: exact count {name} differs: {va} vs {vb}"));
            }
        }
    }
    bad
}
