//! The `setup` child: generate the input from the seed, preprocess it
//! (timed, several times, into fresh directories), and compute the
//! reference result the `run` child checks every job against.
//!
//! It is its own process so the `run` child's peak memory never includes the
//! generator's edge list, and so the program under test only ever opens a
//! preprocessed directory.

use dfograph::algos::pagerank::pagerank_oracle;
use dfograph::algos::sssp::sssp_oracle;
use dfograph::core::Cluster;
use dfograph::obs::json::{self, JsonValue};
use dfograph::types::vec_from_bytes;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::jobs::{digest_outputs, library_job};
use crate::workloads::{Graph, Job, Workload};

/// Timed preprocessing passes per set-up, each into a fresh directory;
/// `setup_s` reports their median. Small inputs preprocess in milliseconds,
/// so passes go on past the minimum until they add up to [`PASS_BUDGET_S`].
const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 15;
const PASS_BUDGET_S: f64 = 1.5;

pub struct SetupInfo {
    pub n_edges: u64,
    /// Digest every job's result must reproduce.
    pub digest: u64,
    pub preprocess_s: Vec<f64>,
    /// Bytes the preprocessed graph occupies over all ranks' disks.
    pub stored_bytes: u64,
}

/// Name of the graph in the service workload's catalog.
pub const SVC_GRAPH: &str = "g";

/// Directory the daemon mesh is rooted at (service workload only).
pub fn svc_base(dir: &Path) -> PathBuf {
    dir.join("svc")
}

/// The preprocessed directory the `run` child opens.
pub fn graph_base(w: &Workload, dir: &Path) -> PathBuf {
    match w.job {
        Job::SvcDegree => svc_base(dir).join("graphs").join(SVC_GRAPH),
        _ => dir.join("base"),
    }
}

fn preprocess(w: &Workload, g: &Graph, base: &Path) -> Result<(Cluster, f64), String> {
    let cluster = Cluster::create(w.config(), base).map_err(|e| e.to_string())?;
    let t = Instant::now();
    match g {
        Graph::Unit(g) => cluster.preprocess(g),
        Graph::Weighted(g) => cluster.preprocess(g),
    }
    .map_err(|e| format!("preprocessing: {e}"))?;
    Ok((cluster, t.elapsed().as_secs_f64()))
}

/// Checks the engine's reference run against the in-memory oracle.
fn check_against_oracle(w: &Workload, g: &Graph, outputs: &[Vec<u8>]) -> Result<(), String> {
    let all: Vec<u8> = outputs.concat();
    match (w.job, g) {
        (Job::PageRank { iters }, Graph::Unit(g)) => {
            let got: Vec<f64> = vec_from_bytes(&all);
            let want = pagerank_oracle(g, iters);
            if got.len() != want.len() {
                return Err(format!("PageRank covers {} of {} vertices", got.len(), want.len()));
            }
            match got.iter().zip(&want).position(|(a, b)| (a - b).abs() > 1e-9) {
                Some(v) => Err(format!("PageRank of vertex {v}: {} vs oracle {}", got[v], want[v])),
                None => Ok(()),
            }
        }
        (Job::Sssp, Graph::Weighted(g)) => {
            let got: Vec<f32> = vec_from_bytes(&all);
            let want = sssp_oracle(g, 0);
            match got.iter().zip(&want).position(|(a, b)| a.to_bits() != b.to_bits()) {
                None if got.len() == want.len() => Ok(()),
                None => Err(format!("SSSP covers {} of {} vertices", got.len(), want.len())),
                Some(v) => Err(format!("SSSP of vertex {v}: {} vs oracle {}", got[v], want[v])),
            }
        }
        (Job::SvcDegree, Graph::Unit(g)) => {
            let got: Vec<u64> = vec_from_bytes(&all);
            let mut want = vec![0u64; g.n_vertices as usize];
            for e in &g.edges {
                want[e.src as usize] += 1;
            }
            if got == want {
                Ok(())
            } else {
                Err("out-degrees differ from the edge list's".into())
            }
        }
        _ => unreachable!("workload job and graph kind disagree"),
    }
}

/// Runs the set-up for `w` under `dir` and writes `dir/setup.json`.
pub fn run(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let g = w.generate(seed);
    let mut preprocess_s: Vec<f64> = Vec::new();
    while preprocess_s.len() + 1 < MIN_PASSES
        || (preprocess_s.len() + 1 < MAX_PASSES && preprocess_s.iter().sum::<f64>() < PASS_BUDGET_S)
    {
        let scratch = dir.join(format!("pre{}", preprocess_s.len()));
        preprocess_s.push(preprocess(w, &g, &scratch)?.1);
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("removing {scratch:?}: {e}"))?;
    }
    let (cluster, secs) = preprocess(w, &g, &graph_base(w, dir))?;
    preprocess_s.push(secs);
    let stored_bytes = cluster
        .disks()
        .iter()
        .map(|d| d.usage_bytes().map_err(|e| e.to_string()))
        .sum::<Result<u64, String>>()?;

    // untimed reference: the engine's own batch run, held to the oracle
    let job = w.job;
    let outputs =
        cluster.run(|ctx| library_job(ctx, job)).map_err(|e| format!("reference run: {e}"))?;
    check_against_oracle(w, &g, &outputs)?;

    let samples: Vec<String> = preprocess_s.iter().map(|s| format!("{s}")).collect();
    let text = format!(
        "{{\"n_vertices\": {}, \"n_edges\": {}, \"digest\": \"{:016x}\", \"stored_bytes\": {}, \
         \"preprocess_s\": [{}]}}\n",
        g.n_vertices(),
        g.n_edges(),
        digest_outputs(outputs.iter().map(Vec::as_slice)),
        stored_bytes,
        samples.join(", ")
    );
    std::fs::write(dir.join("setup.json"), text).map_err(|e| format!("writing setup.json: {e}"))
}

pub fn load(dir: &Path) -> Result<SetupInfo, String> {
    let text = std::fs::read_to_string(dir.join("setup.json"))
        .map_err(|e| format!("reading setup.json: {e}"))?;
    let v = json::parse(&text)?;
    let num = |k: &str| v.get(k).and_then(JsonValue::as_f64).ok_or(format!("setup.json: {k}"));
    let digest = v.get("digest").and_then(JsonValue::as_str).ok_or("setup.json: digest")?;
    Ok(SetupInfo {
        n_edges: num("n_edges")? as u64,
        digest: u64::from_str_radix(digest, 16).map_err(|e| format!("setup.json digest: {e}"))?,
        stored_bytes: num("stored_bytes")? as u64,
        preprocess_s: v
            .get("preprocess_s")
            .and_then(JsonValue::as_array)
            .ok_or("setup.json: preprocess_s")?
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect(),
    })
}
