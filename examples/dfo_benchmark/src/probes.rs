//! Layer probes: direct timed calls to public layer functions over a
//! workload's real artefacts — its chunk files, its batch geometry — so a
//! change to one layer has a number of its own next to the end-to-end ones.
//! Each probe gets a slice of the traced run's window and reports a median
//! with its sample count.

use dfograph::core::Cluster;
use dfograph::net::{Endpoint, SimCluster, TcpCluster, TcpOpts};
use dfograph::obs::FlightRecorder;
use dfograph::part::csr::IndexedChunk;
use dfograph::part::plan::Plan;
use dfograph::part::preprocess::paths;
use dfograph::storage::{
    ChunkCache, ChunkKey, CommitLog, FrameWriter, NodeDisk, VersionedArrayStore,
};
use dfograph::types::{DfoError, Pod, Result};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::jobs::{free_addrs, Runner};
use crate::report::RunResult;
use crate::setup;
use crate::stats::{calibrated, median};
use crate::workloads::{Job, Workload, RANKS};

const MB: f64 = 1e6;

fn err(e: DfoError) -> String {
    e.to_string()
}

/// Repeats `pass` until `budget` is spent (at least three times) and returns
/// the per-pass values.
fn repeat(budget: f64, mut pass: impl FnMut() -> Result<f64>) -> Result<Vec<f64>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed().as_secs_f64() < budget {
        out.push(pass()?);
    }
    Ok(out)
}

/// Every chunk file of the preprocessed graph: (rank, disk-relative path).
fn chunk_files(plan: &Plan) -> Vec<(usize, String)> {
    (0..plan.nodes())
        .flat_map(|r| {
            plan.node_meta[r]
                .chunks
                .iter()
                .map(move |c| (r, paths::chunk(c.src_partition, c.batch)))
        })
        .collect()
}

fn load_chunks<E: Pod + PartialEq>(disks: &[NodeDisk], files: &[(usize, String)]) -> Result<f64> {
    let before: u64 = disks.iter().map(|d| d.stats().logical_read_bytes.get()).sum();
    let t = Instant::now();
    for (rank, rel) in files {
        let mut r = disks[*rank].open_framed(rel)?;
        std::hint::black_box(IndexedChunk::<E>::read_from(&mut r, None)?);
    }
    let secs = t.elapsed().as_secs_f64();
    let after: u64 = disks.iter().map(|d| d.stats().logical_read_bytes.get()).sum();
    Ok((after - before) as f64 / MB / secs)
}

/// `part.chunk_load_mb_s`, `storage.{decode,encode}_mb_s`,
/// `storage.compress_ratio`, `storage.cache_lookup_ns` and the four
/// array-store probes, over the workload's own files and batch geometry.
pub fn storage_and_part(
    w: &Workload,
    dir: &Path,
    budget: f64,
    result: &mut RunResult,
) -> std::result::Result<(), String> {
    let each = budget / 9.0;
    let mut cfg = w.config();
    cfg.chunk_cache_bytes = 0;
    let cluster = Cluster::create(cfg, setup::graph_base(w, dir)).map_err(err)?;
    let disks = cluster.disks();
    let plan = Plan::load(&disks[0]).map_err(err)?;
    let files = chunk_files(&plan);

    // chunk load: disk → frame decode → index structures
    let loads = repeat(each, || match w.job {
        Job::Sssp => load_chunks::<f32>(disks, &files),
        _ => load_chunks::<()>(disks, &files),
    })
    .map_err(err)?;
    result.set("part.chunk_load_mb_s", median(&loads), loads.len() as u64);

    // frame decode alone, and the decoded bytes for the encode probe
    let mut decoded: Vec<Vec<u8>> = Vec::new();
    let mut physical = 0u64;
    let decodes = repeat(each, || {
        decoded.clear();
        physical = 0;
        let t = Instant::now();
        for (rank, rel) in &files {
            let mut bytes = Vec::new();
            disks[*rank]
                .open_framed(rel)?
                .read_to_end(&mut bytes)
                .map_err(|e| DfoError::io("decoding chunk frames", e))?;
            physical += disks[*rank].len(rel)?;
            decoded.push(bytes);
        }
        let logical: usize = decoded.iter().map(Vec::len).sum();
        Ok(logical as f64 / MB / t.elapsed().as_secs_f64())
    })
    .map_err(err)?;
    result.set("storage.decode_mb_s", median(&decodes), decodes.len() as u64);
    let logical: usize = decoded.iter().map(Vec::len).sum();
    result.set("storage.compress_ratio", logical as f64 / physical as f64, 0);

    let encodes = repeat(each, || {
        let t = Instant::now();
        for bytes in &decoded {
            let mut fw = FrameWriter::new(std::io::sink(), true)?;
            fw.write_all(bytes).map_err(|e| DfoError::io("encoding chunk frames", e))?;
            fw.finish()?;
        }
        Ok(logical as f64 / MB / t.elapsed().as_secs_f64())
    })
    .map_err(err)?;
    result.set("storage.encode_mb_s", median(&encodes), encodes.len() as u64);
    drop(decoded);

    // chunk-cache hit path, one resident entry per chunk file
    let cache = ChunkCache::new(1 << 30);
    let keys: Vec<ChunkKey> = (0..files.len().max(1))
        .map(|i| ChunkKey { partition: i % RANKS, batch: Some(i), repr: None })
        .collect();
    for k in &keys {
        cache.insert(*k, Arc::new(0u64), 64);
    }
    let mut i = 0;
    let p = calibrated(Duration::from_secs_f64(each), || {
        std::hint::black_box(cache.lookup(&keys[i % keys.len()]));
        i += 1;
    });
    result.set("storage.cache_lookup_ns", p.ns_per_call, p.samples as u64);

    // vertex-array store at this workload's geometry: one f64 array's
    // batches on rank 0, committed the way one Process call commits them
    let n_batches = plan.n_batches(0);
    let batch = vec![1u8; plan.max_batch_len(0) as usize * 8];
    let probe_disk = NodeDisk::new(dir.join("probe"), None, false).map_err(err)?;
    for (metric, cow) in [("storage.array_commit_us", false), ("storage.array_commit_cow_us", true)]
    {
        let mut store = VersionedArrayStore::create(
            probe_disk.clone(),
            if cow { "cow" } else { "inplace" },
            n_batches,
            |_| batch.clone(),
            cow,
            1,
        )
        .map_err(err)?;
        let mut failed = None;
        let p = calibrated(Duration::from_secs_f64(each), || {
            store.begin_epoch();
            let res = (0..n_batches)
                .try_for_each(|b| store.write_batch(b, &batch))
                .and_then(|()| store.commit());
            if let Err(e) = res {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(format!("{metric}: {e}"));
        }
        result.set(metric, p.ns_per_call / 1e3, p.samples as u64);
        if !cow {
            let mut b = 0;
            let p = calibrated(Duration::from_secs_f64(each), || {
                std::hint::black_box(store.read_batch(b % n_batches).expect("probe batch reads"));
                b += 1;
            });
            result.set("storage.array_read_batch_us", p.ns_per_call / 1e3, p.samples as u64);
        }
    }
    let mut log = CommitLog::load_or_new(probe_disk, "commit.log");
    let mut epoch = 0u64;
    let p = calibrated(Duration::from_secs_f64(each), || {
        epoch += 1;
        log.record_commit(&[("probe_a", epoch), ("probe_b", epoch)]).expect("probe commit record");
    });
    result.set("storage.commitlog_record_us", p.ns_per_call / 1e3, p.samples as u64);
    Ok(())
}

/// Payload of one stream probe pass.
const STREAM_BYTES: usize = 16 << 20;
/// All-reduce calls per timed batch.
const ALLREDUCE_BATCH: u64 = 500;

/// Runs one two-rank probe: `measure` on rank 0, `follow` on rank 1. Both
/// loop until rank 0's budget is spent, agreeing on "once more" through an
/// all-reduce after each pass, so neither side is ever left waiting.
fn pair_probe(
    eps: Vec<Endpoint>,
    budget: f64,
    pass: impl Fn(&Endpoint, u64) -> Result<f64> + Sync,
) -> Result<Vec<f64>> {
    let mut eps = eps.into_iter();
    let (ep0, ep1) = (eps.next().expect("rank 0"), eps.next().expect("rank 1"));
    std::thread::scope(|s| {
        let follower = s.spawn(|| -> Result<()> {
            let mut round = 0u64;
            loop {
                pass(&ep1, round)?;
                round += 1;
                if ep1.allreduce_sum_u64(0) == 0 {
                    return Ok(());
                }
            }
        });
        let start = Instant::now();
        let mut out = Vec::new();
        let mut round = 0u64;
        let lead = loop {
            match pass(&ep0, round) {
                Ok(v) => out.push(v),
                Err(e) => {
                    ep0.poison_collective();
                    break Err(e);
                }
            }
            round += 1;
            let more = out.len() < 3 || start.elapsed().as_secs_f64() < budget;
            if ep0.allreduce_sum_u64(u64::from(more)) == 0 {
                break Ok(());
            }
        };
        let followed =
            follower.join().unwrap_or_else(|_| Err(DfoError::Panic("probe rank panicked".into())));
        lead.and(followed).map(|()| out)
    })
}

/// Rank 0 streams [`STREAM_BYTES`] to rank 1; the pass value (rank 1's is
/// the one that counts, but both time the same transfer between the same two
/// barriers) is MB/s.
fn stream_pass(ep: &Endpoint, round: u64) -> Result<f64> {
    let payload = (ep.rank() == 0).then(|| vec![0xA5u8; STREAM_BYTES]);
    ep.try_barrier()?;
    let t = Instant::now();
    match payload {
        Some(p) => ep.send_stream(1, round, p.into())?,
        None => {
            let mut rx = ep.recv_stream(0, round);
            let mut got = 0usize;
            while let Some(chunk) = rx.next_chunk()? {
                got += chunk.len();
            }
            if got != STREAM_BYTES {
                return Err(DfoError::Corrupt(format!("stream probe received {got} bytes")));
            }
        }
    }
    ep.try_barrier()?;
    Ok(STREAM_BYTES as f64 / MB / t.elapsed().as_secs_f64())
}

/// Microseconds per `allreduce_sum_u64`.
fn allreduce_pass(ep: &Endpoint, _round: u64) -> Result<f64> {
    let t = Instant::now();
    for i in 0..ALLREDUCE_BATCH {
        std::hint::black_box(ep.allreduce_sum_u64(i));
    }
    Ok(t.elapsed().as_secs_f64() * 1e6 / ALLREDUCE_BATCH as f64)
}

/// Connects a two-rank loopback TCP mesh; returns the endpoints and how long
/// the slower rank took to join.
fn tcp_mesh() -> Result<(Vec<Endpoint>, f64)> {
    let peers = free_addrs(RANKS);
    let t = Instant::now();
    let eps = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                let peers = &peers;
                s.spawn(move || TcpCluster::connect(rank, peers, None, false, TcpOpts::default()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Err(DfoError::Panic("connect thread panicked".into())))
            })
            .collect::<Result<Vec<_>>>()
    })?;
    Ok((eps, t.elapsed().as_secs_f64()))
}

/// `net.{sim,tcp}_stream_mb_s`, `net.{sim,tcp}_allreduce_us`,
/// `net.tcp_connect_ms` on fresh two-rank meshes.
pub fn net(budget: f64, result: &mut RunResult) -> std::result::Result<(), String> {
    let each = budget / 5.0;
    let sim = || SimCluster::build(RANKS, None, false);
    let v = pair_probe(sim(), each, stream_pass).map_err(err)?;
    result.set("net.sim_stream_mb_s", median(&v), v.len() as u64);
    let v = pair_probe(sim(), each, allreduce_pass).map_err(err)?;
    result.set("net.sim_allreduce_us", median(&v), v.len() as u64);

    let connects = repeat(each, || Ok(tcp_mesh()?.1 * 1e3)).map_err(err)?;
    result.set("net.tcp_connect_ms", median(&connects), connects.len() as u64);
    let v = pair_probe(tcp_mesh().map_err(err)?.0, each, stream_pass).map_err(err)?;
    result.set("net.tcp_stream_mb_s", median(&v), v.len() as u64);
    let v = pair_probe(tcp_mesh().map_err(err)?.0, each, allreduce_pass).map_err(err)?;
    result.set("net.tcp_allreduce_us", median(&v), v.len() as u64);
    Ok(())
}

/// `core.run_launch_ms` (the workload's launch path around an empty
/// closure) and `obs.span_ns` (one `FlightRecorder` span).
pub fn launch_and_span(
    runner: &Runner,
    budget: f64,
    result: &mut RunResult,
) -> std::result::Result<(), String> {
    let launches = repeat(budget * 0.7, || {
        let t = Instant::now();
        runner.launch_only()?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    })
    .map_err(err)?;
    result.set("core.run_launch_ms", median(&launches), launches.len() as u64);
    span_cost(budget * 0.3, result);
    Ok(())
}

pub fn span_cost(budget: f64, result: &mut RunResult) {
    let rec = FlightRecorder::new(1 << 12);
    let p = calibrated(Duration::from_secs_f64(budget), || {
        drop(std::hint::black_box(rec.span("probe", "bench")));
    });
    result.set("obs.span_ns", p.ns_per_call, p.samples as u64);
}
