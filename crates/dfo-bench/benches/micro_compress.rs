//! Chunk compression micro-benchmark on the bundled web-graph generator
//! (`web_chain`, the uk-2014 stand-in — web graphs are where GraphMP-style
//! block compression shines).
//!
//! Runs multi-iteration damped PageRank across the full
//! {compress on/off} × {chunk_cache_bytes 0/small/large} matrix and
//! asserts:
//!
//! * results are bit-identical across all six cells,
//! * compressed preprocessing writes strictly fewer physical bytes,
//! * the cold iteration reads strictly fewer physical bytes compressed,
//!   while consuming the same logical bytes.
//!
//! It also times the codec alone — frame decode (checksum + LZ4) and the
//! checksum by itself — over the compressed chunk files it just wrote, on
//! an unthrottled disk whose files the page cache holds, so the
//! trajectory records what a decoded byte costs.
//!
//! The printed `BENCH_4` line is the JSON committed as `BENCH_4.json`; the
//! CI bench-gate job compares fresh runs against it (hard-fail when any
//! byte metric regresses > 5 %, warn-only on wall-clock — which includes
//! the two `codec.*_wall_secs`).

use dfo_bench::{fmt_bytes, fmt_secs, pagerank_with_stats, timed, uk_like};
use dfo_core::Cluster;
use dfo_part::plan::Plan;
use dfo_part::preprocess::paths;
use dfo_types::{BatchPolicy, EngineConfig, PhaseStats};
use std::io::Read;

const ITERS: usize = 4;
/// Passes per codec timing; the fastest one is reported.
const CODEC_PASSES: usize = 50;
const SMALL_BUDGET: u64 = 64 << 10;
const LARGE_BUDGET: u64 = 1 << 30;

struct RunOut {
    /// Physical disk bytes written by preprocessing, cluster-wide.
    prep_write: u64,
    /// Logical (pre-compression) preprocessing writes.
    prep_write_logical: u64,
    /// Physical edge-pipeline reads per iteration, cluster-wide.
    per_iter_read: Vec<u64>,
    /// Logical reads per iteration.
    per_iter_logical: Vec<u64>,
    wall_secs: f64,
    /// Bit patterns of the final ranks, for the identity matrix.
    rank_bits: Vec<u64>,
}

fn config(compress: bool, budget: u64) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(256);
    cfg.disk_bw = Some(dfo_bench::DISK_BW);
    cfg.net_bw = Some(dfo_bench::NET_BW);
    cfg.compress_chunks = compress;
    cfg.chunk_cache_bytes = budget;
    cfg
}

/// Wall seconds of one frame-decode pass — each file read from the front
/// through `open_framed` — and one CRC-32 pass over every compressed chunk
/// file of the preprocessed graph (fastest of [`CODEC_PASSES`]; the disk is
/// unthrottled and its files are in the page cache, the CRC pass's in
/// memory), then the decoded and the encoded size in bytes.
fn codec_times() -> (f64, f64, usize, usize) {
    let mut cfg = config(true, 0);
    cfg.disk_bw = None;
    let td = tempfile::TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&uk_like()).unwrap();
    let disks = cluster.disks();
    let plan = Plan::load(&disks[0]).unwrap();
    let rels: Vec<(usize, String)> = (0..plan.nodes())
        .flat_map(|r| plan.node_meta[r].chunks.iter().map(move |c| (r, c)))
        .map(|(r, c)| (r, paths::chunk(c.src_partition, c.batch)))
        .collect();
    let files: Vec<Vec<u8>> =
        rels.iter().map(|(r, rel)| disks[*r].read_to_vec(rel).unwrap()).collect();
    let fastest = |pass: &dyn Fn() -> usize| {
        (0..CODEC_PASSES).map(|_| timed(pass).1).fold(f64::INFINITY, f64::min)
    };
    let decode_all = || {
        let mut decoded = Vec::new();
        for (r, rel) in &rels {
            disks[*r].open_framed(rel).unwrap().read_to_end(&mut decoded).unwrap();
        }
        std::hint::black_box(&decoded).len()
    };
    let crc_all = || {
        files.iter().map(|f| dfo_storage::compress::crc32(std::hint::black_box(f)) as usize).sum()
    };
    let encoded = files.iter().map(Vec::len).sum();
    (fastest(&decode_all), fastest(&crc_all), decode_all(), encoded)
}

fn run(compress: bool, budget: u64) -> RunOut {
    let g = uk_like();
    let cfg = config(compress, budget);
    let td = tempfile::TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let (prep_write, prep_write_logical) = cluster
        .disks()
        .iter()
        .map(|d| (d.stats().write_bytes.get(), d.stats().logical_write_bytes.get()))
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));

    let (per_node, wall_secs) =
        timed(|| cluster.run(|ctx| pagerank_with_stats(ctx, ITERS)).unwrap());
    let mut per_iter = vec![PhaseStats::default(); ITERS];
    let mut rank_bits = Vec::new();
    for (ranks, stats) in per_node {
        rank_bits.extend(ranks.into_iter().map(f64::to_bits));
        for (m, s) in per_iter.iter_mut().zip(&stats) {
            m.merge(s);
        }
    }
    let per_iter_read = per_iter
        .iter()
        .map(|s| {
            s.generate_disk_read + s.pass_disk_read + s.dispatch_disk_read + s.process_disk_read
        })
        .collect();
    let per_iter_logical = per_iter.iter().map(|s| s.logical_disk_read).collect();
    RunOut { prep_write, prep_write_logical, per_iter_read, per_iter_logical, wall_secs, rank_bits }
}

fn main() {
    let g = uk_like();
    println!(
        "micro_compress: web_chain |V|={}, |E|={}, {ITERS} PageRank iterations, 2 nodes",
        g.n_vertices,
        g.n_edges()
    );

    // the reported cells: fully-out-of-core (budget 0), compression off/on
    let raw = run(false, 0);
    let comp = run(true, 0);
    for (name, r) in [("raw", &raw), ("compressed", &comp)] {
        println!(
            "{name:>11}: prep writes {} (logical {}) | wall {} | cold iteration reads {} \
             (logical {})",
            fmt_bytes(r.prep_write),
            fmt_bytes(r.prep_write_logical),
            fmt_secs(r.wall_secs),
            fmt_bytes(r.per_iter_read[0]),
            fmt_bytes(r.per_iter_logical[0]),
        );
    }

    // acceptance: compressed preprocessing output and cold-iteration
    // physical reads strictly smaller than uncompressed
    assert!(
        comp.prep_write < raw.prep_write,
        "compressed preprocessing wrote {} vs raw {}",
        comp.prep_write,
        raw.prep_write
    );
    assert!(
        comp.per_iter_read[0] < raw.per_iter_read[0],
        "compressed cold iteration read {} vs raw {}",
        comp.per_iter_read[0],
        raw.per_iter_read[0]
    );
    // logical traffic is layout-independent
    assert_eq!(comp.per_iter_logical, raw.per_iter_logical, "logical reads must match");

    // bit-identical results across the whole compression × budget matrix
    // (the two budget-0 cells are `raw` and `comp`, already computed)
    assert_eq!(comp.rank_bits, raw.rank_bits, "results diverged at compress=true budget=0");
    for compress in [false, true] {
        for budget in [SMALL_BUDGET, LARGE_BUDGET] {
            let cell = run(compress, budget);
            assert_eq!(
                cell.rank_bits, raw.rank_bits,
                "results diverged at compress={compress} budget={budget}"
            );
        }
    }
    println!("matrix: ranks bit-identical across {{on,off}} × {{0, 64K, 1G}}");

    let (decode_secs, crc_secs, decoded_bytes, encoded_bytes) = codec_times();
    println!(
        "codec: frame decode {} ({:.0} MB/s decoded) | crc32 {} ({:.0} MB/s encoded)",
        fmt_secs(decode_secs),
        decoded_bytes as f64 / 1e6 / decode_secs,
        fmt_secs(crc_secs),
        encoded_bytes as f64 / 1e6 / crc_secs,
    );

    // the compounding cell for the JSON trajectory: compression + cache
    let both = run(true, LARGE_BUDGET);
    let total = |v: &[u64]| v.iter().sum::<u64>();
    println!(
        "BENCH_4 {{\"bench\":\"micro_compress\",\"iters\":{ITERS},\
         \"uncompressed\":{{\"wall_secs\":{:.3},\"prep_write_bytes\":{},\
         \"cold_read_bytes\":{},\"total_read_bytes\":{}}},\
         \"compressed\":{{\"wall_secs\":{:.3},\"prep_write_bytes\":{},\
         \"prep_logical_write_bytes\":{},\"cold_read_bytes\":{},\"total_read_bytes\":{},\
         \"cold_logical_read_bytes\":{}}},\
         \"compressed_cached\":{{\"wall_secs\":{:.3},\"total_read_bytes\":{}}},\
         \"codec\":{{\"decode_wall_secs\":{:.6},\"crc_wall_secs\":{:.6}}}}}",
        raw.wall_secs,
        raw.prep_write,
        raw.per_iter_read[0],
        total(&raw.per_iter_read),
        comp.wall_secs,
        comp.prep_write,
        comp.prep_write_logical,
        comp.per_iter_read[0],
        total(&comp.per_iter_read),
        comp.per_iter_logical[0],
        both.wall_secs,
        total(&both.per_iter_read),
        decode_secs,
        crc_secs,
    );
}
