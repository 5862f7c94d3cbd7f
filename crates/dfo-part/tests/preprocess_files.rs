//! Pins preprocessing's output files byte for byte.
//!
//! Every case preprocesses one input graph under one configuration and
//! takes the CRC-32 of every file on every node disk, `plan.bin` included,
//! keyed by its path relative to the cluster root. `RECORDED` holds, per
//! case, the file count and the CRC-32 of that sorted `path crc` listing,
//! as a serial build of the preprocessor wrote them: a parallel build
//! must write the same bytes whatever its worker count (CI also runs this
//! file under `RAYON_NUM_THREADS=1` and `=3`). On a mismatch the test
//! prints the listing of the failing case, so it can be diffed against
//! the listing of an older build.
//!
//! Every filter list is also checked against a brute-force oracle from the
//! edge list: the sorted local ids of partition i's sources with an edge
//! into partition j, `j = i` included.

use dfo_graph::edge::{Edge, EdgeList};
use dfo_graph::gen::{rmat, web_chain, GenConfig};
use dfo_part::preprocess::paths;
use dfo_part::{preprocess, read_filter_list, Plan};
use dfo_storage::compress::crc32;
use dfo_storage::NodeDisk;
use dfo_types::{BatchPolicy, EngineConfig, Pod};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use tempfile::TempDir;

/// `(case, files, crc32 of the listing)`.
const RECORDED: &[(&str, usize, u32)] = &[
    ("rmat/p1/fixed/lz4/unit", 11, 0xfad222df),
    ("rmat/p1/fixed/lz4/f32", 11, 0xa91dbdf2),
    ("rmat/p1/fixed/raw/unit", 11, 0x8177893d),
    ("rmat/p1/fixed/raw/f32", 11, 0x829d3c59),
    ("rmat/p1/onebatch/lz4/unit", 4, 0x47b7b8e7),
    ("rmat/p1/onebatch/lz4/f32", 4, 0x2e1d7f58),
    ("rmat/p1/onebatch/raw/unit", 4, 0x729282a9),
    ("rmat/p1/onebatch/raw/f32", 4, 0x75bcbd2e),
    ("rmat/p2/fixed/lz4/unit", 28, 0x3fc9a9b3),
    ("rmat/p2/fixed/lz4/f32", 28, 0xcbf5a6fd),
    ("rmat/p2/fixed/raw/unit", 28, 0x4832121c),
    ("rmat/p2/fixed/raw/f32", 28, 0x5ff234b6),
    ("rmat/p2/onebatch/lz4/unit", 14, 0x525b1b05),
    ("rmat/p2/onebatch/lz4/f32", 14, 0xbb776e64),
    ("rmat/p2/onebatch/raw/unit", 14, 0x2c4831be),
    ("rmat/p2/onebatch/raw/f32", 14, 0x30f3c787),
    ("rmat/p3/fixed/lz4/unit", 48, 0xd11baf57),
    ("rmat/p3/fixed/lz4/f32", 48, 0x6c630c57),
    ("rmat/p3/fixed/raw/unit", 48, 0x4d2a748c),
    ("rmat/p3/fixed/raw/f32", 48, 0x4faa6bba),
    ("rmat/p3/onebatch/lz4/unit", 30, 0xac860854),
    ("rmat/p3/onebatch/lz4/f32", 30, 0x32ba34b3),
    ("rmat/p3/onebatch/raw/unit", 30, 0x43b58d7b),
    ("rmat/p3/onebatch/raw/f32", 30, 0x59a8de1c),
    ("rmat/p4/fixed/lz4/unit", 76, 0xd4dd798b),
    ("rmat/p4/fixed/lz4/f32", 76, 0x5de3ae51),
    ("rmat/p4/fixed/raw/unit", 76, 0x39aafaff),
    ("rmat/p4/fixed/raw/f32", 76, 0xc678f341),
    ("rmat/p4/onebatch/lz4/unit", 52, 0x45b92aa6),
    ("rmat/p4/onebatch/lz4/f32", 52, 0x3a0c5d36),
    ("rmat/p4/onebatch/raw/unit", 52, 0x21c1011f),
    ("rmat/p4/onebatch/raw/f32", 52, 0x14e608da),
    ("web/p1/fixed/lz4/unit", 11, 0xea48f24c),
    ("web/p1/fixed/lz4/f32", 11, 0x7f56a138),
    ("web/p1/fixed/raw/unit", 11, 0x7f8a4bc0),
    ("web/p1/fixed/raw/f32", 11, 0x95b83d1b),
    ("web/p1/onebatch/lz4/unit", 4, 0x1ee30733),
    ("web/p1/onebatch/lz4/f32", 4, 0x8e7f3d23),
    ("web/p1/onebatch/raw/unit", 4, 0x6f2d8355),
    ("web/p1/onebatch/raw/f32", 4, 0xce99a085),
    ("web/p2/fixed/lz4/unit", 18, 0x77e1c936),
    ("web/p2/fixed/lz4/f32", 18, 0xe889e361),
    ("web/p2/fixed/raw/unit", 18, 0x8941e177),
    ("web/p2/fixed/raw/f32", 18, 0x0f426445),
    ("web/p2/onebatch/lz4/unit", 12, 0xc6d8b27f),
    ("web/p2/onebatch/lz4/f32", 12, 0x4d13658f),
    ("web/p2/onebatch/raw/unit", 12, 0xfd3dbc4d),
    ("web/p2/onebatch/raw/f32", 12, 0xea62c5ca),
    ("web/p3/fixed/lz4/unit", 30, 0x13c1a613),
    ("web/p3/fixed/lz4/f32", 30, 0xa37387c8),
    ("web/p3/fixed/raw/unit", 30, 0x7a45e591),
    ("web/p3/fixed/raw/f32", 30, 0x459a790c),
    ("web/p3/onebatch/lz4/unit", 24, 0x4c658161),
    ("web/p3/onebatch/lz4/f32", 24, 0xb3cc4559),
    ("web/p3/onebatch/raw/unit", 24, 0x43497b5b),
    ("web/p3/onebatch/raw/f32", 24, 0x2487f6e0),
    ("web/p4/fixed/lz4/unit", 41, 0x44781500),
    ("web/p4/fixed/lz4/f32", 41, 0x4556273f),
    ("web/p4/fixed/raw/unit", 41, 0xc2361e0d),
    ("web/p4/fixed/raw/f32", 41, 0xd84f795e),
    ("web/p4/onebatch/lz4/unit", 36, 0x6c658cc0),
    ("web/p4/onebatch/lz4/f32", 36, 0x259fc33e),
    ("web/p4/onebatch/raw/unit", 36, 0x253af3d9),
    ("web/p4/onebatch/raw/f32", 36, 0x1845a8ef),
    ("star/p1/fixed/lz4/unit", 11, 0x8aa229ce),
    ("star/p1/fixed/lz4/f32", 11, 0x78a2bef7),
    ("star/p1/fixed/raw/unit", 11, 0x96fd5d49),
    ("star/p1/fixed/raw/f32", 11, 0x72fd0370),
    ("star/p1/onebatch/lz4/unit", 4, 0x783e8a37),
    ("star/p1/onebatch/lz4/f32", 4, 0x5d351799),
    ("star/p1/onebatch/raw/unit", 4, 0x66339cad),
    ("star/p1/onebatch/raw/f32", 4, 0xbe215b5d),
    ("star/p2/fixed/lz4/unit", 19, 0xab07f52f),
    ("star/p2/fixed/lz4/f32", 19, 0x415210ed),
    ("star/p2/fixed/raw/unit", 19, 0x227591e2),
    ("star/p2/fixed/raw/f32", 19, 0x55cc97be),
    ("star/p2/onebatch/lz4/unit", 12, 0x809c1325),
    ("star/p2/onebatch/lz4/f32", 12, 0xf9d0e206),
    ("star/p2/onebatch/raw/unit", 12, 0xc727f196),
    ("star/p2/onebatch/raw/f32", 12, 0xa721b957),
    ("star/p3/fixed/lz4/unit", 29, 0x9a1bbe19),
    ("star/p3/fixed/lz4/f32", 29, 0xf01736c7),
    ("star/p3/fixed/raw/unit", 29, 0xe94ddd3c),
    ("star/p3/fixed/raw/f32", 29, 0xa88050ff),
    ("star/p3/onebatch/lz4/unit", 22, 0x7a7d1801),
    ("star/p3/onebatch/lz4/f32", 22, 0xfd468b3d),
    ("star/p3/onebatch/raw/unit", 22, 0x556cda12),
    ("star/p3/onebatch/raw/f32", 22, 0x79b69667),
    ("star/p4/fixed/lz4/unit", 40, 0x42b385b1),
    ("star/p4/fixed/lz4/f32", 40, 0x13e0dcf4),
    ("star/p4/fixed/raw/unit", 40, 0x8ba8b69f),
    ("star/p4/fixed/raw/f32", 40, 0xef14d818),
    ("star/p4/onebatch/lz4/unit", 34, 0x562ba1a4),
    ("star/p4/onebatch/lz4/f32", 34, 0xf78119c6),
    ("star/p4/onebatch/raw/unit", 34, 0x60b1913c),
    ("star/p4/onebatch/raw/f32", 34, 0x1e0c7621),
    ("mixed/p1/fixed/lz4/unit", 11, 0xb583b7ad),
    ("mixed/p1/fixed/lz4/f32", 11, 0x095db123),
    ("mixed/p1/fixed/raw/unit", 11, 0xf1dacc90),
    ("mixed/p1/fixed/raw/f32", 11, 0xdc82f0b9),
    ("mixed/p1/onebatch/lz4/unit", 4, 0x97eb9e51),
    ("mixed/p1/onebatch/lz4/f32", 4, 0xa1a55b0a),
    ("mixed/p1/onebatch/raw/unit", 4, 0x2f09fca6),
    ("mixed/p1/onebatch/raw/f32", 4, 0xb95216f1),
    ("mixed/p2/fixed/lz4/unit", 22, 0x7e70dd13),
    ("mixed/p2/fixed/lz4/f32", 22, 0x521d6c16),
    ("mixed/p2/fixed/raw/unit", 22, 0xfc526eb9),
    ("mixed/p2/fixed/raw/f32", 22, 0x002e555b),
    ("mixed/p2/onebatch/lz4/unit", 14, 0x5984d85f),
    ("mixed/p2/onebatch/lz4/f32", 14, 0xf3760693),
    ("mixed/p2/onebatch/raw/unit", 14, 0xaf71217e),
    ("mixed/p2/onebatch/raw/f32", 14, 0x81a5abe1),
    ("mixed/p3/fixed/lz4/unit", 28, 0xbcb15b30),
    ("mixed/p3/fixed/lz4/f32", 28, 0x936f220c),
    ("mixed/p3/fixed/raw/unit", 28, 0xd14de56b),
    ("mixed/p3/fixed/raw/f32", 28, 0x86f5b248),
    ("mixed/p3/onebatch/lz4/unit", 20, 0xb9592225),
    ("mixed/p3/onebatch/lz4/f32", 20, 0xdbd6d2de),
    ("mixed/p3/onebatch/raw/unit", 20, 0x0eef2bfb),
    ("mixed/p3/onebatch/raw/f32", 20, 0x6ae1c23a),
    ("mixed/p4/fixed/lz4/unit", 48, 0xb57b57fa),
    ("mixed/p4/fixed/lz4/f32", 48, 0x476c77ca),
    ("mixed/p4/fixed/raw/unit", 48, 0xf4ce6807),
    ("mixed/p4/fixed/raw/f32", 48, 0xc4969641),
    ("mixed/p4/onebatch/lz4/unit", 34, 0x4e407253),
    ("mixed/p4/onebatch/lz4/f32", 34, 0x3454ada5),
    ("mixed/p4/onebatch/raw/unit", 34, 0x1a572893),
    ("mixed/p4/onebatch/raw/f32", 34, 0xbe2ccfbc),
];

/// Source-sorted R-MAT: skewed degrees, duplicate edges.
fn rmat_graph() -> EdgeList<()> {
    let mut g = rmat(GenConfig::new(11, 8, 41));
    // stable: a source's edges keep their generated dst order
    g.edges.sort_by_key(|e| e.src);
    g
}

/// The uk-2014 stand-in: long runs of intra-community edges.
fn web_graph() -> EdgeList<()> {
    web_chain(48, 64, 5, 3, 42)
}

/// A hub with an edge to and from every other vertex.
fn star_graph() -> EdgeList<()> {
    let n = 6_000u64;
    let mut edges: Vec<Edge<()>> = (1..n).map(|v| Edge::new(0, v, ())).collect();
    edges.extend((1..n).map(|v| Edge::new(v, 0, ())));
    EdgeList::new(n, edges)
}

/// Not source-sorted: a heavy vertex of self-loops and duplicate edges that
/// leaves a partition empty at P = 4, isolated vertices, and a scattered
/// tail of edges.
fn mixed_graph() -> EdgeList<()> {
    let n = 300u64;
    let mut edges = Vec::new();
    let mut x = 0x9e37_79b9u64;
    let mut next = |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    for k in 0..12_000u64 {
        // self-loops and duplicates on vertex 0, interleaved
        edges.push(Edge::new(0, if k % 3 == 0 { 1 + k % 5 } else { 0 }, ()));
        if k % 8 == 0 {
            // vertices 200..260 stay isolated
            let src = next(200);
            let dst = if src % 2 == 0 { 260 + next(40) } else { next(200) };
            edges.push(Edge::new(src, dst, ()));
        }
    }
    edges.extend((0..40).map(|k| Edge::new(299 - k % 7, 299 - k % 7, ())));
    EdgeList::new(n, edges)
}

/// Edge data that differs between duplicate edges.
fn weighted(g: &EdgeList<()>) -> EdgeList<f32> {
    let mut k = 0u32;
    g.map_data(|_| {
        k += 1;
        k as f32 * 0.25
    })
}

/// Eight batches of `n_vertices` in all, or the Table 6 ablation's one
/// batch per partition.
fn config(n_vertices: u64, p: usize, batching: bool, compress: bool) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(p);
    cfg.batch_policy = BatchPolicy::FixedVertices(n_vertices / 8);
    cfg.batching_enabled = batching;
    cfg.compress_chunks = compress;
    cfg
}

/// Every file under `root`, as `relative path → crc32`, sorted by path.
fn listing(root: &Path) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.push((rel, crc32(&std::fs::read(&path).unwrap())));
            }
        }
    }
    out.sort();
    out
}

/// The sorted local ids of partition `i`'s sources with an edge into
/// partition `j`.
fn oracle_list<E: Pod>(g: &EdgeList<E>, plan: &Plan, i: usize, j: usize) -> Vec<u32> {
    let (pi, pj) = (plan.partitions[i], plan.partitions[j]);
    let set: BTreeSet<u32> = g
        .edges
        .iter()
        .filter(|e| pi.contains(e.src) && pj.contains(e.dst))
        .map(|e| pi.local(e.src))
        .collect();
    set.into_iter().collect()
}

/// Preprocesses `g` under `cfg`, checks its filter lists against the
/// oracle and returns the cluster's file listing.
fn run_case<E: Pod + PartialEq>(g: &EdgeList<E>, cfg: &EngineConfig) -> (Plan, String) {
    let td = TempDir::new().unwrap();
    let disks: Vec<NodeDisk> = (0..cfg.nodes)
        .map(|i| NodeDisk::new(td.path().join(format!("n{i}")), None, false).unwrap())
        .collect();
    let plan = preprocess(g, cfg, &disks).unwrap().plan;
    for (i, disk) in disks.iter().enumerate() {
        for j in 0..cfg.nodes {
            let len = plan.node_meta[i].filter_lens[j];
            let got = read_filter_list(disk, &paths::filter(j), len).unwrap();
            assert_eq!(got, oracle_list(g, &plan, i, j), "L_{i},{j}");
        }
    }
    let mut text = String::new();
    for (rel, crc) in listing(td.path()) {
        writeln!(text, "{rel} {crc:08x}").unwrap();
    }
    (plan, text)
}

#[test]
fn preprocessing_writes_the_recorded_files() {
    let graphs = [
        ("rmat", rmat_graph()),
        ("web", web_graph()),
        ("star", star_graph()),
        ("mixed", mixed_graph()),
    ];
    let mut got = Vec::new();
    let mut listings = Vec::new();
    for (name, g) in &graphs {
        let w = weighted(g);
        for p in 1..=4 {
            for batching in [true, false] {
                for compress in [true, false] {
                    let cfg = config(g.n_vertices, p, batching, compress);
                    let tag = |data| {
                        let b = if batching { "fixed" } else { "onebatch" };
                        let z = if compress { "lz4" } else { "raw" };
                        format!("{name}/p{p}/{b}/{z}/{data}")
                    };
                    let (plan, unit) = run_case(g, &cfg);
                    if *name == "mixed" && p == 4 {
                        assert!(plan.partitions.iter().any(|r| r.is_empty()), "an empty partition");
                    }
                    let (_, f32s) = run_case(&w, &cfg);
                    for (case, text) in [(tag("unit"), unit), (tag("f32"), f32s)] {
                        got.push((case.clone(), text.lines().count(), crc32(text.as_bytes())));
                        listings.push((case, text));
                    }
                }
            }
        }
    }
    let want: Vec<(String, usize, u32)> =
        RECORDED.iter().map(|&(c, n, crc)| (c.to_string(), n, crc)).collect();
    if got != want {
        let mut table = String::new();
        for (case, n, crc) in &got {
            writeln!(table, "    (\"{case}\", {n}, 0x{crc:08x}),").unwrap();
        }
        for ((case, text), g) in listings.iter().zip(&got) {
            if !want.contains(g) {
                eprintln!("--- {case}\n{text}");
            }
        }
        panic!("preprocessing wrote other files than recorded; this build's table:\n{table}");
    }
}
