//! Chunk compression through the engine: physical reads shrink while
//! logical reads (and results) stay put, the off switch reproduces the
//! uncompressed layout byte-for-byte, and files of an older build
//! (version-1 containers) fail the run with a typed error.

use dfo_core::Cluster;
use dfo_graph::edge::EdgeList;
use dfo_graph::gen::{rmat, GenConfig};
use dfo_part::preprocess::paths;
use dfo_types::{BatchPolicy, DfoError, EngineConfig, PhaseStats};
use std::io::Read;
use tempfile::TempDir;

fn cfg(compress: bool) -> EngineConfig {
    let mut c = EngineConfig::for_test(2);
    c.batch_policy = BatchPolicy::FixedVertices(64);
    c.compress_chunks = compress;
    c
}

fn graph() -> EdgeList<()> {
    rmat(GenConfig::new(9, 6, 5))
}

struct RunOut {
    values: Vec<u64>,
    stats: PhaseStats,
    /// Cluster-wide physical disk reads during the run (preprocessing
    /// excluded).
    physical_read: u64,
    /// Cluster-wide logical disk reads during the run.
    logical_read: u64,
}

/// One full-frontier push iteration; returns per-vertex sums in rank order,
/// the cluster-merged [`PhaseStats`], and raw disk-counter deltas.
fn push_once(cfg: EngineConfig, g: &EdgeList<()>, base: &std::path::Path) -> RunOut {
    let cluster = Cluster::create(cfg, base).unwrap();
    cluster.preprocess(g).unwrap();
    let before: Vec<(u64, u64)> = cluster
        .disks()
        .iter()
        .map(|d| (d.stats().read_bytes.get(), d.stats().logical_read_bytes.get()))
        .collect();
    let per_node = cluster
        .run(|ctx| {
            let acc = ctx.vertex_array::<u64>("acc")?;
            let a = acc.clone();
            ctx.process_edges(
                &[],
                &["acc"],
                None,
                |_v, _c| Some(1u64),
                move |m: u64, _s, d, _e: &(), cx| {
                    let cur = cx.get(&a, d);
                    cx.set(&a, d, cur + m);
                    0u64
                },
            )?;
            let stats = ctx.last_phase_stats().clone();
            let r = ctx.plan().partitions[ctx.rank()];
            let out = std::sync::Mutex::new(vec![0u64; r.len() as usize]);
            let a = acc.clone();
            ctx.process_vertices(&["acc"], None, |v, c| {
                out.lock().unwrap()[(v - r.start) as usize] = c.get(&a, v);
                0u64
            })?;
            Ok((out.into_inner().unwrap(), stats))
        })
        .unwrap();
    let mut values = Vec::new();
    let mut merged = PhaseStats::default();
    for (vals, stats) in per_node {
        values.extend(vals);
        merged.merge(&stats);
    }
    let (mut physical_read, mut logical_read) = (0u64, 0u64);
    for (disk, (r0, l0)) in cluster.disks().iter().zip(before) {
        physical_read += disk.stats().read_bytes.get() - r0;
        logical_read += disk.stats().logical_read_bytes.get() - l0;
    }
    RunOut { values, stats: merged, physical_read, logical_read }
}

#[test]
fn compressed_runs_read_fewer_physical_bytes_than_logical() {
    let g = graph();
    let td = TempDir::new().unwrap();
    let on = push_once(cfg(true), &g, &td.path().join("on"));
    let off = push_once(cfg(false), &g, &td.path().join("off"));
    assert_eq!(on.values, off.values, "compression must not change results");

    // the actual win: cold chunk reads cost fewer physical bytes
    assert!(
        on.stats.process_disk_read < off.stats.process_disk_read,
        "compressed cold reads {} must undercut uncompressed {}",
        on.stats.process_disk_read,
        off.stats.process_disk_read
    );
    assert!(
        on.physical_read < off.physical_read,
        "whole-run physical reads: compressed {} vs raw {}",
        on.physical_read,
        off.physical_read
    );
    // logical bytes are layout-independent: both runs served the pipeline
    // the same decoded stream (and the same message/array traffic)
    assert_eq!(on.logical_read, off.logical_read, "logical reads must not depend on layout");
    assert_eq!(
        on.stats.logical_disk_read, off.stats.logical_disk_read,
        "per-call logical reads must not depend on layout"
    );
    // compressed: the pipeline consumed more bytes than the device served
    assert!(
        on.logical_read > on.physical_read,
        "decoded bytes {} must exceed physical frames {}",
        on.logical_read,
        on.physical_read
    );
    // uncompressed: the device never serves fewer bytes than the consumer
    // sees (buffered read-ahead can only make physical ≥ logical)
    assert!(
        off.logical_read <= off.physical_read,
        "raw runs cannot consume more than they read: logical {} physical {}",
        off.logical_read,
        off.physical_read
    );
}

#[test]
fn compress_off_reproduces_the_legacy_layout() {
    let g = graph();
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(false), td.path()).unwrap();
    let plan = cluster.preprocess(&g).unwrap();
    // every chunk file must carry the raw "DFOC" magic and decode to
    // exactly its serialized size — the pre-compression on-disk format
    for (i, disk) in cluster.disks().iter().enumerate() {
        for c in &plan.node_meta[i].chunks {
            let rel = paths::chunk(c.src_partition, c.batch);
            let bytes = disk.read_to_vec(&rel).unwrap();
            assert_eq!(&bytes[0..4], &0x4446_4F43u32.to_le_bytes(), "{rel} must start with DFOC");
        }
    }
}

#[test]
fn compressed_files_carry_the_frame_magic() {
    let g = graph();
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg(true), td.path()).unwrap();
    let plan = cluster.preprocess(&g).unwrap();
    let mut physical = 0u64;
    for (i, disk) in cluster.disks().iter().enumerate() {
        for c in &plan.node_meta[i].chunks {
            let rel = paths::chunk(c.src_partition, c.batch);
            let bytes = disk.read_to_vec(&rel).unwrap();
            assert_eq!(
                &bytes[0..4],
                &dfo_storage::FRAME_MAGIC.to_le_bytes(),
                "{rel} must start with the frame magic"
            );
            physical += bytes.len() as u64;
        }
    }
    // the same graph preprocessed uncompressed must occupy more chunk bytes
    let td2 = TempDir::new().unwrap();
    let cluster2 = Cluster::create(cfg(false), td2.path()).unwrap();
    let plan2 = cluster2.preprocess(&g).unwrap();
    let mut raw = 0u64;
    for (i, disk) in cluster2.disks().iter().enumerate() {
        for c in &plan2.node_meta[i].chunks {
            raw += disk.len(&paths::chunk(c.src_partition, c.batch)).unwrap();
        }
    }
    assert!(physical < raw, "compressed chunk bytes {physical} vs raw {raw}");
}

/// `logical` as a version-1 frame container (raw-stored blocks are as
/// valid as LZ4 ones): what builds before the block directory wrote.
fn v1_container(logical: &[u8]) -> Vec<u8> {
    let mut out = dfo_storage::FRAME_MAGIC.to_le_bytes().to_vec();
    out.extend(1u32.to_le_bytes());
    for block in logical.chunks(128 << 10) {
        let len = block.len() as u32;
        for word in [len, len, 0, dfo_storage::compress::crc32(block)] {
            out.extend(word.to_le_bytes());
        }
        out.extend(block);
    }
    out.extend([0u32, 0, 2, 0].into_iter().flat_map(u32::to_le_bytes));
    out
}

/// A directory preprocessed by an older build — every chunk and dispatch
/// graph a version-1 container — is refused whether the engine loads its
/// files whole or, with an eager γ, seeks into them: the run fails with a
/// typed error that names the file and says to preprocess again, and
/// nothing panics. One node, so no peer's failure can surface first.
#[test]
fn a_version_1_directory_fails_the_run_typed_without_a_panic() {
    let g = graph();
    let td = TempDir::new().unwrap();
    let mut one_node = cfg(true);
    one_node.nodes = 1;
    let cluster = Cluster::create(one_node.clone(), td.path()).unwrap();
    let plan = cluster.preprocess(&g).unwrap();
    let disk = &cluster.disks()[0];
    let chunks = plan.node_meta[0].chunks.iter().map(|c| paths::chunk(c.src_partition, c.batch));
    let dispatch = plan.node_meta[0].dispatch[0].map(|_| paths::dispatch(0));
    for rel in chunks.chain(dispatch) {
        let mut logical = Vec::new();
        disk.open_framed(&rel).unwrap().read_to_end(&mut logical).unwrap();
        std::fs::write(disk.root().join(&rel), v1_container(&logical)).unwrap();
    }
    for gamma in [one_node.gamma, 1] {
        let mut c = one_node.clone();
        c.gamma = gamma;
        let err = Cluster::create(c, td.path())
            .unwrap()
            .run(|ctx| {
                let acc = ctx.vertex_array::<u64>("acc")?;
                ctx.process_edges(
                    &[],
                    &["acc"],
                    None,
                    |_v, _c| Some(1u64),
                    move |m: u64, _s, d, _e: &(), cx| {
                        let cur = cx.get(&acc, d);
                        cx.set(&acc, d, cur + m);
                        0u64
                    },
                )
            })
            .err();
        match err {
            Some(DfoError::Corrupt(m)) if m.contains("version-1") && m.contains("preprocess") => {}
            other => panic!("gamma {gamma}: {other:?}"),
        }
    }
}
