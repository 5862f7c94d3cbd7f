//! Vertex state leaves memory only when it must. With checkpointing off a
//! job's vertex blocks stay in the memory pool and reach their files once:
//! when an unscoped job ends, because the next job reopens them, and never
//! when a scoped job's scratch is thrown away. With checkpointing on every
//! write is a checkpoint's and goes out as it happens, as it always did.
//! Messages and filter lists that fit the same budget never touch the disk.
//! A block is read only when a call needs its old bytes, so a job that
//! overwrites the arrays the previous job left never reads them. Disk
//! traffic is counted per file class, and the classes add up to the
//! totals.

use dfograph::algos::{pagerank, read_local, sssp};
use dfograph::core::{BatchCtx, Cluster, NodeCtx, VertexArray};
use dfograph::graph::gen::{rmat, uniform, web_chain, GenConfig};
use dfograph::graph::EdgeList;
use dfograph::storage::{CommitLog, FileClass, NodeDisk};
use dfograph::types::{BatchPolicy, DfoError, EngineConfig, Result, VertexId, VertexRange};
use std::path::{Path, PathBuf};
use tempfile::TempDir;

/// `[read_bytes, write_bytes, read_ops, write_ops]` of one file class over
/// every rank's disk.
type Traffic = [u64; 4];

fn traffic(disks: &[NodeDisk], class: FileClass) -> Traffic {
    disks.iter().fold([0; 4], |t, d| {
        let c = d.stats().class(class);
        [
            t[0] + c.read_bytes.get(),
            t[1] + c.write_bytes.get(),
            t[2] + c.read_ops.get(),
            t[3] + c.write_ops.get(),
        ]
    })
}

fn totals(disks: &[NodeDisk]) -> Traffic {
    disks.iter().fold([0; 4], |t, d| {
        let s = d.stats();
        [
            t[0] + s.read_bytes.get(),
            t[1] + s.write_bytes.get(),
            t[2] + s.read_ops.get(),
            t[3] + s.write_ops.get(),
        ]
    })
}

/// The weighted chain of communities SSSP runs on, with the weights the
/// benchmark gives it.
fn chain(communities: u64) -> EdgeList<f32> {
    web_chain(communities, 96, 5, 3, 7)
        .map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 4 + 1) as f32)
}

fn config(checkpointing: bool, mem_budget: u64) -> EngineConfig {
    let mut cfg = EngineConfig::for_test(2);
    cfg.batch_policy = BatchPolicy::FixedVertices(500);
    cfg.checkpointing = checkpointing;
    cfg.mem_budget = mem_budget;
    cfg
}

/// One SSSP job from vertex 0 (scoped or not) on a freshly preprocessed
/// cluster: the distances, the disks (their counters cover the job, its
/// end included) and the `Process` calls the commit record holds, summed
/// over ranks (0 without checkpointing: there is no record).
fn sssp_job(g: &EdgeList<f32>, cfg: EngineConfig, scoped: bool) -> (Vec<f32>, Vec<NodeDisk>, u64) {
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(g).unwrap();
    cluster.reset_disk_stats();
    let job = |ctx: &mut dfograph::core::NodeCtx| {
        let dist = sssp(ctx, 0)?;
        read_local(ctx, &dist)
    };
    let dist = if scoped { cluster.run_scoped("job", job) } else { cluster.run(job) };
    let dist: Vec<f32> = dist.unwrap().concat();
    let disks = cluster.disks().to_vec();
    let record = |d: &NodeDisk| CommitLog::open(d.clone(), "arrays/COMMITS.bin").unwrap();
    let calls = disks.iter().map(|d| record(d).call_seq()).sum();
    (dist, disks, calls)
}

#[test]
fn sssp_writes_its_vertex_state_once_per_job_with_checkpointing_off() {
    let g = chain(40);
    let n = g.n_vertices;
    let (dist, job, _) = sssp_job(&g, config(false, 64 << 20), false);
    // the pool held every block from creation on: nothing was read back,
    // and each of `sssp_dist` (f32) and `sssp_active` (bool) went to disk
    // once, at the end of the job
    let blocks = traffic(&job, FileClass::ArrayBlock);
    assert_eq!((blocks[0], blocks[1]), (0, n * (4 + 1)), "array blocks: {blocks:?}");
    assert_eq!(traffic(&job, FileClass::ArrayMeta), [0; 4]);

    // a scoped job's scratch is deleted after it: its blocks never leave
    let (scoped, job, _) = sssp_job(&g, config(false, 64 << 20), true);
    assert_eq!(scoped, dist);
    assert_eq!(traffic(&job, FileClass::ArrayBlock), [0; 4]);

    // with no pool every Process call writes what it changed, as before
    let (spilled, job, _) = sssp_job(&g, config(false, 1), false);
    assert_eq!(spilled, dist);
    assert!(traffic(&job, FileClass::ArrayBlock)[1] > 10 * n * 5);
}

#[test]
fn checkpointing_on_writes_every_array_block_as_the_poolless_engine_does() {
    let g = chain(12);
    let (dist, pooled, calls) = sssp_job(&g, config(true, 64 << 20), false);
    let (spilled, poolless, poolless_calls) = sssp_job(&g, config(true, 1), false);
    assert_eq!(dist, spilled);
    assert_eq!(calls, poolless_calls);
    for c in [FileClass::ArrayBlock, FileClass::ArrayMeta] {
        let (with, without) = (traffic(&pooled, c), traffic(&poolless, c));
        assert_eq!((with[1], with[3]), (without[1], without[3]), "{c:?} writes");
    }
    assert!(calls > 0);
    // the commit record is the only checkpoint metadata: one write per
    // recorded call, none per array (two arrays on each of two ranks)
    let meta_writes = traffic(&pooled, FileClass::ArrayMeta)[3];
    assert!(meta_writes <= calls + 2 * 2, "{meta_writes} metadata writes for {calls} calls");
}

#[test]
fn file_classes_add_up_to_the_disk_totals_for_pagerank() {
    let g = rmat(GenConfig::new(10, 8, 31));
    for checkpointing in [false, true] {
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(config(checkpointing, 64 << 20), td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        cluster
            .run(|ctx| {
                let ranks = pagerank(ctx, 3)?;
                read_local(ctx, &ranks)
            })
            .unwrap();
        let disks = cluster.disks();
        let sum = FileClass::ALL
            .iter()
            .map(|&c| traffic(disks, c))
            .fold([0; 4], |a, t| [a[0] + t[0], a[1] + t[1], a[2] + t[2], a[3] + t[3]]);
        assert_eq!(sum, totals(disks), "checkpointing {checkpointing}");
        assert_eq!(traffic(disks, FileClass::Other), [0; 4], "every file has a class");
        for c in [FileClass::Chunk, FileClass::Dispatch, FileClass::Filter, FileClass::Plan] {
            assert!(traffic(disks, c)[1] > 0, "{c:?} is written by preprocessing");
        }
        assert!(traffic(disks, FileClass::Chunk)[0] > 0 && traffic(disks, FileClass::Plan)[0] > 0);
        assert!(traffic(disks, FileClass::ArrayBlock)[1] > 0);
        assert_eq!(traffic(disks, FileClass::ArrayMeta)[1] > 0, checkpointing);
    }
}

/// The price of checkpointing, measured on the benchmark's `sssp_chain`
/// graph (260 communities of 96, seed 7) at its configuration: array-block
/// and array-metadata traffic and the commit count, with checkpointing off
/// and on. A measurement, not a gate (the metadata writes are gated by
/// `checkpointing_on_writes_every_array_block_as_the_poolless_engine_does`):
///
/// ```text
/// cargo test --release --test write_back -- --ignored --nocapture
/// ```
///
/// It writes 124,800 B in 12 ops of array blocks with checkpointing off,
/// and with it on 14,806,040 B in 1,651 ops of array blocks plus
/// 149,384 B in 1,038 ops of metadata for 1,038 recorded calls: one commit
/// record per call.
#[test]
#[ignore]
fn price_of_durability_on_the_sssp_chain_graph() {
    let g = chain(260);
    println!("sssp on web_chain(260 x 96, seed 7): {} edges", g.n_edges());
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "", "read B", "write B", "read ops", "write ops", "calls"
    );
    let mut want: Option<Vec<f32>> = None;
    for checkpointing in [false, true] {
        let mut cfg = config(checkpointing, 64 << 20);
        cfg.threads_per_node = 1;
        cfg.batch_policy = BatchPolicy::FixedVertices(5_000);
        let (dist, job, calls) = sssp_job(&g, cfg, false);
        assert_eq!(*want.get_or_insert_with(|| dist.clone()), dist);
        for c in [FileClass::ArrayBlock, FileClass::ArrayMeta] {
            let [rb, wb, ro, wo] = traffic(&job, c);
            let label = format!("{}/{c:?}", if checkpointing { "on" } else { "off" });
            println!("{label:<14} {rb:>10} {wb:>12} {ro:>10} {wo:>10} {calls:>8}");
        }
    }
}

/// Messages and filter lists within the pool never touch the disk. A
/// 2-rank PageRank on a uniform degree-2 graph whose per-call messages are
/// more than a sixteenth of `mem_budget` but fit in half of it spills no
/// message, and reads each filter list once per rank for the whole job.
/// With no pool (`mem_budget = 1`) every call spills its messages and
/// reads every list again, as the fully-out-of-core engine does.
#[test]
fn messages_and_filter_lists_within_the_pool_never_touch_the_disk() {
    const ITERS: u64 = 3;
    let g = uniform(1 << 16, 2 << 16, 5);
    let budget = 8 << 20;
    let mut ranks = Vec::new();
    for mem_budget in [budget, 1] {
        let mut cfg = config(false, mem_budget);
        cfg.batch_policy = BatchPolicy::FixedVertices(1 << 14);
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        let plan = cluster.preprocess(&g).unwrap();
        cluster.reset_disk_stats();
        let per_rank = cluster
            .run(|ctx| {
                let pr = pagerank(ctx, ITERS as usize)?;
                Ok((read_local(ctx, &pr)?, ctx.job_phase_stats().messages_generated))
            })
            .unwrap();
        let generated: u64 = per_rank.iter().map(|(_, m)| m).sum();
        ranks.push(per_rank.into_iter().flat_map(|(r, _)| r).collect::<Vec<f64>>());
        let disks = cluster.disks();
        let (spill, filter) = (traffic(disks, FileClass::Spill), traffic(disks, FileClass::Filter));
        // Σ over ranks i and peers j of the stored bytes of L_ij (framed
        // where that is smaller than its 8 + 4·|L_ij| raw bytes)
        let lists: u64 = (plan.node_meta.iter().enumerate())
            .flat_map(|(i, m)| {
                (0..m.filter_lens.len()).filter(move |&j| j != i).map(move |j| (i, j))
            })
            .map(|(i, j)| disks[i].len(&dfograph::part::preprocess::paths::filter(j)).unwrap())
            .sum();
        assert_eq!(filter[1], 0);
        if mem_budget == budget {
            assert_eq!(spill, [0; 4], "messages within the pool");
            assert_eq!(filter[0], lists, "each list read once per rank and job");
        } else {
            assert_eq!(filter[0], ITERS * lists, "each list read by every call");
            assert!(spill[1] >= 12 * generated, "every generated record went to a file");
            // what a call spills here is what the pool holds above: more
            // than a sixteenth of the budget per rank
            assert!(spill[1] / (2 * ITERS) > budget / 16, "{spill:?}");
        }
    }
    assert_eq!(ranks[0], ranks[1]);
}

/// Array-block traffic of one unscoped job on `cluster`, its end-of-job
/// flush included, and the job's results.
fn job_blocks<T: Send>(
    cluster: &Cluster,
    job: impl Fn(&mut NodeCtx) -> Result<T> + Sync,
) -> (Result<Vec<T>>, Traffic) {
    cluster.reset_disk_stats();
    let out = cluster.run(job);
    (out, traffic(cluster.disks(), FileClass::ArrayBlock))
}

/// A cluster whose last job left the `u64` array `"x"` holding `x[v] = v`
/// in its files, in batches of 100 vertices, and the graph's vertex count.
fn cluster_with_x(td: &TempDir) -> (Cluster, u64) {
    let g = rmat(GenConfig::new(10, 8, 31));
    let mut cfg = config(false, 64 << 20);
    cfg.batch_policy = BatchPolicy::FixedVertices(100);
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    cluster.run(|ctx| x_after(ctx, |x, v, c| c.set(x, v, v))).unwrap();
    (cluster, g.n_vertices)
}

/// What one UDF does to `"x"` at one vertex.
type Work = fn(&VertexArray<u64>, VertexId, &mut BatchCtx);

/// Runs `work` over `"x"` in one `ProcessVertices` call and reads this
/// rank's values afterwards.
fn x_after(ctx: &mut NodeCtx, work: Work) -> Result<Vec<u64>> {
    let x = ctx.vertex_array::<u64>("x")?;
    ctx.process_vertices(&["x"], None, |v, c| {
        work(&x, v, c);
        0u64
    })?;
    read_local(ctx, &x)
}

/// Blocks (batches) of every rank.
fn batch_count(cluster: &Cluster) -> u64 {
    cluster.run(|ctx| Ok(ctx.plan().batches[ctx.rank()].len() as u64)).unwrap().iter().sum()
}

/// Every job of `dfo-algos` starts by writing each vertex of its arrays. A
/// second unscoped job on the same cluster reopens the arrays the first one
/// left and reads none of their blocks (before, it read `3 × n × 8` bytes
/// of PageRank's `pr_rank`, `pr_next` and `pr_deg`, and `n × 5` of SSSP's
/// `sssp_dist` and `sssp_active`). Results are bit-equal to the fresh
/// cluster's, with the pool, without it (`mem_budget = 1`: every call reads
/// what it reads) and with checkpointing on.
#[test]
fn a_second_job_never_reads_the_arrays_it_overwrites() {
    let (g, web) = (rmat(GenConfig::new(10, 8, 31)), chain(12));
    let pr = |ctx: &mut NodeCtx| {
        let ranks = pagerank(ctx, 3)?;
        read_local(ctx, &ranks)
    };
    let sp = |ctx: &mut NodeCtx| {
        let dist = sssp(ctx, 0)?;
        read_local(ctx, &dist)
    };
    let (mut ranks, mut dists) = (None, None);
    for (checkpointing, mem_budget) in [(false, 64 << 20), (false, 1), (true, 64 << 20)] {
        let label = format!("checkpointing {checkpointing}, mem_budget {mem_budget}");
        let pooled = mem_budget > 1;
        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(config(checkpointing, mem_budget), td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let first = cluster.run(pr).unwrap().concat();
        let (second, blocks) = job_blocks(&cluster, pr);
        assert_eq!(second.unwrap().concat(), first, "pagerank, {label}");
        assert_eq!(*ranks.get_or_insert_with(|| first.clone()), first, "pagerank, {label}");
        assert!(!pooled || blocks[0] == 0, "pagerank, {label}: {blocks:?}");

        let td = TempDir::new().unwrap();
        let cluster = Cluster::create(config(checkpointing, mem_budget), td.path()).unwrap();
        cluster.preprocess(&web).unwrap();
        let first = cluster.run(sp).unwrap().concat();
        let (second, blocks) = job_blocks(&cluster, sp);
        assert_eq!(second.unwrap().concat(), first, "sssp, {label}");
        assert_eq!(*dists.get_or_insert_with(|| first.clone()), first, "sssp, {label}");
        assert!(!pooled || blocks[0] == 0, "sssp, {label}: {blocks:?}");
    }
}

/// A UDF that reads a vertex before it writes it (`x += 1`) reads each
/// block of the previous job's array exactly once and sees its values.
#[test]
fn a_read_first_udf_reads_each_block_once() {
    let td = TempDir::new().unwrap();
    let (cluster, n) = cluster_with_x(&td);
    let (out, blocks) = job_blocks(&cluster, |ctx| {
        x_after(ctx, |x, v, c| {
            let old = c.get(x, v);
            c.set(x, v, old + 1);
        })
    });
    assert_eq!(out.unwrap().concat(), (1..=n).collect::<Vec<_>>());
    assert_eq!((blocks[0], blocks[2]), (n * 8, batch_count(&cluster)), "{blocks:?}");
}

/// A writer that does not write its batch in ascending order from the
/// batch's first vertex — every other vertex in descending order, or only
/// the first half — reads each block once and keeps the old values of the
/// vertices it did not write.
#[test]
fn out_of_order_and_partial_writers_read_each_block_once() {
    let every_other_descending: Work = |x, v, c| {
        if v == c.batch().start {
            for u in (c.batch().start..c.batch().end).rev().step_by(2) {
                c.set(x, u, 1000 + u);
            }
        }
    };
    let first_half: Work = |x, v, c| {
        if v < c.batch().start + c.batch().len() / 2 {
            c.set(x, v, 1000 + v);
        }
    };
    let writes = |i: usize, v: VertexId, batch: VertexRange| match i {
        0 => (batch.end - 1 - v).is_multiple_of(2),
        _ => v < batch.start + batch.len() / 2,
    };
    for (i, writer) in [every_other_descending, first_half].into_iter().enumerate() {
        let td = TempDir::new().unwrap();
        let (cluster, n) = cluster_with_x(&td);
        let (out, blocks) = job_blocks(&cluster, |ctx| {
            let got = x_after(ctx, writer)?;
            let batches = &ctx.plan().batches[ctx.rank()];
            let batch_of = |v| *batches.iter().find(|b| b.contains(v)).unwrap();
            for (v, got) in ctx.plan().partitions[ctx.rank()].iter().zip(got) {
                let want = if writes(i, v, batch_of(v)) { 1000 + v } else { v };
                assert_eq!(got, want, "writer {i}, vertex {v}");
            }
            Ok(())
        });
        out.unwrap();
        assert_eq!((blocks[0], blocks[2]), (n * 8, batch_count(&cluster)), "writer {i}");
    }
}

/// A call that lists an array but touches only its first batch reads no
/// other block of it and writes none.
#[test]
fn untouched_blocks_are_neither_read_nor_written() {
    let td = TempDir::new().unwrap();
    let (cluster, _) = cluster_with_x(&td);
    let (out, blocks) =
        job_blocks(&cluster, |ctx| {
            let first = ctx.plan().batches[ctx.rank()][0];
            let x = ctx.vertex_array::<u64>("x")?;
            let sum = ctx.process_vertices(&["x"], None, |v, c| {
                if first.contains(v) {
                    c.get(&x, v)
                } else {
                    0
                }
            })?;
            Ok((sum, first))
        });
    let out = out.unwrap();
    let firsts = || out.iter().map(|(_, first)| first);
    assert_eq!(out[0].0, firsts().flat_map(|f| f.iter()).sum::<u64>(), "x[v] = v");
    let first_blocks: u64 = firsts().map(|f| f.len()).sum();
    assert_eq!(blocks, [first_blocks * 8, 0, 2, 0]);
}

/// The block files of array `name` on every rank.
fn block_files(cluster: &Cluster, name: &str) -> Vec<PathBuf> {
    (cluster.disks().iter())
        .flat_map(|d| std::fs::read_dir(d.root().join(format!("arrays/{name}/blocks"))).unwrap())
        .map(|e| e.unwrap().path())
        .collect()
}

/// Block 1 of array `"x"` on rank 0's disk `root` (not block 0: without it
/// there is no array to reopen). Only rank 0's is damaged, so rank 0 is the
/// rank that fails, whose error [`Cluster::run`] returns.
fn block1(root: &Path) -> PathBuf {
    root.join("arrays/x/blocks/1.bin")
}

/// A block file truncated or removed between jobs, or removed while a call
/// has the block checked out, fails the job with a typed error naming the
/// array; nothing panics.
#[test]
fn a_block_that_cannot_be_read_fails_the_job_with_a_typed_error() {
    let read_all: Work = |x, v, c| assert!(c.get(x, v) < u64::MAX);
    for what in ["truncated", "removed"] {
        let td = TempDir::new().unwrap();
        let (cluster, _) = cluster_with_x(&td);
        let file = block1(cluster.disks()[0].root());
        match what {
            "truncated" => std::fs::write(file, [0u8; 12]).unwrap(),
            _ => std::fs::remove_file(file).unwrap(),
        }
        let err = cluster.run(|ctx| x_after(ctx, read_all)).expect_err(what);
        assert!(!matches!(err, DfoError::Panic(_) | DfoError::NetClosed(_)), "{what}: {err}");
        let msg = err.to_string();
        assert!(msg.contains("\"x\"") || msg.contains("arrays/x/"), "{what}: {msg}");
    }
    // removed after the call checked block 1 out (its length was checked
    // then): the read its first `get` makes fails, and the call fails at
    // write-back
    let td = TempDir::new().unwrap();
    let (cluster, _) = cluster_with_x(&td);
    let err = cluster
        .run(|ctx| {
            let (x, file) = (ctx.vertex_array::<u64>("x")?, block1(ctx.disk().root()));
            let (rank0, second) = (ctx.rank() == 0, ctx.plan().batches[ctx.rank()][1]);
            ctx.process_vertices(&["x"], None, |v, c| {
                if rank0 && v == second.start {
                    std::fs::remove_file(&file).unwrap();
                }
                c.get(&x, v)
            })
        })
        .expect_err("a block removed mid-call");
    assert!(matches!(&err, DfoError::Io { context, .. } if context.contains("arrays/x/")), "{err}");
}

/// A `bool` read from a block file is `byte != 0`: a reopened array whose
/// files were rewritten with `0x02` bytes reads `true` everywhere.
#[test]
fn a_corrupt_bool_byte_reads_as_true() {
    let td = TempDir::new().unwrap();
    let g = rmat(GenConfig::new(8, 4, 3));
    let cluster = Cluster::create(config(false, 64 << 20), td.path()).unwrap();
    cluster.preprocess(&g).unwrap();
    let job = |ctx: &mut NodeCtx| {
        let flag = ctx.vertex_array::<bool>("flag")?;
        read_local(ctx, &flag)
    };
    assert!(cluster.run(job).unwrap().concat().iter().all(|&b| !b));
    for f in block_files(&cluster, "flag") {
        let len = std::fs::metadata(&f).unwrap().len() as usize;
        std::fs::write(f, vec![2u8; len]).unwrap();
    }
    let flags = cluster.run(job).unwrap().concat();
    assert_eq!(flags.len() as u64, g.n_vertices);
    assert!(flags.iter().all(|&b| b as u8 == 1), "{flags:?}");
}
