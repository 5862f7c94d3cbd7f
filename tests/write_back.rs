//! Vertex state leaves memory only when it must. With checkpointing off a
//! job's vertex blocks stay in the memory pool and reach their files once:
//! when an unscoped job ends, because the next job reopens them, and never
//! when a scoped job's scratch is thrown away. With checkpointing on every
//! write is a checkpoint's and goes out as it happens, as it always did.
//! Messages and filter lists that fit the same budget never touch the disk.
//! Disk traffic is counted per file class, and the classes add up to the
//! totals.

use dfograph::algos::{pagerank, read_local, sssp};
use dfograph::core::Cluster;
use dfograph::graph::gen::{rmat, uniform, web_chain, GenConfig};
use dfograph::graph::EdgeList;
use dfograph::storage::{CommitLog, FileClass, NodeDisk};
use dfograph::types::{BatchPolicy, EngineConfig};
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
    cfg.checkpoints_kept = 2;
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
    let record = |d: &NodeDisk| CommitLog::load_or_new(d.clone(), "arrays/COMMITS.bin");
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
/// and on. A measurement, not a gate:
///
/// ```text
/// cargo test --release --test write_back -- --ignored --nocapture
/// ```
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
        // Σ over ranks i and peers j of the bytes of L_ij
        let lists: u64 = (plan.node_meta.iter().enumerate())
            .flat_map(|(i, m)| m.filter_lens.iter().enumerate().filter(move |&(j, _)| j != i))
            .map(|(_, len)| 8 + 4 * len)
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
