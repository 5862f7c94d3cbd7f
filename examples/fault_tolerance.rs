//! Checkpointing and recovery (paper §3.2): a node dies mid-computation;
//! the rerun resumes from the last committed checkpoint instead of from
//! scratch.
//!
//! The crash is injected with the deterministic fault hook
//! (`EngineConfig::crash_schedule`, env-settable as
//! `DFO_CRASH_AT=<call>[.pre|.mid][:<rank>][@<epoch>][,...]`):
//! node 1 dies right *before* a chosen `Process` call commits, so the kill
//! lands at a precise commit boundary instead of relying on timing. The
//! recovery run reopens the arrays (recovering their last committed
//! checkpoint), agrees on the globally committed round via
//! `NodeCtx::committed_round`, and re-executes from there — losing at most
//! one `Process` call.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use dfograph::core::Cluster;
use dfograph::graph::gen::{rmat, GenConfig};
use dfograph::types::{BatchPolicy, CrashPoint, EngineConfig};

const ROUNDS: u64 = 6;
const CRASH_BEFORE: u64 = 4;

fn config() -> EngineConfig {
    let mut cfg = EngineConfig::for_test(2);
    cfg.checkpointing = true;
    cfg.batch_policy = BatchPolicy::FixedVertices(64);
    cfg
}

fn run(cluster: &Cluster) -> dfograph::types::Result<Vec<u64>> {
    cluster.run(|ctx| {
        let acc = ctx.vertex_array::<u64>("acc")?;
        let round = ctx.vertex_array::<u64>("round")?;
        // the global resume point: the last round committed on every node
        let resume_at = ctx.committed_round("round")?;
        if resume_at > 0 && ctx.rank() == 0 {
            println!("  [node 0] recovered checkpoint: resuming at round {resume_at}");
        }
        for it in resume_at..ROUNDS {
            // idempotent round body (set, not increment), with the round
            // marker written in the same call as the data so both commit
            // at one boundary
            let (a, r) = (acc.clone(), round.clone());
            ctx.process_vertices(&["acc", "round"], None, move |v, c| {
                c.set(&a, v, (v + 1) * (it + 1));
                c.set(&r, v, it + 1);
                0u64
            })?;
        }
        let h = acc.clone();
        ctx.process_vertices(&["acc"], None, move |v, c| c.get(&h, v).min(v + 999_999))
    })
}

fn main() -> dfograph::types::Result<()> {
    let graph = rmat(GenConfig::new(10, 8, 3));
    let dir = std::env::temp_dir().join("dfograph-ft");
    let _ = std::fs::remove_dir_all(&dir);

    // first attempt: node 1 dies right before round CRASH_BEFORE commits.
    // Call numbering on a fresh run: call 0 is the committed_round scan,
    // call 1 + it is round `it` — so the hook targets call CRASH_BEFORE + 1.
    let mut crash_cfg = config();
    crash_cfg.crash_schedule =
        vec![CrashPoint { rank: Some(1), ..CrashPoint::at(CRASH_BEFORE + 1) }];
    let crashing = Cluster::create(crash_cfg, &dir)?;
    crashing.preprocess(&graph)?;

    println!("first attempt ({ROUNDS} rounds, crash before round {CRASH_BEFORE} commits):");
    match run(&crashing) {
        Err(e) => println!("  run failed as expected: {e}"),
        Ok(_) => unreachable!("crash was injected"),
    }

    // second attempt: same disks, no crash hook — recovery
    println!("\nsecond attempt (recovery):");
    let recovering = Cluster::create(config(), &dir)?;
    let sums = run(&recovering)?;
    println!("  final per-node checksums: {sums:?}");
    println!("\nrecovered and completed: at most one Process call was lost (paper §3.2).");
    Ok(())
}
