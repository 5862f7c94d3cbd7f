//! Table 2 — I/O and communication amount in each phase of `ProcessEdges`
//! on node i, measured against the paper's analytic worst-case bounds:
//!
//! ```text
//! Generate  disk R+W ≤ |V_i|
//! Pass      disk R   ≤ (P−1)·|V_i| + |E_out_i|,  net send ≤ |E_out_i|
//! Dispatch  disk R+W ≤ |E_in_i|,                 net recv ≤ |E_in_i|
//! Process   disk R   ≤ P·|V_i| + |E_in_i|,       disk W   ≤ P·|V_i|
//! ```
//!
//! Bounds are in *records*; we convert to bytes with the record sizes in
//! play and allow the representation/metadata overhead factor the paper's
//! "≤" hides (index arrays, block headers).

use dfo_bench::{describe, dfo_config, rmat_like};
use dfo_core::Cluster;
use dfo_types::PhaseStats;
use tempfile::TempDir;

fn main() {
    let p = 4;
    let g = rmat_like();
    println!("=== Table 2: per-phase I/O vs analytic bounds (P={p}) ===");
    println!("{}", describe("RMAT-like", &g));
    let td = TempDir::new().unwrap();
    let mut cfg = dfo_config(p);
    cfg.disk_bw = None; // bounds check, not a timing run
    cfg.net_bw = None;
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    let plan = cluster.preprocess(&g).unwrap();

    // one PageRank-style all-active iteration: M = f64 (12 B records)
    let stats: Vec<(usize, PhaseStats, u64, u64, u64)> = cluster
        .run(|ctx| {
            let deg = ctx.vertex_array::<u64>("deg")?;
            let d = deg.clone();
            ctx.process_edges(
                &[],
                &["deg"],
                None,
                |_v, _c| Some(1.0f64),
                move |m: f64, _s, dst, _e: &(), c| {
                    let cur = c.get(&d, dst);
                    c.set(&d, dst, cur + m as u64);
                    1u64
                },
            )?;
            let meta = &ctx.plan().node_meta[ctx.rank()];
            Ok((
                ctx.rank(),
                ctx.last_phase_stats().clone(),
                ctx.plan().partitions[ctx.rank()].len(),
                meta.n_in_edges,
                meta.n_out_edges,
            ))
        })
        .unwrap();

    let rec = 12u64; // 4 B src + 8 B f64 message
    let vertex_rec = 8u64; // one f64/u64 vertex value
    let overhead = 4; // index arrays, headers, bool bitmaps
    println!("{:<6} {:<10} {:>14} {:>14}  ok?", "node", "phase", "measured", "bound");
    let mut all_ok = true;
    for (rank, s, vi, ein, eout) in &stats {
        let p_u = p as u64;
        let rows: Vec<(&str, u64, u64)> = vec![
            (
                "generate",
                s.generate_disk_read + s.generate_disk_write,
                // reads active+signal arrays and writes ≤|V_i| records +
                // written-back vertex blocks
                (vi * (rec + 3 * vertex_rec)) * overhead,
            ),
            ("pass-read", s.pass_disk_read, ((p_u - 1) * vi + eout) * rec * overhead),
            // raw records are the most a stream carries: a frame is coded
            // only when that is smaller, so this bound is an upper one
            ("pass-net", s.pass_net_sent, eout * rec * overhead + (p_u - 1) * 64),
            ("dispatch", s.dispatch_disk_read + s.dispatch_disk_write, ein * rec * overhead),
            ("disp-net", s.dispatch_net_recv, ein * rec * overhead + (p_u - 1) * 64),
            ("process-r", s.process_disk_read, (p_u * vi + ein) * rec * overhead),
            ("process-w", s.process_disk_write, p_u * vi * vertex_rec * overhead),
        ];
        for (name, measured, bound) in rows {
            let ok = measured <= bound;
            all_ok &= ok;
            println!(
                "{rank:<6} {name:<10} {measured:>14} {bound:>14}  {}",
                if ok { "yes" } else { "VIOLATED" }
            );
        }
        println!(
            "{rank:<6} {:<10} generated={} sent={} (filtering saved {:.1}%)",
            "messages",
            s.messages_generated,
            s.messages_sent,
            100.0
                * (1.0
                    - s.messages_sent as f64
                        / ((p as u64 - 1) * s.messages_generated).max(1) as f64),
        );
    }
    let _ = plan;
    println!(
        "\nresult: {}",
        if all_ok { "all phases within analytic bounds" } else { "BOUND VIOLATION" }
    );
    assert!(all_ok);
}
