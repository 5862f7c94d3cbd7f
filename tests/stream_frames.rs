//! A stream is its frames. SSSP on a chain of communities runs hundreds of
//! `ProcessEdges` rounds in which the §4.3 filter leaves the peer almost
//! never a record, so a round's traffic is its framing. No frame opens or
//! closes a stream: a peer that gets no record costs one empty final frame
//! of 16 bytes, and a stream that carries records costs its 8-byte bound,
//! 16 bytes per frame and at most its raw records — where a header frame
//! and an end marker made an empty stream cost 40 bytes in two frames.

use dfograph::algos::{read_local, sssp};
use dfograph::core::Cluster;
use dfograph::graph::gen::web_chain;
use dfograph::graph::EdgeList;
use dfograph::net::FRAME_HEADER_BYTES;
use dfograph::types::{BatchPolicy, EngineConfig};
use tempfile::TempDir;

/// The benchmark's `sssp_chain` graph and weights, at seed 11.
fn chain() -> EdgeList<f32> {
    web_chain(260, 96, 5, 3, 11)
        .map_data(|e| ((e.src.wrapping_mul(7).wrapping_add(e.dst * 13)) % 4 + 1) as f32)
}

#[test]
fn an_sssp_chain_job_pays_one_frame_per_stream_that_carries_nothing() {
    // the benchmark's shape: 2 ranks of 1 thread, 5,000-vertex batches, no
    // chunk cache, 64 MiB
    let mut cfg = EngineConfig::for_test(2);
    cfg.threads_per_node = 1;
    cfg.batch_policy = BatchPolicy::FixedVertices(5_000);
    cfg.chunk_cache_bytes = 0;
    cfg.mem_budget = 64 << 20;
    let td = TempDir::new().unwrap();
    let cluster = Cluster::create(cfg, td.path()).unwrap();
    let g = chain();
    cluster.preprocess(&g).unwrap();
    let out = cluster
        .run(|ctx| {
            let dist = sssp(ctx, 0)?;
            Ok((read_local(ctx, &dist)?, ctx.job_phase_stats().clone()))
        })
        .unwrap();
    let dist: Vec<f32> = out.iter().flat_map(|(d, _)| d.iter().copied()).collect();
    let want = dfograph::algos::sssp::sssp_oracle(&g, 0);
    let same = dist.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same && dist.len() == want.len(), "distances differ from the oracle");

    let snap = cluster.registry().snapshot();
    let peers = 1;
    // a `(u32 source, f32 distance)` record; a frame holds this many
    let (rec, cap) = (8u64, dfograph::core::messages::FRAME_BYTES as u64 / 8);
    for (rank, (_, stats)) in out.iter().enumerate() {
        let rank_label = rank.to_string();
        let labels = [("kind", "edges"), ("rank", rank_label.as_str())];
        let calls = snap.get("dfo_process_calls_total", &labels).unwrap().as_counter().unwrap();
        assert!(calls > 100, "rank {rank}: {calls} rounds; the chain is long");
        // a stream that carries records holds at least one, and its frames
        // past the first hold a frame's worth each
        let sent = stats.messages_sent;
        let carried = 8 * sent.min(calls * peers) + FRAME_HEADER_BYTES * (sent / cap) + rec * sent;
        let bound = FRAME_HEADER_BYTES * calls * peers + carried;
        let passed = stats.pass_net_sent;
        assert!(passed <= bound, "rank {rank}: {passed} B passed in {calls} calls > {bound} B");
    }
}
