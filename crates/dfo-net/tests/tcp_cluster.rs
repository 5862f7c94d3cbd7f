//! The transport contract, one table over both backends: every test that
//! does not depend on sockets runs each case on the in-process
//! `SimCluster` and on the TCP mesh, several ranks each on its own thread
//! (TCP over real localhost sockets); pacing, bootstrap and epoch cases
//! run on TCP only. Multi-*process* coverage (via
//! `Cluster::run_distributed`) lives in
//! `crates/dfo-core/tests/distributed.rs` and
//! `examples/distributed_pagerank.rs`.

use bytes::Bytes;
use dfo_net::{Endpoint, SimCluster, TcpCluster, TcpOpts};
use dfo_types::DfoError;
use std::net::TcpListener;
use std::time::Duration;

/// Reserves `n` distinct localhost ports. The listeners are dropped before
/// the mesh binds them — a small race, but ephemeral ports are not reused
/// immediately and the suite binds them back within milliseconds.
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| format!("127.0.0.1:{}", l.local_addr().unwrap().port())).collect()
}

fn opts() -> TcpOpts {
    TcpOpts { connect_timeout: Duration::from_secs(20), ..Default::default() }
}

#[derive(Clone, Copy, Debug)]
enum Backend {
    Sim,
    Tcp,
}

const BACKENDS: [Backend; 2] = [Backend::Sim, Backend::Tcp];

/// Builds a `p`-rank mesh of `backend`, one thread per rank (named after
/// the backend and rank, so a failure says which case broke), and runs
/// `f(rank, endpoint)` on each; a rank's endpoint drops when `f` returns.
fn with_mesh<F>(backend: Backend, p: usize, f: F)
where
    F: Fn(usize, Endpoint) + Sync,
{
    let (sim, peers) = match backend {
        Backend::Sim => (SimCluster::build(p, None, false), Vec::new()),
        Backend::Tcp => (Vec::new(), free_addrs(p)),
    };
    let mut sim = sim.into_iter();
    std::thread::scope(|s| {
        for rank in 0..p {
            let (ep, peers, f) = (sim.next(), &peers, &f);
            let name = format!("{backend:?} rank {rank}");
            std::thread::Builder::new()
                .name(name)
                .spawn_scoped(s, move || {
                    let ep = ep.unwrap_or_else(|| {
                        TcpCluster::connect(rank, peers, None, false, opts()).unwrap()
                    });
                    f(rank, ep);
                })
                .unwrap();
        }
    });
}

/// [`with_mesh`] on each backend in turn.
fn on_both<F>(p: usize, f: F)
where
    F: Fn(usize, Endpoint) + Sync,
{
    for backend in BACKENDS {
        with_mesh(backend, p, &f);
    }
}

#[test]
fn two_rank_stream_roundtrip() {
    on_both(2, |rank, ep| {
        if rank == 0 {
            ep.send(1, 7, Bytes::from_static(b"hello "), false).unwrap();
            ep.send(1, 7, Bytes::from_static(b"world"), true).unwrap();
        } else {
            assert_eq!(ep.recv_all(0, 7).unwrap(), b"hello world");
        }
        ep.try_barrier().unwrap();
    });
}

#[test]
fn frames_preserve_order_and_chunking() {
    on_both(2, |rank, ep| {
        if rank == 0 {
            for i in 0..200u8 {
                ep.send(1, 3, Bytes::copy_from_slice(&[i]), i == 199).unwrap();
            }
        } else {
            assert_eq!(ep.recv_all(0, 3).unwrap(), (0..200u8).collect::<Vec<_>>());
        }
        ep.try_barrier().unwrap();
    });
}

#[test]
fn concurrent_streams_demux_by_tag() {
    // two streams in flight from the same sender, interleaved on the wire;
    // the demux must route them to the right receivers by tag. Each stream
    // stays within the per-(peer, tag) queue depth: draining out of arrival
    // order *beyond* that bound would stall the reader on the full queue —
    // intended head-of-line backpressure, which the engine never triggers
    // (one live data stream per pair, collectives after streams drain).
    const N: u32 = 8;
    on_both(2, |rank, ep| {
        if rank == 0 {
            for i in 0..N {
                let last = i == N - 1;
                ep.send(1, 100, Bytes::copy_from_slice(&i.to_le_bytes()), last).unwrap();
                ep.send(1, 200, Bytes::copy_from_slice(&(i * 2).to_le_bytes()), last).unwrap();
            }
        } else {
            // drain tag 200 first even though tag 100 frames arrived first
            let b = ep.recv_all(0, 200).unwrap();
            let a = ep.recv_all(0, 100).unwrap();
            assert_eq!(a.len(), 4 * N as usize);
            assert_eq!(b.len(), 4 * N as usize);
            for i in 0..N {
                let off = (i * 4) as usize;
                assert_eq!(u32::from_le_bytes(a[off..off + 4].try_into().unwrap()), i);
                assert_eq!(u32::from_le_bytes(b[off..off + 4].try_into().unwrap()), i * 2);
            }
        }
        ep.try_barrier().unwrap();
    });
}

#[test]
fn all_pairs_and_collectives_four_ranks() {
    let p = 4;
    on_both(p, |rank, ep| {
        for dst in 0..p {
            if dst != rank {
                ep.send(dst, 0, Bytes::copy_from_slice(&[rank as u8]), true).unwrap();
            }
        }
        for src in 0..p {
            if src != rank {
                assert_eq!(ep.recv_all(src, 0).unwrap(), vec![src as u8]);
            }
        }
        ep.try_barrier().unwrap();
        assert_eq!(ep.try_allreduce_sum_u64(rank as u64 + 1).unwrap(), 10);
        assert_eq!(ep.try_allreduce_min_u64(rank as u64 + 5).unwrap(), 5);
        let s = ep.try_allreduce_sum_f64(0.25).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    });
}

#[test]
fn collectives_bit_match_sim_backend() {
    // rank-order folding must make float all-reduce bit-identical across
    // backends (the distributed-vs-sim acceptance bound relies on it)
    let vals = [0.1f64, 0.7, 1e-9];
    let sums = BACKENDS.map(|backend| {
        let out = std::sync::Mutex::new(vec![0u64; 3]);
        with_mesh(backend, 3, |rank, ep| {
            out.lock().unwrap()[rank] = ep.try_allreduce_sum_f64(vals[rank]).unwrap().to_bits();
        });
        out.into_inner().unwrap()
    });
    assert_eq!(sums[0], sums[1]);
    assert_eq!(sums[0], vec![(0.1f64 + 0.7 + 1e-9).to_bits(); 3]);
}

#[test]
fn stats_count_wire_bytes_like_sim() {
    on_both(2, |rank, ep| {
        if rank == 0 {
            ep.send(1, 2, Bytes::from_static(b"abcd"), true).unwrap();
            ep.try_barrier().unwrap();
            assert_eq!(ep.stats().sent_bytes.get(), 4 + dfo_net::FRAME_HEADER_BYTES);
        } else {
            let _ = ep.recv_all(0, 2).unwrap();
            ep.try_barrier().unwrap();
            assert_eq!(ep.stats().recv_bytes.get(), 4 + dfo_net::FRAME_HEADER_BYTES);
        }
    });
}

#[test]
fn a_stream_is_its_frames_over_tcp() {
    // `send_stream` sends no frame to open or close a stream: up to one
    // STREAM_CHUNK is one frame, the last, and an empty payload one empty
    // final frame
    use dfo_net::endpoint::STREAM_CHUNK;
    const CASES: [(usize, u64); 4] = [(0, 1), (1, 1), (STREAM_CHUNK, 1), (STREAM_CHUNK + 1, 2)];
    on_both(2, |rank, ep| {
        for (tag, &(len, frames)) in CASES.iter().enumerate() {
            let tag = tag as u64;
            if rank == 0 {
                let (bytes0, frames0) = (ep.stats().sent_bytes.get(), ep.stats().sent_frames.get());
                ep.send_stream(1, tag, Bytes::from(vec![7u8; len])).unwrap();
                let sent = ep.stats().sent_frames.get() - frames0;
                assert_eq!(sent, frames, "{len}-byte stream");
                let wire = len as u64 + frames * dfo_net::FRAME_HEADER_BYTES;
                assert_eq!(ep.stats().sent_bytes.get() - bytes0, wire, "{len}-byte stream");
            } else {
                assert_eq!(ep.recv_all(0, tag).unwrap(), vec![7u8; len]);
            }
        }
        ep.try_barrier().unwrap();
    });
}

#[test]
fn throttle_paces_tcp_sender() {
    // 10 MB/s egress; 2 MB payload => >= ~150 ms even over loopback
    let peers = free_addrs(2);
    std::thread::scope(|s| {
        {
            let peers = peers.clone();
            s.spawn(move || {
                let ep = TcpCluster::connect(0, &peers, Some(10 << 20), false, opts()).unwrap();
                let start = std::time::Instant::now();
                let payload = Bytes::from(vec![0u8; 256 << 10]);
                for i in 0..8 {
                    ep.send(1, 5, payload.clone(), i == 7).unwrap();
                }
                assert!(start.elapsed() >= Duration::from_millis(150));
                ep.try_barrier().unwrap();
            });
        }
        let peers = peers.clone();
        s.spawn(move || {
            let ep = TcpCluster::connect(1, &peers, Some(10 << 20), false, opts()).unwrap();
            assert_eq!(ep.recv_all(0, 5).unwrap().len(), 2 << 20);
            ep.try_barrier().unwrap();
        });
    });
}

#[test]
fn dropped_peer_surfaces_as_net_closed() {
    // rank 1 joins the mesh and leaves immediately; rank 0's blocking recv
    // must fail with the NetClosed a peer's death makes (EOF over TCP), not
    // hang
    on_both(2, |rank, ep| {
        if rank == 0 {
            match ep.recv_all(1, 9) {
                Err(DfoError::NetClosed(m)) if m.starts_with("a peer died: ") => {}
                other => panic!("want a peer's NetClosed, got {other:?}"),
            }
        } else {
            drop(ep); // clean teardown: write halves shut down, peers see EOF
        }
    });
}

#[test]
fn poison_fails_blocked_barrier_cluster_wide() {
    for backend in BACKENDS {
        let failed = std::sync::Mutex::new(Vec::new());
        with_mesh(backend, 3, |rank, ep| {
            if rank == 2 {
                // let the others block in the barrier, then abort the job
                std::thread::sleep(Duration::from_millis(100));
                ep.poison_collective();
                return;
            }
            match ep.try_barrier() {
                Err(DfoError::NetClosed(_)) => failed.lock().unwrap().push(rank),
                other => panic!("rank {rank}: want NetClosed, got {other:?}"),
            }
        });
        let mut got = failed.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1], "{backend:?}: both survivors must abort, not hang");
    }
}

#[test]
fn handshake_rejects_rank_out_of_range() {
    let peers = free_addrs(1);
    assert!(matches!(
        dfo_net::TcpTransport::connect(3, &peers, opts()),
        Err(DfoError::Handshake(_))
    ));
}

#[test]
fn stale_epoch_never_joins_the_mesh() {
    // rank 0 bootstraps at epoch 1; a rank-1 incarnation still on epoch 0
    // must be rejected (dropped hello → its dial keeps retrying until its
    // deadline), and rank 0 must keep waiting rather than accept it
    let peers = free_addrs(2);
    std::thread::scope(|s| {
        {
            let peers = peers.clone();
            s.spawn(move || {
                let o = TcpOpts { connect_timeout: Duration::from_secs(3), epoch: 1 };
                match TcpCluster::connect(0, &peers, None, false, o) {
                    Err(DfoError::Handshake(_)) => {} // timed out: stale peer never joined
                    Err(other) => panic!("epoch-1 rank 0: unexpected error {other:?}"),
                    Ok(_) => panic!("epoch-1 rank 0 must not complete its mesh"),
                }
            });
        }
        let peers = peers.clone();
        s.spawn(move || {
            let o = TcpOpts { connect_timeout: Duration::from_secs(3), epoch: 0 };
            match TcpCluster::connect(1, &peers, None, false, o) {
                Err(DfoError::Handshake(_)) => {}
                Err(other) => panic!("epoch-0 rank 1: unexpected error {other:?}"),
                Ok(_) => panic!("epoch-0 rank 1 must be rejected"),
            }
        });
    });
}

/// Whether a socket bound to local `port` sits in `TIME_WAIT` (state `06`
/// in `/proc/net/tcp`; ports there are upper-case hex).
#[cfg(target_os = "linux")]
fn port_in_time_wait(port: u16) -> bool {
    let local = format!(":{port:04X}");
    std::fs::read_to_string("/proc/net/tcp").unwrap().lines().skip(1).any(|l| {
        let mut f = l.split_whitespace().skip(1);
        f.next().is_some_and(|a| a.ends_with(&local)) && f.nth(1) == Some("06")
    })
}

#[test]
fn mesh_rebuilds_on_same_addresses_under_new_epoch() {
    // checkpoint-restart re-bootstrap: tear a mesh down (including the
    // rank-0 listener), then bring it back up on the *same* addresses at
    // the next epoch — exercises the SO_REUSEADDR rebind path
    let peers = free_addrs(2);
    for epoch in 0..3u64 {
        let tcp = TcpOpts { connect_timeout: Duration::from_secs(20), epoch };
        std::thread::scope(|s| {
            for rank in 0..2 {
                let peers = peers.clone();
                let tcp = tcp.clone();
                s.spawn(move || {
                    let ep = TcpCluster::connect(rank, &peers, None, false, tcp).unwrap();
                    assert_eq!(ep.try_allreduce_sum_u64(epoch).unwrap(), 2 * epoch);
                    ep.try_barrier().unwrap();
                    // rank 0 closes first: rank 1 holds its end open until
                    // it has seen rank 0's EOF, so the connection the old
                    // incarnation accepted on rank 0's listen address was
                    // established and is now lingering in TIME_WAIT there
                    // when the next epoch re-binds the address
                    if rank == 1 {
                        match ep.recv_all(0, 99) {
                            Err(DfoError::NetClosed(_)) => {}
                            other => panic!("want rank 0's EOF, got {other:?}"),
                        }
                    }
                });
            }
        });
        #[cfg(target_os = "linux")]
        {
            let port: u16 = peers[0].rsplit(':').next().unwrap().parse().unwrap();
            assert!(port_in_time_wait(port), "epoch {epoch}: no TIME_WAIT socket on port {port}");
        }
    }
}

#[test]
fn single_rank_mesh_is_trivial() {
    on_both(1, |_, ep| {
        ep.try_barrier().unwrap();
        assert_eq!(ep.try_allreduce_sum_u64(41).unwrap(), 41);
        assert_eq!(ep.nodes(), 1);
    });
}

#[test]
fn pending_control_frames_never_stall_engine_traffic() {
    // The job-control guard: a slow consumer on the reserved control
    // tag-space (CTRL_TAG_BIT) must not head-of-line-block engine streams,
    // `exchange_bytes`-style all-to-all traffic, or collectives from the
    // same peer. This models a resident daemon whose rank 0 has fanned out
    // control frames that rank 1 has not picked up yet (a "slow client"
    // situation) while engine traffic keeps flowing.
    //
    // The per-(peer, tag) demux queue holds DEMUX_QUEUE_DEPTH frames before
    // the peer's reader thread blocks — so the test parks one frame *less*
    // than the bound on the control tag (the documented outstanding budget
    // any control-plane sender must respect; the daemon keeps it at 1) and
    // then proves every engine-side primitive still completes.
    use dfo_net::{CTRL_TAG_BIT, DEMUX_QUEUE_DEPTH};
    const ROUNDS: usize = 4;
    on_both(2, |rank, ep| {
        if rank == 0 {
            // park one control stream at rank 1: sent, enqueued, not consumed
            let parked = (DEMUX_QUEUE_DEPTH - 1) as u8;
            for i in 0..parked {
                ep.send(1, CTRL_TAG_BIT, Bytes::copy_from_slice(&[i]), i + 1 == parked).unwrap();
            }
        }
        ep.try_barrier().unwrap(); // control frames are in flight or queued at rank 1
                                   // engine traffic in both directions while the control frames sit
                                   // queued: streams on call-sequence tags, then collectives
        for round in 0..ROUNDS as u64 {
            let payload = vec![round as u8; 64 << 10];
            let to = 1 - rank;
            std::thread::scope(|s| {
                s.spawn(|| ep.send_stream(to, round, Bytes::from(payload.clone())).unwrap());
                let got = ep.recv_all(to, round).unwrap();
                assert_eq!(got.len(), 64 << 10);
                assert!(got.iter().all(|b| *b == round as u8));
            });
            assert_eq!(ep.try_allreduce_sum_u64(round + 1).unwrap(), 2 * (round + 1));
        }
        ep.try_barrier().unwrap();
        // only now does rank 1 drain the control tag; everything is there,
        // in order, untouched by the interleaved engine traffic
        if rank == 1 {
            let ctrl = ep.recv_all(0, CTRL_TAG_BIT).unwrap();
            assert_eq!(ctrl, (0..(DEMUX_QUEUE_DEPTH - 1) as u8).collect::<Vec<_>>());
        }
        ep.try_barrier().unwrap();
    });
}

#[test]
fn back_to_back_streams_on_one_tag_all_arrive() {
    // Tag reuse: the control channel sends every message as a complete
    // stream on the single CTRL_TAG_BIT tag, so consecutive messages can
    // both be sitting in the same demux queue before the receiver pops the
    // first. Popping a `last` frame must only reclaim the queue slot when
    // nothing is buffered behind it — discarding the rest would silently
    // lose the next message (a job fan-out, with the mesh then deadlocked
    // on the job that never started everywhere).
    use dfo_net::CTRL_TAG_BIT;
    const MSGS: usize = 5;
    on_both(2, |rank, ep| {
        if rank == 0 {
            for i in 0..MSGS {
                let payload = vec![i as u8; 100 + i];
                ep.send_stream(1, CTRL_TAG_BIT, Bytes::from(payload)).unwrap();
            }
        }
        // the release frame trails rank 0's streams on the same connection,
        // so after this barrier every message is already queued at rank 1
        ep.try_barrier().unwrap();
        if rank == 1 {
            for i in 0..MSGS {
                let got = ep.recv_all(0, CTRL_TAG_BIT).unwrap();
                assert_eq!(got, vec![i as u8; 100 + i], "message {i} lost or mangled");
            }
        }
        ep.try_barrier().unwrap();
    });
}

#[test]
fn dead_job_queues_are_reclaimed_and_never_stall_overlapping_jobs() {
    // The concurrent-jobs guard, extending the stalled-consumer test above
    // to job namespaces: a job that dies mid-stream leaves frames nobody
    // will ever consume queued at its peers — and more still in flight.
    // After `reclaim_job` the dead job's per-(peer, tag) queues must be
    // gone and late frames dropped on arrival (even a push already blocked
    // on the full queue must unblock and drop), so the dead job neither
    // leaks queues nor head-of-line-blocks a live overlapping job.
    use dfo_net::DEMUX_QUEUE_DEPTH;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    on_both(2, |rank, ep| {
        let dying = ep.job_view(7, Arc::new(AtomicU64::new(0)));
        let healthy = ep.job_view(8, Arc::new(AtomicU64::new(0)));
        if rank == 0 {
            // job 7 "dies" on rank 1 mid-stream: fill its queue to the
            // exact depth bound with frames rank 1 never consumes
            for i in 0..DEMUX_QUEUE_DEPTH as u8 {
                dying.send(1, 3, Bytes::copy_from_slice(&[i]), false).unwrap();
            }
            ep.try_barrier().unwrap(); // rank 1 reclaims job 7 after this
                                       // late frames of the dead job: well past the queue bound, so
                                       // rank 1's reader would stall here if they were still queued
                                       // (the first push even starts against the still-full queue)
            for i in 0..(2 * DEMUX_QUEUE_DEPTH) as u8 {
                dying.send(1, 3, Bytes::copy_from_slice(&[i]), false).unwrap();
            }
            // the overlapping job is untouched throughout
            healthy.send_stream(1, 5, Bytes::from(vec![42u8; 64 << 10])).unwrap();
            ep.try_barrier().unwrap();
        } else {
            ep.try_barrier().unwrap(); // job-7 frames are queued (or in flight) here
            ep.reclaim_job(7);
            let got = healthy.recv_all(0, 5).unwrap();
            assert_eq!(got.len(), 64 << 10);
            assert!(got.iter().all(|b| *b == 42));
            ep.try_barrier().unwrap();
        }
    });
}

#[test]
fn sum_across_threads() {
    on_both(4, |rank, ep| {
        assert_eq!(ep.try_allreduce_sum_u64((rank as u64 + 1) * 10).unwrap(), 100);
    });
}

#[test]
fn consecutive_reduces_do_not_race() {
    // each collective has a tag of its own, so a fast rank's next
    // all-reduce never mixes into the one a slow rank is still finishing
    on_both(3, |rank, ep| {
        for round in 0..50u64 {
            let got = ep.try_allreduce_sum_u64(round).unwrap();
            assert_eq!(got, round * 3, "round {round} on rank {rank}");
        }
    });
}

#[test]
fn max_reduce() {
    // the maximum is the minimum of the bitwise complements, complemented
    on_both(2, |rank, ep| {
        let v: u64 = if rank == 0 { 7 } else { 3 };
        assert_eq!(!ep.try_allreduce_min_u64(!v).unwrap(), 7);
    });
}

#[test]
fn f64_sum() {
    on_both(2, |rank, ep| {
        assert_eq!(ep.try_allreduce_sum_f64(0.5 + rank as f64).unwrap(), 2.0);
    });
}

#[test]
fn poison_fails_waiters_and_later_arrivals() {
    let is_net_closed = |r: dfo_types::Result<()>| matches!(r, Err(DfoError::NetClosed(_)));
    on_both(2, |rank, ep| {
        if rank == 1 {
            // give the waiter time to block, then poison instead of arriving
            std::thread::sleep(Duration::from_millis(20));
            ep.poison_collective();
        } else {
            assert!(is_net_closed(ep.try_barrier()), "the blocked waiter must fail");
        }
        assert!(is_net_closed(ep.try_barrier()), "rank {rank}: a later barrier must fail");
    });
    // a one-rank mesh moves no frame in a collective, and fails it all the same
    on_both(1, |_, ep| {
        ep.poison_collective();
        assert!(is_net_closed(ep.try_barrier()));
        assert!(matches!(ep.try_allreduce_sum_u64(1), Err(DfoError::NetClosed(_))));
    });
}

/// A barrier whose release reached a rank must be `Ok` there even when the
/// rank that completed it last poisons the mesh the instant its own
/// barrier returns. Rank 1 completes last on both backends: its release
/// comes after rank 0 has sent every release. On the in-process backend
/// rank 0 is checked as the poisoner too: its releases sit in the peers'
/// queues before its barrier returns. (Over TCP they may still sit in its
/// writer queues, which a poison shuts down.)
#[test]
fn completed_barrier_is_ok_even_if_the_last_arriver_poisons_at_once() {
    for (backend, poisoners, rounds) in [(Backend::Sim, 0..2, 1000), (Backend::Tcp, 1..2, 20)] {
        for poisoner in poisoners {
            for round in 0..rounds {
                with_mesh(backend, 2, |rank, ep| {
                    let done = ep.try_barrier();
                    if rank == poisoner {
                        ep.poison_collective();
                    }
                    assert!(done.is_ok(), "round {round}, rank {rank}: completed barrier failed");
                });
            }
        }
    }
}
