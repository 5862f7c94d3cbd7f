//! Property-based tests (proptest) on the core data structures and on the
//! engine as a whole: for arbitrary graphs and configurations, DFOGraph
//! must agree with brute force.

use dfograph::core::Cluster;
use dfograph::graph::{Edge, EdgeList};
use dfograph::part::csr::{IndexedChunk, MergeCursor};
use dfograph::part::filter::FilterCursor;
use dfograph::storage::NodeDisk;
use dfograph::types::ids::{find_range, split_into_batches};
use dfograph::types::{BatchPolicy, EngineConfig, ReprKind, VertexRange};
use proptest::prelude::*;

// ---------- CSR/DCSR -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunk_roundtrip_preserves_edges(
        n_src in 1u32..200,
        raw in proptest::collection::vec((0u32..200, 0u32..100, 0u16..50), 0..300),
        ratio in prop_oneof![Just(0.0f64), Just(32.0), Just(1e9)],
        compress in prop_oneof![Just(false), Just(true)],
    ) {
        let mut edges: Vec<(u32, u32, u16)> =
            raw.into_iter().map(|(s, d, x)| (s % n_src, d, x)).collect();
        edges.sort_unstable_by_key(|(s, d, _)| (*s, *d));
        let chunk = IndexedChunk::build(n_src, &edges, ratio);
        let file = chunk.write_to_framed(Vec::new(), compress).unwrap();
        let mut r = dfograph::storage::FrameReader::new(std::io::Cursor::new(&file)).unwrap();
        let back = IndexedChunk::<u16>::read_from(&mut r, None).unwrap();
        let got: Vec<(u32, u32, u16)> = back.iter().map(|(s, d, &x)| (s, d, x)).collect();
        prop_assert_eq!(got, edges);
    }

    // CSR seeks, the DCSR merge cursor and a full load agree: the load
    // rebuilds from the DCSR index exactly the CSR index the chunk
    // stored — for empty chunks and for edges of the last source too —
    // and returns what a front-to-back read does, whatever index is
    // wanted, compressed or raw.
    #[test]
    fn csr_and_dcsr_always_agree(
        n_src in 1u32..128,
        raw in proptest::collection::vec((0u32..128, 0u32..64), 0..200),
        at_last in 0u32..3,
        compress in prop_oneof![Just(false), Just(true)],
    ) {
        let mut edges: Vec<(u32, u32, ())> =
            raw.into_iter().map(|(s, d)| (s % n_src, d, ())).collect();
        edges.extend((0..at_last).map(|d| (n_src - 1, d, ())));
        edges.sort_unstable_by_key(|(s, d, _)| (*s, *d));
        let chunk = IndexedChunk::build(n_src, &edges, 1e9); // force CSR
        prop_assert_eq!(chunk.has_csr(), !edges.is_empty());
        let mut cursor = MergeCursor::new();
        for src in (0..n_src).filter(|_| chunk.has_csr()) {
            let a = chunk.edges_of_csr(src);
            let b = cursor.edges_of(&chunk, src);
            prop_assert_eq!(&chunk.dst[a.clone()], &chunk.dst[b.clone()], "src {}", src);
        }
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let mut w = disk.create_framed("c.bin", compress).unwrap();
        chunk.write_to(&mut w).unwrap();
        w.finish().unwrap().finish().unwrap();
        for want in [None, Some(ReprKind::Dcsr), Some(ReprKind::Csr)] {
            let loaded = IndexedChunk::<()>::load(&disk, "c.bin", want).unwrap();
            let read = IndexedChunk::read_from(&mut disk.open_framed("c.bin").unwrap(), want);
            prop_assert_eq!(&loaded, &read.unwrap(), "{:?}", want);
            if want == Some(ReprKind::Dcsr) {
                prop_assert_eq!(&loaded.csr_idx, &None);
            } else {
                prop_assert_eq!(&loaded, &chunk, "{:?}", want);
            }
        }
    }

    #[test]
    fn filter_cursor_equals_hashset(
        list in proptest::collection::btree_set(0u32..500, 0..100),
        stream in proptest::collection::btree_set(0u32..500, 0..200),
    ) {
        let list: Vec<u32> = list.into_iter().collect();
        let set: std::collections::HashSet<u32> = list.iter().copied().collect();
        let mut cursor = FilterCursor::new(&list);
        for s in stream {
            prop_assert_eq!(cursor.contains(s), set.contains(&s), "src {}", s);
        }
    }

    // ---------- partition geometry ----------------------------------------

    #[test]
    fn batches_tile_the_range(start in 0u64..1000, len in 0u64..1000, bs in 1u64..100) {
        let range = VertexRange::new(start, start + len);
        let batches = split_into_batches(range, bs);
        // contiguous, complete cover
        prop_assert_eq!(batches.first().unwrap().start, range.start);
        prop_assert_eq!(batches.last().unwrap().end, range.end);
        for w in batches.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        for b in &batches {
            prop_assert!(b.len() <= bs);
        }
    }

    #[test]
    fn find_range_locates_every_vertex(
        cuts in proptest::collection::btree_set(1u64..500, 0..6),
        n in 500u64..600,
    ) {
        let mut bounds: Vec<u64> = vec![0];
        bounds.extend(cuts);
        bounds.push(n);
        let ranges: Vec<VertexRange> =
            bounds.windows(2).map(|w| VertexRange::new(w[0], w[1])).collect();
        for v in (0..n).step_by(17) {
            let idx = find_range(&ranges, v);
            prop_assert!(idx.is_some());
            prop_assert!(ranges[idx.unwrap()].contains(v));
        }
        prop_assert_eq!(find_range(&ranges, n), None);
    }

    #[test]
    fn partitioner_covers_exactly(
        degrees in proptest::collection::vec(0u32..50, 1..300),
        p in 1usize..6,
        alpha in 1u64..40,
    ) {
        let n = degrees.len() as u64;
        let parts = dfograph::part::partition_vertices(n, &degrees, &degrees, p, alpha);
        prop_assert_eq!(parts.len(), p);
        prop_assert_eq!(parts[0].start, 0);
        prop_assert_eq!(parts.last().unwrap().end, n);
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }
}

// ---------- whole-engine property -----------------------------------------

fn arb_graph() -> impl Strategy<Value = EdgeList<()>> {
    (2u64..120, proptest::collection::vec((0u64..120, 0u64..120), 0..400)).prop_map(|(n, raw)| {
        let edges: Vec<Edge<()>> =
            raw.into_iter().map(|(s, d)| Edge::new(s % n, d % n, ())).collect();
        EdgeList::new(n, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_in_degrees_match_brute_force(
        g in arb_graph(),
        nodes in 1usize..4,
        batch in 1u64..40,
    ) {
        let mut want = vec![0u64; g.n_vertices as usize];
        for e in &g.edges {
            want[e.dst as usize] += 1;
        }
        let td = tempfile::TempDir::new().unwrap();
        let mut cfg = EngineConfig::for_test(nodes);
        cfg.batch_policy = BatchPolicy::FixedVertices(batch);
        let cluster = Cluster::create(cfg, td.path()).unwrap();
        cluster.preprocess(&g).unwrap();
        let got: Vec<u64> = cluster
            .run(|ctx| {
                let deg = ctx.vertex_array::<u64>("deg")?;
                let d = deg.clone();
                ctx.process_edges(
                    &[],
                    &["deg"],
                    None,
                    |_v, _c| Some(1u64),
                    move |m: u64, _s, dst, _e: &(), c| {
                        let cur = c.get(&d, dst);
                        c.set(&d, dst, cur + m);
                        0u64
                    },
                )?;
                dfograph::algos::read_local(ctx, &deg)
            })
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        prop_assert_eq!(got, want);
    }
}
