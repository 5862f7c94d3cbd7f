//! Seek mode against stored chunks: a [`ChunkSeeker`] — fresh or resumed on
//! a kept file — and the degree scan's index reader find what a full load
//! finds, on compressed containers and raw files alike, and no reader sizes
//! anything by a header count it has not held against the stream.

use dfo_part::csr::{read_dcsr_index, ChunkSeeker, IndexedChunk};
use dfo_storage::{BlockFile, FileClass, FrameWriter, NodeDisk, SEEK_BLOCK_BYTES};
use dfo_types::{DfoError, Pod, ReprKind, Result};
use proptest::{proptest, ProptestConfig};
use std::io::Write;

/// The paper's Figure 1c/1d chunk: 3 edges over 4 sources, with a CSR index.
fn figure1_chunk() -> IndexedChunk<u8> {
    IndexedChunk::build(4, &[(0, 5, b'B'), (2, 4, b'D'), (2, 5, b'C')], 32.0)
}

/// Stores `file` on a disk of its own and loads the chunk it holds.
fn read_back<E: Pod + PartialEq>(file: &[u8], want: Option<ReprKind>) -> Result<IndexedChunk<E>> {
    let td = tempfile::TempDir::new().unwrap();
    std::fs::write(td.path().join("c.bin"), file).unwrap();
    IndexedChunk::load(&NodeDisk::new(td.path(), None, false)?, "c.bin", want)
}

#[test]
fn header_counts_are_held_against_the_stream_before_anything_is_sized_by_them() {
    let td = tempfile::TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let raw = figure1_chunk().write_to_framed(Vec::new(), false).unwrap();
    // (header field, bit to flip): 2^60 sources, edges, DCSR entries —
    // and one edge more than the stream has room for
    for (field, byte, bit) in [(8, 7, 0x10), (16, 7, 0x10), (24, 7, 0x10), (16, 0, 0x04)] {
        let mut bad = raw.clone();
        bad[field + byte] ^= bit;
        let mut fw = FrameWriter::new(Vec::new(), true).unwrap();
        fw.write_all(&bad).unwrap();
        for (rel, file) in [("raw.bin", bad.clone()), ("framed.bin", fw.finish().unwrap())] {
            let what = format!("{rel}, header byte {}", field + byte);
            // the header is held against the exact length of the stream,
            // so the small lie is refused as the large ones are
            let loaded = read_back::<u8>(&file, None);
            assert!(matches!(loaded, Err(DfoError::Corrupt(_))), "{what}: {loaded:?}");
            std::fs::write(td.path().join(rel), &file).unwrap();
            let seeker = ChunkSeeker::<u8>::open(&disk, rel).map(|_| ());
            assert!(matches!(seeker, Err(DfoError::Corrupt(_))), "{what}: {seeker:?}");
        }
    }
    // a seek also notices a stream *longer* than its header accounts for
    std::fs::write(td.path().join("long.bin"), [&raw[..], &[0u8]].concat()).unwrap();
    assert!(matches!(ChunkSeeker::<u8>::open(&disk, "long.bin"), Err(DfoError::Corrupt(_))));
}

#[test]
fn seeker_matches_the_loaded_chunk_on_either_layout() {
    let edges: Vec<(u32, u32, u32)> = (0..40_000u32)
        .filter(|i| i % 7 != 0)
        .map(|i| (i / 5, i.wrapping_mul(2_654_435_761) % 9_000, i % 13))
        .collect();
    let c = IndexedChunk::build(8_100, &edges, 32.0);
    let td = tempfile::TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    for compress in [true, false] {
        let mut w = disk.create_framed("c.bin", compress).unwrap();
        c.write_to(&mut w).unwrap();
        w.finish().unwrap().finish().unwrap();
        let mut seeker = ChunkSeeker::<u32>::open(&disk, "c.bin").unwrap();
        let before = disk.stats().read_bytes.get();
        for src in (0..8_100).step_by(3) {
            let edges = c.edges_of_csr(src);
            let (dst, data) = seeker.edges_of(src).unwrap();
            assert_eq!((dst, data), (&c.dst[edges.clone()], &c.data[edges]), "source {src}");
        }
        // an ascending sweep fetches no block twice
        let read = disk.stats().read_bytes.get() - before;
        assert!(read <= disk.len("c.bin").unwrap(), "compress={compress}: read {read} B");
        assert!(matches!(seeker.edges_of(8_100), Err(DfoError::Corrupt(_))));
    }
    // no CSR index stored: the plan that sent a seek here is wrong
    let sparse = IndexedChunk::build(100_000, &edges[..10], 32.0);
    std::fs::write(td.path().join("s.bin"), sparse.write_to_framed(Vec::new(), true).unwrap())
        .unwrap();
    let err = ChunkSeeker::<u32>::open(&disk, "s.bin").err();
    assert!(matches!(&err, Some(DfoError::Corrupt(m)) if m.contains("s.bin")), "{err:?}");
}

/// The degree scan's reader returns the DCSR index a full load decodes —
/// so the same degrees — on either layout, reading less than the file
/// holds; an index whose last offset is not the edge count is refused.
#[test]
fn dcsr_index_reader_matches_the_full_load_and_reads_less_than_the_file() {
    let edges: Vec<(u32, u32, u32)> =
        (0..40_000u32).map(|i| (i / 5, i.wrapping_mul(2_654_435_761) % 9_000, i % 13)).collect();
    let c = IndexedChunk::build(8_100, &edges, 32.0);
    let td = tempfile::TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    for compress in [true, false] {
        let mut w = disk.create_framed("c.bin", compress).unwrap();
        c.write_to(&mut w).unwrap();
        w.finish().unwrap().finish().unwrap();
        let before = disk.stats().read_bytes.get();
        let index = read_dcsr_index(&disk, "c.bin", 4).unwrap();
        let read = disk.stats().read_bytes.get() - before;
        let loaded = IndexedChunk::<u32>::read_from(&mut disk.open_framed("c.bin").unwrap(), None);
        let loaded = loaded.unwrap();
        assert_eq!(index, (loaded.dcsr_src, loaded.dcsr_idx), "compress={compress}");
        let len = disk.len("c.bin").unwrap();
        assert!(read < len, "compress={compress}: read {read} B of a {len}-byte file");
    }
    // figure 1 lists sources [0, 2] at byte 32 and offsets [0, 1, 3] at
    // byte 40: claim 2 edges; an offset that falls (0, 5, 3); a source past
    // the chunk's 4; sources that do not ascend (0, 0)
    let raw = figure1_chunk().write_to_framed(Vec::new(), false).unwrap();
    for (byte, value, what) in
        [(56, 2, "cover"), (48, 5, "cover"), (36, 9, "order"), (36, 0, "order")]
    {
        let mut bad = raw.clone();
        bad[byte] = value;
        std::fs::write(td.path().join("bad.bin"), bad).unwrap();
        let err = read_dcsr_index(&disk, "bad.bin", 1).err();
        assert!(
            matches!(&err, Some(DfoError::Corrupt(m)) if m.contains(what)),
            "byte {byte}: {err:?}"
        );
    }
}

/// A seeker resumed on the file an earlier one left finds the same edges
/// and fetches no block that one still holds — after seeking into a hub
/// whose edges span many blocks, whose copy the kept file does not hold.
#[test]
fn a_resumed_seeker_keeps_the_blocks_and_not_the_edges() {
    // source 0 is a hub of 30 000 edges; then 2 000 sources of five
    let hub = (0..30_000u32).map(|i| (0, i % 9_000, i));
    let edges: Vec<(u32, u32, u32)> =
        hub.chain((5..10_005u32).map(|i| (i / 5, i % 9_000, i))).collect();
    let c = IndexedChunk::build(2_002, &edges, 32.0);
    let td = tempfile::TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let mut w = disk.create_framed("c.bin", true).unwrap();
    c.write_to(&mut w).unwrap();
    w.finish().unwrap().finish().unwrap();
    let expect = |src: u32| {
        let e = c.edges_of_csr(src);
        (c.dst[e.clone()].to_vec(), c.data[e].to_vec())
    };
    let fetch = |seeker: &mut ChunkSeeker<u32>, src| {
        let (dst, data) = seeker.edges_of(src).unwrap();
        (dst.to_vec(), data.to_vec())
    };
    let mut seeker = ChunkSeeker::<u32>::open(&disk, "c.bin").unwrap();
    assert_eq!(fetch(&mut seeker, 0), expect(0));
    assert_eq!(fetch(&mut seeker, 1_000), expect(1_000));
    let mut seeker = ChunkSeeker::<u32>::resume(seeker.into_file());
    let before = disk.stats().read_ops.get();
    assert_eq!(fetch(&mut seeker, 1_000), expect(1_000));
    assert_eq!(fetch(&mut seeker, 1_001), expect(1_001));
    assert_eq!(disk.stats().read_ops.get(), before, "a held block was fetched again");
    assert_eq!(fetch(&mut seeker, 0), expect(0));
}

/// The directory the footer of `file`, a version-2 container, lists:
/// `(logical offset, file offset)` per block, then `(logical length, end
/// trailer offset)`.
fn directory(file: &[u8]) -> Vec<(u64, u64)> {
    let word = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
    let n_blocks = word(file.len() - 24) as usize;
    let dir_at = file.len() - 24 - 16 * n_blocks;
    let mut dir: Vec<(u64, u64)> =
        (0..n_blocks).map(|k| (word(dir_at + 16 * k), word(dir_at + 16 * k + 8))).collect();
    // the end trailer closes the last block
    dir.push((word(file.len() - 16), (dir_at - 16) as u64));
    dir
}

/// The stored bytes of the blocks a column load of `file` — a version-2
/// container of a chunk whose CSR section spans logical `csr` — must fetch:
/// every block outside that section, from the directory the footer lists;
/// and the bytes of the head, the footer, the end trailer and the directory
/// it reads first.
fn column_blocks_and_framing(file: &[u8], csr: std::ops::Range<u64>) -> (u64, u64) {
    let dir = directory(file);
    let blocks = dir.windows(2).filter(|w| !csr.contains(&w[0].0)).map(|w| w[1].1 - w[0].1).sum();
    (blocks, 8 + 24 + 16 + 16 * (dir.len() as u64 - 1))
}

/// A hub whose edges end just before a `dst` block boundary, queried before
/// its neighbours round after round, as SSSP replays a community: each
/// round goes back and forth between two blocks of `dst` (and of `data`),
/// which a seeker keeping one block per column fetched again every round.
/// Kept across resumes, each block is fetched once.
#[test]
fn a_seeker_revisiting_two_blocks_of_a_column_fetches_each_once() {
    // sources 0..10 have 2 edges, the hub 10 up to a boundary, the members
    // 11..19 five each, the other 45 sources one
    let (n_src, hub, members) = (64u32, 10u32, 11..19u32);
    // CSR is stored, every source has an edge: the layout's offsets
    let dst_off = 32 + 12 * n_src as u64 + 8 + 8 * (n_src as u64 + 1);
    let block = SEEK_BLOCK_BYTES as u64;
    for compress in [true, false] {
        // a container's `dst` section starts a block; a raw file is read in
        // aligned spans of the file
        let boundary = if compress { dst_off + block } else { dst_off.next_multiple_of(block) };
        let hub_end = (boundary - dst_off) / 4;
        let degree = |s: u32| match s {
            s if s < hub => 2,
            s if s == hub => hub_end - 2 * hub as u64,
            s if members.contains(&s) => 5,
            _ => 1,
        };
        let edges: Vec<(u32, u32, u32)> = (0..n_src)
            .flat_map(|s| (0..degree(s)).map(move |i| (s, (s * 31 + i as u32) % 5_000, i as u32)))
            .collect();
        let c = IndexedChunk::build(n_src, &edges, 32.0);
        assert!(c.has_csr() && c.edges_of_csr(hub).end as u64 == hub_end, "compress={compress}");
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let mut w = disk.create_framed("chunks/p0_b0.chunk", compress).unwrap();
        c.write_to(&mut w).unwrap();
        w.finish().unwrap().finish().unwrap();
        let chunk_ops = || disk.stats().class(FileClass::Chunk).read_ops.get();
        let mut seeker = ChunkSeeker::<u32>::open(&disk, "chunks/p0_b0.chunk").unwrap();
        let mut after_first = 0;
        for pass in 0..50 {
            seeker = ChunkSeeker::resume(seeker.into_file());
            for src in [hub, members.start, members.end - 1] {
                let e = c.edges_of_csr(src);
                let (dst, data) = seeker.edges_of(src).unwrap();
                assert_eq!((dst, data), (&c.dst[e.clone()], &c.data[e]), "pass {pass}: {src}");
            }
            if pass == 0 {
                after_first = chunk_ops();
            }
        }
        assert_eq!(chunk_ops() - after_first, 0, "compress={compress}: blocks fetched again");
    }
}

/// Fetches and stored bytes of `reads` — `(column, offset, len)` of the
/// logical stream — through a cache that keeps one block per column and
/// serves a read from any column's block: what a [`BlockFile`] did before
/// it kept two. `blocks` are `(logical offset, stored bytes)`, ascending.
fn one_block_per_column(blocks: &[(u64, u64)], reads: &[(usize, u64, u64)]) -> (u64, u64) {
    let (mut held, mut fetches, mut bytes) = ([None; 3], 0, 0);
    for &(column, at, len) in reads.iter().filter(|r| r.2 > 0) {
        let first = blocks.partition_point(|b| b.0 <= at) - 1;
        let last = blocks.partition_point(|b| b.0 < at + len) - 1;
        for (k, block) in blocks.iter().enumerate().take(last + 1).skip(first) {
            if !held.contains(&Some(k)) {
                held[column] = Some(k);
                (fetches, bytes) = (fetches + 1, bytes + block.1);
            }
        }
    }
    (fetches, bytes)
}

// Positioned reads through three columns return the bytes a full decode
// holds, compressed and raw, and fetch no more blocks — nor bytes — than a
// cache of one block per column would.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_column_reads_equal_a_full_decode_and_fetch_no_more_than_one_block_per_column(
        reads in proptest::collection::vec((0usize..3, 0u64..1_000_000, 0u64..40_000), 1..40),
    ) {
        let edges: Vec<(u32, u32, u32)> =
            (0..30_000u32).map(|i| (i / 9, i.wrapping_mul(2_654_435_761) % 9_000, i % 13)).collect();
        let c = IndexedChunk::build(3_400, &edges, 32.0);
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let stream = c.write_to_framed(Vec::new(), false).unwrap();
        let len = stream.len() as u64;
        let reads: Vec<(usize, u64, u64)> =
            reads.iter().map(|&(col, at, n)| (col, at % len, n.min(len - at % len))).collect();
        for compress in [true, false] {
            let file = c.write_to_framed(Vec::new(), compress).unwrap();
            std::fs::write(td.path().join("c.bin"), &file).unwrap();
            let blocks: Vec<(u64, u64)> = if compress {
                directory(&file).windows(2).map(|w| (w[0].0, w[1].1 - w[0].1)).collect()
            } else {
                let span = SEEK_BLOCK_BYTES as u64;
                (0..len.div_ceil(span)).map(|k| (k * span, span.min(len - k * span))).collect()
            };
            let mut blocks_file = BlockFile::open(&disk, "c.bin", 3).unwrap();
            let stats = disk.stats();
            let (ops0, bytes0) = (stats.read_ops.get(), stats.read_bytes.get());
            for &(column, at, n) in &reads {
                let mut out = vec![0u8; n as usize];
                blocks_file.read_at(column, &mut out, at).unwrap();
                assert!(out[..] == stream[at as usize..(at + n) as usize], "{n} B at {at}");
            }
            let fetched = (stats.read_ops.get() - ops0, stats.read_bytes.get() - bytes0);
            let (fetches, bytes) = one_block_per_column(&blocks, &reads);
            assert!(
                fetched.0 <= fetches && fetched.1 <= bytes,
                "compress={compress}: {fetched:?}, one block per column {fetches} / {bytes} B"
            );
        }
    }
}

/// A full load reads the header, the DCSR index, `dst` and `data` — the
/// blocks of a container that hold them, or exactly those bytes of a raw
/// file — plus what it takes to find them, and never the stored CSR index,
/// whether it keeps the DCSR index or rebuilds CSR offsets from it.
#[test]
fn a_full_load_reads_only_the_columns_it_decodes() {
    let edges: Vec<(u32, u32, u32)> = (0..40_000u32)
        .filter(|i| i % 7 != 0)
        .map(|i| (i / 5, i.wrapping_mul(2_654_435_761) % 9_000, i % 13))
        .collect();
    let c = IndexedChunk::build(8_100, &edges, 32.0);
    assert!(c.has_csr());
    let rel = "chunks/p0_b0.chunk";
    // the CSR section sits behind the header and the DCSR index
    let csr_at = 32 + 4 * c.dcsr_src.len() as u64 + 8 * c.dcsr_idx.len() as u64;
    let csr = csr_at..csr_at + 8 * (c.n_src as u64 + 1);
    let td = tempfile::TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    for compress in [true, false] {
        let mut w = disk.create_framed(rel, compress).unwrap();
        c.write_to(&mut w).unwrap();
        w.finish().unwrap().finish().unwrap();
        let file = disk.read_to_vec(rel).unwrap();
        let expect = if compress {
            let (blocks, framing) = column_blocks_and_framing(&file, csr.clone());
            blocks + framing
        } else {
            // the head a reader checks for the container magic, then the
            // columns as they are
            8 + file.len() as u64 - (csr.end - csr.start)
        };
        for want in [ReprKind::Dcsr, ReprKind::Csr] {
            let chunk_reads = || disk.stats().class(FileClass::Chunk).read_bytes.get();
            let before = chunk_reads();
            let loaded = IndexedChunk::<u32>::load(&disk, rel, Some(want)).unwrap();
            let read = chunk_reads() - before;
            assert_eq!(loaded.csr_idx.is_some(), want == ReprKind::Csr);
            let expected = IndexedChunk {
                csr_idx: c.csr_idx.clone().filter(|_| want == ReprKind::Csr),
                ..c.clone()
            };
            assert_eq!(loaded, expected, "compress={compress} {want:?}");
            assert_eq!(read, expect, "compress={compress} {want:?}: physical bytes");
        }
    }
}

/// A full load trusts no byte it reads: a flipped block, a file cut short
/// and a directory entry that disagrees with its block are `Corrupt`, and
/// so is a DCSR index whose sources do not ascend — which a merge over it
/// would silently drop edges for.
#[test]
fn a_full_load_refuses_a_damaged_chunk_typed() {
    let edges: Vec<(u32, u32, u32)> =
        (0..20_000u32).map(|i| (i / 4, i.wrapping_mul(2_654_435_761) % 9_000, i % 13)).collect();
    let c = IndexedChunk::build(5_000, &edges, 32.0);
    let td = tempfile::TempDir::new().unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let good = c.write_to_framed(Vec::new(), true).unwrap();
    let n_blocks = u64::from_le_bytes(good[good.len() - 24..][..8].try_into().unwrap()) as usize;
    let dir_at = good.len() - 24 - 16 * n_blocks;
    let mut swapped = c.clone();
    swapped.dcsr_src.swap(1, 2);
    let damaged = |at: usize| {
        let mut bad = good.clone();
        bad[at] ^= 0x10;
        bad
    };
    for (what, file) in [
        ("header block", damaged(8 + 16 + 3)),
        ("dst block", damaged(good.len() / 2)),
        ("cut", good[..good.len() - 100].to_vec()),
        ("directory", damaged(dir_at + 16 * (n_blocks / 2) + 8)),
        ("footer", damaged(good.len() - 20)),
        ("sources", swapped.write_to_framed(Vec::new(), true).unwrap()),
        ("raw sources", swapped.write_to_framed(Vec::new(), false).unwrap()),
    ] {
        std::fs::write(td.path().join("bad.bin"), file).unwrap();
        for want in [Some(ReprKind::Dcsr), Some(ReprKind::Csr)] {
            match IndexedChunk::<u32>::load(&disk, "bad.bin", want) {
                // what is wrong with the index is said of the file
                Err(DfoError::Corrupt(m)) if !what.contains("sources") || m.contains("bad.bin") => {
                }
                other => panic!("{what}, {want:?}: {:?}", other.map(|_| "loaded")),
            }
        }
    }
}
