//! Seek mode against stored chunks: a [`ChunkSeeker`] finds what a full
//! load finds, on compressed containers and raw files alike, and neither
//! reader sizes anything by a header count it has not held against the
//! stream.

use dfo_part::csr::{ChunkSeeker, IndexedChunk};
use dfo_storage::{FrameReader, FrameWriter, NodeDisk};
use dfo_types::{DfoError, Pod, ReprKind, Result};
use std::io::{Cursor, Write};

/// The paper's Figure 1c/1d chunk: 3 edges over 4 sources, with a CSR index.
fn figure1_chunk() -> IndexedChunk<u8> {
    IndexedChunk::build(4, &[(0, 5, b'B'), (2, 4, b'D'), (2, 5, b'C')], 32.0)
}

fn read_back<E: Pod + PartialEq>(file: &[u8], want: Option<ReprKind>) -> Result<IndexedChunk<E>> {
    IndexedChunk::read_from(&mut FrameReader::new(Cursor::new(file))?, want)
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
            // a container only bounds its stream, so the small lie is
            // caught where the stream ends instead
            let loaded = read_back::<u8>(&file, None);
            let refused = matches!(loaded, Err(DfoError::Corrupt(_)));
            assert!(refused || (byte == 0 && loaded.is_err()), "{what}: {loaded:?}");
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
