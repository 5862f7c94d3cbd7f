//! Pins the on-disk chunk format from both sides.
//!
//! `data/golden_chunk_pr14.hex` is the version-1 container an older build's
//! `write_to_framed(.., true)` produced for [`golden_chunk`]: no build
//! writes or reads that version any more, and the reader refuses it — to
//! a load, a seek or a read from the front — with an error that says to
//! preprocess again. `data/golden_chunk_v2.hex` is
//! the version-2 container of the same chunk — typed column filters, block
//! directory, footer — which today's reader must decode *and* today's
//! writer must reproduce byte for byte: encoder, filters, framing and
//! checksums do not move unnoticed.

use dfo_part::csr::{ChunkSeeker, IndexedChunk};
use dfo_storage::NodeDisk;
use dfo_types::{DfoError, ReprKind};

fn golden_chunk() -> IndexedChunk<u32> {
    let edges: Vec<(u32, u32, u32)> =
        (0..160u32).map(|i| (i / 3, (i * 7) % 61, (i * i) % 11)).collect();
    IndexedChunk::build(64, &edges, 32.0)
}

fn unhex(text: &str) -> Vec<u8> {
    let hex: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    hex.chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect()
}

/// Stores `file` on a disk of its own and loads the chunk it holds.
fn read(file: &[u8], want: Option<ReprKind>) -> IndexedChunk<u32> {
    let td = tempfile::TempDir::new().unwrap();
    std::fs::write(td.path().join("c.bin"), file).unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    IndexedChunk::load(&disk, "c.bin", want).unwrap()
}

/// Both ways of loading `file` give the golden chunk.
fn assert_decodes(file: &[u8]) {
    let chunk = golden_chunk();
    assert_eq!(read(file, None), chunk);
    // skipping the CSR section lands on the same edges
    let dcsr = read(file, Some(ReprKind::Dcsr));
    assert!(dcsr.csr_idx.is_none());
    assert_eq!((dcsr.dst, dcsr.data), (chunk.dst, chunk.data));
}

#[test]
fn version_1_golden_chunk_is_refused_with_a_typed_error() {
    let golden = unhex(include_str!("data/golden_chunk_pr14.hex"));
    assert_eq!(golden.len(), 779);
    let td = tempfile::TempDir::new().unwrap();
    std::fs::write(td.path().join("v1.bin"), &golden).unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let opened = disk.open_framed("v1.bin").err();
    let loaded = IndexedChunk::<u32>::load(&disk, "v1.bin", None).err();
    let seeked = ChunkSeeker::<u32>::open(&disk, "v1.bin").err();
    for err in [opened, loaded, seeked] {
        assert!(
            matches!(&err, Some(DfoError::Corrupt(m)) if m.contains("v1.bin") && m.contains("preprocess")),
            "{err:?}"
        );
    }
}

#[test]
fn todays_writer_reproduces_the_pinned_v2_file() {
    let golden = unhex(include_str!("data/golden_chunk_v2.hex"));
    assert_decodes(&golden);
    let chunk = golden_chunk();
    assert_eq!(chunk.write_to_framed(Vec::new(), true).unwrap(), golden, "the format moved");
    // and a seek into it finds every source's edges
    let td = tempfile::TempDir::new().unwrap();
    std::fs::write(td.path().join("v2.bin"), &golden).unwrap();
    let disk = NodeDisk::new(td.path(), None, false).unwrap();
    let mut seeker = ChunkSeeker::<u32>::open(&disk, "v2.bin").unwrap();
    for src in 0..64 {
        let edges = chunk.edges_of_csr(src);
        let (dst, data) = seeker.edges_of(src).unwrap();
        assert_eq!((dst, data), (&chunk.dst[edges.clone()], &chunk.data[edges]), "source {src}");
    }
}
