//! Pins the on-disk chunk format to a file written before the frame
//! decoder was rewritten (PR 15): `data/golden_chunk_pr14.hex` is the
//! compressed file the PR-14 commit's `write_to_framed(.., true)` produced
//! for [`golden_chunk`]. Today's reader must decode it to that chunk, and
//! today's writer must produce those bytes — encoder, framing and checksum
//! did not move.

use dfo_part::csr::IndexedChunk;
use dfo_types::ReprKind;
use std::io::Cursor;

fn golden_chunk() -> IndexedChunk<u32> {
    let edges: Vec<(u32, u32, u32)> =
        (0..160u32).map(|i| (i / 3, (i * 7) % 61, (i * i) % 11)).collect();
    IndexedChunk::build(64, &edges, 32.0)
}

#[test]
fn compressed_chunk_written_by_the_parent_commit_still_decodes() {
    let hex: Vec<u8> = include_str!("data/golden_chunk_pr14.hex")
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    let golden: Vec<u8> = hex
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect();
    assert_eq!(golden.len(), 779);
    let chunk = golden_chunk();
    let back = IndexedChunk::<u32>::read_from(&mut Cursor::new(&golden), None).unwrap();
    assert_eq!(back, chunk);
    // skipping the CSR section lands on the same edges
    let dcsr =
        IndexedChunk::<u32>::read_from(&mut Cursor::new(&golden), Some(ReprKind::Dcsr)).unwrap();
    assert!(dcsr.csr_idx.is_none());
    assert_eq!((dcsr.dst, dcsr.data), (back.dst, back.data));
    assert_eq!(chunk.write_to_framed(Vec::new(), true).unwrap(), golden, "the format moved");
}
