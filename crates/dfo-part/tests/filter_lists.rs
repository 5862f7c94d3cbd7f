//! Filter lists on disk: stored raw or in a frame container, whichever is
//! smaller, and read back either way with every check.

use dfo_part::{read_filter_list, write_filter_list};
use dfo_storage::{FrameWriter, NodeDisk};
use dfo_types::{slice_as_bytes, DfoError};
use std::io::Write;
use tempfile::TempDir;

/// A long list is framed when compression is on, and stored raw — the
/// layout of an uncompressed graph — when it is off or the list is
/// short; every form reads back as the same list.
#[test]
fn a_list_is_framed_only_where_that_is_smaller() {
    let td = TempDir::new().unwrap();
    let d = NodeDisk::new(td.path(), None, false).unwrap();
    let long: Vec<u32> = (0..50_000u32).map(|i| 3 * i + i % 2).collect();
    let short = [7u32, 9];
    for (list, compress, framed) in
        [(&long[..], true, true), (&long[..], false, false), (&short[..], true, false)]
    {
        write_filter_list(&d, "f.lst", list, compress).unwrap();
        let stored = d.read_to_vec("f.lst").unwrap();
        let raw = 8 + 4 * list.len();
        assert_eq!(stored[..4] == dfo_storage::FRAME_MAGIC.to_le_bytes(), framed);
        assert_eq!(stored.len() < raw, framed, "{} B stored for {raw}", stored.len());
        assert_eq!(read_filter_list(&d, "f.lst", list.len() as u64).unwrap(), list);
    }
}

/// A framed list is checked like a raw one: a count the plan does not
/// know, a body one source short or long, sources out of order and a
/// damaged block are all `Corrupt` errors naming the file.
#[test]
fn a_framed_list_is_checked_like_a_raw_one() {
    let td = TempDir::new().unwrap();
    let d = NodeDisk::new(td.path(), None, false).unwrap();
    let list: Vec<u32> = (0..5_000u32).map(|i| 2 * i).collect();
    let frame = |count: u64, body: &[u32]| {
        let mut w = FrameWriter::new(Vec::new(), true).unwrap();
        w.write_all(&count.to_le_bytes()).unwrap();
        w.begin_section(4, true).unwrap();
        w.write_all(slice_as_bytes(body)).unwrap();
        w.finish().unwrap()
    };
    let mut swapped = list.clone();
    swapped.swap(10, 11);
    let mut damaged = frame(5_000, &list);
    damaged[60] ^= 0x20;
    for (what, file) in [
        ("count", frame(4_999, &list)),
        ("short", frame(5_000, &list[1..])),
        ("long", frame(5_000, &[&list[..], &[10_000]].concat())),
        ("order", frame(5_000, &swapped)),
        ("block", damaged),
    ] {
        std::fs::write(d.root().join("f.lst"), file).unwrap();
        match read_filter_list(&d, "f.lst", 5_000) {
            Err(DfoError::Corrupt(m)) if m.contains("f.lst") => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}
