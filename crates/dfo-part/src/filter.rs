//! Inter-node message filter lists (paper §4.3).
//!
//! "When passing messages from node i to j, filtering means eliminating the
//! messages that node j does not need, i.e. messages whose src does not have
//! outgoing edges to partition j." The list of needed sources `L_ij` is
//! computed in preprocessing and stored on node *i*, sorted, so filtering is
//! a merge of two sorted streams.

use dfo_storage::{BlockFile, FrameWriter, NodeDisk};
use dfo_types::{slice_as_bytes, slice_as_bytes_mut, DfoError, Result};
use std::io::Write;

/// Writes a sorted filter list to `disk` at `rel`: its length as a `u64`,
/// then the sources as `u32`s. With `compress` the list is stored in a
/// frame container, the sources as a delta-coded column, when that is
/// smaller than the raw bytes — a list of a few sources is not.
/// [`read_filter_list`] reads either form.
pub fn write_filter_list(disk: &NodeDisk, rel: &str, list: &[u32], compress: bool) -> Result<()> {
    debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "list must be sorted unique");
    let framed = compress
        && write_list(FrameWriter::new(Vec::new(), true)?, list)?.len() < 8 + 4 * list.len();
    write_list(disk.create_framed(rel, framed)?, list)?.finish()
}

/// The logical bytes of a filter list, through `w`.
fn write_list<W: Write>(mut w: FrameWriter<W>, list: &[u32]) -> Result<W> {
    let io = |e| DfoError::io("writing a filter list", e);
    w.write_all(&(list.len() as u64).to_le_bytes()).map_err(io)?;
    w.begin_section(4, true)?;
    w.write_all(slice_as_bytes(list)).map_err(io)?;
    w.finish()
}

/// Reads back a filter list the plan says holds `len` sources, stored raw
/// or framed. The file is checked, not trusted: its logical bytes must be
/// exactly the `8 + 4·len` that many sources take before anything is
/// allocated for them, its header must agree with `len`, a container's
/// blocks, directory and footer must check out, and its sources must be
/// strictly ascending, or [`FilterCursor`] would drop messages; anything
/// else is a `Corrupt` error naming `rel`.
pub fn read_filter_list(disk: &NodeDisk, rel: &str, len: u64) -> Result<Vec<u32>> {
    let corrupt = |what: String| DfoError::Corrupt(format!("filter list {rel}: {what}"));
    let named = |e| match e {
        DfoError::Corrupt(what) => corrupt(what),
        e => e,
    };
    let mut file = BlockFile::open(disk, rel, 0).map_err(named)?;
    let stored = file.logical_len();
    if len.checked_mul(4).and_then(|n| n.checked_add(8)) != Some(stored) {
        return Err(corrupt(format!("{stored} logical bytes, the plan says {len} sources")));
    }
    let mut count = [0u8; 8];
    let mut list = vec![0u32; len as usize];
    file.read_ranges(&mut [(0, &mut count[..]), (8, slice_as_bytes_mut(&mut list))])
        .map_err(named)?;
    let n = u64::from_le_bytes(count);
    if n != len {
        return Err(corrupt(format!("{n} sources, the plan says {len}")));
    }
    match list.windows(2).find(|w| w[0] >= w[1]) {
        Some(w) => Err(corrupt(format!("source {} follows {}: not ascending", w[1], w[0]))),
        None => Ok(list),
    }
}

/// Streaming sorted-merge filter: retains the elements of `messages` (sorted
/// by the key extracted with `key`) whose key appears in `list`.
///
/// The cursor persists across calls so a message stream may be filtered
/// chunk by chunk; cost is `|M| + |L|` total, as §4.3 states.
pub struct FilterCursor<'a> {
    list: &'a [u32],
    pos: usize,
}

impl<'a> FilterCursor<'a> {
    pub fn new(list: &'a [u32]) -> Self {
        Self { list, pos: 0 }
    }

    /// Whether `src` (≥ all previously queried) is in the list.
    #[inline]
    pub fn contains(&mut self, src: u32) -> bool {
        while self.pos < self.list.len() && self.list[self.pos] < src {
            self.pos += 1;
        }
        self.pos < self.list.len() && self.list[self.pos] == src
    }
}

/// §4.3 skip rule: send unfiltered when `|L_ij| / |M_i| ≥ threshold`
/// (default 2) — the merge would cost more than it saves.
pub fn should_filter(list_len: u64, n_messages: u64, threshold: f64) -> bool {
    if n_messages == 0 {
        return false;
    }
    (list_len as f64) / (n_messages as f64) < threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    #[test]
    fn roundtrip() {
        let td = TempDir::new().unwrap();
        let d = NodeDisk::new(td.path(), None, false).unwrap();
        let list: Vec<u32> = vec![1, 5, 9, 1000];
        write_filter_list(&d, "filter/to_3.lst", &list, true).unwrap();
        assert_eq!(read_filter_list(&d, "filter/to_3.lst", 4).unwrap(), list);
    }

    #[test]
    fn empty_list_roundtrip() {
        let td = TempDir::new().unwrap();
        let d = NodeDisk::new(td.path(), None, false).unwrap();
        write_filter_list(&d, "f.lst", &[], true).unwrap();
        assert!(read_filter_list(&d, "f.lst", 0).unwrap().is_empty());
    }

    #[test]
    fn cursor_filters_sorted_stream() {
        let list = vec![2u32, 4, 8];
        let mut cur = FilterCursor::new(&list);
        let msgs = [0u32, 2, 3, 4, 7, 8, 9];
        let kept: Vec<u32> = msgs.iter().copied().filter(|&s| cur.contains(s)).collect();
        assert_eq!(kept, vec![2, 4, 8]);
    }

    #[test]
    fn cursor_handles_duplicate_queries() {
        // multiple messages from the same source are all retained
        let list = vec![5u32];
        let mut cur = FilterCursor::new(&list);
        assert!(cur.contains(5));
        assert!(cur.contains(5));
        assert!(!cur.contains(6));
    }

    #[test]
    fn skip_rule_threshold() {
        assert!(should_filter(10, 100, 2.0)); // L/M = 0.1 < 2
        assert!(!should_filter(200, 100, 2.0)); // L/M = 2.0 >= 2
        assert!(!should_filter(199, 100, 1.99));
        assert!(!should_filter(10, 0, 2.0)); // no messages: nothing to filter
    }
}
