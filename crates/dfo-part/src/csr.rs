//! CSR and DCSR edge-chunk representations (paper §4.1, Figure 1c–1e).
//!
//! Every chunk stores its edges once (`dst` + `data` arrays) together with a
//! DCSR index — `(src, idx)` pairs for sources with at least one edge — and,
//! when the chunk is dense enough (`|V_src| / |E| ≤` [`CSR_INFLATE_RATIO`]), an
//! additional CSR index (`idx` over the whole source range) that supports
//! O(1) seeking. At access time the engine picks whichever index the cost
//! model favours. Only seeking ([`ChunkSeeker`]) reads a stored CSR index:
//! a full load ([`IndexedChunk::read_from`]) reads the DCSR index and the
//! edges, and when CSR is wanted it rebuilds the offsets from the DCSR
//! index in memory, so no disk bytes are spent on them.

use dfo_storage::{BlockFile, FrameWriter, NodeDisk};
use dfo_types::codec::Cur;
use dfo_types::{pod_zeroed, slice_as_bytes, slice_as_bytes_mut, DfoError, Pod, ReprKind, Result};
use std::io::Write;
use std::ops::Range;

const MAGIC: u32 = 0x4446_4F43; // "DFOC"
const FLAG_HAS_CSR: u32 = 1;
const HEADER_BYTES: usize = 32;

/// A chunk's fixed header, and where it says the sections after the DCSR
/// index start in the logical stream. The counts come from disk: nothing
/// may allocate or seek by them before the stream they imply has been held
/// against the exact length of the one they were read from.
struct Layout {
    has_csr: bool,
    n_src: u32,
    n_edges: u64,
    n_nonzero: u64,
    csr_idx_off: u64,
    dst_off: u64,
    data_off: u64,
}

impl Layout {
    /// Parses `header` for a chunk of `edge_bytes`-wide payloads whose
    /// logical stream is `len` bytes long.
    fn parse(header: &[u8], edge_bytes: usize, len: u64) -> Result<Self> {
        let mut words = Cur::new(header);
        let (magic, flags) = (words.u32()?, words.u32()?);
        let (n_src, n_edges, n_nonzero) = (words.u64()?, words.u64()?, words.u64()?);
        let has_csr = flags & FLAG_HAS_CSR != 0;
        // 128 bits hold any sum of a few u64 counts times a few bytes
        let csr_idx_off = HEADER_BYTES as u128 + 12 * n_nonzero as u128 + 8;
        let dst_off = csr_idx_off + if has_csr { 8 * (n_src as u128 + 1) } else { 0 };
        let data_off = dst_off + 4 * n_edges as u128;
        let end = data_off + edge_bytes as u128 * n_edges as u128;
        let fits = magic == MAGIC && end == len as u128;
        let n_src = u32::try_from(n_src).ok().filter(|_| fits).ok_or_else(|| {
            DfoError::Corrupt(format!(
                "{header:02x?} is not the header of a chunk in a stream of {len} bytes"
            ))
        })?;
        Ok(Self {
            has_csr,
            n_src,
            n_edges,
            n_nonzero,
            csr_idx_off: csr_idx_off as u64,
            dst_off: dst_off as u64,
            data_off: data_off as u64,
        })
    }
}

/// The paper's CSR inflate ratio (§4.1): preprocessing stores a CSR index
/// next to the DCSR one when `|V_src| / |E_chunk|` is at most this.
pub const CSR_INFLATE_RATIO: f64 = 32.0;

/// One edge chunk (or dispatching graph): edges from a source vertex range
/// to payload targets, indexed by DCSR and optionally CSR.
///
/// `dst` holds the target of each edge: a vertex local to the destination
/// partition for edge chunks, or a batch index for dispatching graphs.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexedChunk<E: Pod + PartialEq> {
    /// Size of the source vertex range (`|V_src|`, the source partition).
    pub n_src: u32,
    /// Sorted sources with out-degree > 0 in this chunk (local IDs).
    pub dcsr_src: Vec<u32>,
    /// DCSR offsets; `len == dcsr_src.len() + 1`, last element = n_edges.
    pub dcsr_idx: Vec<u64>,
    /// CSR offsets over the full source range (`len == n_src + 1`), present
    /// only if accepted by the inflate ratio.
    pub csr_idx: Option<Vec<u64>>,
    /// Edge targets, grouped by source, in source order.
    pub dst: Vec<u32>,
    /// Edge payloads, parallel to `dst`.
    pub data: Vec<E>,
}

impl<E: Pod + PartialEq> IndexedChunk<E> {
    /// Builds a chunk from `(src, dst, data)` triples; a source's edges keep
    /// the order they are given in. A CSR index is added when
    /// `n_src as f64 / n_edges ≤ inflate_ratio` (preprocessing passes
    /// [`CSR_INFLATE_RATIO`]).
    pub fn build(n_src: u32, edges: &[(u32, u32, E)], inflate_ratio: f64) -> Self {
        Self::by_source(n_src, edges.iter().copied(), inflate_ratio, |_| {})
    }

    /// Builds a chunk from edges in any order: one counting pass groups
    /// them by source, each source's run of `(dst, data)` in the order the
    /// edges came, and `order_run` may then reorder each run. The CSR index
    /// follows the rule of [`IndexedChunk::build`].
    pub fn by_source(
        n_src: u32,
        edges: impl Iterator<Item = (u32, u32, E)> + Clone,
        inflate_ratio: f64,
        order_run: impl Fn(&mut [(u32, E)]),
    ) -> Self {
        let mut offsets = vec![0u64; n_src as usize + 1];
        for (s, _, _) in edges.clone() {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut runs = vec![(0u32, pod_zeroed::<E>()); offsets[n_src as usize] as usize];
        for (s, d, e) in edges {
            runs[next[s as usize] as usize] = (d, e);
            next[s as usize] += 1;
        }
        let (mut dcsr_src, mut dcsr_idx) = (Vec::new(), Vec::new());
        for (s, run) in offsets.windows(2).enumerate() {
            if run[0] < run[1] {
                order_run(&mut runs[run[0] as usize..run[1] as usize]);
                dcsr_src.push(s as u32);
                dcsr_idx.push(run[0]);
            }
        }
        let n_edges = runs.len();
        dcsr_idx.push(n_edges as u64);
        let (dst, data) = runs.into_iter().unzip();
        let build_csr = n_edges > 0 && (n_src as f64) / (n_edges as f64) <= inflate_ratio;
        let csr_idx = build_csr.then_some(offsets);
        Self { n_src, dcsr_src, dcsr_idx, csr_idx, dst, data }
    }

    pub fn n_edges(&self) -> u64 {
        self.dst.len() as u64
    }

    /// Number of sources with at least one edge (`|V_src, outdeg≠0|`).
    pub fn n_nonzero_src(&self) -> u64 {
        self.dcsr_src.len() as u64
    }

    pub fn has_csr(&self) -> bool {
        self.csr_idx.is_some()
    }

    /// O(1) CSR seek. Panics if no CSR index was built/loaded.
    #[inline]
    pub fn edges_of_csr(&self, src: u32) -> Range<usize> {
        let idx = self.csr_idx.as_ref().expect("chunk has no CSR index");
        idx[src as usize] as usize..idx[src as usize + 1] as usize
    }

    /// O(log n) standalone DCSR lookup (used when sources are not visited
    /// in sorted order; sorted visitors should prefer [`MergeCursor`]).
    pub fn edges_of_dcsr(&self, src: u32) -> Range<usize> {
        match self.dcsr_src.binary_search(&src) {
            Ok(i) => self.dcsr_idx[i] as usize..self.dcsr_idx[i + 1] as usize,
            Err(_) => 0..0,
        }
    }

    /// Iterates `(src, dst, &data)` over all edges (scan order).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &E)> + '_ {
        self.dcsr_src.iter().zip(self.dcsr_idx.windows(2)).flat_map(move |(&s, w)| {
            (w[0] as usize..w[1] as usize).map(move |i| (s, self.dst[i], &self.data[i]))
        })
    }

    /// Serializes the chunk. Layout (all little-endian):
    ///
    /// ```text
    /// magic u32 | flags u32 | n_src u64 | n_edges u64 | n_nonzero u64
    /// dcsr_src [u32]  dcsr_idx [u64]
    /// csr_idx [u64; n_src+1]          (iff FLAG_HAS_CSR)
    /// dst [u32]  data [E]
    /// ```
    ///
    /// These are the *logical* bytes: a passthrough writer puts them in the
    /// file as they are; a compressing one is told where each column
    /// starts, how wide its elements are and whether they ascend, and
    /// stores it as filtered blocks of its own (see
    /// [`dfo_storage::compress`]) — which is also what lets
    /// [`ChunkSeeker`] fetch a piece of one column.
    pub fn write_to<W: Write>(&self, w: &mut FrameWriter<W>) -> Result<()> {
        let io = |e| DfoError::io("writing chunk", e);
        let flags = if self.has_csr() { FLAG_HAS_CSR } else { 0 };
        let magic_flags = MAGIC as u64 | (flags as u64) << 32;
        let header = [magic_flags, self.n_src as u64, self.n_edges(), self.n_nonzero_src()];
        w.write_all(slice_as_bytes(&header)).map_err(io)?;
        let mut column = |bytes: &[u8], width: usize, monotone: bool| {
            w.begin_section(width, monotone)?;
            w.write_all(bytes).map_err(io)
        };
        column(slice_as_bytes(&self.dcsr_src), 4, true)?;
        column(slice_as_bytes(&self.dcsr_idx), 8, true)?;
        if let Some(csr) = &self.csr_idx {
            column(slice_as_bytes(csr), 8, true)?;
        }
        column(slice_as_bytes(&self.dst), 4, false)?;
        column(slice_as_bytes(&self.data), std::mem::size_of::<E>(), false)
    }

    /// [`IndexedChunk::write_to`] a fresh frame stream on `w`:
    /// block-compressed when `compress` is true, the raw layout when false.
    /// Returns the inner writer for the caller to close.
    pub fn write_to_framed<W: Write>(&self, w: W, compress: bool) -> Result<W> {
        let mut fw = FrameWriter::new(w, compress)?;
        self.write_to(&mut fw)?;
        fw.finish()
    }

    /// Reads the chunk stored in `file` whole, fetching exactly the blocks
    /// of the columns it decodes: the header, the DCSR index, then `dst`
    /// and `data`, each in as few positioned reads as
    /// [`BlockFile::read_ranges`] takes. A stored CSR section is never
    /// read: with `want` other than `Some(ReprKind::Dcsr)` the CSR offsets
    /// are rebuilt from the DCSR index in memory, which gives the offsets
    /// the chunk stored — `None` returns everything the file holds. The
    /// header is parsed against the exact length of the logical stream,
    /// and the DCSR index is checked before anything walks it: sources
    /// ascending below `n_src`, offsets from 0 up to the edge count, never
    /// falling — else the chunk is `Corrupt`, naming the file.
    ///
    /// [`IndexedChunk::load`] opens the file and calls this. The two entry
    /// points stay side by side only because the benchmark
    /// (`examples/dfo_benchmark`) calls this one on a file it opened with
    /// [`NodeDisk::open_framed`].
    pub fn read_from(file: &mut BlockFile, want: Option<ReprKind>) -> Result<Self> {
        let l = read_layout(file, std::mem::size_of::<E>())?;
        let (dcsr_src, dcsr_idx) = read_dcsr(file, &l)?;
        let mut dst = vec![0u32; l.n_edges as usize];
        let mut data = vec![pod_zeroed::<E>(); l.n_edges as usize];
        file.read_ranges(&mut [
            (l.dst_off, slice_as_bytes_mut(&mut dst)),
            // zero-sized payloads occupy no bytes on disk
            (l.data_off, slice_as_bytes_mut(&mut data)),
        ])?;
        let csr_idx = (l.has_csr && want != Some(ReprKind::Dcsr))
            .then(|| expand_csr(l.n_src, &dcsr_src, &dcsr_idx));
        Ok(Self { n_src: l.n_src, dcsr_src, dcsr_idx, csr_idx, dst, data })
    }

    /// Loads the stored chunk `rel` whole: [`IndexedChunk::read_from`] on
    /// the file, opened for column reads.
    pub fn load(disk: &NodeDisk, rel: &str, want: Option<ReprKind>) -> Result<Self> {
        Self::read_from(&mut BlockFile::open(disk, rel, 0)?, want)
    }

    /// In-memory footprint of the decoded chunk — what a bounded chunk
    /// cache charges against its byte budget. Deterministic (length-based,
    /// not capacity-based) so cache behaviour is reproducible.
    pub fn decoded_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64 + self.serialized_bytes() - HEADER_BYTES as u64
    }

    /// Serialized byte size (for I/O estimations and tests).
    pub fn serialized_bytes(&self) -> u64 {
        let csr = self.csr_idx.as_ref().map_or(0, Vec::len);
        let edge = 4 + std::mem::size_of::<E>();
        (HEADER_BYTES + 4 * self.dcsr_src.len() + 8 * (self.dcsr_idx.len() + csr)) as u64
            + (edge * self.dst.len()) as u64
    }
}

/// Monotone merge cursor over a DCSR index: visiting sources in ascending
/// order costs one sequential sweep of `(src, idx)` total — the "2 × |V_src,
/// outdeg≠0|" scan the paper's cost model charges DCSR with.
pub struct MergeCursor {
    pos: usize,
}

impl Default for MergeCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl MergeCursor {
    pub fn new() -> Self {
        Self { pos: 0 }
    }

    /// Edge range for `src`, which must be ≥ every previously queried source.
    pub fn edges_of<E: Pod + PartialEq>(
        &mut self,
        chunk: &IndexedChunk<E>,
        src: u32,
    ) -> Range<usize> {
        while self.pos < chunk.dcsr_src.len() && chunk.dcsr_src[self.pos] < src {
            self.pos += 1;
        }
        if self.pos < chunk.dcsr_src.len() && chunk.dcsr_src[self.pos] == src {
            chunk.dcsr_idx[self.pos] as usize..chunk.dcsr_idx[self.pos + 1] as usize
        } else {
            0..0
        }
    }
}

/// Positioned-read access to a stored chunk: the CSR *seeking* mode of
/// §4.1. Instead of streaming the whole chunk file, a queried source costs
/// the block of the CSR index its two entries sit in plus the blocks of
/// `dst` and `data` its edges sit in — and a [`BlockFile`] keeps the last
/// two blocks of each of the three, so a run of neighbouring sources pays
/// them once, and so does a frontier that returns to a block it left (a
/// hub whose edges end just before a `dst` block boundary, queried before
/// its neighbours in every round). The offsets are those of the logical stream, the same whether the
/// file is a compressed container or raw. Only meaningful when the chunk
/// stored a CSR index.
pub struct ChunkSeeker<E: Pod + PartialEq> {
    file: SeekFile,
    dst: Vec<u32>,
    data: Vec<E>,
}

/// A stored chunk open for positioned reads: its [`BlockFile`] — block
/// directory and last two blocks per column included — and its parsed
/// header.
/// What a [`ChunkSeeker`] keeps from one use to the next; it holds no
/// fetched edges and no payload type, so it can be kept for any.
pub struct SeekFile {
    blocks: BlockFile,
    layout: Layout,
    edge_bytes: usize,
}

impl SeekFile {
    /// Opens the stored chunk `rel` of `edge_bytes`-wide payloads through
    /// `columns` columns of cached blocks, and parses its header against the exact
    /// length of its logical stream.
    fn open(disk: &NodeDisk, rel: &str, columns: usize, edge_bytes: usize) -> Result<Self> {
        let mut blocks = BlockFile::open(disk, rel, columns)?;
        let mut header = [0u8; HEADER_BYTES];
        blocks.read_at(0, &mut header, 0)?;
        let layout = Layout::parse(&header, edge_bytes, blocks.logical_len())?;
        Ok(Self { blocks, layout, edge_bytes })
    }
}

/// [`BlockFile`] columns of the three a seek reads.
const IDX_SLOT: usize = 0;
const DST_SLOT: usize = 1;
const DATA_SLOT: usize = 2;

impl<E: Pod + PartialEq> ChunkSeeker<E> {
    /// Opens `rel` on `disk`. Callers seek only where the plan says a CSR
    /// index was stored, so a chunk without one is `Corrupt`.
    pub fn open(disk: &NodeDisk, rel: &str) -> Result<Self> {
        match SeekFile::open(disk, rel, 3, std::mem::size_of::<E>())? {
            file if file.layout.has_csr => Ok(Self::resume(file)),
            _ => Err(DfoError::Corrupt(format!("{rel}: no CSR index to seek by"))),
        }
    }

    /// A seeker over the file an earlier one of the same payload type left
    /// ([`ChunkSeeker::into_file`]): no reopening, no block fetched again.
    pub fn resume(file: SeekFile) -> Self {
        assert_eq!(file.edge_bytes, std::mem::size_of::<E>(), "a chunk's payloads have one width");
        Self { file, dst: Vec::new(), data: Vec::new() }
    }

    /// Ends the seeker, keeping its open file and dropping the edges it
    /// fetched last.
    pub fn into_file(self) -> SeekFile {
        self.file
    }

    /// Fetches the `dst` and `data` of `src`'s edges with positioned reads.
    pub fn edges_of(&mut self, src: u32) -> Result<(&[u32], &[E])> {
        let SeekFile { blocks, layout: l, .. } = &mut self.file;
        let mut idx = [0u8; 16];
        if src < l.n_src {
            blocks.read_at(IDX_SLOT, &mut idx, l.csr_idx_off + 8 * src as u64)?;
        }
        let mut entries = Cur::new(&idx);
        let (lo, hi) = (entries.u64()?, entries.u64()?);
        if src >= l.n_src || lo > hi || hi > l.n_edges {
            return Err(DfoError::Corrupt(format!(
                "CSR index gives source {src} of {} the edges {lo}..{hi} of {}",
                l.n_src, l.n_edges
            )));
        }
        let n = (hi - lo) as usize;
        self.dst.resize(n, 0);
        self.data.resize(n, pod_zeroed());
        blocks.read_at(DST_SLOT, slice_as_bytes_mut(&mut self.dst), l.dst_off + 4 * lo)?;
        // zero-sized payloads occupy no bytes on disk
        let at = l.data_off + std::mem::size_of::<E>() as u64 * lo;
        blocks.read_at(DATA_SLOT, slice_as_bytes_mut(&mut self.data), at)?;
        Ok((&self.dst, &self.data))
    }
}

/// The DCSR index `(dcsr_src, dcsr_idx)` of the stored chunk `rel`, whose
/// payloads are `edge_bytes` wide, read with positioned reads of the header
/// and those two columns alone — a few blocks, not the file — and checked
/// as [`IndexedChunk::read_from`] checks it.
pub fn read_dcsr_index(
    disk: &NodeDisk,
    rel: &str,
    edge_bytes: usize,
) -> Result<(Vec<u32>, Vec<u64>)> {
    let mut file = BlockFile::open(disk, rel, 0)?;
    let l = read_layout(&mut file, edge_bytes)?;
    read_dcsr(&mut file, &l)
}

/// Reads the header of the chunk of `edge_bytes`-wide payloads open in
/// `file` and parses it against the exact length of its logical stream.
fn read_layout(file: &mut BlockFile, edge_bytes: usize) -> Result<Layout> {
    let mut header = [0u8; HEADER_BYTES];
    file.read_ranges(&mut [(0, &mut header[..])])?;
    Layout::parse(&header, edge_bytes, file.logical_len())
}

/// Reads the DCSR index of the chunk open in `file` and checks it before
/// anything walks it: sources strictly ascending below `n_src` (or
/// [`MergeCursor`] drops edges, and the CSR rebuild writes out of place),
/// offsets starting at 0, never falling, ending at the edge count.
fn read_dcsr(file: &mut BlockFile, l: &Layout) -> Result<(Vec<u32>, Vec<u64>)> {
    let mut src = vec![0u32; l.n_nonzero as usize];
    let mut idx = vec![0u64; l.n_nonzero as usize + 1];
    file.read_ranges(&mut [
        (HEADER_BYTES as u64, slice_as_bytes_mut(&mut src)),
        (HEADER_BYTES as u64 + 4 * l.n_nonzero, slice_as_bytes_mut(&mut idx)),
    ])?;
    let rel = file.rel();
    // `None < Some(_)`: no sources is in order
    if src.windows(2).any(|w| w[0] >= w[1]) || src.last() >= Some(&l.n_src) {
        return Err(DfoError::Corrupt(format!("{rel}: DCSR sources out of order or range")));
    }
    if idx[0] != 0 || idx.windows(2).any(|w| w[0] > w[1]) || idx[idx.len() - 1] != l.n_edges {
        return Err(DfoError::Corrupt(format!("{rel}: DCSR index does not cover all edges")));
    }
    Ok((src, idx))
}

/// The CSR offsets of a chunk of `n_src` sources (`n_src + 1` of them)
/// from its checked DCSR index: a source's edges start where those of the
/// next listed source at or after it do, and past the last, at the end.
fn expand_csr(n_src: u32, src: &[u32], idx: &[u64]) -> Vec<u64> {
    let mut csr = Vec::with_capacity(n_src as usize + 1);
    for (&s, &at) in src.iter().zip(idx) {
        csr.resize(s as usize + 1, at);
    }
    csr.resize(n_src as usize + 1, idx[src.len()]);
    csr
}

/// Whether the seek mode is worth it on a chunk with a CSR index: at γ per
/// positioned read, the `n_reads` a pass over the messages' sources would
/// issue must undercut a sequential scan of the index (`γ·k < |V_src|`, the
/// paper's rule with reads for `k`: messages whose sources share a block
/// share its read).
pub fn should_seek(n_reads: u64, n_src: u64, gamma: u64) -> bool {
    gamma.saturating_mul(n_reads) < n_src
}

/// The paper's §4.1 cost model deciding which index to use for a chunk given
/// `n_messages` incoming messages: DCSR costs `2 × |V_src,outdeg≠0|`
/// (sequential sweep), CSR costs `min(γ × |M|, |V_src|)` (γ seeks each, or
/// one full scan). Falls back to DCSR when no CSR was stored.
pub fn choose_repr(
    has_csr: bool,
    n_nonzero_src: u64,
    n_src: u64,
    n_messages: u64,
    gamma: u64,
) -> ReprKind {
    if !has_csr {
        return ReprKind::Dcsr;
    }
    let dcsr_cost = 2 * n_nonzero_src;
    let csr_cost = (gamma.saturating_mul(n_messages)).min(n_src);
    if dcsr_cost <= csr_cost {
        ReprKind::Dcsr
    } else {
        ReprKind::Csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stores `file` on a disk of its own and loads the chunk it holds.
    fn read_back<E: Pod + PartialEq>(
        file: &[u8],
        want: Option<ReprKind>,
    ) -> Result<IndexedChunk<E>> {
        let td = tempfile::TempDir::new().unwrap();
        std::fs::write(td.path().join("c.bin"), file).unwrap();
        IndexedChunk::load(&NodeDisk::new(td.path(), None, false)?, "c.bin", want)
    }

    /// The paper's Figure 1c/1d example: chunk of 3 edges from partition 0
    /// (vertices 0–3) to batch 2, edges 0→5 "B", 2→4 "D", 2→5 "C".
    fn figure1_chunk() -> IndexedChunk<u8> {
        IndexedChunk::build(4, &[(0, 5, b'B'), (2, 4, b'D'), (2, 5, b'C')], 32.0)
    }

    #[test]
    fn matches_paper_figure_1c_1d() {
        let c = figure1_chunk();
        // Figure 1d DCSR: src [0, 2], idx [0, 1, 3]
        assert_eq!(c.dcsr_src, vec![0, 2]);
        assert_eq!(c.dcsr_idx, vec![0, 1, 3]);
        // Figure 1c CSR: idx [0, 1, 1, 3, 3] (we store n_src+1 entries)
        assert_eq!(c.csr_idx.as_ref().unwrap(), &vec![0, 1, 1, 3, 3]);
        assert_eq!(c.dst, vec![5, 4, 5]);
        assert_eq!(c.data, vec![b'B', b'D', b'C']);
    }

    #[test]
    fn csr_and_dcsr_seeks_agree() {
        let c = figure1_chunk();
        for src in 0..4u32 {
            let (csr, dcsr) = (c.edges_of_csr(src), c.edges_of_dcsr(src));
            // empty ranges may differ in position ("1..1" vs "0..0"); the
            // edge sets they denote must be identical
            assert_eq!(
                c.dst[csr.clone()],
                c.dst[dcsr.clone()],
                "src {src}: csr {csr:?} vs dcsr {dcsr:?}"
            );
        }
    }

    #[test]
    fn inflate_ratio_gates_csr() {
        // 3 edges over 4 sources: ratio 4/3 <= 32 -> CSR built
        assert!(figure1_chunk().has_csr());
        // 1 edge over 100 sources with ratio 32: 100/1 > 32 -> DCSR only
        let sparse = IndexedChunk::build(100, &[(7, 0, 0u8)], 32.0);
        assert!(!sparse.has_csr());
        // same chunk with a huge ratio accepts CSR
        let sparse2 = IndexedChunk::build(100, &[(7, 0, 0u8)], 1e9);
        assert!(sparse2.has_csr());
    }

    #[test]
    fn empty_chunk() {
        let c = IndexedChunk::<u8>::build(10, &[], 32.0);
        assert_eq!(c.n_edges(), 0);
        assert!(!c.has_csr());
        assert_eq!(c.edges_of_dcsr(3), 0..0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn roundtrip_full() {
        let c = figure1_chunk();
        let buf = c.write_to_framed(Vec::new(), false).unwrap();
        assert_eq!(buf.len() as u64, c.serialized_bytes());
        let back = read_back::<u8>(&buf, None).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_compressed_frame() {
        // a chunk big enough for LZ4 to bite: 20k edges with repetitive
        // payloads, read back through the same auto-detecting read_from
        let edges: Vec<(u32, u32, u32)> =
            (0..20_000u32).map(|i| (i / 4, i % 997, i % 13)).collect();
        let c = IndexedChunk::build(5000, &edges, 32.0);
        let framed = c.write_to_framed(Vec::new(), true).unwrap();
        assert!(
            (framed.len() as u64) < c.serialized_bytes(),
            "compressed {} vs raw {}",
            framed.len(),
            c.serialized_bytes()
        );
        for want in [None, Some(ReprKind::Dcsr), Some(ReprKind::Csr)] {
            let back = read_back::<u32>(&framed, want).unwrap();
            assert_eq!(back.dst, c.dst);
            assert_eq!(back.data, c.data);
            assert_eq!(back.csr_idx.is_some(), !matches!(want, Some(ReprKind::Dcsr)));
        }
    }

    #[test]
    fn framed_passthrough_is_byte_identical() {
        // the raw layout, spelled out: header words, then the columns
        let c = figure1_chunk();
        let plain = [
            slice_as_bytes(&[MAGIC, FLAG_HAS_CSR]),
            slice_as_bytes(&[4u64, 3, 2]), // n_src, n_edges, n_nonzero
            slice_as_bytes(&[0u32, 2]),
            slice_as_bytes(&[0u64, 1, 3]),
            slice_as_bytes(&[0u64, 1, 1, 3, 3]),
            slice_as_bytes(&[5u32, 4, 5]),
            b"BDC",
        ]
        .concat();
        assert_eq!(
            c.write_to_framed(Vec::new(), false).unwrap(),
            plain,
            "compress=false must reproduce the raw layout"
        );
    }

    #[test]
    fn decoded_bytes_tracks_loaded_index() {
        let c = figure1_chunk();
        let header = std::mem::size_of::<IndexedChunk<u8>>() as u64;
        // dcsr_src 2×4 + dcsr_idx 3×8 + csr 5×8 + dst 3×4 + data 3×1
        assert_eq!(c.decoded_bytes(), header + 8 + 24 + 40 + 12 + 3);
        let buf = c.write_to_framed(Vec::new(), false).unwrap();
        let dcsr_only = read_back::<u8>(&buf, Some(ReprKind::Dcsr)).unwrap();
        // skipping the CSR section shrinks the decoded footprint too
        assert_eq!(dcsr_only.decoded_bytes(), c.decoded_bytes() - 40);
    }

    #[test]
    fn read_skipping_csr_section() {
        let c = figure1_chunk();
        let buf = c.write_to_framed(Vec::new(), false).unwrap();
        let back = read_back::<u8>(&buf, Some(ReprKind::Dcsr)).unwrap();
        assert!(back.csr_idx.is_none(), "CSR section must be skipped");
        assert_eq!(back.dst, c.dst);
        assert_eq!(back.data, c.data);
        // edges still reachable through DCSR
        assert_eq!(back.edges_of_dcsr(2), 1..3);
    }

    #[test]
    fn merge_cursor_matches_binary_search() {
        let edges: Vec<(u32, u32, u32)> =
            (0..50u32).flat_map(|s| (0..(s % 3)).map(move |k| (s * 2, k, s))).collect();
        let c = IndexedChunk::build(128, &edges, 32.0);
        let mut cur = MergeCursor::new();
        for src in 0..128u32 {
            assert_eq!(cur.edges_of(&c, src), c.edges_of_dcsr(src), "src {src}");
        }
    }

    #[test]
    fn iter_yields_all_edges_in_order() {
        let edges = vec![(1u32, 9u32, 0.5f32), (1, 10, 0.25), (5, 2, 1.0)];
        let c = IndexedChunk::build(8, &edges, 32.0);
        let got: Vec<(u32, u32, f32)> = c.iter().map(|(s, d, &w)| (s, d, w)).collect();
        assert_eq!(got, edges);
    }

    #[test]
    fn cost_model_dense_vs_sparse_messages() {
        // dense chunk: 1000 sources out of 1024 have edges
        let (nz, n_src, gamma) = (1000u64, 1024u64, 1024u64);
        // one message: CSR seek costs min(1024*1, 1024) = 1024 < 2000 -> CSR... equal γ|M|=1024
        assert_eq!(choose_repr(true, nz, n_src, 1, gamma), ReprKind::Csr);
        // many messages: CSR cost capped at n_src=1024 < 2000 -> CSR
        assert_eq!(choose_repr(true, nz, n_src, 100_000, gamma), ReprKind::Csr);
        // sparse chunk: 10 nonzero sources -> DCSR sweep costs 20, always wins
        assert_eq!(choose_repr(true, 10, n_src, 1, gamma), ReprKind::Dcsr);
        // no CSR stored -> DCSR regardless
        assert_eq!(choose_repr(false, nz, n_src, 1, gamma), ReprKind::Dcsr);
    }

    #[test]
    fn zst_payload_dispatch_graph_style() {
        // dispatching graphs carry no payload: E = ()
        let edges = vec![(0u32, 2u32, ()), (0, 3, ()), (2, 2, ())];
        let c = IndexedChunk::build(4, &edges, 32.0);
        let buf = c.write_to_framed(Vec::new(), false).unwrap();
        let back = read_back::<()>(&buf, None).unwrap();
        // Figure 1e: messages from 0 go to batches 2 and 3; from 2 to batch 2
        assert_eq!(back.edges_of_dcsr(0), 0..2);
        assert_eq!(&back.dst[0..2], &[2, 3]);
        assert_eq!(back.edges_of_dcsr(2), 2..3);
    }
}
