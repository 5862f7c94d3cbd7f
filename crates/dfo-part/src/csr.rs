//! CSR and DCSR edge-chunk representations (paper §4.1, Figure 1c–1e).
//!
//! Every chunk stores its edges once (`dst` + `data` arrays) together with a
//! DCSR index — `(src, idx)` pairs for sources with at least one edge — and,
//! when the chunk is dense enough (`|V_src| / |E| ≤` [`CSR_INFLATE_RATIO`]), an
//! additional CSR index (`idx` over the whole source range) that supports
//! O(1) seeking. At access time the engine picks whichever index the cost
//! model favours; when a stored CSR index is not wanted, the reader *skips
//! over it* so no disk bytes are spent on it.

use dfo_types::codec::{read_u32, read_u64, write_u32, write_u64};
use dfo_types::{pod_zeroed, slice_as_bytes, slice_as_bytes_mut, DfoError, Pod, ReprKind, Result};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;

const MAGIC: u32 = 0x4446_4F43; // "DFOC"
const FLAG_HAS_CSR: u32 = 1;

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
    /// Builds a chunk from `(src, dst, data)` triples sorted by `(src, dst)`.
    /// A CSR index is added when `n_src as f64 / n_edges ≤ inflate_ratio`
    /// (preprocessing passes [`CSR_INFLATE_RATIO`]).
    pub fn build(n_src: u32, edges: &[(u32, u32, E)], inflate_ratio: f64) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0].0 <= w[1].0), "edges must be sorted by src");
        debug_assert!(edges.iter().all(|e| e.0 < n_src), "src out of range");
        let n_edges = edges.len();
        let mut dcsr_src = Vec::new();
        let mut dcsr_idx = Vec::new();
        let mut dst = Vec::with_capacity(n_edges);
        let mut data = Vec::with_capacity(n_edges);
        let mut prev: Option<u32> = None;
        for (i, (s, d, e)) in edges.iter().enumerate() {
            if prev != Some(*s) {
                dcsr_src.push(*s);
                dcsr_idx.push(i as u64);
                prev = Some(*s);
            }
            dst.push(*d);
            data.push(*e);
        }
        dcsr_idx.push(n_edges as u64);
        let build_csr = n_edges > 0 && (n_src as f64) / (n_edges as f64) <= inflate_ratio;
        let csr_idx = build_csr.then(|| {
            let mut idx = vec![0u64; n_src as usize + 1];
            for (s, _, _) in edges {
                idx[*s as usize + 1] += 1;
            }
            for i in 1..idx.len() {
                idx[i] += idx[i - 1];
            }
            idx
        });
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
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let io = |e| DfoError::io("writing chunk", e);
        write_u32(w, MAGIC).map_err(io)?;
        write_u32(w, if self.has_csr() { FLAG_HAS_CSR } else { 0 }).map_err(io)?;
        write_u64(w, self.n_src as u64).map_err(io)?;
        write_u64(w, self.n_edges()).map_err(io)?;
        write_u64(w, self.n_nonzero_src()).map_err(io)?;
        w.write_all(slice_as_bytes(&self.dcsr_src)).map_err(io)?;
        w.write_all(slice_as_bytes(&self.dcsr_idx)).map_err(io)?;
        if let Some(csr) = &self.csr_idx {
            w.write_all(slice_as_bytes(csr)).map_err(io)?;
        }
        w.write_all(slice_as_bytes(&self.dst)).map_err(io)?;
        w.write_all(slice_as_bytes(&self.data)).map_err(io)?;
        Ok(())
    }

    /// Serializes the chunk through the [`dfo_storage::compress`] framing:
    /// block-compressed when `compress` is true, byte-identical to
    /// [`IndexedChunk::write_to`] when false. Returns the inner writer for
    /// the caller to close. [`IndexedChunk::read_from`] detects either
    /// format on its own.
    pub fn write_to_framed<W: Write>(&self, w: W, compress: bool) -> Result<W> {
        let mut fw = dfo_storage::FrameWriter::new(w, compress)?;
        self.write_to(&mut fw)?;
        fw.finish()
    }

    /// Reads a chunk back, auto-detecting the compressed frame container
    /// (chunks written with `compress_chunks` on) and decoding it
    /// transparently.
    ///
    /// `want` selects which index to load. The DCSR index is always loaded
    /// (it is small, and its last offset validates the edge count). With
    /// `Some(ReprKind::Dcsr)` a stored CSR section is *seeked over*: an
    /// uncompressed chunk spends no read bytes on it, a compressed one
    /// steps over the frame blocks that lie wholly inside the section
    /// unread and decodes only the block at either edge. `Some(ReprKind::Csr)`
    /// and `None` load the CSR section too — everything the file holds.
    ///
    /// Each column is read straight into the `Vec` it lives in; compressed
    /// blocks are decoded into those bytes with no buffer in between.
    pub fn read_from<R: Read + Seek>(r: &mut R, want: Option<ReprKind>) -> Result<Self> {
        let io = |e| DfoError::io("reading chunk", e);
        let magic = read_u32(r).map_err(io)?;
        if magic == dfo_storage::FRAME_MAGIC {
            let mut fr = dfo_storage::FrameReader::resume(&mut *r)?;
            let inner_magic = read_u32(&mut fr).map_err(io)?;
            if inner_magic != MAGIC {
                return Err(DfoError::Corrupt(format!(
                    "compressed frame does not hold a chunk (magic {inner_magic:#x})"
                )));
            }
            return Self::read_after_magic(&mut fr, want);
        }
        if magic != MAGIC {
            return Err(DfoError::Corrupt(format!("bad chunk magic {magic:#x}")));
        }
        Self::read_after_magic(r, want)
    }

    /// Shared decode body: everything after a validated chunk magic.
    fn read_after_magic<R: Read + Seek>(r: &mut R, want: Option<ReprKind>) -> Result<Self> {
        let io = |e| DfoError::io("reading chunk", e);
        let flags = read_u32(r).map_err(io)?;
        let has_csr = flags & FLAG_HAS_CSR != 0;
        let n_src = read_u64(r).map_err(io)? as u32;
        let n_edges = read_u64(r).map_err(io)? as usize;
        let n_nonzero = read_u64(r).map_err(io)? as usize;

        let dcsr_src: Vec<u32> = read_pod_vec(r, n_nonzero)?;
        let dcsr_idx: Vec<u64> = read_pod_vec(r, n_nonzero + 1)?;
        let csr_idx = if has_csr {
            let take_csr = !matches!(want, Some(ReprKind::Dcsr));
            if take_csr {
                Some(read_pod_vec::<u64, R>(r, n_src as usize + 1)?)
            } else {
                r.seek(SeekFrom::Current(8 * (n_src as i64 + 1))).map_err(io)?;
                None
            }
        } else {
            None
        };
        let dst: Vec<u32> = read_pod_vec(r, n_edges)?;
        let data: Vec<E> = read_pod_vec(r, n_edges)?;
        if *dcsr_idx.last().unwrap_or(&0) != n_edges as u64 {
            return Err(DfoError::Corrupt("DCSR index does not cover all edges".into()));
        }
        Ok(Self { n_src, dcsr_src, dcsr_idx, csr_idx, dst, data })
    }

    /// In-memory footprint of the decoded chunk — what a bounded chunk
    /// cache charges against its byte budget. Deterministic (length-based,
    /// not capacity-based) so cache behaviour is reproducible.
    pub fn decoded_bytes(&self) -> u64 {
        let mut n = std::mem::size_of::<Self>() as u64;
        n += 4 * self.dcsr_src.len() as u64;
        n += 8 * self.dcsr_idx.len() as u64;
        if let Some(c) = &self.csr_idx {
            n += 8 * c.len() as u64;
        }
        n += 4 * self.dst.len() as u64;
        n += (std::mem::size_of::<E>() * self.data.len()) as u64;
        n
    }

    /// Serialized byte size (for I/O estimations and tests).
    pub fn serialized_bytes(&self) -> u64 {
        let mut n = 4 + 4 + 8 + 8 + 8;
        n += 4 * self.dcsr_src.len() as u64;
        n += 8 * self.dcsr_idx.len() as u64;
        if let Some(c) = &self.csr_idx {
            n += 8 * c.len() as u64;
        }
        n += 4 * self.dst.len() as u64;
        n += (std::mem::size_of::<E>() * self.data.len()) as u64;
        n
    }
}

/// Reads `n` values straight into the `Vec<T>` they will live in — for a
/// compressed chunk the frame reader decodes whole blocks into these very
/// bytes, with no byte buffer in between.
fn read_pod_vec<T: Pod, R: Read>(r: &mut R, n: usize) -> Result<Vec<T>> {
    // zero-sized payloads (dispatch graphs) occupy no bytes on disk but
    // still deserialize to `n` logical elements: the byte view is empty
    let mut out: Vec<T> = vec![pod_zeroed(); n];
    r.read_exact(slice_as_bytes_mut(&mut out))
        .map_err(|e| DfoError::io(format!("reading {n} x {}", std::any::type_name::<T>()), e))?;
    Ok(out)
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

/// Positioned-read access to a serialized chunk: the CSR *seeking* mode of
/// §4.1. Instead of streaming the whole chunk file, each queried source
/// costs one small read of its two CSR index entries plus one read of its
/// edge range — exactly the γ-seeks-vs-scan trade the cost model prices.
/// Only meaningful when the chunk stored a CSR index.
pub struct ChunkSeeker<E: Pod + PartialEq> {
    file: dfo_storage::RandomFile,
    n_edges: u64,
    csr_idx_off: u64,
    dst_off: u64,
    data_off: u64,
    _marker: std::marker::PhantomData<E>,
}

impl<E: Pod + PartialEq> ChunkSeeker<E> {
    /// Opens `rel` on `disk`; returns `None` if the chunk has no CSR index
    /// — or is stored compressed, where positioned reads into the raw
    /// layout are impossible (callers fall back to a full decoded load).
    pub fn open(disk: &dfo_storage::NodeDisk, rel: &str) -> Result<Option<Self>> {
        let file = disk.open_random(rel, false)?;
        let mut header = [0u8; 32];
        file.read_at(&mut header, 0)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic == dfo_storage::FRAME_MAGIC {
            return Ok(None);
        }
        if magic != MAGIC {
            return Err(DfoError::Corrupt(format!("bad chunk magic {magic:#x}")));
        }
        let flags = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if flags & FLAG_HAS_CSR == 0 {
            return Ok(None);
        }
        let n_src = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let n_edges = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let n_nonzero = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let csr_idx_off = 32 + 4 * n_nonzero + 8 * (n_nonzero + 1);
        let dst_off = csr_idx_off + 8 * (n_src + 1);
        let data_off = dst_off + 4 * n_edges;
        Ok(Some(Self {
            file,
            n_edges,
            csr_idx_off,
            dst_off,
            data_off,
            _marker: std::marker::PhantomData,
        }))
    }

    /// Fetches the `(dst, data)` pairs of `src` with positioned reads.
    pub fn edges_of(&self, src: u32) -> Result<Vec<(u32, E)>> {
        let mut idx = [0u8; 16];
        self.file.read_at(&mut idx, self.csr_idx_off + 8 * src as u64)?;
        let lo = u64::from_le_bytes(idx[0..8].try_into().unwrap());
        let hi = u64::from_le_bytes(idx[8..16].try_into().unwrap());
        debug_assert!(lo <= hi && hi <= self.n_edges);
        let n = (hi - lo) as usize;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut dsts = vec![0u32; n];
        self.file.read_at(slice_as_bytes_mut(&mut dsts), self.dst_off + 4 * lo)?;
        // zero-sized payloads occupy no bytes on disk
        let mut data: Vec<E> = vec![pod_zeroed(); n];
        if std::mem::size_of::<E>() > 0 {
            let at = self.data_off + (std::mem::size_of::<E>() as u64) * lo;
            self.file.read_at(slice_as_bytes_mut(&mut data), at)?;
        }
        Ok(dsts.into_iter().zip(data).collect())
    }
}

/// Whether the seek mode is worth it: γ seeks per message must undercut a
/// sequential scan of the CSR index (`γ·|M| < |V_src|`).
pub fn should_seek(has_csr: bool, n_messages: u64, n_src: u64, gamma: u64) -> bool {
    has_csr && gamma.saturating_mul(n_messages) < n_src
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
    use std::io::Cursor;

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
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, c.serialized_bytes());
        let back = IndexedChunk::<u8>::read_from(&mut Cursor::new(&buf), None).unwrap();
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
            let back = IndexedChunk::<u32>::read_from(&mut Cursor::new(&framed), want).unwrap();
            assert_eq!(back.dst, c.dst);
            assert_eq!(back.data, c.data);
            assert_eq!(back.csr_idx.is_some(), !matches!(want, Some(ReprKind::Dcsr)));
        }
    }

    #[test]
    fn framed_passthrough_is_byte_identical() {
        let c = figure1_chunk();
        let mut plain = Vec::new();
        c.write_to(&mut plain).unwrap();
        let framed_off = c.write_to_framed(Vec::new(), false).unwrap();
        assert_eq!(framed_off, plain, "compress=false must reproduce the raw layout");
    }

    #[test]
    fn decoded_bytes_tracks_loaded_index() {
        let c = figure1_chunk();
        let header = std::mem::size_of::<IndexedChunk<u8>>() as u64;
        // dcsr_src 2×4 + dcsr_idx 3×8 + csr 5×8 + dst 3×4 + data 3×1
        assert_eq!(c.decoded_bytes(), header + 8 + 24 + 40 + 12 + 3);
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let dcsr_only =
            IndexedChunk::<u8>::read_from(&mut Cursor::new(&buf), Some(ReprKind::Dcsr)).unwrap();
        // skipping the CSR section shrinks the decoded footprint too
        assert_eq!(dcsr_only.decoded_bytes(), c.decoded_bytes() - 40);
    }

    #[test]
    fn read_skipping_csr_section() {
        let c = figure1_chunk();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let back =
            IndexedChunk::<u8>::read_from(&mut Cursor::new(&buf), Some(ReprKind::Dcsr)).unwrap();
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
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let back = IndexedChunk::<()>::read_from(&mut Cursor::new(&buf), None).unwrap();
        // Figure 1e: messages from 0 go to batches 2 and 3; from 2 to batch 2
        assert_eq!(back.edges_of_dcsr(0), 0..2);
        assert_eq!(&back.dst[0..2], &[2, 3]);
        assert_eq!(back.edges_of_dcsr(2), 2..3);
    }
}
