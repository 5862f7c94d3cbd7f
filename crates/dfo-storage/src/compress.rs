//! Block compression for preprocessed chunk files: the frame container,
//! its writer, and its one reader, which reads any part of a file by block.
//!
//! DFOGraph's premise is that fully-out-of-core performance is bounded by
//! bytes moved through disk and network; edge chunks are written once at
//! preprocessing time and re-read on every `ProcessEdges` call, so
//! compressing them cuts the one I/O cost a decoded-chunk cache cannot
//! help with — the cold read — and multiplies the effective cache budget
//! (GraphMP's observation). Container version 2 (all integers
//! little-endian):
//!
//! ```text
//! container:  magic "DFOZ" u32 | version u32
//! per block:  raw_len u32 | enc_len u32 | flags u32 | crc32 u32   (header)
//!             payload [enc_len bytes]
//! trailer:    raw_len = 0 | enc_len = 0 | flags = END | crc32 = 0
//! directory:  per block: logical offset u64 | file offset u64
//! footer:     n_blocks u64 | logical_len u64 | crc32 u32 | magic "DFOD" u32
//! ```
//!
//! **Blocks.** `flags` bit 0 (`LZ4`) marks an LZ4-block-compressed payload,
//! bits 8..16 name the filter the block's bytes went through *before*
//! LZ4: `0` none, else the element width (1, 2, 4, 8) plus `0x80` when the
//! elements were delta-coded. A filter makes a typed column compressible —
//! delta turns a sorted index into small numbers, the byte shuffle puts
//! their zero high bytes next to each other — and changes no length. A
//! block whose encoding would not be smaller than its input is stored
//! **raw** (no flag set, no filter): the incompressible-data escape. The
//! CRC-32 (IEEE) covers the *encoded* payload, so corruption is caught
//! before a decoder runs. A writer told nothing ([`Write`] alone) cuts
//! plain LZ4 blocks of [`BLOCK_BYTES`]; one told where typed sections start
//! ([`FrameWriter::begin_section`]) starts a block there and cuts that
//! section into filtered blocks of [`SEEK_BLOCK_BYTES`].
//!
//! **The logical stream is frozen.** Concatenating the decoded blocks gives
//! byte for byte what `compress = false` writes to a raw file, and readers
//! outside this workspace's control parse that stream by offset (chunk
//! header, then `dcsr_src`, then `dcsr_idx`). Everything this container
//! does — filters, block sizes, the directory — therefore sits *around* the
//! stream; a column coding that changes it needs those readers to move
//! first.
//!
//! **Reading.** [`BlockFile`] is the one reader. It takes the fixed-size
//! footer from the end of the file, then the end trailer and the directory
//! in front of it in one positioned read, checks all three (the footer's
//! CRC covers the directory and the footer's own counts), and from then on
//! fetches, checksums and decodes exactly the blocks that hold the logical
//! bytes it is asked for: single blocks for the engine's seek mode
//! ([`BlockFile::read_at`], which keeps the last two blocks of each column
//! it walks), whole columns for a chunk load ([`BlockFile::read_ranges`]),
//! and the stream from the front through [`Read`] (column 0's blocks, so
//! each block once). Sections start blocks, so a column is whole blocks,
//! and a column nobody decodes is never fetched. Every stored byte past
//! the magic is checked by whatever reads it: a block by its checksum and
//! the directory's lengths, the rest when the file is opened. A file that
//! does not start with the container magic is served byte for byte, so
//! `compress_chunks = false` keeps files byte-identical to the
//! uncompressed layout.
//!
//! **Versions.** The reader and the writer speak version 2 only. A
//! container of any other version — version 1 had neither filters nor a
//! directory — is refused with an error that names the file and says to
//! preprocess the graph again.
//!
//! The checksum is sliced eight bytes at a time and the LZ4 decoder copies
//! a word at a time; neither loops per byte.

use crate::disk::{NodeDisk, RandomFile};
use dfo_types::{DfoError, Result};
use std::io::{self, Read, Write};

/// First four bytes of a compressed chunk container ("DFOZ" once the
/// little-endian u32 is laid down, mirroring the chunk codec's "DFOC").
pub const FRAME_MAGIC: u32 = 0x4446_4F5A;
/// The one container format version this build writes and reads.
pub const FRAME_VERSION: u32 = 2;
/// Last four bytes of a version-2 container ("DFOD").
const FOOTER_MAGIC: u32 = 0x4446_4F44;
/// Uncompressed payload bytes per block of an untyped stream. 128 KiB
/// keeps header overhead < 0.02 % while bounding decode working memory.
pub const BLOCK_BYTES: usize = 128 << 10;
/// Uncompressed bytes per block of a typed section, and the span a
/// [`BlockFile`] fetches from a raw file: what one positioned read brings
/// in. Measured on the benchmark's graphs, 16 KiB blocks store 3 % more
/// than 128 KiB ones and decode as fast.
pub const SEEK_BLOCK_BYTES: usize = 16 << 10;
/// Most stored bytes one positioned read of [`BlockFile::read_ranges`]
/// brings in, so a load of whole columns holds at most this much of the
/// file at a time.
const SPAN_BYTES: u64 = 256 << 10;

/// Block flag: payload is an LZ4 block of `raw_len` decoded bytes.
const FLAG_LZ4: u32 = 1;
/// Block flag: end-of-stream trailer (zero lengths, no payload).
const FLAG_END: u32 = 2;
/// Block flag bits holding the [`Filter`] id.
const FILTER_SHIFT: u32 = 8;
const FLAG_FILTER: u32 = 0xff << FILTER_SHIFT;
/// Upper bound a reader accepts for either length field — far above any
/// block this writer produces, low enough to refuse absurd allocations
/// from a corrupt header.
const MAX_BLOCK: usize = 64 << 20;
/// An LZ4 block decodes to at most this many times its size (a match
/// extension byte stands for 255 output bytes), so a framed file of `n`
/// bytes holds fewer than `n × LZ4_MAX_RATIO` logical ones.
pub const LZ4_MAX_RATIO: u64 = 255;

const BLOCK_HEADER_BYTES: usize = 16;
const DIR_ENTRY_BYTES: usize = 16;
const FOOTER_BYTES: usize = 24;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// One bytewise step of the CRC register.
#[inline]
fn crc_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), eight input
/// bytes per step (slicing-by-8) with a bytewise tail.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_more(0, data)
}

/// The CRC-32 of `a ‖ data`, given `crc = crc32(a)`.
fn crc32_more(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = crc_step(c, b);
    }
    !c
}

fn corrupt(msg: impl Into<String>) -> DfoError {
    DfoError::Corrupt(msg.into())
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("four bytes"))
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("eight bytes"))
}

/// The reversible transform a block's bytes go through before LZ4, chosen
/// per typed section: the byte shuffle of `width`-byte elements (all first
/// bytes, then all second bytes, ...), after delta-coding them when the
/// column is monotone. Bytes past the last whole element pass unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Filter {
    /// Element width in bytes; `0` is the identity filter.
    width: u8,
    delta: bool,
}

type Kernel = fn(&[u8], &mut [u8]);

impl Filter {
    const NONE: Self = Self { width: 0, delta: false };

    /// The filter for a column of `width`-byte little-endian integers —
    /// [`Filter::NONE`] for widths it has no transform for. Delta-coding
    /// pays on `monotone` columns only (it *costs* on a `dst` column).
    fn for_column(width: usize, monotone: bool) -> Self {
        match width {
            1 if !monotone => Self::NONE,
            1 | 2 | 4 | 8 => Self { width: width as u8, delta: monotone },
            _ => Self::NONE,
        }
    }

    fn id(self) -> u32 {
        self.width as u32 | (self.delta as u32) << 7
    }

    fn from_id(id: u32) -> Option<Self> {
        let f = Self { width: (id & 0x7f) as u8, delta: id & 0x80 != 0 };
        (f == Self::NONE || matches!(f.width, 1 | 2 | 4 | 8)).then_some(f)
    }

    /// The transform and its inverse, both from `src` into a `dst` of the
    /// same length; `None` where the filter changes nothing.
    fn kernels(self) -> Option<(Kernel, Kernel)> {
        Some(match (self.width, self.delta) {
            (1, true) => (shuffle::<1, true>, unshuffle::<1, true>),
            (2, false) => (shuffle::<2, false>, unshuffle::<2, false>),
            (2, true) => (shuffle::<2, true>, unshuffle::<2, true>),
            (4, false) => (shuffle::<4, false>, unshuffle::<4, false>),
            (4, true) => (shuffle::<4, true>, unshuffle::<4, true>),
            (8, false) => (shuffle::<8, false>, unshuffle::<8, false>),
            (8, true) => (shuffle::<8, true>, unshuffle::<8, true>),
            _ => return None,
        })
    }

    /// Filters `src` into `dst` (same length).
    fn apply(self, src: &[u8], dst: &mut [u8]) {
        match self.kernels() {
            Some((apply, _)) => apply(src, dst),
            None => dst.copy_from_slice(src),
        }
    }

    /// Inverse of [`Filter::apply`].
    fn undo(self, src: &[u8], dst: &mut [u8]) {
        match self.kernels() {
            Some((_, undo)) => undo(src, dst),
            None => dst.copy_from_slice(src),
        }
    }
}

/// `dst[j·n + i]` = byte `j` of element `i` (of its difference to element
/// `i − 1` when `DELTA`; the first element's to zero). Arithmetic wraps at
/// the element width, so any input round-trips. A delta column is
/// differenced a stack block at a time, then shuffled plainly.
fn shuffle<const W: usize, const DELTA: bool>(src: &[u8], dst: &mut [u8]) {
    let n = src.len() / W;
    let (body, tail) = src.split_at(n * W);
    let (planes, dst_tail) = dst.split_at_mut(n * W);
    if DELTA {
        let (mut prev, mut diff) = (0u64, [0u8; DELTA_BLOCK]);
        for (k, block) in body.chunks(DELTA_BLOCK).enumerate() {
            let diff = &mut diff[..block.len()];
            for (d, e) in diff.chunks_exact_mut(W).zip(block.chunks_exact(W)) {
                let v = load::<W>(e);
                d.copy_from_slice(&v.wrapping_sub(prev).to_le_bytes()[..W]);
                prev = v;
            }
            shuffle_into::<W>(diff, planes, k * DELTA_BLOCK / W);
        }
    } else {
        shuffle_into::<W>(body, planes, 0);
    }
    dst_tail.copy_from_slice(tail);
}

/// Inverse of [`shuffle`]: the plain unshuffle, then a running sum for a
/// delta column (the carry past the element width is never stored).
fn unshuffle<const W: usize, const DELTA: bool>(src: &[u8], dst: &mut [u8]) {
    let n = src.len() / W;
    let (planes, tail) = src.split_at(n * W);
    let (body, dst_tail) = dst.split_at_mut(n * W);
    unshuffle_from::<W>(planes, body);
    if DELTA {
        let mut sum = 0u64;
        for e in body.chunks_exact_mut(W) {
            sum = sum.wrapping_add(load::<W>(e));
            e.copy_from_slice(&sum.to_le_bytes()[..W]);
        }
    }
    dst_tail.copy_from_slice(tail);
}

/// Bytes a delta column is differenced in before its shuffle: a multiple
/// of every width and of a 64-byte transpose block.
const DELTA_BLOCK: usize = 4096;

/// A `W`-byte little-endian element, zero-extended.
#[inline(always)]
fn load<const W: usize>(e: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..W].copy_from_slice(e);
    u64::from_le_bytes(w)
}

/// Shuffles the whole elements of `elems` into `planes` (`W` planes of
/// `planes.len() / W` bytes) as elements `at..`. Eight `u64` elements go
/// at a time through an 8 × 8 byte transpose; narrower ones, and the tail,
/// byte by byte.
#[inline(always)]
fn shuffle_into<const W: usize>(elems: &[u8], planes: &mut [u8], at: usize) {
    let n = planes.len() / W;
    let mut blocks = elems.chunks_exact(64);
    let mut i = at;
    if W == 8 {
        for block in &mut blocks {
            let mut rows = [0u64; 8];
            for (row, e) in rows.iter_mut().zip(block.chunks_exact(8)) {
                *row = u64::from_le_bytes(e.try_into().expect("eight bytes"));
            }
            transpose8(&mut rows);
            for (j, row) in rows.iter().enumerate() {
                planes[j * n + i..j * n + i + 8].copy_from_slice(&row.to_le_bytes());
            }
            i += 8;
        }
    }
    let rest = if W == 8 { blocks.remainder() } else { elems };
    for (k, e) in rest.chunks_exact(W).enumerate() {
        let v = load::<W>(e);
        for j in 0..W {
            planes[j * n + i + k] = (v >> (8 * j)) as u8;
        }
    }
}

/// Inverse of [`shuffle_into`] for a whole column: `planes` into `elems`.
#[inline(always)]
fn unshuffle_from<const W: usize>(planes: &[u8], elems: &mut [u8]) {
    let n = planes.len() / W;
    let mut blocks = elems.chunks_exact_mut(64);
    let mut i = 0;
    if W == 8 {
        for block in &mut blocks {
            let mut rows = [0u64; 8];
            for (j, row) in rows.iter_mut().enumerate() {
                *row = le_u64(planes, j * n + i);
            }
            transpose8(&mut rows);
            for (row, e) in rows.iter().zip(block.chunks_exact_mut(8)) {
                e.copy_from_slice(&row.to_le_bytes());
            }
            i += 8;
        }
    }
    let rest = if W == 8 { blocks.into_remainder() } else { elems };
    for (k, e) in rest.chunks_exact_mut(W).enumerate() {
        let mut v = 0u64;
        for j in 0..W {
            v |= (planes[j * n + i + k] as u64) << (8 * j);
        }
        e.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

/// Transposes an 8 × 8 byte matrix held as eight little-endian rows: byte
/// `c` of row `r` trades places with byte `r` of row `c`. Three rounds swap
/// the off-diagonal 4 × 4, 2 × 2 and 1 × 1 blocks, written out so that
/// every shift and mask is a constant.
#[inline(always)]
fn transpose8(x: &mut [u64; 8]) {
    #[inline(always)]
    fn swap(x: &mut [u64; 8], r: usize, s: usize, keep: u64) {
        let t = ((x[r] >> (8 * s)) ^ x[r + s]) & keep;
        x[r + s] ^= t;
        x[r] ^= t << (8 * s);
    }
    const K4: u64 = 0x0000_0000_FFFF_FFFF;
    const K2: u64 = 0x0000_FFFF_0000_FFFF;
    const K1: u64 = 0x00FF_00FF_00FF_00FF;
    swap(x, 0, 4, K4);
    swap(x, 1, 4, K4);
    swap(x, 2, 4, K4);
    swap(x, 3, 4, K4);
    swap(x, 0, 2, K2);
    swap(x, 1, 2, K2);
    swap(x, 4, 2, K2);
    swap(x, 5, 2, K2);
    swap(x, 0, 1, K1);
    swap(x, 2, 1, K1);
    swap(x, 4, 1, K1);
    swap(x, 6, 1, K1);
}

/// Bytes of a column's byte plane LZ4 is tried on first: a plane whose
/// sample does not shrink — the low bytes of floating-point numbers, say —
/// is stored as it is, and the match finder never runs over the rest of it.
const PLANE_SAMPLE: usize = 1 << 10;
/// Bit 63 of a plane's length word: the plane is LZ4-coded.
const PLANE_LZ4: u64 = 1 << 63;

/// The wire form of one typed column — a frame's message payloads, an
/// exchanged vector. Its `width`-byte elements are byte-shuffled as a typed
/// section's blocks are (widths 2, 4 and 8; other columns are one plane),
/// and each byte plane follows as a `u64` length word, with bit 63 set
/// when LZ4 shrank the plane, then its bytes: LZ4-coded, or as they are.
/// Keeps the match table and the buffers across columns, so a sender
/// packing many of them allocates nothing per column.
#[derive(Default)]
pub struct ColumnCodec {
    table: lz4_flex::HashTable,
    filtered: Vec<u8>,
    plane: Vec<u8>,
}

impl ColumnCodec {
    /// Appends the packed `column` to `out`.
    pub fn pack(&mut self, width: usize, column: &[u8], out: &mut Vec<u8>) {
        let filter = Filter::for_column(width, false);
        self.filtered.resize(column.len(), 0);
        filter.apply(column, &mut self.filtered);
        for plane in self.filtered.chunks((column.len() / filter.width.max(1) as usize).max(1)) {
            // one LZ4 block addresses less than 4 GiB
            let sample = &plane[..plane.len().min(PLANE_SAMPLE)];
            let lz4 = plane.len() >> 32 == 0
                && [sample, plane].iter().all(|bytes| {
                    lz4_flex::compress_with_table(bytes, &mut self.table, &mut self.plane);
                    self.plane.len() < bytes.len()
                });
            let (body, flag) = if lz4 { (&self.plane[..], PLANE_LZ4) } else { (plane, 0) };
            out.extend_from_slice(&(body.len() as u64 | flag).to_le_bytes());
            out.extend_from_slice(body);
        }
    }

    /// Inverse of [`ColumnCodec::pack`]: decodes `packed` into `dst`, which
    /// it must fill exactly, or says why not.
    pub fn unpack(&mut self, width: usize, packed: &[u8], dst: &mut [u8]) -> io::Result<()> {
        let filter = Filter::for_column(width, false);
        self.filtered.resize(dst.len(), 0);
        let mut rest = packed;
        for plane in self.filtered.chunks_mut((dst.len() / filter.width.max(1) as usize).max(1)) {
            let word = rest.first_chunk().map_or(0, |w| u64::from_le_bytes(*w));
            let len = (word & !PLANE_LZ4) as usize;
            let body = rest.get(8..).and_then(|r| r.get(..len)).unwrap_or_default();
            let whole = match word & PLANE_LZ4 {
                0 => (body.len() == plane.len()).then(|| plane.copy_from_slice(body)).is_some(),
                _ => lz4_flex::decompress_into(body, plane) == Ok(plane.len()),
            };
            if !whole {
                let what = format!("malformed {}-byte packed column", packed.len());
                return Err(io::Error::new(io::ErrorKind::InvalidData, what));
            }
            rest = &rest[8 + len..];
        }
        if !rest.is_empty() {
            let what = format!("{} bytes past a packed column", rest.len());
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        filter.undo(&self.filtered, dst);
        Ok(())
    }
}

/// Block-compressing writer (or transparent passthrough with
/// `compress = false`, producing byte-identical plain files).
///
/// Buffers up to a block of payload, then writes one checksummed block —
/// filtered and LZ4-coded if that is smaller, raw otherwise.
/// [`FrameWriter::finish`] flushes the final partial block, the end
/// trailer, the block directory and the footer, and returns the inner
/// writer for the caller to close.
pub struct FrameWriter<W: Write> {
    inner: W,
    compress: bool,
    buf: Vec<u8>,
    /// Raw bytes per block and the filter of the section being written.
    block_cap: usize,
    filter: Filter,
    filtered: Vec<u8>,
    encoded: Vec<u8>,
    table: lz4_flex::HashTable,
    /// `(logical offset, file offset)` of every block written.
    dir: Vec<(u64, u64)>,
    logical_pos: u64,
    file_pos: u64,
    logical_to: Option<NodeDisk>,
}

impl<W: Write> FrameWriter<W> {
    /// Starts a frame stream on `inner`; in compress mode the container
    /// header is written immediately.
    pub fn new(mut inner: W, compress: bool) -> Result<Self> {
        if compress {
            inner
                .write_all(&FRAME_MAGIC.to_le_bytes())
                .and_then(|()| inner.write_all(&FRAME_VERSION.to_le_bytes()))
                .map_err(|e| DfoError::io("writing frame container header", e))?;
        }
        Ok(Self {
            inner,
            compress,
            buf: Vec::new(),
            block_cap: BLOCK_BYTES,
            filter: Filter::NONE,
            filtered: Vec::new(),
            encoded: Vec::new(),
            table: lz4_flex::HashTable::new(),
            dir: Vec::new(),
            logical_pos: 0,
            file_pos: 8,
            logical_to: None,
        })
    }

    /// Routes logical-byte accounting to `disk` (the physical side is
    /// accounted below this writer, at the device layer).
    pub(crate) fn account_logical_to(&mut self, disk: NodeDisk) {
        self.logical_to = Some(disk);
    }

    /// Says that what is written from here on is a column of
    /// `elem_bytes`-wide little-endian integers, `monotone` or not: the
    /// column starts a block of its own and is cut into
    /// [`SEEK_BLOCK_BYTES`] blocks behind the filter that suits it.
    /// The logical stream does not change; a passthrough writer ignores
    /// the call.
    pub fn begin_section(&mut self, elem_bytes: usize, monotone: bool) -> Result<()> {
        if self.compress {
            self.flush_buf().map_err(|e| DfoError::io("writing a chunk frame block", e))?;
            self.filter = Filter::for_column(elem_bytes, monotone);
            self.block_cap = SEEK_BLOCK_BYTES;
        }
        Ok(())
    }

    /// Writes `raw` as one block.
    fn write_block(&mut self, raw: &[u8]) -> io::Result<()> {
        let t0 = std::time::Instant::now();
        let plain: &[u8] = if self.filter == Filter::NONE {
            raw
        } else {
            self.filtered.resize(raw.len(), 0);
            self.filter.apply(raw, &mut self.filtered);
            &self.filtered
        };
        lz4_flex::compress_with_table(plain, &mut self.table, &mut self.encoded);
        if let Some(disk) = &self.logical_to {
            disk.add_encode_nanos(t0.elapsed().as_nanos() as u64);
        }
        let (flags, payload): (u32, &[u8]) = if self.encoded.len() < raw.len() {
            (FLAG_LZ4 | self.filter.id() << FILTER_SHIFT, &self.encoded)
        } else {
            (0, raw)
        };
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        header[0..4].copy_from_slice(&(raw.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&flags.to_le_bytes());
        let crc = crc32_more(crc32(&header[..12]), payload);
        header[12..16].copy_from_slice(&crc.to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(payload)?;
        self.dir.push((self.logical_pos, self.file_pos));
        self.logical_pos += raw.len() as u64;
        self.file_pos += (BLOCK_HEADER_BYTES + payload.len()) as u64;
        Ok(())
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let buf = std::mem::take(&mut self.buf);
        let done = self.write_block(&buf);
        self.buf = buf;
        self.buf.clear();
        done
    }

    /// Flushes the last partial block, the end trailer, the directory and
    /// the footer and hands the inner writer back. Compressed streams not
    /// closed through here are truncated (readers will say so).
    pub fn finish(mut self) -> Result<W> {
        let io = |e| DfoError::io("finishing frame stream", e);
        if self.compress {
            self.flush_buf().map_err(io)?;
            let mut tail = vec![0u8; BLOCK_HEADER_BYTES];
            tail[8..12].copy_from_slice(&FLAG_END.to_le_bytes());
            for (logical, file) in &self.dir {
                tail.extend_from_slice(&logical.to_le_bytes());
                tail.extend_from_slice(&file.to_le_bytes());
            }
            tail.extend_from_slice(&(self.dir.len() as u64).to_le_bytes());
            tail.extend_from_slice(&self.logical_pos.to_le_bytes());
            let crc = crc32(&tail[BLOCK_HEADER_BYTES..]);
            tail.extend_from_slice(&crc.to_le_bytes());
            tail.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
            self.inner.write_all(&tail).map_err(io)?;
        }
        self.inner.flush().map_err(io)?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if !self.compress {
            return self.inner.write(data);
        }
        if let Some(disk) = &self.logical_to {
            disk.add_logical_write(data.len() as u64);
        }
        let mut rest = data;
        while !rest.is_empty() {
            if self.buf.is_empty() && rest.len() >= self.block_cap {
                // a whole block at hand: no need to copy it first
                let (block, tail) = rest.split_at(self.block_cap);
                self.write_block(block)?;
                rest = tail;
                continue;
            }
            let take = (self.block_cap - self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == self.block_cap {
                self.flush_buf()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.compress {
            self.flush_buf()?;
        }
        self.inner.flush()
    }
}

/// A validated block header (the end trailer is `None` to its reader).
struct BlockHeader {
    raw_len: usize,
    enc_len: usize,
    lz4: bool,
    filter: Filter,
    /// What the checksum of the payload must continue from and come to:
    /// the header's lengths and flags are checksummed with the payload
    /// (nothing else would notice a flipped filter id).
    crc_seed: u32,
    crc: u32,
}

/// Parses and validates a block header; `None` is the end trailer.
fn parse_header(header: &[u8]) -> Result<Option<BlockHeader>> {
    let (raw_len, enc_len) = (le_u32(header, 0) as usize, le_u32(header, 4) as usize);
    let (flags, crc) = (le_u32(header, 8), le_u32(header, 12));
    if flags & FLAG_END != 0 {
        if raw_len != 0 || enc_len != 0 || flags != FLAG_END || crc != 0 {
            return Err(corrupt("malformed end trailer"));
        }
        return Ok(None);
    }
    if raw_len == 0 || raw_len > MAX_BLOCK || enc_len == 0 || enc_len > MAX_BLOCK {
        return Err(corrupt(format!("implausible block lengths raw={raw_len} enc={enc_len}")));
    }
    let lz4 = flags & FLAG_LZ4 != 0;
    let filter = Filter::from_id((flags & FLAG_FILTER) >> FILTER_SHIFT)
        .filter(|_| flags & !(FLAG_LZ4 | FLAG_FILTER) == 0)
        .ok_or_else(|| corrupt(format!("unknown block flags {flags:#x}")))?;
    // a block that did not shrink is stored as it came: same length, no filter
    if !lz4 && (enc_len != raw_len || filter != Filter::NONE) {
        return Err(corrupt("malformed raw block"));
    }
    let crc_seed = crc32(&header[..12]);
    Ok(Some(BlockHeader { raw_len, enc_len, lz4, filter, crc_seed, crc }))
}

/// Positioned reads of a chunk file's *logical* bytes, whichever way the
/// file is stored: pieces of columns for the §4.1 seek mode
/// ([`BlockFile::read_at`]), whole columns for a full load
/// ([`BlockFile::read_ranges`]), the stream from the front through
/// [`Read`]. A version-2 container is read by block: the directory names
/// the blocks that hold an offset, positioned reads fetch them, and each is
/// checksummed, LZ4-decoded and un-filtered like any other. For `read_at` a
/// raw file is read in aligned [`SEEK_BLOCK_BYTES`] spans, and the caller
/// names one of its `columns` per read — one per column it walks. Each
/// column keeps the last two blocks it took (`WAYS`), so a run of
/// neighbouring offsets costs one fetch per column, and so does a frontier
/// that goes back and forth between two blocks of a column (a hub's edges
/// end in one, its neighbours' start in the next).
pub struct BlockFile {
    file: RandomFile,
    disk: NodeDisk,
    rel: String,
    /// `(logical offset, file offset)` per block plus one closing entry at
    /// `(logical_len, offset of the end trailer)`; `None` for a raw file.
    dir: Option<Vec<(u64, u64)>>,
    logical_len: u64,
    /// Where the next [`Read::read`] starts.
    pos: u64,
    /// Per column, most recent first: logical offset and bytes of a block.
    columns: Vec<[(u64, Vec<u8>); WAYS]>,
    payload: Vec<u8>,
    filtered: Vec<u8>,
}

/// Blocks each column of a [`BlockFile`] keeps for [`BlockFile::read_at`].
/// A column's most recent block is the one a cache of a single block per
/// column would hold, so a seek never fetches a block that cache would
/// have kept. Two are what a hub and its neighbours on either side of a
/// block boundary need; more kept no further fetch on the benchmark's
/// graphs.
const WAYS: usize = 2;

/// Refuses a container of another version than [`FRAME_VERSION`], naming
/// the file `what`.
fn check_version(version: u32, what: &str) -> Result<()> {
    if version == FRAME_VERSION {
        return Ok(());
    }
    Err(corrupt(format!(
        "{what} is a version-{version} frame container; this build reads version \
         {FRAME_VERSION} only: preprocess the graph again"
    )))
}

impl BlockFile {
    /// Opens `rel` read-only for positioned reads through `columns` columns
    /// of two cached blocks each ([`Read`] takes column 0).
    pub fn open(disk: &NodeDisk, rel: &str, columns: usize) -> Result<Self> {
        let mut file = disk.open_random(rel)?;
        file.count_logical = false;
        let file_len = file.len()?;
        let mut head = [0u8; 8];
        if file_len >= 8 {
            file.read_at(&mut head, 0)?;
        }
        let dir = if le_u32(&head, 0) != FRAME_MAGIC {
            None
        } else {
            check_version(le_u32(&head, 4), rel)?;
            Some(read_directory(&file, file_len)?)
        };
        Ok(Self {
            logical_len: dir.as_ref().map_or(file_len, |d| d[d.len() - 1].0),
            file,
            disk: disk.clone(),
            rel: rel.to_owned(),
            dir,
            pos: 0,
            columns: vec![Default::default(); columns],
            payload: Vec::new(),
            filtered: Vec::new(),
        })
    }

    /// The disk-relative path this file was opened from.
    pub fn rel(&self) -> &str {
        &self.rel
    }

    /// Length of the logical stream — exact, from the footer or the file.
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Refuses `len` bytes at `off` unless the logical stream holds them.
    fn check_inside(&self, off: u64, len: usize) -> Result<()> {
        if off.checked_add(len as u64).is_none_or(|end| end > self.logical_len) {
            let stream = self.logical_len;
            return Err(corrupt(format!(
                "{len} bytes at {off} lie outside a {stream}-byte stream"
            )));
        }
        Ok(())
    }

    /// Fills `buf` with the logical bytes at `off`, through `column`.
    pub fn read_at(&mut self, column: usize, mut buf: &mut [u8], mut off: u64) -> Result<()> {
        self.check_inside(off, buf.len())?;
        while !buf.is_empty() {
            // any column's block will do (the columns of a small raw file
            // share a span). A hit on a column's most recent block changes
            // nothing; one on an older block makes it the caller's most
            // recent, and a miss replaces the caller's least recent — so a
            // column's most recent block is always the one a cache of one
            // block per column would hold
            let holds = |(start, bytes): &(u64, Vec<u8>)| {
                *start <= off && off < *start + bytes.len() as u64
            };
            let mut held = self.columns.iter().enumerate();
            let found = held.find_map(|(c, ways)| Some((c, ways.iter().position(holds)?)));
            let (mut c, mut way) = match found {
                Some(hit) => hit,
                None => {
                    self.fetch(column, off)?;
                    (column, WAYS - 1)
                }
            };
            if way > 0 {
                if c != column {
                    // the caller's least recent block takes its place
                    let taken = std::mem::take(&mut self.columns[c][way]);
                    self.columns[c][way] =
                        std::mem::replace(&mut self.columns[column][WAYS - 1], taken);
                    (c, way) = (column, WAYS - 1);
                }
                self.columns[c][..=way].rotate_right(1);
            }
            let (start, bytes) = &self.columns[c][0];
            let at = (off - start) as usize;
            let (head, rest) = buf.split_at_mut((bytes.len() - at).min(buf.len()));
            head.copy_from_slice(&bytes[at..at + head.len()]);
            off += head.len() as u64;
            buf = rest;
        }
        Ok(())
    }

    /// Puts the block holding logical offset `off` (inside the stream) in
    /// place of `column`'s least recent block; a failed fetch leaves that
    /// way empty.
    fn fetch(&mut self, column: usize, off: u64) -> Result<()> {
        let mut bytes = std::mem::take(&mut self.columns[column][WAYS - 1].1);
        let start = match &self.dir {
            None => {
                let span = SEEK_BLOCK_BYTES as u64;
                let start = off / span * span;
                bytes.resize(span.min(self.logical_len - start) as usize, 0);
                self.file.read_at(&mut bytes, start)?;
                start
            }
            Some(dir) => {
                let k = dir.partition_point(|e| e.0 <= off) - 1;
                let ((start, file_at), (end, file_end)) = (dir[k], dir[k + 1]);
                self.payload.resize((file_end - file_at) as usize, 0);
                self.file.read_at(&mut self.payload, file_at)?;
                let t0 = std::time::Instant::now();
                bytes.resize((end - start) as usize, 0);
                decode_stored(k, &self.payload, &mut self.filtered, &mut bytes)?;
                self.disk.add_decode_nanos(t0.elapsed().as_nanos() as u64);
                start
            }
        };
        self.disk.add_logical_read(bytes.len() as u64);
        self.columns[column][WAYS - 1] = (start, bytes);
        Ok(())
    }

    /// Fills every `(offset, buf)` of `ranges` — ascending, none reaching into
    /// the next — with the logical bytes at `offset`, past the cached blocks:
    /// what a load of whole columns needs. A raw file serves each range with
    /// one positioned read of exactly its bytes. A container fetches each block
    /// the ranges touch once, a run of blocks that lie next to each other in
    /// the file in as few positioned reads of at most 256 KiB (`SPAN_BYTES`) as
    /// it takes, checks each block against its checksum and the directory, and
    /// decodes it straight into the range that holds it — through a block
    /// buffer only where a range starts or ends inside it. Logical bytes
    /// counted are the bytes served.
    pub fn read_ranges(&mut self, ranges: &mut [(u64, &mut [u8])]) -> Result<()> {
        let mut served = 0;
        for (i, (off, buf)) in ranges.iter().enumerate() {
            self.check_inside(*off, buf.len())?;
            assert!(i == 0 || ranges[i - 1].0 + ranges[i - 1].1.len() as u64 <= *off);
            served += buf.len() as u64;
        }
        let Self { file, disk, dir, payload, filtered, .. } = self;
        let Some(dir) = dir else {
            for (off, buf) in ranges.iter_mut().filter(|r| !r.1.is_empty()) {
                file.read_at(buf, *off)?;
            }
            disk.add_logical_read(served);
            return Ok(());
        };
        // the blocks the ranges touch, in file order, each once
        let mut blocks: Vec<usize> = Vec::new();
        for (off, buf) in ranges.iter().filter(|r| !r.1.is_empty()) {
            let first = dir.partition_point(|e| e.0 <= *off) - 1;
            let last = dir.partition_point(|e| e.0 < *off + buf.len() as u64) - 1;
            let from = blocks.last().map_or(first, |&b| first.max(b + 1));
            blocks.extend(from..=last);
        }
        let (mut block, mut next) = (Vec::new(), 0);
        for run in blocks.chunk_by(|a, b| a + 1 == *b) {
            let mut run = run;
            while let Some(&first) = run.first() {
                // the longest prefix of the run that fits one read (one
                // block at least)
                let file_at = dir[first].1;
                let fits =
                    run.iter().skip(1).take_while(|&&k| dir[k + 1].1 - file_at <= SPAN_BYTES);
                let (span, rest) = run.split_at(1 + fits.count());
                run = rest;
                payload.resize((dir[span[span.len() - 1] + 1].1 - file_at) as usize, 0);
                file.read_at(payload, file_at)?;
                let t0 = std::time::Instant::now();
                for &k in span {
                    let ((lo, stored_at), (hi, stored_end)) = (dir[k], dir[k + 1]);
                    let stored =
                        &payload[(stored_at - file_at) as usize..(stored_end - file_at) as usize];
                    // ranges wholly before this block are served
                    while ranges[next].0 + (ranges[next].1.len() as u64) <= lo {
                        next += 1;
                    }
                    let (off, buf) = &mut ranges[next];
                    if *off <= lo && hi <= *off + buf.len() as u64 {
                        let at = (lo - *off) as usize;
                        decode_stored(k, stored, filtered, &mut buf[at..at + (hi - lo) as usize])?;
                        continue;
                    }
                    block.resize((hi - lo) as usize, 0);
                    decode_stored(k, stored, filtered, &mut block)?;
                    for (off, buf) in ranges[next..].iter_mut().take_while(|r| r.0 < hi) {
                        let (from, to) = ((*off).max(lo), (*off + buf.len() as u64).min(hi));
                        if from < to {
                            let dst = &mut buf[(from - *off) as usize..(to - *off) as usize];
                            dst.copy_from_slice(&block[(from - lo) as usize..(to - lo) as usize]);
                        }
                    }
                }
                disk.add_decode_nanos(t0.elapsed().as_nanos() as u64);
            }
        }
        disk.add_logical_read(served);
        Ok(())
    }
}

/// Checks block `k` of a container — `stored`, its header and payload as
/// the directory places them — against the directory's lengths and then
/// its checksum, before any decoder runs, and decodes it into `dst`, the
/// logical bytes the directory gives it: a raw block as it is, an LZ4 one
/// through `filtered` when the block went through a filter.
fn decode_stored(k: usize, stored: &[u8], filtered: &mut Vec<u8>, dst: &mut [u8]) -> Result<()> {
    let (header, encoded) = stored.split_at(BLOCK_HEADER_BYTES);
    let h = parse_header(header)?.filter(|h| h.raw_len == dst.len() && h.enc_len == encoded.len());
    let h = h.ok_or_else(|| corrupt(format!("block {k} disagrees with the directory")))?;
    if crc32_more(h.crc_seed, encoded) != h.crc {
        return Err(corrupt("block checksum mismatch"));
    }
    if !h.lz4 {
        dst.copy_from_slice(encoded);
        return Ok(());
    }
    let unfiltered = h.filter == Filter::NONE;
    if !unfiltered {
        filtered.resize(h.raw_len, 0);
    }
    let n = lz4_flex::decompress_into(encoded, if unfiltered { &mut *dst } else { filtered })
        .map_err(|e| corrupt(format!("block decode failed: {e}")))?;
    if n != h.raw_len {
        return Err(corrupt(format!("block decoded to {n} bytes, header says {}", h.raw_len)));
    }
    if !unfiltered {
        h.filter.undo(filtered, dst);
    }
    Ok(())
}

/// Reads and checks what follows the blocks of the version-2 container
/// `file`: the footer (its magic, and its checksum over the directory and
/// its own counts), then the end trailer and the directory in one
/// positioned read — every entry ahead of the next in both offsets, every
/// block of a plausible size and inside the file. Returns the directory
/// with its closing entry.
fn read_directory(file: &RandomFile, file_len: u64) -> Result<Vec<(u64, u64)>> {
    let truncated = || corrupt("compressed stream truncated: no footer");
    let fixed = (8 + BLOCK_HEADER_BYTES + FOOTER_BYTES) as u64;
    let room = file_len.checked_sub(fixed).ok_or_else(truncated)?;
    let mut footer = [0u8; FOOTER_BYTES];
    file.read_at(&mut footer, file_len - FOOTER_BYTES as u64)?;
    let dir_bytes = le_u64(&footer, 0)
        .checked_mul(DIR_ENTRY_BYTES as u64)
        .filter(|&n| n <= room && le_u32(&footer, 20) == FOOTER_MAGIC)
        .ok_or_else(truncated)?;
    let trailer_at = 8 + room - dir_bytes;
    let mut tail = vec![0u8; BLOCK_HEADER_BYTES + dir_bytes as usize];
    file.read_at(&mut tail, trailer_at)?;
    let (trailer, entries) = tail.split_at(BLOCK_HEADER_BYTES);
    if parse_header(trailer)?.is_some() {
        return Err(corrupt("compressed stream truncated: no end trailer"));
    }
    if crc32_more(crc32(entries), &footer[..16]) != le_u32(&footer, 16) {
        return Err(corrupt("block directory checksum mismatch"));
    }
    let mut dir: Vec<(u64, u64)> =
        entries.chunks_exact(DIR_ENTRY_BYTES).map(|e| (le_u64(e, 0), le_u64(e, 8))).collect();
    dir.push((le_u64(&footer, 8), trailer_at));
    let sane = dir[0] == (0, 8)
        && dir.windows(2).all(|w| {
            let (logical, stored) = (w[1].0.wrapping_sub(w[0].0), w[1].1.wrapping_sub(w[0].1));
            w[0].0 < w[1].0
                && w[0].1 < w[1].1
                && logical <= MAX_BLOCK as u64
                && stored > BLOCK_HEADER_BYTES as u64
                && stored <= (MAX_BLOCK + BLOCK_HEADER_BYTES) as u64
        });
    sane.then_some(dir).ok_or_else(|| corrupt("malformed block directory"))
}

/// Serves the logical stream from the front, through column 0's blocks
/// (what [`NodeDisk::open_framed`] opens): a read to the end fetches each
/// stored block once, whatever the caller's buffer size. A `Corrupt` file
/// is an [`io::ErrorKind::InvalidData`] error.
impl Read for BlockFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (buf.len() as u64).min(self.logical_len - self.pos) as usize;
        self.read_at(0, &mut buf[..n], self.pos).map_err(|e| {
            let kind = match &e {
                DfoError::Corrupt(_) => io::ErrorKind::InvalidData,
                DfoError::Io { source, .. } => source.kind(),
                _ => io::ErrorKind::Other,
            };
            io::Error::new(kind, e.to_string())
        })?;
        self.pos += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{proptest, ProptestConfig, Strategy};

    /// Bytes that follow the last block of a container of `n_blocks`: end
    /// trailer, directory, footer.
    fn tail_bytes(n_blocks: usize) -> usize {
        BLOCK_HEADER_BYTES + n_blocks * DIR_ENTRY_BYTES + FOOTER_BYTES
    }

    fn compress_frames(data: &[u8]) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), true).unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap()
    }

    /// Stores `file` on a disk of its own and reads it to the end through
    /// [`NodeDisk::open_framed`], `cap` bytes at a time.
    fn read_through(file: &[u8], cap: usize) -> std::result::Result<Vec<u8>, String> {
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        std::fs::write(td.path().join("f.bin"), file).unwrap();
        let mut r = disk.open_framed("f.bin").map_err(|e| e.to_string())?;
        drain(&mut r, cap).map_err(|e| e.to_string())
    }

    fn decode_all(frames: &[u8]) -> std::result::Result<Vec<u8>, String> {
        read_through(frames, 64 << 10)
    }

    fn byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|v| v as u8)
    }

    /// xorshift noise: incompressible, so blocks of it are stored raw.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Compressible blocks, then raw ones, then a compressible partial one:
    /// every kind of block the reader meets, across several boundaries.
    fn mixed_payload() -> Vec<u8> {
        let mut data: Vec<u8> = (0..2 * BLOCK_BYTES + 777).map(|i| ((i / 5) % 239) as u8).collect();
        data.extend(noise(2 * BLOCK_BYTES));
        data.extend((0..BLOCK_BYTES / 3).map(|i| (i % 17) as u8));
        data
    }

    /// Reads the rest of `r` through a caller buffer of `cap` bytes.
    fn drain(r: &mut impl Read, cap: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; cap];
        let mut out = Vec::new();
        loop {
            match r.read(&mut buf)? {
                0 => return Ok(out),
                n => out.extend_from_slice(&buf[..n]),
            }
        }
    }

    /// The bytewise loop `crc32` was before slicing-by-8, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| crc_step(c, b))
    }

    #[test]
    fn crc32_known_vectors() {
        // the standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // what the bytewise loop of the commit before slicing-by-8 returned
        assert_eq!(crc32(b"parent-written"), 0xFF73_4E7C);
    }

    #[test]
    fn crc32_slicing_matches_bytewise_at_every_short_length() {
        let data = noise(64 + 7);
        for start in 0..8 {
            for len in 0..=64 {
                let d = &data[start..start + len];
                assert_eq!(crc32(d), crc32_bytewise(d), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_empty_and_small() {
        for data in [&b""[..], b"x", b"hello dfograph", &[0u8; 1000][..]] {
            assert_eq!(decode_all(&compress_frames(data)).unwrap(), data);
        }
    }

    #[test]
    fn roundtrip_multi_block() {
        let data: Vec<u8> = (0..(3 * BLOCK_BYTES + 12345))
            .map(|i| ((i / 7) % 251) as u8) // compressible structure
            .collect();
        let frames = compress_frames(&data);
        assert!(frames.len() < data.len(), "{} vs {}", frames.len(), data.len());
        assert_eq!(decode_all(&frames).unwrap(), data);
    }

    #[test]
    fn incompressible_blocks_stored_raw_with_bounded_overhead() {
        let mut x = 0x853c49e6748fea9bu64;
        let data: Vec<u8> = (0..2 * BLOCK_BYTES)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let frames = compress_frames(&data);
        // container 8 B + 2 block headers + what follows the blocks: noise
        // must not inflate beyond the framing overhead
        assert!(frames.len() <= data.len() + 8 + 2 * BLOCK_HEADER_BYTES + tail_bytes(2));
        assert_eq!(decode_all(&frames).unwrap(), data);
    }

    #[test]
    fn passthrough_serves_raw_files_byte_identical() {
        for data in [&b""[..], b"ab", b"DFOC and then some", &[7u8; 5000][..]] {
            assert_eq!(decode_all(data).unwrap(), data);
        }
    }

    #[test]
    fn passthrough_writer_is_identity() {
        let mut w = FrameWriter::new(Vec::new(), false).unwrap();
        w.write_all(b"plain bytes").unwrap();
        assert_eq!(w.finish().unwrap(), b"plain bytes");
    }

    #[test]
    fn every_caller_buffer_size_serves_the_same_bytes_and_logical_count() {
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let data = mixed_payload();
        let mut w = disk.create_framed("mixed.bin", true).unwrap();
        w.write_all(&data).unwrap();
        w.finish().unwrap().finish().unwrap();
        // what opening costs — head, footer, end trailer and directory —
        // and then each stored block once: a reader that fetched a block
        // again where a caller's buffer ends inside it would read more
        let dir = BlockFile::open(&disk, "mixed.bin", 1).unwrap().dir.unwrap();
        let n_blocks = dir.len() - 1;
        let framing = 8 + FOOTER_BYTES + BLOCK_HEADER_BYTES + n_blocks * DIR_ENTRY_BYTES;
        let blocks: u64 = dir.windows(2).map(|w| w[1].1 - w[0].1).sum();
        let stats = disk.stats();
        for cap in [1, 7, 4096, BLOCK_BYTES, 1 << 20] {
            let (logical0, read0) = (stats.logical_read_bytes.get(), stats.read_bytes.get());
            let mut r = disk.open_framed("mixed.bin").unwrap();
            assert!(drain(&mut r, cap).unwrap() == data, "bytes differ at buffer size {cap}");
            let served = stats.logical_read_bytes.get() - logical0;
            assert_eq!(served, data.len() as u64, "logical bytes at buffer size {cap}");
            let read = stats.read_bytes.get() - read0;
            assert_eq!(read, framing as u64 + blocks, "physical bytes at buffer size {cap}");
        }
        assert_eq!(framing as u64 + blocks, disk.len("mixed.bin").unwrap(), "the whole file");
    }

    #[test]
    fn raw_blocks_are_charged_decode_time_too() {
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let mut w = disk.create_framed("noise.bin", true).unwrap();
        w.write_all(&noise(2 * BLOCK_BYTES)).unwrap();
        w.finish().unwrap().finish().unwrap();
        // every block is stored raw: nothing below is LZ4 time
        assert!(disk.len("noise.bin").unwrap() > 2 * BLOCK_BYTES as u64);
        for cap in [4096, 1 << 20] {
            let before = disk.stats().decode_nanos.get();
            drain(&mut disk.open_framed("noise.bin").unwrap(), cap).unwrap();
            assert!(
                disk.stats().decode_nanos.get() > before,
                "checksumming raw blocks went uncharged at buffer size {cap}"
            );
        }
    }

    #[test]
    fn direct_decode_still_checks_checksums_and_truncation() {
        // a caller buffer larger than any block: every read spans several
        // blocks, LZ4 (first) and raw (fourth)
        let data = mixed_payload();
        let frames = compress_frames(&data);
        let read_big = |frames: &[u8]| read_through(frames, 1 << 20);
        assert!(read_big(&frames).unwrap() == data);
        let mut lz4_hit = frames.clone();
        lz4_hit[8 + BLOCK_HEADER_BYTES + 5] ^= 0x40;
        assert!(read_big(&lz4_hit).unwrap_err().contains("checksum"));
        let mut raw_hit = frames.clone();
        let in_raw_block = frames.len() - tail_bytes(5) - BLOCK_BYTES - BLOCK_BYTES / 2;
        raw_hit[in_raw_block] ^= 0x01;
        assert!(read_big(&raw_hit).unwrap_err().contains("checksum"));
        for cut in [frames.len() - 1, frames.len() - tail_bytes(5), in_raw_block, 30] {
            let err = read_big(&frames[..cut]).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let data = vec![42u8; BLOCK_BYTES + 100];
        let frames = compress_frames(&data);
        for cut in
            [frames.len() - 1, frames.len() - FOOTER_BYTES, frames.len() - tail_bytes(2), 20, 9]
        {
            assert!(decode_all(&frames[..cut]).is_err(), "cut at {cut} of {}", frames.len());
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let data: Vec<u8> = (0..50_000).map(|i| (i % 93) as u8).collect();
        let mut frames = compress_frames(&data);
        // flip one payload byte (past container header + block header)
        let idx = 8 + BLOCK_HEADER_BYTES + 5;
        frames[idx] ^= 0x40;
        let err = decode_all(&frames).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn corrupt_header_lengths_rejected() {
        let data = vec![1u8; 100];
        let mut frames = compress_frames(&data);
        // blow up enc_len in the first block header
        frames[8 + 4..8 + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_all(&frames).is_err());
    }

    /// Every filter the format names.
    fn filters() -> Vec<Filter> {
        [1u8, 2, 4, 8]
            .into_iter()
            .flat_map(|width| [false, true].map(|delta| Filter { width, delta }))
            .collect()
    }

    fn assert_filter_round_trips(f: Filter, data: &[u8]) {
        let mut filtered = vec![0x55u8; data.len()];
        f.apply(data, &mut filtered);
        let mut back = vec![0xAAu8; data.len()];
        f.undo(&filtered, &mut back);
        assert!(back == data, "{f:?} over {} bytes", data.len());
        assert_eq!(Filter::from_id(f.id()), Some(f));
    }

    #[test]
    fn every_filter_round_trips_empty_single_and_ragged_sections() {
        // wrapping deltas in both directions, and every length from nothing
        // through one element to several plus each possible tail
        let data: Vec<u8> = noise(40).into_iter().chain((0..40u8).map(|i| 255 - 6 * i)).collect();
        for f in filters().into_iter().chain([Filter::NONE]) {
            for len in 0..=data.len() {
                assert_filter_round_trips(f, &data[..len]);
            }
        }
        assert_eq!(Filter::from_id(3), None, "three-byte elements have no filter");
        assert_eq!(Filter::from_id(0x80), None, "a delta needs a width");
    }

    /// The per-byte loops the kernels replaced, for any filter: the oracle
    /// [`shuffle`] and [`unshuffle`] are held to.
    fn shuffle_bytes(f: Filter, src: &[u8]) -> Vec<u8> {
        let w = f.width.max(1) as usize;
        let n = src.len() / w;
        let mut dst = src.to_vec();
        let mut prev = 0u64;
        for (i, e) in src[..n * w].chunks_exact(w).enumerate() {
            let mut word = [0u8; 8];
            word[..w].copy_from_slice(e);
            let v = u64::from_le_bytes(word);
            let d = if f.delta { v.wrapping_sub(prev) } else { v };
            prev = v;
            for j in 0..w {
                dst[j * n + i] = (d >> (8 * j)) as u8;
            }
        }
        dst
    }

    fn unshuffle_bytes(f: Filter, src: &[u8]) -> Vec<u8> {
        let w = f.width.max(1) as usize;
        let n = src.len() / w;
        let mut dst = src.to_vec();
        let mut prev = 0u64;
        for (i, e) in dst[..n * w].chunks_exact_mut(w).enumerate() {
            let mut d = 0u64;
            for j in 0..w {
                d |= (src[j * n + i] as u64) << (8 * j);
            }
            let v = if f.delta { prev.wrapping_add(d) } else { d };
            prev = v;
            e.copy_from_slice(&v.to_le_bytes()[..w]);
        }
        dst
    }

    fn assert_kernels_match_the_loops(f: Filter, data: &[u8]) {
        let mut got = vec![0x55u8; data.len()];
        f.apply(data, &mut got);
        assert!(got == shuffle_bytes(f, data), "{f:?} shuffles {} bytes", data.len());
        f.undo(data, &mut got);
        assert!(got == unshuffle_bytes(f, data), "{f:?} unshuffles {} bytes", data.len());
    }

    /// Every length through a few transpose blocks, and around the block a
    /// delta column is differenced in.
    #[test]
    fn kernels_equal_the_per_byte_loops_at_every_tail() {
        let data = noise(3 * DELTA_BLOCK + 77);
        let lens = (0..=600).chain((DELTA_BLOCK - 9..DELTA_BLOCK + 9).chain([data.len()]));
        for len in lens {
            for f in filters() {
                assert_kernels_match_the_loops(f, &data[..len]);
            }
        }
    }

    #[test]
    fn filters_put_a_sorted_column_in_compressible_shape() {
        let column: Vec<u8> =
            (0..2048u64).flat_map(|i| (1_000_000 + 37 * i).to_le_bytes()).collect();
        let mut filtered = vec![0u8; column.len()];
        Filter::for_column(8, true).apply(&column, &mut filtered);
        // low bytes of the differences first (the first is the value
        // itself), then nothing but the zero high bytes
        assert_eq!(filtered[..3], [1_000_000u64.to_le_bytes()[0], 37, 37]);
        assert!(filtered[3 * 2048 + 1..].iter().all(|&b| b == 0));
        assert_eq!(Filter::for_column(1, false), Filter::NONE);
        assert_eq!(Filter::for_column(12, true), Filter::NONE);
        assert_eq!(Filter::for_column(0, false), Filter::NONE);
    }

    /// A stream shaped like a chunk: a short header, two ascending index
    /// columns, an unordered `dst`-like one, 12-byte payloads no filter
    /// fits and a ragged tail — with the `(offset, width, monotone)` of the
    /// typed sections.
    fn typed_stream() -> (Vec<u8>, Vec<(usize, usize, bool)>) {
        let mut data = b"a header of exactly thirty-two B".to_vec();
        let mut sections = Vec::new();
        let mut section = |data: &mut Vec<u8>, width, monotone, bytes: Vec<u8>| {
            sections.push((data.len(), width, monotone));
            data.extend(bytes);
        };
        section(
            &mut data,
            4,
            true,
            (0..9_000u32).flat_map(|i| (3 * i + i % 3).to_le_bytes()).collect(),
        );
        section(
            &mut data,
            8,
            true,
            (0..9_001u64).flat_map(|i| (i * i / 7).to_le_bytes()).collect(),
        );
        let dst =
            (0..30_000u32).flat_map(|i| (i.wrapping_mul(2_654_435_761) % 50_000).to_le_bytes());
        section(&mut data, 4, false, dst.collect());
        section(&mut data, 12, false, (0..5_000u32).flat_map(|i| [(i % 7) as u8; 12]).collect());
        section(&mut data, 8, false, noise(4 * SEEK_BLOCK_BYTES + 5));
        (data, sections)
    }

    fn write_typed<W: Write>(mut w: FrameWriter<W>) -> W {
        let (data, sections) = typed_stream();
        let mut at = 0;
        for (start, width, monotone) in sections {
            w.write_all(&data[at..start]).unwrap();
            w.begin_section(width, monotone).unwrap();
            at = start;
        }
        w.write_all(&data[at..]).unwrap();
        w.finish().unwrap()
    }

    /// A disk holding [`typed_stream`] as a version-2 container and raw.
    fn typed_files() -> (tempfile::TempDir, NodeDisk) {
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        for (rel, compress) in [("framed.bin", true), ("raw.bin", false)] {
            write_typed(disk.create_framed(rel, compress).unwrap()).finish().unwrap();
        }
        (td, disk)
    }

    #[test]
    fn typed_sections_start_blocks_decode_to_the_same_stream_and_store_less() {
        let (data, sections) = typed_stream();
        let typed = write_typed(FrameWriter::new(Vec::new(), true).unwrap());
        assert!(decode_all(&typed).unwrap() == data);
        assert!(write_typed(FrameWriter::new(Vec::new(), false).unwrap()) == data);
        let untyped = compress_frames(&data);
        assert!(
            typed.len() * 3 < untyped.len() * 2,
            "typed {} B, untyped {} B, logical {} B",
            typed.len(),
            untyped.len(),
            data.len()
        );
        // every section starts a block, and typed blocks are seek-sized
        let (_td, disk) = typed_files();
        let file = BlockFile::open(&disk, "framed.bin", 1).unwrap();
        assert_eq!(file.logical_len(), data.len() as u64);
        let dir = file.dir.as_ref().unwrap();
        for (start, ..) in sections {
            assert!(dir.iter().any(|e| e.0 == start as u64), "no block starts at {start}");
        }
        assert!(dir.windows(2).all(|w| w[1].0 - w[0].0 <= SEEK_BLOCK_BYTES as u64));
    }

    #[test]
    fn positioned_reads_count_the_blocks_they_fetch_not_the_file() {
        let (data, sections) = typed_stream();
        let (_td, disk) = typed_files();
        let mut file = BlockFile::open(&disk, "framed.bin", 2).unwrap();
        let (read0, logical0) =
            (disk.stats().read_bytes.get(), disk.stats().logical_read_bytes.get());
        // neighbouring entries of the second index column, through one slot
        let at = sections[1].0 as u64;
        let mut entry = [0u8; 16];
        for i in 0..100u64 {
            file.read_at(1, &mut entry, at + 8 * i).unwrap();
            assert_eq!(entry, data[(at + 8 * i) as usize..][..16]);
        }
        let read = disk.stats().read_bytes.get() - read0;
        let logical = disk.stats().logical_read_bytes.get() - logical0;
        assert_eq!(logical, SEEK_BLOCK_BYTES as u64, "one block decoded, once");
        assert!(read < logical / 2, "{read} B fetched for a sorted 16 KiB block");
    }

    #[test]
    fn range_reads_fetch_each_block_once_in_reads_of_at_most_a_span() {
        let (data, sections) = typed_stream();
        let (_td, disk) = typed_files();
        let stats = disk.stats();
        // the two index columns, then `dst` without its first 100 bytes and
        // the last 7 bytes of the payloads: whole blocks and partial ones
        let cols = [
            (sections[0].0, sections[2].0),
            (sections[2].0 + 100, sections[3].0),
            (data.len() - 7, data.len()),
        ];
        for rel in ["framed.bin", "raw.bin"] {
            let mut file = BlockFile::open(&disk, rel, 0).unwrap();
            let mut bufs: Vec<Vec<u8>> = cols.iter().map(|&(a, b)| vec![0u8; b - a]).collect();
            let mut ranges: Vec<(u64, &mut [u8])> =
                cols.iter().zip(&mut bufs).map(|(c, b)| (c.0 as u64, &mut b[..])).collect();
            let (read0, ops0, logical0) =
                (stats.read_bytes.get(), stats.read_ops.get(), stats.logical_read_bytes.get());
            file.read_ranges(&mut ranges).unwrap();
            let (read, ops) = (stats.read_bytes.get() - read0, stats.read_ops.get() - ops0);
            for (&(a, b), buf) in cols.iter().zip(&bufs) {
                assert!(buf[..] == data[a..b], "{rel}: bytes {a}..{b}");
            }
            let served: usize = cols.iter().map(|(a, b)| b - a).sum();
            assert_eq!(stats.logical_read_bytes.get() - logical0, served as u64, "{rel}");
            let Some(dir) = &file.dir else {
                assert_eq!((read, ops), (served as u64, 3), "a raw file reads exactly its ranges");
                continue;
            };
            // the blocks the ranges touch, each fetched once: two runs of
            // neighbours (the index columns and `dst` lie next to each
            // other), each smaller than a span, so one read each
            let touched = |k: usize| {
                cols.iter().any(|&(a, b)| dir[k].0 < b as u64 && (a as u64) < dir[k + 1].0)
            };
            let stored: u64 =
                (0..dir.len() - 1).filter(|&k| touched(k)).map(|k| dir[k + 1].1 - dir[k].1).sum();
            assert_eq!((read, ops), (stored, 2), "only the blocks of the ranges are fetched");
        }
    }

    #[test]
    fn damage_to_a_block_the_directory_or_the_footer_is_corrupt() {
        let (data, sections) = typed_stream();
        let (_td, disk) = typed_files();
        let good = disk.read_to_vec("framed.bin").unwrap();
        let n_blocks = BlockFile::open(&disk, "framed.bin", 1).unwrap().dir.unwrap().len() - 1;
        let dir_at = good.len() - FOOTER_BYTES - n_blocks * DIR_ENTRY_BYTES;
        // reads the first entries of the `dst` section through a copy of
        // the file with one byte flipped
        let dst_at = sections[2].0 as u64;
        let read_damaged = |at: usize| {
            let mut bad = good.clone();
            bad[at] ^= 0x04;
            std::fs::write(disk.root().join("bad.bin"), &bad).unwrap();
            let mut out = [0u8; 64];
            let seek = BlockFile::open(&disk, "bad.bin", 1)
                .and_then(|mut file| file.read_at(0, &mut out, dst_at));
            // a column read through the same blocks fails alike
            let mut column = [0u8; 64];
            let load = BlockFile::open(&disk, "bad.bin", 0)
                .and_then(|mut file| file.read_ranges(&mut [(dst_at, &mut column[..])]));
            assert!(matches!(load, Ok(()) | Err(DfoError::Corrupt(_))), "{load:?}");
            assert_eq!(seek.is_ok(), load.is_ok(), "flipped byte at {at}");
            seek?;
            assert_eq!(column, out);
            Ok::<_, DfoError>(out)
        };
        let dst_block = {
            let file = BlockFile::open(&disk, "framed.bin", 1).unwrap();
            let dir = file.dir.as_ref().unwrap();
            dir[dir.iter().position(|e| e.0 == dst_at).unwrap()].1 as usize
        };
        assert_eq!(read_damaged(8 + 40).unwrap(), data[dst_at as usize..][..64], "another block");
        for (what, at) in [
            ("block payload", dst_block + BLOCK_HEADER_BYTES + 100),
            ("block flags", dst_block + 9),
            ("block length", dst_block + 1),
            ("directory", dir_at + 3),
            ("directory", dir_at + n_blocks * DIR_ENTRY_BYTES - 1),
            ("footer block count", good.len() - FOOTER_BYTES),
            ("footer logical length", good.len() - 12),
            ("footer checksum", good.len() - 6),
            ("footer magic", good.len() - 1),
        ] {
            match read_damaged(at) {
                Err(DfoError::Corrupt(_)) => {}
                other => panic!("flipped {what} byte at {at}: {:?}", other.map(|_| "read fine")),
            }
            // and no front-to-back read gets past it either
            let bad = std::fs::read(disk.root().join("bad.bin")).unwrap();
            assert!(decode_all(&bad).is_err(), "flipped {what} byte at {at} decoded");
        }
    }

    #[test]
    fn version_1_containers_are_refused_with_a_typed_error() {
        // the version word is the first thing the reader checks (the
        // golden file in `dfo-part` is a real version-1 container)
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        for version in [1u8, 9] {
            let rel = &format!("v{version}.bin");
            let mut file = compress_frames(&mixed_payload());
            file[4] = version;
            assert!(decode_all(&file).is_err(), "{rel} decoded");
            std::fs::write(td.path().join(rel), &file).unwrap();
            // both ways in name the file and say what to do about it
            let sequential = disk.open_framed(rel).err();
            let positioned = BlockFile::open(&disk, rel, 1).err();
            for err in [sequential, positioned] {
                match err {
                    Some(DfoError::Corrupt(m)) if m.contains(rel) && m.contains("preprocess") => {}
                    other => panic!("{rel}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn positioned_reads_need_no_write_permission() {
        use std::os::unix::fs::PermissionsExt;
        let (td, disk) = typed_files();
        let (data, _) = typed_stream();
        let lock = |mode_file, mode_dir| {
            for rel in ["framed.bin", "raw.bin"] {
                let p = td.path().join(rel);
                std::fs::set_permissions(p, std::fs::Permissions::from_mode(mode_file)).unwrap();
            }
            std::fs::set_permissions(td.path(), std::fs::Permissions::from_mode(mode_dir)).unwrap();
        };
        lock(0o444, 0o555);
        for rel in ["framed.bin", "raw.bin"] {
            let mut out = [0u8; 100];
            BlockFile::open(&disk, rel, 1).unwrap().read_at(0, &mut out, 70_000).unwrap();
            assert_eq!(out, data[70_000..70_100]);
        }
        lock(0o644, 0o755);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_kernels_equal_the_per_byte_loops(
            data in proptest::collection::vec(byte(), 0..9_000),
            which in 0usize..8,
        ) {
            assert_kernels_match_the_loops(filters()[which], &data);
        }

        #[test]
        fn prop_every_filter_round_trips(
            data in proptest::collection::vec(byte(), 0..700),
            which in 0usize..8,
        ) {
            assert_filter_round_trips(filters()[which], &data);
        }

        #[test]
        fn prop_positioned_reads_equal_the_slice_of_a_full_decode(
            reads in proptest::collection::vec((0usize..1_000_000, 0usize..40_000, 0usize..3), 1..12),
        ) {
            let (data, _) = typed_stream();
            let (_td, disk) = typed_files();
            for rel in ["framed.bin", "raw.bin"] {
                let mut file = BlockFile::open(&disk, rel, 3).unwrap();
                assert_eq!(file.logical_len(), data.len() as u64);
                for &(at, len, slot) in &reads {
                    let at = at % data.len();
                    let len = len.min(data.len() - at);
                    let mut out = vec![0u8; len];
                    file.read_at(slot, &mut out, at as u64).unwrap();
                    assert!(out == data[at..at + len], "{rel}: {len} bytes at {at}");
                }
                let mut past = [0u8; 2];
                assert!(file.read_at(0, &mut past, data.len() as u64 - 1).is_err());
            }
        }

        #[test]
        fn prop_range_reads_equal_the_slices_of_a_full_decode(
            cuts in proptest::collection::vec(0usize..1_000_000, 0..12),
        ) {
            // ascending cut points pair up into ranges with gaps between
            let (data, _) = typed_stream();
            let (_td, disk) = typed_files();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let spans: Vec<(usize, usize)> = cuts.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            for rel in ["framed.bin", "raw.bin"] {
                let mut file = BlockFile::open(&disk, rel, 0).unwrap();
                let mut bufs: Vec<Vec<u8>> = spans.iter().map(|&(a, b)| vec![0u8; b - a]).collect();
                let mut ranges: Vec<(u64, &mut [u8])> =
                    spans.iter().zip(&mut bufs).map(|(s, b)| (s.0 as u64, &mut b[..])).collect();
                file.read_ranges(&mut ranges).unwrap();
                for (&(a, b), buf) in spans.iter().zip(&bufs) {
                    assert!(buf[..] == data[a..b], "{rel}: bytes {a}..{b}");
                }
                let past = file.read_ranges(&mut [(data.len() as u64 - 1, &mut [0u8; 2][..])]);
                assert!(matches!(past, Err(DfoError::Corrupt(_))));
            }
        }

        #[test]
        fn prop_crc32_slicing_matches_bytewise(
            data in proptest::collection::vec(byte(), 0..3_000),
        ) {
            assert_eq!(crc32(&data), crc32_bytewise(&data));
        }

        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(byte(), 0..40_000)) {
            let frames = compress_frames(&data);
            let back = decode_all(&frames).unwrap();
            assert_eq!(back, data);
        }

        #[test]
        fn prop_truncation_never_roundtrips(
            data in proptest::collection::vec(byte(), 8..5_000),
            frac in 0usize..100,
        ) {
            let frames = compress_frames(&data);
            let cut = frames.len() * frac / 100; // strictly shorter than full
            if let Ok(back) = decode_all(&frames[..cut]) {
                // a cut inside the magic degrades to passthrough, which
                // must not reproduce the payload either
                assert_ne!(back, data, "truncated stream decoded in full");
            }
        }

        #[test]
        fn prop_single_corrupt_byte_detected(
            data in proptest::collection::vec(byte(), 64..8_000),
            at in 0usize..1_000_000,
            bit in 0u8..8,
        ) {
            let mut frames = compress_frames(&data);
            // corrupt anywhere past the container magic (corrupting the
            // magic itself flips the file to passthrough mode by design)
            let idx = 4 + at % (frames.len() - 4);
            frames[idx] ^= 1 << bit;
            if let Ok(back) = decode_all(&frames) {
                assert_ne!(back, data, "corruption at byte {idx} went unnoticed");
            }
        }
    }
}
