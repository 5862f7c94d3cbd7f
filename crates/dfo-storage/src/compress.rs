//! Transparent block compression for preprocessed chunk files.
//!
//! DFOGraph's premise is that fully-out-of-core performance is bounded by
//! bytes moved through disk and network; edge chunks are written once at
//! preprocessing time and re-read on every `ProcessEdges` call, so
//! compressing them cuts the one I/O cost a decoded-chunk cache cannot
//! help with — the cold read — and multiplies the effective cache budget
//! (GraphMP's observation). This module provides the framing:
//!
//! ```text
//! container:  magic "DFOZ" u32 | version u32
//! per block:  raw_len u32 | enc_len u32 | flags u32 | crc32 u32   (header)
//!             payload [enc_len bytes]
//! trailer:    raw_len = 0 | enc_len = 0 | flags = END | crc32 = 0
//! ```
//!
//! All integers little-endian. `flags` bit 0 (`LZ4`) marks an
//! LZ4-block-compressed payload; a block whose LZ4 encoding would not be
//! smaller than its input is stored **raw** (bit 0 clear) — the
//! incompressible-data escape, bounding worst-case inflation to one
//! 16-byte header per 128 KiB block. The CRC-32 (IEEE) covers the
//! *encoded* payload, so corruption is caught before the decoder runs; a
//! missing end trailer means truncation. [`FrameReader`] auto-detects the
//! container magic and passes non-compressed files through byte-for-byte,
//! so one read path serves both formats and `compress_chunks = false`
//! keeps files byte-identical to the uncompressed layout.
//!
//! Decoding: a [`FrameReader`] owns one payload buffer and one block
//! buffer for its whole life. When the caller's buffer can hold the next
//! block whole — the chunk codec's multi-megabyte column reads always can —
//! the block is LZ4-decoded (or, stored raw, read) *directly into it*; the
//! reader's own block buffer only serves reads smaller than a block. The
//! checksum is sliced eight bytes at a time and the LZ4 decoder copies a
//! word at a time; neither loops per byte.
//!
//! Seeking: passthrough streams seek natively. Compressed streams support
//! *forward relative* seeks only. Blocks that lie wholly inside the
//! skipped range are stepped over *unread*: the reader takes their header,
//! then moves the inner stream past the payload with a relative seek — no
//! read, no checksum, no decode. Only the block the seek starts in and the
//! block it ends in are decoded. Blocks do not align with chunk sections,
//! so skipping a section still decodes its two edge blocks, and a buffered
//! device reader still fetches whole buffers — which is why the engine's
//! CSR seek-mode bypass does not apply to compressed chunks.

use crate::disk::NodeDisk;
use dfo_types::{DfoError, Result};
use std::io::{self, Read, Seek, SeekFrom, Write};

/// First four bytes of a compressed chunk container ("DFOZ" once the
/// little-endian u32 is laid down, mirroring the chunk codec's "DFOC").
pub const FRAME_MAGIC: u32 = 0x4446_4F5A;
/// Container format version this build writes and accepts.
pub const FRAME_VERSION: u32 = 1;
/// Uncompressed payload bytes buffered per block. 128 KiB keeps header
/// overhead < 0.02 % while bounding decode working memory.
pub const BLOCK_BYTES: usize = 128 << 10;

/// Block flag: payload is an LZ4 block of `raw_len` decoded bytes.
const FLAG_LZ4: u32 = 1;
/// Block flag: end-of-stream trailer (zero lengths, no payload).
const FLAG_END: u32 = 2;
/// Upper bound a reader accepts for either length field — far above any
/// block this writer produces, low enough to refuse absurd allocations
/// from a corrupt header.
const MAX_BLOCK: usize = 64 << 20;

const BLOCK_HEADER_BYTES: usize = 16;

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
    let t = &CRC_TABLES;
    let mut c = !0u32;
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

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Block-compressing writer (or transparent passthrough with
/// `compress = false`, producing byte-identical plain files).
///
/// Buffers up to [`BLOCK_BYTES`] of payload, then writes one checksummed
/// block — LZ4 if that is smaller, raw otherwise. [`FrameWriter::finish`]
/// flushes the final partial block and the end trailer and returns the
/// inner writer for the caller to close.
pub struct FrameWriter<W: Write> {
    inner: W,
    compress: bool,
    buf: Vec<u8>,
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
            buf: if compress { Vec::with_capacity(BLOCK_BYTES) } else { Vec::new() },
            logical_to: None,
        })
    }

    /// Routes logical-byte accounting to `disk` (the physical side is
    /// accounted below this writer, at the device layer).
    pub(crate) fn account_logical_to(&mut self, disk: NodeDisk) {
        self.logical_to = Some(disk);
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let t0 = std::time::Instant::now();
        let encoded = lz4_flex::compress(&self.buf);
        if let Some(disk) = &self.logical_to {
            disk.add_encode_nanos(t0.elapsed().as_nanos() as u64);
        }
        let (flags, payload): (u32, &[u8]) =
            if encoded.len() < self.buf.len() { (FLAG_LZ4, &encoded) } else { (0, &self.buf) };
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        header[0..4].copy_from_slice(&(self.buf.len() as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&flags.to_le_bytes());
        header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(payload)?;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the last partial block plus the end trailer and hands the
    /// inner writer back. Compressed streams not closed through here are
    /// truncated (readers will say so).
    pub fn finish(mut self) -> Result<W> {
        let io = |e| DfoError::io("finishing frame stream", e);
        if self.compress {
            self.flush_block().map_err(io)?;
            let mut trailer = [0u8; BLOCK_HEADER_BYTES];
            trailer[8..12].copy_from_slice(&FLAG_END.to_le_bytes());
            self.inner.write_all(&trailer).map_err(io)?;
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
            let take = (BLOCK_BYTES - self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == BLOCK_BYTES {
                self.flush_block()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.compress {
            self.flush_block()?;
        }
        self.inner.flush()
    }
}

enum ReadMode {
    /// Not a compressed container: serve the peeked magic bytes, then the
    /// inner stream untouched.
    Passthrough { prefix: [u8; 4], prefix_len: usize, prefix_pos: usize },
    /// Compressed container: serve decoded blocks.
    Decode(DecodeState),
}

/// Decode-mode state. Both buffers are allocated once and reused for every
/// block of the stream.
#[derive(Default)]
struct DecodeState {
    /// Encoded bytes of the LZ4 block being decoded.
    payload: Vec<u8>,
    /// The decoded block being served, when the caller's buffer was too
    /// small to decode into directly.
    block: Vec<u8>,
    /// Read cursor within `block`.
    pos: usize,
    /// The end trailer has been read.
    done: bool,
    /// Decoded bytes served or skipped so far.
    decoded_pos: u64,
}

/// A validated block header (the end trailer is `None` to its readers).
struct BlockHeader {
    raw_len: usize,
    enc_len: usize,
    lz4: bool,
    crc: u32,
}

fn truncated_as_corrupt(e: io::Error, what: &str) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        corrupt(format!("compressed stream truncated: {what}"))
    } else {
        e
    }
}

/// Reads the next block header; `None` is the end trailer.
fn read_header(inner: &mut impl Read) -> io::Result<Option<BlockHeader>> {
    let mut header = [0u8; BLOCK_HEADER_BYTES];
    inner.read_exact(&mut header).map_err(|e| truncated_as_corrupt(e, "missing end trailer"))?;
    let word = |k: usize| u32::from_le_bytes(header[4 * k..4 * k + 4].try_into().unwrap());
    let (raw_len, enc_len, flags, crc) = (word(0) as usize, word(1) as usize, word(2), word(3));
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
    if !lz4 && enc_len != raw_len {
        return Err(corrupt("raw block length mismatch"));
    }
    Ok(Some(BlockHeader { raw_len, enc_len, lz4, crc }))
}

/// Reads the payload of block `h` and decodes it into `dst`
/// (`dst.len() == h.raw_len`): an LZ4 payload goes through `payload` and
/// is decoded straight into `dst`, a raw one is read straight into `dst`.
/// The checksum is verified before the decoder runs; checksum plus decode
/// time of every block, raw or not, is charged to `charge_to`.
fn decode_block(
    inner: &mut impl Read,
    payload: &mut Vec<u8>,
    charge_to: Option<&NodeDisk>,
    h: &BlockHeader,
    dst: &mut [u8],
) -> io::Result<()> {
    let encoded: &mut [u8] = if h.lz4 {
        payload.resize(h.enc_len, 0);
        payload
    } else {
        &mut *dst
    };
    inner.read_exact(encoded).map_err(|e| truncated_as_corrupt(e, "inside a block"))?;
    let t0 = std::time::Instant::now();
    if crc32(encoded) != h.crc {
        return Err(corrupt("block checksum mismatch"));
    }
    if h.lz4 {
        let n = lz4_flex::decompress_into(payload, dst)
            .map_err(|e| corrupt(format!("block decode failed: {e}")))?;
        if n != h.raw_len {
            return Err(corrupt(format!("block decoded to {n} bytes, header says {}", h.raw_len)));
        }
    }
    if let Some(disk) = charge_to {
        disk.add_decode_nanos(t0.elapsed().as_nanos() as u64);
    }
    Ok(())
}

impl DecodeState {
    /// Decodes block `h` into the reader's own block buffer, leaving
    /// `skip` of its bytes already consumed.
    fn buffer_block(
        &mut self,
        inner: &mut impl Read,
        charge_to: Option<&NodeDisk>,
        h: &BlockHeader,
        skip: usize,
    ) -> io::Result<()> {
        self.block.resize(h.raw_len, 0);
        // a failed decode must leave nothing to serve
        self.pos = h.raw_len;
        decode_block(inner, &mut self.payload, charge_to, h, &mut self.block)?;
        self.pos = skip;
        Ok(())
    }
}

/// Auto-detecting reader over a chunk file: decodes [`FrameWriter`]
/// containers, passes anything else through byte-for-byte (including the
/// four peeked bytes).
pub struct FrameReader<R: Read> {
    inner: R,
    mode: ReadMode,
    logical_to: Option<NodeDisk>,
}

impl<R: Read> FrameReader<R> {
    /// Peeks the stream's first four bytes to pick the mode.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut prefix = [0u8; 4];
        let mut n = 0;
        while n < 4 {
            let m =
                inner.read(&mut prefix[n..]).map_err(|e| DfoError::io("peeking frame magic", e))?;
            if m == 0 {
                break;
            }
            n += m;
        }
        if n == 4 && u32::from_le_bytes(prefix) == FRAME_MAGIC {
            Self::resume(inner)
        } else {
            Ok(Self {
                inner,
                mode: ReadMode::Passthrough { prefix, prefix_len: n, prefix_pos: 0 },
                logical_to: None,
            })
        }
    }

    /// Starts decoding a stream whose [`FRAME_MAGIC`] the caller already
    /// consumed (the chunk codec's own auto-detection path).
    pub fn resume(mut inner: R) -> Result<Self> {
        let mut v = [0u8; 4];
        inner.read_exact(&mut v).map_err(|e| DfoError::io("reading frame version", e))?;
        let version = u32::from_le_bytes(v);
        if version != FRAME_VERSION {
            return Err(DfoError::Corrupt(format!("unsupported frame version {version}")));
        }
        Ok(Self { inner, mode: ReadMode::Decode(DecodeState::default()), logical_to: None })
    }

    /// True when this stream is a compressed container (not passthrough).
    pub fn is_compressed(&self) -> bool {
        matches!(self.mode, ReadMode::Decode(_))
    }

    /// Routes logical-byte accounting (bytes *served*, decoded for
    /// compressed streams) to `disk`.
    pub(crate) fn account_logical_to(&mut self, disk: NodeDisk) {
        self.logical_to = Some(disk);
    }

    /// Serves up to `buf.len()` decoded/passthrough bytes (no accounting).
    /// A block that fits `buf` whole is decoded straight into it; a smaller
    /// `buf` is served from the reader's block buffer.
    fn read_inner(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Self { inner, mode, logical_to } = self;
        let st = match mode {
            ReadMode::Passthrough { prefix, prefix_len, prefix_pos } => {
                if *prefix_pos < *prefix_len {
                    let n = (*prefix_len - *prefix_pos).min(buf.len());
                    buf[..n].copy_from_slice(&prefix[*prefix_pos..*prefix_pos + n]);
                    *prefix_pos += n;
                    return Ok(n);
                }
                return inner.read(buf);
            }
            ReadMode::Decode(st) => st,
        };
        if st.pos == st.block.len() {
            if st.done {
                return Ok(0);
            }
            let Some(h) = read_header(inner)? else {
                st.done = true;
                return Ok(0);
            };
            if buf.len() >= h.raw_len {
                let dst = &mut buf[..h.raw_len];
                decode_block(inner, &mut st.payload, logical_to.as_ref(), &h, dst)?;
                st.decoded_pos += h.raw_len as u64;
                return Ok(h.raw_len);
            }
            st.buffer_block(inner, logical_to.as_ref(), &h, 0)?;
        }
        let n = (st.block.len() - st.pos).min(buf.len());
        buf[..n].copy_from_slice(&st.block[st.pos..st.pos + n]);
        st.pos += n;
        st.decoded_pos += n as u64;
        Ok(n)
    }
}

impl<R: Read> Read for FrameReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = self.read_inner(buf)?;
        if n > 0 {
            if let Some(disk) = &self.logical_to {
                disk.add_logical_read(n as u64);
            }
        }
        Ok(n)
    }
}

impl<R: Read + Seek> Seek for FrameReader<R> {
    /// Passthrough streams seek natively. Decode streams support *forward
    /// relative* seeks only — all the chunk codec's section skipping needs:
    /// the rest of the current block is dropped, every block that lies
    /// wholly inside the skipped range is stepped over unread (header
    /// only), and the block the target falls in is decoded.
    fn seek(&mut self, target: SeekFrom) -> io::Result<u64> {
        let Self { inner, mode, logical_to } = self;
        let st = match mode {
            ReadMode::Passthrough { prefix_len, prefix_pos, .. } => {
                // the consumer sits `remaining` bytes behind the inner stream
                // while peeked bytes are unserved
                let remaining = (*prefix_len - *prefix_pos) as i64;
                *prefix_pos = *prefix_len;
                return match target {
                    SeekFrom::Current(n) => inner.seek(SeekFrom::Current(n - remaining)),
                    other => inner.seek(other),
                };
            }
            ReadMode::Decode(st) => st,
        };
        let mut left = match target {
            SeekFrom::Current(n) if n >= 0 => n as u64,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "compressed frames only seek forward from the current position",
                ))
            }
        };
        st.decoded_pos += left;
        let buffered = left.min((st.block.len() - st.pos) as u64);
        st.pos += buffered as usize;
        left -= buffered;
        while left > 0 {
            let header = if st.done { None } else { read_header(inner)? };
            let Some(h) = header else {
                st.done = true;
                return Err(corrupt("seek past end of compressed stream"));
            };
            if h.raw_len as u64 <= left {
                // relative, so a buffered inner reader keeps its buffer
                inner.seek_relative(h.enc_len as i64)?;
                left -= h.raw_len as u64;
            } else {
                st.buffer_block(inner, logical_to.as_ref(), &h, left as usize)?;
                left = 0;
            }
        }
        Ok(st.decoded_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{proptest, ProptestConfig, Strategy};
    use std::io::Cursor;

    fn compress_frames(data: &[u8]) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), true).unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap()
    }

    fn decode_all(frames: &[u8]) -> std::result::Result<Vec<u8>, String> {
        let mut r = FrameReader::new(Cursor::new(frames)).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        r.read_to_end(&mut out).map_err(|e| e.to_string())?;
        Ok(out)
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
        // container 8 B + 3 headers (2 blocks + trailer): noise must not
        // inflate beyond the framing overhead
        assert!(frames.len() <= data.len() + 8 + 3 * BLOCK_HEADER_BYTES);
        assert_eq!(decode_all(&frames).unwrap(), data);
    }

    #[test]
    fn passthrough_serves_raw_files_byte_identical() {
        for data in [&b""[..], b"ab", b"DFOC and then some", &[7u8; 5000][..]] {
            let mut r = FrameReader::new(Cursor::new(data)).unwrap();
            assert!(!r.is_compressed());
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn passthrough_writer_is_identity() {
        let mut w = FrameWriter::new(Vec::new(), false).unwrap();
        w.write_all(b"plain bytes").unwrap();
        assert_eq!(w.finish().unwrap(), b"plain bytes");
    }

    #[test]
    fn forward_seek_in_decode_mode() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 256) as u8).collect();
        let frames = compress_frames(&data);
        let mut r = FrameReader::new(Cursor::new(&frames)).unwrap();
        assert!(r.is_compressed());
        let mut head = [0u8; 10];
        r.read_exact(&mut head).unwrap();
        assert_eq!(head, data[..10]);
        r.seek(SeekFrom::Current(150_000)).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, data[150_010..]);
        // backward seeks are refused, not silently wrong
        let mut r2 = FrameReader::new(Cursor::new(&frames)).unwrap();
        assert!(r2.seek(SeekFrom::Current(-1)).is_err());
        assert!(r2.seek(SeekFrom::Start(3)).is_err());
    }

    #[test]
    fn every_caller_buffer_size_serves_the_same_bytes_and_logical_count() {
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let data = mixed_payload();
        let mut w = disk.create_framed("mixed.bin", true).unwrap();
        w.write_all(&data).unwrap();
        w.finish().unwrap().finish().unwrap();
        for cap in [1, 7, 4096, BLOCK_BYTES, 1 << 20] {
            let before = disk.stats().logical_read_bytes.get();
            let mut r = disk.open_framed("mixed.bin").unwrap();
            assert!(r.is_compressed());
            assert!(drain(&mut r, cap).unwrap() == data, "bytes differ at buffer size {cap}");
            let served = disk.stats().logical_read_bytes.get() - before;
            assert_eq!(served, data.len() as u64, "logical bytes at buffer size {cap}");
        }
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
    fn forward_seek_lands_where_decode_and_discard_does() {
        let data = mixed_payload();
        let frames = compress_frames(&data);
        let b = BLOCK_BYTES;
        for pre in [0, 10, b - 1, b, b + 1] {
            let to_end = data.len() - pre;
            for skip in [0, 1, b - 11, b, 2 * b + 5, 3 * b, to_end - 1, to_end] {
                let mut r = FrameReader::new(Cursor::new(&frames)).unwrap();
                let mut head = vec![0u8; pre];
                r.read_exact(&mut head).unwrap();
                let at = r.seek(SeekFrom::Current(skip as i64)).unwrap();
                assert_eq!(at, (pre + skip) as u64, "pre {pre} skip {skip}");
                let rest = drain(&mut r, 50_000).unwrap();
                assert!(rest == data[pre + skip..], "pre {pre} skip {skip}");
            }
            let mut r = FrameReader::new(Cursor::new(&frames)).unwrap();
            assert!(r.seek(SeekFrom::Current((data.len() + 1) as i64)).is_err());
        }
    }

    /// Counts the bytes actually read from an in-memory file.
    struct CountingFile<'a> {
        file: Cursor<&'a [u8]>,
        read: u64,
    }

    impl Read for CountingFile<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.file.read(buf)?;
            self.read += n as u64;
            Ok(n)
        }
    }

    impl Seek for CountingFile<'_> {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.file.seek(pos)
        }
    }

    #[test]
    fn whole_blocks_inside_a_seek_are_never_read() {
        let data = mixed_payload();
        let mut frames = compress_frames(&data);
        let (pre, skip) = (100, 3 * BLOCK_BYTES + 1000);
        let read_tail = |frames: &[u8], skip_by_seek: bool| {
            let file = CountingFile { file: Cursor::new(frames), read: 0 };
            let mut r = FrameReader::new(file).unwrap();
            r.read_exact(&mut vec![0u8; pre]).unwrap();
            if skip_by_seek {
                r.seek(SeekFrom::Current(skip as i64))?;
            } else {
                r.read_exact(&mut vec![0u8; skip])?;
            }
            let tail = drain(&mut r, 4096)?;
            Ok::<_, io::Error>((tail, r.inner.read))
        };
        let (tail_read, physical_read) = read_tail(&frames, false).unwrap();
        let (tail_seek, physical_seek) = read_tail(&frames, true).unwrap();
        assert!(tail_read == data[pre + skip..]);
        assert!(tail_seek == tail_read);
        assert_eq!(physical_read, frames.len() as u64);
        // blocks 1 and 2 lie wholly inside the seek: only their headers are read
        let enc_len = |header_at: usize| {
            u32::from_le_bytes(frames[header_at + 4..header_at + 8].try_into().unwrap()) as usize
        };
        let block1 = 8 + BLOCK_HEADER_BYTES + enc_len(8);
        let block2 = block1 + BLOCK_HEADER_BYTES + enc_len(block1);
        assert_eq!(physical_read - physical_seek, (enc_len(block1) + enc_len(block2)) as u64);
        // ...so damage there goes unseen by the seek, not by the read
        frames[block2 + BLOCK_HEADER_BYTES + 9] ^= 0x10;
        assert!(read_tail(&frames, true).unwrap().0 == tail_read);
        assert!(read_tail(&frames, false).unwrap_err().to_string().contains("checksum"));
    }

    #[test]
    fn seeking_a_buffered_disk_file_reads_no_byte_twice() {
        // the device layer reads whole 256 KiB buffers, so hopping from
        // header to header saves physical bytes only where a skip outruns
        // the buffered ones; what it must never do is drop and re-read them
        let td = tempfile::TempDir::new().unwrap();
        let disk = NodeDisk::new(td.path(), None, false).unwrap();
        let data = mixed_payload();
        let mut w = disk.create_framed("mixed.bin", true).unwrap();
        w.write_all(&data).unwrap();
        w.finish().unwrap().finish().unwrap();
        let mut r = disk.open_framed("mixed.bin").unwrap();
        r.read_exact(&mut [0u8; 100]).unwrap();
        let skip = 3 * BLOCK_BYTES + 1000;
        r.seek(SeekFrom::Current(skip as i64)).unwrap();
        assert!(drain(&mut r, 4096).unwrap() == data[100 + skip..]);
        assert!(disk.stats().read_bytes.get() <= disk.len("mixed.bin").unwrap());
    }

    #[test]
    fn direct_decode_still_checks_checksums_and_truncation() {
        // a caller buffer larger than any block: every block takes the
        // decode-into-the-destination path, LZ4 (first) and raw (fourth)
        let data = mixed_payload();
        let frames = compress_frames(&data);
        let big = 1 << 20;
        let read_big = |frames: &[u8]| {
            drain(&mut FrameReader::new(Cursor::new(frames)).unwrap(), big)
                .map_err(|e| e.to_string())
        };
        assert!(read_big(&frames).unwrap() == data);
        let mut lz4_hit = frames.clone();
        lz4_hit[8 + BLOCK_HEADER_BYTES + 5] ^= 0x40;
        assert!(read_big(&lz4_hit).unwrap_err().contains("checksum"));
        let mut raw_hit = frames.clone();
        let in_raw_block = frames.len() - BLOCK_BYTES - BLOCK_BYTES / 2;
        raw_hit[in_raw_block] ^= 0x01;
        assert!(read_big(&raw_hit).unwrap_err().contains("checksum"));
        for cut in [frames.len() - 1, frames.len() - BLOCK_HEADER_BYTES, in_raw_block, 30] {
            let err = read_big(&frames[..cut]).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn passthrough_seek_matches_plain_reader() {
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 256) as u8).collect();
        let mut r = FrameReader::new(Cursor::new(&data)).unwrap();
        let mut head = [0u8; 2]; // leaves two peeked bytes unserved
        r.read_exact(&mut head).unwrap();
        r.seek(SeekFrom::Current(98)).unwrap();
        let mut b = [0u8; 4];
        r.read_exact(&mut b).unwrap();
        assert_eq!(b, data[100..104]);
        r.seek(SeekFrom::Start(7000)).unwrap();
        r.read_exact(&mut b).unwrap();
        assert_eq!(b, data[7000..7004]);
    }

    #[test]
    fn truncation_is_detected() {
        let data = vec![42u8; BLOCK_BYTES + 100];
        let frames = compress_frames(&data);
        for cut in [frames.len() - 1, frames.len() - BLOCK_HEADER_BYTES, 20, 9] {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
