//! Message records and the wire codec they and exchanged vectors travel in.
//!
//! A message is a `(src_local: u32, payload: M)` pair — the source vertex
//! stored local to its partition (the receiving side always knows which
//! partition a stream came from, so 4 bytes suffice regardless of graph
//! size). Message buffers (`dfo_storage::SpillBuf`) are flat
//! concatenations of records. [`FrameBuilder`] cuts them into raw frames
//! of at most [`FRAME_BYTES`] of whole records; [`FrameCodec`] puts each
//! on the wire in the smaller of two forms and turns either back into
//! records (all little-endian, `w = size_of::<M>()`):
//!
//! ```text
//! raw frame:    k records      src_local u32 | payload [w bytes]
//! coded frame:  word u32       1 << 31 | bitmap << 30 | k
//!               ids, bitmap:   first u32 | span u32 | ⌈span/8⌉ bytes
//!                              (bit i of byte i/8 set = id first + i sent)
//!               ids, else:     k × src_local u32
//!               payloads:      the k·w-byte payload column, packed by
//!                              `dfo_storage::compress::ColumnCodec`
//!                              (none when w = 0)
//! ```
//!
//! A frame is coded only when that is strictly smaller, so no stream is
//! ever longer than its raw records. A raw frame starts with a source id,
//! which preprocessing keeps below 2^31
//! ([`dfo_part::preprocess::MAX_PARTITION_VERTICES`]), so bit 31 of the
//! first word tells the forms apart. The ids of a frame ascend — batches
//! generate in vertex order and filtering keeps it — so a dense frontier's
//! ids cost a bit each. Payloads are byte-shuffled by `w`, and each byte
//! plane is LZ4-coded with one match table per sender, or goes as it is
//! when that does not shrink it. The decoder trusts nothing: `k` within a
//! frame's capacity, a bitmap's popcount equal to `k`, every id inside the
//! sender's partition, the payload column decoding to exactly `k·w` bytes
//! and no byte left over, else the frame is refused.
//!
//! An exchanged vector ([`crate::NodeCtx::exchange`]) is one column of its
//! element type: its byte length `u64`, then the packed column.

use bytes::Bytes;
use dfo_net::endpoint::STREAM_CHUNK;
use dfo_storage::compress::{ColumnCodec, LZ4_MAX_RATIO};
use dfo_types::{bytes_of, pod_from_bytes, pod_zeroed, slice_as_bytes, slice_as_bytes_mut};
use dfo_types::{Pod, Result};

/// Largest raw frame: the transport's stream chunk, so a call's messages
/// fit one frame exactly when [`dfo_net::Endpoint::buffers_whole`] says
/// they do.
pub const FRAME_BYTES: usize = STREAM_CHUNK;

/// Bit 31 of a frame's first word: the frame is coded.
const CODED: u32 = 1 << 31;
/// Bit 30: the ids are a presence bitmap, not `k` plain ids.
const BITMAP_IDS: u32 = 1 << 30;
const COUNT: u32 = BITMAP_IDS - 1;

/// Bytes per record for message type `M`.
pub const fn record_bytes<M: Pod>() -> usize {
    4 + std::mem::size_of::<M>()
}

/// Serializes one record into `out`.
#[inline]
pub fn push_record<M: Pod>(out: &mut Vec<u8>, src_local: u32, msg: &M) {
    out.extend_from_slice(&src_local.to_le_bytes());
    out.extend_from_slice(bytes_of(msg));
}

/// Parses the record at `buf[off..]`.
#[inline]
pub fn parse_record<M: Pod>(buf: &[u8], off: usize) -> (u32, M) {
    let src = src_of(&buf[off..]);
    let msg = pod_from_bytes(&buf[off + 4..off + record_bytes::<M>()]);
    (src, msg)
}

/// The source vertex of the record starting at `rec[0]`.
#[inline]
pub fn src_of(rec: &[u8]) -> u32 {
    u32::from_le_bytes(rec[..4].try_into().unwrap())
}

/// Cuts records into bounded raw frames, in one reused buffer. Frame
/// capacity is rounded down to a whole number of records so receivers never
/// see a split record.
pub struct FrameBuilder {
    buf: Vec<u8>,
    cap: usize,
}

impl FrameBuilder {
    /// `target_bytes` ≈ frame size; `rec` = record size.
    pub fn new(target_bytes: usize, rec: usize) -> Self {
        Self { buf: Vec::new(), cap: (target_bytes / rec).max(1) * rec }
    }

    /// Adds a run of whole records, handing every frame it fills to `emit`.
    #[inline]
    pub fn push_bytes(
        &mut self,
        mut recs: &[u8],
        emit: &mut impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        while !recs.is_empty() {
            let (head, rest) = recs.split_at(recs.len().min(self.cap - self.buf.len()));
            self.buf.extend_from_slice(head);
            if self.buf.len() == self.cap {
                emit(&self.buf)?;
                self.buf.clear();
            }
            recs = rest;
        }
        Ok(())
    }

    /// Remaining partial frame, if any.
    pub fn finish(&self) -> Option<&[u8]> {
        (!self.buf.is_empty()).then_some(&self.buf[..])
    }
}

/// The frame codec of one stream's sending or receiving side: its buffers
/// and match table are reused for every frame, and a context hands a
/// finished stream's codec to the next call's streams.
#[derive(Default)]
pub struct FrameCodec {
    rec: usize,
    /// Vertices of the partition the frames' sources lie in.
    n_src: u64,
    ids: Vec<u32>,
    column: Vec<u8>,
    /// The last coded frame, or the last decoded frame's records.
    out: Vec<u8>,
    codec: ColumnCodec,
}

impl FrameCodec {
    /// A codec of frames of `rec`-byte records from a partition of `n_src`
    /// vertices.
    pub fn new(rec: usize, n_src: u64) -> Self {
        Self::default().retarget(rec, n_src)
    }

    /// This codec, buffers and all, pointed at another stream's frames.
    pub fn retarget(self, rec: usize, n_src: u64) -> Self {
        Self { rec, n_src, ..self }
    }

    /// `head` followed by the wire form of the raw frame `raw` (whole
    /// records, at least one): coded when strictly smaller, else `raw`
    /// itself.
    pub fn encode(&mut self, head: &[u8], raw: &[u8]) -> Bytes {
        Bytes::from([head, if self.code(raw) { &self.out } else { raw }].concat())
    }

    /// Codes `raw` into `self.out`; `false` when that would not be smaller.
    fn code(&mut self, raw: &[u8]) -> bool {
        let (w, k) = (self.rec - 4, raw.len() / self.rec);
        self.ids.clear();
        self.column.resize(k * w, 0);
        match w {
            4 => split_records(4, raw, &mut self.ids, &mut self.column),
            8 => split_records(8, raw, &mut self.ids, &mut self.column),
            _ => split_records(w, raw, &mut self.ids, &mut self.column),
        }
        let ascending = self.ids.windows(2).all(|p| p[0] < p[1]);
        let (first, last) = (self.ids[0], self.ids[k - 1]);
        let span = if ascending { (last - first) as usize + 1 } else { usize::MAX };
        let bitmap = ascending && 8 + span.div_ceil(8) < 4 * k;
        let word = CODED | (bitmap as u32 * BITMAP_IDS) | k as u32;
        self.out.clear();
        self.out.extend_from_slice(&word.to_le_bytes());
        if bitmap {
            self.out.extend_from_slice(&first.to_le_bytes());
            self.out.extend_from_slice(&(span as u32).to_le_bytes());
            let at = self.out.len();
            self.out.resize(at + span.div_ceil(8), 0);
            let bits = &mut self.out[at..];
            for i in self.ids.iter().map(|&id| (id - first) as usize) {
                bits[i / 8] |= 1 << (i % 8);
            }
        } else {
            self.ids.iter().for_each(|id| self.out.extend_from_slice(&id.to_le_bytes()));
        }
        self.codec.pack(w, &self.column, &mut self.out);
        self.out.len() < raw.len()
    }

    /// The whole records `frame` carries — the frame itself when raw — or
    /// what is wrong with it.
    pub fn decode<'a>(&'a mut self, frame: &'a [u8]) -> std::result::Result<&'a [u8], String> {
        let (rec, w) = (self.rec, self.rec - 4);
        let word = frame.first_chunk().map_or(0, |b| u32::from_le_bytes(*b));
        if word & CODED == 0 {
            return match frame.len() {
                0 => Err("empty frame".into()),
                n if n % rec != 0 => Err(format!("{n}-byte frame of {rec}-byte records")),
                _ => Ok(frame),
            };
        }
        let (k, cap) = ((word & COUNT) as usize, (FRAME_BYTES / rec).max(1));
        if k == 0 || k > cap {
            return Err(format!("coded frame of {k} records; one holds 1 to {cap}"));
        }
        let short = || format!("coded frame of {k} records cut at {} bytes", frame.len());
        let past = |id: u64| format!("id {id} past a {}-vertex partition", self.n_src);
        let mut rest = &frame[4..];
        self.ids.clear();
        if word & BITMAP_IDS != 0 {
            let (head, tail) = rest.split_first_chunk::<8>().ok_or_else(short)?;
            let (first, span) = (src_of(head), src_of(&head[4..]));
            if first as u64 + span as u64 > self.n_src {
                return Err(past(first as u64 + span as u64 - 1));
            }
            let bitmap = tail.get(..span.div_ceil(8) as usize).ok_or_else(short)?;
            let ones: u32 = bitmap.iter().map(|b| b.count_ones()).sum();
            let stray = bitmap.last().map_or(0, |&b| b as u32 >> ((span - 1) % 8 + 1));
            if ones as usize != k || stray != 0 {
                return Err(format!("id bitmap of {span} bits does not hold {k} ids"));
            }
            // a word at a time: a dense bitmap costs a few instructions per
            // id, not per bit
            for (c, bytes) in bitmap.chunks(8).enumerate() {
                let mut chunk = [0u8; 8];
                chunk[..bytes.len()].copy_from_slice(bytes);
                let mut bits = u64::from_le_bytes(chunk);
                while bits != 0 {
                    self.ids.push(first + 64 * c as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            rest = &tail[bitmap.len()..];
        } else {
            let ids = rest.get(..4 * k).ok_or_else(short)?;
            self.ids.extend(ids.chunks_exact(4).map(src_of));
            if let Some(&id) = self.ids.iter().find(|&&id| id as u64 >= self.n_src) {
                return Err(past(id as u64));
            }
            rest = &rest[4 * k..];
        }
        self.column.resize(k * w, 0);
        self.codec.unpack(w, rest, &mut self.column).map_err(|e| e.to_string())?;
        self.out.resize(k * rec, 0);
        match w {
            4 => join_records(4, &self.ids, &self.column, &mut self.out),
            8 => join_records(8, &self.ids, &self.column, &mut self.out),
            _ => join_records(w, &self.ids, &self.column, &mut self.out),
        }
        Ok(&self.out)
    }
}

/// Appends the ids of `raw`'s records with `w`-byte payloads to `ids` and
/// copies their payloads to `column`. Callers pass the common widths as
/// literals: inlined, the per-record copies are then moves, not calls.
#[inline(always)]
fn split_records(w: usize, raw: &[u8], ids: &mut Vec<u32>, column: &mut [u8]) {
    ids.extend(raw.chunks_exact(4 + w).map(src_of));
    if w > 0 {
        for (msg, r) in column.chunks_exact_mut(w).zip(raw.chunks_exact(4 + w)) {
            msg.copy_from_slice(&r[4..]);
        }
    }
}

/// Inverse of [`split_records`]: writes the records of `ids` and their
/// `w`-byte payloads in `column` to `out`.
#[inline(always)]
fn join_records(w: usize, ids: &[u32], column: &[u8], out: &mut [u8]) {
    for (i, (slot, id)) in out.chunks_exact_mut(4 + w).zip(ids).enumerate() {
        slot[..4].copy_from_slice(&id.to_le_bytes());
        slot[4..].copy_from_slice(&column[i * w..(i + 1) * w]);
    }
}

/// The wire form of one exchanged vector (see the module doc).
pub fn pack_vector<T: Pod>(v: &[T]) -> Bytes {
    let column = slice_as_bytes(v);
    let mut wire = (column.len() as u64).to_le_bytes().to_vec();
    ColumnCodec::default().pack(std::mem::size_of::<T>(), column, &mut wire);
    Bytes::from(wire)
}

/// Inverse of [`pack_vector`], or what is wrong with `wire`.
pub fn unpack_vector<T: Pod>(wire: &[u8]) -> std::result::Result<Vec<T>, String> {
    let (len, packed) = wire.split_first_chunk().ok_or("vector without a length")?;
    let (len, width) = (u64::from_le_bytes(*len), std::mem::size_of::<T>() as u64);
    if len % width != 0 || len / LZ4_MAX_RATIO > packed.len() as u64 {
        return Err(format!("{len} bytes are no whole {width}-byte elements here"));
    }
    let mut v = vec![pod_zeroed::<T>(); (len / width) as usize];
    let dst = slice_as_bytes_mut(&mut v);
    ColumnCodec::default().unpack(width as usize, packed, dst).map_err(|e| e.to_string())?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record<M: Pod>(src: u32, msg: &M) -> Vec<u8> {
        let mut buf = Vec::new();
        push_record(&mut buf, src, msg);
        buf
    }

    /// Pushes `recs` and returns the frames emitted along the way.
    fn push(fb: &mut FrameBuilder, recs: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        fb.push_bytes(recs, &mut |f| {
            frames.push(f.to_vec());
            Ok(())
        })
        .unwrap();
        frames
    }

    #[test]
    fn record_roundtrip_through_file() {
        let mut buf = record(7, &3.5f64);
        push_record(&mut buf, 1000, &-1.0f64);
        let rec = record_bytes::<f64>();
        assert_eq!(buf.len(), 2 * rec);
        assert_eq!(parse_record::<f64>(&buf, 0), (7, 3.5));
        assert_eq!(parse_record::<f64>(&buf, rec), (1000, -1.0));
        assert_eq!(src_of(&buf[rec..]), 1000);
    }

    #[test]
    fn frame_builder_aligns_to_records() {
        let rec = record_bytes::<u64>(); // 12
        let mut fb = FrameBuilder::new(30, rec); // cap = 24 = 2 records
        assert!(push(&mut fb, &record(1, &10u64)).is_empty());
        let frames = push(&mut fb, &record(2, &20u64));
        assert_eq!(frames.len(), 1, "second record fills the frame");
        assert_eq!(frames[0].len(), 2 * rec);
        assert_eq!(parse_record::<u64>(&frames[0], 0), (1, 10));
        assert_eq!(parse_record::<u64>(&frames[0], rec), (2, 20));
        assert!(fb.finish().is_none());
    }

    #[test]
    fn a_run_of_records_frames_like_one_record_at_a_time() {
        let rec = record_bytes::<u32>();
        let run: Vec<u8> = (0..11u32).flat_map(|i| record(i, &(i * 3))).collect();
        let mut bulk = FrameBuilder::new(4 * rec, rec);
        let mut single = FrameBuilder::new(4 * rec, rec);
        let a = push(&mut bulk, &run);
        let b: Vec<Vec<u8>> = run.chunks_exact(rec).flat_map(|r| push(&mut single, r)).collect();
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|f| f.len()).collect::<Vec<_>>(), [4 * rec, 4 * rec]);
        assert_eq!(bulk.finish(), single.finish());
    }

    #[test]
    fn frame_builder_flushes_partial() {
        let rec = record_bytes::<u32>();
        let mut fb = FrameBuilder::new(100 * rec, rec);
        assert!(push(&mut fb, &record(5, &55u32)).is_empty());
        let tail = fb.finish().unwrap();
        assert_eq!(parse_record::<u32>(tail, 0), (5, 55));
    }

    #[test]
    fn zero_sized_message() {
        // BFS sends unit messages: record is just the 4-byte source
        let buf = record(9, &());
        assert_eq!(buf.len(), 4);
        assert_eq!(parse_record::<()>(&buf, 0), (9, ()));
    }
}
