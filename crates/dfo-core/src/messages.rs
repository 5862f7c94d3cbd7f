//! On-disk and on-wire message records.
//!
//! A message is a `(src_local: u32, payload: M)` pair — the source vertex
//! stored local to its partition (the receiving side always knows which
//! partition a stream came from, so 4 bytes suffice regardless of graph
//! size). Message buffers (`dfo_storage::SpillBuf`) are flat
//! concatenations of records; network frames carry whole records only.

use bytes::{Bytes, BytesMut};
use dfo_types::{bytes_of, pod_from_bytes, Pod, Result};

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

/// Packs records into bounded frames for the wire. Frame capacity is rounded
/// down to a whole number of records so receivers never see a split record.
pub struct FrameBuilder {
    buf: BytesMut,
    cap: usize,
}

impl FrameBuilder {
    /// `target_bytes` ≈ frame size; `rec` = record size.
    pub fn new(target_bytes: usize, rec: usize) -> Self {
        let cap = (target_bytes / rec).max(1) * rec;
        Self { buf: BytesMut::with_capacity(cap), cap }
    }

    /// Adds a run of whole records, handing every frame it fills to `emit`.
    #[inline]
    pub fn push_bytes(
        &mut self,
        mut recs: &[u8],
        emit: &mut impl FnMut(Bytes) -> Result<()>,
    ) -> Result<()> {
        while !recs.is_empty() {
            let (head, rest) = recs.split_at(recs.len().min(self.cap - self.buf.len()));
            self.buf.extend_from_slice(head);
            if self.buf.len() == self.cap {
                emit(self.buf.split().freeze())?;
            }
            recs = rest;
        }
        Ok(())
    }

    /// Remaining partial frame, if any.
    pub fn finish(mut self) -> Option<Bytes> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.split().freeze())
        }
    }
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
    fn push(fb: &mut FrameBuilder, recs: &[u8]) -> Vec<Bytes> {
        let mut frames = Vec::new();
        fb.push_bytes(recs, &mut |f| {
            frames.push(f);
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
        let b: Vec<Bytes> = run.chunks_exact(rec).flat_map(|r| push(&mut single, r)).collect();
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
        assert_eq!(parse_record::<u32>(&tail, 0), (5, 55));
    }

    #[test]
    fn zero_sized_message() {
        // BFS sends unit messages: record is just the 4-byte source
        let buf = record(9, &());
        assert_eq!(buf.len(), 4);
        assert_eq!(parse_record::<()>(&buf, 0), (9, ()));
    }
}
