//! Wire frames of the cluster transport, and their binary codec.
//!
//! Both backends move data as [`Frame`]s. The in-process backend pushes them
//! into the peer's receive queues untouched; the TCP backend serializes them with the
//! length-prefixed codec below. The 16-byte header doubles as the modeled
//! envelope cost charged against bandwidth, so byte accounting is identical
//! across backends.
//!
//! Header layout (little-endian):
//!
//! ```text
//! [ src: u32 ][ tag: u64 ][ len|last: u32 ]
//! ```
//!
//! `len|last` packs the payload length in the low 31 bits and the
//! end-of-stream marker in the top bit, which keeps the header at exactly
//! [`FRAME_HEADER_BYTES`].

use bytes::Bytes;
use dfo_types::codec::read_exact_or_eof;
use dfo_types::{DfoError, Rank, Result};
use std::io::{Read, Write};

/// Fixed per-frame header cost charged against bandwidth; also the exact
/// on-wire header size of the TCP codec.
pub const FRAME_HEADER_BYTES: u64 = 16;

/// Top bit of the packed `len|last` word.
const LAST_FLAG: u32 = 1 << 31;

/// Upper bound on a single frame's payload (engine frames are 256 KiB; the
/// slack guards the decoder against corrupt or hostile length words without
/// constraining any legitimate sender).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// One frame of a point-to-point stream.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Sender rank.
    pub src: Rank,
    /// Stream tag; both sides must agree (it selects the receive queue).
    pub tag: u64,
    /// Payload bytes (possibly empty for a bare end-of-stream marker).
    pub payload: Bytes,
    /// Marks the final frame of the stream.
    pub last: bool,
}

impl Frame {
    /// Bandwidth cost of this frame.
    pub fn wire_bytes(&self) -> u64 {
        FRAME_HEADER_BYTES + self.payload.len() as u64
    }

    /// Serializes the header into its fixed-size wire form.
    pub fn encode_header(&self) -> [u8; FRAME_HEADER_BYTES as usize] {
        assert!(self.payload.len() <= MAX_FRAME_PAYLOAD, "frame payload too large");
        let mut h = [0u8; FRAME_HEADER_BYTES as usize];
        h[0..4].copy_from_slice(&(self.src as u32).to_le_bytes());
        h[4..12].copy_from_slice(&self.tag.to_le_bytes());
        let mut len_last = self.payload.len() as u32;
        if self.last {
            len_last |= LAST_FLAG;
        }
        h[12..16].copy_from_slice(&len_last.to_le_bytes());
        h
    }

    /// Parses a header previously produced by [`Frame::encode_header`].
    /// Returns `(src, tag, payload_len, last)`.
    pub fn decode_header(
        h: &[u8; FRAME_HEADER_BYTES as usize],
    ) -> Result<(Rank, u64, usize, bool)> {
        let src = u32::from_le_bytes(h[0..4].try_into().unwrap()) as Rank;
        let tag = u64::from_le_bytes(h[4..12].try_into().unwrap());
        let len_last = u32::from_le_bytes(h[12..16].try_into().unwrap());
        let last = len_last & LAST_FLAG != 0;
        let len = (len_last & !LAST_FLAG) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(DfoError::Corrupt(format!(
                "frame header claims {len}-byte payload (max {MAX_FRAME_PAYLOAD})"
            )));
        }
        Ok((src, tag, len, last))
    }

    /// Writes header + payload to a byte stream (no flush).
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.encode_header())?;
        w.write_all(&self.payload)
    }

    /// Reads one frame from a byte stream. Returns `Ok(None)` on clean EOF
    /// at a frame boundary; EOF mid-header or mid-payload is
    /// [`DfoError::Corrupt`] (a peer died mid-frame or the stream is
    /// garbage).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Option<Frame>> {
        let mut h = [0u8; FRAME_HEADER_BYTES as usize];
        match read_exact_or_eof(r, &mut h) {
            Ok(true) => {}
            Ok(false) => return Ok(None),
            Err(e) => {
                return Err(DfoError::Corrupt(format!("truncated frame header: {e}")));
            }
        }
        let (src, tag, len, last) = Frame::decode_header(&h)?;
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload).map_err(|e| {
            DfoError::Corrupt(format!("truncated frame payload ({len} bytes): {e}"))
        })?;
        Ok(Some(Frame { src, tag, payload: Bytes::from(payload), last }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn wire_bytes_include_header() {
        let f = Frame { src: 0, tag: 1, payload: Bytes::from_static(b"abcd"), last: false };
        assert_eq!(f.wire_bytes(), FRAME_HEADER_BYTES + 4);
    }

    #[test]
    fn header_roundtrip() {
        let f = Frame { src: 7, tag: u64::MAX, payload: Bytes::from_static(b"xyz"), last: true };
        let h = f.encode_header();
        assert_eq!(Frame::decode_header(&h).unwrap(), (7, u64::MAX, 3, true));
    }

    #[test]
    fn stream_roundtrip_multiple_frames() {
        let frames = vec![
            Frame { src: 1, tag: 42, payload: Bytes::from(vec![9u8; 1000]), last: false },
            Frame { src: 1, tag: 42, payload: Bytes::new(), last: false },
            Frame { src: 1, tag: 42, payload: Bytes::new(), last: true },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut r = Cursor::new(buf);
        for want in &frames {
            let got = Frame::read_from(&mut r).unwrap().expect("frame present");
            assert_eq!(got.src, want.src);
            assert_eq!(got.tag, want.tag);
            assert_eq!(got.payload, want.payload);
            assert_eq!(got.last, want.last);
        }
        assert!(Frame::read_from(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_header_is_corrupt() {
        let f = Frame { src: 0, tag: 5, payload: Bytes::from_static(b"data"), last: true };
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        for cut in 1..FRAME_HEADER_BYTES as usize {
            let mut r = Cursor::new(&buf[..cut]);
            assert!(
                matches!(Frame::read_from(&mut r), Err(DfoError::Corrupt(_))),
                "cut at {cut} must be a truncated-header error"
            );
        }
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let f = Frame { src: 0, tag: 5, payload: Bytes::from(vec![1u8; 64]), last: false };
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let mut r = Cursor::new(&buf[..buf.len() - 1]);
        assert!(matches!(Frame::read_from(&mut r), Err(DfoError::Corrupt(_))));
    }

    #[test]
    fn oversized_length_word_is_corrupt() {
        let f = Frame { src: 0, tag: 0, payload: Bytes::new(), last: false };
        let mut h = f.encode_header();
        // forge a length beyond MAX_FRAME_PAYLOAD (with the last bit clear)
        let bad = (MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
        h[12..16].copy_from_slice(&bad);
        assert!(matches!(Frame::decode_header(&h), Err(DfoError::Corrupt(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn codec_roundtrips_any_frame(
            src in 0usize..1024,
            tag in 0u64..u64::MAX,
            len in prop_oneof![Just(0usize), Just(1), Just(15), Just(16), Just(17), 0usize..4096],
            fill in 0u8..255,
            last in prop_oneof![Just(true), Just(false)],
        ) {
            let f = Frame { src, tag, payload: Bytes::from(vec![fill; len]), last };
            let mut buf = Vec::new();
            f.write_to(&mut buf).unwrap();
            prop_assert_eq!(buf.len() as u64, f.wire_bytes());
            let got = Frame::read_from(&mut Cursor::new(buf)).unwrap().unwrap();
            prop_assert_eq!(got.src, src);
            prop_assert_eq!(got.tag, tag);
            prop_assert_eq!(got.payload.as_ref(), f.payload.as_ref());
            prop_assert_eq!(got.last, last);
        }

        #[test]
        fn any_truncation_errors_or_yields_prefix(
            len in 0usize..512,
            cut in 0usize..528,
        ) {
            let f = Frame { src: 3, tag: 9, payload: Bytes::from(vec![7u8; len]), last: true };
            let mut buf = Vec::new();
            f.write_to(&mut buf).unwrap();
            let cut = cut.min(buf.len());
            let mut r = Cursor::new(&buf[..cut]);
            match Frame::read_from(&mut r) {
                Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is clean EOF"),
                Ok(Some(_)) => prop_assert_eq!(cut, buf.len(), "full frame required"),
                Err(DfoError::Corrupt(_)) => {
                    prop_assert!(cut > 0 && cut < buf.len(), "mid-frame cut");
                }
                Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
            }
        }
    }
}
