//! Minimal little-endian binary codec used by every on-disk format.
//!
//! All DFOGraph file formats (edge chunks, dispatch graphs, filter lists,
//! checkpoint metadata, message files) frame their contents with explicit
//! little-endian integers written through these helpers, so the formats stay
//! readable without any serialization framework.
//!
//! Messages that arrive whole (job-control payloads, job specs, per-rank
//! stats) are decoded with [`Cur`], the one bounds-checked slice cursor of
//! the workspace. Neither path lets a length prefix allocate or index more
//! than the input really holds.

use crate::error::{DfoError, Result};
use std::io::{self, Read, Write};

/// Writes a `u64` little-endian.
#[inline]
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u32` little-endian.
#[inline]
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64` little-endian.
#[inline]
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a `u32` little-endian.
#[inline]
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Fills `buf` completely, or returns `Ok(false)` if the stream was already
/// at EOF. A partial fill followed by EOF is an error (truncated file).
pub fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("truncated record: got {filled} of {} bytes", buf.len()),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Writes a length-prefixed byte string.
pub fn write_bytes<W: Write>(w: &mut W, b: &[u8]) -> io::Result<()> {
    write_u64(w, b.len() as u64)?;
    w.write_all(b)
}

/// Reads a length-prefixed byte string written by [`write_bytes`]. The
/// prefix is untrusted: the buffer grows only as bytes actually arrive, so
/// a hostile length fails on short input instead of allocating for it.
pub fn read_bytes<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let len = read_u64(r)?;
    let mut buf = Vec::new();
    let got = r.by_ref().take(len).read_to_end(&mut buf)? as u64;
    if got != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("byte string claims {len} bytes, {got} remain"),
        ));
    }
    Ok(buf)
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_bytes(w, s.as_bytes())
}

/// Reads a string written by [`write_str`].
pub fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let b = read_bytes(r)?;
    String::from_utf8(b).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Bounds-checked cursor over a message held in memory. Every read either
/// returns bytes that are really in the slice or fails with
/// [`DfoError::Protocol`], so a length field taken off the wire can never
/// index or allocate past the message it arrived in.
pub struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    pub fn new(b: &'a [u8]) -> Self {
        Self { b, off: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| DfoError::Protocol("message truncated".into()))?;
        let s = &self.b[self.off..end];
        self.off = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A byte string behind a `u32` length prefix.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A UTF-8 string behind a `u32` length prefix.
    pub fn str(&mut self) -> Result<String> {
        utf8(self.bytes()?)
    }

    /// A UTF-8 string behind a `u64` length prefix ([`write_str`]'s form).
    pub fn str64(&mut self) -> Result<String> {
        let len = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        utf8(self.take(len)?)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.off == self.b.len()
    }

    /// Fails unless every byte has been consumed.
    pub fn done(&self) -> Result<()> {
        if !self.is_empty() {
            return Err(DfoError::Protocol("trailing bytes after message".into()));
        }
        Ok(())
    }
}

/// Decodes a string field, failing with [`DfoError::Protocol`].
pub fn utf8(b: &[u8]) -> Result<String> {
    String::from_utf8(b.to_vec())
        .map_err(|_| DfoError::Protocol("string field is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn hostile_length_prefix_fails_without_allocating() {
        for claimed in [u64::MAX, 1 << 62, 1 << 40, 4] {
            let mut msg = Vec::new();
            write_u64(&mut msg, claimed).unwrap();
            msg.extend_from_slice(b"abc");
            let err = read_bytes(&mut Cursor::new(&msg)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "claimed {claimed}");
            assert!(matches!(Cur::new(&msg).str64(), Err(DfoError::Protocol(_))));
        }
    }

    #[test]
    fn cur_reads_are_bounds_checked() {
        let mut msg = vec![7u8];
        msg.extend(3u32.to_le_bytes());
        msg.extend_from_slice(b"abc");
        let mut c = Cur::new(&msg);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.str().unwrap(), "abc");
        assert!(c.is_empty() && c.done().is_ok());
        assert!(c.u8().is_err(), "read past the end");
        // a prefix that claims more than the message holds
        let mut c = Cur::new(&msg[1..7]);
        assert!(matches!(c.bytes(), Err(DfoError::Protocol(_))));
        // unread bytes are an error for `done`
        assert!(Cur::new(&msg).done().is_err());
    }

    #[test]
    fn roundtrip_ints() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        write_u32(&mut buf, 0xabcd_1234).unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_u64(&mut c).unwrap(), u64::MAX - 1);
        assert_eq!(read_u32(&mut c).unwrap(), 0xabcd_1234);
    }

    #[test]
    fn roundtrip_strings() {
        let mut buf = Vec::new();
        write_str(&mut buf, "dispatch/p3_b7.dcsr").unwrap();
        write_str(&mut buf, "").unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_str(&mut c).unwrap(), "dispatch/p3_b7.dcsr");
        assert_eq!(read_str(&mut c).unwrap(), "");
    }

    #[test]
    fn eof_detection() {
        let data = vec![1u8, 2, 3, 4];
        let mut c = Cursor::new(data);
        let mut buf = [0u8; 4];
        assert!(read_exact_or_eof(&mut c, &mut buf).unwrap());
        assert_eq!(buf, [1, 2, 3, 4]);
        assert!(!read_exact_or_eof(&mut c, &mut buf).unwrap());
    }

    #[test]
    fn truncated_record_is_error() {
        let data = vec![1u8, 2, 3];
        let mut c = Cursor::new(data);
        let mut buf = [0u8; 4];
        assert!(read_exact_or_eof(&mut c, &mut buf).is_err());
    }
}
