//! Per-node disk handle: real files under a per-node root directory, with
//! every byte throttled and accounted.
//!
//! Sequential access goes through [`DiskWriter`]/[`DiskReader`] (buffered,
//! so throttling and accounting happen at buffer granularity, matching how
//! an SSD sees large sequential requests). Random access goes through
//! [`RandomFile`] (positioned reads, one accounting event per call —
//! matching how page-sized random I/O hits an SSD).

use crate::compress::{BlockFile, FrameWriter};
use crate::throttle::Throttle;
use dfo_types::{Counter, DfoError, Result, TrafficRecorder};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What a file holds, fixed when it is opened from its disk-relative path
/// (the layout preprocessing and the engine write).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// `chunks/`: edge chunks.
    Chunk,
    /// `dispatch/`: dispatching graphs.
    Dispatch,
    /// `filter/`: filter lists.
    Filter,
    /// `arrays/<name>/blocks/`: vertex data.
    ArrayBlock,
    /// The rest of `arrays/`: manifests, `CURRENT`, `COMMITS.bin`.
    ArrayMeta,
    /// `msgs/`: message spills.
    Spill,
    /// `plan.bin`.
    Plan,
    /// Any other path.
    Other,
}

impl FileClass {
    pub const ALL: [FileClass; 8] = [
        FileClass::Chunk,
        FileClass::Dispatch,
        FileClass::Filter,
        FileClass::ArrayBlock,
        FileClass::ArrayMeta,
        FileClass::Spill,
        FileClass::Plan,
        FileClass::Other,
    ];

    /// The class of the file at `rel`, from its first component.
    pub fn of(rel: &str) -> Self {
        let (first, rest) = rel.split_once('/').unwrap_or((rel, ""));
        match first {
            "chunks" => Self::Chunk,
            "dispatch" => Self::Dispatch,
            "filter" => Self::Filter,
            "arrays" if rest.contains("/blocks/") => Self::ArrayBlock,
            "arrays" => Self::ArrayMeta,
            "msgs" => Self::Spill,
            "plan.bin" => Self::Plan,
            _ => Self::Other,
        }
    }
}

/// Physical bytes and operations of one [`FileClass`].
#[derive(Debug, Default)]
pub struct ClassStats {
    pub read_bytes: Counter,
    pub write_bytes: Counter,
    pub read_ops: Counter,
    pub write_ops: Counter,
}

/// Byte/op counters plus optional traffic time series for one node's disk.
///
/// `read_bytes`/`write_bytes` are *physical*: what actually crossed the
/// (simulated) device, post-compression. `logical_read_bytes`/
/// `logical_write_bytes` are what the pipeline consumed or produced —
/// identical to physical for raw files, larger for compressed chunk frames
/// (see [`crate::compress`]). The throttle paces physical bytes only.
/// [`DiskStats::class`] splits the physical bytes and operations by
/// [`FileClass`]; the classes sum to the totals.
pub struct DiskStats {
    pub read_bytes: Counter,
    pub write_bytes: Counter,
    pub logical_read_bytes: Counter,
    pub logical_write_bytes: Counter,
    pub read_ops: Counter,
    pub write_ops: Counter,
    pub read_traffic: TrafficRecorder,
    pub write_traffic: TrafficRecorder,
    /// Wall time spent inside read operations (file op + throttle), ns.
    pub read_nanos: Counter,
    /// Wall time spent inside write operations (file op + throttle), ns.
    pub write_nanos: Counter,
    /// Wall time spent LZ4-encoding chunk frames on the write path, ns.
    pub encode_nanos: Counter,
    /// Wall time spent decoding/checksumming chunk frames on the read
    /// path, ns.
    pub decode_nanos: Counter,
    by_class: [ClassStats; FileClass::ALL.len()],
}

impl DiskStats {
    /// The physical traffic of files of class `c`.
    pub fn class(&self, c: FileClass) -> &ClassStats {
        &self.by_class[c as usize]
    }

    fn new(record_traffic: bool) -> Self {
        Self {
            read_bytes: Counter::new(),
            write_bytes: Counter::new(),
            logical_read_bytes: Counter::new(),
            logical_write_bytes: Counter::new(),
            read_ops: Counter::new(),
            write_ops: Counter::new(),
            read_traffic: TrafficRecorder::new(record_traffic),
            write_traffic: TrafficRecorder::new(record_traffic),
            read_nanos: Counter::new(),
            write_nanos: Counter::new(),
            encode_nanos: Counter::new(),
            decode_nanos: Counter::new(),
            by_class: Default::default(),
        }
    }

    /// Total *physical* bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.get() + self.write_bytes.get()
    }

    pub fn reset(&self) {
        self.read_bytes.reset();
        self.write_bytes.reset();
        self.logical_read_bytes.reset();
        self.logical_write_bytes.reset();
        self.read_ops.reset();
        self.write_ops.reset();
        self.read_traffic.reset();
        self.write_traffic.reset();
        self.read_nanos.reset();
        self.write_nanos.reset();
        self.encode_nanos.reset();
        self.decode_nanos.reset();
        for c in &self.by_class {
            for n in [&c.read_bytes, &c.write_bytes, &c.read_ops, &c.write_ops] {
                n.reset();
            }
        }
    }
}

/// Handle to one simulated node's local disk.
#[derive(Clone)]
pub struct NodeDisk {
    root: PathBuf,
    throttle: Throttle,
    stats: Arc<DiskStats>,
}

impl NodeDisk {
    /// Opens (creating if needed) a node disk rooted at `root`.
    /// `bandwidth` paces *all* traffic on this disk; `record_traffic`
    /// enables the Figure 5 time series.
    pub fn new(
        root: impl Into<PathBuf>,
        bandwidth: Option<u64>,
        record_traffic: bool,
    ) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| DfoError::io(format!("creating disk root {}", root.display()), e))?;
        Ok(Self {
            root,
            throttle: Throttle::from_option(bandwidth),
            stats: Arc::new(DiskStats::new(record_traffic)),
        })
    }

    /// A view of this disk rooted at `<root>/<sub>`, **sharing** the parent's
    /// throttle and byte counters: traffic on the scoped view is paced by
    /// and accounted to the same simulated device. The service layer gives
    /// each job such a view for its scratch data (vertex arrays, message
    /// spills, checkpoints) so concurrent jobs on one node never collide on
    /// file paths while still contending for the node's disk bandwidth.
    pub fn scoped(&self, sub: &str) -> Result<Self> {
        let root = self.root.join(sub);
        fs::create_dir_all(&root).map_err(|e| {
            DfoError::io(format!("creating scoped disk root {}", root.display()), e)
        })?;
        Ok(Self { root, throttle: self.throttle.clone(), stats: self.stats.clone() })
    }

    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path for a disk-relative path, creating parent directories.
    pub fn path(&self, rel: &str) -> Result<PathBuf> {
        let p = self.root.join(rel);
        if let Some(parent) = p.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| DfoError::io(format!("creating dir {}", parent.display()), e))?;
        }
        Ok(p)
    }

    /// Creates (truncating) a buffered, accounted sequential writer.
    pub fn create(&self, rel: &str) -> Result<DiskWriter> {
        self.create_with_buffer(rel, BUF_CAP)
    }

    /// Like [`NodeDisk::create`] with an explicit buffer size — dispatching
    /// keeps one open writer per destination batch, so it uses small buffers.
    pub fn create_with_buffer(&self, rel: &str, buf_cap: usize) -> Result<DiskWriter> {
        self.create_inner(rel, buf_cap, true)
    }

    fn create_inner(&self, rel: &str, buf_cap: usize, count_logical: bool) -> Result<DiskWriter> {
        let p = self.path(rel)?;
        let f = File::create(&p).map_err(|e| DfoError::io(format!("creating {rel}"), e))?;
        Ok(DiskWriter {
            inner: BufWriter::with_capacity(
                buf_cap,
                Accounted { file: f, disk: self.clone(), count_logical, class: FileClass::of(rel) },
            ),
        })
    }

    /// Creates a chunk-frame writer (see [`crate::compress`]): with
    /// `compress = true` the stream is block-compressed on its way to disk
    /// (physical bytes shrink, logical bytes record what the caller wrote);
    /// with `compress = false` it is a plain passthrough producing files
    /// byte-identical to [`NodeDisk::create`].
    pub fn create_framed(&self, rel: &str, compress: bool) -> Result<FrameWriter<DiskWriter>> {
        // when compressing, the Accounted layer must not also count its
        // (physical) bytes as logical — the frame writer owns that number
        let inner = self.create_inner(rel, BUF_CAP, !compress)?;
        let mut w = FrameWriter::new(inner, compress)?;
        if compress {
            w.account_logical_to(self.clone());
        }
        Ok(w)
    }

    /// Opens a file for appending (creating it if absent).
    pub fn append(&self, rel: &str) -> Result<DiskWriter> {
        let p = self.path(rel)?;
        let f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&p)
            .map_err(|e| DfoError::io(format!("appending {rel}"), e))?;
        Ok(DiskWriter {
            inner: BufWriter::with_capacity(
                BUF_CAP,
                Accounted {
                    file: f,
                    disk: self.clone(),
                    count_logical: true,
                    class: FileClass::of(rel),
                },
            ),
        })
    }

    /// Opens a buffered, accounted sequential reader.
    pub fn open(&self, rel: &str) -> Result<DiskReader> {
        let p = self.root.join(rel);
        let f = File::open(&p).map_err(|e| DfoError::io(format!("opening {rel}"), e))?;
        Ok(DiskReader {
            inner: BufReader::with_capacity(
                BUF_CAP,
                Accounted {
                    file: f,
                    disk: self.clone(),
                    count_logical: true,
                    class: FileClass::of(rel),
                },
            ),
        })
    }

    /// Opens a file [`NodeDisk::create_framed`] wrote for a read of its
    /// logical bytes from the front: a [`BlockFile`] of one column, whose
    /// [`Read`] decodes a container (detected by its magic) block by block
    /// and passes a raw file through unchanged. Physical read bytes are
    /// accounted at the device layer as always; logical read bytes count
    /// the blocks (or raw spans) it fetches — all of the stream, read to
    /// the end.
    pub fn open_framed(&self, rel: &str) -> Result<BlockFile> {
        BlockFile::open(self, rel, 1)
    }

    /// Opens a file for positioned reads — all a file in a read-only
    /// directory (a shared graph catalog) needs.
    pub fn open_random(&self, rel: &str) -> Result<RandomFile> {
        let f = File::open(self.root.join(rel))
            .map_err(|e| DfoError::io(format!("opening {rel} for positioned reads"), e))?;
        Ok(RandomFile {
            file: f,
            disk: self.clone(),
            count_logical: true,
            class: FileClass::of(rel),
        })
    }

    pub fn exists(&self, rel: &str) -> bool {
        self.root.join(rel).exists()
    }

    pub fn len(&self, rel: &str) -> Result<u64> {
        fs::metadata(self.root.join(rel))
            .map(|m| m.len())
            .map_err(|e| DfoError::io(format!("stat {rel}"), e))
    }

    pub fn remove(&self, rel: &str) -> Result<()> {
        match fs::remove_file(self.root.join(rel)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(DfoError::io(format!("removing {rel}"), e)),
        }
    }

    /// Total bytes of every file under this disk's root, recursively — for
    /// a scoped disk, the measured on-disk footprint of that scope (vertex
    /// arrays, checkpoints, message spills). Files that vanish mid-walk
    /// (concurrent cleanup) are skipped rather than erroring.
    pub fn usage_bytes(&self) -> Result<u64> {
        fn walk(dir: &Path) -> io::Result<u64> {
            let mut total = 0;
            for entry in fs::read_dir(dir)? {
                let entry = match entry {
                    Ok(e) => e,
                    Err(_) => continue,
                };
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_dir() {
                    total += walk(&entry.path()).unwrap_or(0);
                } else {
                    total += meta.len();
                }
            }
            Ok(total)
        }
        walk(&self.root)
            .map_err(|e| DfoError::io(format!("sizing disk root {}", self.root.display()), e))
    }

    /// Atomically replaces `rel` with `contents` (write temp + rename); used
    /// for checkpoint CURRENT pointers.
    pub fn write_atomic(&self, rel: &str, contents: &[u8]) -> Result<()> {
        let tmp_rel = format!("{rel}.tmp");
        let tmp = self.path(&tmp_rel)?;
        let dst = self.path(rel)?;
        {
            let mut f =
                File::create(&tmp).map_err(|e| DfoError::io(format!("creating {tmp_rel}"), e))?;
            f.write_all(contents).map_err(|e| DfoError::io(format!("writing {tmp_rel}"), e))?;
            f.sync_all().ok();
        }
        self.account_write(contents.len() as u64, true, FileClass::of(rel));
        fs::rename(&tmp, &dst).map_err(|e| DfoError::io(format!("renaming into {rel}"), e))?;
        Ok(())
    }

    /// Reads a whole file into one allocation of exactly its length (a
    /// vector grown by doubling would hold up to twice that for as long as
    /// the caller keeps it).
    pub fn read_to_vec(&self, rel: &str) -> Result<Vec<u8>> {
        let file = File::open(self.root.join(rel))
            .map_err(|e| DfoError::io(format!("opening {rel}"), e))?;
        let len = file.metadata().map_err(|e| DfoError::io(format!("stat {rel}"), e))?.len();
        let mut buf = vec![0u8; len as usize];
        let class = FileClass::of(rel);
        Accounted { file, disk: self.clone(), count_logical: true, class }
            .read_exact(&mut buf)
            .map_err(|e| DfoError::io(format!("reading {rel}"), e))?;
        Ok(buf)
    }

    fn account_read(&self, bytes: u64, logical: bool, class: FileClass) {
        self.throttle.acquire(bytes);
        self.stats.read_bytes.add(bytes);
        self.stats.read_ops.add(1);
        let c = self.stats.class(class);
        c.read_bytes.add(bytes);
        c.read_ops.add(1);
        self.stats.read_traffic.record(bytes);
        if logical {
            self.stats.logical_read_bytes.add(bytes);
        }
    }

    fn account_write(&self, bytes: u64, logical: bool, class: FileClass) {
        self.throttle.acquire(bytes);
        self.stats.write_bytes.add(bytes);
        self.stats.write_ops.add(1);
        let c = self.stats.class(class);
        c.write_bytes.add(bytes);
        c.write_ops.add(1);
        self.stats.write_traffic.record(bytes);
        if logical {
            self.stats.logical_write_bytes.add(bytes);
        }
    }

    /// Records logical-only bytes (the decoded side of a compressed frame);
    /// physical accounting happened when the frame bytes hit the device.
    pub(crate) fn add_logical_read(&self, bytes: u64) {
        self.stats.logical_read_bytes.add(bytes);
    }

    pub(crate) fn add_logical_write(&self, bytes: u64) {
        self.stats.logical_write_bytes.add(bytes);
    }

    /// Charges frame-codec encode time (the compress side of a chunk write).
    pub(crate) fn add_encode_nanos(&self, nanos: u64) {
        self.stats.encode_nanos.add(nanos);
    }

    /// Charges frame-codec decode time (checksum + LZ4 on a chunk read).
    pub(crate) fn add_decode_nanos(&self, nanos: u64) {
        self.stats.decode_nanos.add(nanos);
    }
}

const BUF_CAP: usize = 256 << 10;

/// File wrapper charging the node's throttle and counters per syscall-level
/// operation. `count_logical` is false when a frame codec sits above this
/// file and owns the logical-byte numbers.
struct Accounted {
    file: File,
    disk: NodeDisk,
    count_logical: bool,
    class: FileClass,
}

impl Read for Accounted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t0 = std::time::Instant::now();
        let n = self.file.read(buf)?;
        if n > 0 {
            self.disk.account_read(n as u64, self.count_logical, self.class);
            self.disk.stats.read_nanos.add(t0.elapsed().as_nanos() as u64);
        }
        Ok(n)
    }
}

impl Write for Accounted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t0 = std::time::Instant::now();
        let n = self.file.write(buf)?;
        if n > 0 {
            self.disk.account_write(n as u64, self.count_logical, self.class);
            self.disk.stats.write_nanos.add(t0.elapsed().as_nanos() as u64);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Buffered, accounted sequential writer.
pub struct DiskWriter {
    inner: BufWriter<Accounted>,
}

impl DiskWriter {
    /// Flushes buffers and syncs metadata-free content to the OS.
    pub fn finish(mut self) -> Result<()> {
        self.inner.flush().map_err(|e| DfoError::io("flushing disk writer", e))?;
        Ok(())
    }
}

impl Write for DiskWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Buffered, accounted sequential reader.
pub struct DiskReader {
    inner: BufReader<Accounted>,
}

impl Read for DiskReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

/// Positioned-read file handle; every call is one accounted disk operation.
pub struct RandomFile {
    file: File,
    disk: NodeDisk,
    /// False when a codec above this file owns the logical-byte number
    /// ([`crate::compress::BlockFile`]).
    pub(crate) count_logical: bool,
    class: FileClass,
}

impl RandomFile {
    pub fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        let t0 = std::time::Instant::now();
        self.file
            .read_exact_at(buf, offset)
            .map_err(|e| DfoError::io(format!("read_at offset {offset}"), e))?;
        self.disk.account_read(buf.len() as u64, self.count_logical, self.class);
        self.disk.stats.read_nanos.add(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    pub(crate) fn len(&self) -> Result<u64> {
        self.file.metadata().map(|m| m.len()).map_err(|e| DfoError::io("random file len", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempfile::TempDir;

    fn disk() -> (TempDir, NodeDisk) {
        let td = TempDir::new().unwrap();
        let d = NodeDisk::new(td.path().join("n0"), None, false).unwrap();
        (td, d)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (_td, d) = disk();
        let mut w = d.create("a/b/data.bin").unwrap();
        w.write_all(b"hello dfograph").unwrap();
        w.finish().unwrap();
        let mut r = d.open("a/b/data.bin").unwrap();
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "hello dfograph");
        assert_eq!(d.stats().write_bytes.get(), 14);
        assert_eq!(d.stats().read_bytes.get(), 14);
    }

    #[test]
    fn append_accumulates() {
        let (_td, d) = disk();
        for i in 0..3u8 {
            let mut w = d.append("log.bin").unwrap();
            w.write_all(&[i]).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(d.read_to_vec("log.bin").unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn random_file_positioned_io() {
        let (_td, d) = disk();
        let mut w = d.create("rand.bin").unwrap();
        w.write_all(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        w.finish().unwrap();
        let f = d.open_random("rand.bin").unwrap();
        let mut buf = [0u8; 4];
        f.read_at(&mut buf, 6).unwrap();
        assert_eq!(buf, [6, 7, 8, 9]);
        assert_eq!(f.len().unwrap(), 10);
        assert_eq!((d.stats().read_bytes.get(), d.stats().read_ops.get()), (4, 1));
        assert_eq!(d.stats().logical_read_bytes.get(), 4);
        assert!(f.read_at(&mut buf, 8).is_err(), "past the end");
    }

    #[test]
    fn atomic_write_replaces() {
        let (_td, d) = disk();
        d.write_atomic("CURRENT", b"1").unwrap();
        d.write_atomic("CURRENT", b"2").unwrap();
        assert_eq!(d.read_to_vec("CURRENT").unwrap(), b"2");
    }

    #[test]
    fn remove_missing_is_ok() {
        let (_td, d) = disk();
        d.remove("never-existed.bin").unwrap();
    }

    #[test]
    fn buffered_writer_accounts_at_buffer_granularity() {
        let (_td, d) = disk();
        let mut w = d.create("big.bin").unwrap();
        for _ in 0..1000 {
            w.write_all(&[0u8; 100]).unwrap();
        }
        w.finish().unwrap();
        // 100 KB written through a 256 KB buffer: one underlying op.
        assert_eq!(d.stats().write_bytes.get(), 100_000);
        assert!(d.stats().write_ops.get() <= 2);
    }

    #[test]
    fn scoped_disk_shares_stats_and_isolates_paths() {
        let (_td, d) = disk();
        let s = d.scoped("jobs/j1").unwrap();
        let mut w = s.create("data.bin").unwrap();
        w.write_all(b"abcd").unwrap();
        w.finish().unwrap();
        // bytes accounted on the parent device…
        assert_eq!(d.stats().write_bytes.get(), 4);
        // …but the file lives under the scope, invisible at the parent path
        assert!(s.exists("data.bin"));
        assert!(!d.exists("data.bin"));
        assert!(d.exists("jobs/j1/data.bin"));
    }

    #[test]
    fn file_classes_follow_the_layout() {
        for (rel, class) in [
            ("chunks/p0_b1.chunk", FileClass::Chunk),
            ("dispatch/from_1.dg", FileClass::Dispatch),
            ("filter/to_0.lst", FileClass::Filter),
            ("arrays/rank/blocks/3.bin", FileClass::ArrayBlock),
            ("arrays/rank/meta/ckpt_2.bin", FileClass::ArrayMeta),
            ("arrays/rank/CURRENT", FileClass::ArrayMeta),
            ("arrays/COMMITS.bin", FileClass::ArrayMeta),
            ("msgs/gen_b0.bin", FileClass::Spill),
            ("plan.bin", FileClass::Plan),
            ("plan.bin.tmp", FileClass::Other),
        ] {
            assert_eq!(FileClass::of(rel), class, "{rel}");
        }
        // a handle keeps the class of the path it was opened with
        let (_td, d) = disk();
        d.write_atomic("arrays/a/CURRENT", &[0u8; 8]).unwrap();
        let mut w = d.create("arrays/a/blocks/0.bin").unwrap();
        w.write_all(&[2u8; 16]).unwrap();
        w.finish().unwrap();
        let class = |c| (d.stats().class(c).write_bytes.get(), d.stats().class(c).write_ops.get());
        assert_eq!((class(FileClass::ArrayMeta), class(FileClass::ArrayBlock)), ((8, 1), (16, 1)));
    }

    #[test]
    fn throttled_disk_paces_writes() {
        let td = TempDir::new().unwrap();
        let d = NodeDisk::new(td.path(), Some(10 << 20), false).unwrap(); // 10 MB/s
        let start = std::time::Instant::now();
        let mut w = d.create("x.bin").unwrap();
        w.write_all(&vec![0u8; 2 << 20]).unwrap(); // 2 MB => ~200 ms
        w.finish().unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(150));
    }
}
