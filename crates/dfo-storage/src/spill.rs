//! Memory that is budgeted, and a record buffer that overflows to disk.
//!
//! DFOGraph is *fully* out of core: every message and every vertex block
//! has a home on disk. Whatever fits the node's memory budget need not make
//! the trip, though. [`MemBudget`] is that budget — one shared byte count
//! that every resident user of a node draws on (vertex blocks, message
//! chunks, filter lists), admitting until it is full and never evicting
//! (batches are scanned cyclically, where LRU is the worst policy).
//! [`ChunkPool`] hands a budget out in fixed-size chunks, and [`SpillBuf`]
//! is the message half: an append-only record buffer that stays in memory
//! while the pool has chunks and continues into a scratch file past that.
//! A budget of capacity 0 *is* the fully-out-of-core engine: every byte
//! goes to the file, through the same code.

use crate::disk::{DiskWriter, NodeDisk};
use dfo_types::{DfoError, Result};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A byte budget shared by every resident buffer of one node.
#[derive(Debug)]
pub struct MemBudget {
    cap: u64,
    used: AtomicU64,
}

impl MemBudget {
    pub fn new(cap: u64) -> Arc<Self> {
        Arc::new(Self { cap, used: AtomicU64::new(0) })
    }

    /// Claims `n` bytes if they still fit; the claim is the caller's to
    /// [`MemBudget::release`].
    pub fn try_reserve(&self, n: u64) -> bool {
        // Relaxed: the count publishes no other data
        self.used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                u.checked_add(n).filter(|&total| total <= self.cap)
            })
            .is_ok()
    }

    pub fn release(&self, n: u64) {
        self.used.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// Size of the chunks a [`SpillBuf`] keeps its in-memory head in, and of
/// the runs its spilled tail is read back in.
pub const CHUNK: usize = 64 << 10;

/// A [`MemBudget`] handed out as [`CHUNK`]-byte buffers that are kept and
/// reused, not freed: a chunk handed back stays claimed on the budget, so
/// the pool's footprint is its high-water mark and the budget's other
/// users get only what chunks never claimed. (Message buffers live for
/// one `ProcessEdges` call; left to the allocator, a call's worth of
/// buffers freed on one thread and the next call's allocated on another
/// pile up in per-thread arenas as resident memory several times the bytes
/// ever in use.)
pub struct ChunkPool {
    budget: Arc<MemBudget>,
    idle: Mutex<Vec<Vec<u8>>>,
}

impl ChunkPool {
    pub fn new(budget: Arc<MemBudget>) -> Arc<Self> {
        Arc::new(Self { budget, idle: Mutex::new(Vec::new()) })
    }

    /// An empty chunk, while the pool has or may allocate one.
    fn take(&self) -> Option<Vec<u8>> {
        let idle = self.idle.lock().expect("chunk pool lock poisoned").pop();
        idle.or_else(|| self.budget.try_reserve(CHUNK as u64).then(|| Vec::with_capacity(CHUNK)))
    }

    fn give(&self, chunks: impl Iterator<Item = Vec<u8>>) {
        // in Drop: a poisoned lock only costs the reuse
        if let Ok(mut idle) = self.idle.lock() {
            idle.extend(chunks.map(|mut c| {
                c.clear();
                c
            }));
        }
    }
}

/// Append-only buffer of fixed-size records: in memory while its pool has
/// chunks, in the scratch file `rel` past that. A record never straddles a
/// chunk or the boundary to the file; once one has spilled, all later ones
/// follow it (append order is memory first, then file). The buffer owns its
/// file and deletes it on drop.
pub struct SpillBuf {
    rec: usize,
    chunks: Vec<Vec<u8>>,
    /// Room left in the last chunk, a whole number of records.
    room: usize,
    pool: Arc<ChunkPool>,
    disk: NodeDisk,
    rel: String,
    file_buf: usize,
    writer: Option<DiskWriter>,
    mem_len: u64,
    spilled: u64,
}

impl SpillBuf {
    /// An empty buffer of `rec`-byte records drawing on `pool`; `file_buf`
    /// is the write-buffer size of the spill file, should it come to that.
    pub fn new(
        pool: &Arc<ChunkPool>,
        disk: &NodeDisk,
        rel: String,
        rec: usize,
        file_buf: usize,
    ) -> Self {
        assert!(rec > 0, "records have a size");
        Self {
            rec,
            chunks: Vec::new(),
            room: 0,
            pool: pool.clone(),
            disk: disk.clone(),
            rel,
            file_buf,
            writer: None,
            mem_len: 0,
            spilled: 0,
        }
    }

    /// Appends one record, or a run of whole records.
    #[inline]
    pub fn append(&mut self, mut recs: &[u8]) -> Result<()> {
        debug_assert_eq!(recs.len() % self.rec, 0, "appends are whole records");
        while !recs.is_empty() {
            if self.room == 0 && !self.new_chunk() {
                return self.spill(recs);
            }
            let (head, rest) = recs.split_at(recs.len().min(self.room));
            self.chunks.last_mut().expect("a chunk with room").extend_from_slice(head);
            self.room -= head.len();
            self.mem_len += head.len() as u64;
            recs = rest;
        }
        Ok(())
    }

    /// Starts a chunk if nothing has spilled yet and the pool has one.
    fn new_chunk(&mut self) -> bool {
        let usable = CHUNK / self.rec * self.rec;
        if self.spilled > 0 || usable == 0 {
            return false;
        }
        let Some(chunk) = self.pool.take() else { return false };
        self.chunks.push(chunk);
        self.room = usable;
        true
    }

    #[cold]
    fn spill(&mut self, recs: &[u8]) -> Result<()> {
        if self.writer.is_none() {
            self.writer = Some(self.disk.create_with_buffer(&self.rel, self.file_buf)?);
        }
        let w = self.writer.as_mut().expect("spill writer opened above");
        w.write_all(recs).map_err(|e| DfoError::io("spilling message records", e))?;
        self.spilled += recs.len() as u64;
        Ok(())
    }

    /// Ends appending: the spilled tail reaches the disk. The buffer may be
    /// replayed only after this.
    pub fn finish(&mut self) -> Result<()> {
        self.writer.take().map_or(Ok(()), DiskWriter::finish)
    }

    /// Bytes appended so far.
    pub fn len(&self) -> u64 {
        self.mem_len + self.spilled
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes that went to the spill file — what one full replay reads back
    /// from disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled
    }

    /// The records held in memory, as [`SpillBuf::for_each_run`] would
    /// replay them ahead of the spilled tail — without touching the disk.
    pub fn mem_runs(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().map(Vec::as_slice)
    }

    /// Replays the buffer in append order as runs of whole records: the
    /// in-memory chunks, then the spilled tail read back from disk run by
    /// run.
    pub fn for_each_run(&self, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        assert!(self.writer.is_none(), "SpillBuf replayed before finish()");
        for chunk in &self.chunks {
            f(chunk)?;
        }
        if self.spilled > 0 {
            let mut file = self.disk.open(&self.rel)?;
            let mut run = vec![0u8; (CHUNK / self.rec).max(1) * self.rec];
            let mut left = self.spilled;
            while left > 0 {
                let n = (run.len() as u64).min(left) as usize;
                file.read_exact(&mut run[..n])
                    .map_err(|e| DfoError::io("reading spilled message records", e))?;
                f(&run[..n])?;
                left -= n as u64;
            }
        }
        Ok(())
    }
}

impl Drop for SpillBuf {
    fn drop(&mut self) {
        self.pool.give(self.chunks.drain(..));
        if self.spilled > 0 {
            self.writer = None;
            let _ = self.disk.remove(&self.rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tempfile::TempDir;

    fn disk() -> (TempDir, NodeDisk) {
        let td = TempDir::new().unwrap();
        let d = NodeDisk::new(td.path(), None, false).unwrap();
        (td, d)
    }

    fn replay(buf: &SpillBuf, rec: usize) -> Vec<u8> {
        let mut out = Vec::new();
        buf.for_each_run(|run| {
            assert!(!run.is_empty() && run.len() % rec == 0, "runs are whole records");
            out.extend_from_slice(run);
            Ok(())
        })
        .unwrap();
        out
    }

    fn counting(n: u32) -> Vec<u8> {
        (0..n).flat_map(u32::to_le_bytes).collect()
    }

    #[test]
    fn budget_admits_until_full_and_gives_back() {
        let b = MemBudget::new(100);
        assert!(b.try_reserve(60));
        assert!(!b.try_reserve(41), "would pass the cap");
        assert!(b.try_reserve(40));
        b.release(60);
        assert_eq!(b.used(), 40);
        assert!(!MemBudget::new(0).try_reserve(1));
        let all = MemBudget::new(u64::MAX);
        assert!(all.try_reserve(u64::MAX) && !all.try_reserve(1), "no wrap-around");
    }

    #[test]
    fn within_budget_nothing_touches_the_disk() {
        let (_td, d) = disk();
        let budget = MemBudget::new(1 << 20);
        let mut buf =
            SpillBuf::new(&ChunkPool::new(budget.clone()), &d, "msgs/a.bin".into(), 4, 4096);
        for r in counting(1000).chunks(4) {
            buf.append(r).unwrap();
        }
        buf.finish().unwrap();
        assert_eq!((buf.len(), buf.spilled_bytes()), (4000, 0));
        assert_eq!(replay(&buf, 4), counting(1000));
        assert_eq!(d.stats().total_bytes(), 0);
        assert!(!d.exists("msgs/a.bin"));
        assert_eq!(budget.used(), CHUNK as u64);
    }

    #[test]
    fn capacity_zero_is_the_plain_scratch_file() {
        let (_td, d) = disk();
        let pool = ChunkPool::new(MemBudget::new(0));
        let mut buf = SpillBuf::new(&pool, &d, "msgs/a.bin".into(), 4, 4096);
        for r in counting(1000).chunks(4) {
            buf.append(r).unwrap();
        }
        buf.finish().unwrap();
        assert_eq!((buf.len(), buf.spilled_bytes()), (4000, 4000));
        assert_eq!(d.stats().write_bytes.get(), 4000);
        assert_eq!(d.read_to_vec("msgs/a.bin").unwrap(), counting(1000));
        let r0 = d.stats().read_bytes.get();
        assert_eq!(replay(&buf, 4), counting(1000));
        assert_eq!(d.stats().read_bytes.get() - r0, buf.spilled_bytes());
        drop(buf);
        assert!(!d.exists("msgs/a.bin"), "the buffer deletes its spill file");
    }

    #[test]
    fn buffers_share_one_pool_and_chunks_are_reused() {
        let (_td, d) = disk();
        let budget = MemBudget::new(CHUNK as u64);
        let pool = ChunkPool::new(budget.clone());
        let mut a = SpillBuf::new(&pool, &d, "a.bin".into(), 8, 4096);
        let mut b = SpillBuf::new(&pool, &d, "b.bin".into(), 8, 4096);
        a.append(&[1; 8]).unwrap(); // takes the pool's only chunk
        b.append(&[2; 8]).unwrap();
        assert_eq!((a.spilled_bytes(), b.spilled_bytes()), (0, 8));
        drop(a);
        let mut c = SpillBuf::new(&pool, &d, "c.bin".into(), 8, 4096);
        c.append(&[3; 8]).unwrap();
        c.finish().unwrap();
        assert_eq!(c.spilled_bytes(), 0, "a's chunk went back to the pool");
        assert_eq!(replay(&c, 8), [3; 8], "and came back empty");
        assert_eq!(budget.used(), CHUNK as u64, "nothing new was allocated");
    }

    #[test]
    fn a_run_longer_than_a_chunk_splits_at_record_boundaries() {
        let (_td, d) = disk();
        let pool = ChunkPool::new(MemBudget::new(2 * CHUNK as u64));
        let rec = 12; // does not divide CHUNK
        let run: Vec<u8> = (0..3 * CHUNK / rec * rec).map(|i| (i / rec) as u8).collect();
        let mut buf = SpillBuf::new(&pool, &d, "r.bin".into(), rec, 4096);
        buf.append(&run).unwrap();
        buf.finish().unwrap();
        assert_eq!(buf.len() - buf.spilled_bytes(), (2 * (CHUNK / rec * rec)) as u64);
        assert_eq!(replay(&buf, rec), run);
    }

    proptest! {
        // Records straddling the spill cap come back in append order for
        // any cap: 0, one record, one chunk, mid-buffer, unbounded.
        #[test]
        fn records_come_back_in_append_order_for_any_cap(
            cap_sel in 0usize..5,
            rec in 1usize..24,
            n in 0usize..30_000,
        ) {
            let (_td, d) = disk();
            let total = rec * n;
            let cap = [0, rec as u64, CHUNK as u64, (total / 2) as u64, u64::MAX][cap_sel];
            let budget = MemBudget::new(cap);
            let pool = ChunkPool::new(budget.clone());
            let mut buf = SpillBuf::new(&pool, &d, "msgs/p.bin".into(), rec, 1 << 10);
            let mut want = Vec::with_capacity(total);
            let mut record = vec![0u8; rec];
            for i in 0..n {
                for (k, byte) in record.iter_mut().enumerate() {
                    *byte = (i * 31 + k) as u8;
                }
                buf.append(&record).unwrap();
                want.extend_from_slice(&record);
            }
            buf.finish().unwrap();
            prop_assert_eq!(buf.len(), total as u64);
            let in_mem = buf.len() - buf.spilled_bytes();
            prop_assert!(in_mem <= cap && budget.used() <= cap);
            prop_assert!(cap >= CHUNK as u64 || in_mem == 0);
            prop_assert!(cap < u64::MAX || buf.spilled_bytes() == 0);
            prop_assert!(cap_sel != 3 || n < 2 * CHUNK / rec || buf.spilled_bytes().min(in_mem) > 0);
            prop_assert_eq!(replay(&buf, rec), want);
            prop_assert_eq!(d.stats().write_bytes.get(), buf.spilled_bytes());
        }
    }
}
